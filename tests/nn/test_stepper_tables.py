"""The stream stepper's row tables are the row layout they replaced.

``StreamStepper._plan`` decides which state rows one step reads and
writes: which chains of each slot carry state into the step, which one
the frame starts, and in what order the rows are laid out.  It reads
per-phase tables built once per stepper instead of deriving the layout
from each frame index on every call.  The tables must reproduce the
derivation exactly — row values, order, dtype and the recurrent count —
for every stride and window, at every phase including the warm-up
frames, and for any subset of slots in any order.  The oracle below is
that derivation, verbatim.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import WindowConfig
from repro.nn.backends import StreamStepper


def derived_plan(stepper, slots, seen):
    """The row layout as derived per call from each frame's index."""
    index = seen - 1  # this frame's position in its stream
    chain = index // stepper.stride % stepper.n_chains
    carried = np.ones((slots.shape[0], stepper.n_chains), dtype=bool)
    starting = np.flatnonzero(index % stepper.stride == 0)
    carried[starting, chain[starting]] = False
    rows, chains = np.nonzero(carried)
    base = slots * stepper.n_chains
    return (
        np.concatenate([rows, starting]),
        np.concatenate([base[rows] + chains, base[starting] + chain[starting]]),
        rows.shape[0],
    )


@st.composite
def calls(draw):
    stride = draw(st.integers(1, 3))
    window = draw(st.integers(1, 10))
    n_slots = draw(st.integers(1, 8))
    # A partial set of distinct slots in any order, each at its own
    # position in its stream: from its first frame (warm-up) to well
    # past several periods of its chains.
    slots = draw(st.permutations(range(n_slots)))[: draw(st.integers(1, n_slots))]
    seen = draw(st.lists(st.integers(1, 4 * (window + stride)), min_size=len(slots),
                         max_size=len(slots)))
    return stride, window, n_slots, np.array(slots, dtype=np.intp), np.array(seen, dtype=np.intp)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(calls())
def test_tables_reproduce_the_derived_layout(call):
    stride, window, n_slots, slots, seen = call
    stepper = StreamStepper([2], (3,), WindowConfig(window, stride), n_slots, float)
    frame_rows, state_rows, n_recurrent = stepper._plan(slots, seen)
    want_frames, want_states, want_recurrent = derived_plan(stepper, slots, seen)
    assert n_recurrent == want_recurrent
    for got, want in ((frame_rows, want_frames), (state_rows, want_states)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (got, want)


def test_every_phase_of_every_shape_alone_and_together():
    """Exhaustively, for stride 1-3 x window 1-10: each slot alone at
    every phase of two periods, and all slots together at staggered
    phases."""
    for stride in (1, 2, 3):
        for window in range(1, 11):
            stepper = StreamStepper([2], (3,), WindowConfig(window, stride), 4, float)
            period = stride * stepper.n_chains
            for slot in range(4):
                for seen in range(1, 2 * period + 2):
                    args = np.array([slot], dtype=np.intp), np.array([seen], dtype=np.intp)
                    got, want = stepper._plan(*args), derived_plan(stepper, *args)
                    assert got[2] == want[2]
                    assert all(np.array_equal(a, b) and a.dtype == b.dtype
                               for a, b in zip(got[:2], want[:2]))
            slots = np.array([3, 0, 2, 1], dtype=np.intp)
            for seen in range(1, 2 * period + 2):
                counts = seen + np.arange(4, dtype=np.intp)
                got, want = stepper._plan(slots, counts), derived_plan(stepper, slots, counts)
                assert got[2] == want[2]
                assert all(np.array_equal(a, b) for a, b in zip(got[:2], want[:2]))
