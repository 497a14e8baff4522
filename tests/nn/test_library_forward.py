"""The stacked library pass's own property suite.

``repro.nn.backends.library`` serves the error-classifier library.  Its
base ``score`` is one ``predict_proba`` per distinct gesture in the
call; under ``reference`` every context that brings fewer than
``ROW_BLOCK`` windows goes through **one stacked forward** instead —
rows ordered by member, each member's rows padded into whole
``ROW_BLOCK`` blocks, one stacked ``np.matmul`` per contraction.  The
contract is bytes: ``score(windows, gestures)`` is what each member's
own ``predict_proba`` yields on its rows, whatever shares the call.
That is shown here by test, per BLAS kernel family in CI, not by the
argument in the module's docstring — including three ways an
implementation can be subtly wrong and still look plausible (the
mutation tests at the end).
"""

import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from repro import nn
from repro.core.error_classifiers import (
    ErrorClassifier,
    ErrorClassifierConfig,
    ErrorClassifierLibrary,
)
from repro.gestures.vocabulary import Gesture
from repro.nn.backends import (
    LibraryBackend,
    ReferenceLibraryBackend,
    make_library_backend,
)
from repro.nn.backends import library as library_module
from repro.nn.layers.contract import ROW_BLOCK, contract

N_FEATURES = 6
#: Gestures 1..12 are trained members; 13 is constant, 14 is present but
#: untrained (``model is None``), 15 is unknown to the library.
MEMBERS = tuple(range(1, 13))
CONSTANT, UNTRAINED, UNKNOWN = 13, 14, 15

ARCHITECTURES = [
    pytest.param(arch, hidden, bn, id=f"{arch}-{'x'.join(map(str, hidden))}-{'bn' if bn else 'nobn'}")
    for arch in ("conv", "lstm")
    for hidden in ((8,), (8, 4))
    for bn in (True, False)
]
WINDOWS = (1, 3, 5, 10)


def make_member(gesture, config, window, seed):
    """One trained-looking member, built by the library's own builder."""
    rng = np.random.default_rng(seed)
    clf = ErrorClassifier(Gesture(gesture), config, seed=seed)
    clf.model = clf._build_model(positive_weight=1.0)
    clf.model.build((window, N_FEATURES))
    for p in clf.model.parameters():  # non-zero biases, distinct weights
        p += 0.3 * rng.standard_normal(p.shape)
    for layer in clf.model.layers:  # non-trivial running statistics
        if isinstance(layer, nn.BatchNorm):
            layer.running_mean[...] = rng.standard_normal(layer.running_mean.shape)
            layer.running_var[...] = 0.5 + rng.random(layer.running_var.shape)
    clf.scaler.fit(rng.standard_normal((32, window, N_FEATURES)) * 2.0 + rng.standard_normal(N_FEATURES))
    clf._fitted = True
    return clf


def make_library(architecture="conv", hidden=(8,), batch_norm=True, window=5, seed=0):
    config = ErrorClassifierConfig(
        architecture=architecture,
        hidden=hidden,
        dense_units=8,
        dropout=0.2,  # the Dropout layer is part of what the builder emits
        use_batch_norm=batch_norm,
    )
    library = ErrorClassifierLibrary(config, seed=seed)
    for gesture in MEMBERS:
        library.classifiers[Gesture(gesture)] = make_member(
            gesture, config, window, seed * 100 + gesture
        )
    library.constant_gestures.add(Gesture(CONSTANT))
    library.classifiers[Gesture(UNTRAINED)] = ErrorClassifier(Gesture(UNTRAINED), config)
    return library


def make_call(sizes, window, seed=1, shuffle=True):
    """Windows and gestures of one call: ``sizes`` maps gesture number
    to how many windows it brings."""
    rng = np.random.default_rng(seed)
    gestures = np.repeat(list(sizes), list(sizes.values())).astype(np.int64)
    if shuffle:
        rng.shuffle(gestures)
    windows = rng.standard_normal((gestures.shape[0], window, N_FEATURES)) * 2.0
    if windows.shape[0]:
        windows[0, :1] = 0.0  # signed zeros reach the first contraction
    return windows, gestures


def oracle(library, windows, gestures):
    """Each member's own ``predict_proba`` on its rows; 0.0 elsewhere."""
    expected = np.zeros(gestures.shape[0])
    for number in np.unique(gestures):
        clf = library.classifiers.get(int(number))
        if number < 1 or clf is None or clf.model is None:
            continue
        mask = gestures == number
        expected[mask] = clf.predict_proba(windows[mask])
    return expected


def assert_bytes(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes(), np.abs(got - expected).max()


#: Call compositions (gesture number -> windows), each exercising one
#: edge of the rule that selects the stacked pass.
def compositions():
    few = {1: 3, 2: 1, 4: 2}
    return {
        "one context": {3: 5},
        "one window": {7: 1},
        "every context brings one window": {g: 1 for g in MEMBERS},
        "two contexts": {2: 1, 9: 1},
        "a fleet tick": {1: 4, 3: 5, 4: 3, 6: 6, 8: 4, 9: 2, 12: 5},
        "a block less one, next to short ones": {**few, 6: ROW_BLOCK - 1},
        "a full block, next to short ones": {**few, 6: ROW_BLOCK},
        "a block and one, next to short ones": {**few, 6: ROW_BLOCK + 1},
        "a full block and one short context": {6: ROW_BLOCK, 2: 3},
        "only full blocks": {5: ROW_BLOCK, 6: ROW_BLOCK + 3},
        "every context a block less one": {g: ROW_BLOCK - 1 for g in MEMBERS[:5]},
        "seventy windows over twelve contexts": {
            g: 5 + (g <= 10) for g in MEMBERS
        },
        "no context, constant, untrained and unknown interleaved": {
            0: 3, 1: 2, CONSTANT: 2, 5: 4, UNTRAINED: 3, UNKNOWN: 1, 11: 1,
        },
        "nothing to score": {0: 2, CONSTANT: 1},
    }


# ----------------------------------------------------------------------
# score == each member's own forward, by bytes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("architecture,hidden,batch_norm", ARCHITECTURES)
@pytest.mark.parametrize("window", WINDOWS)
def test_score_is_each_members_own_forward(architecture, hidden, batch_norm, window):
    library = make_library(architecture, hidden, batch_norm, window, seed=window)
    backend = make_library_backend("reference", library)
    assert isinstance(backend, ReferenceLibraryBackend) and backend.path == "stacked"
    with warnings.catch_warnings():  # pad rows are zeros: finite in, finite out
        warnings.simplefilter("error")
        for label, sizes in compositions().items():
            windows, gestures = make_call(sizes, window)
            got = backend.score(windows, gestures)
            assert_bytes(got, oracle(library, windows, gestures))
            unserved = ~np.isin(gestures, MEMBERS)
            assert not got[unserved].any(), label  # exactly 0.0
    assert backend.stacked_passes and backend.member_calls


@pytest.mark.parametrize(
    "n_windows,n_contexts",
    [(n, c) for n in (1, 2, 3, 17, 31, 70) for c in (1, 2, 5, 12) if n >= c],
)
def test_any_split_of_the_windows_over_the_contexts(n_windows, n_contexts):
    rng = np.random.default_rng(n_windows * 13 + n_contexts)
    library = make_library(seed=3)
    backend = make_library_backend("reference", library)
    for _ in range(4):
        chosen = rng.choice(MEMBERS, size=n_contexts, replace=False)
        cuts = np.sort(rng.choice(np.arange(1, n_windows), size=n_contexts - 1, replace=False))
        counts = np.diff(np.concatenate([[0], cuts, [n_windows]]))
        sizes = {int(g): int(k) for g, k in zip(chosen, counts)}
        windows, gestures = make_call(sizes, 5, seed=int(rng.integers(1 << 30)))
        assert_bytes(backend.score(windows, gestures), oracle(library, windows, gestures))


def test_a_window_scores_the_same_alone_and_in_any_call():
    """The per-window statement of the contract: one row through its
    member, alone, is the row's bytes inside every stacked call."""
    library = make_library(seed=5)
    backend = make_library_backend("reference", library)
    windows, gestures = make_call({1: 4, 3: 5, 4: 3, 6: 6, 8: 4}, 5)
    got = backend.score(windows, gestures)
    for i, gesture in enumerate(gestures):
        alone = library.classifiers[int(gesture)].predict_proba(windows[i : i + 1])
        assert got[i : i + 1].tobytes() == alone.tobytes()


@pytest.mark.parametrize("architecture", ["conv", "lstm"])
def test_row_order_within_a_call_is_free(architecture):
    library = make_library(architecture, (8, 4), seed=7)
    backend = make_library_backend("reference", library)
    sizes = {0: 2, 1: 4, 3: 1, 4: 3, 6: ROW_BLOCK, 8: 4, CONSTANT: 1, 12: 5}
    windows, gestures = make_call(sizes, 5, shuffle=False)
    first = backend.score(windows, gestures)
    rng = np.random.default_rng(0)
    for _ in range(5):
        order = rng.permutation(gestures.shape[0])
        assert_bytes(backend.score(windows[order], gestures[order]), first[order])


@pytest.mark.parametrize("poison", [np.inf, -np.inf, np.nan, 5e-324])
@pytest.mark.parametrize("architecture", ["conv", "lstm"])
def test_a_poisoned_neighbour_moves_no_finite_rows_bits(architecture, poison):
    """Rows share contractions, never values: a window that is
    non-finite or denormal leaves every other window's bytes alone —
    in its own member's blocks and in the other members'."""
    library = make_library(architecture, seed=9)
    backend = make_library_backend("reference", library)
    windows, gestures = make_call({1: 4, 3: 5, 4: 3, 6: 6}, 5, shuffle=False)
    clean = backend.score(windows, gestures)
    dirty_rows = [1, 5, gestures.shape[0] - 1]  # inside and at the end of runs
    windows[dirty_rows] = poison
    with np.errstate(all="ignore"):
        dirty = backend.score(windows, gestures)
        expected = oracle(library, windows, gestures)
    keep = np.ones(gestures.shape[0], dtype=bool)
    keep[dirty_rows] = False
    assert dirty[keep].tobytes() == clean[keep].tobytes()
    assert dirty.tobytes() == expected.tobytes()  # NaN payloads included


# ----------------------------------------------------------------------
# What selects the stacked pass, and what it issues
# ----------------------------------------------------------------------
def test_the_rule_is_read_from_the_call():
    library = make_library(seed=11)
    backend = make_library_backend("reference", library)

    def passes(sizes):
        before = backend.stacked_passes, backend.member_calls
        windows, gestures = make_call(sizes, 5)
        backend.score(windows, gestures)
        return backend.stacked_passes - before[0], backend.member_calls - before[1]

    assert passes({3: 1}) == (0, 1)  # a context alone keeps its member call
    assert passes({3: 9}) == (0, 1)
    assert passes({0: 4, 3: 9, CONSTANT: 2}) == (0, 1)  # nothing else is served
    assert passes({3: ROW_BLOCK, 4: 2 * ROW_BLOCK}) == (0, 2)  # full blocks
    assert passes({3: ROW_BLOCK, 4: 2}) == (0, 2)  # one short context: alone
    assert passes({3: 1, 4: 1}) == (1, 0)
    assert passes({g: 3 for g in MEMBERS}) == (1, 0)
    # 12 x 15 windows: passes of at most PASS_WINDOWS, contexts kept whole.
    assert passes({g: ROW_BLOCK - 1 for g in MEMBERS}) == (3, 0)
    assert passes({3: ROW_BLOCK, 4: 2, 5: 1}) == (1, 1)
    assert passes({0: 7}) == (0, 0)


@pytest.mark.parametrize("cap", [1, 2, 5, 7, 16, 33])
def test_passes_do_not_change_results(monkeypatch, cap):
    """More short windows than one pass takes are served in several;
    which pass a context lands in is not observable, and a context left
    over alone keeps its member call."""
    library = make_library(seed=12)
    backend = make_library_backend("reference", library)
    monkeypatch.setattr(library_module, "PASS_WINDOWS", cap)
    for sizes in compositions().values():
        windows, gestures = make_call(sizes, 5)
        assert_bytes(backend.score(windows, gestures), oracle(library, windows, gestures))
    before = backend.stacked_passes, backend.member_calls
    windows, gestures = make_call({1: 2, 2: 2, 3: 2, 4: 2, 5: 2}, 5)
    backend.score(windows, gestures)
    done = backend.stacked_passes - before[0], backend.member_calls - before[1]
    expected = {1: (0, 5), 2: (0, 5), 5: (2, 1), 7: (2, 0), 16: (1, 0), 33: (1, 0)}
    assert done == expected[cap]


@contextmanager
def spying_on_matmul(monkeypatch, calls):
    real = np.matmul

    def matmul(a, b, *args, **kwargs):
        calls.append((a, b))
        return real(a, b, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "matmul", matmul)
        yield


@pytest.mark.parametrize("architecture,hidden,batch_norm", ARCHITECTURES)
def test_one_stacked_matmul_per_contraction_layer(
    monkeypatch, architecture, hidden, batch_norm
):
    """A call with ``c >= 2`` short contexts issues as many ``np.matmul``
    calls as one member's forward has contractions — independent of
    ``c`` — each a stack of ``(ROW_BLOCK, K) x (K, N)`` blocks on
    C-contiguous operands: per block, exactly ``contract``'s call."""
    window = 5
    library = make_library(architecture, hidden, batch_norm, window, seed=13)
    backend = make_library_backend("reference", library)
    calls = []
    with spying_on_matmul(monkeypatch, calls):
        one = make_call({4: 1}, window)
        library.classifiers[4].predict_proba(one[0])
        member_shapes = [(a.shape, b.shape) for a, b in calls]
        assert all(a == (ROW_BLOCK, b[0]) for a, b in member_shapes)
        for c in (2, 5, 12):
            calls.clear()
            windows, gestures = make_call({g: 1 + g % 4 for g in MEMBERS[:c]}, window)
            backend.score(windows, gestures)
            assert len(calls) == len(member_shapes), (c, len(calls))
            for (a, b), (block, weights) in zip(calls, member_shapes):
                assert a.ndim == b.ndim == 3 and a.shape[0] == b.shape[0] >= c
                assert (a.shape[1:], b.shape[1:]) == (block, weights)
                assert a.flags.c_contiguous and b.flags.c_contiguous
                assert a.dtype == b.dtype == np.float64


def test_stacked_blocks_are_contracts_bytes_block_for_block():
    """The numpy-and-kernel-family fact the pass rests on: a stacked
    ``np.matmul`` runs one fixed-shape GEMM per block, so each block is
    what ``contract`` computes for it.  A numpy that starts collapsing
    stacked operands fails here, loudly."""
    rng = np.random.default_rng(17)
    for k, n in [(8, 1), (8, 8), (18, 8), (100, 3), (114, 8), (512, 65), (64, 2048)]:
        a = rng.standard_normal((5, ROW_BLOCK, k))
        w = rng.standard_normal((5, k, n))
        stacked = np.matmul(a, w)
        for block in range(5):
            assert stacked[block].tobytes() == contract(a[block], w[block], False).tobytes()


# ----------------------------------------------------------------------
# Derived state: the stack follows the library
# ----------------------------------------------------------------------
def test_the_stack_follows_the_librarys_members():
    library = make_library(seed=19)
    backend = make_library_backend("reference", library)
    config = library.config
    sizes = {1: 2, 2: 3, 5: 1, 9: 4}
    windows, gestures = make_call(sizes, 5)

    def check():
        before = backend.stacked_passes
        assert_bytes(backend.score(windows, gestures), oracle(library, windows, gestures))
        return backend.stacked_passes - before

    assert check() == 1
    # fit() rebinds one member's .model (and refits its scaler).
    retrained = make_member(2, config, 5, seed=999)
    library.classifiers[2].model = retrained.model
    library.classifiers[2].scaler = retrained.scaler
    assert check() == 1
    # A member disappears: its gesture scores 0.0, never a stale row.
    del library.classifiers[Gesture(5)]
    assert check() == 1
    assert not backend.score(windows, gestures)[gestures == 5].any()
    # ... and appears again, late.
    library.classifiers[Gesture(5)] = make_member(5, config, 5, seed=998)
    assert check() == 1
    # The untrained member gets trained.
    trained = make_member(UNTRAINED, config, 5, seed=997)
    untrained = library.classifiers[UNTRAINED]
    untrained.model, untrained.scaler, untrained._fitted = trained.model, trained.scaler, True
    windows, gestures = make_call({**sizes, UNTRAINED: 2}, 5)
    assert check() == 1
    # library.classifiers is replaced wholesale.
    library.classifiers = make_library(seed=23).classifiers
    assert check() == 1
    assert backend.path == "stacked"


def test_members_of_different_architectures_are_served_per_member():
    library = make_library(seed=29)
    wider = ErrorClassifierConfig(
        architecture="conv", hidden=(12,), dense_units=8, use_batch_norm=True
    )
    library.classifiers[Gesture(2)] = make_member(2, wider, 5, seed=996)
    backend = make_library_backend("reference", library)
    assert backend.path == "per-member"
    windows, gestures = make_call({1: 2, 2: 3, 9: 4}, 5)
    assert_bytes(backend.score(windows, gestures), oracle(library, windows, gestures))
    assert (backend.stacked_passes, backend.member_calls) == (0, 3)
    # One architecture again: the next multi-context call stacks.
    library.classifiers[Gesture(2)] = make_member(2, library.config, 5, seed=995)
    assert_bytes(backend.score(windows, gestures), oracle(library, windows, gestures))
    assert (backend.stacked_passes, backend.path) == (1, "stacked")
    # A layer the stacked pass does not cover, in every member alike.
    for clf in library.classifiers.values():
        if clf.model is not None:
            clf.model = nn.Sequential([_Scale(), *clf.model.layers], seed=0)
            clf.model.build((5, N_FEATURES))
            clf.model.compile(nn.SigmoidBinaryCrossEntropy(), nn.Adam(1e-3))
    assert_bytes(backend.score(windows, gestures), oracle(library, windows, gestures))
    assert backend.path == "per-member"


class _Scale(nn.Layer):
    """A layer type ``repro.nn.backends.library`` has never heard of."""

    def build(self, input_shape, rng):
        self._input_shape = self._output_shape = tuple(input_shape)
        self.built = True

    def forward(self, x, training=False):
        return x * 0.5


@pytest.mark.parametrize("name", ["compiled", "compiled-f32"])
def test_the_compiled_plans_keep_the_per_member_loop(name):
    """Under ``compiled`` / ``compiled-f32`` ``score`` *is* that loop."""
    library = make_library(seed=31)
    backend = make_library_backend(name, library, max_batch=16)
    assert type(backend) is LibraryBackend and backend.path == "per-member"
    for sizes in compositions().values():
        windows, gestures = make_call(sizes, 5)
        expected = np.zeros(gestures.shape[0])
        for number in np.unique(gestures):
            member = backend.member(int(number)) if number > 0 else None
            if member is not None:
                mask = gestures == number
                expected[mask] = member.predict_proba(windows[mask]).reshape(-1)
        assert np.array_equal(backend.score(windows, gestures), expected)
    assert backend.stacked_passes == 0
    tolerance = 1e-6 if name == "compiled" else 5e-4
    np.testing.assert_allclose(expected, oracle(library, windows, gestures), atol=tolerance)


def test_member_backends_are_cached_by_model_identity():
    library = make_library(seed=37)
    backend = LibraryBackend(library, "reference")
    first = backend.member(3)
    assert backend.member(Gesture(3)) is first  # an int and its Gesture agree
    assert backend.member(CONSTANT) is None and backend.member(UNTRAINED) is None
    library.classifiers[3].model = make_member(3, library.config, 5, seed=994).model
    assert backend.member(3) is not first
    del library.classifiers[Gesture(3)]
    assert backend.member(3) is None


# ----------------------------------------------------------------------
# Mutations the suite must catch
# ----------------------------------------------------------------------
class _Shifted:
    """A layout whose windows claim other members' parameter rows."""

    def __init__(self, layout, rows):
        self.rows = rows
        self.contract = layout.contract


def another_members_batch_norm_statistics(patch):
    real = library_module._STACKERS[nn.BatchNorm]

    def stacker(layers):
        apply = real(layers)
        return lambda x, layout: apply(
            x, _Shifted(layout, (layout.rows + 1) % len(layers))
        )

    patch.setitem(library_module._STACKERS, nn.BatchNorm, stacker)


def one_bias_shared_across_members(patch):
    real = library_module._STACKERS[nn.Dense]

    def stacker(layers):
        apply = real(layers)
        return lambda x, layout: apply(x, _Shifted(layout, np.zeros_like(layout.rows)))

    patch.setitem(library_module._STACKERS, nn.Dense, stacker)


def a_block_of_a_different_height(patch):
    """Short contexts go through one-row blocks (BLAS picks a GEMV)."""
    real = library_module._Layout.contract

    def contract_in_short_blocks(self, a, w, training=False):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(library_module, "ROW_BLOCK", 1)
            return real(self, a, w, training)

    patch.setattr(library_module._Layout, "contract", contract_in_short_blocks)


@pytest.mark.parametrize(
    "mutate",
    [
        another_members_batch_norm_statistics,
        one_bias_shared_across_members,
        a_block_of_a_different_height,
    ],
)
def test_the_suite_catches(monkeypatch, mutate):
    test_score_is_each_members_own_forward("conv", (8,), True, 5)  # unmutated: passes
    with monkeypatch.context() as patch:
        mutate(patch)
        with pytest.raises(AssertionError):
            test_score_is_each_members_own_forward("conv", (8,), True, 5)
        with pytest.raises(AssertionError):
            test_score_is_each_members_own_forward("lstm", (8, 4), True, 3)
    test_score_is_each_members_own_forward("lstm", (8, 4), True, 3)
