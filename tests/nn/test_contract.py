"""The inference contraction's own contract: a row's bits are its own.

``contract(a, w, training=False)`` promises that an output row depends on
that row and on ``w`` only — not on how many rows share the call, where
the row sits, what order the rows come in, or what its neighbours hold.
Everything bit-exact in the repo (stream = process = service = K shards
= replay) stands on this, so it is checked here directly, by bytes, over
the shapes the paper's models and the fast-path suite use, plus the
small and odd shapes where BLAS switches kernels.

The guarantee is a property of (this code) x (the BLAS kernels loaded),
which is why CI runs this file once per ``OPENBLAS_CORETYPE`` x
``OPENBLAS_NUM_THREADS`` cell.
"""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import contract as contract_module
from repro.nn.layers.contract import ROW_BLOCK, contract, numerics_fingerprint
from repro.serving import make_random_walk_trajectory, make_synthetic_monitor

#: ``(K, N)`` of the paper-scale monitor's contractions.
PAPER_SHAPES = [(38, 2048), (512, 2048), (512, 384), (96, 384)]
#: The widths ``test_inference_fastpath.py`` builds its models from.
FASTPATH_SHAPES = [(7, 32), (8, 32), (8, 20), (5, 20), (5, 6), (6, 4), (21, 6),
                   (6, 5), (5, 1), (6, 48), (12, 48), (12, 28), (7, 28), (7, 4)]
#: Ones and tail-kernel widths: where a batch-size tier or a GEMV shows.
EDGE_SHAPES = [(1, 1), (1, 9), (9, 1), (15, 1), (38, 2), (100, 3), (100, 17),
               (100, 65), (256, 65), (1024, 16)]
BATCHES = (2, 7, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 64, 513)
ALONE = (0, 1, 6, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 63, 64, 511, 512)


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_batch_invariant(fn, k, n, seed=0):
    """Every way of batching 513 rows through ``fn`` gives each row the
    bytes it gets when contracted alone."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((513, k)) * 3.0
    w = rng.standard_normal((k, n)) * rng.choice([1e-3, 1.0, 1e3])
    full = fn(x, w, False)
    assert full.shape == (513, n)
    for row in ALONE:
        assert same_bytes(fn(x[row : row + 1], w, False), full[row : row + 1]), (k, n, row)
    for size in BATCHES:
        # The same rows at other positions among other companions.
        for start in {0, 1, ROW_BLOCK - 3, 513 - size}:
            got = fn(x[start : start + size], w, False)
            assert same_bytes(got, full[start : start + size]), (k, n, size, start)
        perm = rng.permutation(513)[:size]
        assert same_bytes(fn(x[perm], w, False), full[perm]), (k, n, size, "permuted")


# ----------------------------------------------------------------------
# Batch invariance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k,n", PAPER_SHAPES + FASTPATH_SHAPES + EDGE_SHAPES)
def test_row_alone_equals_row_anywhere_in_any_batch(k, n):
    assert_batch_invariant(contract, k, n)


@given(
    k=st.integers(1, 70),
    n=st.integers(1, 70),
    batch=st.integers(1, 3 * ROW_BLOCK + 2),
    scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_row_bits_do_not_depend_on_batch_position_or_order(k, n, batch, scale, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, k)) * scale
    w = rng.standard_normal((k, n))
    full = contract(x, w, False)
    row = int(rng.integers(batch))
    assert same_bytes(contract(x[row : row + 1], w, False), full[row : row + 1])
    perm = rng.permutation(batch)
    assert same_bytes(contract(x[perm], w, False), full[perm])
    doubled = contract(np.concatenate([x[::-1], x]), w, False)
    assert same_bytes(doubled[batch:], full)


@pytest.mark.parametrize("k,n", [(7, 5), (38, 64), (512, 384), (9, 1)])
def test_non_finite_and_denormal_neighbours_leave_finite_rows_alone(k, n):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2 * ROW_BLOCK + 3, k))
    w = rng.standard_normal((k, n))
    clean = contract(x, w, False)
    hostile = x.copy()
    poisoned = [1, ROW_BLOCK - 1, ROW_BLOCK, 2 * ROW_BLOCK + 1]
    for row, value in zip(poisoned, (np.inf, -np.inf, np.nan, 5e-324)):
        hostile[row] = value
    with np.errstate(all="ignore"):
        got = contract(hostile, w, False)
    kept = np.setdiff1d(np.arange(len(x)), poisoned)
    assert same_bytes(got[kept], clean[kept])
    assert not np.isfinite(got[poisoned[:3]]).any()


def test_padding_a_short_block_raises_no_warning():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((38, 64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for batch in (1, 3, ROW_BLOCK + 1):
            for scale in (1.0, 1e-300, 1e300):
                contract(rng.standard_normal((batch, 38)) * scale, w, False)


# ----------------------------------------------------------------------
# What the function accepts
# ----------------------------------------------------------------------
def test_leading_axes_one_dimensional_input_and_zero_rows():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((6, 5))
    x = rng.standard_normal((4, 9, 6))
    flat = contract(x.reshape(-1, 6), w, False)
    assert same_bytes(contract(x, w, False), flat.reshape(4, 9, 5))
    assert same_bytes(contract(x[1, 2], w, False), flat[11])
    assert contract(x[:0], w, False).shape == (0, 9, 5)
    assert contract(x[0, :0], w, False).shape == (0, 5)
    np.testing.assert_allclose(flat, x.reshape(-1, 6) @ w, rtol=1e-13, atol=1e-13)
    with pytest.raises(ValueError):
        contract(x[..., :5], w, False)


@pytest.mark.parametrize("batch", [1, 5, ROW_BLOCK, 2 * ROW_BLOCK + 5])
def test_memory_layout_of_the_input_does_not_reach_the_bits(batch):
    rng = np.random.default_rng(8)
    w = rng.standard_normal((6, 5))
    wide = rng.standard_normal((batch, 12))
    column_major = np.asfortranarray(rng.standard_normal((batch, 6)))
    for view in (wide[:, ::2], wide[::-1, :6], column_major, wide.T[:6].T):
        assert not view.flags.c_contiguous or batch == 1
        assert same_bytes(contract(view, w, False), contract(view.copy(order="C"), w, False))


@pytest.mark.parametrize("batch", [1, ROW_BLOCK, ROW_BLOCK + 3])
def test_float32_and_integer_input(batch):
    rng = np.random.default_rng(9)
    w = rng.standard_normal((6, 5))
    x32 = rng.standard_normal((batch, 6)).astype(np.float32)
    # float32 rows against float64 weights widen exactly, then contract.
    assert same_bytes(contract(x32, w, False), contract(x32.astype(np.float64), w, False))
    all32 = contract(x32, w.astype(np.float32), False)
    assert all32.dtype == np.float32
    assert same_bytes(contract(x32[:1], w.astype(np.float32), False), all32[:1])
    ints = rng.integers(-9, 9, (batch, 6))
    assert same_bytes(contract(ints, w, False), contract(ints.astype(np.float64), w, False))
    int_w = rng.integers(-9, 9, (6, 5))
    assert np.array_equal(contract(ints, int_w, False), ints @ int_w)
    assert ints.dtype.kind == "i"  # left untouched


def test_training_forward_is_still_plain_matmul(monkeypatch):
    rng = np.random.default_rng(10)
    x, w = rng.standard_normal((3, 512)), rng.standard_normal((512, 384))
    monkeypatch.setattr(np, "matmul", None)  # the blocked path would trip on this
    assert same_bytes(contract(x, w, True), x @ w)
    assert same_bytes(contract(x[0], w, True), x[0] @ w)


# ----------------------------------------------------------------------
# One contraction, one shape into BLAS
# ----------------------------------------------------------------------
def test_every_blas_call_has_exactly_row_block_rows(monkeypatch):
    calls = []
    real = np.matmul

    def spy(x1, x2, **kwargs):
        calls.append((x1.shape, x2.shape, x1.flags.c_contiguous))
        return real(x1, x2, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    rng = np.random.default_rng(11)
    w = rng.standard_normal((6, 5))
    for batch in range(0, 3 * ROW_BLOCK + 2):
        del calls[:]
        contract(rng.standard_normal((batch, 12))[:, ::2], w, False)
        assert calls == [((ROW_BLOCK, 6), (6, 5), True)] * -(-batch // ROW_BLOCK)
    # ... and through whole models: an LSTM gesture stage, conv error heads.
    del calls[:]
    make_synthetic_monitor(seed=1).process(make_random_walk_trajectory(40, seed=1))
    assert calls and {x1[0] for x1, _, _ in calls} == {ROW_BLOCK}
    assert all(len(x1) == 2 and x1[1] == x2[0] and contiguous for x1, x2, contiguous in calls)


def test_row_block_is_a_bare_constant_no_argument_selects_it():
    assert type(ROW_BLOCK) is int
    assert set(contract.__annotations__) == {"a", "w", "training", "return"}


# ----------------------------------------------------------------------
# The suite is sharp enough: the two tempting shortcuts fail it
# ----------------------------------------------------------------------
# These are statements about OpenBLAS's x86 kernels (every CI cell): its
# GEMV and its large-M GEMM round differently from a ROW_BLOCK-row GEMM.
def big_batches_through_plain_blas(a, w, training):
    if a.shape[0] >= 64:
        return a @ w
    return contract(a, w, training)


def single_rows_through_gemv(a, w, training):
    if a.shape[0] == 1:
        return a @ w
    return contract(a, w, training)


@pytest.mark.parametrize("mutant", [big_batches_through_plain_blas, single_rows_through_gemv])
def test_tiering_by_batch_size_is_caught(mutant):
    caught = 0
    for k, n in PAPER_SHAPES + EDGE_SHAPES:
        try:
            assert_batch_invariant(mutant, k, n)
        except AssertionError:
            caught += 1
    assert caught >= 3, f"only {caught} shapes notice {mutant.__name__}"


# ----------------------------------------------------------------------
# numerics_fingerprint
# ----------------------------------------------------------------------
def test_fingerprint_is_stable_and_batch_invariant():
    first = numerics_fingerprint()
    assert len(first) == 16 and int(first, 16) >= 0
    assert numerics_fingerprint() == first
    assert numerics_fingerprint.__wrapped__() == first  # recomputed, not just cached
    # The probe's rows inside a larger batch round as they do alone.
    for k, n in contract_module._PROBE_SHAPES:
        a, w = contract_module._probe_operands(k, n)
        alone = contract(a, w, False)
        stacked = contract(np.concatenate([a[::-1], a, a[:3]]), w, False)
        assert same_bytes(stacked[len(a) : 2 * len(a)], alone)
        assert same_bytes(contract(a[:ROW_BLOCK], w, False), alone[:ROW_BLOCK])


FINGERPRINT_CHILD = """
import hashlib, numpy as np
from repro.nn.layers.contract import contract, numerics_fingerprint
rng = np.random.default_rng(0)
digest = hashlib.sha256()
for k, n in {shapes!r}:
    digest.update(contract(rng.standard_normal((37, k)), rng.standard_normal((k, n)), False).tobytes())
print(numerics_fingerprint(), digest.hexdigest())
"""


def test_equal_fingerprints_across_thread_counts_mean_equal_bits():
    """Two processes that differ in BLAS thread count: where their
    fingerprints agree, so do the bytes of the paper's contractions."""
    seen = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(sys.path))
        child = subprocess.run(
            [sys.executable, "-c", FINGERPRINT_CHILD.format(shapes=PAPER_SHAPES + EDGE_SHAPES)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        seen[threads] = child.stdout.split()
    (print_1, bits_1), (print_2, bits_2) = seen["1"], seen["2"]
    assert print_1 != print_2 or bits_1 == bits_2
