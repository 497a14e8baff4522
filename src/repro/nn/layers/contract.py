"""Batch-size-invariant matrix contraction for inference, at BLAS speed.

What is guaranteed
------------------
``contract(a, w, training=False)`` computes ``a @ w`` over the last axis
of ``a`` such that **the bits of an output row depend on that row and on
``w`` only** — not on how many other rows share the call, not on the
row's position among them, not on their order, and not on their values
(a NaN, ±Inf or denormal neighbour included).  The online serving engine
promises exactly that: a window scored alone is bit-identical to the
same window scored inside any batch, which is what stream ≡ process ≡
service ≡ K shards ≡ replay rests on (``tests/nn/test_contract.py`` is
the property suite; the parity suites compare live paths on top of it).

How
---
BLAS picks its kernel from the *shape* of the call: GEMV for one row,
small-matrix kernels for a few, tiled GEMM with tail kernels beyond, and
their accumulation orders round differently.  So the rows of ``a`` are
walked in whole blocks of exactly :data:`ROW_BLOCK` rows, and every BLAS
call covers whole blocks: **one ``np.matmul`` of shape ``(ROW_BLOCK, K)
x (K, N)`` per block**, or — on a weight shape where this process has
shown it changes no bit — **one per up to :data:`WIDE_BLOCKS` blocks**.
A short last block is copied into a zero-filled block of the full height
and its pad rows are dropped.  A call of at most ``ROW_BLOCK`` rows is
therefore always the one padded block, and inside one call a row's
result does not depend on its neighbours.  The pad is zeros, never
``np.empty``: garbage rows would cost denormal arithmetic and
floating-point warnings.  Training forwards (``training=True``) keep
plain ``a @ w``, where bit-reproducibility across batch layouts is not
needed.

*Shown* means a probe (:func:`_goes_wide`), run once per weight shape,
layout and dtype pair, the first time a contraction has two whole blocks
to make: the weights' own product with a fixed ``WIDE_BLOCKS *
ROW_BLOCK``-row operand, one block per call, against one call of q
blocks for each q in 2..``WIDE_BLOCKS``, compared row by row by bytes.
Every call shape the wide path can send to BLAS is thereby tried in this
process, with its kernels and its thread count; a shape that fails keeps
one block per call.  BLAS chooses kernels from shapes, layout, dtype and
threads, not values, so one probe answers for every weight matrix with
that key.  Why it pays: OpenBLAS packs the whole weight matrix on every
call, so at ``(512, 2048)`` one 64-row call costs about twice one 16-row
call, not four times, and a chunk's recurrent step — 64 windows — is one
call instead of four.

Three measured facts the design rests on (2-core Xeon, OpenBLAS 0.3.31)
-----------------------------------------------------------------------
1. **No tiers by batch size, and never a fall-through to ``a @ w``.**
   The same row computed in blocks of 2-5 rows differs in the last ulp
   from blocks of >= 8 rows at ``(512, 384)`` and ``(8, 1)`` (OpenBLAS
   small-matrix kernels), and a 1-row call (GEMV) differs at nearly
   every shape.  With one fixed ``ROW_BLOCK``, a sweep of K in 1..1024 x
   N in 1..2048 x batch in 1..129 (row alone vs. inside a batch, at an
   offset, under permutation) x ``ROW_BLOCK`` in {4, 8, 16, 32} x
   ``OPENBLAS_NUM_THREADS`` in {1, 2} found no row whose bits moved, and
   the same at ``ROW_BLOCK = 16`` under ``OPENBLAS_CORETYPE`` in
   {Nehalem, Sandybridge, Haswell, Zen, SkylakeX}.  Routing "big
   enough" batches through plain ``a @ w`` breaks it at once (tail-column
   kernels at N in {1, 2, 3, 17, 65}, and large K; under Haswell
   kernels at the paper's shapes too).  Blocking the *contracted* axis
   is not needed: fixing M is what removes the kernel choice.  Calls of
   2-4 whole blocks mostly round as the one-block calls do — every
   paper and default-model shape, under all five kernel families at 1
   and 2 threads — but not always, which is why it is probed, not
   assumed: ``(512, 64)`` and ``(512, 65)`` under SkylakeX (and there
   ``(256, 65)`` and ``(1024, 16)`` too), and ``(512, 65)`` and
   ``(256, 65)`` under Nehalem at 2 threads, round some rows differently
   in a wide call.
2. **``ROW_BLOCK`` is the one decision; it trades single-row latency
   for throughput.**  A lone row pays for ``ROW_BLOCK`` rows of GEMM, a
   fleet gets GEMM speed.  The measured table (``bulk_paper`` frames/s,
   paper-scale reference tick at 1 / 29 / 64 sessions, default-size
   batch-1 forward, for 4 / 8 / 16 / 32) is in ``docs/serving.md``
   § "What the reference backend costs", with the reason 16 ships.  It
   is a bare constant on purpose: two processes that disagree on it
   disagree in the last ulp, so it is read from no argument, environment
   variable or config.  A single short block returns straight from its
   one BLAS call, which keeps a batch-1 forward at the default sizes as
   cheap as it was.  ``WIDE_BLOCKS`` moves no bit — where a wide call
   would, the probe keeps one block per call — so it is a cost choice
   only: 4 blocks make a 64-window chunk's recurrent step
   (:data:`~repro.nn.model.PREDICT_CHUNK`) one call.
3. **The bits belong to the BLAS kernel family.**  OpenBLAS's
   Nehalem/Sandybridge, Haswell/Zen and SkylakeX kernels give three
   different last-ulp patterns (max ``|old - new|`` about 2e-13 at
   K = 512 on unit-normal operands; Haswell and SkylakeX agree on the
   paper's four shapes and part at ``(512, 64)``).  Thread count
   (1, 2, 4) changed nothing under Haswell, Zen and SkylakeX at 13
   shapes tried; under Nehalem one of them, ``(512, 65)``, moved between
   1 and >= 2 threads (the column split regroups its tail kernel).
   Batch invariance *inside* a process held in every cell of that
   matrix.  Parity therefore holds within a host — forked shards, the
   gateway child and every oracle load the same kernels with the same
   thread count — and a fleet or audit that spans CPU generations pins
   OpenBLAS's own ``OPENBLAS_CORETYPE`` and ``OPENBLAS_NUM_THREADS``.
   :func:`numerics_fingerprint` names the arithmetic a process computes
   with, so two endpoints can tell whether they may be compared bit for
   bit.

The contraction this replaced accumulated each output element as one
sequential scalar multiply-add chain — batch-invariant by construction,
and 12x slower than a GEMM at ``(512, 512) x (512, 2048)``; it survives
as the numeric oracle in ``tests/nn/test_inference_fastpath.py``
(results agree to ~1e-12 relative, decisions exactly).  BLAS-speed
scoring *without* the parity guarantee (folded scaler, float32) is the
``compiled`` backend (:mod:`repro.nn.backends`), not a flag here.
"""

from __future__ import annotations

import hashlib
from functools import cache

import numpy as np

#: Rows of one block: every BLAS call at inference covers whole blocks.
#: Changing it changes last-ulp bits.
ROW_BLOCK = 16
#: Most whole blocks one BLAS call covers, on a weight shape whose probe
#: (:func:`_goes_wide`) showed that such a call rounds every row as the
#: one-block calls do.  It moves no bit, only how many calls reach BLAS.
WIDE_BLOCKS = 4

#: Probe verdicts by ``(weight shape, row dtype, weight dtype, weight
#: strides)``.  Process-wide on purpose: the verdict is a fact about the
#: BLAS kernels and thread count this process loaded, which do not change.
_WIDE: dict[tuple, bool] = {}


def contract(a: np.ndarray, w: np.ndarray, training: bool) -> np.ndarray:
    """``a @ w`` over the last axis of ``a``: plain BLAS when training,
    GEMMs over whole ``ROW_BLOCK``-row blocks (batch-invariant) at
    inference."""
    if training:
        return a @ w
    k, n = w.shape
    if a.shape[-1] != k:
        raise ValueError(
            f"cannot contract last axis of shape {a.shape} with weights {w.shape}"
        )
    rows = a if a.ndim == 2 else a.reshape(-1, k)
    m = len(rows)
    tail = m % ROW_BLOCK
    if tail:
        # The last block is short: pad it with zero rows to full height.
        block = np.zeros((ROW_BLOCK, k), rows.dtype)
        block[:tail] = rows[m - tail :]
        last = np.matmul(block, w)[:tail]
        if tail == m:  # a single block: nothing to assemble
            return last if a.ndim == 2 else last.reshape(a.shape[:-1] + (n,))
    full = m - tail
    rows = np.ascontiguousarray(rows)  # one memory layout into BLAS
    out = np.empty((m, n), np.result_type(rows, w))
    step = ROW_BLOCK
    if full > ROW_BLOCK and _goes_wide(rows.dtype, w):
        step *= WIDE_BLOCKS
    for start in range(0, full, step):
        stop = min(start + step, full)
        np.matmul(rows[start:stop], w, out=out[start:stop])
    if tail:
        out[full:] = last
    return out if a.ndim == 2 else out.reshape(a.shape[:-1] + (n,))


def _goes_wide(dtype: np.dtype, w: np.ndarray) -> bool:
    """Whether one call over 2..``WIDE_BLOCKS`` whole blocks of ``dtype``
    rows rounds every row as one-block calls do against ``w``, as shown
    once per weight shape, layout and dtypes by :func:`_probe`."""
    key = (w.shape, dtype, w.dtype, w.strides)
    verdict = _WIDE.get(key)
    if verdict is None:
        verdict = _WIDE[key] = _probe(dtype, w)
    return verdict


def _probe(dtype: np.dtype, w: np.ndarray) -> bool:
    """Contract ``WIDE_BLOCKS`` fixed blocks with ``w`` one block per call,
    then as one call of q blocks for every q in 2..``WIDE_BLOCKS``, each
    call as :func:`contract` makes it, and compare every row by bytes.
    Only floating-point operands are tried: anything else keeps one block
    per call."""
    if dtype.kind != "f" or w.dtype.kind != "f":
        return False
    rows = _fixed_rows(WIDE_BLOCKS * ROW_BLOCK, w.shape[0]).astype(dtype)
    alone = np.empty((len(rows), w.shape[1]), np.result_type(rows, w))
    wide = np.empty_like(alone)
    for start in range(0, len(rows), ROW_BLOCK):
        stop = start + ROW_BLOCK
        np.matmul(rows[start:stop], w, out=alone[start:stop])
    for stop in range(2 * ROW_BLOCK, len(rows) + 1, ROW_BLOCK):
        np.matmul(rows[:stop], w, out=wide[:stop])
        if any(got.tobytes() != want.tobytes() for got, want in zip(wide[:stop], alone)):
            return False
    return True


#: ``(K, N)`` of the fingerprint's probe contractions: main GEMM kernel,
#: tail-column kernels, the GEMV a one-unit head becomes, a paper shape —
#: the places where kernel families and thread splits were seen to differ.
_PROBE_SHAPES = ((512, 65), (512, 64), (100, 3), (8, 1), (38, 2048))
_PROBE_ROWS = 21  # a full block and a short one at the shipped ROW_BLOCK


def _fixed_rows(m: int, k: int) -> np.ndarray:
    """A fixed ``(m, k)`` operand built from integer arithmetic and one
    correctly rounded division, so it is the same bits on every platform
    and numpy."""
    i = np.arange(m * k, dtype=np.int64).reshape(m, k)
    return (i * 7919 % 10007) / 10007.0 - 0.5


def _probe_operands(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed ``(21, k)`` and ``(k, n)`` operands (:func:`_fixed_rows`)."""
    j = np.arange(k * n, dtype=np.int64).reshape(k, n)
    return _fixed_rows(_PROBE_ROWS, k), (j * 104729 % 10009) / 10009.0 - 0.5


@cache
def numerics_fingerprint() -> str:
    """Short hex digest naming the arithmetic :func:`contract` computes
    with in this process.

    Two processes print the same fingerprint iff they share
    ``ROW_BLOCK`` and round a fixed set of probe contractions
    identically — in practice, iff they run the same BLAS kernel family
    (and, where it matters, thread count).  Streams from two endpoints
    may be compared bit for bit iff their backend names and fingerprints
    agree.  Computed once (~1 ms); diagnostic only — no behaviour
    depends on it.
    """
    digest = hashlib.sha256(b"ROW_BLOCK=%d;" % ROW_BLOCK)
    for k, n in _PROBE_SHAPES:
        digest.update(contract(*_probe_operands(k, n), False).tobytes())
    return digest.hexdigest()[:16]
