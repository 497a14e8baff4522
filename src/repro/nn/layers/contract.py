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
walked in blocks of exactly :data:`ROW_BLOCK` and every block is **one
``np.matmul`` of shape ``(ROW_BLOCK, K) x (K, N)``**; a short last block
is copied into a zero-filled block of the full height and its pad rows
are dropped.  For a given layer every BLAS call inference ever makes
therefore has the same shape, whether one window or 512 share the
batch, and inside one fixed-shape call a row's result does not depend
on its neighbours.  The pad is zeros, never ``np.empty``: garbage rows
would cost denormal arithmetic and floating-point warnings.  Training
forwards (``training=True``) keep plain ``a @ w``, where
bit-reproducibility across batch layouts is not needed.

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
   is not needed: fixing M is what removes the kernel choice.
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
   cheap as it was.
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

#: Rows per BLAS call at inference.  Changing it changes last-ulp bits.
ROW_BLOCK = 16


def contract(a: np.ndarray, w: np.ndarray, training: bool) -> np.ndarray:
    """``a @ w`` over the last axis of ``a``: plain BLAS when training,
    fixed-shape ``ROW_BLOCK``-row GEMMs (batch-invariant) at inference."""
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
    for start in range(0, full, ROW_BLOCK):
        stop = start + ROW_BLOCK
        np.matmul(rows[start:stop], w, out=out[start:stop])
    if tail:
        out[full:] = last
    return out if a.ndim == 2 else out.reshape(a.shape[:-1] + (n,))


#: ``(K, N)`` of the fingerprint's probe contractions: main GEMM kernel,
#: tail-column kernels, the GEMV a one-unit head becomes, a paper shape —
#: the places where kernel families and thread splits were seen to differ.
_PROBE_SHAPES = ((512, 65), (512, 64), (100, 3), (8, 1), (38, 2048))
_PROBE_ROWS = 21  # a full block and a short one at the shipped ROW_BLOCK


def _probe_operands(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed ``(21, k)`` and ``(k, n)`` operands built from integer
    arithmetic and one correctly rounded division, so the operands
    themselves are the same bits on every platform and numpy."""
    i = np.arange(_PROBE_ROWS * k, dtype=np.int64).reshape(_PROBE_ROWS, k)
    j = np.arange(k * n, dtype=np.int64).reshape(k, n)
    return (i * 7919 % 10007) / 10007.0 - 0.5, (j * 104729 % 10009) / 10009.0 - 0.5


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
