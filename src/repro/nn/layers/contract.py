"""Batch-size-invariant matrix contraction for inference.

BLAS dispatches matmuls to different kernels (GEMV for single rows, GEMM
tile/tail kernels elsewhere) whose accumulation orders round differently,
so the same sample can produce a result that differs in the last ulp
depending on how many other samples share its batch.  The online serving
engine promises the opposite: a window scored alone is bit-identical to
the same window scored inside any batch (the stream/service parity suite
asserts this exactly).

``np.einsum`` with the default ``optimize=False`` never calls BLAS — it
accumulates each output element independently over the contracted axis in
a fixed order — so its per-row results cannot depend on batch size or row
position.  Inference forwards route through it; training forwards keep
the (faster) BLAS path, where bit-reproducibility across batch layouts is
not needed.

The offline ``process()`` path must share this contraction — it is one
side of the asserted stream/process/service equality — so every
inference matmul pays the einsum cost, and that cost is the arithmetic
itself, not overhead around it.  With ``optimize=False`` the
contraction is one sequential scalar multiply-add chain per output
element, bit-equal to ``for j: out += a[:, j:j+1] * w[j]``; blocking it
over rows or output columns gives identical bits and no speed-up
(blocking the contracted axis is faster and changes the bits).  The
cost per row does not fall with batch size, where BLAS's does: measured
single-threaded on the benchmark box against the paper-scale recurrent
weights ``(512, 2048)``, 1.3x a BLAS GEMM for one row, 10x at 64 rows
and **12x at 512 rows** (246 ms against 20 ms for
``(512, 512) x (512, 2048)``); 4-7x at the default synthetic sizes.  On
the paper-scale monitor the einsum calls are about 90 % of a
reference-backend bulk scoring pass (``bulk_paper`` in ``bench/``),
which is why batching a whole procedure into one call buys the
reference backend nothing (see ``docs/serving.md``).  What the
inference forwards *can* shed is everything around the contraction —
numpy calls, temporaries, and contractions whose operand is known to be
all zeros (the LSTM's initial state) — and they do, without touching
this function.  BLAS-speed scoring without the parity guarantee is the
``compiled`` backend (:mod:`repro.nn.backends`), not a flag here.
"""

from __future__ import annotations

import numpy as np


def contract(a: np.ndarray, w: np.ndarray, training: bool) -> np.ndarray:
    """``a @ w`` over the last axis of ``a``: BLAS when training, the
    batch-invariant einsum path at inference."""
    if training:
        return a @ w
    return np.einsum("...j,jk->...k", a, w)
