"""The benchmark's yardstick: NCHW convolution as im2col + one BLAS GEMM.

Kept inside the benchmark, independent of ``slicedconv.reference``, so that a
change to the library cannot move the baseline it is measured against. The
same code in float64 is the correctness reference for every timed pass.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def im2col_conv(x: np.ndarray, filters: np.ndarray, p) -> np.ndarray:
    """Convolve NCHW ``x`` with FCHW ``filters`` in the dtype of ``x``.

    ``p`` carries the ``ConvParams`` fields (n, ic, oc, fh, fw and the
    per-axis stride, dilation and padding). One im2col matrix of shape
    (ic*fh*fw, oh*ow) is materialised per batch element and multiplied by
    the (oc, ic*fh*fw) filter matrix with ``@``.
    """
    if p.pad_h or p.pad_w:
        x = np.pad(x, ((0, 0), (0, 0), (p.pad_h, p.pad_h), (p.pad_w, p.pad_w)))
    span_h = p.dil_h * (p.fh - 1) + 1
    span_w = p.dil_w * (p.fw - 1) + 1
    oh = (x.shape[2] - span_h) // p.stride_h + 1
    ow = (x.shape[3] - span_w) // p.stride_w + 1
    windows = sliding_window_view(x, (span_h, span_w), axis=(2, 3))
    windows = windows[:, :, ::p.stride_h, ::p.stride_w, ::p.dil_h, ::p.dil_w]
    fmat = filters.reshape(p.oc, -1)
    out = np.empty((p.n, p.oc, oh, ow), dtype=x.dtype)
    for b in range(p.n):
        # (ic, oh, ow, fh, fw) -> (ic, fh, fw, oh, ow): rows match fmat columns.
        cols = windows[b].transpose(0, 3, 4, 1, 2).reshape(-1, oh * ow)
        np.matmul(fmat, cols, out=out[b].reshape(p.oc, oh * ow))
    return out


def reference(x: np.ndarray, filters: np.ndarray, p) -> np.ndarray:
    """Float64 result of the same convolution, for the correctness gate."""
    return im2col_conv(x.astype(np.float64), filters.astype(np.float64), p)


def max_rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    """Largest |got - ref| over the reference's largest magnitude."""
    if got.shape != ref.shape:
        return float("inf")
    scale = max(float(np.max(np.abs(ref))), np.finfo(np.float32).tiny)
    return float(np.max(np.abs(got - ref)) / scale)
