"""Ground-truth references: naive and row-blocked convolution, and im2col.

These exist solely to check the tiled engine. naive_conv walks every output
coordinate and reduces its input patch in float64 before casting down,
giving a tighter reference than the f32 engine path; its speed is
irrelevant. rowwise_conv computes the same float64 convolution as one GEMM
per band of output rows and block of filters. It reads the input through a
strided view, padded if need be in the input's own dtype, and casts each
band's window matrix and each block of output channels' filters to float64
only as it uses them, so it never holds a float64 copy of either tensor.
The harness can so verify whole suites quickly, in bounded memory, without
sharing any code with the engine's packing. im2col materializes the
window-major matrix so packed tiles can be compared column-for-column and
the GEMM identity can be cross-checked.
"""

from __future__ import annotations

import numpy as np

from .model import ConvParams, out_shape, pad_input

# rowwise_conv casts the filters to float64 in blocks of output channels of
# at most this many bytes (or one channel, if that is more): every smoke
# layer is one block, and a deep layer's float64 filters are never held
# whole.
_FILTER_BLOCK_BYTES = 1 << 20
# rowwise_conv casts the windows of a band of output rows to float64 in a
# block of at most this many bytes (or one row, if that is more): a band
# is one GEMM, and a small layer needs few of them.
_BAND_BYTES = 1 << 13


def _filter_blocks(oc: int, k: int) -> int:
    """How many blocks rowwise_conv splits oc output channels into: the
    fewest whose float64 filters fit _FILTER_BLOCK_BYTES each. Their sizes
    are within one channel of each other, so unless the budget holds fewer
    than three channels, no block of a layer with several is a lone
    channel, which matmul would take as a vector rather than by GEMM."""
    return -(-oc // max(1, _FILTER_BLOCK_BYTES // (8 * k)))


def naive_conv(x: np.ndarray, filters: np.ndarray, p: ConvParams) -> np.ndarray:
    """Direct convolution, f64 accumulation, result cast to f32."""
    n, ic, ih, iw = x.shape
    oc, fic, fh, fw = filters.shape
    if (n, ic, ih, iw) != (p.n, p.ic, p.ih, p.iw):
        raise ValueError(f"input shape {x.shape} does not match params")
    if (oc, fic, fh, fw) != (p.oc, p.ic, p.fh, p.fw):
        raise ValueError(f"filter shape {filters.shape} does not match params")
    oh, ow = out_shape(p)
    xp = pad_input(x, p).astype(np.float64)
    flt = filters.astype(np.float64)
    out = np.empty((p.n, p.oc, oh, ow), dtype=np.float64)
    fh_span = p.dil_h * (p.fh - 1) + 1
    fw_span = p.dil_w * (p.fw - 1) + 1
    for b in range(p.n):
        for o in range(p.oc):
            w = flt[o]
            for r in range(oh):
                r0 = r * p.stride_h
                rows = xp[b, :, r0:r0 + fh_span:p.dil_h]
                for c in range(ow):
                    c0 = c * p.stride_w
                    patch = rows[:, :, c0:c0 + fw_span:p.dil_w]
                    out[b, o, r, c] = np.sum(patch * w)
    return out.astype(np.float32)


def rowwise_conv(x: np.ndarray, filters: np.ndarray, p: ConvParams) -> np.ndarray:
    """naive_conv as one f64 (filters, K) @ (K, rows*ow) GEMM per band of
    output rows and block of filters: each band's windows at most
    _BAND_BYTES of float64 (or one row), each filter block at most
    _FILTER_BLOCK_BYTES."""
    if x.shape != (p.n, p.ic, p.ih, p.iw):
        raise ValueError(f"input shape {x.shape} does not match params")
    if filters.shape != (p.oc, p.ic, p.fh, p.fw):
        raise ValueError(f"filter shape {filters.shape} does not match params")
    oh, ow = out_shape(p)
    k = p.ic * p.fh * p.fw
    # In the input's dtype, and C-ordered, which the window view is built on.
    xp = np.ascontiguousarray(pad_input(x, p))
    # windows[b, c, i, j, r, q] is the input under filter offset (i, j) of
    # output (r, q); only read, and in bounds by out_shape's arithmetic.
    s_n, s_c, s_h, s_w = xp.strides
    windows = np.ndarray(
        (p.n, p.ic, p.fh, p.fw, oh, ow), xp.dtype, xp, 0,
        (s_n, s_c, p.dil_h * s_h, p.dil_w * s_w, p.stride_h * s_h,
         p.stride_w * s_w))
    band = min(oh, max(1, _BAND_BYTES // (8 * k * ow)))
    # Each band's windows and each filter block are cast into these two;
    # a short last band uses the front of win.
    win = np.empty(k * band * ow)
    flat = filters.reshape(p.oc, k)
    blocks = _filter_blocks(p.oc, k)
    block = np.empty((-(-p.oc // blocks), k))
    # Each band goes straight into the f32 output, rounding as astype does,
    # so no f64 output is ever held whole.
    out = np.empty((p.n, p.oc, oh, ow), dtype=np.float32)
    for j in range(blocks):
        f0, f1 = j * p.oc // blocks, (j + 1) * p.oc // blocks
        flt = block[:f1 - f0]
        flt[...] = flat[f0:f1]
        for b in range(p.n):
            out_b, win_b = out[b, f0:f1], windows[b]
            for r0 in range(0, oh, band):
                r1 = min(oh, r0 + band)
                rows = win[:k * (r1 - r0) * ow].reshape(
                    p.ic, p.fh, p.fw, r1 - r0, ow)
                rows[...] = win_b[..., r0:r1, :]
                out_b[:, r0:r1] = (flt @ rows.reshape(k, -1)).reshape(
                    f1 - f0, r1 - r0, ow)
    return out


def im2col(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Window-major matrix of shape (ic*fh*fw, oh*ow).

    Element (k, w) with k = (c*fh + i)*fw + j holds the input value under
    filter offset (i, j) at window w, zero where the window reads padding.
    """
    oh, ow = out_shape(p)
    xp = pad_input(x, p)
    if x.shape[0] != 1:
        raise ValueError("im2col expects a single-batch tensor")
    rows = np.arange(oh) * p.stride_h
    cols = np.arange(ow) * p.stride_w
    r_idx = (rows[:, None] + np.arange(p.fh) * p.dil_h).reshape(oh, 1, p.fh, 1)
    c_idx = (cols[:, None] + np.arange(p.fw) * p.dil_w).reshape(1, ow, 1, p.fw)
    # gather -> (ic, oh, ow, fh, fw) -> (ic, fh, fw, oh*ow)
    g = xp[0][:, r_idx, c_idx]
    g = np.transpose(g, (0, 3, 4, 1, 2))
    return np.ascontiguousarray(g.reshape(p.ic * p.fh * p.fw, oh * ow))
