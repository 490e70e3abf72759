"""Ground-truth references: naive and row-blocked convolution, and im2col.

These exist solely to check the tiled engine. naive_conv walks every output
coordinate and reduces its input patch in float64 before casting down,
giving a tighter reference than the f32 engine path; its speed is
irrelevant. rowwise_conv computes the same float64 convolution as one GEMM
per output row over a strided view of the padded input, so the harness can
verify whole suites quickly without sharing any code with the engine's
packing. im2col materializes the window-major matrix so packed tiles can be
compared column-for-column and the GEMM identity can be cross-checked.
"""

from __future__ import annotations

import numpy as np

from .model import ConvParams, out_shape, pad_input


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
    """naive_conv as one f64 (oc, K) @ (K, ow) GEMM per output row."""
    if x.shape != (p.n, p.ic, p.ih, p.iw):
        raise ValueError(f"input shape {x.shape} does not match params")
    if filters.shape != (p.oc, p.ic, p.fh, p.fw):
        raise ValueError(f"filter shape {filters.shape} does not match params")
    oh, ow = out_shape(p)
    # C order, whatever the input's layout: the view below is built on it.
    xp = np.ascontiguousarray(pad_input(x, p), dtype=np.float64)
    flt = filters.reshape(p.oc, -1).astype(np.float64)
    # Rows go straight into the f32 output, rounding as astype does, so no
    # f64 output is ever held.
    out = np.empty((p.n, p.oc, oh, ow), dtype=np.float32)
    # windows[b, c, i, j, r, q] is the input under filter offset (i, j) of
    # output (r, q); only read, and in bounds by out_shape's arithmetic.
    s_n, s_c, s_h, s_w = xp.strides
    windows = np.ndarray(
        (p.n, p.ic, p.fh, p.fw, oh, ow), np.float64, xp, 0,
        (s_n, s_c, p.dil_h * s_h, p.dil_w * s_w,
         p.stride_h * s_h, p.stride_w * s_w))
    for b in range(p.n):
        for r in range(oh):
            out[b, :, r] = flt @ windows[b, ..., r, :].reshape(-1, ow)
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


def filters_as_matrix(filters: np.ndarray) -> np.ndarray:
    """FCHW filters flattened to (oc, ic*fh*fw), matching im2col row order."""
    oc = filters.shape[0]
    return filters.reshape(oc, -1)
