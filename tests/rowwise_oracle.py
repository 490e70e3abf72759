"""Test-only oracle: the row-wise float64 reference in its whole-tensor form.

It casts the whole padded input and the whole filter tensor to float64
once and makes one (oc, K) @ (K, ow) GEMM per output row over a strided
view of that copy. slicedconv.reference.rowwise_conv computes the same
GEMMs from float32 in bounded float64 buffers, one filter block at a time,
and the tests check that its output is bitwise equal to this one's.
"""

import numpy as np

from slicedconv import ConvParams, out_shape, pad_input


def rowwise_conv_whole(x: np.ndarray, filters: np.ndarray,
                       p: ConvParams) -> np.ndarray:
    oh, ow = out_shape(p)
    xp = np.ascontiguousarray(pad_input(x, p), dtype=np.float64)
    flt = filters.reshape(p.oc, -1).astype(np.float64)
    out = np.empty((p.n, p.oc, oh, ow), dtype=np.float32)
    # windows[b, c, i, j, r, q] is the input under filter offset (i, j) of
    # output (r, q).
    s_n, s_c, s_h, s_w = xp.strides
    windows = np.ndarray(
        (p.n, p.ic, p.fh, p.fw, oh, ow), np.float64, xp, 0,
        (s_n, s_c, p.dil_h * s_h, p.dil_w * s_w,
         p.stride_h * s_h, p.stride_w * s_w))
    for b in range(p.n):
        for r in range(oh):
            out[b, :, r] = flt @ windows[b, ..., r, :].reshape(-1, ow)
    return out
