"""Affine-equation packing of filter and input blocks.

Each packer takes plain ranges of the padded layer and returns the block
as one GEMM operand, with the reduction axis K = nc*fh*fw ordered
(i_nc, i_fh, i_fw) as im2col's rows are:

  filter: (nf, K) row-major      - the filter slice itself, no
                                   replication: a read-only view of a
                                   C-contiguous filter tensor, with row
                                   stride ic*fh*fw;
  input:  (K, windows) K-major   - one column per window; elements shared
                                   by overlapping windows are replicated.

The filter slice needs no packing to be a GEMM operand, since the GEMM
behind the microkernel packs its own operands; only the input's windows
are gathered, and not even those where a block of the input already is
the operand (a 1x1 filter at stride 1, see reads_in_place).

The packers know no tile width. A range of nt*n_win windows (or nt*n_f
filters) is the paper's multipack of nt tiles, tile t starting n_win
windows after tile t-1, and a range that ends short of a whole tile
holds a partial last tile.

Input packing is driven by the window arithmetic over the flattened output
spatial dimension. The paper starts a group at ts = e_off + i_oout + i_oin,
the region offset plus the outer/inner loop iterators; that sum is what a
caller passes as w0 (tests/packing_oracle.py keeps the scalar form). The
window packed at column g = i_nt*n_win + i_nwin is ``w = ts + g`` and its
element for filter offset (i_fh, i_fw) sits at group-relative coordinates

    it_h = (w // ow - ts // ow) * stride_h + i_fh * dil_h
    it_w = (w %  ow - ts %  ow) * stride_w + i_fw * dil_w

relative to the group origin (the input element projected by window ts).
When the group spans a row break, it_w may be negative; the extracted slice
then covers full input rows so the flat offset it_h * row_width + it_w stays
inside the slice. When the whole group sits within one output row, the
simpler single-row form applies: it_h = i_fh * dil_h and
it_w = i_nwin * stride_w + i_fw * dil_w.

pack_input applies these equations as strides rather than as index arrays:
one view of the input slice, shaped (nc, fh, fw, oh, ow) with
strides (channel, dil_h*row, dil_w*col, stride_h*row, stride_w*col), holds
every window's elements in place. Within one output row the equations are
affine, and each row of the K-major matrix holds the group's windows as
one run. So the group takes at most three slice copies from the
view: the rest of its first output row, one block of whole rows, and the
start of its last row. The tests' oracle, tests/packing_oracle.py, spells
the same equations out as scalar index functions.
"""

from __future__ import annotations

import numpy as np

from .arch import ConvInfo
from .model import DTYPE, ConvParams


def _check_range(name: str, start: int, count: int, size: int) -> None:
    """IndexError unless [start, start + count) is non-empty, in [0, size)."""
    if start < 0 or count < 1 or start + count > size:
        raise IndexError(f"{name} range [{start}, {start + count}) is empty "
                         f"or outside [0, {size})")


def pack_filter(filters: np.ndarray, f0: int, nf: int, c0: int,
                nc: int) -> np.ndarray:
    """Pack filters f0..f0+nf-1 over channels c0..c0+nc-1.

    Returns the (nf, nc*fh*fw) matrix whose row i is
    filters[f0 + i, c0:c0 + nc] flattened; a negative start, an empty
    range or one past the filter tensor raises IndexError. The matrix is
    a read-only view of filters when they are C-contiguous (as the
    engine's always are), with row stride ic*fh*fw: nothing is copied,
    and a kernel that writes into it raises ValueError rather than change
    the caller's filters.
    """
    oc, ic, fh, fw = filters.shape
    _check_range("filter", f0, nf, oc)
    _check_range("channel", c0, nc, ic)
    mat = filters[f0:f0 + nf, c0:c0 + nc].reshape(nf, nc * fh * fw)
    # Not flags.writeable = False: each such assignment left ~57 B
    # allocated, which the traced peak counts.
    mat.setflags(write=False)
    return mat


def reads_in_place(p: ConvParams) -> bool:
    """True when window w reads pixel w of each channel alone (a 1x1
    filter at stride 1), so that a block of the input is its matrix."""
    return p.fh == p.fw == p.stride_h == p.stride_w == 1


def pack_input(x: np.ndarray, conv: ConvInfo, w0: int, windows: int,
               c0: int, nc: int, batch: int = 0,
               out: np.ndarray | None = None) -> np.ndarray:
    """Pack windows w0..w0+windows-1 over channels c0..c0+nc-1 of image
    batch of a padded input.

    Returns the K-major (nc*fh*fw, windows) matrix whose column g holds
    the input elements projected by window w0 + g, one per (i_nc, i_fh,
    i_fw). A negative start, an empty range or one past the layer's
    windows, channels or images raises IndexError. The input is read in
    place when x is C-contiguous (as the engine's always is) and copied
    one channel block per call otherwise. out, when given, must have that
    shape (ValueError before anything is written) and is filled and
    returned; any strides will do. Without out, a 1x1 filter at stride 1
    over an input of the output's extent, whose block already is the
    matrix, returns it as a read-only view of x (a kernel that writes
    into it raises ValueError), and any other block as a new array.
    """
    p = conv.params
    if p.pad_h or p.pad_w:
        raise ValueError("engine core expects a pre-padded input")
    _check_range("window", w0, windows, conv.ohw)
    _check_range("channel", c0, nc, p.ic)
    _check_range("batch", batch, 1, x.shape[0])

    # view[i_nc, i_fh, i_fw, r, q] is the element that output (r, q) reads
    # under filter offset (i_fh, i_fw): the packing equations as strides.
    # Strides are not bounds-checked, so the view's extent is checked first.
    oh, ow = conv.oh, conv.ow
    if (c0 + nc > x.shape[1]
            or (oh - 1) * p.stride_h + (p.fh - 1) * p.dil_h >= x.shape[2]
            or (ow - 1) * p.stride_w + (p.fw - 1) * p.dil_w >= x.shape[3]):
        raise IndexError(f"input of shape {x.shape} does not hold the "
                         f"windows of a {oh}x{ow} output")
    block = x[batch, c0:c0 + nc]
    if out is None and reads_in_place(p) and block.shape[1:] == (oh, ow):
        mat = block.reshape(nc, conv.ohw)[:, w0:w0 + windows]
        mat.setflags(write=False)
        return mat
    # Built on the block's buffer, not with as_strided: its interface dict
    # left a few hundred bytes on the traced peak. The view is only read.
    chans = np.ascontiguousarray(block)
    cs, rs, es = chans.strides
    view = np.ndarray(
        (nc, p.fh, p.fw, oh, ow), chans.dtype, chans, 0,
        (cs, p.dil_h * rs, p.dil_w * es, p.stride_h * rs, p.stride_w * es))

    shape = (nc * p.fh * p.fw, windows)
    if out is None:
        out = np.empty(shape, DTYPE)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, not {shape}")
    # flat[i_nc, i_fh, i_fw, g] is window w0 + g. Splitting K is a view for
    # any 2-D out. The group is at most three slices of the view: the rest
    # of its first output row, a block of whole rows, and the start of its
    # last row.
    flat = out.reshape(nc, p.fh, p.fw, windows)
    r0, q0 = divmod(w0, ow)
    r1, q1 = divmod(w0 + windows, ow)
    if r0 == r1:
        flat[:] = view[..., r0, q0:q1]
    else:
        head = -q0 % ow
        if head:
            flat[..., :head] = view[..., r0, q0:]
        r = r0 + (head > 0)
        if r < r1:
            flat[..., head:windows - q1].reshape(
                nc, p.fh, p.fw, r1 - r, ow)[:] = view[..., r:r1, :]
        if q1:
            flat[..., windows - q1:] = view[..., r1, :q1]
    return out
