"""Affine-equation packing of filter and input tiles, with multipacking.

Each packer returns its nt tiles as one GEMM operand, with the reduction
axis K = nc*fh*fw ordered (i_nc, i_fh, i_fw) as im2col's rows are:

  filter: (nt*n_f, K) row-major - the filter slice itself, no
                                  replication: a read-only view of a
                                  C-contiguous filter tensor, with row
                                  stride ic*fh*fw;
  input:  (K, nt*n_win) K-major - one column per window; elements shared
                                  by overlapping windows are replicated.

The filter slice needs no packing to be a GEMM operand, since the GEMM
behind the microkernel packs its own operands; only the input's windows
are gathered.

Multipacking packs ``nt`` consecutive tiles in one pass: tile t of a
multipack starts n_f filters (or n_win windows) after tile t-1. Either
packer takes a partial last tile at the region's end, so a region needs
no whole number of tiles on either axis.

Input packing is driven by the window arithmetic over the flattened output
spatial dimension. With ``ts`` the absolute starting window of the group
(region offset e_off plus the outer/inner loop iterators), the window packed
at (i_nt, i_nwin) is ``w = ts + i_nt*n_win + i_nwin`` and its element for
filter offset (i_fh, i_fw) sits at tile-relative coordinates

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

from .arch import ConvInfo, MkInfo
from .model import DTYPE
from .regions import KernelRegion


def pack_filter(filters: np.ndarray, region: KernelRegion, mk: MkInfo,
                nt: int, nc: int, f_tile_start: int = 0, ic_off: int = 0
                ) -> np.ndarray:
    """Pack nt consecutive filter tiles of nc channels of a region.

    Returns the (rows, nc*fh*fw) matrix whose row i_nt*n_f + i_nf is
    filters[f0 + i_nt*n_f + i_nf, c0:c0 + nc] flattened, with f0/c0 the
    region-relative starting filter and channel, and rows = nt*n_f less
    what a partial last tile at the region's end lacks. The matrix is a
    read-only view of filters when they are C-contiguous (as the engine's
    always are), with row stride ic*fh*fw: nothing is copied, and a kernel
    that writes into it raises ValueError rather than change the caller's
    filters.
    """
    fh, fw = filters.shape[2], filters.shape[3]
    f0 = region.oc_start + f_tile_start * mk.n_f
    c0 = region.ic_start + ic_off
    f_end = region.oc_start + region.oc_len
    if f0 + (nt - 1) * mk.n_f >= f_end:
        raise IndexError("filter range overflows the region")
    if c0 + nc > region.ic_start + region.ic_len:
        raise IndexError("channel range overflows the region")

    src = filters[f0:min(f0 + nt * mk.n_f, f_end), c0:c0 + nc]
    mat = src.reshape(len(src), nc * fh * fw)
    # Not flags.writeable = False: each such assignment left ~57 B
    # allocated, which the traced peak counts.
    mat.setflags(write=False)
    return mat


def pack_input(x: np.ndarray, conv: ConvInfo, region: KernelRegion,
               loop_state: tuple[int, int], mk: MkInfo, nt: int, nc: int,
               batch: int = 0, ic_off: int = 0,
               out: np.ndarray | None = None) -> np.ndarray:
    """Pack nt window tiles of nc channels of a region from a padded input.

    loop_state = (i_oout, i_oin) are the outer/inner spatial loop iterators
    in window units; together with the region offset they fix the absolute
    group start ts. Multipack callers pass i_oin = 0.

    Returns the K-major (nc*fh*fw, windows) matrix whose column g holds
    the input elements projected by window ts + g, one per (i_nc, i_fh,
    i_fw), with windows = nt*n_win less what a partial last tile at the
    region's end lacks; a tile that starts at or past that end raises
    IndexError. The input is read in place when x is C-contiguous (as the
    engine's always is) and copied one channel block per call otherwise.
    out, when given, must have that shape (ValueError before anything is
    written) and is filled and returned; any strides will do.
    """
    p = conv.params
    if p.pad_h or p.pad_w:
        raise ValueError("engine core expects a pre-padded input")
    c0 = region.ic_start + ic_off
    if c0 + nc > region.ic_start + region.ic_len:
        raise IndexError("channel range overflows the region")

    i_oout, i_oin = loop_state
    ts = region.e_off + i_oout + i_oin
    end = region.e_off + region.spatial_len
    if ts < 0 or ts + (nt - 1) * mk.n_win >= end or end > conv.ohw:
        raise IndexError(
            f"window group of {nt} tiles at {ts} outside region "
            f"[{region.e_off}, {end}) of {conv.ohw} windows (splitting bug)")
    total = min(nt * mk.n_win, end - ts)

    # view[i_nc, i_fh, i_fw, r, q] is the element that output (r, q) reads
    # under filter offset (i_fh, i_fw): the packing equations as strides.
    # Strides are not bounds-checked, so the view's extent is checked first.
    oh, ow = conv.oh, conv.ow
    if (batch >= x.shape[0] or c0 + nc > x.shape[1]
            or (oh - 1) * p.stride_h + (p.fh - 1) * p.dil_h >= x.shape[2]
            or (ow - 1) * p.stride_w + (p.fw - 1) * p.dil_w >= x.shape[3]):
        raise IndexError(f"input of shape {x.shape} does not hold the "
                         f"windows of a {oh}x{ow} output")
    # Built on the block's buffer, not with as_strided: its interface dict
    # left a few hundred bytes on the traced peak. The view is only read.
    chans = np.ascontiguousarray(x[batch, c0:c0 + nc])
    cs, rs, es = chans.strides
    view = np.ndarray(
        (nc, p.fh, p.fw, oh, ow), chans.dtype, chans, 0,
        (cs, p.dil_h * rs, p.dil_w * es, p.stride_h * rs, p.stride_w * es))

    shape = (nc * p.fh * p.fw, total)
    if out is None:
        out = np.empty(shape, DTYPE)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, not {shape}")
    # flat[i_nc, i_fh, i_fw, g] is window ts + g. Splitting K is a view for
    # any 2-D out. The group is at most three slices of the view: the rest
    # of its first output row, a block of whole rows, and the start of its
    # last row.
    flat = out.reshape(nc, p.fh, p.fw, total)
    r0, q0 = divmod(ts, ow)
    r1, q1 = divmod(ts + total, ow)
    if r0 == r1:
        flat[:] = view[..., r0, q0:q1]
    else:
        head = -q0 % ow
        if head:
            flat[..., :head] = view[..., r0, q0:]
        r = r0 + (head > 0)
        if r < r1:
            flat[..., head:total - q1].reshape(
                nc, p.fh, p.fw, r1 - r, ow)[:] = view[..., r:r1, :]
        if q1:
            flat[..., total - q1:] = view[..., r1, :q1]
    return out

