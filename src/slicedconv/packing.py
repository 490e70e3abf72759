"""Affine-equation packing of filter and input tiles, with multipacking.

Packed layouts, per tile:

  filter: (nc, fh, fw, n_f)   - a pure permutation of the filter slice,
                                stored in order, gathered out of order;
  input:  (nc, fh, fw, n_win) - windows of the input slice; elements
                                shared by overlapping windows are replicated.

Multipacking packs ``nt`` consecutive tiles in one pass by prepending an nt
axis; tile t of a multipack starts n_f filters (or n_win windows) after tile
t-1.

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
affine. pack_input's buffer is K-major: for each (i_nc, i_fh, i_fw) the
group's nt*n_win windows are one run, tile after tile. So the group takes
at most three slice copies from the view: the rest of its first output
row, one block of whole rows, and the start of its last row. The scalar
input_pack_index_* functions spell the same equations out as the tests'
oracle.

The logical (nt, nc, fh, fw, n) shape above is what both packers index
and what dump_packed prints, whatever the memory order. Callers that hand
in ``out`` choose that order: the macrokernel passes transposed views of
one K-major (K, windows) window-set matrix and one row-major (filters, K)
filter-set matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import prod

import numpy as np

from .arch import ConvInfo, MkInfo
from .model import DTYPE, ConvParams
from .regions import KernelRegion


class TileKind(enum.Enum):
    Filter = "filter"
    Input = "input"


@dataclass
class PackedTile:
    """Contiguous packed buffer for nt tiles plus the per-tile logical shape."""

    data: np.ndarray  # shape (nt, *logical_shape), f32
    logical_shape: tuple
    kind: TileKind
    nt: int

    def __post_init__(self):
        if self.data.size != self.nt * prod(self.logical_shape):
            raise ValueError(f"buffer of {self.data.size} elements does not "
                             f"hold {self.nt} tiles of {self.logical_shape}")

    def tile(self, i: int) -> np.ndarray:
        return self.data[i]

    def matrix(self, i: int) -> np.ndarray:
        """Tile i as a (K, n_f|n_win) reduction-major matrix."""
        k = prod(self.logical_shape[:-1])
        return self.data[i].reshape(k, self.logical_shape[-1])


def filter_pack_index(i_nc: int, i_fh: int, i_fw: int, i_nf: int,
                      i_nt: int, mk: MkInfo) -> tuple[int, int, int, int]:
    """Source (filter, channel, row, col) for one packed filter element."""
    return (i_nt * mk.n_f + i_nf, i_nc, i_fh, i_fw)


def input_pack_index_simple(i_fh: int, i_fw: int, i_nwin: int,
                            p: ConvParams, tile_w: int) -> int:
    """Tile-relative flat index, single-row case (no row break in the tile)."""
    it_h = i_fh * p.dil_h
    it_w = i_nwin * p.stride_w + i_fw * p.dil_w
    return it_h * tile_w + it_w


def input_pack_index_general(i_oout: int, i_oin: int, i_nwin: int,
                             i_fh: int, i_fw: int, i_nt: int, e_off: int,
                             conv: ConvInfo, tile_w: int,
                             n_win: int) -> int:
    """Tile-relative flat index in the general (row-break capable) case.

    tile_w must be the row width of the extracted slice (the full padded
    input width when row breaks can occur); the returned column offset may
    be negative relative to the group origin. Multipack callers pass the
    group start through i_oout with i_oin = 0.
    """
    p = conv.params
    ts = i_oout + i_oin + e_off
    w = ts + i_nt * n_win + i_nwin
    it_h = (w // conv.ow - ts // conv.ow) * p.stride_h + i_fh * p.dil_h
    it_w = (w % conv.ow - ts % conv.ow) * p.stride_w + i_fw * p.dil_w
    return it_h * tile_w + it_w


def pack_filter(filters: np.ndarray, region: KernelRegion, mk: MkInfo,
                nt: int, nc: int, f_tile_start: int = 0, ic_off: int = 0,
                out: np.ndarray | None = None) -> PackedTile:
    """Pack nt consecutive filter tiles of nc channels of a region.

    packed[i_nt, i_nc, i_fh, i_fw, i_nf] = filters[f0 + i_nt*n_f + i_nf,
    c0 + i_nc, i_fh, i_fw] with f0/c0 the region-relative starting filter
    and channel. Pure data movement, no replication. out may be any view
    of that shape; one whose memory runs (nt, n_f, nc, fh, fw), as the
    macrokernel's row-major filter sets do, takes a straight copy.
    """
    fh, fw = filters.shape[2], filters.shape[3]
    f0 = region.oc_start + f_tile_start * mk.n_f
    c0 = region.ic_start + ic_off
    if f0 + nt * mk.n_f > region.oc_start + region.oc_len:
        raise IndexError("filter range overflows the region")
    if c0 + nc > region.ic_start + region.ic_len:
        raise IndexError("channel range overflows the region")

    src = filters[f0:f0 + nt * mk.n_f, c0:c0 + nc]
    src = src.reshape(nt, mk.n_f, nc, fh, fw)
    packed = np.transpose(src, (0, 2, 3, 4, 1))
    if out is not None:
        out[:] = packed
        packed = out
    else:
        packed = np.ascontiguousarray(packed, dtype=DTYPE)
    return PackedTile(data=packed, logical_shape=(nc, fh, fw, mk.n_f),
                      kind=TileKind.Filter, nt=nt)


def pack_input(x: np.ndarray, conv: ConvInfo, region: KernelRegion,
               loop_state: tuple[int, int], mk: MkInfo, nt: int, nc: int,
               batch: int = 0, ic_off: int = 0,
               out: np.ndarray | None = None) -> PackedTile:
    """Pack nt window tiles of nc channels of a region from a padded input.

    loop_state = (i_oout, i_oin) are the outer/inner spatial loop iterators
    in window units; together with the region offset they fix the absolute
    group start ts. Multipack callers pass i_oin = 0.

    packed[i_nt, i_nc, i_fh, i_fw, i_nwin] holds the input element projected
    by window ts + i_nt*n_win + i_nwin under filter offset (i_fh, i_fw).
    The input is read in place when x is C-contiguous (as the engine's
    always is) and copied one channel block per call otherwise.

    out, like the buffer allocated without it, must be K-major: an
    (nt, nc, fh, fw, n_win) view in which tile t's windows follow tile
    t-1's, as a transposed view of a (K, nt*n_win) matrix is. Any other
    out raises ValueError before anything is written.
    """
    p = conv.params
    if p.pad_h or p.pad_w:
        raise ValueError("engine core expects a pre-padded input")
    c0 = region.ic_start + ic_off
    if c0 + nc > region.ic_start + region.ic_len:
        raise IndexError("channel range overflows the region")

    i_oout, i_oin = loop_state
    ts = region.e_off + i_oout + i_oin
    n_win = mk.n_win
    total = nt * n_win
    if ts < 0 or ts + total > conv.ohw:
        raise IndexError(
            f"window group [{ts}, {ts + total}) outside output domain "
            f"(splitting bug)")

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

    shape = (nt, nc, p.fh, p.fw, n_win)
    if out is None:
        out = np.empty(shape[1:4] + (nt, n_win), DTYPE).transpose(3, 0, 1, 2, 4)
    elif out.shape != shape or (nt > 1 and out.strides[0] != n_win * out.strides[4]):
        raise ValueError(f"out must be a K-major view of shape {shape}: "
                         f"tile t's windows right after tile t-1's")
    # flat[i_nc, i_fh, i_fw, g] is window ts + g: a view, as out is K-major.
    # The group is at most three slices of the view: the rest of its first
    # output row, a block of whole rows, and the start of its last row.
    flat = out.transpose(1, 2, 3, 0, 4).reshape(nc, p.fh, p.fw, total)
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
    return PackedTile(data=out, logical_shape=(nc, p.fh, p.fw, n_win),
                      kind=TileKind.Input, nt=nt)


def dump_packed(tile: PackedTile) -> str:
    """Flat text form of a packed buffer, one tile per line (golden tests)."""
    lines = [f"# kind={tile.kind.value} nt={tile.nt} "
             f"shape={'x'.join(map(str, tile.logical_shape))}"]
    for i in range(tile.nt):
        vals = tile.tile(i).ravel()
        lines.append(" ".join(f"{float(v):.9g}" for v in vals))
    return "\n".join(lines) + "\n"
