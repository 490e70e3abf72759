"""Test-only packing oracle: the packing equations as scalar index functions.

The packers in slicedconv.packing apply these equations as strides and
slices; the functions here spell them out one element at a time, so the
tests can check the packed matrices against them. dump_packed prints a
packed matrix in the text form of the golden files.
"""

import numpy as np

from slicedconv import ConvInfo, ConvParams, MkInfo


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
    group start through i_oout with i_oin = 0. The group start
    ts = i_oout + i_oin + e_off is what pack_input takes as w0.
    """
    p = conv.params
    ts = i_oout + i_oin + e_off
    w = ts + i_nt * n_win + i_nwin
    it_h = (w // conv.ow - ts // conv.ow) * p.stride_h + i_fh * p.dil_h
    it_w = (w % conv.ow - ts % conv.ow) * p.stride_w + i_fw * p.dil_w
    return it_h * tile_w + it_w


def dump_packed(mat: np.ndarray, kind: str, n: int, tile_shape: tuple) -> str:
    """Flat text form of a packed matrix, one tile per line (golden tests).

    kind is "input" for pack_input's (K, nt*n) matrix or "filter" for
    pack_filter's (nt*n, K) one, n the tile width (n_win or n_f) and
    tile_shape the (nc, fh, fw) split of K. Each tile prints in
    (i_nc, i_fh, i_fw, i_n) order.
    """
    tiles = mat if kind == "input" else mat.T
    nt = tiles.shape[1] // n
    lines = [f"# kind={kind} nt={nt} "
             f"shape={'x'.join(map(str, (*tile_shape, n)))}"]
    for i in range(nt):
        vals = tiles[:, i * n:(i + 1) * n].ravel()
        lines.append(" ".join(f"{float(v):.9g}" for v in vals))
    return "\n".join(lines) + "\n"
