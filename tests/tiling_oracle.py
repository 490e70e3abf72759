"""Test-only tiling oracle: the paper's tile sizes, one function each.

slicedconv.strategy.analyze computes these sizes in line, per channel;
the functions here state them at a given channel depth, so the tests can
check the analysis's choices (L1 fit, remainders, monotonicity under
cache scaling) against an independent statement of the same equations.
"""

from dataclasses import replace

from slicedconv import ArchInfo, ConvInfo, MkInfo

ELEM_BYTES = 4  # float32


def tile_bytes(conv: ConvInfo, mk: MkInfo, nc: int) -> tuple[int, int, int]:
    """Byte sizes of one (input, filter, output) tile at channel depth nc.

    Input tile:  nc * fh * (n_win + fw - 1) elements (source slice form).
    Filter tile: n_f * nc * fh * fw elements.
    Output tile: n_f * n_win elements.
    """
    p = conv.params
    in_b = nc * p.fh * (mk.n_win + p.fw - 1) * ELEM_BYTES
    f_b = mk.n_f * nc * p.fh * p.fw * ELEM_BYTES
    out_b = mk.n_f * mk.n_win * ELEM_BYTES
    return in_b, f_b, out_b


def window_tiles(conv: ConvInfo, mk: MkInfo) -> int:
    """Full n_win-window tiles in the flattened output spatial dimension."""
    return conv.ohw // mk.n_win


def filter_tiles(conv: ConvInfo, mk: MkInfo) -> int:
    """Full n_f-filter tiles in the output channel dimension."""
    return conv.params.oc // mk.n_f


def scaled(arch: ArchInfo, factor: int) -> ArchInfo:
    """arch with every cache level grown by factor (an absent L3 stays 0)."""
    return replace(arch, l1_bytes=arch.l1_bytes * factor,
                   l2_bytes=arch.l2_bytes * factor,
                   l3_bytes=arch.l3_bytes * factor)
