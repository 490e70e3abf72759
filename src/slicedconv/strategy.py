"""Cache-aware tiling analysis: schedule and tile-size selection.

Given a convolution, a cache hierarchy, and a microkernel shape, pick

  * a schedule: InputStationary (IS) keeps input window tiles resident in L1
    while filter tiles stream; WeightStationary (WS) is the mirror;
  * nc  - input channels per tile, sized so one input tile, one filter tile
    and one output tile fit in L1 together;
  * k2  - filter tiles (groups of n_f filters) held as a multipacked set,
    sized against L2;
  * k3  - window tiles (groups of n_win output windows) held as a set,
    sized against L3 (1 when there is no L3);

plus the remainders of each dimension against its tile size.

These are the paper's tile sizes, and the CSV report gives them as
analysed. The executor maps them onto a BLAS GEMM microkernel, which
packs and blocks its own operands: it runs each window set over all input
channels against every filter of its region, and takes from the analysis
only k3, capped so that a window set at full depth holds at most L2 (see
engine.py). The schedule orders nothing in execution, and nc, k2, r_nc
and r_k2 size no region or loop there.

Tile-count semantics are fixed per dimension: k2 always counts filter tiles
and k3 always counts window tiles, for both schedules. nc candidates are
powers of two capped by ic, chosen against a per-channel L1 budget; together
these make the analysis monotone under uniform cache scaling (growing all
cache levels by a power of two never shrinks nc, k2 or k3).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .arch import ELEM_BYTES, ArchInfo, ConvInfo, MkInfo


class Schedule(enum.Enum):
    InputStationary = "IS"
    WeightStationary = "WS"


@dataclass(frozen=True)
class TilingStrategy:
    """Chosen schedule plus tile sizes and remainders."""

    schedule: Schedule
    nc: int
    k2: int
    k3: int
    r_nc: int
    r_k2: int
    r_k3: int

    def __post_init__(self):
        if min(self.nc, self.k2, self.k3) < 1:
            raise ValueError("tile sizes must be >= 1")
        if min(self.r_nc, self.r_k2, self.r_k3) < 0:
            raise ValueError("remainders must be >= 0")


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


def _pow2_floor(x: int) -> int:
    return 1 << (x.bit_length() - 1) if x >= 1 else 0


def _clamp(x: int, lo: int, hi: int) -> int:
    return max(lo, min(x, hi))


def remainders(conv: ConvInfo, mk: MkInfo, nc: int, k2: int, k3: int) -> tuple[int, int, int]:
    """Remainder extents: (ic mod nc, filter-tiles mod k2, window-tiles mod k3).

    k3 remainders are expressed in n_win-window tiles over the main spatial
    extent (the sub-n_win window tail is peeled separately and never enters
    the tile-set arithmetic). r_nc and r_k2 are the analysis's figures
    only: no region splits input or output channels, since each GEMM
    spans all of both.
    """
    r_nc = conv.params.ic % nc
    r_k2 = filter_tiles(conv, mk) % k2
    r_k3 = window_tiles(conv, mk) % k3
    return r_nc, r_k2, r_k3


def cost_model(conv: ConvInfo, mk: MkInfo, candidate: TilingStrategy) -> int:
    """Estimated memory traffic in bytes for a candidate strategy.

    The stationary tensor is loaded once; the non-stationary tensor is
    reloaded once per stationary tile-set (window-tile sets of k3 under IS,
    filter-tile sets of k2 under WS); the output is written once.
    """
    p = conv.params
    in_b = p.n * p.ic * p.ih * p.iw * ELEM_BYTES
    f_b = p.oc * p.ic * p.fh * p.fw * ELEM_BYTES
    out_b = p.n * p.oc * conv.ohw * ELEM_BYTES
    if candidate.schedule is Schedule.InputStationary:
        sets = math.ceil(max(window_tiles(conv, mk), 1) / candidate.k3)
        return in_b + f_b * sets + out_b
    sets = math.ceil(max(filter_tiles(conv, mk), 1) / candidate.k2)
    return f_b + in_b * sets + out_b


def analyze(conv: ConvInfo, arch: ArchInfo, mk: MkInfo) -> TilingStrategy:
    """Pick schedule and tile sizes for a convolution on a given machine.

    Raises ValueError when even a single-channel tile set exceeds L1.
    """
    p = conv.params
    in1, f1, out1 = tile_bytes(conv, mk, nc=1)
    if in1 + f1 + out1 > arch.l1_bytes:
        raise ValueError(
            f"tile exceeds L1: {in1 + f1 + out1} bytes at nc=1 vs {arch.l1_bytes}")

    # Largest power-of-two channel depth within the per-channel L1 budget,
    # capped by ic. The budget charges the output tile per channel, which is
    # stricter than the plain three-tile sum, so the L1 fit always holds.
    budget = arch.l1_bytes // (in1 + f1 + out1)
    nc = min(_pow2_floor(p.ic), _pow2_floor(budget))

    in_tile, f_tile, _ = tile_bytes(conv, mk, nc)
    n_ftiles = filter_tiles(conv, mk)
    n_wtiles = window_tiles(conv, mk)

    # Filter-tile set sized against L2 alongside one resident input tile;
    # window-tile set sized against L3 (collapses to one set without an L3).
    k2 = _clamp((arch.l2_bytes - in_tile) // f_tile, 1, max(n_ftiles, 1))
    if arch.l3_bytes == 0:
        k3 = 1
    else:
        k3 = _clamp(arch.l3_bytes // in_tile, 1, max(n_wtiles, 1))

    # Keep the larger tensor stationary; ties go to input stationary. This is
    # the cost-model ordering with reload counts equalized between schedules.
    in_total = p.n * p.ic * p.ih * p.iw * ELEM_BYTES
    f_total = p.oc * p.ic * p.fh * p.fw * ELEM_BYTES
    schedule = Schedule.InputStationary if in_total >= f_total else Schedule.WeightStationary

    r_nc, r_k2, r_k3 = remainders(conv, mk, nc, k2, k3)
    return TilingStrategy(schedule=schedule, nc=nc, k2=k2, k3=k3,
                          r_nc=r_nc, r_k2=r_k2, r_k3=r_k3)
