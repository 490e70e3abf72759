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
analysed; a plan makes them, and the regions cut from them, when its
report is first read, and execution reads none of them. The executor
runs each window set against every filter through a BLAS GEMM
microkernel, which packs and blocks its own operands, and the engine
sizes window sets and channel chunks from L2 alone (see engine.py): the
schedule orders nothing in execution, and nc, k2, k3 and their
remainders size no loop there.

Tile-count semantics are fixed per dimension: k2 always counts filter tiles
and k3 always counts window tiles, for both schedules. nc candidates are
powers of two capped by ic, chosen against a per-channel L1 budget; together
these make the analysis monotone under uniform cache scaling (growing all
cache levels by a power of two never shrinks nc, k2 or k3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .arch import ELEM_BYTES, ArchInfo, ConvInfo, MkInfo
from .model import Record, _set


class Schedule(enum.Enum):
    InputStationary = "IS"
    WeightStationary = "WS"


@dataclass(init=False, repr=False, eq=False)
class TilingStrategy(Record):
    """Chosen schedule plus tile sizes and remainders."""

    schedule: Schedule
    nc: int
    k2: int
    k3: int
    r_nc: int
    r_k2: int
    r_k3: int

    def __init__(self, schedule: Schedule, nc: int, k2: int, k3: int,
                 r_nc: int, r_k2: int, r_k3: int):
        _set(self, "schedule", schedule)
        _set(self, "nc", nc)
        _set(self, "k2", k2)
        _set(self, "k3", k3)
        _set(self, "r_nc", r_nc)
        _set(self, "r_k2", r_k2)
        _set(self, "r_k3", r_k3)
        if min(self.nc, self.k2, self.k3) < 1:
            raise ValueError("tile sizes must be >= 1")
        if min(self.r_nc, self.r_k2, self.r_k3) < 0:
            raise ValueError("remainders must be >= 0")


def remainders(conv: ConvInfo, mk: MkInfo, nc: int, k2: int, k3: int) -> tuple[int, int, int]:
    """Remainder extents: (ic mod nc, filter-tiles mod k2, window-tiles mod k3).

    k3 remainders are expressed in n_win-window tiles over the main spatial
    extent (the sub-n_win window tail is peeled separately and never enters
    the tile-set arithmetic). r_nc and r_k2 are the analysis's figures
    only: no region splits input or output channels, since each region's
    GEMMs write all of its filters and reduce over all of its channels.
    """
    p = conv.params
    return p.ic % nc, p.oc // mk.n_f % k2, conv.ohw // mk.n_win % k3


def _tile_bytes(conv: ConvInfo, arch: ArchInfo,
                mk: MkInfo) -> tuple[int, int, int]:
    """(in1, f1, out1): the paper's input and filter tiles grow by in1 and
    f1 bytes per channel, and its output tile is out1 bytes at any depth.

    Raises ValueError when even a single-channel tile set exceeds L1: the
    one refusal of the analysis, which ConvPlan makes at construction.
    """
    p = conv.params
    in1 = p.fh * (mk.n_win + p.fw - 1) * ELEM_BYTES
    f1 = mk.n_f * p.fh * p.fw * ELEM_BYTES
    out1 = mk.n_f * mk.n_win * ELEM_BYTES
    if in1 + f1 + out1 > arch.l1_bytes:
        raise ValueError(
            f"tile exceeds L1: {in1 + f1 + out1} bytes at nc=1 vs {arch.l1_bytes}")
    return in1, f1, out1


def analyze(conv: ConvInfo, arch: ArchInfo, mk: MkInfo) -> TilingStrategy:
    """Pick schedule and tile sizes for a convolution on a given machine.

    Raises ValueError when even a single-channel tile set exceeds L1.
    """
    p = conv.params
    in1, f1, out1 = _tile_bytes(conv, arch, mk)

    # Largest power-of-two channel depth within the per-channel L1 budget,
    # capped by ic. The budget charges the output tile per channel, which is
    # stricter than the plain three-tile sum, so the L1 fit always holds.
    # Both are at least 1, and the power-of-two floor of their minimum is
    # the minimum of their floors.
    nc = 1 << (min(p.ic, arch.l1_bytes // (in1 + f1 + out1)).bit_length() - 1)
    in_tile, f_tile = nc * in1, nc * f1
    n_ftiles = p.oc // mk.n_f
    n_wtiles = conv.ohw // mk.n_win

    # Filter-tile set sized against L2 alongside one resident input tile;
    # window-tile set sized against L3 (collapses to one set without an L3).
    # Each is clamped to [1, tiles] (to 1 when there is no whole tile).
    k2 = max(1, min((arch.l2_bytes - in_tile) // f_tile, n_ftiles))
    k3 = max(1, min(arch.l3_bytes // in_tile, n_wtiles)) if arch.l3_bytes else 1

    # Keep the larger tensor stationary, so that the smaller one is the one
    # reloaded; ties go to input stationary. The schedule is reported only.
    # Both tensors' byte counts carry the factor ic*ELEM_BYTES, dropped here.
    schedule = (Schedule.InputStationary
                if p.n * p.ih * p.iw >= p.oc * p.fh * p.fw
                else Schedule.WeightStationary)
    return TilingStrategy(schedule, nc, k2, k3,
                          *remainders(conv, mk, nc, k2, k3))
