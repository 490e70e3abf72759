"""Recursive edge-case splitting of the convolution iteration space.

The full iteration space (flattened output windows x output channels x input
channels) is carved into disjoint rectangular regions before tiling:

  1. a structural split peels the window tail (windows mod n_win) into a
     Remainder region, which skips the tiling analysis;
  2. the main region, over all output and input channels, then peels the
     window tiles that do not fill a whole k3 set (r_k3) into a second
     Main region.

No region splits input or output channels: a window set runs against all
filters and reduces over all channels (in L2-sized chunks where the
engine splits a deep reduction), and the GEMM blocks its operands itself,
so the analysis's nc and k2 and their remainders r_nc and r_k2 size no
region. The engine reports this plan and runs the layer as one span (see
engine.py).

Regions are only the reported plan (RunInfo.regions, the CSV,
--dump-regions): the executor and the packers take plain window and
channel ranges of the layer, and no region. A region's e_off, the paper's
region offset, is its first window, spatial_start.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .arch import ConvInfo, MkInfo
from .strategy import TilingStrategy


class RegionKind(enum.Enum):
    Main = "main"
    Remainder = "remainder"


@dataclass(frozen=True)
class KernelRegion:
    """A rectangular sub-range of the (windows x oc x ic) iteration space."""

    spatial_start: int
    spatial_len: int
    oc_start: int
    oc_len: int
    ic_start: int
    ic_len: int
    kind: RegionKind

    @property
    def e_off(self) -> int:
        """The paper's region offset: the region's first window."""
        return self.spatial_start

    def to_dict(self) -> dict:
        return {
            "spatial_start": self.spatial_start, "spatial_len": self.spatial_len,
            "oc_start": self.oc_start, "oc_len": self.oc_len,
            "ic_start": self.ic_start, "ic_len": self.ic_len,
            "kind": self.kind.value, "e_off": self.e_off,
        }


def split_input_domain(total_windows: int, n_win: int,
                       oc_len: int = 1, ic_len: int = 1):
    """Peel the window tail: (main region or None, tail region or None).

    The main region covers floor(total/n_win)*n_win windows; the tail covers
    the rest and is marked Remainder. oc_len/ic_len set the non-spatial
    extents of the produced regions.
    """
    if total_windows < 1 or n_win < 1:
        raise ValueError("total_windows and n_win must be >= 1")
    main_len = (total_windows // n_win) * n_win
    main = None
    if main_len:
        main = KernelRegion(0, main_len, 0, oc_len, 0, ic_len, RegionKind.Main)
    tail = None
    if main_len < total_windows:
        tail = KernelRegion(main_len, total_windows - main_len, 0, oc_len,
                            0, ic_len, RegionKind.Remainder)
    return main, tail


def split_by_strategy(region: KernelRegion, strategy: TilingStrategy,
                      mk: MkInfo) -> list[KernelRegion]:
    """Peel a main region's window tiles that do not fill a whole k3 set.

    The peeled trailing windows keep Main kind.
    Returns [core] or [core, peel].
    """
    if region.kind is not RegionKind.Main:
        raise ValueError("split_by_strategy expects a Main region")
    if region.spatial_len % mk.n_win:
        raise ValueError("main region must be aligned to n_win windows")

    wtiles = region.spatial_len // mk.n_win
    r_k3 = wtiles % strategy.k3
    keep = (wtiles - r_k3) * mk.n_win
    if not (r_k3 and keep):
        return [region]
    return [replace(region, spatial_len=keep),
            replace(region, spatial_start=region.spatial_start + keep,
                    spatial_len=region.spatial_len - keep)]


def plan_regions(conv: ConvInfo, strategy: TilingStrategy,
                 mk: MkInfo) -> list[KernelRegion]:
    """Full region decomposition for a convolution.

    The window tail (windows mod n_win) is a Remainder region; everything
    else comes from split_by_strategy.
    """
    main, tail = split_input_domain(conv.ohw, mk.n_win, oc_len=conv.params.oc,
                                    ic_len=conv.params.ic)
    regions = []
    if tail is not None:
        regions.append(tail)
    if main is not None:
        regions.extend(split_by_strategy(main, strategy, mk))
    return regions


def coverage_check(regions: list[KernelRegion], conv: ConvInfo) -> bool:
    """True iff regions are pairwise disjoint and exactly cover the space."""
    total = conv.ohw * conv.params.oc * conv.params.ic
    vol = 0
    for r in regions:
        if r.spatial_len < 0 or r.oc_len < 0 or r.ic_len < 0:
            return False
        if r.spatial_start < 0 or r.spatial_start + r.spatial_len > conv.ohw:
            return False
        if r.oc_start < 0 or r.oc_start + r.oc_len > conv.params.oc:
            return False
        if r.ic_start < 0 or r.ic_start + r.ic_len > conv.params.ic:
            return False
        vol += r.spatial_len * r.oc_len * r.ic_len
    for i, a in enumerate(regions):
        for b in regions[i + 1:]:
            if (_overlap(a.spatial_start, a.spatial_len, b.spatial_start, b.spatial_len)
                    and _overlap(a.oc_start, a.oc_len, b.oc_start, b.oc_len)
                    and _overlap(a.ic_start, a.ic_len, b.ic_start, b.ic_len)):
                return False
    return vol == total


def _overlap(s0, l0, s1, l1) -> bool:
    return s0 < s1 + l1 and s1 < s0 + l0
