"""Edge-case splitting of the convolution iteration space.

The full iteration space (flattened output windows x output channels x
input channels) is carved into disjoint rectangular regions by two cuts of
the window span, made once each by plan_regions:

  1. the window tail (windows mod n_win) becomes a Remainder region;
  2. the whole window tiles that do not fill a whole k3 set (r_k3) are
     peeled off the main windows into a second Main region.

No region splits input or output channels: a window set runs against all
filters and reduces over all channels (in L2-sized chunks where the
engine splits a deep reduction), and the GEMM blocks its operands itself,
so the analysis's nc and k2 and their remainders r_nc and r_k2 size no
region. coverage_check therefore checks a plan in the one dimension it
splits: each region spans all channels, and the regions' window ranges
tile the layer's windows. A region therefore holds its channel extents
(oc_len, ic_len) but no channel offset; to_dict writes the offsets as 0,
so --dump-regions keeps its keys. The engine reports this plan and runs
the layer as one span (see engine.py).

Regions are only the reported plan (ConvPlan.regions, made when the
plan's report is first read; the CSV, --dump-regions): the executor and
the packers take plain window and channel ranges of the layer, and no
region. A region's e_off, the paper's
region offset, is its first window, spatial_start.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .arch import ConvInfo, MkInfo
from .model import Record, _set
from .strategy import TilingStrategy


class RegionKind(enum.Enum):
    Main = "main"
    Remainder = "remainder"


@dataclass(init=False, repr=False, eq=False)
class KernelRegion(Record):
    """A window range of the (windows x oc x ic) iteration space, over
    oc_len output and ic_len input channels from the first of each."""

    spatial_start: int
    spatial_len: int
    oc_len: int
    ic_len: int
    kind: RegionKind

    def __init__(self, spatial_start: int, spatial_len: int, oc_len: int,
                 ic_len: int, kind: RegionKind):
        _set(self, "spatial_start", spatial_start)
        _set(self, "spatial_len", spatial_len)
        _set(self, "oc_len", oc_len)
        _set(self, "ic_len", ic_len)
        _set(self, "kind", kind)

    @property
    def e_off(self) -> int:
        """The paper's region offset: the region's first window."""
        return self.spatial_start

    def to_dict(self) -> dict:
        return {
            "spatial_start": self.spatial_start, "spatial_len": self.spatial_len,
            "oc_start": 0, "oc_len": self.oc_len,
            "ic_start": 0, "ic_len": self.ic_len,
            "kind": self.kind.value, "e_off": self.e_off,
        }


def plan_regions(conv: ConvInfo, strategy: TilingStrategy,
                 mk: MkInfo) -> list[KernelRegion]:
    """Region decomposition of a convolution: the paper's two cuts.

    The layer's wtiles = ohw // n_win whole window tiles cover the first
    main = wtiles*n_win windows. The first cut makes the window tail
    [main, ohw), when there is one, a Remainder region. The second cut
    peels the trailing wtiles mod k3 tiles, which fill no whole k3 set,
    off the main windows: Main [0, keep) and Main [keep, main) when
    0 < keep < main, for keep = (wtiles - wtiles mod k3)*n_win, else a
    single Main [0, main) when main > 0. Every region spans all output
    and input channels. Order: the tail, then the main regions.
    """
    oc, ic = conv.params.oc, conv.params.ic
    wtiles = conv.ohw // mk.n_win
    main = wtiles * mk.n_win
    keep = (wtiles - wtiles % strategy.k3) * mk.n_win
    regions = []
    if main < conv.ohw:
        regions.append(KernelRegion(main, conv.ohw - main, oc, ic,
                                    RegionKind.Remainder))
    cuts = [0, keep, main] if 0 < keep < main else [0, main]
    for start, stop in zip(cuts, cuts[1:]):
        if stop > start:
            regions.append(KernelRegion(start, stop - start, oc, ic,
                                        RegionKind.Main))
    return regions


def coverage_check(regions: list[KernelRegion], conv: ConvInfo) -> bool:
    """True iff the regions cover the layer exactly once.

    Every region must span all output and input channels (oc_len = oc,
    ic_len = ic), and the regions' window ranges, sorted, must tile
    [0, ohw): no gap, no overlap and no region without a window.
    """
    full = (conv.params.oc, conv.params.ic)
    end = 0
    for r in sorted(regions, key=lambda r: r.spatial_start):
        if ((r.oc_len, r.ic_len) != full
                or r.spatial_start != end or r.spatial_len < 1):
            return False
        end += r.spatial_len
    return end == conv.ohw
