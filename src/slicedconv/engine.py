"""End-to-end driver: pad once, analyze, split into regions, execute.

Padding is materialized up front so the tiled pipeline and every packing
equation can assume pad = 0. Every region runs through execute_region.

The analysis sizes tiles as the paper does; _region_shape maps them onto
the GEMM microkernel, and is the one place that sizes execution. The GEMM
blocks its own operands, so each window set runs against every filter of
its region, (oc_len, K) @ (K, W), and two numbers are left to choose per
region: the window-set size, from the analysed k3, and the channel-chunk
size, which splits the reduction where capping a set at full depth to L2
would cut a deep region into several sets, each streaming all of its
filters (the paper's nc channel tiling, sized by L2 rather than by the
analysed nc). The schedule, nc and k2 are reported, not executed.

The window tail, planned as a Remainder region of fewer than n_win
windows, does not run as a GEMM of its own, which would stream every
filter for a few windows: its windows run as the partial last tile of
the last window set of the region whose windows end where it starts (the
Main region, or its k3 peel). Only a layer that is all tail (ohw < n_win)
runs it alone. The plan and RunInfo.regions keep the tail region.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .arch import ELEM_BYTES, ArchInfo, ConvInfo, MkInfo
from .kernel import RunCounters, execute_region, window_sets
from .model import DTYPE, ConvParams, make_tensor4d, out_shape, pad_input
from .regions import KernelRegion, RegionKind, coverage_check, plan_regions
from .strategy import TilingStrategy, analyze


@dataclass(frozen=True)
class RunInfo:
    """What one engine run decided: strategy plus the region decomposition."""

    strategy: TilingStrategy
    regions: tuple[KernelRegion, ...]
    conv: ConvInfo  # padded-problem view (pad=0)


def run_convolution(x: np.ndarray, filters: np.ndarray, p: ConvParams,
                    arch: ArchInfo, mk: MkInfo, hook=None,
                    counters: RunCounters | None = None
                    ) -> tuple[np.ndarray, RunInfo]:
    """Run the sliced engine; returns (output NCHW f32, RunInfo)."""
    x = make_tensor4d(x)
    filters = make_tensor4d(filters)
    if x.shape != (p.n, p.ic, p.ih, p.iw):
        raise ValueError(f"input shape {x.shape} does not match params")
    if filters.shape != (p.oc, p.ic, p.fh, p.fw):
        raise ValueError(f"filter shape {filters.shape} does not match params")

    oh, ow = out_shape(p)
    xp = pad_input(x, p)
    conv = ConvInfo.from_params(p.padded())
    if (conv.oh, conv.ow) != (oh, ow):
        raise RuntimeError(f"padded problem yields {conv.oh}x{conv.ow} "
                           f"output, expected {oh}x{ow}")

    strategy = analyze(conv, arch, mk)
    regions = plan_regions(conv, strategy, mk)
    if not coverage_check(regions, conv):
        raise RuntimeError("region decomposition does not cover")

    # Every element is written by the first GEMM of one window set; zeros
    # give a hook that adds into acc the right answer too.
    out = np.zeros((p.n, p.oc, oh, ow), dtype=DTYPE)
    for region in _fold_window_tail(regions):
        set_tiles, chunk = _region_shape(region, strategy, conv, arch, mk)
        execute_region(xp, filters, out, conv, region, set_tiles, mk,
                       hook=hook, counters=counters, chunk=chunk)
    return out, RunInfo(strategy=strategy, regions=tuple(regions), conv=conv)


def _fold_window_tail(regions: list[KernelRegion]) -> list[KernelRegion]:
    """The regions as they run, in window order: the window tail's windows
    join the region that ends where the tail starts, unless the tail is
    the only region."""
    runs = sorted(regions, key=lambda r: r.spatial_start)
    if len(runs) > 1 and runs[-1].kind is RegionKind.Remainder:
        tail = runs.pop()
        runs[-1] = replace(runs[-1],
                           spatial_len=runs[-1].spatial_len + tail.spatial_len)
    return runs


def _region_shape(region: KernelRegion, strategy: TilingStrategy,
                  conv: ConvInfo, arch: ArchInfo,
                  mk: MkInfo) -> tuple[int, int]:
    """(window tiles per set, channels per chunk) for one region as it runs
    (the window tail included, see _fold_window_tail).

    Window sets are counted in the region's wtiles whole window tiles (at
    least one); a partial last tile joins the last set (see
    kernel.window_sets). The default is one chunk of all ic_len channels,
    in window sets of capped tiles: the analysed k3, capped so that a set
    of whole tiles at full depth (K = ic_len*fh*fw rows) holds at most
    l2_bytes, and at least one; the last set may exceed that by its
    partial tile, fewer than n_win windows. It stands whenever such a set
    covers the region's whole tiles. Otherwise the reduction may be split
    instead: sets of min(k3, wtiles) tiles, at most W windows with the
    partial tile, in `chunks` near-equal chunks of at most cc channels (the
    last one may be shorter), where both the packed chunk (cc*fh*fw, W) and
    the (oc_len, W) partial-sum block fit in half of l2_bytes. The
    chunked shape is taken only when its modelled traffic, in elements,

        sets*oc_len*K + 2*(chunks - 1)*oc_len*windows

    with `windows` the region's, is lower than the default's
    ceil(wtiles/capped)*oc_len*K: every set streams the region's filters
    once, and every chunk after the first writes a partial block that is
    then added into the output.
    """
    p = conv.params
    ff = p.fh * p.fw
    k = region.ic_len * ff
    capped = min(strategy.k3,
                 max(1, arch.l2_bytes // (k * mk.n_win * ELEM_BYTES)))
    wtiles = max(1, region.spatial_len // mk.n_win)
    if capped >= wtiles:
        return capped, region.ic_len
    tiles = min(strategy.k3, wtiles)
    width = max(cols for _, cols in
                window_sets(region.spatial_len, tiles, mk.n_win))
    half = arch.l2_bytes // (2 * ELEM_BYTES)
    cc = half // (ff * width)
    if cc < 1 or region.oc_len * width > half:
        return capped, region.ic_len
    chunks = -(-region.ic_len // cc)
    chunked = (-(-wtiles // tiles) * k
               + 2 * (chunks - 1) * region.spatial_len) * region.oc_len
    if chunked >= -(-wtiles // capped) * region.oc_len * k:
        return capped, region.ic_len
    return tiles, -(-region.ic_len // chunks)
