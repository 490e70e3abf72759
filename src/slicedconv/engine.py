"""End-to-end driver: pad once, analyze, split into regions, execute.

Padding is materialized up front so the tiled pipeline and every packing
equation can assume pad = 0. Every region runs the tiled macrokernel.

The analysis sizes tiles as the paper does; _region_strategy maps them onto
the GEMM microkernel, and is the one place that sizes execution. Every set
spans all input channels, since the GEMM blocks its reduction itself, and
a window set at that depth holds at most the arch file's L2, in whole
tiles and at least one. The window tail, a Remainder region of fewer than
n_win windows, runs as one set pair: one partial window tile against all
filters, which is one GEMM per batch image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arch import ELEM_BYTES, ArchInfo, ConvInfo, MkInfo
from .kernel import RunCounters, execute_region
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

    # Every element is written by exactly one GEMM; zeros give a hook that
    # adds into acc the right answer too.
    out = np.zeros((p.n, p.oc, oh, ow), dtype=DTYPE)
    for region in regions:
        execute_region(xp, filters, out, conv, region,
                       _region_strategy(region, strategy, conv, arch, mk), mk,
                       hook=hook, counters=counters)
    return out, RunInfo(strategy=strategy, regions=tuple(regions), conv=conv)


def _region_strategy(region: KernelRegion, strategy: TilingStrategy,
                     conv: ConvInfo, arch: ArchInfo, mk: MkInfo
                     ) -> TilingStrategy:
    """The analysed strategy as one region executes it.

    nc is the region's channels. The window tail is one set pair; any
    other region keeps k2 and caps k3 so that a window set at full depth
    holds at most l2_bytes.
    """
    p = conv.params
    if region.kind is RegionKind.Remainder:
        k2, k3 = -(-region.oc_len // mk.n_f), 1
    else:
        tile = region.ic_len * p.fh * p.fw * mk.n_win * ELEM_BYTES
        k2, k3 = strategy.k2, min(strategy.k3, max(1, arch.l2_bytes // tile))
    # Positional, not dataclasses.replace: its keyword call leaves a dict
    # on CPython's free list, which the traced peak counts.
    return TilingStrategy(strategy.schedule, region.ic_len, k2, k3, 0, 0, 0)

