"""End-to-end driver: pad once, analyze, split into regions, execute.

Padding is materialized up front so the tiled pipeline and every packing
equation can assume pad = 0. Every region runs the tiled macrokernel. The
window tail, a Remainder region of fewer than n_win windows, runs as one
set pair: one partial window tile against all its filters over all its
channels, which is one GEMM per batch image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arch import ArchInfo, ConvInfo, MkInfo
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

    out = np.zeros((p.n, p.oc, oh, ow), dtype=DTYPE)
    for region in regions:
        strat = strategy
        if region.kind is RegionKind.Remainder:
            # Positional, not dataclasses.replace: its keyword call leaves a
            # dict on CPython's free list, which the traced peak counts.
            strat = TilingStrategy(strategy.schedule, region.ic_len,
                                   -(-region.oc_len // mk.n_f), 1, 0, 0, 0)
        execute_region(xp, filters, out, conv, region, strat, mk,
                       hook=hook, counters=counters)
    return out, RunInfo(strategy=strategy, regions=tuple(regions), conv=conv)

