"""Sliced direct-convolution engine.

Cache-aware tiling analysis, recursive edge-case splitting, affine-equation
input packing with multipacking, and one region executor that runs each
window set against every filter as one GEMM, plus an oracle-checked harness.
"""

from .arch import ArchInfo, ConvInfo, MkInfo, load_arch, load_mk
from .engine import RunInfo, run_convolution
from .harness import ConvCase, CaseReport, load_suite, run_suite
from .kernel import RunCounters, execute_region, microkernel
from .model import ConvParams, out_shape, pad_input
from .packing import pack_filter, pack_input
from .reference import im2col, naive_conv
from .regions import (KernelRegion, RegionKind, coverage_check, plan_regions,
                      split_by_strategy, split_input_domain)
from .strategy import Schedule, TilingStrategy, analyze, cost_model, remainders

__version__ = "0.1.0"

__all__ = [
    "ArchInfo", "ConvInfo", "MkInfo", "load_arch", "load_mk",
    "RunInfo", "run_convolution",
    "ConvCase", "CaseReport", "load_suite", "run_suite",
    "RunCounters", "execute_region", "microkernel",
    "ConvParams", "out_shape", "pad_input",
    "pack_filter", "pack_input",
    "im2col", "naive_conv",
    "KernelRegion", "RegionKind", "coverage_check", "plan_regions",
    "split_by_strategy", "split_input_domain",
    "Schedule", "TilingStrategy", "analyze", "cost_model", "remainders",
]
