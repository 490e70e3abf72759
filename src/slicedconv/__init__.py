"""Sliced direct-convolution engine.

Cache-aware tiling analysis, edge-case region splitting (planned and
reported), affine-equation input packing over window ranges, and one layer
executor that runs each window set against every filter in one GEMM per
channel chunk, plus an oracle-checked harness. A convolution is planned
once (plan_convolution) and its plan runs any number of tensor pairs.
"""

from .arch import ArchInfo, ConvInfo, MkInfo, load_arch, load_mk
from .engine import ConvPlan, RunInfo, plan_convolution, run_convolution
from .harness import ConvCase, CaseReport, load_suite, run_suite
from .kernel import RunCounters, microkernel
from .model import ConvParams, out_shape, pad_input
from .packing import pack_filter, pack_input
from .reference import im2col, naive_conv
from .regions import KernelRegion, RegionKind, coverage_check, plan_regions
from .strategy import Schedule, TilingStrategy, analyze, remainders

__version__ = "0.1.0"

__all__ = [
    "ArchInfo", "ConvInfo", "MkInfo", "load_arch", "load_mk",
    "ConvPlan", "RunInfo", "plan_convolution", "run_convolution",
    "ConvCase", "CaseReport", "load_suite", "run_suite",
    "RunCounters", "microkernel",
    "ConvParams", "out_shape", "pad_input",
    "pack_filter", "pack_input",
    "im2col", "naive_conv",
    "KernelRegion", "RegionKind", "coverage_check", "plan_regions",
    "Schedule", "TilingStrategy", "analyze", "remainders",
]
