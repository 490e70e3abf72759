"""Sliced direct-convolution engine.

Cache-aware tiling analysis, edge-case region splitting (planned and
reported), affine-equation input packing over window ranges, and one layer
executor that runs each window set against every filter in one GEMM per
channel chunk, plus an oracle-checked harness. A convolution is planned
once (plan_convolution) and its plan runs any number of tensor pairs.
"""

from .arch import ArchInfo, ConvInfo, MkInfo, load_arch, load_mk
from .engine import ConvPlan, RunInfo, plan_convolution, run_convolution
from .kernel import RunCounters, microkernel
from .model import ConvParams, out_shape, pad_input
from .packing import pack_filter, pack_input
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

# The suite driver and the float64 references load on first use of one of
# their names (PEP 562), so an import that only runs the engine compiles
# neither module.
_LAZY = {"ConvCase": "harness", "CaseReport": "harness",
         "load_suite": "harness", "run_suite": "harness",
         "im2col": "reference", "naive_conv": "reference"}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
