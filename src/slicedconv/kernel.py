"""Two-level tiled macrokernel around a GEMM microkernel.

The loop nest for one region comes from build_plan, outermost to innermost:

    batch
    stationary tile sets                      (layer 4)
    streamed tile sets                        (layer 3)
    stationary tile within its set            (layer 2)
    streamed tile within its set              (layer 1)
    microkernel: acc[f, w] = sum_k pf[k, f] * pi[k, w]

execute_region walks the three outer loops. Under the input-stationary
schedule the window-tile sets (k3 tiles) are stationary, each multipacked
once when the set is entered, and the filter-tile sets (k2 tiles) stream
inside them, taken per set. The weight-stationary schedule is the mirror
image: each filter set is taken once per batch image, and inputs are
multipacked per window set. The engine makes a filter set every filter
of the region (k2 = its filter tiles), so either schedule packs each
window tile once per batch image and runs the same GEMMs, in another
order.

There is no channel-block loop. The analysis's nc sizes a tile for L1,
but the microkernel is a BLAS GEMM, which blocks its reduction for L1
itself, so every set spans all of the region's channels: the reduction
axis is K = ic_len*fh*fw, and the engine sizes window sets so that one
holds at most L2 at that depth.

A set is one matrix in the layout a GEMM reads best, which is the
packers' own: a window set K-major, (K, windows), copied into a reused
buffer, and a filter set row-major, (filters, K), a read-only view of the
filter tensor that nothing copies. The two tile loops are collapsed into
the set product: one microkernel call, (M, K) @ (K, W), per set pair,
which writes the pair's output block in place; from the engine, M is
the region's oc_len. A microkernel hook,
passed as execute_region's hook argument, replaces exactly that call.

Every region runs through execute_region. A region's last window tile
and last filter tile may be short: the window tail (fewer than n_win
windows, a Remainder region) is one partial window tile, and the filter
tail (oc mod n_f) a partial last filter tile; the packers cut them at the
region's end and the GEMM takes any width.

Regions write disjoint output ranges, and every output element is
written by exactly one GEMM.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .arch import ConvInfo, MkInfo
from .model import DTYPE
from .packing import pack_filter, pack_input
from .regions import KernelRegion
from .strategy import Schedule, TilingStrategy


def microkernel(packed_in: np.ndarray, packed_f: np.ndarray,
                acc: np.ndarray) -> np.ndarray:
    """acc[f, w] = sum_k packed_f[k, f] * packed_in[k, w], written in place."""
    k_in, n_win = packed_in.shape
    k_f, n_f = packed_f.shape
    if k_in != k_f:
        raise ValueError(f"reduction mismatch: {k_in} vs {k_f}")
    if acc.shape != (n_f, n_win):
        raise ValueError(f"accumulator shape {acc.shape} != ({n_f}, {n_win})")
    np.matmul(packed_f.T, packed_in, out=acc)
    return acc


@dataclass(frozen=True, slots=True)
class LoopSpec:
    dim: str
    extent: int
    step: int


@dataclass(frozen=True, slots=True)
class LoopNestPlan:
    """Ordered loop descriptors for one region."""

    schedule: Schedule
    loops: tuple[LoopSpec, ...]  # outermost first


@dataclass
class RunCounters:
    """Pack/accumulate instrumentation, keyed by absolute tile coordinates.

    A tile packed once per reuse scope shows up as count 1 under a key that
    names that scope: the stationary tensor's tiles are keyed (batch, tile)
    and the streamed tensor's tiles additionally carry the stationary set
    they were repacked for, (batch, set, tile). A filter tile counts when
    its set is taken as a view of the filter tensor, though nothing is
    copied.
    """

    input_packs: Counter = field(default_factory=Counter)
    filter_packs: Counter = field(default_factory=Counter)
    acc_touches: Counter = field(default_factory=Counter)  # (b, w_tile, f_tile)


def build_plan(region: KernelRegion, strategy: TilingStrategy,
               mk: MkInfo, n_batches: int = 1) -> LoopNestPlan:
    """Loop nest for a region under the chosen schedule.

    Tiles are counted with a ceiling: a short last tile counts. The
    strategy's nc plays no part: every set spans the region's channels.
    """
    wtiles = -(-region.spatial_len // mk.n_win)
    ftiles = -(-region.oc_len // mk.n_f)
    batch = LoopSpec("batch", n_batches, 1)
    wset = LoopSpec("window_set", wtiles, strategy.k3)
    fset = LoopSpec("filter_set", ftiles, strategy.k2)
    wtile = LoopSpec("window_tile", min(strategy.k3, wtiles), 1)
    ftile = LoopSpec("filter_tile", min(strategy.k2, ftiles), 1)
    if strategy.schedule is Schedule.InputStationary:
        return LoopNestPlan(schedule=strategy.schedule,
                            loops=(batch, wset, fset, wtile, ftile))
    return LoopNestPlan(schedule=strategy.schedule,
                        loops=(batch, fset, wset, ftile, wtile))


class _SetPacker:
    """Packs the window sets of one region into a reused buffer and takes
    its filter sets as views; records both.

    The window buffer holds one set, or the whole region if smaller, as
    one K-major matrix, (K, windows); pack() fills its first columns, as
    many as the region has windows left, with one multipack. A filter set
    is the read-only (filters, K) view pack_filter returns, which needs no
    buffer.
    """

    __slots__ = ("x", "filters", "conv", "region", "mk", "counters", "buf")

    def __init__(self, x, filters, conv, region, mk, counters, set_windows):
        self.x, self.filters, self.conv = x, filters, conv
        self.region, self.mk = region, mk
        self.counters = counters
        p = conv.params
        self.buf = np.empty((region.ic_len * p.fh * p.fw, set_windows),
                            dtype=DTYPE)

    def first_tile(self, loop: LoopSpec, first: int) -> int:
        """Absolute tile index of set-local tile `first` of loop's tensor."""
        if loop.dim == "window_set":
            return self.region.spatial_start // self.mk.n_win + first
        return self.region.oc_start // self.mk.n_f + first

    def pack(self, loop: LoopSpec, first: int, count: int, b: int,
             scope: int | None = None) -> np.ndarray:
        """Pack tiles [first, first+count) of loop's tensor as one matrix.

        Window tiles come back as (K, columns) in the buffer, filter tiles
        as a read-only (rows, K) view, each short of count*n_win or
        count*n_f by a partial last tile at the region's end. scope is
        None for the stationary set; for a streamed set it is the first
        tile of the stationary set it is packed for, part of the
        RunCounters key.
        """
        mk, region = self.mk, self.region
        windows = loop.dim == "window_set"
        if windows:
            w0 = first * mk.n_win
            cols = min(count * mk.n_win, region.spatial_len - w0)
            mat = pack_input(self.x, self.conv, region, (w0, 0), mk,
                             nt=count, nc=region.ic_len, batch=b,
                             out=self.buf[:, :cols])
        else:
            mat = pack_filter(self.filters, region, mk, nt=count,
                              nc=region.ic_len, f_tile_start=first)
        if self.counters is not None:
            packs = (self.counters.input_packs if windows
                     else self.counters.filter_packs)
            key = (b,) if scope is None else (b, scope)
            tile0 = self.first_tile(loop, first)
            packs.update(key + (tile0 + t,) for t in range(count))
        return mat


def execute_region(x: np.ndarray, filters: np.ndarray, out: np.ndarray,
                   conv: ConvInfo, region: KernelRegion,
                   strategy: TilingStrategy, mk: MkInfo,
                   hook=None, counters: RunCounters | None = None) -> None:
    """Run the tiled pipeline for one region; writes its block of out.

    x must be pre-padded (conv carries pad=0); out is (n, oc, oh, ow). The
    region must span every input channel, since each set pair's GEMM
    writes its output block rather than adding to it. The strategy's k2
    and k3 size the filter and window sets; its nc is not read.

    hook, when given, replaces the built-in microkernel call of each set
    pair and is called as microkernel is, hook(packed_in, packed_f, acc):
    the (K, width) window set, the (K, height) filter set (a transposed
    read-only view of the filters) and the (height, width) block of out,
    which arrives zeroed from the engine, to write in place. microkernel
    is looked up as a module global on every call, so a wrapper installed
    there sees each GEMM. Results must match the built-in kernel within
    the engine tolerance.
    """
    if not out.flags.c_contiguous:
        raise ValueError("output tensor must be C-contiguous")
    p = conv.params
    if (region.ic_start, region.ic_len) != (0, p.ic):
        raise ValueError(f"region channels [{region.ic_start}, "
                         f"{region.ic_start + region.ic_len}) are not all "
                         f"{p.ic}: the GEMM writes, it does not accumulate")
    n_win, n_f = mk.n_win, mk.n_f

    plan = build_plan(region, strategy, mk, p.n)
    batch, outer, inner = plan.loops[:3]
    windows_outer = outer.dim == "window_set"
    wset = outer if windows_outer else inner
    out_flat = out.reshape(p.n, p.oc, conv.ohw)
    packer = _SetPacker(x, filters, conv, region, mk, counters,
                        min(wset.step * n_win, region.spatial_len))

    for b in range(batch.extent):
        for s0 in range(0, outer.extent, outer.step):
            s_mat = packer.pack(outer, s0,
                                min(outer.step, outer.extent - s0), b)
            scope = packer.first_tile(outer, s0)
            for t0 in range(0, inner.extent, inner.step):
                t_mat = packer.pack(inner, t0,
                                    min(inner.step, inner.extent - t0),
                                    b, scope)
                if windows_outer:
                    in_mat, f_mat, ws, fs = s_mat, t_mat, s0, t0
                else:
                    in_mat, f_mat, ws, fs = t_mat, s_mat, t0, s0
                w0 = region.spatial_start + ws * n_win
                f0 = region.oc_start + fs * n_f
                w1, f1 = w0 + in_mat.shape[1], f0 + f_mat.shape[0]
                (microkernel if hook is None else hook)(
                    in_mat, f_mat.T, out_flat[b, f0:f1, w0:w1])
                if counters is not None:
                    counters.acc_touches.update(
                        (b, w // n_win, f // n_f)
                        for w in range(w0, w1, n_win)
                        for f in range(f0, f1, n_f))
