"""Two-level tiled macrokernel around an outer-product microkernel.

The loop nest for one region comes from build_plan, outermost to innermost:

    batch
    channel blocks of nc                      (layer 5)
    stationary tile sets                      (layer 4)
    streamed tile sets                        (layer 3)
    stationary tile within its set            (layer 2)
    streamed tile within its set              (layer 1)
    microkernel: acc[f, w] += sum_k pf[k, f] * pi[k, w]

execute_region walks the four outer loops. Under the input-stationary
schedule the window-tile sets (k3 tiles) are stationary, each multipacked
once when the set is entered, and the filter-tile sets (k2 tiles) stream
inside them, multipacked per set. The weight-stationary
schedule is the mirror image: each filter set is packed once per batch
and channel block, and inputs are multipacked per window set.

A set is packed as one matrix in the layout a GEMM reads best, which is
the packers' own: a window set K-major, (K, windows), and a filter set
row-major, (filters, K). The two tile loops are collapsed into the set
product: one microkernel call, (M, K) @ (K, W), per block of whole tiles
of the set pair's output. A microkernel hook, passed as execute_region's
hook argument, replaces exactly those calls.

_CHUNK_BYTES (64 KiB) bounds one call's output block: the set pair's
output is cut along its longer side, in whole tiles, so the GEMM's
temporary does not grow with the set size. Packing needs no such bound:
pack_input copies from a strided view of the input straight into the
set's buffer.

Remainder regions (sub-tile window or filter tails) take
naive_fallback_region instead. It gathers windows through the same
pack_input, as tiles of at most n_win windows over all of the region's
channels, and multiplies each by the region's filter block in one GEMM.
pack_input is therefore the engine's only window gather.

Partial sums are accumulated directly into the output tensor, which the
driver zero-initializes; an output tile is therefore touched once per
channel block. Regions write disjoint output ranges except across a channel
split, where the two partial sums combine commutatively.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .arch import ConvInfo, MkInfo
from .model import DTYPE
from .packing import pack_filter, pack_input
from .regions import KernelRegion, RegionKind
from .strategy import Schedule, TilingStrategy

# Byte budget of one microkernel call's output block. 128 KiB raised
# resnet_late's peak_mib 5 % (1.188 -> 1.252 MiB), past its 0.05 bound.
_CHUNK_BYTES = 64 * 1024


def microkernel(packed_in: np.ndarray, packed_f: np.ndarray,
                acc: np.ndarray) -> np.ndarray:
    """acc[f, w] += sum_k packed_f[k, f] * packed_in[k, w]; no zeroing."""
    k_in, n_win = packed_in.shape
    k_f, n_f = packed_f.shape
    if k_in != k_f:
        raise ValueError(f"reduction mismatch: {k_in} vs {k_f}")
    if acc.shape != (n_f, n_win):
        raise ValueError(f"accumulator shape {acc.shape} != ({n_f}, {n_win})")
    acc += packed_f.T @ packed_in
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
    names that scope: the stationary tensor's tiles are keyed
    (batch, channel block, tile) and the streamed tensor's tiles additionally
    carry the stationary set they were repacked for.
    """

    input_packs: Counter = field(default_factory=Counter)
    filter_packs: Counter = field(default_factory=Counter)
    acc_touches: Counter = field(default_factory=Counter)  # (b, w_tile, f_tile)


def build_plan(region: KernelRegion, strategy: TilingStrategy,
               mk: MkInfo, n_batches: int = 1) -> LoopNestPlan:
    """Loop nest for a Main region under the chosen schedule."""
    if region.kind is not RegionKind.Main:
        raise ValueError("build_plan expects a Main region")
    wtiles = region.spatial_len // mk.n_win
    ftiles = region.oc_len // mk.n_f
    batch = LoopSpec("batch", n_batches, 1)
    chan = LoopSpec("channel", region.ic_len, strategy.nc)
    wset = LoopSpec("window_set", wtiles, strategy.k3)
    fset = LoopSpec("filter_set", ftiles, strategy.k2)
    wtile = LoopSpec("window_tile", min(strategy.k3, wtiles), 1)
    ftile = LoopSpec("filter_tile", min(strategy.k2, ftiles), 1)
    if strategy.schedule is Schedule.InputStationary:
        return LoopNestPlan(schedule=strategy.schedule,
                            loops=(batch, chan, wset, fset, wtile, ftile))
    return LoopNestPlan(schedule=strategy.schedule,
                        loops=(batch, chan, fset, wset, ftile, wtile))


class _SetPacker:
    """Packs the window and filter sets of one region into reused buffers.

    A buffer is allocated once per (tensor, channel block width) and holds
    one full set as one matrix: a window set K-major, (K, windows), and a
    filter set row-major, (filters, K). pack() fills its first tiles with
    one multipack and records the packs.
    """

    __slots__ = ("x", "filters", "conv", "region", "mk", "counters", "bufs")

    def __init__(self, x, filters, conv, region, mk, counters):
        self.x, self.filters, self.conv = x, filters, conv
        self.region, self.mk = region, mk
        self.counters = counters
        self.bufs = {}

    def first_tile(self, loop: LoopSpec, first: int) -> int:
        """Absolute tile index of set-local tile `first` of loop's tensor."""
        if loop.dim == "window_set":
            return self.region.spatial_start // self.mk.n_win + first
        return self.region.oc_start // self.mk.n_f + first

    def pack(self, loop: LoopSpec, first: int, count: int, b: int,
             ic_off: int, ncl: int, scope: int | None = None) -> np.ndarray:
        """Pack tiles [first, first+count) of loop's tensor as one matrix.

        Window tiles come back as (K, count*n_win), filter tiles as
        (count*n_f, K). scope is None for the stationary set; for a
        streamed set it is the first tile of the stationary set it is
        packed for, and becomes part of the RunCounters key.
        """
        p, mk, region = self.conv.params, self.mk, self.region
        windows = loop.dim == "window_set"
        n = mk.n_win if windows else mk.n_f
        k = ncl * p.fh * p.fw
        width = min(loop.step, loop.extent) * n
        shape = (k, width) if windows else (width, k)
        buf = self.bufs.get((loop.dim, shape))
        if buf is None:
            buf = self.bufs[loop.dim, shape] = np.empty(shape, dtype=DTYPE)
        if windows:
            mat = pack_input(self.x, self.conv, region, (first * n, 0), mk,
                             nt=count, nc=ncl, batch=b, ic_off=ic_off,
                             out=buf[:, :count * n])
        else:
            mat = pack_filter(self.filters, region, mk, nt=count, nc=ncl,
                              f_tile_start=first, ic_off=ic_off,
                              out=buf[:count * n])
        if self.counters is not None:
            packs = (self.counters.input_packs if windows
                     else self.counters.filter_packs)
            key = (b, ic_off) if scope is None else (b, ic_off, scope)
            tile0 = self.first_tile(loop, first)
            packs.update(key + (tile0 + t,) for t in range(count))
        return mat


def execute_region(x: np.ndarray, filters: np.ndarray, out: np.ndarray,
                   conv: ConvInfo, region: KernelRegion,
                   strategy: TilingStrategy, mk: MkInfo,
                   hook=None, counters: RunCounters | None = None) -> None:
    """Run the tiled pipeline for one Main region; accumulates into out.

    x must be pre-padded (conv carries pad=0); out is (n, oc, oh, ow) and the
    region's output ranges must already hold the partial sums accumulated so
    far (zeros on first touch).

    hook, when given, replaces each built-in microkernel call of the set
    product (see _set_product) and is called as microkernel is,
    hook(packed_in, packed_f, acc): a (k, width) and a (k, height) f32
    matrix and the (height, width) accumulator block to update in place.
    Its results must match the built-in kernel within the engine tolerance.
    """
    if region.kind is not RegionKind.Main:
        raise ValueError("execute_region expects a Main region")
    if not out.flags.c_contiguous:
        raise ValueError("output tensor must be C-contiguous")
    p = conv.params
    n_win, n_f = mk.n_win, mk.n_f
    if region.spatial_len % n_win or region.oc_len % n_f:
        raise ValueError("Main region is not aligned to the microkernel tile")

    plan = build_plan(region, strategy, mk, p.n)
    batch, chan, outer, inner = plan.loops[:4]
    windows_outer = outer.dim == "window_set"
    out_flat = out.reshape(p.n, p.oc, conv.ohw)
    packer = _SetPacker(x, filters, conv, region, mk, counters)

    for b in range(batch.extent):
        for ic_off in range(0, chan.extent, chan.step):
            ncl = min(chan.step, chan.extent - ic_off)
            for s0 in range(0, outer.extent, outer.step):
                s_mat = packer.pack(outer, s0,
                                    min(outer.step, outer.extent - s0),
                                    b, ic_off, ncl)
                scope = packer.first_tile(outer, s0)
                for t0 in range(0, inner.extent, inner.step):
                    t_mat = packer.pack(inner, t0,
                                        min(inner.step, inner.extent - t0),
                                        b, ic_off, ncl, scope)
                    if windows_outer:
                        in_mat, f_mat, ws, fs = s_mat, t_mat, s0, t0
                    else:
                        in_mat, f_mat, ws, fs = t_mat, s_mat, t0, s0
                    w0 = region.spatial_start + ws * n_win
                    f0 = region.oc_start + fs * n_f
                    w1, f1 = w0 + in_mat.shape[1], f0 + f_mat.shape[0]
                    _set_product(in_mat, f_mat, out_flat[b, f0:f1, w0:w1],
                                 n_win, n_f, hook)
                    if counters is not None:
                        counters.acc_touches.update(
                            (b, w // n_win, f // n_f)
                            for w in range(w0, w1, n_win)
                            for f in range(f0, f1, n_f))


def _set_product(in_mat, f_mat, acc, n_win, n_f, hook):
    """acc += f_mat @ in_mat, one microkernel call per block of whole tiles.

    in_mat is a K-major window set (K, W), f_mat a row-major filter set
    (M, K) and acc the (M, W) output block of the set pair. The product is
    cut along acc's longer side, in whole n_win or n_f tiles, into blocks
    whose GEMM output fits _CHUNK_BYTES (at least one tile each), and each
    block is one call microkernel(in_mat[:, cols], f_mat[rows].T,
    acc[rows, cols]). A hook replaces exactly that call, with the same
    three arrays, so a hook that wraps microkernel gives bitwise the
    built-in result. microkernel is looked up as a module global on every
    call, so a wrapper installed there sees each GEMM.
    """
    m, w = acc.shape
    budget = _CHUNK_BYTES // acc.itemsize
    if w >= m:
        rows, cols = m, max(1, budget // (m * n_win)) * n_win
    else:
        rows, cols = max(1, budget // (w * n_f)) * n_f, w
    for r in range(0, m, rows):
        f_blk = f_mat[r:r + rows].T
        for c in range(0, w, cols):
            (microkernel if hook is None else hook)(
                in_mat[:, c:c + cols], f_blk, acc[r:r + rows, c:c + cols])


def naive_fallback_region(x: np.ndarray, filters: np.ndarray, out: np.ndarray,
                          conv: ConvInfo, region: KernelRegion,
                          mk: MkInfo) -> None:
    """Direct convolution of a remainder region; accumulates into out.

    Serves remainder regions smaller than the microkernel tile, which skip
    the tiling analysis and the hook. The region's windows are gathered in
    chunks of at most mk.n_win by pack_input, across all of the region's
    channels, and each chunk is multiplied by the region's filter block in
    one GEMM.
    """
    p = conv.params
    if region.spatial_len == 0 or region.oc_len == 0 or region.ic_len == 0:
        return
    if not out.flags.c_contiguous:
        raise ValueError("output tensor must be C-contiguous")
    c0, c1 = region.ic_start, region.ic_start + region.ic_len
    o0, o1 = region.oc_start, region.oc_start + region.oc_len
    flt = filters[o0:o1, c0:c1].reshape(region.oc_len, -1)
    out_flat = out.reshape(p.n, p.oc, conv.ohw)
    for w_off in range(0, region.spatial_len, mk.n_win):
        width = min(mk.n_win, region.spatial_len - w_off)
        # Positional, not dataclasses.replace: its keyword call leaves a
        # dict on CPython's free list, which the traced peak counts.
        chunk_mk = MkInfo(width, mk.n_f, mk.vector_bytes)
        w0 = region.spatial_start + w_off
        for b in range(p.n):
            out_flat[b, o0:o1, w0:w0 + width] += flt @ pack_input(
                x, conv, region, (w_off, 0), chunk_mk, nt=1,
                nc=region.ic_len, batch=b)
