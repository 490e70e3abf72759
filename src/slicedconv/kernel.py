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
and channel block, and inputs are multipacked per window set. The two tile
loops are collapsed into one set-pair product: each chunk of window tiles
is multiplied by the whole packed filter set in one batched GEMM, one
(n_f, K) x (K, n_win) product per tile pair. A microkernel hook, passed
as execute_region's hook argument, is still called once per tile pair.

_CHUNK_BYTES (64 KiB) bounds the set product's temporary: it takes as many
window tiles per GEMM as its output fits, so peak memory does not grow with
the set size. Packing needs no such bound: pack_input copies from a
strided view of the input straight into the set's buffer.

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

# Byte budget of one set-product GEMM's output. 128 KiB raised
# resnet_late's traced peak 16 %.
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
    one full set; pack() fills its first tiles with one multipack and
    records the packs.
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
        """Pack tiles [first, first+count) of loop's tensor as (count, K, n).

        scope is None for the stationary set; for a streamed set it is the
        first tile of the stationary set it is packed for, and becomes part
        of the RunCounters key.
        """
        p, mk, region = self.conv.params, self.mk, self.region
        windows = loop.dim == "window_set"
        n = mk.n_win if windows else mk.n_f
        shape = (min(loop.step, loop.extent), ncl, p.fh, p.fw, n)
        buf = self.bufs.get((loop.dim, shape))
        if buf is None:
            buf = self.bufs[loop.dim, shape] = np.empty(shape, dtype=DTYPE)
        if windows:
            pack_input(self.x, self.conv, region, (first * mk.n_win, 0), mk,
                       nt=count, nc=ncl, batch=b, ic_off=ic_off,
                       out=buf[:count])
        else:
            pack_filter(self.filters, region, mk, nt=count, nc=ncl,
                        f_tile_start=first, ic_off=ic_off, out=buf[:count])
        if self.counters is not None:
            packs = (self.counters.input_packs if windows
                     else self.counters.filter_packs)
            key = (b, ic_off) if scope is None else (b, ic_off, scope)
            tile0 = self.first_tile(loop, first)
            packs.update(key + (tile0 + t,) for t in range(count))
        return buf[:count].reshape(count, ncl * p.fh * p.fw, n)


def execute_region(x: np.ndarray, filters: np.ndarray, out: np.ndarray,
                   conv: ConvInfo, region: KernelRegion,
                   strategy: TilingStrategy, mk: MkInfo,
                   hook=None, counters: RunCounters | None = None) -> None:
    """Run the tiled pipeline for one Main region; accumulates into out.

    x must be pre-padded (conv carries pad=0); out is (n, oc, oh, ow) and the
    region's output ranges must already hold the partial sums accumulated so
    far (zeros on first touch).

    hook, when given, replaces the built-in set product and is called once
    per tile pair as hook(packed_in, packed_f, acc, k, n_win, n_f, strides):
    two (k, n) f32 matrices, the (n_f, n_win) accumulator to update in
    place, and the byte strides of all three. Its results must match the
    built-in kernel within the engine tolerance.
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
                s_mats = packer.pack(outer, s0,
                                     min(outer.step, outer.extent - s0),
                                     b, ic_off, ncl)
                scope = packer.first_tile(outer, s0)
                for t0 in range(0, inner.extent, inner.step):
                    t_mats = packer.pack(inner, t0,
                                         min(inner.step, inner.extent - t0),
                                         b, ic_off, ncl, scope)
                    if windows_outer:
                        in_mats, f_mats, ws, fs = s_mats, t_mats, s0, t0
                    else:
                        in_mats, f_mats, ws, fs = t_mats, s_mats, t0, s0
                    w0 = region.spatial_start + ws * n_win
                    f0 = region.oc_start + fs * n_f
                    _set_product(in_mats, f_mats, out_flat[
                        b, f0:f0 + len(f_mats) * n_f,
                        w0:w0 + len(in_mats) * n_win], hook)
                    if counters is not None:
                        counters.acc_touches.update(
                            (b, w0 // n_win + i, f0 // n_f + j)
                            for i in range(len(in_mats))
                            for j in range(len(f_mats)))


def _set_product(in_mats, f_mats, acc, hook):
    """acc += the product of every (filter tile, window tile) pair of two sets.

    in_mats is (wn, K, n_win), f_mats (fn, K, n_f) and acc the
    (fn*n_f, wn*n_win) output block. The built-in path multiplies a chunk of
    window tiles by the whole filter set in one batched GEMM; a hook is
    called once per tile pair on that pair's (n_f, n_win) slice of acc.
    """
    wn, k, n_win = in_mats.shape
    n_f = f_mats.shape[2]
    if hook is None:
        f_t = f_mats.transpose(0, 2, 1)  # (fn, n_f, K)
        m = acc.shape[0]
        acc_w = acc.reshape(m, wn, n_win)  # a view: only columns split
        step = max(1, _CHUNK_BYTES // (m * n_win * acc.itemsize))
        for i in range(0, wn, step):
            prod = np.matmul(f_t, in_mats[i:i + step][:, None])
            acc_w[:, i:i + step] += prod.reshape(-1, m, n_win).transpose(1, 0, 2)
        return
    for i, in_mat in enumerate(in_mats):
        for j, f_mat in enumerate(f_mats):
            tile = acc[j * n_f:(j + 1) * n_f, i * n_win:(i + 1) * n_win]
            hook(in_mat, f_mat, tile, k, n_win, n_f,
                 (in_mat.strides, f_mat.strides, tile.strides))


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
            packed = pack_input(x, conv, region, (w_off, 0), chunk_mk,
                                nt=1, nc=region.ic_len, batch=b)
            out_flat[b, o0:o1, w0:w0 + width] += flt @ packed.matrix(0)
