"""End-to-end driver: plan a convolution once, then run the plan.

plan_convolution does everything that depends on the problem, the machine
and the microkernel but not on the tensors: it analyzes the padded
problem, plans and coverage-checks the regions and sizes the layer's
window sets and channel chunks. The ConvPlan it returns checks those
sizes and lists the window sets when it is made; it is frozen and holds
no buffers, so one plan may run any number of tensor pairs, from several
threads at once. ConvPlan.run, the one way to run a layer, checks each
tensor's shape against the plan and runs the layer's one loop nest
(kernel._run_layer), which allocates its own buffers per call.
run_convolution is plan_convolution followed by one run.

The analysis, the plan and RunInfo describe the padded problem (pad = 0),
as do the packing equations. No padded copy of the input is made here:
the layer loop takes the input as the caller holds it and pads one
channel chunk of one image at a time into a reused buffer.

The layer runs as one span, and the region plan is reported:
plan_regions splits off the window tail and the k3 peel as the paper
does, and RunInfo.regions keeps that plan, but execution reads nothing
from it. One loop nest runs every window, filter and channel of the
layer, addressed from the padded problem alone; the GEMM blocks its own
operands, and the packers take plain window and channel ranges, whatever
tiles they hold, so region edges need no code of their own.

The analysis sizes tiles as the paper does; _layer_shape maps them onto
the GEMM microkernel, and is the one place that sizes execution, with the
library's one traffic model. Each window set runs against every filter,
(oc, K) @ (K, W), and two numbers are left to choose: the window-set
size, from the analysed k3, and the channel-chunk size, which splits the
reduction where capping a set at full depth to L2 would cut a deep layer
into several sets, each streaming all of its filters (the paper's nc
channel tiling, sized by L2 rather than by the analysed nc). A layer
split into chunks runs as one window set of all its windows, so it
streams its filters once. The schedule, nc and k2 are reported, not
executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arch import ELEM_BYTES, ArchInfo, ConvInfo, MkInfo
from .kernel import RunCounters, _run_layer, window_sets
from .model import DTYPE, ConvParams, require_int
from .regions import KernelRegion, coverage_check, plan_regions
from .strategy import TilingStrategy, analyze


@dataclass(frozen=True)
class RunInfo:
    """What a plan decided, returned with each of its runs: strategy plus
    the region decomposition."""

    strategy: TilingStrategy
    regions: tuple[KernelRegion, ...]
    conv: ConvInfo  # padded-problem view (pad=0)


@dataclass(frozen=True)
class ConvPlan:
    """One convolution planned for one machine and microkernel.

    params is the problem as the caller holds it (padded or not), info
    what the plan decided (the strategy, the coverage-checked regions and
    the padded problem's ConvInfo), and set_tiles and chunk the layer's
    window-set size in whole tiles and its channel-chunk size, from which
    sets, each window set's (first window, windows), is derived. The plan
    holds no buffers and no tensors. It checks its sizes when it is made,
    so replace(plan, set_tiles=..., chunk=...) is a checked plan at those
    sizes: both must be integers (TypeError), set_tiles at least 1, chunk
    from 1 to ic, and a chunked layer one window set (ValueError).
    """

    params: ConvParams
    mk: MkInfo
    info: RunInfo
    set_tiles: int
    chunk: int
    sets: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        set_tiles, chunk, ic = self.set_tiles, self.chunk, self.params.ic
        require_int("set_tiles", set_tiles)
        if set_tiles < 1:
            raise ValueError(f"set_tiles must be at least 1, got {set_tiles}")
        require_int("chunk", chunk)
        if not 1 <= chunk <= ic:
            raise ValueError(f"chunk must be from 1 to {ic} channels, "
                             f"got {chunk}")
        sets = tuple(window_sets(self.info.conv.ohw, set_tiles,
                                 self.mk.n_win))
        if chunk < ic and len(sets) > 1:
            raise ValueError(f"a layer in chunks of {chunk} of {ic} channels "
                             f"runs as one window set, not {len(sets)} sets "
                             f"of {set_tiles} tiles")
        object.__setattr__(self, "sets", sets)

    def run(self, x: np.ndarray, filters: np.ndarray, hook=None,
            counters: RunCounters | None = None
            ) -> tuple[np.ndarray, RunInfo]:
        """Run the plan on one tensor pair; returns (output NCHW f32, info).

        x must be (n, ic, ih, iw) and filters (oc, ic, fh, fw) of params
        (ValueError naming the tensor otherwise, before any GEMM runs):
        for a padded problem x is the unpadded input, and for a pad-0
        problem such as ConvParams.padded() an input padded beforehand.
        Both are taken as contiguous float32.

        hook, when given, replaces each microkernel call, one per window
        set and channel chunk, and is called as microkernel is,
        hook(packed_in, packed_f, acc): the (k, width) set's chunk (for a
        1x1 filter at stride 1, a read-only view of the input), the
        chunk's (k, oc) filters (a transposed read-only view of the filter
        tensor) and a zeroed (oc, width) accumulator to write in place:
        the set's block of the output for the first chunk, for a later
        one a partial block then added into it. Results must match the
        built-in kernel within the engine tolerance. kernel.microkernel,
        pack_input and pack_filter are looked up as module globals, so a
        wrapper installed there sees each call. counters, a RunCounters,
        records the run's packs and accumulator touches.
        """
        p, conv = self.params, self.info.conv
        x = np.ascontiguousarray(x, dtype=DTYPE)
        filters = np.ascontiguousarray(filters, dtype=DTYPE)
        for name, arr, shape in (("x", x, (p.n, p.ic, p.ih, p.iw)),
                                 ("filters", filters,
                                  (p.oc, p.ic, p.fh, p.fw))):
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, not {shape}")
        # Every element is written by the first GEMM of one window set.
        # Zeros give a hook that adds into acc the right answer too, and
        # leave a kernel that skips a block zeros, not the old output a
        # reused allocation may hold.
        out = np.zeros((p.n, p.oc, conv.oh, conv.ow), dtype=DTYPE)
        _run_layer(x, filters, out, p, conv, self.sets, self.chunk, self.mk,
                   hook, counters)
        return out, self.info


def plan_convolution(p: ConvParams, arch: ArchInfo, mk: MkInfo) -> ConvPlan:
    """Analyze, plan and size the convolution p once; see ConvPlan.

    Raises ValueError when the analysis refuses the problem (a
    single-channel tile set that exceeds L1).
    """
    conv = ConvInfo.from_params(p.padded())
    strategy = analyze(conv, arch, mk)
    regions = tuple(plan_regions(conv, strategy, mk))
    if not coverage_check(regions, conv):
        raise RuntimeError("region decomposition does not cover")
    set_tiles, chunk = _layer_shape(strategy, conv, arch, mk)
    return ConvPlan(p, mk, RunInfo(strategy, regions, conv), set_tiles, chunk)


def run_convolution(x: np.ndarray, filters: np.ndarray, p: ConvParams,
                    arch: ArchInfo, mk: MkInfo, hook=None,
                    counters: RunCounters | None = None
                    ) -> tuple[np.ndarray, RunInfo]:
    """Run the sliced engine; returns (output NCHW f32, RunInfo).

    The same as plan_convolution(p, arch, mk).run(x, filters, hook,
    counters): a caller that runs one problem many times plans it once.
    """
    return plan_convolution(p, arch, mk).run(x, filters, hook, counters)


def _layer_shape(strategy: TilingStrategy, conv: ConvInfo, arch: ArchInfo,
                 mk: MkInfo) -> tuple[int, int]:
    """(window tiles per set, channels per chunk) for the layer's one span.

    Window sets are counted in the layer's wtiles whole window tiles (at
    least one); a partial last tile joins the last set (see
    kernel.window_sets). The default is one chunk of all ic channels, in
    window sets of capped tiles: the analysed k3, capped so that a set of
    whole tiles at full depth (K = ic*fh*fw rows) holds at most l2_bytes,
    and at least one; the last set may exceed that by its partial tile,
    fewer than n_win windows. It stands whenever such a set covers the
    layer's whole tiles, or the analysed k3 does not. Otherwise the
    reduction may be split instead: one window set of all ohw windows, in
    `chunks` near-equal chunks of at most cc channels (the last one may
    be shorter), where both the packed chunk (cc*fh*fw, ohw) and the
    (oc, ohw) partial-sum block fit in half of l2_bytes. The chunked shape
    is taken only when its modelled traffic, in elements,

        oc*K + 2*(chunks - 1)*oc*ohw

    is lower than the default's ceil(wtiles/capped)*oc*K: every set
    streams all filters once, and every chunk after the first writes a
    partial block that is then added into the output.
    """
    p = conv.params
    ff = p.fh * p.fw
    k = p.ic * ff
    k3 = strategy.k3
    capped = min(k3, max(1, arch.l2_bytes // (k * mk.n_win * ELEM_BYTES)))
    wtiles = max(1, conv.ohw // mk.n_win)
    if capped >= wtiles or k3 < wtiles:
        return capped, p.ic
    half = arch.l2_bytes // (2 * ELEM_BYTES)
    cc = half // (ff * conv.ohw)
    if cc < 1 or p.oc * conv.ohw > half:
        return capped, p.ic
    chunks = -(-p.ic // cc)
    chunked = (k + 2 * (chunks - 1) * conv.ohw) * p.oc
    if chunked >= -(-wtiles // capped) * p.oc * k:
        return capped, p.ic
    return wtiles, -(-p.ic // chunks)
