"""End-to-end driver: plan a convolution once, then run the plan.

ConvPlan(p, arch, mk) is made from the problem, the machine and the
microkernel alone, and derives every decision that does not depend on the
tensors: it refuses a layer whose tiles overflow L1, sizes the layer's
window sets and channel chunks, checks those sizes and lists the window
sets. Its report, the tiling analysis of the padded problem (strategy)
and the coverage-checked regions cut from it (regions), is made when
either is first read, since execution reads neither. It is frozen and
holds no buffers, so one plan may run any number of tensor pairs, from
several threads at once. ConvPlan.run, the one way to run a layer,
checks each tensor's shape against the plan and runs the layer's one
loop nest (kernel._run_layer), which allocates its own buffers per call.
run_convolution is a plan followed by one run.

The analysis and the plan's strategy, regions and conv describe the
padded problem (pad = 0), as do the packing equations. No padded copy of
the input is made here: the layer loop takes the input as the caller
holds it and pads one channel chunk of one image at a time into a reused
buffer.

The layer runs as one span, and the analysis and the region plan are
reported: analyze sizes the paper's tiles, plan_regions splits off the
window tail and the k3 peel as the paper does, and a plan makes both on
the first read of its report, but execution reads nothing from them. One
loop nest runs every window, filter and channel of the layer, addressed
from the padded problem alone; the GEMM blocks its own operands, and the
packers take plain window and channel ranges, whatever tiles they hold,
so region edges need no code of their own.

_layer_shape is the one place that sizes execution, from L2 alone. Each
window set runs against every filter, (oc, K) @ (K, W), and two numbers
are left to choose: the window-set size and the channel-chunk size. A
layer whose full-depth set of all windows does not fit L2 is split:
where a chunk at least oc rows deep fits L2 beside the (oc, ohw) partial
block, the reduction is split into channel chunks of one window set of
all windows, which streams its filters once (the paper's nc channel
tiling, sized by L2 rather than by the analysed nc); otherwise the
windows are split into full-depth sets capped to L2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arch import ELEM_BYTES, ArchInfo, ConvInfo, MkInfo
from .kernel import RunCounters, _run_layer, window_sets
from .model import DTYPE, ConvParams, Record, _set, require_int
from .regions import KernelRegion, coverage_check, plan_regions
from .strategy import TilingStrategy, _tile_bytes, analyze


class _Report:
    """A report field of ConvPlan (strategy or regions), made on its
    plan's first read of either.

    The first read runs analyze, plan_regions and coverage_check, looked
    up as this module's globals, and stores both fields in the plan's
    __dict__, strategy first; a descriptor without __set__ yields to the
    instance dict, so later reads are plain attribute reads. Two threads
    reading a fresh plan at once both make the report and store equal
    values. A region plan that does not cover raises RuntimeError at that
    read and stores nothing.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, plan, owner=None):
        if plan is None:
            return self
        conv = plan.conv
        strategy = analyze(conv, plan.arch, plan.mk)
        regions = tuple(plan_regions(conv, strategy, plan.mk))
        if not coverage_check(regions, conv):
            raise RuntimeError("region decomposition does not cover")
        _set(plan, "strategy", strategy)
        _set(plan, "regions", regions)
        return plan.__dict__[self.name]


@dataclass(init=False, repr=False, eq=False)
class ConvPlan(Record):
    """One convolution planned for one machine and microkernel.

    params is the problem as the caller holds it (padded or not). The
    plan derives conv, the padded problem's ConvInfo, and refuses a layer
    whose single-channel tiles exceed L1 with analyze's ValueError; then
    set_tiles and chunk, the window-set size in whole tiles and the
    channel-chunk size, from _layer_shape unless given, then checked: both
    integers (TypeError), set_tiles at least 1, chunk from 1 to ic, and a
    chunked layer one window set (ValueError); and sets, each window set's
    (first window, windows). Its report, strategy and the
    coverage-checked regions, is made on the first read of either (see
    _Report); repr, == and hash read every field, so they make it too. It
    holds no buffers and no tensors. replace() refuses what is derived:
    replace(plan, set_tiles=..., chunk=...) is the same layer at other
    sizes, and any other replace() plans anew; either has no report yet.
    """

    params: ConvParams
    arch: ArchInfo
    mk: MkInfo
    set_tiles: int
    chunk: int
    conv: ConvInfo = field(init=False)
    sets: tuple[tuple[int, int], ...] = field(init=False)
    # Last, so that a read report follows the other fields in __dict__.
    strategy: TilingStrategy = field(init=False, default=_Report())
    regions: tuple[KernelRegion, ...] = field(init=False, default=_Report())

    def __init__(self, params: ConvParams, arch: ArchInfo, mk: MkInfo,
                 set_tiles: int | None = None, chunk: int | None = None):
        conv = ConvInfo(params.padded())
        _tile_bytes(conv, arch, mk)
        shape = _layer_shape(conv, arch, mk)
        set_tiles = shape[0] if set_tiles is None else set_tiles
        chunk = shape[1] if chunk is None else chunk
        ic = params.ic
        require_int("set_tiles", set_tiles)
        if set_tiles < 1:
            raise ValueError(f"set_tiles must be at least 1, got {set_tiles}")
        require_int("chunk", chunk)
        if not 1 <= chunk <= ic:
            raise ValueError(f"chunk must be from 1 to {ic} channels, "
                             f"got {chunk}")
        sets = tuple(window_sets(conv.ohw, set_tiles, mk.n_win))
        if chunk < ic and len(sets) > 1:
            raise ValueError(f"a layer in chunks of {chunk} of {ic} channels "
                             f"runs as one window set, not {len(sets)} sets "
                             f"of {set_tiles} tiles")
        _set(self, "params", params)
        _set(self, "arch", arch)
        _set(self, "mk", mk)
        _set(self, "set_tiles", set_tiles)
        _set(self, "chunk", chunk)
        _set(self, "conv", conv)
        _set(self, "sets", sets)

    def run(self, x: np.ndarray, filters: np.ndarray, hook=None,
            counters: RunCounters | None = None
            ) -> tuple[np.ndarray, ConvPlan]:
        """Run the plan on one tensor pair; returns (output NCHW f32, plan).

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
        wrapper installed there sees each call, and a kernel installed
        at kernel.microkernel is handed a zeroed accumulator as a hook
        is; only the built-in microkernel, which overwrites every
        element, writes the uninitialised output directly. counters, a
        RunCounters, records the run's packs.
        """
        p, conv = self.params, self.conv
        x = np.ascontiguousarray(x, dtype=DTYPE)
        filters = np.ascontiguousarray(filters, dtype=DTYPE)
        for name, arr, shape in (("x", x, (p.n, p.ic, p.ih, p.iw)),
                                 ("filters", filters,
                                  (p.oc, p.ic, p.fh, p.fw))):
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, not {shape}")
        # Every element is written by the first GEMM of one window set, so
        # the output starts uninitialised: the built-in kernel overwrites
        # each block, and _run_layer zeroes the block before any other
        # kernel writes it.
        out = np.empty((p.n, p.oc, conv.oh, conv.ow), dtype=DTYPE)
        _run_layer(x, filters, out, p, conv, self.sets, self.chunk, self.mk,
                   hook, counters)
        return out, self


def run_convolution(x: np.ndarray, filters: np.ndarray, p: ConvParams,
                    arch: ArchInfo, mk: MkInfo, hook=None,
                    counters: RunCounters | None = None
                    ) -> tuple[np.ndarray, ConvPlan]:
    """Run the sliced engine; returns (output NCHW f32, its ConvPlan).

    The same as ConvPlan(p, arch, mk).run(x, filters, hook, counters): a
    caller that runs one problem many times plans it once.
    """
    return ConvPlan(p, arch, mk).run(x, filters, hook, counters)


def _layer_shape(conv: ConvInfo, arch: ArchInfo,
                 mk: MkInfo) -> tuple[int, int]:
    """(window tiles per set, channels per chunk) for the layer's one span.

    Sized by L2 alone. Window sets are counted in the layer's wtiles whole
    window tiles (at least one); a partial last tile joins the last set
    (see kernel.window_sets). A set of whole tiles at full depth (K =
    ic*fh*fw rows) holds at most l2_bytes, and at least one tile; the
    last set may exceed that by its partial tile, fewer than n_win
    windows. Where such a set covers the layer's whole tiles, the layer
    runs as that one full-depth set. Otherwise it runs as one window set
    of all ohw windows, in the fewest near-equal chunks of at most cc
    channels, so that a packed chunk (cc*fh*fw, ohw) and the (oc, ohw)
    partial block together fit l2_bytes, the budget a packed set already
    has. It does so only where such a chunk exists and is at least oc
    rows deep (chunk*fh*fw >= oc), since a GEMM shallower than its
    filter count runs slowly; otherwise the layer runs in capped
    full-depth window sets.
    """
    p = conv.params
    ff = p.fh * p.fw
    wtiles = max(1, conv.ohw // mk.n_win)
    capped = min(wtiles, max(1, arch.l2_bytes
                             // (p.ic * ff * mk.n_win * ELEM_BYTES)))
    if capped == wtiles:
        return capped, p.ic
    cc = (arch.l2_bytes // ELEM_BYTES - p.oc * conv.ohw) // (ff * conv.ohw)
    chunk = -(-p.ic // -(-p.ic // max(1, cc)))
    if cc < 1 or chunk * ff < p.oc:
        return capped, p.ic
    return wtiles, chunk
