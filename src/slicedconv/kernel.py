"""The layer executor: per batch image and channel chunk, one GEMM per
window set.

One loop nest, _run_layer, runs the whole layer:

    take the filters as one (oc, chunk*fh*fw) view per channel chunk
                                                           (once per layer)
    batch image
      channel chunk
        pad the image's chunk into a reused buffer        (padded layers)
        window set of set_tiles whole window tiles (the last set also
        takes a trailing partial tile)
          pack the set's chunk into a reused (chunk*fh*fw, windows)
          buffer, or take it as a view (1x1 filters at stride 1)
          microkernel: acc[f, w] = sum_k pf[k, f] * pi[k, w]

It checks nothing and has one caller, ConvPlan.run (engine.py), whose
plan checked its sizes once and whose run checks the tensors' shapes.
The loop allocates its own buffers per call, so nothing it writes is
shared between calls.

The microkernel is a BLAS GEMM, which packs and blocks its own operands,
so the executor splits the filters into no sets: each window set is
multiplied against every filter in one call per chunk, and one chunk of
all ic channels, K = ic*fh*fw, makes one call that writes the set's block
of the output in place. The filter operand is a read-only view of the
filter tensor, which nothing copies. A microkernel hook, passed as the
hook argument of ConvPlan.run, replaces exactly that call.

The output arrives uninitialised. The built-in microkernel overwrites
every element of its block, so only a call of another kernel, a hook or
whatever is installed at kernel.microkernel, has its block zeroed first:
such a kernel may add into acc, and a block it skips reads zeros.

Padding is never materialized for the whole input: a padded layer pads
one channel chunk of one image at a time into one buffer, zeroed once,
whose border stays zero, and packs from it as from a pre-padded input.
Where a window set's chunk already is a GEMM operand (a 1x1 filter at
stride 1 reads each window's own pixel), pack_input returns it as a
read-only view of the input and nothing is copied.

Where the engine splits the reduction into channel chunks (so that one
window set can span the layer while its packed chunk stays L2-sized), the
layer runs as one window set: the first chunk's GEMM writes the output
block, each later chunk's GEMM writes a reused (oc, windows) partial
block, and the partial block is added into the output. Both are
C-contiguous, so the add needs no temporary. Chunks run in channel order,
so each output element sums its chunks in the same order whichever loop
is outermost.

The analysis's schedule (input- or weight-stationary), nc and k2 order
and size nothing here: the engine passes the window-set size and the
chunk size from its own L2 rule (see engine.py).

The packers take plain ranges of the layer: each set's windows, each
chunk's channels and all oc filters. The layer's last window tile and
last filter tile may be short, since the GEMM takes any width. Window
sets are counted in whole tiles, so the window tail (windows mod n_win)
runs in the last set rather than in a GEMM of its own, and the filter
tail (oc mod n_f) is the last rows of every GEMM.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .arch import ConvInfo, MkInfo
from .model import DTYPE, ConvParams, Record
from .packing import pack_filter, pack_input, reads_in_place


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


# The one kernel _run_layer hands an unzeroed acc (see the module docstring).
_BUILTIN = microkernel


@dataclass(init=False, repr=False, eq=False)
class RunCounters(Record):
    """Pack instrumentation, keyed by tile coordinates.

    Each key names a tile once per scope it is packed for, so a run that
    packs nothing twice counts 1 everywhere. Window tiles are packed once
    per batch image, keyed (batch, window tile), a tile taken as a view
    of the input (1x1 filters at stride 1) included: a layer split into
    channel chunks packs each chunk of a window set in its own call, but
    the chunks are disjoint channel slices of one set, so the set still
    counts once. A partial last tile is counted with the last set, once
    too. The filter tiles are taken once per run, as views of the filter
    tensor that copy nothing (one per chunk, over disjoint channels),
    keyed (0, filter tile).
    """

    input_packs: Counter = field(default_factory=Counter)
    filter_packs: Counter = field(default_factory=Counter)

    # Unlike the other records, mutable, and so unhashable.
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, input_packs: Counter | None = None,
                 filter_packs: Counter | None = None):
        self.input_packs = Counter() if input_packs is None else input_packs
        self.filter_packs = (Counter() if filter_packs is None
                             else filter_packs)


def window_sets(span: int, set_tiles: int,
                n_win: int) -> list[tuple[int, int]]:
    """(first window, windows) of each window set of a span of windows.

    Sets are counted in whole window tiles, set_tiles of them each (the
    last set may hold fewer); a trailing partial tile joins the last set,
    and a span (of at least one window) shorter than one tile is one set
    of its own.
    """
    step = set_tiles * n_win
    # The last set starts at the last multiple of step before the span's
    # last whole tile ends, or at 0 when there is no whole tile.
    last = max(0, (span - span % n_win - 1) // step * step)
    return [(w0, step) for w0 in range(0, last, step)] + [(last, span - last)]


def _run_layer(x: np.ndarray, filters: np.ndarray, out: np.ndarray,
               p: ConvParams, pconv: ConvInfo, sets, chunk: int, mk: MkInfo,
               hook, counters: RunCounters | None) -> None:
    """The layer loop nest, unchecked: the layer p, run in the given
    window sets (window_sets' (first window, windows) pairs) and in
    chunks of chunk channels, writing every element of the C-contiguous
    out, which may hold anything on entry. pconv is the padded problem's
    ConvInfo. ConvPlan.run, its one caller, documents the hook and
    counters.
    """
    n_win, n_f = mk.n_win, mk.n_f
    ff = p.fh * p.fw
    split = chunk < p.ic

    # (first channel, channels, filter view) of each chunk.
    chunks = [(c0, min(chunk, p.ic - c0),
               pack_filter(filters, 0, p.oc, c0, min(chunk, p.ic - c0)))
              for c0 in range(0, p.ic, chunk)]
    # A 1x1 filter at stride 1 packs nothing: pack_input returns the chunk
    # as a view of the input. A chunked layer, one set of all ohw
    # windows, sums its later chunks in a partial block.
    in_place = reads_in_place(p)
    width = max(cols for _, cols in sets)
    buf = None if in_place else np.empty((chunk * ff, width), DTYPE)
    part = np.empty((p.oc, width), DTYPE) if split else None
    # A padded layer's chunk is padded into pad, a one-image input of the
    # padded problem whose border, zeroed here, is never written.
    if p.pad_h or p.pad_w:
        pad = np.zeros((1, chunk, p.ih + 2 * p.pad_h, p.iw + 2 * p.pad_w),
                       DTYPE)
        inner = pad[0, :, p.pad_h:p.pad_h + p.ih, p.pad_w:p.pad_w + p.iw]
    else:
        pad = None
    out_flat = out.reshape(p.n, p.oc, pconv.ohw)
    gemm = microkernel if hook is None else hook
    zero = gemm is not _BUILTIN
    if counters is not None:
        counters.filter_packs.update(
            (0, f // n_f) for f in range(0, p.oc, n_f))

    for b in range(p.n):
        for c0, cc, f_chunk in chunks:
            if pad is None:
                src, sb, sc = x, b, c0
            else:
                inner[:cc] = x[b, c0:c0 + cc]
                src, sb, sc = pad, 0, 0
            for w0, cols in sets:
                blk = out_flat[b, :, w0:w0 + cols]
                in_mat = pack_input(
                    src, pconv, w0, cols, sc, cc, batch=sb,
                    out=None if in_place else buf[:cc * ff, :cols])
                # The first chunk writes the output block, a later one the
                # partial block that is then added in.
                acc = part if c0 else blk
                if zero:
                    acc.fill(0)
                gemm(in_mat, f_chunk.T, acc)
                if c0:
                    blk += acc
        if counters is not None:
            for w0, cols in sets:
                counters.input_packs.update(
                    (b, w // n_win) for w in range(w0, w0 + cols, n_win))
