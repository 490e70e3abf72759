"""The region executor: per batch image and window set, one GEMM per
channel chunk.

execute_region runs one loop nest for every region:

    take the region's filters as one (oc_len, chunk*fh*fw) view per
    channel chunk                                          (once per region)
    batch image
      window set of set_tiles window tiles
        channel chunk
          pack the set's chunk into a reused (chunk*fh*fw, windows) buffer
          microkernel: acc[f, w] = sum_k pf[k, f] * pi[k, w]

The microkernel is a BLAS GEMM, which packs and blocks its own operands,
so the executor splits neither the filters into sets nor, by default, the
reduction: one chunk of all ic_len channels, K = ic_len*fh*fw, and each
window set is multiplied against every filter of the region in one call
that writes the set's block of the output in place. The filter operand is
a read-only view of the filter tensor, which nothing copies. A microkernel
hook, passed as execute_region's hook argument, replaces exactly that
call.

Where the engine splits the reduction into channel chunks (so that a
window set can span its whole region while its packed chunk stays
L2-sized), the first chunk's GEMM writes the output block and each later
chunk's GEMM writes a reused partial block, which is then added in.

The analysis's schedule (input- or weight-stationary), nc and k2 order
and size nothing here: the engine passes the window-set size and the
chunk size from its own L2 rule (see engine.py).

Every region runs through execute_region. A region's last window tile
and last filter tile may be short: the window tail (fewer than n_win
windows, a Remainder region) is one partial window tile, and the filter
tail (oc mod n_f) a partial last filter tile; the packers cut them at the
region's end and the GEMM takes any width.

Regions write disjoint output ranges, and every output element is written
by the first chunk's GEMM of exactly one window set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .arch import ConvInfo, MkInfo
from .model import DTYPE, require_int
from .packing import pack_filter, pack_input
from .regions import KernelRegion


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


@dataclass
class RunCounters:
    """Pack/accumulate instrumentation, keyed by absolute tile coordinates.

    Each key names a tile once per scope it is packed for, so a run that
    packs nothing twice counts 1 everywhere. Window tiles are packed once
    per batch image, keyed (batch, window tile): a region split into
    channel chunks packs each chunk of a window set in its own call, but
    the chunks are disjoint channel slices of one set, so the set still
    counts once. A region's filter tiles are taken once, as views of the
    filter tensor that copy nothing (one per chunk, over disjoint
    channels), keyed (first window tile of the region, filter tile).
    acc_touches counts one touch of each output tile per GEMM that
    reaches it, so once per channel chunk.
    """

    input_packs: Counter = field(default_factory=Counter)
    filter_packs: Counter = field(default_factory=Counter)
    acc_touches: Counter = field(default_factory=Counter)  # (b, w_tile, f_tile)


def execute_region(x: np.ndarray, filters: np.ndarray, out: np.ndarray,
                   conv: ConvInfo, region: KernelRegion, set_tiles: int,
                   mk: MkInfo, hook=None, counters: RunCounters | None = None,
                   chunk: int | None = None) -> None:
    """Run one region in window sets of set_tiles tiles, reducing over
    chunks of chunk input channels; writes its block of out.

    x must be pre-padded (conv carries pad=0); out is (n, oc, oh, ow). The
    region must span every input channel, since the first chunk's GEMM
    writes its output block rather than adding to it. chunk defaults to
    all of the region's channels, one GEMM per window set; a smaller one
    splits the reduction into chunks of chunk channels, the last one
    shorter. set_tiles and chunk must be integers (TypeError), set_tiles
    at least 1 and chunk from 1 to ic_len (ValueError), all checked before
    anything is written.

    hook, when given, replaces the built-in microkernel call of each chunk
    of each window set and is called as microkernel is, hook(packed_in,
    packed_f, acc): the (k, width) window set's chunk, the (k, oc_len)
    filters of the chunk (a transposed read-only view of the filter
    tensor) and an (oc_len, width) accumulator, which arrives zeroed, to
    write in place. The first chunk's accumulator is the set's block of
    out, zeroed by the engine; each later chunk's is a reused partial
    block, zeroed before the call and added into out after it.
    microkernel, pack_input and pack_filter are looked up as module
    globals, so a wrapper installed there sees each call. Results must
    match the built-in kernel within the engine tolerance.
    """
    require_int("set_tiles", set_tiles)
    if set_tiles < 1:
        raise ValueError(f"set_tiles must be at least 1, got {set_tiles}")
    if chunk is None:
        chunk = region.ic_len
    else:
        require_int("chunk", chunk)
        if not 1 <= chunk <= region.ic_len:
            raise ValueError(f"chunk must be from 1 to {region.ic_len} "
                             f"channels, got {chunk}")
    if not out.flags.c_contiguous:
        raise ValueError("output tensor must be C-contiguous")
    p = conv.params
    if (region.ic_start, region.ic_len) != (0, p.ic):
        raise ValueError(f"region channels [{region.ic_start}, "
                         f"{region.ic_start + region.ic_len}) are not all "
                         f"{p.ic}: the GEMM writes, it does not accumulate")
    n_win, n_f = mk.n_win, mk.n_f
    ff = p.fh * p.fw
    wtiles = -(-region.spatial_len // n_win)
    ftiles = -(-region.oc_len // n_f)
    w_tile0, f_tile0 = region.spatial_start // n_win, region.oc_start // n_f
    f0, f1 = region.oc_start, region.oc_start + region.oc_len

    # The first chunk's filter view, and (first channel, channels, view)
    # of each later chunk: none when one chunk holds every channel.
    f_mat = pack_filter(filters, region, mk, nt=ftiles, nc=chunk)
    later = []
    for c0 in range(chunk, p.ic, chunk):
        cc = min(chunk, p.ic - c0)
        later.append((c0, cc, pack_filter(filters, region, mk, nt=ftiles,
                                          nc=cc, ic_off=c0)))
    width = min(set_tiles * n_win, region.spatial_len)
    buf = np.empty((chunk * ff, width), DTYPE)
    part = np.empty((region.oc_len, width), DTYPE) if later else None
    out_flat = out.reshape(p.n, p.oc, conv.ohw)
    if counters is not None:
        counters.filter_packs.update((w_tile0, f_tile0 + t)
                                     for t in range(ftiles))

    for b in range(p.n):
        for s in range(0, wtiles, set_tiles):
            nt = min(set_tiles, wtiles - s)
            cols = min(nt * n_win, region.spatial_len - s * n_win)
            in_mat = pack_input(x, conv, region, (s * n_win, 0), mk, nt=nt,
                                nc=chunk, batch=b, out=buf[:, :cols])
            w0 = region.spatial_start + s * n_win
            (microkernel if hook is None else hook)(
                in_mat, f_mat.T, out_flat[b, f0:f1, w0:w0 + cols])
            for c0, cc, f_chunk in later:
                in_mat = pack_input(x, conv, region, (s * n_win, 0), mk,
                                    nt=nt, nc=cc, batch=b, ic_off=c0,
                                    out=buf[:cc * ff, :cols])
                acc = part[:, :cols]
                if hook is not None:
                    acc.fill(0)  # a hook may add into acc
                (microkernel if hook is None else hook)(in_mat, f_chunk.T,
                                                        acc)
                out_flat[b, f0:f1, w0:w0 + cols] += acc
            if counters is not None:
                counters.input_packs.update((b, w_tile0 + s + t)
                                            for t in range(nt))
                counters.acc_touches.update(
                    (b, w // n_win, f // n_f)
                    for _ in range(1 + len(later))
                    for w in range(w0, w0 + cols, n_win)
                    for f in range(f0, f1, n_f))
