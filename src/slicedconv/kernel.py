"""The region executor: per batch image and window set, one GEMM.

execute_region runs one loop nest for every region:

    take the region's filters as one (oc_len, K) view      (once per region)
    batch image
      window set of set_tiles window tiles
        pack the set into a reused (K, windows) buffer
        microkernel: out[f, w] = sum_k pf[k, f] * pi[k, w]

with K = ic_len*fh*fw. The microkernel is a BLAS GEMM, which packs and
blocks its own operands, so the executor neither splits the reduction into
channel blocks nor the filters into sets: the filter operand is a
read-only view of the filter tensor, which nothing copies, and each window
set is multiplied against every filter of the region in one call that
writes the set's block of the output in place. A microkernel hook, passed
as execute_region's hook argument, replaces exactly that call.

The analysis's schedule (input- or weight-stationary), nc and k2 order
and size nothing here: the engine passes only the window-set size, capped
so that a set at full depth holds at most L2.

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
    per batch image, keyed (batch, window tile). A region's filter tiles
    are taken once, as one view of the filter tensor that copies nothing,
    keyed (first window tile of the region, filter tile).
    """

    input_packs: Counter = field(default_factory=Counter)
    filter_packs: Counter = field(default_factory=Counter)
    acc_touches: Counter = field(default_factory=Counter)  # (b, w_tile, f_tile)


def execute_region(x: np.ndarray, filters: np.ndarray, out: np.ndarray,
                   conv: ConvInfo, region: KernelRegion, set_tiles: int,
                   mk: MkInfo, hook=None,
                   counters: RunCounters | None = None) -> None:
    """Run one region in window sets of set_tiles tiles; writes its block
    of out.

    x must be pre-padded (conv carries pad=0); out is (n, oc, oh, ow). The
    region must span every input channel, since each GEMM writes its
    output block rather than adding to it. set_tiles must be an integer of
    at least 1 (TypeError, ValueError before anything is written).

    hook, when given, replaces the built-in microkernel call of each window
    set and is called as microkernel is, hook(packed_in, packed_f, acc):
    the (K, width) window set, the (K, oc_len) filters (a transposed
    read-only view of the filter tensor) and the (oc_len, width) block of
    out, which arrives zeroed from the engine, to write in place.
    microkernel, pack_input and pack_filter are looked up as module
    globals, so a wrapper installed there sees each call. Results must
    match the built-in kernel within the engine tolerance.
    """
    require_int("set_tiles", set_tiles)
    if set_tiles < 1:
        raise ValueError(f"set_tiles must be at least 1, got {set_tiles}")
    if not out.flags.c_contiguous:
        raise ValueError("output tensor must be C-contiguous")
    p = conv.params
    if (region.ic_start, region.ic_len) != (0, p.ic):
        raise ValueError(f"region channels [{region.ic_start}, "
                         f"{region.ic_start + region.ic_len}) are not all "
                         f"{p.ic}: the GEMM writes, it does not accumulate")
    n_win, n_f = mk.n_win, mk.n_f
    wtiles = -(-region.spatial_len // n_win)
    ftiles = -(-region.oc_len // n_f)
    w_tile0, f_tile0 = region.spatial_start // n_win, region.oc_start // n_f
    f0, f1 = region.oc_start, region.oc_start + region.oc_len

    f_mat = pack_filter(filters, region, mk, nt=ftiles, nc=region.ic_len)
    buf = np.empty((region.ic_len * p.fh * p.fw,
                    min(set_tiles * n_win, region.spatial_len)), DTYPE)
    out_flat = out.reshape(p.n, p.oc, conv.ohw)
    if counters is not None:
        counters.filter_packs.update((w_tile0, f_tile0 + t)
                                     for t in range(ftiles))

    for b in range(p.n):
        for s in range(0, wtiles, set_tiles):
            nt = min(set_tiles, wtiles - s)
            cols = min(nt * n_win, region.spatial_len - s * n_win)
            in_mat = pack_input(x, conv, region, (s * n_win, 0), mk, nt=nt,
                                nc=region.ic_len, batch=b, out=buf[:, :cols])
            w0 = region.spatial_start + s * n_win
            (microkernel if hook is None else hook)(
                in_mat, f_mat.T, out_flat[b, f0:f1, w0:w0 + cols])
            if counters is not None:
                counters.input_packs.update((b, w_tile0 + s + t)
                                            for t in range(nt))
                counters.acc_touches.update(
                    (b, w // n_win, f // n_f)
                    for w in range(w0, w0 + cols, n_win)
                    for f in range(f0, f1, n_f))
