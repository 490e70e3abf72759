import json
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import (CALIBRATED_ARCH, FIXTURES, REF_MK, REPO_ROOT, plan_at,
                      rand_tensors, random_params)
from slicedconv import (ArchInfo, ConvInfo, ConvParams, ConvPlan, MkInfo,
                        RegionKind, RunCounters, Schedule, TilingStrategy,
                        analyze, load_arch, load_suite, microkernel,
                        naive_conv, pad_input, run_convolution)
from slicedconv import engine, kernel
from slicedconv.harness import max_relative_error
from slicedconv.model import DTYPE
from slicedconv.packing import pack_input, reads_in_place
from slicedconv.regions import plan_regions
from tiling_oracle import tile_bytes

SCHEDULES = (Schedule.InputStationary, Schedule.WeightStationary)


def make_accumulator(n_f, n_win):
    return np.zeros((n_f, n_win), dtype=DTYPE)


def test_microkernel_single_outer_product():
    pin = np.array([[5.0, 7.0]], dtype=np.float32)   # K=1, n_win=2
    pf = np.array([[2.0, 3.0]], dtype=np.float32)    # K=1, n_f=2
    acc = make_accumulator(2, 2)
    microkernel(pin, pf, acc)
    assert np.array_equal(acc, [[10, 14], [15, 21]])
    microkernel(pin, pf, acc)  # writes acc, does not add to it
    assert np.array_equal(acc, [[10, 14], [15, 21]])


def test_microkernel_zero_filter_is_identity():
    # the kernel writes acc in place: a zero filter block gives zeros
    # whatever acc held, in a strided block of a larger array too
    rng = np.random.default_rng(1)
    pin = rng.uniform(-1, 1, (12, 4)).astype(np.float32)
    big = rng.uniform(-1, 1, (5, 9)).astype(np.float32)
    before = big.copy()
    acc = big[1:4, 2:6]
    assert microkernel(pin, np.zeros((12, 3), dtype=np.float32), acc) is acc
    assert np.all(acc == 0)
    acc[...] = before[1:4, 2:6]
    assert np.array_equal(big, before)


def test_microkernel_matches_triple_loop_exactly():
    # integer-valued f32 keeps every product and partial sum exact, so any
    # summation order gives bitwise-equal results
    rng = np.random.default_rng(2)
    pin = rng.integers(-8, 9, (4, 3)).astype(np.float32)
    pf = rng.integers(-8, 9, (4, 3)).astype(np.float32)
    acc = make_accumulator(3, 3)
    microkernel(pin, pf, acc)
    want = np.zeros((3, 3), dtype=np.float32)
    for f in range(3):
        for w in range(3):
            for k in range(4):
                want[f, w] += pf[k, f] * pin[k, w]
    assert np.array_equal(acc, want)


def test_microkernel_shape_errors():
    with pytest.raises(ValueError):
        microkernel(np.zeros((4, 2), np.float32), np.zeros((5, 2), np.float32),
                    make_accumulator(2, 2))
    with pytest.raises(ValueError):
        microkernel(np.zeros((4, 2), np.float32), np.zeros((4, 3), np.float32),
                    make_accumulator(2, 2))


def _run_engine_case(rng, p, mk, arch=CALIBRATED_ARCH, **kw):
    x, flt = rand_tensors(rng, p)
    out, info = run_convolution(x, flt, p, arch, mk, **kw)
    ref = naive_conv(x, flt, p)
    return out, ref, info, (x, flt)


def test_execute_full_cover_matches_oracle(rng):
    for _ in range(10):
        p = random_params(rng, max_ic=12, max_oc=24, max_out=14)
        mk = MkInfo(n_win=int(rng.choice((4, 8))), n_f=int(rng.choice((4, 8))))
        out, ref, info, _ = _run_engine_case(rng, p, mk)
        assert max_relative_error(out, ref) <= 1e-4


def test_asymmetric_parameters_match_oracle(rng):
    # per-axis strides, dilations, pads and rectangular filters
    for _ in range(25):
        while True:
            fh, fw = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            sh, sw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            dh, dw = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            ph, pw = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            oh, ow = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            ih = (oh - 1) * sh + dh * (fh - 1) + 1 - 2 * ph
            iw = (ow - 1) * sw + dw * (fw - 1) + 1 - 2 * pw
            if ih < 1 or iw < 1:
                continue
            try:
                p = ConvParams(n=int(rng.integers(1, 3)),
                               ic=int(rng.integers(1, 16)), ih=ih, iw=iw,
                               oc=int(rng.integers(1, 25)), fh=fh, fw=fw,
                               stride_h=sh, stride_w=sw, dil_h=dh, dil_w=dw,
                               pad_h=ph, pad_w=pw)
                break
            except ValueError:
                continue
        mk = MkInfo(n_win=int(rng.choice((4, 8, 16))), n_f=int(rng.choice((4, 8))))
        out, ref, _, _ = _run_engine_case(rng, p, mk)
        assert max_relative_error(out, ref) <= 1e-4, p


def test_both_schedules_match_oracle(rng, monkeypatch):
    # The analysed schedule and k3 size nothing in execution: an engine
    # run under either schedule, with k3 = 3 tiles and a one-window tail
    # in the plan, matches the oracle, and the two outputs agree bit for
    # bit.
    p = ConvParams(n=1, ic=8, ih=13, iw=13, oc=16, fh=3, fw=3)
    mk = MkInfo(n_win=4, n_f=4)
    x, flt = rand_tensors(rng, p)
    ref = naive_conv(x, flt, p)
    outs = []
    for sched in SCHEDULES:
        strat = TilingStrategy(schedule=sched, nc=8, k2=2, k3=3,
                               r_nc=0, r_k2=0, r_k3=0)
        monkeypatch.setattr(engine, "analyze", lambda *a: strat)
        out, info = run_convolution(x, flt, p, CALIBRATED_ARCH, mk)
        assert info.strategy is strat
        assert info.regions[0].kind is RegionKind.Remainder  # one-window tail
        assert info.regions[0].spatial_len == 1
        assert max_relative_error(out, ref) <= 1e-4
        outs.append(out)
    assert np.array_equal(*outs)


def test_nine_window_tail_joins_the_last_one_tile_set(rng):
    # the 75x75 example's 9-window tail, checked against the oracle: in
    # window sets of one tile it runs as the partial last tile of the
    # last set, one GEMM of 25 windows
    from conftest import REF_PARAMS
    conv = ConvInfo(REF_PARAMS)
    strat = analyze(conv, CALIBRATED_ARCH, REF_MK)
    tail = [r for r in plan_regions(conv, strat, REF_MK)
            if r.kind is RegionKind.Remainder][0]
    assert (tail.spatial_start, tail.spatial_len) == (5616, 9)
    p_small = ConvParams(n=1, ic=2, ih=77, iw=77, oc=4, fh=3, fw=3)
    x, flt = rand_tensors(rng, p_small)
    ref = naive_conv(x, flt, p_small)
    widths = []

    def wrapped(pin, pf, acc):
        widths.append(pin.shape[1])
        microkernel(pin, pf, acc)

    out, _ = plan_at(p_small, REF_MK, 1, 2).run(x, flt, hook=wrapped)
    assert widths == [16] * 350 + [25]
    assert np.allclose(out, ref, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("set_tiles", [0, -1, 2.0, True])
def test_plan_rejects_a_bad_set_size(set_tiles):
    # A set size below 1 would make an empty window-set loop and leave the
    # output unwritten; a float or a bool is not a tile count. Each is
    # refused when the plan is made, before any tensor exists.
    p = ConvParams(n=1, ic=2, ih=6, iw=6, oc=4, fh=3, fw=3)
    error = TypeError if isinstance(set_tiles, (bool, float)) else ValueError
    with pytest.raises(error, match="set_tiles"):
        plan_at(p, MkInfo(n_win=4, n_f=4), set_tiles, 2)


@pytest.mark.parametrize("chunk", [0, -1, 3, 2.0, True, 1])
def test_plan_rejects_a_bad_chunk_size(chunk):
    # A chunk of no channels, or of more than the layer's two, is no
    # split of its reduction; a float or a bool is not a channel count.
    # A chunk of one channel is a split, and a layer split into chunks
    # runs as one window set, not the four sets of one tile asked for
    # here. Each is refused when the plan is made, before any tensor
    # exists.
    p = ConvParams(n=1, ic=2, ih=6, iw=6, oc=4, fh=3, fw=3)
    mk = MkInfo(n_win=4, n_f=4)
    assert len(plan_at(p, mk, 1, 2).sets) == 4
    error = TypeError if isinstance(chunk, (bool, float)) else ValueError
    with pytest.raises(error, match="chunk"):
        plan_at(p, mk, 1, chunk)


@pytest.mark.parametrize("tensor", ["x", "filters"])
def test_run_convolution_rejects_a_tensor_that_does_not_match_params(
        rng, tensor):
    # run_convolution leaves the shape checks to its plan's run, which
    # names the tensor and refuses it before any GEMM runs: an input with
    # one of the layer's two channels, or filters with two rows of taps.
    p = ConvParams(n=1, ic=2, ih=6, iw=6, oc=4, fh=3, fw=3, pad_h=1, pad_w=1)
    x, flt = rand_tensors(rng, p)
    if tensor == "x":
        x = x[:, :1]
    else:
        flt = flt[:, :, :2]
    calls = []
    with pytest.raises(ValueError, match=f"{tensor} has shape"):
        run_convolution(x, flt, p, CALIBRATED_ARCH, MkInfo(n_win=4, n_f=4),
                        hook=lambda *args: calls.append(args))
    assert calls == []


def test_tail_spanning_row_break(rng):
    square = ConvParams(n=1, ic=3, ih=9, iw=9, oc=5, fh=3, fw=3)  # 7x7 out
    strided = ConvParams(n=2, ic=3, ih=13, iw=12, oc=7, fh=3, fw=2,
                         stride_h=2, dil_w=2)  # 6x10 out
    cases = [
        # (params, n_win): 5 and 7 filters end in a partial tile of 4
        (square, 16),    # tiles cross row breaks, a one-window tail
        (square, 4),     # twelve tiles, [4, 8) crosses a row
        (square, 10),    # the 9-window tail [40, 49) crosses a row
        (strided, 3),    # batch 2, stride and dilation, no tail
        (strided, 16),   # the 12-window tail [48, 60) crosses a row
    ]
    for p, n_win in cases:
        mk = MkInfo(n_win=n_win, n_f=4)
        x, flt = rand_tensors(rng, p)
        ref = naive_conv(x, flt, p)
        # window sets of one tile, of two, and of up to eight, which
        # hold all of each layer but the 20-tile one
        for set_tiles in (1, 2, 8):
            out, _ = plan_at(p, mk, set_tiles, p.ic).run(x, flt)
            assert np.allclose(out, ref, rtol=1e-5, atol=1e-6)


def test_hook_wrapping_builtin_is_bit_identical(rng):
    p = random_params(rng, max_ic=8, max_oc=16, max_out=10)
    mk = MkInfo(n_win=4, n_f=4)
    baseline, _, _, (x, flt) = _run_engine_case(rng, p, mk)

    def wrapped(pin, pf, acc):
        microkernel(pin, pf, acc)

    out, _ = run_convolution(x, flt, p, CALIBRATED_ARCH, mk, hook=wrapped)
    assert np.array_equal(out, baseline)


def test_hook_sees_the_window_tail(rng):
    # ohw = 9 < n_win: the only region is the window tail, a Remainder,
    # and it runs alone; ohw = 121 is 7 tiles of 16 in a Main region and a
    # 9-window tail, which runs as the partial last tile of the main
    # region's one window set, so the hook sees no GEMM of the tail alone
    all_tail = ConvParams(n=2, ic=3, ih=5, iw=5, oc=3, fh=3, fw=3)
    with_main = ConvParams(n=1, ic=5, ih=13, iw=13, oc=12, fh=3, fw=3)
    mk = MkInfo(n_win=16, n_f=8)
    for p, width in ((all_tail, 9), (with_main, 121)):
        baseline, ref, info, (x, flt) = _run_engine_case(rng, p, mk)
        kinds = [r.kind for r in info.regions]
        assert kinds.count(RegionKind.Remainder) == 1
        assert info.regions[0].spatial_len == 9
        assert (len(kinds) > 1) == (p is with_main)
        assert max_relative_error(baseline, ref) <= 1e-4
        widths = []

        def wrapped(pin, pf, acc):
            widths.append(pin.shape[1])
            microkernel(pin, pf, acc)

        out, _ = run_convolution(x, flt, p, CALIBRATED_ARCH, mk, hook=wrapped)
        assert np.array_equal(out, baseline)
        assert widths == [width] * p.n  # one GEMM per batch image

    def raising(pin, pf, acc):
        raise RuntimeError("hook called")

    x, flt = rand_tensors(rng, all_tail)
    with pytest.raises(RuntimeError, match="hook called"):
        run_convolution(x, flt, all_tail, CALIBRATED_ARCH, mk, hook=raising)


def test_hook_registry_and_garbage_hook_detected(rng):
    p = ConvParams(n=1, ic=4, ih=12, iw=12, oc=8, fh=3, fw=3)
    mk = MkInfo(n_win=4, n_f=4)
    x, flt = rand_tensors(rng, p)
    ref = naive_conv(x, flt, p)

    def garbage(pin, pf, acc):
        acc += 1.0

    out, _ = run_convolution(x, flt, p, CALIBRATED_ARCH, mk, hook=garbage)
    assert max_relative_error(out, ref) > 1e-4  # negative test
    out, _ = run_convolution(x, flt, p, CALIBRATED_ARCH, mk)
    assert max_relative_error(out, ref) <= 1e-4


def test_hook_cannot_write_into_the_filters(rng):
    # run_convolution passes C-contiguous f32 filters through uncopied and
    # packed_f is a view of them, so the view is read-only: a hook that
    # writes into it fails instead of changing the caller's tensor.
    p = ConvParams(n=1, ic=4, ih=12, iw=12, oc=10, fh=3, fw=3)
    mk = MkInfo(n_win=4, n_f=4)
    x, flt = rand_tensors(rng, p)
    before = flt.tobytes()

    def scribbling(pin, pf, acc):
        pf[...] = 0.0

    with pytest.raises(ValueError, match="read-only"):
        run_convolution(x, flt, p, CALIBRATED_ARCH, mk, hook=scribbling)
    assert flt.tobytes() == before and flt.flags.writeable


def test_hook_cannot_write_into_a_pointwise_input_view(rng):
    # A 1x1 filter at stride 1 packs nothing: packed_in is a read-only view
    # of the input, which run_convolution passes through uncopied when it
    # is C-contiguous f32. A hook that writes into it fails instead of
    # changing the caller's tensor.
    p = ConvParams(n=2, ic=6, ih=5, iw=7, oc=10, fh=1, fw=1)
    mk = MkInfo(n_win=4, n_f=4)
    x, flt = rand_tensors(rng, p)
    before = x.tobytes()
    views = []

    def scribbling(pin, pf, acc):
        views.append(np.shares_memory(pin, x))
        pin[...] = 0.0

    with pytest.raises(ValueError, match="read-only"):
        run_convolution(x, flt, p, CALIBRATED_ARCH, mk, hook=scribbling)
    assert views == [True]
    assert x.tobytes() == before and x.flags.writeable


@pytest.mark.parametrize("stride", [1, 2])
def test_pointwise_runs_count_every_window_tile(rng, stride):
    # One window set of all windows in chunks of 16 channels, then window
    # sets of 3 tiles of 4 (the last one short) at full depth: at stride 1
    # each GEMM's input is a view of the input, at stride 2 a copy. Either
    # way RunCounters counts each window tile once per batch image, and the
    # output matches the built-in kernel bit for bit and the oracle.
    p = ConvParams(n=2, ic=48, ih=7, iw=8, oc=12, fh=1, fw=1,
                   stride_h=stride, stride_w=stride)
    conv = ConvInfo(p)
    mk = MkInfo(n_win=4, n_f=4)
    x, flt = rand_tensors(rng, p)
    ref = naive_conv(x, flt, p)
    wtiles = -(-conv.ohw // mk.n_win)
    for set_tiles, chunk in ((wtiles, 16), (3, p.ic)):
        views = []

        def wrapped(pin, pf, acc):
            views.append(np.shares_memory(pin, x))
            microkernel(pin, pf, acc)

        plan = plan_at(p, mk, set_tiles, chunk)
        outs, counters = [], RunCounters()
        for hook in (None, wrapped):
            out, _ = plan.run(x, flt, hook=hook,
                              counters=counters if hook else None)
            outs.append(out)
        sets = len(plan.sets)
        chunks = p.ic // chunk
        assert (sets, chunks) in ((1, 3), (-(-wtiles // 3), 1))
        assert views == [stride == 1] * (p.n * chunks * sets)
        assert counters.input_packs == Counter(
            {(b, t): 1 for b in range(p.n) for t in range(wtiles)})
        assert outs[0].tobytes() == outs[1].tobytes()
        assert max_relative_error(outs[0], ref) <= 1e-4


def test_pointwise_run_holds_no_pack_buffer(rng):
    # Pointwise 256 -> 1024 at 14x14 (bench/layers.jsonl) runs as one
    # window set of all 196 windows in one chunk. Its chunk is a view of
    # the input, so the run's traced peak is its 784 KiB output and no
    # (256, 196) packed copy (196 KiB).
    p = ConvParams(n=1, ic=256, ih=14, iw=14, oc=1024, fh=1, fw=1)
    out, peak = _traced_run(rng, p, *_intel_16x8())
    assert peak <= out.nbytes + 16 * 1024, (peak, out.nbytes)


def test_weight_stationary_run_holds_no_filter_set_copy(rng):
    # Pointwise 256 -> 1024 at 4x4 under intel.toml: weight-stationary,
    # one 1024-filter set over all 256 channels, and a filter tensor of
    # 1 MiB next to a 64 KiB output. Filter sets are views of the filter
    # tensor, so the run's whole traced peak stays below the bytes of
    # even a quarter of that set (the analysis's 64 channels), which a
    # run that copied its sets would hold on top.
    p = ConvParams(n=1, ic=256, ih=4, iw=4, oc=1024, fh=1, fw=1)
    arch, mk = load_arch(FIXTURES / "intel.toml"), MkInfo(n_win=16, n_f=8)
    strat = analyze(ConvInfo(p), arch, mk)
    assert strat.schedule is Schedule.WeightStationary
    set_bytes = min(strat.k2 * mk.n_f, p.oc) * strat.nc * p.fh * p.fw * 4
    assert set_bytes >= 256 * 1024
    x, flt = rand_tensors(rng, p)
    run_convolution(x, flt, p, arch, mk)  # warm-up
    tracemalloc.start()
    try:
        out, _ = run_convolution(x, flt, p, arch, mk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < set_bytes, (peak, set_bytes)
    assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4


def test_concurrent_hook_does_not_leak_into_other_runs(rng):
    # One thread runs with a garbage hook while another runs without; the
    # hook-less outputs must equal a serial run bitwise.
    p = ConvParams(n=1, ic=8, ih=18, iw=18, oc=16, fh=3, fw=3)
    mk = MkInfo(n_win=4, n_f=4)
    x, flt = rand_tensors(rng, p)
    serial, _ = run_convolution(x, flt, p, CALIBRATED_ARCH, mk)
    start = threading.Barrier(2)
    outs = {}

    def garbage(pin, pf, acc):
        acc += 1.0

    def run(name, hook):
        start.wait(timeout=60)
        outs[name] = [run_convolution(x, flt, p, CALIBRATED_ARCH, mk,
                                      hook=hook)[0] for _ in range(20)]

    threads = [threading.Thread(target=run, args=("garbage", garbage)),
               threading.Thread(target=run, args=("plain", None))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads inside each run
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(np.array_equal(out, serial) for out in outs["plain"])
    assert all(not np.array_equal(out, serial) for out in outs["garbage"])


def test_hook_reordered_reduction_within_tolerance(rng):
    p = ConvParams(n=1, ic=16, ih=14, iw=14, oc=16, fh=3, fw=3)
    mk = MkInfo(n_win=4, n_f=4)
    x, flt = rand_tensors(rng, p)
    baseline, _ = run_convolution(x, flt, p, CALIBRATED_ARCH, mk)

    def reversed_k(pin, pf, acc):
        acc += pf[::-1].T @ pin[::-1]

    out, _ = run_convolution(x, flt, p, CALIBRATED_ARCH, mk, hook=reversed_k)
    assert max_relative_error(out, baseline) <= 1e-4


def test_partial_tiles_pack_once_and_match_the_oracle(rng):
    # ic 10 is 3 blocks of the analysis's nc=4, but the GEMM reduces over
    # all 10; oc 10 ends in a partial 2-filter tile
    for oc in (8, 10):
        _check_partial_tiles_pack_once(rng, oc)


def _check_partial_tiles_pack_once(rng, oc):
    p = ConvParams(n=2, ic=10, ih=12, iw=12, oc=oc, fh=3, fw=3)
    conv = ConvInfo(p)
    mk = MkInfo(n_win=5, n_f=4)
    arch = ArchInfo(l1_bytes=2048, l2_bytes=64 * 1024, l3_bytes=256 * 1024)
    strat = analyze(conv, arch, mk)
    assert strat.nc < p.ic and p.ic % strat.nc  # analysed channel blocks
    counters = RunCounters()
    x, flt = rand_tensors(rng, p)
    out, info = run_convolution(x, flt, p, arch, mk, counters=counters)
    assert all(r.ic_len == p.ic for r in info.regions)
    # every tile, the partial filter tile and the window tail included, is
    # packed once per reuse scope
    wtiles = -(-conv.ohw // mk.n_win)
    ftiles = -(-p.oc // mk.n_f)
    assert counters.input_packs == Counter(
        {(b, t): 1 for b in range(p.n) for t in range(wtiles)})
    assert counters.filter_packs == Counter(
        {(0, f): 1 for f in range(ftiles)})
    assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4


def test_pack_once_instrumentation_is(rng, monkeypatch):
    _check_pack_once(rng, monkeypatch, Schedule.InputStationary)


def test_pack_once_instrumentation_ws(rng, monkeypatch):
    _check_pack_once(rng, monkeypatch, Schedule.WeightStationary)


def _check_pack_once(rng, monkeypatch, sched):
    # 16x16 outputs in 64 window tiles of 4, 16 filters in 4 tiles, batch
    # 2, and k3 = 6: a main region of 60 tiles and a k3 peel of 4, under
    # an analysed schedule that orders nothing in execution.
    p = ConvParams(n=2, ic=8, ih=18, iw=18, oc=16, fh=3, fw=3)
    mk = MkInfo(n_win=4, n_f=4)
    strat = TilingStrategy(schedule=sched, nc=4, k2=2, k3=6,
                           r_nc=0, r_k2=0, r_k3=4)
    monkeypatch.setattr(engine, "analyze", lambda *a: strat)
    counters = RunCounters()
    x, flt = rand_tensors(rng, p)
    out, info = run_convolution(x, flt, p, CALIBRATED_ARCH, mk,
                                counters=counters)
    starts = [r.spatial_start // mk.n_win for r in info.regions]
    assert starts == [0, 60]
    # every window tile packed once per batch image, at full depth: nc = 4
    # of ic = 8 is not read
    assert counters.input_packs == Counter(
        {(b, t): 1 for b in range(p.n) for t in range(64)})
    # the layer runs as one span, so its filters are taken once, as one
    # view, keyed (0, filter tile)
    assert counters.filter_packs == Counter({(0, f): 1 for f in range(4)})
    assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4


def _plan_in_sets(monkeypatch, p, mk, sched, k3, k2):
    """p's plan in window sets of k3 whole tiles at full depth, under an
    analysed strategy of sched, k2 and k3. The engine sizes the layer from
    L2 alone, as one set of all its windows whatever the strategy says
    (a full-depth set of all of them fits L2 at these sizes), so the sets
    are asked for explicitly."""
    strat = TilingStrategy(schedule=sched, nc=4, k2=k2, k3=k3,
                           r_nc=0, r_k2=0, r_k3=0)
    monkeypatch.setattr(engine, "analyze", lambda *a: strat)
    own = ConvPlan(p, CALIBRATED_ARCH, mk)
    assert own.strategy is strat
    assert (own.chunk, own.sets) == (p.ic, ((0, own.conv.ohw),))
    return replace(own, set_tiles=k3)


@pytest.mark.parametrize("sched", [Schedule.InputStationary,
                                   Schedule.WeightStationary])
@pytest.mark.parametrize("k3,k2", [(3, 2), (2, 4)])
def test_set_product_matches_per_tile_hook(rng, monkeypatch, sched, k3, k2):
    # 49 windows in 7 tiles of 7, or in 8 whole tiles of 6 and a partial
    # one of a single window, and 5 filter tiles, run in window sets of k3
    # tiles. Window sets are counted in whole tiles and the partial tile
    # joins the last set: with n_win = 6 it is two whole tiles and the
    # partial one under either k3, so k3 = 2 runs 4 sets, not 5. The
    # schedule and k2 size nothing: (3, 2) and (2, 4) differ only in the
    # window-set size
    for n_win in (7, 6):
        _check_set_product(rng, monkeypatch, sched, k3, k2, n_win)


def _check_set_product(rng, monkeypatch, sched, k3, k2, n_win):
    p = ConvParams(n=2, ic=6, ih=9, iw=9, oc=20, fh=3, fw=3)
    conv = ConvInfo(p)
    mk = MkInfo(n_win=n_win, n_f=4)
    plan = _plan_in_sets(monkeypatch, p, mk, sched, k3, k2)
    set_tiles = plan.set_tiles
    x, flt = rand_tensors(rng, p)

    def run(hook):
        counters = RunCounters()
        out, _ = plan.run(x, flt, hook=hook, counters=counters)
        return out, counters

    heights = []

    def per_tile(pin, pf, acc):
        heights.append(pf.shape[1])
        microkernel(pin, pf, acc)

    batched, c_batched = run(None)
    tiled, c_tiled = run(per_tile)
    assert np.array_equal(batched, tiled)
    assert c_batched == c_tiled
    # every window set is one GEMM against all 20 filters
    whole = conv.ohw // n_win
    assert heights == [p.oc] * (p.n * -(-whole // set_tiles))
    # the partial tile is packed once, in the last set
    assert c_batched.input_packs == Counter(
        {(b, t): 1 for b in range(p.n) for t in range(-(-conv.ohw // n_win))})
    assert max_relative_error(batched, naive_conv(x, flt, p)) <= 1e-4


@pytest.mark.parametrize("sched", [Schedule.InputStationary,
                                   Schedule.WeightStationary])
@pytest.mark.parametrize("chunk", [1, 3, 16])
def test_chunked_sets_match_per_tile_hook(rng, monkeypatch, sched, chunk):
    # Window sets are chunked to L2: the engine caps a window set at the
    # full-depth window tiles l2_bytes holds, here `chunk` of them. 6x6
    # outputs in 9 window tiles of 4, so tiles 1, 4 and 7 cross a row
    # break. K = 8*2*2 = 32 at full depth, so a window tile is 512 B.
    # Chunks of 1 and 3 cut the layer's 9 tiles (its (24, 36) partial
    # block alone outgrows those L2 sizes, so the reduction is not
    # split), 16 leaves it. The analysis sets k3 = 9, the whole region,
    # against L3, and the plan is one region. 6 filter tiles, one filter
    # set of all 24 filters whatever the analysed k2.
    p = ConvParams(n=2 if sched is Schedule.InputStationary else 1,
                   ic=8, ih=7, iw=7, oc=24, fh=2, fw=2)
    mk = MkInfo(n_win=4, n_f=4)
    tile = p.ic * p.fh * p.fw * mk.n_win * 4
    arch = ArchInfo(l1_bytes=512, l2_bytes=chunk * tile, l3_bytes=1 << 20)
    x, flt = rand_tensors(rng, p)
    pack_widths = []

    def counting_pack_input(x, conv, w0, windows, *args, **kw):
        pack_widths.append(windows)
        return pack_input(x, conv, w0, windows, *args, **kw)

    monkeypatch.setattr(kernel, "pack_input", counting_pack_input)

    def run(hook):
        counters = RunCounters()
        out, info = run_convolution(x, flt, p, arch, mk, hook=hook,
                                    counters=counters)
        return out, info, counters

    widths, heights = [], []

    def per_tile(pin, pf, acc):
        widths.append(pin.shape[1])
        heights.append(pf.shape[1])
        microkernel(pin, pf, acc)

    chunked, info, c_chunked = run(None)
    chunked_widths = list(pack_widths)
    tiled, _, c_tiled = run(per_tile)
    assert info.strategy.schedule is sched and info.strategy.k3 == 9
    assert info.strategy.nc < p.ic and len(info.regions) == 1
    assert np.array_equal(chunked, tiled)
    assert c_chunked == c_tiled
    assert max_relative_error(chunked, naive_conv(x, flt, p)) <= 1e-4

    k3 = min(9, chunk)
    wsets = [k3] * (9 // k3)
    assert max(widths) == k3 * mk.n_win
    assert set(heights) == {p.oc}
    # each window set in exactly one multipack per batch image, under
    # both schedules
    assert chunked_widths == [t * mk.n_win for t in wsets] * p.n


@pytest.mark.parametrize("sched", [Schedule.InputStationary,
                                   Schedule.WeightStationary])
@pytest.mark.parametrize("k3,k2", [(3, 2), (2, 4)])
@pytest.mark.parametrize("adding", [None, "adding"])
def test_hook_calls_tile_each_set_pair_in_whole_tiles(rng, monkeypatch, sched,
                                                      k3, k2, adding):
    # 7 window tiles of 7 and 5 filter tiles of 4 (the last one 2 filters
    # short when oc = 18), K = 6*9 = 54 whatever nc says: a set pair is a
    # window set of k3 tiles (asked for explicitly) against all filters,
    # whatever k2 says, and each is one call, which writes its output
    # block once. The "adding" hook adds into acc, as one written for an
    # accumulating kernel would; acc arrives zeroed, so the output is the
    # same.
    for oc in (20, 18):
        _check_hook_calls(rng, monkeypatch, sched, k3, k2, adding, oc)


def _check_hook_calls(rng, monkeypatch, sched, k3, k2, adding, oc):
    p = ConvParams(n=2, ic=6, ih=9, iw=9, oc=oc, fh=3, fw=3)
    conv = ConvInfo(p)
    mk = MkInfo(n_win=7, n_f=4)
    plan = _plan_in_sets(monkeypatch, p, mk, sched, k3, k2)
    set_tiles = plan.set_tiles
    x, flt = rand_tensors(rng, p)
    calls = []

    def recording(pin, pf, acc):
        (k, width), height = pin.shape, acc.shape[0]
        assert pf.shape == (k, height) and acc.shape == (height, width)
        assert not acc.any()
        calls.append((acc.ctypes.data, k, height, width))
        if adding:
            acc += pf.T @ pin
        else:
            microkernel(pin, pf, acc)

    out, _ = plan.run(x, flt, hook=recording)
    cover = np.zeros((p.n, p.oc, conv.ohw), int)
    for data, k, height, width in calls:
        # where in the output the call's accumulator starts
        offset = (data - out.ctypes.data) // out.itemsize
        b, rest = divmod(offset, p.oc * conv.ohw)
        f0, w0 = divmod(rest, conv.ohw)
        # the whole reduction against every filter, and one window set of
        # whole tiles
        assert k == p.ic * 9
        assert (f0, height) == (0, p.oc)
        assert w0 % (set_tiles * mk.n_win) == 0
        assert width == min(set_tiles * mk.n_win, conv.ohw - w0)
        assert width % mk.n_win == 0
        cover[b, f0:f0 + height, w0:w0 + width] += 1
    # every output element once
    assert (cover == 1).all()
    assert len(calls) == p.n * -(-7 // set_tiles)
    assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4


def _full_depth_tile_bytes(p, mk):
    return p.ic * p.fh * p.fw * mk.n_win * 4


def _set_recorder(sets, p):
    """A hook that wraps microkernel and groups its calls into window sets.

    It refuses an accumulator that is not zeroed, a reduction that is not
    whole channels and a height other than oc. sets gets one [depth so
    far, width, chunk depths] per window set; a set is complete once its
    depths add up to ic*fh*fw, and each of its calls has its width.
    """
    ff, k = p.fh * p.fw, p.ic * p.fh * p.fw

    def record(pin, pf, acc):
        if acc.any():
            raise AssertionError("accumulator not zero on entry")
        depth, width = pin.shape
        if depth % ff:
            raise AssertionError(f"K {depth} is not whole channels")
        if pf.shape != (depth, p.oc):
            raise AssertionError(f"filters {pf.shape} != ({depth}, {p.oc})")
        if not sets or sets[-1][0] == k:
            sets.append([0, width, []])
        if width != sets[-1][1]:
            raise AssertionError(f"width {width} within a set of "
                                 f"{sets[-1][1]}")
        sets[-1][0] += depth
        sets[-1][2].append(depth)
        microkernel(pin, pf, acc)
    return record


def test_every_gemm_writes_a_zeroed_block_once(rng):
    # A hook that refuses an accumulator holding anything but zeros: each
    # output element is written by the first GEMM of exactly one window
    # set, against every filter, and a window set's GEMMs reduce over
    # consecutive channel chunks that together hold all channels. A set at
    # full depth holds at most l2_bytes in whole tiles (at least one); a
    # set that ends the layer may exceed that by its partial last tile,
    # fewer than n_win windows, since the window tail runs there. A
    # chunked set's chunk and its (oc, width) partial block together hold
    # at most L2, the partial tile included, and each chunk but the last
    # is at least oc rows deep. The third arch's L2 holds exactly one
    # full-depth tile.
    arches = (CALIBRATED_ARCH, load_arch(FIXTURES / "intel.toml"), None)
    schedules, calls, one_tile_sets, chunked = set(), 0, 0, 0
    for i in range(60):
        p = random_params(rng, max_ic=24, max_oc=48, max_out=16)
        mk = MkInfo(n_win=int(rng.choice((4, 8, 16))),
                    n_f=int(rng.choice((4, 8))))
        k = p.ic * p.fh * p.fw
        tile = _full_depth_tile_bytes(p, mk)
        arch = arches[i % 3]
        if arch is None:
            l1 = sum(tile_bytes(ConvInfo(p.padded()), mk, 1))
            arch = ArchInfo(l1_bytes=l1, l2_bytes=max(l1, tile),
                            l3_bytes=1 << 24)
        sets = []
        x, flt = rand_tensors(rng, p)
        out, info = run_convolution(x, flt, p, arch, mk,
                                    hook=_set_recorder(sets, p))
        assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4
        # each set's chunks add up to the whole reduction
        assert all(depth == k for depth, _, _ in sets)
        full = [width - width % mk.n_win
                for _, width, depths in sets if len(depths) == 1]
        assert all(k * width * 4 <= max(arch.l2_bytes, tile)
                   for width in full)
        if arch.l2_bytes < 2 * tile:
            assert max(full, default=0) <= mk.n_win
            one_tile_sets += 1
        for _, width, depths in sets:
            if len(depths) > 1:
                assert (max(depths) + p.oc) * width * 4 <= arch.l2_bytes
                assert min(depths[:-1]) >= p.oc
                chunked += 1
        schedules.add(info.strategy.schedule)
        calls += sum(len(depths) for _, _, depths in sets)
    assert schedules == set(SCHEDULES)
    assert one_tile_sets >= 15 and calls > 200, (one_tile_sets, calls)
    assert chunked >= 1


@pytest.mark.parametrize("sched", SCHEDULES)
def test_one_filter_set_per_region(rng, monkeypatch, sched):
    # conv5 3x3, 512 -> 512 at 7x7 pad 1 under intel.toml with 16x8: WS,
    # and the analysis's k2 of 56 filter tiles is short of all 64. Each
    # window range is still one region against every filter, so each
    # window tile is packed once per batch image under either schedule
    # (the IS run replaces the analysed schedule). The plan keeps the
    # 1-window tail region, but the layer runs as one span, so the
    # filters are taken once.
    p = ConvParams(n=1, ic=512, ih=7, iw=7, oc=512, fh=3, fw=3,
                   pad_h=1, pad_w=1)
    arch, mk = load_arch(FIXTURES / "intel.toml"), MkInfo(n_win=16, n_f=8)
    strat = analyze(ConvInfo(p.padded()), arch, mk)
    assert strat.schedule is Schedule.WeightStationary
    assert strat.k2 == 56 < p.oc // mk.n_f

    monkeypatch.setattr(engine, "analyze", lambda *a: replace(
        analyze(*a), schedule=sched))
    heights = []

    def recording(pin, pf, acc):
        heights.append(pf.shape[1])
        microkernel(pin, pf, acc)

    x, flt = rand_tensors(rng, p)
    counters = RunCounters()
    out, info = run_convolution(x, flt, p, arch, mk, hook=recording,
                                counters=counters)
    assert info.strategy.schedule is sched
    ranges = [(r.spatial_start, r.spatial_len) for r in info.regions]
    assert len(ranges) == len(set(ranges)) == 2
    assert all(r.oc_len == p.oc for r in info.regions)
    assert counters.input_packs == Counter({(0, t): 1 for t in range(4)})
    # one view of all 64 filter tiles, for the one span that runs
    assert counters.filter_packs == Counter({(0, f): 1 for f in range(64)})
    assert heights and set(heights) == {p.oc}
    assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4


def _traced_run(rng, p, arch, mk, set_tiles=None, chunk=None):
    """(output, traced peak bytes) of a plan and a run, at the engine's
    sizes unless given, after a warm-up run, checked against the
    oracle."""
    x, flt = rand_tensors(rng, p)
    ConvPlan(p, arch, mk, set_tiles, chunk).run(x, flt)  # warm-up
    tracemalloc.start()
    try:
        out, _ = ConvPlan(p, arch, mk, set_tiles, chunk).run(x, flt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4
    return out, peak


def test_window_set_memory_is_bounded_by_l2(rng):
    # IS, 32 -> 64 channels, 3x3 pad 1 at 40x40 under intel.toml: the
    # analysis sets k3 = 100 window tiles against L3, the whole layer, a
    # 1.8 MB set at full depth. A chunk beside the (64, 1600) partial
    # block would be one channel, 9 rows deep, so the layer runs in sets
    # capped to L2, and the run's traced peak stays within the output,
    # the padded input, l2_bytes and 64 KiB.
    p = ConvParams(n=1, ic=32, ih=40, iw=40, oc=64, fh=3, fw=3,
                   pad_h=1, pad_w=1)
    arch, mk = load_arch(FIXTURES / "intel.toml"), MkInfo(n_win=16, n_f=8)
    strat = analyze(ConvInfo(p.padded()), arch, mk)
    assert strat.schedule is Schedule.InputStationary and strat.k3 == 100
    assert strat.k3 * _full_depth_tile_bytes(p, mk) > arch.l2_bytes
    out, peak = _traced_run(rng, p, arch, mk)
    bound = out.nbytes + 32 * 42 * 42 * 4 + arch.l2_bytes + 64 * 1024
    assert bound == 1_225_216
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("sched", [Schedule.InputStationary,
                                   Schedule.WeightStationary])
def test_deep_reduction_matches_microkernel_hook_bitwise(rng, monkeypatch,
                                                        sched):
    # K = 64*3*3 = 576 with 16-window tiles: a hook that wraps microkernel
    # gets the built-in path's calls, so the outputs agree bit for bit.
    # The layer runs in window sets of 5 tiles under either analysed
    # schedule; the 4-window tail joins the last set.
    p = ConvParams(n=1, ic=64, ih=16, iw=16, oc=32, fh=3, fw=3)
    mk = MkInfo(n_win=16, n_f=8)
    plan = _plan_in_sets(monkeypatch, p, mk, sched, 5, 2)
    x, flt = rand_tensors(rng, p)
    depths = set()

    def wrapped(pin, pf, acc):
        depths.add(pin.shape[0])
        microkernel(pin, pf, acc)

    assert len(plan.sets) == 3
    outs = [plan.run(x, flt, hook=hook)[0] for hook in (None, wrapped)]
    assert depths == {576}
    assert np.array_equal(outs[0], outs[1])
    assert max_relative_error(outs[0], naive_conv(x, flt, p)) <= 1e-4


# conv4 and conv5 of ResNet-50 (bench/layers.jsonl), under intel.toml with
# 16x8: a window set at full depth (K = 2304 and 4608) holds 3 and 1 of
# their 12 and 3 main window tiles in L2, so the engine splits the
# reduction instead, into one window set per layer.
CONV4 = ConvParams(n=1, ic=256, ih=14, iw=14, oc=256, fh=3, fw=3,
                   pad_h=1, pad_w=1)
CONV5 = ConvParams(n=1, ic=512, ih=7, iw=7, oc=512, fh=3, fw=3,
                   pad_h=1, pad_w=1)


def _intel_16x8():
    return load_arch(FIXTURES / "intel.toml"), MkInfo(n_win=16, n_f=8)


def _layer_shape(p, arch, mk):
    """(set_tiles, chunk) as the engine sizes the layer's one span."""
    return engine._layer_shape(ConvInfo(p.padded()), arch, mk)


@pytest.mark.parametrize("p, main_shape",
                         [(CONV4, (12, 43)), (CONV5, (3, 171))],
                         ids=["conv4", "conv5"])
def test_deep_layers_chunk_the_reduction(rng, p, main_shape):
    # conv4 runs as one set of 12 window tiles in 6 chunks of at most 43
    # channels, conv5 as one set of 3 tiles in 3 chunks of 171. The window
    # tail (4 and 1 windows) is the partial last tile of that set, sized
    # with it, and runs in no GEMM of its own. Every hook call's reduction
    # is whole channels, a set's calls add up to all of them, and each
    # accumulator arrives zeroed, the partial block of a later chunk
    # included.
    arch, mk = _intel_16x8()
    conv = ConvInfo(p.padded())
    assert _layer_shape(p, arch, mk) == main_shape
    k = p.ic * p.fh * p.fw
    chunks = -(-p.ic // main_shape[1])
    sets = []
    x, flt = rand_tensors(rng, p)
    counters = RunCounters()
    out, info = run_convolution(x, flt, p, arch, mk,
                                hook=_set_recorder(sets, p),
                                counters=counters)
    assert [r.kind for r in info.regions] == [RegionKind.Remainder,
                                              RegionKind.Main]
    assert [(depth, width, len(depths)) for depth, width, depths in sets] \
        == [(k, conv.ohw, chunks)]
    builtin, _ = run_convolution(x, flt, p, arch, mk)
    assert np.array_equal(out, builtin)
    assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4
    # the chunks of a set are disjoint channel slices: each window and
    # filter tile counts one pack
    wtiles = -(-conv.ohw // mk.n_win)
    assert counters.input_packs == Counter(
        {(0, t): 1 for t in range(wtiles)})
    assert set(counters.filter_packs.values()) == {1}


def test_a_size_left_out_is_the_engines():
    # A plan given one of its two sizes takes the other from the engine's
    # sizing: conv4 given only its chunk, or only its set size, is its
    # default plan, and given sets of one tile, still runs in its chunks
    # of 43 channels, which only one window set may.
    arch, mk = _intel_16x8()
    plan = ConvPlan(CONV4, arch, mk)
    assert (plan.set_tiles, plan.chunk) == _layer_shape(CONV4, arch, mk)
    assert ConvPlan(CONV4, arch, mk, chunk=plan.chunk) == plan
    assert ConvPlan(CONV4, arch, mk, set_tiles=plan.set_tiles) == plan
    with pytest.raises(ValueError, match="runs as one window set"):
        ConvPlan(CONV4, arch, mk, set_tiles=1)


@pytest.mark.parametrize("p", [CONV4, CONV5], ids=["conv4", "conv5"])
def test_chunked_run_memory_is_bounded_by_l2(rng, p):
    # The packed chunk and the partial-sum block together hold at most L2,
    # and the input is padded one chunk at a time, so the run's traced
    # peak stays within the output, one chunk's padded block, l2_bytes and
    # 64 KiB (conv4: 834,560 B, which a whole padded input would exceed).
    # Adding a partial block into the output allocates nothing (see
    # test_later_chunk_add_allocates_nothing).
    arch, mk = _intel_16x8()
    _, chunk = _layer_shape(p, arch, mk)
    out, peak = _traced_run(rng, p, arch, mk)
    padded = chunk * (p.ih + 2) * (p.iw + 2) * 4
    bound = out.nbytes + padded + arch.l2_bytes + 64 * 1024
    assert peak <= bound, (peak, bound)


def test_a_wide_padded_layer_pads_in_chunks(rng):
    # 212 -> 28 channels, 5x5 at stride 3 and pad 2, 39x31 outputs, on a
    # 4x16 microkernel with 630 KiB of L2. In full-depth window sets of 7
    # tiles its one chunk of all 212 channels would be padded into a whole
    # padded image, 9.1 MiB. The engine runs it as one window set in
    # chunks of 4 channels, 100 rows for 28 filters, so the traced peak
    # stays within the bound of test_chunked_run_memory_is_bounded_by_l2.
    p = ConvParams(n=1, ic=212, ih=115, iw=91, oc=28, fh=5, fw=5,
                   stride_h=3, stride_w=3, pad_h=2, pad_w=2)
    arch = ArchInfo(l1_bytes=32 * 1024, l2_bytes=630 * 1024,
                    l3_bytes=1260 * 1024)
    mk = MkInfo(n_win=4, n_f=16)
    assert _layer_shape(p, arch, mk) == (302, 4)
    out, peak = _traced_run(rng, p, arch, mk)
    padded = 4 * (p.ih + 4) * (p.iw + 4) * 4
    bound = out.nbytes + padded + arch.l2_bytes + 64 * 1024
    assert peak <= bound < 212 * (p.ih + 4) * (p.iw + 4) * 4, (peak, bound)


def test_a_chunk_shallower_than_oc_stays_in_window_sets():
    # ic = oc = 128, 3x3 at 30x30 outputs under intel.toml with 16x8:
    # beside the (128, 900) partial block L2 holds a packed chunk of one
    # channel, 9 rows deep for 128 filters, a GEMM shape that ran several
    # times slower than full-depth sets. The layer runs in full-depth
    # window sets capped to L2 instead: 7 of its 56 whole tiles each.
    p = ConvParams(n=1, ic=128, ih=32, iw=32, oc=128, fh=3, fw=3)
    arch, mk = _intel_16x8()
    conv = ConvInfo(p)
    assert (arch.l2_bytes // 4 - p.oc * conv.ohw) // (9 * conv.ohw) == 1
    plan = ConvPlan(p, arch, mk)
    assert (plan.set_tiles, plan.chunk, len(plan.sets)) == (7, p.ic, 8)


def test_plans_do_not_read_the_l3():
    # Execution is sized by L2 alone: under intel.toml's L1 and L2, every
    # bench, smoke and deep layer plans the same set sizes, chunks and
    # window sets with no L3 as with 16 MiB of it, at four microkernels,
    # though the k3 the analysis reports moves with the L3.
    intel = load_arch(FIXTURES / "intel.toml")
    moved = 0
    for mk in (MkInfo(1, 1), MkInfo(16, 8), MkInfo(16, 16), MkInfo(128, 8)):
        for param in _shipped_layers():
            none, big = (ConvPlan(param.values[0], replace(intel, l3_bytes=l3),
                                  mk) for l3 in (0, 16 << 20))
            assert (none.set_tiles, none.chunk, none.sets) == (
                big.set_tiles, big.chunk, big.sets), param.id
            moved += none.strategy.k3 != big.strategy.k3
    assert moved >= 40


def _assert_chunk_fits_l2(plan):
    """A plan split into chunks holds its packed chunk and the (oc, ohw)
    partial block within l2_bytes, and each chunk is at least oc rows
    deep."""
    p, ohw = plan.params, plan.conv.ohw
    depth = plan.chunk * p.fh * p.fw
    assert (depth + p.oc) * ohw * 4 <= plan.arch.l2_bytes, plan
    assert depth >= p.oc, plan


def test_every_chunked_plan_fits_l2_beside_its_partial_block():
    # Random layers, machines and microkernels, drawn as
    # test_a_chunked_layer_is_one_window_set draws them, and the bench,
    # smoke and deep layers under the three arch files at four
    # microkernels.
    rng = np.random.default_rng(11)
    chunked = 0
    for _ in range(1000):
        try:
            plan = ConvPlan(*_random_case(rng, 256, 128, 40))
        except ValueError:
            continue
        if plan.chunk < plan.params.ic:
            _assert_chunk_fits_l2(plan)
            chunked += 1
    for name in ("fixtures/intel.toml", "bench/arch.toml",
                 "fixtures/calibrated.toml"):
        arch = load_arch(REPO_ROOT / name)
        for mk in (MkInfo(1, 1), MkInfo(16, 8), MkInfo(16, 16),
                   MkInfo(128, 8)):
            for param in _shipped_layers():
                plan = ConvPlan(param.values[0], arch, mk)
                if plan.chunk < plan.params.ic:
                    _assert_chunk_fits_l2(plan)
                    chunked += 1
    assert chunked >= 100


def test_padded_batch_run_pads_one_image_at_a_time(rng):
    # TAIL_CASES' batch2 layer, 24 channels padded by 2 on each side, run
    # in one chunk, in full-depth window sets capped to L2 (13 tiles; the
    # engine's own plan chunks the layer instead): each image is padded
    # into the same buffer in turn, so the traced peak is the output, one
    # padded image (55,200 B) and the packed-set buffer, not both padded
    # images.
    p = TAIL_CASES["batch2"][0]
    arch, mk = _intel_16x8()
    conv = ConvInfo(p.padded())
    set_tiles = arch.l2_bytes // _full_depth_tile_bytes(p, mk)
    assert set_tiles == 13
    width = max(cols for _, cols in kernel.window_sets(conv.ohw, set_tiles,
                                                       mk.n_win))
    image = p.ic * conv.params.ih * conv.params.iw * 4
    packed = p.ic * p.fh * p.fw * width * 4
    out, peak = _traced_run(rng, p, arch, mk, set_tiles, p.ic)
    bound = out.nbytes + image + packed + 8 * 1024
    assert bound < out.nbytes + p.n * image + packed
    assert peak <= bound, (peak, bound)


def test_chunked_padded_batch_matches_the_prepadded_input_bitwise(rng):
    # conv5 at batch 2 (fixtures/deep.jsonl) runs in 3 chunks of 171
    # channels (the last 170), each padded into a reused buffer per image.
    # The plan of the pad-0 problem, run on the input padded beforehand,
    # reads the padded tensor in place instead; both plans size the layer
    # alike, and the two runs, and the engine, agree bit for bit, with the
    # same GEMM calls in the same order.
    p = replace(CONV5, n=2)
    arch, mk = _intel_16x8()
    x, flt = rand_tensors(rng, p)
    outs, calls, shapes = [], [], []
    for q, xin in ((p, x), (p.padded(), pad_input(x, p))):
        plan = ConvPlan(q, arch, mk)
        seen = []

        def wrapped(pin, pf, acc):
            seen.append((pin.shape, acc.shape))
            microkernel(pin, pf, acc)

        outs.append(plan.run(xin, flt, hook=wrapped)[0])
        calls.append(seen)
        shapes.append((plan.set_tiles, plan.chunk, plan.sets))
    assert shapes[0] == shapes[1] and shapes[0][1] < p.ic
    engine_out, _ = run_convolution(x, flt, p, arch, mk)
    assert outs[0].tobytes() == outs[1].tobytes() == engine_out.tobytes()
    assert calls[0] == calls[1] and len(calls[0]) == p.n * 3
    assert max_relative_error(engine_out, naive_conv(x, flt, p)) <= 1e-4


def test_later_chunk_add_allocates_nothing(rng):
    # 17x17 outputs in 18 window tiles of 16 and a 1-window partial tile,
    # run as one window set of all 289 windows, in chunks of 3, 3 and 2 of
    # the 8 channels: two partial blocks are added into the (64, 289)
    # output. The run holds the output it allocates, the (27, 289) packed
    # chunk and the (64, 289) partial block, and nothing more: both
    # operands of the add are C-contiguous, so it allocates no temporary,
    # and the pack buffer holds the chunk's 27 rows, not the output's 64.
    p = ConvParams(n=1, ic=8, ih=19, iw=19, oc=64, fh=3, fw=3)
    conv = ConvInfo(p)
    plan = plan_at(p, MkInfo(n_win=16, n_f=8), 18, 3)
    assert plan.sets == ((0, 289),)
    x, flt = rand_tensors(rng, p)
    plan.run(x, flt)  # warm-up
    tracemalloc.start()
    try:
        out, _ = plan.run(x, flt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    packed = 3 * p.fh * p.fw * conv.ohw * 4
    partial = p.oc * conv.ohw * 4
    bound = out.nbytes + packed + partial + 8 * 1024
    assert peak <= bound, (peak, bound)
    assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4


# (layer, arch and microkernel, (set_tiles, chunk) or None for the
# engine's sizes, GEMM widths of one run in call order): the layer runs as
# one span of all its windows, so the window tail runs as the partial last
# tile of its last window set, and no GEMM is the tail alone unless the
# layer is all tail.
TAIL_CASES = {
    # one set of 3 tiles and the 1-window tail, in 3 channel chunks
    "conv5": (CONV5, "intel", None, [49] * 3),
    # one set of 12 tiles and the 4-window tail, in 6 channel chunks
    "conv4": (CONV4, "intel", None, [196] * 6),
    # one set of 12 tiles and the 4-window tail, in one chunk
    "pointwise": (ConvParams(n=1, ic=256, ih=14, iw=14, oc=1024,
                             fh=1, fw=1), "intel", None, [196]),
    # ohw = 9 < n_win: the tail is the only region and runs alone
    "all_tail": (ConvParams(n=1, ic=3, ih=5, iw=5, oc=3, fh=3, fw=3),
                 "intel", None, [9]),
    # the README example's plan with 8 filters: a main region of 348 tiles,
    # a k3 peel of 3 tiles and the 9-window tail, which run as one span of
    # 351 tiles and the tail, here in full-depth sets of 28 (the L2 cap)
    "peel": (ConvParams(n=1, ic=32, ih=77, iw=77, oc=8, fh=3, fw=3),
             "calibrated", (28, 32), [448] * 12 + [249]),
    # one set of 24 tiles and the 15-window tail, in 3 channel chunks, per
    # batch image
    "batch2": (ConvParams(n=2, ic=24, ih=19, iw=21, oc=30, fh=5, fw=5,
                          pad_h=2, pad_w=2), "intel", None, [399] * 6),
}


@pytest.mark.parametrize("case", list(TAIL_CASES))
def test_window_tail_runs_in_the_last_set(rng, case):
    p, arch_name, sizes, widths = TAIL_CASES[case]
    arch, mk = ((CALIBRATED_ARCH, REF_MK) if arch_name == "calibrated"
                else _intel_16x8())
    conv = ConvInfo(p.padded())
    strat = analyze(conv, arch, mk)
    regions = plan_regions(conv, strat, mk)
    # the plan keeps the window tail as a Remainder region
    tail = [r for r in regions if r.kind is RegionKind.Remainder]
    assert [r.spatial_len for r in tail] == [conv.ohw % mk.n_win]
    if case == "peel":
        assert sorted(r.spatial_len for r in regions) == [9, 48, 5568]
    x, flt = rand_tensors(rng, p)
    seen = []

    def wrapped(pin, pf, acc):
        seen.append(pin.shape[1])
        microkernel(pin, pf, acc)

    counters = RunCounters()
    plan = ConvPlan(p, arch, mk, *(sizes or ()))
    out, info = plan.run(x, flt, hook=wrapped, counters=counters)
    assert info.regions == tuple(regions)
    assert seen == widths
    # the layer's window sets, whatever its plan, per batch image and chunk
    assert seen == [cols for _ in range(p.n)
                    for _, cols in kernel.window_sets(conv.ohw,
                                                      plan.set_tiles,
                                                      mk.n_win)
                    for _ in range(-(-p.ic // plan.chunk))]
    # every window tile packed exactly once per batch image, the tail's
    # partial tile included
    wtiles = -(-conv.ohw // mk.n_win)
    assert counters.input_packs == Counter(
        {(b, t): 1 for b in range(p.n) for t in range(wtiles)})
    builtin, _ = plan.run(x, flt)
    assert np.array_equal(out, builtin)
    assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4


def test_deep_suite_holds_a_peel_followed_by_a_tail(rng):
    # fixtures/deep.jsonl, which CI runs through the installed CLI, holds
    # the pointwise layer (its chunks views of the input), a strided 1x1
    # downsample (copied) and a layer whose plan under intel.toml with
    # 16x8 has a k3 peel followed by the window tail: 198x198 outputs are
    # 2450 tiles and 4 windows, and k3 = 2427. ConvPlan.regions keeps that
    # plan, while the layer runs as one span of all its windows.
    cases, errors = load_suite(FIXTURES / "deep.jsonl")
    assert not errors
    params = {c.id: c.params for c in cases}
    assert "pointwise_256_1024_14" in params
    assert params["downsample_1x1_s2_256_512_28"].stride_h == 2
    arch, mk = _intel_16x8()
    p = params["peel_tail_3x3_32_198"]
    conv = ConvInfo(p.padded())
    strat = analyze(conv, arch, mk)
    assert strat.k3 == 2427
    widths = []

    def wrapped(pin, pf, acc):
        widths.append(pin.shape[1])
        microkernel(pin, pf, acc)

    x, flt = rand_tensors(rng, p)
    _, info = run_convolution(x, flt, p, arch, mk, hook=wrapped)
    assert info.strategy == strat
    assert [(r.kind, r.spatial_start, r.spatial_len)
            for r in info.regions] == [
        (RegionKind.Remainder, 39200, 4), (RegionKind.Main, 0, 38832),
        (RegionKind.Main, 38832, 368)]
    set_tiles, chunk = _layer_shape(p, arch, mk)
    assert (set_tiles, chunk) == (28, p.ic)
    assert widths == [cols for _, cols in
                      kernel.window_sets(conv.ohw, set_tiles, mk.n_win)]
    assert Counter(widths) == {448: 87, 228: 1}


@pytest.mark.parametrize("p, chunk", [
    (ConvParams(n=1, ic=3, ih=224, iw=224, oc=64, fh=7, fw=7,
                stride_h=2, stride_w=2, pad_h=3, pad_w=3), 3),
    (ConvParams(n=1, ic=64, ih=56, iw=56, oc=64, fh=3, fw=3,
                pad_h=1, pad_w=1), 64),
    (ConvParams(n=1, ic=32, ih=77, iw=77, oc=256, fh=3, fw=3), 32),
    (ConvParams(n=1, ic=256, ih=14, iw=14, oc=1024, fh=1, fw=1), 256),
    (ConvParams(n=1, ic=64, ih=15, iw=15, oc=100, fh=3, fw=3), 64),
    (ConvParams(n=1, ic=48, ih=23, iw=23, oc=60, fh=3, fw=3), 24),
    (ConvParams(n=2, ic=24, ih=19, iw=21, oc=30, fh=5, fw=5,
                pad_h=2, pad_w=2), 8),
    (replace(CONV4, oc=1024), 256),
], ids=["stem", "conv2", "paper_reference", "pointwise", "tail_64_100",
        "tail_48_60", "tail_batch2", "conv4_1024_filters"])
def test_regions_that_keep_one_chunk(p, chunk):
    # The resnet_early and tail_heavy layers of bench/layers.jsonl, the
    # pointwise layer of resnet_late and conv4 with 1024 filters: which of
    # them keep one chunk of all channels, by the L2 rule alone. pointwise
    # and tail_64_100 fit one full-depth set of all windows in L2. The
    # stem, conv2, paper_reference and conv4 with 1024 filters do not, and
    # no chunk of even one channel fits L2 beside their (oc, ohw) partial
    # block, so they keep one chunk in full-depth window sets capped to
    # L2. tail_48_60 and tail_batch2 keep one window set instead, in 2
    # chunks of 24 and 3 of 8 channels: each chunk is at least oc rows
    # deep, and its packed chunk and the partial block fit L2 together.
    arch, mk = _intel_16x8()
    conv = ConvInfo(p.padded())
    ff, wtiles = p.fh * p.fw, conv.ohw // mk.n_win
    capped = min(wtiles, arch.l2_bytes // _full_depth_tile_bytes(p, mk))
    if chunk < p.ic:
        assert _layer_shape(p, arch, mk) == (wtiles, chunk)
        assert (chunk * ff + p.oc) * conv.ohw * 4 <= arch.l2_bytes
        assert chunk * ff >= p.oc
    else:
        assert _layer_shape(p, arch, mk) == (capped, p.ic)
        assert capped == wtiles or (
            (ff + p.oc) * conv.ohw * 4 > arch.l2_bytes)


def test_a_chunked_layer_is_one_window_set():
    # Random layers, machines and microkernels, drawn as criterion 4 draws
    # them but with up to 256 channels and 40x40 outputs, so that many
    # of them split the reduction: wherever _layer_shape picks chunks of
    # fewer than ic channels, its set size gives one window set of all
    # the layer's windows, the only chunked shape a plan runs. Wherever
    # the analysis accepts a layer, ConvPlan plans it at those
    # sizes: the plan's own checks never refuse the engine's sizing, which
    # run_suite would otherwise report as an input error.
    rng = np.random.default_rng(7)
    planned = chunked = 0
    for _ in range(1000):
        p, arch, mk = _random_case(rng, 256, 128, 40)
        conv = ConvInfo(p.padded())
        try:
            analyze(conv, arch, mk)
        except ValueError:
            continue
        set_tiles, chunk = engine._layer_shape(conv, arch, mk)
        plan = ConvPlan(p, arch, mk)
        planned += 1
        assert (plan.set_tiles, plan.chunk) == (set_tiles, chunk)
        if chunk < p.ic:
            chunked += 1
            assert plan.sets == ((0, conv.ohw),), (p, arch, mk, set_tiles,
                                                   chunk)
    assert chunked >= 100 and planned >= 500


def _random_case(rng, max_ic, max_oc, max_out, n=1):
    """A random layer of at most max_ic and max_oc channels, max_out
    outputs a side and batch n, drawn as criterion 4 draws them, with a
    random microkernel and a random machine (a fifth of them with no
    L3)."""
    p = random_params(rng, max_ic=max_ic, max_oc=max_oc, max_out=max_out,
                      n=n)
    mk = MkInfo(n_win=int(rng.choice((4, 8, 16, 32))),
                n_f=int(rng.choice((4, 8, 16))))
    l1 = int(rng.integers(8, 257)) * 1024
    l2 = l1 * int(rng.integers(2, 17))
    l3 = 0 if rng.random() < 0.2 else l2 * int(rng.integers(2, 33))
    return p, ArchInfo(l1_bytes=l1, l2_bytes=l2, l3_bytes=l3), mk


def _run_into(plan, x, flt, fill):
    """plan's layer run by the built-in kernel into an output first filled
    with fill."""
    p, conv = plan.params, plan.conv
    out = np.full((p.n, p.oc, conv.oh, conv.ow), fill, DTYPE)
    kernel._run_layer(x, flt, out, p, conv, plan.sets, plan.chunk, plan.mk,
                      None, None)
    return out


def _assert_fill_is_overwritten(plan, x, flt):
    """The built-in kernel writes every output element: run into NaN, into
    zeros and by plan.run, the three outputs are bitwise equal."""
    nan = _run_into(plan, x, flt, np.nan)
    zeros = _run_into(plan, x, flt, 0.0)
    ran, _ = plan.run(x, flt)
    assert nan.tobytes() == zeros.tobytes() == ran.tobytes()


def test_random_layers_write_every_output_element(rng):
    # ConvPlan.run's output starts uninitialised, so a window set or loop
    # bug that skips a block would leave stale memory there. Random
    # layers, machines and microkernels, drawn as
    # test_a_chunked_layer_is_one_window_set draws them but smaller and
    # at batch 1 or 2, each run into a NaN-filled output, come out
    # bitwise equal to the run into zeros: chunked, padded, strided,
    # dilated, batched, pointwise read in place, window-tail and multi-set
    # layers. The engine runs most of these small layers as one set, so
    # every other layer that it runs in one chunk is run in window sets of
    # one tile instead.
    seen = Counter()
    for i in range(150):
        p, arch, mk = _random_case(rng, 96, 48, 24, n=int(rng.integers(1, 3)))
        try:
            plan = ConvPlan(p, arch, mk)
        except ValueError:
            continue
        if i % 2 and plan.chunk == p.ic:
            plan = replace(plan, set_tiles=1)
        _assert_fill_is_overwritten(plan, *rand_tensors(rng, p))
        seen.update({
            "chunked": plan.chunk < p.ic, "padded": p.pad_h > 0,
            "strided": p.stride_h > 1, "dilated": p.dil_h > 1,
            "batched": p.n > 1, "in place": reads_in_place(p),
            "tail": plan.conv.ohw % mk.n_win > 0,
            "several sets": len(plan.sets) > 1})
    assert min(seen.values()) >= 5, seen


def _shipped_layers():
    """The distinct layers of bench/layers.jsonl, fixtures/smoke.jsonl and
    fixtures/deep.jsonl (conv4, conv5 and the pointwise layer are in both
    the bench and the deep suite), by id."""
    bench = (REPO_ROOT / "bench" / "layers.jsonl").read_text()
    layers = {rec["id"]: ConvParams(**rec["params"])
              for rec in map(json.loads, bench.splitlines())}
    for name in ("smoke.jsonl", "deep.jsonl"):
        layers.update((c.id, c.params)
                      for c in load_suite(FIXTURES / name)[0])
    return [pytest.param(p, id=lid) for lid, p in layers.items()]


@pytest.mark.parametrize("mk", [MkInfo(1, 1), MkInfo(16, 8), MkInfo(128, 8)],
                         ids=["1x1", "16x8", "128x8"])
@pytest.mark.parametrize("p", _shipped_layers())
def test_shipped_layers_write_every_output_element(rng, p, mk):
    # The bench, smoke and deep layers under intel.toml, whose caches
    # bench/arch.toml pins, with the 1x1, 16x8 and 128x8 microkernels.
    plan = ConvPlan(p, load_arch(FIXTURES / "intel.toml"), mk)
    _assert_fill_is_overwritten(plan, *rand_tensors(rng, p))


def _drop_a_nan_output(plan, x, flt):
    """Run plan, fill its output with NaN and drop it, so that the next
    run's uninitialised output may hold that memory."""
    plan.run(x, flt)[0].fill(np.nan)


def _skip_every_other_call(calls):
    """A kernel to install at kernel.microkernel that records each call's
    accumulator and runs only every second call, from the second."""
    def skipping(pin, pf, acc):
        calls.append(acc.copy())
        if len(calls) % 2 == 0:
            microkernel(pin, pf, acc)
    return skipping


@pytest.mark.parametrize("p", [CONV4, TAIL_CASES["batch2"][0]],
                         ids=["conv4", "tail_batch2_5x5"])
def test_a_hook_gets_zeros_where_a_dropped_output_was(rng, p):
    # conv4 runs padded in 6 chunks of one window set, tail_batch2_5x5 in
    # 3 chunks of one set per image. After a run whose output is dropped,
    # a hook is still handed an all-zero accumulator on every call: the
    # first chunk's block of the output as well as each later partial
    # block.
    plan = ConvPlan(p, *_intel_16x8())
    x, flt = rand_tensors(rng, p)
    builtin, _ = plan.run(x, flt)
    _drop_a_nan_output(plan, x, flt)
    calls = []

    def hook(pin, pf, acc):
        calls.append(acc.any())
        microkernel(pin, pf, acc)

    out, _ = plan.run(x, flt, hook=hook)
    assert calls == [False] * (p.n * len(plan.sets) * -(-p.ic // plan.chunk))
    assert out.tobytes() == builtin.tobytes()


def test_a_skipped_window_set_leaves_zeros_not_a_dropped_output(
        rng, monkeypatch):
    # tail_batch2_5x5 run in one chunk, in two full-depth window sets of
    # 13 tiles per image. With a kernel installed at kernel.microkernel
    # that skips each image's first set, after a run whose output was
    # dropped, those blocks are exactly 0.0 and the others are the
    # built-in kernel's.
    p = TAIL_CASES["batch2"][0]
    plan = ConvPlan(p, *_intel_16x8(), set_tiles=13, chunk=p.ic)
    assert len(plan.sets) == 2
    x, flt = rand_tensors(rng, p)
    builtin, _ = plan.run(x, flt)
    _drop_a_nan_output(plan, x, flt)
    calls = []
    monkeypatch.setattr(kernel, "microkernel", _skip_every_other_call(calls))
    out, _ = plan.run(x, flt)
    assert len(calls) == p.n * 2 and not any(acc.any() for acc in calls)
    (w0, skipped), (w1, ran) = plan.sets
    out, builtin = (a.reshape(p.n, p.oc, -1) for a in (out, builtin))
    assert (out[:, :, w0:w0 + skipped] == 0.0).all()
    assert np.array_equal(out[:, :, w1:w1 + ran], builtin[:, :, w1:w1 + ran])


def test_a_skipped_chunk_adds_zeros_not_a_dropped_output(rng, monkeypatch):
    # conv4 runs padded in 6 chunks of 43 channels (the last 41) of one
    # window set. A kernel installed at kernel.microkernel that skips
    # chunks 0, 2 and 4, after a run whose output was dropped, leaves
    # zeros for them, the first chunk's output block included: the output
    # is the built-in run's on an input whose skipped channels are zero.
    plan = ConvPlan(CONV4, *_intel_16x8())
    assert plan.chunk == 43 and len(plan.sets) == 1
    x, flt = rand_tensors(rng, CONV4)
    masked = x.copy()
    for c0 in range(0, CONV4.ic, 2 * plan.chunk):
        masked[:, c0:c0 + plan.chunk] = 0.0
    expected, _ = plan.run(masked, flt)
    _drop_a_nan_output(plan, x, flt)
    calls = []
    monkeypatch.setattr(kernel, "microkernel", _skip_every_other_call(calls))
    out, _ = plan.run(x, flt)
    assert len(calls) == 6 and not any(acc.any() for acc in calls)
    assert np.array_equal(out, expected)
