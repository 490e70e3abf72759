import math
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import (CALIBRATED_ARCH, FIXTURES, REF_MK, conv_info,
                      rand_tensors, random_params)
from slicedconv import (ArchInfo, ConvParams, KernelRegion, MkInfo, RegionKind,
                        RunCounters, Schedule, TilingStrategy, analyze,
                        execute_region, load_arch, microkernel, naive_conv,
                        run_convolution)
from slicedconv import engine, kernel
from slicedconv.harness import max_relative_error
from slicedconv.model import DTYPE
from slicedconv.packing import pack_input
from slicedconv.regions import plan_regions
from slicedconv.strategy import tile_bytes

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
    # The analysed schedule orders nothing in execution: an engine run
    # under either, in window sets of k3 = 3 tiles and a one-window tail,
    # matches the oracle, and the two outputs agree bit for bit.
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


def test_single_region_touches_only_its_window(rng):
    p = ConvParams(n=1, ic=4, ih=10, iw=10, oc=8, fh=3, fw=3)
    conv = conv_info(p)
    mk = MkInfo(n_win=4, n_f=4)
    strat = analyze(conv, CALIBRATED_ARCH, mk)
    regions = [r for r in plan_regions(conv, strat, mk) if r.kind is RegionKind.Main]
    region = regions[0]
    x, flt = rand_tensors(rng, p)
    out = np.zeros((1, 8, conv.oh, conv.ow), dtype=np.float32)
    execute_region(x, flt, out, conv, region, strat.k3, mk)
    ref = naive_conv(x, flt, p).reshape(1, 8, -1)
    got = out.reshape(1, 8, -1)
    s0, s1 = region.spatial_start, region.spatial_start + region.spatial_len
    o0, o1 = region.oc_start, region.oc_start + region.oc_len
    inside_got = got[:, o0:o1, s0:s1]
    inside_ref = ref[:, o0:o1, s0:s1]
    assert max_relative_error(inside_got, inside_ref) <= 1e-4
    mask = np.ones_like(got, dtype=bool)
    mask[:, o0:o1, s0:s1] = False
    assert np.all(got[mask] == 0)


def test_region_order_is_irrelevant(rng):
    p = ConvParams(n=1, ic=9, ih=11, iw=11, oc=12, fh=3, fw=3)  # oc/spatial tails
    conv = conv_info(p)
    mk = MkInfo(n_win=4, n_f=4)
    strat = analyze(conv, CALIBRATED_ARCH, mk)
    regions = plan_regions(conv, strat, mk)
    assert len(regions) >= 2
    x, flt = rand_tensors(rng, p)

    def run(order):
        out = np.zeros((1, 12, conv.oh, conv.ow), dtype=np.float32)
        for region in order:
            execute_region(x, flt, out, conv, region, strat.k3, mk)
        return out

    a = run(regions)
    b = run(list(reversed(regions)))
    assert np.array_equal(a, b)


def test_execute_region_nine_window_tail(rng):
    # the 75x75 example's 9-window tail, checked against the oracle
    from conftest import REF_PARAMS
    conv = conv_info(REF_PARAMS)
    strat = analyze(conv, CALIBRATED_ARCH, REF_MK)
    tail = [r for r in plan_regions(conv, strat, REF_MK)
            if r.kind is RegionKind.Remainder][0]
    assert tail.spatial_len == 9
    p_small = ConvParams(n=1, ic=2, ih=77, iw=77, oc=4, fh=3, fw=3)
    conv_small = conv_info(p_small)
    x, flt = rand_tensors(rng, p_small)
    tail_small = type(tail)(spatial_start=5616, spatial_len=9, oc_start=0,
                            oc_len=4, ic_start=0, ic_len=2,
                            kind=RegionKind.Remainder, e_off=5616)
    ref = naive_conv(x, flt, p_small).reshape(1, 4, -1)
    out = np.zeros((1, 4, 75, 75), dtype=np.float32)
    execute_region(x, flt, out, conv_small, tail_small, 1, REF_MK)
    got = out.reshape(1, 4, -1)
    assert np.allclose(got[:, :, 5616:], ref[:, :, 5616:],
                       rtol=1e-5, atol=1e-6)
    assert np.all(got[:, :, :5616] == 0)


def test_execute_region_empty_region_is_noop():
    p = ConvParams(n=1, ic=2, ih=6, iw=6, oc=4, fh=3, fw=3)
    conv = conv_info(p)
    mk = MkInfo(n_win=4, n_f=4)
    out = np.zeros((1, 4, 4, 4), dtype=np.float32)
    region = KernelRegion(spatial_start=0, spatial_len=0, oc_start=0, oc_len=4,
                          ic_start=0, ic_len=2, kind=RegionKind.Remainder,
                          e_off=0)
    x = np.ones((1, 2, 6, 6), dtype=np.float32)
    flt = np.ones((4, 2, 3, 3), dtype=np.float32)
    execute_region(x, flt, out, conv, region, 1, mk)
    assert np.all(out == 0)


@pytest.mark.parametrize("set_tiles", [0, -1, 2.0, True])
def test_execute_region_rejects_a_bad_set_size(set_tiles):
    # A set size below 1 would make an empty window-set loop and leave the
    # region unwritten; a float or a bool is not a tile count. Each is
    # refused before anything is written.
    p = ConvParams(n=1, ic=2, ih=6, iw=6, oc=4, fh=3, fw=3)
    conv = conv_info(p)
    mk = MkInfo(n_win=4, n_f=4)
    region = KernelRegion(spatial_start=0, spatial_len=16, oc_start=0,
                          oc_len=4, ic_start=0, ic_len=2,
                          kind=RegionKind.Main, e_off=0)
    x = np.ones((1, 2, 6, 6), dtype=np.float32)
    flt = np.ones((4, 2, 3, 3), dtype=np.float32)
    out = np.full((1, 4, 4, 4), 7.0, dtype=np.float32)
    error = TypeError if isinstance(set_tiles, (bool, float)) else ValueError
    with pytest.raises(error, match="set_tiles"):
        execute_region(x, flt, out, conv, region, set_tiles, mk)
    assert np.all(out == 7.0)


def test_execute_region_rejects_a_channel_split():
    # each window set's GEMM writes its output block, so a region over part
    # of the channels would leave a partial sum: rejected before writing
    p = ConvParams(n=1, ic=4, ih=6, iw=6, oc=4, fh=3, fw=3)
    conv = conv_info(p)
    mk = MkInfo(n_win=4, n_f=4)
    out = np.zeros((1, 4, 4, 4), dtype=np.float32)
    x = np.ones((1, 4, 6, 6), dtype=np.float32)
    flt = np.ones((4, 4, 3, 3), dtype=np.float32)
    for c0, clen in ((0, 2), (2, 2)):
        region = KernelRegion(spatial_start=0, spatial_len=16, oc_start=0,
                              oc_len=4, ic_start=c0, ic_len=clen,
                              kind=RegionKind.Main, e_off=0)
        with pytest.raises(ValueError, match="does not accumulate"):
            execute_region(x, flt, out, conv, region, 1, mk)
    assert np.all(out == 0)


def test_execute_region_tail_spanning_row_break(rng):
    square = ConvParams(n=1, ic=3, ih=9, iw=9, oc=5, fh=3, fw=3)  # 7x7 out
    strided = ConvParams(n=2, ic=3, ih=13, iw=12, oc=7, fh=3, fw=2,
                         stride_h=2, dil_w=2)  # 6x10 out
    cases = [
        # (params, n_win, windows [s0, s0+len), filters [o0, o0+len))
        (square, 16, (4, 13), (0, 5)),   # one partial tile, two row breaks
        (square, 4, (4, 13), (0, 5)),    # three tiles, [4, 8) crosses a row
        (strided, 3, (7, 41), (4, 3)),   # batch 2, stride and dilation
    ]
    for p, n_win, (s0, slen), (o0, olen) in cases:
        conv = conv_info(p)
        mk = MkInfo(n_win=n_win, n_f=4)
        x, flt = rand_tensors(rng, p)
        region = KernelRegion(spatial_start=s0, spatial_len=slen, oc_start=o0,
                              oc_len=olen, ic_start=0, ic_len=p.ic,
                              kind=RegionKind.Remainder, e_off=s0)
        ref = naive_conv(x, flt, p).reshape(p.n, p.oc, -1)
        inside = np.s_[:, o0:o0 + olen, s0:s0 + slen]
        # window sets of one tile, of two, and of up to eight, which
        # hold all of each region but the strided one's 12 tiles
        for set_tiles in (1, 2, 8):
            out = np.zeros((p.n, p.oc, conv.oh, conv.ow), dtype=np.float32)
            execute_region(x, flt, out, conv, region, set_tiles, mk)
            got = out.reshape(p.n, p.oc, -1)
            assert np.allclose(got[inside], ref[inside], rtol=1e-5, atol=1e-6)
            got[inside] = 0
            assert np.all(got == 0)


def test_hook_wrapping_builtin_is_bit_identical(rng):
    p = random_params(rng, max_ic=8, max_oc=16, max_out=10)
    mk = MkInfo(n_win=4, n_f=4)
    baseline, _, _, (x, flt) = _run_engine_case(rng, p, mk)

    def wrapped(pin, pf, acc):
        microkernel(pin, pf, acc)

    out, _ = run_convolution(x, flt, p, CALIBRATED_ARCH, mk, hook=wrapped)
    assert np.array_equal(out, baseline)


def test_hook_sees_the_window_tail(rng):
    # ohw = 9 < n_win: the only region is the window tail, a Remainder;
    # ohw = 121 is 7 tiles of 16 in Main regions and a 9-window tail
    all_tail = ConvParams(n=2, ic=3, ih=5, iw=5, oc=3, fh=3, fw=3)
    with_main = ConvParams(n=1, ic=5, ih=13, iw=13, oc=12, fh=3, fw=3)
    mk = MkInfo(n_win=16, n_f=8)
    for p in (all_tail, with_main):
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
        assert widths.count(9) == p.n  # one tail GEMM per batch image

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


def test_weight_stationary_run_holds_no_filter_set_copy(rng):
    # Pointwise 256 -> 1024 at 4x4 under intel.toml: weight-stationary,
    # one 1024-filter set over all 256 channels, and a filter tensor of
    # 1 MiB next to a 64 KiB output. Filter sets are views of the filter
    # tensor, so the run's whole traced peak stays below the bytes of
    # even a quarter of that set (the analysis's 64 channels), which a
    # run that copied its sets would hold on top.
    p = ConvParams(n=1, ic=256, ih=4, iw=4, oc=1024, fh=1, fw=1)
    arch, mk = load_arch(FIXTURES / "intel.toml"), MkInfo(n_win=16, n_f=8)
    strat = analyze(conv_info(p), arch, mk)
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


def test_accumulator_touch_count(rng):
    # ic 10 is 3 blocks of the analysis's nc=4, but the GEMM reduces over
    # all 10; oc 10 ends in a partial 2-filter tile
    for oc in (8, 10):
        _check_accumulator_touches(rng, oc)


def _check_accumulator_touches(rng, oc):
    p = ConvParams(n=2, ic=10, ih=12, iw=12, oc=oc, fh=3, fw=3)
    conv = conv_info(p)
    mk = MkInfo(n_win=5, n_f=4)
    arch = ArchInfo(l1_bytes=2048, l2_bytes=64 * 1024, l3_bytes=256 * 1024)
    strat = analyze(conv, arch, mk)
    assert strat.nc < p.ic and p.ic % strat.nc  # analysed channel blocks
    counters = RunCounters()
    x, flt = rand_tensors(rng, p)
    out, info = run_convolution(x, flt, p, arch, mk, counters=counters)
    assert all(r.ic_len == p.ic for r in info.regions)
    # every output tile, the partial filter tile and the window tail
    # included, is written once, and every tile is packed once per reuse
    # scope
    wtiles = math.ceil(conv.ohw / mk.n_win)
    ftiles = math.ceil(p.oc / mk.n_f)
    assert len(counters.acc_touches) == p.n * wtiles * ftiles
    assert set(counters.acc_touches.values()) == {1}
    assert set(counters.input_packs.values()) == {1}
    assert set(counters.filter_packs.values()) == {1}
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
    # each region's filters taken once, as one view, keyed by the region's
    # first window tile
    assert counters.filter_packs == Counter(
        {(s, f): 1 for s in starts for f in range(4)})
    assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4


def _engine_set_tiles(sched, k3, k2, region, conv, mk):
    """The engine's window-set size for an analysed strategy: k3, whatever
    the schedule and k2 say (the L2 cap does not bind at these sizes)."""
    strat = TilingStrategy(schedule=sched, nc=4, k2=k2, k3=k3,
                           r_nc=0, r_k2=0, r_k3=0)
    set_tiles = engine._window_set_tiles(region, strat, conv,
                                         CALIBRATED_ARCH, mk)
    assert set_tiles == k3
    return set_tiles


@pytest.mark.parametrize("sched", [Schedule.InputStationary,
                                   Schedule.WeightStationary])
@pytest.mark.parametrize("k3,k2", [(3, 2), (2, 4)])
def test_set_product_matches_per_tile_hook(rng, sched, k3, k2):
    # 49 windows in 7 tiles of 7, or in 9 tiles of 6 whose last one holds
    # a single window, and 5 filter tiles: the last window set is partial,
    # and with n_win = 6 and k3 = 3 it is two whole window tiles and a
    # partial one. The schedule and k2 size nothing: (3, 2) and (2, 4)
    # differ only in the window-set size
    for n_win in (7, 6):
        _check_set_product(rng, sched, k3, k2, n_win)


def _check_set_product(rng, sched, k3, k2, n_win):
    p = ConvParams(n=2, ic=6, ih=9, iw=9, oc=20, fh=3, fw=3)
    conv = conv_info(p)
    mk = MkInfo(n_win=n_win, n_f=4)
    region = KernelRegion(spatial_start=0, spatial_len=conv.ohw, oc_start=0,
                          oc_len=p.oc, ic_start=0, ic_len=p.ic,
                          kind=RegionKind.Main, e_off=0)
    set_tiles = _engine_set_tiles(sched, k3, k2, region, conv, mk)
    x, flt = rand_tensors(rng, p)

    def run(hook):
        counters = RunCounters()
        out = np.zeros((p.n, p.oc, conv.oh, conv.ow), dtype=np.float32)
        execute_region(x, flt, out, conv, region, set_tiles, mk, hook=hook,
                       counters=counters)
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
    wtiles = -(-conv.ohw // n_win)
    assert heights == [p.oc] * (p.n * -(-wtiles // set_tiles))
    # all 6 channels in one GEMM: each tile written once
    assert set(c_batched.acc_touches.values()) == {1}
    assert max_relative_error(batched, naive_conv(x, flt, p)) <= 1e-4


@pytest.mark.parametrize("sched", [Schedule.InputStationary,
                                   Schedule.WeightStationary])
@pytest.mark.parametrize("chunk", [1, 3, 16])
def test_chunked_sets_match_per_tile_hook(rng, monkeypatch, sched, chunk):
    # Window sets are chunked to L2: the engine caps the analysed k3 at
    # the full-depth window tiles l2_bytes holds, here `chunk` of them.
    # 6x6 outputs in 9 window tiles of 4, so tiles 1, 4 and 7 cross a row
    # break. K = 8*2*2 = 32 at full depth, so a window tile is 512 B. The
    # analysis sets k3 = 9, the whole region, against L3; chunks of 1 and
    # 3 cut it, 16 leaves it. 6 filter tiles, one filter set of all 24
    # filters whatever the analysed k2, and the plan is one region.
    p = ConvParams(n=2 if sched is Schedule.InputStationary else 1,
                   ic=8, ih=7, iw=7, oc=24, fh=2, fw=2)
    mk = MkInfo(n_win=4, n_f=4)
    tile = p.ic * p.fh * p.fw * mk.n_win * 4
    arch = ArchInfo(l1_bytes=512, l2_bytes=chunk * tile, l3_bytes=1 << 20)
    x, flt = rand_tensors(rng, p)
    pack_nts = []

    def counting_pack_input(*args, **kw):
        pack_nts.append(kw["nt"])
        return pack_input(*args, **kw)

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
    chunked_nts = list(pack_nts)
    tiled, _, c_tiled = run(per_tile)
    assert info.strategy.schedule is sched and info.strategy.k3 == 9
    assert info.strategy.nc < p.ic and len(info.regions) == 1
    assert np.array_equal(chunked, tiled)
    assert c_chunked == c_tiled
    assert set(c_chunked.acc_touches.values()) == {1}
    assert max_relative_error(chunked, naive_conv(x, flt, p)) <= 1e-4

    k3 = min(9, chunk)
    wsets = [k3] * (9 // k3)
    assert max(widths) == k3 * mk.n_win
    assert set(heights) == {p.oc}
    # each window set in exactly one multipack per batch image, under
    # both schedules
    assert chunked_nts == wsets * p.n


@pytest.mark.parametrize("sched", [Schedule.InputStationary,
                                   Schedule.WeightStationary])
@pytest.mark.parametrize("k3,k2", [(3, 2), (2, 4)])
@pytest.mark.parametrize("adding", [None, "adding"])
def test_hook_calls_tile_each_set_pair_in_whole_tiles(rng, sched, k3, k2,
                                                      adding):
    # 7 window tiles of 7 and 5 filter tiles of 4 (the last one 2 filters
    # short when oc = 18), K = 6*9 = 54 whatever nc says: a set pair is a
    # window set of k3 tiles against all filters, whatever k2 says, and
    # each is one call, which writes its output block once. The "adding"
    # hook adds into acc, as one written for an accumulating kernel
    # would; acc arrives zeroed, so the output is the same.
    for oc in (20, 18):
        _check_hook_calls(rng, sched, k3, k2, adding, oc)


def _check_hook_calls(rng, sched, k3, k2, adding, oc):
    p = ConvParams(n=2, ic=6, ih=9, iw=9, oc=oc, fh=3, fw=3)
    conv = conv_info(p)
    mk = MkInfo(n_win=7, n_f=4)
    region = KernelRegion(spatial_start=0, spatial_len=conv.ohw, oc_start=0,
                          oc_len=p.oc, ic_start=0, ic_len=p.ic,
                          kind=RegionKind.Main, e_off=0)
    set_tiles = _engine_set_tiles(sched, k3, k2, region, conv, mk)
    x, flt = rand_tensors(rng, p)
    out = np.zeros((p.n, p.oc, conv.oh, conv.ow), dtype=np.float32)
    calls = []

    def recording(pin, pf, acc):
        (k, width), height = pin.shape, acc.shape[0]
        assert pf.shape == (k, height) and acc.shape == (height, width)
        assert not acc.any()
        offset = (acc.ctypes.data - out.ctypes.data) // acc.itemsize
        b, rest = divmod(offset, p.oc * conv.ohw)
        calls.append((b, k, *divmod(rest, conv.ohw), height, width))
        if adding:
            acc += pf.T @ pin
        else:
            microkernel(pin, pf, acc)

    execute_region(x, flt, out, conv, region, set_tiles, mk, hook=recording)
    cover = np.zeros((p.n, p.oc, conv.ohw), int)
    for b, k, f0, w0, height, width in calls:
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


def test_every_gemm_writes_a_zeroed_block_once(rng):
    # A hook that refuses an accumulator holding anything but zeros: each
    # output element is written by exactly one GEMM, over all channels
    # and against every filter, and a window set at full depth holds at
    # most l2_bytes (at least one tile). The third arch's L2 holds exactly
    # one full-depth tile.
    arches = (CALIBRATED_ARCH, load_arch(FIXTURES / "intel.toml"), None)
    schedules, calls, one_tile_sets = set(), 0, 0
    for i in range(60):
        p = random_params(rng, max_ic=24, max_oc=48, max_out=16)
        mk = MkInfo(n_win=int(rng.choice((4, 8, 16))),
                    n_f=int(rng.choice((4, 8))))
        k = p.ic * p.fh * p.fw
        tile = _full_depth_tile_bytes(p, mk)
        arch = arches[i % 3]
        if arch is None:
            l1 = sum(tile_bytes(conv_info(p.padded()), mk, 1))
            arch = ArchInfo(l1_bytes=l1, l2_bytes=max(l1, tile),
                            l3_bytes=1 << 24)
        widths = []

        def write_once(pin, pf, acc):
            if acc.any():
                raise AssertionError("accumulator not zero on entry")
            widths.append(pin.shape[1])
            if pin.shape[0] != k:
                raise AssertionError(f"K {pin.shape[0]} != ic*fh*fw {k}")
            if pf.shape[1] != p.oc:
                raise AssertionError(f"height {pf.shape[1]} != oc {p.oc}")
            microkernel(pin, pf, acc)

        x, flt = rand_tensors(rng, p)
        out, info = run_convolution(x, flt, p, arch, mk, hook=write_once)
        assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4
        assert all(k * w * 4 <= max(arch.l2_bytes, tile) for w in widths)
        if arch.l2_bytes < 2 * tile:
            assert max(widths) <= mk.n_win
            one_tile_sets += 1
        schedules.add(info.strategy.schedule)
        calls += len(widths)
    assert schedules == set(SCHEDULES)
    assert one_tile_sets >= 15 and calls > 200, (one_tile_sets, calls)


@pytest.mark.parametrize("sched", SCHEDULES)
def test_one_filter_set_per_region(rng, monkeypatch, sched):
    # conv5 3x3, 512 -> 512 at 7x7 pad 1 under intel.toml with 16x8: WS,
    # and the analysis's k2 of 56 filter tiles is short of all 64. Each
    # window range is still one region against every filter, so each
    # window tile is packed once per batch image under either schedule
    # (the IS run replaces the analysed schedule).
    p = ConvParams(n=1, ic=512, ih=7, iw=7, oc=512, fh=3, fw=3,
                   pad_h=1, pad_w=1)
    arch, mk = load_arch(FIXTURES / "intel.toml"), MkInfo(n_win=16, n_f=8)
    strat = analyze(conv_info(p.padded()), arch, mk)
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
    assert all((r.oc_start, r.oc_len) == (0, p.oc) for r in info.regions)
    assert counters.input_packs == Counter({(0, t): 1 for t in range(4)})
    # one view of all 64 filter tiles per region
    assert counters.filter_packs == Counter(
        {(s // mk.n_win, f): 1 for s, _ in ranges for f in range(64)})
    assert heights and set(heights) == {p.oc}
    assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4


def test_window_set_memory_is_bounded_by_l2(rng):
    # IS, 32 -> 64 channels, 3x3 pad 1 at 40x40 under intel.toml: the
    # analysis sets k3 = 100 window tiles against L3, a 1.8 MB set at
    # full depth. Capped to L2, the run's traced peak stays within the
    # output, the padded input, l2_bytes and 64 KiB.
    p = ConvParams(n=1, ic=32, ih=40, iw=40, oc=64, fh=3, fw=3,
                   pad_h=1, pad_w=1)
    arch, mk = load_arch(FIXTURES / "intel.toml"), MkInfo(n_win=16, n_f=8)
    strat = analyze(conv_info(p.padded()), arch, mk)
    assert strat.schedule is Schedule.InputStationary and strat.k3 == 100
    assert strat.k3 * _full_depth_tile_bytes(p, mk) > arch.l2_bytes
    x, flt = rand_tensors(rng, p)
    run_convolution(x, flt, p, arch, mk)  # warm-up
    tracemalloc.start()
    try:
        out, _ = run_convolution(x, flt, p, arch, mk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = out.nbytes + 32 * 42 * 42 * 4 + arch.l2_bytes + 64 * 1024
    assert bound == 1_225_216
    assert peak <= bound, (peak, bound)
    assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4


@pytest.mark.parametrize("sched", [Schedule.InputStationary,
                                   Schedule.WeightStationary])
def test_deep_reduction_matches_microkernel_hook_bitwise(rng, sched):
    # K = 64*3*3 = 576 with 16-window tiles: a hook that wraps microkernel
    # gets the built-in path's calls, so the outputs agree bit for bit.
    # The engine sizes window sets of k3 = 5 tiles under either schedule.
    p = ConvParams(n=1, ic=64, ih=16, iw=16, oc=32, fh=3, fw=3)
    conv = conv_info(p)
    mk = MkInfo(n_win=16, n_f=8)
    region = KernelRegion(spatial_start=0, spatial_len=192, oc_start=0,
                          oc_len=p.oc, ic_start=0, ic_len=p.ic,
                          kind=RegionKind.Main, e_off=0)
    set_tiles = _engine_set_tiles(sched, 5, 2, region, conv, mk)
    x, flt = rand_tensors(rng, p)
    depths = set()

    def wrapped(pin, pf, acc):
        depths.add(pin.shape[0])
        microkernel(pin, pf, acc)

    outs = []
    for hook in (None, wrapped):
        out = np.zeros((p.n, p.oc, conv.oh, conv.ow), dtype=np.float32)
        execute_region(x, flt, out, conv, region, set_tiles, mk, hook=hook)
        outs.append(out)
    assert depths == {576}
    assert np.array_equal(outs[0], outs[1])
    got = outs[0].reshape(p.oc, -1)[:, :192]
    ref = naive_conv(x, flt, p).reshape(p.oc, -1)[:, :192]
    assert max_relative_error(got, ref) <= 1e-4
