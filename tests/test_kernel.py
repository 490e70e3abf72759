import sys
import threading

import numpy as np
import pytest

from conftest import CALIBRATED_ARCH, REF_MK, conv_info, rand_tensors, random_params
from slicedconv import (ArchInfo, ConvParams, KernelRegion, MkInfo, RegionKind,
                        RunCounters, Schedule, TilingStrategy, analyze,
                        build_plan, execute_region, microkernel, naive_conv,
                        naive_fallback_region, run_convolution)
from slicedconv import kernel
from slicedconv.harness import max_relative_error
from slicedconv.model import DTYPE
from slicedconv.packing import pack_input
from slicedconv.regions import plan_regions


def make_accumulator(n_f, n_win):
    return np.zeros((n_f, n_win), dtype=DTYPE)


def test_microkernel_single_outer_product():
    pin = np.array([[5.0, 7.0]], dtype=np.float32)   # K=1, n_win=2
    pf = np.array([[2.0, 3.0]], dtype=np.float32)    # K=1, n_f=2
    acc = make_accumulator(2, 2)
    microkernel(pin, pf, acc)
    assert np.array_equal(acc, [[10, 14], [15, 21]])
    microkernel(pin, pf, acc)  # pure accumulation, no zeroing
    assert np.array_equal(acc, [[20, 28], [30, 42]])


def test_microkernel_zero_filter_is_identity():
    rng = np.random.default_rng(1)
    pin = rng.uniform(-1, 1, (12, 4)).astype(np.float32)
    acc = rng.uniform(-1, 1, (3, 4)).astype(np.float32)
    before = acc.copy()
    microkernel(pin, np.zeros((12, 3), dtype=np.float32), acc)
    assert np.array_equal(acc, before)


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


def _ref_region_and_strategy():
    from conftest import REF_PARAMS
    conv = conv_info(REF_PARAMS)
    strat = analyze(conv, CALIBRATED_ARCH, REF_MK)
    regions = plan_regions(conv, strat, REF_MK)
    main = max((r for r in regions if r.kind is RegionKind.Main),
               key=lambda r: r.spatial_len)
    return conv, strat, main


def test_build_plan_is_order_and_multipack():
    conv, strat, main = _ref_region_and_strategy()
    plan = build_plan(main, strat, REF_MK)
    dims = [l.dim for l in plan.loops]
    assert dims == ["batch", "channel", "window_set", "filter_set",
                    "window_tile", "filter_tile"]
    steps = {l.dim: l.step for l in plan.loops}
    assert steps["channel"] == strat.nc
    assert steps["window_set"] == strat.k3
    assert steps["filter_set"] == strat.k2


def test_build_plan_ws_mirror():
    conv, strat, main = _ref_region_and_strategy()
    ws = TilingStrategy(schedule=Schedule.WeightStationary, nc=strat.nc,
                        k2=strat.k2, k3=strat.k3, r_nc=0, r_k2=0, r_k3=0)
    plan = build_plan(main, ws, REF_MK)
    dims = [l.dim for l in plan.loops]
    assert dims == ["batch", "channel", "filter_set", "window_set",
                    "filter_tile", "window_tile"]


def test_build_plan_degenerate_two_level():
    conv, strat, main = _ref_region_and_strategy()
    unit = TilingStrategy(schedule=Schedule.InputStationary, nc=strat.nc,
                          k2=1, k3=1, r_nc=0, r_k2=0, r_k3=0)
    plan = build_plan(main, unit, REF_MK)
    steps = {l.dim: l.step for l in plan.loops}
    assert steps["window_set"] == 1 and steps["filter_set"] == 1


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


def test_both_schedules_match_oracle(rng):
    p = ConvParams(n=1, ic=8, ih=13, iw=13, oc=16, fh=3, fw=3)
    conv = conv_info(p)
    mk = MkInfo(n_win=4, n_f=4)
    x, flt = rand_tensors(rng, p)
    ref = naive_conv(x, flt, p)
    for sched in (Schedule.InputStationary, Schedule.WeightStationary):
        strat = TilingStrategy(schedule=sched, nc=8, k2=2, k3=3,
                               r_nc=0, r_k2=0, r_k3=0)
        out = np.zeros((1, 16, conv.oh, conv.ow), dtype=np.float32)
        for region in plan_regions(conv, strat, mk):
            if region.kind is RegionKind.Main:
                execute_region(x, flt, out, conv, region, strat, mk)
            else:
                naive_fallback_region(x, flt, out, conv, region, mk)
        assert max_relative_error(out, ref) <= 1e-4


def test_single_region_touches_only_its_window(rng):
    p = ConvParams(n=1, ic=4, ih=10, iw=10, oc=8, fh=3, fw=3)
    conv = conv_info(p)
    mk = MkInfo(n_win=4, n_f=4)
    strat = analyze(conv, CALIBRATED_ARCH, mk)
    regions = [r for r in plan_regions(conv, strat, mk) if r.kind is RegionKind.Main]
    region = regions[0]
    x, flt = rand_tensors(rng, p)
    out = np.zeros((1, 8, conv.oh, conv.ow), dtype=np.float32)
    execute_region(x, flt, out, conv, region, strat, mk)
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
    p = ConvParams(n=1, ic=9, ih=11, iw=11, oc=12, fh=3, fw=3)  # nc/oc/spatial tails
    conv = conv_info(p)
    mk = MkInfo(n_win=4, n_f=4)
    strat = analyze(conv, CALIBRATED_ARCH, mk)
    regions = plan_regions(conv, strat, mk)
    assert len(regions) >= 2
    x, flt = rand_tensors(rng, p)

    def run(order):
        out = np.zeros((1, 12, conv.oh, conv.ow), dtype=np.float32)
        for region in order:
            if region.kind is RegionKind.Main:
                execute_region(x, flt, out, conv, region, strat, mk)
            else:
                naive_fallback_region(x, flt, out, conv, region, mk)
        return out

    a = run(regions)
    b = run(list(reversed(regions)))
    assert np.array_equal(a, b)


def test_naive_fallback_nine_window_tail(rng):
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
    out = np.zeros((1, 4, 75, 75), dtype=np.float32)
    tail_small = type(tail)(spatial_start=5616, spatial_len=9, oc_start=0,
                            oc_len=4, ic_start=0, ic_len=2,
                            kind=RegionKind.Remainder, e_off=5616)
    naive_fallback_region(x, flt, out, conv_small, tail_small, REF_MK)
    ref = naive_conv(x, flt, p_small).reshape(1, 4, -1)
    got = out.reshape(1, 4, -1)
    assert np.allclose(got[:, :, 5616:], ref[:, :, 5616:], rtol=1e-5, atol=1e-6)
    assert np.all(got[:, :, :5616] == 0)


def test_naive_fallback_empty_region_is_noop():
    from slicedconv import KernelRegion
    p = ConvParams(n=1, ic=2, ih=6, iw=6, oc=4, fh=3, fw=3)
    conv = conv_info(p)
    out = np.zeros((1, 4, 4, 4), dtype=np.float32)
    region = KernelRegion(spatial_start=0, spatial_len=0, oc_start=0, oc_len=4,
                          ic_start=0, ic_len=2, kind=RegionKind.Remainder,
                          e_off=0)
    x = np.ones((1, 2, 6, 6), dtype=np.float32)
    flt = np.ones((4, 2, 3, 3), dtype=np.float32)
    naive_fallback_region(x, flt, out, conv, region, MkInfo(n_win=4, n_f=4))
    assert np.all(out == 0)


def test_naive_fallback_tail_spanning_row_break(rng):
    square = ConvParams(n=1, ic=3, ih=9, iw=9, oc=5, fh=3, fw=3)  # 7x7 out
    strided = ConvParams(n=2, ic=3, ih=13, iw=12, oc=7, fh=3, fw=2,
                         stride_h=2, dil_w=2)  # 6x10 out
    cases = [
        # (params, n_win, windows [s0, s0+len), filters [o0, o0+len))
        (square, 16, (4, 13), (0, 5)),   # one chunk across two row breaks
        (square, 4, (4, 13), (0, 5)),    # four chunks, [4, 8) crosses a row
        (strided, 3, (7, 41), (4, 3)),   # batch 2, stride and dilation
    ]
    for p, n_win, (s0, slen), (o0, olen) in cases:
        conv = conv_info(p)
        x, flt = rand_tensors(rng, p)
        out = np.zeros((p.n, p.oc, conv.oh, conv.ow), dtype=np.float32)
        region = KernelRegion(spatial_start=s0, spatial_len=slen, oc_start=o0,
                              oc_len=olen, ic_start=0, ic_len=p.ic,
                              kind=RegionKind.Remainder, e_off=s0)
        naive_fallback_region(x, flt, out, conv, region,
                              MkInfo(n_win=n_win, n_f=4))
        ref = naive_conv(x, flt, p).reshape(p.n, p.oc, -1)
        got = out.reshape(p.n, p.oc, -1)
        inside = np.s_[:, o0:o0 + olen, s0:s0 + slen]
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


def test_fallback_never_calls_the_hook(rng):
    # ohw = 9 < n_win and oc = 3 < n_f: every region is a Remainder
    p = ConvParams(n=2, ic=3, ih=5, iw=5, oc=3, fh=3, fw=3)
    mk = MkInfo(n_win=16, n_f=8)

    def raising(pin, pf, acc):
        raise AssertionError("the fallback must not call the hook")

    out, ref, info, _ = _run_engine_case(rng, p, mk, hook=raising)
    assert {r.kind for r in info.regions} == {RegionKind.Remainder}
    assert max_relative_error(out, ref) <= 1e-4


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
    p = ConvParams(n=2, ic=10, ih=12, iw=12, oc=8, fh=3, fw=3)  # 10 = 3 blocks of nc=4
    conv = conv_info(p)
    mk = MkInfo(n_win=5, n_f=4)
    arch = ArchInfo(l1_bytes=2048, l2_bytes=64 * 1024, l3_bytes=256 * 1024)
    strat = analyze(conv, arch, mk)
    assert strat.nc < p.ic  # force several channel blocks
    counters = RunCounters()
    x, flt = rand_tensors(rng, p)
    out, info = run_convolution(x, flt, p, arch, mk, counters=counters)
    import math
    expected = math.ceil(p.ic / strat.nc)
    # every pipelined output tile is touched once per channel block
    wtiles_main = conv.ohw // mk.n_win
    ftiles = p.oc // mk.n_f
    assert len(counters.acc_touches) == p.n * wtiles_main * ftiles
    assert set(counters.acc_touches.values()) == {expected}
    assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4


def test_pack_once_instrumentation_is(rng):
    p = ConvParams(n=1, ic=8, ih=18, iw=18, oc=16, fh=3, fw=3)
    conv = conv_info(p)
    mk = MkInfo(n_win=4, n_f=4)
    strat = TilingStrategy(schedule=Schedule.InputStationary, nc=4, k2=2, k3=8,
                           r_nc=0, r_k2=0, r_k3=0)
    counters = RunCounters()
    x, flt = rand_tensors(rng, p)
    out = np.zeros((1, 16, 16, 16), dtype=np.float32)
    for region in plan_regions(conv, strat, mk):
        if region.kind is RegionKind.Main:
            execute_region(x, flt, out, conv, region, strat, mk, counters=counters)
        else:
            naive_fallback_region(x, flt, out, conv, region, mk)
    # IS: every input tile packed exactly once per (batch, channel block)
    assert set(counters.input_packs.values()) == {1}
    assert len(counters.input_packs) == 2 * (256 // 4)  # 2 blocks x 64 tiles
    # filters are repacked once per window set
    wsets = (256 // 4) // strat.k3
    per_filter_tile = {k[3] for k in counters.filter_packs}
    assert per_filter_tile == set(range(16 // 4))
    assert set(counters.filter_packs.values()) == {1}
    assert len(counters.filter_packs) == 2 * wsets * (16 // 4)


def test_pack_once_instrumentation_ws(rng):
    p = ConvParams(n=1, ic=8, ih=18, iw=18, oc=16, fh=3, fw=3)
    conv = conv_info(p)
    mk = MkInfo(n_win=4, n_f=4)
    strat = TilingStrategy(schedule=Schedule.WeightStationary, nc=8, k2=2, k3=8,
                           r_nc=0, r_k2=0, r_k3=0)
    counters = RunCounters()
    x, flt = rand_tensors(rng, p)
    out = np.zeros((1, 16, 16, 16), dtype=np.float32)
    for region in plan_regions(conv, strat, mk):
        execute_region(x, flt, out, conv, region, strat, mk, counters=counters)
    # WS: every filter tile packed exactly once per (batch, channel block)
    assert set(counters.filter_packs.values()) == {1}
    assert len(counters.filter_packs) == 1 * (16 // 4)
    # inputs are multipacked once per (filter set, window tile)
    fsets = (16 // 4) // strat.k2
    assert set(counters.input_packs.values()) == {1}
    assert len(counters.input_packs) == 1 * fsets * (256 // 4)
    assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4


@pytest.mark.parametrize("sched", [Schedule.InputStationary,
                                   Schedule.WeightStationary])
@pytest.mark.parametrize("k3,k2", [(3, 2), (2, 4)])
def test_set_product_matches_per_tile_hook(rng, sched, k3, k2):
    # 7 window tiles and 5 filter tiles: the last set is partial on both
    # sides; (3, 2) has window sets larger than filter sets, (2, 4) smaller
    p = ConvParams(n=2, ic=6, ih=9, iw=9, oc=20, fh=3, fw=3)
    conv = conv_info(p)
    mk = MkInfo(n_win=7, n_f=4)
    strat = TilingStrategy(schedule=sched, nc=4, k2=k2, k3=k3,
                           r_nc=0, r_k2=0, r_k3=0)
    region = KernelRegion(spatial_start=0, spatial_len=conv.ohw, oc_start=0,
                          oc_len=p.oc, ic_start=0, ic_len=p.ic,
                          kind=RegionKind.Main, e_off=0)
    x, flt = rand_tensors(rng, p)

    def run(hook):
        counters = RunCounters()
        out = np.zeros((p.n, p.oc, conv.oh, conv.ow), dtype=np.float32)
        execute_region(x, flt, out, conv, region, strat, mk, hook=hook,
                       counters=counters)
        return out, counters

    def per_tile(pin, pf, acc):
        microkernel(pin, pf, acc)

    batched, c_batched = run(None)
    tiled, c_tiled = run(per_tile)
    assert np.array_equal(batched, tiled)
    assert c_batched == c_tiled
    assert set(c_batched.acc_touches.values()) == {2}  # two channel blocks
    assert max_relative_error(batched, naive_conv(x, flt, p)) <= 1e-4


@pytest.mark.parametrize("sched", [Schedule.InputStationary,
                                   Schedule.WeightStationary])
@pytest.mark.parametrize("chunk", [1, 3, 16])
def test_chunked_sets_match_per_tile_hook(rng, monkeypatch, sched, chunk):
    # 6x6 outputs in 9 window tiles of 4, so tiles 1, 4 and 7 cross a row
    # break; window sets of 5 and 4 tiles, which a chunk of 3 divides into
    # uneven parts, and 16 covers. A full filter set's output tile is
    # 16*4*4 = 256 B, the same as an input tile (K = 4*2*2), so the set
    # product takes `chunk` window tiles per GEMM.
    p = ConvParams(n=2, ic=8, ih=7, iw=7, oc=20, fh=2, fw=2)
    conv = conv_info(p)
    mk = MkInfo(n_win=4, n_f=4)
    strat = TilingStrategy(schedule=sched, nc=4, k2=4, k3=5,
                           r_nc=0, r_k2=0, r_k3=0)
    region = KernelRegion(spatial_start=0, spatial_len=conv.ohw, oc_start=0,
                          oc_len=p.oc, ic_start=0, ic_len=p.ic,
                          kind=RegionKind.Main, e_off=0)
    x, flt = rand_tensors(rng, p)
    tile_bytes = strat.nc * p.fh * p.fw * mk.n_win * 4
    monkeypatch.setattr(kernel, "_CHUNK_BYTES", chunk * tile_bytes)
    pack_nts = []

    def counting_pack_input(*args, **kw):
        pack_nts.append(kw["nt"])
        return pack_input(*args, **kw)

    monkeypatch.setattr(kernel, "pack_input", counting_pack_input)

    def run(hook):
        counters = RunCounters()
        out = np.zeros((p.n, p.oc, conv.oh, conv.ow), dtype=np.float32)
        execute_region(x, flt, out, conv, region, strat, mk, hook=hook,
                       counters=counters)
        return out, counters

    def per_tile(pin, pf, acc):
        microkernel(pin, pf, acc)

    chunked, c_chunked = run(None)
    chunked_nts = list(pack_nts)
    tiled, c_tiled = run(per_tile)
    assert np.array_equal(chunked, tiled)
    assert c_chunked == c_tiled
    assert set(c_chunked.acc_touches.values()) == {2}  # two channel blocks
    assert max_relative_error(chunked, naive_conv(x, flt, p)) <= 1e-4

    wsets, fsets, blocks = (5, 4), 2, p.n * 2
    if sched is Schedule.InputStationary:
        # each stationary window set in exactly one multipack, whatever
        # the chunk size of the set product
        per_block = list(wsets)
    else:
        # a streamed window set stays one multipack per filter set
        per_block = list(wsets) * fsets
    assert chunked_nts == per_block * blocks


@pytest.mark.parametrize("sched", [Schedule.InputStationary,
                                   Schedule.WeightStationary])
@pytest.mark.parametrize("k3,k2", [(3, 2), (2, 4)])
@pytest.mark.parametrize("chunk_bytes", [None, 448])
def test_hook_calls_tile_each_set_pair_in_whole_tiles(rng, monkeypatch, sched,
                                                      k3, k2, chunk_bytes):
    # 7 window tiles of 7 and 5 filter tiles of 4 over two channel blocks
    # (4 and 2 channels). 448 B is two 8x7 or 14x4 output tiles: (3, 2)
    # set pairs are then cut between window tiles, (2, 4) ones between
    # filter tiles; unpatched, every set pair is one call.
    p = ConvParams(n=2, ic=6, ih=9, iw=9, oc=20, fh=3, fw=3)
    conv = conv_info(p)
    mk = MkInfo(n_win=7, n_f=4)
    strat = TilingStrategy(schedule=sched, nc=4, k2=k2, k3=k3,
                           r_nc=0, r_k2=0, r_k3=0)
    region = KernelRegion(spatial_start=0, spatial_len=conv.ohw, oc_start=0,
                          oc_len=p.oc, ic_start=0, ic_len=p.ic,
                          kind=RegionKind.Main, e_off=0)
    if chunk_bytes is not None:
        monkeypatch.setattr(kernel, "_CHUNK_BYTES", chunk_bytes)
    x, flt = rand_tensors(rng, p)
    out = np.zeros((p.n, p.oc, conv.oh, conv.ow), dtype=np.float32)
    calls = []

    def recording(pin, pf, acc):
        (k, width), height = pin.shape, acc.shape[0]
        assert pf.shape == (k, height) and acc.shape == (height, width)
        offset = (acc.ctypes.data - out.ctypes.data) // acc.itemsize
        b, rest = divmod(offset, p.oc * conv.ohw)
        calls.append((b, k, *divmod(rest, conv.ohw), height, width))
        microkernel(pin, pf, acc)

    execute_region(x, flt, out, conv, region, strat, mk, hook=recording)
    cover = {}
    for b, k, f0, w0, height, width in calls:
        # whole tiles, and the reduction depth of the call's channel block
        assert k in (4 * 9, 2 * 9)
        assert f0 % mk.n_f == 0 and height % mk.n_f == 0
        assert w0 % mk.n_win == 0 and width % mk.n_win == 0
        # inside one set pair
        assert f0 // (k2 * mk.n_f) == (f0 + height - 1) // (k2 * mk.n_f)
        assert w0 // (k3 * mk.n_win) == (w0 + width - 1) // (k3 * mk.n_win)
        cells = cover.setdefault((b, k), np.zeros((p.oc, conv.ohw), int))
        cells[f0:f0 + height, w0:w0 + width] += 1
    # every output element once per batch and channel block
    assert sorted(cover) == [(b, k) for b in range(p.n) for k in (18, 36)]
    assert all((cells == 1).all() for cells in cover.values())
    assert any(h > mk.n_f or w > mk.n_win for *_, h, w in calls)
    if chunk_bytes is None:
        assert len(calls) == 2 * 2 * -(-7 // k3) * -(-5 // k2)
    else:
        assert all(h * w * 4 <= chunk_bytes for *_, h, w in calls)
    assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4


@pytest.mark.parametrize("sched", [Schedule.InputStationary,
                                   Schedule.WeightStationary])
def test_deep_reduction_matches_microkernel_hook_bitwise(rng, sched):
    # K = 64*3*3 = 576 with 16-window tiles: a hook that wraps microkernel
    # gets the built-in path's calls, so the outputs agree bit for bit.
    p = ConvParams(n=1, ic=64, ih=16, iw=16, oc=32, fh=3, fw=3)
    conv = conv_info(p)
    mk = MkInfo(n_win=16, n_f=8)
    strat = TilingStrategy(schedule=sched, nc=64, k2=2, k3=5,
                           r_nc=0, r_k2=0, r_k3=0)
    region = KernelRegion(spatial_start=0, spatial_len=192, oc_start=0,
                          oc_len=p.oc, ic_start=0, ic_len=p.ic,
                          kind=RegionKind.Main, e_off=0)
    x, flt = rand_tensors(rng, p)
    depths = set()

    def wrapped(pin, pf, acc):
        depths.add(pin.shape[0])
        microkernel(pin, pf, acc)

    outs = []
    for hook in (None, wrapped):
        out = np.zeros((p.n, p.oc, conv.oh, conv.ow), dtype=np.float32)
        execute_region(x, flt, out, conv, region, strat, mk, hook=hook)
        outs.append(out)
    assert depths == {576}
    assert np.array_equal(outs[0], outs[1])
    got = outs[0].reshape(p.oc, -1)[:, :192]
    ref = naive_conv(x, flt, p).reshape(p.oc, -1)[:, :192]
    assert max_relative_error(got, ref) <= 1e-4
