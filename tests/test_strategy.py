import pytest

from conftest import CALIBRATED_ARCH, REF_MK, REF_PARAMS, random_params
from slicedconv import (ArchInfo, ConvInfo, ConvParams, MkInfo, Schedule,
                        TilingStrategy, analyze, remainders)
from tiling_oracle import filter_tiles, scaled, tile_bytes, window_tiles


def test_reference_case_matches_published_numbers():
    s = analyze(ConvInfo(REF_PARAMS), CALIBRATED_ARCH, REF_MK)
    assert s.schedule is Schedule.InputStationary
    assert (s.nc, s.k2, s.k3) == (32, 32, 87)
    assert (s.r_nc, s.r_k2, s.r_k3) == (0, 0, 3)


def test_single_channel_input():
    p = ConvParams(n=1, ic=1, ih=20, iw=20, oc=16, fh=3, fw=3)
    s = analyze(ConvInfo(p), CALIBRATED_ARCH, REF_MK)
    assert s.nc == 1 and s.r_nc == 0


def test_tiny_conv_degenerates():
    p = ConvParams(n=1, ic=4, ih=4, iw=4, oc=4, fh=1, fw=1)  # 16 windows
    huge = ArchInfo(l1_bytes=1 << 24, l2_bytes=1 << 26, l3_bytes=1 << 28)
    s = analyze(ConvInfo(p), huge, MkInfo(n_win=16, n_f=8))
    assert (s.k2, s.k3) == (1, 1)
    assert (s.r_nc, s.r_k2, s.r_k3) == (0, 0, 0)


def test_infeasible_l1():
    p = ConvParams(n=1, ic=8, ih=30, iw=30, oc=32, fh=7, fw=7)
    tiny = ArchInfo(l1_bytes=1024, l2_bytes=2048, l3_bytes=0)
    with pytest.raises(ValueError, match="tile exceeds L1"):
        analyze(ConvInfo(p), tiny, MkInfo(n_win=16, n_f=16))


def test_remainders_window_tile_units():
    # 75x75 output -> 5625 windows -> 351 full 16-window tiles; 351 mod 87 = 3,
    # i.e. the 5616-window main extent factors as 87*4 sets plus 3 tiles
    # (48 windows).
    conv = ConvInfo(REF_PARAMS)
    assert window_tiles(conv, REF_MK) == 351
    r_nc, r_k2, r_k3 = remainders(conv, REF_MK, nc=32, k2=32, k3=87)
    assert (r_nc, r_k2, r_k3) == (0, 0, 3)
    assert 351 * 16 == 5616
    assert (351 - 3) * 16 == 87 * 64  # main region: 5568 windows


def test_remainders_unit_tile():
    conv = ConvInfo(REF_PARAMS)
    assert remainders(conv, REF_MK, nc=1, k2=1, k3=1) == (0, 0, 0)


def test_remainders_are_modular(rng):
    for _ in range(200):
        d = int(rng.integers(1, 10001))
        t = int(rng.integers(1, 513))
        p = ConvParams(n=1, ic=d, ih=8, iw=8, oc=8, fh=1, fw=1)
        conv = ConvInfo(p)
        mk = MkInfo(n_win=4, n_f=4)
        r_nc, r_k2, r_k3 = remainders(conv, mk, nc=t, k2=t, k3=t)
        assert r_nc == d % t
        assert r_k2 == filter_tiles(conv, mk) % t
        assert r_k3 == window_tiles(conv, mk) % t


def test_cost_prefers_ws_for_large_filter_tensor():
    # filter tensor (512*16*3*3) far larger than the input (16*9*9)
    p = ConvParams(n=1, ic=16, ih=9, iw=9, oc=512, fh=3, fw=3)
    conv = ConvInfo(p)
    mk = MkInfo(n_win=16, n_f=8)
    s = analyze(conv, CALIBRATED_ARCH, mk)
    assert s.schedule is Schedule.WeightStationary


def test_cost_tie_breaks_to_input_stationary():
    # ih*iw == oc*fh*fw makes the tensors byte-identical in size
    p = ConvParams(n=1, ic=4, ih=2, iw=2, oc=4, fh=1, fw=1)
    conv = ConvInfo(p)
    mk = MkInfo(n_win=4, n_f=4)
    assert p.n * p.ic * p.ih * p.iw == p.oc * p.ic * p.fh * p.fw
    s = analyze(conv, ArchInfo(l1_bytes=1 << 20, l2_bytes=1 << 22, l3_bytes=0),
                mk)
    assert s.schedule is Schedule.InputStationary


def test_l1_fit_invariant(rng):
    mkc = [(4, 4), (8, 8), (16, 8), (16, 16)]
    for _ in range(100):
        p = random_params(rng)
        n_win, n_f = mkc[int(rng.integers(len(mkc)))]
        mk = MkInfo(n_win=n_win, n_f=n_f)
        arch = _random_arch(rng)
        conv = ConvInfo(p)
        try:
            s = analyze(conv, arch, mk)
        except ValueError:
            assert sum(tile_bytes(conv, mk, 1)) > arch.l1_bytes
            continue
        in_b, f_b, out_b = tile_bytes(conv, mk, s.nc)
        assert in_b + f_b + out_b <= arch.l1_bytes
        assert 1 <= s.nc <= p.ic
        assert s.k2 >= 1 and s.k3 >= 1
        assert remainders(conv, mk, s.nc, s.k2, s.k3) == (s.r_nc, s.r_k2, s.r_k3)


def test_analyze_is_pure():
    a = analyze(ConvInfo(REF_PARAMS), CALIBRATED_ARCH, REF_MK)
    b = analyze(ConvInfo(REF_PARAMS), CALIBRATED_ARCH, REF_MK)
    assert a == b


def test_monotone_under_cache_scaling(rng):
    for _ in range(100):
        p = random_params(rng)
        mk = MkInfo(n_win=int(rng.choice((4, 8, 16))),
                    n_f=int(rng.choice((4, 8, 16))))
        arch = _random_arch(rng)
        conv = ConvInfo(p)
        try:
            s = analyze(conv, arch, mk)
        except ValueError:
            continue
        for factor in (2, 4):
            s2 = analyze(conv, scaled(arch, factor), mk)
            assert s2.nc >= s.nc and s2.k2 >= s.k2 and s2.k3 >= s.k3


def _random_arch(rng):
    l1 = int(rng.integers(8, 257)) * 1024
    l2 = l1 * int(rng.integers(2, 17))
    l3 = 0 if rng.random() < 0.2 else l2 * int(rng.integers(2, 33))
    return ArchInfo(l1_bytes=l1, l2_bytes=l2, l3_bytes=l3)


def test_k3_collapses_without_l3():
    arch = ArchInfo(l1_bytes=64 * 1024, l2_bytes=1 << 20, l3_bytes=0)
    s = analyze(ConvInfo(REF_PARAMS), arch, REF_MK)
    assert s.k3 == 1



@pytest.mark.parametrize("field, value, match", [
    ("nc", 0, "tile sizes"), ("k2", 0, "tile sizes"), ("k3", -1, "tile sizes"),
    ("r_nc", -1, "remainders"), ("r_k2", -1, "remainders"),
    ("r_k3", -1, "remainders"),
])
def test_strategy_rejects_empty_tiles_and_negative_remainders(field, value,
                                                              match):
    kw = dict(schedule=Schedule.InputStationary, nc=1, k2=1, k3=1,
              r_nc=0, r_k2=0, r_k3=0)
    with pytest.raises(ValueError, match=match):
        TilingStrategy(**{**kw, field: value})
