import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import (CALIBRATED_ARCH, FIXTURES, REF_MK, REF_PARAMS,
                      rand_tensors, random_params)
from slicedconv import (ConvInfo, ConvParams, KernelRegion, MkInfo,
                        RegionKind, Schedule, TilingStrategy, analyze,
                        coverage_check, load_arch, naive_conv, pack_filter,
                        plan_regions, run_convolution)
from slicedconv import kernel
from slicedconv.harness import max_relative_error


def _strategy(nc, k2, k3, schedule=Schedule.InputStationary):
    return TilingStrategy(schedule=schedule, nc=nc, k2=k2, k3=k3,
                          r_nc=0, r_k2=0, r_k3=0)


M, R = RegionKind.Main, RegionKind.Remainder


@pytest.mark.parametrize("ohw, n_win, oc, ic, k3, want", [
    # 351 whole tiles and a 9-window tail; one k3 set of all 351 tiles
    (5625, 16, 256, 32, 351, [(R, 5616, 9), (M, 0, 5616)]),
    # no tail
    (5616, 16, 256, 32, 351, [(M, 0, 5616)]),
    # fewer windows than one tile: the whole layer is the tail
    (9, 16, 256, 32, 1, [(R, 0, 9)]),
    # the reference split 5625 -> 9 / 5568 / 48
    (5625, 16, 256, 32, 87, [(R, 5616, 9), (M, 0, 5568), (M, 5568, 48)]),
    # 16 tiles in whole sets of 4: no peel
    (256, 16, 32, 8, 4, [(M, 0, 256)]),
    # 10 tiles mod 3 -> 1 tile peeled; every region keeps all 48 filters
    (160, 16, 48, 8, 3, [(M, 0, 144), (M, 144, 16)]),
], ids=["tail", "divisible", "subtile", "reference", "no_peel",
        "one_tile_peel"])
def test_plan_regions_cuts(ohw, n_win, oc, ic, k3, want):
    # (kind, first window, windows) of each region, in plan order: the
    # window tail, then the core and the k3 peel. Each region spans all
    # output and input channels, e_off is its first window, and a second
    # call plans the same regions.
    conv = ConvInfo(ConvParams(n=1, ic=ic, ih=1, iw=ohw, oc=oc, fh=1, fw=1))
    mk = MkInfo(n_win=n_win, n_f=8)
    regions = plan_regions(conv, _strategy(nc=ic, k2=1, k3=k3), mk)
    assert [(r.kind, r.spatial_start, r.spatial_len) for r in regions] == want
    assert all((r.oc_len, r.ic_len) == (oc, ic)
               and r.e_off == r.spatial_start for r in regions)
    assert coverage_check(regions, conv)
    assert plan_regions(conv, _strategy(nc=ic, k2=1, k3=k3), mk) == regions


def _exhaustive_cover(regions, conv):
    """Independent oracle: mark every (window, oc, ic) point, detect overlap."""
    space = np.zeros((conv.ohw, conv.params.oc, conv.params.ic), dtype=np.int32)
    for r in regions:
        space[r.spatial_start:r.spatial_start + r.spatial_len,
              :r.oc_len, :r.ic_len] += 1
    return bool(np.all(space == 1))


def test_coverage_random_plans(rng):
    for _ in range(30):
        p = random_params(rng, max_ic=9, max_oc=20, max_out=9)
        conv = ConvInfo(p.padded())
        mk = MkInfo(n_win=int(rng.choice((4, 8, 16))), n_f=int(rng.choice((4, 8))))
        strat = analyze(conv, CALIBRATED_ARCH, mk)
        regions = plan_regions(conv, strat, mk)
        assert coverage_check(regions, conv)
        assert _exhaustive_cover(regions, conv)
        # no region splits input channels, whatever nc is
        assert all(r.ic_len == p.ic for r in regions)
        # the only Remainder region is the window tail
        assert all(r.spatial_len < mk.n_win and r.oc_len == p.oc
                   and r.ic_len == p.ic for r in regions
                   if r.kind is RegionKind.Remainder)


def test_coverage_detects_duplicate_and_gap():
    conv = ConvInfo(random_params(np.random.default_rng(3), max_ic=4, max_oc=8, max_out=6))
    mk = MkInfo(n_win=4, n_f=4)
    strat = analyze(conv, CALIBRATED_ARCH, mk)
    regions = plan_regions(conv, strat, mk)
    assert coverage_check(regions, conv)
    assert not coverage_check(regions + [regions[0]], conv)   # overlap
    if len(regions) > 1:
        assert not coverage_check(regions[:-1], conv)         # gap


@pytest.mark.parametrize("field, value", [
    ("spatial_len", -1), ("oc_len", -1), ("ic_len", -1),
    ("spatial_start", -1), ("spatial_start", 1),
    ("oc_len", 4), ("ic_len", 2),
])
def test_coverage_rejects_a_region_out_of_range(field, value):
    # One region of a whole-layer plan moved or sized past the layer,
    # given a negative extent or fewer than all channels: the plan no
    # longer covers it exactly.
    conv = ConvInfo(ConvParams(n=1, ic=3, ih=4, iw=4, oc=5, fh=1, fw=1))
    whole = KernelRegion(0, 16, 5, 3, RegionKind.Main)
    assert coverage_check([whole], conv)
    assert not coverage_check([replace(whole, **{field: value})], conv)


WHOLE = KernelRegion(0, 16, 5, 3, M)


@pytest.mark.parametrize("regions", [
    [WHOLE, replace(WHOLE, spatial_len=0)],
    [WHOLE, replace(WHOLE, spatial_start=16, spatial_len=0, kind=R)],
], ids=["empty_first", "empty_last"])
def test_coverage_refuses_what_no_plan_makes(regions):
    # Each list covers the 16 windows x 5 filters x 3 channels exactly
    # once, but holds a region without a window, which plan_regions never
    # makes.
    conv = ConvInfo(ConvParams(n=1, ic=3, ih=4, iw=4, oc=5, fh=1, fw=1))
    assert _exhaustive_cover(regions, conv)
    assert not coverage_check(regions, conv)


def _window_cover(regions, conv):
    """Brute-force oracle: every region spans all channels and holds a
    window, and each window of [0, ohw), and no other, is in exactly one
    region."""
    full = (conv.params.oc, conv.params.ic)
    counts = Counter()
    for r in regions:
        if (r.oc_len, r.ic_len) != full \
                or r.spatial_len < 1:
            return False
        counts.update(range(r.spatial_start, r.spatial_start + r.spatial_len))
    return counts == Counter(range(conv.ohw))


def test_coverage_matches_a_window_count_on_mutated_plans(rng):
    # One region of a random plan shifted, resized, dropped, duplicated or
    # split in two, the list in any order: the check's verdict is the
    # oracle's.
    verdicts = Counter()
    for _ in range(400):
        p = random_params(rng, max_ic=6, max_oc=12, max_out=9)
        conv = ConvInfo(p.padded())
        mk = MkInfo(n_win=int(rng.choice((1, 2, 4, 8))), n_f=4)
        regions = plan_regions(conv, analyze(conv, CALIBRATED_ARCH, mk), mk)
        i = int(rng.integers(len(regions)))
        r, d = regions[i], int(rng.integers(-3, 4))
        kind = rng.choice(["shift", "resize", "drop", "duplicate", "split"])
        if kind == "shift":
            regions[i] = replace(r, spatial_start=r.spatial_start + d)
        elif kind == "resize":
            regions[i] = replace(r, spatial_len=r.spatial_len + d)
        elif kind == "drop":
            del regions[i]
        elif kind == "duplicate":
            regions.append(r)
        else:
            cut = int(rng.integers(r.spatial_len + 1))
            regions[i:i + 1] = [replace(r, spatial_len=cut),
                                replace(r, spatial_start=r.spatial_start + cut,
                                        spatial_len=r.spatial_len - cut)]
        regions = [regions[j] for j in rng.permutation(len(regions))]
        want = _window_cover(regions, conv)
        assert coverage_check(regions, conv) == want, (kind, regions)
        verdicts[want] += 1
    assert verdicts[True] and verdicts[False]


def test_reference_plan_lens():
    conv = ConvInfo(REF_PARAMS)
    strat = analyze(conv, CALIBRATED_ARCH, REF_MK)
    regions = plan_regions(conv, strat, REF_MK)
    spatial = sorted(r.spatial_len for r in regions)
    assert spatial == [9, 48, 5568]
    assert coverage_check(regions, conv)


def test_oc_tail_is_a_partial_last_filter_tile(rng, monkeypatch):
    # 13 mod 8 = 5 filters: no region of their own, but a short last
    # filter tile in the one filter set of each region, all 13 filters
    p = random_params(np.random.default_rng(9), max_out=8)
    p = type(p)(**{**p.__dict__, "oc": 13})
    conv = ConvInfo(p.padded())
    mk = MkInfo(n_win=4, n_f=8)
    strat = analyze(conv, CALIBRATED_ARCH, mk)
    regions = plan_regions(conv, strat, mk)
    mains = [r for r in regions if r.kind is RegionKind.Main]
    assert mains and all(r.oc_len == 13 for r in mains)
    assert all(r.oc_len == 13 for r in regions
               if r.kind is RegionKind.Remainder)
    assert coverage_check(regions, conv)

    rows = {}

    def recording(filters, f0, nf, c0, nc):
        m = pack_filter(filters, f0, nf, c0, nc)
        rows[f0] = m.shape[0]
        return m

    monkeypatch.setattr(kernel, "pack_filter", recording)
    x, flt = rand_tensors(rng, p)
    out, _ = run_convolution(x, flt, p, CALIBRATED_ARCH, mk)
    assert rows == {0: 13}
    assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4


def test_regions_json_roundtrip():
    conv = ConvInfo(REF_PARAMS)
    strat = analyze(conv, CALIBRATED_ARCH, REF_MK)
    regions = plan_regions(conv, strat, REF_MK)
    decoded = json.loads(json.dumps([r.to_dict() for r in regions]))
    assert len(decoded) == len(regions)
    assert decoded[0]["spatial_len"] == regions[0].spatial_len
    assert {d["kind"] for d in decoded} == {"main", "remainder"}


def test_reference_region_dump():
    # The whole --dump-regions record of the reference case under the
    # committed calibrated fixture, keys in their dump order: the 9-window
    # tail, the 5568-window core and the 48-window k3 peel. e_off is each
    # region's first window.
    conv = ConvInfo(REF_PARAMS)
    strat = analyze(conv, load_arch(FIXTURES / "calibrated.toml"), REF_MK)
    dump = [r.to_dict() for r in plan_regions(conv, strat, REF_MK)]
    want = [
        {"spatial_start": 5616, "spatial_len": 9, "oc_start": 0,
         "oc_len": 256, "ic_start": 0, "ic_len": 32, "kind": "remainder",
         "e_off": 5616},
        {"spatial_start": 0, "spatial_len": 5568, "oc_start": 0,
         "oc_len": 256, "ic_start": 0, "ic_len": 32, "kind": "main",
         "e_off": 0},
        {"spatial_start": 5568, "spatial_len": 48, "oc_start": 0,
         "oc_len": 256, "ic_start": 0, "ic_len": 32, "kind": "main",
         "e_off": 5568},
    ]
    assert [list(d.items()) for d in dump] == [list(d.items()) for d in want]
