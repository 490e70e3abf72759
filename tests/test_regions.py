import json
import subprocess
import sys

import numpy as np

from conftest import (CALIBRATED_ARCH, REF_MK, REF_PARAMS, cli_env, conv_info,
                      rand_tensors, random_params)
from slicedconv import (MkInfo, RegionKind, Schedule, TilingStrategy, analyze,
                        coverage_check, naive_conv, pack_filter, plan_regions,
                        run_convolution, split_by_strategy, split_input_domain)
from slicedconv import kernel
from slicedconv.harness import max_relative_error


def _strategy(nc, k2, k3, schedule=Schedule.InputStationary):
    return TilingStrategy(schedule=schedule, nc=nc, k2=k2, k3=k3,
                          r_nc=0, r_k2=0, r_k3=0)


def test_split_input_domain_peels_tail():
    main, tail = split_input_domain(5625, 16)
    assert main.spatial_len == 5616 and main.kind is RegionKind.Main
    assert tail.spatial_len == 9 and tail.spatial_start == 5616
    assert tail.kind is RegionKind.Remainder
    assert tail.e_off == 5616


def test_split_input_domain_divisible():
    main, tail = split_input_domain(5616, 16)
    assert main.spatial_len == 5616 and tail is None


def test_split_input_domain_subtile():
    main, tail = split_input_domain(9, 16)
    assert main is None
    assert tail.spatial_len == 9


def test_split_by_strategy_k3_golden():
    main, _ = split_input_domain(5625, 16, oc_len=256, ic_len=32)
    s = analyze(conv_info(REF_PARAMS), CALIBRATED_ARCH, REF_MK)
    parts = split_by_strategy(main, s, REF_MK)
    lens = [r.spatial_len for r in parts]
    assert lens == [5568, 48]
    assert parts[1].spatial_start == parts[1].e_off == 5568
    assert all(r.kind is RegionKind.Main for r in parts)


def test_split_by_strategy_noop():
    main, _ = split_input_domain(256, 16, oc_len=32, ic_len=8)
    parts = split_by_strategy(main, _strategy(nc=8, k2=2, k3=4), MkInfo(n_win=16, n_f=8))
    assert parts == [main]


def test_split_by_strategy_nested_peels():
    # both k2 and k3 remainders nonzero -> three fully pipelined regions
    main, _ = split_input_domain(160, 16, oc_len=48, ic_len=8)  # 10 tiles, 6 f-tiles
    parts = split_by_strategy(main, _strategy(nc=8, k2=4, k3=3), MkInfo(n_win=16, n_f=8))
    assert len(parts) == 3
    assert all(r.kind is RegionKind.Main for r in parts)
    assert all(r.spatial_len % 16 == 0 and r.oc_len % 8 == 0 for r in parts)
    core, k2_rem, k3_rem = parts
    assert k2_rem.oc_len == 2 * 8          # 6 f-tiles mod 4 -> 2 tiles peeled
    assert k3_rem.spatial_len == 1 * 16    # 10 w-tiles mod 3 -> 1 tile peeled
    assert core.spatial_len == 144 and core.oc_len == 32


def test_split_order_stable():
    main, _ = split_input_domain(160, 16, oc_len=48, ic_len=9)
    strat = _strategy(nc=4, k2=4, k3=3)
    a = split_by_strategy(main, strat, MkInfo(n_win=16, n_f=8))
    b = split_by_strategy(main, strat, MkInfo(n_win=16, n_f=8))
    assert a == b


def _exhaustive_cover(regions, conv):
    """Independent oracle: mark every (window, oc, ic) point, detect overlap."""
    space = np.zeros((conv.ohw, conv.params.oc, conv.params.ic), dtype=np.int32)
    for r in regions:
        space[r.spatial_start:r.spatial_start + r.spatial_len,
              r.oc_start:r.oc_start + r.oc_len,
              r.ic_start:r.ic_start + r.ic_len] += 1
    return bool(np.all(space == 1))


def test_coverage_random_plans(rng):
    for _ in range(30):
        p = random_params(rng, max_ic=9, max_oc=20, max_out=9)
        conv = conv_info(p.padded())
        mk = MkInfo(n_win=int(rng.choice((4, 8, 16))), n_f=int(rng.choice((4, 8))))
        strat = analyze(conv, CALIBRATED_ARCH, mk)
        regions = plan_regions(conv, strat, mk)
        assert coverage_check(regions, conv)
        assert _exhaustive_cover(regions, conv)
        assert all(r.e_off == r.spatial_start for r in regions)
        # no region splits input channels, whatever nc is
        assert all((r.ic_start, r.ic_len) == (0, p.ic) for r in regions)
        # the only Remainder region is the window tail
        assert all(r.spatial_len < mk.n_win and r.oc_len == p.oc
                   and r.ic_len == p.ic for r in regions
                   if r.kind is RegionKind.Remainder)


def test_coverage_detects_duplicate_and_gap():
    conv = conv_info(random_params(np.random.default_rng(3), max_ic=4, max_oc=8, max_out=6))
    mk = MkInfo(n_win=4, n_f=4)
    strat = analyze(conv, CALIBRATED_ARCH, mk)
    regions = plan_regions(conv, strat, mk)
    assert coverage_check(regions, conv)
    assert not coverage_check(regions + [regions[0]], conv)   # overlap
    if len(regions) > 1:
        assert not coverage_check(regions[:-1], conv)         # gap


def test_reference_plan_lens():
    conv = conv_info(REF_PARAMS)
    strat = analyze(conv, CALIBRATED_ARCH, REF_MK)
    regions = plan_regions(conv, strat, REF_MK)
    spatial = sorted(r.spatial_len for r in regions)
    assert spatial == [9, 48, 5568]
    assert coverage_check(regions, conv)


def test_oc_tail_is_a_partial_last_filter_tile(rng, monkeypatch):
    # 13 mod 8 = 5 filters: no region of their own, but a 5-row last
    # filter set in the main regions, which span every output channel
    p = random_params(np.random.default_rng(9), max_out=8)
    p = type(p)(**{**p.__dict__, "oc": 13})
    conv = conv_info(p.padded())
    mk = MkInfo(n_win=4, n_f=8)
    strat = analyze(conv, CALIBRATED_ARCH, mk)
    regions = plan_regions(conv, strat, mk)
    mains = [r for r in regions if r.kind is RegionKind.Main]
    assert mains and all((r.oc_start, r.oc_len) == (0, 13) for r in mains)
    assert all(r.oc_len == 13 for r in regions
               if r.kind is RegionKind.Remainder)
    assert coverage_check(regions, conv)

    rows = {}

    def recording(filters, region, mk, nt, nc, f_tile_start=0, **kw):
        m = pack_filter(filters, region, mk, nt, nc, f_tile_start, **kw)
        rows[f_tile_start] = m.shape[0]
        return m

    monkeypatch.setattr(kernel, "pack_filter", recording)
    x, flt = rand_tensors(rng, p)
    out, _ = run_convolution(x, flt, p, CALIBRATED_ARCH, mk)
    assert rows == {0: 8, 1: 5}
    assert max_relative_error(out, naive_conv(x, flt, p)) <= 1e-4


def test_regions_json_roundtrip():
    conv = conv_info(REF_PARAMS)
    strat = analyze(conv, CALIBRATED_ARCH, REF_MK)
    regions = plan_regions(conv, strat, REF_MK)
    decoded = json.loads(json.dumps([r.to_dict() for r in regions]))
    assert len(decoded) == len(regions)
    assert decoded[0]["spatial_len"] == regions[0].spatial_len
    assert {d["kind"] for d in decoded} == {"main", "remainder"}


def test_region_offset_mismatch_raises_under_optimize():
    # the check must survive `python -O`, which strips assert statements
    code = ("from slicedconv import KernelRegion, RegionKind\n"
            "try:\n"
            "    KernelRegion(spatial_start=0, spatial_len=16, oc_start=0,\n"
            "                 oc_len=8, ic_start=0, ic_len=1,\n"
            "                 kind=RegionKind.Main, e_off=7)\n"
            "except ValueError as exc:\n"
            "    print('rejected:', exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected:"), proc.stdout
