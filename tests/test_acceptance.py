"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them). Criteria and tolerances are pinned
here; any change to these bounds is a contract change, not a tuning knob.
"""

import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from conftest import (CALIBRATED_ARCH, FILTER_SHAPES, FIXTURES, REF_MK,
                      REF_PARAMS, REPO_ROOT, cli_env, random_params)
from slicedconv import (ArchInfo, ConvInfo, ConvParams, MkInfo, RegionKind,
                        RunCounters, Schedule, analyze, im2col, load_arch,
                        naive_conv, pack_filter, pack_input, pad_input,
                        run_convolution)
from slicedconv.harness import max_relative_error
from slicedconv.regions import plan_regions
from tiling_oracle import filter_tiles, scaled, tile_bytes, window_tiles

TOLERANCE = 1e-4


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"\n[acceptance] criterion {num} ({desc}): FAIL")
        raise
    print(f"\n[acceptance] criterion {num} ({desc}): PASS")


def test_criterion_1_split_arithmetic():
    with criterion(1, "split arithmetic 5625 -> 5568/48/9"):
        # the 9-window tail after the 5616 main windows, then the core of
        # whole k3 = 87 sets (5568 windows) and the 48-window k3 peel
        strat = analyze(ConvInfo(REF_PARAMS), CALIBRATED_ARCH, REF_MK)
        assert strat.k3 == 87
        regions = plan_regions(ConvInfo(REF_PARAMS), strat, REF_MK)
        assert [(r.kind, r.spatial_start, r.spatial_len) for r in regions] == [
            (RegionKind.Remainder, 5616, 9), (RegionKind.Main, 0, 5568),
            (RegionKind.Main, 5568, 48)]


def test_criterion_2_oracle_equivalence():
    with criterion(2, "200 randomized configs vs f64 oracle, <=1e-4"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        arches = [CALIBRATED_ARCH,
                  ArchInfo(l1_bytes=48 * 1024, l2_bytes=512 * 1024,
                           l3_bytes=16 * 1024 * 1024),
                  ArchInfo(l1_bytes=16 * 1024, l2_bytes=128 * 1024, l3_bytes=0)]
        n_divisible = n_indivisible = 0
        seen_filters = set()
        for i in range(200):
            n_win = (4, 8, 16)[i % 3]
            n_f = (4, 8, 16)[(i // 3) % 3]
            want_divisible = i % 2 == 0
            p = random_params(rng, max_ic=64, max_oc=128, max_out=20,
                              divisible_by=n_win if want_divisible else None,
                              indivisible_by=None if want_divisible else n_win)
            seen_filters.add((p.fh, p.fw))
            if ConvInfo(p).ohw % n_win == 0:
                n_divisible += 1
            else:
                n_indivisible += 1
            mk = MkInfo(n_win=n_win, n_f=n_f)
            arch = arches[i % len(arches)]
            x = rng.uniform(-1, 1, (p.n, p.ic, p.ih, p.iw)).astype(np.float32)
            f = rng.uniform(-1, 1, (p.oc, p.ic, p.fh, p.fw)).astype(np.float32)
            out, _ = run_convolution(x, f, p, arch, mk)
            err = max_relative_error(out, naive_conv(x, f, p))
            assert err <= TOLERANCE, (
                f"case {i}: err {err:.3e} for {p} n_win={n_win} n_f={n_f}")
        assert n_divisible >= 60 and n_indivisible >= 60
        assert seen_filters == set(FILTER_SHAPES)
        elapsed = time.perf_counter() - t0
        print(f"\n[acceptance] criterion 2 runtime: {elapsed:.1f}s "
              f"({n_divisible} divisible / {n_indivisible} not)")
        assert elapsed < 300


def test_criterion_3_packing_matches_im2col():
    with criterion(3, "packed input columns == im2col columns, bitwise"):
        rng = np.random.default_rng(33)
        for i in range(100):
            p = random_params(rng, max_ic=12, max_oc=16, max_out=14)
            n_win = (4, 8, 16)[i % 3]
            conv = ConvInfo(p.padded())
            if conv.ohw < n_win:
                continue
            mk = MkInfo(n_win=n_win, n_f=4)
            x = rng.uniform(-1, 1, (p.n, p.ic, p.ih, p.iw)).astype(np.float32)
            xp = pad_input(x, p)
            nc = int(rng.integers(1, p.ic + 1))
            ic_off = int(rng.integers(0, p.ic - nc + 1))
            max_tiles = conv.ohw // n_win
            nt = int(rng.integers(1, min(max_tiles, 4) + 1))
            ts = int(rng.integers(0, conv.ohw - nt * n_win + 1))
            packed = pack_input(xp, conv, ts, nt * n_win, ic_off, nc)
            ref = im2col(x, p)
            kk = p.fh * p.fw
            rows = slice(ic_off * kk, (ic_off + nc) * kk)
            for t in range(nt):
                cols = packed[:, t * n_win:(t + 1) * n_win]
                for w in range(n_win):
                    assert np.array_equal(cols[:, w],
                                          ref[rows, ts + t * n_win + w])
            # filter packing: a verified permutation (unique source values)
            flt = np.arange(p.oc * p.ic * kk, dtype=np.float32).reshape(
                p.oc, p.ic, p.fh, p.fw)
            ftiles = p.oc // mk.n_f
            if ftiles:
                pf = pack_filter(flt, 0, ftiles * mk.n_f, 0, p.ic)
                src = flt[:ftiles * mk.n_f].ravel()
                assert pf.size == src.size
                assert set(pf.ravel().tolist()) == set(src.tolist())


def test_criterion_4_analysis_invariants():
    with criterion(4, "1000 random triples: L1 fit, remainders, monotonicity"):
        rng = np.random.default_rng(44)
        analyzed = 0
        for _ in range(1000):
            p = random_params(rng, max_ic=64, max_oc=128, max_out=18)
            mk = MkInfo(n_win=int(rng.choice((4, 8, 16, 32))),
                        n_f=int(rng.choice((4, 8, 16))))
            l1 = int(rng.integers(8, 257)) * 1024
            l2 = l1 * int(rng.integers(2, 17))
            l3 = 0 if rng.random() < 0.2 else l2 * int(rng.integers(2, 33))
            arch = ArchInfo(l1_bytes=l1, l2_bytes=l2, l3_bytes=l3)
            conv = ConvInfo(p)
            try:
                s = analyze(conv, arch, mk)
            except ValueError:
                in1, f1, o1 = tile_bytes(conv, mk, 1)
                assert in1 + f1 + o1 > arch.l1_bytes
                continue
            analyzed += 1
            in_b, f_b, out_b = tile_bytes(conv, mk, s.nc)
            assert in_b + f_b + out_b <= arch.l1_bytes
            assert s.r_nc == p.ic % s.nc
            assert s.r_k2 == filter_tiles(conv, mk) % s.k2
            assert s.r_k3 == window_tiles(conv, mk) % s.k3
            for factor in (2, 4):
                s2 = analyze(conv, scaled(arch, factor), mk)
                assert s2.nc >= s.nc and s2.k2 >= s.k2 and s2.k3 >= s.k3, (
                    f"shrunk under scaling x{factor}: {s} -> {s2}")
        assert analyzed >= 900
        print(f"\n[acceptance] criterion 4 analyzed {analyzed}/1000 feasible")


def test_criterion_5_reference_strategy_from_committed_fixture():
    with criterion(5, "calibrated fixture reproduces the reference strategy"):
        arch = load_arch(FIXTURES / "calibrated.toml")
        s = analyze(ConvInfo(REF_PARAMS), arch, REF_MK)
        assert s.schedule is Schedule.InputStationary
        assert s.nc == 32 and s.r_nc == 0
        assert s.k2 == 32 and s.r_k2 == 0
        assert s.k3 == 87 and s.r_k3 == 3


def test_criterion_6_multipack_consistency():
    with criterion(6, "multipack == concatenation of single packs, exact"):
        rng = np.random.default_rng(66)
        filter_checked = input_checked = 0
        while filter_checked < 50 or input_checked < 50:
            p = random_params(rng, max_ic=8, max_oc=64, max_out=12, pads=(0,))
            conv = ConvInfo(p)
            mk = MkInfo(n_win=4, n_f=4)
            strat_nc = int(rng.integers(1, p.ic + 1))
            x = rng.uniform(-1, 1, (p.n, p.ic, p.ih, p.iw)).astype(np.float32)
            flt = rng.uniform(-1, 1, (p.oc, p.ic, p.fh, p.fw)).astype(np.float32)
            ftiles = p.oc // mk.n_f
            wtiles = conv.ohw // mk.n_win
            if filter_checked < 50 and ftiles >= 2:
                k = int(rng.integers(2, ftiles + 1))
                group = pack_filter(flt, 0, k * mk.n_f, 0, strat_nc)
                singles = np.concatenate([
                    pack_filter(flt, t * mk.n_f, mk.n_f, 0, strat_nc)
                    for t in range(k)])
                assert np.array_equal(group, singles)
                filter_checked += 1
            if input_checked < 50 and wtiles >= 2:
                k = int(rng.integers(2, wtiles + 1))
                o_out = int(rng.integers(0, wtiles - k + 1)) * mk.n_win
                group = pack_input(x, conv, o_out, k * mk.n_win, 0, strat_nc)
                singles = np.concatenate([
                    pack_input(x, conv, o_out + t * mk.n_win, mk.n_win, 0,
                               strat_nc)
                    for t in range(k)], axis=1)
                assert np.array_equal(group, singles)
                input_checked += 1


def test_criterion_7_throughput_and_pack_once():
    with criterion(7, "sliced path >= 2x naive oracle; tiles packed once"):
        t_start = time.perf_counter()
        p = ConvParams(n=1, ic=64, ih=58, iw=58, oc=64, fh=3, fw=3)
        rng = np.random.default_rng(77)
        x = rng.uniform(-1, 1, (1, 64, 58, 58)).astype(np.float32)
        f = rng.uniform(-1, 1, (64, 64, 3, 3)).astype(np.float32)

        out, info = run_convolution(x, f, p, CALIBRATED_ARCH, REF_MK)  # warmup
        assert info.strategy.schedule is Schedule.InputStationary
        engine_t = min(_timed(lambda: run_convolution(x, f, p, CALIBRATED_ARCH,
                                                      REF_MK)) for _ in range(3))
        ref, naive_t = None, float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            ref = naive_conv(x, f, p)
            naive_t = min(naive_t, time.perf_counter() - t0)
        assert max_relative_error(out, ref) <= TOLERANCE
        speedup = naive_t / engine_t
        print(f"\n[acceptance] criterion 7 speedup: {speedup:.1f}x "
              f"(engine {engine_t * 1e3:.1f} ms, naive {naive_t * 1e3:.1f} ms)")
        assert speedup >= 2.0

        # stationary (input) tiles packed exactly once per reuse scope
        counters = RunCounters()
        run_convolution(x, f, p, CALIBRATED_ARCH, REF_MK, counters=counters)
        assert counters.input_packs and set(counters.input_packs.values()) == {1}
        assert counters.filter_packs and set(counters.filter_packs.values()) == {1}
        elapsed = time.perf_counter() - t_start
        assert elapsed < 60


def test_criterion_8_cli_byte_stable():
    with criterion(8, "CLI verify run exits 0 with byte-stable report"):
        cmd = [sys.executable, "-m", "slicedconv.cli", "run",
               "--suite", "fixtures/smoke.jsonl", "--arch", "fixtures/intel.toml",
               "--nwin", "16", "--nf", "8", "--verify-only"]
        env = cli_env()
        first = subprocess.run(cmd, capture_output=True, text=True,
                               cwd=REPO_ROOT, env=env)
        second = subprocess.run(cmd, capture_output=True, text=True,
                                cwd=REPO_ROOT, env=env)
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr
        assert _non_timing_bytes(first.stdout) == _non_timing_bytes(second.stdout)
        assert first.stdout.splitlines()[0] == ("id,correct,max_rel_err,gflops,"
                                                "schedule,nc,k2,k3,regions,seconds")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _non_timing_bytes(csv_text):
    rows = []
    for line in csv_text.strip().splitlines():
        cells = line.split(",")
        rows.append(",".join(cells[:3] + cells[4:9]))
    return "\n".join(rows)
