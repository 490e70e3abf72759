"""ConvPlan: plan a convolution once, then run it on any number of tensor
pairs, with the same outputs as run_convolution and the plan itself
returned beside them, and at other sizes through dataclasses.replace."""

import sys
import threading
import time
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import CALIBRATED_ARCH, FIXTURES, rand_tensors
from slicedconv import (ArchInfo, ConvInfo, ConvParams, ConvPlan, MkInfo,
                        RunCounters, analyze, load_arch, load_suite,
                        naive_conv, plan_regions, run_convolution)
from slicedconv import engine, kernel
from slicedconv.harness import max_relative_error
from slicedconv.reference import rowwise_conv

INTEL = load_arch(FIXTURES / "intel.toml")
MK = MkInfo(n_win=16, n_f=8)


def _suite_params(name):
    cases, errors = load_suite(FIXTURES / name)
    assert cases and not errors
    return [pytest.param(c.params, id=c.id) for c in cases]


@pytest.mark.parametrize("p", _suite_params("smoke.jsonl")
                         + _suite_params("deep.jsonl"))
def test_a_replaced_plan_runs_at_its_own_sizes(rng, p):
    # replace(plan, set_tiles=..., chunk=...) re-derives the window sets:
    # in sets of one tile at full depth there is one set per whole tile,
    # and one set of all windows may run in chunks of about half the
    # channels. Either way each GEMM is one of the new plan's sets, per
    # image and chunk, each window tile is packed once per image, the run
    # returns the replaced plan, whose decisions are the original's, and
    # the output matches the reference.
    plan = ConvPlan(p, INTEL, MK)
    conv = plan.conv
    wtiles = max(1, conv.ohw // MK.n_win)
    x, flt = rand_tensors(rng, p)
    ref = rowwise_conv(x, flt, p)
    for set_tiles, chunk in ((1, p.ic), (wtiles, -(-p.ic // 2))):
        sized = replace(plan, set_tiles=set_tiles, chunk=chunk)
        assert len(sized.sets) == (wtiles if set_tiles == 1 else 1)
        assert sized.sets[-1][0] + sized.sets[-1][1] == conv.ohw
        widths, counters = [], RunCounters()

        def hook(packed_in, packed_f, acc):
            widths.append(packed_in.shape[1])
            kernel.microkernel(packed_in, packed_f, acc)

        out, info = sized.run(x, flt, hook=hook, counters=counters)
        assert widths == [cols for _ in range(p.n)
                          for _ in range(0, p.ic, chunk)
                          for _, cols in sized.sets]
        assert counters.input_packs == Counter(
            {(b, t): 1 for b in range(p.n)
             for t in range(-(-conv.ohw // MK.n_win))})
        assert info is sized
        assert (info.strategy, info.regions, info.conv) == (
            plan.strategy, plan.regions, plan.conv)
        assert max_relative_error(out, ref) <= 1e-4


def test_a_plan_replaced_at_another_problem_or_microkernel_plans_anew(rng):
    # replace() of anything but the two sizes makes the plan anew: at a
    # larger problem it keeps the sizes given and covers the new layer,
    # and at a 4x8 microkernel it holds a fresh 4x8 plan's strategy and
    # regions, not the 16x8 plan's.
    p = ConvParams(n=1, ic=8, ih=12, iw=12, oc=16, fh=3, fw=3)
    q = replace(p, ih=22, iw=22)
    plan = ConvPlan(p, INTEL, MK)
    moved = replace(plan, params=q)
    assert moved == ConvPlan(q, INTEL, MK, set_tiles=plan.set_tiles,
                             chunk=plan.chunk)
    assert (moved.conv.oh, moved.conv.ow) == (20, 20)
    x, flt = rand_tensors(rng, q)
    out, _ = moved.run(x, flt)
    assert max_relative_error(out, naive_conv(x, flt, q)) <= 1e-4
    small = MkInfo(n_win=4, n_f=8)
    fresh = ConvPlan(p, INTEL, small)
    assert fresh.regions != plan.regions
    resized = replace(plan, mk=small)
    assert (resized.strategy, resized.regions) == (fresh.strategy,
                                                   fresh.regions)


def test_one_plan_runs_two_tensor_pairs_as_two_engine_calls(rng):
    p = ConvParams(n=2, ic=6, ih=11, iw=7, oc=12, fh=5, fw=5, pad_h=1, pad_w=1)
    mk = MkInfo(n_win=4, n_f=4)
    plan = ConvPlan(p, CALIBRATED_ARCH, mk)
    for _ in range(2):
        x, flt = rand_tensors(rng, p)
        out, info = plan.run(x, flt)
        want, want_info = run_convolution(x, flt, p, CALIBRATED_ARCH, mk)
        assert out.tobytes() == want.tobytes()
        assert info == want_info


@pytest.mark.parametrize("tensor, shape", [
    ("x", (1, 1, 6, 6)), ("filters", (4, 2, 2, 3)), ("x", (2, 6, 6)),
    ("x", (1, 2, 6, 6, 1)), ("x", (1, 0, 6, 6)), ("x", (1, 2, 5, 6)),
    ("x", (1, 3, 6, 6)), ("filters", (4, 3, 3, 3)), ("filters", (5, 2, 3, 3)),
], ids=["x-channels", "filters-taps", "x-rank3", "x-rank5", "x-empty",
        "x-rows", "x-more-channels", "filters-more-channels", "filters-count"])
def test_plan_run_rejects_a_tensor_of_another_shape(rng, tensor, shape):
    # Each tensor is checked against the plan, by name and before any
    # GEMM runs; this covers a wrong rank and an empty extent too.
    # Filters with a third channel would otherwise give the convolution
    # of their first two.
    p = ConvParams(n=1, ic=2, ih=6, iw=6, oc=4, fh=3, fw=3, pad_h=1, pad_w=1)
    plan = ConvPlan(p, CALIBRATED_ARCH, MkInfo(n_win=4, n_f=4))
    x, flt = rand_tensors(rng, p)
    bad = np.zeros(shape, np.float32)
    calls = []
    with pytest.raises(ValueError, match=f"{tensor} has shape"):
        plan.run(*((bad, flt) if tensor == "x" else (x, bad)),
                 hook=lambda *args: calls.append(args))
    assert calls == []


def test_one_plan_runs_from_two_threads_at_once(rng):
    # A plan holds no buffers: two threads running one plan on their own
    # tensors at once get the outputs a serial run gets.
    p = ConvParams(n=2, ic=5, ih=13, iw=12, oc=9, fh=3, fw=3, pad_h=1, pad_w=1)
    plan = ConvPlan(p, CALIBRATED_ARCH, MkInfo(n_win=4, n_f=4))
    pairs = [rand_tensors(rng, p) for _ in range(2)]
    serial = [plan.run(x, flt)[0] for x, flt in pairs]
    start = threading.Barrier(2)
    outs = {}

    def run(i):
        start.wait(timeout=60)
        outs[i] = [plan.run(*pairs[i])[0] for _ in range(20)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
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
    for i in range(2):
        assert len(outs[i]) == 20
        assert all(out.tobytes() == serial[i].tobytes() for out in outs[i])


def test_plan_and_run_look_up_their_stages_as_module_globals(rng,
                                                             monkeypatch):
    # A wrapper installed on engine.analyze sees each report, made on the
    # plan's first read of it and never by planning or running, and one
    # on kernel.pack_input each pack of each run.
    p = ConvParams(n=2, ic=3, ih=9, iw=9, oc=8, fh=3, fw=3)
    mk = MkInfo(n_win=4, n_f=4)
    analyses, packs = [], []
    analyze, pack_input = engine.analyze, kernel.pack_input
    monkeypatch.setattr(engine, "analyze",
                        lambda *a: analyses.append(a) or analyze(*a))
    monkeypatch.setattr(kernel, "pack_input",
                        lambda *a, **kw: packs.append(a) or pack_input(*a, **kw))
    plan = ConvPlan(p, CALIBRATED_ARCH, mk)
    assert len(analyses) == 0
    x, flt = rand_tensors(rng, p)
    plan.run(x, flt)
    plan.run(x, flt)
    assert len(analyses) == 0
    assert len(packs) == 2 * p.n * len(plan.sets)
    plan.strategy
    plan.regions
    assert len(analyses) == 1
    _, info = run_convolution(x, flt, p, CALIBRATED_ARCH, mk)
    assert len(analyses) == 1
    info.regions
    assert len(analyses) == 2


def _refuse(*args):
    raise AssertionError("the report was made")


def test_planning_and_running_make_no_report(rng, monkeypatch):
    # Execution reads no analysis: a plan, its runs, a replaced plan and
    # run_convolution call none of the report's three stages.
    for name in ("analyze", "plan_regions", "coverage_check"):
        monkeypatch.setattr(engine, name, _refuse)
    p = ConvParams(n=2, ic=6, ih=11, iw=7, oc=12, fh=5, fw=5, pad_h=1, pad_w=1)
    mk = MkInfo(n_win=4, n_f=4)
    plan = ConvPlan(p, CALIBRATED_ARCH, mk)
    x, flt = rand_tensors(rng, p)
    out, info = plan.run(x, flt)
    replace(plan, set_tiles=1).run(x, flt)
    want, _ = run_convolution(x, flt, p, CALIBRATED_ARCH, mk)
    assert info is plan and out.tobytes() == want.tobytes()
    assert "strategy" not in vars(plan) and "regions" not in vars(plan)
    with pytest.raises(AssertionError, match="the report was made"):
        plan.regions


ARCHS = {name: load_arch(FIXTURES / name)
         for name in ("intel.toml", "calibrated.toml", "nol3.toml")}


@pytest.mark.parametrize("mk", [MK, MkInfo(n_win=1, n_f=1)],
                         ids=["16x8", "1x1"])
@pytest.mark.parametrize("arch", sorted(ARCHS))
def test_the_report_is_the_analysis_of_the_plans_problem(arch, mk):
    # Made on first read, the report equals what analyze and plan_regions
    # make of the plan's padded problem, on every smoke and deep layer.
    for param in _suite_params("smoke.jsonl") + _suite_params("deep.jsonl"):
        p = param.values[0]
        plan = ConvPlan(p, ARCHS[arch], mk)
        strategy = analyze(plan.conv, ARCHS[arch], mk)
        assert plan.strategy == strategy, param.id
        assert plan.regions == tuple(plan_regions(plan.conv, strategy, mk))


def test_an_l1_overflow_is_refused_at_construction():
    # The one refusal of the analysis stays with planning, in analyze's
    # words, before any report is read.
    p = ConvParams(n=1, ic=4, ih=9, iw=9, oc=8, fh=3, fw=3)
    tiny = ArchInfo(l1_bytes=1024, l2_bytes=4096)
    mk = MkInfo(n_win=64, n_f=64)
    with pytest.raises(ValueError) as analysed:
        analyze(ConvInfo(p), tiny, mk)
    with pytest.raises(ValueError) as planned:
        ConvPlan(p, tiny, mk)
    assert str(planned.value) == str(analysed.value)
    assert str(planned.value).startswith("tile exceeds L1: ")


def test_threads_first_reading_one_plan_get_equal_reports(monkeypatch):
    # Eight threads read a fresh plan's report at once, half of them
    # regions first; a slowed analysis lets several make it. Each gets
    # the report a serial plan makes, and the plan's dict holds each
    # field once, in field order.
    p = ConvParams(n=2, ic=8, ih=20, iw=19, oc=24, fh=3, fw=3, pad_h=1,
                   pad_w=1)
    mk = MkInfo(n_win=16, n_f=8)
    serial = ConvPlan(p, CALIBRATED_ARCH, mk)
    want = (serial.strategy, serial.regions)
    slow = engine.analyze

    def analyze_slowly(*args):
        time.sleep(0.01)
        return slow(*args)

    monkeypatch.setattr(engine, "analyze", analyze_slowly)
    plan = ConvPlan(p, CALIBRATED_ARCH, mk)
    start = threading.Barrier(8)
    got = {}

    def read(i):
        start.wait(timeout=60)
        got[i] = ((plan.strategy, plan.regions) if i % 2
                  else (plan.regions, plan.strategy)[::-1])

    threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(got) == list(range(8))
    assert all(report == want for report in got.values())
    assert list(vars(plan)) == [f.name for f in fields(plan)]


def test_a_replaced_plan_reports_as_a_new_plan():
    # replace() plans again, without the report of the plan it copies,
    # and then reports what a new plan at those sizes reports.
    p = ConvParams(n=1, ic=256, ih=14, iw=14, oc=256, fh=3, fw=3, pad_h=1,
                   pad_w=1)
    plan = ConvPlan(p, INTEL, MK)
    plan.regions
    assert plan.chunk < p.ic
    for chunk in (p.ic, plan.chunk // 2):
        moved = replace(plan, chunk=chunk)
        assert "strategy" not in vars(moved)
        fresh = ConvPlan(p, INTEL, MK, chunk=chunk)
        assert (moved.strategy, moved.regions) == (fresh.strategy,
                                                   fresh.regions)
        assert (moved.strategy, moved.regions) == (plan.strategy,
                                                   plan.regions)
        assert moved == fresh
