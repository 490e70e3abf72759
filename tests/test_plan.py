"""ConvPlan: plan a convolution once, then run it on any number of tensor
pairs, with the same outputs and RunInfo as run_convolution, and at other
sizes through dataclasses.replace."""

import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import CALIBRATED_ARCH, FIXTURES, rand_tensors
from slicedconv import (ConvParams, MkInfo, RunCounters, load_arch,
                        load_suite, plan_convolution, run_convolution)
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
    # image and chunk, each window tile is packed once per image, the
    # decisions reported are the plan's, and the output matches the
    # reference.
    plan = plan_convolution(p, INTEL, MK)
    conv = plan.info.conv
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
        assert info is plan.info
        assert max_relative_error(out, ref) <= 1e-4


def test_one_plan_runs_two_tensor_pairs_as_two_engine_calls(rng):
    p = ConvParams(n=2, ic=6, ih=11, iw=7, oc=12, fh=5, fw=5, pad_h=1, pad_w=1)
    mk = MkInfo(n_win=4, n_f=4)
    plan = plan_convolution(p, CALIBRATED_ARCH, mk)
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
    plan = plan_convolution(p, CALIBRATED_ARCH, MkInfo(n_win=4, n_f=4))
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
    plan = plan_convolution(p, CALIBRATED_ARCH, MkInfo(n_win=4, n_f=4))
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
    # A wrapper installed on engine.analyze sees each plan, and one on
    # kernel.pack_input each pack of each run.
    p = ConvParams(n=2, ic=3, ih=9, iw=9, oc=8, fh=3, fw=3)
    mk = MkInfo(n_win=4, n_f=4)
    analyses, packs = [], []
    analyze, pack_input = engine.analyze, kernel.pack_input
    monkeypatch.setattr(engine, "analyze",
                        lambda *a: analyses.append(a) or analyze(*a))
    monkeypatch.setattr(kernel, "pack_input",
                        lambda *a, **kw: packs.append(a) or pack_input(*a, **kw))
    plan = plan_convolution(p, CALIBRATED_ARCH, mk)
    assert len(analyses) == 1
    x, flt = rand_tensors(rng, p)
    plan.run(x, flt)
    plan.run(x, flt)
    assert len(analyses) == 1
    assert len(packs) == 2 * p.n * len(plan.sets)
    run_convolution(x, flt, p, CALIBRATED_ARCH, mk)
    assert len(analyses) == 2
