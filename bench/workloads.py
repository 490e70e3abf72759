"""The benchmark's workloads and the correctness gate every pass goes through.

Three workloads run the engine directly on the layers of ``layers.jsonl``,
interleaved one layer at a time with the float32 im2col + BLAS baseline.
``cli_verify`` runs ``harness.run_suite(verify_only=True)`` over the smoke
suite copied into ``smoke.jsonl``: the ``slicedconv run --verify-only`` path.

Tensors are uniform [-1, 1] float32 from PCG64 seeded with (seed, layer
index), input before filters, as the harness draws them.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from baseline import im2col_conv, max_rel_err, reference

BENCH_DIR = Path(__file__).resolve().parent
TOLERANCE = 1e-4
ENGINE_WORKLOADS = ("resnet_early", "resnet_late", "tail_heavy")


def make_tensors(p, seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([seed, index])
    x = rng.uniform(-1.0, 1.0, (p.n, p.ic, p.ih, p.iw)).astype(np.float32)
    f = rng.uniform(-1.0, 1.0, (p.oc, p.ic, p.fh, p.fw)).astype(np.float32)
    return x, f


def conv_flops(sc, p) -> int:
    oh, ow = sc.out_shape(p)
    return 2 * p.n * p.oc * oh * ow * p.ic * p.fh * p.fw


class Gate:
    """Counts layer runs; a run fails when it raises or misses the tolerance."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_err = 0.0
        self.reasons: Counter = Counter()

    def check(self, layer_id: str, err: float) -> None:
        self.attempted += 1
        self.max_err = max(self.max_err, err)
        if not err <= TOLERANCE:  # NaN fails too
            self.failed += 1
            self.reasons[f"{layer_id}: max_rel_err {err:.3e} > {TOLERANCE:g}"] += 1

    def error(self, layer_id: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[f"{layer_id}: {type(exc).__name__}: {exc}"] += 1


@dataclass
class Layer:
    id: str
    params: object
    x: np.ndarray
    f: np.ndarray
    flops: int
    ref: np.ndarray | None = None


def _time_baseline(layers) -> float:
    elapsed = 0.0
    for layer in layers:
        t0 = perf_counter()
        im2col_conv(layer.x, layer.f, layer.params)
        elapsed += perf_counter() - t0
    return elapsed


class _Workload:
    def __init__(self, sc, shapes, seed: int, arch, mk):
        """shapes: (id, ConvParams) in pass order."""
        self.sc, self.seed, self.arch, self.mk = sc, seed, arch, mk
        self.layers = []
        for index, (layer_id, p) in enumerate(shapes):
            x, f = make_tensors(p, seed, index)
            self.layers.append(Layer(layer_id, p, x, f, conv_flops(sc, p)))
        self.flops = sum(layer.flops for layer in self.layers)

    def prepare(self) -> None:
        """Float64 references, computed once and outside any timed region;
        the baseline must match them before anything is timed."""
        for layer in self.layers:
            layer.ref = reference(layer.x, layer.f, layer.params)
            err = max_rel_err(im2col_conv(layer.x, layer.f, layer.params), layer.ref)
            if not err <= TOLERANCE:
                raise RuntimeError(f"baseline wrong on {layer.id}: max_rel_err {err:.3e}")


class EngineWorkload(_Workload):
    """The engine on one workload's layers; a pass runs them in file order."""

    def __init__(self, sc, name: str, seed: int, arch, mk):
        records = [json.loads(line) for line in
                   (BENCH_DIR / "layers.jsonl").read_text().splitlines() if line.strip()]
        shapes = [(r["id"], sc.ConvParams(**r["params"]))
                  for r in records if r["workload"] == name]
        if not shapes:
            raise ValueError(f"no layers for workload {name!r}")
        super().__init__(sc, shapes, seed, arch, mk)

    def _run(self, layer: Layer, conv, gate: Gate | None) -> float:
        t0 = perf_counter()
        try:
            out, _ = conv(layer.x, layer.f, layer.params, self.arch, self.mk)
        except Exception as exc:  # a raising layer is a failed run; the run goes on
            if gate is not None:
                gate.error(layer.id, exc)
            return perf_counter() - t0
        elapsed = perf_counter() - t0
        if gate is not None:
            gate.check(layer.id, max_rel_err(out, layer.ref))
        return elapsed

    def engine_pass(self, gate: Gate | None, conv=None) -> float:
        """Engine seconds for one pass, no baseline; gate None checks nothing."""
        conv = conv or self.sc.run_convolution
        return sum(self._run(layer, conv, gate) for layer in self.layers)

    def timed_pass(self, gate: Gate) -> list[tuple[float, float, float]]:
        """(engine, baseline before, baseline after) seconds for each layer.

        The baseline runs on the same tensors right before and right after
        each engine layer, so it sees the same machine state.
        """
        times = []
        for layer in self.layers:
            before = _time_baseline([layer])
            engine_s = self._run(layer, self.sc.run_convolution, gate)
            times.append((engine_s, before, _time_baseline([layer])))
        return times


class VerifyWorkload(_Workload):
    """``run_suite(verify_only=True)`` over the smoke suite, as the CLI runs it.

    The gate takes the harness's own verdict: ``run_suite`` already checks
    each case against its float64 per-pixel oracle at 1e-4.
    """

    def __init__(self, sc, seed: int, arch, mk):
        self.cases, errors = sc.load_suite(BENCH_DIR / "smoke.jsonl")
        if errors or not self.cases:
            raise ValueError(f"smoke suite rejected: {errors}")
        super().__init__(sc, [(c.id, c.params) for c in self.cases], seed, arch, mk)

    def _suite(self, run_suite, gate: Gate | None) -> float:
        t0 = perf_counter()
        try:
            reports, _ = run_suite(self.cases, self.arch, self.mk,
                                   seed=self.seed, verify_only=True)
        except Exception as exc:  # the whole suite failed; every case counts
            if gate is not None:
                for case in self.cases:
                    gate.error(case.id, exc)
            return perf_counter() - t0
        elapsed = perf_counter() - t0
        if gate is not None:
            self._check(reports, gate)
        return elapsed

    def _check(self, reports, gate: Gate) -> None:
        if len(reports) != len(self.cases):
            for case in self.cases:
                gate.error(case.id, RuntimeError(
                    f"{len(reports)} reports for {len(self.cases)} cases"))
            return
        for report in reports:
            # A raising case comes back as correct=False, max_rel_err=inf.
            gate.check(report.id, report.max_rel_err if report.correct else float("inf"))

    def engine_pass(self, gate: Gate | None, run_suite=None) -> float:
        return self._suite(run_suite or self.sc.run_suite, gate)

    def timed_pass(self, gate: Gate) -> list[tuple[float, float, float]]:
        """[(pass, baseline before, baseline after)] seconds: the suite cannot
        be split per layer, so the baseline over its shapes brackets it."""
        before = _time_baseline(self.layers)
        pass_s = self._suite(self.sc.run_suite, gate)
        return [(pass_s, before, _time_baseline(self.layers))]


def make_workload(sc, name: str, seed: int, arch, mk):
    if name == "cli_verify":
        return VerifyWorkload(sc, seed, arch, mk)
    if name in ENGINE_WORKLOADS:
        return EngineWorkload(sc, name, seed, arch, mk)
    raise ValueError(f"unknown workload {name!r}")
