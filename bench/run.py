"""Layer benchmark: the slicedconv engine against an in-process im2col + BLAS
baseline, with a traced per-stage breakdown.

Run from the repository root:

    python3 bench/run.py --workload resnet_early --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                     # every workload, one after another

A run is a closed loop with one client: a pass runs the workload's
convolutions in order and the next pass starts when it ends. With --trace 0
it reports the end-to-end metrics; with --trace 1 it alternates traced and
untraced passes and reports the per-layer metrics. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it give the environment and a readable summary.

Exit status: 0 when every layer run matched the float64 reference within
1e-4, 1 when any raised or missed it, 2 when the benchmark could not run.
"""

import os

# BLAS runs on one thread; this must happen before anything loads NumPy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("resnet_early", "resnet_late", "tail_heavy", "cli_verify")
SETUP_PROBES = 9      # set-up is measured this many times, median reported
MIN_PASSES = 5        # per measured loop, even when --seconds runs out first
PROBE_TIMEOUT_S = 120

END_TO_END = (
    ("blas_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_mib", "MiB"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_engine():
    """Import slicedconv from this checkout's src/ and from nowhere else."""
    pkg = SRC / "slicedconv"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no slicedconv package at {pkg}")
    sys.path.insert(0, str(SRC))
    import slicedconv
    if Path(slicedconv.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported slicedconv from {slicedconv.__file__}")
    return slicedconv


def load_machine(sc):
    arch_file = BENCH_DIR / "arch.toml"
    return sc.load_arch(arch_file), sc.load_mk(arch_file)


def setup_probe(args) -> int:
    """One set-up measurement: import slicedconv, then one cold pass.

    NumPy is imported before the clock starts: its import is the same for
    every version of slicedconv and is the noisiest part of a fresh process.
    """
    import numpy  # noqa: F401
    t0 = perf_counter()
    sc = import_engine()
    import_s = perf_counter() - t0
    from workloads import make_workload
    arch, mk = load_machine(sc)
    workload = make_workload(sc, args.workload, args.seed, arch, mk)
    cold_s = workload.engine_pass(None)
    print(json.dumps({"setup_s": import_s + cold_s}))
    return 0


def setup_seconds(args) -> float:
    """Set-up seconds of one fresh process running ``setup_probe``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _blas_threads(np):
    """Threads OpenBLAS reports, or the pinning variable when it cannot be asked."""
    import ctypes
    for lib_path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(np, args, arch, mk) -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "arch": {"l1_bytes": arch.l1_bytes, "l2_bytes": arch.l2_bytes,
                 "l3_bytes": arch.l3_bytes,
                 "cache_line_bytes": arch.cache_line_bytes},
        "microkernel": f"{mk.n_win}x{mk.n_f}",
        "workload": args.workload,
        "seed": args.seed,
        "commit": _git_commit(),
        "loop": "closed, 1 client",
    }


def measure_end_to_end(args, workload, gate) -> dict:
    import numpy as np
    workload.timed_pass(gate)  # warm-up: caches, lazy set-up

    # Ungated: the gate's float64 temporaries would set the peak themselves.
    tracemalloc.start()
    try:
        workload.engine_pass(None)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    # Per layer, the fastest engine run over the fastest baseline run: on a
    # shared host, speed drifts by tens of percent within and between runs,
    # and the per-layer minima are what repeats (see README.md). The set-up
    # probes are spread evenly over the run for the same reason; their own
    # time does not count against --seconds.
    pass_s, ratios, engine_min, baseline_min = [], [], None, None
    setup, probe_s = [], 0.0
    t_start = perf_counter()
    while (len(pass_s) < MIN_PASSES or len(setup) < SETUP_PROBES
           or perf_counter() - probe_s < t_start + args.seconds):
        measured = perf_counter() - probe_s - t_start
        if len(setup) < SETUP_PROBES and measured >= len(setup) * args.seconds / SETUP_PROBES:
            t0 = perf_counter()
            setup.append(setup_seconds(args))
            probe_s += perf_counter() - t0
            continue
        times = workload.timed_pass(gate)
        engine = [t[0] for t in times]
        baseline = [min(t[1], t[2]) for t in times]
        engine_min = engine if engine_min is None else list(map(min, engine_min, engine))
        baseline_min = baseline if baseline_min is None else list(map(min, baseline_min, baseline))
        pass_s.append(sum(engine))
        ratios.append(sum(engine) / sum((t[1] + t[2]) / 2 for t in times))
    n, p50 = len(pass_s), statistics.median(pass_s)
    print(f"# {args.workload}: {n} passes in {perf_counter() - t_start - probe_s:.2f} s; "
          f"setup_s samples " + ", ".join(f"{v:.4f}" for v in setup))
    print("# wall-time figures, printed only: they drift too much on a shared host to gate")
    for name, value, unit in (
            ("pass_s_p50", p50, "s"),
            ("pass_s_p90", float(np.percentile(pass_s, 90)), f"s (n={n} passes)"),
            ("gflops", workload.flops / p50 / 1e9, "GFLOP/s"),
            ("blas_ratio_pass_p50", statistics.median(ratios), "ratio"),
            ("blas_ratio_pass_p90", float(np.percentile(ratios, 90)), "ratio")):
        print(f"{name} {value:.6g} {unit}")
    return {
        "blas_ratio": sum(engine_min) / sum(baseline_min),
        "setup_s": statistics.median(setup),
        "peak_mib": peak_bytes / 2**20,
    }


def measure_layers(args, sc, mk, workload, gate) -> tuple[dict, dict, list]:
    from breakdown import SHARE_SPANS, engine_result_hook, install, pass_metrics
    from spans import Tracer

    workload.engine_pass(gate)  # warm-up
    tracer = Tracer()
    on_engine = engine_result_hook(sc, mk)
    untraced, traced, per_pass, shares = [], [], [], []
    deadline = perf_counter() + args.seconds
    while len(traced) < MIN_PASSES or perf_counter() < deadline:
        untraced_first = len(traced) % 2 == 1
        if untraced_first:
            untraced.append(workload.engine_pass(gate))
        tracer.reset()
        install(tracer, sc, mk)
        try:
            if args.workload == "cli_verify":
                root = tracer.wrap("harness.run_suite", sc.run_suite)
            else:
                root = tracer.wrap("engine", sc.run_convolution, on_engine)
            traced.append(workload.engine_pass(gate, root))
        finally:
            tracer.restore()
        if not untraced_first:
            untraced.append(workload.engine_pass(gate))
        m, s = pass_metrics(tracer)
        per_pass.append(m)
        shares.append(s)
    metrics = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["reference.max_rel_err"] = gate.max_err
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(untraced) - 1.0)
    share = {k: statistics.median_low(s[k] for s in shares) for k in SHARE_SPANS}
    print(f"# {args.workload}: {len(traced)} traced and {len(untraced)} untraced passes")
    return metrics, share, tracer.absent


def run_one(args) -> int:
    sc = import_engine()
    import numpy as np
    from breakdown import PER_LAYER
    from workloads import Gate, make_workload

    arch, mk = load_machine(sc)
    workload = make_workload(sc, args.workload, args.seed, arch, mk)
    workload.prepare()
    print("# env " + json.dumps(environment(np, args, arch, mk)))
    gate = Gate()
    if args.trace:
        values, share, absent = measure_layers(args, sc, mk, workload, gate)
        units = {name: unit for name, unit, _ in PER_LAYER}
        print("# layer shares (self time / traced pass): " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(share.items(), key=lambda kv: -kv[1]) if v))
        if absent:
            print("# absent (not wrapped): " + ", ".join(absent))
    else:
        values = measure_end_to_end(args, workload, gate)
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_frac {gate.failed / gate.attempted:.6g} "
          f"({gate.failed} of {gate.attempted} layer runs)")
    for reason, count in gate.reasons.items():
        print(f"# failed x{count}: {reason}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if gate.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, then one combined result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
        status = max(status, proc.returncode)
    print(json.dumps(merged))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the measured loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        if args.setup_probe:
            return setup_probe(args)
        return run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # the benchmark itself broke: report, print no result
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
