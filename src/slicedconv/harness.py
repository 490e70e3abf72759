"""Batch driver: load convolution suites, run engine vs oracle, report.

Suite format is JSON Lines, one object per convolution:

    {"id": "resnet_stem", "n": 1, "ic": 3, "ih": 224, "iw": 224,
     "oc": 64, "fh": 7, "fw": 7, "stride": 2, "pad": 3, "repeat": 10}

Scalar "stride", "pad" and "dil" expand to both axes; _h/_w variants set
them independently. Defaults: n=1, stride=1, dil=1, pad=0, repeat=30.
Records with "groups" != 1 are rejected (grouped convolutions are out of
scope); malformed records, including non-integer fields, a repeat below 1
and records whose id repeats an earlier case's, are reported and skipped.

Tensors are initialized uniform [-1, 1] in f32 from NumPy's PCG64 generator
seeded with (seed, case_index), input tensor drawn before the filter tensor,
so reports are reproducible bit-for-bit for a given suite and seed.

Correctness compares the engine against reference.rowwise_conv, the float64
reference computed as one GEMM per output row and block of filters (equal
to the per-pixel naive_conv oracle after the f32 cast, and much faster);
the per-case metric is max |engine - reference| normalized by the
reference's largest absolute value, checked on every element against the
1e-4 engine tolerance, with the float64 difference taken in bounded chunks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .arch import ArchInfo, MkInfo
from .engine import ConvPlan
from .model import DTYPE, ConvParams, Record, _set, out_shape, require_int
from .reference import rowwise_conv
from .regions import KernelRegion

ENGINE_TOLERANCE = 1e-4
_F32_TINY = np.finfo(np.float32).tiny
# Elements per float64 chunk of max_relative_error's difference (64 KiB):
# every smoke output fits in one.
_ERROR_CHUNK = 1 << 13
_DRAW_CHUNK = 1 << 15  # elements per float64 draw (256 KiB), > any smoke tensor

_ALLOWED_KEYS = {"id", "n", "ic", "ih", "iw", "oc", "fh", "fw",
                 "stride", "stride_h", "stride_w", "dil", "dil_h", "dil_w",
                 "pad", "pad_h", "pad_w", "repeat", "groups"}

CSV_COLUMNS = ("id", "correct", "max_rel_err", "gflops", "schedule",
               "nc", "k2", "k3", "regions", "seconds")


@dataclass(init=False, repr=False, eq=False)
class ConvCase(Record):
    """One suite record: its id, its problem, and how many timed runs
    (repeat, at least 1) a timing run makes of it."""

    id: str
    params: ConvParams
    repeat: int = 30

    def __init__(self, id: str, params: ConvParams, repeat: int = 30):
        if repeat < 1:
            raise ValueError(f"repeat must be at least 1, got {repeat}")
        _set(self, "id", id)
        _set(self, "params", params)
        _set(self, "repeat", repeat)


@dataclass(init=False, repr=False, eq=False)
class CaseReport(Record):
    """One case's outcome: one CSV row (see CSV_COLUMNS), plus the engine's
    error, if it raised, and whether it planned the case at all.

    When the engine refused the case or raised, max_rel_err is inf,
    schedule "-" and the other figures 0.
    """

    id: str
    correct: bool
    max_rel_err: float
    gflops: float
    schedule: str
    nc: int
    k2: int
    k3: int
    regions: int
    seconds: float
    error: str = ""  # "<Type>: <message>" when the engine raised
    planned: bool = True  # False: the engine refused to plan the case

    def __init__(self, id: str, correct: bool, max_rel_err: float,
                 gflops: float, schedule: str, nc: int, k2: int, k3: int,
                 regions: int, seconds: float, error: str = "",
                 planned: bool = True):
        _set(self, "id", id)
        _set(self, "correct", correct)
        _set(self, "max_rel_err", max_rel_err)
        _set(self, "gflops", gflops)
        _set(self, "schedule", schedule)
        _set(self, "nc", nc)
        _set(self, "k2", k2)
        _set(self, "k3", k3)
        _set(self, "regions", regions)
        _set(self, "seconds", seconds)
        _set(self, "error", error)
        _set(self, "planned", planned)


def _axis_pair(rec: dict, base: str, default: int) -> tuple[int, int]:
    scalar = rec.get(base, default)
    return rec.get(f"{base}_h", scalar), rec.get(f"{base}_w", scalar)


def parse_case(rec: dict, default_id: str) -> ConvCase:
    unknown = set(rec) - _ALLOWED_KEYS
    if unknown:
        raise ValueError(f"unknown keys: {sorted(unknown)}")
    groups = rec.get("groups", 1)
    require_int("groups", groups)
    if groups != 1:
        raise ValueError("grouped convolutions are not supported")
    for key in ("ic", "ih", "iw", "oc", "fh", "fw"):
        if key not in rec:
            raise ValueError(f"missing required key {key!r}")
    case_id = str(rec.get("id", default_id))
    # Any str.splitlines break (\r, \x0b, \x85, \u2028, ...) would split
    # a CSV row as surely as \n does.
    if "," in case_id or "".join(case_id.splitlines()) != case_id:
        raise ValueError("id must not contain commas or line breaks")
    sh, sw = _axis_pair(rec, "stride", 1)
    dh, dw = _axis_pair(rec, "dil", 1)
    ph, pw = _axis_pair(rec, "pad", 0)
    params = ConvParams(n=rec.get("n", 1), ic=rec["ic"], ih=rec["ih"],
                        iw=rec["iw"], oc=rec["oc"], fh=rec["fh"], fw=rec["fw"],
                        stride_h=sh, stride_w=sw, dil_h=dh, dil_w=dw,
                        pad_h=ph, pad_w=pw)
    repeat = rec.get("repeat", 30)
    require_int("repeat", repeat)
    return ConvCase(id=case_id, params=params, repeat=repeat)


def load_suite(path) -> tuple[list[ConvCase], list[str]]:
    """Parse a JSONL suite; returns (cases, error messages)."""
    # Imported here, as run_suite imports its thread pool: an import of the
    # package that loads no suite need not load json.
    import json
    cases, errors, seen = [], [], set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            default_id = f"case{lineno:04d}"
            rec = None
            try:
                # Decoding here, not in the file iterator, makes a line of
                # invalid UTF-8 one skipped record.
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("record is not a JSON object")
                case = parse_case(rec, default_id)
                if case.id in seen:
                    raise ValueError(f"duplicate id {case.id!r}")
                seen.add(case.id)
                cases.append(case)
            except (ValueError, TypeError, RecursionError) as exc:
                rec_id = rec.get("id", default_id) if isinstance(rec, dict) else default_id
                errors.append(f"line {lineno} ({rec_id!r}): {exc}")
    return cases, errors


def init_tensors(case: ConvCase, seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic uniform [-1, 1] input and filter tensors for a case,
    the bits of one float64 draw per tensor cast to float32, drawn in
    chunks of _DRAW_CHUNK elements so that no float64 copy is whole."""
    rng = np.random.default_rng([seed, index])
    p = case.params
    x = np.empty((p.n, p.ic, p.ih, p.iw), dtype=DTYPE)
    flt = np.empty((p.oc, p.ic, p.fh, p.fw), dtype=DTYPE)
    for flat in (x.reshape(-1), flt.reshape(-1)):
        for i in range(0, flat.size, _DRAW_CHUNK):
            part = flat[i:i + _DRAW_CHUNK]
            part[...] = rng.uniform(-1.0, 1.0, part.size)
    return x, flt


def max_relative_error(got: np.ndarray, ref: np.ndarray) -> float:
    """Largest per-element deviation, normalized by the reference magnitude.

    The scale comes from two reductions of ref, and the float64 difference
    is taken in chunks of at most _ERROR_CHUNK elements, so a small output
    is one chunk and, for C-ordered arrays, nothing the size of the output
    is allocated. NaN and inf propagate as they would through one
    whole-tensor difference.
    """
    if got.shape != ref.shape:  # the chunks below pair flat indices
        raise ValueError(f"output shape {got.shape} is not the reference's "
                         f"{ref.shape}")
    # A NaN in ref makes both reductions NaN, and max keeps a NaN first
    # argument; abs clears its sign, as |ref|'s maximum would.
    scale = max(abs(float(ref.max())), abs(float(ref.min())), _F32_TINY)
    g, r = got.reshape(-1), ref.reshape(-1)
    worst = 0.0
    for i in range(0, g.size, _ERROR_CHUNK):
        # Both operands are cast to float64, exactly, before they are
        # subtracted.
        diff = np.subtract(g[i:i + _ERROR_CHUNK], r[i:i + _ERROR_CHUNK],
                           dtype=np.float64)
        peak = np.abs(diff, out=diff).max()
        # Not max(), which drops a NaN that is not its first argument: a
        # NaN from any chunk is kept.
        if peak > worst or peak != peak:
            worst = peak
    return float(worst / scale)


def case_flops(p: ConvParams) -> int:
    oh, ow = out_shape(p)
    return 2 * p.n * p.oc * oh * ow * p.ic * p.fh * p.fw


def _failure_report(case: ConvCase, exc: Exception,
                    planned: bool = True) -> CaseReport:
    # engine refused or crashed on the case; recorded, the run continues
    return CaseReport(id=case.id, correct=False, max_rel_err=float("inf"),
                      gflops=0.0, schedule="-", nc=0, k2=0, k3=0, regions=0,
                      seconds=0.0, error=f"{type(exc).__name__}: {exc}",
                      planned=planned)


def run_suite(cases: list[ConvCase], arch: ArchInfo, mk: MkInfo, seed: int = 0,
              verify_only: bool = False, jobs: int = 1
              ) -> tuple[list[CaseReport], dict[str, tuple[KernelRegion, ...]]]:
    """Run every case; returns (reports, each passing run's region plan).

    Each case is planned once (engine.ConvPlan), and its plan runs
    the verification pass and then, unless verify_only, the case's repeat
    timed runs, so the reported seconds exclude planning. A case the
    engine refuses to plan (analyze's ValueError: its tiles do not fit
    the machine) is reported with planned=False; any other exception,
    in the verification pass or a timed run, is an engine failure.
    Verification passes may run in parallel (jobs > 1); timing passes
    are always serialized to avoid interference. A serial run times each
    case right after verifying it, on the same tensors, so it holds one
    case's tensors at a time; a parallel one draws them again to time it.
    """

    def verify(idx: int):
        case = cases[idx]
        try:
            try:
                plan = ConvPlan(case.params, arch, mk)
            except ValueError as exc:
                return _failure_report(case, exc, planned=False)
            x, flt = init_tensors(case, seed, idx)
            t0 = time.perf_counter()
            out, _ = plan.run(x, flt)
            elapsed = time.perf_counter() - t0
            err = max_relative_error(out, rowwise_conv(x, flt, case.params))
        except Exception as exc:  # recorded per case, the run continues
            return _failure_report(case, exc)
        # Kept only for a serial run's timed runs, which come right after.
        keep = jobs == 1 and not verify_only
        return err, elapsed, plan, (x, flt) if keep else None

    regions_map: dict[str, tuple[KernelRegion, ...]] = {}

    def report(idx: int, outcome) -> CaseReport:
        if isinstance(outcome, CaseReport):
            return outcome
        case = cases[idx]
        err, mean, plan, tensors = outcome
        if not verify_only:
            # The verification pass doubles as warm-up and is excluded.
            x, flt = tensors or init_tensors(case, seed, idx)
            times = []
            try:
                for _ in range(case.repeat):
                    t0 = time.perf_counter()
                    plan.run(x, flt)
                    times.append(time.perf_counter() - t0)
            except Exception as exc:  # as in verify: this case fails alone
                return _failure_report(case, exc)
            mean = sum(times) / len(times)
        regions_map[case.id] = plan.regions
        strat = plan.strategy
        return CaseReport(
            id=case.id, correct=err <= ENGINE_TOLERANCE, max_rel_err=err,
            gflops=case_flops(case.params) / mean / 1e9,
            schedule=strat.schedule.value, nc=strat.nc, k2=strat.k2,
            k3=strat.k3, regions=len(plan.regions), seconds=mean)

    if jobs > 1:
        # Imported here: concurrent.futures pulls in logging and queue,
        # which a serial run, and every import of the package, would pay for.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(verify, range(len(cases))))
        reports = [report(i, o) for i, o in enumerate(outcomes)]
    else:
        reports = [report(i, verify(i)) for i in range(len(cases))]
    return reports, regions_map


def format_csv(reports: list[CaseReport]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in reports:
        lines.append(",".join([
            r.id,
            "true" if r.correct else "false",
            f"{r.max_rel_err:.6e}",
            f"{r.gflops:.3f}",
            r.schedule,
            str(r.nc), str(r.k2), str(r.k3), str(r.regions),
            f"{r.seconds:.6f}",
        ]))
    return "\n".join(lines) + "\n"
