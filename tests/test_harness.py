import csv
import json
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import CALIBRATED_ARCH, FIXTURES, REF_MK, REF_PARAMS, cli_env
from slicedconv import ConvParams, MkInfo, load_arch, load_suite, out_shape
from slicedconv.harness import (_ERROR_CHUNK, CSV_COLUMNS, ConvCase, format_csv,
                                init_tensors, max_relative_error, parse_case,
                                run_suite)


def test_parse_resnet_stem_record():
    rec = {"id": "stem", "ic": 3, "oc": 64, "ih": 224, "iw": 224,
           "fh": 7, "fw": 7, "stride": 2, "pad": 3}
    case = parse_case(rec, "x")
    assert out_shape(case.params) == (112, 112)
    assert case.repeat == 30


def test_parse_non_square_filter():
    case = parse_case({"ic": 2, "ih": 8, "iw": 8, "oc": 4, "fh": 1, "fw": 7}, "x")
    assert (case.params.fh, case.params.fw) == (1, 7)


def test_parse_rejects_grouped():
    with pytest.raises(ValueError, match="grouped"):
        parse_case({"ic": 4, "ih": 8, "iw": 8, "oc": 4, "fh": 3, "fw": 3,
                    "groups": 2}, "x")


def test_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown"):
        parse_case({"ic": 4, "ih": 8, "iw": 8, "oc": 4, "fh": 3, "fw": 3,
                    "stridee": 2}, "x")


def test_parse_rejects_csv_hostile_id():
    with pytest.raises(ValueError, match="comma"):
        parse_case({"id": "a,b", "ic": 4, "ih": 8, "iw": 8, "oc": 4,
                    "fh": 3, "fw": 3}, "x")


# Every line break str.splitlines knows besides "\n": each splits a CSV row.
LINE_BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=ascii)
def test_load_suite_skips_ids_with_line_breaks(tmp_path, brk):
    base = {"ic": 2, "ih": 6, "iw": 6, "oc": 4, "fh": 3, "fw": 3}
    suite = tmp_path / "s.jsonl"
    suite.write_text("".join(json.dumps({"id": i, **base}) + "\n" for i in
                             ("ok", f"a{brk}b", f"tail{brk}")))
    cases, errors = load_suite(suite)
    assert [c.id for c in cases] == ["ok"]
    assert len(errors) == 2
    assert all("line breaks" in e for e in errors)


def test_cli_rejects_ids_with_line_breaks(tmp_path):
    base = {"ic": 2, "ih": 6, "iw": 6, "oc": 4, "fh": 3, "fw": 3, "repeat": 1}
    suite = tmp_path / "breaks.jsonl"
    bad = ("cr\rid", "ls\u2028id", "nl\nfake", "cr\rx")
    suite.write_text("".join(json.dumps({"id": i, **base}) + "\n" for i in
                             ("ok", *bad)))
    # Bytes, not text: text mode would turn a stray "\r" into "\n".
    proc = subprocess.run(
        [sys.executable, "-m", "slicedconv.cli", "run", "--suite", str(suite),
         "--arch", str(FIXTURES / "intel.toml"), "--nwin", "4", "--nf", "4",
         "--verify-only"], capture_output=True, cwd=tmp_path, env=cli_env())
    assert proc.returncode == 2, proc.stderr
    report = proc.stdout.decode("utf-8")
    assert len(report.splitlines()) == 2  # header plus the one valid case
    rows = list(csv.reader(report.splitlines()))
    assert [r[0] for r in rows] == ["id", "ok"]
    # Each rejected record is one stderr line, whatever breaks its id holds.
    errs = proc.stderr.decode("utf-8")
    assert "\r" not in errs
    skipped = [l for l in errs.split("\n") if l.startswith("skipped record:")]
    assert [l.split(" (")[0] for l in skipped] == [
        f"skipped record: line {n}" for n in range(2, 2 + len(bad))], errs
    assert all("line breaks" in l for l in skipped)
    assert errs.count("skipped record") == len(bad)


def test_parse_rejects_non_integer_fields():
    base = {"ic": 2, "ih": 6, "iw": 6, "oc": 4, "fh": 3, "fw": 3}
    for bad in ({"ic": 2.5}, {"ic": True}, {"stride": 1.0}, {"repeat": 2.7},
                {"repeat": False}, {"groups": True}, {"groups": 1.0}):
        with pytest.raises(TypeError, match=next(iter(bad))):
            parse_case({**base, **bad}, "x")


def test_load_suite_reports_bad_records(tmp_path):
    suite = tmp_path / "s.jsonl"
    suite.write_text(
        '{"id": "ok", "ic": 2, "ih": 6, "iw": 6, "oc": 4, "fh": 3, "fw": 3}\n'
        'not json at all\n'
        '{"id": "grp", "ic": 2, "ih": 6, "iw": 6, "oc": 4, "fh": 3, "fw": 3, "groups": 4}\n'
        '{"id": "bad", "ic": 2, "ih": 2, "iw": 6, "oc": 4, "fh": 3, "fw": 3}\n'
        '{"id": "ok", "ic": 3, "ih": 6, "iw": 6, "oc": 4, "fh": 3, "fw": 3}\n'
        '{"id": "rep0", "ic": 2, "ih": 6, "iw": 6, "oc": 4, "fh": 3, "fw": 3, "repeat": 0}\n'
        '{"id": "neg", "ic": 2, "ih": 6, "iw": 6, "oc": 4, "fh": 3, "fw": 3, "repeat": -5}\n'
        '   \n'
        '[1, 2]\n'
        '{"id": "nofw", "ic": 2, "ih": 6, "iw": 6, "oc": 4, "fh": 3}\n')
    cases, errors = load_suite(suite)
    assert [c.id for c in cases] == ["ok"]
    assert [c.params.ic for c in cases] == [2]  # the first "ok" is kept
    assert len(errors) == 8  # the blank line 8 is no record and no error
    assert any("grp" in e for e in errors)
    assert errors[3].startswith("line 5 ('ok'): duplicate id")
    assert errors[4].startswith("line 6 ('rep0'): repeat must be at least 1")
    assert errors[5].startswith("line 7 ('neg'): repeat must be at least 1")
    assert errors[6] == "line 9 ('case0009'): record is not a JSON object"
    assert errors[7] == "line 10 ('nofw'): missing required key 'fw'"


def test_init_tensors_deterministic():
    case = ConvCase(id="a", params=REF_PARAMS, repeat=1)
    x1, f1 = init_tensors(case, seed=7, index=3)
    x2, f2 = init_tensors(case, seed=7, index=3)
    assert np.array_equal(x1, x2) and np.array_equal(f1, f2)
    x3, _ = init_tensors(case, seed=8, index=3)
    assert not np.array_equal(x1, x3)
    assert x1.dtype == np.float32 and np.all(np.abs(x1) <= 1.0)


def test_max_relative_error_normalization():
    ref = np.array([0.0, 2.0], dtype=np.float32)
    got = np.array([0.0002, 2.0], dtype=np.float32)
    assert max_relative_error(got, ref) == pytest.approx(1e-4, rel=1e-3)


def _old_max_relative_error(got, ref):
    # The formula before the float64 difference was taken in one ufunc.
    scale = max(float(np.max(np.abs(ref))), np.finfo(np.float32).tiny)
    return float(np.max(np.abs(got.astype(np.float64)
                               - ref.astype(np.float64))) / scale)


@pytest.mark.parametrize("kind", ["random", "zeros", "inf", "inf-both",
                                  "nan"])
@pytest.mark.parametrize("ref_dtype", [np.float32, np.float64])
def test_max_relative_error_is_bitwise_the_old_formula(kind, ref_dtype):
    rng = np.random.default_rng(11)
    got = rng.uniform(-3, 3, (2, 5, 7, 3)).astype(np.float32)
    ref = (got + rng.normal(0, 1e-5, got.shape)).astype(ref_dtype)
    if kind == "zeros":
        got, ref = np.zeros_like(got), np.zeros_like(ref)
    elif kind == "inf":
        got[0, 1, 2, 0] = np.inf
    elif kind == "inf-both":  # inf / inf: NaN
        got[0, 1, 2, 0], ref[1, 0, 0, 2] = np.inf, -np.inf
    elif kind == "nan":
        got[1, 4, 6, 1] = np.nan
    with np.errstate(invalid="ignore"):
        new = max_relative_error(got, ref)
        old = _old_max_relative_error(got, ref)
    assert np.array([new]).tobytes() == np.array([old]).tobytes(), (new, old)


@pytest.mark.parametrize("kind", ["random", "nan", "inf", "inf-both",
                                  "ref-nan"])
@pytest.mark.parametrize("ref_dtype", [np.float32, np.float64])
def test_max_relative_error_in_chunks_is_bitwise_the_old_formula(kind,
                                                                ref_dtype):
    # An output of many chunks, with a NaN, an inf or an inf/inf in a later
    # chunk than the largest finite deviation: a chunked maximum must keep
    # it as the whole-tensor maximum does, without allocating anything the
    # size of the output.
    rng = np.random.default_rng(12)
    shape = (8, 8, 64, 67)
    assert np.prod(shape) > 32 * _ERROR_CHUNK
    got = rng.uniform(-3, 3, shape).astype(np.float32)
    ref = (got + rng.normal(0, 1e-5, shape)).astype(ref_dtype)
    got[0, 0, 0, 0] += 1e-3  # the largest finite deviation, in chunk 0
    later = np.unravel_index(2 * _ERROR_CHUNK + 7, shape)
    if kind == "nan":
        got[later] = np.nan
    elif kind == "inf":
        got[later] = np.inf
    elif kind == "inf-both":  # inf / inf: NaN
        got[later] = np.inf
        ref[np.unravel_index(_ERROR_CHUNK + 3, shape)] = -np.inf
    elif kind == "ref-nan":
        ref[later] = np.nan
    tracemalloc.start()
    try:
        with np.errstate(invalid="ignore"):
            new = max_relative_error(got, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with np.errstate(invalid="ignore"):
        old = _old_max_relative_error(got, ref)
    assert np.array([new]).tobytes() == np.array([old]).tobytes(), (new, old)
    assert peak < got.size * 8 / 8, peak


def test_max_relative_error_rejects_mismatched_shapes():
    # Chunks pair flat indices, so shapes must match, not only broadcast.
    with pytest.raises(ValueError, match="shape"):
        max_relative_error(np.zeros((1, 2, 3, 4), np.float32),
                           np.zeros((2, 2, 3, 4), np.float32))


def test_run_suite_smoke_and_csv_stability():
    cases, errors = load_suite(FIXTURES / "smoke.jsonl")
    assert not errors
    mk = MkInfo(n_win=16, n_f=8)
    arch = load_arch(FIXTURES / "intel.toml")
    r1, _ = run_suite(cases, arch, mk, seed=11, verify_only=True)
    r2, _ = run_suite(cases, arch, mk, seed=11, verify_only=True)
    assert all(r.correct for r in r1)
    stable1 = _non_timing(format_csv(r1))
    stable2 = _non_timing(format_csv(r2))
    assert stable1 == stable2
    r3, _ = run_suite(cases, arch, mk, seed=12, verify_only=True)
    assert _non_timing(format_csv(r3)) != stable1  # the seed matters


def test_run_suite_parallel_matches_serial():
    cases, _ = load_suite(FIXTURES / "smoke.jsonl")
    mk = MkInfo(n_win=16, n_f=8)
    arch = load_arch(FIXTURES / "intel.toml")
    serial, _ = run_suite(cases, arch, mk, seed=5, verify_only=True, jobs=1)
    parallel, _ = run_suite(cases, arch, mk, seed=5, verify_only=True, jobs=4)
    assert _non_timing(format_csv(serial)) == _non_timing(format_csv(parallel))


def test_import_leaves_the_thread_pool_unloaded():
    # Only run_suite(jobs > 1) uses concurrent.futures, which pulls in
    # logging and queue, and only load_suite parses JSON; importing the
    # package after NumPy must load neither. Nor does it load the suite
    # driver or the references, whose names the package resolves on first
    # use. A fresh interpreter, since this one has run parallel suites.
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import slicedconv\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m.split('.')[0] in ('concurrent', 'json')\n"
            "             or m in ('slicedconv.harness',\n"
            "                      'slicedconv.reference')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_lazy_root_names_resolve_to_their_modules():
    # Each lazily loaded root name is its submodule's own object, a star
    # import binds every __all__ name, and an unknown name is the standard
    # AttributeError. A fresh interpreter, so that no name is bound yet.
    code = ("import slicedconv\n"
            "from slicedconv import harness, reference\n"
            "for mod, names in ((harness, ('ConvCase', 'CaseReport',\n"
            "                               'load_suite', 'run_suite')),\n"
            "                   (reference, ('im2col', 'naive_conv'))):\n"
            "    for name in names:\n"
            "        assert getattr(slicedconv, name) is getattr(mod, name), name\n"
            "ns = {}\n"
            "exec('from slicedconv import *', ns)\n"
            "assert set(slicedconv.__all__) <= set(ns), "
            "set(slicedconv.__all__) - set(ns)\n"
            "assert len(slicedconv.__all__) == 30\n"
            "try:\n"
            "    slicedconv.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ("module 'slicedconv' has no attribute "
                                   "'no_such_name'")


def test_run_suite_records_infeasible_case():
    from slicedconv import ArchInfo
    p = ConvParams(n=1, ic=8, ih=30, iw=30, oc=32, fh=7, fw=7)
    good = ConvParams(n=1, ic=2, ih=8, iw=8, oc=4, fh=3, fw=3)
    cases = [ConvCase(id="toobig", params=p, repeat=1),
             ConvCase(id="fine", params=good, repeat=1)]
    arch = ArchInfo(l1_bytes=2048, l2_bytes=4096, l3_bytes=0)
    reports, regions = run_suite(cases, arch, MkInfo(n_win=16, n_f=16),
                                 verify_only=True)
    assert not reports[0].correct and reports[0].schedule == "-"
    assert reports[1].correct  # the run continued past the failure
    assert list(regions) == ["fine"]  # a failed case has no plan


def test_run_suite_failure_report_names_the_exception():
    p = ConvParams(n=1, ic=8, ih=30, iw=30, oc=32, fh=7, fw=7)
    from slicedconv import ArchInfo
    arch = ArchInfo(l1_bytes=2048, l2_bytes=4096, l3_bytes=0)
    reports, _ = run_suite([ConvCase(id="toobig", params=p, repeat=1)], arch,
                           MkInfo(n_win=16, n_f=16), verify_only=True)
    assert reports[0].error.startswith("ValueError: ")
    assert format_csv(reports).splitlines()[1].startswith("toobig,false,inf,")


@pytest.mark.parametrize("jobs", [1, 2])
def test_coverage_failure_is_an_engine_failure(monkeypatch, capsys, jobs):
    # A plan whose regions fail the coverage check is the engine's fault,
    # not the input's: each case reports the RuntimeError as planned, and
    # the CLI exits 1, serially and from the thread pool.
    from slicedconv import engine
    from slicedconv.cli import main
    monkeypatch.setattr(engine, "coverage_check", lambda regions, conv: False)
    cases, _ = load_suite(FIXTURES / "smoke.jsonl")
    reports, regions = run_suite(cases, load_arch(FIXTURES / "intel.toml"),
                                 MkInfo(n_win=16, n_f=8), verify_only=True,
                                 jobs=jobs)
    assert regions == {}
    assert all(r.error == "RuntimeError: region decomposition does not cover"
               and r.planned and not r.correct for r in reports)
    assert main(["run", "--suite", str(FIXTURES / "smoke.jsonl"),
                 "--arch", str(FIXTURES / "intel.toml"), "--nwin", "16",
                 "--nf", "8", "--verify-only", "--jobs", str(jobs),
                 "--out", "/dev/null"]) == 1
    err = capsys.readouterr().err
    assert "case tail_3x3 failed: RuntimeError: region decomposition" in err
    assert "0 correct, 6 incorrect, 0 not planned" in err


def test_run_suite_divisible_case_single_region():
    cases, _ = load_suite(FIXTURES / "smoke.jsonl")
    arch = load_arch(FIXTURES / "intel.toml")
    reports, _ = run_suite(cases, arch, MkInfo(n_win=16, n_f=8), seed=0,
                           verify_only=True)
    by_id = {r.id: r for r in reports}
    assert by_id["divisible_3x3"].regions == 1
    assert by_id["pointwise_8x8"].regions == 1
    # ic 5 against the analysis's nc 4 peels no channel region
    assert (by_id["dilated_rect"].nc, by_id["dilated_rect"].regions) == (4, 1)


def test_cli_timed_run_failure_is_the_case_failure(tmp_path, monkeypatch,
                                                   capsys):
    # An exception in a case's timed runs fails that case alone, as one in
    # its verification pass does: the other cases are still timed, the
    # report has every row, and the CLI exits 1 naming the case.
    # A serial run times each case right after verifying it, so the first
    # timed run starts after the first case's verification pass.
    from slicedconv import kernel
    from slicedconv.cli import main
    first = tmp_path / "first.jsonl"
    first.write_text((FIXTURES / "smoke.jsonl").read_text().splitlines()[0])
    args = ["--arch", str(FIXTURES / "intel.toml"), "--nwin", "16",
            "--nf", "8"]
    builtin, calls = kernel.microkernel, [0]

    def counting(pin, pf, acc):
        calls[0] += 1
        return builtin(pin, pf, acc)

    monkeypatch.setattr(kernel, "microkernel", counting)
    assert main(["run", "--suite", str(first), *args, "--verify-only",
                 "--out", "/dev/null"]) == 0
    verify_calls, calls[0] = calls[0], 0
    capsys.readouterr()

    def failing(pin, pf, acc):  # the first timed run's first call
        calls[0] += 1
        if calls[0] == verify_calls + 1:
            raise MemoryError("out of memory")
        return builtin(pin, pf, acc)

    monkeypatch.setattr(kernel, "microkernel", failing)
    out = tmp_path / "timed.csv"
    assert main(["run", "--suite", str(FIXTURES / "smoke.jsonl"), *args,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == list(CSV_COLUMNS) and len(rows) == 7
    failed = [r for r in rows[1:] if r[1] == "false"]
    assert [r[:5] for r in failed] == [["pointwise_8x8", "false", "inf",
                                        "0.000", "-"]]
    assert f"case {failed[0][0]} failed: MemoryError: out of memory" in err
    assert "6 cases, 5 correct, 1 incorrect, 0 not planned" in err
    timed = [r for r in rows[1:] if r[1] == "true"]
    assert all(float(r[CSV_COLUMNS.index("seconds")]) > 0 for r in timed)


def test_cli_interrupted_run_removes_only_the_files_it_created(tmp_path,
                                                              monkeypatch):
    # A run that stops on something other than a case failure leaves no
    # empty output behind, and an existing report keeps every byte.
    from slicedconv import cli

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_suite", interrupted)
    (tmp_path / "old.csv").write_text("id\n")
    args = ["run", "--suite", str(FIXTURES / "smoke.jsonl"),
            "--arch", str(FIXTURES / "intel.toml"), "--nwin", "16",
            "--nf", "8", "--verify-only"]
    for outputs in (["--out", str(tmp_path / "new.csv"),
                     "--dump-regions", str(tmp_path / "new.json")],
                    ["--out", str(tmp_path / "old.csv"),
                     "--dump-regions", str(tmp_path / "new.json")]):
        with pytest.raises(KeyboardInterrupt):
            cli.main([*args, *outputs])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv"]
        assert (tmp_path / "old.csv").read_text() == "id\n"


def test_serial_timing_reuses_the_verified_tensors(monkeypatch):
    # A serial timing run draws each case's tensors once and has let go of
    # the previous case's by the time it draws the next; a parallel one
    # draws them again to time them. Every report agrees with a
    # verify-only run's but for the timing columns.
    from slicedconv import harness
    cases, _ = load_suite(FIXTURES / "smoke.jsonl")
    arch, mk = load_arch(FIXTURES / "intel.toml"), MkInfo(n_win=16, n_f=8)
    draws, held, drawn = [], [], []

    def drawing(case, seed, idx):
        held.append([i for i, x in drawn if x() is not None])
        draws.append(idx)
        x, flt = init_tensors(case, seed, idx)
        drawn.append((idx, weakref.ref(x)))
        return x, flt

    monkeypatch.setattr(harness, "init_tensors", drawing)
    verified, _ = run_suite(cases, arch, mk, seed=3, verify_only=True)
    draws.clear()
    timed, _ = run_suite(cases, arch, mk, seed=3)
    assert draws == list(range(len(cases)))
    assert not any(held)
    draws.clear()
    parallel, _ = run_suite(cases, arch, mk, seed=3, jobs=2)
    assert sorted(draws) == sorted(2 * list(range(len(cases))))
    for reports in (timed, parallel):
        assert _non_timing(format_csv(reports)) == _non_timing(
            format_csv(verified))


def test_run_suite_timed_mode_excludes_warmup():
    p = ConvParams(n=1, ic=2, ih=8, iw=8, oc=4, fh=3, fw=3)
    case = ConvCase(id="timed", params=p, repeat=2)
    reports, _ = run_suite([case], CALIBRATED_ARCH, MkInfo(n_win=4, n_f=4),
                           seed=1, verify_only=False)
    r = reports[0]
    assert r.correct and r.gflops > 0 and np.isfinite(r.gflops)
    assert r.seconds > 0


def test_reference_case_region_report():
    case = ConvCase(id="ref75", params=REF_PARAMS, repeat=1)
    reports, regions = run_suite([case], CALIBRATED_ARCH, REF_MK, seed=0,
                                 verify_only=True)
    assert reports[0].correct
    assert reports[0].regions == 3
    lens = sorted(r.spatial_len for r in regions["ref75"])
    assert lens == [9, 48, 5568]
    assert (reports[0].nc, reports[0].k2, reports[0].k3) == (32, 32, 87)
    assert reports[0].schedule == "IS"
    assert reports[0].gflops > 0 and np.isfinite(reports[0].gflops)


def _non_timing(csv_text):
    rows = []
    for line in csv_text.strip().splitlines():
        cells = line.split(",")
        rows.append([c for i, c in enumerate(cells)
                     if i not in (CSV_COLUMNS.index("gflops"),
                                  CSV_COLUMNS.index("seconds"))])
    return rows


def _run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "slicedconv.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=cli_env())


def test_cli_end_to_end(tmp_path):
    out_csv = tmp_path / "report.csv"
    regions_json = tmp_path / "regions.json"
    proc = _run_cli(["run", "--suite", str(FIXTURES / "smoke.jsonl"),
                     "--arch", str(FIXTURES / "intel.toml"),
                     "--nwin", "16", "--nf", "8", "--verify-only",
                     "--seed", "3", "--out", str(out_csv),
                     "--dump-regions", str(regions_json)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 7
    dump = json.loads(regions_json.read_text())
    assert set(dump) == {"pointwise_8x8", "divisible_3x3", "tail_3x3",
                         "strided_pad", "dilated_rect", "batch_2"}


def test_cli_input_error_exit_codes(tmp_path):
    proc = _run_cli(["run", "--suite", "missing.jsonl",
                     "--arch", str(FIXTURES / "intel.toml"),
                     "--nwin", "16", "--nf", "8"], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr

    bad_suite = tmp_path / "bad.jsonl"
    bad_suite.write_text("this is not json\n")
    proc = _run_cli(["run", "--suite", str(bad_suite),
                     "--arch", str(FIXTURES / "intel.toml"),
                     "--nwin", "16", "--nf", "8"], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr

    # garbage, a line of invalid UTF-8 and a record nested past the JSON
    # decoder's recursion limit are each one skipped record
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_bytes(
        b'{"id": "ok", "ic": 2, "ih": 6, "iw": 6, "oc": 4, "fh": 3, "fw": 3, "repeat": 1}\n'
        b'garbage\n'
        b'{"id": "bad\xff\xfe"}\n'
        + b'[' * 100_000 + b']' * 100_000 + b'\n')
    proc = _run_cli(["run", "--suite", str(mixed),
                     "--arch", str(FIXTURES / "intel.toml"),
                     "--nwin", "4", "--nf", "4", "--verify-only"], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr  # skipped record -> nonzero at end
    assert proc.stdout.count("\n") == 2  # header plus the one valid case
    skipped = [l for l in proc.stderr.splitlines() if l.startswith("skipped record")]
    assert [l.split(" (")[0] for l in skipped] == [
        "skipped record: line 2", "skipped record: line 3",
        "skipped record: line 4"], proc.stderr


@pytest.mark.parametrize("bad", [
    ["--out", "no_such_dir/report.csv"],
    ["--dump-regions", "no_such_dir/regions.json"],
    ["--dump-regions", "."],
    ["--jobs", "0"],
])
def test_cli_rejects_bad_outputs_and_jobs_before_running(tmp_path, bad):
    proc = _run_cli(["run", "--suite", str(FIXTURES / "smoke.jsonl"),
                     "--arch", str(FIXTURES / "intel.toml"),
                     "--nwin", "16", "--nf", "8", "--verify-only", *bad],
                    cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""  # the suite did not run
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("dump", ["report.csv", "./report.csv"])
def test_cli_rejects_one_file_for_report_and_regions(tmp_path, dump):
    proc = _run_cli(["run", "--suite", str(FIXTURES / "smoke.jsonl"),
                     "--arch", str(FIXTURES / "intel.toml"),
                     "--nwin", "16", "--nf", "8", "--verify-only",
                     "--out", "report.csv", "--dump-regions", dump],
                    cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: --out and --dump-regions"), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""  # the suite did not run
    assert list(tmp_path.iterdir()) == []  # no empty report left behind


@pytest.mark.parametrize("outputs", [
    ["--out", "new.csv", "--dump-regions", "./cases.jsonl"],
    ["--out", "new.csv", "--dump-regions", "./machine.toml"],
    ["--out", "new3.csv", "--dump-regions", "nodir/x.json"],
    ["--out", "old.csv", "--dump-regions", "nodir/x.json"],
], ids=["dump-names-suite", "dump-names-arch", "dump-unwritable",
        "existing-report-kept"])
def test_cli_rejected_run_leaves_no_new_file(tmp_path, outputs):
    # A run rejected over its second output creates no report file, and
    # an existing report keeps every byte.
    (tmp_path / "cases.jsonl").write_bytes(
        (FIXTURES / "smoke.jsonl").read_bytes())
    (tmp_path / "machine.toml").write_bytes(
        (FIXTURES / "intel.toml").read_bytes())
    (tmp_path / "old.csv").write_text("id\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    proc = _run_cli(["run", "--suite", "cases.jsonl", "--arch",
                     "machine.toml", "--nwin", "16", "--nf", "8",
                     "--verify-only", *outputs], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""  # the suite did not run
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("output", ["--out", "--dump-regions"])
@pytest.mark.parametrize("source", ["--suite", "--arch"])
def test_cli_rejects_an_output_that_names_an_input(tmp_path, source, output):
    # Writing the report or the regions JSON over the suite or the arch
    # file would destroy an input: the run stops before it starts, and
    # the input keeps every byte.
    inputs = {"--suite": tmp_path / "cases.jsonl",
              "--arch": tmp_path / "machine.toml"}
    inputs["--suite"].write_bytes((FIXTURES / "smoke.jsonl").read_bytes())
    inputs["--arch"].write_bytes((FIXTURES / "intel.toml").read_bytes())
    before = inputs[source].read_bytes()
    proc = _run_cli(["run", "--suite", "cases.jsonl", "--arch",
                     str(inputs["--arch"]), "--nwin", "16", "--nf", "8",
                     "--verify-only", output, f"./{inputs[source].name}"],
                    cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {source} and {output} name the "
                                  f"same file"), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""  # the suite did not run
    assert inputs[source].read_bytes() == before


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70)])
def test_cli_rejects_seed_outside_64_bits(tmp_path, seed):
    proc = _run_cli(["run", "--suite", str(FIXTURES / "smoke.jsonl"),
                     "--arch", str(FIXTURES / "intel.toml"),
                     "--nwin", "16", "--nf", "8", "--verify-only",
                     "--seed", seed], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: --seed"), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""  # the suite did not run


def test_cli_accepts_largest_64_bit_seed():
    from slicedconv.cli import main

    assert main(["run", "--suite", str(FIXTURES / "smoke.jsonl"),
                 "--arch", str(FIXTURES / "intel.toml"),
                 "--nwin", "16", "--nf", "8", "--verify-only",
                 "--seed", str(2**64 - 1), "--out", "/dev/null"]) == 0


def test_cli_microkernel_shape_defaults_to_arch_file(tmp_path):
    # calibrated.toml gives n_win and n_f; intel.toml gives neither
    args = ["run", "--suite", str(FIXTURES / "smoke.jsonl"), "--verify-only"]
    proc = _run_cli([*args, "--arch", str(FIXTURES / "calibrated.toml")],
                    cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 7  # header plus the six cases
    proc = _run_cli([*args, "--arch", str(FIXTURES / "intel.toml")],
                    cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_correctness_failure_exit_code(monkeypatch):
    # a garbage microkernel must surface as exit code 1
    from slicedconv import kernel
    from slicedconv.cli import main

    cases_ok = main(["run", "--suite", str(FIXTURES / "smoke.jsonl"),
                     "--arch", str(FIXTURES / "intel.toml"),
                     "--nwin", "16", "--nf", "8", "--verify-only",
                     "--out", "/dev/null"])
    assert cases_ok == 0

    monkeypatch.setattr(kernel, "microkernel", lambda pin, pf, acc: None)
    rc = main(["run", "--suite", str(FIXTURES / "smoke.jsonl"),
               "--arch", str(FIXTURES / "intel.toml"),
               "--nwin", "4", "--nf", "4", "--verify-only",
               "--out", "/dev/null"])
    assert rc == 1


def test_cli_rejects_non_integer_records(tmp_path):
    suite = tmp_path / "floats.jsonl"
    suite.write_text(
        '{"id": "ok", "ic": 2, "ih": 6, "iw": 6, "oc": 4, "fh": 3, "fw": 3, "repeat": 1}\n'
        '{"id": "half", "ic": 2.5, "ih": 6, "iw": 6, "oc": 4, "fh": 3, "fw": 3}\n'
        '{"id": "flag", "ic": true, "ih": 6, "iw": 6, "oc": 4, "fh": 3, "fw": 3, "repeat": 2.7}\n')
    proc = _run_cli(["run", "--suite", str(suite),
                     "--arch", str(FIXTURES / "intel.toml"),
                     "--nwin", "4", "--nf", "4", "--verify-only"], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout.count("\n") == 2  # header plus the one valid case
    skipped = [l for l in proc.stderr.splitlines() if l.startswith("skipped record")]
    assert len(skipped) == 2 and "('half')" in skipped[0] and "('flag')" in skipped[1]


def test_cli_says_why_a_case_failed(tmp_path):
    tiny = tmp_path / "tiny.toml"
    tiny.write_text("l1_kib = 2\nl2_kib = 4\nl3_kib = 0\n")
    suite = tmp_path / "s.jsonl"
    suite.write_text('{"id": "toobig", "ic": 8, "ih": 30, "iw": 30, "oc": 32, '
                     '"fh": 7, "fw": 7}\n')
    proc = _run_cli(["run", "--suite", str(suite), "--arch", str(tiny),
                     "--nwin", "16", "--nf", "16", "--verify-only"], cwd=tmp_path)
    # The engine cannot plan the case for this machine: an input error.
    assert proc.returncode == 2, proc.stderr
    assert "case toobig could not be planned: ValueError: " in proc.stderr
    assert proc.stdout.splitlines()[0] == ",".join(CSV_COLUMNS)


def _tiny_l1_suite(tmp_path):
    # With l1_kib = 1, the 1x1 case's single-channel tiles fit a 4x4
    # microkernel's L1 budget and the 7x7 case's do not.
    arch = tmp_path / "tiny_l1.toml"
    arch.write_text("l1_kib = 1\n")
    suite = tmp_path / "s.jsonl"
    suite.write_text(
        '{"id": "fits", "ic": 3, "ih": 6, "iw": 6, "oc": 4, "fh": 1, "fw": 1}\n'
        '{"id": "wide", "ic": 3, "ih": 12, "iw": 12, "oc": 4, "fh": 7, "fw": 7}\n')
    return ["run", "--suite", str(suite), "--arch", str(arch),
            "--nwin", "4", "--nf", "4", "--verify-only"]


def test_cli_unplannable_case_is_an_input_error(tmp_path, capsys):
    from slicedconv.cli import main
    assert main(_tiny_l1_suite(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert "case wide could not be planned: ValueError: tile exceeds L1" in err
    assert "case fits" not in err
    assert "2 cases, 1 correct, 0 incorrect, 1 not planned, 0 rejected" in err
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == list(CSV_COLUMNS)
    assert rows[1][:2] == ["fits", "true"]
    assert rows[2][:3] == ["wide", "false", "inf"]


def test_cli_incorrect_planned_case_wins_over_unplannable(tmp_path,
                                                          monkeypatch):
    # A planned case that comes out wrong is the engine's failure: exit 1,
    # even when another case could not be planned.
    from slicedconv import kernel
    from slicedconv.cli import main
    monkeypatch.setattr(kernel, "microkernel", lambda pin, pf, acc: None)
    assert main(_tiny_l1_suite(tmp_path) + ["--out", "/dev/null"]) == 1
