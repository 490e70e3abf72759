"""Command-line entry point.

    slicedconv run --suite cases.jsonl --arch machine.txt [--nwin N --nf N] \
        [--seed N] [--jobs N] [--out report.csv] [--verify-only] \
        [--dump-regions regions.json]

Exit codes: 0 ok, 1 correctness failure, 2 input error (including a case
the engine cannot plan for the machine described).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arch import load_arch, load_mk
from .harness import format_csv, load_suite, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicedconv",
        description="Sliced direct-convolution engine benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a convolution suite against the oracle")
    run_p.add_argument("--suite", required=True, help="JSONL suite of convolutions")
    run_p.add_argument("--arch", required=True, help="machine description file")
    run_p.add_argument("--nwin", type=int, default=None,
                       help="output windows per microkernel call "
                            "(default: the arch file's n_win)")
    run_p.add_argument("--nf", type=int, default=None,
                       help="filters per microkernel call "
                            "(default: the arch file's n_f)")
    run_p.add_argument("--seed", type=int, default=0,
                       help="unsigned 64-bit seed for tensor initialization "
                            "(default 0)")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="parallel verification workers (timing stays serial)")
    run_p.add_argument("--out", default=None,
                       help="write the CSV report here instead of stdout")
    run_p.add_argument("--verify-only", action="store_true",
                       help="skip timing loops; report the verification pass")
    run_p.add_argument("--dump-regions", default=None, metavar="PATH",
                       help="write each case's region decomposition as JSON")
    return parser


def _same_file(a: str, b: str) -> bool:
    """Whether paths a and b name one file; where either does not exist
    yet, whether they resolve to the same name."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def cmd_run(args) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print(f"error: --seed must be in [0, 2**64), got {args.seed}",
              file=sys.stderr)
        return 2
    try:
        arch = load_arch(args.arch)
        mk = load_mk(args.arch, n_win=args.nwin, n_f=args.nf)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        cases, errors = load_suite(args.suite)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for msg in errors:
        print(f"skipped record: {msg}", file=sys.stderr)
    if not cases:
        print("error: suite contains no valid cases", file=sys.stderr)
        return 2
    # An output that names an input would overwrite it, and one file for
    # both outputs would keep only the regions JSON, losing the report.
    earlier = [("--suite", args.suite), ("--arch", args.arch)]
    for flag, path in (("--out", args.out),
                       ("--dump-regions", args.dump_regions)):
        if not path:
            continue
        for other_flag, other in earlier:
            if _same_file(other, path):
                print(f"error: {other_flag} and {flag} name the same file "
                      f"({other!r}, {path!r})", file=sys.stderr)
                return 2
        earlier.append((flag, path))
    # An unwritable output path is an input error, found before the run;
    # a rejected run leaves behind no file it created.
    created = []
    for path in (args.out, args.dump_regions):
        if path:
            existed = os.path.lexists(path)
            try:
                with open(path, "a", encoding="utf-8"):
                    pass
            except OSError as exc:
                for made in created:
                    os.remove(made)
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if not existed:
                created.append(path)

    reports, regions_map = run_suite(
        cases, arch, mk, seed=args.seed, verify_only=args.verify_only,
        jobs=args.jobs)

    csv_text = format_csv(reports)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)

    if args.dump_regions:
        dump = {cid: [r.to_dict() for r in regs]
                for cid, regs in regions_map.items()}
        with open(args.dump_regions, "w", encoding="utf-8") as fh:
            json.dump(dump, fh, indent=2)

    for r in reports:
        if r.error:
            what = "failed" if r.planned else "could not be planned"
            print(f"case {r.id} {what}: {r.error}", file=sys.stderr)
    # A case the engine refused to plan is an input error, like a rejected
    # record: its shape does not fit the machine described. A planned case
    # that raised or came out wrong is the engine's failure, and wins.
    unplanned = sum(not r.planned for r in reports)
    n_bad = sum(r.planned and not r.correct for r in reports)
    print(f"{len(reports)} cases, {len(reports) - n_bad - unplanned} correct, "
          f"{n_bad} incorrect, {unplanned} not planned, "
          f"{len(errors)} rejected records", file=sys.stderr)
    if n_bad:
        return 1
    if errors or unplanned:
        return 2
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
