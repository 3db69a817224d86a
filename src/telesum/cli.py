"""Command-line front end.

    telesum list        every suite's items, each with the citation its report carries
    telesum verify --suite <all|corpus|ez|sequences|genhyp|elementary>
                   [--id KEY ...] [--n-max N] [--samples S] [--seed X]
                   [--grid] [--format text|json] [--jobs J]
    telesum check --config FILE [--n-max N] [--samples S] [--seed X]
                  [--format text|json]

Exit codes: 0 every check passed, 1 at least one failure or no check at
all, 2 usage or config error (including --samples < 1 and --n-max < 0).
For a fixed (suite, seed, flags) triple the JSON report is byte-identical
across runs and worker counts; the default seed is fixed so CI runs are
reproducible.
"""

from __future__ import annotations

import argparse
import sys

from .errors import VerifyError
from .exprlang import ParseError, SchemaError, load_identity_config
from .report import FAIL, INADMISSIBLE, PASS, Report
from .runner import DEFAULT_SEED, SUITES, run_config_identity, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telesum",
        description="Exact verification of telescoping identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list every suite's items and their citations")

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("--suite", default="all", choices=("all", *SUITES))
    verify.add_argument("--id", action="append", dest="ids", metavar="KEY",
                        help="restrict to the given identity/family key (repeatable)")
    _common_flags(verify)
    verify.add_argument("--grid", action="store_true",
                        help="also certify elementary identities on the deterministic grid")
    verify.add_argument("--jobs", type=int, default=1, metavar="J")

    check = sub.add_parser("check", help="verify a user identity config file")
    check.add_argument("--config", required=True, metavar="FILE")
    _common_flags(check)
    return parser


def _common_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--n-max", type=int, default=None, metavar="N")
    cmd.add_argument("--samples", type=int, default=None, metavar="S")
    cmd.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="X")
    cmd.add_argument("--format", default="text", choices=("text", "json"))


def _flags_dict(args: argparse.Namespace) -> dict:
    flags = {"n_max": args.n_max, "samples": args.samples}
    if getattr(args, "grid", None) is not None:
        flags["grid"] = args.grid
    if getattr(args, "ids", None):
        flags["ids"] = sorted(args.ids)
    if getattr(args, "config", None):
        flags["config"] = args.config
    return flags


def _render_text(report: Report, out) -> None:
    totals = report.totals()
    by_identity: dict[tuple[str, str], dict[str, int]] = {}
    for r in report.sorted_records():
        counts = by_identity.setdefault((r.suite, r.identity), {PASS: 0, FAIL: 0, INADMISSIBLE: 0})
        counts[r.status] += 1
    for (suite, identity), counts in sorted(by_identity.items()):
        marker = "ok " if counts[FAIL] == 0 else "FAIL"
        extra = f", {counts[INADMISSIBLE]} inadmissible" if counts[INADMISSIBLE] else ""
        print(f"[{marker}] {suite}/{identity}: {counts[PASS]} pass, "
              f"{counts[FAIL]} fail{extra}", file=out)
    for r in report.failures()[:20]:
        parts = [f"counterexample {r.suite}/{r.identity}", f"[{r.check}]"]
        parts += [f"{name}={value}" for name, value in (("n", r.n), ("sample", r.sample))
                  if value is not None]
        print(f"  {' '.join(parts)}: {r.witness}", file=out)
    print(f"total: {totals['checks']} checks, {totals[PASS]} pass, {totals[FAIL]} fail, "
          f"{totals[INADMISSIBLE]} inadmissible  (seed {report.seed}, "
          f"{report.wall_time:.2f}s)", file=out)


def _emit(report: Report, fmt: str, flags: dict, out) -> int:
    if fmt == "json":
        out.write(report.to_json(flags))
    else:
        _render_text(report, out)
    if not report.records:
        print("error: no checks were run", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_FAIL


def _flag_error(args: argparse.Namespace) -> str | None:
    """Why the counts asked for would make a vacuous or invalid run, if they do."""
    if getattr(args, "jobs", 1) < 1:
        return "--jobs must be >= 1"
    if args.samples is not None and args.samples < 1:
        return "--samples must be >= 1"
    if args.n_max is not None and args.n_max < 0:
        return "--n-max must be >= 0"
    return None


def _run_list(out) -> int:
    for suite in SUITES.values():
        print(suite.heading, file=out)
        for key, citation in suite.citations.items():
            print(f"  {key:28s} {citation}", file=out)
    return EXIT_OK


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    if args.command == "list":
        return _run_list(out)

    problem = _flag_error(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE

    if args.command == "verify":
        try:
            report = run_suite(args.suite, ids=args.ids, n_max=args.n_max,
                               samples=args.samples, seed=args.seed,
                               grid=args.grid, jobs=args.jobs)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return EXIT_USAGE
        return _emit(report, args.format, _flags_dict(args), out)

    if args.command == "check":
        try:
            idef = load_identity_config(args.config)
        except FileNotFoundError:
            print(f"error: config file not found: {args.config}", file=sys.stderr)
            return EXIT_USAGE
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            print(f"error: cannot read config file {args.config}: {reason}", file=sys.stderr)
            return EXIT_USAGE
        except (ParseError, SchemaError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        try:
            report = run_config_identity(idef, n_max=args.n_max, samples=args.samples,
                                         seed=args.seed)
        except VerifyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        return _emit(report, args.format, _flags_dict(args), out)

    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
