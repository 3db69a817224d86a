"""Command-line front end.

    telesum list        every suite's items, each with the citation its report carries
    telesum verify --suite <all|corpus|ez|sequences|genhyp|elementary>
                   [--id KEY ...] [--n-max N] [--samples S] [--seed X]
                   [--grid] [--format text|json] [--jobs J]
    telesum check --config FILE [--n-max N] [--samples S] [--seed X]
                  [--format text|json]

Exit codes: 0 every check passed, 1 at least one failure or no check at
all, 2 usage or config error (including --samples < 1 and --n-max < 0) or
output that cannot be written (a full device, a closed pipe or a closed
descriptor, on stdout or stderr), 3 internal error: an exception that
escaped a check, a worker or a module's first load, printed as its
traceback on stderr, so that a crash never reads as exit 1.  Every byte
the CLI prints, argparse's help, usage and errors included, goes through
``_write``, where a failed write becomes exit 2 with at most one ``error:
cannot write output`` line on stderr.
For a fixed (suite, seed, flags) triple the JSON report is byte-identical
across runs and worker counts; the default seed is fixed so CI runs are
reproducible.  What a start loads, and how ``--jobs`` runs, is described
in ``runner``.

``run`` is the process entry of the ``telesum`` script and of ``python -m
telesum``: it turns an unexpected exception into exit 3, flushes the output
and ends with ``os._exit``, so the process skips the interpreter's teardown.
``main`` is the in-process entry, returns the exit code and lets an
unexpected exception propagate.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn

from .errors import UnknownItem, VerifyError
from .report import FAIL, INADMISSIBLE, PASS, Report
from .runner import DEFAULT_SEED, SUITES, run_config_identity, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class _Unwritable(Exception):
    """A write to stdout or stderr failed; ``main`` exits 2."""


def _write(text: str, file) -> None:
    """Write and flush text: the one path of every byte the CLI prints.

    A stream that is None (its descriptor was closed when the process
    started) or whose write fails is unwritable: unless stderr is the one at
    fault, one ``error: cannot write output`` line goes there, and
    _Unwritable ends the run with exit 2."""
    try:
        if file is None:
            raise OSError("the stream is closed")
        file.write(text)
        file.flush()
    except OSError as exc:
        if file is not sys.stderr:
            _write(f"error: cannot write output: {exc.strerror or exc}\n", sys.stderr)
        raise _Unwritable from None


def _error(problem: object) -> int:
    _write(f"error: {problem}\n", sys.stderr)
    return EXIT_USAGE


class _Parser(argparse.ArgumentParser):
    """Writes its help, usage and errors through ``_write``.  The stock
    parser drops a failed write, sends text meant for a None stdout to
    stderr, and the usage meant for a None stderr to stdout."""

    def _print_message(self, message: str, file=None) -> None:
        if message:
            _write(message, file)

    def print_usage(self, file=None) -> None:  # error() passes sys.stderr
        self._print_message(self.format_usage(), file)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _render_text(report: Report) -> str:
    lines = []
    totals = report.totals()
    by_identity: dict[tuple[str, str], dict[str, int]] = {}
    for r in report.sorted_records():
        counts = by_identity.setdefault((r.suite, r.identity), {PASS: 0, FAIL: 0, INADMISSIBLE: 0})
        counts[r.status] += 1
    for (suite, identity), counts in sorted(by_identity.items()):
        marker = "ok " if counts[FAIL] == 0 else "FAIL"
        extra = f", {counts[INADMISSIBLE]} inadmissible" if counts[INADMISSIBLE] else ""
        lines.append(f"[{marker}] {suite}/{identity}: {counts[PASS]} pass, "
                     f"{counts[FAIL]} fail{extra}")
    for r in report.failures()[:20]:
        parts = [f"counterexample {r.suite}/{r.identity}", f"[{r.check}]"]
        parts += [f"{name}={value}" for name, value in (("n", r.n), ("sample", r.sample))
                  if value is not None]
        lines.append(f"  {' '.join(parts)}: {r.witness}")
    lines.append(f"total: {totals['checks']} checks, {totals[PASS]} pass, {totals[FAIL]} fail, "
                 f"{totals[INADMISSIBLE]} inadmissible  (seed {report.seed}, "
                 f"{report.wall_time:.2f}s)")
    return "\n".join(lines) + "\n"


def _emit(report: Report, fmt: str, flags: dict, out) -> int:
    _write(report.to_json(flags) if fmt == "json" else _render_text(report), out)
    if not report.records:
        _error("no checks were run")
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
    lines = []
    for suite in SUITES.values():
        lines.append(suite.heading)
        lines += [f"  {key:28s} {citation}" for key, citation in suite.citations.items()]
    _write("\n".join(lines) + "\n", out)
    return EXIT_OK


def main(argv: list[str] | None = None, out=None) -> int:
    try:
        return _main(argv, out if out is not None else sys.stdout)
    except _Unwritable:
        return EXIT_USAGE


def _main(argv: list[str] | None, out) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    if args.command == "list":
        return _run_list(out)

    problem = _flag_error(args)
    if problem is not None:
        return _error(problem)

    if args.command == "verify":
        try:
            report = run_suite(args.suite, ids=args.ids, n_max=args.n_max,
                               samples=args.samples, seed=args.seed,
                               grid=args.grid, jobs=args.jobs)
        except UnknownItem as exc:
            return _error(exc.args[0])
        return _emit(report, args.format, _flags_dict(args), out)

    if args.command == "check":
        from .exprlang import ParseError, SchemaError, load_identity_config

        try:
            idef = load_identity_config(args.config)
        except FileNotFoundError:
            return _error(f"config file not found: {args.config}")
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            return _error(f"cannot read config file {args.config}: {reason}")
        except (ParseError, SchemaError) as exc:
            return _error(exc)
        try:
            report = run_config_identity(idef, n_max=args.n_max, samples=args.samples,
                                         seed=args.seed)
        except VerifyError as exc:
            return _error(exc)
        return _emit(report, args.format, _flags_dict(args), out)

    return EXIT_USAGE


def run() -> NoReturn:
    """Run ``main`` as a whole process: flush stdout, then end with
    ``os._exit``, which frees no module or object on the way out.  An
    exception out of main writes its traceback to stderr and exits 3.  A
    flush that fails exits 2 with one error line, unless main already failed
    with exit 2 or 3 and said why.  stderr needs no flush: ``_write`` flushes
    every line it writes there, and stderr is line-buffered for any other
    writer.  A --jobs N run has reaped its workers by now."""
    try:
        code = main()
    except Exception:
        import traceback

        code = EXIT_INTERNAL
        try:
            _write(traceback.format_exc(), sys.stderr)
        except _Unwritable:
            pass
    if code in (EXIT_OK, EXIT_FAIL):
        try:
            _write("", sys.stdout)
        except _Unwritable:
            code = EXIT_USAGE
    os._exit(code)


if __name__ == "__main__":
    run()
