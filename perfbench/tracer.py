"""In-process tracing of one telesum CLI invocation, from outside the package.

Run as a child process:

    python3 perfbench/tracer.py --spans-out FILE -- verify --suite ez ...

It imports telesum, wraps the public functions of each traced module at every
name a caller looks them up by (``runner`` imports ``draw_admissible``,
``normalized`` and ``verify_sample`` by name; ``certify.verify_sample`` finds
its checks as module globals), wraps the per-identity closures (summand,
closed form, normalized F), runs ``telesum.cli.main`` in-process, and prints
one JSON line: the CLI's exit code, the report's SHA-256 and totals, and
the raw aggregates of its spans.  The spans
themselves (name, start, end, parent) are kept in memory and written to
FILE when the run ends.

A span is recorded only for the outermost call of each wrapper, so the
recursion of ``exprlang.evaluate`` through its own module name counts once.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import io
import json
import math
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from workloads import report_totals

MODULES = ("runner", "corpus", "certify", "elementary", "exprlang", "sequences", "genhyp",
           "telescope", "report")
REPORT_METHODS = ("extend", "sorted_records", "totals", "failures", "to_json_dict", "to_json")
ITEM_SPANS = ("runner._execute_item", "runner.run_config_identity")
CERT_CHECKS = ("row_sum_check", "difference_check", "telescope_to_zero_check",
               "natural_termination_check")


class Tracer:
    """Spans in flat arrays: name id, parent index, start and end (ns)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.counters: Counter = Counter()

    def wrap(self, name: str, fn, post=None):
        """fn timed as span `name`; post(result, args) may replace the result."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter_ns
        active = False

        def traced(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            active = True
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.current)
            self.end.append(0)
            self.current = idx
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.current = self.parent[idx]
                active = False
            return result if post is None else post(result, args)

        traced.__wrapped__ = fn
        return traced

    def note_bits(self, value, _args=None):
        """Largest numerator/denominator bit length among traced return values."""
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        if bits > self.counters["value_bits_max"]:
            self.counters["value_bits_max"] = bits
        return value

    def aggregate(self) -> dict:
        """Per span name: calls, total and self nanoseconds; plus item durations."""
        n = len(self.start)
        child_ns = [0] * n
        durations = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += durations[i]
        per_name: dict[str, list[int]] = {}
        items = []
        for i in range(n):
            name = self.names[self.name[i]]
            row = per_name.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += durations[i]
            row[2] += durations[i] - child_ns[i]
            if name in ITEM_SPANS:
                items.append(durations[i])
        return {"spans": per_name, "item_ns": items, "n_spans": n,
                "counters": dict(self.counters)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "parent": self.parent.tolist(), "start_ns": self.start.tolist(),
                       "end_ns": self.end.tolist()}, fh)


def install(tracer: Tracer) -> None:
    """Wrap each traced module's public functions wherever telesum binds them."""
    import telesum.cli  # noqa: F401  (imports every module the CLI uses)
    from telesum import certify, corpus, elementary, exprlang, report, runner

    def count_rejects(ok, _args):
        if not ok:
            tracer.counters["probe_rejects"] += 1
        return ok

    def count_checks(records, _args):
        tracer.counters["cert_checks"] += len(records)
        return records

    grid_shape = elementary.grid_shape

    def count_grid(records, args):
        tracer.counters["grid_points"] += math.prod(grid_shape(args[0]))
        return records

    def with_traced_f(idn, _args):
        return dataclasses.replace(idn, F=tracer.wrap("certify.F", idn.F))

    def with_traced_terms(idef, _args=None):
        return dataclasses.replace(
            idef, term=tracer.wrap("corpus.term", idef.term, tracer.note_bits),
            rhs=tracer.wrap("corpus.rhs", idef.rhs, tracer.note_bits))

    posts = {
        corpus.admissible: count_rejects,
        corpus.rising_factorial: tracer.note_bits,
        corpus.q_rising_factorial: tracer.note_bits,
        corpus.normalized: with_traced_f,
        exprlang.config_to_identity: with_traced_terms,
        elementary.grid_zero_check: count_grid,
    }
    posts.update({getattr(certify, name): count_checks for name in CERT_CHECKS})

    wrapped = {}
    for short in MODULES:
        module = sys.modules[f"telesum.{short}"]
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and not inspect.isgeneratorfunction(obj)
                    and obj not in wrapped):
                wrapped[obj] = tracer.wrap(f"{short}.{obj.__name__}", obj, posts.get(obj))
    wrapped[runner._execute_item] = tracer.wrap("runner._execute_item", runner._execute_item)

    for mod_name, module in list(sys.modules.items()):
        if mod_name == "telesum" or mod_name.startswith("telesum."):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, name, wrapped[obj])

    def count_render(text, args):
        tracer.counters["json_bytes"] += len(text)
        tracer.counters["report_records"] += len(args[0].records)
        return text

    for name in REPORT_METHODS:
        method = getattr(report.Report, name)
        post = count_render if name == "to_json" else None
        setattr(report.Report, name, tracer.wrap(f"report.{name}", method, post))

    for key, idef in list(corpus.CORPUS.items()):
        corpus.CORPUS[key] = with_traced_terms(idef)


# ---------------------------------------------------------------------------
# Parent side: merge step aggregates and derive the per-layer metrics
# ---------------------------------------------------------------------------

def merge(parts: list[dict]) -> dict:
    merged = {"spans": {}, "item_ns": [], "n_spans": 0, "counters": Counter()}
    for part in parts:
        for name, row in part["spans"].items():
            acc = merged["spans"].setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += row[i]
        merged["item_ns"] += part["item_ns"]
        merged["n_spans"] += part["n_spans"]
        for key, value in part["counters"].items():
            if key == "value_bits_max":
                merged["counters"][key] = max(merged["counters"][key], value)
            else:
                merged["counters"][key] += value
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict, untraced_wall_s: float, jobs: int,
                  host_factor: float) -> dict[str, float]:
    """Every per-layer metric of one traced iteration but trace.overhead_s,
    which the caller takes from the medians of whole iterations; layers that
    did not run read 0.

    Span times are divided by the traced iteration's host factor, so that
    they are reference-host seconds like the untraced wall time passed in.
    """
    spans, counters = raw["spans"], raw["counters"]
    ns_per_s = 1e9 * host_factor

    def calls(name):
        return spans.get(name, (0, 0, 0))[0]

    def secs(name):
        return spans.get(name, (0, 0, 0))[1] / ns_per_s

    items = raw["item_ns"]
    item_sum = sum(items) / ns_per_s
    probes = calls("corpus.admissible")
    f_calls = calls("certify.F")
    grid_s = secs("elementary.grid_zero_check")
    metrics = {
        "runner.items": len(items),
        "runner.item_s.max": max(items, default=0) / ns_per_s,
        "runner.item_s.sum": item_sum,
        "runner.parallel_eff": _ratio(item_sum, jobs * untraced_wall_s),
        "corpus.probe_calls": probes,
        "corpus.probe_rejects": counters.get("probe_rejects", 0),
        "corpus.probe_accept_ratio": _ratio(probes - counters.get("probe_rejects", 0), probes),
        "corpus.probe_s": secs("corpus.admissible"),
        "corpus.term_calls": calls("corpus.term"),
        "corpus.rhs_calls": calls("corpus.rhs"),
        "corpus.term_s": secs("corpus.term"),
        "corpus.qrf_calls": calls("corpus.q_rising_factorial"),
        "corpus.rf_calls": calls("corpus.rising_factorial"),
        "corpus.qrf_s": secs("corpus.q_rising_factorial"),
        "corpus.value_bits.max": counters.get("value_bits_max", 0),
        "certify.F_calls": f_calls,
        "certify.F_per_check": _ratio(f_calls, counters.get("cert_checks", 0)),
        "certify.row_calls": calls("certify.telescoping_row"),
        "certify.row_s": secs("certify.telescoping_row"),
        "certify.difference_s": secs("certify.difference_check"),
        "certify.telescope_zero_s": secs("certify.telescope_to_zero_check"),
        "certify.row_sum_s": secs("certify.row_sum_check"),
        "elementary.grid_points": counters.get("grid_points", 0),
        "elementary.grid_s": grid_s,
        "elementary.grid_points_per_s": _ratio(counters.get("grid_points", 0), grid_s),
        "elementary.sampled_s": secs("elementary.sampled_zero_check"),
        "exprlang.parse_s": secs("exprlang.parse_config"),
        "exprlang.evaluate_calls": calls("exprlang.evaluate"),
        "exprlang.evaluate_s": secs("exprlang.evaluate"),
        "sequences.suite_s": secs("sequences.verify_family_suite"),
        "genhyp.suite_s": secs("runner.run_genhyp_item"),
        "telescope.sum_calls": calls("telescope.telescoping_sum"),
        "telescope.sum_s": secs("telescope.telescoping_sum"),
        "report.records": counters.get("report_records", 0),
        "report.sort_s": secs("report.sorted_records"),
        "report.render_s": secs("report.to_json"),
        "report.json_bytes": counters.get("json_bytes", 0),
        "trace.spans": raw["n_spans"],
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = sum(row[2] for name, row in spans.items()
                                          if name.startswith(module + ".")) / ns_per_s
    return metrics


# ---------------------------------------------------------------------------
# Child entry point
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True, type=Path)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer()
    install(tracer)
    from telesum import cli

    out = io.StringIO()
    exit_code = cli.main(argv, out=out)

    report = out.getvalue().encode()
    result = {"exit_code": exit_code,
              "sha256": hashlib.sha256(report).hexdigest(), "totals": report_totals(report),
              "raw": tracer.aggregate()}
    tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
