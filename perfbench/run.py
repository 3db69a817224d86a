"""telesum benchmark: closed-loop CLI runs with a digest gate on every report.

    python3 perfbench/run.py --workload ez-certify --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --all                          # every workload, one table

One client runs one telesum CLI invocation at a time from the checkout root
(at most two busy processes: grid-jobs2 asks the CLI for two pool workers).  A
run first times the set-up probe several times, then repeats the workload's
iteration until --seconds have passed, cycling through telesum seeds in an
order fixed by --seed.  Every report is checked against the digest the seed
commit produced for that (workload, telesum seed).

--trace 0 reports the end-to-end metrics (medians over iterations).  Times
are reference-host seconds: the median is divided by the host's mean
slowdown measured around the run's iterations (hostspeed.py); raw seconds
are in the details.
--trace 1 follows each untraced iteration with a traced one (the CLI run
in-process under perfbench/tracer.py, at --jobs 1) and an untraced partner
at the same argv, and reports the per-layer metrics, including the tracing
overhead: the median traced wall time minus the median partner wall time,
both timed to process exit.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
machine facts and run details.  Exit code 1 means a report was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer
from hostspeed import HostSpeed
from workloads import (BENCH_DIR, OUT_DIR, ROOT, WORKLOADS, StepResult,
                       iteration_digest, load_digests, monotonic_ns,
                       run_step, seed_order, telesum_env)

SETUP_PROBES = 5


def machine_facts() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu_model, "loadavg": list(os.getloadavg())}


def setup_probe(configs: list[str], env: dict[str, str]) -> float:
    """Seconds from starting a fresh interpreter until the first check could run."""
    start = monotonic_ns()
    done = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), *configs],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return (int(done.stdout) - start) / 1e9


def traced_step(name: str, index: int, argv: list[str], env: dict[str, str]):
    """(StepResult, raw span aggregates) of one CLI invocation under the tracer."""
    spans_out = OUT_DIR / "spans" / f"{name}.{index}.json"
    # timed to process exit, like run_step, so the two walls differ by the tracer alone
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "tracer.py"),
                           "--spans-out", str(spans_out), "--", *argv],
                          cwd=ROOT, env=env, capture_output=True)
    wall = time.perf_counter() - start
    try:
        out = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        sys.stderr.write(proc.stderr.decode())
        return StepResult(proc.returncode or 1, "", None, 0.0, 0.0, 0.0), None
    return StepResult(out["exit_code"], out["sha256"], out["totals"], wall, 0.0, 0.0), out["raw"]


def traced_pair(name: str, argvs: list[list[str]], env: dict[str, str], traced_first: bool):
    """(untraced StepResults, traced (StepResult, raw) pairs) of the same argvs."""
    def untraced():
        return [run_step(argv, env) for argv in argvs]

    def traced():
        return [traced_step(name, j, argv, env) for j, argv in enumerate(argvs)]

    if traced_first:
        spans = traced()
        return untraced(), spans
    return untraced(), traced()


class Gate:
    """Counts checks and failures: fail records, bad exits, digest mismatches."""

    def __init__(self, expected: dict[str, str]) -> None:
        self.expected = expected
        self.checks = 0
        self.failed = 0
        self.inadmissible = 0
        self.mismatches = 0

    def add(self, seed: int, steps: list[StepResult]) -> int:
        checks = 0
        for step in steps:
            if step.exit_code != 0 or step.totals is None:
                self.failed += 1
            if step.totals is not None:
                checks += step.totals["checks"]
                self.failed += step.totals["fail"]
                self.inadmissible += step.totals["inadmissible"]
        if iteration_digest([s.sha256 for s in steps]) != self.expected.get(str(seed)):
            self.failed += 1
            self.mismatches += 1
        self.checks += checks
        return checks

    @property
    def attempted(self) -> int:
        return max(1, self.checks)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
            digests: dict) -> tuple[Gate, dict[str, float], dict]:
    workload = WORKLOADS[name]
    steps = workload.tiny_steps if tiny else workload.steps
    gate = Gate(digests["tiny" if tiny else "full"][name])
    env = telesum_env()
    order = seed_order(seed)
    host = HostSpeed()
    details = {"workload": name, "seed": seed, "machine": machine_facts(),
               "size": "tiny" if tiny else "full"}

    setup = []  # (raw seconds, host factor)
    if not trace:
        setup_probe(workload.configs(), env)  # untimed: fills the byte-code cache
        setup = [host.measure(1, lambda: setup_probe(workload.configs(), env))
                 for _ in range(SETUP_PROBES)]
    seeds, walls, factors, cpus, rss, checks = [], [], [], [], [], []
    layers, partner_walls, traced_walls = [], [], []  # reference-host seconds
    started = time.perf_counter()
    while not seeds or time.perf_counter() - started < seconds:
        cli_seed = order[len(seeds) % len(order)]
        seeds.append(cli_seed)
        results, factor = host.measure(workload.jobs, lambda: [
            run_step(workload.argv(s, cli_seed, traced=False), env) for s in steps])
        checks.append(gate.add(cli_seed, results))
        walls.append(sum(r.wall_s for r in results))
        factors.append(factor)
        cpus.append(sum(r.cpu_s for r in results))
        rss.append(max(r.peak_rss_mb for r in results))
        if trace:
            # The overhead's untraced partner runs the traced argv (--jobs 1) on
            # the same CPU in one host-speed bracket; alternating which of the
            # two goes first cancels the host's drift within the bracket.
            (partner, traced), pair_factor = host.measure(1, lambda: traced_pair(
                name, [workload.argv(s, cli_seed, traced=True) for s in steps], env,
                traced_first=len(seeds) % 2 == 0))
            gate.add(cli_seed, partner)
            gate.add(cli_seed, [r for r, _ in traced])
            raws = [raw for _, raw in traced if raw is not None]
            if len(raws) == len(steps):
                partner_walls.append(sum(r.wall_s for r in partner) / pair_factor)
                traced_walls.append(sum(r.wall_s for r, _ in traced) / pair_factor)
                layers.append(tracer.layer_metrics(tracer.merge(raws), walls[-1] / factor,
                                                   workload.jobs, pair_factor))

    # Medians of raw times, divided by the run's mean host slowdown (hostspeed.py).
    host_factor = statistics.fmean(factors)
    details.update(iterations=len(seeds), seeds=seeds, raw_wall_s=walls, host_factor=factors,
                   digest_mismatches=gate.mismatches)
    if trace:
        # every traced step failed: report zeros, the gate already says incorrect
        layers = layers or [tracer.layer_metrics(tracer.merge([]), 0.0, workload.jobs, 1.0)]
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(traced_walls or [0.0])
                                       - statistics.median(partner_walls or [0.0]))
        details.update(traced_wall_s=traced_walls, untraced_partner_wall_s=partner_walls)
    else:
        setup_factor = statistics.fmean(f for _, f in setup)
        details.update(raw_setup_s=[t for t, _ in setup], setup_host_factor=[f for _, f in setup])
        metrics = {
            "wall_s": statistics.median(walls) / host_factor,
            "cpu_s": statistics.median(cpus) / host_factor,
            "setup_s": statistics.median(t for t, _ in setup) / setup_factor,
            "checks_per_s": statistics.median(n / w for n, w in zip(checks, walls)) * host_factor,
            "peak_rss_mb": statistics.median(rss),
            "pass_ratio": max(0.0, 1 - gate.failed / gate.attempted),
            "admissible_ratio": 1 - gate.inadmissible / gate.attempted,
        }
    return gate, metrics, details


def with_units(metrics: dict[str, float], declared: list[dict]) -> dict[str, dict]:
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def main() -> int:
    parser = argparse.ArgumentParser(description="telesum closed-loop benchmark")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()

    if not (ROOT / "src" / "telesum" / "cli.py").is_file():
        print(f"error: no telesum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    digests = load_digests()

    names = sorted(WORKLOADS) if args.all else [args.workload]
    attempted = failed = 0
    correct = True
    combined = {}
    for name in names:
        gate, metrics, details = measure(name, args.seed, seconds, bool(args.trace),
                                         args.tiny, digests)
        print(json.dumps(details))
        attempted += gate.attempted
        failed += gate.failed
        correct = correct and gate.correct
        values = with_units(metrics, declared)
        if args.all:
            print(f"{name}: correct={gate.correct} checks={gate.checks} failed={gate.failed}")
            for metric, v in values.items():
                print(f"  {metric:28s} {v['value']:.6g} {v['unit']}")
            combined.update({f"{name}/{metric}": v for metric, v in values.items()})
        else:
            combined = values
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
