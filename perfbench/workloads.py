"""Workload definitions and the untraced step runner.

One iteration of a workload is a fixed sequence of telesum CLI invocations
("steps"), run one at a time from the checkout root.  Every step writes its
JSON report to stdout; the iteration's digest is the SHA-256 of the
concatenated per-step SHA-256 hex digests, and must equal the digest the
seed commit produced for the same (workload, size, telesum seed).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"

# telesum seeds with stored digests; a benchmark seed picks an order of them
SEED_POOL = tuple(range(1729, 1729 + 16))

CONFIGS = ("perfbench/configs/binomial.tkid", "perfbench/configs/q_chu_vandermonde.tkid")
GRID_IDS = ("qchv_elem", "sears_n1", "ten_phi_nine_n1", "dougall_n1", "dougall_symmetric")


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[tuple[str, ...], ...]  # telesum argv per step, without --seed/--format
    tiny_steps: tuple[tuple[str, ...], ...]  # the same layers at smoke-test size
    jobs: int = 1  # worker processes the untraced steps ask for

    def argv(self, step: tuple[str, ...], seed: int, traced: bool) -> list[str]:
        """Full argv; traced steps run at --jobs 1 so every span stays in-process."""
        args = list(step)
        if traced and "--jobs" in args:
            args[args.index("--jobs") + 1] = "1"
        return args + ["--seed", str(seed), "--format", "json"]

    def configs(self) -> list[str]:
        return [s[s.index("--config") + 1] for s in self.steps if "--config" in s]


def _grid_ids(ids) -> tuple[str, ...]:
    return tuple(a for key in ids for a in ("--id", key))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ez-certify",
        steps=(("verify", "--suite", "ez", "--samples", "1", "--jobs", "1"),),
        tiny_steps=(("verify", "--suite", "ez", "--id", "binomial", "--samples", "1",
                     "--n-max", "3", "--jobs", "1"),),
    ),
    Workload(
        name="corpus-sweep",
        steps=(("verify", "--suite", "corpus", "--samples", "1", "--jobs", "1"),
               ("verify", "--suite", "sequences", "--jobs", "1"),
               ("verify", "--suite", "genhyp", "--jobs", "1")),
        tiny_steps=(("verify", "--suite", "corpus", "--id", "binomial", "--samples", "1",
                     "--n-max", "3", "--jobs", "1"),
                    ("verify", "--suite", "sequences", "--id", "fibonacci", "--samples", "1",
                     "--n-max", "4", "--jobs", "1"),
                    ("verify", "--suite", "genhyp", "--id", "macdonald_cv", "--samples", "2",
                     "--jobs", "1")),
    ),
    Workload(
        name="grid-jobs2",
        steps=(("verify", "--suite", "elementary", "--grid", "--samples", "50",
                *_grid_ids(GRID_IDS), "--jobs", "2"),),
        tiny_steps=(("verify", "--suite", "elementary", "--grid", "--samples", "5",
                     *_grid_ids(("qchv_elem", "dougall_symmetric")), "--jobs", "2"),),
        jobs=2,
    ),
    Workload(
        name="config-check",
        steps=(("check", "--config", CONFIGS[0]),
               ("check", "--config", CONFIGS[1], "--samples", "8")),
        tiny_steps=tuple(("check", "--config", path, "--samples", "1", "--n-max", "3")
                         for path in CONFIGS),
    ),
)}


def seed_order(seed: int) -> list[int]:
    """The telesum seeds one benchmark run cycles through, fixed by its seed."""
    order = list(SEED_POOL)
    random.Random(seed).shuffle(order)
    return order


def telesum_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def monotonic_ns() -> int:
    """CLOCK_MONOTONIC is one clock for every process on the host."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def iteration_digest(step_shas: list[str]) -> str:
    return hashlib.sha256("".join(step_shas).encode()).hexdigest()


def load_digests(path: Path = DIGESTS) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass
class StepResult:
    exit_code: int
    sha256: str
    totals: dict[str, int] | None  # None when the report did not parse
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def report_totals(report: bytes) -> dict[str, int] | None:
    try:
        totals = json.loads(report)["totals"]
    except (ValueError, KeyError, TypeError):
        return None
    return {key: int(totals[key]) for key in ("checks", "pass", "fail", "inadmissible")}


def run_step(argv: list[str], env: dict[str, str]) -> StepResult:
    """One untraced CLI invocation: wall clock, CPU and peak RSS of its process
    tree (pool workers are reaped by the CLI, so wait4 accounts for them)."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "telesum", *argv], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            report = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StepResult(
        exit_code=proc.returncode,
        sha256=hashlib.sha256(report).hexdigest(),
        totals=report_totals(report),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
