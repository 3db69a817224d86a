"""The benchmark's traced mode still runs: ``perfbench/tracer.py`` wraps
telesum functions by name, so renaming one that it binds must fail here.
Each traced step must exit 0 and print the report the untraced CLI prints,
and the traced ``check`` step must see the expression evaluator and the
rising factorials it calls by module-global name."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from telesum.cli import main

ROOT = Path(__file__).resolve().parent.parent

STEPS = {
    "genhyp": ["verify", "--suite", "genhyp", "--id", "macdonald_cv", "--samples", "2"],
    "ez": ["verify", "--suite", "ez", "--id", "binomial", "--samples", "1", "--n-max", "3"],
    "check": ["check", "--config", str(ROOT / "tests" / "golden" / "binomial.tkid"),
              "--samples", "1", "--n-max", "3"],
}


def traced(argv: list[str], tmp_path: Path) -> dict:
    """The JSON line ``perfbench/tracer.py`` prints for one CLI run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"),
         "--spans-out", str(tmp_path / "spans.json"), "--", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize("step", sorted(STEPS))
def test_traced_step_prints_the_untraced_report(step, tmp_path):
    argv = STEPS[step] + ["--format", "json"]
    out = io.StringIO()
    main(argv, out=out)
    untraced = hashlib.sha256(out.getvalue().encode()).hexdigest()
    result = traced(argv, tmp_path)
    assert result["exit_code"] == 0
    assert result["sha256"] == untraced


def test_traced_check_sees_evaluate_and_rising_factorial(tmp_path):
    spans = traced(STEPS["check"], tmp_path)["raw"]["spans"]
    # calls per span: outermost evaluate calls, and binom's rising factorials
    assert spans["exprlang.evaluate"][0] == 91
    assert spans["corpus.rising_factorial"][0] == 60


def test_traced_genhyp_runs_through_the_item_spans(tmp_path):
    # genhyp.suite_s is the runner.run_genhyp_item span: a run that bypassed
    # the module-global names would read 0 there without failing any other test
    spans = traced(STEPS["genhyp"], tmp_path)["raw"]["spans"]
    assert spans["runner._execute_item"][0] == 1
    assert spans["runner.run_genhyp_item"][0] == 1
