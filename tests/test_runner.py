import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

from telesum import runner
from telesum.errors import Inadmissible
from telesum.report import INADMISSIBLE, PASS, witness


def test_pool_size_never_exceeds_tasks_or_cpus(monkeypatch):
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
    assert runner.pool_size(2, 5) == 2  # the two-worker grid run keeps both
    assert runner.pool_size(4, 5) == 2
    assert runner.pool_size(2, 1) == 1
    assert runner.pool_size(1, 5) == 1
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 8)
    assert runner.pool_size(4, 3) == 3
    monkeypatch.setattr(runner.os, "cpu_count", lambda: None)
    assert runner.pool_size(2, 5) == 1


def _loaded_after_cli_import(modules: set[str]) -> str:
    """Which of `modules` a fresh interpreter holds after `import telesum.cli`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = f"import sys, telesum.cli; print(sorted({sorted(modules)!r} & sys.modules.keys()))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_cli_import_loads_no_process_pool():
    """Only a run that starts a pool imports it: a --jobs 1 start pays nothing."""
    assert _loaded_after_cli_import({"concurrent.futures.process", "multiprocessing"}) == "[]"


def test_cli_import_loads_no_expression_language():
    """Only `check` parses configs: a verify or list start never loads exprlang."""
    assert _loaded_after_cli_import({"telesum.exprlang"}) == "[]"


def test_witness_formats_fraction_int_and_tuple_params():
    params = {"a": F(-1, 2), "m": 3, "s": (F(1), F(2, 3))}
    assert witness(params, lhs=F(5, 2), failed="rhs") == {
        "a": "-1/2", "m": "3", "s": "(1, 2/3)", "lhs": "5/2", "failed": "rhs"}


def test_corpus_item_records_a_mid_run_inadmissible_row(monkeypatch):
    evaluate = runner.evaluate_identity

    def pole_at_n2(idef, n, params):
        if n == 2:
            raise Inadmissible("zero denominator at n=2")
        return evaluate(idef, n, params)

    monkeypatch.setattr(runner, "evaluate_identity", pole_at_n2)
    records = runner.run_corpus_item("geometric", 3, 2, 1729)
    rows = {(r.sample, r.n): r for r in records if r.check == "identity"}
    assert len(rows) == 8
    for (sample, n), record in rows.items():
        if n == 2:
            assert record.status == INADMISSIBLE
            assert record.witness == {"reason": "zero denominator at n=2"}
        else:
            assert record.status == PASS


def test_genhyp_honours_n_max_above_ten():
    records = runner.run_genhyp_item("macdonald_cv", 12, 20, 1729)
    ns = {r.n for r in records if r.check == "identity"}
    assert max(ns) <= 12
    assert ns & {10, 11, 12}
