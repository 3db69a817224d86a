import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from telesum.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

FALSE_CONFIG = """\
name: false_claim
params: x
require: x, 1 + x
lhs: binom(n, k) * x^k
range: 0 .. n
rhs: (1 + x)^n + 1
"""

GOOD_CONFIG = """\
name: my_binomial
params: x
require: x, 1 + x
lhs: binom(n, k) * x^k
range: 0 .. n
rhs: (1 + x)^n
cert_u: x*(n - k + 1)
cert_v: k
"""


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_list_mentions_corpus_and_families():
    code, text = run_cli(["list"])
    assert code == 0
    assert "chu_vandermonde" in text
    assert "Chu (1303)-Vandermonde (1772)" in text
    assert "pell" in text
    assert "macdonald_dougall" in text
    assert "q-Dougall sum (Jackson, 1921)" in text


def test_verify_single_identity_exit_zero():
    code, text = run_cli(["verify", "--suite", "corpus", "--id", "chu_vandermonde",
                          "--n-max", "10", "--seed", "7", "--samples", "8"])
    assert code == 0
    assert "0 fail" in text


def test_verify_sequences_includes_prefix_sum_rows():
    code, text = run_cli(["verify", "--suite", "sequences", "--id", "fibonacci",
                          "--n-max", "20"])
    assert code == 0
    assert "fibonacci/prefix_sum" in text


def test_json_determinism_byte_identical():
    argv = ["verify", "--suite", "corpus", "--id", "geometric", "--format", "json",
            "--samples", "6", "--seed", "3"]
    code1, first = run_cli(argv)
    code2, second = run_cli(argv)
    assert code1 == code2 == 0
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == 1
    assert payload["seed"] == 3
    assert payload["totals"]["fail"] == 0
    assert payload["results"][0]["identity"] == "geometric"


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_json_determinism_across_jobs(jobs, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # every job count forks its workers
    base = ["verify", "--suite", "genhyp", "--format", "json", "--samples", "5",
            "--seed", "11"]
    _, serial = run_cli(base + ["--jobs", "1"])
    _, parallel = run_cli(base + ["--jobs", str(jobs)])
    assert serial == parallel


def test_cli_stdout_bytes_are_the_same_on_two_workers():
    """The CLI's own stdout, so a child that flushed the buffer it inherited
    from the parent would show as extra bytes."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    outputs = []
    for jobs in ("1", "2"):
        run = subprocess.run([sys.executable, "-m", "telesum", "verify", "--suite", "all",
                              "--samples", "2", "--jobs", jobs, "--format", "json"],
                             env=env, capture_output=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


def test_check_false_identity_exits_one_with_witness(tmp_path):
    path = tmp_path / "false_identity.tkid"
    path.write_text(FALSE_CONFIG, encoding="utf-8")
    code, text = run_cli(["check", "--config", str(path), "--n-max", "4",
                          "--samples", "3"])
    assert code == 1
    assert "counterexample" in text
    assert "lhs" in text


def test_check_good_identity_exits_zero(tmp_path):
    path = tmp_path / "binomial.tkid"
    path.write_text(GOOD_CONFIG, encoding="utf-8")
    code, text = run_cli(["check", "--config", str(path), "--n-max", "6",
                          "--samples", "4"])
    assert code == 0
    assert "0 fail" in text


def test_usage_errors_exit_two(tmp_path):
    code, _ = run_cli(["verify", "--suite", "nonsense"])
    assert code == 2
    code, _ = run_cli(["check", "--config", str(tmp_path / "missing.tkid")])
    assert code == 2
    bad = tmp_path / "bad.tkid"
    bad.write_text("name: x\nlhs: 1 +\nrange: 0 .. n\nrhs: 1\n", encoding="utf-8")
    code, _ = run_cli(["check", "--config", str(bad)])
    assert code == 2
    code, _ = run_cli(["verify", "--suite", "corpus", "--id", "no_such_key"])
    assert code == 2


def test_verify_all_suites_small():
    code, text = run_cli(["verify", "--suite", "all", "--samples", "2",
                          "--n-max", "4", "--seed", "5"])
    assert code == 0
    for marker in ("corpus/", "ez/", "sequences/", "genhyp/", "elementary/"):
        assert marker in text


def test_failure_report_carries_witness_json(tmp_path):
    path = tmp_path / "false_identity.tkid"
    path.write_text(FALSE_CONFIG, encoding="utf-8")
    code, text = run_cli(["check", "--config", str(path), "--format", "json",
                          "--n-max", "3", "--samples", "2"])
    assert code == 1
    payload = json.loads(text)
    failing = [r for r in payload["results"] if r["status"] == "fail"]
    assert failing
    assert all(r["witness"] is not None for r in failing)
    assert "lhs" in failing[0]["witness"] and "rhs" in failing[0]["witness"]
    assert "x" in failing[0]["witness"]


def test_vacuous_counts_exit_two(tmp_path, capsys):
    path = tmp_path / "binomial.tkid"
    path.write_text(GOOD_CONFIG, encoding="utf-8")
    cases = ((["verify", "--suite", "ez", "--samples", "0"], "--samples"),
             (["verify", "--suite", "corpus", "--samples", "-2"], "--samples"),
             (["verify", "--suite", "ez", "--n-max", "-3"], "--n-max"),
             (["check", "--config", str(path), "--samples", "0"], "--samples"),
             (["check", "--config", str(path), "--n-max", "-1"], "--n-max"))
    for argv, flag in cases:
        code, text = run_cli(argv)
        assert code == 2, argv
        assert text == ""
        assert flag in capsys.readouterr().err


def test_empty_report_is_not_a_pass(monkeypatch, capsys):
    import telesum.cli
    from telesum.report import Report

    monkeypatch.setattr(telesum.cli, "run_suite",
                        lambda suite, **kwargs: Report(suite=suite, seed=kwargs["seed"]))
    code, text = run_cli(["verify", "--suite", "corpus"])
    assert code == 1
    assert "total: 0 checks" in text
    assert "no checks were run" in capsys.readouterr().err


def _listed() -> dict[str, dict[str, str]]:
    """`telesum list` as {suite: {key: citation}}, each heading read from SUITES."""
    from telesum.runner import SUITES

    suite_of = {suite.heading: name for name, suite in SUITES.items()}
    code, text = run_cli(["list"])
    assert code == 0
    listed: dict[str, dict[str, str]] = {}
    for line in text.splitlines():
        if not line.startswith(" "):
            suite = suite_of[line]
            listed[suite] = {}
        else:
            key, citation = line.split(None, 1)
            listed[suite][key] = citation
    return listed


def test_list_shows_only_what_verify_runs():
    from telesum.runner import SUITES, suite_items

    listed = _listed()
    assert list(listed) == list(SUITES)
    for suite, items in listed.items():
        assert list(items) == suite_items(suite), suite


def test_list_shows_each_item_with_its_report_citation():
    listed = _listed()
    code, text = run_cli(["verify", "--samples", "1", "--n-max", "2", "--format", "json"])
    assert code == 0
    reported = {}
    for r in json.loads(text)["results"]:
        item = r["identity"].split("/")[0]  # a family's records are <family>/<identity>
        reported.setdefault((r["suite"], item), set()).add(r["citation"])
    assert set(reported) == {(suite, key) for suite, items in listed.items() for key in items}
    for (suite, key), citations in reported.items():
        assert citations == {listed[suite][key]}, (suite, key)


def test_witness_beyond_the_int_digit_limit_renders(tmp_path):
    path = tmp_path / "long_witness.tkid"
    path.write_text(GOOD_CONFIG.replace("rhs: (1 + x)^n", "rhs: (1 + x)^n + x^9000"))
    argv = ["check", "--config", str(path), "--samples", "1", "--n-max", "2"]
    code, text = run_cli(argv + ["--format", "json"])
    assert code == 1
    report = json.loads(text)
    longest = max(len(value) for r in report["results"] for value in r["witness"].values())
    assert longest > 4300
    code, text = run_cli(argv)
    assert code == 1
    assert "counterexample" in text


def test_counterexample_without_n_has_single_spaces():
    config = Path(__file__).parent / "golden" / "failures" / "never_admissible.tkid"
    code, text = run_cli(["check", "--config", str(config), "--samples", "1", "--n-max", "2"])
    assert code == 1
    line = next(line for line in text.splitlines() if "counterexample" in line)
    assert line.startswith("  counterexample check/never_admissible [sampling] sample=0: ")
    assert "  " not in line.strip()
