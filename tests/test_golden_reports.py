"""Byte-identical JSON reports, one small run per suite and one config check.

The golden files were written by the CLI itself; a change to the identity
model, the sampler or the checks must leave every one of them unchanged.
"""

import io
from pathlib import Path

import pytest

from telesum.cli import main

GOLDEN = Path(__file__).parent / "golden"
SMALL = ["--samples", "1", "--n-max", "4"]

RUNS = {
    "verify_corpus.json": ["verify", "--suite", "corpus", *SMALL],
    "verify_ez.json": ["verify", "--suite", "ez", *SMALL],
    "verify_sequences.json": ["verify", "--suite", "sequences", *SMALL],
    "verify_genhyp.json": ["verify", "--suite", "genhyp", "--samples", "4"],
    "verify_elementary.json": ["verify", "--suite", "elementary", "--samples", "10"],
    "verify_elementary_grid.json": ["verify", "--suite", "elementary", "--grid", "--samples", "10"],
    "check_binomial.json": ["check", "--config", "binomial.tkid", "--samples", "2",
                            "--n-max", "4"],
}


@pytest.mark.parametrize("golden", sorted(RUNS))
def test_report_matches_golden(golden, monkeypatch):
    monkeypatch.chdir(GOLDEN)  # the config path is part of the report's flags
    out = io.StringIO()
    assert main(RUNS[golden] + ["--format", "json"], out=out) == 0
    assert out.getvalue() == (GOLDEN / golden).read_text(encoding="utf-8")
