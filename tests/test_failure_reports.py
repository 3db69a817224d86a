"""Byte-identical JSON reports of failing runs, one for each way a suite fails.

Each case breaks one item on purpose (a skewed closed form, a mutated
certificate, a wrong printed right side, a wrong sequence-parameter v, a
wrong elementary term, a false config) or makes its sampler run out of
admissible draws, then runs the CLI on it.  The golden files in
``tests/golden/failures/`` were written by the CLI itself: every failing
record, its witness text and its exhaustion reason must stay as stored.
"""

import dataclasses
import io
from fractions import Fraction
from pathlib import Path

import pytest

from telesum import certify, corpus, elementary, genhyp, runner
from telesum.cli import main
from telesum.elementary import ELEMENTARY, FTerm
from telesum.errors import DivisionByZero, Inadmissible
from telesum.genhyp import OPERATIONS
from telesum.sequences import FAMILIES
from telesum.rational import as_pairs
from telesum.telescope import telescoping_pairs

FAILURES = Path(__file__).parent / "golden" / "failures"
SMALL = ["--samples", "2", "--n-max", "3"]


def _replace(monkeypatch, table, key, **changes):
    """table[key] with changes: a corpus IdentityDef is a dataclass, a family
    or an operation a NamedTuple."""
    entry = table[key]
    monkeypatch.setitem(table, key, dataclasses.replace(entry, **changes)
                        if dataclasses.is_dataclass(entry) else entry._replace(**changes))


def _skew_rhs(monkeypatch, key):
    rhs = corpus.CORPUS[key].rhs
    _replace(monkeypatch, corpus.CORPUS, key, rhs=lambda n, p: rhs(n, p) + 1)


def _no_rhs(monkeypatch, key):
    def rhs(n, p):
        raise DivisionByZero("forced pole")

    _replace(monkeypatch, corpus.CORPUS, key, rhs=rhs)


def corpus_skewed_rhs(monkeypatch):
    for key in ("binomial", "ramanujan_entry25", "rising_fact_sum"):
        _skew_rhs(monkeypatch, key)
    term = corpus.CORPUS["binomial_x1"].term
    _replace(monkeypatch, corpus.CORPUS, "binomial_x1",
             term=lambda n, k, p: term(n, k, p) + (1 if k > n else 0))
    return ["verify", "--suite", "corpus", "--id", "binomial", "--id", "ramanujan_entry25",
            "--id", "rising_fact_sum", "--id", "binomial_x1", *SMALL]


def corpus_mid_run_inadmissible(monkeypatch):
    evaluate = runner.evaluate_identity

    def pole_at_n2(idef, n, params):
        if n == 2:
            raise Inadmissible("zero denominator at n=2")
        return evaluate(idef, n, params)

    monkeypatch.setattr(runner, "evaluate_identity", pole_at_n2)
    return ["verify", "--suite", "corpus", "--id", "geometric", *SMALL]


def corpus_exhausted(monkeypatch):
    _no_rhs(monkeypatch, "chu_vandermonde")
    _no_rhs(monkeypatch, "binomial_x1")
    return ["verify", "--suite", "corpus", "--id", "chu_vandermonde", "--id", "binomial_x1",
            *SMALL]


def ez_mutated_certificate(monkeypatch):
    cert = corpus.CORPUS["chu_vandermonde"].certificate
    _replace(monkeypatch, corpus.CORPUS, "chu_vandermonde", certificate=cert._replace(
        u=lambda n, k, p: cert.u(n, k, p) * (2 if k == 1 else 1)))
    cert2 = corpus.CORPUS["binomial"].certificate
    _replace(monkeypatch, corpus.CORPUS, "binomial", certificate=cert2._replace(
        u=lambda n, k, p: cert2.u(n, k, p) + (1 if k == n + 1 else 0)))
    return ["verify", "--suite", "ez", "--id", "chu_vandermonde", "--id", "binomial", *SMALL]


def ez_skewed_rhs(monkeypatch):
    _skew_rhs(monkeypatch, "q_binomial")
    return ["verify", "--suite", "ez", "--id", "q_binomial", *SMALL]


def ez_mid_run_inadmissible(monkeypatch):
    row = certify.telescoping_row

    def pole_at_n1(cert, n, params, k_max):
        if n == 1:
            raise Inadmissible("zero denominator at n=1")
        return row(cert, n, params, k_max)

    monkeypatch.setattr(certify, "telescoping_row", pole_at_n1)
    _skew_rhs(monkeypatch, "binomial")
    return ["verify", "--suite", "ez", "--id", "binomial", *SMALL]


def ez_exhausted(monkeypatch):
    _no_rhs(monkeypatch, "q_chu_vandermonde")
    return ["verify", "--suite", "ez", "--id", "q_chu_vandermonde", *SMALL]


def specialization_failed(monkeypatch):
    _skew_rhs(monkeypatch, "q_dougall")
    return ["verify", "--suite", "corpus", "--id", runner.SPECIALIZATION_KEY, *SMALL]


def specialization_exhausted(monkeypatch):
    def term(n, k, p):
        raise DivisionByZero("forced pole")

    _replace(monkeypatch, corpus.CORPUS, "q_dougall", term=term)
    return ["verify", "--suite", "corpus", "--id", runner.SPECIALIZATION_KEY, *SMALL]


def _wrong_printed_rhs(monkeypatch, key):
    family = FAMILIES[key]
    first = family.printed[0]
    wrong = first._replace(rhs=lambda n, xs, p: first.rhs(n, xs, p) + n)
    _replace(monkeypatch, FAMILIES, key, printed=(wrong,) + family.printed[1:])


def sequences_wrong_printed_rhs(monkeypatch):
    _wrong_printed_rhs(monkeypatch, "schur_q_fib")
    _wrong_printed_rhs(monkeypatch, "fibonacci")
    return ["verify", "--suite", "sequences", "--id", "schur_q_fib", "--id", "fibonacci",
            *SMALL]


def sequences_exhausted(monkeypatch):
    def a(n, p):
        raise Inadmissible("forced pole")

    _replace(monkeypatch, FAMILIES, "q_pell", a=a)
    _replace(monkeypatch, FAMILIES, "pell", a=a)
    return ["verify", "--suite", "sequences", "--id", "q_pell", "--id", "pell", *SMALL]


def genhyp_wrong_v(monkeypatch):
    v = OPERATIONS["macdonald_cv_permuted"].v
    _replace(monkeypatch, OPERATIONS, "macdonald_cv_permuted", v=lambda a, b: v(a, b) + 1)

    def wrong_dougall_terms(p):
        prob = genhyp.problem("macdonald_dougall", p)
        wrong_v = as_pairs(lambda k: prob.v(k) * 2)
        return [Fraction(*t) for t in telescoping_pairs(as_pairs(prob.u), wrong_v, prob.n)]

    monkeypatch.setattr(genhyp, "dougall_terms", wrong_dougall_terms)
    return ["verify", "--suite", "genhyp", "--id", "macdonald_cv_permuted",
            "--id", "macdonald_dougall", *SMALL]


def genhyp_skewed_closed_form(monkeypatch):
    closed_form = genhyp.telescoping_closed_form
    monkeypatch.setattr(genhyp, "telescoping_closed_form", lambda p: closed_form(p) + 1)
    return ["verify", "--suite", "genhyp", "--id", "macdonald_cv", *SMALL]


def genhyp_exhausted(monkeypatch):
    def one(a, b, c):  # u = v, so w_0 = 0 at every draw
        return Fraction(1)

    _replace(monkeypatch, OPERATIONS, "macdonald_ps", u=one, v=one)
    return ["verify", "--suite", "genhyp", "--id", "macdonald_ps", *SMALL]


def elementary_wrong_term(monkeypatch):
    ident = ELEMENTARY["qchv_elem"]
    a, b = ident.rhs[0].coeff, -ident.rhs[1].coeff
    monkeypatch.setitem(ELEMENTARY, "qchv_elem", ident._replace(rhs=(FTerm(a), FTerm(-(b * b)))))
    return ["verify", "--suite", "elementary", "--id", "qchv_elem", "--samples", "5", "--grid"]


def elementary_exhausted(monkeypatch):
    def no_point(terms, point):
        raise DivisionByZero("forced pole")

    monkeypatch.setattr(elementary, "eval_terms", no_point)
    return ["verify", "--suite", "elementary", "--id", "dougall_n1", "--samples", "5"]


def check_false_config(monkeypatch):
    return ["check", "--config", "false_binomial.tkid", *SMALL]


def check_exhausted_config(monkeypatch):
    return ["check", "--config", "never_admissible.tkid", *SMALL]


CASES = {case.__name__: case for case in (
    corpus_skewed_rhs, corpus_mid_run_inadmissible, corpus_exhausted,
    ez_mutated_certificate, ez_skewed_rhs, ez_mid_run_inadmissible, ez_exhausted,
    specialization_failed, specialization_exhausted,
    sequences_wrong_printed_rhs, sequences_exhausted,
    genhyp_wrong_v, genhyp_skewed_closed_form, genhyp_exhausted,
    elementary_wrong_term, elementary_exhausted,
    check_false_config, check_exhausted_config,
)}


def run_case(name, monkeypatch):
    """(exit code, JSON report) of one broken run."""
    monkeypatch.chdir(FAILURES)  # the config path is part of the report's flags
    argv = CASES[name](monkeypatch)
    out = io.StringIO()
    return main(argv + ["--format", "json"], out=out), out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_failure_report_matches_golden(name, monkeypatch):
    code, report = run_case(name, monkeypatch)
    assert code == (1 if '"status":"fail"' in report else 0)
    assert report == (FAILURES / f"{name}.json").read_text(encoding="utf-8")
