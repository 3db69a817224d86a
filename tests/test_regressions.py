"""Regression tests: the elementary tester's redraws, the genhyp relation
check, and two CLI input errors that must exit 2."""

import dataclasses
import io
from fractions import Fraction

import pytest

from telesum import elementary, genhyp, runner
from telesum.cli import main
from telesum.errors import DivisionByZero, SampleExhausted
from telesum.genhyp import OPERATIONS, SequenceParams
from telesum.runner import specialization_d_zero_checks
from telesum.sampling import rng_for, sample_sequence


def run_cli(argv):
    out = io.StringIO()
    return main(argv, out=out), out.getvalue()


# --- elementary: one redraw policy ------------------------------------------------

def test_elementary_pole_exhaustion_is_a_sample_exhausted(monkeypatch):
    calls = []

    def no_point(terms, point):
        calls.append(point)
        raise DivisionByZero("forced pole")

    monkeypatch.setattr(elementary, "eval_terms", no_point)
    ident = elementary.ELEMENTARY["dougall_n1"]
    with pytest.raises(SampleExhausted) as exc:
        elementary.sampled_zero_check(ident, 1729, 5)
    assert str(exc.value) == "dougall_n1: no pole-free point in 100 tries"
    assert len(calls) == 100


# --- genhyp: a wrong u or v fails the identity check -------------------------------

def _broken(monkeypatch, op, **changes):
    monkeypatch.setitem(OPERATIONS, op, dataclasses.replace(OPERATIONS[op], **changes))


@pytest.mark.parametrize("op", sorted(OPERATIONS))
@pytest.mark.parametrize("which", ["u", "v"])
def test_genhyp_wrong_u_or_v_fails_identity(monkeypatch, op, which):
    records = runner.run_genhyp_item(op, 3, 4, 1729)
    assert records and all(r.status == "pass" and r.witness is None for r in records)
    u, v = OPERATIONS[op].u, OPERATIONS[op].v
    if which == "u":
        _broken(monkeypatch, op, u=lambda *x: u(*x) * 2)
    else:
        _broken(monkeypatch, op, v=lambda *x: v(*x) + 1)
    records = [r for r in runner.run_genhyp_item(op, 3, 4, 1729) if r.check == "identity"]
    assert records and all(r.status == "fail" for r in records)
    assert all("relation_fails_at" in r.witness for r in records)


def test_relations_are_u_minus_v_at_random_points():
    for op, operation in OPERATIONS.items():
        for i in range(20):
            rng = rng_for(11, "relations", op, i)
            seqs = {name: sample_sequence(rng, 4) for name in operation.names}
            p = SequenceParams(**seqs)
            assert genhyp.relation_fails_at(op, p) is None, (op, i)


def test_relation_fails_at_names_the_first_bad_index(monkeypatch):
    v = OPERATIONS["macdonald_cv"].v
    _broken(monkeypatch, "macdonald_cv", v=lambda a, b: v(a, b) + (a == 3))
    p = SequenceParams(a=(Fraction(2), Fraction(3), Fraction(5)),
                       b=(Fraction(7), Fraction(11), Fraction(13)))
    assert genhyp.relation_fails_at("macdonald_cv", p) == 1


def test_specialization_reads_the_dougall_relation(monkeypatch):
    point = {"a": Fraction(2, 3), "b": Fraction(5, 7), "c": Fraction(-3, 4), "d": Fraction(7, 5)}
    assert all(specialization_d_zero_checks(Fraction(1, 3), **point).values())
    w = OPERATIONS["macdonald_dougall"].w
    _broken(monkeypatch, "macdonald_dougall", w=lambda a, b, c, d: w(a, b, c, d) + 1)
    results = specialization_d_zero_checks(Fraction(1, 3), **point)
    assert not results["elementary"] and not results["k0_term"]


# --- CLI input errors exit 2 -----------------------------------------------------

def test_unknown_id_under_suite_all_exits_two(capsys):
    code, text = run_cli(["verify", "--suite", "all", "--id", "geometric",
                          "--id", "typo_here", "--samples", "1"])
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: unknown id") and "'typo_here'" in err
    assert err.count("\n") == 1

    code, text = run_cli(["verify", "--suite", "all", "--id", "nonexistent"])
    assert (code, text) == (2, "")
    assert "unknown id 'nonexistent'" in capsys.readouterr().err


def test_several_unknown_ids_are_named_in_sorted_order(capsys):
    for suite in ("all", "corpus"):
        code, _ = run_cli(["verify", "--suite", suite, "--id", "zz_typo", "--id", "geometric",
                           "--id", "aa_typo", "--id", "mm_typo"])
        assert code == 2
        assert "'aa_typo', 'mm_typo', 'zz_typo'" in capsys.readouterr().err


def test_range_dividing_by_zero_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad_range.tkid"
    path.write_text("name: bad_range\nparams: x\nlhs: x^k\nrange: 0 .. n/(n - n)\nrhs: x\n",
                    encoding="utf-8")
    code, text = run_cli(["check", "--config", str(path), "--samples", "1"])
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: range bound n/(n - n)") and "n = 0" in err
    assert err.count("\n") == 1
