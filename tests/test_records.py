"""The record classes behave as the frozen dataclasses they replaced.

``report.CheckRecord``, ``runner.Suite`` and elementary's ``Mono``, ``FTerm``
and ``ElementaryIdentity`` are NamedTuples, and ``report.Report`` is a plain
class, so that a start imports no ``dataclasses``.  The reference classes
below are the replaced dataclasses, field for field; the tests hold the new
classes to their equality, hash, defaults, repr text (a pole's message
prints a Mono) and the pickle round trip that a --jobs N run makes.  A
report's JSON is what ``json.dumps`` writes for its ``to_json_dict``.
"""

import json
import pickle
from dataclasses import make_dataclass
from fractions import Fraction as F

import pytest

from telesum.elementary import ELEMENTARY, FTerm, Mono, eval_terms
from telesum.errors import DivisionByZero
from telesum.report import FAIL, INADMISSIBLE, PASS, CheckRecord, Report, record
from telesum.runner import SUITES

RefRecord = make_dataclass("CheckRecord", [
    "suite", "identity", "check", "status", ("n", object, None), ("sample", object, None),
    ("witness", object, None), ("citation", str, "")], frozen=True)
RefMono = make_dataclass("Mono", ["coeff", "exps"], frozen=True)
RefFTerm = make_dataclass("FTerm", ["coeff", ("num", tuple, ()), ("den", tuple, ())],
                          frozen=True)
RefIdentity = make_dataclass("ElementaryIdentity", ["key", "citation", "vars", "lhs", "rhs"],
                             frozen=True)


def _reference(ident):
    """`ident` rebuilt from the reference dataclasses."""
    def mono(m):
        return RefMono(m.coeff, m.exps)

    def term(t):
        return RefFTerm(mono(t.coeff), tuple(map(mono, t.num)), tuple(map(mono, t.den)))

    return RefIdentity(ident.key, ident.citation, ident.vars, tuple(map(term, ident.lhs)),
                       tuple(map(term, ident.rhs)))


RECORDS = [
    CheckRecord("ez", "binomial", "row_sum", PASS, n=3, sample=0),
    CheckRecord("ez", "binomial", "row_sum", FAIL, n=2, sample=0, witness={"x": "1/2"},
                citation="binomial theorem"),
    CheckRecord("corpus", "geometric", "identity", INADMISSIBLE, n=2, sample=1,
                witness={"reason": "zero denominator at n=2"}),
    CheckRecord("elementary", "qchv_elem", "grid_zero", PASS),
]


def test_check_record_defaults_match_the_dataclass():
    rec = CheckRecord("ez", "binomial", "row_sum", PASS)
    ref = RefRecord("ez", "binomial", "row_sum", PASS)
    assert (rec.n, rec.sample, rec.witness, rec.citation) == (None, None, None, "")
    assert repr(rec) == repr(ref)
    assert all(repr(r) == repr(RefRecord(*r)) for r in RECORDS)


def test_check_record_equality_and_hash_match_the_dataclass():
    for r in RECORDS:
        assert r == CheckRecord(*r) and r == r._replace()
        assert r != r._replace(status="other") and r != r._replace(citation="other")
        if r.witness is None:
            assert hash(r) == hash(CheckRecord(*r)) == hash(RefRecord(*r))
        else:  # a dict witness is unhashable, in the dataclass too
            for unhashable in (r, RefRecord(*r)):
                with pytest.raises(TypeError):
                    hash(unhashable)
    with pytest.raises(AttributeError):
        RECORDS[0].status = FAIL


def test_check_record_sort_key_orders_none_first():
    assert [r.sort_key() for r in RECORDS] == [
        ("ez", "binomial", "row_sum", 0, 3),
        ("ez", "binomial", "row_sum", 0, 2),
        ("corpus", "geometric", "identity", 1, 2),
        ("elementary", "qchv_elem", "grid_zero", -1, -1),
    ]
    ordered = sorted(RECORDS, key=CheckRecord.sort_key)
    assert ordered == [RECORDS[2], RECORDS[3], RECORDS[1], RECORDS[0]]


def test_check_records_survive_the_pickle_round_trip_of_a_jobs_run():
    built = [record("ez", "binomial", "row_sum", "cite", FAIL, {"x": F(1, 2)}, n=1, sample=2,
                    lhs=F(3), rhs=F(4))]
    for r in RECORDS + built:
        back = pickle.loads(pickle.dumps(r))
        assert type(back) is CheckRecord and back == r and back.witness == r.witness


def test_report_defaults_totals_and_ok():
    first, second = Report("ez", 7), Report(suite="ez", seed=7)
    assert (first.suite, first.seed, first.records, first.wall_time) == ("ez", 7, [], 0.0)
    first.extend(RECORDS[:1])
    assert second.records == []  # each Report has its own list
    assert not second.ok and second.totals() == {"checks": 0, PASS: 0, FAIL: 0, INADMISSIBLE: 0}
    assert first.ok
    full = Report("all", 1, list(RECORDS), 1.5)
    assert full.wall_time == 1.5
    assert full.totals() == {"checks": 4, PASS: 2, FAIL: 1, INADMISSIBLE: 1}
    assert not full.ok and full.failures() == [RECORDS[1]]
    assert Report("ez", 1, [RECORDS[2]]).ok  # inadmissible rows are not failures


JSON_REPORTS = [
    Report("ez", 7),
    Report("all", 1729, list(RECORDS)),
    Report("corpus", -3, [
        record("corpus", "ramanujan_entry25", "identity", "Ramanujan\u2019s Notebooks, \u00a7 25",
               FAIL, {"x": F(-1, 2), "a": (F(1), F(2, 3))}, n=4, sample=0,
               lhs=F(5, 7), rhs=F(1), reason='a "quoted"\ttab'),
        record("corpus", "geometric", "identity", "G\u00e9om\u00e9trique", INADMISSIBLE,
               n=None, sample=None, reason="zero denominator at n=2"),
        CheckRecord("elementary", "qchv_elem", "grid_zero", PASS, citation="\U0001d53c"),
    ]),
]


@pytest.mark.parametrize("flags", [None, {}, {"n_max": None, "samples": 2, "grid": True,
                                             "ids": ["b", "a"], "config": "caf\u00e9.tkid"}])
@pytest.mark.parametrize("index", range(len(JSON_REPORTS)))
def test_to_json_is_json_dumps_of_the_dict(index, flags):
    report = JSON_REPORTS[index]
    expected = json.dumps(report.to_json_dict(flags), sort_keys=True, separators=(",", ":"))
    assert report.to_json(flags) == expected + "\n"
    assert report.to_json(flags).isascii()


def test_elementary_reprs_match_the_dataclasses():
    for ident in ELEMENTARY.values():
        assert repr(ident) == repr(_reference(ident))
    term = FTerm(Mono(F(1), (1, 0)))
    assert repr(term) == repr(RefFTerm(RefMono(F(1), (1, 0))))
    assert (term.num, term.den) == ((), ())


def test_a_pole_message_prints_the_monomial_as_before():
    a = Mono(F(1), (1,))
    with pytest.raises(DivisionByZero) as exc:
        eval_terms((FTerm(a, den=(a,)),), (F(1),))
    assert str(exc.value) == f"pole: 1 - {RefMono(F(1), (1,))!r} vanished"
    assert str(exc.value) == "pole: 1 - Mono(coeff=Fraction(1, 1), exps=(1,)) vanished"


def test_elementary_equality_and_hash_match_the_dataclasses():
    a, b = Mono(F(1), (1, 0)), Mono(F(1), (0, 1))
    assert a * b == Mono(F(1), (1, 1)) and hash(a * b) == hash(RefMono(F(1), (1, 1)))
    assert a != b and FTerm(a) == FTerm(a, (), ()) and FTerm(a) != FTerm(b)
    ident = ELEMENTARY["qchv_elem"]
    assert ident == ident._replace() and ident != ident._replace(rhs=ident.lhs)
    assert hash(ident) == hash(_reference(ident))


def test_suite_reads_its_citations_when_asked():
    ez = SUITES["ez"]
    assert (ez.heading, ez.samples) == ("certified identities:", 16)
    assert ez.citations == ez.table() and "binomial" in ez.citations
