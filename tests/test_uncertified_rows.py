"""The four sums without a certificate are read through one shared row.

geometric, rising_fact_sum, reciprocal_rising_fact_sum and Ramanujan's
Entry 25 have summands that do not depend on n, so a sample evaluates each
column once, whatever rows ask for it and in whatever order.  Entry 25 is
Euler's lemma at u_0 = 1, v_0 = 1 + x, u_j = a_j, v_j = x + a_j: its term k
is the lemma's summand k + 1, and its right side the lemma's sum to n + 1,
less 1.
"""

import math
from fractions import Fraction

from telesum import corpus, rational
from telesum.corpus import CORPUS, draw_admissible
from telesum.errors import DivisionByZero
from telesum.rational import as_pairs, format_rational
from telesum.report import PASS
from telesum.runner import run_corpus_item
from telesum.sampling import rng_for, sample_rational
from telesum.telescope import TelescopeProblem, telescoping_closed_form, telescoping_pairs


def outcome_of(fn, *args):
    """fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is what is compared
        return type(exc), str(exc)


def test_every_summand_is_read_by_rows():
    assert len(CORPUS) == 13
    for key, idef in CORPUS.items():
        assert callable(getattr(idef.term, "columns", None)), key


def test_ramanujan_entry25_is_the_lemma():
    idef = CORPUS["ramanujan_entry25"]
    rows = 0
    for i in range(200):
        p = draw_admissible(idef, rng_for(25, "lemma", i), 10)
        x, a = p["x"], p["a"]

        def u(j):
            return Fraction(1) if j == 0 else a[j - 1]

        def v(j):
            return 1 + x if j == 0 else x + a[j - 1]

        for n in range(11):
            lemma = [Fraction(*t) for t in telescoping_pairs(as_pairs(u), as_pairs(v), n + 1)]
            assert [idef.term(n, k, p) for k in range(n + 1)] == lemma[1:], (p, n)
            closed = telescoping_closed_form(TelescopeProblem(u, v, n + 1))
            assert idef.rhs(n, p) == closed - 1, (p, n)
            rows += 1
    assert rows == 2200


def test_one_evaluation_per_summand_per_sample(monkeypatch):
    calls = []
    rising_factorial = corpus.rising_factorial

    def counted(x, m):
        calls.append((x, m))
        return rising_factorial(x, m)

    monkeypatch.setattr(corpus, "rising_factorial", counted)
    records = run_corpus_item("rising_fact_sum", 15, 1, 1729)
    assert records and all(r.status == PASS for r in records)
    # rhs(n) for n = 0..16 and term(k) for k = 1..16: one call each
    assert 0 < len(calls) <= 33

    products = []
    prod_range_pair = rational.prod_range_pair

    def counted_pair(f, lo, hi):
        products.append((lo, hi))
        return prod_range_pair(f, lo, hi)

    monkeypatch.setattr(rational, "prod_range_pair", counted_pair)
    records = run_corpus_item("ramanujan_entry25", None, 1, 1729)
    assert records and all(r.status == PASS for r in records)
    assert products == []


def test_entry25_shared_row_reads_the_same_in_any_order():
    idef = CORPUS["ramanujan_entry25"]
    rng = rng_for(25, "order")
    a = [sample_rational(rng) for _ in range(8)]
    while a[2] in a[:2]:
        a[2] = sample_rational(rng)
    p = {"x": -a[2], "a": tuple(a)}  # x + a_3 = 0: V_j = 0 from j = 3 on

    def read(ns):
        return {(n, k): outcome_of(idef.term, n, k, p) for n in ns for k in range(n + 1)}

    down, up = read(range(5, -1, -1)), read(range(6))
    assert down == up
    for (n, k), got in up.items():
        if k >= 2:  # U_k / V_(k+1) with V_(k+1) = 0
            pole = f"division of {format_rational(math.prod(a[:k]))} by zero"
            assert got == (DivisionByZero, pole), (n, k)
        else:
            assert isinstance(got, Fraction) and got == up[(k, k)], (n, k)
