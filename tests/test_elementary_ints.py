"""The integer-pair elementary evaluators against the Fraction reference.

The reference functions below are ``Mono.value``, ``eval_terms``,
``expand`` and ``grid_zero_check`` as they were when every monomial, factor
and coefficient was a Fraction, reduced at each operation.  The integer code
must give the same values, expansions and records, or raise the same
exception type with the same text.
"""

from fractions import Fraction as F
from itertools import product
from operator import add

import pytest

from telesum.elementary import (ELEMENTARY, ElementaryIdentity, FTerm, Mono, _cleared_terms,
                                degree_spans, eval_terms, expand, grid_zero_check)
from telesum.errors import DivisionByZero
from telesum.rational import ZERO, rat_pow
from telesum.report import PASS, outcome, record
from telesum.sampling import rng_for, sample_rational


# ---------------------------------------------------------------------------
# The Fraction reference
# ---------------------------------------------------------------------------

def reference_value(mono, point):
    out = mono.coeff
    for v, e in zip(point, mono.exps):
        if e:
            out *= rat_pow(v, e)
    return out


def reference_eval_terms(terms, point):
    total = ZERO
    for t in terms:
        value = reference_value(t.coeff, point)
        for m in t.num:
            value *= 1 - reference_value(m, point)
        for m in t.den:
            d = 1 - reference_value(m, point)
            if d == 0:
                raise DivisionByZero(f"pole: 1 - {m} vanished")
            value /= d
        total += value
    return total


def reference_expand(ident):
    total = {}
    for coeff, factors in _cleared_terms(ident):
        poly = {coeff.exps: coeff.coeff}
        for m in factors:
            step = dict(poly)
            for exps, c in poly.items():
                shifted = tuple(map(add, exps, m.exps))
                step[shifted] = step.get(shifted, 0) - c * m.coeff
            poly = step
        for exps, c in poly.items():
            total[exps] = total.get(exps, 0) + c
    return {exps: c for exps, c in total.items() if c}


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # one per variable, the smallest first


def reference_grid_zero_check(ident):
    terms = ident.check_terms()
    nv = len(ident.vars)
    spans = degree_spans(ident)
    by_span = sorted(range(nv), key=lambda i: -spans[i])
    prime_of = {var: prime for prime, var in zip(PRIMES, by_span)}
    touch_count = [sum(1 for t in terms for m in (t.coeff,) + t.num + t.den if m.exps[i] != 0)
                   for i in range(nv)]
    order = sorted(range(nv), key=lambda i: -touch_count[i])
    shape = "x".join(str(spans[i] + 2) for i in order)
    poly = reference_expand(ident)
    if not poly:
        return [record("elementary", ident.key, "grid_zero", ident.citation, PASS, grid=shape)]
    grids = [[F(prime_of[i] ** (j + 1)) for j in range(spans[i] + 2)] for i in order]
    for values in product(*grids):
        point = tuple(v for _, v in sorted(zip(order, values)))
        if sum(reference_value(Mono(c, exps), point) for exps, c in poly.items()) != 0:
            return [outcome("elementary", ident.key, "grid_zero", ident.citation, False,
                            dict(zip(ident.vars, point)), grid=shape)]
    raise AssertionError(f"{ident.key}: nonzero expansion vanished on its grid")


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def outcome_of(fn, *args):
    """('value', result) or ('raise', exception type, text)."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # any type: the two sides must raise the same one
        return ("raise", type(exc), str(exc))


def mutant(ident):
    """ident with the last factor of its last lhs term dropped: a false identity."""
    t = ident.lhs[-1]
    return ident._replace(lhs=ident.lhs[:-1] + (FTerm(t.coeff, t.num[:-1], t.den),))


# small values meet poles and zero coordinates; sample_rational gives the rest
POOL = tuple(F(n, d) for n in (-3, -2, -1, 0, 1, 2, 3) for d in (1, 2, 3))


def points(ident, count):
    rng = rng_for(1729, "elementary-ints", ident.key)
    for i in range(count):
        if i % 2:
            yield tuple(sample_rational(rng) for _ in ident.vars)
        else:
            yield tuple(rng.choice(POOL) for _ in ident.vars)


@pytest.mark.parametrize("key", sorted(ELEMENTARY))
def test_expand_matches_reference(key):
    ident = ELEMENTARY[key]
    assert expand(ident) == reference_expand(ident) == {}
    wrong = mutant(ident)
    poly = expand(wrong)
    assert poly and poly == reference_expand(wrong)
    assert all(type(c) is F for c in poly.values())


@pytest.mark.parametrize("key", sorted(ELEMENTARY))
def test_grid_zero_check_matches_reference(key):
    ident = ELEMENTARY[key]
    for case in (ident, mutant(ident)):
        assert grid_zero_check(case) == reference_grid_zero_check(case)


@pytest.mark.parametrize("key", sorted(ELEMENTARY))
def test_eval_terms_matches_reference(key):
    ident = ELEMENTARY[key]
    terms = ident.check_terms()
    seen = {"negative": 0, "value": 0, "0 raised": 0, "pole": 0}
    for point in points(ident, 1000):
        got = outcome_of(eval_terms, terms, point)
        assert got == outcome_of(reference_eval_terms, terms, point), point
        for side in (ident.lhs, ident.rhs):
            assert outcome_of(eval_terms, side, point) == outcome_of(reference_eval_terms, side, point)
        seen["negative"] += any(v < 0 for v in point)
        if got[0] == "value":
            assert type(got[1]) is F and got[1] == 0, point
            seen["value"] += 1
        else:
            assert got[1] is DivisionByZero
            seen["0 raised" if got[2].startswith("0 raised to negative power") else "pole"] += 1
            assert got[2].startswith(("0 raised to negative power", "pole: 1 - Mono("))
    assert seen["negative"] and seen["value"] >= 400, seen
    if any(t.den for t in terms):
        assert seen["pole"], seen
    if any(e < 0 for t in terms for m in (t.coeff,) + t.num + t.den for e in m.exps):
        assert seen["0 raised"], seen


# ---------------------------------------------------------------------------
# Random Laurent tables: packing, decoding and the sparse evaluator
# ---------------------------------------------------------------------------

COEFFS = tuple(F(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3))


def random_mono(rng, nv):
    return Mono(rng.choice(COEFFS), tuple(rng.randint(-3, 3) for _ in range(nv)))


def random_factors(rng, nv, count):
    """count monomials m with nonzero exponents, for factors (1 - m)."""
    factors = []
    while len(factors) < count:
        m = random_mono(rng, nv)
        if any(m.exps):
            factors.append(m)
    return tuple(factors)


def random_identity(rng, index):
    """A true table: lhs is 1-3 random terms and rhs the same terms, reordered
    and with their factors reversed; a denominator factor may repeat."""
    nv = rng.randint(1, 8)
    lhs = []
    for _ in range(rng.randint(1, 3)):
        den = random_factors(rng, nv, rng.randint(0, 2))
        if den and rng.random() < 0.5:
            den += den[:1]
        lhs.append(FTerm(random_mono(rng, nv), random_factors(rng, nv, rng.randint(0, 2)), den))
    rhs = tuple(FTerm(t.coeff, t.num[::-1], t.den[::-1]) for t in reversed(lhs))
    return ElementaryIdentity(f"random_{index}", "random table",
                              tuple(f"x{i}" for i in range(nv)), tuple(lhs), rhs)


def test_random_tables_match_reference():
    rng = rng_for(1729, "elementary-ints", "random-tables")
    seen = {"decoded": 0, "value": 0, "0 raised": 0, "pole": 0}
    for index in range(300):
        ident = random_identity(rng, index)
        t = ident.rhs[0]
        wrong = ident._replace(rhs=(FTerm(Mono(t.coeff.coeff * 2, t.coeff.exps), t.num, t.den),)
                               + ident.rhs[1:])
        assert expand(ident) == reference_expand(ident) == {}, ident
        poly = expand(wrong)
        assert poly and poly == reference_expand(wrong), wrong
        assert all(type(c) is F for c in poly.values())
        seen["decoded"] += len(poly)
        for _ in range(10):
            point = tuple(rng.choice(POOL) for _ in ident.vars)
            for terms in (wrong.check_terms(), wrong.lhs, wrong.rhs):
                got = outcome_of(eval_terms, terms, point)
                assert got == outcome_of(reference_eval_terms, terms, point), (terms, point)
                if got[0] == "value":
                    seen["value"] += 1
                else:
                    seen["0 raised" if got[2].startswith("0 raised") else "pole"] += 1
    assert all(seen.values()), seen
