"""The declared generic identities against the hand-written loops they replace.

Each of the six generic recurrence identities is one ``sequences.GENERIC``
record (term ratio g, closed-form part X, summand part w, normalization N)
summed by one loop.  The reference below is the per-identity transcription
of the same sums, one running-product loop each; the two must give equal
(n, lhs, rhs) triples, or raise the same exception type with the same text,
on random and on degenerate recurrences.  A corrupted record must fail.
"""

import dataclasses
from fractions import Fraction

import pytest

from telesum.errors import Inadmissible
from telesum.rational import ONE, ZERO, const, rat_div
from telesum.sampling import rng_for
from telesum.sequences import (FAMILIES, GENERIC, RecurrenceSpec, generate,
                               lucas_gen_sides, random_spec)

N_MAXES = (0, 1, 3, 10)


def _reference_sides(spec, which, n_max):
    if which not in (1, 2, 3, 4, 5, 6):
        raise ValueError("which must be 1..6")
    a, b = spec.a, spec.b
    xs = generate(spec, 2 * n_max + 2)
    x1, x2 = xs[1], xs[2]
    if which in (1, 3, 4, 6) and x2 == 0:
        raise Inadmissible(f"{spec.name}: x_2 = 0")
    if which in (2, 4, 5) and x1 == 0:
        raise Inadmissible(f"{spec.name}: x_1 = 0")
    for j in range(2 * n_max + 1):
        if a(j) == 0 or b(j) == 0:
            raise Inadmissible(f"{spec.name}: coefficient at index {j} is 0")

    out = []
    lhs = ZERO

    if which == 1:
        prod_a = ONE  # a_1 ... a_n
        for n in range(n_max + 1):
            if n >= 1:
                prod_a *= a(n)
                lhs += b(n) / prod_a * xs[n] / x2
            out.append((n, lhs, rat_div(xs[n + 2], prod_a * x2) - 1))
    elif which == 2:
        prod_b = ONE  # b_1 b_3 ... b_{2n-1}
        for n in range(n_max + 1):
            if n >= 1:
                prod_b *= b(2 * n - 1)
                lhs += a(2 * n - 1) / prod_b * xs[2 * n] / x1
            out.append((n, lhs, rat_div(xs[2 * n + 1], prod_b * x1) - 1))
    elif which == 3:
        prod_b = ONE  # b_2 b_4 ... b_{2n}
        for n in range(n_max + 1):
            if n >= 1:
                prod_b *= b(2 * n)
                lhs += a(2 * n) / prod_b * xs[2 * n + 1] / x2
            out.append((n, lhs, rat_div(xs[2 * n + 2], prod_b * x2) - 1))
    elif which == 4:
        prod_b = ONE  # b_1 ... b_n
        for n in range(n_max + 1):
            if n >= 1:
                prod_b *= b(n)
                lhs += a(n) / prod_b * xs[n + 1] ** 2 / (x1 * x2)
            out.append((n, lhs, rat_div(xs[n + 1] * xs[n + 2], prod_b * x1 * x2) - 1))
    elif which == 5:
        prod_a = ONE  # a_1 ... a_n
        prod_b = ONE  # b_1 ... b_n
        sign = 1
        for n in range(n_max + 1):
            if n >= 1:
                prod_b *= b(n)
                sign = -sign
                # summand carries a_1 .. a_{k-1}, one factor behind prod_a
                lhs += sign * prod_a / prod_b * xs[n + 2] / x1
                prod_a *= a(n)
            out.append((n, lhs, sign * prod_a / prod_b * rat_div(xs[n + 1], x1) - 1))
    else:
        # composite denominators first, so a bad point is reported before any sums
        composites = []
        for j in range(1, n_max + 1):
            dj = a(j - 1) * a(j) + b(j)
            if dj == 0:
                raise Inadmissible(f"{spec.name}: a_{j - 1} a_{j} + b_{j} = 0 at j = {j}")
            composites.append(dj)
        prod = ONE  # prod_{j=1}^{k} a_{j-1} / (a_{j-1} a_j + b_j)
        for n in range(n_max + 1):
            if n >= 1:
                prod *= a(n - 1) / composites[n - 1]
                lhs += b(n - 1) * b(n) / a(n - 1) * prod * xs[n - 1] / x2
            out.append((n, lhs, 1 - prod * rat_div(xs[n + 2], x2)))
    return out


def _result(sides, spec, which, n_max):
    """The triples, or the exception's type and text."""
    try:
        return sides(spec, which, n_max)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def _assert_matches_reference(spec, which, n_max):
    got = _result(lucas_gen_sides, spec, which, n_max)
    assert got == _result(_reference_sides, spec, which, n_max), (spec.name, which, n_max)
    if isinstance(got, list):
        assert all(isinstance(v, Fraction) for _, lhs, rhs in got for v in (lhs, rhs))


def test_table_matches_reference_on_random_specs():
    for i in range(1000):
        spec = random_spec(rng_for(1301, "reference", i), 10)
        for which in GENERIC:
            for n_max in N_MAXES:
                _assert_matches_reference(spec, which, n_max)


def _fibonacci_poly(x, y):
    return RecurrenceSpec("fibonacci_poly", const(x), const(y), ZERO, ONE)


DEGENERATE = (
    _fibonacci_poly(1, -1),                                      # x_3 = x_6 = 0, composite 0
    _fibonacci_poly(0, 1),                                       # a = 0 and x_2 = 0
    _fibonacci_poly(1, 0),                                       # b = 0
    RecurrenceSpec("bad", const(1), lambda n: Fraction(-1) if n == 1 else Fraction(1),
                   Fraction(1), Fraction(1)),                    # a_0 a_1 + b_1 = 0
    RecurrenceSpec("x1_zero", const(2), const(3), Fraction(1), Fraction(0)),
    RecurrenceSpec("x2_zero", const(2), const(-2), Fraction(1), Fraction(1)),
    RecurrenceSpec("all_zero", const(1), const(1), Fraction(0), Fraction(0)),
    RecurrenceSpec("mid_zero", const(1), lambda n: Fraction(-2) if n == 1 else Fraction(1),
                   Fraction(1), Fraction(1)),                    # x_3 = 0
    FAMILIES["goyt_sagan"].make({"x": Fraction(2), "y": Fraction(3),
                                 "q": Fraction(0)}),             # b_0 raises
)


@pytest.mark.parametrize("spec", DEGENERATE, ids=lambda s: s.name)
def test_table_matches_reference_on_degenerate_specs(spec):
    for which in (0, *GENERIC, 7):
        for n_max in N_MAXES:
            _assert_matches_reference(spec, which, n_max)


def test_degenerate_specs_reach_every_inadmissible_text():
    texts = set()
    for spec in DEGENERATE:
        for which in GENERIC:
            try:
                lucas_gen_sides(spec, which, 3)
            except Inadmissible as exc:
                texts.add(str(exc))
    assert {"x1_zero: x_1 = 0", "x2_zero: x_2 = 0",
            "fibonacci_poly: coefficient at index 0 is 0",
            "bad: a_0 a_1 + b_1 = 0 at j = 1"} <= texts


CORRUPTIONS = {
    "w_k (k + 2)": lambda r: dataclasses.replace(
        r, w=lambda k, x, s: r.w(k, x, s) * (k + 2)),
    "X_k + 1 for k >= 1": lambda r: dataclasses.replace(
        r, X=lambda k, x: r.X(k, x) + (1 if k >= 1 else 0)),
    "g_k (k + 2)": lambda r: dataclasses.replace(
        r, g=lambda k, s: r.g(k, s) * (k + 2)),
}


@pytest.mark.parametrize("which", sorted(GENERIC))
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_record_fails(which, corruption, monkeypatch):
    monkeypatch.setitem(GENERIC, which, CORRUPTIONS[corruption](GENERIC[which]))
    for i in range(20):
        spec = random_spec(rng_for(1302, "mutation", i), 3)
        sides = lucas_gen_sides(spec, which, 3)
        assert any(lhs != rhs for _, lhs, rhs in sides), (i, which, corruption)
