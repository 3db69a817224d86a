"""Fixed-variable rational identities and a deterministic tester.

The six built-in identities (the two-variable difference identity, the
four-variable quadruple-product identity and its symmetric form, and the
n = 1 degenerations of the classical transformation formulas) are stored as
term tables: each side is a sum of terms

    coeff_monomial * prod (1 - m_i) / prod (1 - m_j)

where every m is a monomial in the identity's variables.  That structure
gives two testers:

  * sampled mode evaluates lhs - rhs at seeded random rational points and
    requires exact zero every time; a point at a pole is redrawn by
    ``sampling.retry``, the redraw policy of every suite;

  * grid mode proves the identity exactly: it multiplies lhs - rhs by D, the
    product of the denominator factors, and expands P = D * (lhs - rhs) into
    a dict {exponent tuple: coefficient}.  D is a product of nonconstant
    factors (1 - m), hence nonzero, so the identity holds exactly when no
    coefficient of P is left (the statement behind the Schwartz-Zippel
    lemma and Alon's Combinatorial Nullstellensatz).  Per-variable degree
    spans of P size a grid of prime powers, distinct primes per variable,
    which names the witness: the whole grid for a pass, the first grid
    point where P is nonzero for a failure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add
from typing import Mapping

from .errors import DivisionByZero
from .rational import ONE as F1, ZERO as F0, rat_pow
from .report import PASS, CheckRecord, outcome, record
from .sampling import RETRY_BOUND, retry, rng_for, sample_rational


@dataclass(frozen=True)
class Mono:
    """coeff * prod x_i^exps[i]."""

    coeff: Fraction
    exps: tuple[int, ...]

    def __mul__(self, other: "Mono") -> "Mono":
        return Mono(self.coeff * other.coeff,
                    tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __truediv__(self, other: "Mono") -> "Mono":
        return Mono(self.coeff / other.coeff,
                    tuple(a - b for a, b in zip(self.exps, other.exps)))

    def __pow__(self, e: int) -> "Mono":
        return Mono(self.coeff ** e, tuple(a * e for a in self.exps))

    def __neg__(self) -> "Mono":
        return Mono(-self.coeff, self.exps)

    def value(self, point: tuple[Fraction, ...]) -> Fraction:
        out = self.coeff
        for v, e in zip(point, self.exps):
            if e:
                out *= rat_pow(v, e)
        return out


@dataclass(frozen=True)
class FTerm:
    """coeff * prod(1 - m for m in num) / prod(1 - m for m in den)."""

    coeff: Mono
    num: tuple[Mono, ...] = ()
    den: tuple[Mono, ...] = ()


@dataclass(frozen=True)
class ElementaryIdentity:
    key: str
    citation: str
    vars: tuple[str, ...]
    lhs: tuple[FTerm, ...]
    rhs: tuple[FTerm, ...]

    def check_terms(self) -> tuple[FTerm, ...]:
        negated = tuple(FTerm(-t.coeff, t.num, t.den) for t in self.rhs)
        return self.lhs + negated


def _units(n: int) -> list[Mono]:
    return [Mono(F1, tuple(1 if j == i else 0 for j in range(n))) for i in range(n)]


def _one(n: int) -> Mono:
    return Mono(F1, (0,) * n)


def eval_terms(terms: tuple[FTerm, ...], point: tuple[Fraction, ...]) -> Fraction:
    total = F0
    for t in terms:
        value = t.coeff.value(point)
        for m in t.num:
            value *= 1 - m.value(point)
        for m in t.den:
            d = 1 - m.value(point)
            if d == 0:
                raise DivisionByZero(f"pole: 1 - {m} vanished")
            value /= d
        total += value
    return total


def eval_lhs(ident: ElementaryIdentity, env: Mapping[str, Fraction]) -> Fraction:
    point = tuple(env[v] for v in ident.vars)
    return eval_terms(ident.lhs, point)


def eval_rhs(ident: ElementaryIdentity, env: Mapping[str, Fraction]) -> Fraction:
    point = tuple(env[v] for v in ident.vars)
    return eval_terms(ident.rhs, point)


# ---------------------------------------------------------------------------
# The identity tables
# ---------------------------------------------------------------------------

def _qchv_elem() -> ElementaryIdentity:
    a, b = _units(2)
    return ElementaryIdentity(
        key="qchv_elem",
        citation="two-variable difference identity behind the sequence Chu-Vandermonde sum",
        vars=("a", "b"),
        lhs=(FTerm(a, num=(b,)), FTerm(-b, num=(a,))),
        rhs=(FTerm(a), FTerm(-b)),
    )


def _sears_n1() -> ElementaryIdentity:
    # six-variable transformation degenerated at one term, with the balance
    # condition f = abc/(de) substituted so a..e are free
    a, b, c, d, e = _units(5)
    f = a * b * c / (d * e)
    one = _one(5)
    r1n = (e / a, f / a)
    r1d = (e, f)
    r2n = (a, d / b, d / c)
    r2d = (d, a / e, a / f)
    return ElementaryIdentity(
        key="sears_n1",
        citation="one-term case of Sears' balanced 4phi3 transformation",
        vars=("a", "b", "c", "d", "e"),
        lhs=(FTerm(one), FTerm(-one, num=(a, b, c), den=(d, e, f))),
        rhs=(FTerm(a, num=r1n, den=r1d),
             FTerm(-a, num=r1n + r2n, den=r1d + r2d)),
    )


def _ten_phi_nine_n1() -> ElementaryIdentity:
    a, b, c, d, e, f = _units(6)
    one = _one(6)
    big = a ** 3 / (b * c * d * e * f)
    bal = b * c * d * e * f / a ** 2
    lhs_num = (b, c, d, e, f, big)
    lhs_den = (a / b, a / c, a / d, a / e, a / f, bal)
    r1n = (a, a / (e * f), a ** 2 / (b * c * d * e), a ** 2 / (b * c * d * f))
    r1d = (a / e, a / f, a ** 2 / (b * c * d), a ** 2 / (b * c * d * e * f))
    r2n = (a / (b * c), a / (b * d), a / (c * d), e, f, big)
    r2d = (a / b, a / c, a / d, a ** 2 / (b * c * d * e), a ** 2 / (b * c * d * f), e * f / a)
    return ElementaryIdentity(
        key="ten_phi_nine_n1",
        citation="one-term case of the very-well-poised 10phi9 transformation (Bailey, 1929)",
        vars=("a", "b", "c", "d", "e", "f"),
        lhs=(FTerm(one), FTerm(-one, num=lhs_num, den=lhs_den)),
        rhs=(FTerm(one, num=r1n, den=r1d),
             FTerm(-one, num=r1n + r2n, den=r1d + r2d)),
    )


def _ten_phi_nine_iter() -> ElementaryIdentity:
    a, b, c, d, e, f = _units(6)
    one = _one(6)
    big = a ** 3 / (b * c * d * e * f)
    bal = b * c * d * e * f / a ** 2
    lhs_num = (b, c, d, e, f, big)
    lhs_den = (a / b, a / c, a / d, a / e, a / f, bal)
    r1n = (a, d, a ** 2 / (b * c * d * e), a ** 2 / (b * c * d * f),
           a ** 2 / (b * d * e * f), a ** 2 / (c * d * e * f))
    r1d = (a / b, a / c, a / e, a / f,
           a ** 2 / (b * c * d * e * f), a ** 3 / (b * c * d ** 2 * e * f))
    r2n = (a / (b * d), a / (c * d), a / (d * e), a / (d * f),
           a ** 2 / (b * c * d * e * f), big)
    r2d = (one / d, a / d, a ** 2 / (b * c * d * e), a ** 2 / (b * c * d * f),
           a ** 2 / (b * d * e * f), a ** 2 / (c * d * e * f))
    return ElementaryIdentity(
        key="ten_phi_nine_iter",
        citation="iterated one-term case of the very-well-poised 10phi9 transformation",
        vars=("a", "b", "c", "d", "e", "f"),
        lhs=(FTerm(one), FTerm(-one, num=lhs_num, den=lhs_den)),
        rhs=(FTerm(one, num=r1n, den=r1d),
             FTerm(-one, num=r1n + r2n, den=r1d + r2d)),
    )


def _dougall_n1() -> ElementaryIdentity:
    # products of monomial differences, rewritten over (1 - monomial) factors
    # by pulling out powers of a; equivalent for a != 0
    a, b, c, d = _units(4)
    return ElementaryIdentity(
        key="dougall_n1",
        citation="four-variable identity from the one-term q-Dougall sum",
        vars=("a", "b", "c", "d"),
        lhs=(FTerm(a ** 3, num=(b, c, d, b * c * d / a ** 2)),
             FTerm(-(a ** 3), num=(a, b * c / a, b * d / a, c * d / a))),
        rhs=(FTerm(a ** 4, num=(b / a, c / a, d / a, b * c * d / a)),),
    )


def _dougall_symmetric() -> ElementaryIdentity:
    x, lam, mu, nu = _units(4)
    one = _one(4)
    return ElementaryIdentity(
        key="dougall_symmetric",
        citation="symmetric four-variable product identity (Gasper-Rahman, eq. 11.1.1)",
        vars=("x", "lam", "mu", "nu"),
        lhs=(FTerm(one, num=(x * lam, x / lam, mu * nu, mu / nu)),
             FTerm(-one, num=(x * nu, x / nu, lam * mu, mu / lam))),
        rhs=(FTerm(mu / lam, num=(x * mu, x / mu, lam * nu, lam / nu)),),
    )


ELEMENTARY: dict[str, ElementaryIdentity] = {
    ident.key: ident
    for ident in (
        _qchv_elem(),
        _sears_n1(),
        _ten_phi_nine_n1(),
        _ten_phi_nine_iter(),
        _dougall_n1(),
        _dougall_symmetric(),
    )
}


# ---------------------------------------------------------------------------
# Sampled mode
# ---------------------------------------------------------------------------

def sampled_zero_check(ident: ElementaryIdentity, seed: int, samples: int) -> list[CheckRecord]:
    """lhs - rhs at `samples` seeded pole-free rational points, exact zero each."""
    terms = ident.check_terms()
    rng = rng_for(seed, "elementary", ident.key)

    def attempt() -> tuple[tuple[Fraction, ...], Fraction]:
        point = tuple(sample_rational(rng) for _ in ident.vars)
        return point, eval_terms(terms, point)

    for i in range(samples):
        point, delta = retry(attempt, f"{ident.key}: no pole-free point in {RETRY_BOUND} tries")
        if delta != 0:
            return [outcome("elementary", ident.key, "sampled_zero", ident.citation, False,
                            dict(zip(ident.vars, point)), sample=i, delta=delta,
                            point_index=i)]
    return [record("elementary", ident.key, "sampled_zero", ident.citation, PASS, points=samples)]


# ---------------------------------------------------------------------------
# Grid mode
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _cleared_terms(ident: ElementaryIdentity) -> list[tuple[Mono, tuple[Mono, ...]]]:
    """The terms of P = D * (lhs - rhs), each as its coefficient monomial and
    the monomials m of its factors (1 - m).

    D is the product of the distinct denominator factors (1 - m), each to the
    highest power it has in one term, so a term's factors are its numerator
    factors and the factors of D it does not carry.  D must be a nonzero
    polynomial: a constant denominator monomial is a ValueError.
    """
    terms = ident.check_terms()
    cleared: Counter[Mono] = Counter()
    for t in terms:
        cleared |= Counter(t.den)
    for m in cleared:
        if not any(m.exps):
            raise ValueError(f"{ident.key}: constant denominator factor 1 - {m.coeff}")
    return [(t.coeff, t.num + tuple((cleared - Counter(t.den)).elements())) for t in terms]


def expand(ident: ElementaryIdentity) -> dict[tuple[int, ...], Fraction]:
    """P = D * (lhs - rhs) as {exponent tuple: coefficient}, zero
    coefficients dropped; exponents may be negative (a Laurent polynomial)."""
    total: dict[tuple[int, ...], Fraction] = {}
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


def degree_spans(ident: ElementaryIdentity) -> tuple[int, ...]:
    """Per-variable exponent span of P = D * (lhs - rhs).

    A factor (1 - m) spans [min(0, e), max(0, e)] in each variable, the
    coefficient monomial spans [e, e], and spans add over a product.  The
    result bounds the true degree, so a nonzero P has a nonzero value on
    any grid with more than span_i points in variable i.
    """
    nv = len(ident.vars)
    lo = [0] * nv
    hi = [0] * nv
    for coeff, factors in _cleared_terms(ident):
        for i in range(nv):
            t_lo = t_hi = coeff.exps[i]
            for m in factors:
                t_lo += min(0, m.exps[i])
                t_hi += max(0, m.exps[i])
            lo[i] = min(lo[i], t_lo)
            hi[i] = max(hi[i], t_hi)
    return tuple(h - l for l, h in zip(lo, hi))


def grid_shape(ident: ElementaryIdentity) -> tuple[int, ...]:
    return tuple(span + 2 for span in degree_spans(ident))


def grid_zero_check(ident: ElementaryIdentity) -> list[CheckRecord]:
    """Exact certification by expansion.

    D is a nonzero polynomial, so lhs = rhs as rational functions exactly
    when P = D * (lhs - rhs) expands to no nonzero coefficient; any Fraction
    coefficients are allowed.  A pass is witnessed by the prime-power grid
    p_i^1 .. p_i^(span_i + 2), distinct primes per variable, on which P then
    vanishes.  A nonzero P is witnessed by the first grid point, in the
    grid's level order, at which it is nonzero; the grid has more points in
    each variable than P's degree span, so there is one.
    """
    terms = ident.check_terms()
    nv = len(ident.vars)
    spans = degree_spans(ident)
    # widest span gets the smallest prime; variables in the most factors vary slowest
    by_span = sorted(range(nv), key=lambda i: -spans[i])
    prime_of = {var: prime for prime, var in zip(_PRIMES, by_span)}
    touch_count = [sum(1 for t in terms for m in (t.coeff,) + t.num + t.den if m.exps[i] != 0)
                   for i in range(nv)]
    order = sorted(range(nv), key=lambda i: -touch_count[i])
    shape = "x".join(str(spans[i] + 2) for i in order)
    poly = expand(ident)
    if not poly:
        return [record("elementary", ident.key, "grid_zero", ident.citation, PASS, grid=shape)]
    grids = [[Fraction(prime_of[i] ** (j + 1)) for j in range(spans[i] + 2)] for i in order]
    for values in product(*grids):
        point = tuple(v for _, v in sorted(zip(order, values)))
        if sum(Mono(c, exps).value(point) for exps, c in poly.items()) != 0:
            return [outcome("elementary", ident.key, "grid_zero", ident.citation, False,
                            dict(zip(ident.vars, point)), grid=shape)]
    raise AssertionError(f"{ident.key}: nonzero expansion vanished on its grid")
