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
    product of the denominator factors, and ``expand`` gives P = D * (lhs -
    rhs) as a dict {exponent tuple: coefficient}.  D is a product of
    nonconstant factors (1 - m), hence nonzero, so the identity holds
    exactly when no coefficient of P is left (the statement behind the
    Schwartz-Zippel lemma and Alon's Combinatorial Nullstellensatz).  P's
    per-variable ``degree_spans`` size a grid of prime powers
    (``grid_shape``), distinct primes per variable, which names the witness:
    the whole grid for a pass, the first point where P is nonzero for a failure.

Neither tester takes a gcd per operation.  At a point, every monomial and
every factor (1 - m) is an unreduced integer pair built from the
coordinates' numerators and denominators, and lhs - rhs is summed as one
pair, over the lcm of the terms' denominators (``rational.pair_lcm_add``),
and reduced once, to one Fraction per point.  The expansion runs over
int: a factor (1 - r/s * x^f) multiplies in as s * poly - r * shift(poly),
each term is scaled to one common denominator L, and P's coefficients are
Fraction(c, L), so a grid that passes builds no Fraction.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import product
from math import lcm
from operator import add
from typing import Callable, NamedTuple

from .errors import DivisionByZero
from .rational import ONE as F1, pair_lcm_add, zero_to_negative_power
from .report import PASS, CheckRecord, outcome, record
from .sampling import RETRY_BOUND, retry, rng_for, sample_rational


# The term tables are NamedTuples, as report's records are: no dataclass on a start.
class Mono(NamedTuple):
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


class FTerm(NamedTuple):
    """coeff * prod(1 - m for m in num) / prod(1 - m for m in den)."""

    coeff: Mono
    num: tuple[Mono, ...] = ()
    den: tuple[Mono, ...] = ()


class ElementaryIdentity(NamedTuple):
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


def _scaled(num: int, den: int, exps: tuple[int, ...],
            nums: list[int], dens: list[int]) -> tuple[int, int]:
    """num/den * prod x_i^exps[i] at x_i = nums[i]/dens[i], as an unreduced
    pair (numerator, nonzero denominator); 0 to a negative power raises.

    The powers are taken inline, not by ``rational.pair_pow``: the two
    calls per coordinate would make a sampled point 1.8 times slower."""
    for n, d, e in zip(nums, dens, exps):
        if e > 0:
            num *= n ** e
            den *= d ** e
        elif e:
            if not n:
                raise zero_to_negative_power(e)
            num *= d ** -e
            den *= n ** -e
    return num, den


def _term(t: FTerm, nums: list[int], dens: list[int]) -> tuple[int, int]:
    """t at x_i = nums[i]/dens[i] as an unreduced pair; a pole raises."""
    num, den = _scaled(t.coeff.coeff.numerator, t.coeff.coeff.denominator, t.coeff.exps,
                       nums, dens)
    for m in t.num:  # times 1 - mn/md = (md - mn)/md
        mn, md = _scaled(m.coeff.numerator, m.coeff.denominator, m.exps, nums, dens)
        num *= md - mn
        den *= md
    for m in t.den:
        mn, md = _scaled(m.coeff.numerator, m.coeff.denominator, m.exps, nums, dens)
        if mn == md:
            raise DivisionByZero(f"pole: 1 - {m} vanished")
        num *= md
        den *= md - mn
    return num, den


def eval_terms(terms: tuple[FTerm, ...], point: tuple[Fraction, ...]) -> Fraction:
    nums = [v.numerator for v in point]
    dens = [v.denominator for v in point]
    return Fraction(*reduce(pair_lcm_add, (_term(t, nums, dens) for t in terms), (0, 1)))


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


def _ten_phi_nine(key: str, citation: str, right: Callable[..., tuple]) -> ElementaryIdentity:
    """The one-term very-well-poised 10phi9 left side against a two-term
    right side; right(a, b, c, d, e, f, big) gives its lists r1n, r1d, r2n, r2d."""
    a, b, c, d, e, f = units = _units(6)
    one = _one(6)
    big = a ** 3 / (b * c * d * e * f)
    bal = b * c * d * e * f / a ** 2
    r1n, r1d, r2n, r2d = right(*units, big)
    return ElementaryIdentity(
        key=key, citation=citation, vars=("a", "b", "c", "d", "e", "f"),
        lhs=(FTerm(one), FTerm(-one, num=(b, c, d, e, f, big),
                               den=(a / b, a / c, a / d, a / e, a / f, bal))),
        rhs=(FTerm(one, num=r1n, den=r1d),
             FTerm(-one, num=r1n + r2n, den=r1d + r2d)),
    )


def _ten_phi_nine_n1() -> ElementaryIdentity:
    def right(a, b, c, d, e, f, big):
        r1n = (a, a / (e * f), a ** 2 / (b * c * d * e), a ** 2 / (b * c * d * f))
        r1d = (a / e, a / f, a ** 2 / (b * c * d), a ** 2 / (b * c * d * e * f))
        r2n = (a / (b * c), a / (b * d), a / (c * d), e, f, big)
        r2d = (a / b, a / c, a / d, a ** 2 / (b * c * d * e), a ** 2 / (b * c * d * f), e * f / a)
        return r1n, r1d, r2n, r2d

    return _ten_phi_nine(
        "ten_phi_nine_n1",
        "one-term case of the very-well-poised 10phi9 transformation (Bailey, 1929)", right)


def _ten_phi_nine_iter() -> ElementaryIdentity:
    def right(a, b, c, d, e, f, big):
        r1n = (a, d, a ** 2 / (b * c * d * e), a ** 2 / (b * c * d * f),
               a ** 2 / (b * d * e * f), a ** 2 / (c * d * e * f))
        r1d = (a / b, a / c, a / e, a / f,
               a ** 2 / (b * c * d * e * f), a ** 3 / (b * c * d ** 2 * e * f))
        r2n = (a / (b * d), a / (c * d), a / (d * e), a / (d * f),
               a ** 2 / (b * c * d * e * f), big)
        r2d = (d ** -1, a / d, a ** 2 / (b * c * d * e), a ** 2 / (b * c * d * f),
               a ** 2 / (b * d * e * f), a ** 2 / (c * d * e * f))
        return r1n, r1d, r2n, r2d

    return _ten_phi_nine(
        "ten_phi_nine_iter",
        "iterated one-term case of the very-well-poised 10phi9 transformation", right)


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
    coefficients dropped; exponents may be negative (a Laurent polynomial).

    A term c/b * x^e * prod (1 - r/s * x^f) is 1/(b * prod s) times the
    integer polynomial c * x^e * prod (s - r * x^f), scaled to L, the lcm of
    the terms' denominators b * prod s; only a coefficient c left is a Fraction(c, L).
    """
    terms = []
    for coeff, factors in _cleared_terms(ident):
        poly = {coeff.exps: coeff.coeff.numerator}
        den = coeff.coeff.denominator
        for m in factors:
            r, s = m.coeff.numerator, m.coeff.denominator
            den *= s
            # s = 1 in every built-in table: a copy, not a scaling loop
            step = dict(poly) if s == 1 else {exps: s * c for exps, c in poly.items()}
            for exps, c in poly.items():
                shifted = tuple(map(add, exps, m.exps))
                step[shifted] = step.get(shifted, 0) - r * c
            poly = step
        terms.append((poly, den))
    common = lcm(*(den for _, den in terms))
    total: dict[tuple[int, ...], int] = {}
    for poly, den in terms:
        scale = common // den
        for exps, c in poly.items():
            total[exps] = total.get(exps, 0) + scale * c
    return {exps: Fraction(c, common) for exps, c in total.items() if c}


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
    when ``expand`` leaves P = D * (lhs - rhs) no coefficient.  A pass is
    witnessed by the prime-power grid p_i^1 .. p_i^(span_i + 2) of
    ``grid_shape``, distinct primes per variable, on which P then vanishes.
    A nonzero P is witnessed by the first grid point, in the grid's level
    order, at which it is nonzero (its value an integer pair over the
    coefficients' parts); the grid has more points in each variable than
    P's degree span, so there is one.
    """
    terms = ident.check_terms()
    nv = len(ident.vars)
    sizes = grid_shape(ident)
    # widest span gets the smallest prime; variables in the most factors vary slowest
    by_span = sorted(range(nv), key=lambda i: -sizes[i])
    prime_of = {var: prime for prime, var in zip(_PRIMES, by_span)}
    touch_count = [sum(1 for t in terms for m in (t.coeff,) + t.num + t.den if m.exps[i] != 0)
                   for i in range(nv)]
    order = sorted(range(nv), key=lambda i: -touch_count[i])
    shape = "x".join(str(sizes[i]) for i in order)
    poly = expand(ident)
    if not poly:
        return [record("elementary", ident.key, "grid_zero", ident.citation, PASS, grid=shape)]
    parts = [(c.numerator, c.denominator, exps) for exps, c in poly.items()]
    grids = [[prime_of[i] ** (j + 1) for j in range(sizes[i])] for i in order]
    ones = [1] * nv
    for values in product(*grids):
        nums = [v for _, v in sorted(zip(order, values))]
        if reduce(pair_lcm_add, (_scaled(c, b, exps, nums, ones) for c, b, exps in parts),
                  (0, 1))[0]:
            return [outcome("elementary", ident.key, "grid_zero", ident.citation, False,
                            {var: Fraction(v) for var, v in zip(ident.vars, nums)}, grid=shape)]
    raise AssertionError(f"{ident.key}: nonzero expansion vanished on its grid")
