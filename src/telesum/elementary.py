"""Fixed-variable rational identities and a deterministic tester.

The six built-in identities (the two-variable difference identity, the
four-variable quadruple-product identity and its symmetric form, and the
n = 1 degenerations of the classical transformation formulas) are stored as
term tables: each side is a sum of terms

    coeff_monomial * prod (1 - m_i) / prod (1 - m_j)

where every m is a monomial in the identity's variables.  That structure
gives two testers:

  * sampled mode evaluates lhs - rhs at seeded random rational points,
    resampling away from poles, and requires exact zero every time;

  * grid mode certifies the identity deterministically: per-variable degree
    bounds of the denominator-cleared difference are computed from the term
    table, each variable gets a grid of prime powers (distinct primes per
    variable, so no monomial can equal 1 and no denominator can vanish
    anywhere on the grid), and vanishing on the full grid proves the cleared
    polynomial is identically zero.

Grid evaluation hoists every factor to the outermost level at which all of
its variables are bound, so the inner loops only touch what changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import DivisionByZero, PoleExhausted
from .rational import ONE as F1, ZERO as F0, rat_pow
from .report import PASS, CheckRecord, outcome
from .sampling import RETRY_BOUND, rng_for, sample_rational


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


def _term(coeff: Mono, num: tuple[Mono, ...] = (), den: tuple[Mono, ...] = ()) -> FTerm:
    return FTerm(coeff, num, den)


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
        lhs=(_term(a, num=(b,)), _term(-b, num=(a,))),
        rhs=(_term(a), _term(-b)),
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
        lhs=(_term(one), _term(-one, num=(a, b, c), den=(d, e, f))),
        rhs=(_term(a, num=r1n, den=r1d),
             _term(-a, num=r1n + r2n, den=r1d + r2d)),
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
        lhs=(_term(one), _term(-one, num=lhs_num, den=lhs_den)),
        rhs=(_term(one, num=r1n, den=r1d),
             _term(-one, num=r1n + r2n, den=r1d + r2d)),
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
        lhs=(_term(one), _term(-one, num=lhs_num, den=lhs_den)),
        rhs=(_term(one, num=r1n, den=r1d),
             _term(-one, num=r1n + r2n, den=r1d + r2d)),
    )


def _dougall_n1() -> ElementaryIdentity:
    # products of monomial differences, rewritten over (1 - monomial) factors
    # by pulling out powers of a; equivalent for a != 0
    a, b, c, d = _units(4)
    return ElementaryIdentity(
        key="dougall_n1",
        citation="four-variable identity from the one-term q-Dougall sum",
        vars=("a", "b", "c", "d"),
        lhs=(_term(a ** 3, num=(b, c, d, b * c * d / a ** 2)),
             _term(-(a ** 3), num=(a, b * c / a, b * d / a, c * d / a))),
        rhs=(_term(a ** 4, num=(b / a, c / a, d / a, b * c * d / a)),),
    )


def _dougall_symmetric() -> ElementaryIdentity:
    x, lam, mu, nu = _units(4)
    one = _one(4)
    return ElementaryIdentity(
        key="dougall_symmetric",
        citation="symmetric four-variable product identity (Gasper-Rahman, eq. 11.1.1)",
        vars=("x", "lam", "mu", "nu"),
        lhs=(_term(one, num=(x * lam, x / lam, mu * nu, mu / nu)),
             _term(-one, num=(x * nu, x / nu, lam * mu, mu / lam))),
        rhs=(_term(mu / lam, num=(x * mu, x / mu, lam * nu, lam / nu)),),
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

def sampled_zero_check(ident: ElementaryIdentity, seed: int, samples: int,
                       suite: str = "elementary") -> list[CheckRecord]:
    """lhs - rhs at `samples` seeded pole-free rational points, exact zero each."""
    terms = ident.check_terms()
    rng = rng_for(seed, "elementary", ident.key)
    for i in range(samples):
        point = None
        for _ in range(RETRY_BOUND):
            candidate = tuple(sample_rational(rng) for _ in ident.vars)
            try:
                delta = eval_terms(terms, candidate)
            except DivisionByZero:
                continue
            point = candidate
            break
        if point is None:
            raise PoleExhausted(f"{ident.key}: no pole-free point in {RETRY_BOUND} tries")
        if delta != 0:
            return [outcome(suite, ident.key, "sampled_zero", ident.citation, False,
                            dict(zip(ident.vars, point)), sample=i, delta=delta,
                            point_index=i)]
    return [CheckRecord(suite=suite, identity=ident.key, check="sampled_zero",
                        status=PASS, witness={"points": str(samples)},
                        citation=ident.citation)]


# ---------------------------------------------------------------------------
# Grid mode
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def degree_spans(ident: ElementaryIdentity) -> tuple[int, ...]:
    """Per-variable exponent span of the denominator-cleared difference.

    Clearing multiplies each term by the distinct denominator factors it
    does not already carry; a factor (1 - m) spans [min(0, e), max(0, e)]
    in each variable, the coefficient monomial spans [e, e], and spans add
    over a product.  The result bounds the true degree, which is all grid
    certification needs.
    """
    terms = ident.check_terms()
    nv = len(ident.vars)
    cleared = {m for t in terms for m in t.den}
    lo = [0] * nv
    hi = [0] * nv
    for t in terms:
        extra = cleared - set(t.den)
        for i in range(nv):
            t_lo = t.coeff.exps[i]
            t_hi = t.coeff.exps[i]
            for m in tuple(t.num) + tuple(extra):
                t_lo += min(0, m.exps[i])
                t_hi += max(0, m.exps[i])
            lo[i] = min(lo[i], t_lo)
            hi[i] = max(hi[i], t_hi)
    return tuple(h - l for l, h in zip(lo, hi))


def grid_shape(ident: ElementaryIdentity) -> tuple[int, ...]:
    return tuple(span + 2 for span in degree_spans(ident))


def grid_zero_check(ident: ElementaryIdentity, suite: str = "elementary") -> list[CheckRecord]:
    """Deterministic certification on a full prime-power grid.

    Variable i takes values p_i^1 .. p_i^(span_i + 2) over distinct primes,
    so every (1 - monomial) factor is nonzero at every grid point by unique
    factorization, and vanishing everywhere certifies the identity.

    Every coefficient in the tables is +-1, so clearing each term by the
    distinct denominator factors it lacks turns the whole difference into
    sign * V(lead) * prod(V(neg) - c * V(pos)) with nonnegative monomial
    exponents throughout: the sweep runs in plain integers, no divisions.
    Monomial values are maintained incrementally down the variable levels.
    """
    terms = ident.check_terms()
    nv = len(ident.vars)
    spans = degree_spans(ident)
    cleared = sorted({m for t in terms for m in t.den}, key=lambda m: m.exps)

    # widest span gets the smallest prime; many-factor variables go outermost
    by_span = sorted(range(nv), key=lambda i: -spans[i])
    prime_of = {var: prime for prime, var in zip(_PRIMES, by_span)}
    touch_count = [sum(1 for t in terms for m in (t.coeff,) + t.num + t.den if m.exps[i] != 0)
                   for i in range(nv)]
    order = sorted(range(nv), key=lambda i: -touch_count[i])

    mono_exps: list[tuple[int, ...]] = []
    mono_index: dict[tuple[int, ...], int] = {}

    def intern(exps: tuple[int, ...]) -> int:
        if exps not in mono_index:
            mono_index[exps] = len(mono_exps)
            mono_exps.append(exps)
        return mono_index[exps]

    def top_level(exps: tuple[int, ...]) -> int:
        lvls = [lvl for lvl in range(nv) if exps[order[lvl]] != 0]
        return max(lvls) if lvls else 0

    def unit_sign(x: Fraction) -> int:
        if x == 1:
            return 1
        if x == -1:
            return -1
        raise ValueError("grid mode requires unit coefficients in the term table")

    # clearing exponents per term, and the global equalizer X
    term_factors = []
    clearing = []
    for t in terms:
        factors = tuple(t.num) + tuple(m for m in cleared if m not in t.den)
        term_factors.append(factors)
        vec = [max(0, -e) for e in t.coeff.exps]
        for m in factors:
            for i, e in enumerate(m.exps):
                vec[i] += max(0, -e)
        clearing.append(vec)
    X = [max(vec[i] for vec in clearing) for i in range(nv)]

    # per term: sign, lead monomial, factor triples (neg, c, pos) by level
    term_plan = []
    for t, factors, vec in zip(terms, term_factors, clearing):
        sign = unit_sign(t.coeff.coeff)
        lead = tuple(X[i] - vec[i] + max(0, t.coeff.exps[i]) for i in range(nv))
        by_level: list[list[tuple[int, int, int]]] = [[] for _ in range(nv)]
        for m in factors:
            c = unit_sign(m.coeff)
            neg = tuple(max(0, -e) for e in m.exps)
            pos = tuple(max(0, e) for e in m.exps)
            by_level[max(top_level(neg), top_level(pos))].append(
                (intern(neg), c, intern(pos)))
        term_plan.append((sign, intern(lead), top_level(lead), by_level))

    grids = [[prime_of[order[lvl]] ** (j + 1) for j in range(spans[order[lvl]] + 2)]
             for lvl in range(nv)]
    # which monomials each level touches, with that level's power column
    touch: list[list[tuple[int, list[int]]]] = [[] for _ in range(nv)]
    for idx, exps in enumerate(mono_exps):
        for lvl in range(nv):
            e = exps[order[lvl]]
            if e:
                touch[lvl].append((idx, [v ** e for v in grids[lvl]]))

    val = [1] * len(mono_exps)
    point = [0] * nv

    def descend(level: int, accs: tuple[int, ...]):
        leaf = level + 1 == nv
        level_touch = touch[level]
        for vi, value in enumerate(grids[level]):
            point[order[level]] = value
            saved = [val[idx] for idx, _ in level_touch]
            for idx, powers in level_touch:
                val[idx] *= powers[vi]
            new_accs = []
            total = 0
            for acc, (sign, lead, lead_lvl, by_level) in zip(accs, term_plan):
                for neg_idx, c, pos_idx in by_level[level]:
                    acc *= val[neg_idx] - c * val[pos_idx]
                if lead_lvl == level:
                    acc *= val[lead]
                if leaf:
                    total += sign * acc
                else:
                    new_accs.append(acc)
            bad = None
            if leaf:
                if total != 0:
                    bad = dict(zip(ident.vars, point))
            else:
                bad = descend(level + 1, tuple(new_accs))
            for (idx, _), old in zip(level_touch, saved):
                val[idx] = old
            if bad is not None:
                return bad
        return None

    bad_point = descend(0, tuple(1 for _ in term_plan))
    shape = "x".join(str(spans[order[l]] + 2) for l in range(nv))
    if bad_point is not None:
        return [outcome(suite, ident.key, "grid_zero", ident.citation, False, bad_point,
                        grid=shape)]
    return [CheckRecord(suite=suite, identity=ident.key, check="grid_zero",
                        status=PASS, witness={"grid": shape}, citation=ident.citation)]


def check_rational_identity(ident: ElementaryIdentity, mode: str = "sampled",
                            seed: int = 0, samples: int = 200,
                            suite: str = "elementary") -> list[CheckRecord]:
    """mode="sampled": exact zero at seeded random points; "grid": certify."""
    if mode == "grid":
        return grid_zero_check(ident, suite=suite)
    return sampled_zero_check(ident, seed, samples, suite=suite)
