"""The built-in identity corpus.

Each entry is an IdentityDef: a summand evaluator term(n, k, params), a
closed-form right side rhs(n, params), parameter declarations with
admissibility handled by an evaluation probe, and, for the terminating
hypergeometric and q-hypergeometric sums, the telescoping certificate
(u(n,k), v(n,k)) transcribed from the classical proofs.

Conventions:

  * rising_factorial(x, m) = x (x+1) ... (x+m-1); its zero at nonpositive
    integer x is what terminates the classical sums naturally.
  * q_rising_factorial(a, q, m) = (1-a)(1-aq)...(1-a q^(m-1)); the factor
    built from q^(-n) vanishing for k > n terminates the q-sums.
  * The very-well-poised entries are implemented in the factored
    (1 - a q^(2k))/(1 - a) form, so no square roots ever appear and every
    value stays in the rational field.
  * Coupled parameters (e.g. the argument a^2 q^(n+1)/bcd) are computed on
    the fly from the free ones, never sampled independently.

Summands and closed forms are read through ``certify.sample_value``, so the
admissibility probe evaluates each term(n, k) and rhs(n) of a sample once,
and ``evaluate_identity`` and ``normalized(...).F`` reuse those values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .certify import Certificate, NormalizedIdentity, sample_value
from .errors import Inadmissible, SampleExhausted
from .rational import ONE, ZERO, rat_div, rat_pow
from .sampling import (RETRY_BOUND, sample_int, sample_q, sample_rational,
                       sample_sequence)

Params = Mapping[str, object]


def rising_factorial(x: Fraction, m: int) -> Fraction:
    """(x)_m = x (x+1) ... (x+m-1), with (x)_0 = 1."""
    if m < 0:
        raise ValueError("rising factorial needs m >= 0")
    p = ONE
    for i in range(m):
        p *= x + i
    return p


def q_rising_factorial(a: Fraction, q: Fraction, m: int) -> Fraction:
    """(a; q)_m = (1-a)(1-aq)...(1-a q^(m-1)), with (a; q)_0 = 1."""
    if m < 0:
        raise ValueError("q-rising factorial needs m >= 0")
    p = ONE
    t = a
    for _ in range(m):
        p *= 1 - t
        t *= q
    return p


rf = rising_factorial
qrf = q_rising_factorial


def factorial(m: int) -> Fraction:
    return rising_factorial(ONE, m)


@dataclass(frozen=True)
class Param:
    name: str
    kind: str = "rational"  # rational | q | int | sequence
    int_range: tuple[int, int] = (0, 5)
    note: str = ""


@dataclass(frozen=True)
class IdentityDef:
    key: str
    citation: str
    params: tuple[Param, ...]
    term: Callable[[int, int, Params], Fraction]
    rhs: Callable[[int, Params], Fraction]
    sum_range: Callable[[int], tuple[int, int]] = lambda n: (0, n)
    certificate: Certificate | None = None
    terminating: bool = False
    n_max: int = 15


def evaluate_identity(idef: IdentityDef, n: int, params: Params) -> tuple[Fraction, Fraction]:
    """(LHS sum, RHS closed form); equality is the caller's assertion."""
    lo, hi = idef.sum_range(n)
    lhs = sum((sample_value(idef.term, n, k, params) for k in range(lo, hi + 1)), ZERO)
    return lhs, sample_value(idef.rhs, n, params)


def normalized(idef: IdentityDef) -> NormalizedIdentity:
    """The identity divided through by its right side: sum_k F(n, k) = 1."""

    def F(n: int, k: int, params: Params) -> Fraction:
        return rat_div(sample_value(idef.term, n, k, params), sample_value(idef.rhs, n, params))

    return NormalizedIdentity(key=idef.key, F=F, certificate=idef.certificate,
                              citation=idef.citation)


# ---------------------------------------------------------------------------
# Admissible sampling
# ---------------------------------------------------------------------------

def draw_params(idef: IdentityDef, rng: random.Random, n_max: int) -> dict[str, object]:
    params: dict[str, object] = {}
    for p in idef.params:
        if p.kind == "q":
            params[p.name] = sample_q(rng, n_max + 2)
        elif p.kind == "int":
            params[p.name] = sample_int(rng, *p.int_range)
        elif p.kind == "sequence":
            params[p.name] = sample_sequence(rng, n_max + 2)
        else:
            params[p.name] = sample_rational(rng)
    return params


def admissible(idef: IdentityDef, n_max: int, params: Params) -> bool:
    """Probe every denominator the suites will touch; False on any zero.

    Covers the summand over the summation range (plus a 3-term overshoot for
    terminating sums), the right side up to n_max + 1, and, when a
    certificate is present: F's normalization (rhs != 0), w(n, 0) != 0, and
    v(n, k) != 0 for 1 <= k <= n + 1.  The probed values stay in the sample
    memo, where the checks of an accepted sample find them.
    """
    overshoot = 3 if idef.terminating else 0
    try:
        for n in range(n_max + 2):
            r = sample_value(idef.rhs, n, params)
            if idef.certificate is not None and r == 0:
                return False
            lo, hi = idef.sum_range(n)
            for k in range(lo, hi + 1 + overshoot):
                sample_value(idef.term, n, k, params)
        if idef.certificate is not None:
            cert = idef.certificate
            for n in range(n_max + 1):
                if sample_value(cert.u, n, 0, params) - sample_value(cert.v, n, 0, params) == 0:
                    return False
                sample_value(cert.u, n, n + 1, params)
                for k in range(1, n + 2):
                    if sample_value(cert.v, n, k, params) == 0:
                        return False
        return True
    except Inadmissible:
        return False
    except ZeroDivisionError:
        return False


def draw_admissible(idef: IdentityDef, rng: random.Random, n_max: int,
                    retries: int = RETRY_BOUND) -> dict[str, object]:
    for _ in range(retries):
        params = draw_params(idef, rng, n_max)
        if admissible(idef, n_max, params):
            return params
    raise SampleExhausted(f"{idef.key}: no admissible sample in {retries} tries")


# ---------------------------------------------------------------------------
# Classical hypergeometric rows
# ---------------------------------------------------------------------------

def _geometric() -> IdentityDef:
    def term(n, k, p):
        return rat_pow(p["x"], k)

    def rhs(n, p):
        return rat_div(rat_pow(p["x"], n + 1) - 1, p["x"] - 1)

    return IdentityDef(
        key="geometric",
        citation="geometric series partial sum",
        params=(Param("x", note="x != 1"),),
        term=term, rhs=rhs,
    )


def _rising_fact_sum() -> IdentityDef:
    def term(n, k, p):
        return rf(Fraction(k), p["m"])

    def rhs(n, p):
        return rf(Fraction(n), p["m"] + 1) / (p["m"] + 1)

    return IdentityDef(
        key="rising_fact_sum",
        citation="sum of rising factorials k(k+1)...(k+m-1)",
        params=(Param("m", kind="int", int_range=(0, 5)),),
        term=term, rhs=rhs, sum_range=lambda n: (1, n),
    )


def _reciprocal_rising_fact_sum() -> IdentityDef:
    def term(n, k, p):
        return rat_div(ONE, rf(Fraction(k), p["m"] + 1))

    def rhs(n, p):
        m = p["m"]
        return Fraction(1, m) * (rat_div(ONE, factorial(m)) - rat_div(ONE, rf(Fraction(n + 1), m)))

    return IdentityDef(
        key="reciprocal_rising_fact_sum",
        citation="sum of reciprocals 1/(k(k+1)...(k+m))",
        params=(Param("m", kind="int", int_range=(1, 5)),),
        term=term, rhs=rhs, sum_range=lambda n: (1, n),
    )


def _ramanujan_entry25() -> IdentityDef:
    # params: x and a sequence a_1, a_2, ... (1-indexed into the tuple)
    def a(p, j):
        return p["a"][j - 1]

    def term(n, k, p):
        x = p["x"]
        num = ONE
        den = ONE
        for j in range(1, k + 1):
            num *= a(p, j)
        for j in range(1, k + 2):
            den *= x + a(p, j)
        return rat_div(num, den)

    def rhs(n, p):
        x = p["x"]
        num = ONE
        den = x
        for j in range(1, n + 2):
            num *= a(p, j)
            den *= x + a(p, j)
        return rat_div(ONE, x) - rat_div(num, den)

    return IdentityDef(
        key="ramanujan_entry25",
        citation="Ramanujan's Notebooks, Vol. 4, Entry 25",
        params=(Param("x"), Param("a", kind="sequence")),
        term=term, rhs=rhs,
    )


def _binomial_x1() -> IdentityDef:
    def term(n, k, p):
        return rat_pow(Fraction(-1), k) * rf(Fraction(-n), k) / factorial(k)

    def rhs(n, p):
        return rat_pow(Fraction(2), n)

    cert = Certificate(
        u=lambda n, k, p: Fraction(n + 1 - k),
        v=lambda n, k, p: Fraction(k),
    )
    return IdentityDef(
        key="binomial_x1",
        citation="row sums of Pascal's triangle (binomial theorem at x = 1)",
        params=(),
        term=term, rhs=rhs, certificate=cert, terminating=True,
    )


def _binomial() -> IdentityDef:
    def term(n, k, p):
        x = p["x"]
        choose = rat_pow(Fraction(-1), k) * rf(Fraction(-n), k) / factorial(k)
        return choose * rat_pow(x, k)

    def rhs(n, p):
        return rat_pow(1 + p["x"], n)

    cert = Certificate(
        u=lambda n, k, p: p["x"] * (n - k + 1),
        v=lambda n, k, p: Fraction(k),
    )
    return IdentityDef(
        key="binomial",
        citation="binomial theorem (terminating form)",
        params=(Param("x", note="x != 0, -1"),),
        term=term, rhs=rhs, certificate=cert, terminating=True,
    )


def _chu_vandermonde() -> IdentityDef:
    def term(n, k, p):
        a, b = p["a"], p["b"]
        return rat_div(rf(a, k) * rf(Fraction(-n), k), rf(b, k) * factorial(k))

    def rhs(n, p):
        a, b = p["a"], p["b"]
        return rat_div(rf(b - a, n), rf(b, n))

    cert = Certificate(
        u=lambda n, k, p: (p["a"] + k) * (-n - 1 + k),
        v=lambda n, k, p: k * (p["b"] + k - 1),
    )
    return IdentityDef(
        key="chu_vandermonde",
        citation="Chu (1303)-Vandermonde (1772) sum",
        params=(Param("a"), Param("b")),
        term=term, rhs=rhs, certificate=cert, terminating=True,
    )


def _pfaff_saalschutz() -> IdentityDef:
    def term(n, k, p):
        a, b, c = p["a"], p["b"], p["c"]
        num = rf(a, k) * rf(b, k) * rf(Fraction(-n), k)
        den = rf(c, k) * rf(1 - n + a + b - c, k) * factorial(k)
        return rat_div(num, den)

    def rhs(n, p):
        a, b, c = p["a"], p["b"], p["c"]
        return rat_div(rf(c - a, n) * rf(c - b, n), rf(c, n) * rf(c - a - b, n))

    cert = Certificate(
        u=lambda n, k, p: (p["a"] + k) * (p["b"] + k) * (-n - 1 + k),
        v=lambda n, k, p: k * (p["c"] + k - 1) * (-n + k + p["a"] + p["b"] - p["c"]),
    )
    return IdentityDef(
        key="pfaff_saalschutz",
        citation="Pfaff (1797)-Saalschutz (1890) sum",
        params=(Param("a"), Param("b"), Param("c")),
        term=term, rhs=rhs, certificate=cert, terminating=True,
    )


# ---------------------------------------------------------------------------
# q-hypergeometric rows
# ---------------------------------------------------------------------------

def _q_binomial() -> IdentityDef:
    def term(n, k, p):
        z, q = p["z"], p["q"]
        num = qrf(rat_pow(q, -n), q, k)
        den = qrf(q, q, k)
        return rat_div(num, den) * rat_pow(z * rat_pow(q, n), k)

    def rhs(n, p):
        return qrf(p["z"], p["q"], n)

    cert = Certificate(
        u=lambda n, k, p: p["z"] * rat_pow(p["q"], n) * (1 - rat_pow(p["q"], -n - 1 + k)),
        v=lambda n, k, p: 1 - rat_pow(p["q"], k),
    )
    return IdentityDef(
        key="q_binomial",
        citation="terminating q-binomial sum",
        params=(Param("z"), Param("q", kind="q")),
        term=term, rhs=rhs, certificate=cert, terminating=True, n_max=12,
    )


def _q_chu_vandermonde() -> IdentityDef:
    def term(n, k, p):
        a, b, q = p["a"], p["b"], p["q"]
        num = qrf(a, q, k) * qrf(rat_pow(q, -n), q, k)
        den = qrf(b, q, k) * qrf(q, q, k)
        return rat_div(num, den) * rat_pow(rat_div(b * rat_pow(q, n), a), k)

    def rhs(n, p):
        a, b, q = p["a"], p["b"], p["q"]
        return rat_div(qrf(rat_div(b, a), q, n), qrf(b, q, n))

    def u(n, k, p):
        a, b, q = p["a"], p["b"], p["q"]
        return (1 - a * rat_pow(q, k)) * (1 - rat_pow(q, -n - 1 + k)) * rat_div(b * rat_pow(q, n), a)

    def v(n, k, p):
        b, q = p["b"], p["q"]
        return (1 - b * rat_pow(q, k - 1)) * (1 - rat_pow(q, k))

    return IdentityDef(
        key="q_chu_vandermonde",
        citation="a q-analog of the Chu-Vandermonde sum",
        params=(Param("a"), Param("b"), Param("q", kind="q")),
        term=term, rhs=rhs, certificate=Certificate(u, v), terminating=True, n_max=12,
    )


def _q_pfaff_saalschutz() -> IdentityDef:
    def term(n, k, p):
        a, b, c, q = p["a"], p["b"], p["c"], p["q"]
        num = qrf(a, q, k) * qrf(b, q, k) * qrf(rat_pow(q, -n), q, k)
        den = (qrf(c, q, k)
               * qrf(rat_div(a * b * rat_pow(q, 1 - n), c), q, k)
               * qrf(q, q, k))
        return rat_div(num, den) * rat_pow(q, k)

    def rhs(n, p):
        a, b, c, q = p["a"], p["b"], p["c"], p["q"]
        num = qrf(rat_div(c, a), q, n) * qrf(rat_div(c, b), q, n)
        den = qrf(c, q, n) * qrf(rat_div(c, a * b), q, n)
        return rat_div(num, den)

    def u(n, k, p):
        a, b, q = p["a"], p["b"], p["q"]
        return ((1 - a * rat_pow(q, k)) * (1 - b * rat_pow(q, k))
                * (1 - rat_pow(q, -n - 1 + k)))

    def v(n, k, p):
        a, b, c, q = p["a"], p["b"], p["c"], p["q"]
        return ((1 - c * rat_pow(q, k - 1))
                * (1 - rat_div(a * b * rat_pow(q, -n + k), c))
                * (1 - rat_pow(q, k)))

    return IdentityDef(
        key="q_pfaff_saalschutz",
        citation="q-Pfaff-Saalschutz sum (Jackson, 1910)",
        params=(Param("a"), Param("b"), Param("c"), Param("q", kind="q")),
        term=term, rhs=rhs, certificate=Certificate(u, v), terminating=True, n_max=12,
    )


def _q_dougall() -> IdentityDef:
    def term(n, k, p):
        a, b, c, d, q = p["a"], p["b"], p["c"], p["d"], p["q"]
        head = rat_div(1 - a * rat_pow(q, 2 * k), 1 - a)
        num = (qrf(a, q, k) * qrf(b, q, k) * qrf(c, q, k) * qrf(d, q, k)
               * qrf(rat_div(a * a * rat_pow(q, n + 1), b * c * d), q, k)
               * qrf(rat_pow(q, -n), q, k))
        den = (qrf(rat_div(a * q, b), q, k) * qrf(rat_div(a * q, c), q, k)
               * qrf(rat_div(a * q, d), q, k)
               * qrf(rat_div(b * c * d * rat_pow(q, -n), a), q, k)
               * qrf(a * rat_pow(q, n + 1), q, k) * qrf(q, q, k))
        return head * rat_div(num, den) * rat_pow(q, k)

    def rhs(n, p):
        a, b, c, d, q = p["a"], p["b"], p["c"], p["d"], p["q"]
        num = (qrf(a * q, q, n) * qrf(rat_div(a * q, b * c), q, n)
               * qrf(rat_div(a * q, b * d), q, n) * qrf(rat_div(a * q, c * d), q, n))
        den = (qrf(rat_div(a * q, b), q, n) * qrf(rat_div(a * q, c), q, n)
               * qrf(rat_div(a * q, d), q, n) * qrf(rat_div(a * q, b * c * d), q, n))
        return rat_div(num, den)

    def u(n, k, p):
        a, b, c, d, q = p["a"], p["b"], p["c"], p["d"], p["q"]
        qk = rat_pow(q, k)
        return ((1 - a * qk) * (1 - b * qk) * (1 - c * qk) * (1 - d * qk)
                * (1 - rat_div(a * a * rat_pow(q, n + k + 1), b * c * d))
                * (1 - rat_pow(q, -n - 1 + k)))

    def v(n, k, p):
        a, b, c, d, q = p["a"], p["b"], p["c"], p["d"], p["q"]
        qk = rat_pow(q, k)
        return ((1 - rat_div(a * qk, b)) * (1 - rat_div(a * qk, c))
                * (1 - rat_div(a * qk, d))
                * (1 - rat_div(b * c * d * rat_pow(q, -n + k - 1), a))
                * (1 - a * rat_pow(q, n + k + 1)) * (1 - qk))

    return IdentityDef(
        key="q_dougall",
        citation="q-Dougall sum (Jackson, 1921): terminating balanced very-well-poised 8phi7",
        params=(Param("a"), Param("b"), Param("c"), Param("d"), Param("q", kind="q")),
        term=term, rhs=rhs, certificate=Certificate(u, v), terminating=True, n_max=8,
    )


def _rogers_6phi5() -> IdentityDef:
    def term(n, k, p):
        a, b, c, q = p["a"], p["b"], p["c"], p["q"]
        head = rat_div(1 - a * rat_pow(q, 2 * k), 1 - a)
        num = qrf(a, q, k) * qrf(b, q, k) * qrf(c, q, k) * qrf(rat_pow(q, -n), q, k)
        den = (qrf(rat_div(a * q, b), q, k) * qrf(rat_div(a * q, c), q, k)
               * qrf(a * rat_pow(q, n + 1), q, k) * qrf(q, q, k))
        z = rat_div(a * rat_pow(q, n + 1), b * c)
        return head * rat_div(num, den) * rat_pow(z, k)

    def rhs(n, p):
        a, b, c, q = p["a"], p["b"], p["c"], p["q"]
        num = qrf(a * q, q, n) * qrf(rat_div(a * q, b * c), q, n)
        den = qrf(rat_div(a * q, b), q, n) * qrf(rat_div(a * q, c), q, n)
        return rat_div(num, den)

    # The d-free reduction of the 8phi7 certificate, with the n-dependent
    # argument aq^(n+1)/bc attached to u the same way bq^n/a is in the
    # q-Chu-Vandermonde certificate.  Validated by the full check sweep.
    def u(n, k, p):
        a, b, c, q = p["a"], p["b"], p["c"], p["q"]
        qk = rat_pow(q, k)
        return ((1 - a * qk) * (1 - b * qk) * (1 - c * qk)
                * (1 - rat_pow(q, -n - 1 + k))
                * rat_div(a * rat_pow(q, n + 1), b * c))

    def v(n, k, p):
        a, b, c, q = p["a"], p["b"], p["c"], p["q"]
        qk = rat_pow(q, k)
        return ((1 - rat_div(a * qk, b)) * (1 - rat_div(a * qk, c))
                * (1 - a * rat_pow(q, n + k + 1)) * (1 - qk))

    return IdentityDef(
        key="rogers_6phi5",
        citation="Rogers' terminating very-well-poised 6phi5 sum",
        params=(Param("a"), Param("b"), Param("c"), Param("q", kind="q")),
        term=term, rhs=rhs, certificate=Certificate(u, v), terminating=True, n_max=12,
    )


CORPUS: dict[str, IdentityDef] = {
    idef.key: idef
    for idef in (
        _geometric(),
        _rising_fact_sum(),
        _reciprocal_rising_fact_sum(),
        _ramanujan_entry25(),
        _binomial_x1(),
        _binomial(),
        _chu_vandermonde(),
        _pfaff_saalschutz(),
        _q_binomial(),
        _q_chu_vandermonde(),
        _q_pfaff_saalschutz(),
        _q_dougall(),
        _rogers_6phi5(),
    )
}

#: Identities shipping with a telescoping certificate (the "ez" suite).
CERTIFIED_KEYS = tuple(k for k, v in CORPUS.items() if v.certificate is not None)


# ---------------------------------------------------------------------------
# The n = 1 specialization link: q-Dougall row -> four-variable identity
# ---------------------------------------------------------------------------

def specialization_d_zero_checks(q: Fraction, a: Fraction, b: Fraction,
                                 c: Fraction, d: Fraction) -> dict[str, bool]:
    """The n = 1 row of the q-Dougall sum, rearranged exactly.

    With the substitution a -> a/q, the n = 1 row  1 + T_1 = RHS(1)  turns,
    after multiplication by M = (1-a/b)(1-a/c)(1-a/d)(1-bcd/a) * abcd, into
    the four-variable identity U - V = W with

        U = (1-b)(1-c)(1-d)(a^2 - bcd) a
        V = (1-a)(a - bc)(a - bd)(a - cd)
        W = (a-b)(a-c)(a-d)(a - bcd)

    term by term:  1 * M = -W,  T_1 * M = U,  RHS(1) * M = V.
    """
    idef = CORPUS["q_dougall"]
    sub = {"a": rat_div(a, q), "b": b, "c": c, "d": d, "q": q}
    t1 = idef.term(1, 1, sub)
    rhs1 = idef.rhs(1, sub)
    row_total = idef.term(1, 0, sub) + t1

    U = (1 - b) * (1 - c) * (1 - d) * (a * a - b * c * d) * a
    V = (1 - a) * (a - b * c) * (a - b * d) * (a - c * d)
    W = (a - b) * (a - c) * (a - d) * (a - b * c * d)
    M = ((1 - rat_div(a, b)) * (1 - rat_div(a, c)) * (1 - rat_div(a, d))
         * (1 - rat_div(b * c * d, a))) * a * b * c * d

    return {
        "k0_term": M == -W,
        "k1_term": t1 * M == U,
        "rhs": rhs1 * M == V,
        "elementary": U - V == W,
        "row": row_total == rhs1,
    }
