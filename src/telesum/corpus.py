"""The built-in identity corpus.

Each entry is an IdentityDef: a summand evaluator term(n, k, params), a
closed-form right side rhs(n, params), parameter declarations with
admissibility handled by an evaluation probe, and, for the terminating
hypergeometric and q-hypergeometric sums, the telescoping certificate
(u(n,k), v(n,k)) of the classical proofs.

The nine certified sums are declared as data, in the rphis notation of
Gasper and Rahman, by the (upper; lower; argument) lists of one term

    t(m) = prod (x)_m / prod (y)_m * z^m

with q-shifted factorials (x; q)_m for the q-sums.  A summand's row n is
such a term read at m = k, and its closed form is the one closed-form row
read at m = n.  Their certificates are declared the same way, as the
(factors; argument) lists of a product of linear factors

    linear_factors(xs, z, k) = z * prod (x + k)          (classical sums)
    linear_factors(xs, z, k, q) = z * prod (1 - x q^k)   (q-sums)

Both forms rest on one per-index factor, prod (x + k) or prod (1 - x q^k),
written once in ``_factor_pair``, which ``_TermRow`` and ``linear_factors``
share.

Conventions:

  * rising_factorial(x, m) = x (x+1) ... (x+m-1); its zero at nonpositive
    integer x is what terminates the classical sums naturally.
  * q_rising_factorial(a, q, m) = (1-a)(1-aq)...(1-a q^(m-1)); the factor
    built from q^(-n) vanishing for k > n terminates the q-sums.  A sum is a
    q-series exactly when it has a base parameter q.  Both build their m
    factors in one block in ``_shifted_product``.
  * The very-well-poised entries carry the factored head
    (1 - a q^(2k))/(1 - a), so no square roots ever appear and every value
    stays in the rational field.
  * Coupled parameters (e.g. the argument a^2 q^(n+1)/bcd) are computed on
    the fly from the free ones, never sampled independently.  Every declared
    parameter is drawn by ``draw_params``.

Summands, closed forms and certificate values are read through
``certify.sample_value`` (see ``certify.SampleMemo``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .certify import (TERMINATION_OVERSHOOT, CertFn, Certificate, NormalizedIdentity,
                      sample_value)
from .errors import DivisionByZero, Inadmissible
from .rational import ONE, ZERO, format_rational, prod_range, rat_div, rat_pow
from .sampling import RETRY_BOUND, retry, sample_q, sample_rational, sample_sequence

Params = Mapping[str, object]
#: (upper, lower, z) of one ``_TermRow``: a function of the parameters by
#: name, and of n first for a summand.
Series = Callable[..., tuple[Sequence[Fraction], Sequence[Fraction], Fraction]]
#: (factors, z) of one ``linear_factors`` product, as a function of n and the
#: parameters by name.
Factors = Callable[..., tuple[Sequence[Fraction], Fraction]]


def _shifted_product(x: Fraction, m: int, q: Fraction | None = None) -> tuple[int, int]:
    """(x)_m, or (x; q)_m when a base q is given, as an unreduced integer
    pair (num, den) with den > 0.

    With x = p/d and q = r/s the factors are

        x + i       = (p + i d) / d
        1 - x q^i   = (d s^i - p r^i) / (d s^i)

    so the product is one integer numerator over d^m, times s^(m(m-1)/2)
    for the q-shifted form.  No gcd is taken: the caller builds one Fraction
    from the pair.
    """
    if m < 0:
        raise ValueError(f"{'rising' if q is None else 'q-rising'} factorial needs m >= 0")
    p, d = x.numerator, x.denominator
    num = 1
    if q is None:
        for i in range(m):
            num *= p + i * d
        return num, d ** m
    r, s = q.numerator, q.denominator
    ri = si = 1
    for _ in range(m):
        num *= d * si - p * ri
        ri, si = ri * r, si * s
    return num, d ** m * s ** (m * (m - 1) // 2)


def rising_factorial(x: Fraction, m: int) -> Fraction:
    """(x)_m = x (x+1) ... (x+m-1), with (x)_0 = 1."""
    return Fraction(*_shifted_product(x, m))


def q_rising_factorial(a: Fraction, q: Fraction, m: int) -> Fraction:
    """(a; q)_m = (1-a)(1-aq)...(1-a q^(m-1)), with (a; q)_0 = 1."""
    return Fraction(*_shifted_product(a, m, q))


def _factor_pair(xs: Sequence[Fraction], k: int, q: Fraction | None = None) -> tuple[int, int]:
    """prod_x (x + k), or prod_x (1 - x q^k) when a base q is given, as an
    unreduced integer pair (num, den) with den > 0.

    With x = p/d and q^k = r/s a factor is (p + k d)/d, or (d s - p r)/(d s).
    """
    num = den = 1
    if q is None:
        for x in xs:
            d = x.denominator
            num *= x.numerator + k * d
            den *= d
        return num, den
    if k >= 0:
        r, s = q.numerator ** k, q.denominator ** k
    else:
        qk = rat_pow(q, k)
        r, s = qk.numerator, qk.denominator
    for x in xs:
        d = x.denominator
        num *= d * s - x.numerator * r
        den *= d * s
    return num, den


class _TermRow:
    """The columns t(m) = prod_x (x)_m / prod_y (y)_m * z^m, m = 0, 1, ...,
    of one term over x in upper and y in lower, where (x)_m is the q-shifted
    factorial (x; q)_m when a base q is given.  They are grown on demand by
    the term ratio

        t(m+1) / t(m) = z * prod_x (x + m) / prod_y (y + m),
        or z * prod_x (1 - x q^m) / prod_y (1 - y q^m) when a base q is given,

    with the running upper, lower and z^m products kept as unreduced integer
    pairs, so each column is one Fraction and reading columns 0..m costs
    O(m) factors, not O(m^2).  A zero lower product raises
    DivisionByZero, even where an upper factor vanishes too: from the first
    vanishing lower factor on, every column raises with the text
    "division of <upper product at that column> by zero".  The text is kept,
    never the exception.
    """

    def __init__(self, upper: Sequence[Fraction], lower: Sequence[Fraction], z: Fraction,
                 q: Fraction | None = None) -> None:
        self.upper, self.lower, self.z, self.q = upper, lower, z, q
        self.products = (1, 1, 1, 1, 1, 1)  # upper, lower and z^m as (num, den) pairs
        self.columns: list[Fraction | str] = [ONE]  # t(m), or the text it raises

    def __call__(self, m: int) -> Fraction:
        if m < 0:
            raise ValueError(f"{'rising' if self.q is None else 'q-rising'} factorial needs m >= 0")
        while len(self.columns) <= m:
            self._extend()
        value = self.columns[m]
        if isinstance(value, str):
            raise DivisionByZero(value)
        return value

    def _extend(self) -> None:
        """Append t(i + 1) = t(i) * ratio(i) for the last column i."""
        i = len(self.columns) - 1
        un, ud, ln, ld, zn, zd = self.products
        upper, lower = _factor_pair(self.upper, i, self.q), _factor_pair(self.lower, i, self.q)
        un, ud, ln, ld = un * upper[0], ud * upper[1], ln * lower[0], ld * lower[1]
        zn, zd = zn * self.z.numerator, zd * self.z.denominator
        self.products = (un, ud, ln, ld, zn, zd)
        if ln == 0:
            self.columns.append(f"division of {format_rational(Fraction(un, ud))} by zero")
        else:
            self.columns.append(Fraction(un * ld * zn, ud * ln * zd))


def linear_factors(xs: Sequence[Fraction], z: Fraction, k: int,
                   q: Fraction | None = None) -> Fraction:
    """z * prod_x (x + k), or z * prod_x (1 - x q^k) when a base q is given."""
    num, den = _factor_pair(xs, k, q)
    return Fraction(z.numerator * num, z.denominator * den)


def factorial(m: int) -> Fraction:
    return rising_factorial(ONE, m)


@dataclass(frozen=True)
class Param:
    name: str
    kind: str = "rational"  # rational | q | int | sequence
    int_range: tuple[int, int] = (0, 5)


@dataclass(frozen=True)
class IdentityDef:
    key: str
    citation: str
    params: tuple[Param, ...]
    term: Callable[[int, int, Params], Fraction]
    rhs: Callable[[int, Params], Fraction]
    sum_range: Callable[[int], tuple[int, int]] = lambda n: (0, n)
    certificate: Certificate | None = None
    n_max: int = 15

    @property
    def terminating(self) -> bool:
        """A certified sum terminates: its summand vanishes for k > n."""
        return self.certificate is not None


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

def draw_params(params: Sequence[Param], rng: random.Random, length: int) -> dict[str, object]:
    """One draw for each declared parameter, in order; length is the length
    of a sequence parameter."""
    drawn: dict[str, object] = {}
    for p in params:
        if p.kind == "q":
            drawn[p.name] = sample_q(rng)
        elif p.kind == "int":
            drawn[p.name] = rng.randint(*p.int_range)
        elif p.kind == "sequence":
            drawn[p.name] = sample_sequence(rng, length)
        else:
            drawn[p.name] = sample_rational(rng)
    return drawn


def admissible(idef: IdentityDef, n_max: int, params: Params) -> bool:
    """Probe every denominator the suites will touch; False on any zero.

    Covers the summand over the summation range (plus TERMINATION_OVERSHOOT
    columns for terminating sums), the right side up to n_max + 1, and, when a
    certificate is present: F's normalization (rhs != 0), w(n, 0) != 0, and
    v(n, k) != 0 for 1 <= k <= n + 1.  The probed values stay in the sample
    memo, where the checks of an accepted sample find them.
    """
    overshoot = TERMINATION_OVERSHOOT if idef.terminating else 0
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
                u, v = sample_value.row(cert.u, n, params), sample_value.row(cert.v, n, params)
                if u[0] - v[0] == 0:
                    return False
                u[n + 1]
                for k in range(1, n + 2):
                    if v[k] == 0:
                        return False
        return True
    except (Inadmissible, ZeroDivisionError):
        return False


def draw_admissible(idef: IdentityDef, rng: random.Random, n_max: int) -> dict[str, object]:
    def attempt() -> dict[str, object] | None:
        params = draw_params(idef.params, rng, n_max + 2)
        return params if admissible(idef, n_max, params) else None

    return retry(attempt, f"{idef.key}: no admissible sample in {RETRY_BOUND} tries")


# ---------------------------------------------------------------------------
# Sums without a certificate
# ---------------------------------------------------------------------------

def _geometric() -> IdentityDef:
    def term(n, k, p):
        return rat_pow(p["x"], k)

    def rhs(n, p):
        return rat_div(rat_pow(p["x"], n + 1) - 1, p["x"] - 1)

    return IdentityDef(
        key="geometric",
        citation="geometric series partial sum",
        params=(Param("x"),),  # x != 1
        term=term, rhs=rhs,
    )


def _rising_fact_sum() -> IdentityDef:
    def term(n, k, p):
        return rising_factorial(Fraction(k), p["m"])

    def rhs(n, p):
        return rising_factorial(Fraction(n), p["m"] + 1) / (p["m"] + 1)

    return IdentityDef(
        key="rising_fact_sum",
        citation="sum of rising factorials k(k+1)...(k+m-1)",
        params=(Param("m", kind="int", int_range=(0, 5)),),
        term=term, rhs=rhs, sum_range=lambda n: (1, n),
    )


def _reciprocal_rising_fact_sum() -> IdentityDef:
    def term(n, k, p):
        return rat_div(ONE, rising_factorial(Fraction(k), p["m"] + 1))

    def rhs(n, p):
        m = p["m"]
        return Fraction(1, m) * (rat_div(ONE, factorial(m)) - rat_div(ONE, rising_factorial(Fraction(n + 1), m)))

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
        num = prod_range(lambda j: a(p, j), 1, k)
        return rat_div(num, prod_range(lambda j: x + a(p, j), 1, k + 1))

    def rhs(n, p):
        x = p["x"]
        num = prod_range(lambda j: a(p, j), 1, n + 1)
        den = x * prod_range(lambda j: x + a(p, j), 1, n + 1)
        return rat_div(ONE, x) - rat_div(num, den)

    return IdentityDef(
        key="ramanujan_entry25",
        citation="Ramanujan's Notebooks, Vol. 4, Entry 25",
        params=(Param("x"), Param("a", kind="sequence")),
        term=term, rhs=rhs,
    )


# ---------------------------------------------------------------------------
# Certified sums, declared as data
# ---------------------------------------------------------------------------

def _well_poised_head(k: int, p: Params) -> Fraction:
    """The very-well-poised head (1 - a q^(2k))/(1 - a), which depends on k alone."""
    return rat_div(1 - p["a"] * rat_pow(p["q"], 2 * k), 1 - p["a"])


def _certified(key: str, citation: str, params: tuple[Param, ...], summand: Series,
               closed_form: Series, u: Factors, v: Factors, well_poised: bool = False,
               n_max: int = 15) -> IdentityDef:
    """sum_{k=0}^{n} term(n, k) = rhs(n), with both sides and the certificate
    declared as data.

    summand(n, **params) gives the (upper, lower, z) of the ``_TermRow`` whose
    column k is term(n, k), and closed_form(**params) those of the one
    closed-form row, whose column n is rhs(n).  A very-well-poised summand
    also carries the head (1 - a q^(2k))/(1 - a).  u(n, **params) and
    v(n, **params) give the (factors, z) of one ``linear_factors`` product,
    taken at k.

    Each row n of the summand, the closed-form row, the head at each k, and
    each row's certificate lists are built once per sample in the sample memo.
    """

    def row(n: int, p: Params) -> _TermRow:
        return _TermRow(*summand(n, **p), p.get("q"))

    def term(n: int, k: int, p: Params) -> Fraction:
        if not well_poised:
            return sample_value(row, n, p)(k)
        head = sample_value(_well_poised_head, k, p)  # raises before the row does
        return head * sample_value(row, n, p)(k)

    def closed_row(p: Params) -> _TermRow:
        return _TermRow(*closed_form(**p), p.get("q"))

    def rhs(n: int, p: Params) -> Fraction:
        return sample_value(closed_row, p)(n)

    def at_k(factors: Factors) -> CertFn:
        def lists(n: int, p: Params) -> tuple[Sequence[Fraction], Fraction]:
            return factors(n, **p)

        return lambda n, k, p: linear_factors(*sample_value(lists, n, p), k, p.get("q"))

    return IdentityDef(key=key, citation=citation, params=params, term=term, rhs=rhs,
                       certificate=Certificate(at_k(u), at_k(v)), n_max=n_max)


_CERTIFIED = (
    # classical hypergeometric sums: u and v are products of (x + k)
    _certified(
        "binomial_x1", "row sums of Pascal's triangle (binomial theorem at x = 1)", (),
        summand=lambda n: ([-n], [1], -1),
        closed_form=lambda: ([], [], 2),
        u=lambda n: ([-n - 1], -1),
        v=lambda n: ([0], 1),
    ),
    _certified(
        "binomial", "binomial theorem (terminating form)", (Param("x"),),  # x != 0, -1
        summand=lambda n, x: ([-n], [1], -x),
        closed_form=lambda x: ([], [], 1 + x),
        u=lambda n, x: ([-n - 1], -x),
        v=lambda n, x: ([0], 1),
    ),
    _certified(
        "chu_vandermonde", "Chu (1303)-Vandermonde (1772) sum", (Param("a"), Param("b")),
        summand=lambda n, a, b: ([a, -n], [b, 1], 1),
        closed_form=lambda a, b: ([b - a], [b], 1),
        u=lambda n, a, b: ([a, -n - 1], 1),
        v=lambda n, a, b: ([0, b - 1], 1),
    ),
    _certified(
        "pfaff_saalschutz", "Pfaff (1797)-Saalschutz (1890) sum",
        (Param("a"), Param("b"), Param("c")),
        summand=lambda n, a, b, c: ([a, b, -n], [c, 1 - n + a + b - c, 1], 1),
        closed_form=lambda a, b, c: ([c - a, c - b], [c, c - a - b], 1),
        u=lambda n, a, b, c: ([a, b, -n - 1], 1),
        v=lambda n, a, b, c: ([0, c - 1, a + b - c - n], 1),
    ),
    # q-hypergeometric sums: u and v are products of (1 - x q^k)
    _certified(
        "q_binomial", "terminating q-binomial sum", (Param("z"), Param("q", kind="q")),
        summand=lambda n, z, q: ([rat_pow(q, -n)], [q], z * rat_pow(q, n)),
        closed_form=lambda z, q: ([z], [], 1),
        u=lambda n, z, q: ([rat_pow(q, -n - 1)], z * rat_pow(q, n)),
        v=lambda n, z, q: ([1], 1),
        n_max=12,
    ),
    _certified(
        "q_chu_vandermonde", "a q-analog of the Chu-Vandermonde sum",
        (Param("a"), Param("b"), Param("q", kind="q")),
        summand=lambda n, a, b, q: ([a, rat_pow(q, -n)], [b, q], rat_div(b * rat_pow(q, n), a)),
        closed_form=lambda a, b, q: ([rat_div(b, a)], [b], 1),
        u=lambda n, a, b, q: ([a, rat_pow(q, -n - 1)], rat_div(b * rat_pow(q, n), a)),
        v=lambda n, a, b, q: ([rat_div(b, q), 1], 1),
        n_max=12,
    ),
    _certified(
        "q_pfaff_saalschutz", "q-Pfaff-Saalschutz sum (Jackson, 1910)",
        (Param("a"), Param("b"), Param("c"), Param("q", kind="q")),
        summand=lambda n, a, b, c, q: (
            [a, b, rat_pow(q, -n)], [c, rat_div(a * b * rat_pow(q, 1 - n), c), q], q),
        closed_form=lambda a, b, c, q: (
            [rat_div(c, a), rat_div(c, b)], [c, rat_div(c, a * b)], 1),
        u=lambda n, a, b, c, q: ([a, b, rat_pow(q, -n - 1)], 1),
        v=lambda n, a, b, c, q: ([rat_div(c, q), rat_div(a * b * rat_pow(q, -n), c), 1], 1),
        n_max=12,
    ),
    _certified(
        "q_dougall",
        "q-Dougall sum (Jackson, 1921): terminating balanced very-well-poised 8phi7",
        (Param("a"), Param("b"), Param("c"), Param("d"), Param("q", kind="q")),
        summand=lambda n, a, b, c, d, q: (
            [a, b, c, d, rat_div(a * a * rat_pow(q, n + 1), b * c * d), rat_pow(q, -n)],
            [rat_div(a * q, b), rat_div(a * q, c), rat_div(a * q, d),
             rat_div(b * c * d * rat_pow(q, -n), a), a * rat_pow(q, n + 1), q],
            q),
        closed_form=lambda a, b, c, d, q: (
            [a * q, rat_div(a * q, b * c), rat_div(a * q, b * d), rat_div(a * q, c * d)],
            [rat_div(a * q, b), rat_div(a * q, c), rat_div(a * q, d), rat_div(a * q, b * c * d)],
            1),
        u=lambda n, a, b, c, d, q: (
            [a, b, c, d, rat_div(a * a * rat_pow(q, n + 1), b * c * d), rat_pow(q, -n - 1)], 1),
        v=lambda n, a, b, c, d, q: (
            [rat_div(a, b), rat_div(a, c), rat_div(a, d),
             rat_div(b * c * d * rat_pow(q, -n - 1), a), a * rat_pow(q, n + 1), 1], 1),
        well_poised=True, n_max=8,
    ),
    # The d-free reduction of the 8phi7 certificate, with the n-dependent
    # argument aq^(n+1)/bc attached to u the same way bq^n/a is in the
    # q-Chu-Vandermonde certificate.  Validated by the full check sweep.
    _certified(
        "rogers_6phi5", "Rogers' terminating very-well-poised 6phi5 sum",
        (Param("a"), Param("b"), Param("c"), Param("q", kind="q")),
        summand=lambda n, a, b, c, q: (
            [a, b, c, rat_pow(q, -n)],
            [rat_div(a * q, b), rat_div(a * q, c), a * rat_pow(q, n + 1), q],
            rat_div(a * rat_pow(q, n + 1), b * c)),
        closed_form=lambda a, b, c, q: (
            [a * q, rat_div(a * q, b * c)], [rat_div(a * q, b), rat_div(a * q, c)], 1),
        u=lambda n, a, b, c, q: (
            [a, b, c, rat_pow(q, -n - 1)], rat_div(a * rat_pow(q, n + 1), b * c)),
        v=lambda n, a, b, c, q: ([rat_div(a, b), rat_div(a, c), a * rat_pow(q, n + 1), 1], 1),
        well_poised=True, n_max=12,
    ),
)

CORPUS: dict[str, IdentityDef] = {
    idef.key: idef
    for idef in (
        _geometric(),
        _rising_fact_sum(),
        _reciprocal_rising_fact_sum(),
        _ramanujan_entry25(),
        *_CERTIFIED,
    )
}

#: Identities shipping with a telescoping certificate (the "ez" suite).
CERTIFIED_KEYS = tuple(k for k, v in CORPUS.items() if v.certificate is not None)
