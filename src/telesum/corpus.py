"""The built-in identity corpus.

Each entry is an IdentityDef: a summand evaluator term(n, k, params), a
closed-form right side rhs(n, params), parameter declarations with
admissibility handled by an evaluation probe, and, for the terminating
hypergeometric and q-hypergeometric sums, the telescoping certificate
(u(n,k), v(n,k)) of the classical proofs.

The nine certified sums are declared as data, one ``Declaration`` record
each in the table ``DECLARED``, in the rphis notation of Gasper and
Rahman, by the (upper; lower; argument) lists of one term

    t(m) = prod (x)_m / prod (y)_m * z^m

with q-shifted factorials (x; q)_m for the q-sums.  A summand's row n is
such a term read at m = k, and its closed form is the one closed-form row
read at m = n.  Their certificates are declared the same way, as the
(factors; argument) lists of a product of linear factors

    z * prod (x + k)          (classical sums)
    z * prod (1 - x q^k)      (q-sums)

A record's ``identity`` builds its IdentityDef; these lists live nowhere
else, so a test reads and changes them on the record (``_replace``).
Both forms rest on one per-index factor, prod (x + k) or prod (1 - x q^k),
written once in ``_factor_pair``, which ``_TermRow``, the u and v rows and
the very-well-poised head share.  It takes q^k as an integer pair from the
sample's one row of powers, of ``_q_power`` cells (the heads are one row of
``_head`` cells), so each q^k a certified sample reads is computed once.

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
    parameter is drawn by ``draw_params``, as a ``Point``; both live in
    ``point``, with ``Param``, and are re-exported here.

Summands, closed forms and certificate values are held by the drawn point,
read through ``point.sample_value``: a certified summand's row n and its
closed-form row are each one ``_TermRow``, and rhs(n) is column n of the
closed-form row.  Each row n of u and v is one ``Row`` of integer pairs.
The four sums without a certificate have summands free of n: each column
is one cell(k), held in one row per sample that is every row n
(``_n_free``); each closed form is one row per sample too.
Ramanujan's Entry 25 is the lemma at u_j = a_j, v_j = x + a_j: its cells
and closed form read the lemma's running products, one row per sample
(``_entry25_products``).  The other cells are x^k, (k)_m and 1/(k)_(m+1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

from .certify import (TERMINATION_OVERSHOOT, CertFn, Certificate, NormalizedIdentity,
                      Quotient, by_row)
from .errors import Inadmissible
from .point import Param, Point, Row, draw_params, sample_value
from .rational import (ONE, ZERO, IntPair, as_pair, pair_div, pair_mul, pair_pow, rat_div, rat_pow,
                       zero_divisor)
from .sampling import RETRY_BOUND, retry

Params = Mapping[str, object]
#: (upper, lower, z) of one ``_TermRow``: a function of the parameters by
#: name, and of n first for a summand.
Series = Callable[..., tuple[Sequence[Fraction], Sequence[Fraction], Fraction]]
#: (factors, z) of one certificate product z * prod (x + k), or
#: z * prod (1 - x q^k), as a function of n and the parameters by name.
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


def _q_power(k: int, p: Params) -> IntPair | None:
    """q^k as an integer pair (r, s), or None without a base q: a cell of the
    sample's one row of powers, ``sample_value.row(_q_power, p)``, which a
    certified sample's term ratios, closed form, u, v and heads read."""
    q = p.get("q")
    return None if q is None else pair_pow(as_pair(q), k)


def _factor_pair(xs: Sequence[Fraction], k: int,
                 qk: tuple[int, int] | None = None) -> tuple[int, int]:
    """prod_x (x + k), or prod_x (1 - x q^k) when the pair qk = (r, s) of
    q^k is given, as an unreduced integer pair (num, den), den != 0.

    With x = p/d and q^k = r/s a factor is (p + k d)/d, or (d s - p r)/(d s).
    """
    num = den = 1
    if qk is None:
        for x in xs:
            d = x.denominator
            num *= x.numerator + k * d
            den *= d
        return num, den
    r, s = qk
    for x in xs:
        d = x.denominator
        num *= d * s - x.numerator * r
        den *= d * s
    return num, den


class _TermRow:
    """The columns t(m) = prod_x (x)_m / prod_y (y)_m * z^m, m = 0, 1, ...,
    of one term over x in upper and y in lower, where (x)_m is the q-shifted
    factorial (x; q)_m when the sample's powers row (of ``_q_power``) holds q^m,
    read as row[m] (a summand's row in the point's table).  They are
    grown on demand by the term ratio

        t(m+1) / t(m) = z * prod_x (x + m) / prod_y (y + m),
        or z * prod_x (1 - x q^m) / prod_y (1 - y q^m) with a base q,

    with the running upper product and the running t(m) kept as unreduced
    integer pairs, so each step multiplies one index's factors into them,
    each column is one Fraction, and reading columns 0..m costs O(m)
    factors, not O(m^2).  A very-well-poised summand also gets the sample's
    row of heads (of ``_head``), multiplied into each column it appends; the
    head raises before the row does.  A zero lower product raises
    DivisionByZero, even where an upper factor vanishes too: from the first
    vanishing lower factor on, every column raises ``rational.zero_divisor``
    of the upper product at that column.  That product is kept as a pair,
    never the exception.
    """

    def __init__(self, upper: Sequence[Fraction], lower: Sequence[Fraction], z: Fraction,
                 powers: Row, heads: Row | None = None) -> None:
        self.upper, self.lower, self.z, self.powers, self.heads = upper, lower, z, powers, heads
        self.products = (1, 1, 1, 1)  # the upper product and t(m) as (num, den) pairs
        self.columns: list[Fraction | tuple[int, int]] = [ONE]  # t(m), or the pair it divides

    def __getitem__(self, m: int) -> Fraction:
        if self.heads is not None:
            self.heads[m]  # the head raises before the row does
        if m < 0:
            kind = "rising" if self.powers[0] is None else "q-rising"
            raise ValueError(f"{kind} factorial needs m >= 0")
        while len(self.columns) <= m:
            self._extend()
        value = self.columns[m]
        if isinstance(value, tuple):
            raise zero_divisor(Fraction(*value))
        return value

    def _extend(self) -> None:
        """Append t(i + 1) = t(i) * ratio(i), times the head at i + 1, for the
        last column i."""
        i = len(self.columns) - 1
        un, ud, tn, td = self.products
        qk = self.powers[i]
        (a, b), (c, d) = _factor_pair(self.upper, i, qk), _factor_pair(self.lower, i, qk)
        un, ud = un * a, ud * b
        tn, td = tn * a * d * self.z.numerator, td * b * c * self.z.denominator
        self.products = (un, ud, tn, td)
        if td and self.heads is not None:
            hn, hd = self.heads[i + 1]
            tn, td = tn * hn, td * hd
        # td is 0 from the first vanishing lower factor on
        self.columns.append((un, ud) if td == 0 else Fraction(tn, td))


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
    row = sample_value.row(idef.term, n, params)
    return sum((row[k] for k in range(lo, hi + 1)), ZERO), sample_value.row(idef.rhs, params)[n]


def normalized(idef: IdentityDef) -> NormalizedIdentity:
    """The identity divided through by its right side: sum_k F(n, k) = 1,
    with F = term/rhs a ``certify.Quotient``."""
    return NormalizedIdentity(key=idef.key, F=Quotient(idef.term, idef.rhs),
                              certificate=idef.certificate, citation=idef.citation)


# ---------------------------------------------------------------------------
# Admissible sampling
# ---------------------------------------------------------------------------

def admissible(idef: IdentityDef, n_max: int, params: Params) -> bool:
    """Probe every denominator the suites will touch; False on any zero.

    Covers the summand over the summation range (plus TERMINATION_OVERSHOOT
    columns for terminating sums), the right side up to n_max + 1, and, when a
    certificate is present: F's normalization (rhs != 0), w(n, 0) != 0, and
    v(n, k) != 0 for 1 <= k <= n + 1.  The probed values stay in the point.
    """
    overshoot = TERMINATION_OVERSHOOT if idef.terminating else 0
    try:
        rhs = sample_value.row(idef.rhs, params)
        for n in range(n_max + 2):
            r = rhs[n]
            if idef.certificate is not None and r == 0:
                return False
            lo, hi = idef.sum_range(n)
            row = sample_value.row(idef.term, n, params)
            for k in range(lo, hi + 1 + overshoot):
                row[k]
        if idef.certificate is not None:
            cert = idef.certificate
            for n in range(n_max + 1):
                u, v = sample_value.row(cert.u, n, params), sample_value.row(cert.v, n, params)
                (a, b), (c, d) = as_pair(u[0]), as_pair(v[0])
                if a * d == c * b:
                    return False
                u[n + 1]
                for k in range(1, n + 2):
                    if as_pair(v[k])[0] == 0:
                        return False
        return True
    except (Inadmissible, ZeroDivisionError):
        return False


def draw_admissible(idef: IdentityDef, rng: random.Random, n_max: int) -> Point:
    def attempt() -> Point | None:
        params = draw_params(idef.params, rng, n_max + 2)
        return params if admissible(idef, n_max, params) else None

    return retry(attempt, f"{idef.key}: no admissible sample in {RETRY_BOUND} tries")


# ---------------------------------------------------------------------------
# Certified sums, declared as data
# ---------------------------------------------------------------------------

def _head(k: int, p: Params) -> IntPair:
    """The very-well-poised head (1 - a q^(2k))/(1 - a) as an integer pair
    over the sample's powers row: a cell of the sample's one row of heads,
    ``sample_value.row(_head, p)``.  It raises when a = 1."""
    a, powers = [p["a"]], sample_value.row(_q_power, p)
    return pair_div(_factor_pair(a, 2 * k, powers[2 * k]), _factor_pair(a, 0, powers[0]))


class Declaration(NamedTuple):
    """sum_{k=0}^{n} term(n, k) = rhs(n), with both sides and the certificate
    declared as data.

    summand(n, **params) gives the (upper, lower, z) of the ``_TermRow`` whose
    column k is term(n, k), and closed_form(**params) those of the one
    closed-form row, whose column n is rhs(n).  A very-well-poised summand
    also carries the head (1 - a q^(2k))/(1 - a).  u(n, **params) and
    v(n, **params) give the (factors, z) of the product z * prod (x + k), or
    z * prod (1 - x q^k), taken at k.  ``identity`` builds the sum's
    IdentityDef.
    """

    key: str
    citation: str
    params: tuple[Param, ...]
    summand: Series
    closed_form: Series
    u: Factors
    v: Factors
    well_poised: bool = False
    n_max: int = 15

    def identity(self) -> IdentityDef:
        """The IdentityDef that reads this declaration.

        Each row n of the summand, the closed-form row, the heads, the
        powers of q and each row n of u and v are one entry of the point's
        table, built by ``SampleMemo.row``: a summand or closed-form row is a
        ``_TermRow``, and the others are ``Row``s of integer pairs
        (num, den), of the cells ``_q_power`` and ``_head`` for the powers
        and the heads.  term, rhs, u and v are ``by_row`` functions: rhs(n)
        reads column n of the one closed-form row, and a direct call of u or
        v returns its pair as a Fraction.
        """

        def columns(n: int, p: Params) -> _TermRow:
            heads = sample_value.row(_head, p) if self.well_poised else None
            return _TermRow(*self.summand(n, **p), sample_value.row(_q_power, p), heads)

        def closed_row(p: Params) -> _TermRow:
            return _TermRow(*self.closed_form(**p), sample_value.row(_q_power, p))

        def at_k(factors: Factors) -> CertFn:
            def pairs(n: int, p: Params) -> Row:
                xs, z = factors(n, **p)
                z, powers = as_pair(z), sample_value.row(_q_power, p)
                return Row(lambda k: pair_mul(z, _factor_pair(xs, k, powers[k])))

            return by_row(pairs)

        return IdentityDef(key=self.key, citation=self.citation, params=self.params,
                           term=by_row(columns), rhs=by_row(closed_row),
                           certificate=Certificate(at_k(self.u), at_k(self.v)),
                           n_max=self.n_max)


#: The nine certified sums by key, each declared once.
DECLARED: dict[str, Declaration] = {decl.key: decl for decl in (
    # classical hypergeometric sums: u and v are products of (x + k)
    Declaration(
        "binomial_x1", "row sums of Pascal's triangle (binomial theorem at x = 1)", (),
        summand=lambda n: ([-n], [1], -1),
        closed_form=lambda: ([], [], 2),
        u=lambda n: ([-n - 1], -1),
        v=lambda n: ([0], 1),
    ),
    Declaration(
        "binomial", "binomial theorem (terminating form)", (Param("x"),),  # x != 0, -1
        summand=lambda n, x: ([-n], [1], -x),
        closed_form=lambda x: ([], [], 1 + x),
        u=lambda n, x: ([-n - 1], -x),
        v=lambda n, x: ([0], 1),
    ),
    Declaration(
        "chu_vandermonde", "Chu (1303)-Vandermonde (1772) sum", (Param("a"), Param("b")),
        summand=lambda n, a, b: ([a, -n], [b, 1], 1),
        closed_form=lambda a, b: ([b - a], [b], 1),
        u=lambda n, a, b: ([a, -n - 1], 1),
        v=lambda n, a, b: ([0, b - 1], 1),
    ),
    Declaration(
        "pfaff_saalschutz", "Pfaff (1797)-Saalschutz (1890) sum",
        (Param("a"), Param("b"), Param("c")),
        summand=lambda n, a, b, c: ([a, b, -n], [c, 1 - n + a + b - c, 1], 1),
        closed_form=lambda a, b, c: ([c - a, c - b], [c, c - a - b], 1),
        u=lambda n, a, b, c: ([a, b, -n - 1], 1),
        v=lambda n, a, b, c: ([0, c - 1, a + b - c - n], 1),
    ),
    # q-hypergeometric sums: u and v are products of (1 - x q^k)
    Declaration(
        "q_binomial", "terminating q-binomial sum", (Param("z"), Param("q", kind="q")),
        summand=lambda n, z, q: ([rat_pow(q, -n)], [q], z * rat_pow(q, n)),
        closed_form=lambda z, q: ([z], [], 1),
        u=lambda n, z, q: ([rat_pow(q, -n - 1)], z * rat_pow(q, n)),
        v=lambda n, z, q: ([1], 1),
        n_max=12,
    ),
    Declaration(
        "q_chu_vandermonde", "a q-analog of the Chu-Vandermonde sum",
        (Param("a"), Param("b"), Param("q", kind="q")),
        summand=lambda n, a, b, q: ([a, rat_pow(q, -n)], [b, q], rat_div(b * rat_pow(q, n), a)),
        closed_form=lambda a, b, q: ([rat_div(b, a)], [b], 1),
        u=lambda n, a, b, q: ([a, rat_pow(q, -n - 1)], rat_div(b * rat_pow(q, n), a)),
        v=lambda n, a, b, q: ([rat_div(b, q), 1], 1),
        n_max=12,
    ),
    Declaration(
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
    Declaration(
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
    Declaration(
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
)}


# ---------------------------------------------------------------------------
# Sums without a certificate, whose summands do not depend on n
# ---------------------------------------------------------------------------

def _n_free(cell: Callable[[int, Params], Fraction]) -> CertFn:
    """term(n, k) = cell(k, params), read through one ``Row`` per sample that
    is every row n, so each column is evaluated and held once per sample."""
    return by_row(lambda n, p: sample_value.row(cell, p))


def _entry25_products(p: Params) -> Callable[[int], tuple[IntPair, IntPair]]:
    """(U_j, V_j) = (a_1 ... a_j, (x + a_1) ... (x + a_j)), j = 0, 1, ..., as
    unreduced integer pairs, each computed at its first index; a is indexed
    lazily, so reading past its end raises."""
    x, a = p["x"], p["a"]
    products = [((1, 1), (1, 1))]

    def at(j: int) -> tuple[IntPair, IntPair]:
        while len(products) <= j:
            aj = a[len(products) - 1]
            u, v = products[-1]
            products.append((pair_mul(u, as_pair(aj)), pair_mul(v, as_pair(x + aj))))
        return products[j]

    return at


def _entry25_term(k: int, p: Params) -> Fraction:
    """U_k / V_(k+1), the lemma's summand k + 1 at u_0 = 1, v_0 = 1 + x."""
    at = sample_value(_entry25_products, p)
    (u, _), (_, v) = at(k), at(k + 1)
    return Fraction(*pair_div(u, v))


def _entry25_rhs(n: int, p: Params) -> Fraction:
    """1/x - U_(n+1) / (x V_(n+1)), the lemma's sum to n + 1, less 1."""
    u, v = sample_value(_entry25_products, p)(n + 1)
    return rat_div(ONE, p["x"]) - Fraction(*pair_div(u, pair_mul(as_pair(p["x"]), v)))


_UNCERTIFIED = (
    IdentityDef(
        key="geometric", citation="geometric series partial sum",
        params=(Param("x"),),  # x != 1
        term=_n_free(lambda k, p: rat_pow(p["x"], k)),
        rhs=lambda n, p: rat_div(rat_pow(p["x"], n + 1) - 1, p["x"] - 1),
    ),
    IdentityDef(
        key="rising_fact_sum", citation="sum of rising factorials k(k+1)...(k+m-1)",
        params=(Param("m", kind="int", int_range=(0, 5)),),
        term=_n_free(lambda k, p: rising_factorial(Fraction(k), p["m"])),
        rhs=lambda n, p: rising_factorial(Fraction(n), p["m"] + 1) / (p["m"] + 1),
        sum_range=lambda n: (1, n),
    ),
    IdentityDef(
        key="reciprocal_rising_fact_sum", citation="sum of reciprocals 1/(k(k+1)...(k+m))",
        params=(Param("m", kind="int", int_range=(1, 5)),),
        term=_n_free(lambda k, p: rat_div(ONE, rising_factorial(Fraction(k), p["m"] + 1))),
        rhs=lambda n, p: Fraction(1, p["m"]) * (
            rat_div(ONE, rising_factorial(ONE, p["m"]))
            - rat_div(ONE, rising_factorial(Fraction(n + 1), p["m"]))),
        sum_range=lambda n: (1, n),
    ),
    IdentityDef(
        key="ramanujan_entry25", citation="Ramanujan's Notebooks, Vol. 4, Entry 25",
        params=(Param("x"), Param("a", kind="sequence")),  # a_j is a[j - 1]
        term=_n_free(_entry25_term), rhs=_entry25_rhs,
    ),
)

CORPUS: dict[str, IdentityDef] = {idef.key: idef for idef in (
    *_UNCERTIFIED, *(decl.identity() for decl in DECLARED.values()))}

#: Identities shipping with a telescoping certificate (the "ez" suite).
CERTIFIED_KEYS = tuple(k for k, v in CORPUS.items() if v.certificate is not None)
