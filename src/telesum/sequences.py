"""Three-term recurrences x_{n+2} = a_n x_{n+1} + b_n x_n and their identity suites.

Two layers:

  * the six identities satisfied by *every* sequence with nonzero
    coefficient sequences a, b (weighted prefix sum, even- and odd-index
    sums, squared-term sum, alternating sum, and a divided form), each
    Euler's telescoping lemma in term-ratio form, declared as one `GENERIC`
    record of its term ratio, closed-form part, summand part and
    normalization;

  * the built-in families (Fibonacci, Pell, shifted derangements, Schur's
    shifted q-Fibonacci numbers, q-Pell numbers, Goyt-Sagan and
    Goyt-Mathisen q-Fibonacci polynomials), each one `FAMILIES` record of
    its coefficients a_n, b_n (x_0 = 0, x_1 = 1 throughout) and its printed
    identities, checked verbatim, index shifts and all.

Everything is exact.  A family with parameters is checked at a few seeded
random rational samples of them (8 in the sequences suite by default),
each identity at every n <= n_max; a pass shows exact equality at those
points, not a proof for all parameter values.

The families are evaluated on ``rational.Pair``, an unreduced integer pair
that takes no gcd.  ``family_sides`` reads a draw's parameters once, as one
entry of the drawn ``point.Point``'s table: each rational parameter a Pair
that keeps its powers p^e and the prefix rows of the running products over
it ((a; q)_m with base q, the q-Pell halving product), so each is computed
once per draw.  The recurrence reduces each x_n once (one gcd per x, in
``generate`` too), and the printed terms and right sides, written once for
any exact operands, give Pairs.  The running sum S(n) is compared with
R(n) by cross-multiplying; once S(n) == R(n) has passed, the sum goes on
from R(n)'s pair, the same rational, so its parts do not grow with every
term.  A Fraction is built only for a public return value (``generate``,
``lucas_gen_sides``, the coefficients of ``Family.make``'s spec) or a
failing record's witness.  A constant coefficient is a plain int, so the
generic identities divide coefficients as Fractions, never int by int.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, gcd, prod
from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import Inadmissible
from .point import Param, draw_params, sample_value
from .rational import ONE, Exact, Pair, SeqFn, ZERO, prod_range_pair, rat_div, rat_pow
from .report import INADMISSIBLE, CheckRecord, outcome, record
from .sampling import require_size, retry, sample_rational, sample_sequence, sweep

Params = Mapping[str, object]
Values = Sequence[Exact]


class RecurrenceSpec(NamedTuple):
    """x_{n+2} = a_n x_{n+1} + b_n x_n with given x_0, x_1."""

    name: str
    a: SeqFn
    b: SeqFn
    x0: Fraction
    x1: Fraction


_ZERO = Pair(0)


def generate(spec: RecurrenceSpec, N: int) -> list[Fraction]:
    """x_0 .. x_N, exactly."""
    return _generate(spec.a, spec.b, spec.x0, spec.x1, N, Fraction)


def _reduced(num: int, den: int) -> Pair:
    """num/den in lowest terms, den > 0: one gcd."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return Pair(num // g, den // g)


def _generate(a: Callable[[int], Exact], b: Callable[[int], Exact], x0: Exact, x1: Exact,
              N: int, exact: Callable[[int, int], Exact]) -> list:
    """x_0 .. x_N of x_{n+2} = a(n) x_{n+1} + b(n) x_n, each made by one
    exact(num, den) call, which reduces it: a Fraction, or ``_reduced``'s
    Pair.  The recurrence runs on Pairs."""
    require_size("N", N)
    prev, cur = Pair.of(x0), Pair.of(x1)
    xs = [exact(prev.num, prev.den), exact(cur.num, cur.den)]
    for n in range(N - 1):
        x = cur * a(n) + prev * b(n)
        xs.append(exact(x.num, x.den))
        prev, cur = cur, Pair.of(xs[-1])
    return xs[: N + 1]


def _binom2(k: int) -> int:
    return k * (k - 1) // 2


def _partial_sums(k_start: int, n_max: int, term: Callable[[int], Exact],
                  rhs: Callable[[int], Exact], zero: Exact) -> list[tuple[int, Exact, Exact]]:
    """(n, sum_{k_start <= k <= n} term(k), rhs(n)) for n <= n_max, evaluating
    each term once, then rhs(n), in index order, the sum starting at zero.

    Where the sum equals rhs(n), it goes on from rhs(n)'s value, the same
    rational: a sum of Pairs then carries one right side's parts instead of
    the product of every term's denominator.
    """
    sides, lhs, k = [], zero, k_start
    for n in range(n_max + 1):
        while k <= n:
            lhs = lhs + term(k)
            k += 1
        r = rhs(n)
        if lhs == r:
            lhs = r
        sides.append((n, lhs, r))
    return sides


# ---------------------------------------------------------------------------
# The six generic identities
# ---------------------------------------------------------------------------

class Generic(NamedTuple):
    """sum_{k=1}^{n} c_k w_k / N = (c_n X_n - X_0) / N with c_k = g_1 ... g_k,
    because w_k = X_k - X_{k-1} / g_k is the recurrence.  N is the product
    of the x_i, i in `norm`, each required nonzero in that order."""

    g: Callable[[int, RecurrenceSpec], Fraction]
    X: Callable[[int, Values], Fraction]
    w: Callable[[int, Values, RecurrenceSpec], Fraction]
    norm: tuple[int, ...]


def _divided_ratio(k: int, s: RecurrenceSpec) -> Fraction:
    den = s.a(k - 1) * s.a(k) + s.b(k)
    if den == 0:
        raise Inadmissible(f"{s.name}: a_{k - 1} a_{k} + b_{k} = 0 at j = {k}")
    return Fraction(s.a(k - 1), den)


GENERIC: dict[int, Generic] = {
    1: Generic(lambda k, s: ONE / s.a(k), lambda k, x: x[k + 2],  # weighted prefix sum
               lambda k, x, s: s.b(k) * x[k], norm=(2,)),
    2: Generic(lambda k, s: ONE / s.b(2 * k - 1), lambda k, x: x[2 * k + 1],  # even-index
               lambda k, x, s: s.a(2 * k - 1) * x[2 * k], norm=(1,)),
    3: Generic(lambda k, s: ONE / s.b(2 * k), lambda k, x: x[2 * k + 2],  # odd-index
               lambda k, x, s: s.a(2 * k) * x[2 * k + 1], norm=(2,)),
    4: Generic(lambda k, s: ONE / s.b(k), lambda k, x: x[k + 1] * x[k + 2],  # squared-term
               lambda k, x, s: s.a(k) * x[k + 1] ** 2, norm=(2, 1)),
    5: Generic(lambda k, s: Fraction(-s.a(k), s.b(k)), lambda k, x: x[k + 1],  # alternating
               lambda k, x, s: x[k + 2] / s.a(k), norm=(1,)),
    6: Generic(_divided_ratio, lambda k, x: -x[k + 2],  # divided form
               lambda k, x, s: s.b(k - 1) * s.b(k) * x[k - 1] / s.a(k - 1), norm=(2,)),
}


def lucas_gen_sides(spec: RecurrenceSpec, which: int, n_max: int) -> list[tuple[int, Fraction, Fraction]]:
    """(n, LHS, RHS) for the selected generic identity, for every n <= n_max.

    which: 1 weighted prefix sum, 2 even-index sum, 3 odd-index sum,
    4 squared-term sum, 5 alternating sum, 6 divided form.  Raises
    Inadmissible (with the offending index) on zero denominators, before any sum.
    """
    if which not in GENERIC:
        raise ValueError("which must be 1..6")
    require_size("n_max", n_max)
    gen = GENERIC[which]
    xs = generate(spec, 2 * n_max + 2)
    for i in gen.norm:
        if xs[i] == 0:
            raise Inadmissible(f"{spec.name}: x_{i} = 0")
    for j in range(2 * n_max + 1):
        if spec.a(j) == 0 or spec.b(j) == 0:
            raise Inadmissible(f"{spec.name}: coefficient at index {j} is 0")
    c = [ONE]  # c_k = g_1 ... g_k
    for k in range(1, n_max + 1):
        c.append(c[-1] * gen.g(k, spec))
    N, X0 = prod(xs[i] for i in gen.norm), gen.X(0, xs)
    return _partial_sums(1, n_max, lambda k: c[k] * gen.w(k, xs, spec) / N,
                         lambda n: (c[n] * gen.X(n, xs) - X0) / N, ZERO)


def verify_lucas_gen(spec: RecurrenceSpec, which: int, n_max: int,
                     sample: int | None = None, citation: str = "") -> list[CheckRecord]:
    identity = f"{spec.name}/generic_{which}"
    try:
        sides = lucas_gen_sides(spec, which, n_max)
    except Inadmissible as exc:
        return [record("sequences", identity, "identity", citation, INADMISSIBLE, sample=sample,
                       reason=str(exc))]
    return [outcome("sequences", identity, "identity", citation, lhs == rhs, n=n, sample=sample,
                    lhs=lhs, rhs=rhs) for n, lhs, rhs in sides]


# ---------------------------------------------------------------------------
# Built-in families and their printed identity suites
# ---------------------------------------------------------------------------

class PrintedIdentity(NamedTuple):
    """term(k, xs, p) and rhs(n, xs, p), written once for any exact operands:
    Fractions give Fractions, and the Pairs of ``family_sides`` give Pairs."""

    name: str
    term: Callable[[int, Values, Params], Exact]
    rhs: Callable[[int, Values, Params], Exact]
    k_start: int = 1


class Family(NamedTuple):
    """x_{n+2} = a(n, p) x_{n+1} + b(n, p) x_n with x_0 = 0, x_1 = 1, at
    parameters p drawn from `params`, and its printed identities.

    a and b are written for any exact operands, like the printed
    identities; a constant coefficient is a plain int, so ``family_sides``
    builds no Fraction for it."""

    key: str
    citation: str
    params: tuple[Param, ...]
    a: Callable[[int, Params], Exact]
    b: Callable[[int, Params], Exact]
    printed: tuple[PrintedIdentity, ...]

    def make(self, p: Params) -> RecurrenceSpec:
        """The family's recurrence at parameters p, its coefficients Fractions."""
        return RecurrenceSpec(self.key, lambda n: Fraction(self.a(n, p)),
                              lambda n: Fraction(self.b(n, p)), ZERO, ONE)


class _Param(Pair):
    """One rational parameter of a draw, as a Pair that keeps its powers and
    the rows of running products over it, so each is computed once in the
    draw.  Arithmetic on it gives plain Pairs."""

    __slots__ = ("powers", "rows")

    def __init__(self, x: Fraction) -> None:
        super().__init__(x.numerator, x.denominator)
        self.powers: dict[int, Pair] = {}
        self.rows: dict[object, list[Exact]] = {}

    def __pow__(self, e: int) -> Pair:
        power = self.powers.get(e)
        if power is None:
            power = self.powers[e] = Pair.__pow__(self, e)
        return power


def _exact_params(params: Params) -> dict[str, object]:
    """params with each rational a ``_Param``: one entry of the point's table."""
    return {name: _Param(value) if isinstance(value, Fraction) else value
            for name, value in params.items()}


def _running_product(q: _Param, key: object, factor: Callable[[int], Exact], m: int) -> Exact:
    """factor(1) * ... * factor(m), from the row of prefix products that q
    keeps under key, extended one factor at a time.  A factor that raises
    leaves the row as it was, so it raises again, with the same message, at
    every call that needs it."""
    row = q.rows.get(key)
    if row is None:
        row = q.rows[key] = [1]
    while len(row) <= m:
        row.append(row[-1] * factor(len(row)))
    return row[m]


def _qrf(a: Exact, q: Exact, m: int) -> Exact:
    """(a; q)_m; over a draw's base q its prefix row is kept per value of a."""
    if not isinstance(q, _Param):
        return Fraction(*prod_range_pair(lambda i: 1 - a * q ** (i - 1), 1, m))
    return _running_product(q, (a.num, a.den), lambda i: 1 - a * q ** (i - 1), m)


def _fibonacci_printed() -> tuple[PrintedIdentity, ...]:
    return (
        PrintedIdentity("prefix_sum",
                        lambda k, xs, p: xs[k],
                        lambda n, xs, p: xs[n + 2] - 1),
        PrintedIdentity("even_sum",
                        lambda k, xs, p: xs[2 * k],
                        lambda n, xs, p: xs[2 * n + 1] - 1),
        PrintedIdentity("odd_sum",
                        lambda k, xs, p: xs[2 * k - 1],
                        lambda n, xs, p: xs[2 * n]),
        PrintedIdentity("square_sum",
                        lambda k, xs, p: xs[k] ** 2,
                        lambda n, xs, p: xs[n] * xs[n + 1]),
        PrintedIdentity("alternating_sum",
                        lambda k, xs, p: (-1) ** (k + 1) * xs[k + 1],
                        lambda n, xs, p: (-1) ** (n + 1) * xs[n]),
        PrintedIdentity("halving_sum",
                        lambda k, xs, p: xs[k - 1] / 2 ** k,
                        lambda n, xs, p: 1 - rat_div(xs[n + 2], 2 ** n)),
    )


def _derangement_printed() -> tuple[PrintedIdentity, ...]:
    def odd_fact(j: int) -> int:  # 1 * 3 * ... * (2j - 1)
        return prod(range(1, 2 * j, 2))

    def even_fact(j: int) -> int:  # 2 * 4 * ... * (2j)
        return 2 ** j * factorial(j)

    return (
        PrintedIdentity("prefix_sum",
                        lambda k, xs, p: xs[k] / factorial(k + 1),
                        lambda n, xs, p: xs[n + 2] / factorial(n + 2) - 1),
        PrintedIdentity("even_sum",
                        lambda k, xs, p: xs[2 * k] / odd_fact(k),
                        lambda n, xs, p: xs[2 * n + 1] / odd_fact(n + 1) - 1),
        PrintedIdentity("odd_sum",
                        lambda k, xs, p: xs[2 * k + 1] / even_fact(k),
                        lambda n, xs, p: xs[2 * n + 2] / even_fact(n + 1) - 1),
        PrintedIdentity("square_sum",
                        lambda k, xs, p: xs[k + 1] ** 2 / factorial(k + 1),
                        lambda n, xs, p: xs[n + 1] * xs[n + 2] / factorial(n + 2) - 1),
        PrintedIdentity("alternating_sum",
                        lambda k, xs, p: (-1) ** k * xs[k + 2] / (k + 2),
                        lambda n, xs, p: (-1) ** n * xs[n + 1] - 1),
        PrintedIdentity("halving_sum",
                        lambda k, xs, p: 2 * xs[k - 1] / ((k + 2) * factorial(k + 1)),
                        lambda n, xs, p: 1 - 2 * xs[n + 2] / ((n + 2) * factorial(n + 2))),
    )


def _pell_printed() -> tuple[PrintedIdentity, ...]:
    return (
        PrintedIdentity("prefix_sum",
                        lambda k, xs, p: xs[k] / 2 ** (k + 1),
                        lambda n, xs, p: xs[n + 2] / 2 ** (n + 1) - 1),
        PrintedIdentity("even_sum",
                        lambda k, xs, p: 2 * xs[2 * k],
                        lambda n, xs, p: xs[2 * n + 1] - 1),
        PrintedIdentity("odd_sum",
                        lambda k, xs, p: 2 * xs[2 * k - 1],
                        lambda n, xs, p: xs[2 * n]),
        PrintedIdentity("square_sum",
                        lambda k, xs, p: 2 * xs[k] ** 2,
                        lambda n, xs, p: xs[n] * xs[n + 1]),
        PrintedIdentity("alternating_sum",
                        lambda k, xs, p: (-1) ** k * 2 ** k * xs[k + 2] / 2,
                        lambda n, xs, p: (-1) ** n * 2 ** n * xs[n + 1],
                        k_start=0),
        PrintedIdentity("halving_sum",
                        lambda k, xs, p: 2 ** k * xs[k - 1] / (4 * 5 ** k),
                        lambda n, xs, p: 1 - 2 ** n * xs[n + 2] / (2 * 5 ** n)),
    )


def _schur_printed() -> tuple[PrintedIdentity, ...]:
    return (
        PrintedIdentity("prefix_sum",
                        lambda k, xs, p: rat_pow(p["q"], k + p["a"]) * xs[k],
                        lambda n, xs, p: xs[n + 2] - 1),
        PrintedIdentity("even_sum",
                        lambda k, xs, p: rat_pow(p["q"], -k * k - k * p["a"]) * xs[2 * k],
                        lambda n, xs, p: rat_pow(p["q"], -n * n - n * p["a"]) * xs[2 * n + 1] - 1),
        PrintedIdentity("odd_sum",
                        lambda k, xs, p: rat_pow(p["q"], -(k - 1) * (k + p["a"])) * xs[2 * k - 1],
                        lambda n, xs, p: rat_pow(p["q"], -(n - 1) * (n + p["a"])) * xs[2 * n]),
        PrintedIdentity("square_sum",
                        lambda k, xs, p: rat_pow(p["q"], -_binom2(k) - (k - 1) * p["a"]) * xs[k] ** 2,
                        lambda n, xs, p: rat_pow(p["q"], -_binom2(n) - (n - 1) * p["a"]) * xs[n] * xs[n + 1]),
        PrintedIdentity("alternating_sum",
                        lambda k, xs, p: (-1) ** (k - 1) * rat_pow(p["q"], -_binom2(k) - (k - 1) * p["a"]) * xs[k + 1],
                        lambda n, xs, p: (-1) ** (n + 1) * rat_pow(p["q"], -_binom2(n) - (n - 1) * p["a"]) * xs[n]),
        PrintedIdentity("halving_sum",
                        lambda k, xs, p: rat_pow(p["q"], 2 * k - 1 + 2 * p["a"])
                        * rat_div(xs[k - 1], _qrf(-rat_pow(p["q"], p["a"] + 1), p["q"], k)),
                        lambda n, xs, p: 1 - rat_div(xs[n + 2], _qrf(-rat_pow(p["q"], p["a"] + 1), p["q"], n))),
    )


def _q_pell_printed() -> tuple[PrintedIdentity, ...]:
    def neg_q_fact(q, m):  # (-q; q)_m
        return _qrf(-q, q, m)

    return (
        PrintedIdentity("prefix_sum",
                        lambda k, xs, p: rat_pow(p["q"], k) * rat_div(xs[k], neg_q_fact(p["q"], k + 1)),
                        lambda n, xs, p: rat_div(xs[n + 2], neg_q_fact(p["q"], n + 1)) - 1),
        PrintedIdentity("even_sum",
                        lambda k, xs, p: (1 + rat_pow(p["q"], 2 * k)) * rat_pow(p["q"], -k * k) * xs[2 * k],
                        lambda n, xs, p: rat_pow(p["q"], -n * n) * xs[2 * n + 1] - 1),
        PrintedIdentity("odd_sum",
                        lambda k, xs, p: (1 + rat_pow(p["q"], 2 * k + 1)) * rat_pow(p["q"], -k * (k + 1)) * xs[2 * k + 1],
                        lambda n, xs, p: rat_pow(p["q"], -n * (n + 1)) * xs[2 * n + 2],
                        k_start=0),
        PrintedIdentity("square_sum",
                        lambda k, xs, p: (1 + rat_pow(p["q"], k)) * rat_pow(p["q"], -_binom2(k)) * xs[k] ** 2,
                        lambda n, xs, p: rat_pow(p["q"], -_binom2(n)) * xs[n] * xs[n + 1]),
        PrintedIdentity("alternating_sum",
                        lambda k, xs, p: (-1) ** k * rat_pow(p["q"], -_binom2(k + 1)) * neg_q_fact(p["q"], k) * xs[k + 2],
                        lambda n, xs, p: (-1) ** n * rat_pow(p["q"], -_binom2(n + 1)) * neg_q_fact(p["q"], n + 1) * xs[n + 1],
                        k_start=0),
        PrintedIdentity("halving_sum",
                        lambda k, xs, p: _q_pell_halving_term(k, xs, p),
                        lambda n, xs, p: 1 - _q_pell_halving_prod(n, p) * rat_div(xs[n + 2], 1 + p["q"])),
    )


def _q_pell_halving_factor(j: int, q: Exact) -> Exact:
    den = 1 + 2 * rat_pow(q, j) + rat_pow(q, j + 1) + rat_pow(q, 2 * j + 1)
    return rat_div(1 + rat_pow(q, j), den)


def _q_pell_halving_prod(n: int, p: Params) -> Exact:
    """prod_{j=1}^{n} (1 + q^j) / (1 + 2 q^j + q^(j+1) + q^(2j+1)).

    The halving sum reads this product at every k and every n, so a draw's
    q keeps its row of running products (``_running_product``): a row costs
    O(n) factors, not O(n^2).  A Fraction q gives the product itself.
    """
    q = p["q"]

    def factor(j: int) -> Exact:
        return _q_pell_halving_factor(j, q)

    if n < 0 or not isinstance(q, _Param):
        return Fraction(*prod_range_pair(factor, 1, n))
    return _running_product(q, _q_pell_halving_factor, factor, n)


def _q_pell_halving_term(k: int, xs: Values, p: Params) -> Exact:
    q = p["q"]
    head = rat_div(rat_pow(q, 2 * k - 1), 1 + rat_pow(q, k))
    return head * _q_pell_halving_prod(k, p) * rat_div(xs[k - 1], 1 + q)


def _goyt_sagan_printed() -> tuple[PrintedIdentity, ...]:
    def gs1_term(k, xs, p):
        x, y, q = p["x"], p["y"], p["q"]
        return y * rat_pow(x, -(k + 1)) * rat_pow(q, -_binom2(k) - 1) * xs[k]

    def gs1_rhs(n, xs, p):
        x, y, q = p["x"], p["y"], p["q"]
        return rat_pow(x, -(n + 1)) * rat_pow(q, -_binom2(n + 1)) * xs[n + 2] - 1

    def gs2_term(k, xs, p):
        x, y, q = p["x"], p["y"], p["q"]
        return x * rat_pow(y, -k) * rat_pow(q, -k * k + 3 * k - 1) * xs[2 * k]

    def gs2_rhs(n, xs, p):
        x, y, q = p["x"], p["y"], p["q"]
        return rat_pow(y, -n) * rat_pow(q, -n * n + n) * xs[2 * n + 1] - 1

    def gs3_term(k, xs, p):
        x, y, q = p["x"], p["y"], p["q"]
        return rat_pow(y, -k) * rat_pow(q, -k * k + 2 * k) * xs[2 * k + 1]

    def gs3_rhs(n, xs, p):
        x, y, q = p["x"], p["y"], p["q"]
        return rat_div(rat_pow(q, -n * n) * xs[2 * n + 2], x * rat_pow(y, n)) - 1

    def gs4_term(k, xs, p):
        x, y, q = p["x"], p["y"], p["q"]
        return rat_pow(y, -k) * rat_pow(q, -_binom2(k) + k) * xs[k + 1] ** 2

    def gs4_rhs(n, xs, p):
        x, y, q = p["x"], p["y"], p["q"]
        return rat_div(rat_pow(q, -_binom2(n)) * xs[n + 1] * xs[n + 2], x * rat_pow(y, n)) - 1

    def gs5_term(k, xs, p):
        x, y, q = p["x"], p["y"], p["q"]
        return (-1) ** k * rat_pow(x, k - 1) * rat_pow(y, -k) * xs[k + 2]

    def gs5_rhs(n, xs, p):
        x, y, q = p["x"], p["y"], p["q"]
        return (-1) ** n * rat_pow(rat_div(x, y), n) * rat_pow(q, n) * xs[n + 1] - 1

    def gs6_term(k, xs, p):
        x, y, q = p["x"], p["y"], p["q"]
        base = rat_div(x * q, y)
        return rat_pow(base, k - 2) * rat_div(xs[k - 1], _qrf(-rat_div(q * x * x, y), q, k))

    def gs6_rhs(n, xs, p):
        x, y, q = p["x"], p["y"], p["q"]
        return 1 - rat_pow(x, n - 1) * rat_pow(y, -n) * rat_div(xs[n + 2], _qrf(-rat_div(q * x * x, y), q, n))

    return (
        PrintedIdentity("prefix_sum", gs1_term, gs1_rhs),
        PrintedIdentity("even_sum", gs2_term, gs2_rhs),
        PrintedIdentity("odd_sum", gs3_term, gs3_rhs),
        PrintedIdentity("square_sum", gs4_term, gs4_rhs),
        PrintedIdentity("alternating_sum", gs5_term, gs5_rhs),
        PrintedIdentity("halving_sum", gs6_term, gs6_rhs),
    )


def _goyt_mathisen_printed() -> tuple[PrintedIdentity, ...]:
    def gm1_term(k, xs, p):
        x, y = p["x"], p["y"]
        return (-1) ** k * rat_pow(x, k - 1) * rat_pow(y, -k) * rat_pow(p["q"], -_binom2(k)) * xs[k + 2]

    def gm1_rhs(n, xs, p):
        x, y, q = p["x"], p["y"], p["q"]
        return (-1) ** n * rat_pow(rat_div(x, y), n) * rat_pow(q, -(n * (n - 3)) // 2) * xs[n + 1] - 1

    def gm2_term(k, xs, p):
        x, y, q = p["x"], p["y"], p["q"]
        pole = q * x * x + y
        head = rat_div(y * y, x * x) * rat_pow(rat_div(x, pole), k)
        return head * rat_pow(q, -((k - 2) * (k - 5)) // 2) * xs[k - 1]

    def gm2_rhs(n, xs, p):
        x, y, q = p["x"], p["y"], p["q"]
        pole = q * x * x + y
        return 1 - rat_div(rat_pow(x, n), x * rat_pow(pole, n)) * rat_pow(q, -_binom2(n)) * xs[n + 2]

    return (
        PrintedIdentity("alternating_sum", gm1_term, gm1_rhs),
        PrintedIdentity("halving_sum", gm2_term, gm2_rhs),
    )


FAMILIES: dict[str, Family] = {
    family.key: family
    for family in (
        Family("fibonacci", "Fibonacci numbers; prefix-sum identity due to Lucas (1876)", (),
               a=lambda n, p: 1, b=lambda n, p: 1, printed=_fibonacci_printed()),
        Family("pell", "Pell numbers (cf. Horadam-Mahon; Bicknell)", (),
               a=lambda n, p: 2, b=lambda n, p: 1, printed=_pell_printed()),
        Family("shifted_derangement", "shifted derangement numbers D_n = d_{n+1}", (),
               a=lambda n, p: n + 2, b=lambda n, p: n + 2,
               printed=_derangement_printed()),
        Family("schur_q_fib", "Schur's (shifted) q-Fibonacci numbers (cf. Andrews; Garrett)",
               (Param("a", kind="int", int_range=(0, 4)), Param("q", kind="q")),
               a=lambda n, p: 1, b=lambda n, p: rat_pow(p["q"], n + p["a"]),
               printed=_schur_printed()),
        Family("q_pell", "q-Pell numbers (cf. Santos-Sills; Briggs-Little-Sellers)",
               (Param("q", kind="q"),),
               a=lambda n, p: 1 + rat_pow(p["q"], n + 1), b=lambda n, p: rat_pow(p["q"], n),
               printed=_q_pell_printed()),
        Family("goyt_sagan", "Goyt-Sagan q-Fibonacci polynomials",
               (Param("x"), Param("y"), Param("q", kind="q")),
               a=lambda n, p: p["x"] * rat_pow(p["q"], n),
               b=lambda n, p: p["y"] * rat_pow(p["q"], n - 1),
               printed=_goyt_sagan_printed()),
        Family("goyt_mathisen", "Goyt-Mathisen q-Fibonacci polynomials",
               (Param("x"), Param("y"), Param("q", kind="q")),
               a=lambda n, p: p["x"] * rat_pow(p["q"], n),
               b=lambda n, p: p["y"] * rat_pow(p["q"], 2 * (n - 1)),
               printed=_goyt_mathisen_printed()),
    )
}


def family_sides(family: Family, n_max: int,
                 params: Params) -> list[tuple[str, int, Pair, Pair]]:
    """(identity name, n, LHS, RHS) of every printed identity for n <= n_max,
    the sides as Pairs (the LHS is the RHS's own Pair where they agree);
    raises Inadmissible on any pole, ValueError on n_max < 0."""
    require_size("n_max", n_max)
    point = sample_value(_exact_params, params)
    xs = _generate(lambda n: family.a(n, point), lambda n: family.b(n, point), ZERO, ONE,
                   2 * n_max + 2, _reduced)
    return [(ident.name, n, lhs, rhs) for ident in family.printed
            for n, lhs, rhs in _partial_sums(ident.k_start, n_max,
                                             lambda k: ident.term(k, xs, point),
                                             lambda n: ident.rhs(n, xs, point), _ZERO)]


def verify_family_suite(family_key: str, n_max: int, samples: int, seed: int) -> list[CheckRecord]:
    """Every printed identity of the family, for all n <= n_max, exactly."""
    family = FAMILIES[family_key]

    def draw(rng):
        def attempt():
            params = draw_params(family.params, rng, 16)
            return params, family_sides(family, n_max, params)

        return retry(attempt, "no admissible sample found")

    def checks(drawn, sample):
        params, sides = drawn
        return [outcome("sequences", f"{family.key}/{name}", "identity", family.citation,
                        lhs == rhs, params, n=n, sample=sample, lhs=lhs, rhs=rhs)
                for name, n, lhs, rhs in sides]

    return sweep("sequences", family_key, family.citation, seed, samples, draw, checks,
                 parametric=bool(family.params), stream="family")


def random_spec(rng: random.Random, n_max: int) -> RecurrenceSpec:
    """A random spec admissible for all six generic identities up to n_max.

    Nonzero coefficients and initial values, x_2 != 0, and nonzero composite
    denominators a_{j-1} a_j + b_j for the divided form.
    """
    def attempt() -> RecurrenceSpec | None:
        a_vals = sample_sequence(rng, 2 * n_max + 2)
        b_vals = sample_sequence(rng, 2 * n_max + 2)
        x0 = sample_rational(rng)
        x1 = sample_rational(rng)
        if a_vals[0] * x1 + b_vals[0] * x0 == 0:
            return None
        if any(a_vals[j - 1] * a_vals[j] + b_vals[j] == 0 for j in range(1, n_max + 1)):
            return None
        return RecurrenceSpec("random", lambda n, av=a_vals: av[n],
                              lambda n, bv=b_vals: bv[n], x0, x1)

    return retry(attempt, "could not draw a random recurrence spec")
