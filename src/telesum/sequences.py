"""Three-term recurrences x_{n+2} = a_n x_{n+1} + b_n x_n and their identity suites.

Two layers:

  * a generic verifier for the six identities satisfied by *every* sequence
    with nonzero coefficient sequences a, b (weighted prefix sum, even- and
    odd-index sums, squared-term sum, alternating sum, and a divided form
    whose composite denominators a_{j-1} a_j + b_j are precomputed so an
    inadmissible point is reported before any partial sums);

  * the built-in families (Fibonacci, Pell, shifted derangements, Schur's
    shifted q-Fibonacci numbers, q-Pell numbers, Goyt-Sagan and
    Goyt-Mathisen q-Fibonacci polynomials) with each family's printed
    identity suite checked verbatim, index shifts and all.

Everything is exact.  A family with parameters is checked at a few seeded
random rational samples of them (8 in the sequences suite by default),
each identity at every n <= n_max; a pass shows exact equality at those
points, not a proof for all parameter values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .certify import sample_value
from .corpus import Param, draw_params, factorial, q_rising_factorial as qrf
from .errors import Inadmissible
from .rational import ONE, SeqFn, ZERO, prod_range, rat_div, rat_pow
from .report import INADMISSIBLE, CheckRecord, outcome, record
from .sampling import retry, sample_rational, sample_sequence, sweep

Params = Mapping[str, object]
Values = Sequence[Fraction]


@dataclass(frozen=True)
class RecurrenceSpec:
    """x_{n+2} = a_n x_{n+1} + b_n x_n with given x_0, x_1."""

    name: str
    a: SeqFn
    b: SeqFn
    x0: Fraction
    x1: Fraction


def generate(spec: RecurrenceSpec, N: int) -> list[Fraction]:
    """x_0 .. x_N, exactly."""
    xs = [Fraction(spec.x0), Fraction(spec.x1)]
    for n in range(N - 1):
        xs.append(spec.a(n) * xs[n + 1] + spec.b(n) * xs[n])
    return xs[: N + 1]


def _binom2(k: int) -> int:
    return k * (k - 1) // 2


# ---------------------------------------------------------------------------
# The six generic identities
# ---------------------------------------------------------------------------

def lucas_gen_sides(spec: RecurrenceSpec, which: int, n_max: int) -> list[tuple[int, Fraction, Fraction]]:
    """(n, LHS, RHS) for the selected generic identity, for every n <= n_max.

    which: 1 weighted prefix sum, 2 even-index sum, 3 odd-index sum,
    4 squared-term sum, 5 alternating sum, 6 divided form.
    Raises Inadmissible (with the offending index) on zero denominators.
    """
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

    out: list[tuple[int, Fraction, Fraction]] = []
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


def verify_lucas_gen(spec: RecurrenceSpec, which: int, n_max: int,
                     suite: str = "sequences", sample: int | None = None,
                     citation: str = "") -> list[CheckRecord]:
    identity = f"{spec.name}/generic_{which}"
    try:
        sides = lucas_gen_sides(spec, which, n_max)
    except Inadmissible as exc:
        return [record(suite, identity, "identity", citation, INADMISSIBLE, sample=sample,
                       reason=str(exc))]
    return [outcome(suite, identity, "identity", citation, lhs == rhs, n=n, sample=sample,
                    lhs=lhs, rhs=rhs) for n, lhs, rhs in sides]


# ---------------------------------------------------------------------------
# Built-in families and their printed identity suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrintedIdentity:
    name: str
    term: Callable[[int, Values, Params], Fraction]
    rhs: Callable[[int, Values, Params], Fraction]
    k_start: int = 1


@dataclass(frozen=True)
class Family:
    key: str
    citation: str
    params: tuple[Param, ...]
    make: Callable[[Params], RecurrenceSpec]
    printed: tuple[PrintedIdentity, ...]


def fibonacci_spec(_p: Params | None = None) -> RecurrenceSpec:
    one = lambda _n: ONE
    return RecurrenceSpec("fibonacci", one, one, ZERO, ONE)


def pell_spec(_p: Params | None = None) -> RecurrenceSpec:
    return RecurrenceSpec("pell", lambda _n: Fraction(2), lambda _n: ONE, ZERO, ONE)


def shifted_derangement_spec(_p: Params | None = None) -> RecurrenceSpec:
    coeff = lambda n: Fraction(n + 2)
    return RecurrenceSpec("shifted_derangement", coeff, coeff, ZERO, ONE)


def schur_q_fib_spec(p: Params) -> RecurrenceSpec:
    q, shift = p["q"], p["a"]
    return RecurrenceSpec("schur_q_fib", lambda _n: ONE,
                          lambda n: rat_pow(q, n + shift), ZERO, ONE)


def q_pell_spec(p: Params) -> RecurrenceSpec:
    q = p["q"]
    return RecurrenceSpec("q_pell", lambda n: 1 + rat_pow(q, n + 1),
                          lambda n: rat_pow(q, n), ZERO, ONE)


def goyt_sagan_spec(p: Params) -> RecurrenceSpec:
    x, y, q = p["x"], p["y"], p["q"]
    return RecurrenceSpec("goyt_sagan", lambda n: x * rat_pow(q, n),
                          lambda n: y * rat_pow(q, n - 1), ZERO, ONE)


def goyt_mathisen_spec(p: Params) -> RecurrenceSpec:
    x, y, q = p["x"], p["y"], p["q"]
    return RecurrenceSpec("goyt_mathisen", lambda n: x * rat_pow(q, n),
                          lambda n: y * rat_pow(q, 2 * (n - 1)), ZERO, ONE)


def fibonacci_poly_spec(p: Params) -> RecurrenceSpec:
    x, y = p["x"], p["y"]
    return RecurrenceSpec("fibonacci_poly", lambda _n: x, lambda _n: y, ZERO, ONE)


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
                        lambda n, xs, p: (-1) ** (n - 1) * xs[n]),
        PrintedIdentity("halving_sum",
                        lambda k, xs, p: xs[k - 1] / Fraction(2) ** k,
                        lambda n, xs, p: 1 - rat_div(xs[n + 2], Fraction(2) ** n)),
    )


def _derangement_printed() -> tuple[PrintedIdentity, ...]:
    def odd_fact(j: int) -> Fraction:  # 1 * 3 * ... * (2j - 1)
        return prod_range(lambda i: 2 * i - 1, 1, j)

    def even_fact(j: int) -> Fraction:  # 2 * 4 * ... * (2j)
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
                        lambda k, xs, p: xs[k] / Fraction(2) ** (k + 1),
                        lambda n, xs, p: xs[n + 2] / Fraction(2) ** (n + 1) - 1),
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
                        lambda k, xs, p: (-1) ** k * Fraction(2) ** (k - 1) * xs[k + 2],
                        lambda n, xs, p: (-1) ** n * Fraction(2) ** n * xs[n + 1],
                        k_start=0),
        PrintedIdentity("halving_sum",
                        lambda k, xs, p: Fraction(2, 5) ** k * xs[k - 1] / 4,
                        lambda n, xs, p: 1 - Fraction(2, 5) ** n * xs[n + 2] / 2),
    )


def _schur_printed() -> tuple[PrintedIdentity, ...]:
    def q_of(p):
        return p["q"]

    return (
        PrintedIdentity("prefix_sum",
                        lambda k, xs, p: rat_pow(q_of(p), k + p["a"]) * xs[k],
                        lambda n, xs, p: xs[n + 2] - 1),
        PrintedIdentity("even_sum",
                        lambda k, xs, p: rat_pow(q_of(p), -k * k - k * p["a"]) * xs[2 * k],
                        lambda n, xs, p: rat_pow(q_of(p), -n * n - n * p["a"]) * xs[2 * n + 1] - 1),
        PrintedIdentity("odd_sum",
                        lambda k, xs, p: rat_pow(q_of(p), -(k - 1) * (k + p["a"])) * xs[2 * k - 1],
                        lambda n, xs, p: rat_pow(q_of(p), -(n - 1) * (n + p["a"])) * xs[2 * n]),
        PrintedIdentity("square_sum",
                        lambda k, xs, p: rat_pow(q_of(p), -_binom2(k) - (k - 1) * p["a"]) * xs[k] ** 2,
                        lambda n, xs, p: rat_pow(q_of(p), -_binom2(n) - (n - 1) * p["a"]) * xs[n] * xs[n + 1]),
        PrintedIdentity("alternating_sum",
                        lambda k, xs, p: (-1) ** (k - 1) * rat_pow(q_of(p), -_binom2(k) - (k - 1) * p["a"]) * xs[k + 1],
                        lambda n, xs, p: (-1) ** (n - 1) * rat_pow(q_of(p), -_binom2(n) - (n - 1) * p["a"]) * xs[n]),
        PrintedIdentity("halving_sum",
                        lambda k, xs, p: rat_pow(q_of(p), 2 * k - 1 + 2 * p["a"])
                        * rat_div(xs[k - 1], qrf(-rat_pow(q_of(p), p["a"] + 1), q_of(p), k)),
                        lambda n, xs, p: 1 - rat_div(xs[n + 2], qrf(-rat_pow(q_of(p), p["a"] + 1), q_of(p), n))),
    )


def _q_pell_printed() -> tuple[PrintedIdentity, ...]:
    def neg_q_fact(q, m):  # (-q; q)_m
        return qrf(-q, q, m)

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


def _q_pell_halving_factor(j: int, q: Fraction) -> Fraction:
    den = 1 + 2 * rat_pow(q, j) + rat_pow(q, j + 1) + rat_pow(q, 2 * j + 1)
    return rat_div(1 + rat_pow(q, j), den)


def _q_pell_halving_prefix(p: Params) -> list[Fraction]:
    """The running products of _q_pell_halving_prod at p, from n = 0; the
    sample memo holds one such list per parameter point."""
    return [ONE]


def _q_pell_halving_prod(n: int, p: Params) -> Fraction:
    """prod_{j=1}^{n} (1 + q^j) / (1 + 2 q^j + q^(j+1) + q^(2j+1)).

    The halving sum reads this product at every k and every n, so the point's
    running products are kept in the sample memo and extended one factor at
    a time: a row costs O(n) factors, not O(n^2).  A factor that raises
    leaves the list as it was, so it raises again, with the same message,
    at every call that needs it.
    """
    q = p["q"]
    if n < 0:
        return prod_range(lambda j: _q_pell_halving_factor(j, q), 1, n)
    prods = sample_value(_q_pell_halving_prefix, p)
    while len(prods) <= n:
        prods.append(prods[-1] * _q_pell_halving_factor(len(prods), q))
    return prods[n]


def _q_pell_halving_term(k: int, xs: Values, p: Params) -> Fraction:
    q = p["q"]
    head = rat_div(rat_pow(q, 2 * k - 1), 1 + rat_pow(q, k))
    return head * _q_pell_halving_prod(k, p) * rat_div(xs[k - 1], 1 + q)


def _goyt_sagan_printed() -> tuple[PrintedIdentity, ...]:
    def xyq(p):
        return p["x"], p["y"], p["q"]

    def gs1_term(k, xs, p):
        x, y, q = xyq(p)
        return y * rat_pow(x, -(k + 1)) * rat_pow(q, -_binom2(k) - 1) * xs[k]

    def gs1_rhs(n, xs, p):
        x, y, q = xyq(p)
        return rat_pow(x, -(n + 1)) * rat_pow(q, -_binom2(n + 1)) * xs[n + 2] - 1

    def gs2_term(k, xs, p):
        x, y, q = xyq(p)
        return x * rat_pow(y, -k) * rat_pow(q, -k * k + 3 * k - 1) * xs[2 * k]

    def gs2_rhs(n, xs, p):
        x, y, q = xyq(p)
        return rat_pow(y, -n) * rat_pow(q, -n * n + n) * xs[2 * n + 1] - 1

    def gs3_term(k, xs, p):
        x, y, q = xyq(p)
        return rat_pow(y, -k) * rat_pow(q, -k * k + 2 * k) * xs[2 * k + 1]

    def gs3_rhs(n, xs, p):
        x, y, q = xyq(p)
        return rat_div(rat_pow(q, -n * n) * xs[2 * n + 2], x * rat_pow(y, n)) - 1

    def gs4_term(k, xs, p):
        x, y, q = xyq(p)
        return rat_pow(y, -k) * rat_pow(q, -_binom2(k) + k) * xs[k + 1] ** 2

    def gs4_rhs(n, xs, p):
        x, y, q = xyq(p)
        return rat_div(rat_pow(q, -_binom2(n)) * xs[n + 1] * xs[n + 2], x * rat_pow(y, n)) - 1

    def gs5_term(k, xs, p):
        x, y, q = xyq(p)
        return (-1) ** k * rat_pow(x, k - 1) * rat_pow(y, -k) * xs[k + 2]

    def gs5_rhs(n, xs, p):
        x, y, q = xyq(p)
        return (-1) ** n * rat_pow(rat_div(x, y), n) * rat_pow(q, n) * xs[n + 1] - 1

    def gs6_term(k, xs, p):
        x, y, q = xyq(p)
        base = rat_div(x * q, y)
        return rat_pow(base, k - 2) * rat_div(xs[k - 1], qrf(-rat_div(q * x * x, y), q, k))

    def gs6_rhs(n, xs, p):
        x, y, q = xyq(p)
        return 1 - rat_pow(x, n - 1) * rat_pow(y, -n) * rat_div(xs[n + 2], qrf(-rat_div(q * x * x, y), q, n))

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
    "fibonacci": Family(
        key="fibonacci",
        citation="Fibonacci numbers; prefix-sum identity due to Lucas (1876)",
        params=(),
        make=lambda p: fibonacci_spec(),
        printed=_fibonacci_printed(),
    ),
    "pell": Family(
        key="pell",
        citation="Pell numbers (cf. Horadam-Mahon; Bicknell)",
        params=(),
        make=lambda p: pell_spec(),
        printed=_pell_printed(),
    ),
    "shifted_derangement": Family(
        key="shifted_derangement",
        citation="shifted derangement numbers D_n = d_{n+1}",
        params=(),
        make=lambda p: shifted_derangement_spec(),
        printed=_derangement_printed(),
    ),
    "schur_q_fib": Family(
        key="schur_q_fib",
        citation="Schur's (shifted) q-Fibonacci numbers (cf. Andrews; Garrett)",
        params=(Param("a", kind="int", int_range=(0, 4)), Param("q", kind="q")),
        make=schur_q_fib_spec,
        printed=_schur_printed(),
    ),
    "q_pell": Family(
        key="q_pell",
        citation="q-Pell numbers (cf. Santos-Sills; Briggs-Little-Sellers)",
        params=(Param("q", kind="q"),),
        make=q_pell_spec,
        printed=_q_pell_printed(),
    ),
    "goyt_sagan": Family(
        key="goyt_sagan",
        citation="Goyt-Sagan q-Fibonacci polynomials",
        params=(Param("x"), Param("y"), Param("q", kind="q")),
        make=goyt_sagan_spec,
        printed=_goyt_sagan_printed(),
    ),
    "goyt_mathisen": Family(
        key="goyt_mathisen",
        citation="Goyt-Mathisen q-Fibonacci polynomials",
        params=(Param("x"), Param("y"), Param("q", kind="q")),
        make=goyt_mathisen_spec,
        printed=_goyt_mathisen_printed(),
    ),
}


def family_sides(family: Family, n_max: int,
                 params: Params) -> list[tuple[str, int, Fraction, Fraction]]:
    """(identity name, n, LHS, RHS) of every printed identity for n <= n_max;
    raises Inadmissible on any pole."""
    xs = generate(family.make(params), 2 * n_max + 2)
    sides = []
    for ident in family.printed:
        lhs = ZERO
        next_k = ident.k_start
        for n in range(n_max + 1):
            while next_k <= n:
                lhs += ident.term(next_k, xs, params)
                next_k += 1
            sides.append((ident.name, n, lhs, ident.rhs(n, xs, params)))
    return sides


def verify_family_suite(family_key: str, n_max: int, samples: int, seed: int) -> list[CheckRecord]:
    """Every printed identity of the family, for all n <= n_max, exactly."""
    family = FAMILIES[family_key]

    def draw(rng):
        def attempt():
            params = draw_params(family, rng, 16)
            return params, family_sides(family, n_max, params)

        return retry(attempt, "no admissible sample found")

    def checks(drawn, sample):
        params, sides = drawn
        return [outcome("sequences", f"{family.key}/{name}", "identity", family.citation,
                        lhs == rhs, params, n=n, sample=sample, lhs=lhs, rhs=rhs)
                for name, n, lhs, rhs in sides]

    return sweep("sequences", family_key, family.citation, seed, samples, draw, checks,
                 parametric=bool(family.params), stream="family")


def random_spec(rng: random.Random, n_max: int, name: str = "random") -> RecurrenceSpec:
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
        return RecurrenceSpec(name, lambda n, av=a_vals: av[n],
                              lambda n, bv=b_vals: bv[n], x0, x1)

    return retry(attempt, "could not draw a random recurrence spec")
