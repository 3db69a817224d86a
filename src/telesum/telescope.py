"""The telescoping kernel.

Everything here is one identity viewed four ways.  For sequences u, v and
w = u - v (always derived, never a third input):

    sum_{k=0}^{n} (w_k / w_0) * (u_0 ... u_{k-1}) / (v_1 ... v_k)
        = (u_0 / w_0) * ( (u_1 ... u_n) / (v_1 ... v_n)  -  v_0 / u_0 )

``telescoping_sum`` evaluates the left side termwise, ``telescoping_closed_form``
the right side; they must agree on every admissible input, which is the
package's core oracle.  ``raw_euler_sum`` is the unnormalized k=1..n form,
``sum_to_telescope`` embeds an arbitrary telescoping sum f(k+1) - f(k), and
``solve_linear_recurrence`` solves x_{m+1} = b_m x_m + c_m in closed form.

Sums maintain running products incrementally (O(n) multiplications), so
nothing calls prod_range per term: calling it for each of n terms would
multiply O(n^2) factors.  ``telescoping_pairs`` carries its running ratio
(u_0..u_{k-1}) / (w_0 v_1..v_k) as an unreduced integer pair and yields each
summand as one, for the certificate checks; ``telescoping_terms`` builds one
Fraction from each, so a summand pays one gcd.  ``telescoping_pair_sum``
nests the same sum by Horner's rule,

    sum = X_0 / w_0,   X_n = w_n,   X_k = w_k + (u_k / v_{k+1}) X_{k+1},

on unreduced integer pairs, so its parts grow by one index's factors per
step instead of by a whole summand's denominator; ``telescoping_sum`` and
``telescoping_closed_form`` each build one Fraction at the end.  u and v
may give Fractions, ints or ``rational.Pair`` values.  Every function here
reads each u_k and v_k once, keeping u_{k-1} in a local, so a costly or
memoized u and v is evaluated or looked up once per index;
``raw_euler_sum`` reads each once into lists and takes both sides from the
kernel.  The lemma's sums run over k = 0..n, so every function here raises
ValueError for n < 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .errors import DivisionByZero
from .rational import ONE, SeqFn, ZERO, as_pair

#: A sequence of rationals given as unreduced integer pairs (num, den), den != 0.
PairFn = Callable[[int], tuple[int, int]]


@dataclass(frozen=True)
class TelescopeProblem:
    """A (u, v, n) triple; w_k = u_k - v_k is always derived at use sites."""

    u: SeqFn
    v: SeqFn
    n: int


def _require_length(n: int) -> None:
    """Reject a negative upper index: the lemma's sums run over k = 0..n."""
    if n < 0:
        raise ValueError(f"telescoping sums need n >= 0, got n = {n}")


def telescoping_pairs(u: PairFn, v: PairFn, n: int) -> Iterator[tuple[int, int]]:
    """The summands (w_k/w_0) * (u_0..u_{k-1})/(v_1..v_k) for k = 0..n, as
    unreduced integer pairs (num, den), over u and v given as such pairs.

    Each u_k and v_k is read once, in the order u_0, v_0, v_1, u_1, v_2, u_2,
    ...  The running ratio (u_0..u_{k-1}) / (w_0 v_1..v_k) is an unreduced
    integer pair, and so is w_k; the k = 0 pair has equal entries.  Raises
    ValueError if n < 0, and DivisionByZero if w_0 = 0 or any of v_1..v_n
    is zero.
    """
    _require_length(n)
    a, b = u(0)
    c, d = v(0)
    if a * d == c * b:
        raise DivisionByZero("telescoping sum requires w_0 = u_0 - v_0 != 0")
    num, den = b * d, a * d - c * b  # 1 / w_0
    for k in range(n + 1):
        if k > 0:
            c, d = v(k)
            if c == 0:
                raise DivisionByZero(f"telescoping sum requires v_{k} != 0")
            num, den = num * a * d, den * b * c
            a, b = u(k)
        yield (a * d - c * b) * num, b * d * den


def telescoping_pair_sum(u: PairFn, v: PairFn, n: int) -> tuple[int, int]:
    """The sum of telescoping_pairs(u, v, n) as one unreduced integer pair,
    by Horner's rule: X_n = w_n, X_k = w_k + (u_k / v_{k+1}) X_{k+1}, and
    the sum is X_0 / w_0.

    u and v are read, and their zeros raise, in telescoping_pairs' order
    and with its messages, before the sum is formed.
    """
    _require_length(n)
    a, b = u(0)
    c, d = v(0)
    if a * d == c * b:
        raise DivisionByZero("telescoping sum requires w_0 = u_0 - v_0 != 0")
    us, vs = [(a, b)], [(c, d)]
    for k in range(1, n + 1):
        c, d = v(k)
        if c == 0:
            raise DivisionByZero(f"telescoping sum requires v_{k} != 0")
        vs.append((c, d))
        us.append(u(k))
    a, b = us[n]
    c, d = vs[n]
    num, den = a * d - c * b, b * d  # X_n
    for k in range(n - 1, -1, -1):
        a, b = us[k]
        c, d = vs[k]
        e, f = vs[k + 1]
        num, den = (a * d - c * b) * e * den + a * f * d * num, b * d * e * den
    a, b = us[0]
    c, d = vs[0]
    return num * b * d, den * (a * d - c * b)


def _as_pairs(f: SeqFn) -> PairFn:
    def pair(k: int) -> tuple[int, int]:
        return as_pair(f(k))

    return pair


def telescoping_terms(p: TelescopeProblem) -> Iterator[Fraction]:
    """Yield the summands (w_k/w_0) * (u_0..u_{k-1})/(v_1..v_k) for k = 0..n.

    The summands of ``telescoping_pairs``, each one Fraction, so a summand
    pays one gcd: the same read order and the same raises.
    """
    for num, den in telescoping_pairs(_as_pairs(p.u), _as_pairs(p.v), p.n):
        yield Fraction(num, den)


def telescoping_sum(p: TelescopeProblem) -> Fraction:
    """Left side of the lemma, summed by ``telescoping_pair_sum``."""
    return Fraction(*telescoping_pair_sum(_as_pairs(p.u), _as_pairs(p.v), p.n))


def telescoping_closed_form(p: TelescopeProblem) -> Fraction:
    """Right side of the lemma: (u_0/w_0) * (prod u / prod v - v_0/u_0).

    Raises ValueError if n < 0.  The -v_0/u_0 term is skipped when v_0 = 0
    (it is exactly zero then); otherwise u_0 = 0 raises DivisionByZero, as
    do w_0 = 0 and zero v's.
    """
    u, v, n = p.u, p.v, p.n
    _require_length(n)
    a, b = as_pair(u(0))
    c, d = as_pair(v(0))
    if a * d == c * b:
        raise DivisionByZero("closed form requires w_0 != 0")
    num = den = 1  # the ratio (u_1 ... u_n) / (v_1 ... v_n)
    for j in range(1, n + 1):
        e, f = as_pair(v(j))
        if e == 0:
            raise DivisionByZero(f"closed form requires v_{j} != 0")
        g, h = as_pair(u(j))
        num, den = num * g * f, den * h * e
    if c != 0 and a == 0:
        raise DivisionByZero("closed form requires u_0 != 0 when v_0 != 0")
    # u_0 / w_0 * (num / den - v_0 / u_0) with u_0 = a/b, v_0 = c/d
    return Fraction(num * a * d - c * b * den, (a * d - c * b) * den)


def raw_euler_sum(u: SeqFn, v: SeqFn, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of the raw k=1..n form; the caller asserts equality.

    Returns (sum_{k=1}^n w_k (u_1..u_{k-1})/(v_1..v_k),
             (u_1..u_n)/(v_1..v_n) - 1):
    the lemma's two sides at u_0 = 1, v_0 = 0, each less its value 1 at
    n = 0.  Each u_k and v_k is read once.  Raises ValueError if n < 0, and
    DivisionByZero if any of v_1..v_n is zero.
    """
    us = [ONE] + [u(k) for k in range(1, n + 1)]
    vs = [ZERO] + [v(k) for k in range(1, n + 1)]
    p = TelescopeProblem(us.__getitem__, vs.__getitem__, n)
    return telescoping_sum(p) - 1, telescoping_closed_form(p) - 1


def sum_to_telescope(f: SeqFn, n: int) -> tuple[Fraction, Fraction]:
    """Embed a plain telescoping sum: returns (f(n+1) - f(0), sum of gaps).

    Setting u_k = f(k+1), v_k = f(k) reduces any telescoping sum to the
    lemma, so the two components must always be equal.  Raises ValueError
    if n < 0.
    """
    _require_length(n)
    collapsed = f(n + 1) - f(0)
    gaps = sum((f(k + 1) - f(k) for k in range(n + 1)), ZERO)
    return collapsed, gaps


def solve_linear_recurrence(b: SeqFn, c: SeqFn, x0: Fraction, n: int) -> Fraction:
    """x_{n+1} for x_{m+1} = b_m x_m + c_m, given x_0.

    Closed form: x_0 b_0 b_1 ... b_n + (b_1 ... b_n) * sum_{k=0}^n c_k / (b_1 ... b_k).
    Requires b_1..b_n nonzero (b_0 may be anything, it only scales x_0);
    raises ValueError if n < 0.
    """
    _require_length(n)
    tail = ONE  # b_1 ... b_k
    acc = ZERO
    for k in range(n + 1):
        if k >= 1:
            bk = b(k)
            if bk == 0:
                raise DivisionByZero(f"linear recurrence solution requires b_{k} != 0")
            tail *= bk
        acc += c(k) / tail
    return x0 * b(0) * tail + tail * acc
