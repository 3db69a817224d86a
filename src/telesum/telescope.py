"""The telescoping kernel.

Everything here is one identity, Euler's telescoping lemma.  For sequences u, v and
w = u - v (always derived, never a third input):

    sum_{k=0}^{n} (w_k / w_0) * (u_0 ... u_{k-1}) / (v_1 ... v_k)
        = (u_0 / w_0) * ( (u_1 ... u_n) / (v_1 ... v_n)  -  v_0 / u_0 )

``telescoping_sum`` evaluates the left side termwise, ``telescoping_closed_form``
the right side; they must agree on every admissible input, which is the
package's core oracle.  ``raw_euler_sum`` is the unnormalized k=1..n form,
and ``solve_linear_recurrence`` solves x_{m+1} = b_m x_m + c_m in closed form.

One walk, ``_walk``, reads u and v as ``rational.IntPair`` values, each
once, and tests w_0 != 0 and each v_k != 0 with its caller's texts.  Its
readers: ``telescoping_pairs`` yields each summand as an integer pair as
soon as its index is read; ``_horner`` sums by Horner's rule, X_n = w_n,
X_k = w_k + (u_k / v_{k+1}) X_{k+1}, sum = X_0 / w_0, so its parts grow by
one index's factors per step; ``_closed`` forms the right side.  ``genhyp`` and ``raw_euler_sum``
take both sides from one ``_read``, which ``telescoping_closed_form``
accepts in place of a problem.  The lemma's sums run over k = 0..n, so
every function here raises ValueError for n < 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .errors import DivisionByZero
from .rational import ONE, ZERO, IntPair, PairFn, SeqFn, as_pair, as_pairs


class TelescopeProblem(NamedTuple):
    """A (u, v, n) triple; w_k = u_k - v_k is always derived at use sites."""

    u: SeqFn
    v: SeqFn
    n: int


def _require_length(n: int) -> None:
    """Reject a negative upper index: the lemma's sums run over k = 0..n."""
    if n < 0:
        raise ValueError(f"telescoping sums need n >= 0, got n = {n}")


#: The texts of a zero w_0 and of a zero v_k ({k}), per side of the lemma.
_SUM_TEXTS = ("telescoping sum requires w_0 = u_0 - v_0 != 0",
              "telescoping sum requires v_{k} != 0")
_CLOSED_TEXTS = ("closed form requires w_0 != 0", "closed form requires v_{k} != 0")


def _walk(u: PairFn, v: PairFn, n: int,
          texts: tuple[str, str]) -> Iterator[tuple[IntPair, IntPair]]:
    """(u_k, v_k) for k = 0..n, read in the order u_0, v_0, v_1, u_1, v_2,
    u_2, ...; DivisionByZero with texts[0] if w_0 = 0 and with texts[1] if
    v_k = 0 for some k >= 1, before u_k is read."""
    _require_length(n)
    a, b = u0 = u(0)
    c, d = v0 = v(0)
    if a * d == c * b:
        raise DivisionByZero(texts[0])
    yield u0, v0
    for k in range(1, n + 1):
        vk = v(k)
        if vk[0] == 0:
            raise DivisionByZero(texts[1].format(k=k))
        yield u(k), vk


def telescoping_pairs(u: PairFn, v: PairFn, n: int) -> Iterator[IntPair]:
    """The summands (w_k/w_0) * (u_0..u_{k-1})/(v_1..v_k) for k = 0..n, as
    unreduced integer pairs (num, den), over u and v given as such pairs.

    Each summand is yielded as soon as its u_k and v_k are read (``_walk``'s
    order).  The running ratio (u_0..u_{k-1}) / (w_0 v_1..v_k) is an
    unreduced integer pair, and so is w_k; the k = 0 pair has equal entries.
    Raises ValueError if n < 0, and DivisionByZero if w_0 = 0 or any of
    v_1..v_n is zero.
    """
    walk = _walk(u, v, n, _SUM_TEXTS)
    (a, b), (c, d) = next(walk)
    num, den = b * d, a * d - c * b  # 1 / w_0
    yield (a * d - c * b) * num, b * d * den
    for (e, f), (c, d) in walk:
        num, den = num * a * d, den * b * c  # times u_{k-1} / v_k
        a, b = e, f
        yield (a * d - c * b) * num, b * d * den


def _horner(us: Sequence[IntPair], vs: Sequence[IntPair]) -> IntPair:
    """The left side over u_0..u_n and v_0..v_n, by Horner's rule: X_n = w_n,
    X_k = w_k + (u_k / v_{k+1}) X_{k+1}, and the sum is X_0 / w_0."""
    (a, b), (c, d) = us[-1], vs[-1]
    num, den = a * d - c * b, b * d  # X_n
    for k in range(len(us) - 2, -1, -1):
        (a, b), (c, d), (e, f) = us[k], vs[k], vs[k + 1]
        num, den = (a * d - c * b) * e * den + a * f * d * num, b * d * e * den
    (a, b), (c, d) = us[0], vs[0]
    return num * b * d, den * (a * d - c * b)


def _closed(us: Sequence[IntPair], vs: Sequence[IntPair]) -> IntPair:
    """The right side (u_0/w_0) * (prod u / prod v - v_0/u_0) over the same
    values.  The -v_0/u_0 term is skipped when v_0 = 0 (it is exactly zero
    then); otherwise u_0 = 0 raises DivisionByZero."""
    num = den = 1  # the ratio (u_1 ... u_n) / (v_1 ... v_n)
    for (g, h), (e, f) in zip(us[1:], vs[1:]):
        num, den = num * g * f, den * h * e
    (a, b), (c, d) = us[0], vs[0]
    if c != 0 and a == 0:
        raise DivisionByZero("closed form requires u_0 != 0 when v_0 != 0")
    # u_0 / w_0 * (num / den - v_0 / u_0) with u_0 = a/b, v_0 = c/d
    return num * a * d - c * b * den, (a * d - c * b) * den


class _Read(NamedTuple):
    """u_0..u_n and v_0..v_n as one walk read them: integer pairs, w_0 and
    each v_k tested."""

    us: tuple[IntPair, ...]
    vs: tuple[IntPair, ...]


def _read(u: PairFn, v: PairFn, n: int, texts: tuple[str, str] = _SUM_TEXTS) -> _Read:
    """One walk's values, for every reader to share."""
    return _Read(*zip(*_walk(u, v, n, texts)))


def telescoping_sum(p: TelescopeProblem) -> Fraction:
    """Left side of the lemma, summed by Horner's rule (``_horner``)."""
    return Fraction(*_horner(*_read(as_pairs(p.u), as_pairs(p.v), p.n)))


def telescoping_closed_form(p: TelescopeProblem | _Read) -> Fraction:
    """Right side of the lemma: (u_0/w_0) * (prod u / prod v - v_0/u_0).

    p is a problem, or the ``_Read`` of one whose other side is taken from
    the same walk.  Raises ValueError if n < 0.  The -v_0/u_0 term is
    skipped when v_0 = 0 (it is exactly zero then); otherwise u_0 = 0
    raises DivisionByZero, as do w_0 = 0 and zero v's.
    """
    if not isinstance(p, _Read):
        p = _read(as_pairs(p.u), as_pairs(p.v), p.n, _CLOSED_TEXTS)
    return Fraction(*_closed(*p))


def raw_euler_sum(u: SeqFn, v: SeqFn, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of the raw k=1..n form; the caller asserts equality.

    Returns (sum_{k=1}^n w_k (u_1..u_{k-1})/(v_1..v_k),
             (u_1..u_n)/(v_1..v_n) - 1):
    the lemma's two sides at u_0 = 1, v_0 = 0, each less its value 1 at
    n = 0.  Each u_k and v_k is read once.  Raises ValueError if n < 0, and
    DivisionByZero if any of v_1..v_n is zero.
    """
    us = [(1, 1)] + [as_pair(u(k)) for k in range(1, n + 1)]
    vs = [(0, 1)] + [as_pair(v(k)) for k in range(1, n + 1)]
    read = _read(us.__getitem__, vs.__getitem__, n)
    return Fraction(*_horner(*read)) - 1, telescoping_closed_form(read) - 1


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
