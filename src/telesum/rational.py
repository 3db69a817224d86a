"""Exact rational scalars and the extended product convention.

Every quantity in this package is a :class:`fractions.Fraction`: unbounded
integers, canonical form (gcd(num, den) = 1, den > 0) after every operation,
and exact field arithmetic.  This module adds the checked operations that
turn Python's ``ZeroDivisionError`` into a typed :class:`DivisionByZero`,
the report serialization format, and ``prod_range``, the product
``prod(f, lo, hi)`` extended to empty and inverted index ranges so that
``prod(f, lo, m-1) * f(m) == prod(f, lo, m)`` holds for *all* integers ``m``.

Products defer the gcd: ``prod_range_pair`` multiplies the factors'
numerators and denominators as plain integers and ``prod_range`` reduces
once, so it returns the same canonical Fraction as a factor-by-factor
product at one gcd instead of one per factor (Knuth, TAOCP Vol. 2, 4.5.1).
``corpus`` builds its products the same way; ``exprlang`` evaluates config
expressions so, and its ``prod`` by ``prod_range_pair``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from .errors import DivisionByZero

Rational = Fraction

#: A total map from integer indices to exact rationals (u_k, v_k, a_n, ...).
SeqFn = Callable[[int], Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat_div(a: Fraction, b: Fraction) -> Fraction:
    """a / b with a typed error instead of ZeroDivisionError."""
    if b == 0:
        raise DivisionByZero(f"division of {format_rational(a)} by zero")
    return a / b


def rat_pow(x: Fraction, e: int) -> Fraction:
    """x**e for integer e; negative exponents require x != 0."""
    if e < 0 and x == 0:
        raise DivisionByZero(f"0 raised to negative power {e}")
    return x ** e


def format_rational(x: Fraction) -> str:
    """Serialize as "num/den", collapsing integers to "n" (e.g. "-5/8", "3")."""
    if x.denominator == 1:
        return _decimal(x.numerator)
    return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"


#: Integers below 10^_CHUNK_DIGITS go to str() whole: the fewest digits
#: Python's int_max_str_digits limit may be set to is 640.
_CHUNK_DIGITS = 512


def _decimal(n: int) -> str:
    """str(n) for an integer of any length, split in halves beyond
    _CHUNK_DIGITS digits so that int_max_str_digits never refuses it."""
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= 3 * _CHUNK_DIGITS:  # below 8^512 < 10^512
        return str(n)
    digits = n.bit_length() * 3 // 20  # about half of n's digits
    high, low = divmod(n, 10 ** digits)
    return _decimal(high) + _decimal(low).zfill(digits)


def const(value: Fraction | int) -> SeqFn:
    """The constant sequence k -> value."""
    v = Fraction(value)
    return lambda _k: v


def seq(values: Iterable[Fraction | int], start: int = 0) -> SeqFn:
    """A sequence backed by a list, defined on start..start+len-1."""
    vals = [Fraction(v) for v in values]

    def fn(k: int) -> Fraction:
        if not start <= k < start + len(vals):
            raise IndexError(f"index {k} outside {start}..{start + len(vals) - 1}")
        return vals[k - start]

    return fn


def prod_range_pair(f: SeqFn, lo: int, hi: int) -> tuple[int, int]:
    """prod_range(f, lo, hi) as an unreduced integer pair (num, den): the
    factors are evaluated in index order and no gcd is taken."""
    inverted = hi < lo - 1
    if inverted:
        lo, hi = hi + 1, lo - 1
    num = den = 1
    for j in range(lo, hi + 1):
        x = f(j)
        num *= x.numerator
        den *= x.denominator
    if not inverted:
        return num, den
    if num == 0:
        raise DivisionByZero(f"inverted product over {lo}..{hi} hit a zero factor")
    return den, num


def prod_range(f: SeqFn, lo: int, hi: int) -> Fraction:
    """Product of f(lo)..f(hi) under the extended range convention.

    - hi >= lo:      ordinary product f(lo) * f(lo+1) * ... * f(hi)
    - hi == lo - 1:  empty product, 1
    - hi <= lo - 2:  reciprocal of the forward product over hi+1..lo-1
                     (so e.g. prod(f, 1, -1) == 1 / f(0))

    The inverted case raises DivisionByZero when a touched factor is zero.
    """
    return Fraction(*prod_range_pair(f, lo, hi))
