"""Exact rational scalars, the one pair layer, and the extended product.

Every quantity a public function takes or returns is a
:class:`fractions.Fraction`: unbounded integers, canonical form
(gcd(num, den) = 1, den > 0) after every operation, and exact field
arithmetic.  This module adds the checked operations that
turn Python's ``ZeroDivisionError`` into a typed :class:`DivisionByZero`,
the report serialization format, and ``prod_range_pair``, the product
``prod(f, lo, hi)`` extended to empty and inverted index ranges so that
``prod(f, lo, m-1) * f(m) == prod(f, lo, m)`` holds for *all* integers ``m``.

Inside the checks a rational is an unreduced integer pair (num, den), an
``IntPair``.  Its primitives are here: ``pair_add``, ``pair_sub``,
``pair_mul``, ``pair_div``, ``pair_pow``, and ``pair_lcm_add``, the one
step of a running sum, which alone takes a gcd (Knuth, TAOCP Vol. 2,
4.5.1).  Not every layer calls them:

  * ``exprlang``'s operators are the five arithmetic primitives, and
    ``corpus`` takes its q^k powers, its certificate products and Entry
    25's running products with ``pair_pow``, ``pair_mul`` and ``pair_div``;
  * ``certify`` and ``elementary`` call only ``pair_lcm_add``; elementary
    takes its powers inline (``elementary._scaled``, measured faster);
  * ``Pair`` writes out its + - * (measured faster, see there), and its
    / and ** call ``pair_div`` and ``pair_pow``;
  * the kernel, ``telescope``, calls none: its one walk, its Horner sum
    and its closed form multiply the pairs' parts inline.

``zero_divisor`` and ``zero_to_negative_power`` build the two zero texts
every layer raises.  ``prod_range_pair`` multiplies factors' parts as
plain integers and takes no gcd.  ``Pair`` is the pair as an object, for
the ``sequences`` and ``genhyp`` code written once for any exact
operands; a caller builds a Fraction only for a value it returns or
prints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Union

from .errors import DivisionByZero

Rational = Fraction

#: A total map from integer indices to exact rationals (u_k, v_k, a_n, ...).
SeqFn = Callable[[int], Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


#: A rational as an unreduced integer pair (num, den), den != 0.
IntPair = tuple[int, int]

#: A sequence of rationals given as such pairs.
PairFn = Callable[[int], IntPair]


def zero_divisor(x: "Exact") -> DivisionByZero:
    """The error of dividing x by zero."""
    return DivisionByZero(f"division of {format_rational(x)} by zero")


def zero_to_negative_power(e: int) -> DivisionByZero:
    """The error of raising zero to the negative power e."""
    return DivisionByZero(f"0 raised to negative power {e}")


def pair_add(a: IntPair, b: IntPair) -> IntPair:  # over a shared denominator if equal
    (an, ad), (bn, bd) = a, b
    return (an + bn, ad) if ad == bd else (an * bd + bn * ad, ad * bd)


def pair_sub(a: IntPair, b: IntPair) -> IntPair:
    (an, ad), (bn, bd) = a, b
    return (an - bn, ad) if ad == bd else (an * bd - bn * ad, ad * bd)


def pair_mul(a: IntPair, b: IntPair) -> IntPair:
    return a[0] * b[0], a[1] * b[1]


def pair_div(a: IntPair, b: IntPair) -> IntPair:
    if b[0] == 0:
        raise zero_divisor(Fraction(*a))
    return a[0] * b[1], a[1] * b[0]


def pair_pow(a: IntPair, e: int) -> IntPair:  # for an integer e
    num, den = a
    if e >= 0:
        return num ** e, den ** e
    if num == 0:
        raise zero_to_negative_power(e)
    return den ** -e, num ** -e


def pair_lcm_add(total: IntPair, b: IntPair) -> IntPair:
    """total + b over the lcm of the denominators, for terms that share factors."""
    (num, den), (bn, bd) = total, b
    g = gcd(den, bd)
    return num * (bd // g) + bn * (den // g), den * (bd // g)


class Pair:
    """An exact rational num/den as an unreduced integer pair, den != 0.

    No operation takes a gcd: each multiplies the parts out, so a value's
    parts are a common multiple of its reduced ones and den may be
    negative.  An operand may be a Pair, an int or a Fraction, and
    the result is a Pair; a float is refused.  ``==`` cross-multiplies, and
    hashing reduces, so a Pair equals and hashes like the Fraction of the
    same value.  A zero divisor, or zero raised to a negative power, raises
    DivisionByZero.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1) -> None:
        self.num = num
        self.den = den

    @staticmethod
    def of(x: "Exact") -> "Pair":
        """x as a Pair: itself if it is one, else its numerator and denominator."""
        if isinstance(x, Pair):
            return x
        return Pair(x.numerator, x.denominator)

    def fraction(self) -> Fraction:
        """The reduced Fraction of the same value."""
        return Fraction(self.num, self.den)

    # + - * are written out: calling pair_add, pair_sub and pair_mul made the
    # sequence-parameter suite about 15 % slower.  / and ** call the primitives.
    def __add__(self, other):
        if isinstance(other, Pair):
            c, d = other.num, other.den
        elif type(other) is int:
            return Pair(self.num + other * self.den, self.den)
        else:
            c, d = _parts(other)
            if d is None:
                return NotImplemented
        return Pair(self.num * d + c * self.den, self.den * d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Pair):
            c, d = other.num, other.den
        elif type(other) is int:
            return Pair(self.num - other * self.den, self.den)
        else:
            c, d = _parts(other)
            if d is None:
                return NotImplemented
        return Pair(self.num * d - c * self.den, self.den * d)

    def __rsub__(self, other):
        if type(other) is int:
            return Pair(other * self.den - self.num, self.den)
        c, d = _parts(other)
        if d is None:
            return NotImplemented
        return Pair(c * self.den - self.num * d, d * self.den)

    def __mul__(self, other):
        if isinstance(other, Pair):
            return Pair(self.num * other.num, self.den * other.den)
        if type(other) is int:
            return Pair(self.num * other, self.den)
        c, d = _parts(other)
        if d is None:
            return NotImplemented
        return Pair(self.num * c, self.den * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c, d = _parts(other)
        if d is None:
            return NotImplemented
        return Pair(*pair_div((self.num, self.den), (c, d)))

    def __rtruediv__(self, other):
        c, d = _parts(other)
        if d is None:
            return NotImplemented
        return Pair(*pair_div((c, d), (self.num, self.den)))

    def __neg__(self) -> "Pair":
        return Pair(-self.num, self.den)

    def __pow__(self, e: int) -> "Pair":
        if type(e) is not int:
            return NotImplemented
        return Pair(*pair_pow((self.num, self.den), e))

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if isinstance(other, Pair):
            return self.num * other.den == other.num * self.den
        if type(other) is int:
            return self.num == other * self.den
        c, d = _parts(other)
        if d is None:
            return NotImplemented
        return self.num * d == c * self.den

    def __hash__(self) -> int:
        return hash(self.fraction())

    def __bool__(self) -> bool:
        return self.num != 0

    def __repr__(self) -> str:
        return f"Pair({self.num}, {self.den})"


#: An exact value: a Fraction, an int, or an unreduced Pair.
Exact = Union[Fraction, int, Pair]


def _parts(x: object) -> IntPair | tuple[None, None]:
    """as_pair(x) for an exact x; (None, None) for anything else."""
    return as_pair(x) if isinstance(x, (Pair, int, Fraction)) else (None, None)


def as_pair(x: Exact | IntPair) -> IntPair:
    """x's parts (num, den): an integer pair's or a Pair's as they stand, an
    int's or a Fraction's reduced."""
    if type(x) is tuple:
        return x
    if isinstance(x, Pair):
        return x.num, x.den
    return x.numerator, x.denominator


def as_pairs(f: Callable[[int], Exact]) -> PairFn:
    """The sequence f, each value read as its parts (``as_pair``)."""
    return lambda k: as_pair(f(k))


def rat_div(a: Exact, b: Exact) -> Exact:
    """a / b with a typed error instead of ZeroDivisionError; a Pair
    operand gives a Pair."""
    if b == 0:
        raise zero_divisor(a)
    return a / b


def rat_pow(x: Exact, e: int) -> Exact:
    """x**e for integer e; negative exponents require x != 0."""
    if e < 0 and x == 0:
        raise zero_to_negative_power(e)
    return x ** e


def format_rational(x: Exact) -> str:
    """Serialize as "num/den", collapsing integers to "n" (e.g. "-5/8", "3");
    a Pair is reduced first."""
    if isinstance(x, Pair):
        x = x.fraction()
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
    """Product of f(lo)..f(hi) under the extended range convention, as an
    unreduced integer pair (num, den): the factors are evaluated in index
    order and no gcd is taken.

    - hi >= lo:      ordinary product f(lo) * f(lo+1) * ... * f(hi)
    - hi == lo - 1:  empty product, 1
    - hi <= lo - 2:  reciprocal of the forward product over hi+1..lo-1
                     (so e.g. prod(f, 1, -1) == 1 / f(0))

    The inverted case raises DivisionByZero when a touched factor is zero.
    """
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
