import operator
from fractions import Fraction as F

import pytest

from telesum.errors import DivisionByZero
from telesum.rational import (Pair, as_pair, const, format_rational, pair_add, pair_div,
                              pair_lcm_add, pair_mul, pair_pow, pair_sub, prod_range_pair,
                              rat_div, rat_pow, seq)
from telesum.sampling import rng_for, sample_rational


def test_exact_fraction_addition():
    assert F(2, 3) + F(1, 6) == F(5, 6)


def test_negative_integer_power():
    assert rat_pow(F(2), -3) == F(1, 8)


def test_inverse_pair():
    assert F(3, 5) * F(5, 3) == 1


def test_rat_div_by_zero():
    with pytest.raises(DivisionByZero):
        rat_div(F(1), F(0))
    with pytest.raises(DivisionByZero):
        rat_pow(F(0), -2)


def test_canonical_form_after_operations():
    rng = rng_for(1, "canonical")
    for _ in range(300):
        a = sample_rational(rng)
        b = sample_rational(rng)
        for value in (a + b, a - b, a * b, rat_div(a, b)):
            assert value.denominator > 0
            from math import gcd
            assert gcd(abs(value.numerator), value.denominator) == 1


def test_field_axioms_spot_checked():
    rng = rng_for(2, "axioms")
    for _ in range(200):
        a, b, c = (sample_rational(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a


def test_prod_range_empty():
    f = const(F(9))
    assert prod_range_pair(f, 1, 0) == (1, 1)


def test_prod_range_inverted_single():
    f = seq([F(5)], start=0)
    assert prod_range_pair(f, 1, -1) == (1, 5)


def test_prod_range_forward():
    f = lambda j: F(j)
    assert prod_range_pair(f, 2, 5) == (120, 1)


def test_prod_range_pair_is_unreduced_and_keeps_the_convention():
    f = lambda j: F(j, 5 - j)  # 2/3, 3/2, 4
    assert prod_range_pair(f, 2, 4) == (24, 6)
    assert prod_range_pair(f, 5, 1) == (6, 24)  # 1 / (f(2) f(3) f(4))
    assert prod_range_pair(f, 2, 1) == (1, 1)


def test_prod_range_inverted_zero_factor():
    f = lambda j: F(j)  # f(0) = 0
    with pytest.raises(DivisionByZero):
        prod_range_pair(f, 1, -1)


def test_prod_range_extension_law_exhaustive():
    # prod(f, lo, m-1) * f(m) == prod(f, lo, m) for every -8 <= lo, m <= 8
    rng = rng_for(3, "extension")
    values = {j: sample_rational(rng) for j in range(-10, 11)}
    f = lambda j: values[j]
    for lo in range(-8, 9):
        for m in range(-8, 9):
            assert F(*prod_range_pair(f, lo, m - 1)) * f(m) == F(*prod_range_pair(f, lo, m))


def test_format_rational():
    assert format_rational(F(-5, 8)) == "-5/8"
    assert format_rational(F(7)) == "7"
    assert format_rational(F(0)) == "0"
    assert format_rational(F(-12, 4)) == "-3"


def test_format_rational_beyond_the_int_digit_limit():
    big = 10 ** 5000 + 7
    assert format_rational(F(big)) == "1" + "0" * 4998 + "07"
    assert format_rational(F(-big, 3)) == "-1" + "0" * 4998 + "07/3"
    assert format_rational(F(3, 2 ** 20000)).endswith("09376")  # 2^20000 = ...09376
    assert len(format_rational(F(1, 2 ** 20000))) == 2 + 6021


def test_seq_is_defined_only_on_its_range():
    f = seq([1, 2, 3])
    assert [f(k) for k in range(3)] == [1, 2, 3]
    with pytest.raises(IndexError):
        f(-1)
    with pytest.raises(IndexError):
        f(3)
    g = seq([5, 6], start=1)
    assert (g(1), g(2)) == (5, 6)
    with pytest.raises(IndexError):
        g(0)


# --- Pair: the unreduced exact value ---------------------------------------------

def _operands(rng):
    x = sample_rational(rng)
    return [x, Pair(x.numerator * 6, x.denominator * 6), Pair(-x.numerator, -x.denominator),
            rng.randint(-5, 5)]


def test_pair_arithmetic_matches_fraction_arithmetic():
    ops = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b]
    for i in range(200):
        rng = rng_for(2601, "pair ops", i)
        for a in _operands(rng):
            for b in _operands(rng):
                if not (isinstance(a, Pair) or isinstance(b, Pair)):
                    continue
                fa, fb = F(*as_pair(a)), F(*as_pair(b))
                for op in ops[:3] + ops[3:] * (fb != 0):
                    got = op(a, b)
                    assert type(got) is Pair
                    assert got == op(fa, fb) and op(fa, fb) == got
            if isinstance(a, Pair):
                for e in range(-3, 4):
                    if e >= 0 or a != 0:
                        assert a ** e == F(*as_pair(a)) ** e


def test_pair_takes_no_gcd_and_formats_reduced():
    x = Pair(6, 4) * Pair(2, 2)
    assert (x.num, x.den) == (12, 8)
    assert x == F(3, 2) and x != F(2, 3) and x == Pair(-3, -2)
    assert format_rational(Pair(12, -8)) == "-3/2" and format_rational(Pair(0, -7)) == "0"
    assert Pair(12, -8).fraction() == F(-3, 2) and type(Pair(4, 2).fraction()) is F
    assert hash(Pair(4, 2)) == hash(2) and hash(Pair(-3, -6)) == hash(F(1, 2))
    assert -Pair(1, 3) == F(-1, 3) and 1 - Pair(1, 3) == F(2, 3) and 1 / Pair(2, 3) == F(3, 2)
    assert not Pair(0, 5) and Pair(1, 5)
    assert Pair.of(F(3, 4)) == Pair(3, 4) and Pair.of(5) == 5


def test_pair_refuses_a_float():
    with pytest.raises(TypeError):
        Pair(1, 2) * -1.0
    with pytest.raises(TypeError):
        -1.0 * Pair(1, 2)
    with pytest.raises(TypeError):
        Pair(1, 2) + 0.5
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.pow):
        for a, b in ((Pair(1, 2), 0.5), (0.5, Pair(1, 2))):
            with pytest.raises(TypeError):
                op(a, b)
    assert not Pair(1, 2) == 0.5 and not 0.5 == Pair(1, 2)


def test_pair_zero_divisor_raises_division_by_zero():
    with pytest.raises(DivisionByZero, match=r"^division of 3/2 by zero$"):
        Pair(6, 4) / Pair(0, 3)
    with pytest.raises(DivisionByZero, match=r"^division of -1/3 by zero$"):
        Pair(2, -6) / 0
    with pytest.raises(DivisionByZero, match=r"^division of 5 by zero$"):
        5 / Pair(0, 2)
    with pytest.raises(DivisionByZero, match=r"^division of 2/3 by zero$"):
        F(2, 3) / Pair(0, 1)
    with pytest.raises(DivisionByZero, match=r"^0 raised to negative power -2$"):
        Pair(0, 4) ** -2
    # rat_div and rat_pow give the Fraction texts for Pairs too
    for a, b in ((Pair(6, 4), Pair(0, 3)), (F(3, 2), F(0))):
        with pytest.raises(DivisionByZero, match=r"^division of 3/2 by zero$"):
            rat_div(a, b)
    with pytest.raises(DivisionByZero, match=r"^0 raised to negative power -1$"):
        rat_pow(Pair(0, 3), -1)


# --- The pair primitives ----------------------------------------------------------

def _random_pair(rng):
    """An unreduced pair: a sampled value, zero now and then, its parts scaled
    by a common factor of either sign."""
    x = sample_rational(rng) if rng.random() < 0.8 else F(0)
    scale = rng.choice([1, -1, 2, -3, 6, 35])
    return x.numerator * scale, x.denominator * scale


def test_pair_primitives_match_fraction():
    binary = {pair_add: F.__add__, pair_sub: F.__sub__, pair_mul: F.__mul__,
              pair_lcm_add: F.__add__}
    rng = rng_for(2601, "primitives")
    for _ in range(500):
        a, b = _random_pair(rng), _random_pair(rng)
        fa, fb = F(*a), F(*b)
        for primitive, op in binary.items():
            got = primitive(a, b)
            assert got[1] != 0 and F(*got) == op(fa, fb)
        if fb != 0:
            assert F(*pair_div(a, b)) == fa / fb
        for e in range(-4, 5):
            if e >= 0 or fa != 0:
                assert F(*pair_pow(a, e)) == fa ** e


def test_pair_primitives_take_no_gcd_but_the_running_sum():
    assert pair_add((1, 6), (1, 6)) == (2, 6)  # a shared denominator is kept
    assert pair_sub((1, 4), (1, 6)) == (2, 24)
    assert pair_mul((2, 4), (3, -6)) == (6, -24)
    assert pair_div((2, 4), (3, -6)) == (-12, 12)
    assert pair_pow((2, -4), -3) == (-64, 8)
    assert pair_lcm_add((1, 4), (1, 6)) == (5, 12)  # over lcm(4, 6)


def test_pair_primitives_raise_the_shared_texts():
    with pytest.raises(DivisionByZero) as exc:
        pair_div((6, -4), (0, 7))
    assert str(exc.value) == "division of -3/2 by zero"
    with pytest.raises(DivisionByZero) as exc:
        pair_pow((0, 5), -3)
    assert str(exc.value) == "0 raised to negative power -3"
    assert pair_pow((0, 5), 0) == (1, 1) and pair_pow((0, 5), 2) == (0, 25)
