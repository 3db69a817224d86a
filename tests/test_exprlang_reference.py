"""The compiled evaluator against the tree walk it replaced.

``evaluate`` below is the earlier tree-walking evaluator, kept verbatim with
the tables and helpers it read.  Every compiled section must give its value,
or raise its exception type with its text (suffixed, for the point errors,
with the section and point), at every (n, k) of a grid visited in shuffled
order, across parameter points that alternate, so that hoisted values are
dropped and rebuilt between them.
"""

import io
import operator
import random
from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from typing import Mapping

import pytest

from telesum import exprlang
from telesum.cli import main
from telesum.corpus import q_rising_factorial, rising_factorial
from telesum.errors import DivisionByZero, VerifyError
from telesum.exprlang import (MAX_BITS, MAX_COUNT, Bin, Call, Expr, IdentityConfig, Lit, Neg,
                              NonIntegerExponent, Pow, Prod, ResourceLimit, UnboundVariable,
                              Var, config_to_identity, parse, to_source)
from telesum.rational import ONE, format_rational, rat_div, rat_pow

ROOT = Path(__file__).resolve().parent.parent

# --- the tree walk, verbatim -------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
Binary = namedtuple("Binary", "prec text apply")
Function = namedtuple("Function", "arity apply")

#: Each binary operator, all left-associative: its precedence, its text in
#: to_source and its exact operation.
BINARY = {
    "+": Binary(_PREC_ADD, " + ", operator.add),
    "-": Binary(_PREC_ADD, " - ", operator.sub),
    "*": Binary(_PREC_MUL, "*", operator.mul),
    "/": Binary(_PREC_MUL, "/", rat_div),
}


def _binom(a: Fraction, b: Fraction) -> Fraction:
    m = _count(b, "binom lower index")
    return rising_factorial(a - m + 1, m) / rising_factorial(ONE, m)


#: Each call form but the binder prod: its arity and its evaluator of the
#: evaluated arguments, which finds the factorials by global name per call.
FUNCTIONS = {
    "rf": Function(2, lambda x, m: rising_factorial(x, _count(m, "rf count"))),
    "qrf": Function(3, lambda a, q, m: q_rising_factorial(a, q, _count(m, "qrf count"))),
    "binom": Function(2, _binom),
}


def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise NonIntegerExponent(f"{what} must be an integer, got {format_rational(value)}")
    return int(value)


def _bounded(size: int, what: str) -> int:
    if abs(size) > MAX_COUNT:
        raise ResourceLimit(f"{what} {format_rational(size)} exceeds the limit of {MAX_COUNT}")
    return size


def _count(value: Fraction, what: str) -> int:
    """A non-negative integer count of at most MAX_COUNT."""
    m = _as_int(value, what)
    if m < 0:
        raise NonIntegerExponent(f"{what} must be non-negative")
    return _bounded(m, what)


def evaluate(e: Expr, env: Mapping[str, Fraction]) -> Fraction:
    """Exact evaluation; DivisionByZero marks the point inadmissible."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariable(e.name) from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, Bin):
        return BINARY[e.op].apply(evaluate(e.left, env), evaluate(e.right, env))
    if isinstance(e, Pow):
        exponent = _bounded(_as_int(evaluate(e.exponent, env), "exponent"), "exponent")
        return rat_pow(evaluate(e.base, env), exponent)
    if isinstance(e, Call):
        return FUNCTIONS[e.func].apply(*[evaluate(a, env) for a in e.args])
    if isinstance(e, Prod):
        lo = _as_int(evaluate(e.lo, env), "prod lower bound")
        hi = _as_int(evaluate(e.hi, env), "prod upper bound")
        _bounded(hi - lo, "prod range length")
        inner = dict(env)

        def body(j: int) -> Fraction:
            inner[e.var] = Fraction(j)
            return evaluate(e.body, inner)

        return prod_range(body, lo, hi)
    raise TypeError(f"not an Expr: {e!r}")


def prod_range(f, lo: int, hi: int) -> Fraction:
    """f(lo)...f(hi) as a Fraction loop, with the empty product 1 at hi = lo - 1
    and the reciprocal of f(hi+1)...f(lo-1) for hi <= lo - 2."""
    if hi >= lo:
        p = ONE
        for j in range(lo, hi + 1):
            p *= f(j)
        return p
    if hi == lo - 1:
        return ONE
    p = ONE
    for j in range(hi + 1, lo):
        p *= f(j)
    if p == 0:
        raise DivisionByZero(f"inverted product over {hi + 1}..{lo - 1} hit a zero factor")
    return 1 / p


# --- random expressions ------------------------------------------------------

PARAMS = ("a", "b")
POINTS = [{"a": Fraction(2, 3), "b": Fraction(-5, 7)}, {"a": Fraction(1), "b": Fraction(3)},
          {"a": Fraction(-1, 2), "b": Fraction(1, 2)}]
GRID = [(n, k) for n in range(4) for k in range(5)]


def small(rng: random.Random, names: list[str]) -> Expr:
    """A count, bound or exponent: small, sometimes negative or fractional."""
    leaf = Lit(Fraction(rng.randint(0, 3))) if rng.random() < 0.4 else Var(rng.choice(names))
    roll = rng.random()
    if roll < 0.5:
        return leaf
    if roll < 0.9:
        return Bin(rng.choice("+-"), leaf, Lit(Fraction(rng.randint(0, 2))))
    return Bin("/", leaf, Lit(Fraction(2)))


def expression(rng: random.Random, depth: int, names: list[str]) -> Expr:
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return Lit(Fraction(rng.randint(0, 3)))
        return Var(rng.choice(names))
    sub = lambda: expression(rng, depth - 1, names)  # noqa: E731
    kind = rng.choice(["neg", "bin", "bin", "bin", "pow", "rf", "qrf", "binom", "prod"])
    if kind == "neg":
        return Neg(sub())
    if kind == "bin":
        return Bin(rng.choice("+-*/"), sub(), sub())
    if kind == "pow":
        return Pow(sub(), small(rng, names))
    if kind == "rf":
        return Call("rf", (sub(), small(rng, names)))
    if kind == "qrf":
        return Call("qrf", (sub(), sub(), small(rng, names)))
    if kind == "binom":
        return Call("binom", (sub(), small(rng, names)))
    binder = rng.choice(["j", "n", "k"])
    return Prod(binder, small(rng, names), small(rng, names),
                expression(rng, depth - 1, sorted(set(names) | {binder})))


# --- comparison ----------------------------------------------------------------

def outcome(fn, *args):
    try:
        return fn(*args)
    except VerifyError as exc:
        return type(exc), str(exc)


def expected(expr: Expr, env: dict, suffix: str):
    result = outcome(evaluate, expr, env)
    if isinstance(result, tuple) and result[0] in (NonIntegerExponent, ResourceLimit):
        return result[0], f"{result[1]} ({suffix})"
    return result


def assert_sections_match(lhs: Expr, rhs: Expr, seed: int) -> None:
    """The config's term and rhs at every grid point of alternating points,
    against the tree walk."""
    config = IdentityConfig(name="t", params=PARAMS, require=(), lhs=lhs,
                            range_lo=Lit(Fraction(0)), range_hi=Var("n"), rhs=rhs,
                            cert_u=None, cert_v=None)
    idef = config_to_identity(config)
    rng = random.Random(seed)
    for params in (POINTS[0], POINTS[1], POINTS[0], POINTS[2]):
        grid = GRID[:]
        rng.shuffle(grid)
        for n, k in grid:
            env = {**params, "n": Fraction(n), "k": Fraction(k)}
            assert outcome(idef.term, n, k, params) == \
                expected(lhs, env, f"in lhs at n = {n}, k = {k}"), (to_source(lhs), n, k)
            del env["k"]
            assert outcome(idef.rhs, n, params) == \
                expected(rhs, env, f"in rhs at n = {n}"), (to_source(rhs), n)


def test_random_sections_match_the_tree_walk():
    rng = random.Random(20260)
    for case in range(250):
        lhs = expression(rng, 4, ["n", "k", *PARAMS])
        rhs = expression(rng, 3, ["n", *PARAMS])
        assert_sections_match(lhs, rhs, case)


@pytest.mark.parametrize("lhs, rhs", [
    # index-free subterms that raise, hoisted once per sample
    ("k + 1/(a - a)", "n + 0^(-1)"),
    ("n*k*0^(-1)", "1/(b - b) + n"),
    # a NonIntegerExponent inside a hoisted subterm, at every point
    ("k + a^(1/2)", "n + b^(a/2)"),
    ("k * b^(n/2)", "rf(a, n/2)"),
    ("qrf(a, b, k) * (a*b)^(k - n)", "qrf(b/a, a, n - 1)"),
    # prod binders that shadow an index
    ("prod(n, 1, k, n + a) * n", "prod(n, 0, 2, n*b) + n"),
    ("prod(k, 0, n, k*b + n + a^2) + k", "prod(k, 1, n, k + a/b)"),
    ("prod(j, 1, 3, j*k + a*n + b)", "prod(j, n, 0, j + b)"),
    # inverted ranges that touch a zero factor at some points
    ("prod(j, k, -2, j + n) + k", "prod(j, 3, n, j - 2)"),
])
def test_listed_sections_match_the_tree_walk(lhs, rhs):
    assert_sections_match(parse(lhs), parse(rhs), 0)


# --- the compiled prod's own loop before prod_range_pair, verbatim ------------

def old_product(var, lo, hi, body):
    _as_int, _bounded, _bits, _fits = (exprlang._as_int, exprlang._bounded, exprlang._bits,
                                       exprlang._fits)

    def product(env, memo):
        first = _as_int(lo(env, memo), "prod lower bound")
        last = _as_int(hi(env, memo), "prod upper bound")
        _bounded(last - first, "prod range length")
        inverted = last < first - 1
        if inverted:
            first, last = last + 1, first - 1
        inner, num, den, bits = dict(env), 1, 1, 0
        for j in range(first, last + 1):
            inner[var] = j
            x = Fraction(*body(inner, memo))
            bits += _bits(x)
            _fits(bits, "prod value")
            num, den = num * x.numerator, den * x.denominator
        if not inverted:
            return num, den
        if num == 0:
            raise DivisionByZero(f"inverted product over {first}..{last} hit a zero factor")
        return den, num

    return product


@pytest.mark.parametrize("source, env, raised", [
    # inverted over -3..0: the third factor is zero, and every factor is read
    ("prod(j, 1, -4, rf(j + 1, 1))", {},
     (DivisionByZero, "inverted product over -3..0 hit a zero factor")),
    # 300,001 bits per factor: the fourth crosses MAX_BITS, the fifth is never read
    ("prod(j, 1, 6, rf(x + j, 1))", {"x": Fraction(2 ** 300_000)},
     (ResourceLimit, f"prod value may need 1200004 bits, beyond the limit of {MAX_BITS}")),
])
def test_prod_raises_as_the_old_loop_at_the_same_factor(source, env, raised, monkeypatch):
    read = []

    def counted(x, m):
        read.append(x)
        return rising_factorial(x, m)

    monkeypatch.setattr(exprlang, "rising_factorial", counted)
    tree, compiled = parse(source), exprlang._compile
    old = old_product(tree.var, compiled(tree.lo), compiled(tree.hi), compiled(tree.body))
    results = []
    for code in (compiled(tree), old):
        read.clear()
        results.append((outcome(exprlang.evaluate, code, env), read[:]))
    assert results[0] == results[1]
    assert results[0][0] == raised


def test_one_q_chu_vandermonde_sample_calls_qrf_183_times(monkeypatch):
    # 114 lhs points x 1 (qrf(q^(-n), q, k)), 15 k values x 3 hoisted
    # k-only qrf's, and 12 n values x 2 in rhs; the tree walk made 480 calls
    calls = []

    def counted(*args):
        calls.append(args)
        return q_rising_factorial(*args)

    monkeypatch.setattr(exprlang, "q_rising_factorial", counted)
    config = ROOT / "perfbench" / "configs" / "q_chu_vandermonde.tkid"
    out = io.StringIO()
    assert main(["check", "--config", str(config), "--samples", "1", "--seed", "1729"],
                out=out) == 0
    assert len(calls) == 183
