import random
from fractions import Fraction as F

import pytest

from telesum.certify import verify_sample
from telesum.corpus import CORPUS, draw_admissible, evaluate_identity, normalized
from telesum.errors import DivisionByZero, VerifyError
from telesum.exprlang import (Bin, Call, Lit, Neg, NonIntegerExponent, ParseError, Pow,
                              Prod, SchemaError, UnboundVariable, UndefinedRange, Var,
                              config_to_identity, evaluate, free_vars,
                              load_identity_config, parse, parse_config, to_source)
from telesum.sampling import rng_for

BINOMIAL_CONFIG = """\
# terminating binomial sum
name: binomial
params: x
require: x, 1 + x
lhs: binom(n, k) * x^k
range: 0 .. n
rhs: (1 + x)^n
cert_u: x*(n - k + 1)
cert_v: k
"""

FALSE_CONFIG = """\
name: false_claim
params: x
require: x
lhs: binom(n, k) * x^k
range: 0 .. n
rhs: (1 + x)^n + 1
"""


def test_precedence():
    assert evaluate(parse("1 + 2*3"), {}) == 7
    assert evaluate(parse("2^3^2"), {}) == 512  # right-associative
    assert evaluate(parse("-2^2"), {}) == -4    # ^ binds tighter than unary -
    assert evaluate(parse("(1+2)*3"), {}) == 9
    assert evaluate(parse("8/4/2"), {}) == 1    # left-associative


def test_q_binomial_summand_shape():
    e = parse("qrf(q^(-n), q, k) / qrf(q, q, k) * (z*q^n)^k")
    assert isinstance(e, Bin) and e.op == "*"
    assert isinstance(e.left, Bin) and e.left.op == "/"
    assert isinstance(e.left.left, Call) and e.left.left.func == "qrf"
    assert free_vars(e) == {"q", "n", "k", "z"}


def test_prod_empty_range_is_one():
    assert evaluate(parse("prod(j, 1, 0, j)"), {}) == 1


def test_prod_inverted_range_reciprocal():
    # product convention: inverted range gives the reciprocal
    assert evaluate(parse("prod(j, 1, -1, j + 5)"), {}) == F(1, 5)


def test_eval_examples():
    assert evaluate(parse("rf(2, 3)"), {}) == 24
    assert evaluate(parse("q^(-2)"), {"q": F(3)}) == F(1, 9)
    assert evaluate(parse("(1-b)*a - (1-a)*b"), {"a": F(2), "b": F(3)}) == -1
    assert evaluate(parse("binom(5, 2)"), {}) == 10
    assert evaluate(parse("binom(k, 2)"), {"k": F(6)}) == 15
    assert evaluate(parse("qrf(2, 3, 2)"), {}) == 5
    # an unreduced base pair past the bit bound, whose reduced value fits
    assert evaluate(parse("((2^120)/(2^120))^10000"), {}) == 1


def test_eval_errors():
    with pytest.raises(UnboundVariable):
        evaluate(parse("x + 1"), {})
    with pytest.raises(NonIntegerExponent):
        evaluate(parse("2^x"), {"x": F(1, 2)})
    with pytest.raises(DivisionByZero):
        evaluate(parse("1/(x - 1)"), {"x": F(1)})
    with pytest.raises(NonIntegerExponent):
        evaluate(parse("rf(2, -1)"), {})


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("1 + * 2")
    assert err.value.line == 1
    assert err.value.column == 5
    with pytest.raises(ParseError):
        parse("foo(1, 2)")  # unknown function
    with pytest.raises(ParseError):
        parse("(1 + 2")
    with pytest.raises(ParseError) as err:
        parse("1 +\n  $")  # a position after a newline counts from that line
    assert (err.value.line, err.value.column) == (2, 3)
    with pytest.raises(ParseError, match="^prod binder must be a name at line 1, column 6"):
        parse("prod(2, 1, 3, k)")
    with pytest.raises(ParseError, match="^rf takes 2 arguments, got 1 at line 1, column 1"):
        parse("rf(x)")


def _random_expr(rng: random.Random, depth: int, literal=lambda rng: F(rng.randint(0, 9))):
    """A random tree whose literals `literal` draws: by default non-negative
    integers, the only literals a parsed tree holds."""
    leaf_kinds = ("lit", "var")
    kinds = ("add", "sub", "mul", "div", "neg", "pow", "call", "prod")
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.choice(leaf_kinds)
        if kind == "lit":
            return Lit(literal(rng))
        return Var(rng.choice("abqxz"))
    kind = rng.choice(kinds)
    sub = lambda: _random_expr(rng, depth - 1, literal)
    if kind == "add":
        return Bin("+", sub(), sub())
    if kind == "sub":
        return Bin("-", sub(), sub())
    if kind == "mul":
        return Bin("*", sub(), sub())
    if kind == "div":
        return Bin("/", sub(), sub())
    if kind == "neg":
        return Neg(sub())
    if kind == "pow":
        return Pow(sub(), Lit(F(rng.randint(0, 4))))
    if kind == "call":
        return Call("rf", (sub(), Lit(F(rng.randint(0, 3)))))
    return Prod("j", Lit(F(0)), Lit(F(rng.randint(0, 3))), Bin("+", Var("j"), sub()))


def test_round_trip_property():
    rng = random.Random(99)
    for _ in range(400):
        expr = _random_expr(rng, 6)
        assert parse(to_source(expr)) == expr


def _value_or_error(expr, env):
    try:
        return evaluate(expr, env)
    except VerifyError as exc:
        return type(exc)


def test_round_trip_keeps_the_value_of_any_literal():
    rng = random.Random(7)
    env = {name: F(i + 2, i + 3) for i, name in enumerate("abqxz")}
    literal = lambda rng: F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
    for _ in range(400):
        expr = _random_expr(rng, 5, literal)
        assert _value_or_error(parse(to_source(expr)), env) == _value_or_error(expr, env)


@pytest.mark.parametrize("expr, source, value", [
    (Pow(Lit(F(-2)), Lit(F(2))), "(-2)^2", 4),
    (Pow(Lit(F(2, 3)), Lit(F(2))), "(2/3)^2", F(4, 9)),
    (Bin("/", Var("x"), Lit(F(2, 3))), "x/(2/3)", F(3, 2)),
])
def test_to_source_parenthesizes_negative_and_fractional_literals(expr, source, value):
    assert to_source(expr) == source
    assert evaluate(parse(source), {"x": F(1)}) == evaluate(expr, {"x": F(1)}) == value


@pytest.mark.parametrize("text, source", [
    ("1+2*3", "1 + 2*3"),
    ("(1 + 2)*3", "(1 + 2)*3"),
    ("a - b - c", "a - b - c"),
    ("a - (b - c)", "a - (b - c)"),
    ("a + (b - c)", "a + (b - c)"),
    ("a/b*c", "a/b*c"),
    ("a/(b*c)", "a/(b*c)"),
    ("a*(b/c)", "a*(b/c)"),
    ("-a^2", "-a^2"),
    ("(-a)^2", "(-a)^2"),
    ("-(a + b)", "-(a + b)"),
    ("-(-x)", "--x"),
    ("a*(-b)", "a*-b"),
    ("a - -b", "a - -b"),
    ("2^3^2", "2^3^2"),
    ("(2^3)^2", "(2^3)^2"),
    ("x^(-n)", "x^-n"),
    ("2/3", "2/3"),
    ("rf(a+b, 2)*(1-a)/(1-b)", "rf(a + b, 2)*(1 - a)/(1 - b)"),
    ("qrf(q^(-n), q, k)/qrf(q, q, k)*(z*q^n)^k", "qrf(q^-n, q, k)/qrf(q, q, k)*(z*q^n)^k"),
    ("binom(n,k)*x^k", "binom(n, k)*x^k"),
    ("prod(j,1,n,j+x)", "prod(j, 1, n, j + x)"),
])
def test_to_source_text(text, source):
    # spacing around + and - only, minimal parentheses, right-associative ^
    assert to_source(parse(text)) == source


def test_messages_that_embed_to_source():
    config = parse_config("name: r\nparams: x\nrequire: x - 1, 1 + x\nlhs: x^k\n"
                          "range: 0 .. n/(n - 2)\nrhs: x^n\n")
    idef = config_to_identity(config)
    with pytest.raises(UndefinedRange) as err:
        idef.sum_range(2)
    assert str(err.value) == \
        "range bound n/(n - 2) is undefined at n = 2: division of 2 by zero"
    for x, requirement in ((F(1), "x - 1"), (F(-1), "1 + x")):
        with pytest.raises(DivisionByZero) as err:
            idef.rhs(1, {"x": x})
        assert str(err.value) == f"requirement {requirement} = 0"


def test_config_parses_and_matches_builtin_binomial():
    config_id = config_to_identity(parse_config(BINOMIAL_CONFIG))
    builtin = CORPUS["binomial"]
    rng = rng_for(88, "golden")
    for i in range(4):
        params = draw_admissible(builtin, rng, 8)
        for n in range(9):
            assert evaluate_identity(config_id, n, params) == \
                evaluate_identity(builtin, n, params)
    # certificate checks agree status-for-status under the same parameters
    params = draw_admissible(builtin, rng_for(88, "golden2"), 6)
    ours = [(r.check, r.n, r.status) for r in verify_sample(normalized(config_id), 6, params)]
    theirs = [(r.check, r.n, r.status) for r in verify_sample(normalized(builtin), 6, params)]
    assert ours == theirs


def test_config_schema_errors():
    with pytest.raises(SchemaError, match="missing required"):
        parse_config("name: x\nlhs: 1\nrange: 0 .. n\n")
    with pytest.raises(SchemaError, match="unbound"):
        parse_config("name: x\nlhs: w\nrange: 0 .. n\nrhs: 1\n")
    with pytest.raises(SchemaError, match="together"):
        parse_config("name: x\nlhs: 1\nrange: 0 .. n\nrhs: n + 1\ncert_u: k\n")
    with pytest.raises(SchemaError, match="unknown section"):
        parse_config("name: x\nwhat: 1\nlhs: 1\nrange: 0 .. n\nrhs: n + 1\n")
    with pytest.raises(SchemaError, match="duplicate"):
        parse_config("name: x\nname: y\nlhs: 1\nrange: 0 .. n\nrhs: n + 1\n")


def test_false_identity_loads_and_fails_verification():
    config_id = config_to_identity(parse_config(FALSE_CONFIG))
    rng = rng_for(89, "false")
    params = draw_admissible(config_id, rng, 4)
    lhs, rhs = evaluate_identity(config_id, 2, params)
    assert lhs != rhs


def test_load_identity_config_from_file(tmp_path):
    path = tmp_path / "binomial.tkid"
    path.write_text(BINOMIAL_CONFIG, encoding="utf-8")
    idef = load_identity_config(path)
    assert idef.key == "binomial"
    assert idef.certificate is not None
    lhs, rhs = evaluate_identity(idef, 4, {"x": F(3)})
    assert lhs == rhs


def test_config_requirement_rejects_bad_points():
    from telesum.corpus import admissible
    idef = config_to_identity(parse_config(BINOMIAL_CONFIG))
    assert not admissible(idef, 4, {"x": F(0)})
    assert admissible(idef, 4, {"x": F(2)})


def _requiring(value: str) -> str:
    """A config whose require: value, on line 3, is value; its first
    character is column 10."""
    return f"name: r\nparams: x\nrequire: {value}\nlhs: k\nrange: 0 .. n\nrhs: n\n"


def test_require_splits_only_at_top_level_commas():
    config = parse_config("name: r\nparams: x\nrequire: rf(x, 2), 1 + x\n"
                          "lhs: x^k\nrange: 0 .. n\nrhs: (x^(n + 1) - 1)/(x - 1)\n")
    assert config.require == (parse("rf(x, 2)"), parse("1 + x"))
    assert parse_config(_requiring("x,\t1")).require == (parse("x"), parse("1"))
    assert parse_config(_requiring("  x  ,  rf( x , 2 )  ")).require == (parse("x"),
                                                                         parse("rf(x, 2)"))
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse_config("name: r\nparams: x\nrequire: rf(x, 2\nlhs: k\nrange: 0 .. n\nrhs: n\n")


_END = "unexpected 'end of input'"
_OPERAND = " (expected a number, a name, '(')"


@pytest.mark.parametrize("text, line, column, message", [
    ("# comment\n\nname: r\nparams: x\nlhs: k^²\nrange: 0 .. n\nrhs: n\n", 5, 8,
     "unexpected character '²'"),
    ("name: r\nparams: x\n  lhs:   1 + * x\nrange: 0 .. n\nrhs: n\n", 3, 14,
     "unexpected '*'" + _OPERAND),
    (_requiring("x, 1 + x, rf(x, 2"), 3, 27, _END + " (expected ')')"),
    ("name: r\nparams: x\nlhs: k\nrange: 0 .. n +\nrhs: n\n", 4, 16, _END + _OPERAND),
    ("name: r\nparams: x\nlhs: k\nrange: 0 .. n\nrhs: n\ncert_u: 1\ncert_v: (k\n", 7, 11,
     _END + " (expected ')')"),
    ("name: r\nparams: x\nlhs: prod(2, 1, 3, k)\nrange: 0 .. n\nrhs: n\n", 3, 11,
     "prod binder must be a name (expected a name)"),
    ("name: r\nparams: x\nlhs: k\nrange: 0 .. n\nrhs: qrf(x, n)\n", 5, 6,
     "qrf takes 3 arguments, got 2"),
    # a require: list is read by the expression grammar, a comma inside a
    # call belonging to the call
    (_requiring("x,"), 3, 12, _END + _OPERAND),
    (_requiring("x, "), 3, 12, _END + _OPERAND),
    (_requiring("x, 1 + "), 3, 16, _END + _OPERAND),
    (_requiring("x), 1"), 3, 11, "trailing input ')' (expected end of input)"),
    (_requiring("(x, 1)"), 3, 12, "unexpected ',' (expected ')')"),
    (_requiring("x^(1, 2)"), 3, 14, "unexpected ',' (expected ')')"),
    (_requiring("qrf(x, x, 2, 3)"), 3, 10, "qrf takes 3 arguments, got 4"),
    (_requiring("x,\t1 +"), 3, 16, _END + _OPERAND),
    (_requiring("  x  ,  rf( x , 2 ) )"), 3, 30, "trailing input ')' (expected end of input)"),
    # an item that ends before its comma, empty or not, meets the comma
    (_requiring("x, , 1"), 3, 13, "unexpected ','" + _OPERAND),
    (_requiring(",x"), 3, 10, "unexpected ','" + _OPERAND),
    (_requiring("x,,"), 3, 12, "unexpected ','" + _OPERAND),
    (_requiring("x +, 1"), 3, 13, "unexpected ','" + _OPERAND),
    # the whole value is tokenized first, as one expression is
    (_requiring("x +, $"), 3, 15, "unexpected character '$'"),
])
def test_config_parse_errors_are_located_in_the_file(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value).count(f"at line {line}, column {column}") == 1
    assert str(err.value).replace(f" at line {line}, column {column}", "") == message


def test_parse_still_refuses_a_list():
    with pytest.raises(ParseError) as err:
        parse("x, 1")
    assert str(err.value) == "trailing input ',' at line 1, column 2 (expected end of input)"
