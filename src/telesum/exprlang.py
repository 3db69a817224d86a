"""A small expression language for user-defined identities.

Expressions support integer literals, variables, + - * / ^ (integer
exponents, possibly negative, possibly variable-valued), unary minus, and
four call forms:

    rf(x, m)            rising factorial x (x+1) ... (x+m-1)
    qrf(a, q, m)        q-rising factorial (1-a)(1-aq)...(1-a q^(m-1))
    binom(a, b)         binomial coefficient a (a-1) ... (a-b+1) / b!
    prod(j, lo, hi, e)  product of e over j = lo..hi under the extended
                        range convention (empty -> 1, inverted -> reciprocal)

Precedence: ^  >  unary -  >  * /  >  + -, with ^ right-associative and the
binary operators left-associative.  ``BINARY`` declares each binary operator
(precedence, printed text, operation) and ``FUNCTIONS`` each call form but
prod (arity, operation).  Rational constants are written with / (e.g. 2/3);
the token grammar has integer literals only.

Evaluation compiles a syntax tree into closures over unreduced integer
pairs (num, den), which take one gcd per returned value (``evaluate``).
Their arithmetic is the ``rational`` pair layer: ``BINARY`` holds its
``pair_add``, ``pair_sub``, ``pair_mul`` and ``pair_div``, and ^ is its
``pair_pow``, so a zero divisor or 0 to a negative power raises the text
every suite raises.  Three more rules:

  * Compile once.  ``config_to_identity`` compiles each section once; a
    bare tree passed to ``evaluate`` is compiled at that call.
  * Hoisting.  lhs, cert_u and cert_v read the indices n and k; rhs and
    require read n.  A non-leaf subterm that reads no prod binder, and
    fewer of them than its section or the nearest hoisted subterm around
    it, is computed once per sample and value of the indices it reads
    (Aho, Lam, Sethi & Ullman, Compilers, 9.5).  Its values are held by the
    sample's point and freed with it; one that raises stores nothing and
    raises again, with the same text, wherever it is read.
  * ``MAX_BITS``.  ^, rf, qrf, binom and prod raise ResourceLimit, before
    they compute, when a bound on their result's bit length exceeds
    MAX_BITS.  + - * / add at most their operands' bits, so a value has at
    most about MAX_BITS bits per node of its tree.

Identity config files are line-oriented UTF-8 text, one identity per file:

    name:   binomial            # required; an identifier
    params: x                   # optional; comma-separated identifiers
    require: x, 1 + x           # optional; exprs that must be nonzero
    lhs:    binom(n, k) * x^k   # required; summand in n, k, params
    range:  0 .. n              # required; summation bounds, exprs in n
    rhs:    (1 + x)^n           # required; closed form in n, params
    cert_u: x*(n - k + 1)       # optional; both cert_u and cert_v or neither
    cert_v: k

'#' starts a comment; blank lines are ignored; each section is one line.
require is a comma-separated list read by the expression grammar, so a
comma inside a call's parentheses, as in rf(x, 2), belongs to the call.
A leading UTF-8 byte order mark is skipped.  An error an expression raises
at a sample point (a non-integer exponent, count or bound, a count past
MAX_COUNT or a value past MAX_BITS) names its section and the n and k it
was raised at.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from .certify import Certificate, Row, by_row, sample_value
from .corpus import IdentityDef, Param, q_rising_factorial, rising_factorial
from .errors import DivisionByZero, VerifyError
from .rational import (ONE, IntPair, as_pair, format_rational, pair_add, pair_div, pair_mul,
                       pair_pow, pair_sub, prod_range_pair)


class ParseError(ValueError):
    """Syntax error with position and the expected-token set."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at line {line}, column {column}{hint}")


class SchemaError(ValueError):
    """A config file is missing or misusing a section."""


class UnboundVariable(VerifyError):
    pass


class NonIntegerExponent(VerifyError):
    """An integer-valued expression was required (exponent, count, bound)."""


class ResourceLimit(VerifyError):
    """An exponent, count or range length beyond MAX_COUNT, or a value
    beyond MAX_BITS; it stops the run (an Inadmissible would only reject
    the draw)."""


class UndefinedRange(VerifyError):
    """A summation bound divides by zero.  The range depends on n alone, so
    no redraw of the parameters can help; it stops the run."""


#: The largest exponent of ^, rf/qrf count, binom lower index and prod or
#: summation range length a config may ask for.
MAX_COUNT = 10_000

#: The most bits a value of ^, rf, qrf, binom or prod may need: a bound on
#: its numerator and denominator, checked before it is computed.  The sums
#: of the paper reach a few thousand bits.
MAX_BITS = 2 ** 20

#: The largest n a config identity is checked at when --n-max is not given.
CONFIG_N_MAX = 10


# --- AST ------------------------------------------------------------------

class Lit(NamedTuple):
    value: Fraction


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    arg: "Expr"


class Bin(NamedTuple):
    op: str  # a key of BINARY
    left: "Expr"
    right: "Expr"


class Pow(NamedTuple):
    base: "Expr"
    exponent: "Expr"


class Call(NamedTuple):
    func: str  # a key of FUNCTIONS
    args: tuple["Expr", ...]


class Prod(NamedTuple):
    var: str
    lo: "Expr"
    hi: "Expr"
    body: "Expr"


Expr = Lit | Var | Neg | Bin | Pow | Call | Prod


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
Binary = namedtuple("Binary", "prec text apply")
Function = namedtuple("Function", "arity apply")

#: Each binary operator, all left-associative: its precedence, its text in
#: to_source and its exact operation on integer pairs, a rational primitive.
BINARY = {
    "+": Binary(_PREC_ADD, " + ", pair_add),
    "-": Binary(_PREC_ADD, " - ", pair_sub),
    "*": Binary(_PREC_MUL, "*", pair_mul),
    "/": Binary(_PREC_MUL, "/", pair_div),
}


def _rf(x: IntPair, m: IntPair) -> IntPair:
    x, m = Fraction(*x), _count(m, "rf count")
    _fits(_rf_bits(x, m), "rf value")
    return as_pair(rising_factorial(x, m))


def _qrf(a: IntPair, q: IntPair, m: IntPair) -> IntPair:
    a, q, m = Fraction(*a), Fraction(*q), _count(m, "qrf count")
    # factor i is at most 2 max(|p|, d) max(|r|, s)^i for a = p/d, q = r/s
    _fits(m * (_bits(a) + 1) + _bits(q) * (m * (m - 1) // 2), "qrf value")
    return as_pair(q_rising_factorial(a, q, m))


def _binom(a: IntPair, b: IntPair) -> IntPair:
    m = _count(b, "binom lower index")
    x = Fraction(a[0] - (m - 1) * a[1], a[1])  # a - m + 1
    _fits(_rf_bits(x, m) + _rf_bits(ONE, m), "binom value")
    return pair_div(as_pair(rising_factorial(x, m)), as_pair(rising_factorial(ONE, m)))


#: Each call form but the binder prod: its arity and its operation on the
#: argument pairs, which finds the factorials by global name per call.
FUNCTIONS = {"rf": Function(2, _rf), "qrf": Function(3, _qrf), "binom": Function(2, _binom)}


# --- Tokenizer --------------------------------------------------------------

class _Tok(NamedTuple):
    kind: str  # int | name | op | end
    text: str
    line: int
    column: int


_OPS = set(BINARY) | set("^(),")
#: Only ASCII digits start an integer literal: str.isdigit also accepts
#: superscripts such as '²', which int() rejects.
_DIGITS = set("0123456789")


def _tokenize(text: str, line: int = 1, col: int = 1) -> list[_Tok]:
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            toks.append(_Tok("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            toks.append(_Tok("op", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("end", "", line, col))
    return toks


# --- Parser -----------------------------------------------------------------

#: The deepest syntax tree, and the deepest nesting of parentheses, signs,
#: exponents and call arguments, that ``parse`` accepts.  Deeper input is a
#: ParseError, so no parse, print or evaluation exhausts the Python stack.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; each rule returns its node and the node's depth."""

    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0
        self.nesting = 0

    @property
    def cur(self) -> _Tok:
        return self.toks[self.pos]

    def _take_op(self, *ops: str) -> _Tok | None:
        t = self.cur
        if t.kind == "op" and t.text in ops:
            self.pos += 1
            return t
        return None

    def _expect_op(self, op: str) -> None:
        if not self._take_op(op):
            t = self.cur
            raise ParseError(f"unexpected {t.text or 'end of input'!r}", t.line, t.column,
                             expected=(repr(op),))

    def _deeper(self, t: _Tok, *depths: int) -> int:
        """One level below the deepest of depths; beyond MAX_DEPTH, a ParseError at t."""
        depth = 1 + max(depths)
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels",
                             t.line, t.column)
        return depth

    def expr(self, minimum: int = _PREC_ADD) -> tuple[Expr, int]:
        """Factors joined, left-associatively, by the binary operators of
        precedence at least minimum (precedence climbing)."""
        node, depth = self.factor()
        while (op := self.cur).text in BINARY and BINARY[op.text].prec >= minimum:
            self.pos += 1
            right, right_depth = self.expr(BINARY[op.text].prec + 1)
            node = Bin(op.text, node, right)
            depth = self._deeper(op, depth, right_depth)
        return node, depth

    def factor(self) -> tuple[Expr, int]:
        t = self.cur
        self.nesting = self._deeper(t, self.nesting)
        if self._take_op("-"):
            arg, depth = self.factor()
            node, depth = Neg(arg), self._deeper(t, depth)
        else:
            node, depth = self.power()
        self.nesting -= 1
        return node, depth

    def power(self) -> tuple[Expr, int]:
        base, depth = self.atom()
        if (op := self._take_op("^")) is not None:
            exponent, exponent_depth = self.factor()
            return Pow(base, exponent), self._deeper(op, depth, exponent_depth)
        return base, depth

    def atom(self) -> tuple[Expr, int]:
        t = self.cur
        if t.kind == "int":
            self.pos += 1
            try:
                value = int(t.text)
            except ValueError:  # beyond the interpreter's int_max_str_digits
                raise ParseError(f"integer literal of {len(t.text)} digits is too long",
                                 t.line, t.column) from None
            return Lit(Fraction(value)), 1
        if t.kind == "name":
            self.pos += 1
            if self.cur.kind == "op" and self.cur.text == "(":
                return self._call(t)
            return Var(t.text), 1
        if self._take_op("("):
            node = self.expr()
            self._expect_op(")")
            return node
        raise ParseError(f"unexpected {t.text or 'end of input'!r}", t.line, t.column,
                         expected=("a number", "a name", "'('"))

    def exprs(self) -> list[tuple[Expr, int]]:
        """Expressions joined by commas; a call reads the commas in its parentheses."""
        items = [self.expr()]
        while self._take_op(","):
            items.append(self.expr())
        return items

    def _call(self, name_tok: _Tok) -> tuple[Expr, int]:
        name = name_tok.text
        self._expect_op("(")
        if name == "prod":
            binder = self.cur
            if binder.kind != "name":
                raise ParseError("prod binder must be a name", binder.line, binder.column,
                                 expected=("a name",))
            self.pos += 1
            self._expect_op(",")
            lo, lo_depth = self.expr()
            self._expect_op(",")
            hi, hi_depth = self.expr()
            self._expect_op(",")
            body, body_depth = self.expr()
            self._expect_op(")")
            return (Prod(binder.text, lo, hi, body),
                    self._deeper(name_tok, lo_depth, hi_depth, body_depth))
        if name not in FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", name_tok.line, name_tok.column,
                             expected=tuple(sorted(FUNCTIONS) + ["prod"]))
        args = self.exprs()
        self._expect_op(")")
        if len(args) != FUNCTIONS[name].arity:
            raise ParseError(f"{name} takes {FUNCTIONS[name].arity} arguments, got {len(args)}",
                             name_tok.line, name_tok.column)
        nodes, depths = zip(*args)
        return Call(name, nodes), self._deeper(name_tok, *depths)


def _parse(text: str, line: int, column: int, many: bool) -> list[Expr]:
    """The one expression that is text, or if many the comma-separated
    expressions that are text, located as if text began at (line, column)."""
    parser = _Parser(_tokenize(text, line, column))
    nodes = [node for node, _ in (parser.exprs() if many else [parser.expr()])]
    tail = parser.cur
    if tail.kind != "end":
        raise ParseError(f"trailing input {tail.text!r}", tail.line, tail.column,
                         expected=("end of input",))
    return nodes


def parse(text: str, line: int = 1, column: int = 1) -> Expr:
    """The syntax tree of text; a ParseError for bad syntax or a tree deeper
    than MAX_DEPTH, located as if text began at (line, column) of a file."""
    return _parse(text, line, column, many=False)[0]


# --- Printing ----------------------------------------------------------------

def _prec(e: Expr) -> int:
    if isinstance(e, Bin):
        return BINARY[e.op].prec
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Lit) and e.value.denominator != 1:
        return _PREC_MUL  # printed as p/q
    if isinstance(e, Neg) or isinstance(e, Lit) and e.value < 0:
        return _PREC_NEG  # a Lit printed as -p
    return _PREC_ATOM


def to_source(e: Expr) -> str:
    """Minimal-parentheses rendering.  parse(to_source(e)) == e structurally
    for a parsed tree, whose literals are non-negative integers, and has the
    value of e for any tree."""

    def wrap(child: Expr, minimum: int) -> str:
        text = to_source(child)
        return f"({text})" if _prec(child) < minimum else text

    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + wrap(e.arg, _PREC_NEG)
    if isinstance(e, Bin):
        prec, text, _ = BINARY[e.op]
        return f"{wrap(e.left, prec)}{text}{wrap(e.right, prec + 1)}"
    if isinstance(e, Pow):
        return f"{wrap(e.base, _PREC_ATOM)}^{wrap(e.exponent, _PREC_NEG)}"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(to_source(a) for a in e.args)})"
    if isinstance(e, Prod):
        return f"prod({e.var}, {to_source(e.lo)}, {to_source(e.hi)}, {to_source(e.body)})"
    raise TypeError(f"not an Expr: {e!r}")


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Lit):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return free_vars(e.arg)
    if isinstance(e, Bin):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Pow):
        return free_vars(e.base) | free_vars(e.exponent)
    if isinstance(e, Call):
        return set().union(*map(free_vars, e.args))
    if isinstance(e, Prod):
        return free_vars(e.lo) | free_vars(e.hi) | (free_vars(e.body) - {e.var})
    raise TypeError(f"not an Expr: {e!r}")


# --- Evaluation ---------------------------------------------------------------

#: A compiled expression: its value at (env, memo) as an integer pair.  memo
#: holds the values of hoisted subterms (see _compile).
Code = Callable[[Mapping[str, Fraction], dict], IntPair]


def _as_int(value: IntPair, what: str) -> int:
    num, den = value
    if num % den:
        raise NonIntegerExponent(f"{what} must be an integer, got "
                                 f"{format_rational(Fraction(num, den))}")
    return num // den


def _bounded(size: int, what: str) -> int:
    if abs(size) > MAX_COUNT:
        raise ResourceLimit(f"{what} {format_rational(size)} exceeds the limit of {MAX_COUNT}")
    return size


def _count(value: IntPair, what: str) -> int:
    """A non-negative integer count of at most MAX_COUNT."""
    m = _as_int(value, what)
    if m < 0:
        raise NonIntegerExponent(f"{what} must be non-negative")
    return _bounded(m, what)


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _rf_bits(x: Fraction, m: int) -> int:
    """A bound on the bits of (x)_m: each factor is at most |p| + m d for x = p/d."""
    return m * (max(x.numerator.bit_length(), x.denominator.bit_length() + m.bit_length()) + 1)


def _fits(bits: int, what: str) -> None:
    """Raise ResourceLimit if a value bounded by bits bits would exceed MAX_BITS."""
    if bits > MAX_BITS:
        raise ResourceLimit(f"{what} may need {bits} bits, beyond the limit of {MAX_BITS}")


def _power(base: Code, exponent: Code) -> Code:
    def power(env, memo):
        e = _bounded(_as_int(exponent(env, memo), "exponent"), "exponent")
        num, den = base(env, memo)
        if abs(e) * max(num.bit_length(), den.bit_length()) > MAX_BITS:
            x = Fraction(num, den)  # the bound is on the value, not the pair
            _fits(abs(e) * _bits(x), "power")
            num, den = as_pair(x)
        return pair_pow((num, den), e)

    return power


def _product(var: str, lo: Code, hi: Code, body: Code) -> Code:
    """prod(var, lo, hi, body) by rational.prod_range_pair, over reduced
    factors, with their bits summed against MAX_BITS."""

    def product(env, memo):
        first = _as_int(lo(env, memo), "prod lower bound")
        last = _as_int(hi(env, memo), "prod upper bound")
        _bounded(last - first, "prod range length")
        inner, bits = dict(env), 0

        def factor(j: int) -> Fraction:
            nonlocal bits
            inner[var] = j
            x = Fraction(*body(inner, memo))
            bits += _bits(x)
            _fits(bits, "prod value")
            return x

        return prod_range_pair(factor, first, last)

    return product


def _hoisted(code: Code, reads: frozenset[str]) -> Code:
    """code with its values kept in memo, one per value of the index it reads."""
    index = next(iter(reads), None)  # a hoisted subterm reads at most one index

    def hoisted(env, memo):
        key = code if index is None else (code, env[index])
        value = memo.get(key)
        if value is None:
            value = memo[key] = code(env, memo)
        return value

    return hoisted


def _compile(e: Expr, indices: frozenset[str] = frozenset(),
             binders: frozenset[str] = frozenset()) -> Code:
    """e as a Code.  A non-leaf subterm that reads none of binders (the
    enclosing prod binders) and only part of indices is hoisted: its Code
    keeps one value in memo per value of the indices it reads, and its own
    subterms are compiled with those indices."""
    if isinstance(e, Lit):
        value = as_pair(e.value)
        return lambda env, memo: value
    if isinstance(e, Var):
        name = e.name

        def var(env, memo):
            try:
                return as_pair(env[name])
            except KeyError:
                raise UnboundVariable(name) from None

        return var
    if indices:
        free = free_vars(e)
        reads = indices & free
        if reads < indices and not free & binders:
            return _hoisted(_compile(e, reads, binders), reads)

    def sub(child: Expr) -> Code:
        return _compile(child, indices, binders)

    if isinstance(e, Neg):
        arg = sub(e.arg)
        return lambda env, memo: pair_sub((0, 1), arg(env, memo))
    if isinstance(e, Bin):
        left, right, apply = sub(e.left), sub(e.right), BINARY[e.op].apply
        return lambda env, memo: apply(left(env, memo), right(env, memo))
    if isinstance(e, Pow):
        return _power(sub(e.base), sub(e.exponent))
    if isinstance(e, Call):
        args, apply = [sub(a) for a in e.args], FUNCTIONS[e.func].apply
        return lambda env, memo: apply(*[arg(env, memo) for arg in args])
    if isinstance(e, Prod):
        return _product(e.var, sub(e.lo), sub(e.hi),
                        _compile(e.body, indices, binders | {e.var}))
    raise TypeError(f"not an Expr: {e!r}")


def evaluate(e: Expr | Code, env: Mapping[str, Fraction],
             memo: dict | None = None) -> Fraction:
    """The exact value of e at env; DivisionByZero marks the point inadmissible.

    e is a syntax tree, compiled at this call, or a Code that
    config_to_identity compiled once per section.  A Code works on unreduced
    integer pairs, so the one gcd of an evaluation is taken here, where the
    Fraction is built.  memo holds the hoisted values of a section's Code
    for one parameter point: a subterm that reads no prod binder, and fewer
    indices than its section or the nearest hoisted subterm around it, is
    computed once per value of the indices it reads (see _compile).  ^, rf,
    qrf, binom and prod raise ResourceLimit, before they compute, when
    their result may exceed MAX_BITS bits.
    """
    code = e if callable(e) else _compile(e)
    return Fraction(*code(env, {} if memo is None else memo))


# --- Identity config files -----------------------------------------------------

_SECTIONS = ("name", "params", "require", "lhs", "range", "rhs", "cert_u", "cert_v")
_RESERVED = {"n", "k", "prod", *FUNCTIONS}


class IdentityConfig(NamedTuple):
    name: str
    params: tuple[str, ...]
    require: tuple[Expr, ...]
    lhs: Expr
    range_lo: Expr
    range_hi: Expr
    rhs: Expr
    cert_u: Expr | None
    cert_v: Expr | None


def parse_config(text: str) -> IdentityConfig:
    sections: dict[str, str] = {}
    origin: dict[str, tuple[int, int]] = {}  # line and column of each value in the file
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if ":" not in line:
            raise SchemaError(f"line {lineno}: expected 'section: value'")
        head, value = line.split(":", 1)
        key = head.strip()
        if key not in _SECTIONS:
            raise SchemaError(f"line {lineno}: unknown section {key!r}")
        if key in sections:
            raise SchemaError(f"line {lineno}: duplicate section {key!r}")
        sections[key] = value.strip()
        origin[key] = (lineno, len(head) + 2 + len(value) - len(value.lstrip()))

    def at(key: str, offset: int = 0) -> tuple[int, int]:
        """The file position offset characters into key's value."""
        line, column = origin[key]
        return line, column + offset

    for required in ("name", "lhs", "range", "rhs"):
        if required not in sections:
            raise SchemaError(f"missing required section {required!r}")
    if ("cert_u" in sections) != ("cert_v" in sections):
        raise SchemaError("cert_u and cert_v must be given together")

    name = sections["name"]
    if not name.isidentifier():
        raise SchemaError(f"line {at('name')[0]}: name must be an identifier, got {name!r}")

    params: list[str] = []
    if sections.get("params"):
        for entry in sections["params"].split(","):
            pname = entry.strip()
            if not pname.isidentifier() or pname in _RESERVED:
                raise SchemaError(f"line {at('params')[0]}: bad parameter name {pname!r}")
            if pname in params:
                raise SchemaError(f"line {at('params')[0]}: duplicate parameter {pname!r}")
            params.append(pname)

    require = tuple(_parse(sections["require"], *at("require"), many=True)) \
        if sections.get("require") else ()

    if ".." not in sections["range"]:
        raise SchemaError(f"line {at('range')[0]}: range must be 'LO .. HI'")
    lo_text, hi_text = sections["range"].split("..", 1)

    config = IdentityConfig(
        name=name,
        params=tuple(params),
        require=require,
        lhs=parse(sections["lhs"], *at("lhs")),
        range_lo=parse(lo_text, *at("range")),
        range_hi=parse(hi_text, *at("range", len(lo_text) + 2)),
        rhs=parse(sections["rhs"], *at("rhs")),
        cert_u=parse(sections["cert_u"], *at("cert_u")) if "cert_u" in sections else None,
        cert_v=parse(sections["cert_v"], *at("cert_v")) if "cert_v" in sections else None,
    )

    scope_nk = set(params) | {"n", "k"}
    scope_n = set(params) | {"n"}
    # the summation range is evaluated at n alone, before any sample is drawn
    checks = [("lhs", config.lhs, scope_nk), ("rhs", config.rhs, scope_n),
              ("range", config.range_lo, {"n"}), ("range", config.range_hi, {"n"})]
    checks += [("require", e, scope_n) for e in config.require]
    if config.cert_u is not None:
        checks += [("cert_u", config.cert_u, scope_nk), ("cert_v", config.cert_v, scope_nk)]
    for where, expr, scope in checks:
        unbound = free_vars(expr) - scope
        if unbound:
            raise SchemaError(f"line {at(where)[0]}: {where}: unbound variable(s) "
                              f"{sorted(unbound)}")
    return config


#: The errors a config's expressions raise at a point rather than at a pole.
_POINT_ERRORS = (NonIntegerExponent, ResourceLimit)


def _at_point(exc: VerifyError, section: str, env: Mapping[str, object]) -> VerifyError:
    """exc, its message suffixed with the config section and the n and k it
    was raised at."""
    place = ", ".join(f"{index} = {env[index]}" for index in ("n", "k") if index in env)
    return type(exc)(f"{exc} (in {section} at {place})")


def _evaluate_in(section: str, code: Code, env: Mapping[str, Fraction], memo: dict) -> Fraction:
    """evaluate(code, env, memo) for one section of a config file."""
    try:
        return evaluate(code, env, memo)
    except _POINT_ERRORS as exc:
        raise _at_point(exc, section, env) from None


def _sample_memo(_params: Mapping[str, object]) -> dict:
    """The hoisted values of one parameter point, an entry of its table."""
    return {}


_N, _NK = frozenset("n"), frozenset("nk")


def config_to_identity(config: IdentityConfig) -> IdentityDef:
    """An IdentityDef backed by config expressions, usable by every verifier.

    Each section is compiled once, here; its hoisted values are held by
    each parameter point, through certify.sample_value."""

    def at_nk(section: str, expr: Expr) -> Callable[[int, int, Mapping[str, object]], Fraction]:
        """One section's expression as a function of (n, k, params), read
        through its row n: the row takes the hoisted values and its env once.
        The summand and the certificate's u and v are each one row per n."""
        code = _compile(expr, _NK)

        def columns(n: int, params: Mapping[str, object]) -> Row:
            env, memo = {**params, "n": n}, sample_value(_sample_memo, params)

            def cell(k: int) -> Fraction:
                env["k"] = k
                return _evaluate_in(section, code, env, memo)

            return Row(cell)

        return by_row(columns)

    require = [(expr, _compile(expr, _N)) for expr in config.require]
    rhs_code = _compile(config.rhs, _N)

    def rhs(n: int, params: Mapping[str, object]) -> Fraction:
        env, memo = {**params, "n": n}, sample_value(_sample_memo, params)
        for expr, code in require:
            if _evaluate_in("require", code, env, memo) == 0:
                raise DivisionByZero(f"requirement {to_source(expr)} = 0")
        return _evaluate_in("rhs", rhs_code, env, memo)

    def bound(expr: Expr, code: Code, n: int) -> int:
        try:
            value = evaluate(code, {"n": n})
        except DivisionByZero as exc:
            raise UndefinedRange(f"range bound {to_source(expr)} is undefined at n = {n}: "
                                 f"{exc}") from None
        return _as_int(as_pair(value), "range bound")

    bounds = [(expr, _compile(expr)) for expr in (config.range_lo, config.range_hi)]

    def sum_range(n: int) -> tuple[int, int]:
        try:
            lo, hi = (bound(expr, code, n) for expr, code in bounds)
            _bounded(hi - lo, "range length")
        except _POINT_ERRORS as exc:
            raise _at_point(exc, "range", {"n": n}) from None
        return lo, hi

    certificate = None if config.cert_u is None or config.cert_v is None else Certificate(
        u=at_nk("cert_u", config.cert_u), v=at_nk("cert_v", config.cert_v))
    return IdentityDef(
        key=config.name,
        citation=f"user-defined identity '{config.name}'",
        params=tuple(Param(p) for p in config.params),
        term=at_nk("lhs", config.lhs),
        rhs=rhs,
        sum_range=sum_range,
        certificate=certificate,
        n_max=CONFIG_N_MAX,
    )


def load_identity_config(path: str | Path) -> IdentityDef:
    """Parse a config file into a corpus-compatible IdentityDef."""
    text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is not a section
    return config_to_identity(parse_config(text))
