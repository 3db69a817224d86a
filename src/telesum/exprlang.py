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
prod (arity, evaluator).  Rational constants are written with / (e.g. 2/3);
the token grammar has integer literals only.

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
A leading UTF-8 byte order mark is skipped.  An error an expression raises
at a sample point (a non-integer exponent, count or bound, or a count past
MAX_COUNT) names its section and the n and k it was raised at.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping

from .certify import Certificate
from .corpus import IdentityDef, Param, q_rising_factorial, rising_factorial
from .errors import DivisionByZero, VerifyError
from .rational import ONE, format_rational, prod_range, rat_div, rat_pow


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
    """An exponent, count or range length beyond MAX_COUNT; it stops the run
    (an Inadmissible would only reject the draw)."""


class UndefinedRange(VerifyError):
    """A summation bound divides by zero.  The range depends on n alone, so
    no redraw of the parameters can help; it stops the run."""


#: The largest exponent of ^, rf/qrf count, binom lower index and prod or
#: summation range length a config may ask for.
MAX_COUNT = 10_000


# --- AST ------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # a key of BINARY
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: "Expr"


@dataclass(frozen=True)
class Call:
    func: str  # a key of FUNCTIONS
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class Prod:
    var: str
    lo: "Expr"
    hi: "Expr"
    body: "Expr"


Expr = Lit | Var | Neg | Bin | Pow | Call | Prod


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


# --- Tokenizer --------------------------------------------------------------

@dataclass(frozen=True)
class _Tok:
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
        args = [self.expr()]
        while self._take_op(","):
            args.append(self.expr())
        self._expect_op(")")
        if len(args) != FUNCTIONS[name].arity:
            raise ParseError(f"{name} takes {FUNCTIONS[name].arity} arguments, got {len(args)}",
                             name_tok.line, name_tok.column)
        nodes, depths = zip(*args)
        return Call(name, nodes), self._deeper(name_tok, *depths)


def parse(text: str, line: int = 1, column: int = 1) -> Expr:
    """The syntax tree of text; a ParseError for bad syntax or a tree deeper
    than MAX_DEPTH, located as if text began at (line, column) of a file."""
    parser = _Parser(_tokenize(text, line, column))
    node, _ = parser.expr()
    tail = parser.cur
    if tail.kind != "end":
        raise ParseError(f"trailing input {tail.text!r}", tail.line, tail.column,
                         expected=("end of input",))
    return node


# --- Printing ----------------------------------------------------------------

def _prec(e: Expr) -> int:
    if isinstance(e, Bin):
        return BINARY[e.op].prec
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def to_source(e: Expr) -> str:
    """Minimal-parentheses rendering; parse(to_source(e)) == e structurally."""

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


# --- Identity config files -----------------------------------------------------

_SECTIONS = ("name", "params", "require", "lhs", "range", "rhs", "cert_u", "cert_v")
_RESERVED = {"n", "k", "prod", *FUNCTIONS}


@dataclass(frozen=True)
class IdentityConfig:
    name: str
    params: tuple[str, ...]
    require: tuple[Expr, ...]
    lhs: Expr
    range_lo: Expr
    range_hi: Expr
    rhs: Expr
    cert_u: Expr | None
    cert_v: Expr | None


def _split_top_level(text: str) -> list[tuple[int, str]]:
    """text split at the commas outside parentheses, so that a requirement
    such as rf(x, 2) stays whole; each chunk with its offset in text."""
    chunks, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            chunks.append((start, text[start:i]))
            start = i + 1
    chunks.append((start, text[start:]))
    return chunks


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
        raise SchemaError(f"name must be an identifier, got {name!r}")

    params: list[str] = []
    if sections.get("params"):
        for entry in sections["params"].split(","):
            pname = entry.strip()
            if not pname.isidentifier() or pname in _RESERVED:
                raise SchemaError(f"bad parameter name {pname!r}")
            if pname in params:
                raise SchemaError(f"duplicate parameter {pname!r}")
            params.append(pname)

    require = tuple(parse(chunk, *at("require", offset))
                    for offset, chunk in _split_top_level(sections["require"])) \
        if sections.get("require") else ()

    if ".." not in sections["range"]:
        raise SchemaError("range must be 'LO .. HI'")
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
            raise SchemaError(f"{where}: unbound variable(s) {sorted(unbound)}")
    return config


#: The errors a config's expressions raise at a point rather than at a pole.
_POINT_ERRORS = (NonIntegerExponent, ResourceLimit)


def _at_point(exc: VerifyError, section: str, env: Mapping[str, object]) -> VerifyError:
    """exc, its message suffixed with the config section and the n and k it
    was raised at."""
    place = ", ".join(f"{index} = {env[index]}" for index in ("n", "k") if index in env)
    return type(exc)(f"{exc} (in {section} at {place})")


def _evaluate_in(section: str, expr: Expr, env: Mapping[str, Fraction]) -> Fraction:
    """evaluate(expr, env) for one section of a config file."""
    try:
        return evaluate(expr, env)
    except _POINT_ERRORS as exc:
        raise _at_point(exc, section, env) from None


def config_to_identity(config: IdentityConfig, n_max: int = 10) -> IdentityDef:
    """An IdentityDef backed by config expressions, usable by every verifier."""

    def env_of(params: Mapping[str, object], **indices: int) -> dict[str, Fraction]:
        return {**params, **{name: Fraction(value) for name, value in indices.items()}}

    def at_nk(section: str, expr: Expr) -> Callable[[int, int, Mapping[str, object]], Fraction]:
        """One section's expression as a function of (n, k, params)."""
        return lambda n, k, params: _evaluate_in(section, expr, env_of(params, n=n, k=k))

    def rhs(n: int, params: Mapping[str, object]) -> Fraction:
        env = env_of(params, n=n)
        for expr in config.require:
            if _evaluate_in("require", expr, env) == 0:
                raise DivisionByZero(f"requirement {to_source(expr)} = 0")
        return _evaluate_in("rhs", config.rhs, env)

    def bound(expr: Expr, n: int) -> int:
        try:
            value = evaluate(expr, {"n": Fraction(n)})
        except DivisionByZero as exc:
            raise UndefinedRange(f"range bound {to_source(expr)} is undefined at n = {n}: "
                                 f"{exc}") from None
        return _as_int(value, "range bound")

    def sum_range(n: int) -> tuple[int, int]:
        try:
            lo, hi = bound(config.range_lo, n), bound(config.range_hi, n)
            _bounded(hi - lo, "range length")
        except _POINT_ERRORS as exc:
            raise _at_point(exc, "range", {"n": n}) from None
        return lo, hi

    certificate = None if config.cert_u is None or config.cert_v is None else \
        Certificate(u=at_nk("cert_u", config.cert_u), v=at_nk("cert_v", config.cert_v))
    return IdentityDef(
        key=config.name,
        citation=f"user-defined identity '{config.name}'",
        params=tuple(Param(p) for p in config.params),
        term=at_nk("lhs", config.lhs),
        rhs=rhs,
        sum_range=sum_range,
        certificate=certificate,
        n_max=n_max,
    )


def load_identity_config(path: str | Path, n_max: int = 10) -> IdentityDef:
    """Parse a config file into a corpus-compatible IdentityDef."""
    text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is not a section
    return config_to_identity(parse_config(text), n_max=n_max)
