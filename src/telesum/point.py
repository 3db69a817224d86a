"""One parameter point: declared parameters, their draw, and the sample memo.

A sum or family declares its parameters as ``Param`` records, and
``draw_params`` draws one point of them.  ``sample_value`` (a
``SampleMemo``) holds the values of pure functions at that point, so each
is computed once per sample; summands, closed forms, F, u and v are held
as rows of one kind (``SampleMemo.row``).  Corpus and certify re-export
these names; sequences reads them here, so a sequences start runs neither
of them.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .sampling import sample_q, sample_rational, sample_sequence

Params = Mapping[str, object]


class Param(NamedTuple):
    name: str
    kind: str = "rational"  # rational | q | int | sequence
    int_range: tuple[int, int] = (0, 5)


def draw_params(params: Sequence[Param], rng: random.Random, length: int) -> dict[str, object]:
    """One draw for each declared parameter, in order; length is the length
    of a sequence parameter."""
    drawn: dict[str, object] = {}
    for p in params:
        if p.kind == "q":
            drawn[p.name] = sample_q(rng)
        elif p.kind == "int":
            drawn[p.name] = rng.randint(*p.int_range)
        elif p.kind == "sequence":
            drawn[p.name] = sample_sequence(rng, length)
        else:
            drawn[p.name] = sample_rational(rng)
    return drawn


class Row(dict):
    """The columns cell(k) of one row, each computed at its first index.

    A row is one memo entry, so the checks index it instead of looking each
    value up by its full point.  A column that raises stores nothing, so it
    raises again, with the same message, at every index that asks for it.
    """

    def __init__(self, cell: Callable[[int], Any]) -> None:
        super().__init__()
        self.cell = cell

    def __missing__(self, k: int) -> Any:
        value = self[k] = self.cell(k)
        return value


class SampleMemo:
    """Values f(*args, params) of pure functions at one parameter point.

    Every value is computed once per sample.  Summands, closed forms, F and
    the certificate's u and v are read through ``sample_value``, which
    ``corpus.admissible`` fills while it probes the sample; the checks then
    reuse the probe's values, and each other's, instead of evaluating them
    again.  They read them as rows, of one kind: ``row(fn, *lead, params)``
    is the columns fn(*lead, k, params), k = 0, 1, ..., held as one entry.
    A summand's row n (or F's) is ``row(term, n, params)``, and a closed
    form is one row keyed by the point alone, ``row(rhs, params)``, read
    at column n.  For a function made by ``certify.by_row``,
    fn.columns(*lead, params) returns the row itself, which is stored as
    it is: a ``Row`` (of integer pairs (num, den) for a declared u or v),
    a certified summand's or closed form's ``corpus._TermRow``, or one row
    that every n shares.  So each value is held by one row, never copied.
    Any other function gets a ``Row`` that calls it once per column, as a
    sample's q^k and heads do (cells ``corpus._q_power``, ``corpus._head``).
    Every row is built at ``_row``.  Rows fill only the columns asked for,
    so every check evaluates the same values, and raises at the same
    (n, k) with the same text, as one that reads point by point.

    A value is computed at its first request and served from the memo after
    that.  The key is the function object and its leading arguments, never
    an identity's name, so two different functions (a certificate and its
    mutation, a summand and a skewed F) never share values.  Only the current
    point's values are held: a request at other parameter values drops them.
    An evaluation that raises stores nothing, so it raises again, with the
    same message, at every call that asks for it.
    """

    def __init__(self) -> None:
        self.point: tuple | None = None
        self.values: dict[tuple, object] = {}

    def __call__(self, fn: Callable[..., Any], *args) -> Any:
        point = tuple(args[-1].items())
        if point != self.point:
            self.point, self.values = point, {}
        values = self.values
        key = (fn, *args[:-1])
        if key not in values:
            values[key] = fn(*args)
        return values[key]

    def row(self, fn: Callable[..., Any], *args) -> Row:
        """fn(*lead, k, params) for k = 0, 1, ... as one entry, for args =
        (*lead, params)."""
        return self(_row, fn, *args)


def _row(fn: Callable[..., Any], *args) -> Row:
    columns = getattr(fn, "columns", None)
    if columns:
        return columns(*args)
    *lead, params = args
    return Row(lambda k: fn(*lead, k, params))


#: The memo every evaluation of a summand, closed form, F, u or v goes through.
#: It is one per process because term, rhs, F, u and v keep their
#: (..., params) signatures; keying by function and point keeps callers apart.
sample_value = SampleMemo()
