"""One parameter point: declared parameters, their draw, and its values.

A sum or family declares its parameters as ``Param`` records, and
``draw_params`` draws one ``Point`` of them, which holds the values of pure
functions at it as rows of one kind (``sample_value``, a ``SampleMemo``),
each computed once per sample and freed with the point.  Corpus and certify
re-export these names; sequences reads them here, so its start runs neither.
"""

from __future__ import annotations

import random
from typing import Any, Callable, NamedTuple, Sequence
from weakref import ref

from .sampling import sample_q, sample_rational, sample_sequence


class Param(NamedTuple):
    name: str
    kind: str = "rational"  # rational | q | int | sequence
    int_range: tuple[int, int] = (0, 5)


class Point(dict):
    """A parameter point, {name: value}, with its own table ``rows`` of the
    values fn(*lead, point) by (fn, *lead) (see ``SampleMemo``), so a
    sample's values live as long as its point.  A point is not edited after
    it is drawn.  Its rows (``_row``, ``certify.Summands``) refer back to it
    only weakly, so no cycle keeps a point for the cyclic collector."""

    __slots__ = ("rows", "__weakref__")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rows: dict[tuple, object] = {}


def draw_params(params: Sequence[Param], rng: random.Random, length: int) -> Point:
    """One draw for each declared parameter, in order; length is the length
    of a sequence parameter."""
    drawn = Point()
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

    Every value is computed once per sample and held in its point's table
    (``Point.rows``): ``corpus.admissible`` fills it while it probes, and
    the checks reuse the probe's values, and each other's.  They read rows,
    of one kind: ``row(fn, *lead, params)`` is the columns fn(*lead, k,
    params), k = 0, 1, ..., held as one entry and filled only as asked, so a
    check evaluates, and raises at, the same (n, k) with the same text as
    one that reads point by point.  A summand's row n (or F's) is
    ``row(term, n, params)``; a closed form is one row per point,
    ``row(rhs, params)``, read at column n.  A ``certify.by_row`` function's
    fn.columns(*lead, params) is the row itself, stored as it is: a ``Row``
    (of integer pairs for a declared u or v), a ``corpus._TermRow``, or one
    row that every n shares; so each value is held by one row, never copied.
    Any other function gets a ``Row`` that calls it once per column, as q^k
    and the heads do (cells ``corpus._q_power``, ``corpus._head``).  Every
    row is built at ``_row``.

    The key is the function object and its leading arguments, never an
    identity's name, so two different functions (a certificate and its
    mutation, a summand and a skewed F) never share values.  A mapping that
    is not a ``Point`` shares the table of ``plain``, one Point equal to it.
    An evaluation that raises stores nothing, so it raises again, with the same text.
    """

    def __init__(self) -> None:
        self.plain = Point()

    def __call__(self, fn: Callable[..., Any], *args) -> Any:
        if type(args[-1]) is not Point:  # a plain mapping: its equal Point's table
            self.plain = self.plain if args[-1] == self.plain else Point(args[-1])
            args = (*args[:-1], self.plain)
        rows, key = args[-1].rows, (fn, *args[:-1])
        if key not in rows:
            rows[key] = fn(*args)
        return rows[key]

    def row(self, fn: Callable[..., Any], *args) -> Row:
        """fn(*lead, k, params), k = 0, 1, ..., as one entry; args = (*lead, params)."""
        return self(_row, fn, *args)


def _row(fn: Callable[..., Any], *args) -> Row:
    columns = getattr(fn, "columns", None)
    if columns:
        return columns(*args)
    lead, at = args[:-1], ref(args[-1])  # weakly, as the point holds this row
    return Row(lambda k: fn(*lead, k, at()))


#: The one memo every summand, closed form, F, u and v goes through, as they
#: keep their (..., params) signatures; each point holds its own values.
sample_value = SampleMemo()
