"""Summations whose parameters are arbitrary sequences.

Each operation lifts a fixed elementary relation U - V = W to sequences and
evaluates both sides of the resulting telescoping identity.  ``OPERATIONS``
declares each operation once: its sequences, u_k, v_k and w_k as functions
of index k's values, and its citation.  macdonald_cv, macdonald_ps and
macdonald_dougall are Macdonald's Chu-Vandermonde-, Pfaff-Saalschutz- and
Dougall-type sums; macdonald_cv_permuted swaps the roles of V and W in
macdonald_cv and equals it after relabeling a_k -> a_k/b_k, b_k -> 1/b_k.

Setting d_k = 0 in macdonald_dougall reproduces macdonald_ps term by term
(each index picks up the same scale factor a_k^2, which the telescoping
summand cancels).  Returned pairs are (termwise sum, closed form); equality
is the caller's assertion.  The telescoping lemma makes the two agree for
any u and v, so that equality alone cannot catch a wrong u or v: each W is
declared on its own, and ``relation_fails_at`` checks u_k - v_k = w_k at
every index.  ``verify_operation_suite`` runs one operation's checks,
companion route (the relabeling, or d = 0) included.

Each draw is evaluated once.  The admissibility probe computes, for the
operation and its companion route, u_k and v_k once per index and both
sides from those lists.  The identity and relabel checks read the probe's
values and the relation check adds w_k; the d = 0 check evaluates the
Dougall row at d = 0 itself, through ``dougall_terms(with_d_zero(p))``,
and compares it term by term with the companion's summands.  The values
do not outlive their draw.

A draw is evaluated on ``rational.Pair``, an unreduced integer pair that
takes no gcd: its sequences become Pairs, and the OPERATIONS lambdas,
written once for any exact operands, give Pairs for u_k, v_k and w_k (a
Fraction that a replaced u or v gives is read as it is).  One walk of the
kernel (``telescope._read``) reads u_k and v_k, and both sides come from
its values: the termwise side as a Pair, summed by Horner's rule, and the
closed form as one Fraction.  Every comparison
(identity, relation, relabel, d = 0) cross-multiplies.
``relabeled_for_permutation``, ``with_d_zero``, ``problem``,
``dougall_terms`` and ``ps_terms`` give values of the kind they are given:
Pairs inside a draw, the same Fractions as ever for Fraction sequences.
A Fraction is built only for a closed form, a public return value, or a
failing record's witness.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple

from .rational import ZERO, Exact, Pair, as_pairs, rat_div
from .report import CheckRecord, outcome
from .sampling import RETRY_BOUND, require_size, retry, sample_sequence, sweep
from .telescope import (TelescopeProblem, _horner, _read, telescoping_closed_form,
                        telescoping_pairs)


class _Sequences(NamedTuple):
    a: tuple[Exact, ...]
    b: tuple[Exact, ...]
    c: tuple[Exact, ...] | None = None
    d: tuple[Exact, ...] | None = None


class SequenceParams(_Sequences):
    """Sequence parameters over indices 0..n (c, d optional per operation);
    a draw's own copy holds Pairs (``_exact``).  Every way to build one,
    ``_replace`` too, checks that the sequences given share one length."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SequenceParams:
        self = super().__new__(cls, *args, **kwargs)
        lengths = {name: len(seq) for name, seq in self._asdict().items() if seq is not None}
        if len(set(lengths.values())) != 1 or not lengths["a"]:
            given = ", ".join(f"{name}={length}" for name, length in lengths.items())
            raise ValueError(f"sequence parameters need one common length >= 1, got {given}")
        return self

    @classmethod
    def _make(cls, iterable) -> SequenceParams:
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.a) - 1


class Operation(NamedTuple):
    """One relation U - V = W: u, v and w as functions of one index's values
    of the named sequences, in the order of ``names``."""

    names: tuple[str, ...]
    u: Callable[..., Exact]
    v: Callable[..., Exact]
    w: Callable[..., Exact]
    citation: str


OPERATIONS = {
    "macdonald_cv": Operation(
        ("a", "b"),
        u=lambda a, b: (1 - b) * a,
        v=lambda a, b: (1 - a) * b,
        w=lambda a, b: a - b,
        citation="Macdonald's sequence-parameter Chu-Vandermonde-type sum"),
    "macdonald_cv_permuted": Operation(
        ("a", "b"),
        u=lambda a, b: (1 - b) * a,
        v=lambda a, b: a - b,
        w=lambda a, b: b * (1 - a),
        citation="relabeled form of the sequence-parameter Chu-Vandermonde-type sum"),
    "macdonald_ps": Operation(
        ("a", "b", "c"),
        u=lambda a, b, c: (1 - b) * (1 - c) * a,
        v=lambda a, b, c: (1 - a) * (a - b * c),
        w=lambda a, b, c: (a - b) * (a - c),
        citation="Macdonald's sequence-parameter Pfaff-Saalschutz-type sum"),
    "macdonald_dougall": Operation(
        ("a", "b", "c", "d"),
        u=lambda a, b, c, d: (1 - b) * (1 - c) * (1 - d) * (a * a - b * c * d) * a,
        v=lambda a, b, c, d: (1 - a) * (a - b * c) * (a - b * d) * (a - c * d),
        w=lambda a, b, c, d: (a - b) * (a - c) * (a - d) * (a - b * c * d),
        citation="Macdonald's sequence-parameter Dougall-type sum"),
}


def _rows(op: Operation, p: SequenceParams) -> list[tuple[Exact, ...]]:
    """Index k's values of op's sequences, for k = 0..n; a ValueError names
    each sequence op needs that p does not give."""
    missing = [name for name in op.names if getattr(p, name) is None]
    if missing:
        raise ValueError(f"this sum needs sequences {', '.join(op.names)}; "
                         f"{', '.join(missing)} not given")
    return list(zip(*(getattr(p, name) for name in op.names)))


def _values(op: Operation, p: SequenceParams
            ) -> tuple[list[tuple[Exact, ...]], list[Exact], list[Exact]]:
    """(index k's values, u_k, v_k) of op for k = 0..n, each evaluated once."""
    rows = _rows(op, p)
    return rows, [op.u(*row) for row in rows], [op.v(*row) for row in rows]


def problem(key: str, p: SequenceParams) -> TelescopeProblem:
    """The telescoping problem of operation key over p's indices, on u_k and
    v_k evaluated once each, as _route reads them."""
    _, u, v = _values(OPERATIONS[key], p)
    return TelescopeProblem(u.__getitem__, v.__getitem__, p.n)


def _fails_at(op: Operation, rows: list[tuple[Exact, ...]], u: list[Exact],
              v: list[Exact]) -> int | None:
    """The first k with u[k] - v[k] != w_k, or None."""
    return next((k for k, row in enumerate(rows) if u[k] - v[k] != op.w(*row)), None)


def relation_fails_at(key: str, p: SequenceParams) -> int | None:
    """The first index k at which u_k - v_k differs from w_k for operation
    key, or None when the relation holds at every index."""
    op = OPERATIONS[key]
    return _fails_at(op, *_values(op, p))


class _Route(NamedTuple):
    """One operation evaluated over one point of Pairs: the point, index k's
    values, u_k, v_k and (termwise sum, closed form), all from one
    evaluation."""

    p: SequenceParams
    rows: list[tuple[Exact, ...]]
    u: list[Exact]
    v: list[Exact]
    sides: tuple[Pair, Fraction]

    def terms(self) -> list[Pair]:
        """The summands, from the route's u_k and v_k."""
        return _summands(TelescopeProblem(self.u.__getitem__, self.v.__getitem__, self.p.n), Pair)


def _summands(prob: TelescopeProblem, kind: type) -> list:
    """prob's summands, each kind(num, den): Pairs or Fractions."""
    return [kind(*t) for t in telescoping_pairs(as_pairs(prob.u), as_pairs(prob.v), prob.n)]


def _kind(p: SequenceParams) -> type:
    """The kind of p's values: Pair for a draw's own point, else Fraction."""
    return Pair if isinstance(p.a[0], Pair) else Fraction


def _exact(p: SequenceParams) -> SequenceParams:
    """p with every value a Pair."""
    return SequenceParams(**{name: tuple(map(Pair.of, seq)) for name, seq in p._asdict().items()
                             if seq is not None})


def _route(op: Operation, p: SequenceParams) -> _Route:
    """Evaluate op over p, a point of Pairs, once; a zero w_0 or v_k raises
    DivisionByZero."""
    rows, u, v = _values(op, p)
    read = _read(as_pairs(u.__getitem__), as_pairs(v.__getitem__), p.n)
    return _Route(p, rows, u, v, (Pair(*_horner(*read)), telescoping_closed_form(read)))


def _sides(key: str, p: SequenceParams, n: int | None) -> tuple[Fraction, Fraction]:
    lhs, rhs = _route(OPERATIONS[key], _exact(_truncate(p, n))).sides
    return lhs.fraction(), rhs


def macdonald_cv(p: SequenceParams, n: int | None = None) -> tuple[Fraction, Fraction]:
    return _sides("macdonald_cv", p, n)


def macdonald_cv_permuted(p: SequenceParams, n: int | None = None) -> tuple[Fraction, Fraction]:
    return _sides("macdonald_cv_permuted", p, n)


def macdonald_ps(p: SequenceParams, n: int | None = None) -> tuple[Fraction, Fraction]:
    return _sides("macdonald_ps", p, n)


def macdonald_dougall(p: SequenceParams, n: int | None = None) -> tuple[Fraction, Fraction]:
    return _sides("macdonald_dougall", p, n)


def _truncate(p: SequenceParams, n: int | None) -> SequenceParams:
    """p over indices 0..n (all of p when n is None); 0 <= n <= p.n."""
    if n is None:
        return p
    if not 0 <= n <= p.n:
        raise ValueError(f"n = {n} is outside the sequences' indices 0..{p.n}")
    return p._replace(**{name: seq[: n + 1] for name, seq in p._asdict().items()
                         if seq is not None})


def relabeled_for_permutation(p: SequenceParams) -> SequenceParams:
    """a_k -> a_k / b_k, b_k -> 1 / b_k (needs b_k != 0 throughout)."""
    a = tuple(rat_div(ak, bk) for ak, bk in zip(p.a, p.b))
    b = tuple(rat_div(1, bk) for bk in p.b)
    return SequenceParams(a=a, b=b)


def with_d_zero(p: SequenceParams) -> SequenceParams:
    zero = Pair(0) if _kind(p) is Pair else ZERO
    return SequenceParams(a=p.a, b=p.b, c=p.c, d=(zero,) * len(p.a))


def dougall_terms(p: SequenceParams) -> list[Exact]:
    return _summands(problem("macdonald_dougall", p), _kind(p))


def ps_terms(p: SequenceParams) -> list[Exact]:
    return _summands(problem("macdonald_ps", p), _kind(p))


def _companion(key: str, p: SequenceParams) -> _Route | None:
    """The companion route of operation key at p: macdonald_cv at the
    relabeled point for macdonald_cv_permuted, macdonald_ps (which reads no
    d) at p for macdonald_dougall, none for the others."""
    if key == "macdonald_cv_permuted":
        return _route(OPERATIONS["macdonald_cv"], relabeled_for_permutation(p))
    if key == "macdonald_dougall":
        return _route(OPERATIONS["macdonald_ps"], p)
    return None


def _draw(rng: random.Random, length: int,
          key: str) -> tuple[SequenceParams, _Route, _Route | None]:
    """(p, route, companion route) of the first draw admissible for operation
    key and its companion route, the routes over p's Pairs; the checks read
    these values."""
    op = OPERATIONS[key]

    def attempt():
        p = SequenceParams(**{name: sample_sequence(rng, length) for name in op.names})
        exact = _exact(p)
        return p, _route(op, exact), _companion(key, exact)

    return retry(attempt, f"{key}: no admissible sequence tuple in {RETRY_BOUND} tries")


def sample_sequence_params(rng: random.Random, length: int, op: str) -> SequenceParams:
    """Draw sequences admissible for the given operation and for its
    companion route: the relabeling of macdonald_cv_permuted, or
    macdonald_ps at d = 0 for macdonald_dougall."""
    return _draw(rng, length, op)[0]


def verify_operation_suite(key: str, n_max: int, samples: int, seed: int) -> list[CheckRecord]:
    """Each sample's identity and relation check for sequences over 0..n,
    n <= n_max, and the companion route's check, all on the values the
    draw computed."""
    require_size("n_max", n_max)
    op = OPERATIONS[key]

    def draw(rng):
        return _draw(rng, rng.randint(1, n_max + 1), key)

    def checks(drawn, sample):
        p, route, companion = drawn

        def record(check, ok, **extra):
            return outcome("genhyp", key, check, op.citation, ok, n=p.n, sample=sample,
                           **extra)

        lhs, rhs = route.sides
        bad = _fails_at(op, route.rows, route.u, route.v)
        relation = {} if bad is None else {"relation_fails_at": bad}
        records = [record("identity", lhs == rhs and bad is None, lhs=lhs, rhs=rhs,
                          length=p.n + 1, **relation)]
        if key == "macdonald_cv_permuted":
            records.append(record("relabel", companion.sides == route.sides, direct=lhs,
                                  relabel=companion.sides[0]))
        if key == "macdonald_dougall":
            records.append(record("d_zero_termwise",
                                  dougall_terms(with_d_zero(route.p)) == companion.terms(),
                                  reason="termwise mismatch"))
        return records

    return sweep("genhyp", key, op.citation, seed, samples, draw, checks)
