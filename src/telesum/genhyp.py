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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .rational import rat_div
from .report import CheckRecord, outcome
from .sampling import RETRY_BOUND, retry, sample_sequence, sweep
from .telescope import (TelescopeProblem, telescoping_closed_form,
                        telescoping_sum, telescoping_terms)


@dataclass(frozen=True)
class SequenceParams:
    """Sequence parameters over indices 0..n (c, d optional per operation)."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...] | None = None
    d: tuple[Fraction, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.a) - 1


@dataclass(frozen=True)
class Operation:
    """One relation U - V = W: u, v and w as functions of one index's values
    of the named sequences, in the order of ``names``."""

    names: tuple[str, ...]
    u: Callable[..., Fraction]
    v: Callable[..., Fraction]
    w: Callable[..., Fraction]
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


def _rows(op: Operation, p: SequenceParams) -> list[tuple[Fraction, ...]]:
    """Index k's values of op's sequences, for k = 0..n."""
    return list(zip(*(getattr(p, name) for name in op.names)))


def problem(key: str, p: SequenceParams) -> TelescopeProblem:
    """The telescoping problem of operation key over p's indices."""
    op = OPERATIONS[key]
    rows = _rows(op, p)
    return TelescopeProblem(lambda k: op.u(*rows[k]), lambda k: op.v(*rows[k]), p.n)


def relation_fails_at(key: str, p: SequenceParams) -> int | None:
    """The first index k at which u_k - v_k differs from w_k for operation
    key, or None when the relation holds at every index."""
    op = OPERATIONS[key]
    for k, row in enumerate(_rows(op, p)):
        if op.u(*row) - op.v(*row) != op.w(*row):
            return k
    return None


def both_sides(prob: TelescopeProblem) -> tuple[Fraction, Fraction]:
    """(termwise sum, closed form) of one problem."""
    return telescoping_sum(prob), telescoping_closed_form(prob)


def macdonald_cv(p: SequenceParams, n: int | None = None) -> tuple[Fraction, Fraction]:
    return both_sides(problem("macdonald_cv", _truncate(p, n)))


def macdonald_cv_permuted(p: SequenceParams, n: int | None = None) -> tuple[Fraction, Fraction]:
    return both_sides(problem("macdonald_cv_permuted", _truncate(p, n)))


def macdonald_ps(p: SequenceParams, n: int | None = None) -> tuple[Fraction, Fraction]:
    return both_sides(problem("macdonald_ps", _truncate(p, n)))


def macdonald_dougall(p: SequenceParams, n: int | None = None) -> tuple[Fraction, Fraction]:
    return both_sides(problem("macdonald_dougall", _truncate(p, n)))


def _truncate(p: SequenceParams, n: int | None) -> SequenceParams:
    """p over indices 0..n (all of p when n is None)."""
    if n is None:
        return p
    return SequenceParams(
        a=p.a[: n + 1], b=p.b[: n + 1],
        c=None if p.c is None else p.c[: n + 1],
        d=None if p.d is None else p.d[: n + 1],
    )


def relabeled_for_permutation(p: SequenceParams) -> SequenceParams:
    """a_k -> a_k / b_k, b_k -> 1 / b_k (needs b_k != 0 throughout)."""
    a = tuple(rat_div(ak, bk) for ak, bk in zip(p.a, p.b))
    b = tuple(rat_div(Fraction(1), bk) for bk in p.b)
    return SequenceParams(a=a, b=b)


def with_d_zero(p: SequenceParams) -> SequenceParams:
    return SequenceParams(a=p.a, b=p.b, c=p.c, d=tuple(Fraction(0) for _ in p.a))


def dougall_terms(p: SequenceParams) -> list[Fraction]:
    return list(telescoping_terms(problem("macdonald_dougall", p)))


def ps_terms(p: SequenceParams) -> list[Fraction]:
    return list(telescoping_terms(problem("macdonald_ps", p)))


def sample_sequence_params(rng: random.Random, length: int, op: str) -> SequenceParams:
    """Draw sequences admissible for the given operation and for its
    companion route: the relabeling of macdonald_cv_permuted, or
    macdonald_ps at d = 0 for macdonald_dougall."""
    names = OPERATIONS[op].names

    def attempt() -> SequenceParams:
        p = SequenceParams(**{name: sample_sequence(rng, length) for name in names})
        both_sides(problem(op, p))
        if op == "macdonald_cv_permuted":
            macdonald_cv(relabeled_for_permutation(p))
        if op == "macdonald_dougall":
            macdonald_ps(with_d_zero(p))
        return p

    return retry(attempt, f"{op}: no admissible sequence tuple in {RETRY_BOUND} tries")


def verify_operation_suite(key: str, n_max: int, samples: int, seed: int) -> list[CheckRecord]:
    """Each sample's identity and relation check for sequences over 0..n,
    n <= n_max, and the companion route's check."""
    citation = OPERATIONS[key].citation

    def draw(rng):
        return sample_sequence_params(rng, rng.randint(1, n_max + 1), key)

    def checks(p, sample):
        def record(check, ok, **extra):
            return outcome("genhyp", key, check, citation, ok, n=p.n, sample=sample, **extra)

        lhs, rhs = both_sides(problem(key, p))
        bad = relation_fails_at(key, p)
        relation = {} if bad is None else {"relation_fails_at": bad}
        records = [record("identity", lhs == rhs and bad is None, lhs=lhs, rhs=rhs,
                          length=p.n + 1, **relation)]
        if key == "macdonald_cv_permuted":
            other = macdonald_cv(relabeled_for_permutation(p))
            records.append(record("relabel", other == (lhs, rhs), direct=lhs,
                                  relabel=other[0]))
        if key == "macdonald_dougall":
            dz = with_d_zero(p)
            records.append(record("d_zero_termwise", dougall_terms(dz) == ps_terms(dz),
                                  reason="termwise mismatch"))
        return records

    return sweep("genhyp", key, citation, seed, samples, draw, checks)
