"""Summations whose parameters are arbitrary sequences.

Each operation lifts a fixed elementary relation U - V = W to sequences and
evaluates both sides of the resulting telescoping identity:

  * macdonald_cv          u_k = (1-b_k) a_k,  v_k = (1-a_k) b_k,
                          w_k = a_k - b_k
  * macdonald_cv_permuted u_k = (1-b_k) a_k,  v_k = a_k - b_k,
                          w_k = b_k (1 - a_k)
                          (the permuted roles; equal to macdonald_cv after
                          relabeling a_k -> a_k/b_k, b_k -> 1/b_k)
  * macdonald_ps          u_k = (1-b_k)(1-c_k) a_k,
                          v_k = (1-a_k)(a_k - b_k c_k),
                          w_k = (a_k - b_k)(a_k - c_k)
  * macdonald_dougall     u_k = (1-b_k)(1-c_k)(1-d_k)(a_k^2 - b_k c_k d_k) a_k,
                          v_k = (1-a_k)(a_k - b_k c_k)(a_k - b_k d_k)(a_k - c_k d_k),
                          w_k = (a_k - b_k)(a_k - c_k)(a_k - d_k)(a_k - b_k c_k d_k)

Setting d_k = 0 in the last one reproduces macdonald_ps term by term (each
index picks up the same scale factor a_k^2, which the telescoping summand
cancels).  Returned pairs are (termwise sum, closed form); equality is the
caller's assertion.  The telescoping lemma makes the two agree for any u
and v, so that equality alone cannot catch a wrong u or v: ``RELATIONS``
declares each W on its own, and ``relation_fails_at`` checks
u_k - v_k = w_k at every index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .rational import rat_div
from .sampling import RETRY_BOUND, retry, sample_sequence
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


def _problem_cv(p: SequenceParams) -> TelescopeProblem:
    u = lambda k: (1 - p.b[k]) * p.a[k]
    v = lambda k: (1 - p.a[k]) * p.b[k]
    return TelescopeProblem(u, v, p.n)


def _problem_cv_permuted(p: SequenceParams) -> TelescopeProblem:
    u = lambda k: (1 - p.b[k]) * p.a[k]
    v = lambda k: p.a[k] - p.b[k]
    return TelescopeProblem(u, v, p.n)


def _problem_ps(p: SequenceParams) -> TelescopeProblem:
    assert p.c is not None
    u = lambda k: (1 - p.b[k]) * (1 - p.c[k]) * p.a[k]
    v = lambda k: (1 - p.a[k]) * (p.a[k] - p.b[k] * p.c[k])
    return TelescopeProblem(u, v, p.n)


def _problem_dougall(p: SequenceParams) -> TelescopeProblem:
    assert p.c is not None and p.d is not None

    def u(k: int) -> Fraction:
        return ((1 - p.b[k]) * (1 - p.c[k]) * (1 - p.d[k])
                * (p.a[k] ** 2 - p.b[k] * p.c[k] * p.d[k]) * p.a[k])

    def v(k: int) -> Fraction:
        return ((1 - p.a[k]) * (p.a[k] - p.b[k] * p.c[k])
                * (p.a[k] - p.b[k] * p.d[k]) * (p.a[k] - p.c[k] * p.d[k]))

    return TelescopeProblem(u, v, p.n)


def both_sides(problem: TelescopeProblem) -> tuple[Fraction, Fraction]:
    """(termwise sum, closed form) of one problem."""
    return telescoping_sum(problem), telescoping_closed_form(problem)


def macdonald_cv(p: SequenceParams, n: int | None = None) -> tuple[Fraction, Fraction]:
    return both_sides(_problem_cv(_truncate(p, n)))


def macdonald_cv_permuted(p: SequenceParams, n: int | None = None) -> tuple[Fraction, Fraction]:
    return both_sides(_problem_cv_permuted(_truncate(p, n)))


def macdonald_ps(p: SequenceParams, n: int | None = None) -> tuple[Fraction, Fraction]:
    return both_sides(_problem_ps(_truncate(p, n)))


def macdonald_dougall(p: SequenceParams, n: int | None = None) -> tuple[Fraction, Fraction]:
    return both_sides(_problem_dougall(_truncate(p, n)))


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
    return list(telescoping_terms(_problem_dougall(p)))


def ps_terms(p: SequenceParams) -> list[Fraction]:
    return list(telescoping_terms(_problem_ps(p)))


PROBLEM_BUILDERS = {
    "macdonald_cv": (_problem_cv, ("a", "b")),
    "macdonald_cv_permuted": (_problem_cv_permuted, ("a", "b")),
    "macdonald_ps": (_problem_ps, ("a", "b", "c")),
    "macdonald_dougall": (_problem_dougall, ("a", "b", "c", "d")),
}

#: Each operation's W, the factored right side of its relation U - V = W,
#: as a function of one index's values of the operation's sequences.
RELATIONS = {
    "macdonald_cv": lambda a, b: a - b,
    "macdonald_cv_permuted": lambda a, b: b * (1 - a),
    "macdonald_ps": lambda a, b, c: (a - b) * (a - c),
    "macdonald_dougall": lambda a, b, c, d: (a - b) * (a - c) * (a - d) * (a - b * c * d),
}


def relation_fails_at(op: str, p: SequenceParams, problem: TelescopeProblem) -> int | None:
    """The first index k at which problem's u_k - v_k differs from op's w_k,
    or None when the relation holds at every index."""
    names = PROBLEM_BUILDERS[op][1]
    w = RELATIONS[op]
    for k in range(p.n + 1):
        if problem.u(k) - problem.v(k) != w(*(getattr(p, name)[k] for name in names)):
            return k
    return None


CITATIONS = {
    "macdonald_cv": "Macdonald's sequence-parameter Chu-Vandermonde-type sum",
    "macdonald_cv_permuted": "relabeled form of the sequence-parameter Chu-Vandermonde-type sum",
    "macdonald_ps": "Macdonald's sequence-parameter Pfaff-Saalschutz-type sum",
    "macdonald_dougall": "Macdonald's sequence-parameter Dougall-type sum",
}


def sample_sequence_params(rng: random.Random, length: int, op: str) -> SequenceParams:
    """Draw sequences admissible for the given operation (and, for the cv
    ops, for the relabeling route as well)."""
    builder, names = PROBLEM_BUILDERS[op]

    def attempt() -> SequenceParams:
        seqs = {name: sample_sequence(rng, length) for name in names}
        p = SequenceParams(a=seqs["a"], b=seqs["b"], c=seqs.get("c"), d=seqs.get("d"))
        both_sides(builder(p))
        if op == "macdonald_cv_permuted":
            both_sides(_problem_cv(relabeled_for_permutation(p)))
        if op == "macdonald_dougall":
            both_sides(_problem_ps(with_d_zero(p)))
        return p

    return retry(attempt, f"{op}: no admissible sequence tuple in {RETRY_BOUND} tries")
