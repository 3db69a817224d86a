"""Seeded random samplers, and the one sample -> check -> record loop.

Rationals draw numerator from +-1..64 and denominator from 1..64, so none is
0.  A base q is redrawn while |q| = 1: the only rational roots of unity are
+-1, and at those the q-shifted factorials (x; q)_m collapse.  All streams
are derived from (seed, labels...) through SHA-256 so results never depend
on PYTHONHASHSEED, process boundaries, or scheduling.  The digest is taken
by CPython's built-in SHA-256, the same digest as hashlib's, so a start
does not load OpenSSL's ``_hashlib``.  ``sweep`` gives each sample of every
suite its stream, and ``retry`` is the one redraw policy.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, TypeVar

from .errors import Inadmissible, SampleExhausted
from .report import CheckRecord, outcome

# _sha2 from Python 3.12 on, _sha256 before; hashlib where neither is built
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

RETRY_BOUND = 100

T = TypeVar("T")


def rng_for(seed: int, *labels: object) -> random.Random:
    """A Random stream uniquely determined by (seed, labels)."""
    material = ":".join([str(seed)] + [str(x) for x in labels])
    digest = sha256(material.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sample_rational(rng: random.Random) -> Fraction:
    """A nonzero rational: numerator +-1..64 over denominator 1..64."""
    num = rng.randint(1, 64) * rng.choice((-1, 1))
    return Fraction(num, rng.randint(1, 64))


def sample_q(rng: random.Random) -> Fraction:
    """A base q: a sampled rational other than +-1."""
    while True:
        q = sample_rational(rng)
        if abs(q) != 1:
            return q


def sample_sequence(rng: random.Random, length: int) -> tuple[Fraction, ...]:
    return tuple(sample_rational(rng) for _ in range(length))


def require_size(name: str, value: int, least: int = 0) -> None:
    """A ValueError for a size below least, such as a negative n_max."""
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {name} = {value}")


def retry(attempt: Callable[[], T | None], reason: str) -> T:
    """The first draw attempt() accepts, in at most RETRY_BOUND tries.

    A try rejects its draw by returning None or by hitting a zero
    denominator (Inadmissible or ZeroDivisionError); when every try is
    rejected, SampleExhausted(reason) is raised.
    """
    for _ in range(RETRY_BOUND):
        try:
            drawn = attempt()
        except (Inadmissible, ZeroDivisionError):
            continue
        if drawn is not None:
            return drawn
    raise SampleExhausted(reason)


def sweep(suite: str, identity: str, citation: str, seed: int, samples: int,
          draw: Callable[[random.Random], T],
          checks: Callable[[T, int | None], list[CheckRecord]],
          parametric: bool = True, stream: str | None = None) -> list[CheckRecord]:
    """checks(draw(rng), sample) for every sample of one item.

    Sample i draws from rng_for(seed, stream, identity, i), the stream
    defaulting to the suite; an item that is not parametric has the one
    sample None, and each draw is dropped before the next.  A draw that
    raises SampleExhausted is a failed "sampling" check with its reason.
    Raises ValueError for samples < 1, as a run of no sample checks nothing.
    """
    require_size("samples", samples, 1)
    records: list[CheckRecord] = []
    for i in range(samples if parametric else 1):
        sample = i if parametric else None
        try:
            drawn = draw(rng_for(seed, stream or suite, identity, i))
        except SampleExhausted as exc:
            records.append(outcome(suite, identity, "sampling", citation, False,
                                   sample=sample, reason=str(exc)))
            continue
        records.extend(checks(drawn, sample))
        del drawn
    return records
