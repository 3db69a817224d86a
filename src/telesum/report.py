"""Structured verification outcomes.

Every suite builds its records with ``record``, which takes the status, or
with ``outcome`` (PASS without a witness, FAIL with one), and its witnesses
with ``witness``.  A Report is a flat list of per-check records plus the
seed that produced them.  Record order is normalized by a stable sort key
so that reports are identical regardless of worker count or scheduling;
the JSON rendering is byte-identical for a fixed (suite, seed, flags)
triple.  ``to_json`` writes what ``json.dumps`` writes for ``to_json_dict``
(sorted keys, no spaces, ASCII escapes), each record through one template.
Wall time is tracked for the text rendering only and never enters the JSON.
A record is a NamedTuple and a Report a plain class: a start that imports
``dataclasses`` also loads ``inspect``, ``dis`` and ``ast``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Mapping, NamedTuple

from .rational import Pair, format_rational

PASS = "pass"
FAIL = "fail"
INADMISSIBLE = "inadmissible"

SCHEMA_VERSION = 1

#: JSON as the report writes it: sorted keys, no spaces, ASCII escapes.
_dumps = partial(json.dumps, sort_keys=True, separators=(",", ":"))


class CheckRecord(NamedTuple):
    suite: str
    identity: str
    check: str
    status: str
    n: int | None = None
    sample: int | None = None
    witness: dict[str, str] | None = None
    citation: str = ""

    def sort_key(self) -> tuple:
        return (
            self.suite,
            self.identity,
            self.check,
            -1 if self.sample is None else self.sample,
            -1 if self.n is None else self.n,
        )


def witness(params: Mapping[str, object], **extra: object) -> dict[str, str]:
    """Each parameter, then each extra value, as text: "num/den" or "n" for a
    rational (a Pair reduced) or integer, "(x0, x1, ...)" for a sequence,
    str() otherwise."""
    out: dict[str, str] = {}
    for name, value in params.items():
        if isinstance(value, tuple):
            out[name] = "(" + ", ".join(format_rational(x) for x in value) + ")"
        else:
            out[name] = format_rational(value)  # type: ignore[arg-type]
    for name, value in extra.items():
        out[name] = (format_rational(value) if isinstance(value, (Fraction, Pair))
                     else str(value))
    return out


def record(suite: str, identity: str, check: str, citation: str, status: str,
           params: Mapping[str, object] | None = None, *, n: int | None = None,
           sample: int | None = None, **extra: object) -> CheckRecord:
    """One check's record with the given status, witnessed by
    witness(params, **extra), or by none when neither is given."""
    return CheckRecord(suite=suite, identity=identity, check=check, status=status, n=n,
                       sample=sample, citation=citation,
                       witness=None if params is None and not extra
                       else witness(params or {}, **extra))


def outcome(suite: str, identity: str, check: str, citation: str, ok: bool,
            params: Mapping[str, object] | None = None, *, n: int | None = None,
            sample: int | None = None, **extra: object) -> CheckRecord:
    """One check's record: PASS without a witness when ok, otherwise FAIL
    with witness(params, **extra)."""
    if ok:
        return record(suite, identity, check, citation, PASS, n=n, sample=sample)
    return record(suite, identity, check, citation, FAIL, params or {}, n=n, sample=sample,
                  **extra)


class Report:
    def __init__(self, suite: str, seed: int, records: list[CheckRecord] | None = None,
                 wall_time: float = 0.0) -> None:
        self.suite = suite
        self.seed = seed
        self.records = [] if records is None else records
        self.wall_time = wall_time

    def extend(self, records: list[CheckRecord]) -> None:
        self.records.extend(records)

    def sorted_records(self) -> list[CheckRecord]:
        return sorted(self.records, key=CheckRecord.sort_key)

    def totals(self) -> dict[str, int]:
        counts = {"checks": len(self.records), PASS: 0, FAIL: 0, INADMISSIBLE: 0}
        for r in self.records:
            counts[r.status] += 1
        return counts

    @property
    def ok(self) -> bool:
        """At least one check ran and none failed; an empty run proves nothing."""
        return bool(self.records) and all(r.status != FAIL for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.sorted_records() if r.status == FAIL]

    def to_json_dict(self, flags: dict | None = None) -> dict:
        totals = self.totals()
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "seed": self.seed,
            "flags": flags or {},
            "totals": totals,
            "results": [
                {
                    "suite": r.suite,
                    "identity": r.identity,
                    "check": r.check,
                    "n": r.n,
                    "sample": r.sample,
                    "status": r.status,
                    "witness": r.witness,
                    "citation": r.citation,
                }
                for r in self.sorted_records()
            ],
        }

    def to_json(self, flags: dict | None = None) -> str:
        """_dumps(to_json_dict(flags)) and a newline, byte for byte.

        Each record is one template over its fields' encoded strings, each
        string encoded once per report; a witness goes through _dumps.
        """
        encoded = _Encoded()
        results = ",".join([
            f'{{"check":{encoded[r.check]},"citation":{encoded[r.citation]},'
            f'"identity":{encoded[r.identity]},'
            f'"n":{"null" if r.n is None else r.n},'
            f'"sample":{"null" if r.sample is None else r.sample},'
            f'"status":{encoded[r.status]},"suite":{encoded[r.suite]},'
            f'"witness":{"null" if r.witness is None else _dumps(r.witness)}}}'
            for r in self.sorted_records()])
        return (f'{{"flags":{_dumps(flags or {})},"results":[{results}],'
                f'"schema":{SCHEMA_VERSION},"seed":{_dumps(self.seed)},'
                f'"suite":{_dumps(self.suite)},"totals":{_dumps(self.totals())}}}\n')


class _Encoded(dict):
    """Each string's JSON text, encoded at its first lookup."""

    def __missing__(self, text: str) -> str:
        value = self[text] = encode_basestring_ascii(text)
        return value

