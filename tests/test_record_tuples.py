"""The records that a sequences, genhyp or check start defines behave as
the frozen dataclasses they replaced, and item streams keep hashlib's digest.

Sequences' ``RecurrenceSpec``, ``Generic``, ``PrintedIdentity`` and
``Family``, genhyp's ``SequenceParams``, ``Operation`` and ``_Route``,
``telescope.TelescopeProblem``, ``point.Param``, ``certify.Certificate`` and
exprlang's syntax nodes, ``_Tok`` and ``IdentityConfig`` are NamedTuples,
so that those starts import no ``dataclasses``.  Each reference class below
is the replaced dataclass, field for field (``SequenceParams``'s with its
``__post_init__``, verbatim); the tests hold each record to its repr,
equality, hash, field defaults and ``dataclasses.replace``.  ``rng_for``
takes CPython's built-in SHA-256 instead of hashlib's; the streams must
not move.
"""

import dataclasses
import hashlib
import random
from dataclasses import make_dataclass
from fractions import Fraction as F

import pytest

from telesum.certify import Certificate
from telesum.corpus import CORPUS
from telesum.exprlang import (Bin, Call, IdentityConfig, Lit, Neg, Pow, Prod, Var, _Tok,
                              _tokenize, parse_config)
from telesum.genhyp import OPERATIONS, Operation, SequenceParams, _exact, _route, _Route
from telesum.point import Param
from telesum.sampling import rng_for
from telesum.sequences import FAMILIES, GENERIC, Family, Generic, PrintedIdentity, RecurrenceSpec
from telesum.telescope import TelescopeProblem


def _old_post_init(self) -> None:
    lengths = {name: len(seq) for name, seq in vars(self).items() if seq is not None}
    if len(set(lengths.values())) != 1 or not lengths["a"]:
        given = ", ".join(f"{name}={length}" for name, length in lengths.items())
        raise ValueError(f"sequence parameters need one common length >= 1, got {given}")


def _reference(cls, namespace=None):
    """The frozen dataclass with cls's name, fields and defaults."""
    defaults = cls._field_defaults
    spec = [(name, object, defaults[name]) if name in defaults else name
            for name in cls._fields]
    return make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


REFERENCES = {cls: _reference(cls) for cls in (
    RecurrenceSpec, Generic, PrintedIdentity, Family, Operation, _Route, TelescopeProblem,
    Param, Certificate, Lit, Var, Neg, Bin, Pow, Call, Prod, _Tok, IdentityConfig)}
REFERENCES[SequenceParams] = _reference(SequenceParams, {"__post_init__": _old_post_init})

TKID = "name: b\nparams: x\nrequire: x\nlhs: binom(n, k) * x^k\nrange: 0 .. n\nrhs: (1 + x)^n\n"
POINT = SequenceParams(a=(F(1, 2), F(2)), b=(F(3), F(-1, 5)))


def _u(k):
    return F(k + 2)


#: (record, the changes a replace makes to it), one or more per class
CASES = [
    (FAMILIES["pell"].make({}), {"name": "other", "x0": F(1)}),
    (GENERIC[1], {"norm": (1,)}),
    (FAMILIES["fibonacci"].printed[0], {"k_start": 0}),
    (FAMILIES["schur_q_fib"], {"key": "other", "params": ()}),
    (OPERATIONS["macdonald_cv"], {"citation": "other"}),
    (_route(OPERATIONS["macdonald_cv"], _exact(POINT)), {"sides": (1, 2)}),
    (TelescopeProblem(_u, _u, 3), {"n": 4}),
    (Param("x"), {"kind": "q"}),
    (Param("m", kind="int", int_range=(1, 5)), {"int_range": (0, 4)}),
    (CORPUS["binomial"].certificate, {"v": _u}),
    (POINT, {"a": (F(1), F(2))}),
    (SequenceParams(a=(F(1),), b=(F(2),), c=(F(3),), d=(F(4),)), {"d": None}),
    (Lit(F(2, 3)), {"value": F(1)}),
    (Var("x"), {"name": "y"}),
    (Neg(Var("x")), {"arg": Lit(F(1))}),
    (Bin("+", Var("x"), Lit(F(1))), {"op": "*"}),
    (Pow(Var("x"), Neg(Lit(F(2)))), {"exponent": Var("n")}),
    (Call("rf", (Var("x"), Lit(F(2)))), {"func": "qrf"}),
    (Prod("j", Lit(F(1)), Var("n"), Var("j")), {"hi": Lit(F(3))}),
    (_tokenize("rf(x, 12)")[4], {"column": 1}),
    (parse_config(TKID), {"cert_u": Var("x"), "cert_v": Var("k")}),
]


def _as_reference(record):
    return REFERENCES[type(record)](*record)


def _fields(ref) -> tuple:
    return tuple(getattr(ref, f.name) for f in dataclasses.fields(ref))


def test_every_replaced_class_has_a_case():
    assert {type(record) for record, _ in CASES} == set(REFERENCES)


@pytest.mark.parametrize("record, changes", CASES, ids=lambda x: type(x).__name__)
def test_record_matches_its_dataclass(record, changes):
    ref = _as_reference(record)
    assert repr(record) == repr(ref)
    assert record == type(record)(*record) and record == record._replace()
    assert record != record._replace(**changes)
    try:
        expected = hash(ref)
    except TypeError:  # a field holds a list, in the dataclass too
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    changed = record._replace(**changes)
    assert type(changed) is type(record)
    assert tuple(changed) == _fields(dataclasses.replace(ref, **changes))
    assert repr(changed) == repr(dataclasses.replace(ref, **changes))
    with pytest.raises(AttributeError):
        setattr(record, type(record)._fields[0], None)


def test_param_defaults_match_the_dataclass():
    ref = REFERENCES[Param]
    assert Param("x") == Param("x", "rational", (0, 5))
    assert _fields(ref("x")) == tuple(Param("x")) == ("x", "rational", (0, 5))
    assert Param._field_defaults == {"kind": "rational", "int_range": (0, 5)}


BAD_LENGTHS = [
    dict(a=(F(1),), b=(F(1), F(2))),
    dict(a=(), b=()),
    dict(a=(F(1), F(2)), b=(F(3), F(4)), c=(F(5),)),
    dict(a=(F(1),), b=(F(2),), c=None, d=(F(3), F(4), F(5))),
]


@pytest.mark.parametrize("given", BAD_LENGTHS)
def test_sequence_params_rejects_unequal_lengths_with_the_same_text(given):
    with pytest.raises(ValueError) as old:
        REFERENCES[SequenceParams](**given)
    with pytest.raises(ValueError) as new:
        SequenceParams(**given)
    assert str(new.value) == str(old.value)
    assert str(new.value).startswith("sequence parameters need one common length >= 1, got a=")


def test_sequence_params_replace_checks_lengths_as_the_dataclass_did():
    ref = _as_reference(POINT)
    for changes in ({"c": (F(1),)}, {"a": ()}, {"b": (F(1), F(2), F(3))}):
        with pytest.raises(ValueError) as old:
            dataclasses.replace(ref, **changes)
        with pytest.raises(ValueError) as new:
            POINT._replace(**changes)
        assert str(new.value) == str(old.value)
    assert POINT.n == 1 and POINT._replace(c=(F(1), F(2))).c == (F(1), F(2))


@pytest.mark.parametrize("seed, labels", [
    (1729, ("ez", "binomial", 0)),
    (7, ("family", "schur_q_fib", 3)),
    (4242, ("genhyp", "macdonald_dougall", 31)),
    (0, ()),
    (-3, ("élémentaire", None, 2.5)),
])
def test_rng_for_keeps_the_hashlib_stream(seed, labels):
    material = ":".join([str(seed)] + [str(x) for x in labels]).encode("utf-8")
    reference = random.Random(int.from_bytes(hashlib.sha256(material).digest()[:8], "big"))
    assert rng_for(seed, *labels).getstate() == reference.getstate()
