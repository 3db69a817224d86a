from collections import Counter
from fractions import Fraction as F

import pytest

from telesum import runner
from telesum.elementary import ELEMENTARY, eval_terms
from telesum.errors import DivisionByZero
from telesum.genhyp import (OPERATIONS, SequenceParams, dougall_terms, macdonald_cv,
                            macdonald_cv_permuted, macdonald_dougall,
                            macdonald_ps, ps_terms, relabeled_for_permutation,
                            relation_fails_at, sample_sequence_params, with_d_zero)
from telesum.sampling import rng_for, sample_rational


def test_cv_n0_collapses_to_one():
    p = SequenceParams(a=(F(2),), b=(F(3),))
    assert macdonald_cv(p) == (1, 1)


def test_cv_constant_sequences():
    p = SequenceParams(a=(F(2),) * 3, b=(F(3),) * 3)
    lhs, rhs = macdonald_cv(p)
    assert lhs == rhs


def test_cv_permuted_constant_sequences():
    p = SequenceParams(a=(F(3),) * 3, b=(F(2),) * 3)
    lhs, rhs = macdonald_cv_permuted(p)
    assert lhs == rhs


def test_ps_n0_and_constants():
    assert macdonald_ps(SequenceParams(a=(F(2),), b=(F(3),), c=(F(5),))) == (1, 1)
    p = SequenceParams(a=(F(2),) * 3, b=(F(3),) * 3, c=(F(5),) * 3)
    lhs, rhs = macdonald_ps(p)
    assert lhs == rhs


def test_dougall_n0():
    p = SequenceParams(a=(F(2),), b=(F(3),), c=(F(5),), d=(F(7),))
    assert macdonald_dougall(p) == (1, 1)


def test_seeded_sweeps_all_ops():
    ops = (("macdonald_cv", macdonald_cv),
           ("macdonald_cv_permuted", macdonald_cv_permuted),
           ("macdonald_ps", macdonald_ps),
           ("macdonald_dougall", macdonald_dougall))
    for i in range(60):
        rng = rng_for(71, "sweep", i)
        length = rng.randint(1, 10)
        for name, fn in ops:
            p = sample_sequence_params(rng, length, name)
            lhs, rhs = fn(p)
            assert lhs == rhs, (name, i)


def test_relabeling_law_exact():
    # permuted form at (a, b) equals the base form at (a/b, 1/b), value for value
    for i in range(40):
        rng = rng_for(72, "relabel", i)
        p = sample_sequence_params(rng, rng.randint(1, 6), "macdonald_cv_permuted")
        direct = macdonald_cv_permuted(p)
        relabeled = macdonald_cv(relabeled_for_permutation(p))
        assert direct == relabeled


def test_d_zero_specializes_to_ps_termwise():
    for i in range(40):
        rng = rng_for(73, "dzero", i)
        p = sample_sequence_params(rng, rng.randint(1, 7), "macdonald_dougall")
        dz = with_d_zero(p)
        assert dougall_terms(dz) == ps_terms(dz)
        assert macdonald_dougall(dz) == macdonald_ps(dz)


def test_inadmissible_point_raises_with_index():
    # a_1 = b_1 c_1 zeroes v_1
    p = SequenceParams(a=(F(2), F(6)), b=(F(3), F(2)), c=(F(5), F(3)))
    with pytest.raises(DivisionByZero):
        macdonald_ps(p)


def test_truncation_argument():
    rng = rng_for(74, "trunc")
    p = sample_sequence_params(rng, 8, "macdonald_cv")
    full = macdonald_cv(p)
    prefix = macdonald_cv(p, n=3)
    assert full[0] == full[1] and prefix[0] == prefix[1]
    assert prefix != full or p.n == 3


@pytest.mark.parametrize("key, op", [("qchv_elem", "macdonald_cv"),
                                     ("dougall_n1", "macdonald_dougall")])
def test_elementary_table_states_the_operation_relation(key, op):
    # the (1 - monomial) table's lhs terms are u and -v, its rhs is w; the
    # q-Dougall specialization checks and the dougall_n1 citation rely on it
    ident, operation = ELEMENTARY[key], OPERATIONS[op]
    assert ident.vars == operation.names
    u_term, v_term = ident.lhs
    rng = rng_for(75, "transcriptions", key)
    for i in range(200):
        point = tuple(sample_rational(rng) for _ in ident.vars)  # nonzero values
        assert eval_terms((u_term,), point) == operation.u(*point), (key, i)
        assert eval_terms((v_term,), point) == -operation.v(*point), (key, i)
        assert eval_terms(ident.rhs, point) == operation.w(*point), (key, i)


@pytest.mark.parametrize("seqs", [
    {"a": (F(2),), "b": (F(7), F(8), F(9))},
    {"a": (F(2), F(3)), "b": (F(7),)},
    {"a": (F(2), F(3)), "b": (F(7), F(8)), "c": (F(5),)},
    {"a": (F(2),), "b": (F(7),), "c": (F(5),), "d": (F(1), F(3))},
    {"a": (), "b": ()},
])
def test_ragged_or_empty_sequences_are_rejected(seqs):
    with pytest.raises(ValueError, match="one common length"):
        SequenceParams(**seqs)


@pytest.mark.parametrize("fn", [macdonald_cv, macdonald_cv_permuted, macdonald_ps,
                                macdonald_dougall])
@pytest.mark.parametrize("n", [-1, 3, 10])
def test_n_outside_the_indices_is_rejected(fn, n):
    p = SequenceParams(a=(F(2), F(3), F(5)), b=(F(7), F(11), F(13)),
                       c=(F(17), F(19), F(23)), d=(F(29), F(31), F(37)))
    with pytest.raises(ValueError, match=f"n = {n} is outside"):
        fn(p, n=n)
    assert fn(p, n=0) == (1, 1)


@pytest.mark.parametrize("call, missing", [
    (macdonald_ps, "c"),
    (macdonald_dougall, "c, d"),
    (lambda p: macdonald_dougall(p._replace(c=(F(5), F(11)))), "d"),
    (lambda p: relation_fails_at("macdonald_ps", p), "c"),
])
def test_a_missing_sequence_is_named(call, missing):
    with pytest.raises(ValueError, match=f"; {missing} not given$"):
        call(SequenceParams(a=(F(2), F(3)), b=(F(5), F(7))))


def _counting(fn, calls, key, name):
    def counted(*args):
        calls[(key, name) + args] += 1
        return fn(*args)
    return counted


def test_genhyp_suite_evaluates_each_value_once(monkeypatch):
    # a draw's probe and its checks share one evaluation of every u_k and v_k
    calls = Counter()
    for key, op in list(OPERATIONS.items()):
        monkeypatch.setitem(OPERATIONS, key, op._replace(
            **{name: _counting(getattr(op, name), calls, key, name) for name in "uvw"}))
    identity = {}
    for key in OPERATIONS:
        records = runner.run_genhyp_item(key, None, 32, 1729)
        assert records and all(r.status == "pass" for r in records)
        identity[key] = [r for r in records if r.check == "identity"]

    assert max(calls.values()) == 1

    def points(key, name):
        return {c[2:] for c in calls if c[:2] == (key, name)}

    for key in OPERATIONS:
        # every index a route reads is read for u and for v; w only at the
        # accepted draws' indices
        assert points(key, "u") == points(key, "v")
        assert len(points(key, "w")) == sum(r.n + 1 for r in identity[key])
    # the Dougall values at d = 0 are the dougall_terms(dz) row's, once per index
    d_zero = {c for c in points("macdonald_dougall", "u") if c[3] == 0}
    assert len(d_zero) == sum(r.n + 1 for r in identity["macdonald_dougall"])
