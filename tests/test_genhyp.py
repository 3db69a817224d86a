from fractions import Fraction as F

import pytest

from telesum.elementary import ELEMENTARY, eval_terms
from telesum.errors import DivisionByZero
from telesum.genhyp import (OPERATIONS, SequenceParams, dougall_terms, macdonald_cv,
                            macdonald_cv_permuted, macdonald_dougall,
                            macdonald_ps, ps_terms, relabeled_for_permutation,
                            sample_sequence_params, with_d_zero)
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
    # the (1 - monomial) table's lhs terms are u and -v, its rhs is w
    ident, operation = ELEMENTARY[key], OPERATIONS[op]
    assert ident.vars == operation.names
    u_term, v_term = ident.lhs
    rng = rng_for(75, "transcriptions", key)
    for i in range(40):
        point = tuple(sample_rational(rng) for _ in ident.vars)  # nonzero values
        assert eval_terms((u_term,), point) == operation.u(*point), (key, i)
        assert eval_terms((v_term,), point) == -operation.v(*point), (key, i)
        assert eval_terms(ident.rhs, point) == operation.w(*point), (key, i)
