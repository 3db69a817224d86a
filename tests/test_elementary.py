from collections import Counter
from fractions import Fraction as F

import pytest

from telesum import elementary
from telesum.elementary import (ELEMENTARY, ElementaryIdentity, FTerm, Mono,
                                degree_spans, eval_terms, expand,
                                grid_shape, grid_zero_check, sampled_zero_check)
from telesum.report import FAIL, PASS
from telesum.sampling import rng_for, sample_rational
from test_elementary_ints import reference_expand, reference_grid_zero_check


def test_qchv_elem_spot():
    ident, point = ELEMENTARY["qchv_elem"], (F(2), F(3))  # (a, b)
    assert eval_terms(ident.lhs, point) == -1
    assert eval_terms(ident.rhs, point) == -1


def test_dougall_symmetric_spot():
    ident, point = ELEMENTARY["dougall_symmetric"], (F(2), F(3), F(5), F(7))  # (x, lam, mu, nu)
    assert eval_terms(ident.lhs, point) == F(720, 7)
    assert eval_terms(ident.rhs, point) == F(720, 7)


# independent transcriptions used as oracles against the term tables

def _sears_direct(a, b, c, d, e):
    f = a * b * c / (d * e)
    lhs = 1 - (1 - a) * (1 - b) * (1 - c) / ((1 - d) * (1 - e) * (1 - f))
    rhs = ((1 - e / a) * (1 - f / a) / ((1 - e) * (1 - f))) * a * (
        1 - (1 - a) * (1 - d / b) * (1 - d / c) / ((1 - d) * (1 - a / e) * (1 - a / f)))
    return lhs, rhs


def _tpn_direct(a, b, c, d, e, f):
    lhs = 1 - ((1 - b) * (1 - c) * (1 - d) * (1 - e) * (1 - f)
               * (1 - a ** 3 / (b * c * d * e * f))) / (
        (1 - a / b) * (1 - a / c) * (1 - a / d) * (1 - a / e) * (1 - a / f)
        * (1 - b * c * d * e * f / a ** 2))
    r1 = ((1 - a) * (1 - a / (e * f)) * (1 - a ** 2 / (b * c * d * e))
          * (1 - a ** 2 / (b * c * d * f))) / (
        (1 - a / e) * (1 - a / f) * (1 - a ** 2 / (b * c * d))
        * (1 - a ** 2 / (b * c * d * e * f)))
    r2 = ((1 - a / (b * c)) * (1 - a / (b * d)) * (1 - a / (c * d)) * (1 - e)
          * (1 - f) * (1 - a ** 3 / (b * c * d * e * f))) / (
        (1 - a / b) * (1 - a / c) * (1 - a / d) * (1 - a ** 2 / (b * c * d * e))
        * (1 - a ** 2 / (b * c * d * f)) * (1 - e * f / a))
    return lhs, r1 * (1 - r2)


def _tpn_iter_direct(a, b, c, d, e, f):
    lhs = _tpn_direct(a, b, c, d, e, f)[0]
    r1 = ((1 - a) * (1 - d) * (1 - a ** 2 / (b * c * d * e))
          * (1 - a ** 2 / (b * c * d * f)) * (1 - a ** 2 / (b * d * e * f))
          * (1 - a ** 2 / (c * d * e * f))) / (
        (1 - a / b) * (1 - a / c) * (1 - a / e) * (1 - a / f)
        * (1 - a ** 2 / (b * c * d * e * f)) * (1 - a ** 3 / (b * c * d ** 2 * e * f)))
    r2 = ((1 - a / (b * d)) * (1 - a / (c * d)) * (1 - a / (d * e)) * (1 - a / (d * f))
          * (1 - a ** 2 / (b * c * d * e * f)) * (1 - a ** 3 / (b * c * d * e * f))) / (
        (1 - 1 / d) * (1 - a / d) * (1 - a ** 2 / (b * c * d * e))
        * (1 - a ** 2 / (b * c * d * f)) * (1 - a ** 2 / (b * d * e * f))
        * (1 - a ** 2 / (c * d * e * f)))
    return lhs, r1 * (1 - r2)


def _dougall_n1_direct(a, b, c, d):
    lhs = (1 - b) * (1 - c) * (1 - d) * (a * a - b * c * d) * a \
        - (1 - a) * (a - b * c) * (a - b * d) * (a - c * d)
    rhs = (a - b) * (a - c) * (a - d) * (a - b * c * d)
    return lhs, rhs


def _sym_direct(x, lam, mu, nu):
    lhs = (1 - x * lam) * (1 - x / lam) * (1 - mu * nu) * (1 - mu / nu) \
        - (1 - x * nu) * (1 - x / nu) * (1 - lam * mu) * (1 - mu / lam)
    rhs = mu / lam * (1 - x * mu) * (1 - x / mu) * (1 - lam * nu) * (1 - lam / nu)
    return lhs, rhs


DIRECT = {
    "qchv_elem": lambda a, b: ((1 - b) * a - (1 - a) * b, a - b),
    "sears_n1": _sears_direct,
    "ten_phi_nine_n1": _tpn_direct,
    "ten_phi_nine_iter": _tpn_iter_direct,
    "dougall_n1": _dougall_n1_direct,
    "dougall_symmetric": _sym_direct,
}


def test_tables_agree_with_direct_transcriptions():
    # dougall_n1's table is the a-cleared Laurent form: compare via lhs - rhs
    rng = rng_for(31, "cross")
    for key, direct in DIRECT.items():
        ident = ELEMENTARY[key]
        done = 0
        while done < 40:
            point = tuple(sample_rational(rng) for _ in ident.vars)
            try:
                table_delta = eval_terms(ident.lhs, point) - eval_terms(ident.rhs, point)
                lhs, rhs = direct(*point)
                direct_delta = lhs - rhs
            except ZeroDivisionError:
                continue
            if key == "dougall_n1":
                direct_delta /= point[0]  # table divides the identity by a
            assert table_delta == direct_delta == 0, (key, point)
            done += 1


def test_sampled_mode_all_identities():
    for key, ident in ELEMENTARY.items():
        records = sampled_zero_check(ident, seed=13, samples=60)
        assert records[0].status == PASS, key


def test_grid_mode_small_identities():
    for key in ("qchv_elem", "dougall_n1", "dougall_symmetric", "sears_n1"):
        records = grid_zero_check(ELEMENTARY[key])
        assert records[0].status == PASS, key


def test_grid_shapes_are_reasonable():
    assert grid_shape(ELEMENTARY["qchv_elem"]) == (3, 3)
    spans = degree_spans(ELEMENTARY["dougall_symmetric"])
    assert all(s >= 2 for s in spans)


def test_grid_detects_mutation():
    ident = ELEMENTARY["dougall_symmetric"]
    t = ident.rhs[0]
    mutated = ident._replace(rhs=(FTerm(t.coeff, t.num[:-1] + (t.num[-1] ** 2,), t.den),))
    assert grid_zero_check(mutated)[0].status == FAIL
    assert sampled_zero_check(mutated, seed=3, samples=20)[0].status == FAIL


def test_sampled_detects_mutation_with_witness():
    ident = ELEMENTARY["qchv_elem"]
    t = ident.rhs[0]
    mutated = ident._replace(rhs=(FTerm(t.coeff ** 2, t.num, t.den),) + ident.rhs[1:])
    record = sampled_zero_check(mutated, seed=4, samples=20)[0]
    assert record.status == FAIL
    assert "delta" in record.witness


def test_every_identity_expands_to_zero():
    for key, ident in ELEMENTARY.items():
        assert expand(ident) == {}, key


def test_mutation_leaves_nonzero_coefficients():
    ident = ELEMENTARY["dougall_symmetric"]
    t = ident.rhs[0]
    mutated = ident._replace(rhs=(FTerm(t.coeff, t.num[:-1] + (t.num[-1] ** 2,), t.den),))
    poly = expand(mutated)
    assert len(poly) == 16
    assert all(c != 0 for c in poly.values())


def test_grid_check_reads_expand_and_grid_shape_once_per_identity(monkeypatch):
    """The grid check's expansion is the public ``expand`` and its grid the
    public ``grid_shape``, for a pass and for a failure alike."""
    calls = Counter()
    for name in ("expand", "grid_shape"):
        def counted(ident, name=name, real=getattr(elementary, name)):
            calls[name] += 1
            return real(ident)
        monkeypatch.setattr(elementary, name, counted)
    t = ELEMENTARY["dougall_symmetric"].rhs[0]
    mutated = ELEMENTARY["dougall_symmetric"]._replace(
        rhs=(FTerm(t.coeff, t.num[:-1] + (t.num[-1] ** 2,), t.den),))
    for ident in (*ELEMENTARY.values(), mutated):
        calls.clear()
        [rec] = grid_zero_check(ident)
        assert rec.status == (FAIL if ident is mutated else PASS), ident.key
        assert calls == {"expand": 1, "grid_shape": 1}, ident.key


A, B = Mono(F(1), (1, 0)), Mono(F(1), (0, 1))
ONE = Mono(F(1), (0, 0))
HALF = Mono(F(1, 2), (0, 0))


def _ident(lhs, rhs):
    return ElementaryIdentity("test", "test identity", ("a", "b"), lhs, rhs)


def test_constant_denominator_factor_is_rejected():
    # a + 1/(1 - 1) = b + 1/(1 - 1): clearing by the zero factor (1 - 1)
    # leaves P = 1 - 1 = 0, a false pass
    ident = _ident((FTerm(A), FTerm(ONE, den=(ONE,))), (FTerm(B), FTerm(ONE, den=(ONE,))))
    with pytest.raises(ValueError, match="constant denominator factor"):
        grid_zero_check(ident)
    with pytest.raises(ValueError, match="constant denominator factor"):
        expand(_ident((FTerm(A, den=(HALF,)),), (FTerm(A, den=(HALF,)),)))


def test_non_unit_coefficients_are_proved_and_refuted():
    # qchv_elem halved, and 1/(1 - 2a) - 1 = 2a/(1 - 2a)
    halved = _ident((FTerm(A * HALF, num=(B,)), FTerm(-(B * HALF), num=(A,))),
                    (FTerm(A * HALF), FTerm(-(B * HALF))))
    two_a = Mono(F(2), (1, 0))
    geometric = _ident((FTerm(ONE, den=(two_a,)), FTerm(-ONE)), (FTerm(two_a, den=(two_a,)),))
    for ident in (halved, geometric):
        assert expand(ident) == {}
        assert grid_zero_check(ident)[0].status == PASS
    wrong = geometric._replace(rhs=(FTerm(Mono(F(3), (1, 0)), den=(two_a,)),))
    record = grid_zero_check(wrong)[0]
    assert record.status == FAIL
    assert record.witness == {"a": "2", "b": "3", "grid": "3x2"}
    # coefficients and factor monomials over 2, 3, 4, 5: the cleared terms'
    # denominators are 24, 80, 3, 8, 12, 16, 80, 12 and 2, their lcm 240
    mono = lambda c, *exps: Mono(F(c), exps)  # noqa: E731
    lhs = (FTerm(mono("1/2", 0, 0), num=(mono("2/3", 1, 0),)),
           FTerm(mono("3/4", 0, 1), num=(mono("1/5", 1, 0),)),
           FTerm(mono("2/3", 0, 0), den=(mono("3/4", 0, 1),)))
    rhs = (FTerm(mono("1/2", 0, 0)), FTerm(mono("-1/3", 1, 0)), FTerm(mono("3/4", 0, 1)),
           FTerm(mono("-3/20", 1, 1)), FTerm(mono("2/3", 0, 0)),
           FTerm(mono("1/2", 0, 1), den=(mono("3/4", 0, 1),)))
    mixed = _ident(lhs, rhs)
    off = mixed._replace(rhs=rhs[:3] + (FTerm(mono("-3/19", 1, 1)),) + rhs[4:])
    assert expand(mixed) == reference_expand(mixed) == {}
    assert grid_zero_check(mixed) == reference_grid_zero_check(mixed)
    assert grid_zero_check(mixed)[0].status == PASS
    assert expand(off) and expand(off) == reference_expand(off)
    assert grid_zero_check(off) == reference_grid_zero_check(off)
    assert grid_zero_check(off)[0].status == FAIL


def test_repeated_denominator_factor_is_cleared_to_its_power():
    # 1/(1 - a)^2 - 1/(1 - a) = a/(1 - a)^2, and the same with a wrong numerator
    ident = _ident((FTerm(ONE, den=(A, A)), FTerm(-ONE, den=(A,))), (FTerm(A, den=(A, A)),))
    assert expand(ident) == {}
    assert grid_zero_check(ident)[0].status == PASS
    wrong = ident._replace(rhs=(FTerm(A, den=(A,)),))
    assert grid_zero_check(wrong)[0].status == FAIL
    assert sampled_zero_check(wrong, seed=3, samples=5)[0].status == FAIL
