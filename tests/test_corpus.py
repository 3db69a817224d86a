from fractions import Fraction as F

import pytest

from telesum.corpus import (CORPUS, _q_power, _TermRow, draw_admissible, evaluate_identity,
                            normalized, q_rising_factorial, rising_factorial)
from telesum.errors import DivisionByZero, Inadmissible
from telesum.point import Row
from telesum.rational import rat_pow
from telesum.runner import specialization_d_zero_checks
from telesum.sampling import rng_for, sample_q, sample_rational


def test_rising_factorial_examples():
    assert rising_factorial(F(7), 0) == 1
    assert rising_factorial(F(2), 3) == 24
    assert rising_factorial(F(-3), 5) == 0  # the natural-termination mechanism


def test_q_rising_factorial_examples():
    assert q_rising_factorial(F(5), F(9), 0) == 1
    assert q_rising_factorial(F(2), F(3), 2) == 5  # (1-2)(1-6)
    # a q^2 = 1 kills the third factor: q-natural termination
    assert q_rising_factorial(F(1, 4), F(2), 3) == 0


def powers(q=None):
    """The powers row a ``_TermRow`` reads: q^k, or None without a base q."""
    p = {} if q is None else {"q": q}
    return Row(lambda k: _q_power(k, p))


def test_hypergeometric_rising_form():
    # (1/2)_2 (-3)_2 / ((2)_2 (1)_2) * (2/3)^2 = (3/4)(6) / (6 * 2) * 4/9
    assert _TermRow([F(1, 2), F(-3)], [F(2), F(1)], F(2, 3), powers())[2] == F(1, 6)
    assert _TermRow([F(-2)], [F(1)], F(5), powers())[3] == 0  # terminated by (-2)_3


def test_hypergeometric_q_shifted_form():
    # (2; 3)_2 / (1/2; 3)_2 * 5^2 = (-1)(-5) / ((1/2)(-1/2)) * 25
    assert _TermRow([F(2)], [F(1, 2)], F(5), powers(F(3)))[2] == -500
    assert _TermRow([F(1, 4)], [], F(1), powers(F(2)))[3] == 0  # (1/4; 2)_3 = 0


def test_hypergeometric_empty_lists_are_a_power():
    assert _TermRow([], [], F(-3, 2), powers())[3] == F(-27, 8)
    assert _TermRow([], [], F(7), powers(F(2)))[0] == 1
    assert _TermRow([F(4)], [F(9)], F(2), powers())[0] == 1


def test_hypergeometric_zero_lower_factor_raises():
    with pytest.raises(DivisionByZero):
        _TermRow([F(1)], [F(-1)], F(1), powers())[2]  # (-1)_2 = 0
    with pytest.raises(DivisionByZero):
        _TermRow([F(0)], [F(1, 3)], F(1), powers(F(3)))[2]  # (1/3; 3)_2 = 0, (0; 3)_2 = 1
    with pytest.raises(DivisionByZero):  # a zero upper factor does not cancel it
        _TermRow([F(-1)], [F(-1)], F(1), powers())[2]


def test_chu_vandermonde_spot_value():
    lhs, rhs = evaluate_identity(CORPUS["chu_vandermonde"], 2, {"a": F(1), "b": F(3)})
    assert lhs == rhs == F(1, 2)


def test_q_binomial_n1_is_one_minus_z():
    for z, q in ((F(3, 7), F(2)), (F(-5), F(5, 3))):
        lhs, rhs = evaluate_identity(CORPUS["q_binomial"], 1, {"z": z, "q": q})
        assert lhs == rhs == 1 - z


def test_ramanujan_spot_value():
    lhs, rhs = evaluate_identity(CORPUS["ramanujan_entry25"], 1,
                                 {"x": F(1), "a": (F(1), F(1), F(1))})
    assert lhs == rhs == F(3, 4)


def test_rising_fact_sum_spot_value():
    lhs, rhs = evaluate_identity(CORPUS["rising_fact_sum"], 4, {"m": 2})
    assert lhs == rhs == 40


def test_reciprocal_rising_fact_sum_converging_instance():
    # m = 1 is the sum used for 1/(k(k+1)); check a few prefixes by hand
    idef = CORPUS["reciprocal_rising_fact_sum"]
    lhs, rhs = evaluate_identity(idef, 2, {"m": 1})
    assert lhs == rhs == F(1, 2) + F(1, 6)


def test_geometric_matches_closed_form():
    lhs, rhs = evaluate_identity(CORPUS["geometric"], 5, {"x": F(3, 2)})
    assert lhs == rhs


def test_binomial_x1_is_powers_of_two():
    idef = CORPUS["binomial_x1"]
    for n in range(8):
        lhs, rhs = evaluate_identity(idef, n, {})
        assert lhs == rhs == 2 ** n


def test_every_identity_seeded_sweep():
    for key, idef in CORPUS.items():
        n_max = min(idef.n_max, 6 if key == "q_dougall" else 8)
        for i in range(3):
            rng = rng_for(57, "corpus", key, i)
            params = draw_admissible(idef, rng, n_max)
            for n in range(n_max + 1):
                lhs, rhs = evaluate_identity(idef, n, params)
                assert lhs == rhs, (key, n, params)


def test_remaining_identities_full_sample_sweep():
    # geometric and rogers_6phi5 are not pinned by a dedicated acceptance
    # criterion; give them the same 32-sample treatment at their own n_max
    for key in ("geometric", "rogers_6phi5"):
        idef = CORPUS[key]
        for i in range(32):
            rng = rng_for(62, "full", key, i)
            params = draw_admissible(idef, rng, idef.n_max)
            for n in range(idef.n_max + 1):
                lhs, rhs = evaluate_identity(idef, n, params)
                assert lhs == rhs, (key, n)


def test_natural_termination_of_summands():
    rng = rng_for(58, "nats")
    for key in ("binomial", "chu_vandermonde", "pfaff_saalschutz",
                "q_binomial", "q_chu_vandermonde", "q_pfaff_saalschutz",
                "q_dougall", "rogers_6phi5"):
        idef = CORPUS[key]
        params = draw_admissible(idef, rng, 6)
        for n in range(5):
            for k in range(n + 1, n + 4):
                assert idef.term(n, k, params) == 0, (key, n, k)


def test_q_binomial_degenerate_row_is_zero_zero():
    # z = q^(-j) for j < n zeroes the right side; both sides must agree
    idef = CORPUS["q_binomial"]
    rng = rng_for(59, "degenerate")
    for n in (2, 4, 6):
        q = sample_q(rng)
        z = rat_pow(q, -(n - 1))
        lhs, rhs = evaluate_identity(idef, n, {"z": z, "q": q})
        assert rhs == 0
        assert lhs == 0


def test_q_dougall_spec_sample_n3():
    params = {"q": F(2, 3), "a": F(5), "b": F(2), "c": F(3), "d": F(7)}
    lhs, rhs = evaluate_identity(CORPUS["q_dougall"], 3, params)
    assert lhs == rhs


def test_specialization_d_zero_spot_and_degenerate():
    assert all(specialization_d_zero_checks(F(2, 3), F(5), F(2), F(3), F(7)).values())
    # b = 1 trivializes both sides consistently
    assert all(specialization_d_zero_checks(F(2, 3), F(5), F(1), F(3), F(7)).values())


def test_specialization_d_zero_sweep():
    rng = rng_for(60, "spec32")
    done = 0
    while done < 32:
        q = sample_q(rng)
        vals = {name: sample_rational(rng) for name in "abcd"}
        try:
            outcome = specialization_d_zero_checks(q, vals["a"], vals["b"],
                                                   vals["c"], vals["d"])
        except Inadmissible:
            continue
        assert all(outcome.values()), (q, vals)
        done += 1


def test_admissibility_probe_rejects_bad_points(monkeypatch):
    idef = CORPUS["binomial"]
    from telesum.corpus import DECLARED, admissible
    from telesum.runner import run_ez_item
    assert not admissible(idef, 5, {"x": F(0)})   # certificate w_0 = 0
    assert not admissible(idef, 5, {"x": F(-1)})  # rhs = 0
    assert admissible(idef, 5, {"x": F(3)})
    # v(n, k) = k (k - 1) vanishes at v(0, 1), on every draw: w(0, 0) = -a != 0
    zero_v = DECLARED["chu_vandermonde"]._replace(v=lambda n, a, b: ([0, -1], 1)).identity()
    assert not admissible(zero_v, 5, {"a": F(1, 3), "b": F(2, 7)})
    monkeypatch.setitem(CORPUS, "chu_vandermonde", zero_v)
    [record] = run_ez_item("chu_vandermonde", None, 1, 1729)
    assert (record.check, record.status) == ("sampling", "fail")


def test_normalized_rows_sum_to_one():
    idn = normalized(CORPUS["pfaff_saalschutz"])
    rng = rng_for(61, "rows")
    params = draw_admissible(CORPUS["pfaff_saalschutz"], rng, 6)
    for n in range(7):
        assert sum(idn.F(n, k, params) for k in range(n + 1)) == 1
