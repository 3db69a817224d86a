from fractions import Fraction as F

import pytest

from telesum import sequences
from telesum.corpus import draw_params
from telesum.errors import Inadmissible
from telesum.rational import ONE, ZERO, Pair, const
from telesum.sampling import retry, rng_for, sample_rational
from telesum.sequences import (FAMILIES, RecurrenceSpec, family_sides, generate,
                               lucas_gen_sides, random_spec, verify_family_suite,
                               verify_lucas_gen)
from telesum.telescope import solve_linear_recurrence


def fibonacci_poly(x, y):
    return RecurrenceSpec("fibonacci_poly", const(x), const(y), ZERO, ONE)


def all_equal(sides):
    return all(lhs == rhs for _, lhs, rhs in sides)


def test_generate_fibonacci():
    xs = generate(FAMILIES["fibonacci"].make({}), 12)
    assert xs[12] == 144
    assert [int(x) for x in xs[:7]] == [0, 1, 1, 2, 3, 5, 8]


def test_generate_shifted_derangements():
    xs = generate(FAMILIES["shifted_derangement"].make({}), 5)
    assert [int(x) for x in xs] == [0, 1, 2, 9, 44, 265]


def test_generate_goyt_mathisen_early_values():
    x, y, q = F(3), F(5), F(2, 7)
    xs = generate(FAMILIES["goyt_mathisen"].make({"x": x, "y": y, "q": q}), 3)
    assert xs[2] == x
    assert xs[3] == q * x * x + y


def test_generate_q_pell_early_value():
    q = F(2, 3)
    xs = generate(FAMILIES["q_pell"].make({"q": q}), 2)
    assert xs[2] == 1 + q


def test_fibonacci_prefix_sum_instance():
    sides = lucas_gen_sides(FAMILIES["fibonacci"].make({}), 1, 10)
    n, lhs, rhs = sides[10]
    assert lhs == rhs == 143  # sum of F_1..F_10 = F_12 - 1


def test_pell_squared_sum_instance():
    sides = lucas_gen_sides(FAMILIES["pell"].make({}), 4, 3)
    assert all_equal(sides)
    xs = generate(FAMILIES["pell"].make({}), 5)
    assert sum(2 * xs[k] ** 2 for k in range(1, 4)) == 60 == xs[3] * xs[4]


def test_empty_sum_at_n0_every_identity():
    spec = FAMILIES["fibonacci"].make({})
    for which in range(1, 7):
        n, lhs, rhs = lucas_gen_sides(spec, which, 0)[0]
        assert lhs == rhs == 0


def test_schur_shift_zero_instance():
    q = F(2, 5)
    spec = FAMILIES["schur_q_fib"].make({"a": 0, "q": q})
    sides = lucas_gen_sides(spec, 1, 2)
    n, lhs, rhs = sides[2]
    assert lhs == q + q * q
    xs = generate(spec, 4)
    assert xs[4] == 1 + q + q * q
    assert rhs == xs[4] - 1


def test_all_six_identities_on_random_specs():
    for i in range(120):
        spec = random_spec(rng_for(303, "rand", i), 10)
        for which in range(1, 7):
            assert all_equal(lucas_gen_sides(spec, which, 10)), (i, which)


def test_random_spec_redraws_a_zero_x2(monkeypatch):
    # the first draw has x_2 = a_0 x_1 + b_0 x_0 = 1 * (-1) + 1 * 1 = 0
    import telesum.sequences as sequences
    sequences_drawn = iter([[F(1)] * 8, [F(1)] * 8, [F(2)] * 8, [F(3)] * 8])
    rationals_drawn = iter([F(1), F(-1), F(5), F(7)])
    monkeypatch.setattr(sequences, "sample_sequence", lambda rng, length: next(sequences_drawn))
    monkeypatch.setattr(sequences, "sample_rational", lambda rng: next(rationals_drawn))
    spec = random_spec(rng_for(303, "redraw"), 3)
    assert (spec.a(0), spec.b(0), spec.x0, spec.x1) == (2, 3, 5, 7)


def test_divided_form_reports_composite_denominator_first():
    # a_{0} a_{1} + b_{1} = 0 must surface as Inadmissible with the index
    spec = RecurrenceSpec("bad", const(1), lambda n: F(-1) if n == 1 else F(1),
                          F(1), F(1))
    with pytest.raises(Inadmissible, match="j = 1"):
        lucas_gen_sides(spec, 6, 3)
    records = verify_lucas_gen(spec, 6, 3)
    assert records[0].status == "inadmissible"


def test_generic_divided_form_reproduces_printed_fibonacci():
    # the index alignment of the divided form is locked by the printed
    # halving identity: sum F_{k-1}/2^k = 1 - F_{n+2}/2^n
    xs = generate(FAMILIES["fibonacci"].make({}), 22)
    for n, lhs, rhs in lucas_gen_sides(FAMILIES["fibonacci"].make({}), 6, 20):
        printed_lhs = sum(xs[k - 1] / F(2) ** k for k in range(1, n + 1))
        printed_rhs = 1 - xs[n + 2] / F(2) ** n
        assert lhs == printed_lhs
        assert rhs == printed_rhs
        assert lhs == rhs


def test_family_suites_all_pass():
    for key, family in FAMILIES.items():
        if not family.printed:
            continue
        records = verify_family_suite(key, 12, 4, seed=7)
        bad = [r for r in records if r.status != "pass"]
        assert not bad, (key, bad[:2])


def test_fibonacci_and_pell_are_fibonacci_poly_specializations():
    fib_xs = generate(FAMILIES["fibonacci"].make({}), 15)
    poly_xs = generate(fibonacci_poly(F(1), F(1)), 15)
    assert fib_xs == poly_xs
    pell_xs = generate(FAMILIES["pell"].make({}), 15)
    poly_xs = generate(fibonacci_poly(F(2), F(1)), 15)
    assert pell_xs == poly_xs


def test_chebyshev_u_cross_check():
    rng = rng_for(304, "cheb")
    for _ in range(10):
        x = sample_rational(rng)
        xs = generate(fibonacci_poly(2 * x, F(-1)), 12)
        u_prev, u = F(0), F(1)  # U_{-1}, U_0
        for k in range(12):
            assert xs[k + 1] == u if k == 0 else True
            # U recurrence: U_{m+1} = 2x U_m - U_{m-1}
            u_prev, u = u, 2 * x * u - u_prev
        u_vals = [F(0), F(1)]
        for _ in range(11):
            u_vals.append(2 * x * u_vals[-1] - u_vals[-2])
        assert xs == u_vals[: len(xs)]


def test_derangement_link_to_linear_recurrence_solver():
    # D_n = d_{n+1} where d_n comes out of the first-order solver
    D = generate(FAMILIES["shifted_derangement"].make({}), 20)
    b = lambda m: F(m)
    c = lambda m: F((-1) ** m)
    for n in range(20):
        # solver returns x_{m+1} = d_m, so d_{n+1} = solver at m = n + 1
        assert D[n] == solve_linear_recurrence(b, c, F(0), n + 1)


def test_generic_identities_match_printed_for_sampled_families():
    # the printed q-suites are instances of the generic six
    rng = rng_for(305, "match")
    q = sample_rational(rng)
    while q in (0, 1, -1):
        q = sample_rational(rng)
    spec = FAMILIES["schur_q_fib"].make({"a": 1, "q": q})
    for which in range(1, 7):
        assert all_equal(lucas_gen_sides(spec, which, 8))
    spec = FAMILIES["q_pell"].make({"q": q})
    for which in range(1, 7):
        assert all_equal(lucas_gen_sides(spec, which, 8))


def test_negative_sizes_raise_value_error_naming_the_argument():
    spec = FAMILIES["fibonacci"].make({})
    with pytest.raises(ValueError, match="N must be >= 0, got N = -1"):
        generate(spec, -1)
    with pytest.raises(ValueError, match="N = -2"):
        generate(spec, -2)
    with pytest.raises(ValueError, match="n_max must be >= 0, got n_max = -1"):
        lucas_gen_sides(spec, 1, -1)
    with pytest.raises(ValueError, match="n_max = -1"):
        verify_lucas_gen(spec, 1, -1)
    family = FAMILIES["fibonacci"]
    with pytest.raises(ValueError, match="n_max must be >= 0, got n_max = -1"):
        family_sides(family, -1, {})
    with pytest.raises(ValueError, match="n_max must be >= 0, got n_max = -2"):
        family_sides(family, -2, {})
    assert generate(spec, 0) == [0]


def test_random_spec_rejects_a_negative_n_max():
    with pytest.raises(ValueError, match="n_max must be >= 0, got n_max = -1"):
        random_spec(rng_for(304, "negative"), -1)


def test_generic_identities_sum_pairs_and_return_fractions(monkeypatch):
    summed = []

    def partial_sums(k_start, n_max, term, rhs):
        def logged(f):
            def call(i):
                summed.append(f(i))
                return summed[-1]

            return call

        return sums(k_start, n_max, logged(term), logged(rhs))

    sums = sequences._partial_sums
    monkeypatch.setattr(sequences, "_partial_sums", partial_sums)
    spec = random_spec(rng_for(305, "pairs"), 4)
    for which in range(1, 7):
        summed.clear()
        sides = lucas_gen_sides(spec, which, 4)
        assert summed and all(type(v) is Pair for v in summed), which
        assert all(type(v) is F for _, lhs, rhs in sides for v in (lhs, rhs)), which
        assert all_equal(sides), which


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_every_side_of_every_family_is_exact(key):
    # no float anywhere: (-1) ** (n - 1) at n = 0 was the float -1.0, and
    # made the alternating sums' right side -0.0
    family, n_max = FAMILIES[key], 12
    rng = rng_for(2611, key)
    params, sides = retry(lambda: (p := draw_params(family.params, rng, 16),
                                   family_sides(family, n_max, p)), "no admissible sample")
    assert len(sides) == (n_max + 1) * len(family.printed)
    assert all(type(lhs) is Pair and type(rhs) is Pair for _, _, lhs, rhs in sides)
    # the printed identities given Fractions compute in Fractions
    xs = generate(family.make(params), 2 * n_max + 2)
    for ident in family.printed:
        for n in range(n_max + 1):
            assert type(ident.rhs(n, xs, params)) is F, (ident.name, n)
            if n >= ident.k_start:
                assert type(ident.term(n, xs, params)) is F, (ident.name, n)
