from fractions import Fraction as F

import pytest

from telesum import telescope
from telesum.errors import DivisionByZero
from telesum.rational import as_pairs, const, seq
from telesum.sampling import rng_for, sample_rational
from telesum.telescope import (TelescopeProblem, raw_euler_sum,
                               solve_linear_recurrence, telescoping_closed_form,
                               telescoping_pairs, telescoping_sum)


def fib(n: int) -> F:
    a, b = F(0), F(1)
    for _ in range(n):
        a, b = b, a + b
    return a


def random_problem(rng, max_len=12) -> TelescopeProblem:
    """Admissible problem: nonzero u, v everywhere and w_0 != 0."""
    n = rng.randint(0, max_len - 1)
    while True:
        u_vals = [sample_rational(rng) for _ in range(n + 1)]
        v_vals = [sample_rational(rng) for _ in range(n + 1)]
        if u_vals[0] != v_vals[0]:
            return TelescopeProblem(seq(u_vals), seq(v_vals), n)


def test_geometric_instance():
    # u = 2, v = 1 is the geometric sum at ratio 2
    p = TelescopeProblem(const(2), const(1), 3)
    assert telescoping_sum(p) == 15
    assert telescoping_closed_form(p) == 15


def test_single_term_is_one():
    p = TelescopeProblem(lambda k: F(k) + 7, lambda k: F(k) + 2, 0)
    assert telescoping_sum(p) == 1
    assert telescoping_closed_form(p) == 1


def test_fibonacci_shifted_instance():
    p = TelescopeProblem(lambda k: fib(k + 3), lambda k: fib(k + 2), 4)
    assert telescoping_sum(p) == 12  # 1 + 1 + 2 + 3 + 5
    assert telescoping_closed_form(p) == 12


def test_unit_ratio_counts_terms():
    p = TelescopeProblem(lambda k: F(k + 2), lambda k: F(k + 1), 4)
    assert telescoping_closed_form(p) == 5
    assert telescoping_sum(p) == 5


def test_zero_w0_raises():
    p = TelescopeProblem(const(3), const(3), 2)
    with pytest.raises(DivisionByZero):
        telescoping_sum(p)
    with pytest.raises(DivisionByZero):
        telescoping_closed_form(p)


def test_zero_v_raises():
    p = TelescopeProblem(const(2), lambda k: F(k - 1), 3)  # v(1) = 0
    with pytest.raises(DivisionByZero):
        telescoping_sum(p)


def test_closed_form_zero_u0_with_nonzero_v0():
    p = TelescopeProblem(lambda k: F(k), lambda k: F(k) + 1, 2)  # u(0) = 0, v(0) = 1
    with pytest.raises(DivisionByZero):
        telescoping_closed_form(p)


def test_closed_form_skips_second_term_when_v0_zero():
    # the rising-factorial pattern: v_0 = 0 makes the -v_0/u_0 term vanish
    m = 2
    u = lambda k: F((k + 1) * (k + 2) * (k + 3))
    v = lambda k: F(k * (k + 1) * (k + 2))
    p = TelescopeProblem(u, v, 4)
    assert telescoping_sum(p) == telescoping_closed_form(p)


def test_oracle_equivalence_seeded():
    rng = rng_for(101, "oracle")
    for _ in range(250):
        p = random_problem(rng)
        assert telescoping_sum(p) == telescoping_closed_form(p)


def test_raw_euler_sum_trivial_and_geometric():
    assert raw_euler_sum(const(1), const(1), 5) == (0, 0)
    lhs, rhs = raw_euler_sum(const(2), const(1), 3)
    assert lhs == rhs == 7


def test_raw_euler_sum_fibonacci():
    u = lambda k: fib(k + 2)
    v = lambda k: fib(k + 1)
    lhs, rhs = raw_euler_sum(u, v, 6)
    assert lhs == rhs == fib(8) - 1  # = 20
    lhs4, rhs4 = raw_euler_sum(u, v, 4)
    assert lhs4 == rhs4 == fib(6) - 1


def test_raw_euler_sum_seeded_equality():
    rng = rng_for(5, "raw")
    for _ in range(250):
        n = rng.randint(1, 12)
        u_vals = [sample_rational(rng) for _ in range(n + 1)]
        v_vals = [sample_rational(rng) for _ in range(n + 1)]
        lhs, rhs = raw_euler_sum(seq(u_vals), seq(v_vals), n)
        assert lhs == rhs


def test_solve_linear_recurrence_derangements():
    b = lambda m: F(m)
    c = lambda m: F((-1) ** m)
    assert solve_linear_recurrence(b, c, F(0), 4) == 9  # x_5 = d_4


def test_solve_linear_recurrence_homogeneous():
    b = lambda m: F(m + 2)
    assert solve_linear_recurrence(b, const(0), F(3), 3) == 3 * 2 * 3 * 4 * 5


def test_solve_linear_recurrence_counting():
    assert solve_linear_recurrence(const(1), const(1), F(0), 9) == 10


def test_solve_linear_recurrence_matches_iteration():
    rng = rng_for(7, "linrec")
    for _ in range(120):
        n = rng.randint(0, 40)
        b_vals = [sample_rational(rng) for _ in range(n + 1)]
        c_vals = [sample_rational(rng) for _ in range(n + 1)]
        x0 = sample_rational(rng)
        x = x0
        for m in range(n + 1):
            x = b_vals[m] * x + c_vals[m]
        assert solve_linear_recurrence(seq(b_vals), seq(c_vals), x0, n) == x


def test_solve_linear_recurrence_zero_b_raises():
    b = lambda m: F(m)  # b(1) != 0 required; make b(1) = 0 via shift
    with pytest.raises(DivisionByZero):
        solve_linear_recurrence(lambda m: F(m - 1), const(1), F(1), 3)


def _logged(fn, name, log):
    def logged(k):
        log.append((name, k))
        return fn(k)
    return logged


def _logged_problem(p, log):
    return TelescopeProblem(_logged(p.u, "u", log), _logged(p.v, "v", log), p.n)


def _terms(p):
    """p's summands, each a Fraction, as telescoping_pairs yields them."""
    for t in telescoping_pairs(as_pairs(p.u), as_pairs(p.v), p.n):
        yield F(*t)


def test_terms_and_closed_form_read_each_u_and_v_once():
    rng = rng_for(102, "once")
    for _ in range(100):
        p = random_problem(rng)
        order = [("u", 0), ("v", 0)] + [x for k in range(1, p.n + 1) for x in (("v", k), ("u", k))]
        log = []
        terms = list(_terms(_logged_problem(p, log)))
        assert log == order
        log.clear()
        assert telescoping_closed_form(_logged_problem(p, log)) == sum(terms, F(0))
        assert log == order


def test_one_walk_gives_both_sides_reading_u_and_v_once():
    # genhyp._route and raw_euler_sum take the Horner sum and the closed form
    # from one _read, and no reader walks u and v again
    rng = rng_for(2601, "one walk")
    for _ in range(100):
        p = random_problem(rng)
        order = [("u", 0), ("v", 0)] + [x for k in range(1, p.n + 1) for x in (("v", k), ("u", k))]
        log = []
        logged = _logged_problem(p, log)
        read = telescope._read(as_pairs(logged.u), as_pairs(logged.v), p.n)
        lhs, rhs = F(*telescope._horner(*read)), telescoping_closed_form(read)
        assert log == order
        assert lhs == telescoping_sum(p) and rhs == telescoping_closed_form(p)


@pytest.mark.parametrize("u_vals, v_vals, message, reads", [
    ([3, 2, 5], [3, 1, 1], "telescoping sum requires w_0 = u_0 - v_0 != 0",
     [("u", 0), ("v", 0)]),
    ([3, 2, 5, 7], [1, 4, 0, 2], "telescoping sum requires v_2 != 0",
     [("u", 0), ("v", 0), ("v", 1), ("u", 1), ("v", 2)]),
])
def test_terms_raise_at_the_first_bad_index(u_vals, v_vals, message, reads):
    log = []
    p = TelescopeProblem(seq([F(x) for x in u_vals]), seq([F(x) for x in v_vals]),
                         len(u_vals) - 1)
    yielded = []
    with pytest.raises(DivisionByZero) as exc:
        for term in _terms(_logged_problem(p, log)):
            yielded.append(term)
    assert str(exc.value) == message
    assert log == reads
    assert len(yielded) == reads[-1][1]  # every term before the bad index


def _terms_list(p):
    return list(_terms(p))


@pytest.mark.parametrize("fn", [_terms_list, telescoping_sum, telescoping_closed_form])
@pytest.mark.parametrize("n", [-1, -3])
def test_negative_n_is_rejected(fn, n):
    log = []
    p = _logged_problem(TelescopeProblem(const(2), const(1), n), log)
    with pytest.raises(ValueError, match=f"n = {n}"):
        fn(p)
    assert log == []  # no k = 0 term and no value is read


def test_raw_euler_sum_reads_each_value_once():
    log = []
    lhs, rhs = raw_euler_sum(_logged(lambda k: fib(k + 2), "u", log),
                             _logged(lambda k: fib(k + 1), "v", log), 5)
    assert lhs == rhs == fib(7) - 1
    assert sorted(log) == [(name, k) for name in "uv" for k in range(1, 6)]
    with pytest.raises(DivisionByZero):
        raw_euler_sum(const(2), lambda k: F(k - 3), 5)


@pytest.mark.parametrize("n", [-1, -3])
def test_raw_euler_sum_and_recurrence_reject_negative_n(n):
    log = []
    with pytest.raises(ValueError, match=f"n = {n}"):
        raw_euler_sum(_logged(const(2), "u", log), _logged(const(1), "v", log), n)
    assert log == []
    with pytest.raises(ValueError, match=f"n = {n}"):
        solve_linear_recurrence(const(3), const(1), F(2), n)
