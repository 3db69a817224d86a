"""The product helpers are calls to the one product engine.

The derangement factorials, the config language's ``binom``, Ramanujan's
Entry 25 and the q-Pell halving product are computed by
``rational.prod_range`` and ``corpus.rising_factorial``.  The shifted
factorials, the columns of a ``corpus._TermRow``, ``linear_factors`` and
``prod_range`` build one Fraction from integer products instead of one per
factor.  A certified summand's row, and its closed form, are each one
``_TermRow``, grown by its term ratio; ``old_hypergeometric`` below is the
product each of their columns replaced.  Each test
below keeps the loop it replaced, verbatim, and requires the same value, or
the same exception type and message, at seeded points that include zeros,
negative integers and poles.
"""

import dataclasses
import inspect
from collections import Counter
from fractions import Fraction

import pytest

from telesum import corpus, sequences
from telesum.certify import TERMINATION_OVERSHOOT, sample_value, verify_sample
from telesum.corpus import (CERTIFIED_KEYS, CORPUS, _TermRow, draw_admissible, draw_params,
                            evaluate_identity, linear_factors, normalized, q_rising_factorial,
                            rising_factorial)
from telesum.errors import DivisionByZero
from telesum.exprlang import evaluate, parse
from telesum.rational import ONE, ZERO, prod_range, rat_div, rat_pow
from telesum.runner import specialization_d_zero_checks
from telesum.sampling import rng_for, sample_q, sample_rational
from telesum.sequences import FAMILIES


def outcome_of(fn, *args):
    """fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is what is compared
        return type(exc), str(exc)


# --- the replaced loops, verbatim ---------------------------------------------

def old_binom(a, b):
    num = ONE
    for i in range(b):
        num *= a - i
    return num / rising_factorial(ONE, b)


def old_ramanujan():
    def a(p, j):
        return p["a"][j - 1]

    def term(n, k, p):
        x = p["x"]
        num = ONE
        den = ONE
        for j in range(1, k + 1):
            num *= a(p, j)
        for j in range(1, k + 2):
            den *= x + a(p, j)
        return rat_div(num, den)

    def rhs(n, p):
        x = p["x"]
        num = ONE
        den = x
        for j in range(1, n + 2):
            num *= a(p, j)
            den *= x + a(p, j)
        return rat_div(ONE, x) - rat_div(num, den)

    return term, rhs


def old_q_pell_halving_prod(n, p):
    rat_pow, rat_div = sequences.rat_pow, sequences.rat_div  # as the module binds them
    q = p["q"]
    prod = ONE
    for j in range(1, n + 1):
        den = 1 + 2 * rat_pow(q, j) + rat_pow(q, j + 1) + rat_pow(q, 2 * j + 1)
        prod *= rat_div(1 + rat_pow(q, j), den)
    return prod


def old_derangement_printed():
    def fact(m):
        out = ONE
        for i in range(2, m + 1):
            out *= i
        return out

    def odd_fact(j):  # 1 * 3 * ... * (2j - 1)
        out = ONE
        for i in range(1, j + 1):
            out *= 2 * i - 1
        return out

    def even_fact(j):  # 2 * 4 * ... * (2j)
        out = ONE
        for i in range(1, j + 1):
            out *= 2 * i
        return out

    return (
        (lambda k, xs, p: xs[k] / fact(k + 1),
         lambda n, xs, p: xs[n + 2] / fact(n + 2) - 1),
        (lambda k, xs, p: xs[2 * k] / odd_fact(k),
         lambda n, xs, p: xs[2 * n + 1] / odd_fact(n + 1) - 1),
        (lambda k, xs, p: xs[2 * k + 1] / even_fact(k),
         lambda n, xs, p: xs[2 * n + 2] / even_fact(n + 1) - 1),
        (lambda k, xs, p: xs[k + 1] ** 2 / fact(k + 1),
         lambda n, xs, p: xs[n + 1] * xs[n + 2] / fact(n + 2) - 1),
        (lambda k, xs, p: (-1) ** k * xs[k + 2] / (k + 2),
         lambda n, xs, p: (-1) ** n * xs[n + 1] - 1),
        (lambda k, xs, p: 2 * xs[k - 1] / ((k + 2) * fact(k + 1)),
         lambda n, xs, p: 1 - 2 * xs[n + 2] / ((n + 2) * fact(n + 2))),
    )


def old_rising_factorial(x, m):
    if m < 0:
        raise ValueError("rising factorial needs m >= 0")
    p = ONE
    for i in range(m):
        p *= x + i
    return p


def old_q_rising_factorial(a, q, m):
    if m < 0:
        raise ValueError("q-rising factorial needs m >= 0")
    p = ONE
    t = a
    for _ in range(m):
        p *= 1 - t
        t *= q
    return p


def old_hypergeometric(upper, lower, z, m, q=None):
    if q is None:
        shifted = old_rising_factorial
    else:
        def shifted(x, m):
            return old_q_rising_factorial(x, q, m)
    num = ONE
    for x in upper:
        num *= shifted(x, m)
    den = ONE
    for y in lower:
        den *= shifted(y, m)
    return rat_div(num, den) * rat_pow(z, m)


def old_linear_factors(xs, z, k, q=None):
    p = ONE
    if q is None:
        for x in xs:
            p *= x + k
    else:
        qk = rat_pow(q, k)
        for x in xs:
            p *= 1 - x * qk
    return p * z


def old_prod_range(f, lo, hi):
    if hi >= lo:
        p = ONE
        for j in range(lo, hi + 1):
            p *= f(j)
        return p
    if hi == lo - 1:
        return ONE
    p = ONE
    for j in range(hi + 1, lo):
        p *= f(j)
    if p == 0:
        raise DivisionByZero(f"inverted product over {hi + 1}..{lo - 1} hit a zero factor")
    return 1 / p


# --- the comparisons ------------------------------------------------------------

def test_binom_matches_the_replaced_loop():
    binom = parse("binom(a, b)")
    uppers = [Fraction(a) for a in range(-6, 9)]
    rng = rng_for(7, "binom")
    uppers += [sample_rational(rng) for _ in range(40)]
    for a in uppers:
        for b in range(9):
            new = evaluate(binom, {"a": a, "b": Fraction(b)})
            assert new == old_binom(a, b), (a, b)
            assert type(new) is Fraction


def test_ramanujan_entry25_matches_the_replaced_loops():
    idef = CORPUS["ramanujan_entry25"]
    old_term, old_rhs = old_ramanujan()
    checked = poles = 0
    for i in range(60):
        rng = rng_for(7, "entry25", i)
        a = [sample_rational(rng) for _ in range(6)]
        if i % 3 == 1:
            a[rng.randrange(6)] = Fraction(0)
        x = sample_rational(rng)
        if i % 2:  # a pole: x = -a_j
            x = -a[rng.randrange(6)]
        if i % 10 == 9:
            x = Fraction(0)
        p = {"x": x, "a": tuple(a)}
        for n in range(8):  # n + 1 > 6 runs off the sequence
            got, want = outcome_of(idef.rhs, n, p), outcome_of(old_rhs, n, p)
            assert got == want, (p, n)
            poles += isinstance(want, tuple)
            for k in range(n + 1):
                assert outcome_of(idef.term, n, k, p) == outcome_of(old_term, n, k, p), (p, n, k)
                checked += 1
    assert checked > 1000 and poles > 50


def test_q_pell_halving_product_matches_the_replaced_loop(monkeypatch):
    for i in range(40):
        q = sample_rational(rng_for(7, "q_pell", i))
        for n in range(12):  # the family reads n >= 0 only
            p = {"q": q}
            assert sequences._q_pell_halving_prod(n, p) == old_q_pell_halving_prod(n, p), (q, n)
    # No rational q zeroes a denominator, so force the one of factor j = 3:
    # both products must raise there, with the same message.
    real_pow = sequences.rat_pow

    def rat_pow(x, e):
        if e == 7:  # q^(2j + 1) at j = 3
            return -(1 + 2 * real_pow(x, 3) + real_pow(x, 4))
        return real_pow(x, e)

    monkeypatch.setattr(sequences, "rat_pow", rat_pow)
    p = {"q": Fraction(2, 3)}
    for n in range(6):
        new = outcome_of(sequences._q_pell_halving_prod, n, p)
        assert new == outcome_of(old_q_pell_halving_prod, n, p), n
        assert isinstance(new, tuple) == (n >= 3)


def test_derangement_helpers_match_the_replaced_loops():
    printed = FAMILIES["shifted_derangement"].printed
    old = old_derangement_printed()
    assert len(printed) == len(old)
    rng = rng_for(7, "derangement")
    xs = [sample_rational(rng) for _ in range(45)]
    for new, (old_term, old_rhs) in zip(printed, old):
        for j in range(21):
            assert new.term(j, xs, {}) == old_term(j, xs, {}), (new.name, j)
            assert new.rhs(j, xs, {}) == old_rhs(j, xs, {}), (new.name, j)



def shifted_points(i):
    """(x, q) at seeded point i: x a rational of either sign, a nonpositive
    integer (where the classical factorial terminates), or q^(-j) (where the
    q-shifted one does)."""
    rng = rng_for(7, "shifted", i)
    q = sample_q(rng)
    x = sample_rational(rng)
    if i % 4 == 1:
        x = -x
    elif i % 4 == 2:
        x = Fraction(-rng.randrange(5))
    elif i % 4 == 3:
        x = rat_pow(q, -rng.randrange(5))
    return x, q


def test_shifted_factorials_match_the_replaced_loops():
    zeros = 0
    for i in range(80):
        x, q = shifted_points(i)
        for m in range(-1, 9):
            for new, old in ((outcome_of(rising_factorial, x, m), outcome_of(old_rising_factorial, x, m)),
                             (outcome_of(q_rising_factorial, x, q, m),
                              outcome_of(old_q_rising_factorial, x, q, m))):
                assert new == old, (x, q, m)
                assert type(new) is (tuple if m < 0 else Fraction)
                zeros += new == 0
    assert zeros > 100


def hypergeometric_points(i):
    """(upper, lower, z, q) of a seeded term with a terminating upper factor,
    plain int entries as the corpus writes them, and every fifth point a lower
    factor that vanishes (every tenth together with an upper factor)."""
    rng = rng_for(7, "hypergeometric", i)
    q = sample_q(rng) if i % 2 else None
    n = rng.randrange(6)
    upper = [sample_rational(rng) for _ in range(rng.randrange(4))]
    lower = [sample_rational(rng) for _ in range(rng.randrange(4))]
    z = sample_rational(rng) if i % 3 else rng.choice((-1, 1, 2))
    if q is None:
        upper.append(-n)
        lower.append(1)
    else:
        upper.append(rat_pow(q, -n))
        lower.append(q)
    if i % 5 == 0:  # (y)_m = 0 for m > j
        j = rng.randrange(4)
        lower.insert(0, Fraction(-j) if q is None else rat_pow(q, -j))
        if i % 10 == 0:
            upper.insert(0, lower[0])
    return upper, lower, z, q


def test_linear_factors_matches_the_replaced_loop():
    zeros = 0
    for i in range(80):
        rng = rng_for(7, "linear_factors", i)
        q = sample_q(rng) if i % 2 else None
        xs = [sample_rational(rng) for _ in range(rng.randrange(5))]
        xs += [rng.randrange(-4, 2)] if q is None else [rat_pow(q, -rng.randrange(5))]
        z = sample_rational(rng) if i % 3 else -1
        for k in range(-2, 9):
            new = linear_factors(xs, z, k, q)
            assert new == old_linear_factors(xs, z, k, q), (i, k)
            assert type(new) is Fraction
            zeros += new == 0
    assert zeros > 20


def test_prod_range_matches_the_replaced_loop():
    for i in range(30):
        rng = rng_for(7, "prod_range", i)
        values = {j: sample_rational(rng) for j in range(-4, 8)}
        values[rng.randrange(-4, 8)] = Fraction(0)
        values[rng.randrange(-4, 8)] = rng.randrange(-3, 4)  # a plain int factor
        bad = rng.randrange(-4, 8)

        def f(j, calls):
            calls.append(j)
            if i % 3 == 0 and j == bad:  # a factor that raises
                return rat_div(ONE, ZERO)
            return values[j]

        for lo in range(-3, 5):
            for hi in range(-4, 7):
                new_calls, old_calls = [], []
                new = outcome_of(prod_range, lambda j: f(j, new_calls), lo, hi)
                assert new == outcome_of(old_prod_range, lambda j: f(j, old_calls), lo, hi)
                assert new_calls == old_calls


def old_certified_term(summand, well_poised):
    """A certified summand as it was before rows: the lists rebuilt and one
    ``old_hypergeometric`` call at every k."""
    def term(n, k, p):
        q = p.get("q")
        head = rat_div(1 - p["a"] * rat_pow(q, 2 * k), 1 - p["a"]) if well_poised else ONE
        return head * old_hypergeometric(*summand(n, **p), k, q)

    return term


def old_certified_rhs(closed_form):
    """A certified closed form as it was before rows: the lists rebuilt and
    one ``old_hypergeometric`` call at every n."""
    def rhs(n, p):
        return old_hypergeometric(*closed_form(**p), n, p.get("q"))

    return rhs


def reference_term(idef):
    """old_certified_term over the summand declaration behind idef.term."""
    declared = inspect.getclosurevars(idef.term).nonlocals
    summand = inspect.getclosurevars(declared["row"]).nonlocals["summand"]
    return old_certified_term(summand, declared["well_poised"])


def closed_form_of(idef):
    """The closed_form declaration behind idef.rhs."""
    closed_row = inspect.getclosurevars(idef.rhs).nonlocals["closed_row"]
    return inspect.getclosurevars(closed_row).nonlocals["closed_form"]


def test_term_row_matches_hypergeometric_in_any_column_order():
    raised = both_zero = terminated = 0
    for i in range(120):
        upper, lower, z, q = hypergeometric_points(i)
        row = _TermRow(upper, lower, z, q)
        columns = list(range(-2, 12))
        rng_for(7, "row order", i).shuffle(columns)
        for m in columns:
            new = outcome_of(row, m)
            assert new == outcome_of(old_hypergeometric, upper, lower, z, m, q), (i, m)
            if isinstance(new, tuple):
                assert new[0] is (ValueError if m < 0 else DivisionByZero)
                raised += new[0] is DivisionByZero
                both_zero += new[1] == "division of 0 by zero"
            else:
                assert type(new) is Fraction
                terminated += new == 0
    assert raised > 50 and both_zero > 20 and terminated > 100


def certified_points(idef, i):
    """Seeded parameters of a certified sum.  Point i is a raw draw, so it can
    hold poles, with one change by i % 4: none; a parameter at a terminating
    value -j or q^(-j), which zeroes an upper factor or, where the parameter is
    a lower entry, a lower one; for the well-poised sums, b = a q^(j+1), so the
    lower entry aq/b is q^(-j); and a = 1, where the head's 1 - a vanishes."""
    rng = rng_for(7, "certified", idef.key, i)
    p = draw_params(idef.params, rng, 16)
    q = p.get("q")
    free = [x.name for x in idef.params if x.kind != "q"]
    j = rng.randrange(4)
    well_poised = idef.key in ("q_dougall", "rogers_6phi5")
    if i % 4 == 1 and free:
        p[rng.choice(free)] = Fraction(-j) if q is None else rat_pow(q, -j)
    elif i % 4 == 2 and well_poised:
        p["b"] = p["a"] * rat_pow(q, j + 1)
    elif i % 4 == 3 and well_poised:
        p["a"] = Fraction(1)
    return p


@pytest.mark.parametrize("key", CERTIFIED_KEYS)
def test_certified_terms_match_the_replaced_term(key):
    idef = CORPUS[key]
    old_term = reference_term(idef)
    seen = Counter()
    for i in range(24):
        p = certified_points(idef, i)
        for n in range(7):
            columns = list(range(-2, n + TERMINATION_OVERSHOOT + 4))
            rng_for(7, "term order", key, i, n).shuffle(columns)
            for k in columns:
                new = outcome_of(idef.term, n, k, p)
                assert new == outcome_of(old_term, n, k, p), (p, n, k)
                if isinstance(new, tuple):
                    kind, text = new
                    seen[kind.__name__] += 1
                    seen["upper 0 at a pole"] += text == "division of 0 by zero"
                    seen["head raised first"] += k < 0 and kind is DivisionByZero
                else:
                    seen["zero past n"] += k > n and new == 0
                    seen["nonzero"] += new != 0
    assert seen["ValueError"] > 0 and seen["zero past n"] > 100 and seen["nonzero"] > 50, seen
    if key not in ("binomial_x1", "binomial", "q_binomial"):  # lower entries 1 or q only
        assert seen["DivisionByZero"] > seen["upper 0 at a pole"] > 0, seen
    if key in ("q_dougall", "rogers_6phi5"):
        assert seen["head raised first"] > 0, seen


@pytest.mark.parametrize("key", CERTIFIED_KEYS)
def test_certified_closed_forms_match_the_replaced_rhs(key):
    idef = CORPUS[key]
    old_rhs = old_certified_rhs(closed_form_of(idef))
    seen = Counter()
    for i in range(24):
        p = certified_points(idef, i)
        columns = list(range(idef.n_max + 3))
        rng_for(7, "rhs order", key, i).shuffle(columns)
        for n in columns:
            new = outcome_of(idef.rhs, n, p)
            assert new == outcome_of(old_rhs, n, p), (p, n)
            if isinstance(new, tuple):
                seen[new[0].__name__] += 1
            else:
                assert type(new) is Fraction, (p, n)
                seen["zero" if new == 0 else "nonzero"] += 1
    assert seen["nonzero"] > 100, seen
    if key not in ("binomial_x1", "binomial", "q_binomial"):  # no lower entry can vanish
        assert seen["DivisionByZero"] > 0, seen


@pytest.mark.parametrize("key", CERTIFIED_KEYS)
def test_one_sample_builds_one_closed_form_row(key, monkeypatch):
    built = []

    class Recorded(_TermRow):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(corpus, "_TermRow", Recorded)
    idef = CORPUS[key]
    p = draw_admissible(idef, rng_for(7, "one closed row", key), idef.n_max)
    assert {r.status for r in verify_sample(normalized(idef), idef.n_max, p)} == {"pass"}
    for n in range(idef.n_max + 1):
        lhs, rhs = evaluate_identity(idef, n, p)
        assert lhs == rhs
    closed = (*closed_form_of(idef)(**p), p.get("q"))
    assert built.count(closed) == 1


@pytest.mark.parametrize("key", ["q_dougall", "rogers_6phi5"])
def test_one_sample_computes_each_well_poised_head_once(key, monkeypatch):
    head = corpus._well_poised_head
    computed = Counter()

    def counted(k, p):
        computed[tuple(p.items()), k] += 1
        return head(k, p)

    monkeypatch.setattr(corpus, "_well_poised_head", counted)
    idef = CORPUS[key]
    p = draw_admissible(idef, rng_for(7, "one head", key), idef.n_max)
    assert {r.status for r in verify_sample(normalized(idef), idef.n_max, p)} == {"pass"}
    for n in range(idef.n_max + 1):
        lhs, rhs = evaluate_identity(idef, n, p)
        assert lhs == rhs
    at_p = {k: count for (point, k), count in computed.items() if point == tuple(p.items())}
    assert set(at_p) >= set(range(idef.n_max + 1))
    assert set(at_p.values()) == {1}


def test_a_pole_column_raises_anew_with_its_own_text():
    idef = CORPUS["chu_vandermonde"]
    p = {"a": Fraction(1, 2), "b": Fraction(-2)}  # (b)_k = 0 from k = 3 on
    n = 5
    texts = []
    for k in range(3, n + TERMINATION_OVERSHOOT + 1):
        raised = []
        for _ in range(2):
            with pytest.raises(DivisionByZero) as info:
                sample_value(idef.term, n, k, p)
            raised.append(info.value)
        assert raised[0] is not raised[1]
        assert str(raised[0]) == str(raised[1]) == outcome_of(reference_term(idef), n, k, p)[1]
        texts.append(str(raised[0]))
    assert len(set(texts[:n - 2])) == n - 2  # columns 3..n: nonzero upper products
    assert set(texts[n - 2:]) == {"division of 0 by zero"}  # (-n)_k = 0 for k > n
    stored = list(sample_value.values.values())
    assert any(isinstance(v, _TermRow) for v in stored)
    for value in stored:
        assert not isinstance(value, BaseException)
        for column in getattr(value, "columns", ()):
            assert not isinstance(column, BaseException)


def test_specialization_link_matches_the_replaced_term(monkeypatch):
    idef = CORPUS["q_dougall"]
    points = []
    for i in range(30):
        rng = rng_for(7, "specialization", i)
        q = sample_q(rng)
        a, b, c, d = (sample_rational(rng) for _ in range(4))
        if i % 5 == 4:
            a = q  # the substituted a/q is 1: the head raises
        points.append((q, a, b, c, d))
    # Outside any sweep: the memo holds another point's values meanwhile.
    held = {"a": Fraction(2, 3), "b": Fraction(5), "c": Fraction(-3, 7), "d": Fraction(9, 4),
            "q": Fraction(3, 5)}
    got = []
    for point in points:
        before = sample_value(idef.term, 3, 2, held)
        got.append(outcome_of(specialization_d_zero_checks, *point))
        assert sample_value(idef.term, 3, 2, held) == before
    monkeypatch.setitem(CORPUS, "q_dougall", dataclasses.replace(idef, term=reference_term(idef)))
    want = [outcome_of(specialization_d_zero_checks, *point) for point in points]
    assert got == want
    assert sum(isinstance(w, tuple) for w in want) == 6
    assert sum(isinstance(w, dict) and all(w.values()) for w in want) == 24
