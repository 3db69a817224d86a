"""The sequence families and the sequence-parameter sums on Pairs, against
their Fraction references.

The references below are ``generate``, ``_partial_sums`` and
``family_sides`` of ``sequences``, and ``_route``, ``_companion``, ``_draw``
and the checks of ``genhyp`` (with the kernel's summands and closed form),
as they were when both modules computed in Fractions.  The printed
identities and ``OPERATIONS`` are shared: they are written once for any
exact operands, so given Fractions they compute in Fractions.  The Pair
evaluation must accept the same draws and give the same sides, pass or
fail at the same n, with the same witness text, or raise the same
exception type and text.
"""

from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from telesum import genhyp, sequences
from telesum.certify import sample_value
from telesum.corpus import draw_params
from telesum.errors import DivisionByZero, Inadmissible
from telesum.genhyp import (OPERATIONS, SequenceParams, dougall_terms, macdonald_cv,
                            macdonald_cv_permuted, macdonald_dougall, macdonald_ps, problem,
                            ps_terms, relabeled_for_permutation, relation_fails_at,
                            verify_operation_suite, with_d_zero)
from telesum.rational import ONE, ZERO, Pair, format_rational, rat_div
from telesum.report import outcome
from telesum.sampling import RETRY_BOUND, retry, rng_for, sample_rational, sweep
from telesum.sequences import (FAMILIES, RecurrenceSpec, _require_size, family_sides,
                               generate, lucas_gen_sides, random_spec, verify_family_suite,
                               verify_lucas_gen)
from telesum.telescope import TelescopeProblem


def outcome_of(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type and text are the outcome
        return type(exc), str(exc)


def text(x):
    """The witness text of an exact value."""
    return format_rational(x)


def to_fraction(x):
    return x.fraction() if isinstance(x, Pair) else F(x)


# ---------------------------------------------------------------------------
# The sequences reference
# ---------------------------------------------------------------------------

def ref_generate(spec, N):
    _require_size("N", N)
    xs = [F(spec.x0), F(spec.x1)]
    for n in range(N - 1):
        xs.append(spec.a(n) * xs[n + 1] + spec.b(n) * xs[n])
    return xs[: N + 1]


def ref_partial_sums(k_start, n_max, term, rhs):
    sides, lhs, k = [], ZERO, k_start
    for n in range(n_max + 1):
        while k <= n:
            lhs += term(k)
            k += 1
        sides.append((n, lhs, rhs(n)))
    return sides


def ref_family_sides(family, n_max, params):
    _require_size("n_max", n_max)
    xs = ref_generate(family.make(params), 2 * n_max + 2)
    return [(ident.name, n, lhs, rhs) for ident in family.printed
            for n, lhs, rhs in ref_partial_sums(ident.k_start, n_max,
                                                lambda k: ident.term(k, xs, params),
                                                lambda n: ident.rhs(n, xs, params))]


def ref_verify_family_suite(family, n_max, samples, seed):
    def draw(rng):
        def attempt():
            params = draw_params(family.params, rng, 16)
            return params, ref_family_sides(family, n_max, params)

        return retry(attempt, "no admissible sample found")

    def checks(drawn, sample):
        params, sides = drawn
        return [outcome("sequences", f"{family.key}/{name}", "identity", family.citation,
                        lhs == rhs, params, n=n, sample=sample, lhs=lhs, rhs=rhs)
                for name, n, lhs, rhs in sides]

    return sweep("sequences", family.key, family.citation, seed, samples, draw, checks,
                 parametric=bool(family.params), stream="family")


def family_draws(family, n_max, seed, samples, sides_fn):
    """Each sample's accepted parameters and sides (name, n, pass, lhs text,
    rhs text), or the exhaustion's type and text."""
    out = []
    for i in range(samples if family.params else 1):
        rng = rng_for(seed, "family", family.key, i)

        def attempt():
            params = draw_params(family.params, rng, 16)
            return params, sides_fn(family, n_max, params)

        drawn = outcome_of(retry, attempt, "no admissible sample found")
        if isinstance(drawn, tuple) and isinstance(drawn[0], type):
            out.append(drawn)
            continue
        params, sides = drawn
        out.append((params, [(name, n, lhs == rhs, text(lhs), text(rhs))
                             for name, n, lhs, rhs in sides]))
    return out


def assert_same_family_runs(family, n_max, seed, samples):
    new = family_draws(family, n_max, seed, samples, family_sides)
    assert new == family_draws(family, n_max, seed, samples, ref_family_sides), family.key
    records = verify_family_suite(family.key, n_max, samples, seed)
    assert records == ref_verify_family_suite(family, n_max, samples, seed), family.key
    return new


@pytest.mark.parametrize("n_max", [0, 1, 12, 20])
@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_family_draws_match_the_fraction_reference(key, n_max):
    runs = assert_same_family_runs(FAMILIES[key], n_max, 2501 + n_max, 3)
    assert all(ok for _, sides in runs for _, _, ok, _, _ in sides)


def _mutated(family, term=None, rhs=None):
    printed = tuple(ident._replace(
        term=ident.term if term is None else term(ident.term),
        rhs=ident.rhs if rhs is None else rhs(ident.rhs)) for ident in family.printed)
    return family._replace(printed=printed)


def _q_or_two(p):
    return p["q"] if "q" in p else 2


MUTATIONS = {
    "rhs + n": dict(rhs=lambda f: lambda n, xs, p: f(n, xs, p) + n),
    "term + k": dict(term=lambda f: lambda k, xs, p: f(k, xs, p) + k),
    "rhs * (1 + q)": dict(rhs=lambda f: lambda n, xs, p: f(n, xs, p) * (1 + _q_or_two(p))),
    "term * (1 + q)": dict(term=lambda f: lambda k, xs, p: f(k, xs, p) * (1 + _q_or_two(p))),
    # zero divisors: through rat_div at k = 3, and a raw division at n = 2
    "term / (k - 3)": dict(term=lambda f: lambda k, xs, p: rat_div(f(k, xs, p), k - 3)),
    "rhs raw / (n - 2)": dict(rhs=lambda f: lambda n, xs, p: f(n, xs, p) / (n - 2)),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_mutated_families_fail_as_the_reference_does(key, mutation, monkeypatch):
    family = _mutated(FAMILIES[key], **MUTATIONS[mutation])
    monkeypatch.setitem(FAMILIES, key, family)
    for n_max in (1, 6):
        runs = assert_same_family_runs(family, n_max, 2511, 3)
        if not mutation.endswith("- 3)") and not mutation.endswith("- 2)"):
            assert any(not s[2] for _, sides in runs for s in sides), (key, mutation)


def test_a_raising_coefficient_raises_as_the_reference_does(monkeypatch):
    family = FAMILIES["q_pell"]

    def a(n, p):
        if n == 3:
            raise Inadmissible("forced pole at n = 3")
        return family.a(n, p)

    broken = family._replace(a=a)
    params = {"q": F(2, 3)}
    for n_max in (0, 1):  # x_0 .. x_4 read a_0 .. a_2 only
        assert outcome_of(family_sides, broken, n_max, params) == (
            [(name, n, to_fraction(lhs), to_fraction(rhs))
             for name, n, lhs, rhs in ref_family_sides(broken, n_max, params)])
    for n_max in (2, 3):
        raised = outcome_of(family_sides, broken, n_max, params)
        assert raised == outcome_of(ref_family_sides, broken, n_max, params)
        assert raised == (Inadmissible, "forced pole at n = 3")


def test_family_sides_read_each_draw_apart():
    # two draws at different q: a power or a prefix row kept from the first
    # would give the second's sides wrong values
    for key in ("schur_q_fib", "q_pell", "goyt_sagan", "goyt_mathisen"):
        family = FAMILIES[key]
        rng = rng_for(2521, key)
        for _ in range(6):
            params = draw_params(family.params, rng, 16)
            new = outcome_of(family_sides, family, 8, params)
            want = outcome_of(ref_family_sides, family, 8, params)
            if isinstance(want, tuple):
                assert new == want
                continue
            assert [(name, n, to_fraction(lhs), to_fraction(rhs)) for name, n, lhs, rhs in new] \
                == want


def test_public_sequence_functions_return_the_reference_fractions():
    for key, family in FAMILIES.items():
        params = draw_params(family.params, rng_for(2531, key), 16)
        xs = generate(family.make(params), 30)
        assert xs == ref_generate(family.make(params), 30)
        assert all(type(x) is F for x in xs)
    for i in range(20):
        spec = random_spec(rng_for(2532, "spec", i), 6)
        assert generate(spec, 14) == ref_generate(spec, 14)
        for which in range(1, 7):
            sides = lucas_gen_sides(spec, which, 6)
            assert all(type(v) is F for _, lhs, rhs in sides for v in (lhs, rhs))
            assert all(lhs == rhs for _, lhs, rhs in sides)


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_the_generic_identities_of_every_family_give_fractions(key):
    # a family's constant coefficients are ints: its public spec must still
    # give Fractions, and the generic identities must divide them exactly
    family = FAMILIES[key]
    params = draw_params(family.params, rng_for(2533, key), 16)
    spec = family.make(params)
    assert all(type(c) is F for n in range(14) for c in (spec.a(n), spec.b(n)))
    for which in range(1, 7):
        sides = lucas_gen_sides(spec, which, 6)
        assert all(type(v) is F for _, lhs, rhs in sides for v in (lhs, rhs)), (key, which)
        assert all(lhs == rhs for _, lhs, rhs in sides), (key, which)
        records = verify_lucas_gen(spec, which, 6)
        assert {r.status for r in records} == {"pass"}, (key, which)


def test_the_generic_identities_divide_int_coefficients_exactly():
    spec = RecurrenceSpec("ints", lambda n: 2, lambda n: n + 3, ZERO, ONE)
    for which in range(1, 7):
        sides = lucas_gen_sides(spec, which, 6)
        assert all(type(v) is F for _, lhs, rhs in sides for v in (lhs, rhs)), which
        assert all(lhs == rhs for _, lhs, rhs in sides), which


# ---------------------------------------------------------------------------
# The genhyp reference
# ---------------------------------------------------------------------------

def ref_terms(p):
    """The kernel's summands, each a Fraction, by its Fraction loop."""
    u, v, n = p.u, p.v, p.n
    if n < 0:
        raise ValueError(f"telescoping sums need n >= 0, got n = {n}")
    uk, vk = u(0), v(0)
    w0 = uk - vk
    if w0 == 0:
        raise DivisionByZero("telescoping sum requires w_0 = u_0 - v_0 != 0")
    ratio = ONE  # (u_0 ... u_{k-1}) / (v_1 ... v_k)
    for k in range(n + 1):
        if k > 0:
            vk = v(k)
            if vk == 0:
                raise DivisionByZero(f"telescoping sum requires v_{k} != 0")
            ratio = ratio * uk / vk
            uk = u(k)
        yield (uk - vk) / w0 * ratio


def ref_closed_form(p):
    u, v, n = p.u, p.v, p.n
    if n < 0:
        raise ValueError(f"telescoping sums need n >= 0, got n = {n}")
    u0, v0 = u(0), v(0)
    w0 = u0 - v0
    if w0 == 0:
        raise DivisionByZero("closed form requires w_0 != 0")
    ratio = ONE
    for j in range(1, n + 1):
        vj = v(j)
        if vj == 0:
            raise DivisionByZero(f"closed form requires v_{j} != 0")
        ratio = ratio * u(j) / vj
    if v0 == 0:
        second = ZERO
    else:
        if u0 == 0:
            raise DivisionByZero("closed form requires u_0 != 0 when v_0 != 0")
        second = v0 / u0
    return u0 / w0 * (ratio - second)


@dataclass(frozen=True)
class RefRoute:
    rows: list
    u: list
    v: list
    terms: list
    sides: tuple


def ref_route(op, p):
    rows, u, v = genhyp._values(op, p)
    prob = TelescopeProblem(u.__getitem__, v.__getitem__, p.n)
    terms = list(ref_terms(prob))
    return RefRoute(rows, u, v, terms, (sum(terms, ZERO), ref_closed_form(prob)))


def ref_companion(key, p):
    if key == "macdonald_cv_permuted":
        return ref_route(OPERATIONS["macdonald_cv"], relabeled_for_permutation(p))
    if key == "macdonald_dougall":
        return ref_route(OPERATIONS["macdonald_ps"], with_d_zero(p))
    return None


def ref_draw(rng, length, key):
    op = OPERATIONS[key]

    def attempt():
        p = SequenceParams(**{name: genhyp.sample_sequence(rng, length) for name in op.names})
        return p, ref_route(op, p), ref_companion(key, p)

    return retry(attempt, f"{key}: no admissible sequence tuple in {RETRY_BOUND} tries")


def ref_verify_operation_suite(key, n_max, samples, seed):
    op = OPERATIONS[key]

    def draw(rng):
        return ref_draw(rng, rng.randint(1, n_max + 1), key)

    def checks(drawn, sample):
        p, route, companion = drawn

        def record(check, ok, **extra):
            return outcome("genhyp", key, check, op.citation, ok, n=p.n, sample=sample,
                           **extra)

        lhs, rhs = route.sides
        bad = genhyp._fails_at(op, route.rows, route.u, route.v)
        relation = {} if bad is None else {"relation_fails_at": bad}
        records = [record("identity", lhs == rhs and bad is None, lhs=lhs, rhs=rhs,
                          length=p.n + 1, **relation)]
        if key == "macdonald_cv_permuted":
            records.append(record("relabel", companion.sides == route.sides, direct=lhs,
                                  relabel=companion.sides[0]))
        if key == "macdonald_dougall":
            records.append(record("d_zero_termwise",
                                  dougall_terms(with_d_zero(p)) == companion.terms,
                                  reason="termwise mismatch"))
        return records

    return sweep("genhyp", key, op.citation, seed, samples, draw, checks)


def zero_prone_sequences(monkeypatch, share=0.3):
    """Make the sampler give, now and then, all-ones or repeated sequences,
    so that draws hit w_0 = 0 and v_k = 0."""
    real = genhyp.sample_sequence

    def sample_sequence(rng, length):
        roll = rng.random()
        if roll < share / 2:
            return (F(1),) * length
        if roll < share:
            return (F(2),) * length
        return real(rng, length)

    monkeypatch.setattr(genhyp, "sample_sequence", sample_sequence)


def draws_of(key, lengths, seed, draw):
    out = []
    for length in lengths:
        for i in range(3):
            drawn = outcome_of(draw, rng_for(seed, key, length, i), length, key)
            if isinstance(drawn, tuple) and isinstance(drawn[0], type):
                out.append(drawn)
                continue
            p, route, companion = drawn
            sides = [(text(lhs), text(rhs), lhs == rhs) for lhs, rhs in
                     [route.sides] + ([] if companion is None else [companion.sides])]
            out.append((p, sides))
    return out


@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("key", sorted(OPERATIONS))
def test_genhyp_draws_match_the_fraction_reference(key, zeros, monkeypatch):
    if zeros:
        zero_prone_sequences(monkeypatch)
    lengths = range(1, 17)
    new = draws_of(key, lengths, 2541, genhyp._draw)
    assert new == draws_of(key, lengths, 2541, ref_draw)
    for n_max in (0, 15):
        assert verify_operation_suite(key, n_max, 12, 2542) == \
            ref_verify_operation_suite(key, n_max, 12, 2542)


def _points_with_zeros(key, rng, length):
    """A point whose w_0 or one v_k is zero, for each operation."""
    names = OPERATIONS[key].names
    seqs = {name: [sample_rational(rng) for _ in range(length)] for name in names}
    k = rng.randrange(length)
    if rng.random() < 0.5:  # w_0 = 0
        if key == "macdonald_cv_permuted":
            seqs["a"][0] = F(1)
        else:
            seqs["b"][0] = seqs["a"][0]
    elif key == "macdonald_cv_permuted":  # v_k = a_k - b_k
        seqs["b"][k] = seqs["a"][k]
    else:  # v_k has the factor 1 - a_k
        seqs["a"][k] = F(1)
    return SequenceParams(**{name: tuple(seq) for name, seq in seqs.items()})


@pytest.mark.parametrize("key", sorted(OPERATIONS))
def test_public_genhyp_functions_match_the_reference(key):
    public = {"macdonald_cv": macdonald_cv, "macdonald_cv_permuted": macdonald_cv_permuted,
              "macdonald_ps": macdonald_ps, "macdonald_dougall": macdonald_dougall}[key]
    rng = rng_for(2551, key)
    raised = 0
    for length in range(1, 17):
        for zeros in (False, True):
            p = (_points_with_zeros(key, rng, length) if zeros else
                 SequenceParams(**{name: tuple(sample_rational(rng) for _ in range(length))
                                   for name in OPERATIONS[key].names}))
            got = outcome_of(public, p)
            want = outcome_of(lambda: ref_route(OPERATIONS[key], p).sides)
            assert got == want, (length, zeros)
            if isinstance(want, tuple) and isinstance(want[0], type):
                raised += 1
            else:
                assert all(type(x) is F for x in got)
            assert relation_fails_at(key, p) is None
            prob = problem(key, p)
            assert all(type(prob.u(k)) is F and type(prob.v(k)) is F for k in range(length))
    assert raised >= 8
    for length in range(1, 12):
        p = SequenceParams(**{name: tuple(sample_rational(rng) for _ in range(length))
                              for name in "abcd"})
        for fn, op in ((dougall_terms, "macdonald_dougall"), (ps_terms, "macdonald_ps")):
            _, u, v = genhyp._values(OPERATIONS[op], p)
            want = outcome_of(lambda: list(ref_terms(
                TelescopeProblem(u.__getitem__, v.__getitem__, p.n))))
            got = outcome_of(fn, p)
            assert got == want
            assert isinstance(got, tuple) or all(type(x) is F for x in got)


def _as_fraction_valued(fn):
    return lambda *row: to_fraction(fn(*row))


GENHYP_MUTATIONS = {
    "u gives Fractions": lambda op: dict(u=_as_fraction_valued(op.u)),
    "u and v give Fractions": lambda op: dict(u=_as_fraction_valued(op.u),
                                              v=_as_fraction_valued(op.v)),
    "v + 1 as a Fraction": lambda op: dict(v=lambda *row: to_fraction(op.v(*row)) + 1),
    "u * 2": lambda op: dict(u=lambda *row: op.u(*row) * 2),
    "v * (1 + a)": lambda op: dict(v=lambda *row: op.v(*row) * (1 + row[0])),
}


@pytest.mark.parametrize("mutation", sorted(GENHYP_MUTATIONS))
@pytest.mark.parametrize("key", sorted(OPERATIONS))
def test_mutated_operations_match_the_reference(key, mutation, monkeypatch):
    for name, op in list(OPERATIONS.items()):
        if name == key or key == "macdonald_dougall" and name == "macdonald_ps":
            monkeypatch.setitem(OPERATIONS, name,
                                op._replace(**GENHYP_MUTATIONS[mutation](op)))
    records = verify_operation_suite(key, 6, 6, 2561)
    assert records == ref_verify_operation_suite(key, 6, 6, 2561)
    if "Fractions" in mutation:
        assert {r.status for r in records} == {"pass"}


def test_the_suite_reads_the_patched_module_globals(monkeypatch):
    # the closed form and the Dougall row at d = 0 are looked up by name
    real_closed, real_terms = genhyp.telescoping_closed_form, genhyp.dougall_terms
    monkeypatch.setattr(genhyp, "telescoping_closed_form", lambda p: real_closed(p) + 1)
    monkeypatch.setattr(genhyp, "dougall_terms", lambda p: real_terms(p)[:-1] + [F(7)])
    records = verify_operation_suite("macdonald_dougall", 4, 3, 2571)
    assert {r.check for r in records if r.status == "fail"} == {"identity", "d_zero_termwise"}


# ---------------------------------------------------------------------------
# No Fraction on a passing check
# ---------------------------------------------------------------------------

_FRACTION_METHODS = ("__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__rpow__",
                     "__neg__")


def count_fractions(monkeypatch, built):
    for name in _FRACTION_METHODS:
        method = getattr(F, name)

        def counted(*args, _method=method, _name=name, **kwargs):
            built.append(_name)
            return _method(*args, **kwargs)

        monkeypatch.setattr(F, name, counted)


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_family_sides_on_an_admissible_draw_builds_no_fraction(key, monkeypatch):
    family = FAMILIES[key]
    rng = rng_for(2581, key)
    for _ in range(RETRY_BOUND):
        params = draw_params(family.params, rng, 16)
        built = []
        count_fractions(monkeypatch, built)
        sides = outcome_of(family_sides, family, 12, params)
        monkeypatch.undo()
        if not isinstance(sides[0], type):
            break
    assert all(lhs == rhs for _, _, lhs, rhs in sides)
    assert built == []


@pytest.mark.parametrize("key", sorted(OPERATIONS))
def test_a_passing_genhyp_sample_builds_only_its_closed_forms(key, monkeypatch):
    pool = iter([sample_rational(rng_for(2591, key, i)) for i in range(4000)])
    monkeypatch.setattr(genhyp, "sample_sequence",
                        lambda rng, length: tuple(next(pool) for _ in range(length)))
    closed = genhyp.telescoping_closed_form
    calls = []

    def counted_closed_form(p):
        calls.append(p.n)
        return closed(p)

    monkeypatch.setattr(genhyp, "telescoping_closed_form", counted_closed_form)
    built = []
    count_fractions(monkeypatch, built)
    records = verify_operation_suite(key, 15, 8, 2592)
    monkeypatch.undo()
    assert {r.status for r in records} == {"pass"}
    routes = 2 if key in ("macdonald_cv_permuted", "macdonald_dougall") else 1
    assert len(calls) >= 8 * routes
    assert built == ["__new__"] * len(calls)


# ---------------------------------------------------------------------------
# The per-draw memo
# ---------------------------------------------------------------------------

def test_a_draw_computes_each_power_and_prefix_row_once():
    family = FAMILIES["goyt_sagan"]
    params = {"x": F(3, 5), "y": F(-7, 2), "q": F(2, 9)}
    family_sides(family, 6, params)
    point = sample_value(sequences._exact_params, params)
    q = point["q"]
    assert set(q.powers) and all(isinstance(v, Pair) for v in q.powers.values())
    assert len(q.rows) == 1  # the one (a; q)_m row, a = -q x^2 / y
    before = {e: q.powers[e] for e in q.powers}
    family_sides(family, 6, params)
    assert all(q.powers[e] is before[e] for e in before)


def test_a_raising_factor_leaves_the_prefix_row_as_it_was():
    q = sequences._Param(F(2, 3))

    def factor(j):
        if j == 3:
            raise DivisionByZero("forced zero at j = 3")
        return Pair(j, j + 1)

    assert sequences._running_product(q, "row", factor, 2) == F(1, 3)
    for _ in range(2):
        with pytest.raises(DivisionByZero, match="forced zero at j = 3"):
            sequences._running_product(q, "row", factor, 4)
    assert len(q.rows["row"]) == 3


def test_power_memos_belong_to_their_parameter():
    a, b = sequences._Param(F(2, 3)), sequences._Param(F(5, 7))
    assert a ** 3 == F(8, 27) and b ** 3 == F(125, 343)
    assert a ** -2 == F(9, 4) and (a ** -2) is (a ** -2)
    assert set(a.powers) == {3, -2} and set(b.powers) == {3}
    assert (a * b) ** 2 == F(100, 441) and not hasattr(a * b, "powers")
