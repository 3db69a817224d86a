"""The integer certificate checks against two references.

The point-by-point reference below is the checks and the kernel loop as
they were when every F, u and v value was looked up by its full point
through ``sample_value``, and the kernel's running ratio was a Fraction.
The Fraction reference is the four checks as they were when they read
Fraction rows: F(n, .), u(n, .), v(n, .) and the difference row
F(n+1, .) - F(n, .).  The integer checks must give the same records, or
the same exception type and text.
"""

import dataclasses
from collections import Counter
from fractions import Fraction as F

import pytest

from pathlib import Path

from telesum import point
from telesum.certify import (TERMINATION_OVERSHOOT, Certificate, NormalizedIdentity, Quotient,
                             Row, Summands, difference_check, natural_termination_check,
                             row_sum_check, sample_value, telescope_to_zero_check,
                             telescoping_row, verify_sample)
from telesum.corpus import CERTIFIED_KEYS, CORPUS, _TermRow, draw_admissible, normalized
from telesum.errors import DivisionByZero, Inadmissible, NoCertificate
from telesum.exprlang import load_identity_config
from telesum.rational import ONE, ZERO, as_pairs
from telesum.report import FAIL, PASS, outcome
from telesum.runner import run_config_identity, run_corpus_item, run_ez_item
from telesum.sampling import rng_for, sample_rational
from telesum.telescope import TelescopeProblem, telescoping_pairs


# ---------------------------------------------------------------------------
# The point-by-point reference
# ---------------------------------------------------------------------------

def reference_terms(p):
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


def _row_fn(idn, params):
    return lambda n, k: sample_value(idn.F, n, k, params)


def reference_telescoping_row(cert, n, params, k_max):
    problem = TelescopeProblem(u=lambda k: sample_value(cert.u, n, k, params),
                               v=lambda k: sample_value(cert.v, n, k, params), n=k_max)
    return list(reference_terms(problem))


def reference_difference_check(idn, n, params, suite="ez", sample=None):
    if idn.certificate is None:
        raise NoCertificate(idn.key)
    F = _row_fn(idn, params)
    t_row = reference_telescoping_row(idn.certificate, n, params, n + 1)
    c = F(n + 1, 0) - F(n, 0)  # T(n, 0) = 1
    for k in range(n + 2):
        diff = F(n + 1, k) - F(n, k)
        if diff != c * t_row[k]:
            return [outcome(suite, idn.key, "difference", idn.citation, False, params, n=n,
                            sample=sample, k=k, difference=diff, expected=c * t_row[k])]
    return [outcome(suite, idn.key, "difference", idn.citation, True, n=n, sample=sample)]


def reference_telescope_to_zero_check(idn, n, params, suite="ez", sample=None):
    cert = idn.certificate
    if cert is None:
        raise NoCertificate(idn.key)
    u_top = sample_value(cert.u, n, n + 1, params)
    v_bot = sample_value(cert.v, n, 0, params)
    if u_top != 0 or v_bot != 0:
        return [outcome(suite, idn.key, "telescope_zero", idn.citation, False, params, n=n,
                        sample=sample, u_at_n_plus_1=u_top, v_at_0=v_bot)]
    F = _row_fn(idn, params)
    total = sum((F(n + 1, k) - F(n, k) for k in range(n + 2)), ZERO)
    return [outcome(suite, idn.key, "telescope_zero", idn.citation, total == 0, params, n=n,
                    sample=sample, row_sum=total)]


def reference_row_sum_check(idn, n, params, suite="ez", sample=None, check="row_sum"):
    F = _row_fn(idn, params)
    total = sum((F(n, k) for k in range(n + 1)), ZERO)
    return [outcome(suite, idn.key, check, idn.citation, total == 1, params, n=n,
                    sample=sample, row_sum=total)]


def reference_natural_termination_check(idn, n, params, suite="ez", sample=None):
    F = _row_fn(idn, params)
    for k in range(n + 1, n + TERMINATION_OVERSHOOT + 1):
        value = F(n, k)
        if value != 0:
            return [outcome(suite, idn.key, "termination", idn.citation, False, params, n=n,
                            sample=sample, k=k, value=value)]
    return [outcome(suite, idn.key, "termination", idn.citation, True, n=n, sample=sample)]


PAIRS = (
    (row_sum_check, reference_row_sum_check),
    (difference_check, reference_difference_check),
    (telescope_to_zero_check, reference_telescope_to_zero_check),
    (natural_termination_check, reference_natural_termination_check),
    (lambda idn, n, params: [F(*t) for t in telescoping_row(idn.certificate, n, params, n + 1)],
     lambda idn, n, params: reference_telescoping_row(idn.certificate, n, params, n + 1)),
)


def _result(fn, *args):
    """fn's return value, or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the comparison is the test
        return type(exc), str(exc)


def _assert_same(idn, params, n_max):
    """Every check and the certificate row agree with the reference for n <= n_max."""
    results = []
    for n in range(n_max + 1):
        for new, ref in PAIRS:
            got, want = _result(new, idn, n, params), _result(ref, idn, n, params)
            assert got == want, (idn.key, n, ref.__name__)
            results.append(got)
    return results


# ---------------------------------------------------------------------------
# Certified sums, corruptions and raises
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", CERTIFIED_KEYS)
def test_rows_match_reference_on_seeded_draws(key):
    idef = CORPUS[key]
    n_max = 10
    for i in range(2):
        params = draw_admissible(idef, rng_for(1603, "rows", key, i), n_max)
        _assert_same(normalized(idef), params, n_max)


CORRUPTIONS = (
    lambda c: Certificate(u=lambda n, k, p: c.u(n, k, p) * (k + 2), v=c.v),
    lambda c: Certificate(u=c.u, v=lambda n, k, p: c.v(n, k, p) * (k + 2)),
    lambda c: Certificate(u=lambda n, k, p: c.u(n, k, p) + 1, v=c.v),
    lambda c: Certificate(u=c.u, v=lambda n, k, p: c.v(n, k, p) + 1),
)


@pytest.mark.parametrize("corrupt", range(len(CORRUPTIONS)))
def test_rows_match_reference_on_corrupted_certificates(corrupt):
    for key in CERTIFIED_KEYS:
        idef = CORPUS[key]
        params = draw_admissible(idef, rng_for(12, "rows-mutate", key), 5)
        mutated = NormalizedIdentity(key=f"{key}+{corrupt}", F=normalized(idef).F,
                                     certificate=CORRUPTIONS[corrupt](idef.certificate))
        results = _assert_same(mutated, params, 5)
        assert any(getattr(r[0], "status", None) == FAIL for r in results if isinstance(r, list)), key


def _raising(fn, at, exc):
    def raising(n, k, p):
        if (n, k) == at:
            raise exc(f"pole at {at}")
        return fn(n, k, p)
    return raising


@pytest.mark.parametrize("side", ["F", "u", "v"])
@pytest.mark.parametrize("at", [(0, 0), (2, 0), (2, 1), (3, 3), (3, 4), (4, 5)])
@pytest.mark.parametrize("exc", [Inadmissible, DivisionByZero])
def test_rows_match_reference_when_a_value_raises(side, at, exc):
    idn = normalized(CORPUS["chu_vandermonde"])
    params = {"a": F(1, 3), "b": F(7, 2)}
    if side == "F":
        idn = dataclasses.replace(idn, F=_raising(idn.F, at, exc))
    else:
        cert = idn.certificate
        idn = dataclasses.replace(idn, certificate=cert._replace(
            **{side: _raising(getattr(cert, side), at, exc)}))
    results = _assert_same(idn, params, 5)
    assert (exc, f"pole at {at}") in results


@pytest.mark.parametrize("raising_side", ["F", "v"])
def test_mismatch_at_k_against_a_raise_at_k_plus_2(raising_side):
    # u(n, 1) doubled makes T(n, k) wrong from column 1 on, and the value read
    # for column 3 raises.  A raise in F comes after the mismatch and loses to
    # it; T's row is built before any comparison, so a raise in v wins, as it
    # always has.
    base = normalized(CORPUS["chu_vandermonde"])
    cert = base.certificate
    n = 4
    u = lambda m, k, p: cert.u(m, k, p) * (2 if (m, k) == (n, 1) else 1)
    if raising_side == "F":
        idn = NormalizedIdentity("cv+mismatch", _raising(base.F, (n + 1, 3), Inadmissible),
                                 Certificate(u, cert.v))
    else:
        idn = NormalizedIdentity("cv+mismatch", base.F,
                                 Certificate(u, _raising(cert.v, (n, 3), Inadmissible)))
    params = {"a": F(1, 3), "b": F(7, 2)}
    _assert_same(idn, params, n)
    got = _result(difference_check, idn, n, params)
    if raising_side == "F":
        assert got[0].status == FAIL and got[0].witness["k"] == "1"
        assert _result(telescope_to_zero_check, idn, n, params) == (
            Inadmissible, f"pole at {(n + 1, 3)}")
    else:
        assert got == (Inadmissible, f"pole at {(n, 3)}")


# ---------------------------------------------------------------------------
# The kernel's summands on integer pairs
# ---------------------------------------------------------------------------

def _value(rng, big):
    """A rational that is sometimes zero, and sometimes a q-power past 2,000 bits."""
    roll = rng.random()
    if roll < 0.08:
        return F(0)
    if big and roll < 0.4:
        q = F(rng.randint(5, 9), rng.randint(2, 4)) * rng.choice((-1, 1))
        return sample_rational(rng) * q ** rng.randint(700, 900) + rng.randint(-1, 1)
    return sample_rational(rng)


def _logged(values, name, log):
    def read(k):
        log.append((name, k))
        return values[k]
    return read


def kernel_terms(p):
    """The kernel's summands over p, each a Fraction of a telescoping_pairs pair."""
    for t in telescoping_pairs(as_pairs(p.u), as_pairs(p.v), p.n):
        yield F(*t)


def _terms(gen, p, log):
    """The summands, or the raised type and text, with the read log."""
    out = []
    try:
        for term in gen(p):
            assert type(term) is F
            out.append(term)
    except (DivisionByZero, ValueError) as exc:
        out.append((type(exc), str(exc)))
    return out, list(log)


def test_terms_match_reference_on_random_problems():
    rng = rng_for(1603, "terms")
    raised = big = 0
    for i in range(1000):
        n = rng.randint(-1, 11)
        with_big = i % 3 == 0
        us = [_value(rng, with_big) for _ in range(max(n, 0) + 1)]
        vs = [_value(rng, with_big) for _ in range(max(n, 0) + 1)]
        if rng.random() < 0.5:
            vs = [v if k == 0 or v != 0 else F(k) for k, v in enumerate(vs)]
        results = []
        for gen in (kernel_terms, reference_terms):
            log = []
            results.append(_terms(gen, TelescopeProblem(_logged(us, "u", log),
                                                        _logged(vs, "v", log), n), log))
        assert results[0] == results[1], i
        raised += isinstance(results[0][0][-1], tuple)
        big += any(x.numerator.bit_length() > 2000 for x in us + vs)
    assert raised > 100 and big > 100  # both the raise paths and the bignums ran


# ---------------------------------------------------------------------------
# The Fraction-row reference: the four checks as they were, verbatim
# ---------------------------------------------------------------------------

def fraction_difference_row(F, n, params):
    """F(n+1, k) - F(n, k) for k = 0, 1, ..., over the memo's F rows."""
    upper, lower = sample_value.row(F, n + 1, params), sample_value.row(F, n, params)
    return Row(lambda k: upper[k] - lower[k])


def fraction_telescoping_row(cert, n, params, k_max):
    """T(n, k) for k = 0..k_max: the telescoping summands over u(n, .) and
    v(n, .), by the Fraction loop ``reference_terms``; a zero w(n, 0) or
    v(n, k) raises DivisionByZero.  u and v are called, so a declared
    certificate's columns, held as integer pairs, read as Fractions."""
    return list(reference_terms(TelescopeProblem(lambda k: cert.u(n, k, params),
                                                 lambda k: cert.v(n, k, params), k_max)))


def fraction_difference_check(idn, n, params, suite="ez", sample=None):
    """Verify F(n+1,k) - F(n,k) = c(n) * T(n,k) for every 0 <= k <= n+1."""
    if idn.certificate is None:
        raise NoCertificate(idn.key)
    t_row = fraction_telescoping_row(idn.certificate, n, params, n + 1)
    diff = sample_value(fraction_difference_row, idn.F, n, params)
    c = diff[0]  # T(n, 0) = 1
    for k in range(n + 2):
        if diff[k] != c * t_row[k]:
            return [outcome(suite, idn.key, "difference", idn.citation, False, params, n=n,
                            sample=sample, k=k, difference=diff[k], expected=c * t_row[k])]
    return [outcome(suite, idn.key, "difference", idn.citation, True, n=n, sample=sample)]


def fraction_telescope_to_zero_check(idn, n, params, suite="ez", sample=None):
    """Difference row sums to zero; u(n, n+1) and v(n, 0) vanish."""
    cert = idn.certificate
    if cert is None:
        raise NoCertificate(idn.key)
    u_top = cert.u(n, n + 1, params)
    v_bot = cert.v(n, 0, params)
    if u_top != 0 or v_bot != 0:
        return [outcome(suite, idn.key, "telescope_zero", idn.citation, False, params, n=n,
                        sample=sample, u_at_n_plus_1=u_top, v_at_0=v_bot)]
    diff = sample_value(fraction_difference_row, idn.F, n, params)
    total = sum((diff[k] for k in range(n + 2)), ZERO)
    return [outcome(suite, idn.key, "telescope_zero", idn.citation, total == 0, params, n=n,
                    sample=sample, row_sum=total)]


def fraction_row_sum_check(idn, n, params, suite="ez", sample=None, check="row_sum"):
    """sum_{k=0}^{n} F(n, k) = 1 (check="base_case" is the n = 0 instance)."""
    F = sample_value.row(idn.F, n, params)
    total = sum((F[k] for k in range(n + 1)), ZERO)
    return [outcome(suite, idn.key, check, idn.citation, total == 1, params, n=n,
                    sample=sample, row_sum=total)]


def fraction_natural_termination_check(idn, n, params, suite="ez", sample=None):
    """F(n, k) = 0 for n < k <= n + TERMINATION_OVERSHOOT (the zero-factor
    mechanism)."""
    F = sample_value.row(idn.F, n, params)
    for k in range(n + 1, n + TERMINATION_OVERSHOOT + 1):
        value = F[k]
        if value != 0:
            return [outcome(suite, idn.key, "termination", idn.citation, False, params, n=n,
                            sample=sample, k=k, value=value)]
    return [outcome(suite, idn.key, "termination", idn.citation, True, n=n, sample=sample)]


#: In verify_sample's order at each n, then the termination check.
FRACTION_PAIRS = (
    (row_sum_check, fraction_row_sum_check),
    (difference_check, fraction_difference_check),
    (telescope_to_zero_check, fraction_telescope_to_zero_check),
    (natural_termination_check, fraction_natural_termination_check),
)


def _assert_same_as_fraction_checks(idn, params, n_max, reverse=False):
    """Every integer check agrees with its Fraction reference for n <= n_max,
    record for record or raise for raise; the results, in order."""
    results = []
    for n in range(n_max + 1):
        for new, ref in (FRACTION_PAIRS[::-1] if reverse else FRACTION_PAIRS):
            got, want = _result(new, idn, n, params), _result(ref, idn, n, params)
            assert got == want, (idn.key, n, ref.__name__)
            results.append(got)
    return results


def _statuses(results):
    return {r[0].status if isinstance(r, list) else r[0] for r in results}


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "perfbench" / "configs").glob("*.tkid"))


def _sums():
    """(name, IdentityDef) of the nine certified sums and the benchmark configs."""
    return [(key, CORPUS[key]) for key in CERTIFIED_KEYS] + [
        (path.stem, load_identity_config(path)) for path in CONFIGS]


def test_integer_checks_match_fraction_checks_on_seeded_draws():
    assert len(CONFIGS) == 2
    for name, idef in _sums():
        for i in range(2):
            n_max = 6
            params = draw_admissible(idef, rng_for(2401, "fraction-rows", name, i), n_max)
            results = _assert_same_as_fraction_checks(normalized(idef), params, n_max,
                                                      reverse=i == 1)
            assert _statuses(results) == {PASS}, name


@pytest.mark.parametrize("corrupt", range(len(CORRUPTIONS)))
def test_integer_checks_match_fraction_checks_on_corrupted_certificates(corrupt):
    for name, idef in _sums():
        params = draw_admissible(idef, rng_for(2402, "fraction-mutate", name), 5)
        mutated = NormalizedIdentity(key=f"{name}+{corrupt}", F=normalized(idef).F,
                                     certificate=CORRUPTIONS[corrupt](idef.certificate))
        results = _assert_same_as_fraction_checks(mutated, params, 5)
        assert FAIL in _statuses(results), name


SKEWS = {"n+2": lambda n, p: n + 2, "1+q": lambda n, p: 1 + p["q"]}


@pytest.mark.parametrize("skew", sorted(SKEWS))
def test_integer_checks_match_fraction_checks_on_skewed_closed_forms(skew):
    for name, idef in _sums():
        if skew == "1+q" and "q" not in {p.name for p in idef.params}:
            continue
        params = draw_admissible(idef, rng_for(2403, "fraction-skew", name), 5)
        rhs = idef.rhs
        skewed = Quotient(idef.term, lambda n, p: rhs(n, p) * SKEWS[skew](n, p))
        idn = NormalizedIdentity(f"{name}+{skew}", skewed, idef.certificate)
        results = _assert_same_as_fraction_checks(idn, params, 5)
        assert FAIL in _statuses(results), name


def _raising_term(term, points, exc):
    def raising(n, k, p):
        if (n, k) in points:
            raise exc(f"pole at {(n, k)}")
        return term(n, k, p)
    return raising


def _raising_rhs(rhs, rows, exc):
    def raising(n, p):
        if n in rows:
            raise exc(f"pole at n = {n}")
        return rhs(n, p)
    return raising


@pytest.mark.parametrize("exc", [Inadmissible, DivisionByZero])
@pytest.mark.parametrize("points", [
    {(0, 0)}, {(3, 0)}, {(3, 2)}, {(4, 2)}, {(3, 2), (4, 2)}, {(3, 3), (4, 1)}, {(4, 5)},
    {(3, 4)}, {(5, 6), (5, 3)}])
def test_integer_checks_match_fraction_checks_when_a_summand_raises(points, exc):
    for key in ("chu_vandermonde", "q_dougall"):
        idef = CORPUS[key]
        params = draw_admissible(idef, rng_for(2404, "fraction-raise", key), 6)
        idn = NormalizedIdentity(key, Quotient(_raising_term(idef.term, points, exc), idef.rhs),
                                 idef.certificate)
        results = _assert_same_as_fraction_checks(idn, params, 6)
        raised = {r for r in results if isinstance(r, tuple)}
        assert raised and raised <= {(exc, f"pole at {point}") for point in points}


@pytest.mark.parametrize("exc", [Inadmissible, DivisionByZero])
@pytest.mark.parametrize("rows", [{0}, {3}, {4}, {3, 4}, {7}])
def test_integer_checks_match_fraction_checks_when_a_closed_form_raises(rows, exc):
    idef = CORPUS["q_chu_vandermonde"]
    params = draw_admissible(idef, rng_for(2405, "fraction-raise-rhs"), 6)
    idn = NormalizedIdentity("qcv", Quotient(idef.term, _raising_rhs(idef.rhs, rows, exc)),
                             idef.certificate)
    results = _assert_same_as_fraction_checks(idn, params, 6)
    assert {r for r in results if isinstance(r, tuple)} == {
        (exc, f"pole at n = {n}") for n in rows}


@pytest.mark.parametrize("rows", [{0}, {2}, {2, 3}, {6}])
def test_integer_checks_match_fraction_checks_when_a_closed_form_is_zero(rows):
    # F(n, k) = t(n, k) / 0 raises "division of <t(n, k)> by zero" at each k read
    idef = CORPUS["pfaff_saalschutz"]
    params = draw_admissible(idef, rng_for(2406, "fraction-zero-rhs"), 6)
    rhs = idef.rhs
    idn = NormalizedIdentity("ps", Quotient(idef.term, lambda n, p: 0 * rhs(n, p) if n in rows
                                            else rhs(n, p)), idef.certificate)
    results = _assert_same_as_fraction_checks(idn, params, 6)
    # t(n, 0) = 1 is read first by the sums, t(n, n + 1) = 0 by the termination check
    assert {r[1] for r in results if isinstance(r, tuple)} == {
        "division of 1 by zero", "division of 0 by zero"}


def test_integer_checks_match_fraction_checks_past_the_last_column():
    # a summand nonzero at k = n + 1 enters the difference row, the telescoping
    # sum and the termination check, never the row sum
    for key in ("binomial", "rogers_6phi5"):
        idef = CORPUS[key]
        params = draw_admissible(idef, rng_for(2407, "fraction-tail", key), 6)
        term = idef.term
        tail = Quotient(lambda n, k, p: term(n, k, p) + (k if k == n + 1 else 0), idef.rhs)
        for reverse in (False, True):
            idn = NormalizedIdentity(f"{key}+tail{reverse}", tail, idef.certificate)
            results = _assert_same_as_fraction_checks(idn, params, 6, reverse=reverse)
            failed = {r[0].check for r in results if isinstance(r, list) and r[0].status == FAIL}
            assert failed == {"difference", "telescope_zero", "termination"}, key


def test_integer_checks_match_fraction_checks_on_a_library_F():
    # an F with no summand/closed-form split is read as its own summand over 1
    for key in ("binomial", "q_chu_vandermonde"):
        idef = CORPUS[key]
        params = draw_admissible(idef, rng_for(2408, "fraction-library", key), 6)
        term, rhs = idef.term, idef.rhs
        exact = NormalizedIdentity(key, lambda n, k, p: term(n, k, p) / rhs(n, p),
                                   idef.certificate)
        assert _statuses(_assert_same_as_fraction_checks(exact, params, 6)) == {PASS}
        skewed = NormalizedIdentity(key, lambda n, k, p: term(n, k, p) / (rhs(n, p) * (n + 2)),
                                    idef.certificate)
        assert FAIL in _statuses(_assert_same_as_fraction_checks(skewed, params, 6))
        poles = NormalizedIdentity(key, _raising_term(exact.F, {(2, 1), (3, 1)}, Inadmissible),
                                   idef.certificate)
        assert Inadmissible in _statuses(_assert_same_as_fraction_checks(poles, params, 6))
        ints = NormalizedIdentity(key, lambda n, k, p: k - n, CORRUPTIONS[2](idef.certificate))
        assert FAIL in _statuses(_assert_same_as_fraction_checks(ints, params, 6))


_FRACTION_METHODS = ("__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__rpow__",
                     "__neg__")


@pytest.mark.parametrize("key", CERTIFIED_KEYS)
def test_a_passing_sample_builds_no_fraction(key, monkeypatch):
    # the probe evaluates every summand, closed form and head; the checks of
    # an accepted sample then compare integers only
    idef = CORPUS[key]
    n_max = min(idef.n_max, 8)
    params = draw_admissible(idef, rng_for(2409, "no-fraction", key), n_max)
    built = []
    for name in _FRACTION_METHODS:
        method = getattr(F, name)

        def counted(*args, _method=method, _name=name, **kwargs):
            built.append(_name)
            return _method(*args, **kwargs)

        monkeypatch.setattr(F, name, counted)
    records = verify_sample(normalized(idef), n_max, params)
    monkeypatch.undo()
    assert {r.status for r in records} == {PASS}
    assert built == []


@pytest.mark.parametrize("key", ["binomial", "geometric"])
def test_each_summand_value_is_held_by_one_row(key, drawn_points):
    """A summand row is one memo entry, not a copy of another row: after a
    corpus sample, each summand value read is held by exactly one row (an
    n-free summand's rows n are all one shared row)."""
    idef = CORPUS[key]
    assert {r.status for r in run_corpus_item(key, None, 1, 1729)} == {PASS}
    params = drawn_points[-1]
    rows = {id(value): value for value in params.rows.values()
            if isinstance(value, (Row, _TermRow))}
    holders = Counter()
    for row in rows.values():
        cells = row.values() if isinstance(row, Row) else row.columns
        holders.update({id(cell) for cell in cells})
    read = 0
    for n in range(idef.n_max + 1):
        row = sample_value.row(idef.term, n, params)
        for k in range(1, idef.sum_range(n)[1] + 1):  # column 0 can be the shared ONE
            assert holders[id(row[k])] == 1, (n, k)
            read += 1
    assert read == idef.n_max * (idef.n_max + 1) // 2


@pytest.mark.parametrize("key", CERTIFIED_KEYS)
def test_a_closed_form_is_one_memo_entry_per_sample(key, drawn_points):
    """A certified sum's closed form is one row per sample, its _TermRow,
    read at column n: no second entry per n holds rhs(n)."""
    idef = CORPUS[key]
    assert {r.status for r in run_ez_item(key, None, 1, 1729)} == {PASS}
    params = drawn_points[-1]
    held = [value for k, value in params.rows.items() if idef.rhs in k]
    assert len(held) == 1 and type(held[0]) is _TermRow, key
    assert [held[0][n] for n in range(4)] == [idef.rhs(n, params) for n in range(4)]


@pytest.mark.parametrize("key", CERTIFIED_KEYS)
@pytest.mark.parametrize("run", [run_ez_item, run_corpus_item])
def test_a_certified_sample_holds_rows_and_row_sums_only(run, key, drawn_points):
    """Every memo entry of a certified sample is a row built at ``point._row``
    (a summand, the closed form, u, v, the powers of q or the heads) or the
    ``Summands`` of a row n."""
    assert {r.status for r in run(key, None, 1, 1729)} == {PASS}
    rows = drawn_points[-1].rows
    assert rows
    assert {entry[0] for entry in rows} <= {point._row, Summands}, key


def test_a_config_certificate_is_held_once(drawn_points):
    """A config's u and v are one row per n each, holding the Fractions that
    ``evaluate`` builds, which the checks read as integer pairs: no second
    row holds the same values as pairs."""
    for path in CONFIGS:
        idef = load_identity_config(path)
        assert run_config_identity(idef, samples=1).ok
        cert = idef.certificate
        held = [value for key, value in drawn_points[-1].rows.items()
                if cert.u in key or cert.v in key]
        assert len(held) == 2 * (idef.n_max + 1), path.stem
        for row in held:
            assert isinstance(row, Row) and row, path.stem
            assert all(type(cell) is F for cell in row.values()), path.stem
