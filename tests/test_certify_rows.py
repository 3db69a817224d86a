"""The row-based certificate checks against the point-by-point reference.

The reference functions below are the checks and the kernel loop as they
were when every F, u and v value was looked up by its full point through
``sample_value``, and the kernel's running ratio was a Fraction.  The row
code must give the same records, values, or exception type and text.
"""

import dataclasses
from fractions import Fraction as F

import pytest

from telesum.certify import (TERMINATION_OVERSHOOT, Certificate, NormalizedIdentity,
                             difference_check, natural_termination_check, row_sum_check,
                             sample_value, telescope_to_zero_check, telescoping_row)
from telesum.corpus import CERTIFIED_KEYS, CORPUS, draw_admissible, normalized
from telesum.errors import DivisionByZero, Inadmissible, NoCertificate
from telesum.rational import ONE, ZERO
from telesum.report import FAIL, outcome
from telesum.sampling import rng_for, sample_rational
from telesum.telescope import TelescopeProblem, telescoping_terms


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
    (lambda idn, n, params: telescoping_row(idn.certificate, n, params, n + 1),
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
        idn = dataclasses.replace(idn, certificate=dataclasses.replace(
            cert, **{side: _raising(getattr(cert, side), at, exc)}))
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
        for gen in (telescoping_terms, reference_terms):
            log = []
            results.append(_terms(gen, TelescopeProblem(_logged(us, "u", log),
                                                        _logged(vs, "v", log), n), log))
        assert results[0] == results[1], i
        raised += isinstance(results[0][0][-1], tuple)
        big += any(x.numerator.bit_length() > 2000 for x in us + vs)
    assert raised > 100 and big > 100  # both the raise paths and the bignums ran
