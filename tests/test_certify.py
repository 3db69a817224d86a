import dataclasses
from collections import Counter
from fractions import Fraction as F

import pytest

from telesum import certify
from telesum.certify import (Certificate, NormalizedIdentity, SampleMemo, difference_check,
                             natural_termination_check, row_sum_check,
                             telescope_to_zero_check, verify_sample)
from telesum.corpus import CERTIFIED_KEYS, CORPUS, draw_admissible, normalized
from telesum.errors import Inadmissible, NoCertificate
from telesum.point import Point
from telesum.report import FAIL, INADMISSIBLE, PASS
from telesum.runner import run_corpus_item
from telesum.sampling import rng_for


def all_pass(records):
    return all(r.status == PASS for r in records)


def test_binomial_certificate_passes():
    idn = normalized(CORPUS["binomial"])
    params = {"x": F(3)}
    assert all_pass(difference_check(idn, 4, params))
    assert all_pass(telescope_to_zero_check(idn, 4, params))
    assert all_pass(row_sum_check(idn, 0, params, check="base_case"))


def test_corrupted_certificate_reports_boundary():
    # v(n, k) = k + 1 violates v(n, 0) = 0
    base = CORPUS["binomial"]
    bad = NormalizedIdentity(
        key="binomial_bad_v",
        F=normalized(base).F,
        certificate=Certificate(u=base.certificate.u,
                                v=lambda n, k, p: F(k + 1)),
    )
    records = telescope_to_zero_check(bad, 3, {"x": F(3)})
    assert records[0].status == FAIL
    assert records[0].witness["v_at_0"] == "1"


def test_telescope_to_zero_examples():
    idn = normalized(CORPUS["binomial"])
    assert all_pass(telescope_to_zero_check(idn, 5, {"x": F(1)}))
    cv = normalized(CORPUS["chu_vandermonde"])
    assert all_pass(telescope_to_zero_check(cv, 2, {"a": F(1), "b": F(3)}))
    assert all_pass(difference_check(cv, 2, {"a": F(1), "b": F(3)}))


def test_q_dougall_certificate_at_spec_sample():
    idn = normalized(CORPUS["q_dougall"])
    params = {"q": F(2, 3), "a": F(5), "b": F(2), "c": F(3), "d": F(7)}
    records = verify_sample(idn, 3, params)
    assert all_pass(records)


def test_no_certificate_error():
    idn = normalized(CORPUS["geometric"])
    for check in (difference_check, telescope_to_zero_check):
        with pytest.raises(NoCertificate):
            check(idn, 2, {"x": F(2)})


def test_full_sweep_small_samples_every_certified_identity():
    for key in CERTIFIED_KEYS:
        idef = CORPUS[key]
        idn = normalized(idef)
        for i in range(2):
            rng = rng_for(41, "sweep", key, i)
            params = draw_admissible(idef, rng, 6)
            records = verify_sample(idn, 6, params, sample=i)
            bad = [r for r in records if r.status != PASS]
            assert not bad, (key, bad[:2])


def test_natural_termination_all_terminating():
    for key in CERTIFIED_KEYS:
        idef = CORPUS[key]
        rng = rng_for(42, "termination", key)
        params = draw_admissible(idef, rng, 6)
        assert all_pass(natural_termination_check(normalized(idef), 6, params))


def _scaled(cert: Certificate, side: str) -> Certificate:
    if side == "u":
        return Certificate(u=lambda n, k, p: cert.u(n, k, p) * (k + 2), v=cert.v)
    return Certificate(u=cert.u, v=lambda n, k, p: cert.v(n, k, p) * (k + 2))


def _shifted(cert: Certificate, side: str) -> Certificate:
    if side == "u":
        return Certificate(u=lambda n, k, p: cert.u(n, k, p) + 1, v=cert.v)
    return Certificate(u=cert.u, v=lambda n, k, p: cert.v(n, k, p) + 1)


def test_mutation_sensitivity_every_certificate():
    # a seeded single-factor corruption must produce at least one failure
    mutations = (("scale_u", _scaled, "u"), ("scale_v", _scaled, "v"),
                 ("shift_u", _shifted, "u"), ("shift_v", _shifted, "v"))
    for key in CERTIFIED_KEYS:
        idef = CORPUS[key]
        rng = rng_for(2024, "mutate", key)
        name, wrap, side = mutations[rng.randrange(len(mutations))]
        params = draw_admissible(idef, rng, 5)
        bad = NormalizedIdentity(key=f"{key}+{name}", F=normalized(idef).F,
                                 certificate=wrap(idef.certificate, side))
        records = verify_sample(bad, 5, params)
        assert any(r.status == FAIL for r in records), (key, name)


def test_mutated_rhs_fails_base_row():
    # off by a nonconstant factor: every certified identity must notice
    for key in CERTIFIED_KEYS:
        idef = CORPUS[key]
        rng = rng_for(77, "rhs-mutate", key)
        params = draw_admissible(idef, rng, 4)
        skew = NormalizedIdentity(
            key=f"{key}+rhs",
            F=lambda n, k, p, idef=idef: idef.term(n, k, p) / (idef.rhs(n, p) * (n + 2)),
            certificate=idef.certificate,
        )
        records = verify_sample(skew, 4, params)
        assert any(r.status == FAIL for r in records), key


def test_rhs_off_by_one_plus_q_fails_base_row():
    idef = CORPUS["q_binomial"]
    rng = rng_for(78, "qmut")
    params = draw_admissible(idef, rng, 3)
    skew = NormalizedIdentity(
        key="q_binomial+factor",
        F=lambda n, k, p: idef.term(n, k, p) / (idef.rhs(n, p) * (1 + p["q"])),
        certificate=idef.certificate,
    )
    records = verify_sample(skew, 3, params)
    rows = [r for r in records if r.check in ("base_case", "row_sum")]
    assert any(r.status == FAIL for r in rows)


def test_proportionality_constant_consistent_across_k():
    # the difference check IS the statement that c(n) from k = 0 fits all k
    idef = CORPUS["q_pfaff_saalschutz"]
    rng = rng_for(9, "cn")
    params = draw_admissible(idef, rng, 5)
    for n in range(6):
        assert all_pass(difference_check(normalized(idef), n, params))


def test_sample_memo_keys_by_function_and_point():
    memo = SampleMemo()
    calls = Counter()

    def double(n, p):
        calls["double"] += 1
        return 2 * n * p["x"]

    def triple(n, p):
        calls["triple"] += 1
        return 3 * n * p["x"]

    def pole(n, p):
        calls["pole"] += 1
        raise Inadmissible(f"pole at n={n}")

    point = {"x": F(1, 2)}
    assert memo(double, 4, point) == memo(double, 4, dict(point)) == 4
    assert memo(triple, 4, point) == 6  # another function never gets double's value
    assert calls == {"double": 1, "triple": 1}
    for _ in range(2):  # a raise is not stored: it raises again, with its message
        with pytest.raises(Inadmissible, match="pole at n=4"):
            memo(pole, 4, point)
    assert calls["pole"] == 2
    assert memo(double, 4, {"x": F(3)}) == 24  # a new point drops the old values
    assert memo(double, 4, point) == 4
    assert calls["double"] == 3
    # a drawn Point holds its own values, keyed (fn, *lead): two points hold
    # theirs at once, and neither drops the plain mapping's
    a, b = Point(x=F(1, 2)), Point(x=F(3))
    assert memo(double, 4, a) == 4 and memo(double, 4, b) == 24
    assert memo(double, 4, a) == 4 and memo(triple, 4, a) == 6
    assert calls == {"double": 5, "triple": 2, "pole": 2}
    assert a.rows == {(double, 4): 4, (triple, 4): 6} and b.rows == {(double, 4): 24}
    assert memo(double, 4, Point(a)) == 4  # an equal point owns another table
    assert calls["double"] == 6
    assert memo(double, 4, dict(point)) == 4
    assert calls["double"] == 6
    for _ in range(2):
        with pytest.raises(Inadmissible, match="pole at n=4"):
            memo(pole, 4, a)
    assert calls["pole"] == 4 and (pole, 4) not in a.rows


def test_two_points_hold_their_values_at_once():
    """Checking point A, then B, then A again evaluates no summand of A
    twice: each point holds its own values while it lives."""
    base = CORPUS["q_chu_vandermonde"]
    calls = Counter()
    idef = dataclasses.replace(base, term=_counting(base.term, calls, "term"))
    idn, n_max = normalized(idef), 4
    rng = rng_for(36, "two points")
    a, b = draw_admissible(idef, rng, n_max), draw_admissible(idef, rng, n_max)
    assert a != b
    for params in (a, b, a):
        assert all_pass(verify_sample(idn, n_max, params))
    at_a = [count for key, count in calls.items() if key[1] == tuple(a.items())]
    assert len(at_a) == sum(n + 4 for n in range(n_max + 2))  # the probe's k <= n + 3
    assert set(at_a) == {1}


def _counting(fn, calls, name):
    def counted(*args):
        calls[(name, tuple(args[-1].items())) + args[:-1]] += 1
        return fn(*args)
    return counted


def test_q_dougall_sample_evaluates_each_value_once(monkeypatch):
    # the admissibility probe and every check share one evaluation per value
    base = CORPUS["q_dougall"]
    calls = Counter()
    summands = certify.Summands

    def counted_summands(F, n, params):
        calls[("summands", tuple(params.items()), n)] += 1
        return summands(F, n, params)

    monkeypatch.setattr(certify, "Summands", counted_summands)
    idef = dataclasses.replace(
        base, term=_counting(base.term, calls, "term"), rhs=_counting(base.rhs, calls, "rhs"),
        certificate=Certificate(u=_counting(base.certificate.u, calls, "u"),
                                v=_counting(base.certificate.v, calls, "v")))
    n_max = 8
    params = draw_admissible(idef, rng_for(5, "once", "q_dougall"), n_max)
    idn = normalized(idef)
    idn = dataclasses.replace(idn, F=_counting(idn.F, calls, "F"))
    assert all_pass(verify_sample(idn, n_max, params))

    assert max(calls.values()) == 1
    point = tuple(params.items())
    seen = {key for key in calls if key[1] == point}
    # the probe covers every summand the checks use: n <= n_max + 1, k <= n + 3
    assert {key[2:] for key in seen if key[0] == "term"} == {
        (n, k) for n in range(n_max + 2) for k in range(n + 4)}
    assert {key[2:] for key in seen if key[0] == "rhs"} == {(n,) for n in range(n_max + 2)}
    assert {key[2:] for key in seen if key[0] == "F"} == {
        (n, k) for n in range(n_max + 2) for k in range(min(n, n_max) + 2)}
    # every check reads row n's summands and running sums from one entry
    assert {key[2:] for key in seen if key[0] == "summands"} == {
        (n,) for n in range(n_max + 2)}


def test_corpus_item_reads_u_and_v_only_where_the_probe_needs_them(monkeypatch):
    # the corpus suite runs no certificate check: its probe reads u(n, 0),
    # u(n, n + 1) and v(n, k) for k <= n + 1, and nothing else of the rows
    base = CORPUS["q_dougall"]
    calls = Counter()
    monkeypatch.setitem(CORPUS, "q_dougall", dataclasses.replace(base, certificate=Certificate(
        u=_counting(base.certificate.u, calls, "u"), v=_counting(base.certificate.v, calls, "v"))))
    samples = 3
    assert all_pass(run_corpus_item("q_dougall", None, samples, 1729))

    assert max(calls.values()) == 1
    rows = range(base.n_max + 1)
    u_probe = {(n, k) for n in rows for k in (0, n + 1)}
    v_probe = {(n, k) for n in rows for k in range(n + 2)}
    complete = 0
    for point in {key[1] for key in calls}:
        u = {key[2:] for key in calls if key[:2] == ("u", point)}
        v = {key[2:] for key in calls if key[:2] == ("v", point)}
        assert u <= u_probe and v <= v_probe
        complete += (u, v) == (u_probe, v_probe)
    assert complete == samples  # each accepted draw was probed in full


def test_inadmissible_F_gives_the_same_record_on_every_check():
    base = normalized(CORPUS["binomial"])

    def pole_at_3_1(n, k, p):
        if (n, k) == (3, 1):
            raise Inadmissible("F(3, 1) has a zero denominator")
        return base.F(n, k, p)

    idn = dataclasses.replace(base, F=pole_at_3_1)
    params = {"x": F(3)}
    records = verify_sample(idn, 5, params)
    assert verify_sample(idn, 5, params) == records
    touched = {(r.check, r.n) for r in records if r.status == INADMISSIBLE}
    # F(3, 1) enters the row sum at n = 3 and the difference rows at n = 2, 3
    assert touched == {("row_sum", 3), ("difference", 2), ("difference", 3),
                       ("telescope_zero", 2), ("telescope_zero", 3)}
    witnesses = {tuple(sorted(r.witness.items())) for r in records
                 if r.status == INADMISSIBLE}
    assert witnesses == {(("reason", "F(3, 1) has a zero denominator"), ("x", "3"))}
    assert all(r.status == PASS for r in records if (r.check, r.n) not in touched)
