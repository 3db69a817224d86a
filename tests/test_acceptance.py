"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion.  Every tolerance here is exact (rational zero); the only numeric
thresholds are the two wall-clock budgets.
"""

import io
import json
import time
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

from telesum.certify import Certificate, NormalizedIdentity, verify_sample
from telesum.cli import main as cli_main
from telesum.corpus import CORPUS, draw_admissible, evaluate_identity, normalized
from telesum.elementary import ELEMENTARY, grid_zero_check, sampled_zero_check
from telesum.genhyp import (dougall_terms, macdonald_cv, macdonald_cv_permuted,
                            macdonald_dougall, macdonald_ps, ps_terms,
                            relabeled_for_permutation, sample_sequence_params,
                            with_d_zero)
from telesum.rational import seq
from telesum.sampling import rng_for, sample_rational
from telesum.sequences import (FAMILIES, generate, lucas_gen_sides, random_spec,
                               verify_family_suite)
from telesum.telescope import (TelescopeProblem, solve_linear_recurrence,
                               telescoping_closed_form, telescoping_sum)

GOLDEN = Path(__file__).parent / "golden" / "verify_geometric.json"


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {text}")
        raise
    print(f"PASS criterion {num}: {text}")


def _suite_all_pass(records):
    bad = [r for r in records if r.status != "pass"]
    assert not bad, bad[:3]


def test_criterion_1_kernel_oracle():
    with criterion(1, "telescoping kernel oracle, 10^3 seeded problems, < 5 s"):
        rng = rng_for(20260808, "kernel")
        started = time.perf_counter()
        for _ in range(1000):
            n = rng.randint(0, 11)
            while True:
                u_vals = [sample_rational(rng) for _ in range(n + 1)]
                v_vals = [sample_rational(rng) for _ in range(n + 1)]
                if u_vals[0] != v_vals[0]:
                    break
            p = TelescopeProblem(seq(u_vals), seq(v_vals), n)
            assert telescoping_sum(p) == telescoping_closed_form(p)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"kernel oracle took {elapsed:.2f}s"


def test_criterion_2_fibonacci_suite():
    with criterion(2, "all six Fibonacci identities exact for n <= 20"):
        _suite_all_pass(verify_family_suite("fibonacci", 20, 1, seed=1))
        xs = generate(FAMILIES["fibonacci"].make({}), 12)
        assert sum(xs[k] for k in range(1, 11)) == 143 == xs[12] - 1


def test_criterion_3_derangement_suite():
    with criterion(3, "shifted derangement values and all six identities, n <= 20"):
        xs = generate(FAMILIES["shifted_derangement"].make({}), 5)
        assert [int(v) for v in xs] == [0, 1, 2, 9, 44, 265]
        _suite_all_pass(verify_family_suite("shifted_derangement", 20, 1, seed=1))
        b = lambda m: F(m)
        c = lambda m: F((-1) ** m)
        assert solve_linear_recurrence(b, c, F(0), 4) == 9  # x_5 = d_4


def test_criterion_4_pell_suite():
    with criterion(4, "all six Pell identities exact for n <= 20"):
        _suite_all_pass(verify_family_suite("pell", 20, 1, seed=1))
        xs = generate(FAMILIES["pell"].make({}), 5)
        assert sum(2 * xs[k] ** 2 for k in range(1, 4)) == 60 == xs[3] * xs[4]


def test_criterion_5_classical_corpus():
    with criterion(5, "classical corpus exact for n <= 15, 32 samples each"):
        keys = ("binomial", "chu_vandermonde", "pfaff_saalschutz",
                "ramanujan_entry25", "rising_fact_sum", "reciprocal_rising_fact_sum")
        for key in keys:
            idef = CORPUS[key]
            for i in range(32):
                rng = rng_for(5, "classical", key, i)
                params = draw_admissible(idef, rng, 15)
                for n in range(16):
                    lhs, rhs = evaluate_identity(idef, n, params)
                    assert lhs == rhs, (key, n)
        lhs, rhs = evaluate_identity(CORPUS["chu_vandermonde"], 2,
                                     {"a": F(1), "b": F(3)})
        assert lhs == rhs == F(1, 2)


def test_criterion_6_q_corpus_under_budget():
    with criterion(6, "q-corpus exact (n <= 12; q-Dougall n <= 8), 32 samples, < 60 s"):
        started = time.perf_counter()
        plans = (("q_binomial", 12), ("q_chu_vandermonde", 12),
                 ("q_pfaff_saalschutz", 12), ("q_dougall", 8))
        for key, n_max in plans:
            idef = CORPUS[key]
            for i in range(32):
                rng = rng_for(6, "qcorpus", key, i)
                params = draw_admissible(idef, rng, n_max)
                for n in range(n_max + 1):
                    lhs, rhs = evaluate_identity(idef, n, params)
                    assert lhs == rhs, (key, n)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"q-corpus took {elapsed:.2f}s"


def test_criterion_7_certificates():
    with criterion(7, "certificate checks (difference, boundary, telescoping, "
                      "base case) for n <= 10, zero tolerance"):
        keys = ("binomial", "chu_vandermonde", "pfaff_saalschutz", "q_binomial",
                "q_chu_vandermonde", "q_pfaff_saalschutz", "q_dougall")
        for key in keys:
            idef = CORPUS[key]
            idn = normalized(idef)
            count = 16 if idef.params else 1
            for i in range(count):
                rng = rng_for(7, "ez", key, i)
                params = draw_admissible(idef, rng, 10)
                _suite_all_pass(verify_sample(idn, 10, params, sample=i))


def test_criterion_8_elementary_grid_and_sampled():
    with criterion(8, "elementary identities certified on the grid plus 10^3 points"):
        for key, ident in ELEMENTARY.items():
            grid_records = grid_zero_check(ident)
            assert grid_records[0].status == "pass", key
            sampled = sampled_zero_check(ident, seed=8, samples=1000)
            assert sampled[0].status == "pass", key


def test_criterion_9_generalized_hypergeometric():
    with criterion(9, "sequence-parameter sums on 10^3 tuples per operation"):
        ops = (("macdonald_cv", macdonald_cv),
               ("macdonald_cv_permuted", macdonald_cv_permuted),
               ("macdonald_ps", macdonald_ps),
               ("macdonald_dougall", macdonald_dougall))
        for name, fn in ops:
            for i in range(1000):
                rng = rng_for(9, "genhyp", name, i)
                p = sample_sequence_params(rng, rng.randint(1, 10), name)
                lhs, rhs = fn(p)
                assert lhs == rhs, (name, i)
                if name == "macdonald_cv_permuted" and i % 4 == 0:
                    assert macdonald_cv(relabeled_for_permutation(p)) == (lhs, rhs)
                if name == "macdonald_dougall" and i % 4 == 0:
                    dz = with_d_zero(p)
                    assert dougall_terms(dz) == ps_terms(dz)


def test_criterion_10_recurrence_generality():
    with criterion(10, "all six generic identities on 10^3 random recurrences, n <= 10"):
        for i in range(1000):
            spec = random_spec(rng_for(10, "generic", i), 10)
            for which in range(1, 7):
                for n, lhs, rhs in lucas_gen_sides(spec, which, 10):
                    assert lhs == rhs, (i, which, n)


def test_criterion_11_q_sequence_families():
    with criterion(11, "q-families' printed identities exact for n <= 12, 8 samples"):
        for key in ("schur_q_fib", "q_pell", "goyt_sagan", "goyt_mathisen"):
            _suite_all_pass(verify_family_suite(key, 12, 8, seed=11))
        xs = generate(FAMILIES["goyt_mathisen"].make(
            {"x": F(3), "y": F(5), "q": F(2, 7)}), 3)
        assert xs[2] == 3
        assert xs[3] == F(2, 7) * 9 + 5


def test_criterion_12_mutation_sensitivity():
    with criterion(12, "a seeded certificate corruption always reports a failure"):
        corruptions = (
            ("scale_u", lambda c: Certificate(
                u=lambda n, k, p: c.u(n, k, p) * (k + 2), v=c.v)),
            ("scale_v", lambda c: Certificate(
                u=c.u, v=lambda n, k, p: c.v(n, k, p) * (k + 2))),
            ("shift_u", lambda c: Certificate(
                u=lambda n, k, p: c.u(n, k, p) + 1, v=c.v)),
            ("shift_v", lambda c: Certificate(
                u=c.u, v=lambda n, k, p: c.v(n, k, p) + 1)),
        )
        for key, idef in CORPUS.items():
            if idef.certificate is None:
                continue
            rng = rng_for(12, "mutate", key)
            name, wrap = corruptions[rng.randrange(len(corruptions))]
            params = draw_admissible(idef, rng, 5)
            mutated = NormalizedIdentity(key=f"{key}+{name}", F=normalized(idef).F,
                                         certificate=wrap(idef.certificate))
            records = verify_sample(mutated, 5, params)
            assert any(r.status == "fail" for r in records), (key, name)


def test_criterion_13_cli_determinism_golden():
    with criterion(13, "byte-identical JSON reports; golden file match"):
        argv = ["verify", "--suite", "corpus", "--id", "geometric",
                "--format", "json", "--samples", "4", "--seed", "2718"]
        out1, out2 = io.StringIO(), io.StringIO()
        assert cli_main(argv, out=out1) == 0
        assert cli_main(argv, out=out2) == 0
        assert out1.getvalue() == out2.getvalue()
        golden = GOLDEN.read_text(encoding="utf-8")
        assert out1.getvalue() == golden
        payload = json.loads(golden)
        assert payload["schema"] == 1
