"""Suite orchestration: deterministic, optionally parallel verification runs.

Work is partitioned per identity/family/operation.  Each item derives its
random stream from (seed, suite, item, sample index) alone, and the merged
report is sorted by a stable key, so output is identical for any worker
count.  Items are small picklable tuples, safe for a process pool.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable

from . import elementary as elementary_mod
from . import genhyp as genhyp_mod
from . import sequences as sequences_mod
from .certify import _witness, natural_termination_check, verify_sample
from .corpus import (CERTIFIED_KEYS, CORPUS, IdentityDef, draw_admissible,
                     evaluate_identity, normalized, specialization_d_zero_checks)
from .errors import Inadmissible, PoleExhausted, SampleExhausted
from .rational import format_rational
from .report import FAIL, INADMISSIBLE, PASS, CheckRecord, Report
from .sampling import RETRY_BOUND, rng_for, sample_q, sample_rational

SUITES = ("corpus", "ez", "sequences", "genhyp", "elementary")

DEFAULT_SEED = 1729
DEFAULT_SAMPLES = {"corpus": 32, "ez": 16, "sequences": 8, "genhyp": 32, "elementary": 200}
EZ_DEFAULT_N_MAX = 10
SEQUENCES_DEFAULT_N_MAX = 12

SPECIALIZATION_KEY = "q_dougall_n1_link"


def suite_items(suite: str) -> list[str]:
    if suite == "corpus":
        return list(CORPUS) + [SPECIALIZATION_KEY]
    if suite == "ez":
        return list(CERTIFIED_KEYS)
    if suite == "sequences":
        return list(sequences_mod.FAMILIES)
    if suite == "genhyp":
        return list(genhyp_mod.PROBLEM_BUILDERS)
    if suite == "elementary":
        return list(elementary_mod.ELEMENTARY)
    raise ValueError(f"unknown suite {suite!r}")


def _sweep(idef: IdentityDef, suite: str, n_max: int, samples: int, seed: int,
           checks: Callable[[dict, int | None], list[CheckRecord]]) -> list[CheckRecord]:
    """checks(params, sample) on each admissible sample of one identity.

    Sample i draws from the stream (seed, suite, key, i); an identity
    without parameters has the one sample None.
    """
    records: list[CheckRecord] = []
    for i in range(samples if idef.params else 1):
        rng = rng_for(seed, suite, idef.key, i)
        sample = i if idef.params else None
        try:
            params = draw_admissible(idef, rng, n_max)
        except SampleExhausted as exc:
            records.append(CheckRecord(suite=suite, identity=idef.key, check="sampling",
                                       status=FAIL, sample=sample,
                                       witness={"reason": str(exc)}, citation=idef.citation))
            continue
        records.extend(checks(params, sample))
    return records


def _identity_rows(idef: IdentityDef, suite: str, n_max: int, params: dict,
                   sample: int | None) -> list[CheckRecord]:
    """LHS = RHS for 0 <= n <= n_max; a zero denominator marks that row inadmissible."""
    records = []
    for n in range(n_max + 1):
        try:
            lhs, rhs = evaluate_identity(idef, n, params)
        except Inadmissible as exc:
            status, witness = INADMISSIBLE, {"reason": str(exc)}
        else:
            status = PASS if lhs == rhs else FAIL
            witness = None if status == PASS else _witness(params, lhs=lhs, rhs=rhs)
        records.append(CheckRecord(suite=suite, identity=idef.key, check="identity",
                                   status=status, n=n, sample=sample,
                                   witness=witness, citation=idef.citation))
    return records


def run_corpus_item(key: str, n_max: int | None, samples: int, seed: int) -> list[CheckRecord]:
    if key == SPECIALIZATION_KEY:
        return _run_specialization(samples, seed)
    idef = CORPUS[key]
    eff_n = idef.n_max if n_max is None else n_max
    idn = normalized(idef)

    def checks(params, sample):
        records = _identity_rows(idef, "corpus", eff_n, params, sample)
        if idef.terminating:
            records += natural_termination_check(idn, eff_n, params, suite="corpus",
                                                 sample=sample)
        return records

    return _sweep(idef, "corpus", eff_n, samples, seed, checks)


def _run_specialization(samples: int, seed: int) -> list[CheckRecord]:
    citation = "n = 1 row of the q-Dougall sum rearranged to the four-variable identity"
    records = []
    for i in range(samples):
        rng = rng_for(seed, "corpus", SPECIALIZATION_KEY, i)
        outcome = None
        for _ in range(RETRY_BOUND):
            q = sample_q(rng, 4)
            point = {name: sample_rational(rng) for name in "abcd"}
            try:
                outcome = specialization_d_zero_checks(q, point["a"], point["b"],
                                                       point["c"], point["d"])
            except Inadmissible:
                continue
            break
        if outcome is None:
            records.append(CheckRecord(suite="corpus", identity=SPECIALIZATION_KEY,
                                       check="sampling", status=FAIL, sample=i,
                                       witness={"reason": "no admissible sample"},
                                       citation=citation))
            continue
        bad = [name for name, ok in outcome.items() if not ok]
        status = PASS if not bad else FAIL
        witness = None
        if bad:
            witness = _witness(point, q=q, failed=",".join(bad))
        records.append(CheckRecord(suite="corpus", identity=SPECIALIZATION_KEY,
                                   check="specialization", status=status, sample=i,
                                   witness=witness, citation=citation))
    return records


def run_ez_item(key: str, n_max: int | None, samples: int, seed: int) -> list[CheckRecord]:
    idef = CORPUS[key]
    eff_n = EZ_DEFAULT_N_MAX if n_max is None else n_max
    idn = normalized(idef)
    return _sweep(idef, "ez", eff_n, samples, seed,
                  lambda params, sample: verify_sample(idn, eff_n, params, suite="ez",
                                                       sample=sample))


def run_sequences_item(key: str, n_max: int | None, samples: int, seed: int) -> list[CheckRecord]:
    eff_n = SEQUENCES_DEFAULT_N_MAX if n_max is None else n_max
    return sequences_mod.verify_family_suite(key, eff_n, samples, seed, suite="sequences")


def run_genhyp_item(key: str, n_max: int | None, samples: int, seed: int) -> list[CheckRecord]:
    max_len = 10 if n_max is None else n_max + 1
    builder, _ = genhyp_mod.PROBLEM_BUILDERS[key]
    citation = genhyp_mod.CITATIONS[key]
    records: list[CheckRecord] = []
    for i in range(samples):
        rng = rng_for(seed, "genhyp", key, i)
        length = rng.randint(1, max_len)
        try:
            p = genhyp_mod.sample_sequence_params(rng, length, key)
        except SampleExhausted as exc:
            records.append(CheckRecord(suite="genhyp", identity=key, check="sampling",
                                       status=FAIL, sample=i,
                                       witness={"reason": str(exc)}, citation=citation))
            continue
        lhs, rhs = genhyp_mod.both_sides(builder(p))
        status = PASS if lhs == rhs else FAIL
        witness = None
        if status == FAIL:
            witness = {"lhs": format_rational(lhs), "rhs": format_rational(rhs),
                       "length": str(length)}
        records.append(CheckRecord(suite="genhyp", identity=key, check="identity",
                                   status=status, n=p.n, sample=i,
                                   witness=witness, citation=citation))
        if key == "macdonald_cv_permuted":
            other = genhyp_mod.macdonald_cv(genhyp_mod.relabeled_for_permutation(p))
            ok = other == (lhs, rhs)
            records.append(CheckRecord(
                suite="genhyp", identity=key, check="relabel", n=p.n, sample=i,
                status=PASS if ok else FAIL,
                witness=None if ok else {"direct": format_rational(lhs),
                                         "relabel": format_rational(other[0])},
                citation=citation))
        if key == "macdonald_dougall":
            dz = genhyp_mod.with_d_zero(p)
            ok = genhyp_mod.dougall_terms(dz) == genhyp_mod.ps_terms(dz)
            records.append(CheckRecord(
                suite="genhyp", identity=key, check="d_zero_termwise", n=p.n, sample=i,
                status=PASS if ok else FAIL,
                witness=None if ok else {"reason": "termwise mismatch"},
                citation=citation))
    return records


def run_elementary_item(key: str, samples: int, seed: int, grid: bool) -> list[CheckRecord]:
    ident = elementary_mod.ELEMENTARY[key]
    try:
        records = elementary_mod.sampled_zero_check(ident, seed, samples, suite="elementary")
    except PoleExhausted as exc:
        records = [CheckRecord(suite="elementary", identity=key, check="sampling",
                               status=FAIL, witness={"reason": str(exc)},
                               citation=ident.citation)]
    if grid:
        records = records + elementary_mod.grid_zero_check(ident, suite="elementary")
    return records


def _execute_item(task: tuple) -> list[CheckRecord]:
    suite, key, n_max, samples, seed, grid = task
    if suite == "corpus":
        return run_corpus_item(key, n_max, samples, seed)
    if suite == "ez":
        return run_ez_item(key, n_max, samples, seed)
    if suite == "sequences":
        return run_sequences_item(key, n_max, samples, seed)
    if suite == "genhyp":
        return run_genhyp_item(key, n_max, samples, seed)
    if suite == "elementary":
        return run_elementary_item(key, samples, seed, grid)
    raise ValueError(f"unknown suite {suite!r}")


def pool_size(jobs: int, n_tasks: int) -> int:
    """Worker processes for a run: never more than the tasks or the CPUs."""
    return min(jobs, n_tasks, os.cpu_count() or 1)


def run_suite(suite: str, ids: list[str] | None = None, n_max: int | None = None,
              samples: int | None = None, seed: int = DEFAULT_SEED,
              grid: bool = False, jobs: int = 1) -> Report:
    """Run one suite (or "all"); the report is identical for any job count."""
    started = time.perf_counter()
    suites = list(SUITES) if suite == "all" else [suite]
    tasks = []
    for s in suites:
        keys = suite_items(s)
        if ids:
            keys = [k for k in keys if k in ids]
        per_suite_samples = DEFAULT_SAMPLES[s] if samples is None else samples
        tasks.extend((s, key, n_max, per_suite_samples, seed, grid) for key in keys)
    if suite != "all" and ids:
        known = {t[1] for t in tasks}
        for missing in set(ids) - known:
            raise KeyError(f"unknown id {missing!r} in suite {suite!r}")

    workers = pool_size(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_execute_item, tasks))
    else:
        chunks = [_execute_item(task) for task in tasks]

    report = Report(suite=suite, seed=seed)
    for chunk in chunks:
        report.extend(chunk)
    report.records = report.sorted_records()
    report.wall_time = time.perf_counter() - started
    return report


def run_config_identity(idef, n_max: int | None = None, samples: int | None = None,
                        seed: int = DEFAULT_SEED) -> Report:
    """Corpus-style identity checks plus the certificate sweep for one
    config-loaded identity."""
    started = time.perf_counter()
    eff_n = idef.n_max if n_max is None else n_max
    eff_samples = 16 if samples is None else samples
    idn = normalized(idef)

    def checks(params, sample):
        records = _identity_rows(idef, "check", eff_n, params, sample)
        if idef.certificate is not None:
            records += verify_sample(idn, eff_n, params, suite="check", sample=sample)
        return records

    report = Report(suite="check", seed=seed, records=[])
    report.extend(_sweep(idef, "check", eff_n, eff_samples, seed, checks))
    report.records = report.sorted_records()
    report.wall_time = time.perf_counter() - started
    return report
