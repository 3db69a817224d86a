"""Suite orchestration: deterministic, optionally parallel verification runs.

Work is partitioned per identity/family/operation.  Each item runs through
``sampling.sweep``, which derives sample i's random stream from (seed,
stream, item, i) alone, and the merged report is sorted by a stable key, so
output is identical for any worker count.  Items are small picklable
tuples, safe for a process pool.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

from . import elementary as elementary_mod
from . import genhyp as genhyp_mod
from . import sequences as sequences_mod
from .certify import natural_termination_check, verify_sample
from .corpus import (CERTIFIED_KEYS, CORPUS, IdentityDef, draw_admissible,
                     evaluate_identity, normalized, specialization_d_zero_checks)
from .errors import Inadmissible, SampleExhausted
from .report import INADMISSIBLE, CheckRecord, Report, outcome, record
from .sampling import retry, sample_q, sample_rational, sweep

DEFAULT_SEED = 1729
EZ_DEFAULT_N_MAX = 10
SEQUENCES_DEFAULT_N_MAX = 12
GENHYP_DEFAULT_N_MAX = 9

SPECIALIZATION_KEY = "q_dougall_n1_link"
SPECIALIZATION_CITATION = "n = 1 row of the q-Dougall sum rearranged to the four-variable identity"


def _sweep(idef: IdentityDef, suite: str, n_max: int, samples: int, seed: int,
           checks: Callable[[dict, int | None], list[CheckRecord]]) -> list[CheckRecord]:
    """checks(params, sample) on each admissible sample of one identity."""
    return sweep(suite, idef.key, idef.citation, seed, samples,
                 lambda rng: draw_admissible(idef, rng, n_max), checks,
                 parametric=bool(idef.params))


def _identity_rows(idef: IdentityDef, suite: str, n_max: int, params: dict,
                   sample: int | None) -> list[CheckRecord]:
    """LHS = RHS for 0 <= n <= n_max; a zero denominator marks that row inadmissible."""
    records = []
    for n in range(n_max + 1):
        try:
            lhs, rhs = evaluate_identity(idef, n, params)
        except Inadmissible as exc:
            records.append(record(suite, idef.key, "identity", idef.citation, INADMISSIBLE,
                                  n=n, sample=sample, reason=str(exc)))
        else:
            records.append(outcome(suite, idef.key, "identity", idef.citation, lhs == rhs,
                                   params, n=n, sample=sample, lhs=lhs, rhs=rhs))
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
    def draw(rng):
        def attempt():
            q = sample_q(rng, 4)
            point = {name: sample_rational(rng) for name in "abcd"}
            return q, point, specialization_d_zero_checks(q, **point)

        return retry(attempt, "no admissible sample")

    def checks(drawn, sample):
        q, point, results = drawn
        bad = ",".join(name for name, ok in results.items() if not ok)
        return [outcome("corpus", SPECIALIZATION_KEY, "specialization", SPECIALIZATION_CITATION,
                        not bad, point, sample=sample, q=q, failed=bad)]

    return sweep("corpus", SPECIALIZATION_KEY, SPECIALIZATION_CITATION, seed, samples, draw,
                 checks)


def run_ez_item(key: str, n_max: int | None, samples: int, seed: int) -> list[CheckRecord]:
    idef = CORPUS[key]
    eff_n = EZ_DEFAULT_N_MAX if n_max is None else n_max
    idn = normalized(idef)
    return _sweep(idef, "ez", eff_n, samples, seed,
                  lambda params, sample: verify_sample(idn, eff_n, params, suite="ez",
                                                       sample=sample))


def run_sequences_item(key: str, n_max: int | None, samples: int, seed: int) -> list[CheckRecord]:
    eff_n = SEQUENCES_DEFAULT_N_MAX if n_max is None else n_max
    return sequences_mod.verify_family_suite(key, eff_n, samples, seed)


def run_genhyp_item(key: str, n_max: int | None, samples: int, seed: int) -> list[CheckRecord]:
    eff_n = GENHYP_DEFAULT_N_MAX if n_max is None else n_max
    return genhyp_mod.verify_operation_suite(key, eff_n, samples, seed)


def run_elementary_item(key: str, samples: int, seed: int, grid: bool) -> list[CheckRecord]:
    ident = elementary_mod.ELEMENTARY[key]
    try:
        records = elementary_mod.sampled_zero_check(ident, seed, samples)
    except SampleExhausted as exc:
        records = [outcome("elementary", key, "sampling", ident.citation, False,
                           reason=str(exc))]
    if grid:
        records = records + elementary_mod.grid_zero_check(ident)
    return records


@dataclass(frozen=True)
class Suite:
    """A suite's `telesum list` heading, default samples, {key: citation} and item run."""
    heading: str
    samples: int
    citations: dict[str, str]
    run: Callable[[str, int | None, int, int, bool], list[CheckRecord]]


def _citations(table: dict) -> dict[str, str]:
    return {key: entry.citation for key, entry in table.items()}


# Each run looks its item function up by module-global name per call, so a
# wrapper bound to that name (as perfbench/tracer.py binds one) sees the call.
SUITES = {
    "corpus": Suite("corpus identities:", 32,
                    _citations(CORPUS) | {SPECIALIZATION_KEY: SPECIALIZATION_CITATION},
                    lambda key, n, s, seed, grid: run_corpus_item(key, n, s, seed)),
    "ez": Suite("certified identities:", 16, {k: CORPUS[k].citation for k in CERTIFIED_KEYS},
                lambda key, n, s, seed, grid: run_ez_item(key, n, s, seed)),
    "sequences": Suite("sequence families:", 8, _citations(sequences_mod.FAMILIES),
                       lambda key, n, s, seed, grid: run_sequences_item(key, n, s, seed)),
    "genhyp": Suite("sequence-parameter sums:", 32, _citations(genhyp_mod.OPERATIONS),
                    lambda key, n, s, seed, grid: run_genhyp_item(key, n, s, seed)),
    "elementary": Suite("elementary identities:", 200, _citations(elementary_mod.ELEMENTARY),
                        lambda key, n, s, seed, grid: run_elementary_item(key, s, seed, grid)),
}


def suite_items(suite: str) -> list[str]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return list(SUITES[suite].citations)


def _execute_item(task: tuple) -> list[CheckRecord]:
    suite, *args = task
    return SUITES[suite].run(*args)


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
        per_suite_samples = SUITES[s].samples if samples is None else samples
        tasks.extend((s, key, n_max, per_suite_samples, seed, grid) for key in keys)
    unknown = sorted(set(ids or ()) - {t[1] for t in tasks})
    if unknown:
        plural = "s" if len(unknown) > 1 else ""
        raise KeyError(f"unknown id{plural} {', '.join(map(repr, unknown))} in suite {suite!r}")

    workers = pool_size(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_execute_item, tasks))
    else:
        chunks = [_execute_item(task) for task in tasks]

    return _report(suite, seed, chunks, started)


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

    return _report("check", seed, [_sweep(idef, "check", eff_n, eff_samples, seed, checks)],
                   started)


def _report(suite: str, seed: int, chunks: list[list[CheckRecord]], started: float) -> Report:
    """The report of a run that began at perf_counter() `started`, records sorted."""
    report = Report(suite=suite, seed=seed)
    for chunk in chunks:
        report.extend(chunk)
    report.records = report.sorted_records()
    report.wall_time = time.perf_counter() - started
    return report
