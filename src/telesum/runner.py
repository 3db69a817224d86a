"""Suite orchestration: deterministic, optionally parallel verification runs.

Work is partitioned per identity/family/operation.  Each item runs through
``sampling.sweep``, which derives sample i's random stream from (seed,
stream, item, i) alone, and the merged report is sorted by a stable key, so
output is identical for any worker count.  Every run goes through
``_fork_run``: a ``--jobs N`` run forks N - 1 children, and they and the
parent take items from one shared queue pipe; each child sends its records
back pickled.  At one worker, as on a platform without ``os.fork``, the
parent runs every task itself and never imports ``pickle``.  No run imports
an executor or ``multiprocessing``.

A start binds the corpus, certify, elementary, genhyp and sequences modules
through ``importlib.util.LazyLoader`` (``_deferred``): each is a placeholder
in ``sys.modules`` and on the package until its first attribute access runs
it, and this module looks their names up on them when it calls, so a run
compiles and executes only the modules it reads.  ``verify --suite
elementary`` runs elementary alone, ``--suite genhyp`` genhyp (and
telescope), ``--suite sequences`` sequences (and ``point``, which holds
the parameter draw and its values), ``--suite ez`` and ``--suite
corpus`` corpus and certify (and point and telescope), ``list`` and
``--suite all`` all five.  Each module compiles from source on a start
that writes no bytecode (``PYTHONDONTWRITEBYTECODE``), so a module not
read is time saved.  Placeholders, unlike imports inside functions, keep
each module in ``sys.modules`` for code that looks it up there, and need
no second code path.  ``evaluate_identity`` and ``draw_params`` are read
from corpus on use, and stay names here that a caller can patch.  A
suite's citations are built when read, which runs its module;
``run_suite`` reads them before a ``--jobs N`` run forks, so no worker
runs a module again.  Only ``check`` imports the expression language
(``cli``), so a ``verify`` or ``list`` start does not load it.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import time
from fractions import Fraction
from functools import cache
from types import ModuleType
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import Inadmissible, SampleExhausted, UnknownItem
from .rational import rat_div
from .report import INADMISSIBLE, CheckRecord, Report, outcome, record
from .sampling import require_size, retry, sweep


def _deferred(name: str) -> ModuleType:
    """telesum.<name>, which runs at its first attribute access.

    The placeholder goes into sys.modules and onto the package, as an import
    would put it, so ``import telesum.<name>`` finds it and binds it.  A
    module already imported is returned as it is.
    """
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


if TYPE_CHECKING:
    from .corpus import IdentityDef, Param, Point

corpus_mod = _deferred("corpus")
certify_mod = _deferred("certify")
elementary_mod = _deferred("elementary")
genhyp_mod = _deferred("genhyp")
sequences_mod = _deferred("sequences")

DEFAULT_SEED = 1729
EZ_DEFAULT_N_MAX = 10
SEQUENCES_DEFAULT_N_MAX = 12
GENHYP_DEFAULT_N_MAX = 9

SPECIALIZATION_KEY = "q_dougall_n1_link"
SPECIALIZATION_CITATION = "n = 1 row of the q-Dougall sum rearranged to the four-variable identity"


@cache
def _specialization_params() -> tuple[Param, ...]:
    return (corpus_mod.Param("q", kind="q"), *map(corpus_mod.Param, "abcd"))


# corpus's functions, looked up on each call: this module calls them by these
# names, which a caller can patch
def draw_params(params: tuple[Param, ...], rng, length: int) -> Point:
    return corpus_mod.draw_params(params, rng, length)


def evaluate_identity(idef: IdentityDef, n: int, params: dict) -> tuple:
    return corpus_mod.evaluate_identity(idef, n, params)


def _sweep(idef: IdentityDef, suite: str, n_max: int, samples: int,
           seed: int) -> list[CheckRecord]:
    """Each admissible sample's checks of one identity: LHS = RHS for 0 <= n
    <= n_max (a zero denominator marks the row inadmissible) except in ez,
    then a certified sum's natural termination in corpus, else verify_sample."""
    idn = corpus_mod.normalized(idef)
    rows = 0 if suite == "ez" else n_max + 1

    def checks(params, sample):
        records = []
        for n in range(rows):
            try:
                lhs, rhs = evaluate_identity(idef, n, params)
            except Inadmissible as exc:
                records.append(record(suite, idef.key, "identity", idef.citation, INADMISSIBLE,
                                      n=n, sample=sample, reason=str(exc)))
            else:
                records.append(outcome(suite, idef.key, "identity", idef.citation, lhs == rhs,
                                       params, n=n, sample=sample, lhs=lhs, rhs=rhs))
        if idef.certificate is not None:
            certify = (certify_mod.natural_termination_check if suite == "corpus"
                       else certify_mod.verify_sample)
            records += certify(idn, n_max, params, suite=suite, sample=sample)
        return records

    return sweep(suite, idef.key, idef.citation, seed, samples,
                 lambda rng: corpus_mod.draw_admissible(idef, rng, n_max), checks,
                 parametric=bool(idef.params))


def run_corpus_item(key: str, n_max: int | None, samples: int, seed: int) -> list[CheckRecord]:
    if key == SPECIALIZATION_KEY:
        return _run_specialization(samples, seed)
    idef = corpus_mod.CORPUS[key]
    return _sweep(idef, "corpus", idef.n_max if n_max is None else n_max, samples, seed)


def specialization_d_zero_checks(q: Fraction, a: Fraction, b: Fraction,
                                 c: Fraction, d: Fraction) -> dict[str, bool]:
    """The n = 1 row of the q-Dougall sum, rearranged exactly.

    With the substitution a -> a/q, the n = 1 row  1 + T_1 = RHS(1)  turns,
    after multiplication by M = (1-a/b)(1-a/c)(1-a/d)(1-bcd/a) * abcd, into
    the four-variable identity U - V = W, where U, V and W are the u, v and
    w of genhyp.OPERATIONS["macdonald_dougall"] at one index, term by term:
    1 * M = -W,  T_1 * M = U,  RHS(1) * M = V.
    """
    idef = corpus_mod.CORPUS["q_dougall"]
    sub = corpus_mod.Point(a=rat_div(a, q), b=b, c=c, d=d, q=q)
    t1 = idef.term(1, 1, sub)
    rhs1 = idef.rhs(1, sub)
    row_total = idef.term(1, 0, sub) + t1

    op = genhyp_mod.OPERATIONS["macdonald_dougall"]
    U, V, W = op.u(a, b, c, d), op.v(a, b, c, d), op.w(a, b, c, d)
    M = ((1 - rat_div(a, b)) * (1 - rat_div(a, c)) * (1 - rat_div(a, d))
         * (1 - rat_div(b * c * d, a))) * a * b * c * d

    return {
        "k0_term": M == -W,
        "k1_term": t1 * M == U,
        "rhs": rhs1 * M == V,
        "elementary": U - V == W,
        "row": row_total == rhs1,
    }


def _run_specialization(samples: int, seed: int) -> list[CheckRecord]:
    def draw(rng):
        def attempt():
            point = draw_params(_specialization_params(), rng, 0)
            q, abcd = point["q"], {name: point[name] for name in "abcd"}
            return q, abcd, specialization_d_zero_checks(q, **abcd)

        return retry(attempt, "no admissible sample")

    def checks(drawn, sample):
        q, abcd, results = drawn
        bad = ",".join(name for name, ok in results.items() if not ok)
        return [outcome("corpus", SPECIALIZATION_KEY, "specialization", SPECIALIZATION_CITATION,
                        not bad, abcd, sample=sample, q=q, failed=bad)]

    return sweep("corpus", SPECIALIZATION_KEY, SPECIALIZATION_CITATION, seed, samples, draw,
                 checks)


def run_ez_item(key: str, n_max: int | None, samples: int, seed: int) -> list[CheckRecord]:
    eff_n = EZ_DEFAULT_N_MAX if n_max is None else n_max
    return _sweep(corpus_mod.CORPUS[key], "ez", eff_n, samples, seed)


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


class Suite(NamedTuple):
    """A suite's `telesum list` heading, default samples, {key: citation}
    table and item run.  The table is built when read, so that defining
    SUITES runs no deferred module."""
    heading: str
    samples: int
    table: Callable[[], dict[str, str]]
    run: Callable[[str, int | None, int, int, bool], list[CheckRecord]]

    @property
    def citations(self) -> dict[str, str]:
        return self.table()


def _citations(table: dict) -> dict[str, str]:
    return {key: entry.citation for key, entry in table.items()}


# Each run looks its item function up by module-global name per call, so a
# wrapper bound to that name (as perfbench/tracer.py binds one) sees the call.
SUITES = {
    "corpus": Suite("corpus identities:", 32,
                    lambda: (_citations(corpus_mod.CORPUS)
                             | {SPECIALIZATION_KEY: SPECIALIZATION_CITATION}),
                    lambda key, n, s, seed, grid: run_corpus_item(key, n, s, seed)),
    "ez": Suite("certified identities:", 16,
                lambda: {k: corpus_mod.CORPUS[k].citation for k in corpus_mod.CERTIFIED_KEYS},
                lambda key, n, s, seed, grid: run_ez_item(key, n, s, seed)),
    "sequences": Suite("sequence families:", 8, lambda: _citations(sequences_mod.FAMILIES),
                       lambda key, n, s, seed, grid: run_sequences_item(key, n, s, seed)),
    "genhyp": Suite("sequence-parameter sums:", 32, lambda: _citations(genhyp_mod.OPERATIONS),
                    lambda key, n, s, seed, grid: run_genhyp_item(key, n, s, seed)),
    "elementary": Suite("elementary identities:", 200,
                        lambda: _citations(elementary_mod.ELEMENTARY),
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
    """Worker processes for a run: never more than the tasks or the CPUs, and
    one where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return min(jobs, n_tasks, os.cpu_count() or 1)


_INDEX_BYTES = 4  # one task index in the shared queue pipe


def _take(tasks: list[tuple], queue: int) -> list[tuple[int, object]]:
    """(index, records or the exception raised) of each task whose index
    this process reads from the queue pipe, until the pipe is empty."""
    done = []
    while index := os.read(queue, _INDEX_BYTES):
        i = int.from_bytes(index, "little")
        try:
            done.append((i, _execute_item(tasks[i])))
        except Exception as exc:
            done.append((i, exc))
    return done


def _fork_run(tasks: list[tuple], workers: int) -> list[list[CheckRecord]]:
    """Each task's records, in task order, from this process and workers - 1
    forked children; at one worker this process runs every task.

    Every task index is written to one queue pipe before the fork (a run has
    a few dozen tasks, far below a pipe's buffer), and each process reads
    indices from it until it is empty, so scheduling is dynamic.  A child
    pickles its (index, records or exception) list to its own result pipe
    and ends with os._exit, which runs no exit handler and flushes none of
    the buffers it inherited.  The first task that raised, in task order,
    raises here, whichever process ran it; a task no process reported (its
    child died) raises RuntimeError naming it.  telesum starts no thread, so
    the fork copies no lock held by another thread.
    """
    queue, queue_in = os.pipe()
    os.write(queue_in, b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in range(len(tasks))))
    os.close(queue_in)
    fds, results_out, pids = [queue], [], []  # fds: every pipe end this process holds
    try:
        for _ in range(workers - 1):
            result_out, result_in = os.pipe()
            fds += (result_out, result_in)
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for fd in (*results_out, result_out):  # so the parent alone can read,
                        os.close(fd)                       # and its closing stops a write
                    import pickle  # here and below, so a --jobs 1 run does not load it
                    with open(result_in, "wb") as out:
                        out.write(pickle.dumps(_take(tasks, queue)))
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
            fds.remove(result_in)
            os.close(result_in)
            results_out.append(result_out)
        results = dict(_take(tasks, queue))
        for result_out in results_out:
            with open(result_out, "rb", closefd=False) as result:
                data = result.read()
            if data:
                import pickle
                results.update(pickle.loads(data))
    finally:
        for fd in fds:
            os.close(fd)  # a child still writing its results gets EPIPE and exits
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]

    lost = [task for i, task in enumerate(tasks) if i not in results]
    if lost:
        names = ", ".join(f"{suite}/{key}" for suite, key, *_ in lost)
        codes = ", ".join(str(code) for code in statuses if code)
        raise RuntimeError(f"a worker process exited (status {codes}) "
                           f"without reporting task(s) {names}")
    chunks = [results[i] for i in range(len(tasks))]
    for chunk in chunks:
        if isinstance(chunk, Exception):
            raise chunk
    return chunks


def run_suite(suite: str, ids: list[str] | None = None, n_max: int | None = None,
              samples: int | None = None, seed: int = DEFAULT_SEED,
              grid: bool = False, jobs: int = 1) -> Report:
    """Run one suite (or "all"); the report is identical for any job count."""
    started = time.perf_counter()
    if n_max is not None:
        require_size("n_max", n_max)
    if samples is not None:
        require_size("samples", samples, 1)
    suites = list(SUITES) if suite == "all" else [suite]
    tasks = []
    for s in suites:
        keys = suite_items(s)  # runs the suite's module here, before any fork
        if ids:
            keys = [k for k in keys if k in ids]
        per_suite_samples = SUITES[s].samples if samples is None else samples
        tasks.extend((s, key, n_max, per_suite_samples, seed, grid) for key in keys)
    unknown = sorted(set(ids or ()) - {t[1] for t in tasks})
    if unknown:
        plural = "s" if len(unknown) > 1 else ""
        raise UnknownItem(f"unknown id{plural} {', '.join(map(repr, unknown))} in suite {suite!r}")

    return _report(suite, seed, _fork_run(tasks, pool_size(jobs, len(tasks))), started)


def run_config_identity(idef, n_max: int | None = None, samples: int | None = None,
                        seed: int = DEFAULT_SEED) -> Report:
    """Corpus-style identity checks plus the certificate sweep for one
    config-loaded identity."""
    started = time.perf_counter()
    eff_n = idef.n_max if n_max is None else n_max
    require_size("n_max", eff_n)
    eff_samples = 16 if samples is None else samples
    require_size("samples", eff_samples, 1)
    return _report("check", seed, [_sweep(idef, "check", eff_n, eff_samples, seed)], started)


def _report(suite: str, seed: int, chunks: list[list[CheckRecord]], started: float) -> Report:
    """The report of a run that began at perf_counter() `started`, records sorted."""
    report = Report(suite=suite, seed=seed)
    for chunk in chunks:
        report.extend(chunk)
    report.records = report.sorted_records()
    report.wall_time = time.perf_counter() - started
    return report
