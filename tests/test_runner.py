import os
import pickle
import select
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from telesum import elementary, genhyp, runner
from telesum.errors import Inadmissible
from telesum.exprlang import load_identity_config
from telesum.report import INADMISSIBLE, PASS, record, witness
from telesum.sampling import sweep

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
NEGATIVE_N_MAX = "n_max must be >= 0, got n_max = -1"


def test_pool_size_never_exceeds_tasks_or_cpus(monkeypatch):
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
    assert runner.pool_size(2, 5) == 2  # the two-worker grid run keeps both
    assert runner.pool_size(4, 5) == 2
    assert runner.pool_size(2, 1) == 1
    assert runner.pool_size(1, 5) == 1
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 8)
    assert runner.pool_size(4, 3) == 3
    monkeypatch.setattr(runner.os, "cpu_count", lambda: None)
    assert runner.pool_size(2, 5) == 1


def test_pool_size_is_one_where_the_platform_cannot_fork(monkeypatch):
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 8)
    monkeypatch.delattr(runner.os, "fork")
    assert runner.pool_size(4, 5) == 1


def test_every_job_count_gives_equal_records(monkeypatch):
    """One scheduler path: one worker, two, and a platform without os.fork
    (where the parent runs every task itself)."""
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)

    def records(jobs):
        return runner.run_suite("all", samples=1, n_max=2, jobs=jobs).records

    serial = records(1)
    assert serial and records(2) == serial
    _assert_no_child_left()
    monkeypatch.delattr(runner.os, "fork")
    assert records(2) == serial


def _python(code: str) -> str:
    """The stdout of `code` in a fresh interpreter that imports telesum from src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout


def _elementary_items(monkeypatch, item, before=lambda: None) -> None:
    """Run `item(key)` for each elementary task, after `before()`, on two workers."""
    def run(key, samples, seed, grid):
        before()
        return item(key)

    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(runner, "run_elementary_item", run)


def _parent_lags():
    """The parent sleeps before each item, so the child takes most tasks."""
    parent = os.getpid()
    return lambda: os.getpid() == parent and time.sleep(0.2)


def _child_first(signal: int, wait: int):
    """The parent's first item waits until the child has started its first;
    the child then sleeps before each later item.  So the child runs the
    early tasks and the parent the late ones."""
    parent, started = os.getpid(), []  # `started` is per process after the fork

    def before():
        first = not started
        started.append(True)
        if os.getpid() == parent:
            if first:
                select.select([wait], [], [], 10)
        elif first:
            os.write(signal, b"1")
        else:
            time.sleep(0.3)

    return before


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_raising_item_raises_alike_at_any_job_count(monkeypatch):
    """Tasks 1 and 4 raise; the first in task order raises, not the first to
    arrive.  Under _child_first the child raises in task 1 and the parent,
    whose results are read first, in task 4."""
    def item(key):
        if key in ("sears_n1", "dougall_n1"):
            raise Inadmissible(f"pole in {key}")
        return [record("elementary", key, "sampling", "", PASS)]

    wait, signal = os.pipe()
    raised = []
    try:
        for jobs, before in ((1, lambda: None), (2, _child_first(signal, wait)),
                             (2, _parent_lags())):
            _elementary_items(monkeypatch, item, before)
            with pytest.raises(Inadmissible) as info:
                runner.run_suite("elementary", jobs=jobs)
            raised.append((type(info.value), str(info.value)))
            _assert_no_child_left()
    finally:
        os.close(wait)
        os.close(signal)
    assert raised == [(Inadmissible, "pole in sears_n1")] * 3


def test_a_chunk_larger_than_a_pipe_buffer_comes_back_whole(monkeypatch):
    def item(key):
        return [record("elementary", key, "sampling", "", PASS, sample=i, reason=key * 60)
                for i in range(600)]

    assert len(pickle.dumps(item("qchv_elem"))) > 65536
    _elementary_items(monkeypatch, item)
    serial = runner.run_suite("elementary", jobs=1).records
    _elementary_items(monkeypatch, item, _parent_lags())
    assert runner.run_suite("elementary", jobs=2).records == serial
    _assert_no_child_left()


def test_a_worker_that_dies_unreported_names_its_lost_task():
    """A child that exits in its first item loses that task: the run raises
    and names it, in bounded time, and returns no partial report."""
    code = """if True:
        import os, sys, time
        from telesum import runner
        parent = os.getpid()
        os.cpu_count = lambda: 2
        def item(key, samples, seed, grid):
            if os.getpid() != parent:
                os._exit(3)
            time.sleep(0.2)
            return []
        runner.run_elementary_item = item
        try:
            runner.run_suite("elementary", jobs=2)
        except RuntimeError as exc:
            print(exc)
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no child left")
    """
    lost, reaped = _python(code).splitlines()
    assert lost.startswith("a worker process exited (status 3) without reporting task(s) "
                           "elementary/"), lost
    assert lost.rsplit("elementary/", 1)[1] in runner.suite_items("elementary")
    assert reaped == "no child left"


def test_an_interrupted_parent_stops_a_child_blocked_on_its_results():
    """The parent is interrupted while a child waits to write more than a pipe
    buffer of results: the child ends at once, and is reaped."""
    code = """if True:
        import os, time
        from telesum import runner
        from telesum.report import PASS, record
        parent = os.getpid()
        os.cpu_count = lambda: 2
        def item(key, samples, seed, grid):
            if os.getpid() == parent:
                time.sleep(0.5)
                raise KeyboardInterrupt
            return [record("elementary", key, "sampling", "", PASS, sample=i, reason=key * 60)
                    for i in range(600)]
        runner.run_elementary_item = item
        try:
            runner.run_suite("elementary", jobs=2)
        except KeyboardInterrupt:
            print("interrupted")
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no child left")
    """
    assert _python(code).splitlines() == ["interrupted", "no child left"]


def test_a_child_flushes_none_of_the_parent_buffers():
    code = """if True:
        import os, sys
        from telesum import runner
        os.cpu_count = lambda: 2
        sys.stdout.write("written before the fork\\n")  # held in the pipe's buffer
        runner.run_suite("elementary", samples=2, jobs=2)
    """
    assert _python(code) == "written before the fork\n"


def _loaded_after(modules: set[str], statement: str = "") -> str:
    """Which of `modules` a fresh interpreter has run after `import telesum.cli`
    and `statement`.  A LazyLoader placeholder sits in sys.modules before it
    runs and turns into a plain module when it does, so its type tells."""
    return _python(f"import sys, types, telesum.cli\n{statement}\n"
                   f"print([m for m in {sorted(modules)!r} "
                   f"if type(sys.modules.get(m)) is types.ModuleType])").strip()


def _cli(*argv: str) -> str:
    """A statement that runs the CLI with `argv` in-process, its output dropped."""
    return f"import io; telesum.cli.main({list(argv)!r}, out=io.StringIO())"


DEFERRED = {"telesum.elementary", "telesum.genhyp", "telesum.sequences"}


def test_cli_import_loads_no_process_pool():
    """A --jobs 1 start pays for no pool import, and a parallel run forks
    without concurrent.futures or multiprocessing."""
    pools = {"concurrent.futures", "concurrent.futures.process", "multiprocessing"}
    assert _loaded_after(pools) == "[]"
    parallel = ("import os; os.cpu_count = lambda: 2; from telesum import runner; "
                "runner.run_suite('elementary', samples=2, jobs=2)")
    assert _loaded_after(pools, parallel) == "[]"


def test_a_jobs_1_run_loads_no_pickle_or_process_pool():
    """A --jobs 1 run sends no records through a pipe, so it never pickles."""
    modules = {"pickle", "concurrent.futures", "multiprocessing"}
    assert _loaded_after(modules, _cli("verify", "--suite", "all", "--samples", "1",
                                       "--n-max", "2", "--jobs", "1")) == "[]"


def test_cli_import_loads_no_expression_language():
    """Only `check` parses configs: a verify or list start never loads exprlang."""
    assert _loaded_after({"telesum.exprlang"}) == "[]"
    assert _loaded_after({"telesum.exprlang"}, _cli("list")) == "[]"


def test_a_start_runs_only_the_suite_modules_its_run_reads():
    assert _loaded_after(DEFERRED, _cli("verify", "--suite", "ez", "--samples", "1",
                                        "--n-max", "2")) == "[]"
    assert _loaded_after(DEFERRED, _cli("verify", "--suite", "elementary", "--samples", "2")) \
        == "['telesum.elementary']"
    everything = str(sorted(DEFERRED))
    assert _loaded_after(DEFERRED, _cli("list")) == everything
    assert _loaded_after(DEFERRED, _cli("verify", "--suite", "all", "--samples", "1",
                                        "--n-max", "2")) == everything


def test_a_deferred_module_imported_by_name_is_bound_on_the_package():
    code = """if True:
        import telesum.elementary, telesum.genhyp, telesum.sequences
        print(len(telesum.elementary.ELEMENTARY), len(telesum.genhyp.OPERATIONS),
              len(telesum.sequences.FAMILIES))
    """
    from telesum import ELEMENTARY, FAMILIES, genhyp
    assert _python(code).split() == [str(len(t)) for t in (ELEMENTARY, genhyp.OPERATIONS,
                                                          FAMILIES)]


def test_a_parallel_run_runs_its_suite_module_before_it_forks():
    """Else each worker that takes a task would compile the module again."""
    code = """if True:
        import os, sys, types
        from telesum import runner
        os.cpu_count = lambda: 2
        fork_run = runner._fork_run

        def entered(tasks, workers):
            print([m for m in ("telesum.elementary", "telesum.genhyp", "telesum.sequences")
                   if type(sys.modules[m]) is types.ModuleType])
            return fork_run(tasks, workers)

        runner._fork_run = entered
        runner.run_suite("elementary", samples=2, jobs=2)
    """
    assert _python(code) == "['telesum.elementary']\n"


def test_witness_formats_fraction_int_and_tuple_params():
    params = {"a": F(-1, 2), "m": 3, "s": (F(1), F(2, 3))}
    assert witness(params, lhs=F(5, 2), failed="rhs") == {
        "a": "-1/2", "m": "3", "s": "(1, 2/3)", "lhs": "5/2", "failed": "rhs"}


def test_corpus_item_records_a_mid_run_inadmissible_row(monkeypatch):
    evaluate = runner.evaluate_identity

    def pole_at_n2(idef, n, params):
        if n == 2:
            raise Inadmissible("zero denominator at n=2")
        return evaluate(idef, n, params)

    monkeypatch.setattr(runner, "evaluate_identity", pole_at_n2)
    records = runner.run_corpus_item("geometric", 3, 2, 1729)
    rows = {(r.sample, r.n): r for r in records if r.check == "identity"}
    assert len(rows) == 8
    for (sample, n), record in rows.items():
        if n == 2:
            assert record.status == INADMISSIBLE
            assert record.witness == {"reason": "zero denominator at n=2"}
        else:
            assert record.status == PASS


def test_genhyp_honours_n_max_above_ten():
    records = runner.run_genhyp_item("macdonald_cv", 12, 20, 1729)
    ns = {r.n for r in records if r.check == "identity"}
    assert max(ns) <= 12
    assert ns & {10, 11, 12}


@pytest.mark.parametrize("suite", list(runner.SUITES))
def test_a_library_run_refuses_a_negative_n_max(suite):
    """No suite passes vacuously or crashes deep in a check at n_max < 0:
    each raises the text that sequences.family_sides raises."""
    with pytest.raises(ValueError) as exc:
        runner.run_suite(suite, n_max=-1, samples=1)
    assert str(exc.value) == NEGATIVE_N_MAX


def test_a_config_run_and_a_genhyp_item_refuse_a_negative_n_max():
    idef = load_identity_config(ROOT / "tests" / "golden" / "binomial.tkid")
    for run in (lambda: runner.run_config_identity(idef, n_max=-1, samples=1),
                lambda: genhyp.verify_operation_suite("macdonald_cv", -1, 1, 1729)):
        with pytest.raises(ValueError) as exc:
            run()
        assert str(exc.value) == NEGATIVE_N_MAX


@pytest.mark.parametrize("samples", [0, -1])
def test_a_library_run_of_no_samples_is_refused(samples, monkeypatch):
    """A run with no sample checks nothing: every suite, the config run and
    the two sample loops raise, and the runs raise before any worker forks."""
    def no_fork(tasks, workers):
        raise AssertionError("tasks were run")

    monkeypatch.setattr(runner, "_fork_run", no_fork)
    idef = load_identity_config(ROOT / "tests" / "golden" / "binomial.tkid")
    ident = elementary.ELEMENTARY["qchv_elem"]
    runs = [lambda suite=suite: runner.run_suite(suite, samples=samples, jobs=2)
            for suite in [*runner.SUITES, "all"]]
    runs += [lambda: runner.run_config_identity(idef, samples=samples),
             lambda: elementary.sampled_zero_check(ident, 1729, samples),
             lambda: sweep("corpus", "geometric", "", 1729, samples, lambda rng: {},
                           lambda drawn, sample: [])]
    for run in runs:
        with pytest.raises(ValueError) as exc:
            run()
        assert str(exc.value) == f"samples must be >= 1, got samples = {samples}"
