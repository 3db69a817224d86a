"""The benchmark's full-size reports keep their stored digests.

``perfbench/run.py`` rejects a run whose report differs from the digest
recorded in ``perfbench/digests.json``; this runs the same steps in-process
(``cli.main``, from the checkout root, as the benchmark does) for two seeds
of its pool, so a change to any report byte fails here first.  The steps
run as the traced benchmark runs them, at ``--jobs 1``: grid-jobs2 asks for
a process pool, and ``--jobs`` is not part of the report's flags, so its
bytes are the same in one process.
"""

import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from telesum.cli import main

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses resolve annotations there
_spec.loader.exec_module(workloads)

SEEDS = (workloads.SEED_POOL[0], workloads.SEED_POOL[-1])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["corpus-sweep", "ez-certify", "grid-jobs2", "config-check"])
def test_full_size_iteration_matches_stored_digest(name, seed, monkeypatch):
    monkeypatch.chdir(ROOT)  # config paths are part of the report's flags
    workload = workloads.WORKLOADS[name]
    shas = []
    for step in workload.steps:
        out = io.StringIO()
        assert main(workload.argv(step, seed, traced=True), out=out) == 0
        shas.append(hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())
    stored = workloads.load_digests()["full"][name][str(seed)]
    assert workloads.iteration_digest(shas) == stored
