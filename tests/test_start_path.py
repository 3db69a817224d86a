"""What a CLI start compiles and runs.

Each case runs one command in a fresh interpreter and reads its sys.modules
after ``cli.main``: a module loaded then was loaded by telesum, and a
``LazyLoader`` placeholder sits in sys.modules before it runs and turns into
a plain module when it does, so its type tells whether it ran.  The file
needs no pytest, so it also runs as ``python tests/test_start_path.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

# the modules that make a start pay for dataclasses, and their heaviest import
DATACLASSES = {"dataclasses", "inspect"}
CORPUS_AND_CERTIFY = {"telesum.corpus", "telesum.certify"}


def _modules_after(statement: str) -> dict[str, list[str]]:
    """{"loaded": the modules `statement` added to sys.modules, "placeholders":
    the telesum modules in sys.modules that have not run}, in a fresh process."""
    code = f"""if True:
        import json, sys, types
        before = set(sys.modules)
        {statement}
        print(json.dumps({{
            "loaded": sorted(set(sys.modules) - before),
            "placeholders": sorted(name for name, module in sys.modules.items()
                                   if name.startswith("telesum.")
                                   and type(module) is not types.ModuleType)}}))
    """
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def _after_cli(*argv: str) -> dict[str, list[str]]:
    return _modules_after(f"import io, telesum.cli; "
                          f"telesum.cli.main({list(argv)!r}, out=io.StringIO())")


def test_an_elementary_start_loads_no_dataclasses_and_runs_no_corpus_or_certify():
    after = _after_cli("verify", "--suite", "elementary", "--samples", "2")
    assert DATACLASSES.isdisjoint(after["loaded"])
    assert CORPUS_AND_CERTIFY <= set(after["placeholders"])
    assert "telesum.telescope" not in after["loaded"]


def test_a_genhyp_start_runs_no_corpus_or_certify():
    after = _after_cli("verify", "--suite", "genhyp", "--samples", "1")
    assert CORPUS_AND_CERTIFY <= set(after["placeholders"])


def test_a_genhyp_start_loads_no_dataclasses():
    after = _after_cli("verify", "--suite", "genhyp", "--samples", "1")
    assert DATACLASSES.isdisjoint(after["loaded"])


def test_a_sequences_start_runs_no_corpus_certify_or_telescope():
    after = _after_cli("verify", "--suite", "sequences", "--samples", "1", "--n-max", "3")
    assert CORPUS_AND_CERTIFY <= set(after["placeholders"])
    assert "telesum.telescope" not in after["loaded"]
    assert DATACLASSES.isdisjoint(after["loaded"])


def test_only_the_suites_that_read_a_point_load_it():
    for suite in ("elementary", "genhyp"):
        assert "telesum.point" not in _after_cli("verify", "--suite", suite, "--samples", "1")[
            "loaded"], suite


def test_no_start_loads_openssl():
    config = str(ROOT / "tests" / "golden" / "binomial.tkid")
    for argv in (["verify", "--suite", "all", "--samples", "1", "--n-max", "2"],
                 ["check", "--config", config, "--samples", "1", "--n-max", "2"],
                 ["list"]):
        assert "_hashlib" not in _after_cli(*argv)["loaded"], argv


def test_an_ez_start_runs_corpus_and_certify():
    after = _after_cli("verify", "--suite", "ez", "--id", "binomial", "--samples", "1",
                       "--n-max", "2")
    assert CORPUS_AND_CERTIFY <= set(after["loaded"]) - set(after["placeholders"])


def test_importing_the_package_runs_no_submodule():
    after = _modules_after("import telesum")
    assert [name for name in after["loaded"] if name.startswith("telesum.")] == []


def test_every_exported_name_resolves_in_a_fresh_process():
    after = _modules_after("import telesum; [getattr(telesum, n) for n in telesum.__all__]; "
                           "from telesum import *")
    assert after["placeholders"] == []


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("passed", name)
