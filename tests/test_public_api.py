"""Every name in ``telesum.__all__`` resolves, so a deletion that leaves an
export behind fails here rather than at a user's import; the shared zero
texts are built in one place; no test reads data out of a closure; and
README's "Library use" block runs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import telesum

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert set(telesum._DEFERRED) <= set(telesum.__all__)  # the names served at first use
    missing = []
    for name in telesum.__all__:
        try:
            getattr(telesum, name)
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_each_zero_text_is_written_once():
    # every layer raises its zero divisor and its zero to a negative power
    # through rational.zero_divisor and rational.zero_to_negative_power
    src = Path(telesum.__file__).parent
    for text in ("division of", "0 raised to negative power"):
        pattern = re.compile(rf"""\bf["']{text}""")
        places = [(path.name, line) for path in sorted(src.glob("*.py"))
                  for line in path.read_text(encoding="utf-8").splitlines()
                  if pattern.search(line)]
        assert len(places) == 1 and places[0][0] == "rational.py", (text, places)


def test_no_test_reads_data_out_of_closures():
    # transcribed data, such as corpus.DECLARED, stays reachable as data
    here = Path(__file__)
    callers = [path.name for path in sorted(here.parent.rglob("*.py"))
               if path != here and "getclosurevars" in path.read_text(encoding="utf-8")]
    assert callers == []


def test_the_readme_library_block_runs():
    """README's one ``python`` block, run as written in a fresh interpreter."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", block], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
