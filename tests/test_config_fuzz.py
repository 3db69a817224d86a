"""Seeded fuzzing of `telesum check` with single-edit mutants of the golden configs.

Each mutant is a golden .tkid file truncated, with one byte deleted, or with
one byte replaced by a member of ALPHABET.  The alphabet holds no ASCII
digit, so no mutant asks for more arithmetic than its source.  Whatever the
mutant, `check` must return an exit code and never raise; a mutant that does
not load must exit 2 with a one-line `error:` message.
"""

import io
import random
from pathlib import Path

from telesum.cli import main
from telesum.exprlang import load_identity_config

GOLDEN = Path(__file__).parent / "golden"
SOURCES = sorted(GOLDEN.rglob("*.tkid"))
ALPHABET = tuple(s.encode("utf-8") for s in ("²", "é", ":", ",", "(", ")", "^", "\n"))
ALPHABET += (b"\xff",)  # not UTF-8
MUTANTS_PER_SOURCE = 200


def _mutants():
    rng = random.Random(1748)
    for source in SOURCES:
        data = source.read_bytes()
        for _ in range(MUTANTS_PER_SOURCE):
            i = rng.randrange(len(data))
            edit = rng.choice(("truncate", "delete", "replace"))
            if edit == "truncate":
                mutant = data[:i]
            elif edit == "delete":
                mutant = data[:i] + data[i + 1:]
            else:
                mutant = data[:i] + rng.choice(ALPHABET) + data[i + 1:]
            yield f"{source.name} {edit} at {i}", mutant


def _loads(path):
    try:
        load_identity_config(path)
    except Exception:  # whatever stops a config from loading
        return False
    return True


def test_config_mutants_never_crash(tmp_path, capsys):
    assert SOURCES
    path = tmp_path / "mutant.tkid"
    unloadable = 0
    for label, mutant in _mutants():
        path.write_bytes(mutant)
        try:
            code = main(["check", "--config", str(path), "--samples", "1", "--n-max", "2"],
                        out=io.StringIO())
        except Exception as exc:
            raise AssertionError(f"{label}: {mutant!r} raised {exc!r}") from exc
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (label, mutant, code)
        if not _loads(path):
            unloadable += 1
            assert code == 2, (label, mutant, err)
            assert err.startswith("error:") and err.count("\n") == 1, (label, mutant, err)
    assert unloadable > 0


LONG_MUTANTS_PER_SOURCE = 40


def _long_literal_mutants():
    """Each golden .tkid with a run of more ASCII digits than Python's default
    int_max_str_digits (4300) inserted at a random offset."""
    rng = random.Random(4301)
    for source in SOURCES:
        data = source.read_bytes()
        for _ in range(LONG_MUTANTS_PER_SOURCE):
            i = rng.randrange(len(data) + 1)
            digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(4301, 6000)))
            yield f"{source.name} {len(digits)} digits at {i}", data[:i] + digits.encode() + data[i:]


def test_long_literal_mutants_never_crash(tmp_path, capsys):
    path = tmp_path / "mutant.tkid"
    unloadable = 0
    for label, mutant in _long_literal_mutants():
        path.write_bytes(mutant)
        try:
            code = main(["check", "--config", str(path), "--samples", "1", "--n-max", "2"],
                        out=io.StringIO())
        except Exception as exc:
            raise AssertionError(f"{label} raised {exc!r}") from exc
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (label, code)
        if not _loads(path):
            unloadable += 1
            assert code == 2, (label, err[:200])
            assert err.startswith("error:") and err.count("\n") == 1, (label, err[:200])
    assert unloadable > 0
