"""The CLI as a whole process: ``python -m telesum`` ends through ``cli.run``,
which flushes the output and calls ``os._exit``.  Each case starts the CLI as
a subprocess and holds it to what in-process ``main()`` writes and returns."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from telesum.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
FALSE_CONFIG = str(ROOT / "tests" / "golden" / "failures" / "false_binomial.tkid")


def _env(unbuffered: bool = False) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _cli(argv) -> list[str]:
    return [sys.executable, "-m", "telesum", *argv]


def in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode("utf-8"), err.getvalue()


def as_process(argv):
    run = subprocess.run(_cli(argv), env=_env(), capture_output=True, timeout=120)
    return run.returncode, run.stdout, run.stderr.decode("utf-8")


@pytest.mark.parametrize("argv, code", [
    (["list"], 0),
    (["verify", "--suite", "ez", "--id", "binomial", "--samples", "1", "--format", "json"], 0),
    (["verify", "--suite", "genhyp", "--samples", "2", "--jobs", "2", "--format", "json"], 0),
    (["check", "--config", FALSE_CONFIG, "--samples", "2", "--format", "json"], 1),
    (["verify", "--no-such-flag"], 2),
    (["--help"], 0),
], ids=["list", "verify", "jobs2", "false-config", "unknown-flag", "help"])
def test_process_matches_in_process_main(argv, code):
    expected = in_process(argv)
    assert expected[0] == code
    assert as_process(argv) == expected


def test_malformed_config_process_matches_in_process_main(tmp_path):
    config = tmp_path / "malformed.tkid"
    config.write_text("name: broken\nparams: x\nlhs: binom(n, k\nrange: 0 .. n\nrhs: 1\n",
                      encoding="utf-8")
    argv = ["check", "--config", str(config), "--format", "json"]
    expected = in_process(argv)
    assert expected[0] == 2 and expected[2].startswith("error: ")
    assert as_process(argv) == expected


def test_report_larger_than_a_pipe_buffer_arrives_whole():
    argv = ["verify", "--suite", "sequences", "--format", "json"]
    code, out, err = as_process(argv)
    assert (code, err) == (0, "")
    assert len(out) > 1 << 16
    assert out == in_process(argv)[1]


def test_jobs_run_leaves_no_process_in_its_group():
    proc = subprocess.Popen(_cli(["verify", "--suite", "genhyp", "--samples", "2",
                                  "--jobs", "2", "--format", "json"]),
                            env=_env(), stdout=subprocess.DEVNULL, start_new_session=True)
    assert proc.wait(timeout=120) == 0
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def _assert_cannot_write(run):
    err = run.stderr.decode("utf-8")
    assert run.returncode == 2, err
    assert "Traceback" not in err
    assert err.startswith("error: cannot write output: ")
    assert err.count("\n") == 1


WRITERS = [["list"],
           ["verify", "--suite", "ez", "--id", "binomial", "--samples", "1", "--format", "json"],
           ["verify", "--suite", "ez", "--id", "binomial", "--samples", "1"],
           ["--help"]]
WRITER_IDS = ["list", "json", "text", "help"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", WRITERS, ids=WRITER_IDS)
def test_full_device_exits_two_with_one_error_line(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        run = subprocess.run(_cli(argv), env=_env(unbuffered), stdout=full,
                             stderr=subprocess.PIPE, timeout=120)
    _assert_cannot_write(run)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", WRITERS, ids=WRITER_IDS)
def test_closed_pipe_exits_two_with_one_error_line(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader at all, so the first write fails
    try:
        run = subprocess.run(_cli(argv), env=_env(unbuffered), stdout=write_end,
                             stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    _assert_cannot_write(run)


def _closing(fd: int, argv) -> list[str]:
    """The CLI started with descriptor fd closed, as a shell's `fd>&-` does."""
    return ["sh", "-c", f'exec "$@" {fd}>&-', "sh", *_cli(argv)]


@pytest.mark.skipif(os.name != "posix", reason="needs a POSIX shell")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", WRITERS, ids=WRITER_IDS)
def test_closed_stdout_exits_two_with_one_error_line(argv, unbuffered):
    run = subprocess.run(_closing(1, argv), env=_env(unbuffered), stderr=subprocess.PIPE,
                         timeout=120)
    _assert_cannot_write(run)
    assert run.stderr.endswith(b": the stream is closed\n")


#: Runs whose one output is an error line on stderr.
STDERR_WRITERS = [["verify", "--samples", "0"],
                  ["verify", "--suite", "ez", "--id", "nope"],
                  ["check", "--config", "/nonexistent/config.tkid"],
                  ["verify", "--no-such-flag"]]
STDERR_WRITER_IDS = ["samples-0", "unknown-id", "missing-config", "unknown-flag"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", STDERR_WRITERS, ids=STDERR_WRITER_IDS)
def test_full_stderr_exits_two(argv, unbuffered):
    assert in_process(argv)[0] == 2
    with open("/dev/full", "wb") as full:
        run = subprocess.run(_cli(argv), env=_env(unbuffered), stdout=subprocess.PIPE,
                             stderr=full, timeout=120)
    assert (run.returncode, run.stdout) == (2, b"")


@pytest.mark.skipif(os.name != "posix", reason="needs a POSIX shell")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", STDERR_WRITERS, ids=STDERR_WRITER_IDS)
def test_closed_stderr_exits_two(argv, unbuffered):
    run = subprocess.run(_closing(2, argv), env=_env(unbuffered), stdout=subprocess.PIPE,
                         timeout=120)
    assert (run.returncode, run.stdout) == (2, b"")


_RAISING_CHECK = """if True:
    import os
    from telesum import cli, runner
    os.cpu_count = lambda: 2
    def run_ez_item(key, n_max, samples, seed):
        raise KeyError("q")  # say, a declaration reading a parameter it does not draw
    runner.run_ez_item = run_ez_item
    cli.run()
"""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_an_exception_in_a_check_exits_three_with_one_traceback(jobs):
    """Exit 1 means a false identity; a crash, in the CLI's process or in a
    worker, exits 3 with its traceback on stderr and prints no report."""
    argv = ["verify", "--suite", "ez", "--id", "binomial", "--id", "chu_vandermonde",
            "--samples", "1", "--n-max", "2", "--jobs", jobs]
    run = subprocess.run([sys.executable, "-c", _RAISING_CHECK, *argv], env=_env(),
                         capture_output=True, timeout=120)
    err = run.stderr.decode("utf-8")
    assert (run.returncode, run.stdout) == (3, b""), err
    assert err.count("Traceback (most recent call last):") == 1
    assert err.endswith("KeyError: 'q'\n")
