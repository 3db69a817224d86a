"""Config input that must exit 2 with a located message, never a traceback:
syntax trees deeper than MAX_DEPTH, parameters in the summation range,
exponents, counts or range lengths beyond MAX_COUNT, values beyond
MAX_BITS, non-ASCII digits,
config files that cannot be read as UTF-8 text, and runtime errors, which
name the section and point they were raised at.  A UTF-8 byte order mark
is not an error."""

import io
import json
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from telesum.cli import main
from telesum.errors import Inadmissible, VerifyError
from telesum.exprlang import (MAX_BITS, MAX_COUNT, MAX_DEPTH, ParseError, ResourceLimit,
                              SchemaError, evaluate, parse, parse_config)


def run_check(tmp_path, capsys, **sections):
    text = {"name": "deep", "params": "x", "lhs": "x^k", "range": "0 .. n",
            "rhs": "(x^(n + 1) - 1)/(x - 1)", **sections}
    path = tmp_path / "config.tkid"
    path.write_text("".join(f"{key}: {value}\n" for key, value in text.items()),
                    encoding="utf-8")
    code = main(["check", "--config", str(path), "--samples", "1", "--n-max", "2"],
                out=io.StringIO())
    return code, capsys.readouterr().err


def test_deeply_parenthesized_lhs_exits_two(tmp_path, capsys):
    code, err = run_check(tmp_path, capsys, lhs="(" * 3000 + "x^k" + ")" * 3000)
    assert code == 2
    assert f"nested deeper than {MAX_DEPTH} levels at line 3, column 106" in err


def test_long_flat_sum_exits_two(tmp_path, capsys):
    code, err = run_check(tmp_path, capsys, lhs="+".join(["k"] * 3000))
    assert code == 2
    assert f"nested deeper than {MAX_DEPTH} levels" in err


def test_every_kind_of_nesting_is_bounded():
    for text in ("-" * 3000 + "x", "x^" * 3000 + "x", "rf(" * 3000 + "x" + ", 1)" * 3000,
                 "prod(j, 0, 1, " * 3000 + "j" + ")" * 3000, "k*" * 3000 + "k"):
        with pytest.raises(ParseError, match="nested deeper"):
            parse(text)


def test_tree_at_the_depth_limit_still_parses():
    flat = parse("+".join(["k"] * MAX_DEPTH))  # MAX_DEPTH - 1 additions over a leaf
    assert evaluate(flat, {"k": F(3)}) == 3 * MAX_DEPTH
    nested = parse("(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1))
    assert evaluate(nested, {"x": F(2)}) == 2
    with pytest.raises(ParseError):
        parse("+".join(["k"] * (MAX_DEPTH + 1)))
    with pytest.raises(ParseError):
        parse("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH)


def test_parameter_in_range_is_a_schema_error(tmp_path, capsys):
    config = "name: r\nparams: x\nlhs: k\nrange: 0 .. x\nrhs: n\n"
    with pytest.raises(SchemaError, match=r"range: unbound variable\(s\) \['x'\]"):
        parse_config(config)
    code, err = run_check(tmp_path, capsys, range="0 .. x")
    assert code == 2
    assert "range" in err and "'x'" in err


def test_huge_exponent_exits_two_at_once(tmp_path, capsys):
    started = time.perf_counter()
    code, err = run_check(tmp_path, capsys, lhs="x^(10^9)")
    assert code == 2
    assert f"exponent 1000000000 exceeds the limit of {MAX_COUNT}" in err
    assert time.perf_counter() - started < 5


@pytest.mark.parametrize("text", [
    "x^(-10001)", "rf(x, 10001)", "qrf(x, 1/2, 10001)", "binom(x, 10001)",
    "prod(j, 1, 10002, x)", "prod(j, 10002, 0, x)"])
def test_counts_beyond_the_cap_raise_resource_limit(text):
    with pytest.raises(ResourceLimit) as err:
        evaluate(parse(text), {"x": F(2, 3)})
    assert isinstance(err.value, VerifyError) and not isinstance(err.value, Inadmissible)


def test_counts_at_the_cap_evaluate():
    assert evaluate(parse("x^10000"), {"x": F(1)}) == 1
    assert evaluate(parse("binom(x, 10000)"), {"x": F(10000)}) == 1
    assert evaluate(parse("prod(j, 1, 10001, 1)"), {}) == 1


@pytest.mark.parametrize("lhs", ["((2^10000)^10000)^10000 * k", "(2^10000)^10000 * k"])
def test_values_beyond_the_bit_cap_exit_two_at_once(tmp_path, capsys, lhs):
    # a MemoryError exited 1, and the second config ran for minutes
    started = time.perf_counter()
    code, err = run_check(tmp_path, capsys, lhs=lhs)
    assert (code, err) == (2, f"error: power may need 100010000 bits, beyond the limit of "
                              f"{MAX_BITS} (in lhs at n = 0, k = 0)\n")
    assert time.perf_counter() - started < 5


@pytest.mark.parametrize("text, what", [
    ("x^10000", "power"), ("rf(x, 10000)", "rf value"), ("qrf(3, x, 10000)", "qrf value"),
    ("binom(x, 10000)", "binom value"), ("prod(j, 1, 10000, x)", "prod value")])
def test_values_beyond_the_bit_cap_raise_resource_limit(text, what):
    started = time.perf_counter()
    with pytest.raises(ResourceLimit, match=f"^{what} may need [0-9]+ bits, beyond the limit"):
        evaluate(parse(text), {"x": F(2 ** 200_000)})
    assert time.perf_counter() - started < 5


def test_values_at_the_bit_cap_evaluate():
    x = F(2 ** 200_000, 3)
    assert evaluate(parse("x^5"), {"x": x}) == x ** 5  # 1000005 bits
    assert evaluate(parse("prod(j, 1, 5, x)"), {"x": x}) == x ** 5


def test_summation_range_beyond_the_cap_exits_two(tmp_path, capsys):
    code, err = run_check(tmp_path, capsys, range="0 .. n + 10001")
    assert code == 2
    assert "range length" in err


def test_superscript_digit_is_a_located_parse_error(tmp_path, capsys):
    code, err = run_check(tmp_path, capsys, lhs="k^\u00b2")
    assert code == 2
    assert err == "error: unexpected character '\u00b2' at line 3, column 8\n"


def test_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.tkid"
    path.write_bytes("name: caf\u00e9\nlhs: k\nrange: 0 .. n\nrhs: n\n".encode("latin-1"))
    code = main(["check", "--config", str(path)], out=io.StringIO())
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot read config file {path}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_config_that_is_a_directory_exits_two(tmp_path, capsys):
    code = main(["check", "--config", str(tmp_path)], out=io.StringIO())
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot read config file {tmp_path}: ")
    assert err.count("\n") == 1


def test_missing_config_keeps_its_message(tmp_path, capsys):
    path = tmp_path / "absent.tkid"
    code = main(["check", "--config", str(path)], out=io.StringIO())
    assert code == 2
    assert capsys.readouterr().err == f"error: config file not found: {path}\n"


def test_literal_beyond_the_int_digit_limit_is_a_located_parse_error(tmp_path, capsys):
    code, err = run_check(tmp_path, capsys, lhs="x^k + " + "1" * 5000 + " - " + "1" * 5000)
    assert code == 2
    assert err == "error: integer literal of 5000 digits is too long at line 3, column 12\n"


def test_values_beyond_the_int_digit_limit_in_error_messages(tmp_path, capsys):
    code, err = run_check(tmp_path, capsys, rhs="x^(n + 10^5000)")
    assert code == 2
    assert err.startswith("error: exponent 1" + "0" * 4999) and err.count("\n") == 1
    code, err = run_check(tmp_path, capsys, rhs="x^(n + 10^5000/3)")
    assert code == 2
    assert err.startswith("error: exponent must be an integer, got 1" + "0" * 4999)
    # "division of 10^5000 by zero" rejects every draw: a failed run, no crash
    code, err = run_check(tmp_path, capsys, lhs="x^k + 10^5000/(k - k)")
    assert (code, err) == (1, "")


POINT_ERRORS = [
    ("lhs", "x^(k/2)", "exponent must be an integer, got 1/2 (in lhs at n = 1, k = 1)"),
    ("rhs", "rf(x, n - 3)", "rf count must be non-negative (in rhs at n = 0)"),
    ("require", "x^(n/2)", "exponent must be an integer, got 1/2 (in require at n = 1)"),
    ("cert_u", "rf(x, k - 5)", "rf count must be non-negative (in cert_u at n = 0, k = 0)"),
    ("cert_v", "k^(1/2)", "exponent must be an integer, got 1/2 (in cert_v at n = 0, k = 0)"),
    ("range", "0 .. n/2", "range bound must be an integer, got 1/2 (in range at n = 1)"),
]


@pytest.mark.parametrize("section, value, message", POINT_ERRORS,
                         ids=[case[0] for case in POINT_ERRORS])
def test_runtime_config_errors_name_section_and_point(tmp_path, capsys, section, value,
                                                      message):
    certificate = {"cert_u": "x", "cert_v": "k"} if section.startswith("cert") else {}
    code, err = run_check(tmp_path, capsys, **{**certificate, section: value})
    assert (code, err) == (2, f"error: {message}\n")


def test_config_with_utf8_bom_reads_as_without(tmp_path):
    plain = Path(__file__).parent / "golden" / "binomial.tkid"
    bom = tmp_path / "binomial.tkid"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    reports = []
    for path in (plain, bom):
        out = io.StringIO()
        assert main(["check", "--config", str(path), "--format", "json"], out=out) == 0
        reports.append(json.loads(out.getvalue()))
    assert [r["totals"] for r in reports] == [reports[0]["totals"]] * 2
    assert reports[1]["results"] == reports[0]["results"]
