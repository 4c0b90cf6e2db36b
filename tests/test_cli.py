import json
import sys
import time

import pytest

from beatty import cli
from beatty.cli import run
from beatty.golden import f_floor
from beatty.logic import MAX_NESTING

# golden suite: (argv, expected exit code, substring expected on stdout)
GOLDEN = [
    (["f", "7"], 0, "11"),
    (["f", "-3"], 0, "0"),
    (["f", "1000000"], 0, "1618033"),
    (["inv", "11"], 0, "7"),
    (["inv", "1"], 0, "1"),
    (["inv", "2"], 1, "none"),
    (["zeck", "100"], 0, "3 5 10"),
    (["zeck", "1"], 0, "1"),
    (["word", "8"], 0, "10110101"),
    (["word", "0"], 0, ""),
    (["c", "7"], 0, "0"),
    (["c", "1"], 0, "1"),
    (["pisano", "2"], 0, "3"),
    (["pisano", "10"], 0, "60"),
    (["solve", "--xn", "2", "--xm", "1", "--fn", "3", "--fm", "2"], 0, "witness"),
    (["solve", "--xn", "2", "--xm", "0", "--fn", "2", "--fm", "1", "--lo", "2", "--hi", "4"], 1, "no solution"),
    (["solve", "--xn", "1", "--xm", "0", "--fn", "1", "--fm", "0", "--lo", "7", "--hi", "9"], 0, "witness 8"),
    (["solve", "--xn", "1", "--xm", "0", "--fn", "1000000", "--fm", "3",
      "--lo", "0", "--hi", "10000000"], 0, "witness 2\n"),
    (["solve", "--xn", "1", "--xm", "0", "--fn", "1000000", "--fm", "999999"], 0,
     "witness 21013155\n"),
    (["solve", "--xn", "50", "--xm", "20", "--fn", "49", "--fm", "28", "--lo", "130329209207"],
     0, "witness 130329209370\n"),
    (["solve", "--xn", "1", "--xm", "0", "--fn", "200", "--fm", "199"], 0, "witness 123\n"),
    (["window", "=", "1/1", "1"], 0, "[2, 3]"),
    (["window", "=", "2", "-1"], 0, "[1, 2]"),
    (["window", ">", "1", "1"], 0, "half_line_up"),
    (["window", "=", "1/2", "1"], 1, "empty"),
    (["decide", "exists x. (0 < x & f(x) = x + 1)"], 0, "witness 2"),
    (["decide", "f(5) < 8"], 1, "False"),
    (["decide", "f(-3) = 0"], 0, "True (exact)"),
    (["decide", "forall x. (0 < x -> x < f(x) + 1)"], 0, "True (exact)"),
    (["decide", "forall x. forall y. (f(x + y) < f(x) + f(y) + 2)", "--bound", "60"], 0, "bounded"),
    (["decide", "exists x. (10 < x & x < 12 & p5(x))"], 1, "False"),
    (["decide", "P[2,3,1,2](0, 10)"], 0, "True"),
    (["decide", "P[1,1000000,0,3](0, 100000000)"], 0, "True (exact); witness 2\n"),
    (["decide", "P[3,5,1,2](0, 1000000000000)"], 0, "True (exact); witness 76\n"),
    (["audit", "50"], 0, "all families pass"),
    (["audit", "2"], 0, "all families pass"),
]


@pytest.mark.parametrize("argv,code,needle", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_exit_codes_and_output(argv, code, needle, capsys):
    assert run(argv) == code
    out = capsys.readouterr().out
    assert needle in out


def test_golden_suite_has_thirty_cases():
    assert len(GOLDEN) >= 30


MALFORMED = [
    "f(x",
    "exists . f(x) = 1",
    "x <",
    "(x < 1",
    "p0(x)",
    "P[2,3](x, y)",
    "x @ 1",
    "exists f. f < 1",
    "1 + < 2",
    "forall x x < 1",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_formulas_exit_64_with_position(text, capsys):
    assert run(["decide", text]) == 64
    err = capsys.readouterr().err
    assert "offset" in err


def test_usage_errors_exit_64(capsys):
    assert run(["f", "notanint"]) == 64
    assert run(["window", "=", "1/0", "3"]) == 64
    assert run(["nosuchcommand"]) == 64
    assert run(["pisano", "0"]) == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["f", "7", "--json"],
        ["zeck", "100", "--json"],
        ["solve", "--xn", "2", "--xm", "1", "--fn", "3", "--fm", "2", "--json"],
        ["window", "=", "3/2", "0", "--json"],
        ["decide", "exists x. (0 < x & f(x) = x + 1)", "--json"],
        ["audit", "20", "--json"],
    ],
)
def test_json_output_round_trips(argv, capsys):
    run(argv)
    line = capsys.readouterr().out.strip()
    record = json.loads(line)
    assert record["command"] == argv
    assert record["provenance"] in ("exact", "bounded")
    assert "result" in record and "elapsed_s" in record
    # numeric payloads are decimal strings
    def all_numbers_are_strings(node):
        if isinstance(node, dict):
            return all(all_numbers_are_strings(v) for v in node.values())
        if isinstance(node, list):
            return all(all_numbers_are_strings(v) for v in node)
        return not isinstance(node, (int, float)) or isinstance(node, bool)

    assert all_numbers_are_strings(record["result"])


def test_json_decide_fields(capsys):
    run(["decide", "exists x. (0 < x & f(x) = x + 1)", "--json"])
    record = json.loads(capsys.readouterr().out)
    assert record["result"]["truth"] == "true"
    assert record["result"]["witness"] == "2"
    assert record["provenance"] == "exact"


def test_large_values_print_in_full(capsys):
    run(["f", str(10**40)])
    out = capsys.readouterr().out.strip()
    assert out.isdigit() and len(out) == 41  # phi * 10^40 has 41 digits
    assert "e" not in out


DEEP = {
    "parentheses": "(" * 3000 + "x < 1" + ")" * 3000,
    "negations": "!" * 3000 + "0 < 1",
    "f": "f(" * 3000 + "1" + ")" * 3000 + " < 1",
    "conjuncts": " & ".join(["0 < 1"] * 3000),
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_nesting_exits_64(name, capsys):
    assert run(["decide", DEEP[name]]) == 64
    assert "nesting deeper than" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "(" * MAX_NESTING + "0 < 1" + ")" * MAX_NESTING,
    "!" * MAX_NESTING + "0 < 1",
    "f(" * MAX_NESTING + "1" + ")" * MAX_NESTING + " > 1",
    " & ".join(["0 < 1"] * (MAX_NESTING + 1)),
    " -> ".join(["0 < 1"] * (MAX_NESTING + 1)),
    "forall x. forall y. (" + " | ".join(["x < y"] * (MAX_NESTING - 2)) + ")",
], ids=["(", "!", "f(", "&", "->", "quantifiers and |"])
def test_nesting_at_the_cap_is_decided(text):
    assert run(["decide", text, "--bound", "3"]) in (0, 1)


def test_unexpected_exception_exits_70(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "f", broken)
    assert run(["f", "7"]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: RuntimeError: boom" in captured.err


def test_witness_beyond_the_digit_limit_prints(capsys):
    limit = sys.get_int_max_str_digits()
    lo = "9" * 4300  # every witness has at least 4301 digits
    assert run(["solve", "--xn", "1", "--xm", "0", "--fn", "3", "--fm", "1", "--lo", lo]) == 0
    assert sys.get_int_max_str_digits() == limit  # the caller's limit is back
    text = capsys.readouterr().out.split()[-1]
    assert len(text) > 4300
    sys.set_int_max_str_digits(0)
    try:
        witness = int(text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert witness > int(lo) and f_floor(witness) % 3 == 1


def test_lower_bounded_solve_answers_in_milliseconds(capsys):
    argv = ["solve", "--xn", "50", "--xm", "20", "--fn", "49", "--fm", "28", "--lo", "130329209207"]
    run(argv)  # builds the cached argument parser
    started = time.perf_counter()
    assert run(argv) == 0
    assert time.perf_counter() - started < 0.01
    assert capsys.readouterr().out.split()[-1] == "130329209370"


def _outcome(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    out = captured.out
    if "--json" in argv and code != 64:
        record = json.loads(out)
        del record["elapsed_s"]
        out = record
    return code, out, captured.err


def test_cached_parser_matches_fresh_parsers(capsys):
    sequence = [
        ["f", "7"], ["f", "7", "--json"], ["window", ">", "3/2", "0", "--json"],
        ["window", ">", "3/2", "0"], ["f", "x7"], ["f", "7"],
        ["solve", "--xn", "2", "--xm", "1"], ["zeck", "100", "--json"],
        ["decide", "exists x. (0 < x & f(x) = x + 1)", "--json"], ["nosuchcommand"],
        ["decide", "exists x. (0 < x & f(x) = x + 1)"], ["window", "=", "1/0", "3"],
        ["pisano", "10", "--json"], ["pisano", "10"],
    ]
    cached = [_outcome(argv, capsys) for argv in sequence]
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 0, 0, 0, 64, 0, 64, 0, 0, 64, 0, 64, 0, 0]


@pytest.mark.parametrize("argv", [
    ["f", "1" * 100_000],
    ["solve", "--xn", "1", "--xm", "0", "--fn", "2", "--fm", "1", "--hi", "9" * 100_000],
    ["window", ">", "1" * 100_000 + "/3", "0"],
    ["window", ">", "1e99999", "0"],
    ["decide", "f(" + "9" * 100_000 + ") > 0"],
    ["decide", "exists x. p" + "7" * 100_000 + "(x)"],
], ids=["f", "solve --hi", "window slope", "window exponent", "decide literal",
        "decide modulus"])
def test_overlong_decimal_inputs_exit_64_at_once(argv, capsys):
    started = time.perf_counter()
    assert run(argv) == 64
    assert time.perf_counter() - started < 0.05
    assert f"{sys.int_info.default_max_str_digits} digits" in capsys.readouterr().err


def test_decimal_inputs_at_the_digit_limit_still_convert(capsys):
    digits = sys.int_info.default_max_str_digits
    assert run(["f", "1" * digits]) == 0
    assert run(["decide", "f(" + "1" * digits + ") > 0"]) == 0
    assert run(["window", ">", "1" * (digits - 1) + "/7", "0"]) == 1
