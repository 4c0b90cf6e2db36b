import importlib
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beatty
from beatty import cli
from beatty.cli import run
from beatty.golden import f_floor
from beatty.logic import MAX_NESTING, ParseError, decide, evaluate, parse

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
    # two-variable sentences: proved exactly from sign cases and floor cells,
    # whatever the bound, or declined to the bounded scan
    (["decide", "forall x. forall y. (f(x + y) < f(x) + f(y) + 2)", "--bound", "60"], 0,
     "True (exact)\n"),
    (["decide", "forall x. forall y. (f(x + y) < f(x) + f(y) + 2)"], 0, "True (exact)\n"),
    (["decide", "forall x. forall y. x < 15 | y < 1 | f(x + y) >= f(x) + f(y)"], 0,
     "True (exact)\n"),
    (["decide", "exists x. exists y. f(x + y) > f(x) + f(y) + 1"], 1, "False (exact)\n"),
    # over x alone, before or after miniscoping drops y, through the same route
    (["decide", "forall x. forall y. (f(-2 * x + 3) != f(-1 * x + -16) + f(-1 * x + 19) + 2)",
      "--bound", "3"], 0, "True (exact)\n"),
    (["decide", "forall x. f(2*x) <= 2*f(x) + 1"], 0, "True (exact)\n"),
    # where x - y <= 0, f(x - y) != 0 reads 0 != 0 and excludes the sign case
    (["decide", "forall x. forall y. (x < 1 | y < 1 | x >= y | f(x - y) = 0)"], 0,
     "True (exact)\n"),
    # Rayleigh's f(x) = f(y) + y: x is eliminated, pinned to f(y) + 1
    (["decide", "forall x. forall y. (x < 1 | y < 1 | f(x) != f(y) + y)", "--bound", "60"], 0,
     "True (exact)\n"),
    (["decide", "exists x. exists y. (x > 0 & y > 0 & f(x) = f(y) + y)", "--bound", "60"], 1,
     "False (exact)\n"),
    (["decide", "exists x. (10 < x & x < 12 & p5(x))"], 1, "False"),
    (["decide", "exists x. (f(x) = 3*x & 0 < x | f(x) = 4*x + 1 & 0 < x)"], 1,
     "False (exact)\n"),
    (["decide", "exists x. (0 < x & f(x) != x + 1)"], 0, "True (exact); witness 1\n"),
    # an f-free != stays one literal until the exact route's one split of it
    (["decide", "exists x. x > 0 & x != 1"], 0, "True (exact); witness 2\n"),
    (["decide", "forall x. (x < 1 | f(x) = x + 1 | f(x) = x + 2)"], 1,
     "False (exact); counterexample 1\n"),
    (["decide", "forall x. forall y. 0 < 1"], 0, "True (exact)\n"),
    (["decide", "forall x. forall y. (0 < 1 | x < y)"], 0, "True (exact)\n"),
    (["decide", "exists x. 0 < 0"], 1, "False (exact)\n"),
    (["decide", "exists x. 0 < 1"], 0, "True (exact); witness 0\n"),
    (["decide", "P[4,1,1,0](3, 32) | 40 >= -21"], 0, "True (exact); witness 5\n"),
    (["decide", "P[2,3,1,2](0, 10)"], 0, "True"),
    (["decide", "exists x. P[2,3,1,2](0, 10)"], 0, "True (exact); witness 0\n"),
    (["decide", "forall x. forall y. P[2,3,1,2](0, 10)"], 0, "True (exact)\n"),
    (["decide", "forall x. P[1,1,0,0](0, 5)"], 0, "True (exact)\n"),
    (["decide", "exists x. P[2,3,1,2](3, 3)"], 1, "False (exact)\n"),
    (["decide", "exists x. forall y. f(x) = 1"], 0, "True (exact); witness 1\n"),
    (["decide", "exists x. forall y. P[2,3,1,2](x, 10)"], 0, "True (exact); witness 0\n"),
    (["decide", "exists x. (exists y. f(y) = 5 & x = 2)"], 1, "False (exact)\n"),
    (["decide", "exists x. ((exists y. f(y) = 5) & x = 2)"], 1, "False (exact)\n"),
    (["decide", "exists x. (-50 < x & x < 10 & p7(x - 3))"], 0, "True (exact); witness 3\n"),
    (["decide", "forall x. (f(f(x)) = f(x) + x - 1 | x < 1)"], 0, "True (exact)\n"),
    (["decide", "forall x. (f(x + f(x)) = x + 2*f(x) | x < 1)"], 0, "True (exact)\n"),
    # f nested twice in a pair: _slab_cases rewrites f(f(x)), and the cell step drops both cases
    (["decide", "forall x. forall y. x < 1 | y < 1 | f(f(f(x)) + y) >= f(f(f(x))) + f(y)"], 0,
     "True (exact)\n"),
    # a zone of about 71,500 points, read only up to the least witness
    (["decide", "exists x. (100000*f(x) > 161802*x & x > 0 & p7(f(x)))"], 0,
     "True (exact); witness 610\n"),
    # a zone that ends near 1,011,000, below the order window: none of it is scanned
    (["decide", "exists x. (1000000*f(x) < 1618033*x & x > 2000000 & p7(f(x)))"], 1,
     "False (exact)\n"),
    # a run stream that meets a class stream: the true one stops at its least witness
    (["decide", "exists x. (1001*f(x) > 1619*x & 1005*f(x) < 1626*x & x > 0)"], 0,
     "True (exact); witness 34\n"),
    (["decide", "exists x. (1001*f(x) < 1619*x & 1005*f(x) > 1626*x & x > 0)"], 1,
     "False (exact)\n"),
    # 59,184 runs against 100,001 classes, each run meeting the classes of its points
    (["decide", "exists x. (100000*f(x) < 161803*x & 100001*f(x) > 161805*x & x > 0)"], 1,
     "False (exact)\n"),
    # two windows of the same 4,181 classes near a convergent, each class meeting its own
    (["decide", "exists x. (x > 0 & 4181*f(x) > 6765*x + 3 & 4181*f(x) < 6765*x + 2)"], 1,
     "False (exact)\n"),
    # 500,000 classes, read only up to the least witness
    (["decide", "exists x. (1000000*f(x) > 1618034*x - 2000000 & x > 0 & p7(f(x)))"], 0,
     "True (exact); witness 9\n"),
    (["decide", "exists x. (f(x+1) = f(x) + 2 & x > 100000 & p7(x))"], 1,
     "False (bounded to 10000)\n"),
    # a bounded certificate that an exact route refutes is dropped: y = 51 serves x = 48,
    # and y = 21 refutes x = 15
    (["decide", "--bound", "50", "forall x. exists y. y > x & p3(y)"], 1,
     "False (bounded to 50)\n"),
    (["decide", "--json", "--bound", "50", "forall x. exists y. y > x & p3(y)"], 1,
     '"result": {"bound": "50", "truth": "false"}}'),
    (["decide", "--bound", "20", "exists x. forall y. y < x | y > x + 30 | !p7(y)"], 0,
     "True (bounded to 20)\n"),
    (["decide", "--json", "--bound", "20", "exists x. forall y. y < x | y > x + 30 | !p7(y)"], 0,
     '"result": {"bound": "20", "truth": "true"}}'),
    (["decide", "forall x. x < x + 1"], 0, "True (exact)\n"),
    (["decide", "P[1,1000000,0,3](0, 100000000)"], 0, "True (exact); witness 2\n"),
    (["decide", "P[3,5,1,2](0, 1000000000000)"], 0, "True (exact); witness 76\n"),
    # a negated divisibility is a disjunction of residues, !p1 none of them
    (["decide", "forall x. p2(x) | p2(x + 1)"], 0, "True (exact)\n"),
    (["decide", "forall x. p1(x)"], 0, "True (exact)\n"),
    # a conjunction keeps one residue per divisibility on x + k: 4^5 products, none left
    (["decide", "forall x. p5(x) | p5(x+1) | p5(x+2) | p5(x+3) | p5(x+4)"], 0, "True (exact)\n"),
    (["decide", "exists x. !p1(x)"], 1, "False (exact)\n"),
    # an inner exists z whose body holds !p1(z) has an empty DNF: z is eliminated to 0 < 0
    (["decide", "forall x. !(forall y. forall z. p1(z) | !(y = f(-90)))"], 1,
     "False (exact); counterexample 0\n"),
    # a pair whose DNF has a disjunct free of y: it goes over as it is while y is pinned
    (["decide", "exists x. x > 0 & (x < 0 | exists y. (y = 2*x & p2(y + 1)))"], 1,
     "False (exact)\n"),
    (["decide", "forall x. x < 1 | (x > 0 & forall y. (!(y = 2*x) | p2(y)))"], 0,
     "True (exact)\n"),
    (["decide", "forall x. p3(f(x)) | p3(f(x) + 1)"], 1, "False (exact); counterexample 1\n"),
    # criterion 07's literal claim, false in the standard model
    (["decide", "forall x. x < 1 | !(f(x) > 7) | 3*x >= 16"], 1,
     "False (exact); counterexample 5\n"),
    # the cell step of the exact route drops the disjunct f(x + 16) < x of the
    # negation, which no x satisfies, and p7(68) is false
    (["decide", "forall x. f(x + 16) >= x & !p7(68)"], 0, "True (exact)\n"),
    # two quantifiers of one kind: the normal form takes the disjunct free of y, and
    # the cell step drops the other, which no point satisfies
    (["decide", "exists x. exists y. x = f(1000) | (y > 0 & f(y) < 0)"], 0,
     "True (exact); witness 1618\n"),
    (["decide", "forall x. forall y. !(x = f(1000)) & (y < 1 | f(y) > 0)"], 1,
     "False (exact); counterexample 1618\n"),
    # a quantifier whose body lacks its variable is its body, decided exactly; 0,
    # the scan's first point, is its certificate where one is due
    (["decide", "forall x. exists y. p5(y)"], 0, "True (exact)\n"),
    (["decide", "exists x. forall y. p9(y)"], 1, "False (exact)\n"),
    (["decide", "forall x. forall y. forall z. y < 1 | z < 1 | f(y+z) >= f(y) + f(z)"], 0,
     "True (exact)\n"),
    (["decide", "exists x. exists y. p5(y)"], 0, "True (exact); witness 0\n"),
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


def test_window_predicate_outside_a_scan_keeps_its_witness(capsys):
    # inside a scan a ground P[...] folds to its truth; alone it is solved
    # when run, and its least witness is the certificate
    assert run(["decide", "P[2,3,1,2](0, 10)"]) == 0
    assert capsys.readouterr().out == "True (exact); witness 5\n"


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
    capsys.readouterr()
    assert run(["word", "-1"]) == 64
    assert capsys.readouterr().err == "error: length must be non-negative\n"
    assert run(["audit", "1000001"]) == 64
    assert capsys.readouterr().err == "error: audit range must be in [2, 1000000], got 1000001\n"


def test_negative_bound_is_a_usage_error(capsys):
    # a bounded and an exact sentence: neither answers
    for text in (SUPERADDITIVE, "exists x. x = 1"):
        assert run(["decide", text, "--bound", "-1"]) == 64
        assert capsys.readouterr().err == "error: bound must be >= 0, got -1\n"
    with pytest.raises(ValueError, match="bound must be >= 0"):
        decide(parse("exists x. x = 1"), -1)
    with pytest.raises(ValueError, match="bound must be >= 0"):
        evaluate(parse("0 < 1"), {}, -1)


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


def test_audit_prints_each_sentence_with_its_answer(capsys):
    assert run(["audit", "50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    answers = [line.split(": ", 1)[1] for line in lines if line.startswith("  ")]
    assert len(answers) == 134 and answers.count("True (exact)") == 133
    assert ("  forall x. forall m. x < 1 | m < 1 | m >= f(x) | (exists t. t > 0 & t < x"
            " & (f(t) = m | f(t) + t = m)): unknown: no exact route decides it") in lines
    assert lines[-1] == "all families pass"


def test_json_audit_fields(capsys):
    run(["audit", "20", "--json"])
    families = json.loads(capsys.readouterr().out)["result"]["families"]
    sentences = [s for family in families.values() for s in family["sentences"]]
    assert len(sentences) == 134
    assert {(s["truth"], s["provenance"]) for s in sentences} == {
        ("true", "exact"), ("unknown", "exact")}
    assert families["f-identities"]["sentences"][0] == {
        "sentence": "forall x. x < 1 | f(f(x)) = f(x) + x - 1", "truth": "true",
        "provenance": "exact"}


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


# Each construct above, k levels deep under two quantifiers, so that the body
# is not ground: it becomes one generated function, which the interpreter's
# parser must accept at the nesting cap (it refuses 200 nested parentheses).
UNDER_QUANTIFIERS = {
    "(": lambda k: "(" * k + "x < y" + ")" * k,
    "!": lambda k: "!" * k + "x < y",
    "f(": lambda k: "f(" * k + "x" + ")" * k + " > y",
    "f( <=": lambda k: "f(" * k + "x" + ")" * k + " <= y",
    "f( !=": lambda k: "f(" * k + "x" + ")" * k + " != y",
    "p3(f(": lambda k: "p3(" + "f(" * k + "x" + ")" * (k + 1),
    "&": lambda k: " & ".join(["x < y"] * k),
    "->": lambda k: " -> ".join(["x < y"] * k),
    "(->": lambda k: "(" * (k - 1) + "f(x) <= y -> x != y" + ") -> x >= y" * (k - 1),
    "|": lambda k: " | ".join(["x < y"] * k),
    "+": lambda k: " + ".join(["x"] * k) + " < y",
}


@pytest.mark.parametrize("name", UNDER_QUANTIFIERS)
def test_nesting_at_the_cap_is_compiled_and_scanned(name):
    def sentence(k):
        return "forall x. exists y. " + UNDER_QUANTIFIERS[name](k)

    deepest = max(k for k in range(1, MAX_NESTING + 2) if _parses(sentence(k)))
    assert MAX_NESTING - 2 <= deepest <= MAX_NESTING  # so deepest + 1 was refused
    assert run(["decide", sentence(deepest), "--bound", "3"]) in (0, 1)


@pytest.mark.parametrize("name", UNDER_QUANTIFIERS)
def test_nesting_at_the_cap_is_compiled_as_parsed(name):
    # decide() rewrites -> and pushes ! inward before it evaluates; evaluate()
    # compiles the tree as parsed, here under one quantifier with y assigned
    def formula(k):
        return "exists x. " + UNDER_QUANTIFIERS[name](k)

    deepest = max(k for k in range(1, MAX_NESTING + 2) if _parses(formula(k)))
    assert MAX_NESTING - 1 <= deepest <= MAX_NESTING
    assert evaluate(parse(formula(deepest)), {"y": 2}, bound=3).truth in (True, False)


def _parses(text: str) -> bool:
    try:
        parse(text)
    except ParseError:
        return False
    return True


def test_unexpected_exception_exits_70(monkeypatch, capsys):
    def broken(x):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "f_floor", broken)  # what the f command calls
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
    run(argv)  # a first run, so that the timed one finds everything loaded
    started = time.perf_counter()
    assert run(argv) == 0
    assert time.perf_counter() - started < 0.01
    assert capsys.readouterr().out.split()[-1] == "130329209370"


@pytest.mark.parametrize("text,code", [
    ("forall x. forall y. (f(x + y) < f(x) + f(y) + 2)", 0),
    ("forall x. forall y. x < 15 | y < 1 | f(x + y) >= f(x) + f(y)", 0),
    ("exists x. exists y. f(x + y) > f(x) + f(y) + 1", 1),
    ("forall x. forall y. x < 1 | y < 1 | f(f(x) + y) >= f(f(x)) + f(y)", 0),
], ids=["additive", "superadditive", "exists", "nested"])
def test_two_variable_identities_answer_exactly_in_milliseconds(text, code, capsys):
    # at the default bound, where the bounded scan spends its whole budget
    run(["decide", text])
    started = time.perf_counter()
    assert run(["decide", text]) == code
    assert time.perf_counter() - started < 0.05
    assert capsys.readouterr().out.endswith("(exact)\n")


@pytest.mark.parametrize("text,code", [
    # Beatty's theorem, both ways, and Rayleigh's f(x) = f(y) + y: each inner
    # quantifier is eliminated, pinned by an equality
    ("forall n. n < 1 | (exists x. f(x) = n) | (exists y. f(y) + y = n)", 0),
    ("exists n. n > 0 & (exists x. f(x) = n) & (exists y. f(y) + y = n)", 1),
    ("forall x. forall y. (x < 1 | y < 1 | f(x) != f(y) + y)", 0),
    ("exists x. exists y. (x > 0 & y > 0 & f(x) = f(y) + y)", 1),
    # what eliminating x leaves of Beatty's theorem: two nested atoms that
    # meet only where {phi*n} = 2 - phi, a cell of zero area
    ("forall n. n < 1 | f(f(n) - n + 1) = n | f(2*n - f(n)) + 2*n - f(n) = n", 0),
    # y = f(x) refutes every x, where a scan of [-100, 100] saw the witness 63
    ("exists x. forall y. forall z. !(f(x) = y)", 1),
    # no equality pins y, so only the step that commutes the pair's outer x
    # past y, and eliminates it (pinned by x = x - x), decides it
    ("forall x. (-27 < f(x + -58) | !(5 * x = 99)) | ((forall y. f(x - x) < 0 -> "
     "p3(y + -71 - (x + 51))) | !(x = x - x))", 0),
], ids=["beatty-forall", "beatty-exists", "rayleigh-forall", "rayleigh-exists", "beatty-residual",
        "f-takes-a-value", "outer-pinned"])
def test_eliminated_quantifiers_answer_exactly_in_milliseconds(text, code, capsys):
    for bound in ([], ["--bound", "100"]):
        run(["decide", text, *bound])  # a first run, so that the timed one finds everything loaded
        capsys.readouterr()
        started = time.perf_counter()
        assert run(["decide", text, *bound]) == code
        assert time.perf_counter() - started < 0.05
        assert capsys.readouterr().out.endswith("(exact)\n")


# three variables: no exact route takes them, and the scan of [-B, B]^3 is long
SUPERADDITIVE = "forall x. forall y. forall z. x < 1 | y < 1 | z < 1 | f(x+y+z) >= f(x)+f(y)+f(z)"


@pytest.mark.parametrize("text", [
    SUPERADDITIVE,
    "exists x. exists y. exists z. x > 0 & y > 0 & z > 0 & f(x+y+z) < f(x)+f(y)+f(z)",
], ids=["forall", "exists"])
def test_spent_evaluation_budget_exits_2_in_seconds(text, capsys):
    started = time.perf_counter()
    assert run(["decide", text]) == 2
    assert time.perf_counter() - started < 2
    assert capsys.readouterr().out == "unknown: evaluation budget spent\n"
    assert run(["decide", text, "--json"]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["result"] == {"truth": "unknown", "reason": "evaluation budget spent"}


def test_pisano_of_a_ten_digit_prime_answers_in_seconds(capsys):
    started = time.perf_counter()
    assert run(["pisano", "1000000007"]) == 0
    assert time.perf_counter() - started < 2
    assert capsys.readouterr().out == "2000000016\n"


def test_pisano_past_trial_division_exits_2_with_a_reason(capsys):
    assert run(["pisano", str(1000003 * 1000033)]) == 2
    assert capsys.readouterr().out.startswith("unknown: trial division to 1000000 leaves")
    assert run(["pisano", str(1000003 * 1000033), "--json"]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["result"]["value"] is None and "trial division" in record["result"]["reason"]
    assert record["provenance"] == "unknown"


def _outcome(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    out = captured.out
    if "--json" in argv and code != 64:
        record = json.loads(out)
        del record["elapsed_s"]
        out = record
    return code, out, captured.err


def test_repeated_runs_give_the_same_outcome(capsys):
    # no run leaves state that changes the next one
    sequence = [
        ["f", "7"], ["f", "7", "--json"], ["window", ">", "3/2", "0", "--json"],
        ["window", ">", "3/2", "0"], ["f", "x7"], ["f", "7"],
        ["solve", "--xn", "2", "--xm", "1"], ["zeck", "100", "--json"],
        ["decide", "exists x. (0 < x & f(x) = x + 1)", "--json"], ["nosuchcommand"],
        ["decide", "exists x. (0 < x & f(x) = x + 1)"], ["window", "=", "1/0", "3"],
        ["pisano", "10", "--json"], ["pisano", "10"],
    ]
    first = [_outcome(argv, capsys) for argv in sequence]
    assert [_outcome(argv, capsys) for argv in sequence] == first
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 64, 0, 64, 0, 0, 64, 0, 64, 0, 0]


# The argv grammar: (argv, exit code, stdout), each as argparse gave it; a
# --json record is compared without its elapsed_s.
SOLVE = ["--xm", "1", "--fn", "3", "--fm", "2"]
GRAMMAR = [
    (["f", "-3"], 0, "0\n"),  # a negative number is a positional
    (["f", "-3.5"], 64, ""),
    (["decide", "-1 < 0"], 0, "True (exact)\n"),  # so is a token with a space
    (["solve", "--xn=2", "--xm=1", "--fn=3", "--fm=2"], 0, "witness 5\n"),
    (["solve", "--xn", "2", *SOLVE], 0, "witness 5\n"),
    (["decide", "exists x. x = 1", "--b", "5"], 0, "True (exact); witness 1\n"),
    (["f", "--j", "7"], 0, {"command": ["f", "--j", "7"], "provenance": "exact",
                            "result": {"value": "11"}}),
    (["solve", "--x", "2", *SOLVE], 64, ""),  # --xn or --xm
    (["solve", "--xn", "5", "--xn", "2", *SOLVE], 0, "witness 5\n"),  # the last --xn
    (["f", "--", "-3"], 0, "0\n"),
    (["f", "7", "--"], 0, "11\n"),
    (["solve", "--xn", "2", *SOLVE, "--"], 64, ""),  # a "--" next to no positional
    (["solve", "--xn", "--", "2", *SOLVE], 64, ""),
    (["f", "--", "--json", "7"], 64, ""),  # after "--" nothing is an option
    (["window", "=", "--json", "3/2", "0"], 0, {
        "command": ["window", "=", "--json", "3/2", "0"], "provenance": "exact",
        "result": {"kind": "union", "pieces": [{"hi": "8", "lo": "2", "mod": "2", "res": "0"}]}}),
    (["f", "7", "--json=1"], 64, ""),
    (["decide", "0 < 1", "--bound", "--json"], 64, ""),
    (["decide", "exists x. x = 1", "--bound", "-0"], 0, "True (exact); witness 1\n"),
    (["f"], 64, ""),
    (["f", "7", "8"], 64, ""),
    (["f", "-x", "7"], 64, ""),
    (["nosuch", "7"], 64, ""),
    (["window", "<=", "1", "0"], 64, ""),
    ([], 64, ""),
    (["--json", "f", "7"], 64, ""),
    # exact option tokens (one lookup each) beside values and other tokens
    # that start with "-", which _option reads
    (["solve", "--xn", "2", *SOLVE, "--lo", "-5"], 0, "witness 5\n"),
    (["solve", "--xn", "2", *SOLVE, "--lo=-5"], 0, "witness 5\n"),
    (["f", "7", "-hi"], 64, ""),  # -h with the explicit argument "i"
    (["solve", "--xn=", *SOLVE], 64, ""),
    (["solve", "--xn", *SOLVE], 64, ""),  # --xm is an option, not --xn's value
    (["f", "7", "--json", "--json"], 0, {"command": ["f", "7", "--json", "--json"],
                                         "provenance": "exact", "result": {"value": "11"}}),
    (["solve", "--xn", "2", "--help", *SOLVE], 0, cli._help()[1] + "\n"),
    (["solve", "--xn", "2", *SOLVE, "--lo", "--"], 64, ""),
]


@pytest.mark.parametrize("argv,code,out", GRAMMAR, ids=[" ".join(g[0]) or "[]" for g in GRAMMAR])
def test_argv_grammar(argv, code, out, capsys):
    assert run(argv) == code
    captured = capsys.readouterr()
    if isinstance(out, dict):
        record = json.loads(captured.out)
        del record["elapsed_s"]
        assert record == out
    else:
        assert captured.out == out
    if code == 64:
        assert captured.err.startswith("usage error: ")


# commands, options whole, as prefixes and with =value, values, and odd tokens
_TOKENS = st.sampled_from([
    *cli._COMMANDS, "--xn", "--xm", "--fn", "--fm", "--lo", "--hi", "--bound", "--json",
    "--help", "-h", "--x", "--f", "--j", "--b", "--he", "--xn=2", "--lo=-5", "--json=1", "-x",
    "--", "-", "", "2", "-3", "0", "7", "3/2", "-.5", "<", "=", ">", "x", "-1 < 0",
    "exists x. x = 1", "f(x) > 0", "--=", "---", "-hx", "1_000", " 5 "])


@settings(max_examples=150, deadline=None)
@given(st.builds(lambda head, rest: [head, *rest],
                 st.sampled_from([*cli._COMMANDS, "--help", "-hx", "--="]),
                 st.lists(_TOKENS, max_size=10)))
def test_no_token_soup_escapes_run_or_exits_70(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code != 70, (argv, err.getvalue())
    if code == 64:
        assert err.getvalue().startswith(("usage error: ", "error: ", "parse error: ")), argv


_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")  # what _negative decides without importing re
_NUMERIC = st.text(st.sampled_from("-.07\n\u0663\u07c0\uff10\u00b2\u00b9\u2460xe"), max_size=6)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_NUMERIC, _NUMERIC.map("-".__add__)))
@example("-5\n")
@example("-5\n\n")
@example("-.5\n")
@example("-5.")
@example("-\u0663.\u07c0")
@example("-\u00b2")
def test_negative_numbers_are_read_as_the_regex_reads_them(token):
    assert cli._negative(token) == bool(_NEGATIVE.match(token))


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["solve", "--help"], ["f", "7", "--he"]])
def test_help_lists_every_command_and_returns_0(argv, capsys):
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == list(cli._COMMANDS)
    solve = lines[list(cli._COMMANDS).index("solve")]
    assert "--xn XN --xm XM --fn FN --fm FM [--lo LO] [--hi HI]" in solve


def test_importing_the_cli_loads_no_argparse():
    code = "import sys, beatty.cli; print('argparse' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.stdout == "False\n"


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


def test_a_closed_stdout_exits_74_without_a_traceback():
    # 200,001 bytes fill the pipe, so the reader closes it before they are written
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    with subprocess.Popen([sys.executable, "-m", "beatty", "word", "200000"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(5) == b"10110"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == cli.EXIT_IOERR == 74
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_an_unwritable_stdout_exits_74_with_one_line():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "beatty", "word", "20"], env=env,
                              stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == cli.EXIT_IOERR
    assert proc.stderr.startswith(b"error writing output: ") and proc.stderr.count(b"\n") == 1


def test_importing_the_cli_loads_no_dataclasses_inspect_or_json():
    code = ("import sys, beatty.cli; "
            "print(sorted({'argparse', 'dataclasses', 'inspect', 'json'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.stdout == "[]\n"
    # Nor do decide, solve and f commands load typing or fractions (with
    # decimal and numbers) or contextlib, under -S, where site loads none of
    # them either.
    # window and audit import fractions on first use.
    commands = [["decide", "exists x. 0 < x & p9(x + 5) & 502*f(x) < 784*x + 857"],
                ["solve", "--xn", "2", "--xm", "1", "--fn", "3", "--fm", "2"],
                ["decide", "P[3,5,1,2](0, 100)"], ["f", "7"]]
    code = (f"import sys, beatty.cli\nfor argv in {commands!r}:\n    beatty.cli.run(argv)\n"
            "print(sorted({'argparse', 'dataclasses', 'inspect', 'json', 'typing', 'fractions',"
            " 'decimal', 'numbers', 'contextlib'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=env)
    assert out.stdout.splitlines() == ["True (exact); witness 4", "witness 5",
                                       "True (exact); witness 76", "11", "[]"], out.stderr


_LAZY = {"beatty.congruence", "beatty.logic", "beatty.windows", "re", "__future__"}
_DECIDE = _LAZY - {"__future__"}  # no module imports __future__


# (argv, exit code, stdout, which of _LAZY it loads; window's re is not pinned, since
# fractions imports it)
@pytest.mark.parametrize("argv, code, out, loaded", [
    (["f", "7"], 0, "11\n", set()),
    (["inv", "11"], 0, "7\n", set()),
    (["zeck", "100"], 0, "3 5 10\n", set()),
    (["word", "20"], 0, "10110101101101011010\n", set()),
    (["c", "5"], 0, "0\n", set()),
    (["pisano", "10"], 0, "60\n", set()),
    (["solve", "--xn", "2", "--xm", "1", "--fn", "3", "--fm", "2"], 0, "witness 5\n",
     {"beatty.congruence"}),
    (["window", "<", "3/2", "1"], 0, "union: [1, 9]; [11, 11]\n",
     {"beatty.windows", "beatty.congruence"}),
    (["decide", "exists x. x > 3"], 0, "True (exact); witness 4\n", _DECIDE),
    (["decide", "exists x. x >"], 64, "", _DECIDE),
], ids=["f", "inv", "zeck", "word", "c", "pisano", "solve", "window", "decide", "malformed"])
def test_each_command_loads_logic_and_windows_only_if_it_needs_them(argv, code, out, loaded):
    """In a fresh interpreter under -S, where site imports nothing (re included)."""
    script = (f"import sys\nfrom beatty.cli import run\ncode = run({argv!r})\n"
              f"print(code, *sorted({sorted(_LAZY)!r} & sys.modules.keys()))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=env)
    *lines, last = proc.stdout.splitlines(keepends=True)
    got_code, *got_loaded = last.split()
    if argv[0] == "window":
        got_loaded.remove("re")
    assert ("".join(lines), int(got_code), set(got_loaded)) == (out, code, loaded)
    assert proc.stderr == ("parse error: unexpected end of input at offset 13\n" if code else "")


def test_importing_the_cli_loads_four_modules_of_the_package():
    """In a fresh interpreter under -S: congruence, logic and windows wait for their commands."""
    script = "import sys, beatty.cli\nprint(*sorted(m for m in sys.modules if 'beatty' in m))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.stdout == "beatty beatty.cli beatty.golden beatty.numeration\n", proc.stderr


# beatty's public names by home module, as the package bound them when it imported all five
PUBLIC = {
    "congruence": ["Congruence", "CongruenceSystem", "SolveOutcome", "crt_combine", "solve_image",
                   "solve_system"],
    "golden": ["additivity_defect", "decompose", "f_floor", "f_inverse", "f_zeck",
               "linear_defect", "phi_ceil", "phi_floor", "phi_mul", "phi_norm", "phi_sign"],
    "logic": ["Decision", "axiom_audit", "decide", "decide_existential_nf", "evaluate",
              "format_formula", "parse", "to_normal_form"],
    "numeration": ["c", "fib", "fib_word_prefix", "pisano", "unzeckendorf", "zeckendorf"],
    "windows": ["LinearConstraint", "WindowSet", "axiom_v_check", "convergent_d", "convergent_u",
                "locate_slope", "solution_window"],
}


def test_package_names_resolve_to_their_home_modules():
    namespace = {}
    exec("from beatty import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted([*PUBLIC, *(n for names in PUBLIC.values() for n in names)])
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"beatty.{module}")
        assert namespace[module] is home
        for name in names:
            assert name in dir(beatty)
            assert getattr(beatty, name) is getattr(home, name) is namespace[name]
    with pytest.raises(AttributeError):
        beatty.no_such_name  # noqa: B018


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, full_stdout, code", [
    (["f", "x"], False, cli.EXIT_USAGE),
    (["word", "20"], True, cli.EXIT_IOERR),
], ids=["usage error", "unwritable stdout"])
def test_an_unwritable_stderr_keeps_the_exit_code(argv, full_stdout, code):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "beatty", *argv], env=env,
                              stdout=full if full_stdout else subprocess.DEVNULL, stderr=full)
    assert proc.returncode == code
