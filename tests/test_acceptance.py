"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 7 is implemented exactly as stated and is expected to FAIL: the
convergent-substituted implications it asserts are not valid in the standard
model at fixed small indices (counterexample: slope 1, offset 2, index 1,
x = 5: f(5) = 8 > 7 yet 5 < 6 = (2+1)/(3/2 - 1)).  See the windows module
tests for the pinned counterexamples and axiom_v_check(only_integer_rhs=True)
with least_adequate_index for the form of the statement that does hold.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from beatty.congruence import (
    Congruence,
    CongruenceSystem,
    solve_image,
    solve_system,
)
from beatty.golden import decompose, f_floor, f_zeck
from beatty.logic import EXACT, ParseError, axiom_audit, decide, evaluate, format_formula, parse
from beatty.numeration import fib, pisano
from beatty.windows import LinearConstraint, locate_slope, axiom_v_check, solution_window
from formula_gen import nf_brute_holds, nf_brute_witness, random_formula, random_nf_sentence

GRID_SLOPES = [Fraction(0, 1), Fraction(1, 1), Fraction(3, 2), Fraction(8, 5),
               Fraction(5, 3), Fraction(2, 1), Fraction(13, 8)]
GRID_OFFSETS = range(-8, 9)


def test_criterion_01_dual_evaluator():
    started = time.perf_counter()
    mismatches = sum(1 for x in range(1, 1_000_001) if f_floor(x) != f_zeck(x))
    elapsed = time.perf_counter() - started
    print(f"criterion 01 dual evaluator on [1, 10^6]: "
          f"{'PASS' if mismatches == 0 else 'FAIL'} ({elapsed:.1f}s)")
    assert mismatches == 0
    assert elapsed < 30


def test_criterion_02_beatty_partition():
    started = time.perf_counter()
    limit = 100_000
    counts = bytearray(limit + 1)
    for x in range(1, limit + 1):
        fx = f_floor(x)
        for value in (fx, fx + x):
            if value <= limit:
                counts[value] += 1
    coverage_ok = all(counts[n] == 1 for n in range(1, limit + 1))
    decompose_ok = True
    for n in range(1, limit + 1):
        d = decompose(n)
        value = f_floor(d.x) + (d.x if d.kind == "G" else 0)
        if value != n:
            decompose_ok = False
            break
    elapsed = time.perf_counter() - started
    ok = coverage_ok and decompose_ok
    print(f"criterion 02 beatty partition on [1, 10^5]: "
          f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert coverage_ok and decompose_ok
    assert elapsed < 10


def test_criterion_03_axiom_audit():
    started = time.perf_counter()
    report = axiom_audit(10_000)
    elapsed = time.perf_counter() - started
    for family in report.families:
        print(f"criterion 03   {family.name}: "
              f"{'PASS' if family.passed else 'FAIL ' + str(family.failures[:2])}")
    print(f"criterion 03 axiom audit at 10^4: "
          f"{'PASS' if report.passed else 'FAIL'} ({elapsed:.1f}s)")
    assert report.passed
    assert elapsed < 60


def test_criterion_04_image_congruences():
    unknowns = 0
    for n in range(1, 31):
        for m in range(n):
            x = solve_image(n, m)  # raises SearchExhausted on cap, counts as unknown
            assert f_floor(x) % n == m
    print(f"criterion 04 image congruence solver (n <= 30): PASS "
          f"({sum(range(1, 31))} queries, {unknowns} unknown)")
    assert unknowns == 0


def test_criterion_05_pair_systems():
    rng = random.Random(1405)
    systems = [(n, m, n2, m2)
               for n, n2 in itertools.product(range(1, 9), repeat=2)
               for m in range(n) for m2 in range(n2)]
    big = [(n, m, n2, m2)
           for n, n2 in itertools.product(range(1, 21), repeat=2)
           if max(n, n2) > 8
           for m in range(n) for m2 in range(n2)]
    systems += rng.sample(big, 2000 - len(systems))
    fallback_hits = 0
    for n, m, n2, m2 in systems:
        out = solve_system(CongruenceSystem(Congruence(n, m), Congruence(n2, m2)))
        assert out.is_witness, (n, m, n2, m2, out)
        assert out.witness % n == m and f_floor(out.witness) % n2 == m2
        fallback_hits += out.fallback_used
        # brute-force existence concurs
        x, found = m if m >= 1 else n, False
        for _ in range(10**6):
            if f_floor(x) % n2 == m2:
                found = True
                break
            x += n
        assert found
    print(f"criterion 05 pair systems ({len(systems)} sampled): PASS "
          f"(0 unknown, {fallback_hits} fallback hits)")
    assert fallback_hits == 0


def test_criterion_06_solution_windows():
    started = time.perf_counter()
    limit = 10_000
    fv = [0] * (limit + 1)
    for x in range(1, limit + 1):
        fv[x] = f_floor(x)
    checked = 0
    for slope in GRID_SLOPES:
        for offset in GRID_OFFSETS:
            for relation in "<=>":
                constraint = LinearConstraint(relation, slope, offset)
                window = solution_window(constraint)
                n, m, c0 = constraint.integer_form()
                if relation == "<":
                    brute = [x for x in range(1, limit + 1) if n * fv[x] < m * x + c0]
                elif relation == "=":
                    brute = [x for x in range(1, limit + 1) if n * fv[x] == m * x + c0]
                else:
                    brute = [x for x in range(1, limit + 1) if n * fv[x] > m * x + c0]
                assert [x for x in range(1, limit + 1) if x in window] == brute, constraint
                checked += 1
    elapsed = time.perf_counter() - started
    print(f"criterion 06 solution windows ({checked} constraints, x <= 10^4): "
          f"PASS ({elapsed:.1f}s)")
    assert checked == 357
    assert elapsed < 60


def test_criterion_07_convergent_implications():
    # Faithful to the stated criterion: zero counterexamples on the grid at
    # indices bracket+1 and bracket+3.  The claim is false in the standard
    # model (see module docstring); this test documents the defect and fails.
    failures = []
    for slope in GRID_SLOPES:
        j = locate_slope(slope).index
        for offset in GRID_OFFSETS:
            for index in (j + 1, j + 3):
                report = axiom_v_check(slope, offset, index, 10_000)
                if not report.passed:
                    failures.append((slope, offset, index, report.counterexamples[0]))
    status = "PASS" if not failures else f"FAIL ({len(failures)} instances, first: " \
        f"slope={failures[0][0]} offset={failures[0][1]} i={failures[0][2]} x={failures[0][3]})"
    print(f"criterion 07 convergent implications at j+1, j+3: {status}")
    assert not failures, (
        "the convergent-substituted implications fail in the standard model; "
        f"first counterexample: {failures[0]}"
    )


def test_criterion_08_decider_against_oracle():
    rng = random.Random(1408)
    agreements = 0
    for _ in range(200):
        sentence, data = random_nf_sentence(rng, max_modulus=12, max_width=10_000)
        decision = decide(sentence)
        assert decision.provenance == EXACT and decision.truth is not None
        witness = nf_brute_witness(data)
        assert decision.truth is (witness is not None), (format_formula(sentence), witness)
        if decision.truth:
            assert nf_brute_holds(data, decision.witness)
            assert evaluate(sentence.body, {"x": decision.witness}).truth is True
        agreements += 1
    print(f"criterion 08 decider vs oracle: PASS ({agreements}/200 agree, "
          f"all witnesses verified)")
    assert agreements == 200


def test_criterion_09_parser_round_trip(capsys):
    rng = random.Random(1409)
    for _ in range(1000):
        ast = random_formula(rng, depth=6)
        assert parse(format_formula(ast)) == ast
    malformed = ["f(x", "exists . f(x) = 1", "x <", "(x < 1", "p0(x)",
                 "P[2,3](x, y)", "x @ 1", "exists f. f < 1", "1 + < 2",
                 "forall x x < 1"]
    from beatty.cli import run
    for text in malformed:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert isinstance(err.value.position, int)
        assert run(["decide", text]) == 64
    capsys.readouterr()
    print("criterion 09 parser: PASS (1000 round-trips, 10 positioned errors, exit 64)")


def test_criterion_10_pisano():
    assert pisano(2) == 3
    assert pisano(3) == 8
    assert pisano(10) == 60
    for n in range(1, 51):
        period = pisano(n)
        values = [fib(i) % n for i in range(4 * period + 1)]
        assert all(values[i + period] == values[i] for i in range(3 * period))
    print("criterion 10 pisano: PASS (spot values and periodicity to n = 50)")
