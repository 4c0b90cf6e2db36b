"""Checks of the benchmark's own reference and answer checker.

Run with ``python3 -m unittest discover -s perfbench`` (or pytest on this
file).  Nothing here imports the package under test: the point is that a
corrupted answer, witness or window boundary is flagged.
"""

import json
import random
import sys
import unittest
from decimal import Decimal, getcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import reference as ref  # noqa: E402


def decimal_floor_phi(x: int, digits: int) -> int:
    getcontext().prec = digits
    phi = (1 + Decimal(5).sqrt()) / 2
    return int((phi * x).to_integral_value(rounding="ROUND_FLOOR"))


def query(argv, **expect):
    return {"argv": argv, "kind": "test", "expect": expect}


class ArithmeticTest(unittest.TestCase):
    def test_phi_floor_against_decimal(self):
        rng = random.Random(3)
        for _ in range(2000):
            x = rng.randint(1, 10 ** rng.randint(1, 80))
            self.assertEqual(ref.phi_floor(x), decimal_floor_phi(x, 120))
        self.assertEqual([ref.phi_floor(x) for x in range(-2, 11)],
                         [0, 0, 0, 1, 3, 4, 6, 8, 9, 11, 12, 14, 16])

    def test_numeration(self):
        self.assertEqual(ref.zeckendorf_indices(100), [3, 5, 10])
        self.assertEqual(ref.pisano_period(10), 60)
        self.assertEqual(ref.fib_word(8), "10110101")
        self.assertEqual(ref.phi_inverse(11), 7)
        self.assertIsNone(ref.phi_inverse(2))

    def test_single_variable_truth(self):
        x = ("v", "x")
        fx = ("f", x)
        # f(x) = x + 1 has the witness x = -1 (f vanishes there) and x = 2
        self.assertEqual(ref.least_witness("x", ("=", fx, ("+", x, ("k", 1)))), -1)
        # 2 f(x) > 3 x + 1 holds for all large x, since phi > 3/2
        body = ("&", ("<", ("k", 0), x), (">", ("*", 2, fx), ("+", ("*", 3, x), ("k", 1))))
        self.assertIsNotNone(ref.least_witness("x", body))
        # f(x) = 3x has no solution with x > 0
        body = ("&", ("<", ("k", 0), x), ("=", fx, ("*", 3, x)))
        self.assertIsNone(ref.least_witness("x", body))


class JudgeTest(unittest.TestCase):
    def judge(self, q, code, stdout, exc=None):
        return ref.judge(q, code, exc, stdout)[0]

    def test_value_corrupted(self):
        q = query(["f", "7"], check="value", field="value", value="11", code=0)
        self.assertEqual(self.judge(q, 0, "11\n"), ref.OK)
        self.assertEqual(self.judge(q, 0, "12\n"), ref.WRONG)
        q = query(["f", "7", "--json"], check="value", field="value", value="11", code=0)
        self.assertEqual(self.judge(q, 0, json.dumps({"result": {"value": "11"}})), ref.OK)
        self.assertEqual(self.judge(q, 0, json.dumps({"result": {"value": "10"}})), ref.WRONG)

    def test_decide_witness_and_verdict_corrupted(self):
        x = ("v", "x")
        sentence = ("E", "x", ("&", ("<", ("k", 0), x), ("=", ("f", x), ("+", x, ("k", 1)))))
        q = query(["decide", ref.render(sentence)], check="decide", sentence=sentence,
                  truth=True, bounded_truth=True, bound=10_000)
        self.assertEqual(self.judge(q, 0, "True (exact); witness 2\n"), ref.OK)
        self.assertEqual(self.judge(q, 0, "True (exact); witness 4\n"), ref.UNVERIFIED)
        self.assertEqual(self.judge(q, 1, "False (exact)\n"), ref.WRONG)
        self.assertEqual(self.judge(q, 1, "True (exact); witness 2\n"), ref.UNVERIFIED)
        self.assertEqual(self.judge(q, 2, "unknown: cap\n"), ref.OK)

    def test_decide_counterexample_corrupted(self):
        x, y = ("v", "x"), ("v", "y")
        f = lambda t: ("f", t)  # noqa: E731
        body = ("|", ("<", x, ("k", 5)),
                ("<", f(("+", x, y)), ("+", ("+", f(x), f(y)), ("k", 1))))
        sentence = ("A", "x", ("A", "y", body))
        q = query(["decide", ref.render(sentence), "--bound", "40"], check="decide",
                  sentence=sentence, truth=False, bounded_truth=False, bound=40)
        self.assertEqual(self.judge(q, 1, "False (exact); counterexample 5\n"), ref.OK)
        self.assertEqual(self.judge(q, 1, "False (exact); counterexample 4\n"), ref.UNVERIFIED)
        self.assertEqual(self.judge(q, 0, "True (bounded to 40)\n"), ref.WRONG)

    def test_solve_witness_corrupted(self):
        system = (2, 1, 3, 2, None, None)
        q = query(["solve"], check="solve", truth=True, system=system)
        self.assertEqual(self.judge(q, 0, "witness 46369\n"), ref.OK)
        self.assertEqual(self.judge(q, 0, "witness 46370\n"), ref.UNVERIFIED)
        self.assertEqual(self.judge(q, 1, "no solution\n"), ref.WRONG)
        self.assertEqual(self.judge(q, 64, ""), "exit:64")

    def test_window_boundary_corrupted(self):
        q = query(["window", "=", "3/2", "0"], check="window", rel="=", slope="3/2", offset=0)
        self.assertEqual(self.judge(q, 0, "union: [2, 8] with x = 0 (mod 2)\n"), ref.OK)
        self.assertEqual(self.judge(q, 0, "union: [2, 10] with x = 0 (mod 2)\n"), ref.UNVERIFIED)
        self.assertEqual(self.judge(q, 0, "union: [4, 8] with x = 0 (mod 2)\n"), ref.UNVERIFIED)
        self.assertEqual(self.judge(q, 1, "empty\n"), ref.UNVERIFIED)
        piece = {"lo": "2", "hi": "8", "mod": "2", "res": "0"}
        q["argv"] = q["argv"] + ["--json"]
        good = json.dumps({"result": {"kind": "union", "pieces": [piece]}})
        bad = json.dumps({"result": {"kind": "union", "pieces": [{**piece, "hi": "6"}]}})
        self.assertEqual(self.judge(q, 0, good), ref.OK)
        self.assertEqual(self.judge(q, 0, bad), ref.UNVERIFIED)

    def test_failure_classes(self):
        q = query(["decide", "(" * 3000], check="usage")
        self.assertEqual(self.judge(q, 64, ""), ref.OK)
        self.assertEqual(self.judge(q, None, "", exc="RecursionError"), "exception:RecursionError")
        self.assertEqual(self.judge(q, 1, ""), "exit:1")
        self.assertEqual(self.judge(q, None, "", exc="timeout"), ref.TIMEOUT)


class CorpusTest(unittest.TestCase):
    def test_deterministic_and_distinct(self):
        for workload in corpus.WORKLOADS:
            first = corpus.build(workload, 5, 60, 3)
            again = corpus.build(workload, 5, 60, 3)
            other = corpus.build(workload, 6, 60, 3)
            digest = corpus.corpus_hash(first[0] + first[1])
            self.assertEqual(digest, corpus.corpus_hash(again[0] + again[1]))
            self.assertNotEqual(digest, corpus.corpus_hash(other[0] + other[1]))
            argvs = [tuple(q["argv"]) for q in first[0] + first[1]]
            self.assertEqual(len(argvs), len(set(argvs)))
            self.assertFalse(any("--cap" in a for a in argvs))


if __name__ == "__main__":
    unittest.main()
