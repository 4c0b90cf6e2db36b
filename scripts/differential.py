#!/usr/bin/env python3
"""Compare the CLI's output at the working tree with its output at a revision.

    python scripts/differential.py REV [--seeds 1,2,3]

For each seed, the four perfbench corpora are built with
``perfbench/corpus.py`` at the sizes ``perfbench/run.py --seconds 25`` runs,
warm-up queries included, and 2,000 closed random sentences are drawn with
``random_formula(random.Random(seed), 5)`` of ``tests/formula_gen.py``, each
run as ``decide <sentence> --bound 100``.  Then each sentence is run once
more, made malformed by one edit drawn from the same generator: one token
deleted, one duplicated, two neighbours swapped, or one of ``( ) & ! . ,``
inserted, so that parse errors (message, offset, exit code) are compared
too; the variant's tokens are joined by single spaces.  Then 2,000 of the
seed's corpus ``solve``, ``window``, ``decide`` and ``f`` argv are drawn from
the same generator and run with one edit to their argv grammar: an option
written ``--name=value``, cut to a unique or ambiguous prefix, repeated, or
moved before the positionals; ``--json`` or ``--`` inserted; or a value
replaced by an option or a negative number.  Last, two more variants of
each random sentence are drawn from a second generator,
``random.Random(f"windows {seed}")``, so that the commands above stay the
same: its tokens joined by runs of spaces, more than 800 characters in all,
so that the parser's scan windows (256 characters, then twice the last) end
inside it; and, where it has an integer, its tokens joined by single spaces
with one integer replaced by ``MAX_LITERAL_DIGITS + 1`` digits.  Every argv
goes through ``beatty.cli.run`` in one fresh interpreter per tree: once for
the working tree, and once for REV's ``src``, exported with ``git archive``
into a temporary directory that is removed afterwards.  The ``elapsed_s``
value of ``--json`` output is masked.  The argv of each command whose stdout, stderr or exit code
differs is printed, then one summary line; the exit status is 1 if any
command differs, and 0 if none does.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests")]

import corpus  # noqa: E402
import run  # noqa: E402
from formula_gen import random_formula  # noqa: E402

from beatty.logic import MAX_LITERAL_DIGITS, format_formula  # noqa: E402

# Runs in the fresh interpreter: argv lists on stdin, [exit code, stdout,
# stderr] per argv on stdout; an exception that escapes run() is named in
# place of the exit code.
CHILD = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from beatty.cli import run
answers = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except BaseException as exc:
            code = "raised " + type(exc).__name__
    answers.append([code, out.getvalue(), err.getvalue()])
json.dump(answers, sys.stdout)
"""
ELAPSED = re.compile(r'"elapsed_s": "[^"]*"')
# a token of a formula as the printer writes it: an operator, digits, a name
TOKEN = re.compile(r"->|<=|>=|!=|\d+|\w+|\S")
# The corpus sizes are those of a bench run of this many seconds.
SECONDS = 25


def malformed(rng: random.Random, text: str) -> str:
    """text with one edit drawn from rng: a token deleted, duplicated or
    swapped with the next, or one of ( ) & ! . , inserted before it."""
    tokens = TOKEN.findall(text)
    k, edit = rng.randrange(len(tokens)), rng.randrange(4)
    if edit == 0:
        del tokens[k]
    elif edit == 1:
        tokens.insert(k, tokens[k])
    elif edit == 2 and k + 1 < len(tokens):
        tokens[k], tokens[k + 1] = tokens[k + 1], tokens[k]
    else:
        tokens.insert(k, rng.choice("()&!.,"))
    return " ".join(tokens)


def spaced(rng: random.Random, text: str) -> str:
    """text's tokens, each followed by a run of spaces drawn from rng, more
    than 800 characters in all."""
    tokens = TOKEN.findall(text)
    gaps = [rng.randint(1, 40) for _ in tokens]
    gaps[rng.randrange(len(gaps))] += max(0, 801 - sum(map(len, tokens)) - sum(gaps))
    return "".join(token + " " * gap for token, gap in zip(tokens, gaps))


def long_literal(rng: random.Random, text: str) -> str | None:
    """text with one of its integers, drawn from rng, replaced by
    MAX_LITERAL_DIGITS + 1 digits; None where it has no integer."""
    tokens = TOKEN.findall(text)
    integers = [k for k, token in enumerate(tokens) if token.isdigit()]
    if not integers:
        return None
    tokens[rng.choice(integers)] = "".join(rng.choices("0123456789", k=MAX_LITERAL_DIGITS + 1))
    return " ".join(tokens)


def grammar_variant(rng: random.Random, argv: list[str]) -> list[str]:
    """argv with one edit drawn from rng: an option written --name=value, cut
    to a prefix, repeated with a value drawn from rng (before or after it),
    or moved before the positionals; --json or -- inserted; or a value
    replaced by an option or a negative number.  Where argv has nothing the
    edit needs, --json or -- is inserted."""
    argv = list(argv)
    options = [k for k in range(1, len(argv)) if argv[k].startswith("--") and len(argv[k]) > 3]
    valued = [k for k in options if argv[k] != "--json" and k + 1 < len(argv)]
    values = [k for k in range(1, len(argv)) if k not in options]
    edit = rng.randrange(6)
    if edit == 0 and valued:
        k = rng.choice(valued)
        argv[k:k + 2] = [f"{argv[k]}={argv[k + 1]}"]
    elif edit == 1 and options:
        k = rng.choice(options)
        argv[k] = argv[k][:rng.randrange(3, len(argv[k]))]
    elif edit == 2 and valued:
        k = rng.choice(valued)
        argv[rng.choice([1, len(argv)]):0] = [argv[k], str(rng.randrange(100))]
    elif edit == 3 and options:
        k = rng.choice(options)
        moved = argv[k:k + 1 + (k in valued)]
        del argv[k:k + len(moved)]
        argv[1:1] = moved
    elif edit == 4 and values:
        others = [argv[k] for k in options] + ["--json", "--help", "-h", "--", "-0"]
        argv[rng.choice(values)] = rng.choice(others + [f"-{rng.randrange(1, 100)}"])
    else:
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(["--json", "--"]))
    return argv


def argvs(seeds: list[int]) -> list[list[str]]:
    """Every argv of every workload's corpus, warm-up first, then those of
    the seed's 2,000 random sentences and of their malformed variants, then
    2,000 grammar variants of the corpus argv, then the sentences spaced out
    and with a long literal, seed by seed."""
    out = []
    for seed in seeds:
        commands = []
        for workload in corpus.WORKLOADS:
            warmup, queries = corpus.build(workload, seed, run.run_size(workload, SECONDS),
                                           run.WARMUP[workload])
            commands += [q["argv"] for q in warmup + queries]
        rng = random.Random(seed)
        sentences = [format_formula(random_formula(rng, 5)) for _ in range(2000)]
        commands += [["decide", text, "--bound", "100"]
                     for text in sentences + [malformed(rng, text) for text in sentences]]
        varied = [argv for argv in commands[:-4000]
                  if argv[0] in ("solve", "window", "decide", "f")]
        out += commands + [grammar_variant(rng, argv) for argv in rng.sample(varied, 2000)]
        windowed = random.Random(f"windows {seed}")
        texts = [spaced(windowed, text) for text in sentences]
        texts += filter(None, [long_literal(windowed, text) for text in sentences])
        out += [["decide", text, "--bound", "100"] for text in texts]
    return out


def answers(tree: Path, commands: list[list[str]]) -> list[list]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0"}
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(commands), env=env,
                          cwd=tree, capture_output=True, text=True, check=True, timeout=3600)
    return [[code, ELAPSED.sub('"elapsed_s": "*"', out), err]
            for code, out, err in json.loads(proc.stdout)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="the git revision to compare with")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated corpus seeds")
    args = parser.parse_args()

    commands = argvs([int(s) for s in args.seeds.split(",")])
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.rev, "src"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        theirs = answers(Path(tmp), commands)
    ours = answers(ROOT, commands)
    differ = [argv for argv, a, b in zip(commands, ours, theirs) if a != b]
    for argv in differ:
        print(json.dumps(argv))
    print(f"{len(differ)} of {len(commands)} commands differ from {args.rev} "
          f"in stdout, stderr or exit code (seeds {args.seeds})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
