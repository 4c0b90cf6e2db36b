#!/usr/bin/env python3
"""Compare the CLI's output at the working tree with its output at a revision.

    python scripts/differential.py REV [--seeds 1,2,3]

For each seed, the four perfbench corpora are built with
``perfbench/corpus.py`` at the sizes ``perfbench/run.py --seconds 25`` runs,
warm-up queries included.  Every argv goes through ``beatty.cli.run`` in
one fresh interpreter per tree: once for the working tree, and once for
REV's ``src``, exported with ``git archive`` into a temporary directory
that is removed afterwards.  The ``elapsed_s`` value of ``--json`` output
is masked.  The argv of each command whose stdout, stderr or exit code
differs is printed, then one summary line; the exit status is 1 if any
command differs, and 0 if none does.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402
import run  # noqa: E402

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
# The corpus sizes are those of a bench run of this many seconds.
SECONDS = 25


def argvs(seeds: list[int]) -> list[list[str]]:
    """Every argv of every workload's corpus, warm-up first, seed by seed."""
    out = []
    for seed in seeds:
        for workload in corpus.WORKLOADS:
            warmup, queries = corpus.build(workload, seed, run.run_size(workload, SECONDS),
                                           run.WARMUP[workload])
            out += [q["argv"] for q in warmup + queries]
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
