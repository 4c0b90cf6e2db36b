#!/usr/bin/env python3
"""Seeded, self-checking benchmark for the beatty package.

    python3 perfbench/run.py --workload decide_nf --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One closed-loop client in one worker process sends a seeded corpus of CLI
queries through ``beatty.cli.run`` in process and times each call.  The
corpus and its references are computed here first, without importing the
package; the worker receives only argv lists.  The corpus size is fixed
by the workload and ``--seconds`` (sized so that the timed pass takes
about that long at the seed state), and every query in it runs: the same
seed gives the same work, the same answers to check and the same
failures, however fast the host is.  After the timed pass every
answer is checked here (with the int-to-str digit limit lifted) and the
end-to-end metrics are printed, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 1`` the worker instead runs half the corpus untraced and
then the other half traced (see tracing.py), and the metrics
are the per-layer ones.  Exit status is 0 whenever the benchmark ran, and
non-zero (with no JSON line) when it could not, e.g. when the package
source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import corpus
import reference
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 21
SPEED_WINDOW = 5       # kernel samples on each side of a query (50 ms apart)
LIMIT_S = 2.0          # per-query wall-clock limit
MIN_QUERIES = 100      # so that at least ten samples lie beyond p90
RUN_DEADLINE_S = 170   # the whole run, set-up and checking included
WARMUP = {"decide_nf": 5, "solve_pairs": 40, "decide_bounded": 2, "cli_small": 100}
# the layer each workload is meant to load (after cli itself)
LOADED = {"decide_nf": "windows", "solve_pairs": "congruence",
          "decide_bounded": "logic", "cli_small": "cli"}

UNITS = {
    "setup_s": "s", "queries_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "exact_share": "ratio", "answered_share": "ratio",
    "ok_share": "ratio", "peak_rss_mb": "MiB",
}
# Printed, but left out of the JSON result: on decide_nf the 90th
# percentile falls where query costs are sparse and moves by 20-40% from
# seed to seed, more than any regression bound could allow.
UNGATED = {"latency_p90_ms"}


def _env() -> dict:
    """Environment of the set-up samples and the worker.  Byte code is
    written whatever the caller's PYTHONDONTWRITEBYTECODE says, so that
    set-up time is that of an installed package, not of compiling it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup() -> tuple[float, float]:
    """(set-up time at reference speed, as measured): medians over fresh
    interpreters that each import beatty.cli.  Each sample is scaled by the
    speed kernel timed here, three times before and three times after it
    (a fresh interpreter's own first kernel runs are too uneven).  One
    untimed import first writes byte code, as a user's first call does."""
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        kernel_s = [speed.kernel_seconds() for _ in range(3)]
        proc = subprocess.run([sys.executable, str(HERE / "speed.py")], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        kernel_s += [speed.kernel_seconds() for _ in range(3)]
        import_s = float(proc.stdout)
        if i:
            raw.append(import_s)
            scaled.append(import_s * speed.REFERENCE_S / statistics.median(kernel_s))
    return statistics.median(scaled), statistics.median(raw)


def run_size(workload: str, seconds: float) -> int:
    """Queries in a run: what the seed state runs in `seconds` on the
    reference host, in whole twin-block pairs (one block of each pair goes
    to each half of a traced run), and at least MIN_QUERIES."""
    _, block, rate = corpus.WORKLOADS[workload]
    pair = 2 * block
    return pair * math.ceil(max(MIN_QUERIES, rate * seconds) / pair)


def run_worker(job: dict, deadline: float) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(job), env=_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(10.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise SystemExit("worker passed the run deadline and was stopped") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout)


def judge_all(queries: list[dict], results: list) -> list[tuple]:
    """(query, failure class, exact, answered, seconds) per query run."""
    return [(q, *reference.judge(q, r[0], r[1], r[2]), r[3]) for q, r in zip(queries, results)]


def local_scales(results: list, kernel_s: list[float]) -> list[float]:
    """Per query, reference speed over the speed measured around it: the
    mean of the kernel samples within SPEED_WINDOW of the query's own."""
    scales = []
    for r in results:
        j = r[4]
        near = kernel_s[max(0, j - SPEED_WINDOW):j + SPEED_WINDOW + 1]
        scales.append(speed.REFERENCE_S * len(near) / sum(near))
    return scales


def summarize(judged: list[tuple]) -> dict:
    classes = Counter(j[1] for j in judged if j[1] != reference.OK)
    return {
        "attempted": len(judged),
        "failed": sum(classes.values()),
        "correct": not (classes[reference.WRONG] or classes[reference.UNVERIFIED]),
        "classes": classes,
    }


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) distribution.  It
    varies far less from sample to sample than a single order statistic
    where the distribution has gaps, as query costs here do."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 20  # trapezoid steps per order statistic for the Beta CDF

    def pdf(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    total, weighted, prev = 0.0, 0.0, pdf(0.0)
    for i, x in enumerate(xs):
        mass = 0.0
        for j in range(1, steps + 1):
            cur = pdf((i * steps + j) / (n * steps))
            mass += (prev + cur) / (2 * n * steps)
            prev = cur
        total += mass
        weighted += mass * x
    return weighted / total


def end_to_end(judged: list[tuple], wall_s: float, scales: list[float], setup_s: float,
               rss_mb: float) -> dict:
    """Each query's time is multiplied by its scale (reference speed over
    measured speed); the wall time by their time-weighted mean."""
    n = len(judged)
    ms = [j[4] * 1000 * s for j, s in zip(judged, scales)]
    busy = sum(j[4] for j in judged)
    ok = [j for j in judged if j[1] == reference.OK]
    return {
        "setup_s": setup_s,
        "queries_per_s": n * busy / (wall_s * sum(ms) / 1000),
        "latency_p50_ms": harrell_davis(ms, 0.5),
        "latency_p90_ms": harrell_davis(ms, 0.9),
        "exact_share": sum(1 for j in ok if j[2]) / n,
        "answered_share": sum(1 for j in ok if j[3]) / n,
        "ok_share": len(ok) / n,
        "peak_rss_mb": rss_mb,
    }


def print_report(workload, seed, digest, judged, summary, wall_s) -> None:
    print(f"workload {workload}  seed {seed}  corpus {digest} "
          f"({summary['attempted']} queries run in {wall_s:.2f} s)")
    error_rate = summary["failed"] / max(1, summary["attempted"])
    classes = ", ".join(f"{k} {v}" for k, v in sorted(summary["classes"].items())) or "none"
    print(f"  error_rate {error_rate:.4f} ratio  (failed {summary['failed']} of "
          f"{summary['attempted']}: {classes})")
    kinds = Counter(j[0]["kind"] for j in judged)
    bad = Counter(j[0]["kind"] for j in judged if j[1] != reference.OK)
    unexact = Counter(j[0]["kind"] for j in judged if j[1] == reference.OK and not j[2])
    print("  kinds: " + ", ".join(
        f"{k} {kinds[k]} (failed {bad[k]}, not exact {unexact[k]})" for k in sorted(kinds)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "beatty" / "cli.py").is_file():
        sys.exit(f"package source not found under {SRC}; run from a checkout of the repository")
    if args.workload == "all":
        run_all(args)
        return

    deadline = perf_counter() + RUN_DEADLINE_S
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # this process only checks answers
    setup_s, setup_raw_s = measure_setup()

    count = run_size(args.workload, args.seconds)
    warmup, queries = corpus.build(args.workload, args.seed, count, WARMUP[args.workload])
    digest = corpus.corpus_hash(warmup + queries)
    job = {"warmup": [q["argv"] for q in warmup], "limit_s": LIMIT_S, "trace": args.trace}

    if not args.trace:
        job["queries"] = [q["argv"] for q in queries]
        reply = run_worker(job, deadline)
        judged = judge_all(queries, reply["results"])
        summary = summarize(judged)
        scales = local_scales(reply["results"], reply["kernel_s"])
        metrics = end_to_end(judged, reply["wall_s"], scales, setup_s, reply["peak_rss_mb"])
        as_measured = end_to_end(judged, reply["wall_s"], [1.0] * len(judged), setup_raw_s,
                                 reply["peak_rss_mb"])
        print_report(args.workload, args.seed, digest, judged, summary, reply["wall_s"])
        kernel_ms = statistics.median(reply["kernel_s"]) * 1e3
        print(f"  speed kernel median {kernel_ms:.4f} ms over {len(reply['kernel_s'])} samples "
              f"(reference {speed.REFERENCE_S * 1e3:.4f} ms); times are scaled to the reference")
        for name, value in metrics.items():
            print(f"  {name:<16} {value:<12.6g} {UNITS[name]:<6} as measured {as_measured[name]:.6g}")
    else:
        # alternate blocks, so that both halves hold the same mix of queries
        block = corpus.WORKLOADS[args.workload][1]
        halves = ([], [])
        for i, q in enumerate(queries):
            halves[(i // block) % 2].append(q)
        OUT_DIR.mkdir(exist_ok=True)
        job.update(queries=[q["argv"] for q in halves[0]],
                   traced_queries=[q["argv"] for q in halves[1]],
                   spans_path=str(OUT_DIR / f"spans-{args.workload}.tsv"))
        reply = run_worker(job, deadline)
        judged = (judge_all(halves[0], reply["plain_results"])
                  + judge_all(halves[1], reply["traced_results"]))
        summary = summarize(judged)
        metrics = reply["per_layer"]
        print_report(args.workload, args.seed, digest, judged, summary,
                     reply["plain_wall_s"] + reply["traced_wall_s"])
        print(f"  untraced half {reply['plain_wall_s']:.2f} s, traced half "
              f"{reply['traced_wall_s']:.2f} s, {metrics['trace.queries']} queries each")
        for name in sorted(metrics):
            print(f"  {name:<36} {metrics[name]:.6g}")
        print_layer_ranking(args.workload, metrics)

    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": {k: {"value": v, "unit": UNITS.get(k, _layer_unit(k))}
                                  for k, v in metrics.items() if k not in UNGATED}}))


def print_layer_ranking(workload: str, metrics: dict) -> None:
    """Whether the layer the workload is meant to load carries the largest
    self-time share (after cli, unless cli is the loaded layer)."""
    shares = sorted(((metrics[f"layer.{layer}.self_share"], layer) for layer in tracing.LAYERS),
                    reverse=True)
    print("  self-time shares: " + ", ".join(f"{layer} {share:.3f}" for share, layer in shares))
    loaded = LOADED[workload]
    ranked = [layer for _, layer in shares if layer != "cli" or loaded == "cli"]
    verdict = "largest" if ranked[0] == loaded else f"NOT largest ({ranked[0]} is)"
    print(f"  loaded layer {loaded}: {verdict}{'' if loaded == 'cli' else ' after cli'}")


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if "digits" in name:
        return "digits"
    return "count"


def run_all(args) -> None:
    """Each workload in its own fresh interpreter, one after another."""
    summary = {}
    for workload in corpus.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"workload {workload} failed with status {proc.returncode}")
        summary[workload] = json.loads(lines[-1])
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
