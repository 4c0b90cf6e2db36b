"""Benchmark worker: runs queries through ``beatty.cli.run`` in this process.

Started by run.py in a fresh interpreter with the package's ``src`` on
PYTHONPATH.  Reads one JSON job from stdin and writes one JSON result to
stdout.  Interpreter-wide settings (the int-to-str digit limit, the
recursion limit) stay at their defaults so that the package's own limits
show; answers are verified by the parent, not here.

Job keys: ``warmup`` and ``queries`` (lists of argv lists), ``limit_s``
(per-query wall-clock limit) and ``trace`` (0 or 1); with trace 1 also
``traced_queries`` and ``spans_path``.  Every query given is run, so a
run's work, and which queries fail, depend on the seed only.

With trace 0 every query runs untraced and no wrapper is imported; the
speed kernel (speed.py) runs between queries.  With trace 1 ``queries``
run untraced, then ``traced_queries`` (as many, of the same mix) run
traced; the difference of the two wall times is the tracing overhead.
"""

from __future__ import annotations

import io
import json
import resource
import signal
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from speed import kernel_seconds


class QueryTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise QueryTimeout()


def run_one(cli, argv: list[str], limit_s: float) -> list:
    """[exit code or None, failure name or None, stdout, seconds]"""
    out, err = io.StringIO(), io.StringIO()
    code = failure = None
    elapsed = limit_s
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.run(argv)
            finally:
                elapsed = perf_counter() - start
    except QueryTimeout:
        failure = "timeout"
    except (Exception, SystemExit) as exc:  # any escape from run() is a failure to record
        failure = type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return [code, failure, out.getvalue(), elapsed]


SPEED_EVERY_S = 0.05


def timed_pass(cli, queries, limit_s, tracer=None, speed=None):
    """Run every query in order.

    With a `speed` list, the speed kernel runs between queries every
    SPEED_EVERY_S; its times are appended there, each result gets the index
    of the latest sample, and the wall time returned leaves them out."""
    results = []
    start = perf_counter()
    next_sample = start
    spent = 0.0  # in the speed kernel
    for i, argv in enumerate(queries):
        if speed is not None and perf_counter() >= next_sample:
            speed.append(kernel_seconds())
            spent += speed[-1]
            next_sample = perf_counter() + SPEED_EVERY_S
        if tracer is not None:
            tracer.begin_query(i)
        results.append(run_one(cli, argv, limit_s))
        if speed is not None:
            results[-1].append(len(speed) - 1)
    return results, perf_counter() - start - spent


def main() -> None:
    job = json.load(sys.stdin)
    signal.signal(signal.SIGALRM, _on_alarm)
    started = perf_counter()
    import beatty.cli as cli
    import_s = perf_counter() - started

    limit_s = job["limit_s"]
    for argv in job["warmup"]:
        run_one(cli, argv, limit_s)

    queries = job["queries"]
    reply = {"import_s": import_s}
    if not job["trace"]:
        speed: list[float] = []
        results, wall = timed_pass(cli, queries, limit_s, speed=speed)
        reply.update(results=results, wall_s=wall, kernel_s=speed)
    else:
        import tracing

        plain, plain_wall = timed_pass(cli, queries, limit_s)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced, traced_wall = timed_pass(cli, job["traced_queries"], limit_s, tracer=tracer)
        layer = tracing.summarize(tracer)
        layer["trace.overhead_s"] = traced_wall - plain_wall
        layer["trace.queries"] = len(traced)
        tracer.write_spans(job["spans_path"])
        reply.update(plain_results=plain, traced_results=traced, per_layer=layer,
                     plain_wall_s=plain_wall, traced_wall_s=traced_wall)
    reply["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(reply))


if __name__ == "__main__":
    main()
