"""Per-layer spans and counters, installed around the package's public
functions from outside the package.

A span wrapper records (query id, name, parent span, start, end) in flat
arrays; spans nest on a stack, so a span's self time is its duration minus
the durations of its direct children.  A call that re-enters a span name
already open (``nnf`` recursing, ``solve_system_bounded`` calling
``solve_system``) is folded into the open span.  The hot leaf functions
``f_floor``, ``fib`` and ``zeckendorf``, and ``crt_combine``, get call
counters only.

A wrapper replaces the function under every module attribute that refers
to it (e.g. ``f_floor`` in logic, congruence and windows), since the
package calls across modules through names imported into each module.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "logic", "windows", "congruence", "numeration", "golden")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_query = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.open_names: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.witness_digits: list[int] = []
        self.query = -1

    def begin_query(self, query: int) -> None:
        """Start a query; a span left open by an exception that escaped its
        own bookkeeping (deep recursion) is closed at its start."""
        self.query = query
        self.stack.clear()
        self.open_names = [0] * len(self.names)

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.open_names.append(0)
        return self.name_ids[name]

    def span(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.open_names[nid]:
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.span_query.append(tracer.query)
            tracer.span_end.append(0.0)
            tracer.stack.append(idx)
            tracer.open_names[nid] += 1
            tracer.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = perf_counter()
                tracer.open_names[nid] -= 1
                if tracer.stack and tracer.stack[-1] == idx:
                    tracer.stack.pop()
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> dict[str, float]:
        n = len(self.span_start)
        dur = [max(0.0, self.span_end[i] - self.span_start[i]) for i in range(n)]
        own = list(dur)
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                own[parent] -= dur[i]
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.span_name[i]]
            totals[name] += max(0.0, own[i])
            calls[name] += 1
        self.span_calls = calls
        return totals

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("query\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.span_query[i]}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_parent[i]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\n")


def _digits(x: int) -> int:
    """Decimal digits of |x| without int-to-str conversion (which the
    interpreter limits to 4300 digits by default)."""
    x = abs(x)
    if x == 0:
        return 1
    d = int((x.bit_length() - 1) * 0.30102999566398120) + 1
    return d + 1 if x >= 10 ** d else d


def _on_solve(tracer, args, out) -> None:
    if out.status == "unknown":
        tracer.counts["congruence.solve.unknown"] += 1
    if out.fallback_used:
        tracer.counts["congruence.solve.fallback"] += 1
    if out.witness is not None:
        tracer.witness_digits.append(_digits(out.witness))


def _on_window(tracer, args, window) -> None:
    tracer.counts["windows.solution_window.pieces"] += len(window.pieces)


def _on_intersect(tracer, args, window) -> None:
    tracer.counts["windows.intersect.pairs"] += len(args[0].pieces) * len(args[1].pieces)
    tracer.counts["windows.pieces_out"] += len(window.pieces)


def _on_decide(tracer, args, decision) -> None:
    if decision.truth is None:
        route = "unknown"
    else:
        route = "exact" if decision.provenance == "exact" else "bounded"
    tracer.counts[f"logic.route.{route}"] += 1


SPANS = (
    ("cli", "run", "cli.run", None),
    ("logic", "parse", "logic.parse", None),
    ("logic", "decide", "logic.decide", _on_decide),
    ("logic", "nnf", "logic.normal_form", None),
    ("logic", "to_normal_form", "logic.normal_form", None),
    ("logic", "decide_existential_nf", "logic.nf_decide", None),
    ("logic", "evaluate", "logic.evaluate", None),
    ("windows", "solution_window", "windows.solution_window", _on_window),
    ("congruence", "solve_system", "congruence.solve", _on_solve),
    ("congruence", "solve_system_bounded", "congruence.solve", _on_solve),
    ("numeration", "pisano", "numeration.pisano", None),
    ("golden", "f_inverse", "golden.f_inverse", None),
)

COUNTERS = (
    ("golden", "f_floor", "golden.f_floor.calls"),
    ("numeration", "fib", "numeration.fib.calls"),
    ("numeration", "zeckendorf", "numeration.zeckendorf.calls"),
    ("congruence", "crt_combine", "congruence.crt.calls"),
)


def install(tracer: Tracer) -> None:
    """Wrap every entry point in SPANS and COUNTERS wherever it is bound."""
    import beatty.cli  # noqa: F401  (loads every layer)

    modules = [m for name, m in sys.modules.items()
               if name == "beatty" or name.startswith("beatty.")]

    def replace(module_name: str, attr: str, make) -> None:
        original = getattr(sys.modules[f"beatty.{module_name}"], attr)
        wrapped = make(original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    for module_name, attr, name, on_result in SPANS:
        replace(module_name, attr, lambda fn, n=name, cb=on_result: tracer.span(n, fn, cb))
    for module_name, attr, name in COUNTERS:
        replace(module_name, attr, lambda fn, n=name: tracer.counter(n, fn))
    window_set = sys.modules["beatty.windows"].WindowSet
    window_set.intersect = tracer.span("windows.intersect", window_set.intersect, _on_intersect)


# (metric name, span or counter it reads)
_SPAN_METRICS = {
    "windows.solution_window": ("calls", "self_s"),
    "windows.intersect": ("calls", "self_s"),
    "congruence.solve": ("calls", "self_s"),
    "numeration.pisano": ("calls", "self_s"),
    "golden.f_inverse": ("calls",),
    "logic.evaluate": ("calls", "self_s"),
    "logic.parse": ("calls", "self_s"),
    "logic.normal_form": ("self_s",),
    "logic.nf_decide": ("calls", "self_s"),
    "logic.decide": ("calls",),
    "cli.run": ("calls", "self_s"),
}
_COUNT_METRICS = (
    "windows.pieces_out", "windows.intersect.pairs", "windows.solution_window.pieces",
    "congruence.solve.unknown", "congruence.solve.fallback", "congruence.crt.calls",
    "numeration.zeckendorf.calls", "numeration.fib.calls", "golden.f_floor.calls",
    "logic.route.exact", "logic.route.bounded", "logic.route.unknown",
)


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of a traced pass (every name always present)."""
    self_s = tracer.self_times()
    out: dict[str, float] = {}
    for name, kinds in _SPAN_METRICS.items():
        if "calls" in kinds:
            out[f"{name}.calls"] = tracer.span_calls.get(name, 0)
        if "self_s" in kinds:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in _COUNT_METRICS:
        out[name] = tracer.counts.get(name, 0)
    digits = tracer.witness_digits
    out["congruence.witness_digits.p50"] = statistics.median(digits) if digits else 0
    out["congruence.witness_digits.max"] = max(digits, default=0)
    layer_s = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_s.items():
        layer_s[name.split(".", 1)[0]] += seconds
    total = sum(layer_s.values()) or 1.0
    for layer, seconds in layer_s.items():
        out[f"layer.{layer}.self_s"] = seconds
        out[f"layer.{layer}.self_share"] = seconds / total
    return out
