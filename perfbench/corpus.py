"""Seeded query corpora, one generator per workload.

A corpus is a pure function of the workload name and the seed.  Each query
is a dict with the argv passed to ``beatty.cli.run`` and an ``expect``
record that ``reference.judge`` checks the answer against; the references
are computed here, before any timing, without importing ``beatty``.

Queries come in fixed blocks: every block holds the same mix of query
kinds, and the parameters that drive the cost of a query follow
low-discrepancy (Kronecker) schedules from block to block that are the
same for every seed.  Any prefix of a corpus therefore has nearly the
same mix and cost profile, which keeps the shares and percentiles steady
from seed to seed; the seed draws everything else.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

import reference as ref

PHI = (1 + 5 ** 0.5) / 2
DEFAULT_BOUND = 10_000  # the CLI's default quantifier scan radius


def log_uniform(u: float, lo: float, hi: float) -> int:
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def corpus_hash(queries: list[dict]) -> str:
    blob = json.dumps([q["argv"] for q in queries], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class _Builder:
    """Draws queries slot by slot, never repeating an argv within a run."""

    def __init__(self, seed_text: str, seen: set):
        self.rng = random.Random(seed_text)
        self.starts = {}
        self.seen = seen
        self.counts = {}

    def u(self, key: str, step: float = 1 / PHI) -> float:
        """Next point of the size schedule named `key`.  Its start depends
        on the name only, so every seed draws the same sizes in the same
        order and differs in everything else.  Schedules meant to vary
        jointly take different irrational steps."""
        if key not in self.starts:
            digest = hashlib.sha256(key.encode()).digest()
            self.starts[key] = int.from_bytes(digest[:8], "big") / 2 ** 64
        i = self.counts.get(key, 0)
        self.counts[key] = i + 1
        return (self.starts[key] + i * step) % 1.0

    def add(self, out: list, make, *args) -> None:
        for _ in range(50):
            try:
                q = make(self, *args)
            except ref.Undecided:
                continue
            key = tuple(q["argv"])
            if key not in self.seen:
                self.seen.add(key)
                out.append(q)
                return
        raise RuntimeError(f"could not draw a fresh query with {make.__name__}")


X = ("v", "x")
Y = ("v", "y")
FX = ("f", X)


def _conj(parts: list[tuple]) -> tuple:
    node = parts[0]
    for p in parts[1:]:
        node = ("&", node, p)
    return node


def _k(v: int) -> tuple:
    return ("k", v)


# --- decide_nf --------------------------------------------------------------------

def _comparison(b: _Builder, key: str, lo_den: int, hi_den: int, rel: str,
                side: int) -> tuple:
    """N*f(x) <rel> M*x + k with N log-uniform in [lo_den, hi_den] (on the
    schedule `key`), M/N 0.3-5% below (side -1) or above (side 1) phi and
    k in [-2N, 2N]."""
    n = max(2, log_uniform(b.u(key), lo_den, hi_den))
    rng = b.rng
    dev = math.exp(rng.uniform(math.log(0.003), math.log(0.05)))
    m = max(1, round(n * PHI * (1 + side * dev)))
    k = rng.randint(-2 * n, 2 * n)
    return (rel, ("*", n, FX), ("+", ("*", m, X), _k(k)))


def _congruence(b: _Builder, key: str) -> tuple:
    """p_q(x + c) or p_q(f(x) + c) with q <= 12.  The modulus, and whether
    it applies to x or f(x), follow schedules: they set what the decider
    has to combine, and so its cost.  c is drawn from the seed."""
    q = 2 + int(11 * b.u(f"{key}-q", math.sqrt(3) - 1))
    target = X if b.u(f"{key}-on", math.sqrt(7) - 2) < 0.5 else FX
    return ("p", q, ("+", target, _k(b.rng.randrange(q))))


def _congruences(b: _Builder, key: str) -> list[tuple]:
    """None, one or two congruences (2 : 2 : 1), the count on a schedule."""
    u = b.u(f"{key}-count", math.sqrt(2) - 1)
    return [_congruence(b, key) for _ in range(0 if u < 0.4 else 1 if u < 0.8 else 2)]


_EXISTS_RELS = ("<", "<=", "=", ">", ">=")
_ORDER_RELS = ("<", "<=", ">", ">=")
POS = ("<", _k(0), X)


def _nf_query(sentence: tuple, kind: str, truth: bool, within: bool) -> dict:
    return {"argv": ["decide", ref.render(sentence)], "kind": kind,
            "expect": {"check": "decide", "sentence": sentence, "truth": truth,
                       "bounded_truth": within, "bound": DEFAULT_BOUND}}


def _nf_single(b: _Builder, quant: str, rel: str, side: int) -> dict:
    comp = _comparison(b, f"single-{quant}", 2, 2000, rel, side)
    guard = [POS] + _congruences(b, f"single-{quant}")
    body = _conj(guard + [comp]) if quant == "E" else ("->", _conj(guard), comp)
    sentence = (quant, "x", body)
    truth, within = ref.single_var_truths(sentence, DEFAULT_BOUND)
    return _nf_query(sentence, f"single-{quant}", truth, within)


def _nf_double(b: _Builder, quant: str, rels: tuple[str, str], side: int) -> dict:
    first = _comparison(b, f"double-{quant}-1", 2, 300, rels[0], side)
    second = _comparison(b, f"double-{quant}-2", 2, 300, rels[1], -side)
    guard = [POS] + _congruences(b, f"double-{quant}")[:1]
    if quant == "E":
        body = _conj(guard + [first, second])
    else:
        body = ("->", _conj(guard + [first]), second)
    sentence = (quant, "x", body)
    truth, within = ref.single_var_truths(sentence, DEFAULT_BOUND)
    return _nf_query(sentence, f"double-{quant}", truth, within)


def _nf_disjunctive(b: _Builder, target: bool) -> dict:
    """exists x. (0 < x & C & A | 0 < x & B) with C a congruence: outside
    today's exact fragment.  The shape is fixed, since it sets the cost of
    the bounded scan.  A false target draws equations until each
    disjunct is false alone; a true one draws until its least witness is
    at most 100, so the scan stops early."""
    parts = []
    for i, congruence in ((1, [_congruence(b, "disj")]), (2, [])):
        for _ in range(100):
            rel = "=" if not target else b.rng.choice(_EXISTS_RELS)
            comp = _comparison(b, f"disj-{i}", 2, 60, rel, b.rng.choice((-1, 1)))
            part = _conj([POS] + congruence + [comp])
            w = ref.least_witness("x", part)
            if (w is not None and abs(w) <= 100) if target else w is None:
                break
        parts.append(part)
    sentence = ("E", "x", ("|", parts[0], parts[1]))
    truth, within = ref.single_var_truths(sentence, DEFAULT_BOUND)
    if truth != target:
        raise ref.Undecided("draw again for the block's planted truth")
    return _nf_query(sentence, "disjunctive", truth, within)


def gen_decide_nf(b: _Builder, block: int, out: list) -> None:
    """Relations and the side of phi the slope lies on cycle with the
    block index (twins share them): with N they set the cost of a query,
    so the cost profile is the same for every seed."""
    turn = block // 2
    pick = lambda options, shift=0: options[(turn + shift) % len(options)]  # noqa: E731
    side = (-1, 1)
    b.add(out, _nf_single, "E", pick(("<", "<=")), pick(side))
    b.add(out, _nf_single, "E", pick((">", ">=")), pick(side, 1))
    b.add(out, _nf_single, "E", "=", pick(side))
    b.add(out, _nf_single, "E", pick(_EXISTS_RELS), pick(side, 1))
    b.add(out, _nf_single, "A", pick(_ORDER_RELS), pick(side))
    b.add(out, _nf_single, "A", pick(_ORDER_RELS, 2), pick(side, 1))
    b.add(out, _nf_double, "E", (pick(("<", "<=")), pick((">", ">="), 1)), pick(side))
    b.add(out, _nf_double, "A", (pick(("<", "<="), 1), pick((">", ">="))), pick(side, 1))
    b.add(out, _nf_disjunctive, turn % 2 == 1)  # F F T T: same in both halves
    b.add(out, _nf_single, "E", pick(_EXISTS_RELS, 3), pick(side))


# --- decide_bounded ---------------------------------------------------------------

def _f(t):
    return ("f", t)


def _add(a, b_):
    return ("+", a, b_)


def _sum(*ts):
    node = ts[0]
    for t in ts[1:]:
        node = ("+", node, t)
    return node


def _disj(parts):
    node = parts[0]
    for p in parts[1:]:
        node = ("|", node, p)
    return node


# Each template takes a size in body evaluations and returns (sentence,
# truth, bound), the bound chosen so that scanning [-bound, bound] costs
# about that many evaluations.  True sentences are classical identities
# that hold on all of Z, so they also hold on every bounded range; false
# ones have a counterexample (or, for exists, a witness) planted inside it.

def _t_additive(b, size):
    c = b.rng.randint(-50, 50)
    bound = max(3, int((math.sqrt(size) - 1) / 2))
    body = ("<", _f(_sum(X, Y, _k(c))), _sum(_f(_add(X, _k(c))), _f(Y), _k(2)))
    return ("A", "x", ("A", "y", body)), True, bound


def _t_defect_cases(b, size):
    c = b.rng.randint(1, 99)
    bound = max(3, int((math.sqrt(size) - 1) / 2))
    s = _sum(_f(X), _f(Y))
    body = _disj([("<", X, _k(c)), ("<", Y, _k(1)),
                  ("=", _f(_add(X, Y)), s), ("=", _f(_add(X, Y)), _add(s, _k(1)))])
    return ("A", "x", ("A", "y", body)), True, bound


def _t_superadditive(b, size):
    c = b.rng.randint(1, 99)
    bound = max(3, int((math.sqrt(size) - 1) / 2))
    body = _disj([("<", X, _k(c)), ("<", Y, _k(1)),
                  (">=", _f(_add(X, Y)), _sum(_f(X), _f(Y)))])
    return ("A", "x", ("A", "y", body)), True, bound


def _t_double_f(b, size):
    c = b.rng.randint(1, 99)
    bound = max(3, size // 2)
    body = ("|", ("<", X, _k(c)), ("=", _f(_f(X)), ("-", _add(_f(X), X), _k(1))))
    return ("A", "x", body), True, bound


def _t_partition(b, size):
    """Every n >= c is f(x) or f(x) + x (the complementary Beatty partition)."""
    c = b.rng.randint(1, 99)
    bound = max(3, int(math.sqrt(size / 1.5)))
    n = ("v", "n")
    inner = ("E", "x", ("|", ("=", _f(X), n), ("=", _add(_f(X), X), n)))
    return ("A", "n", ("|", ("<", n, _k(c)), inner)), True, bound


def _t_disjoint(b, size):
    """f(x) = f(y) + y has no solution in positive integers."""
    c = b.rng.randint(1, 99)
    bound = max(3, int((math.sqrt(size) - 1) / 2))
    body = _disj([("<", X, _k(c)), ("<", Y, _k(1)), ("!=", _f(X), _add(_f(Y), Y))])
    return ("A", "x", ("A", "y", body)), True, bound


def _has_defect_one(x: int, lo: int, hi: int) -> bool:
    return any(ref.phi_floor(x + y) - ref.phi_floor(x) - ref.phi_floor(y) == 1
               for y in range(lo, hi + 1))


def _f_additive(b, size):
    """False: the defect f(x+y) - f(x) - f(y) reaches 1 at x = c."""
    bound = max(6, int((math.sqrt(size) - 1) / 2))
    c = max(2, int(bound * (0.3 + 0.7 * b.u('f_additive-c'))))
    if not _has_defect_one(c, 1, bound):
        raise ref.Undecided("no planted counterexample")
    body = ("|", ("<", X, _k(c)), ("<", _f(_add(X, Y)), _sum(_f(X), _f(Y), _k(1))))
    return ("A", "x", ("A", "y", body)), False, bound


def _f_double_f(b, size):
    """False: f(f(x)) = f(x) + x - 1 holds at x = c."""
    bound = max(6, size // 2)
    c = max(2, int(bound * (0.3 + 0.7 * b.u('f_double_f-c'))))
    body = ("|", ("<", X, _k(c)), ("!=", _f(_f(X)), ("-", _add(_f(X), X), _k(1))))
    return ("A", "x", body), False, bound


def _e_additive(b, size):
    """True with a witness: x = c + 1 has a partner y > c of defect 1."""
    bound = max(6, int((math.sqrt(size) - 1) / 2))
    c = max(2, int(bound * (0.3 + 0.6 * b.u('e_additive-c'))))
    if not _has_defect_one(c + 1, c + 1, bound):
        raise ref.Undecided("no planted witness")
    body = _conj([(">", X, _k(c)), (">", Y, _k(c)),
                  ("=", _f(_add(X, Y)), _sum(_f(X), _f(Y), _k(1)))])
    return ("E", "x", ("E", "y", body)), True, bound


def _bounded_query(b: _Builder, template) -> dict:
    size = log_uniform(b.u(template.__name__), 10_000, 40_000)
    sentence, truth, bound = template(b, size)
    return {"argv": ["decide", ref.render(sentence), "--bound", str(bound)],
            "kind": template.__name__.lstrip("_"),
            "expect": {"check": "decide", "sentence": sentence, "truth": truth,
                       "bounded_truth": truth, "bound": bound}}


_BOUNDED_BLOCK = (_t_additive, _t_defect_cases, _t_superadditive, _t_double_f,
                  _t_partition, _t_disjoint, _f_additive, _f_double_f, _e_additive,
                  _f_additive)


def gen_decide_bounded(b: _Builder, block: int, out: list) -> None:
    for template in _BOUNDED_BLOCK:
        b.add(out, _bounded_query, template)


# --- solve_pairs ------------------------------------------------------------------

def _system(b: _Builder, kind: str) -> tuple[int, int, int, int]:
    """x = m (mod n), f(x) = m' (mod n') with n, n' in [1, 64].  The moduli
    and the offset of m' from f(m) mod n' (how far the f-residue has to
    move from the smallest member of the class) follow schedules, since
    they drive the cost; m is drawn from the seed."""
    n = 1 + int(64 * b.u(f"{kind}-n", math.sqrt(2) - 1))
    n2 = 1 + int(64 * b.u(f"{kind}-n2", math.sqrt(3) - 1))
    m = b.rng.randrange(n)
    offset = int(n2 * b.u(f"{kind}-offset", 1 / PHI))
    return n, m, n2, (ref.phi_floor(m or n) + offset) % n2


def _solve_argv(n, m, n2, m2, lo=None, hi=None) -> list[str]:
    argv = ["solve", "--xn", str(n), "--xm", str(m), "--fn", str(n2), "--fm", str(m2)]
    if lo is not None:
        argv += ["--lo", str(lo)]
    if hi is not None:
        argv += ["--hi", str(hi)]
    return argv


def _finite_window(b: _Builder, key: str) -> tuple[int, int]:
    width = log_uniform(b.u(key), 10, 10 ** 10)
    lo = b.rng.randint(-1000, 0) if b.rng.random() < 0.2 else b.rng.randint(0, 10 ** 6)
    return lo, lo + width


def _pair_query(kind, n, m, n2, m2, lo, hi, argv) -> dict:
    truth = ref.pair_window_truth(n, m, n2, m2, lo, hi)
    if truth is None:
        raise ref.Undecided("window too wide for the reference search")
    system = (n, m, n2, m2, lo, hi)
    if argv[0] == "decide":
        sentence = ("P", n, n2, m, m2, _k(lo), _k(hi))
        expect = {"check": "decide", "sentence": sentence, "truth": truth,
                  "bounded_truth": truth, "system": system}
    else:
        expect = {"check": "solve", "truth": truth, "system": system}
    return {"argv": argv, "kind": kind, "expect": expect}


def _solve_free(b):
    n, m, n2, m2 = _system(b, "free")
    return _pair_query("free", n, m, n2, m2, None, None, _solve_argv(n, m, n2, m2))


def _solve_finite(b):
    n, m, n2, m2 = _system(b, "finite")
    lo, hi = _finite_window(b, "finite")
    return _pair_query("finite", n, m, n2, m2, lo, hi, _solve_argv(n, m, n2, m2, lo, hi))


def _solve_lower(b):
    n, m, n2, m2 = _system(b, "lower")
    lo = log_uniform(b.u("lower"), 1, 10 ** 12)
    return _pair_query("lower", n, m, n2, m2, lo, None, _solve_argv(n, m, n2, m2, lo))


def _decide_pair(b):
    n, m, n2, m2 = _system(b, "pred")
    lo, hi = _finite_window(b, "pred")
    text = ref.render(("P", n, n2, m, m2, _k(lo), _k(hi)))
    return _pair_query("predicate", n, m, n2, m2, lo, hi, ["decide", text])


def gen_solve_pairs(b: _Builder, block: int, out: list) -> None:
    for make in (_solve_free, _solve_free, _solve_free, _solve_finite, _solve_finite,
                 _solve_finite, _solve_lower, _solve_lower, _decide_pair, _decide_pair):
        b.add(out, make)


# --- cli_small --------------------------------------------------------------------

def _value(argv, field, value, code=0, kind=None) -> dict:
    return {"argv": argv, "kind": kind or argv[0],
            "expect": {"check": "value", "field": field, "value": value, "code": code}}


def _cli_f(b):
    x = log_uniform(b.rng.random(), 1, 10 ** 15)
    return _value(["f", str(x)], "value", str(ref.phi_floor(x)))


def _cli_inv(b):
    y = log_uniform(b.rng.random(), 1, 10 ** 12)
    x = ref.phi_inverse(y)
    return _value(["inv", str(y)], "value", None if x is None else str(x), 0 if x else 1)


def _cli_zeck(b):
    n = log_uniform(b.rng.random(), 1, 10 ** 15)
    return _value(["zeck", str(n)], "indices", " ".join(map(str, ref.zeckendorf_indices(n))))


def _cli_c(b):
    n = log_uniform(b.rng.random(), 1, 10 ** 12)
    return _value(["c", str(n)], "bit", str(ref.word_bit(n)))


def _cli_word(b):
    n = log_uniform(b.rng.random(), 1, 10 ** 4)
    return _value(["word", str(n)], "bits", ref.fib_word(n))


def _cli_pisano(b):
    n = log_uniform(b.rng.random(), 1, 10 ** 4)
    return _value(["pisano", str(n)], "value", str(ref.pisano_period(n)))


def _cli_window(b):
    q = b.rng.randint(1, 12)
    p = b.rng.randint(0, 3 * q)
    rel = b.rng.choice(("<", "=", ">"))
    offset = b.rng.randint(-20, 20)
    slope = Fraction(p, q)
    return {"argv": ["window", rel, f"{p}/{q}", str(offset)], "kind": "window",
            "expect": {"check": "window", "rel": rel, "slope": str(slope), "offset": offset}}


def _small_term(b: _Builder, depth: int = 0) -> tuple:
    r = b.rng.random()
    if depth >= 2 or r < 0.35:
        return _k(b.rng.randint(-30, 60))
    if r < 0.6:
        return _f(_small_term(b, depth + 1))
    if r < 0.8:
        return ("+", _small_term(b, depth + 1), _small_term(b, depth + 1))
    return ("*", b.rng.randint(2, 5), _small_term(b, depth + 1))


def _cli_decide_qf(b):
    r = b.rng.random()
    if r < 0.3:
        n, n2 = b.rng.randint(1, 6), b.rng.randint(1, 6)
        lo = b.rng.randint(-10, 30)
        atom = ("P", n, n2, b.rng.randrange(n), b.rng.randrange(n2), _k(lo),
                _k(lo + b.rng.randint(1, 40)))
    elif r < 0.5:
        atom = ("p", b.rng.randint(2, 9), _small_term(b))
    else:
        atom = (b.rng.choice(ref.RELATIONS), _small_term(b), _small_term(b))
    sentence = ("!", atom) if b.rng.random() < 0.2 else atom
    if b.rng.random() < 0.3:
        sentence = (b.rng.choice(("&", "|")), sentence,
                    (b.rng.choice(ref.RELATIONS), _small_term(b), _small_term(b)))
    truth = ref.holds(sentence, {})
    expect = {"check": "decide", "sentence": sentence, "truth": truth, "bounded_truth": truth}
    if atom[0] == "P":
        n, n2, m, m2, lo, hi = atom[1:]
        expect["system"] = (n, m, n2, m2, lo[1], hi[1])
    return {"argv": ["decide", ref.render(sentence)], "kind": "decide_qf", "expect": expect}


def _cli_solve(b):
    n, n2 = b.rng.randint(1, 12), b.rng.randint(1, 12)
    m, m2 = b.rng.randrange(n), b.rng.randrange(n2)
    return {"argv": _solve_argv(n, m, n2, m2), "kind": "solve",
            "expect": {"check": "solve", "truth": True, "system": (n, m, n2, m2, None, None)}}


def _usage(argv, kind) -> dict:
    return {"argv": argv, "kind": kind, "expect": {"check": "usage"}}


def _cli_bad_slope(b):
    q = b.rng.randint(1, 99)
    slope = b.rng.choice((f"{q}/0", f"{q}/x", f"{q}//2", f"phi{q}", f"{q}.5.1"))
    return _usage(["window", b.rng.choice("<=>"), slope, str(b.rng.randint(-9, 9))], "bad_slope")


def _cli_bad_tokens(b):
    k = b.rng.randint(0, 999)
    argv = b.rng.choice((
        ["decide", f"exists x. (f(x) @ {k})"],
        ["decide", f"exists x. (f(x) = {k}"],
        ["decide", f"forall x. f(x) < {k} &"],
        ["decide", f"exists f. f(f) = {k}"],
        ["f", f"{k}x"],
        ["pisano", f"0x{k}z"],
        ["solve", "--xn", "0", "--xm", str(k), "--fn", "2", "--fm", "1"],
        ["window", "<=", "3/2", str(k)],
    ))
    return _usage(argv, "bad_tokens")


def _cli_deep(b):
    depth = b.rng.randint(3000, 3999)
    k = b.rng.randint(0, 99)
    style = b.rng.choice(("paren", "not", "f"))
    if style == "paren":
        text = "(" * depth + f"0 < {k}" + ")" * depth
    elif style == "not":
        text = "!" * depth + f"0 < {k}"
    else:
        text = "exists x. " + "f(" * depth + "x" + ")" * depth + f" = {k}"
    return _usage(["decide", text], f"deep_{style}")


_CLI_BLOCK = (_cli_f, _cli_inv, _cli_zeck, _cli_c, _cli_word, _cli_pisano, _cli_window,
              _cli_window, _cli_decide_qf, _cli_decide_qf, _cli_solve, _cli_f, _cli_zeck,
              _cli_inv, _cli_pisano, _cli_decide_qf, _cli_bad_slope, _cli_bad_tokens,
              _cli_deep, _cli_c)


def _with_json(make):
    def draw(b):
        q = make(b)
        if b.rng.random() < 0.5:
            q["argv"] = q["argv"] + ["--json"]
        return q
    draw.__name__ = make.__name__
    return draw


_CLI_BLOCK = tuple(_with_json(m) for m in _CLI_BLOCK)


def gen_cli_small(b: _Builder, block: int, out: list) -> None:
    for make in _CLI_BLOCK:
        b.add(out, make)


# --- registry ---------------------------------------------------------------------

# name: (block generator, block size, queries per second of the seed state
# on the reference host, which sizes a run)
WORKLOADS = {
    "decide_nf": (gen_decide_nf, 10, 30),
    "solve_pairs": (gen_solve_pairs, 10, 190),
    "decide_bounded": (gen_decide_bounded, 10, 4.6),
    "cli_small": (gen_cli_small, 20, 400),
}


def build(workload: str, seed: int, count: int, warmup: int) -> tuple[list[dict], list[dict]]:
    """(warm-up queries, timed queries).  Warm-up queries come from a
    separate seed; no argv appears twice across both lists."""
    make_block, size, _ = WORKLOADS[workload]
    seen: set = set()
    out = []
    for part, n in (("warmup", warmup), ("timed", count)):
        builder = _Builder(f"{workload}/{part}/{seed}", seen)
        queries: list[dict] = []
        block = 0
        while len(queries) < n:
            # blocks come in twins with the same sizes, so that alternate
            # blocks (the traced run's two halves) cost the same
            if block % 2 == 0:
                mark = dict(builder.counts)
            else:
                builder.counts = dict(mark)
            make_block(builder, block, queries)
            block += 1
        out.append(queries[:n])
    return out[0], out[1]
