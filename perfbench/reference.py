"""Independent reference arithmetic and answer checking for the benchmark.

Nothing here imports ``beatty``.  Every value the benchmark compares against
is computed from first principles:

* ``phi_floor`` evaluates f(x) = floor(phi * x) through Fibonacci
  convergents of phi, not through the integer square root.
* Zeckendorf digits, the Pisano period, the Fibonacci word and the inverse
  of f have their own implementations.
* Sentences are built as small tuple trees (see ``render``) so that truth
  is known without parsing the program's input language.  Single-variable
  sentences are decided by a margin argument with rational bounds on phi;
  sentences with nested quantifiers carry a planted truth value.

Fibonacci numbers here use the standard indexing F_0 = 0, F_1 = 1.  The
package under test indexes from fib(0) = fib(1) = 1, so its Zeckendorf
index i is the standard index i + 1.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, log

LOG_PHI = log((1 + 5 ** 0.5) / 2)

# --- Fibonacci numbers and f ---------------------------------------------------

_FIB = [0, 1]


def fib_std(k: int) -> int:
    """F_k with F_0 = 0, F_1 = 1; tabulated for small k, fast doubling above."""
    if k < 400:
        while len(_FIB) <= k:
            _FIB.append(_FIB[-1] + _FIB[-2])
        return _FIB[k]
    return _fib_pair(k)[0]


def _fib_pair(k: int) -> tuple[int, int]:
    """(F_k, F_{k+1}) by fast doubling."""
    if k == 0:
        return 0, 1
    a, b = _fib_pair(k >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    return (d, c + d) if k & 1 else (c, d)


# floor(phi*x) = floor(F_{k+1}*x / F_k) whenever 1 <= x < F_k: the convergent
# error |phi - F_{k+1}/F_k| is below 1/(F_k*F_{k+1}), so phi*x lies within
# 1/F_{k+1} < 1/F_k of F_{k+1}*x/F_k, which itself is at least 1/F_k away
# from every integer (gcd(F_k, F_{k+1}) = 1 and F_k does not divide x).
_SMALL_K = 120
_SMALL_Q = fib_std(_SMALL_K)
_SMALL_P = fib_std(_SMALL_K + 1)
_BIG_PAIRS: dict[int, tuple[int, int]] = {}


def phi_floor(x: int) -> int:
    """floor(phi * x) for x >= 1, and 0 for x <= 0 (the package's convention)."""
    if x <= 0:
        return 0
    if x < _SMALL_Q:
        return _SMALL_P * x // _SMALL_Q
    # F_k >= phi^(k-2) > x once k - 2 >= log_phi(2^bits)
    k = int((x.bit_length() + 2) * log(2) / LOG_PHI) + 3
    k = (k + 63) // 64 * 64  # round up so nearby sizes share one pair
    pair = _BIG_PAIRS.get(k)
    if pair is None:
        pair = _BIG_PAIRS[k] = _fib_pair(k)
    q, p = pair
    return p * x // q


def phi_inverse(y: int) -> int | None:
    """The x >= 1 with f(x) = y, or None.  A preimage of y must be
    floor((y + 1)/phi) = f(y + 1) - (y + 1), since phi*x - 1 < y < phi*x."""
    if y < 1:
        return None
    x = phi_floor(y + 1) - y - 1
    return x if x >= 1 and phi_floor(x) == y else None


def zeckendorf_indices(n: int) -> list[int]:
    """Greedy Zeckendorf digits of n >= 1, ascending, in the package's indexing."""
    out = []
    k = 2
    while fib_std(k + 1) <= n:
        k += 1
    while n > 0:
        while fib_std(k) > n:
            k -= 1
        out.append(k - 1)
        n -= fib_std(k)
        k -= 2
    out.reverse()
    return out


def pisano_period(n: int) -> int:
    """Period of F_k mod n, by scanning until the pair (0, 1) recurs."""
    if n == 1:
        return 1
    a, b, k = 0, 1, 0
    while True:
        a, b = b, (a + b) % n
        k += 1
        if a == 0 and b == 1:
            return k


_WORD = ["1", "10"]


def fib_word(length: int) -> str:
    """Prefix of the Fibonacci word 1011010110110..., from S_k = S_{k-1} S_{k-2}."""
    while len(_WORD[-1]) < length:
        _WORD.append(_WORD[-1] + _WORD[-2])
    return _WORD[-1][:length]


def word_bit(n: int) -> int:
    return 1 if phi_inverse(n) is not None else 0


# --- sentences ------------------------------------------------------------------
#
# Terms:    ("v", name) | ("k", int) | ("+", t, t) | ("-", t, t) | ("*", int, t) | ("f", t)
# Formulas: (rel, t, t) for rel in < <= = != > >=  | ("p", modulus, t)
#           | ("P", n, n2, m, m2, t_lo, t_hi) | ("!", a) | ("&", a, b) | ("|", a, b)
#           | ("->", a, b) | ("E", var, body) | ("A", var, body)

RELATIONS = ("<", "<=", "=", "!=", ">", ">=")
_FORMULA_PREC = {"->": 1, "|": 2, "&": 3, "!": 4}


def render_term(t: tuple, min_prec: int = 0) -> str:
    op = t[0]
    if op == "v":
        return t[1]
    if op == "k":
        return str(t[1])
    if op == "f":
        return f"f({render_term(t[1])})"
    if op == "*":
        return f"{t[1]}*{render_term(t[2], 2)}"
    right = t[2]
    sign = op
    if right[0] == "k" and right[1] < 0:
        right, sign = ("k", -right[1]), "-" if op == "+" else "+"
    text = f"{render_term(t[1], 1)} {sign} {render_term(right, 2)}"
    return f"({text})" if min_prec > 1 else text


def render(phi: tuple, min_prec: int = 0) -> str:
    """Text in the package's formula grammar that parses back to `phi`."""
    op = phi[0]
    if op in RELATIONS:
        return f"{render_term(phi[1])} {op} {render_term(phi[2])}"
    if op == "p":
        return f"p{phi[1]}({render_term(phi[2])})"
    if op == "P":
        n, n2, m, m2, lo, hi = phi[1:]
        return f"P[{n},{n2},{m},{m2}]({render_term(lo)}, {render_term(hi)})"
    if op in ("E", "A"):
        text = f"{'exists' if op == 'E' else 'forall'} {phi[1]}. {render(phi[2])}"
        return f"({text})" if min_prec > 0 else text
    prec = _FORMULA_PREC[op]
    if op == "!":
        text = "!" + render(phi[1], 5)
    elif op == "->":  # right associative
        text = f"{render(phi[1], 2)} -> {render(phi[2], 1)}"
    else:  # & and | associate left
        text = f"{render(phi[1], prec)} {op} {render(phi[2], prec + 1)}"
    return f"({text})" if min_prec > prec else text


def eval_term(t: tuple, env: dict) -> int:
    op = t[0]
    if op == "v":
        return env[t[1]]
    if op == "k":
        return t[1]
    if op == "f":
        return phi_floor(eval_term(t[1], env))
    if op == "*":
        return t[1] * eval_term(t[2], env)
    a, b = eval_term(t[1], env), eval_term(t[2], env)
    return a + b if op == "+" else a - b


def holds(phi: tuple, env: dict, bound: int | None = None) -> bool:
    """Truth of `phi` under `env`; quantifiers range over [-bound, bound]."""
    op = phi[0]
    if op in RELATIONS:
        a, b = eval_term(phi[1], env), eval_term(phi[2], env)
        return {"<": a < b, "<=": a <= b, "=": a == b,
                "!=": a != b, ">": a > b, ">=": a >= b}[op]
    if op == "p":
        return eval_term(phi[2], env) % phi[1] == 0
    if op == "P":
        n, n2, m, m2, lo, hi = phi[1:]
        return pair_window_truth(n, m, n2, m2, eval_term(lo, env), eval_term(hi, env)) is True
    if op == "!":
        return not holds(phi[1], env, bound)
    if op == "&":
        return holds(phi[1], env, bound) and holds(phi[2], env, bound)
    if op == "|":
        return holds(phi[1], env, bound) or holds(phi[2], env, bound)
    if op == "->":
        return not holds(phi[1], env, bound) or holds(phi[2], env, bound)
    if bound is None:
        raise ValueError("a quantifier needs a scan bound")
    scan = (holds(phi[2], {**env, phi[1]: v}, bound) for v in range(-bound, bound + 1))
    return any(scan) if op == "E" else all(scan)


# --- single-variable sentences: exact truth by a margin argument -----------------

class Undecided(Exception):
    """The reference could not settle a sentence; the generator draws another."""


def _linear(t: tuple, var: str) -> tuple[int, int, int] | None:
    """t == a*var + b*f(var) + c, or None."""
    op = t[0]
    if op == "k":
        return 0, 0, t[1]
    if op == "v":
        return (1, 0, 0) if t[1] == var else None
    if op == "f":
        return (0, 1, 0) if t[1] == ("v", var) else None
    if op == "*":
        inner = _linear(t[2], var)
        return None if inner is None else tuple(t[1] * u for u in inner)
    left, right = _linear(t[1], var), _linear(t[2], var)
    if left is None or right is None:
        return None
    s = 1 if op == "+" else -1
    return tuple(u + s * w for u, w in zip(left, right))


def _atoms(phi: tuple) -> list[tuple]:
    if phi[0] in ("!", "&", "|", "->"):
        return [a for sub in phi[1:] for a in _atoms(sub)]
    return [phi]


def _phi_bracket(a: int, b: int) -> tuple[int, Fraction]:
    """(sign, positive rational lower bound) of a + b*phi for (a, b) != (0, 0),
    from convergent brackets F_{k+1}/F_k < phi < F_{k+2}/F_{k+1} (k even)."""
    k = 40
    while True:
        u = a + b * Fraction(fib_std(k + 1), fib_std(k))
        w = a + b * Fraction(fib_std(k + 2), fib_std(k + 1))
        if u * w > 0:
            return (1 if u > 0 else -1), min(abs(u), abs(w))
        k += 20


def _tail_value(rel: str, sign: int) -> bool:
    """Truth of `e rel 0` when e has the given sign for every x in a tail."""
    return {"<": sign < 0, "<=": sign <= 0, "=": sign == 0,
            "!=": sign != 0, ">": sign > 0, ">=": sign >= 0}[rel]


def least_witness(var: str, body: tuple) -> int | None:
    """A witness of `exists var. body` over Z with the least absolute value,
    or None when the sentence is false.

    Every atom must be a comparison or divisibility of terms linear in var
    and f(var).  For x >= 1, f(x) = phi*x - theta with 0 < theta < 1, so
    a*x + b*f(x) + c keeps the sign of a + b*phi once
    |a + b*phi| * x > |b| + |c|; for x <= 0, f(x) = 0.  Past both zones the
    body depends only on residues, and a witness past the positive zone is
    found by direct search (every residue pair of x and f(x) occurs there).
    """
    x_pos, x_neg, modulus = 1, 1, 1
    tail_pos, tail_neg = {}, {}
    for atom in _atoms(body):
        if atom[0] == "p":
            modulus = modulus * atom[1] // gcd(modulus, atom[1])
            if _linear(atom[2], var) is None:
                raise Undecided(f"non-linear term in {atom}")
            continue
        if atom[0] not in RELATIONS:
            raise Undecided(f"unsupported atom {atom[0]}")
        left, right = _linear(atom[1], var), _linear(atom[2], var)
        if left is None or right is None:
            raise Undecided(f"non-linear comparison {atom}")
        a, b, c = (u - w for u, w in zip(left, right))
        if a == 0 and b == 0:
            continue
        sign, margin = _phi_bracket(a, b)
        x_pos = max(x_pos, int((abs(b) + abs(c)) / margin) + 1)
        tail_pos[atom] = _tail_value(atom[0], sign)
        if a != 0:
            x_neg = max(x_neg, abs(c) // abs(a) + 1)
            tail_neg[atom] = _tail_value(atom[0], -1 if a > 0 else 1)
        else:
            tail_neg[atom] = _tail_value(atom[0], (c > 0) - (c < 0))

    found = [x for x in range(-x_neg, x_pos + 1) if holds(body, {var: x})]
    # negative tail: f vanishes, so only x mod `modulus` matters
    for x in range(-x_neg - 1, -x_neg - 1 - modulus, -1):
        if _holds_with(body, {var: x}, tail_neg):
            found.append(x)
            break
    # positive tail: search for a witness unless the comparisons alone rule
    # it out; when none turns up, every residue pair must fail the body
    if _kleene(body, tail_pos) is not False:
        for x in range(x_pos + 1, x_pos + 2 + 64 * modulus * modulus + 4096):
            if holds(body, {var: x}):
                found.append(x)
                break
        else:
            if any(_holds_residues(body, var, r1, r2, tail_pos)
                   for r1 in range(modulus) for r2 in range(modulus)):
                raise Undecided("no witness found past the comparison zone")
    return min(found, key=abs, default=None)


def _holds_with(phi: tuple, env: dict, fixed: dict) -> bool:
    op = phi[0]
    if phi in fixed:
        return fixed[phi]
    if op in ("!", "&", "|", "->"):
        vals = [_holds_with(sub, env, fixed) for sub in phi[1:]]
        if op == "!":
            return not vals[0]
        if op == "&":
            return vals[0] and vals[1]
        if op == "|":
            return vals[0] or vals[1]
        return not vals[0] or vals[1]
    return holds(phi, env)


def _kleene(phi: tuple, fixed: dict) -> bool | None:
    """Body value in a tail with comparisons fixed and divisibility unknown
    (None), combined by three-valued logic."""
    op = phi[0]
    if phi in fixed:
        return fixed[phi]
    if op == "p":
        return None
    if op in RELATIONS:
        return holds(phi, {})
    vals = [_kleene(sub, fixed) for sub in phi[1:]]
    if op == "!":
        return None if vals[0] is None else not vals[0]
    if op == "->":
        vals[0] = None if vals[0] is None else not vals[0]
    if op == "&":
        if False in vals:
            return False
        return None if None in vals else True
    if True in vals:
        return True
    return None if None in vals else False


def _holds_residues(phi: tuple, var: str, r1: int, r2: int, fixed: dict) -> bool:
    """Body value in the positive tail for x = r1 and f(x) = r2 modulo the
    combined modulus (comparisons fixed to their tail values)."""
    op = phi[0]
    if phi in fixed:
        return fixed[phi]
    if op == "p":
        a, b, c = _linear(phi[2], var)
        return (a * r1 + b * r2 + c) % phi[1] == 0
    if op in RELATIONS:  # a comparison with no variable
        return holds(phi, {var: 0})
    vals = [_holds_residues(sub, var, r1, r2, fixed) for sub in phi[1:]]
    if op == "!":
        return not vals[0]
    if op == "&":
        return vals[0] and vals[1]
    if op == "|":
        return vals[0] or vals[1]
    return not vals[0] or vals[1]


def single_var_truths(sentence: tuple, bound: int) -> tuple[bool, bool]:
    """(truth over Z, truth with the quantifier restricted to [-bound, bound])
    of a one-quantifier sentence, exists or forall."""
    op, var, body = sentence
    w = least_witness(var, body if op == "E" else ("!", body))
    exists, exists_within = w is not None, w is not None and abs(w) <= bound
    if op == "E":
        return exists, exists_within
    return not exists, not exists_within


def bounded_truth(sentence: tuple, bound: int) -> bool:
    """Truth with every quantifier restricted to [-bound, bound]."""
    return holds(sentence, {}, bound)


# --- congruence pair systems ------------------------------------------------------

SCAN_LIMIT = 60_000


def pair_window_truth(n: int, m: int, n2: int, m2: int,
                      lo: int | None, hi: int | None) -> bool | None:
    """Whether some x with lo < x < hi has x = m (mod n) and f(x) = m2 (mod n2).

    Without an upper bound the answer is True: along x = m (mod n) the
    values f(x) mod n2 take every residue infinitely often, because phi*n
    is irrational.  Finite windows are searched along the class; None means
    the window was too large to settle by search.
    """
    if hi is None:
        return True
    if lo is None:
        raise ValueError("a window open to the left is not generated")
    x = lo + 1 + (m - lo - 1) % n
    for _ in range(SCAN_LIMIT):
        if x >= hi:
            return False
        if phi_floor(x) % n2 == m2 % n2:
            return True
        x += n
    return None if x < hi else False


def pair_holds(n: int, m: int, n2: int, m2: int, lo: int | None, hi: int | None, x: int) -> bool:
    return (x % n == m % n and phi_floor(x) % n2 == m2 % n2
            and (lo is None or lo < x) and (hi is None or x < hi))


# --- windows ----------------------------------------------------------------------

def window_truth(rel: str, slope: Fraction, offset: int, x: int) -> bool:
    lhs = slope.denominator * phi_floor(x)
    rhs = slope.numerator * x + offset * slope.denominator
    return lhs < rhs if rel == "<" else (lhs == rhs if rel == "=" else lhs > rhs)


def window_horizon(slope: Fraction, offset: int) -> int:
    """Past this x every class of x modulo the denominator is settled."""
    q, p = slope.denominator, slope.numerator
    return int((q + abs(offset) * q + q) / _phi_bracket(-p, q)[1]) + 2


# --- parsing and checking the program's answers -----------------------------------

EXIT_USAGE = 64

# failure classes
OK = "ok"
WRONG = "wrong_verdict"
UNVERIFIED = "unverified"
TIMEOUT = "timeout"


def _decide_record(stdout: str, as_json: bool) -> dict | None:
    """{'truth': True/False/None, 'exact': bool, 'witness': int|None, 'counterexample': ...}"""
    text = stdout.strip()
    if as_json:
        try:
            rec = json.loads(text)
            res = rec["result"]
            truth = {"true": True, "false": False, "unknown": None}[res["truth"]]
        except (ValueError, KeyError, TypeError):
            return None
        return {"truth": truth, "exact": rec.get("provenance") == "exact",
                "witness": _int_or_none(res.get("witness")),
                "counterexample": _int_or_none(res.get("counterexample"))}
    if text.startswith("unknown"):
        return {"truth": None, "exact": False, "witness": None, "counterexample": None}
    m = re.fullmatch(r"(True|False) \((exact|bounded)(?: to (\d+))?\)"
                     r"(?:; witness (-?\d+))?(?:; counterexample (-?\d+))?", text)
    if not m:
        return None
    return {"truth": m.group(1) == "True", "exact": m.group(2) == "exact",
            "witness": _int_or_none(m.group(4)), "counterexample": _int_or_none(m.group(5))}


def _int_or_none(s):
    return None if s is None else int(s)


def _solve_record(stdout: str, as_json: bool) -> dict | None:
    """{'status': 'witness'|'no_solution'|'unknown', 'witness': int|None}"""
    text = stdout.strip()
    if as_json:
        try:
            res = json.loads(text)["result"]
            return {"status": res["status"], "witness": _int_or_none(res.get("witness"))}
        except (ValueError, KeyError, TypeError):
            return None
    if text == "no solution":
        return {"status": "no_solution", "witness": None}
    if text.startswith("unknown"):
        return {"status": "unknown", "witness": None}
    m = re.fullmatch(r"witness (-?\d+)", text)
    return {"status": "witness", "witness": int(m.group(1))} if m else None


_EXIT_FOR_TRUTH = {True: 0, False: 1, None: 2}


def judge(query: dict, code: int | None, exc: str | None, stdout: str) -> tuple[str, bool, bool]:
    """Classify one answer: (failure class, exact, answered).

    The class is OK, a failure class ('exception:<type>', 'exit:<code>',
    WRONG, UNVERIFIED, TIMEOUT).  `exact` and `answered` are meaningful
    only for OK: an answer with a correct verdict, tagged exact, and one
    with a correct verdict of any provenance ('unknown' is neither).
    """
    if exc == "timeout":
        return TIMEOUT, False, False
    if exc is not None:
        return f"exception:{exc}", False, False
    expect = query["expect"]
    kind = expect["check"]
    if kind == "usage":
        return (OK, True, True) if code == EXIT_USAGE else (f"exit:{code}", False, False)
    if code not in (0, 1, 2):
        return f"exit:{code}", False, False
    try:
        return _CHECKS[kind](expect, code, stdout, "--json" in query["argv"])
    except (ValueError, KeyError, TypeError, IndexError):
        return UNVERIFIED, False, False


def _check_value(expect, code, stdout, as_json):
    if as_json:
        res = json.loads(stdout)["result"]
        got = {"value": res.get("value"), "indices": res.get("indices"),
               "bits": res.get("bits"), "bit": res.get("bit")}[expect["field"]]
        if isinstance(got, list):
            got = " ".join(got)
    else:
        got = stdout.strip()
    want = expect["value"]
    if got is None:
        got = "none"
    if want is None:
        want = "none"
    if got != want or code != expect["code"]:
        return WRONG, False, False
    return OK, True, True


def _check_decide(expect, code, stdout, as_json):
    rec = _decide_record(stdout, as_json)
    if rec is None or code != _EXIT_FOR_TRUTH[rec["truth"]]:
        return UNVERIFIED, False, False
    if rec["truth"] is None:
        return OK, False, False
    sentence = expect["sentence"]
    if rec["exact"]:
        if rec["truth"] != expect["truth"]:
            return WRONG, False, False
    else:
        bound = expect.get("bound") or 10_000
        within = expect.get("bounded_truth")
        if within is None:
            within = bounded_truth(sentence, bound)
        if rec["truth"] != within:
            return WRONG, False, False
    if not _certificate_ok(sentence, rec, expect):
        return UNVERIFIED, False, False
    return OK, rec["exact"], True


def _certificate_ok(sentence, rec, expect) -> bool:
    """A reported witness satisfies the body; a reported counterexample
    falsifies it.  Inner quantifiers are searched over four times the
    query's bound, so any valid certificate is accepted."""
    scan = 4 * (expect.get("bound") or 10_000)
    if sentence[0] not in ("E", "A"):
        return rec["witness"] is None or _pair_certificate(expect, rec["witness"])
    var, body = sentence[1], sentence[2]
    if rec["witness"] is not None:
        if sentence[0] != "E" or not holds(body, {var: rec["witness"]}, scan):
            return False
    if rec["counterexample"] is not None:
        if sentence[0] != "A" or holds(body, {var: rec["counterexample"]}, scan):
            return False
    return True


def _pair_certificate(expect, x) -> bool:
    sys_ = expect.get("system")
    return sys_ is not None and pair_holds(*sys_, x)


def _check_solve(expect, code, stdout, as_json):
    rec = _solve_record(stdout, as_json)
    if rec is None:
        return UNVERIFIED, False, False
    status = rec["status"]
    if code != {"witness": 0, "no_solution": 1, "unknown": 2}.get(status):
        return UNVERIFIED, False, False
    if status == "unknown":
        return OK, False, False
    if (status == "witness") != expect["truth"]:
        return WRONG, False, False
    if status == "witness" and not pair_holds(*expect["system"], rec["witness"]):
        return UNVERIFIED, False, False
    return OK, True, True


def _window_pieces(stdout: str, as_json: bool) -> list[tuple[int, int | None, int, int]]:
    text = stdout.strip()
    if as_json:
        pieces = json.loads(text)["result"]["pieces"]
        return [(int(p["lo"]), None if p["hi"] is None else int(p["hi"]),
                 int(p["mod"]), int(p["res"])) for p in pieces]
    if text == "empty":
        return []
    out = []
    for part in text.split(": ", 1)[1].split("; "):
        m = re.fullmatch(r"\[(-?\d+), (-?\d+|inf)\](?: with x = (\d+) \(mod (\d+)\))?", part)
        if not m:
            raise ValueError(f"unparsed window piece {part!r}")
        hi = None if m.group(2) == "inf" else int(m.group(2))
        mod = int(m.group(4) or 1)
        res = int(m.group(3) or 0)
        out.append((int(m.group(1)), hi, mod, res))
    return out


def _in_pieces(pieces, x: int) -> bool:
    return any(lo <= x and (hi is None or x <= hi) and x % mod == res % mod
               for lo, hi, mod, res in pieces)


def _check_window(expect, code, stdout, as_json):
    """Every boundary point of every piece, and the next point past each
    one, must agree with f; so must every x up to the settling horizon plus
    two full periods (past the horizon each class is constant)."""
    rel, slope, offset = expect["rel"], Fraction(expect["slope"]), expect["offset"]
    pieces = _window_pieces(stdout, as_json)
    if (code == 1) != (not pieces):
        return UNVERIFIED, False, False
    probes = set()
    for lo, hi, mod, _ in pieces:
        probes.update((lo, lo - mod))
        if hi is not None:
            probes.update((hi, hi + mod))
    top = window_horizon(slope, offset) + 2 * slope.denominator
    probes.update(range(1, top + 1))
    for x in probes:
        if x >= 1 and _in_pieces(pieces, x) != window_truth(rel, slope, offset, x):
            return UNVERIFIED, False, False
    return OK, True, True


_CHECKS = {
    "value": _check_value,
    "decide": _check_decide,
    "solve": _check_solve,
    "window": _check_window,
}
