"""Command-line front door.

Exit codes: 0 answered (value computed / True / witness found), 1 negative
answer (False / no solution / empty), 2 unknown (reserved for an evaluation
budget), 64 usage or parse error, 70 internal error (a defect, never an
answer).
All numbers print in decimal, however many digits they have; --json emits
one structured object per run with every numeric field as a decimal string.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .congruence import Congruence, CongruenceSystem, solve_system
from .golden import f_floor, f_inverse
from .logic import (
    BOUNDED,
    DEFAULT_EVAL_BOUND,
    MAX_LITERAL_DIGITS,
    ParseError,
    axiom_audit,
    decide,
    parse,
)
from .numeration import c as word_bit
from .numeration import fib_word_prefix, pisano, zeckendorf
from .windows import LinearConstraint, solution_window

__all__ = ["main", "run", "OutputRecord"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _too_long(text: str) -> bool:
    """More digits than a formula literal may have: decimal conversion is
    quadratic in the number of digits, so such arguments are refused."""
    return len(text) > MAX_LITERAL_DIGITS and sum(map(str.isdigit, text)) > MAX_LITERAL_DIGITS


def _integer(text: str) -> int:
    """Type of every integer argument."""
    if _too_long(text):
        raise argparse.ArgumentTypeError(f"integer longer than {MAX_LITERAL_DIGITS} digits")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


@dataclass(frozen=True)
class OutputRecord:
    command: tuple[str, ...]
    result: dict
    provenance: str
    elapsed: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": list(self.command),
                "result": self.result,
                "provenance": self.provenance,
                "elapsed_s": self.elapsed,
            },
            sort_keys=True,
        )


@cache
def _build_parser() -> _Parser:
    """Built once, on the first run(), so that importing the module stays cheap."""
    parser = _Parser(prog="beatty", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="one-line JSON output")
        return p

    p = add("f", "floor(phi * x)")
    p.add_argument("x", type=_integer)

    p = add("inv", "the x with floor(phi*x) = y, if any")
    p.add_argument("y", type=_integer)

    p = add("zeck", "Zeckendorf indices of n")
    p.add_argument("n", type=_integer)

    p = add("word", "prefix of the Fibonacci word")
    p.add_argument("length", type=_integer)

    p = add("c", "n-th Fibonacci-word symbol")
    p.add_argument("n", type=_integer)

    p = add("pisano", "period of the Fibonacci sequence mod n")
    p.add_argument("n", type=_integer)

    p = add("solve", "solve x = xm (mod xn), f(x) = fm (mod fn) [, lo < x < hi]")
    p.add_argument("--xn", type=_integer, required=True)
    p.add_argument("--xm", type=_integer, required=True)
    p.add_argument("--fn", type=_integer, required=True)
    p.add_argument("--fm", type=_integer, required=True)
    p.add_argument("--lo", type=_integer, default=None)
    p.add_argument("--hi", type=_integer, default=None)

    p = add("window", "solution set of f(x) <rel> slope*x + k over x >= 1")
    p.add_argument("relation", choices=["<", "=", ">"])
    p.add_argument("slope", help="rational like 3/2 or 2")
    p.add_argument("offset", type=_integer)

    p = add("decide", "decide a sentence of the formula language")
    p.add_argument("formula")
    p.add_argument("--bound", type=_integer, default=DEFAULT_EVAL_BOUND,
                   help="quantifier scan radius for the bounded fallback")

    p = add("audit", "check the defining axiom families on [-N, N]")
    p.add_argument("n", type=_integer)

    return parser


def _cmd_f(args) -> tuple[dict, str, str, int]:
    value = f_floor(args.x)
    return {"value": str(value)}, str(value), "exact", EXIT_OK


def _cmd_inv(args) -> tuple[dict, str, str, int]:
    x = f_inverse(args.y)
    if x is None:
        return {"value": None}, "none", "exact", EXIT_NEGATIVE
    return {"value": str(x)}, str(x), "exact", EXIT_OK


def _cmd_zeck(args) -> tuple[dict, str, str, int]:
    indices = zeckendorf(args.n)
    return (
        {"indices": [str(i) for i in indices]},
        " ".join(str(i) for i in indices),
        "exact",
        EXIT_OK,
    )


def _cmd_word(args) -> tuple[dict, str, str, int]:
    bits = fib_word_prefix(args.length)
    return {"bits": bits}, bits, "exact", EXIT_OK


def _cmd_c(args) -> tuple[dict, str, str, int]:
    bit = word_bit(args.n)
    return {"bit": str(bit)}, str(bit), "exact", EXIT_OK


def _cmd_pisano(args) -> tuple[dict, str, str, int]:
    value = pisano(args.n)
    return {"value": str(value)}, str(value), "exact", EXIT_OK


def _cmd_solve(args) -> tuple[dict, str, str, int]:
    system = CongruenceSystem(
        Congruence(args.xn, args.xm),
        Congruence(args.fn, args.fm),
        lower=args.lo,
        upper=args.hi,
    )
    out = solve_system(system)
    if out.is_witness:
        witness = str(out.witness)
        return {"status": "witness", "witness": witness}, f"witness {witness}", "exact", EXIT_OK
    return {"status": "no_solution"}, "no solution", "exact", EXIT_NEGATIVE


def _cmd_window(args) -> tuple[dict, str, str, int]:
    try:
        if _too_long(args.slope) or "e" in args.slope.lower():  # 10**exponent is unbounded
            raise ValueError(f"at most {MAX_LITERAL_DIGITS} digits and no exponent")
        slope = Fraction(args.slope)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad slope {args.slope!r}: {exc}") from None
    window = solution_window(LinearConstraint(args.relation, slope, args.offset))
    pieces = [
        {
            "lo": str(p.lo),
            "hi": None if p.hi is None else str(p.hi),
            "mod": str(p.mod),
            "res": str(p.res),
        }
        for p in window.pieces
    ]
    result = {"kind": window.kind, "pieces": pieces}
    if window.is_empty:
        return result, "empty", "exact", EXIT_NEGATIVE
    described = []
    for p in window.pieces:
        span = f"[{p.lo}, {'inf' if p.hi is None else p.hi}]"
        if p.mod > 1:
            span += f" with x = {p.res} (mod {p.mod})"
        described.append(span)
    return result, f"{window.kind}: " + "; ".join(described), "exact", EXIT_OK


def _cmd_decide(args) -> tuple[dict, str, str, int]:
    sentence = parse(args.formula)
    decision = decide(sentence, args.bound)
    provenance = decision.provenance
    result: dict = {"truth": {True: "true", False: "false", None: "unknown"}[decision.truth]}
    if decision.bound is not None:
        result["bound"] = str(decision.bound)
    if decision.witness is not None:
        result["witness"] = str(decision.witness)
    if decision.counterexample is not None:
        result["counterexample"] = str(decision.counterexample)
    if decision.reason is not None:
        result["reason"] = decision.reason
    if decision.truth is None:
        return result, f"unknown: {decision.reason}", provenance, EXIT_UNKNOWN
    text = "True" if decision.truth else "False"
    text += f" ({provenance}" + (f" to {decision.bound}" if provenance == BOUNDED else "") + ")"
    if decision.witness is not None:
        text += f"; witness {decision.witness}"
    if decision.counterexample is not None:
        text += f"; counterexample {decision.counterexample}"
    return result, text, provenance, EXIT_OK if decision.truth else EXIT_NEGATIVE


def _cmd_audit(args) -> tuple[dict, str, str, int]:
    report = axiom_audit(args.n)
    families = {
        fam.name: {
            "instances": str(fam.instances),
            "failures": list(fam.failures),
            "passed": fam.passed,
        }
        for fam in report.families
    }
    lines = [
        f"{fam.name}: {'PASS' if fam.passed else 'FAIL ' + '; '.join(fam.failures)}"
        f" ({fam.instances} instances)"
        for fam in report.families
    ]
    lines.append("all families pass" if report.passed else "some families FAIL")
    result = {"bound": str(report.bound), "families": families, "passed": report.passed}
    return result, "\n".join(lines), "exact", EXIT_OK if report.passed else EXIT_NEGATIVE


_HANDLERS = {
    "f": _cmd_f,
    "inv": _cmd_inv,
    "zeck": _cmd_zeck,
    "word": _cmd_word,
    "c": _cmd_c,
    "pisano": _cmd_pisano,
    "solve": _cmd_solve,
    "window": _cmd_window,
    "decide": _cmd_decide,
    "audit": _cmd_audit,
}


def run(argv: list[str]) -> int:
    """Run one command and return its exit code.  Integers convert to and
    from decimal without the interpreter's digit limit while it runs; the
    caller's limit is restored afterwards."""
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(digit_limit)


def _run(argv: list[str]) -> int:
    parser = _build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        result, text, provenance, code = _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a defect: report where, never exit as an answer
        import traceback  # only this path needs it; importing costs set-up time

        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {type(exc).__name__}: {exc} "
              f"({where.filename}:{where.lineno} in {where.name})", file=sys.stderr)
        return EXIT_SOFTWARE
    elapsed = f"{time.perf_counter() - started:.6f}"
    record = OutputRecord(tuple(argv), result, provenance, elapsed)
    print(record.to_json() if args.json else text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
