"""Command-line front door.

Exit codes: 0 answered (value computed / True / witness found), 1 negative
answer (False / no solution / empty), 2 unknown (an evaluation budget spent,
or a pisano modulus trial division cannot factor), 64 usage or parse error,
70 internal error (a defect, never an answer), 74 stdout closed early or
unwritable.
All numbers print in decimal, however many digits they have; --json emits
one structured object per run with every numeric field as a decimal string.
"""

import errno
import os
import sys
import time
from collections.abc import Callable

from .golden import f_floor, f_inverse
from .numeration import c as word_bit
from .numeration import Unfactored, fib_word_prefix, pisano, zeckendorf

# beatty.congruence, beatty.logic, beatty.windows: each imported by the first command needing it
_congruence = _logic = _windows = None

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70
EXIT_IOERR = 74


class _UsageError(Exception):
    pass


def _too_long(text: str) -> bool:
    """More digits than a formula literal may have (logic.MAX_LITERAL_DIGITS, the
    interpreter's default limit): decimal conversion is quadratic in the number
    of digits, so such arguments are refused."""
    limit = sys.int_info.default_max_str_digits
    return len(text) > limit and sum(map(str.isdigit, text)) > limit


def _integer(text: str) -> int:
    """Converter of every integer argument."""
    if len(text) > (limit := sys.int_info.default_max_str_digits) and _too_long(text):
        raise ValueError(f"integer longer than {limit} digits")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _relation(text: str) -> str:
    if text not in ("<", "=", ">"):
        raise ValueError(f"invalid choice: {text!r} (choose from '<', '=', '>')")
    return text


def _cmd_f(x: int) -> tuple[dict, str, str, int]:
    """floor(phi * x)"""
    value = f_floor(x)
    return {"value": str(value)}, str(value), "exact", EXIT_OK


def _cmd_inv(y: int) -> tuple[dict, str, str, int]:
    """the x with floor(phi*x) = y, if any"""
    x = f_inverse(y)
    if x is None:
        return {"value": None}, "none", "exact", EXIT_NEGATIVE
    return {"value": str(x)}, str(x), "exact", EXIT_OK


def _cmd_zeck(n: int) -> tuple[dict, str, str, int]:
    """Zeckendorf indices of n"""
    indices = zeckendorf(n)
    text = [str(i) for i in indices]
    return {"indices": text}, " ".join(text), "exact", EXIT_OK


def _cmd_word(length: int) -> tuple[dict, str, str, int]:
    """prefix of the Fibonacci word"""
    bits = fib_word_prefix(length)
    return {"bits": bits}, bits, "exact", EXIT_OK


def _cmd_c(n: int) -> tuple[dict, str, str, int]:
    """n-th Fibonacci-word symbol"""
    bit = word_bit(n)
    return {"bit": str(bit)}, str(bit), "exact", EXIT_OK


def _cmd_pisano(n: int) -> tuple[dict, str, str, int]:
    """period of the Fibonacci sequence mod n"""
    try:
        value = pisano(n)
    except Unfactored as exc:
        return {"value": None, "reason": str(exc)}, f"unknown: {exc}", "unknown", EXIT_UNKNOWN
    return {"value": str(value)}, str(value), "exact", EXIT_OK


def _cmd_solve(xn: int, xm: int, fn: int, fm: int, lo: int | None,
               hi: int | None) -> tuple[dict, str, str, int]:
    """solve x = xm (mod xn), f(x) = fm (mod fn) [, lo < x < hi]"""
    global _congruence
    if _congruence is None:
        from . import congruence as _congruence
    out = _congruence.solve_system(_congruence.CongruenceSystem(
        _congruence.Congruence(xn, xm), _congruence.Congruence(fn, fm), lower=lo, upper=hi))
    if out.is_witness:
        witness = str(out.witness)
        return {"status": "witness", "witness": witness}, f"witness {witness}", "exact", EXIT_OK
    return {"status": "no_solution"}, "no solution", "exact", EXIT_NEGATIVE


def _cmd_window(relation: str, slope: str, offset: int) -> tuple[dict, str, str, int]:
    """solution set of f(x) <rel> slope*x + k over x >= 1"""
    global _windows
    if _windows is None:
        from . import windows as _windows
    try:
        if _too_long(slope) or "e" in slope.lower():  # 10**exponent is unbounded
            raise ValueError(f"at most {sys.int_info.default_max_str_digits} digits"
                             " and no exponent")
        ratio = _windows._fraction(slope)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad slope {slope!r}: {exc}") from None
    window = _windows.solution_window(_windows.LinearConstraint(relation, ratio, offset))
    pieces = [{"lo": str(p.lo), "hi": None if p.hi is None else str(p.hi), "mod": str(p.mod),
               "res": str(p.res)} for p in window.pieces]
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


def _cmd_decide(formula: str, bound: int | None) -> tuple[dict, str, str, int]:
    """decide a sentence of the formula language"""
    global _logic
    if _logic is None:
        from . import logic as _logic
    return _answer(_logic.decide(_logic.parse(formula),
                                 _logic.DEFAULT_EVAL_BOUND if bound is None else bound))


def _answer(decision) -> tuple[dict, str, str, int]:
    """A logic.Decision as decide prints it, which the audit prints for each sentence too."""
    provenance = decision.provenance
    result = {"truth": {True: "true", False: "false", None: "unknown"}[decision.truth]}
    for field in ("bound", "witness", "counterexample", "reason"):
        if (value := getattr(decision, field)) is not None:
            result[field] = str(value)
    if decision.truth is None:
        return result, f"unknown: {decision.reason}", provenance, EXIT_UNKNOWN
    text = "True" if decision.truth else "False"
    text += (f" ({provenance} to {decision.bound})" if provenance == _logic.BOUNDED
             else f" ({provenance})")
    if decision.witness is not None:
        text += f"; witness {decision.witness}"
    if decision.counterexample is not None:
        text += f"; counterexample {decision.counterexample}"
    return result, text, provenance, EXIT_OK if decision.truth else EXIT_NEGATIVE


def _cmd_audit(n: int) -> tuple[dict, str, str, int]:
    """check the defining axiom families on [-N, N]"""
    global _logic
    if _logic is None:
        from . import logic as _logic
    report = _logic.axiom_audit(n)
    families, lines = {}, []
    for fam in report.families:
        lines.append(f"{fam.name}: {'PASS' if fam.passed else 'FAIL ' + '; '.join(fam.failures)}"
                     f" ({len(fam.decisions)} sentences, {fam.instances} instances)")
        sentences = []
        for text, decision in fam.decisions:
            result, answer, provenance, _ = _answer(decision)
            sentences.append({"sentence": text, "provenance": provenance, **result})
            lines.append(f"  {text}: {answer}")
        families[fam.name] = {"instances": str(fam.instances), "failures": list(fam.failures),
                              "passed": fam.passed, "sentences": sentences}
    lines.append("all families pass" if report.passed else "some families FAIL")
    result = {"bound": str(report.bound), "families": families, "passed": report.passed}
    return result, "\n".join(lines), "exact", EXIT_OK if report.passed else EXIT_NEGATIVE


_REQUIRED = object()  # the default of an option that must be given

# The whole command-line grammar, read by _help() and, compiled once at import (_compile), by
# _read(): each command's handler, its positionals in order as (name, converter), and its
# options as name -> (converter, default or _REQUIRED).  Each value reaches the handler as
# the keyword argument of its name.  Every command also takes --json and -h.
_COMMANDS = {
    "f": (_cmd_f, (("x", _integer),), {}),
    "inv": (_cmd_inv, (("y", _integer),), {}),
    "zeck": (_cmd_zeck, (("n", _integer),), {}),
    "word": (_cmd_word, (("length", _integer),), {}),
    "c": (_cmd_c, (("n", _integer),), {}),
    "pisano": (_cmd_pisano, (("n", _integer),), {}),
    "solve": (_cmd_solve, (), {
        "xn": (_integer, _REQUIRED), "xm": (_integer, _REQUIRED), "fn": (_integer, _REQUIRED),
        "fm": (_integer, _REQUIRED), "lo": (_integer, None), "hi": (_integer, None)}),
    "window": (_cmd_window, (("relation", _relation), ("slope", str), ("offset", _integer)), {}),
    "decide": (_cmd_decide, (("formula", str),), {"bound": (_integer, None)}),
    "audit": (_cmd_audit, (("n", _integer),), {}),
}


def _negative(token: str) -> bool:
    r"""Whether token is "-" and digits, or "-", digits or none, "." and digits,
    with one "\n" or none after them, as re's -\d+$|-\d*\.\d+$ matches it: a
    digit is any Unicode decimal digit."""
    whole, dot, fraction = token[1:].removesuffix("\n").partition(".")
    return token[:1] == "-" and (whole + fraction).isdecimal() and (not dot or fraction != "")


def _option(token: str, names: tuple[str, ...]) -> tuple[list[str], str | None] | None:
    """None if token is a positional, else the option names it can select
    (--name, or a unique prefix of it; none: an unknown option) and its
    =value.  -hh is -h; -hX gives -h the value X.  A negative number, or a
    token with a space, that selects no option is a positional."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token[1] == "-":
        name, equals, value = token[2:].partition("=")
        matches = [name] if name in names else [n for n in names if n.startswith(name)]
        if matches:
            return matches, value if equals else None
    elif token[1] == "h":
        return ["help"], token[2:] if token[2:].strip("h") else None
    return None if _negative(token) or " " in token else ([], None)


def _compile(handler: Callable, positionals: tuple, options: dict) -> tuple:
    """A row of _COMMANDS as _read takes it: its option names, what _option gives for each
    exact token (--name, -h), looked up in its place, and the values before any is read."""
    names = ("help", "json", *options)
    exact = {f"--{name}": ([name], None) for name in names} | {"-h": (["help"], None)}
    return handler, positionals, options, names, exact, {o: d for o, (_, d) in options.items()}


_COMPILED = {command: _compile(*row) for command, row in _COMMANDS.items()}


def _read(argv: list[str]) -> tuple[Callable, dict, bool]:
    """(handler, its keyword values, whether --json was given) from one pass
    over argv, left to right; -h/--help selects _help().  After the command come
    its positionals and, anywhere until a first "--", its options, as
    --name value or --name=value; a repeated option keeps its last value."""
    if not argv:
        raise _UsageError("the following arguments are required: command")
    if argv[0] not in _COMPILED:
        if _option(argv[0], ("help",)) == (["help"], None):
            return _help, {}, False
        raise _UsageError(f"argument command: invalid choice: {argv[0]!r} "
                          f"(choose from {', '.join(map(repr, _COMMANDS))})")
    handler, positionals, options, names, exact, values = _COMPILED[argv[0]]
    values = values.copy()
    positionals, tokens, extras = iter(positionals), iter(argv[1:]), []
    as_json = ended = loose = was_positional = False
    for token in tokens:
        if token == "--" and not ended:  # kept only beside a positional, as argparse does
            ended, loose = True, not was_positional
            continue
        option = None if ended or token[:1] != "-" else exact.get(token) or _option(token, names)
        if was_positional := option is None:
            if (slot := next(positionals, None)) is None:
                extras.append(token)
                continue
            (name, convert), value, loose = slot, token, False
        else:
            matches, value = option
            if not matches:
                extras.append(token)
                continue
            if len(matches) > 1:
                raise _UsageError(f"ambiguous option: {token} could match "
                                  + ", ".join(f"--{m}" for m in matches))
            name = matches[0]
            if name in ("help", "json"):
                if value is not None:
                    raise _UsageError(f"argument --{name}: ignored explicit argument {value!r}")
                if name == "help":
                    return _help, {}, False
                as_json = True
                continue
            if value is None:
                value = next(tokens, None)
                if value in (None, "--") or value[:1] == "-" and _option(value, names) is not None:
                    raise _UsageError(f"argument --{name}: expected one argument")
            convert = options[name][0]
        try:
            values[name] = convert(value)
        except ValueError as exc:
            raise _UsageError(f"argument {'' if was_positional else '--'}{name}: {exc}") from None
    missing = [name for name, _ in positionals]
    missing += [f"--{name}" for name, value in values.items() if value is _REQUIRED]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras or loose:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras + ['--'] * loose)}")
    return handler, values, as_json


def _help() -> tuple[dict, str, str, int]:
    """One line per command of _COMMANDS, with its handler's docstring."""
    lines = {}
    for name, (handler, positionals, options) in _COMMANDS.items():
        flags = [f"--{o} {o.upper()}" if default is _REQUIRED else f"[--{o} {o.upper()}]"
                 for o, (_, default) in options.items()]
        lines[" ".join([name, "[--json]", *flags, *(p for p, _ in positionals)])] = handler.__doc__
    width = max(map(len, lines))
    text = "\n".join(f"beatty {usage:<{width}}  {doc}" for usage, doc in lines.items())
    return {}, text, "exact", EXIT_OK


def _report(message: str) -> None:
    """Print message on stderr; an unwritable stderr leaves the exit code as it is."""
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass


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
    started = time.perf_counter()
    try:
        handler, values, as_json = _read(argv)
        result, text, provenance, code = handler(**values)
    except _UsageError as exc:
        _report(f"usage error: {exc}")
        return EXIT_USAGE
    except (_logic.ParseError if _logic else ()) as exc:  # decide imports logic, then parses
        _report(f"parse error: {exc}")
        return EXIT_USAGE
    except ValueError as exc:
        _report(f"error: {exc}")
        return EXIT_USAGE
    except Exception as exc:  # a defect: report where, never exit as an answer
        import traceback  # only this path needs it; importing costs set-up time

        where = traceback.extract_tb(exc.__traceback__)[-1]
        _report(f"internal error: {type(exc).__name__}: {exc} "
                f"({where.filename}:{where.lineno} in {where.name})")
        return EXIT_SOFTWARE
    if as_json:
        import json  # only --json needs it; importing costs set-up time

        elapsed = f"{time.perf_counter() - started:.6f}"
        text = json.dumps({"command": list(argv), "result": result, "provenance": provenance,
                           "elapsed_s": elapsed}, sort_keys=True)
    print(text)
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:  # stdout failed: it goes to devnull so exit flushes quietly
        if exc.errno != errno.EPIPE:  # a reader that left needs no message
            _report(f"error writing output: {exc.strerror}")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IOERR
    sys.exit(code)


if __name__ == "__main__":
    main()
