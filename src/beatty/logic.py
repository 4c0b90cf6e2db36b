"""First-order language over (Z, +, -, <, f, p_n, window predicates, 0, 1)
with f(x) = floor(phi * x): parser, printer, exact evaluation over the
integers, a normal-form decider for single-quantifier sentences, an exact
route for two-variable universals, bounded model checking for everything
else, and an audit of the defining axioms.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, count
from operator import add, eq, lt, mul, sub
from typing import NamedTuple

from .congruence import Congruence, CongruenceSystem, crt_combine, solve_linear, solve_system
from .golden import decompose, f_floor, phi_ceil, phi_floor, phi_sign
from .windows import (
    LinearConstraint,
    WindowSet,
    axiom_v_check,
    least_adequate_index,
    solution_window,
)

__all__ = [
    "Var", "Const", "Add", "Sub", "Scale", "F",
    "Cmp", "Div", "PPred", "Not", "And", "Or", "Implies", "Exists", "Forall",
    "ParseError", "parse", "parse_term", "format_formula", "format_term",
    "Decision", "EXACT", "BOUNDED", "DEFAULT_EVAL_BOUND", "EVAL_BUDGET", "MAX_NESTING",
    "MAX_DISJUNCTS", "evaluate", "free_vars", "nnf",
    "NormalFormQuery", "to_normal_form", "decide_existential_nf", "decide",
    "FamilyResult", "AuditReport", "axiom_audit",
]

EXACT = "exact"
BOUNDED = "bounded"
DEFAULT_EVAL_BOUND = 10_000
# Points one evaluate() call may visit in all its quantifier scans: 0.16 to
# 0.3 s of the body f(x + y) < f(x) + f(y) + 2 on a 2-vCPU VM, and more
# than ten times what the largest bounded sentence in perfbench visits.
EVAL_BUDGET = 500_000
# A one-variable body with more disjuncts in normal form goes to bounded
# evaluation.
MAX_DISJUNCTS = 64
F_TABLE_CAP = 1 << 16  # values of f one evaluate() call keeps: 6.5 MiB at most


# --- terms -----------------------------------------------------------------

class Var(NamedTuple):
    name: str


class Const(NamedTuple):
    value: int


class Add(NamedTuple):
    left: "Term"
    right: "Term"


class Sub(NamedTuple):
    left: "Term"
    right: "Term"


class Scale(NamedTuple):
    coeff: int
    term: "Term"


class F(NamedTuple):
    arg: "Term"


Term = Var | Const | Add | Sub | Scale | F


# --- formulas ---------------------------------------------------------------

class Cmp(NamedTuple("Cmp", [("left", Term), ("rel", str), ("right", Term)])):
    __slots__ = ()

    def __new__(cls, left: Term, rel: str, right: Term) -> "Cmp":
        if rel not in ("<", "="):
            raise ValueError(f"primitive relations are < and =, got {rel!r}")
        return tuple.__new__(cls, (left, rel, right))


class Div(NamedTuple("Div", [("modulus", int), ("term", Term)])):
    __slots__ = ()

    def __new__(cls, modulus: int, term: Term) -> "Div":
        if modulus < 1:
            raise ValueError(f"divisibility modulus must be >= 1, got {modulus}")
        return tuple.__new__(cls, (modulus, term))


class PPred(NamedTuple("PPred", [("mod_x", int), ("mod_fx", int), ("res_x", int),
                                 ("res_fx", int), ("low", Term), ("high", Term)])):
    """Solvability predicate: exists x with x = res_x (mod mod_x),
    f(x) = res_fx (mod mod_fx) and low < x < high."""

    __slots__ = ()

    def __new__(cls, mod_x: int, mod_fx: int, res_x: int, res_fx: int, low: Term,
                high: Term) -> "PPred":
        if mod_x < 1 or mod_fx < 1:
            raise ValueError("window predicate moduli must be >= 1")
        return tuple.__new__(cls, (mod_x, mod_fx, res_x % mod_x, res_fx % mod_fx, low, high))


class Not(NamedTuple):
    body: "Formula"


class And(NamedTuple):
    left: "Formula"
    right: "Formula"


class Or(NamedTuple):
    left: "Formula"
    right: "Formula"


class Implies(NamedTuple):
    left: "Formula"
    right: "Formula"


class Exists(NamedTuple):
    var: str
    body: "Formula"


class Forall(NamedTuple):
    var: str
    body: "Formula"


Formula = Cmp | Div | PPred | Not | And | Or | Implies | Exists | Forall

_ATOMS = (Cmp, Div, PPred)
_RESERVED = {"f", "P", "exists", "forall"}
_P_DIGITS = re.compile(r"^p\d+$")


def _same_kind(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


# As plain tuples Add(x, y) would equal Sub(x, y) and Div(3, x) Scale(3, x), so
# formulas and terms compare and hash with their kind.
for _kind in (*Term.__args__, *Formula.__args__):
    _kind.__eq__, _kind.__ne__ = _same_kind, lambda self, other: not _same_kind(self, other)
    _kind.__hash__ = lambda self: hash((type(self), *self))


def free_vars(node: Formula | Term) -> set[str]:
    if type(node) is Var:
        return {node.name}
    names: set[str] = set()
    for child in node:
        if isinstance(child, tuple):  # a formula or term, not an int or a name
            names |= free_vars(child)
    return names - {node.var} if type(node) in (Exists, Forall) else names


# --- parser -----------------------------------------------------------------

class ParseError(Exception):
    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        detail = f"{message} at offset {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class _TooDeep(ParseError):
    """Nesting past MAX_NESTING; final, never a reason to backtrack."""


# Bounds the depth of every tree the parser builds, so that the recursive
# passes over it (nnf, free_vars, the printer, evaluation) stay far inside
# the interpreter's recursion limit.
MAX_NESTING = 100

# Longer integer literals are refused before conversion, which is quadratic
# in the number of digits.
MAX_LITERAL_DIGITS = sys.int_info.default_max_str_digits


# a token, or else the character no token starts with; neither at the end
_TOKEN = re.compile(r"\s*(?:(->|<=|>=|!=|[()\[\],.+\-*<>=!&|]|\d+|[A-Za-z_][A-Za-z0-9_]*)|(\S))?")
# each relation as (primitive relation, operands swapped, negated)
_RELS = {"<": ("<", False, False), "<=": ("<", True, True), "=": ("=", False, False),
         "!=": ("=", False, True), ">": ("<", True, False), ">=": ("<", False, True)}
_CHAINED = {"|": Or, "&": And, "+": Add, "-": Sub}


def _unexpected(token: str | None) -> str:
    """The message for an unexpected token; None is the end of the text."""
    return "unexpected end of input" if token is None else f"unexpected {token!r}"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        # Tokens are scanned only as the parser reaches them, so the first
        # error met is the one reported; the list stays for backtracking,
        # and past the end of the text each token is None.
        self.tokens: list[tuple[str | None, int]] = []
        self.scanned = 0  # offset where scanning resumes
        self.i = 0
        # Nesting: each open ( ! quantifier f( -> and k* counts one level,
        # and each &, |, + or - one more for everything on its left, since
        # those chains build left-deep trees.  depth is the nesting at the
        # current token, peak the deepest reached by the current operand.
        self.depth = self.peak = 0

    def _token(self, k: int) -> tuple[str | None, int]:
        """Token k and its offset, scanning up to it."""
        tokens = self.tokens
        while len(tokens) <= k:
            m = _TOKEN.match(self.text, self.scanned)
            token, bad = m.group(1, 2)
            if bad:
                raise ParseError(f"unexpected character {bad!r}", m.start(2))
            if token is None:
                tokens.append((None, m.end()))
                continue
            literal = token.removeprefix("p")  # p<digits> carries a modulus
            if len(literal) > MAX_LITERAL_DIGITS and literal.isdigit():
                raise ParseError(f"integer literal longer than {MAX_LITERAL_DIGITS} digits",
                                 m.start(1))
            tokens.append((token, m.start(1)))
            self.scanned = m.end()
        return tokens[k]

    def _peek(self, ahead: int = 0) -> str | None:
        k = self.i + ahead
        return (self.tokens[k] if k < len(self.tokens) else self._token(k))[0]

    def _expect(self, token: str) -> None:
        got, position = self._token(self.i)
        if got != token:
            raise ParseError(_unexpected(got), position, (repr(token),))
        self.i += 1

    def _enter(self, position: int) -> None:
        """Open a construct that starts at position; step past the current token."""
        self.depth += 1
        self.peak = max(self.peak, self.depth)
        if self.depth > MAX_NESTING:
            raise _TooDeep(f"nesting deeper than {MAX_NESTING}", position)
        self.i += 1

    def _chain(self, operand, operators: tuple[str, ...]):
        """operand (operator operand)*, built left-deep: each operator puts
        everything on its left one level deeper (each operand is parsed with
        peak reset to the chain's depth)."""
        outer, self.peak = self.peak, self.depth
        node, peak = operand(), self.peak
        while (op := self._peek()) in operators:
            position = self.tokens[self.i][1]
            self.i += 1
            self.peak = self.depth
            right = operand()
            peak = max(peak, self.peak) + 1
            if peak > MAX_NESTING:
                raise _TooDeep(f"nesting deeper than {MAX_NESTING}", position)
            node = _CHAINED[op](node, right)
        self.peak = max(outer, peak)
        return node

    def _literal(self) -> int | None:
        """An optional - and digits, read as an int; None if they do not come next."""
        negative = self._peek() == "-"
        digits = self._peek(1 if negative else 0)
        if digits is None or not digits.isdigit():
            return None
        self.i += 2 if negative else 1
        return -int(digits) if negative else int(digits)

    def _variable(self, unexpected: str, expected: tuple[str, ...] = ()) -> str:
        """Read the variable named by the current token; any other token is
        reported as unexpected."""
        tok, position = self._token(self.i)
        if tok is None:
            raise ParseError(_unexpected(tok), position)
        if not tok.isidentifier():
            raise ParseError(f"{unexpected} {tok!r}", position, expected)
        if tok in _RESERVED or _P_DIGITS.match(tok):
            raise ParseError(f"{tok!r} is reserved", position)
        self.i += 1
        return tok

    # formulas; precedence ! > & > | > ->, quantifiers extend maximally right
    def parse_formula(self) -> Formula:
        left = self._chain(lambda: self._chain(self.parse_unary, ("&",)), ("|",))
        tok, position = self._token(self.i)
        if tok != "->":
            return left
        self._enter(position)
        node = Implies(left, self.parse_formula())
        self.depth -= 1
        return node

    def parse_unary(self) -> Formula:
        tok, position = self._token(self.i)
        if tok not in ("!", "exists", "forall"):
            return self.parse_atom()
        self._enter(position)
        if tok == "!":
            node = Not(self.parse_unary())
        else:
            name = self._variable("invalid variable name")
            self._expect(".")
            body = self.parse_formula()
            node = Exists(name, body) if tok == "exists" else Forall(name, body)
        self.depth -= 1
        return node

    def parse_atom(self) -> Formula:
        tok, position = self._token(self.i)
        if tok is not None and _P_DIGITS.match(tok) and self._peek(1) == "(":
            modulus = int(tok[1:])
            if modulus < 1:
                raise ParseError("divisibility modulus must be >= 1", position)
            self.i += 1
            self._expect("(")
            term = self.parse_term()
            self._expect(")")
            return Div(modulus, term)
        if tok == "P":
            self.i += 1
            nums = []
            for separator in ("[", ",", ",", ","):
                self._expect(separator)
                nums.append(self._int())
            self._expect("]")
            self._expect("(")
            low = self.parse_term()
            self._expect(",")
            high = self.parse_term()
            self._expect(")")
            if nums[0] < 1 or nums[1] < 1:
                raise ParseError("window predicate moduli must be >= 1", position)
            return PPred(*nums, low, high)
        # Either `term REL term` or a parenthesized formula; a '(' is
        # ambiguous between the two, so try the comparison and backtrack.
        saved, depth, peak = self.i, self.depth, self.peak
        try:
            left = self.parse_term()
            rel, rel_position = self._token(self.i)
            if rel not in _RELS:
                raise ParseError(_unexpected(rel), rel_position, tuple(_RELS))
            self.i += 1
            right = self.parse_term()
            primitive, swapped, negated = _RELS[rel]
            atom = Cmp(right, primitive, left) if swapped else Cmp(left, primitive, right)
            return Not(atom) if negated else atom
        except _TooDeep:
            raise
        except ParseError:
            if tok != "(":
                raise
            self.i, self.depth, self.peak = saved, depth, peak
        self._enter(position)
        inner = self.parse_formula()
        self._expect(")")
        self.depth -= 1
        return inner

    def _int(self) -> int:
        """Read an integer literal, which must come next."""
        tok, position = self._token(self.i)
        value = self._literal()
        if value is None:
            got = self._peek(1) if tok == "-" else tok
            if got is None:
                raise ParseError(_unexpected(got), len(self.text))
            raise ParseError(f"expected integer, got {got!r}", position)
        return value

    # terms; '*' binds tighter than '+'/'-', sums associate left
    def parse_term(self) -> Term:
        return self._chain(self.parse_product, ("+", "-"))

    def parse_product(self) -> Term:
        tok, position = self._token(self.i)
        value = self._literal()
        if value is not None:
            if self._peek() != "*":
                return Const(value)
            self._enter(position)
            node = Scale(value, self.parse_product())
        elif tok in ("(", "f"):
            self._enter(position)
            if tok == "f":
                self._expect("(")
            inner = self.parse_term()
            self._expect(")")
            node = F(inner) if tok == "f" else inner
        else:
            return Var(self._variable("unexpected", ("a term",)))
        self.depth -= 1
        return node


def _whole(text: str, rule) -> Formula | Term:
    """rule over the whole of text."""
    parser = _Parser(text)
    node = rule(parser)
    tok, position = parser._token(parser.i)
    if tok is not None:
        raise ParseError(f"unexpected trailing {tok!r}", position)
    return node


def parse(text: str) -> Formula:
    """Parse a formula; raises ParseError with a position on bad input."""
    return _whole(text, _Parser.parse_formula)


def parse_term(text: str) -> Term:
    return _whole(text, _Parser.parse_term)


# --- printer ----------------------------------------------------------------

def format_term(term: Term, _prec: int = 0) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Const):
        return str(term.value)
    if isinstance(term, F):
        return f"f({format_term(term.arg)})"
    if isinstance(term, Scale):
        body = f"{term.coeff} * {format_term(term.term, 1)}"
        return body
    op = "+" if isinstance(term, Add) else "-"
    body = f"{format_term(term.left)} {op} {format_term(term.right, 1)}"
    return f"({body})" if _prec >= 1 else body


def format_formula(formula: Formula) -> str:
    if isinstance(formula, Cmp):
        return f"{format_term(formula.left)} {formula.rel} {format_term(formula.right)}"
    if isinstance(formula, Div):
        return f"p{formula.modulus}({format_term(formula.term)})"
    if isinstance(formula, PPred):
        head = f"P[{formula.mod_x},{formula.mod_fx},{formula.res_x},{formula.res_fx}]"
        return f"{head}({format_term(formula.low)}, {format_term(formula.high)})"
    if isinstance(formula, Not):
        return f"!({format_formula(formula.body)})"
    if isinstance(formula, (And, Or, Implies)):
        op = "&" if isinstance(formula, And) else ("|" if isinstance(formula, Or) else "->")
        return f"{_operand(formula.left)} {op} {_operand(formula.right)}"
    if isinstance(formula, Exists):
        return f"exists {formula.var}. {format_formula(formula.body)}"
    if isinstance(formula, Forall):
        return f"forall {formula.var}. {format_formula(formula.body)}"
    raise TypeError(f"not a formula: {formula!r}")


def _operand(sub: Formula) -> str:
    text = format_formula(sub)
    if isinstance(sub, _ATOMS) or isinstance(sub, Not):
        return text
    return f"({text})"


# --- evaluation -------------------------------------------------------------

class Decision(NamedTuple):
    """Outcome of evaluation or decision.

    truth None means unknown: a quantifier scan ran out of the evaluation
    budget before it was decisive, and reason says so.  provenance "exact"
    marks a sound answer over the integers; "bounded" marks truth over the
    model with every quantifier relativized to [-bound, bound].  certificate
    is a witness of a true answer or a counterexample of a false one.
    """

    truth: bool | None
    provenance: str = EXACT
    bound: int | None = None
    certificate: int | None = None
    reason: str | None = None

    @property
    def witness(self) -> int | None:
        return self.certificate if self.truth else None

    @property
    def counterexample(self) -> int | None:
        return self.certificate if self.truth is False else None


_TRUE = Decision(True)
_FALSE = Decision(False)
_SPENT = Decision(None, BOUNDED, reason="evaluation budget spent")


def _negate(d: Decision) -> Decision:
    return d._replace(truth=None if d.truth is None else not d.truth)


def _join(a: Decision, b: Decision, decisive: bool) -> Decision:
    """a | b when decisive is True, a & b when it is False: the first side
    whose truth is decisive, an exact one before a bounded one; else the
    first unknown side; else the other truth, exact only if both sides are.
    A true a & b keeps the first witness; a false a | b carries no
    counterexample."""
    for d in (a, b):
        if d.truth is decisive and d.provenance == EXACT:
            return d
    for truth in (decisive, None):
        if a.truth is truth or b.truth is truth:
            return a if a.truth is truth else b
    exact = a.provenance == b.provenance == EXACT
    bound = None if exact else a.bound if a.bound is not None else b.bound
    witness = None if decisive else a.certificate if a.certificate is not None else b.certificate
    return Decision(not decisive, EXACT if exact else BOUNDED, bound, witness)


# the operators of generated source, and how each folds ground operands
_FOLD = {"+": add, "-": sub, "*": mul, "<": lt, "==": eq}
_OPERATOR = {Add: "+", Sub: "-", And: "and", Or: "or"}


def _scanned(scope: dict[str, int | str]) -> bool:  # some variable is a scan's slot
    return any(isinstance(v, str) for v in scope.values())


class _FTable(dict):
    """f_floor of each argument asked for, kept up to F_TABLE_CAP of them; f_floor
    is looked up at each miss, so that a wrapper around it counts every miss."""

    def __missing__(self, x: int) -> int:
        y = f_floor(x)
        if len(self) < F_TABLE_CAP:
            self[x] = y
        return y


class _Compiler:
    """One evaluate() call.  source() visits each node once: a node that is
    ground once the assignment is bound folds to its int or bool; any other
    term, or quantifier-free formula without P[...], becomes Python source
    over the list env of quantified variables' slots, where each constant
    and coefficient is a global c<i>, never printed, and f[t] reads the
    call's _FTable; the rest becomes an env -> Decision closure.  A scan of
    source is one generated loop, next((env[s] for env[s] in order if [not]
    body), None).  Each quantifier takes a fresh slot, so shadowed names
    never share one, and every scan draws on budget."""

    def __init__(self, bound: int):
        self.bound, self.budget, self.slots = bound, EVAL_BUDGET, count()
        self.names = {"__builtins__": {}, "f": _FTable(), "next": next}

    def operand(self, code) -> str:
        """Source of code; a value is bound to a fresh global c<i>."""
        if isinstance(code, str):
            return code
        name = f"c{len(self.names) - 3}"
        self.names[name] = code
        return name

    def function(self, code, params: str = "env"):
        """code as a function of params, or env -> code; source is compiled once."""
        if not isinstance(code, str):
            return lambda env: code
        return eval(f"lambda {params}: {code}", self.names)

    def decisions(self, code):
        """code as an env -> Decision closure."""
        if callable(code):
            return code
        test = self.function(code)
        return lambda env: _TRUE if test(env) else _FALSE

    def source(self, node, scope: dict[str, int | str]):
        """node's value, source or closure; scope maps each variable to its
        assigned value or to the source of its slot."""
        kind = type(node)  # not isinstance: a third of the time of a fold
        if kind is Var:
            if node.name not in scope:
                raise ValueError(f"unassigned variable {node.name!r}")
            return scope[node.name]
        if kind is Const:
            return node.value
        if kind is F:
            arg = self.source(node.arg, scope)
            return f"f[{arg}]" if isinstance(arg, str) else f_floor(arg)
        # The interpreter refuses 200 nested parentheses, so only a node the
        # parser counts a nesting level for adds one: `not`, a comparison and
        # a divisibility stay bare, as in (not a < b or c).
        if kind is Div:
            term = self.source(node.term, scope)
            if not isinstance(term, str):
                return term % node.modulus == 0
            return f"not {term} % {self.operand(node.modulus)}"
        if kind is PPred:
            return self.window_predicate(node, scope)
        if kind is Exists or kind is Forall:
            run = self.scan(node, scope)
            if not callable(run) or not _scanned(scope) or any(
                    not isinstance(scope.get(v), int) for v in free_vars(node)):
                return run
            memo: list[Decision] = []  # closed under the scans around it: one scan suffices

            def once(env: list[int]) -> Decision:
                if not memo:
                    memo.append(run(env))
                return memo[0]

            return once
        if kind is Not or kind is Implies:
            # L -> R is (not L or R)
            body = self.source(node.body if kind is Not else node.left, scope)
            if callable(body):
                def negated(env: list[int]) -> Decision:
                    return _negate(body(env))
            else:
                negated = f"not {body}" if isinstance(body, str) else not body
            if kind is Not:
                return negated
            op, left, right = "or", negated, self.source(node.right, scope)
        elif kind is Scale:
            op, left, right = "*", node.coeff, self.source(node.term, scope)
        elif kind is Cmp:
            op = "<" if node.rel == "<" else "=="
            left, right = self.source(node.left, scope), self.source(node.right, scope)
        elif kind in _OPERATOR:
            op = _OPERATOR[kind]
            left, right = self.source(node.left, scope), self.source(node.right, scope)
        else:
            raise TypeError(f"not a formula or term: {node!r}")
        if op in ("and", "or"):
            # a ground operand is the value if it decides the connective, else the
            # other side; beside a closure outside every scan the join stays (it
            # picks the witness reported)
            for ground, other in ((left, right), (right, left)):
                if isinstance(ground, bool) and (not callable(other) or _scanned(scope)):
                    return ground if ground is (op == "or") else other
        if callable(left) or callable(right):
            left, right, decisive = self.decisions(left), self.decisions(right), kind is not And

            def connect(env: list[int]) -> Decision:
                # _join returns an exact decisive left side whatever the right is
                if (a := left(env)).truth is decisive and a.provenance == EXACT:
                    return a
                return _join(a, right(env), decisive)

            return connect
        if isinstance(left, str) or isinstance(right, str):
            code = f"{self.operand(left)} {op} {self.operand(right)}"
            return code if kind is Cmp else f"({code})"
        return _FOLD[op](left, right)

    def window_predicate(self, formula: PPred, scope: dict[str, int | str]):
        low, high = (self.source(t, scope) for t in (formula.low, formula.high))
        on_x = Congruence(formula.mod_x, formula.res_x)
        on_fx = Congruence(formula.mod_fx, formula.res_fx)

        def solve(lo: int, hi: int) -> Decision:
            if lo >= hi:
                return _FALSE
            out = solve_system(CongruenceSystem(on_x, on_fx, lo, hi))
            return Decision(True, certificate=out.witness) if out.is_witness else _FALSE

        if _scanned(scope) and isinstance(low, int) and isinstance(high, int):
            # ground bounds under a scan, which reports its own certificate:
            # solved once, to a truth value that folds like any ground part
            return solve(low, high).truth
        low, high = self.function(low), self.function(high)
        return lambda env: solve(low(env), high(env))

    def scan(self, formula: Exists | Forall, scope: dict[str, int | str]):
        existential, slot, bound = isinstance(formula, Exists), next(self.slots), self.bound
        body = self.source(formula.body, {**scope, formula.var: f"env[{slot}]"})
        if body is (not existential):
            return body  # a ground body no point decides: exact, and no scan
        if callable(body):
            def first(env: list[int], order) -> Decision | None:
                for env[slot] in order:  # the Decision at the first decisive or unknown point
                    if (d := body(env)).truth is not (not existential):
                        return d
        else:  # one generated loop, to the first decisive point; a bool body is a c<i>
            test = ("" if existential else "not ") + self.operand(body)
            first = self.function(f"next((env[{slot}] for env[{slot}] in order if {test}), None)",
                                  "env, order")

        def scan(env: list[int]) -> Decision:
            # 0, 1, -1, ..., reach, -reach until the body is decisive; the
            # whole scan is charged up front, so the loop only compares,
            # and a decisive scan gives back the points it did not visit
            reach = min(bound, (self.budget - 1) // 2)
            if reach < 0:
                return _SPENT
            self.budget -= 2 * reach + 1
            points = zip(range(1, reach + 1), range(-1, -reach - 1, -1))
            found = first(env, chain((0,), chain.from_iterable(points)))
            if found is None:
                return _SPENT if reach < bound else Decision(not existential, BOUNDED, bound=bound)
            d = found if callable(body) else _TRUE  # a generated loop returns the point
            if d.truth is None:
                return d
            v = env[slot]
            self.budget += 2 * reach + 1 - (2 * v if v > 0 else 1 - 2 * v)
            return Decision(existential, d.provenance, d.bound, v)

        return scan


def evaluate(
    formula: Formula,
    assignment: dict[str, int] | None = None,
    bound: int = DEFAULT_EVAL_BOUND,
) -> Decision:
    """Evaluate over the integers with f(x) = 0 for x <= 0.

    Quantifier-free parts are exact; quantifiers scan [-bound, bound], so an
    existential witness (or universal counterexample) is sound, while a
    completed scan yields a decision tagged "bounded".  All scans together
    visit at most EVAL_BUDGET points; a scan the budget cut short that finds
    no decisive point makes the answer unknown.  Assigned variables are
    constants, and ground parts fold to values.  An & or | with a ground
    operand folds to that operand if it decides the connective, and to the
    other side if not, but not beside a scan or P[...] outside them all.  A
    quantifier over a ground body that no point decides folds to that
    value, exactly and without a scan.  A P[...] with ground bounds inside
    a quantifier is solved once, to its truth; a quantifier inside a scan
    whose free variables no scan binds is scanned once.  Each other
    quantifier-free part without P[...] runs as one generated function, and
    a scan of one as one loop, where f reads a per-call table of at most
    F_TABLE_CAP values (see _Compiler).  Raises ValueError for a negative bound."""
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    compiler = _Compiler(bound)
    run = compiler.decisions(compiler.source(formula, dict(assignment or {})))
    return run([0] * next(compiler.slots))


# --- negation normal form ---------------------------------------------------

_DUAL = {And: Or, Or: And, Exists: Forall, Forall: Exists}


def nnf(formula: Formula, negated: bool = False) -> Formula:
    """formula, or its negation when negated, with each Not directly over an
    atom and no Implies: L -> R is !L | R, and a negation swaps each
    connective and quantifier for its _DUAL."""
    kind = type(formula)
    if kind is Not:
        return nnf(formula.body, not negated)
    if kind is Implies:
        formula, kind = Or(Not(formula.left), formula.right), Or
    if kind in _DUAL:
        return (_DUAL[kind] if negated else kind)(
            *(nnf(c, negated) if isinstance(c, tuple) else c for c in formula))
    if isinstance(formula, _ATOMS):
        return Not(formula) if negated else formula
    raise TypeError(f"not a formula: {formula!r}")


def _depth(formula: Formula) -> int:
    """The most quantifiers on one path down the NNF formula."""
    if isinstance(formula, (And, Or)):
        return max(_depth(formula.left), _depth(formula.right))
    if isinstance(formula, (Exists, Forall)):
        return 1 + _depth(formula.body)
    return 0


def _miniscope(formula: Formula, top: bool = True) -> Formula:
    """The NNF formula with each scope narrowed, innermost first: exists x
    (A & B) is A & exists x B and forall x (A | B) is A | forall x B when x
    is not free in A, and a quantifier over a body without x is dropped.
    Each top-level conjunct's or disjunct's outermost quantifier stays, so
    a certificate is a value of its variable."""
    if isinstance(formula, (And, Or)):
        return type(formula)(_miniscope(formula.left, top), _miniscope(formula.right, top))
    if not isinstance(formula, (Exists, Forall)):
        return formula
    body = _miniscope(formula.body, False)
    if top:
        return type(formula)(formula.var, body)
    join = And if isinstance(formula, Exists) else Or
    outside, inside = _split(body, join, formula.var)
    return _joined(join, outside, inside and type(formula)(formula.var, inside))


def _split(formula: Formula, join: type, var: str) -> tuple[Formula | None, Formula | None]:
    """formula's join chain as (operands without var, with it), in its shape."""
    if not isinstance(formula, join):
        return (None, formula) if var in free_vars(formula) else (formula, None)
    (lo, li), (ro, ri) = _split(formula.left, join, var), _split(formula.right, join, var)
    return _joined(join, lo, ro), _joined(join, li, ri)


def _joined(join: type, left: Formula | None, right: Formula | None) -> Formula | None:
    return right if left is None else left if right is None else join(left, right)


# --- normal-form recognition ------------------------------------------------

class NormalFormQuery(NamedTuple):
    """One-variable existential conjunction: congruences on x and on f(x),
    an order window lower < x < upper, and linear constraints on f(x)."""

    var: str
    on_x: tuple[Congruence, ...]
    on_fx: tuple[Congruence, ...]
    lower: int | None
    upper: int | None
    linear: tuple[LinearConstraint, ...]


# encodes a recognized-but-unsatisfiable conjunct without leaving the shape
_FALSE_PAIR = (Congruence(2, 0), Congruence(2, 1))


def _affine(term: Term, x: str, y: str | None = None) -> dict | None:
    """term as {key: coefficient} over the keys 1 (the constant), each name
    and (a, b, c) for f(a*x + b*y + c); f of a ground term folds to its
    value, and a zero coefficient counts as absent.  None for f of a term
    with an f, or a name other than x and y, in it."""
    kind = type(term)
    if kind is Const:
        return {1: term.value}
    if kind is Var:
        return {term.name: 1}
    if kind is F:
        inner = _affine(term.arg, x, y)
        if inner is None:
            return None
        a, b, c = inner.pop(x, 0), inner.pop(y, 0), inner.pop(1, 0)
        if any(inner.values()):
            return None
        return {(a, b, c): 1} if a or b else {1: f_floor(c)}
    if kind is Scale:
        inner = _affine(term.term, x, y)
        return None if inner is None else {key: term.coeff * v for key, v in inner.items()}
    left, right = _affine(term.left, x, y), _affine(term.right, x, y)
    if left is None or right is None:
        return None
    sign = 1 if kind is Add else -1
    for key, v in right.items():
        left[key] = left.get(key, 0) + sign * v
    return left


def _linearize(term: Term, var: str) -> tuple[int, int, int] | None:
    """term == a*var + b*f(var) + c as (a, b, c), or None when _affine reads
    another key in it (f of anything but var alone or a ground term, another
    name)."""
    form = _affine(term, var)
    if form is None:
        return None
    a, b, c = form.pop(var, 0), form.pop((1, 0, 0), 0), form.pop(1, 0)
    return None if any(form.values()) else (a, b, c)


def _dnf(formula: Formula, var: str | None = None) -> list[list[Formula]] | None:
    """An NNF formula as a disjunction of conjunct lists, where !(s = t) is
    s < t | t < s, !(s < t) is t < s + 1 and !pN(t) is the disjuncts pN(t + k)
    for 0 < k < N (none when N is 1); None past MAX_DISJUNCTS disjuncts.
    Given var, each conjunction merges its divisibilities (see _conjoin)."""
    if isinstance(formula, Or):
        left, right = _dnf(formula.left, var), _dnf(formula.right, var)
        if left is None or right is None or len(left) + len(right) > MAX_DISJUNCTS:
            return None
        return left + right
    if isinstance(formula, And):
        left, right = _dnf(formula.left, var), _dnf(formula.right, var)
        if left is None or right is None:
            return None
        if len(left) * len(right) > MAX_DISJUNCTS and not (var and all(
                any(type(e) is Div for c in side for e in c) for side in (left, right))):
            return None  # no pair can merge (see _conjoin), so the product is too long
        product = [c for a in left for b in right if (c := _conjoin(a, b, var)) is not None]
        return None if len(product) > MAX_DISJUNCTS else product
    atom = formula.body if isinstance(formula, Not) else None
    if type(atom) is Cmp:
        s, t = atom.left, atom.right
        if atom.rel == "=":
            return [[Cmp(s, "<", t)], [Cmp(t, "<", s)]]
        return [[Cmp(t, "<", Add(s, Const(1)))]]
    if type(atom) is Div:
        n = atom.modulus
        if n - 1 > MAX_DISJUNCTS:
            return None
        return [[Div(n, Add(atom.term, Const(k)))] for k in range(1, n)]
    return [[formula]]


def _conjoin(a: list[Formula], b: list[Formula], var: str | None) -> list[Formula] | None:
    """a + b, less each pN(s + k) of b that repeats the residue of a pN(s + k')
    of a on the same part s = _linearize(.., var) without its constant, and
    None when the residues differ: then the two cannot both hold."""
    moduli = var and {e.modulus for e in b if type(e) is Div}
    if not moduli or not any(type(e) is Div and e.modulus in moduli for e in a):
        return a + b
    residues = {}
    for e in a:
        if type(e) is Div and (lin := _linearize(e.term, var)) is not None:
            residues[e.modulus, lin[0], lin[1]] = lin[2] % e.modulus
    out = list(a)
    for e in b:
        if type(e) is Div and (lin := _linearize(e.term, var)) is not None:
            seen = residues.get((e.modulus, lin[0], lin[1]))
            if seen is not None:
                if seen != lin[2] % e.modulus:
                    return None
                continue
        out.append(e)
    return out


def _order_window(a: int, cst: int, rel: str, lower: int | None,
                  upper: int | None) -> tuple[int | None, int | None] | None:
    """The open window lower < x < upper (None: unbounded) narrowed by
    a*x + cst <rel> 0, with rel "<" or "="; None when no integer is left."""
    if a == 0:
        return (lower, upper) if (cst < 0 if rel == "<" else cst == 0) else None
    if rel == "=":
        if cst % a:
            return None
        point = -cst // a
        lower = point - 1 if lower is None else max(lower, point - 1)
        upper = point + 1 if upper is None else min(upper, point + 1)
    elif a > 0:  # x < -cst/a
        bound = (-cst - 1) // a + 1
        upper = bound if upper is None else min(upper, bound)
    else:  # x > -cst/a
        bound = -cst // a
        lower = bound if lower is None else max(lower, bound)
    if lower is not None and upper is not None and upper - lower < 2:
        return None
    return lower, upper


def to_normal_form(formula: Formula) -> NormalFormQuery | None:
    """Recognize `exists x. <conjunction>` where every conjunct is a
    congruence on x or on f(x), a constant order bound, or a linear
    comparison of f(x) with a rational multiple of x; None otherwise."""
    if not isinstance(formula, Exists) or free_vars(formula.body) - {formula.var}:
        return None
    disjuncts = _dnf(nnf(formula.body))
    if disjuncts is None or len(disjuncts) != 1:
        return None
    return _conjunction_query(formula.var, disjuncts[0])


def _conjunction_query(var: str, conjuncts: list[Formula]) -> NormalFormQuery | None:
    """The query `exists var. <conjuncts>`, or None outside the fragment."""
    on_x: list[Congruence] = []
    on_fx: list[Congruence] = []
    lower: int | None = None
    upper: int | None = None
    linear: list[LinearConstraint] = []

    for conjunct in conjuncts:
        if isinstance(conjunct, Div):
            lin = _linearize(conjunct.term, var)
            if lin is None:
                return None
            a, b, cst = lin
            if a and b:  # a congruence on x or on f(x), not both
                return None
            solved = solve_linear(a or b, cst, conjunct.modulus)
            (on_x if b == 0 else on_fx).extend([solved] if solved else _FALSE_PAIR)
            continue
        if not isinstance(conjunct, Cmp):
            return None
        lin = _linearize(Sub(conjunct.left, conjunct.right), var)
        if lin is None:
            return None
        a, b, cst = lin

        # now: a*x + b*f(x) + cst  <rel>  0; with a == b == 0 it folds
        if b == 0:
            window = _order_window(a, cst, conjunct.rel, lower, upper)
            if window is None:
                on_x.extend(_FALSE_PAIR)
            else:
                lower, upper = window
            continue
        rel = conjunct.rel if b > 0 else {"<": ">", "=": "="}[conjunct.rel]
        linear.append(LinearConstraint(rel, Fraction(-a, b), Fraction(-cst, b)))

    return NormalFormQuery(var, tuple(on_x), tuple(on_fx), lower, upper, tuple(linear))


def _slab_cases(var: str, conjuncts: list[Formula]) -> list[list[Formula]] | None:
    """conjuncts as two cases free of their first innermost f(t) that
    _linearize refuses although it reads t = a*x + b*f(x) + c.  For x >= 1,
    f(x) = phi*x - θ with θ in (0, 1), so where t >= 1
        f(t) = b*x + (a+b)*f(x) + floor(λθ + c*phi),  λ = a + b - b*phi,
    and where t <= 0, f(t) = 0.  None when that floor takes more than one
    value on (0, 1), or when some x <= 0 may have t >= 1 (there f(x) = 0 and
    t = a*x + c): a < 0 or c > 0 while the order window reaches x <= 0."""
    term = next((node for e in conjuncts for node in _nodes(e) if isinstance(node, F)
                 and _linearize(node, var) is None and _linearize(node.arg, var)), None)
    if term is None:
        return None
    a, b, c = _linearize(term.arg, var)
    ends = (0, c), (a + b, c - b)  # λθ + c*phi at θ = 0, 1
    k = min(phi_floor(*end) for end in ends)
    if max(phi_ceil(*end) for end in ends) != k + 1:
        return None
    if a < 0 or c > 0:
        window = _conjunction_query(var, [e for e in conjuncts if _conjunction_query(var, [e])])
        if window.lower is None or window.lower < 0:
            return None
    value = Add(Add(Scale(b, Var(var)), Scale(a + b, F(Var(var)))), Const(k))
    return [[Cmp(Const(0), "<", Var(var)), Cmp(Const(0), "<", term.arg),
             *(_replace(e, term, value) for e in conjuncts)],
            [Cmp(term.arg, "<", Const(1)), *(_replace(e, term, Const(0)) for e in conjuncts)]]


def _nodes(node: Formula | Term):
    """node and each formula or term in it, inner ones first."""
    for child in node:
        if isinstance(child, tuple):
            yield from _nodes(child)
    yield node


def _replace(node: Formula | Term, old: Term, new: Term) -> Formula | Term:
    """node with each occurrence of old replaced by new."""
    if node == old:
        return new
    return node._make(_replace(c, old, new) if isinstance(c, tuple) else c for c in node)


# --- normal-form decision ---------------------------------------------------

def _query_holds(query: NormalFormQuery, x: int) -> bool:
    if any(not cg.holds(x) for cg in query.on_x):
        return False
    fx = f_floor(x)
    if any(not cg.holds(fx) for cg in query.on_fx):
        return False
    if query.lower is not None and not query.lower < x:
        return False
    if query.upper is not None and not x < query.upper:
        return False
    return all(lc.holds(x) for lc in query.linear)


def _negative_branch(query: NormalFormQuery, mx: Congruence, mf: Congruence) -> int | None:
    """The witness <= 0 nearest 0, if there is one: f vanishes there, so the
    f-congruence needs residue 0 and each linear constraint 0 <rel> m*x + c0
    narrows the order window on x."""
    if mf.residue != 0:
        return None
    window = (query.lower, 1 if query.upper is None else min(query.upper, 1))
    for lc in query.linear:
        _, m, c0 = lc.integer_form()
        sign = -1 if lc.relation == "<" else 1  # 0 < m*x + c0 is -m*x - c0 < 0
        rel = "=" if lc.relation == "=" else "<"
        window = _order_window(sign * m, sign * c0, rel, *window)
        if window is None:
            return None
    lower, upper = window
    x = upper - 1 - (upper - 1 - mx.residue) % mx.modulus
    return None if lower is not None and x <= lower else x


def decide_existential_nf(query: NormalFormQuery) -> Decision:
    """Exact decision of a normal-form query over the integers.

    Pipeline: merge the congruence lists, settle the x <= 0 branch directly,
    intersect the order window (narrowed to x <= |n| when n <= 0 is a
    witness) with the linear-constraint windows, and run the congruence
    solver on each surviving piece below the least witness found so far.
    Pieces may overlap in range, so the witness is the least over every
    piece: the first in the scan order 0, 1, -1, ... of n."""
    mx = crt_combine(list(query.on_x)) if query.on_x else Congruence(1, 0)
    if mx is None:
        return Decision(False)
    mf = crt_combine(list(query.on_fx)) if query.on_fx else Congruence(1, 0)
    if mf is None:
        return Decision(False)

    # a positive witness comes first in the scan order 0, 1, -1, ... unless
    # it is above the nonpositive one's |x|
    upper, negative = query.upper, _negative_branch(query, mx, mf)
    if negative is not None:
        assert _query_holds(query, negative)
        if negative == 0:
            return Decision(True, certificate=0)
        upper = 1 - negative if upper is None else min(upper, 1 - negative)

    window = WindowSet.between(query.lower, upper)
    for lc in query.linear:
        window = window.intersect(solution_window(lc))

    least = None
    for piece in window.pieces:
        if least is not None and piece.lo >= least:  # pieces are sorted by lo
            break
        merged = crt_combine([mx, Congruence(piece.mod, piece.res)])
        if merged is None:
            continue
        top = None if piece.hi is None else piece.hi + 1
        if least is not None:
            top = least if top is None else min(top, least)
        out = solve_system(CongruenceSystem(merged, mf, lower=piece.lo - 1, upper=top))
        if out.is_witness:
            least = out.witness
    if least is not None:
        assert _query_holds(query, least)
        return Decision(True, certificate=least)
    return Decision(False) if negative is None else Decision(True, certificate=negative)


def decide(sentence: Formula, bound: int = DEFAULT_EVAL_BOUND) -> Decision:
    """Decide a sentence, miniscoped if quantifiers nest: quantifier-free
    parts exactly, single-quantifier sentences whose body is a Boolean
    combination of normal-form atoms disjunct by disjunct through the
    window/congruence pipeline (universal ones via their negation), a true
    forall x (. forall y) or false exists x (. exists y) that
    _decide_two_variables proves, everything else by bounded evaluation.
    A top-level & or | decides its right side only when the left is not an
    exact answer that settles it.  Raises ValueError for a negative bound."""
    if free_vars(sentence):
        raise ValueError("decide requires a sentence (no free variables)")
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    sentence = nnf(sentence)
    return _decide(_miniscope(sentence) if _depth(sentence) > 1 else sentence, bound)


def _decide(sentence: Formula, bound: int) -> Decision:
    depth = _depth(sentence)
    if depth == 0:
        return evaluate(sentence, {}, bound)
    if isinstance(sentence, (Exists, Forall)):
        decision = _decide_one_variable(sentence) if depth == 1 else None
        if decision is None and depth <= 2:
            decision = _decide_two_variables(sentence)
        return evaluate(sentence, {}, bound) if decision is None else decision
    decisive, a = isinstance(sentence, Or), _decide(sentence.left, bound)  # an & or a |
    if a.truth is decisive and a.provenance == EXACT:
        return a
    return _join(a, _decide(sentence.right, bound), decisive)


def _decide_one_variable(sentence: Exists | Forall) -> Decision | None:
    """Exact decision of an NNF one-quantifier sentence with a quantifier-free
    body, by exists x (A | B) == exists x A | exists x B over the DNF of the
    body (of its negation for forall), split by _slab_cases into the normal
    form; None when some disjunct is not, or past MAX_DISJUNCTS.  Each gives
    its witness first in the scan order 0, 1, -1, ...: the least positive
    one if it is at most the |x| of the nonpositive one nearest 0, else that
    one; the certificate is the first of those in that order, checked
    against the whole body.  An empty DNF (that of !p1) has no disjunct to
    satisfy."""
    existential = isinstance(sentence, Exists)
    todo = _dnf(sentence.body if existential else nnf(sentence.body, negated=True), sentence.var)
    queries: list[NormalFormQuery] = []
    while todo and len(queries) + len(todo) <= MAX_DISJUNCTS:
        conjuncts = todo.pop()
        if query := _conjunction_query(sentence.var, conjuncts):
            queries.append(query)
        elif (cases := _slab_cases(sentence.var, conjuncts)) is not None:
            todo += cases
        else:
            return None
    if todo != []:  # None, or cases left past MAX_DISJUNCTS
        return None
    found = [d.certificate for d in map(decide_existential_nf, queries) if d.truth]
    if not found:
        return Decision(not existential)
    x = min(found, key=lambda v: (abs(v), -v))  # the scan's order 0, 1, -1, ...
    assert evaluate(sentence.body, {sentence.var: x}).truth is existential
    return Decision(existential, certificate=x)


# --- two-variable route -----------------------------------------------------
#
# A number of Z[phi] is a pair (p, q) for p + q*phi, and one of Q(phi) is
# (p, q, d) for (p + q*phi)/d with d > 0.  A point of the (u, v) square is
# (Up, Uq, Vp, Vq, D) for u = (Up + Uq*phi)/D and v = (Vp + Vq*phi)/D; a
# line is (a, b, p, q) for a*u + b*v = p + q*phi with integers a and b; and
# a convex polygon is its list of (vertex, line of the edge to the next one).

# Cells the two-variable route may cut in one decision before it declines:
# about 0.1 s on a 2-vCPU VM.
MAX_CELLS = 4096
# the unit square of (u, v), with its edges v = 0, u = 1, v = 1 and u = 0
_SQUARE = [((0, 0, 0, 0, 1), (0, 1, 0, 0)), ((1, 0, 0, 0, 1), (1, 0, 1, 0)),
           ((1, 0, 1, 0, 1), (0, 1, 1, 0)), ((0, 0, 1, 0, 1), (1, 0, 0, 0))]


def _decide_two_variables(sentence: Exists | Forall) -> Decision | None:
    """Exact decision of an NNF sentence Q x. body or Q x. Q y. body (see
    _prenex_pair):
    True for a universal, False for an existential, when _no_point proves
    every disjunct of the DNF of the body (of its negation for forall) empty
    within MAX_CELLS cells in all.  None otherwise, and always for a
    true existential or a false universal."""
    pair = _prenex_pair(sentence)
    if pair is None:
        return None
    x, y, body = pair
    existential = isinstance(sentence, Exists)
    disjuncts = _dnf(body if existential else nnf(body, negated=True))
    if disjuncts is None:
        return None
    atoms = {}
    for e in chain.from_iterable(disjuncts):
        if id(e) not in atoms:
            atoms[id(e)] = _atom(e, x, y)
    cells = iter(range(MAX_CELLS))  # the budget, one item per case and cell
    if None in atoms.values() or not all(
            _no_point([atoms[id(e)] for e in conjuncts], cells) for conjuncts in disjuncts):
        return None
    return Decision(not existential)


def _prenex_pair(sentence: Exists | Forall) -> tuple[str, str | None, Formula] | None:
    """(x, y, body) when the NNF sentence's only quantifiers are itself, over
    x, and at most one more of its kind over another name y (None when there
    is none), and body is the sentence without them: the & and | around the
    inner one do not bind y, which is free nowhere else, so the sentence is
    Q x. Q y. body."""
    kind, names = type(sentence), []

    def strip(node: Formula) -> Formula:
        if type(node) in (Exists, Forall):
            names.append(node.var if type(node) is kind else None)
            return strip(node.body)
        if type(node) in (And, Or):
            return type(node)(strip(node.left), strip(node.right))
        return node

    body = strip(sentence)
    if len(names) > 2 or None in names or names[0] in names[1:]:
        return None
    return names[0], names[1] if len(names) == 2 else None, body


def _atom(e: Formula, x: str, y: str | None) -> tuple | None:
    """s < t as E = s - t + 1 <= 0 and s = t as E = s - t = 0, kept as
    (is_eq, E's coefficients of x and y, its constant, ((a, b, c), w) for
    each w*f(a*x + b*y + c) in it); None for any other atom."""
    if type(e) is not Cmp:
        return None
    left, right = _affine(e.left, x, y), _affine(e.right, x, y)
    if left is None or right is None:
        return None
    for key, v in right.items():
        left[key] = left.get(key, 0) - v
    terms = tuple((key, w) for key, w in left.items() if type(key) is tuple and w)
    return e.rel == "=", left.get(x, 0), left.get(y, 0), left.get(1, 0) + (e.rel == "<"), terms


def _no_point(atoms: list[tuple], cells: Iterator) -> bool:
    """True when no integers x, y satisfy all the atoms (see _atom); False
    when that is not proved.  The atoms without f bound the polyhedron P of
    (x, y) from the start."""
    order = set().union(*(_half_planes(*atom[:4]) for atom in atoms if not atom[4]))
    atoms = [atom for atom in atoms if atom[4]]
    terms = sorted({key for atom in atoms for key, _ in atom[4]})
    return _signs_excluded(atoms, terms, {}, _polyhedron(order), cells)


def _half_planes(is_eq: bool, lx: int, ly: int, k: int) -> set[tuple[int, int, int]]:
    """lx*x + ly*y + k <= 0, or = 0, as constraints (a, b, d): a*x + b*y <= d."""
    return {(lx, ly, -k), (-lx, -ly, k)} if is_eq else {(lx, ly, -k)}


def _polyhedron(constraints: set) -> tuple | None:
    """(constraints, _corners, _rays) of a polyhedron, None when it is empty."""
    corners = _corners(constraints)
    return (constraints, corners, _rays(constraints)) if corners else None


def _signs_excluded(atoms: list, terms: list, positive: dict, polyhedron: tuple | None,
                    cells: Iterator) -> bool:
    """_no_point over each case of the signs of the f arguments not yet in
    positive: t = a*x + b*y + c is <= 0, where f(t) = 0, or >= 1.  A sign
    that P already fixes makes one case, and one that empties P none."""
    if polyhedron is None:
        return True
    if len(positive) == len(terms):
        return _case_excluded(atoms, positive, polyhedron, cells)
    a, b, c = term = terms[len(positive)]
    least, most = _range(polyhedron, (a, 0), (b, 0))  # of a*x + b*y over P
    up = least is not None and least[0] >= (1 - c) * least[2]
    if up or most is not None and most[0] <= -c * most[2]:
        cases = [(up, polyhedron)]
    else:
        cases = ((up, _polyhedron(polyhedron[0] | {cut}))
                 for up, cut in ((True, (-a, -b, c - 1)), (False, (a, b, -c))))
    return all(_signs_excluded(atoms, terms, {**positive, term: up}, case, cells)
               for up, case in cases)


def _case_excluded(atoms: list, positive: dict, polyhedron: tuple, cells: Iterator) -> bool:
    """_no_point in one case of signs, where each f argument t = a*x + b*y + c
    is <= 0 (f(t) = 0) or, when positive[(a, b, c)], >= 1, where
        f(t) = a*X + b*Y + floor(a*u + b*v + c*phi)
    for every integer x and y, with X = floor(phi*x) = phi*x - u and
    Y = floor(phi*y) = phi*y - v, so that u, v lie in [0, 1): phi*t is
    a*(X + u) + b*(Y + v) + c*phi.  An atom left without f bounds the
    rational polyhedron P of (x, y) further.  Each other atom is
        E = l(x, y) + K + Σ w*floor(L) - A*u - B*v,
    l = (α + A*phi)*x + (β + B*phi)*y, and E is excluded on a cell of (u, v)
    where each floor(L) = k when the least of l over P plus the least of the
    rest over the closed cell is above 0 (or, for E = 0, the greatest of
    both is below 0).  That needs no density argument: at x, y in P with
    t >= 1, L = phi*t - a*X - b*Y is never an integer, so (u, v) is in the
    closure of a cell of positive area with its own floors.  A cell of zero
    area is dropped, and a cell no atom excludes is met: False."""
    if next(cells, None) is None:
        return False
    order, rest = set(), []
    for is_eq, lx, ly, k, terms in atoms:
        shifted = [(key, w) for key, w in terms if positive[key]]  # the other f(t) are 0
        if not shifted:
            order |= _half_planes(is_eq, lx, ly, k)
            continue
        big_x = sum(w * a for (a, _, _), w in shifted)
        big_y = sum(w * b for (_, b, _), w in shifted)
        rest.append((is_eq, lx, ly, k, big_x, big_y, shifted))
    if order - polyhedron[0]:
        polyhedron = _polyhedron(polyhedron[0] | order)
        if polyhedron is None:
            return True
    lines = sorted({line for atom in rest for line, _ in atom[6]})
    index = {line: i for i, line in enumerate(lines)}
    bounded = []
    for is_eq, lx, ly, k, big_x, big_y, floors in rest:
        least, most = _range(polyhedron, (lx, big_x), (ly, big_y))
        bounds = [(v, sign) for v, sign in ((least, 1), (most if is_eq else None, -1)) if v]
        if bounds:  # else l is unbounded over P where it matters: it excludes no cell
            bounded.append((bounds, k, big_x, big_y, [(index[line], w) for line, w in floors]))
    if not bounded:
        return False
    ranges = []  # over the square, from its corners, where a*u + b*v is 0, a, b or a + b
    for a, b, c in lines:
        low = phi_floor(0, c)
        ranges.append((low + min(0, a, b, a + b), low + (c != 0) + max(0, a, b, a + b)))
    return _cells_excluded(_SQUARE, ranges, lines, bounded, cells)


def _cells_excluded(polygon: list, ranges: list, lines: list, atoms: list,
                    cells: Iterator) -> bool:
    """True when some atom is excluded on the whole polygon, with each
    floor(a*u + b*v + c*phi) of lines taken at its worst there, or when the
    first floor with more than one value there cuts it into cells, one per
    value, and each cell of positive area is excluded in turn; False at a
    cell where every floor takes one value and no atom is excluded, or once
    cells runs out.  ranges holds (least, greatest + 1) of each
    floor over the polygon."""
    for bounds, k, big_x, big_y, floors in atoms:
        for bound, sign in bounds:
            const = k + sum(w * (ranges[i][0] if sign * w > 0 else ranges[i][1] - 1)
                            for i, w in floors)
            if all(sign * phi_sign(bound[0] * d + bound[2] * (const * d - big_x * up - big_y * vp),
                                   bound[1] * d - bound[2] * (big_x * uq + big_y * vq)) > 0
                   for (up, uq, vp, vq, d), _ in polygon):
                return True
    split = next((i for i, (low, high) in enumerate(ranges) if high - low > 1), None)
    if split is None:
        return False
    (a, b, c), (low, high) = lines[split], ranges[split]
    for k in range(low, high):
        if next(cells, None) is None:
            return False
        cell = polygon if k == low else _clip(polygon, (a, b, k, -c))  # the floor is >= low
        if len(cell) > 2 and k < high - 1:
            cell = _clip(cell, (-a, -b, -k - 1, c))
        if len(cell) > 2 and not _cells_excluded(
                cell, _ranges(cell, lines, ranges, split, k), lines, atoms, cells):
            return False
    return True


def _ranges(cell: list, lines: list, ranges: list, split: int, k: int) -> list:
    """The ranges of the floors over a cell of a polygon over which they
    have ranges, where floor number split is k: a floor of one value keeps
    it, and the others are found from the cell's vertices."""
    out = []
    for i, (a, b, c) in enumerate(lines):
        if i == split:
            out.append((k, k + 1))
        elif ranges[i][1] - ranges[i][0] == 1:
            out.append(ranges[i])
        else:
            low, high = _extremes([(a * up + b * vp, a * uq + b * vq + c * d, d)
                                   for (up, uq, vp, vq, d), _ in cell])
            out.append((phi_floor(*low), phi_ceil(*high)))
    return out


def _compare(v: tuple[int, int, int], w: tuple[int, int, int]) -> int:
    """The sign of v - w for numbers (p + q*phi)/d of Q(phi)."""
    return phi_sign(v[0] * w[2] - w[0] * v[2], v[1] * w[2] - w[1] * v[2])


def _extremes(values: list) -> tuple:
    """(least, greatest) of numbers of Q(phi)."""
    least = most = values[0]
    for v in values:
        if _compare(v, least) < 0:
            least = v
        elif _compare(v, most) > 0:
            most = v
    return least, most


def _clip(polygon: list, cut: tuple[int, int, int, int]) -> list:
    """The convex polygon cut to a*u + b*v >= p + q*phi for cut (a, b, p, q).
    Vertices on the cut stay, so a cut that only touches leaves one or two
    of them; a polygon of positive area keeps no three on one line."""
    a, b, p, q = cut
    sides = [phi_sign(a * up + b * vp - p * d, a * uq + b * vq - q * d)
             for (up, uq, vp, vq, d), _ in polygon]
    if min(sides) >= 0 or max(sides) <= 0:
        return polygon if min(sides) >= 0 else [v for v, s in zip(polygon, sides) if s == 0]
    out = []
    for i, (vertex, line) in enumerate(polygon):
        s, t = sides[i], sides[i + 1 - len(polygon)]
        if s >= 0:
            out.append((vertex, line if s > 0 or t >= 0 else cut))
        if s * t < 0:
            out.append((_meet(line, cut), cut if s > 0 else line))
    return out


def _meet(first: tuple, second: tuple) -> tuple[int, int, int, int, int]:
    """The point where two lines that are not parallel cross."""
    a1, b1, p1, q1 = first
    a2, b2, p2, q2 = second
    det = a1 * b2 - a2 * b1
    s = 1 if det > 0 else -1
    return (s * (p1 * b2 - p2 * b1), s * (q1 * b2 - q2 * b1),
            s * (a1 * p2 - a2 * p1), s * (a1 * q2 - a2 * q1), s * det)


def _corners(constraints: set) -> list[tuple[int, int, int]]:
    """The points (x*D, y*D, D), D > 0, of the polyhedron a*x + b*y <= d for
    each (a, b, d) among its vertices, the feet of the perpendiculars from
    the origin to its lines and the origin.  Every face of least dimension
    holds one, so a linear form bounded below on the polyhedron takes its
    least value at one; none when it is empty."""
    lines = [(a, b, d) for a, b, d in constraints if a or b]
    points = [(0, 0, 1)] + [(d * a, d * b, a * a + b * b) for a, b, d in lines]
    for i, (a1, b1, d1) in enumerate(lines):
        for a2, b2, d2 in lines[i + 1:]:
            if a1 * b2 != a2 * b1:
                px, _, py, _, e = _meet((a1, b1, d1, 0), (a2, b2, d2, 0))
                points.append((px, py, e))
    return [(px, py, e) for px, py, e in points
            if all(a * px + b * py <= d * e for a, b, d in constraints)]


def _rays(constraints: set) -> list[tuple[int, int]]:
    """Directions that generate the recession cone of the polyhedron: the
    axes, each line's two directions and each inward normal, where the cone
    holds them."""
    directions = {(1, 0), (-1, 0), (0, 1), (0, -1)}
    for a, b, _ in constraints:
        directions |= {(-b, a), (b, -a), (-a, -b)}
    return [(r, s) for r, s in directions if all(a * r + b * s <= 0 for a, b, _ in constraints)]


def _range(polyhedron: tuple, alpha: tuple[int, int], beta: tuple[int, int]) -> tuple:
    """(least, greatest) of alpha*x + beta*y (alpha, beta in Z[phi]) over
    the polyhedron, each None when a ray takes the form past every bound."""
    if alpha == beta == (0, 0):
        return (0, 0, 1), (0, 0, 1)
    _, corners, rays = polyhedron
    signs = {phi_sign(alpha[0] * r + beta[0] * s, alpha[1] * r + beta[1] * s) for r, s in rays}
    least, most = _extremes([(alpha[0] * px + beta[0] * py, alpha[1] * px + beta[1] * py, d)
                             for px, py, d in corners])
    return None if -1 in signs else least, None if 1 in signs else most


# --- axiom audit ------------------------------------------------------------

class FamilyResult(NamedTuple):
    name: str
    instances: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


class AuditReport(NamedTuple):
    bound: int
    families: tuple[FamilyResult, ...]

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.families)


def _audit_minimum(n: int) -> FamilyResult:
    """f(x) is the least natural number not hit by {f(t), f(t)+t : t < x},
    f vanishes on nonpositives, and f(1) = 1."""
    failures: list[str] = []
    instances = 0
    for x in range(-n, 1):
        instances += 1
        if f_floor(x) != 0:
            failures.append(f"f({x}) != 0")
    if f_floor(1) != 1:
        failures.append("f(1) != 1")
    instances += 1
    limit = f_floor(n) + n + 2
    hit = bytearray(limit + 2)
    hit[0] = 1
    cursor = 1
    for x in range(1, n + 1):
        while cursor <= limit and hit[cursor]:
            cursor += 1
        instances += 1
        fx = f_floor(x)
        if fx != cursor:
            failures.append(f"x={x}: least unhit is {cursor}, f(x)={fx}")
        if fx <= limit:
            hit[fx] = 1
        if fx + x <= limit:
            hit[fx + x] = 1
    return FamilyResult("f-minimum", instances, tuple(failures[:5]))


def _audit_partition(n: int) -> FamilyResult:
    """Every positive integer is f(x) or f(x)+x for exactly one branch."""
    failures: list[str] = []
    counts = bytearray(n + 1)
    for x in range(1, n + 1):
        fx = f_floor(x)
        for v in (fx, fx + x):
            if v <= n:
                counts[v] += 1
    for m in range(1, n + 1):
        if counts[m] != 1:
            failures.append(f"n={m} covered {counts[m]} times")
    for m in range(1, n + 1):
        d = decompose(m)
        value = f_floor(d.x) if d.kind == "F" else f_floor(d.x) + d.x
        if value != m:
            failures.append(f"decompose({m}) -> {d} does not verify")
    return FamilyResult("beatty-partition", 2 * n, tuple(failures[:5]))


def _audit_window_predicate(n: int) -> FamilyResult:
    """Solver agreement with enumeration for the window predicate."""
    failures: list[str] = []
    instances = 0
    windows = [(-7, 23), (0, 50), (-3, 4), (-min(n, 60), min(n, 60))]
    for n_x in range(1, 5):
        for n_fx in range(1, 5):
            for m_x in range(n_x):
                for m_fx in range(n_fx):
                    for low, high in windows:
                        instances += 1
                        system = CongruenceSystem(
                            Congruence(n_x, m_x), Congruence(n_fx, m_fx),
                            lower=low, upper=high,
                        )
                        got = solve_system(system).is_witness
                        want = any(
                            x % n_x == m_x and f_floor(x) % n_fx == m_fx
                            for x in range(low + 1, high)
                        )
                        if got != want:
                            failures.append(
                                f"P[{n_x},{n_fx},{m_x},{m_fx}]({low},{high}): "
                                f"solver={got} enumeration={want}"
                            )
    return FamilyResult("window-predicate", instances, tuple(failures[:5]))


def _audit_convergents(n: int) -> FamilyResult:
    """Convergent-substituted implications, in the form that holds: x
    restricted to integer right-hand sides, convergent index at the least
    adequate value (the literal any-index form is false; see axiom_v_check)."""
    failures: list[str] = []
    instances = 0
    x_range = min(n, 2000)
    slopes = [Fraction(0), Fraction(1), Fraction(3, 2),
              Fraction(8, 5), Fraction(5, 3), Fraction(2)]
    for slope in slopes:
        for offset in range(-3, 4):
            index = least_adequate_index(slope, offset)
            report = axiom_v_check(slope, offset, index, x_range, only_integer_rhs=True)
            instances += report.checked
            if not report.passed:
                failures.append(
                    f"slope={slope} offset={offset} i={index}: "
                    f"x={report.counterexamples[0]}"
                )
    return FamilyResult("convergent-implications", instances, tuple(failures[:5]))


def _audit_f_identities(n: int) -> FamilyResult:
    """f(f(x)) = f(x) + x - 1 and f(f(x) + x) = 2 f(x) + x on [1, n]."""
    failures: list[str] = []
    for x in range(1, n + 1):
        fx = f_floor(x)
        if f_floor(fx) != fx + x - 1:
            failures.append(f"f(f({x})) != f({x}) + {x} - 1")
        if f_floor(fx + x) != 2 * fx + x:
            failures.append(f"f(f({x})+{x}) != 2f({x}) + {x}")
    return FamilyResult("f-identities", 2 * n, tuple(failures[:5]))


def axiom_audit(n: int) -> AuditReport:
    """Check the five defining axiom families on [-n, n]."""
    if n < 2:
        raise ValueError(f"audit range must be >= 2, got {n}")
    families = (
        _audit_minimum(n),
        _audit_partition(n),
        _audit_window_predicate(n),
        _audit_convergents(n),
        _audit_f_identities(n),
    )
    return AuditReport(n, families)
