"""First-order language over (Z, +, -, <, f, p_n, window predicates, 0, 1)
with f(x) = floor(phi * x): parser, printer, exact evaluation over the
integers, a normal-form decider for single-quantifier sentences, bounded
model checking for everything else, and an audit of the defining axioms.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from math import floor, gcd
from operator import itemgetter

from .congruence import Congruence, CongruenceSystem, crt_combine, solve_system
from .golden import f_floor
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
    "Decision", "EXACT", "BOUNDED", "DEFAULT_EVAL_BOUND", "MAX_NESTING",
    "evaluate", "free_vars", "nnf",
    "NormalFormQuery", "to_normal_form", "decide_existential_nf", "decide",
    "FamilyResult", "AuditReport", "axiom_audit",
]

EXACT = "exact"
BOUNDED = "bounded"
DEFAULT_EVAL_BOUND = 10_000


# --- terms -----------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Add:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Sub:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Scale:
    coeff: int
    term: "Term"


@dataclass(frozen=True)
class F:
    arg: "Term"


Term = Var | Const | Add | Sub | Scale | F


# --- formulas ---------------------------------------------------------------

@dataclass(frozen=True)
class Cmp:
    left: Term
    rel: str  # "<" or "="
    right: Term

    def __post_init__(self) -> None:
        if self.rel not in ("<", "="):
            raise ValueError(f"primitive relations are < and =, got {self.rel!r}")


@dataclass(frozen=True)
class Div:
    modulus: int
    term: Term

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"divisibility modulus must be >= 1, got {self.modulus}")


@dataclass(frozen=True)
class PPred:
    """Solvability predicate: exists x with x = res_x (mod mod_x),
    f(x) = res_fx (mod mod_fx) and low < x < high."""

    mod_x: int
    mod_fx: int
    res_x: int
    res_fx: int
    low: Term
    high: Term

    def __post_init__(self) -> None:
        if self.mod_x < 1 or self.mod_fx < 1:
            raise ValueError("window predicate moduli must be >= 1")
        object.__setattr__(self, "res_x", self.res_x % self.mod_x)
        object.__setattr__(self, "res_fx", self.res_fx % self.mod_fx)


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Cmp | Div | PPred | Not | And | Or | Implies | Exists | Forall

_ATOMS = (Cmp, Div, PPred)
_RESERVED = {"f", "P", "exists", "forall"}
_P_DIGITS = re.compile(r"^p\d+$")


def free_vars(node: Formula | Term) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Const):
        return set()
    if isinstance(node, (Add, Sub)):
        return free_vars(node.left) | free_vars(node.right)
    if isinstance(node, Scale):
        return free_vars(node.term)
    if isinstance(node, F):
        return free_vars(node.arg)
    if isinstance(node, Cmp):
        return free_vars(node.left) | free_vars(node.right)
    if isinstance(node, Div):
        return free_vars(node.term)
    if isinstance(node, PPred):
        return free_vars(node.low) | free_vars(node.high)
    if isinstance(node, Not):
        return free_vars(node.body)
    if isinstance(node, (And, Or, Implies)):
        return free_vars(node.left) | free_vars(node.right)
    if isinstance(node, (Exists, Forall)):
        return free_vars(node.body) - {node.var}
    raise TypeError(f"not a formula or term: {node!r}")


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


_TOKEN = re.compile(r"\s*(->|<=|>=|!=|[()\[\],.+\-*<>=!&|]|\d+|[A-Za-z_][A-Za-z0-9_]*)")
_SPACE = re.compile(r"\s*")
_RELS = ("<", "<=", "=", "!=", ">", ">=")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        # Tokens are scanned only as the parser reaches them, so the first
        # error met is the one reported; the list stays for backtracking,
        # and the end of the text is a last token None.
        self.tokens: list[tuple[str | None, int]] = []
        self.scanned = 0  # offset where scanning resumes
        self.i = 0
        # Nesting: each open ( ! quantifier f( -> and k* counts one level,
        # and each &, |, + or - one more for everything on its left, since
        # those chains build left-deep trees.  depth is the nesting at the
        # current token, peak the deepest reached by the current operand.
        self.depth = self.peak = 0

    def _enter(self) -> None:
        """Open a construct at the current token."""
        self.depth += 1
        self.peak = max(self.peak, self.depth)
        if self.depth > MAX_NESTING:
            raise _TooDeep(f"nesting deeper than {MAX_NESTING}", self._pos())

    def _link(self, left_peak: int, right_peak: int, position: int) -> int:
        """Nesting reached by a chain node over operands that reached these
        (each operand is parsed with peak reset to the chain's depth)."""
        peak = max(left_peak, right_peak) + 1
        if peak > MAX_NESTING:
            raise _TooDeep(f"nesting deeper than {MAX_NESTING}", position)
        return peak

    def _has(self, k: int) -> bool:
        """Whether token k exists, scanning up to it."""
        text, tokens = self.text, self.tokens
        while len(tokens) <= k:
            if tokens and tokens[-1][0] is None:
                return False
            m = _TOKEN.match(text, self.scanned)
            if not m:
                pos = _SPACE.match(text, self.scanned).end()
                if pos < len(text):
                    raise ParseError(f"unexpected character {text[pos]!r}", pos)
                tokens.append((None, pos))
                continue
            token, pos = m.group(1), m.start(1)
            literal = token.removeprefix("p")  # p<digits> carries a modulus
            if len(literal) > MAX_LITERAL_DIGITS and literal.isdigit():
                raise ParseError(f"integer literal longer than {MAX_LITERAL_DIGITS} digits", pos)
            tokens.append((token, pos))
            self.scanned = m.end()
        return True

    def _peek(self, ahead: int = 0) -> str | None:
        k = self.i + ahead
        return self.tokens[k][0] if k < len(self.tokens) or self._has(k) else None

    def _pos(self) -> int:
        i = self.i
        return self.tokens[i][1] if i < len(self.tokens) or self._has(i) else len(self.text)

    def _advance(self) -> str:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self._pos())
        self.i += 1
        return tok

    def _expect(self, token: str) -> None:
        got = self._peek()
        if got != token:
            raise ParseError(
                f"unexpected {'end of input' if got is None else got!r}",
                self._pos(), (repr(token),),
            )
        self.i += 1

    # formulas; precedence ! > & > | > ->, quantifiers extend maximally right
    def parse_formula(self) -> Formula:
        left = self.parse_or()
        if self._peek() == "->":
            self._enter()
            self._advance()
            node = Implies(left, self.parse_formula())
            self.depth -= 1
            return node
        return left

    def parse_or(self) -> Formula:
        outer, self.peak = self.peak, self.depth
        node, peak = self.parse_and(), self.peak
        while self._peek() == "|":
            position = self._pos()
            self._advance()
            self.peak = self.depth
            right = self.parse_and()
            peak = self._link(peak, self.peak, position)
            node = Or(node, right)
        self.peak = max(outer, peak)
        return node

    def parse_and(self) -> Formula:
        outer, self.peak = self.peak, self.depth
        node, peak = self.parse_unary(), self.peak
        while self._peek() == "&":
            position = self._pos()
            self._advance()
            self.peak = self.depth
            right = self.parse_unary()
            peak = self._link(peak, self.peak, position)
            node = And(node, right)
        self.peak = max(outer, peak)
        return node

    def parse_unary(self) -> Formula:
        tok = self._peek()
        if tok == "!":
            self._enter()
            self._advance()
            node = Not(self.parse_unary())
        elif tok in ("exists", "forall"):
            self._enter()
            self._advance()
            name = self._variable_name()
            self._expect(".")
            body = self.parse_formula()
            node = Exists(name, body) if tok == "exists" else Forall(name, body)
        else:
            return self.parse_atom()
        self.depth -= 1
        return node

    def _variable_name(self) -> str:
        pos = self._pos()
        tok = self._advance()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise ParseError(f"invalid variable name {tok!r}", pos)
        if tok in _RESERVED or _P_DIGITS.match(tok):
            raise ParseError(f"{tok!r} is reserved", pos)
        return tok

    def parse_atom(self) -> Formula:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self._pos())
        if _P_DIGITS.match(tok) and self._peek(1) == "(":
            modulus = int(tok[1:])
            pos = self._pos()
            if modulus < 1:
                raise ParseError("divisibility modulus must be >= 1", pos)
            self._advance()
            self._expect("(")
            term = self.parse_term()
            self._expect(")")
            return Div(modulus, term)
        if tok == "P":
            pos = self._pos()
            self._advance()
            self._expect("[")
            nums = [self._int()]
            for _ in range(3):
                self._expect(",")
                nums.append(self._int())
            self._expect("]")
            self._expect("(")
            low = self.parse_term()
            self._expect(",")
            high = self.parse_term()
            self._expect(")")
            if nums[0] < 1 or nums[1] < 1:
                raise ParseError("window predicate moduli must be >= 1", pos)
            return PPred(nums[0], nums[1], nums[2], nums[3], low, high)
        # Either `term REL term` or a parenthesized formula; a '(' is
        # ambiguous between the two, so try the comparison and backtrack.
        saved, depth, peak = self.i, self.depth, self.peak
        try:
            left = self.parse_term()
            rel_pos = self._pos()
            rel = self._peek()
            if rel not in _RELS:
                raise ParseError(
                    f"unexpected {'end of input' if rel is None else rel!r}",
                    rel_pos, _RELS,
                )
            self._advance()
            right = self.parse_term()
            return _desugar(left, rel, right)
        except _TooDeep:
            raise
        except ParseError:
            if self.tokens[saved][0] != "(":
                raise
            self.i, self.depth, self.peak = saved, depth, peak
        self._enter()
        self._expect("(")
        inner = self.parse_formula()
        self._expect(")")
        self.depth -= 1
        return inner

    def _int(self) -> int:
        pos = self._pos()
        tok = self._advance()
        negative = False
        if tok == "-":
            negative = True
            tok = self._advance()
        if not tok.isdigit():
            raise ParseError(f"expected integer, got {tok!r}", pos)
        return -int(tok) if negative else int(tok)

    # terms; '*' binds tighter than '+'/'-', sums associate left
    def parse_term(self) -> Term:
        outer, self.peak = self.peak, self.depth
        node, peak = self.parse_product(), self.peak
        while self._peek() in ("+", "-"):
            position = self._pos()
            op = self._advance()
            self.peak = self.depth
            right = self.parse_product()
            peak = self._link(peak, self.peak, position)
            node = Add(node, right) if op == "+" else Sub(node, right)
        self.peak = max(outer, peak)
        return node

    def parse_product(self) -> Term:
        tok = self._peek()
        if tok is not None and tok.isdigit() and self._peek(1) == "*":
            coeff, width = int(tok), 2
        elif (tok == "-" and (nxt := self._peek(1)) is not None and nxt.isdigit()
              and self._peek(2) == "*"):
            coeff, width = -int(nxt), 3
        else:
            return self.parse_primary()
        self._enter()
        self.i += width
        node = Scale(coeff, self.parse_product())
        self.depth -= 1
        return node

    def parse_primary(self) -> Term:
        pos = self._pos()
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        if tok in ("(", "f"):
            self._enter()
            self._advance()
            if tok == "f":
                self._expect("(")
            inner = self.parse_term()
            self._expect(")")
            self.depth -= 1
            return F(inner) if tok == "f" else inner
        if tok.isdigit():
            self._advance()
            return Const(int(tok))
        if tok == "-" and (nxt := self._peek(1)) is not None and nxt.isdigit():
            self._advance()
            self._advance()
            return Const(-int(nxt))
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            if tok in _RESERVED or _P_DIGITS.match(tok):
                raise ParseError(f"{tok!r} is reserved", pos)
            self._advance()
            return Var(tok)
        raise ParseError(f"unexpected {tok!r}", pos, ("a term",))


def _desugar(left: Term, rel: str, right: Term) -> Formula:
    if rel == "<":
        return Cmp(left, "<", right)
    if rel == "=":
        return Cmp(left, "=", right)
    if rel == ">":
        return Cmp(right, "<", left)
    if rel == "<=":
        return Not(Cmp(right, "<", left))
    if rel == ">=":
        return Not(Cmp(left, "<", right))
    return Not(Cmp(left, "=", right))  # !=


def parse(text: str) -> Formula:
    """Parse a formula; raises ParseError with a position on bad input."""
    p = _Parser(text)
    node = p.parse_formula()
    if p._peek() is not None:
        raise ParseError(f"unexpected trailing {p._peek()!r}", p._pos())
    return node


def parse_term(text: str) -> Term:
    p = _Parser(text)
    node = p.parse_term()
    if p._peek() is not None:
        raise ParseError(f"unexpected trailing {p._peek()!r}", p._pos())
    return node


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

@dataclass(frozen=True)
class Decision:
    """Outcome of evaluation or decision.

    truth None means unknown, which nothing produces yet: it is reserved for
    an evaluation budget.  provenance "exact" marks a sound answer over the
    integers; "bounded" marks truth over the model with every quantifier
    relativized to [-bound, bound].
    """

    truth: bool | None
    provenance: str = EXACT
    bound: int | None = None
    witness: int | None = None
    counterexample: int | None = None
    reason: str | None = None


_TRUE = Decision(True)
_FALSE = Decision(False)


def _negate(d: Decision) -> Decision:
    truth = None if d.truth is None else not d.truth
    return Decision(truth, d.provenance, d.bound,
                    witness=d.counterexample, counterexample=d.witness,
                    reason=d.reason)


def _merge_bound(a: Decision, b: Decision) -> int | None:
    return a.bound if a.bound is not None else b.bound


def _and_d(a: Decision, b: Decision) -> Decision:
    for d in (a, b):
        if d.truth is False and d.provenance == EXACT:
            return d
    if a.truth is False or b.truth is False:
        return a if a.truth is False else b
    if a.truth is None or b.truth is None:
        return a if a.truth is None else b
    prov = EXACT if a.provenance == EXACT and b.provenance == EXACT else BOUNDED
    return Decision(True, prov, _merge_bound(a, b) if prov == BOUNDED else None,
                    witness=a.witness if a.witness is not None else b.witness)


def _or_d(a: Decision, b: Decision) -> Decision:
    for d in (a, b):
        if d.truth is True and d.provenance == EXACT:
            return d
    if a.truth is True or b.truth is True:
        return a if a.truth is True else b
    if a.truth is None or b.truth is None:
        return a if a.truth is None else b
    prov = EXACT if a.provenance == EXACT and b.provenance == EXACT else BOUNDED
    return Decision(False, prov, _merge_bound(a, b) if prov == BOUNDED else None)


def _compile_term(term: Term, scope: dict[str, int]):
    """env -> int closure; a variable reads its slot of the list env."""
    if isinstance(term, Var):
        if term.name not in scope:
            raise ValueError(f"unassigned variable {term.name!r}")
        return itemgetter(scope[term.name])
    if isinstance(term, Const):
        value = term.value
        return lambda env: value
    if isinstance(term, F):
        # f_floor is read now, not at import, so that a wrapper installed
        # around it (a call counter) sees every call
        arg, floor_phi = _compile_term(term.arg, scope), f_floor
        return lambda env: floor_phi(arg(env))
    if isinstance(term, Scale):
        coeff, inner = term.coeff, _compile_term(term.term, scope)
        return lambda env: coeff * inner(env)
    if not isinstance(term, (Add, Sub)):
        raise TypeError(f"not a term: {term!r}")
    left, right = _compile_term(term.left, scope), _compile_term(term.right, scope)
    if isinstance(term, Add):
        return lambda env: left(env) + right(env)
    return lambda env: left(env) - right(env)


def _compile(formula: Formula, scope: dict[str, int], slots, bound: int):
    """(True, env -> bool) for a quantifier-free formula without P, else
    (False, env -> Decision).  Each quantifier takes a fresh slot from
    slots, so shadowed names never share one."""
    if isinstance(formula, Cmp):
        left, right = _compile_term(formula.left, scope), _compile_term(formula.right, scope)
        if formula.rel == "<":
            return True, lambda env: left(env) < right(env)
        return True, lambda env: left(env) == right(env)
    if isinstance(formula, Div):
        term, modulus = _compile_term(formula.term, scope), formula.modulus
        return True, lambda env: term(env) % modulus == 0
    if isinstance(formula, PPred):
        low, high = _compile_term(formula.low, scope), _compile_term(formula.high, scope)
        on_x = Congruence(formula.mod_x, formula.res_x)
        on_fx = Congruence(formula.mod_fx, formula.res_fx)

        def solve(env: list[int]) -> Decision:
            lo, hi = low(env), high(env)
            if lo >= hi:
                return _FALSE
            out = solve_system(CongruenceSystem(on_x, on_fx, lo, hi))
            return Decision(True, witness=out.witness) if out.is_witness else _FALSE

        return False, solve
    if isinstance(formula, Implies):
        formula = Or(Not(formula.left), formula.right)
    if isinstance(formula, Not):
        is_bool, body = _compile(formula.body, scope, slots, bound)
        if is_bool:
            return True, lambda env: not body(env)
        return False, lambda env: _negate(body(env))
    if isinstance(formula, (Exists, Forall)):
        existential, slot = isinstance(formula, Exists), next(slots)
        is_bool, body = _compile(formula.body, {**scope, formula.var: slot}, slots, bound)

        def scan(env: list[int]) -> Decision:
            # 0, 1, -1, ..., bound, -bound until the body is decisive; a
            # boolean body is exact, so its scan only compares
            points = zip(range(1, bound + 1), range(-1, -bound - 1, -1))
            for v in chain((0,), chain.from_iterable(points)):
                env[slot] = v
                d = body(env)
                if is_bool:
                    if d != existential:
                        continue
                    d = _TRUE
                elif d.truth is not existential:
                    continue
                return Decision(existential, d.provenance, d.bound,
                                *((v, None) if existential else (None, v)))
            return Decision(not existential, BOUNDED, bound=bound)

        return False, scan
    if not isinstance(formula, (And, Or)):
        raise TypeError(f"not a formula: {formula!r}")
    conjunction = isinstance(formula, And)
    left_bool, left = _compile(formula.left, scope, slots, bound)
    right_bool, right = _compile(formula.right, scope, slots, bound)
    if left_bool and right_bool:
        if conjunction:
            return True, lambda env: left(env) and right(env)
        return True, lambda env: left(env) or right(env)
    left, right = _decisions(left_bool, left), _decisions(right_bool, right)
    combine, decisive = (_and_d, False) if conjunction else (_or_d, True)

    def connect(env: list[int]) -> Decision:
        # combine returns an exact decisive left side whatever the right is
        a = left(env)
        return a if a.truth is decisive and a.provenance == EXACT else combine(a, right(env))

    return False, connect


def _decisions(is_bool: bool, run):
    """run as an env -> Decision closure."""
    return (lambda env: _TRUE if run(env) else _FALSE) if is_bool else run


def evaluate(
    formula: Formula,
    assignment: dict[str, int] | None = None,
    bound: int = DEFAULT_EVAL_BOUND,
) -> Decision:
    """Evaluate over the integers with f(x) = 0 for x <= 0.

    Quantifier-free parts are exact; quantifiers scan [-bound, bound], so an
    existential witness (or universal counterexample) is sound, while a
    completed scan yields a decision tagged "bounded".  The formula is
    compiled once into closures over a list of variable slots."""
    assignment = assignment or {}
    slots = count(len(assignment))
    is_bool, run = _compile(formula, dict(zip(assignment, count())), slots, bound)
    env = [*assignment.values()] + [0] * (next(slots) - len(assignment))
    return _decisions(is_bool, run)(env)


# --- negation normal form ---------------------------------------------------

def nnf(formula: Formula) -> Formula:
    if isinstance(formula, _ATOMS):
        return formula
    if isinstance(formula, Not):
        body = formula.body
        if isinstance(body, _ATOMS):
            return formula
        if isinstance(body, Not):
            return nnf(body.body)
        if isinstance(body, And):
            return Or(nnf(Not(body.left)), nnf(Not(body.right)))
        if isinstance(body, Or):
            return And(nnf(Not(body.left)), nnf(Not(body.right)))
        if isinstance(body, Implies):
            return And(nnf(body.left), nnf(Not(body.right)))
        if isinstance(body, Exists):
            return Forall(body.var, nnf(Not(body.body)))
        if isinstance(body, Forall):
            return Exists(body.var, nnf(Not(body.body)))
    if isinstance(formula, And):
        return And(nnf(formula.left), nnf(formula.right))
    if isinstance(formula, Or):
        return Or(nnf(formula.left), nnf(formula.right))
    if isinstance(formula, Implies):
        return Or(nnf(Not(formula.left)), nnf(formula.right))
    if isinstance(formula, Exists):
        return Exists(formula.var, nnf(formula.body))
    if isinstance(formula, Forall):
        return Forall(formula.var, nnf(formula.body))
    raise TypeError(f"not a formula: {formula!r}")


def _quantifier_free(formula: Formula) -> bool:
    if isinstance(formula, _ATOMS):
        return True
    if isinstance(formula, Not):
        return _quantifier_free(formula.body)
    if isinstance(formula, (And, Or, Implies)):
        return _quantifier_free(formula.left) and _quantifier_free(formula.right)
    return False


# --- normal-form recognition ------------------------------------------------

@dataclass(frozen=True)
class NormalFormQuery:
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


def _linearize(term: Term, var: str) -> tuple[int, int, int] | None:
    """term == a*var + b*f(var) + c, or None when the term is not of that
    shape (f applied to anything but the bare variable, unknown names)."""
    if isinstance(term, Const):
        return 0, 0, term.value
    if isinstance(term, Var):
        return (1, 0, 0) if term.name == var else None
    if isinstance(term, F):
        if isinstance(term.arg, Var) and term.arg.name == var:
            return 0, 1, 0
        return None
    if isinstance(term, Scale):
        inner = _linearize(term.term, var)
        if inner is None:
            return None
        a, b, cst = inner
        return term.coeff * a, term.coeff * b, term.coeff * cst
    if isinstance(term, (Add, Sub)):
        left = _linearize(term.left, var)
        right = _linearize(term.right, var)
        if left is None or right is None:
            return None
        sign = 1 if isinstance(term, Add) else -1
        return (left[0] + sign * right[0],
                left[1] + sign * right[1],
                left[2] + sign * right[2])
    return None


def _flatten_and(formula: Formula) -> list[Formula] | None:
    if isinstance(formula, And):
        left = _flatten_and(formula.left)
        right = _flatten_and(formula.right)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(formula, _ATOMS) or (
        isinstance(formula, Not) and isinstance(formula.body, _ATOMS)
    ):
        return [formula]
    return None


def _solve_unit_congruence(a: int, cst: int, n: int) -> Congruence | None:
    """x-classes of a*x + cst = 0 (mod n); None when there are none."""
    g = gcd(a, n)
    if cst % g:
        return None
    reduced = n // g
    if reduced == 1:
        return Congruence(1, 0)
    inv = pow((a // g) % reduced, -1, reduced)
    return Congruence(reduced, (-(cst // g) * inv) % reduced)


def to_normal_form(formula: Formula) -> NormalFormQuery | None:
    """Recognize `exists x. <conjunction>` where every conjunct is a
    congruence on x or on f(x), a constant order bound, or a linear
    comparison of f(x) with a rational multiple of x; None otherwise."""
    if not isinstance(formula, Exists):
        return None
    var = formula.var
    if free_vars(formula.body) - {var}:
        return None
    conjuncts = _flatten_and(nnf(formula.body))
    if conjuncts is None:
        return None

    on_x: list[Congruence] = []
    on_fx: list[Congruence] = []
    lower: int | None = None
    upper: int | None = None
    linear: list[LinearConstraint] = []

    for conjunct in conjuncts:
        if isinstance(conjunct, PPred):
            return None
        if isinstance(conjunct, Div):
            lin = _linearize(conjunct.term, var)
            if lin is None:
                return None
            a, b, cst = lin
            if a != 0 and b != 0 or (a == 0 and b == 0):
                return None
            target = on_x if b == 0 else on_fx
            solved = _solve_unit_congruence(a or b, cst, conjunct.modulus)
            target.extend([solved] if solved else _FALSE_PAIR)
            continue
        if isinstance(conjunct, Not):
            atom = conjunct.body
            if not isinstance(atom, Cmp) or atom.rel != "<":
                return None
            lin_l = _linearize(atom.left, var)
            lin_r = _linearize(atom.right, var)
            if lin_l is None or lin_r is None:
                return None
            # not(e < 0) == -e - 1 < 0 over the integers
            a = -(lin_l[0] - lin_r[0])
            b = -(lin_l[1] - lin_r[1])
            cst = -(lin_l[2] - lin_r[2]) - 1
            rel = "<"
        elif isinstance(conjunct, Cmp):
            lin_l = _linearize(conjunct.left, var)
            lin_r = _linearize(conjunct.right, var)
            if lin_l is None or lin_r is None:
                return None
            a = lin_l[0] - lin_r[0]
            b = lin_l[1] - lin_r[1]
            cst = lin_l[2] - lin_r[2]
            rel = conjunct.rel
        else:
            return None

        # now: a*x + b*f(x) + cst  <rel>  0
        if a == 0 and b == 0:
            return None
        if b == 0:
            if rel == "=":
                if cst % a == 0:
                    point = (-cst) // a
                    lower = point - 1 if lower is None else max(lower, point - 1)
                    upper = point + 1 if upper is None else min(upper, point + 1)
                else:
                    on_x.extend(_FALSE_PAIR)
            elif a > 0:  # x < -cst/a
                new_upper = (-cst - 1) // a + 1
                upper = new_upper if upper is None else min(upper, new_upper)
            else:  # x > -cst/a
                new_lower = (-cst) // a
                lower = new_lower if lower is None else max(lower, new_lower)
            continue
        if b > 0:
            constraint = LinearConstraint(rel, Fraction(-a, b), Fraction(-cst, b))
        else:
            flipped = {"<": ">", "=": "="}[rel]
            constraint = LinearConstraint(flipped, Fraction(-a, b), Fraction(-cst, b))
        linear.append(constraint)

    return NormalFormQuery(var, tuple(on_x), tuple(on_fx), lower, upper, tuple(linear))


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
    """Witness <= 0 if one exists there (f vanishes, so the f-congruence
    must have residue 0 and each linear constraint degenerates)."""
    if mf.residue != 0:
        return None
    lo = None if query.lower is None else query.lower + 1
    hi = 0 if query.upper is None else min(query.upper - 1, 0)
    for lc in query.linear:
        _, m, c0 = lc.integer_form()  # constraint reads: 0 <rel> m*x + c0
        rel = lc.relation
        if m == 0:
            satisfied = 0 < c0 if rel == "<" else (0 == c0 if rel == "=" else 0 > c0)
            if not satisfied:
                return None
            continue
        if rel == "=":
            if c0 % m:
                return None
            point = (-c0) // m
            lo = point if lo is None else max(lo, point)
            hi = min(hi, point)
        else:
            t = Fraction(-c0, m)
            # "<" means m*x > -c0, ">" means m*x < -c0
            wants_above = (rel == "<") == (m > 0)
            if wants_above:
                bound = floor(t) + 1
                lo = bound if lo is None else max(lo, bound)
            else:
                bound = -floor(-t) - 1  # ceil(t) - 1
                hi = min(hi, bound)
    if lo is not None and lo > hi:
        return None
    x = hi - ((hi - mx.residue) % mx.modulus)
    if lo is not None and x < lo:
        return None
    return x


def decide_existential_nf(query: NormalFormQuery) -> Decision:
    """Exact decision of a normal-form query over the integers.

    Pipeline: merge the congruence lists, settle the x <= 0 branch directly,
    intersect the linear-constraint windows with the order bounds, and run
    the congruence solver on each surviving piece."""
    mx = crt_combine(list(query.on_x)) if query.on_x else Congruence(1, 0)
    if mx is None:
        return Decision(False)
    mf = crt_combine(list(query.on_fx)) if query.on_fx else Congruence(1, 0)
    if mf is None:
        return Decision(False)

    negative = _negative_branch(query, mx, mf)
    if negative is not None:
        assert _query_holds(query, negative)
        return Decision(True, witness=negative)

    window = WindowSet.all()
    for lc in query.linear:
        window = window.intersect(solution_window(lc))
    window = window.clip(query.lower, query.upper)

    for piece in window.pieces:
        merged = crt_combine([mx, Congruence(piece.mod, piece.res)])
        if merged is None:
            continue
        system = CongruenceSystem(
            merged, mf,
            lower=piece.lo - 1,
            upper=None if piece.hi is None else piece.hi + 1,
        )
        out = solve_system(system)
        if out.is_witness:
            assert _query_holds(query, out.witness)
            return Decision(True, witness=out.witness)
    return Decision(False)


def decide(sentence: Formula, bound: int = DEFAULT_EVAL_BOUND) -> Decision:
    """Decide a sentence: quantifier-free parts exactly, single-quantifier
    normal-form sentences through the window/congruence pipeline (universal
    ones via their negation), everything else by bounded evaluation."""
    if free_vars(sentence):
        raise ValueError("decide requires a sentence (no free variables)")
    return _decide(nnf(sentence), bound)


def _decide(sentence: Formula, bound: int) -> Decision:
    if _quantifier_free(sentence):
        return evaluate(sentence, {}, bound)
    if isinstance(sentence, Exists) and _quantifier_free(sentence.body):
        query = to_normal_form(sentence)
        if query is not None:
            return decide_existential_nf(query)
        return evaluate(sentence, {}, bound)
    if isinstance(sentence, Forall) and _quantifier_free(sentence.body):
        query = to_normal_form(Exists(sentence.var, nnf(Not(sentence.body))))
        if query is not None:
            return _negate(decide_existential_nf(query))
        return evaluate(sentence, {}, bound)
    if isinstance(sentence, And):
        return _and_d(_decide(sentence.left, bound), _decide(sentence.right, bound))
    if isinstance(sentence, Or):
        return _or_d(_decide(sentence.left, bound), _decide(sentence.right, bound))
    return evaluate(sentence, {}, bound)


# --- axiom audit ------------------------------------------------------------

@dataclass(frozen=True)
class FamilyResult:
    name: str
    instances: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class AuditReport:
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
    from .golden import decompose

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
