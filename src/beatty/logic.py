"""First-order language over (Z, +, -, <, f, p_n, window predicates, 0, 1)
with f(x) = floor(phi * x): parser, printer, exact evaluation over the
integers, one exact route for a block of one or two like quantifiers (the
normal form, the cell exclusion and the single slab, disjunct by
disjunct), elimination of pinned quantifiers, bounded model checking for
everything else, and an audit that decides the defining axioms by the
exact routes.
"""

import re
import sys
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache, reduce
from itertools import chain, count
from math import gcd
from operator import add, eq, lt, mul, sub

from .congruence import Congruence, CongruenceSystem, crt_combine, solve_linear, solve_system
from .golden import decompose, f_floor, phi_ceil, phi_floor, phi_mul, phi_norm, phi_sign
from .windows import (
    LinearConstraint,
    Piece,
    _fraction,
    convergent_d,
    convergent_u,
    intersect_streams,
    least_adequate_index,
    locate_slope,
    window_pieces,
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
# evaluation.  The same cap bounds the eliminations one decide() call tries,
# since k pinned quantifiers can be taken in k! orders: both stop the exact
# routes' work on one sentence before the scan takes it, far above what
# they need (one elimination a call in the perfbench corpora, at most five
# over 8,000 random sentences of tests/formula_gen.py), so that a change to
# one is a change to both.
MAX_DISJUNCTS = 64
F_TABLE_CAP = 1 << 16  # values of f one evaluate() call keeps: 6.5 MiB at most


# --- terms -----------------------------------------------------------------

Var = namedtuple("Var", "name")
Const = namedtuple("Const", "value")
Add = namedtuple("Add", "left right")
Sub = namedtuple("Sub", "left right")
Scale = namedtuple("Scale", "coeff term")
F = namedtuple("F", "arg")

Term = Var | Const | Add | Sub | Scale | F


# --- formulas ---------------------------------------------------------------

class Cmp(namedtuple("Cmp", "left rel right")):
    __slots__ = ()

    def __new__(cls, left: Term, rel: str, right: Term) -> "Cmp":
        if rel not in ("<", "="):
            raise ValueError(f"primitive relations are < and =, got {rel!r}")
        return tuple.__new__(cls, (left, rel, right))


class Div(namedtuple("Div", "modulus term")):
    __slots__ = ()

    def __new__(cls, modulus: int, term: Term) -> "Div":
        if modulus < 1:
            raise ValueError(f"divisibility modulus must be >= 1, got {modulus}")
        return tuple.__new__(cls, (modulus, term))


class PPred(namedtuple("PPred", "mod_x mod_fx res_x res_fx low high")):
    """Solvability predicate: exists x with x = res_x (mod mod_x),
    f(x) = res_fx (mod mod_fx) and low < x < high."""

    __slots__ = ()

    def __new__(cls, mod_x: int, mod_fx: int, res_x: int, res_fx: int, low: Term,
                high: Term) -> "PPred":
        if mod_x < 1 or mod_fx < 1:
            raise ValueError("window predicate moduli must be >= 1")
        return tuple.__new__(cls, (mod_x, mod_fx, res_x % mod_x, res_fx % mod_fx, low, high))


Not = namedtuple("Not", "body")
And = namedtuple("And", "left right")
Or = namedtuple("Or", "left right")
Implies = namedtuple("Implies", "left right")
Exists = namedtuple("Exists", "var body")
Forall = namedtuple("Forall", "var body")

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


class _Error(Exception):
    """ParseError's arguments, with a token's index in place of its offset."""


# Bounds the depth of every tree the parser builds, so that the recursive
# passes over it (nnf, free_vars, the printer, evaluation) stay far inside
# the interpreter's recursion limit.
MAX_NESTING = 100

# Longer integer literals are refused before conversion, which is quadratic
# in the number of digits.
MAX_LITERAL_DIGITS = sys.int_info.default_max_str_digits


_TOKEN = re.compile(r"[()\[\],.+*&|]|!=?|[A-Za-z_][A-Za-z0-9_]*|\d+|[<>]=?|->?|=")
_BAD = re.compile(r"[^\s()\[\],.+\-*<>=!&|\dA-Za-z_]")  # a character no token starts with
_CUT = re.compile(r"[^\w>=]")  # no token goes on with it: a window may end before it
_SPACES = re.compile(r"\s*")
# each relation as (primitive relation, operands swapped, negated)
_RELS = {"<": ("<", False, False), "<=": ("<", True, True), "=": ("=", False, False),
         "!=": ("=", False, True), ">": ("<", True, False), ">=": ("<", False, True)}
_RUN = {"(": "(", "!": Not, "exists": Exists, "forall": Forall}  # what opens an operand
_END = " "  # the token at and past the end of the text, which no other token is
_DEEP = f"nesting deeper than {MAX_NESTING}"  # the one error a group never turns into another
_new = tuple.__new__  # builds a node whose fields the parser has checked


def _unexpected(token: str, unexpected: str = "unexpected") -> str:
    """The message for an unexpected token; _END is the end of the text."""
    return "unexpected end of input" if token == _END else f"{unexpected} {token!r}"


def _name(tok: str, k: int, unexpected: str = "unexpected", expected=("a term",)) -> str:
    """tok, token k, as a variable; another token is unexpected."""
    if not tok.isidentifier():
        raise _Error(_unexpected(tok, unexpected), k, () if tok == _END else expected)
    if tok in _RESERVED or tok[0] == "p" and _P_DIGITS.match(tok):
        raise _Error(f"{tok!r} is reserved", k)
    return tok


class _Parser:
    """One pass over toks, the tokens scanned so far and then None (or _END),
    by index.  Nesting: each open ( ! f( quantifier -> and k* is one level, and
    each &, |, + or - one more for everything on its left (chains build left-deep
    trees).  depth is the nesting at token i, peak the deepest in the operand."""

    def __init__(self, text: str):
        self.text, self.toks, self.window, self.bad = text, [None, None], 256, ""
        self.scanned = self.i = self.depth = self.peak = 0

    def _more(self, k: int) -> str:
        """Token k, where toks holds None: scanning a window of the text,
        twice the last, so the first error met is the one raised."""
        if self.bad:
            raise _Error(self.bad, len(self.toks) - 2)
        text, toks, start = self.text, self.toks, self.scanned
        cut, self.window = _CUT.search(text, start + self.window), 2 * self.window
        end = self.scanned = cut.start() if cut else len(text)
        if bad := _BAD.search(text, start, end):
            end, self.bad = bad.start(), f"unexpected character {bad.group()!r}"
        toks[-2:] = new = _TOKEN.findall(text, start, end)
        for j, tok in enumerate(new if end - start > MAX_LITERAL_DIGITS else ()):
            if len(lit := tok.removeprefix("p")) > MAX_LITERAL_DIGITS and lit.isdigit():
                del toks[j - len(new):]
                self.bad = f"integer literal longer than {MAX_LITERAL_DIGITS} digits"
                break
        toks += (None, None) if self.bad or end < len(text) else (_END, _END)
        return toks[k] or self._more(k)

    def _offset(self, k: int) -> int:
        """The offset of token k: past as many characters other than spaces
        as the tokens before it hold, and the spaces after them."""
        text, end, short = self.text, 0, len("".join(self.toks[:k]))
        while short:
            end, short = end + short, short - sum(map(len, text[end:end + short].split()))
        return _SPACES.match(text, end).end()

    def _expect(self, *tokens: str) -> None:
        for token in tokens:
            if (got := self.toks[i := self.i] or self._more(i)) != token:
                raise _Error(_unexpected(got), i, (repr(token),))
            self.i = i + 1

    def formula(self, node: Formula | None = None) -> Formula:
        """A formula, or the rest of one whose first operand is node.  ! > & >
        | > ->: each & and | chain is read in one loop; -> takes a formula."""
        toks, depth, outer = self.toks, self.depth, self.peak
        if node is None:
            self.peak = depth
            node = self.unary()
        peak, left = self.peak, None  # left: the | chain before node, lpeak its peak
        while True:
            if (op := toks[i := self.i] or self._more(i)) != "&" and left is not None:
                if (peak := (lpeak if lpeak > peak else peak) + 1) > MAX_NESTING:
                    raise _Error(_DEEP, at)
                node, left = _new(Or, (left, node)), None
            if op != "&" and op != "|":
                break
            self.i, self.peak = i + 1, depth
            right, p = self.unary(), self.peak
            if op == "|":
                left, lpeak, at, node, peak = node, peak, i, right, p
            elif (peak := (peak if peak > p else p) + 1) > MAX_NESTING:
                raise _Error(_DEEP, i)
            else:
                node = _new(And, (node, right))
        self.peak = outer if outer > peak else peak
        if op == "->":
            if (depth := depth + 1) > MAX_NESTING:
                raise _Error(_DEEP, i)
            self.i, self.depth = i + 1, depth
            node, self.depth = _new(Implies, (node, self.formula())), depth - 1
        return node

    def unary(self) -> Formula:
        """A run of (, ! and quantifiers read in one loop, an atom, then the run
        closed from the inside out.  A ( is read once: a term that ends at its )
        goes on after it, and a group neither term nor formula fails at that )."""
        toks, i, depth, run, leaf = self.toks, self.i, self.depth, None, None
        while (tag := _RUN.get(tok := toks[i] or self._more(i))) is not None:
            if (depth := depth + 1) > MAX_NESTING:
                raise _Error(_DEEP, i)
            if tag is Exists or tag is Forall:
                tag = tag, _name(toks[i := i + 1] or self._more(i), i, "invalid variable name", ())
                if (dot := toks[i := i + 1] or self._more(i)) != ".":
                    raise _Error(_unexpected(dot), i, ("'.'",))
            run, i = (tag, run), i + 1
        self.i, self.depth, self.peak = i, depth, depth
        if tok == "P":
            self.i, nums = i + 1, []
            for separator in "[,,,":
                self._expect(separator)
                negative = (toks[j := self.i] or self._more(j)) == "-"
                if not (got := toks[k := j + negative] or self._more(k)).isdigit():
                    raise _Error(_unexpected(got, "expected integer, got"), k if got == _END else j)
                nums.append(-int(got) if negative else int(got))
                self.i = k + 1
            self._expect("]", "(")
            low, high = self.term(), self._expect(",") or self.term()
            self._expect(")")
            if (mod_x := nums[0]) < 1 or (mod_fx := nums[1]) < 1:
                raise _Error("window predicate moduli must be >= 1", i)
            node = _new(PPred, (mod_x, mod_fx, nums[2] % mod_x, nums[3] % mod_fx, low, high))
        elif tok[0] == "p" and _P_DIGITS.match(tok) and (toks[i + 1] or self._more(i + 1)) == "(":
            if (modulus := int(tok[1:])) < 1:
                raise _Error("divisibility modulus must be >= 1", i)
            self.i = i + 2
            node = _new(Div, (modulus, self.term()))
            self._expect(")")
        else:
            node = self.term()
            try:
                while run and run[0] == "(" and (toks[j := self.i] or self._more(j)) == ")":
                    leaf, run, depth = j if leaf is None else leaf, run[1], depth - 1
                    self.i, self.depth = j + 1, depth
                    node = self.term(node)
                if (rel := _RELS.get(tok := toks[j := self.i] or self._more(j))) is None:
                    raise _Error(_unexpected(tok), j, tuple(_RELS))
                self.i, (primitive, swapped, negated) = j + 1, rel
                right = self.term()
            except _Error as error:
                if leaf is None or error.args[0] == _DEEP:
                    raise
                raise _Error(_unexpected(")"), leaf, tuple(_RELS)) from None
            node = _new(Cmp, (right, primitive, node) if swapped else (node, primitive, right))
            if negated:
                node = _new(Not, (node,))
        while run:
            (tag, run), self.depth, depth = run, depth, depth - 1
            if tag is Not:
                node = _new(Not, (node,))
            elif tag == "(":
                node = self.formula(node)
                self._expect(")")
            else:
                node = _new(tag[0], (tag[1], self.formula(node)))
        self.depth = depth
        return node

    def term(self, node: Term | None = None) -> Term:
        """Products joined by + and -, left-deep; node is the first if read.  A
        product: a run of k *, ( and f( read in one loop, then a name or integer;
        ( and f( close where the sum in them ends, and the sum on stack goes on."""
        toks, i, depth, outer = self.toks, self.i, self.depth, self.peak
        stack, right, at, peak = None, None, None, outer  # at: the + or - read last
        while True:
            if right is None and (node is None or at is not None):
                top, scales = depth, None  # scales: (coefficient, scales), innermost first
                while True:
                    if (tok := toks[i] or self._more(i)) == "(" or tok == "f":
                        if (top := top + 1) > MAX_NESTING:
                            raise _Error(_DEEP, i)
                        if tok == "f" and (got := toks[i := i + 1] or self._more(i)) != "(":
                            raise _Error(_unexpected(got), i, ("'('",))
                        stack = tok, scales, node, peak, at, depth, stack
                        node, scales, at, depth, i = None, None, None, top, i + 1
                    elif (lit := toks[i + 1] or self._more(i + 1) if tok == "-" else tok).isdigit():
                        value = -int(lit) if tok == "-" else int(lit)
                        if (toks[j := i + 1 + (tok == "-")] or self._more(j)) != "*":
                            right, p, i = _new(Const, (value,)), top, j
                            break
                        if (top := top + 1) > MAX_NESTING:
                            raise _Error(_DEEP, i)
                        scales, i = (value, scales), j + 1
                    else:
                        right, p, i = _new(Var, (_name(tok, i),)), top, i + 1
                        break
            if right is not None:
                while scales:
                    right, scales = _new(Scale, (scales[0], right)), scales[1]
                if at is None:
                    node, peak, right = right, p, None
                elif (peak := (peak if peak > p else p) + 1) > MAX_NESTING:
                    raise _Error(_DEEP, at)
                else:
                    node, right = _new(Add if toks[at] == "+" else Sub, (node, right)), None
            if (op := toks[i] or self._more(i)) == "+" or op == "-":
                at, i = i, i + 1
            elif not stack:
                break
            elif op != ")":
                raise _Error(_unexpected(op), i, ("')'",))
            else:
                right, p, i = _new(F, (node,)) if stack[0] == "f" else node, peak, i + 1
                _, scales, node, peak, at, depth, stack = stack
        self.i, self.peak = i, outer if outer > peak else peak
        return node


def _whole(text: str, rule) -> Formula | Term:
    """rule over the whole of text."""
    parser = _Parser(text)
    try:
        node = rule(parser)
        if (tok := parser.toks[i := parser.i] or parser._more(i)) != _END:
            raise _Error(f"unexpected trailing {tok!r}", i)
        return node
    except _Error as error:
        raise ParseError(error.args[0], parser._offset(error.args[1]), *error.args[2:]) from None


def parse(text: str) -> Formula:
    """Parse a formula; raises ParseError with a position on bad input."""
    return _whole(text, _Parser.formula)


def parse_term(text: str) -> Term:
    return _whole(text, _Parser.term)


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

class Decision(namedtuple("Decision", "truth provenance bound certificate reason",
                          defaults=(EXACT, None, None, None))):
    """Outcome of evaluation or decision.

    truth None means unknown, and reason says why: a quantifier scan spent
    its budget, or (in the audit) the exact routes declined.  provenance "exact"
    marks a sound answer over the integers; "bounded" marks truth over the
    model with every quantifier relativized to [-bound, bound].  certificate
    is a witness of a true answer or a counterexample of a false one.
    """

    __slots__ = ()

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
_COMPILE = lru_cache(compile)  # one compile per source text: its constants are globals c<i>


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
        """code as a function of params, or env -> code, over this call's names."""
        if not isinstance(code, str):
            return lambda env: code
        return eval(_COMPILE(f"lambda {params}: {code}", "<string>", "eval"), self.names)

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
        if kind is Implies:
            return self.source(Or(Not(node.left), node.right), scope)
        if kind is Not:
            body = self.source(node.body, scope)
            if callable(body):
                return lambda env: _negate(body(env))
            return f"not {body}" if isinstance(body, str) else not body
        if kind is Scale:
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


def _quantifiers(formula: Formula) -> list[Exists | Forall]:
    """The quantifiers of the NNF formula, inner ones first."""
    if type(formula) in (And, Or):
        return _quantifiers(formula.left) + _quantifiers(formula.right)
    if type(formula) in (Exists, Forall):
        return _quantifiers(formula.body) + [formula]
    return []


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

class NormalFormQuery(namedtuple("NormalFormQuery", "var on_x on_fx lower upper linear")):
    """One-variable existential conjunction: congruences on x and on f(x),
    an order window lower < x < upper, and linear constraints on f(x).  A
    conjunction that no integer satisfies by itself (an unsolvable
    divisibility or order atom) has a window with no integer in it."""

    __slots__ = ()


def _affine(term: Term, x: str, y: str | None = None) -> dict | None:
    """term as {key: coefficient} over the keys 1 (the constant), each name,
    (a, b, c, d, e) for f(a*x + b*y + c + d*f(x) + e*f(y)), and the F node
    itself for f of a term that holds neither x nor y; f of a ground term
    folds to its value, and a zero coefficient counts as absent.  None for f
    of a term that holds x or y and a name other than them, or an f of
    anything but x or y, in it."""
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
        d, e = inner.pop((1, 0, 0, 0, 0), 0), inner.pop((0, 1, 0, 0, 0), 0)
        if any(inner.values()):
            return None if {x, y} & free_vars(term) else {term: 1}
        return {(a, b, c, d, e): 1} if a or b or d or e else {1: f_floor(c)}
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
    a, b, c = form.pop(var, 0), form.pop((1, 0, 0, 0, 0), 0), form.pop(1, 0)
    return None if any(form.values()) else (a, b, c)


def _dnf(formula: Formula, var: str | None = None) -> list[list[Formula]] | None:
    """An NNF formula as a disjunction of conjunct lists, where !(s = t)
    stays one literal (_unequal splits it), !(s < t) is t < s + 1 and !pN(t)
    is the disjuncts pN(t + k) for 0 < k < N (none when N is 1); None past
    MAX_DISJUNCTS disjuncts.  Given var, each conjunction merges its
    divisibilities (see _conjoin)."""
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
    if type(atom) is Cmp and atom.rel != "=":
        return [[Cmp(atom.right, "<", Add(atom.left, Const(1)))]]
    if type(atom) is Div:
        n = atom.modulus
        if n - 1 > MAX_DISJUNCTS:
            return None
        return [[Div(n, Add(atom.term, Const(k)))] for k in range(1, n)]
    return [[formula]]


def _unequal(conjuncts: list[Formula]) -> list[list[Formula]] | None:
    """The conjuncts with their first !(s = t) as s < t, and as t < s; None without one."""
    for e in conjuncts:
        if type(e) is Not and type(e.body) is Cmp:
            rest, (s, _, t) = [c for c in conjuncts if c is not e], e.body
            return [[*rest, Cmp(s, "<", t)], [*rest, Cmp(t, "<", s)]]
    return None


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
        kind = type(conjunct)
        if kind not in (Div, Cmp) or (lin := _linearize(
                conjunct.term if kind is Div else Sub(conjunct.left, conjunct.right), var)) is None:
            return None
        a, b, cst = lin
        # now: a*x + b*f(x) + cst  <rel>  0, or divisible by the modulus
        if kind is Div:
            if a and b:  # a congruence on x or on f(x), not both
                return None
            if solved := solve_linear(a or b, cst, conjunct.modulus):
                (on_x if b == 0 else on_fx).append(solved)
            else:
                lower, upper = 0, 1
        elif b == 0:  # with a == 0 too it folds
            lower, upper = _order_window(a, cst, conjunct.rel, lower, upper) or (0, 1)
        else:
            # over g = sgn(b)*gcd(a, b, cst), LinearConstraint's own integer form
            g = gcd(a, b, cst) if b > 0 else -gcd(a, b, cst)
            rel = conjunct.rel if b > 0 else {"<": ">", "=": "="}[conjunct.rel]
            linear.append(LinearConstraint._make((rel, b // g, -a // g, -cst // g)))

    return NormalFormQuery(var, tuple(on_x), tuple(on_fx), lower, upper, tuple(linear))


def _slab_cases(var: str, conjuncts: list[Formula]) -> list[list[Formula]] | None:
    """conjuncts as two cases free of their first innermost f(t) that
    _linearize refuses although it reads t = a*x + b*f(x) + c: where _folds
    reads f(t) as one slab, the case x >= 1 and t >= 1 with that value, and
    the case t <= 0 with 0; None where it does not."""
    term = next((node for e in conjuncts for node in _nodes(e) if isinstance(node, F)
                 and _linearize(node.arg, var) and _linearize(node, var) is None), None)
    if term is None:
        return None
    guards, value = _folds(term.arg, conjuncts)
    if not guards:
        return None
    return [[*guards, Cmp(Const(0), "<", term.arg), *(_replace(e, term, value) for e in conjuncts)],
            [Cmp(term.arg, "<", Const(1)), *(_replace(e, term, Const(0)) for e in conjuncts)]]


def _order_query(var: str, conjuncts: list[Formula]) -> tuple[int | None, int | None] | None:
    """The order window (lower, upper) that the conjuncts comparing var with
    no f(var) in them leave, or None when no integer is left in it."""
    window = (None, None)
    for e in conjuncts:
        if type(e) is Cmp and (lin := _linearize(Sub(e.left, e.right), var)) and not lin[1]:
            if (window := _order_window(lin[0], lin[2], e.rel, *window)) is None:
                return None
    return window


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
    """The witness <= 0 nearest 0, if there is one: f vanishes there, so each
    linear constraint 0 <rel> m*x + c0 narrows the order window on x, and
    solve_system gives the greatest witness below its upper end."""
    window = (query.lower, 1 if query.upper is None else min(query.upper, 1))
    for lc in query.linear:
        _, m, c0 = lc.integer_form()
        sign = -1 if lc.relation == "<" else 1  # 0 < m*x + c0 is -m*x - c0 < 0
        rel = "=" if lc.relation == "=" else "<"
        window = _order_window(sign * m, sign * c0, rel, *window)
        if window is None:
            return None
    lower, upper = window
    x = solve_system(CongruenceSystem(mx, mf, None, upper)).witness
    return None if x is None or lower is not None and x <= lower else x


def decide_existential_nf(query: NormalFormQuery) -> Decision:
    """Exact decision of a normal-form query over the integers.

    Pipeline: merge the congruence lists, take the witness x <= 0 nearest 0
    from solve_system once the linear constraints narrow the order window at
    f = 0, then run the congruence solver on each piece of the linear
    constraints' window streams, met in one lazy sweep (intersect_streams),
    ascending by lo, from the order window's lower end until one starts at
    or past stop: the window's upper end, narrowed to 1 - n by a witness
    n <= 0 and to each positive witness found.  Pieces may overlap in range,
    so the witness is the least over every piece: the first in the order
    0, 1, -1, ..."""
    mx, mf = crt_combine(query.on_x), crt_combine(query.on_fx)
    if mx is None or mf is None:
        return Decision(False)

    # a positive witness comes first in the scan order 0, 1, -1, ... unless
    # it is above the nonpositive one's |x|
    stop, best = query.upper, _negative_branch(query, mx, mf)
    if best is not None:
        stop = 1 - best if stop is None else min(stop, 1 - best)
    start = 1 if query.lower is None else max(query.lower + 1, 1)
    if stop is None or start < stop:  # lazily: no piece is read from stop on
        streams = [window_pieces(lc, start) for lc in query.linear]
        pieces = reduce(intersect_streams, streams) if streams else [Piece(start, None)]
        for piece in pieces:
            if stop is not None and piece.lo >= stop:  # pieces ascend by lo
                break
            merged = crt_combine([mx, Congruence(piece.mod, piece.res)])
            if merged is None:
                continue
            top = None if piece.hi is None else piece.hi + 1
            if stop is not None:
                top = stop if top is None else min(top, stop)
            out = solve_system(CongruenceSystem(merged, mf, lower=piece.lo - 1, upper=top))
            if out.is_witness:
                best = stop = out.witness
    if best is None:
        return Decision(False)
    if not _query_holds(query, best):
        raise AssertionError(f"witness check failed at x={best} for {query}")
    return Decision(True, certificate=best)


def decide(sentence: Formula, bound: int = DEFAULT_EVAL_BOUND) -> Decision:
    """Decide a sentence once it is miniscoped: quantifier-free
    parts exactly; a nested sentence by what is left once _eliminations
    removes a quantifier that an equality pins (at most MAX_DISJUNCTS such
    sentences in one call, since each can be tried in more than one order);
    Q x. body or Q x. Q y. body by _decide_block, disjunct by disjunct of
    the body's DNF (its negation's for forall): through the
    window/congruence pipeline where a disjunct free of y is in the normal
    form or splits into it, and dropped where _no_point proves that no
    point satisfies it; else Q x. S, x not free in S, as S where that is
    exact, with 0 (the scan's first point) the certificate of a true
    exists or a false forall; everything else by bounded evaluation.  A
    top-level & or | decides its right side only when the left is not an
    exact answer that settles it.  Raises ValueError for a negative bound."""
    if free_vars(sentence):
        raise ValueError("decide requires a sentence (no free variables)")
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    return _decide(_miniscope(nnf(sentence)), bound, iter(range(MAX_DISJUNCTS)))


def _decide(sentence: Formula, bound: int | None, tries: Iterator) -> Decision | None:
    """decide() of an NNF sentence; with bound None by the exact routes
    alone, and None where one of them declines.  A bounded certificate is
    dropped where the exact routes decide the body at it with the other
    truth.  tries is the budget of eliminations, one item each."""
    quantifiers = _quantifiers(sentence)
    if not quantifiers:
        return evaluate(sentence, {}, bound or 0)
    if isinstance(sentence, (Exists, Forall)):
        decision = _decide_exactly(sentence, quantifiers[:-1], tries)
        if decision is None and bound is not None:
            if sentence.var not in free_vars(sentence.body) and (  # Q x. S is S
                    inside := _decide(sentence.body, bound, tries)).provenance == EXACT:
                decisive = inside.truth is isinstance(sentence, Exists)  # so 0 is a certificate
                return Decision(inside.truth, certificate=0 if decisive else None)
            decision = evaluate(sentence, {}, bound)
            if (decision.provenance == BOUNDED and decision.certificate is not None
                    and _certified(sentence, _negate(decision), tries)):
                return decision._replace(certificate=None)  # an exact route refutes it
        return decision
    decisive, a = isinstance(sentence, Or), _decide(sentence.left, bound, tries)  # an & or a |
    if a is None or a.truth is decisive and a.provenance == EXACT:
        return a
    b = _decide(sentence.right, bound, tries)
    return None if b is None else _join(a, b, decisive)


def _decide_exactly(sentence: Exists | Forall, inner: list, tries: Iterator) -> Decision | None:
    """The exact decision of an NNF sentence whose body has the quantifiers
    inner, or None: where there are some, that of the first sentence left
    by _eliminations that the exact routes decide (after the outer step of
    a pair, only a true universal or a false existential: a certificate
    would be one of the other variable), with its certificate _certified
    against the sentence's own body, so that every elimination on the way
    is checked; else _decide_block's (None with no pair).  Both take the
    block as _prenex_pair reads it, and the one DNF of its body (of its
    negation for forall)."""
    pair = _prenex_pair(sentence, inner)
    body = pair and (pair[2] if type(sentence) is Exists else nnf(pair[2], negated=True))
    todo = pair and _dnf(body, pair[0])
    for (left, outer), _ in zip(_eliminations(sentence, pair, todo) if inner else (), tries):
        decision = _decide(left, None, tries)
        if decision is None or outer and decision.truth is isinstance(sentence, Exists):
            continue
        if decision.certificate is None or _certified(sentence, decision, tries):
            return decision
    return pair and _decide_block(sentence, pair, todo)


def _certified(sentence: Exists | Forall, decision: Decision, tries: Iterator) -> bool:
    """Whether the NNF sentence's body, with its variable given the value of
    decision's certificate, is decided exactly with decision's truth: by
    evaluate where no quantifier is left in it, else by the exact routes.
    False where they decline, or where the body binds the variable again."""
    x = sentence.var
    if any(node.var == x for node in _quantifiers(sentence.body)):
        return False
    check = _decide(_replace(sentence.body, Var(x), Const(decision.certificate)), None, tries)
    return check is not None and check.truth is decision.truth


def _decide_block(sentence: Exists | Forall, pair: tuple, todo: list | None) -> Decision | None:
    """Exact decision of an NNF sentence Q x. body or Q x. Q y. body that
    pair reads as (x, y, body) (see _prenex_pair; y None for Q x. body), by
    exists x (A | B) == exists x A | exists x B over todo, the DNF of the
    body (of its negation for forall), which it consumes.  Each disjunct
    takes the first step that holds: the normal form in x
    (_conjunction_query, which refuses a literal that holds y); the cell
    step, where _no_point proves it has no point (MAX_CELLS cells in all)
    and it is dropped, before the split, which would double its work (a
    point _probe meets ends the step at once, with no cell spent); the
    split of its first !(s = t) (_unequal, the one split of a !=);
    _slab_cases.  None when none holds, or past MAX_DISJUNCTS.  Each query
    gives its witness first in the scan order 0, 1, -1, ...: the least
    positive one if it is at most the |x| of the nonpositive one nearest 0,
    else that one; the certificate, a value of x, is the first of those in
    that order, checked against the whole body at y = 0 (its disjunct is
    free of y).  An empty DNF (that of !p1) has no disjunct to satisfy."""
    (x, y, _), existential = pair, isinstance(sentence, Exists)
    queries: list[NormalFormQuery] = []
    cells = iter(range(MAX_CELLS))  # the budget, one item per case and cell
    while todo and len(queries) + len(todo) <= MAX_DISJUNCTS:
        conjuncts = todo.pop()
        if query := _conjunction_query(x, conjuncts):
            queries.append(query)
        elif None not in (atoms := [_atom(e, x, y) for e in conjuncts]) and _no_point(atoms, cells):
            continue
        elif (cases := _unequal(conjuncts) or _slab_cases(x, conjuncts)) is not None:
            todo += cases
        else:
            return None
    if todo != []:  # None, or cases left past MAX_DISJUNCTS
        return None
    found = [d.certificate for d in map(decide_existential_nf, queries) if d.truth]
    if not found:
        return Decision(not existential)
    value = min(found, key=lambda v: (abs(v), -v))  # the scan's order 0, 1, -1, ...
    if evaluate(sentence.body, {x: value}, 0).truth is not existential:
        raise AssertionError(f"certificate check failed at {x}={value}")
    return Decision(existential, certificate=value)


# --- elimination ------------------------------------------------------------
#
# Loos and Weispfenning's virtual substitution, for the equalities that pin
# a variable to one value: where a*x + b*f(x) = t with a + b*phi a unit of
# Z[phi] ((a, b) = (1, 0), (0, 1) or (1, 1)) and t free of x, x is a term
# in t.

def _eliminations(sentence: Exists | Forall, pair: tuple | None,
                  disjuncts: list | None) -> Iterator[tuple[Formula, bool]]:
    """Each (sentence equivalent to the NNF sentence with one quantifier
    removed by _pinned, whether it was the outer one of a pair).  Where pair
    reads the block Q x. Q y. body (see _prenex_pair), disjuncts is the DNF
    of the body (of its negation for forall), and y goes first, in place,
    then x, commuted past y, as exists y. (free | exists x. kept), whose
    certificate would be one of y.  Else each quantifier inside, innermost
    first, whose body is quantifier-free, in place."""
    if pair is not None:
        x, y, _ = pair
        for v, w in ((y, x), (x, y)):
            if (out := _pinned(v, disjuncts)) is not None:
                out = Exists(w, out)
                yield (out if type(sentence) is Exists else nnf(out, negated=True)), v == x
        return
    for node in _quantifiers(sentence.body):
        inner = type(node) is Exists
        if not _quantifiers(node.body) and (out := _pinned(node.var, _dnf(
                node.body if inner else nnf(node.body, negated=True)))) is not None:
            yield _replace(sentence, node, out if inner else nnf(out, negated=True)), False


def _pinned(x: str, disjuncts: list[list[Formula]] | None) -> Formula | None:
    """exists x. D, for the DNF D of conjunct lists, as free | exists x.
    kept, two such DNFs, when each list holds an equality that pins x
    (_pin) or is free of x (and goes over as it is, by x := x); None when
    one does not, or for a D of None (past MAX_DISJUNCTS).  A list goes over
    at each value x can take, with the equality kept, since it says whether
    that value is a solution:
      x = t: x := t;
      f(x) = t: x := f(t) - t + 1, the one solution where t >= 1.  Where
        t <= 0 the solutions are every x <= 0 when t = 0, so the list
        becomes t = 0 and the rest, with x < 1 while the rest holds x
        (dropped when its order atoms over x alone leave no integer);
      f(x) + x = t: x := 2t - f(t), the one solution where t >= 1, and
        x := t, the one where t <= 0.
    f(t) is taken as _folds gives it.  An empty D (that of !p1) is 0 < 0."""
    if disjuncts is None:
        return None
    free, kept, var = [], [], Var(x)
    for conjuncts in disjuncts:
        e, shape, t = next(((e, *p) for e in conjuncts if (p := _pin(e, x))), (None, (1, 0), var))
        if e is None and any(x in free_vars(c) for c in conjuncts):
            return None
        values = [] if shape == (0, 1) else [([], t)]
        if shape != (1, 0):
            guards, ft = _folds(t, conjuncts)
            values.append((guards, Add(Sub(ft, t), Const(1)) if shape == (0, 1) else
                           Sub(Scale(2, t), ft)))
        free += [guards + [_replace(c, var, value) for c in conjuncts] for guards, value in values]
        if shape == (0, 1):
            rest = [c for c in conjuncts if c is not e]
            if not any(x in free_vars(c) for c in rest):
                free.append([Cmp(t, "=", Const(0)), *rest])
                continue
            rest.append(Cmp(var, "<", Const(1)))
            if _order_query(x, rest) is not None:  # else they leave no integer
                kept.append([Cmp(t, "=", Const(0)), *rest])
    return _either(free + [[Exists(x, _either(kept))]] * bool(kept))


def _pin(e: Formula, x: str) -> tuple[tuple[int, int], Term] | None:
    """((a, b), t) when e is the equality a*x + b*f(x) = t, up to its sign,
    with (a, b) one of (1, 0), (0, 1) and (1, 1), and t free of x: read by
    _affine, so None where x is under f of anything but x."""
    if type(e) is not Cmp or e.rel != "=" or (form := _affine(Sub(e.left, e.right), x)) is None:
        return None
    a, b, c = form.pop(x, 0), form.pop((1, 0, 0, 0, 0), 0), form.pop(1, 0)
    sign = 1 if a + b > 0 else -1
    if (sign * a, sign * b) not in ((1, 0), (0, 1), (1, 1)) or any(
            type(key) is tuple and v for key, v in form.items()):  # f over x, not f(x)
        return None
    t = _form(-sign * c, *((-sign * v, Var(key) if type(key) is str else key)
                           for key, v in form.items() if type(key) is not tuple))
    return (sign * a, sign * b), t


def _form(c: int, *parts: tuple[int, Term]) -> Term:
    """The term Σ k*s + c over the (k, s) of parts, without the zero ones."""
    out = None
    for k, s in parts:
        if k:
            out = _joined(Add, out, s if k == 1 else Scale(k, s))
    return _joined(Add, out, Const(c) if c else None) or Const(0)


def _folds(t: Term, conjuncts: list[Formula]) -> tuple[list[Formula], Term]:
    """f(t), in a disjunct of the conjuncts, as (guards, value), where value
    is f(t) and the guards hold wherever the disjunct holds and t >= 1: f(t)
    itself; but where t = a*w + b*f(w) + c in its one name w, t not w alone,
    the single slab's value with the guard w >= 1.  For w >= 1, f(w) =
    phi*w - θ with θ in (0, 1), so where t >= 1 (Wythoff)
        f(t) = b*w + (a+b)*f(w) + floor(λθ + c*phi),  λ = a + b - b*phi,
    which is a slab when that floor takes one value k on (0, 1): _floors of
    λu + 0*v + c*phi over the unit square.  Where w <= 0, f(w) = 0 and
    t = a*w + c, so no such w may have t >= 1: a >= 0 and c <= 0, or the
    disjunct's order atoms over w leave no w <= 0 (or no integer at all)."""
    names = free_vars(t)
    if len(names) == 1 and (lin := _linearize(t, *names)) not in (None, (1, 0, 0)):
        (a, b, c), w = lin, Var(*names)
        k, high = _square_floors(((a + b, -b), (0, 0), c))
        if high == k + 1 and (a >= 0 and c <= 0 or (window := _order_query(w.name, conjuncts))
                              is None or window[0] is not None and window[0] >= 0):
            return [Cmp(Const(0), "<", w)], _form(k, (b, w), (a + b, F(w)))
    return [], F(t)


def _either(disjuncts: list[list[Formula]]) -> Formula:
    """The disjunction of the conjunctions of the nonempty lists; 0 < 0 for none."""
    out = None
    for conjuncts in disjuncts:
        out = _joined(Or, out, reduce(And, conjuncts))
    return out or Cmp(Const(0), "<", Const(0))


# --- cell step --------------------------------------------------------------
#
# A number of Z[phi] is a pair (p, q) for p + q*phi, and one of Q(phi) is
# (p, q, d) for (p + q*phi)/d with d > 0.  A point of the (u, v) square is
# (Up, Uq, Vp, Vq, D) for u = (Up + Uq*phi)/D and v = (Vp + Vq*phi)/D, and
# one of the polyhedron P of (x, y) is in the same format with Uq = Vq = 0;
# a line is (alpha, beta, gamma) for alpha*u + beta*v = gamma, all three in
# Z[phi]; and a convex polygon is its list of (vertex, line of the edge to
# the next one).  _range reads the least and greatest of a form over each.

# Cells the cell steps of one _decide_block call may cut in all before it
# declines, about 0.1 s on a 2-vCPU VM; a disjunct _probe meets spends none.
MAX_CELLS = 4096
# Points _probe tries from each corner of P: six meet one in 63 of 72 f_additive
# and every e_additive and f_double_f query of the decide_bounded corpora of
# seeds 7-9, and twelve meet no more; a miss costs about 10 µs on a 2-vCPU VM.
PROBE_POINTS = 6
# the unit square of (u, v), with its edges v = 0, u = 1, v = 1 and u = 0
_SQUARE = [((0, 0, 0, 0, 1), ((0, 0), (1, 0), (0, 0))), ((1, 0, 0, 0, 1), ((1, 0), (0, 0), (1, 0))),
           ((1, 0, 1, 0, 1), ((0, 0), (1, 0), (1, 0))), ((0, 0, 1, 0, 1), ((1, 0), (0, 0), (0, 0)))]
_square_floors = lru_cache(maxsize=1024)(lambda line: _floors(_SQUARE, line))  # once per line


def _prenex_pair(sentence: Exists | Forall, inner: list) -> tuple[str, str | None, Formula] | None:
    """(x, y, body) when the NNF sentence is over x and inner, the
    quantifiers of its body, is empty (y None, body the sentence's) or one
    of its kind over another name y, lifted out of the & and | around it:
    the sentence is Q x. Q y. body, the block _decide_block decides."""
    if not inner:
        return sentence.var, None, sentence.body
    node = inner[0]
    if len(inner) > 1 or type(node) is not type(sentence) or node.var == sentence.var:
        return None

    def lift(formula: Formula) -> Formula:
        if type(formula) in (And, Or):
            return type(formula)(lift(formula.left), lift(formula.right))
        return node.body if formula is node else formula

    return sentence.var, node.var, lift(sentence.body)


def _atom(e: Formula, x: str, y: str | None = None) -> tuple | None:
    """s < t as E = s - t + 1 <= 0, s = t as E = s - t = 0 and !(s = t) as
    E = s - t != 0, kept as (the relation of E to 0, E's coefficients of x
    and y, its constant, ((a, b, c, d, e), w) for each
    w*f(a*x + b*y + c + d*f(x) + e*f(y)) in it), from one _affine walk of
    s - t; None for any other atom, or one with f of a term that holds a
    name other than x and y."""
    rel = "!=" if type(e) is Not and type(e.body) is Cmp else e.rel if type(e) is Cmp else None
    if rel is None:
        return None
    e = e.body if rel == "!=" else e
    form = _affine(Sub(e.left, e.right), x, y)
    if form is None or any(type(key) is F and w for key, w in form.items()):
        return None
    terms = tuple((key, w) for key, w in form.items() if type(key) is tuple and w)
    return rel, form.get(x, 0), form.get(y, 0), form.get(1, 0) + (rel == "<"), terms


def _no_point(atoms: list[tuple], cells: Iterator) -> bool:
    """True when no integers x, y satisfy all the atoms (see _atom); False
    when that is not proved, at once where _probe meets such a point.  The
    atoms without f, but for E != 0, bound the polyhedron P of (x, y) from
    the start."""
    order = set().union(*(_half_planes(*atom[:4]) for atom in atoms
                          if not atom[4] and atom[0] != "!="))
    along_y = any(atom[2] or any(key[1] or key[4] for key, _ in atom[4]) for atom in atoms)
    atoms = [atom for atom in atoms if atom[4] or atom[0] == "!="]
    polyhedron = _polyhedron(order)
    if polyhedron is not None and _probe(atoms, polyhedron, along_y) is not None:
        return False
    keys = {key for atom in atoms for key, _ in atom[4]}
    nested = sorted(key for key in keys if key[3] or key[4])
    # f(x) and f(y) take their signs before the f terms over them
    keys.update(inner for *_, d, e in nested
                for inner, w in (((1, 0, 0, 0, 0), d), ((0, 1, 0, 0, 0), e)) if w)
    terms = sorted(keys.difference(nested)) + nested
    return _signs_excluded(atoms, terms, {}, polyhedron, cells)


def _probe(atoms: list, polyhedron: tuple, along_y: bool) -> tuple[int, int] | None:
    """The first point (x, y) where every atom holds, f read by f_floor, of
    the PROBE_POINTS integer points of P from each corner of P rounded, in
    the scan order 0, 1, -1, ... along y (x where no atom reads y); or None."""
    constraints, corners, _ = polyhedron
    for px, _, py, _, scale in corners:
        x0, y0 = (2 * px + scale) // (2 * scale), (2 * py + scale) // (2 * scale)
        for step in range(PROBE_POINTS):
            offset = (step + 1) // 2 * (1 if step % 2 else -1)
            x, y = (x0, y0 + offset) if along_y else (x0 + offset, y0)
            if any(a * x + b * y > c for a, b, c in constraints):
                continue
            fx, fy = f_floor(x), f_floor(y)
            for rel, lx, ly, k, terms in atoms:
                value = lx * x + ly * y + k
                for (a, b, c, d, e), w in terms:
                    value += w * f_floor(a * x + b * y + c + d * fx + e * fy)
                if value > 0 if rel == "<" else (value == 0) is (rel == "!="):
                    break
            else:
                return x, y
    return None


def _half_planes(rel: str, lx: int, ly: int, k: int) -> set[tuple[int, int, int]]:
    """lx*x + ly*y + k <= 0, or = 0, as constraints (a, b, d): a*x + b*y <= d."""
    return {(lx, ly, -k), (-lx, -ly, k)} if rel == "=" else {(lx, ly, -k)}


def _polyhedron(constraints: set) -> tuple | None:
    """(constraints, _corners, _rays) of a polyhedron, None when it is empty."""
    corners = _corners(constraints)
    return (constraints, corners, _rays(constraints)) if corners else None


def _signs_excluded(atoms: list, terms: list, positive: dict, polyhedron: tuple | None,
                    cells: Iterator) -> bool:
    """_no_point over each case of the signs of the f arguments not yet in
    positive: t = a*x + b*y + c + d*f(x) + e*f(y) is <= 0, where f(t) = 0,
    or >= 1.  A sign that P already fixes makes one case, and one that
    empties P none.  Where f(x) = X = phi*x - u (x >= 1) or f(y) = Y is in
    t, t is not linear in x and y: its sign must follow from P and u, v in
    [0, 1), or the case is not proved (False)."""
    if polyhedron is None:
        return True
    if len(positive) == len(terms):
        return _case_excluded(atoms, positive, polyhedron, cells)
    a, b, c, d, e = term = terms[len(positive)]
    if d or e:
        d, e = d * positive.get((1, 0, 0, 0, 0), 0), e * positive.get((0, 1, 0, 0, 0), 0)
    if d or e:  # t = (a + d*phi)*x + (b + e*phi)*y + c - d*u - e*v
        least, most = _range(*polyhedron[1:], (a, d), (b, e))
        low, high = c - max(d, 0) - max(e, 0), c - min(d, 0) - min(e, 0)  # of c - d*u - e*v
        if least is not None and phi_sign(least[0] + low * least[2], least[1]) > 0:
            up = True
        elif most is not None and phi_sign(most[0] + (high - 1) * most[2], most[1]) < 0:
            up = False
        else:
            return False
        return _signs_excluded(atoms, terms, {**positive, term: up}, polyhedron, cells)
    least, most = _range(*polyhedron[1:], (a, 0), (b, 0))  # of a*x + b*y over P
    up = least is not None and least[0] >= (1 - c) * least[2]
    if up or most is not None and most[0] <= -c * most[2]:
        cases = [(up, polyhedron)]
    else:
        cases = ((up, _polyhedron(polyhedron[0] | {cut}))
                 for up, cut in ((True, (-a, -b, c - 1)), (False, (a, b, -c))))
    return all(_signs_excluded(atoms, terms, {**positive, term: up}, case, cells)
               for up, case in cases)


def _case_excluded(atoms: list, positive: dict, polyhedron: tuple, cells: Iterator) -> bool:
    """_no_point in one case of signs, where each f argument
    t = a*x + b*y + c + d*f(x) + e*f(y) is <= 0 (f(t) = 0) or, when
    positive[(a, b, c, d, e)], >= 1, where
        f(t) = (a+d)*X + (b+e)*Y + d*x + e*y + floor(α*u + β*v + c*phi),
    α = a + d - d*phi and β = b + e - e*phi, for every integer x and y, with
    X = floor(phi*x) = phi*x - u and Y = floor(phi*y) = phi*y - v, so that
    u, v lie in [0, 1): phi*t is a*(X + u) + b*(Y + v) + c*phi, and
    phi*X = X + u + x - phi*u.  d counts only where f(x) = X (x >= 1), and
    e only where f(y) = Y.  An atom left without f bounds the rational
    polyhedron P of (x, y) further, but E != 0 cannot, and stays an atom
    with no floors.  Each other atom is
        E = l(x, y) + K + Σ w*floor(L) - A*u - B*v,
    l = (α' + A*phi)*x + (β' + B*phi)*y, and E is excluded on a cell of (u, v)
    where each floor(L) = k when its relation is ruled out there by the
    least and greatest of l over P and of the rest over the closed cell
    (_ruled_out); each comes from _range.  That needs no density argument:
    at x, y in P with t >= 1, L = phi*t less an integer is never an
    integer, so (u, v) is in the closure of a cell of positive area with its
    own floors.  A cell of zero area is dropped, and a cell no atom excludes
    is met: False."""
    if next(cells, None) is None:
        return False
    fx, fy = positive.get((1, 0, 0, 0, 0), False), positive.get((0, 1, 0, 0, 0), False)
    order, rest = set(), []
    for rel, lx, ly, k, terms in atoms:
        shifted, big_x, big_y = [], 0, 0  # the other f(t) are 0
        for key, w in terms:
            if positive[key]:
                a, b, c, d, e = key
                d, e = d * fx, e * fy
                lx, ly = lx + w * d, ly + w * e
                big_x, big_y = big_x + w * (a + d), big_y + w * (b + e)
                shifted.append((((a + d, -d), (b + e, -e), c), w))
        if not shifted and rel != "!=":
            order |= _half_planes(rel, lx, ly, k)
            continue
        rest.append((rel, lx, ly, k, big_x, big_y, shifted))
    if order - polyhedron[0]:
        polyhedron = _polyhedron(polyhedron[0] | order)
        if polyhedron is None:
            return True
    lines = sorted({line for atom in rest for line, _ in atom[6]})
    index = {line: i for i, line in enumerate(lines)}
    bounded = []
    for rel, lx, ly, k, big_x, big_y, floors in rest:
        least, most = _range(*polyhedron[1:], (lx, big_x), (ly, big_y))
        # one whose l is unbounded over P on each side it needs rules out no cell
        if {"<": least, "=": least or most, "!=": least and most}[rel]:
            bounded.append((rel, least, most, k, big_x, big_y,
                            [(index[line], w) for line, w in floors]))
    if not bounded:
        return False
    return _cells_excluded(_SQUARE, [_square_floors(line) for line in lines], lines, bounded, cells)


def _cells_excluded(polygon: list, ranges: list, lines: list, atoms: list,
                    cells: Iterator) -> bool:
    """True when _ruled_out holds for some atom on the whole polygon, or
    when the first floor(α*u + β*v + c*phi) of lines with more than one
    value there cuts it into cells, one per value, and each cell of positive
    area is excluded in turn; False at a cell where every floor takes one
    value and no atom is ruled out, or once cells runs out.  ranges holds
    (least, greatest + 1) of each floor over the polygon."""
    if any(_ruled_out(atom, polygon, ranges) for atom in atoms):
        return True
    split = next((i for i, (low, high) in enumerate(ranges) if high - low > 1), None)
    if split is None:
        return False
    ((a, p), (b, q), c), (low, high) = lines[split], ranges[split]
    for k in range(low, high):
        if next(cells, None) is None:
            return False
        cell = polygon if k == low else _clip(polygon, ((a, p), (b, q), (k, -c)))  # it is >= low
        if len(cell) > 2 and k < high - 1:
            cell = _clip(cell, ((-a, -p), (-b, -q), (-k - 1, c)))
        if len(cell) > 2 and not _cells_excluded(cell, [
                r if r[1] - r[0] == 1 else _floors(cell, line) for line, r in zip(lines, ranges)],
                lines, atoms, cells):
            return False
    return True


def _ruled_out(atom: tuple, polygon: list, ranges: list) -> bool:
    """Whether E of the atom (rel, least and most of l over P, K, A, B,
    floors indexed as ranges) is ruled out on the whole polygon, each floor
    at its worst there: E <= 0 where E > 0, E = 0 where E > 0 or E < 0, and
    E != 0 where -1 < E < 1.  A bound is tested up to the first vertex where
    it fails."""
    rel, least, most, k, big_x, big_y, floors = atom

    def beyond(bound: tuple | None, sign: int) -> bool:  # sign*E + [E != 0] > 0
        const = k + sign * (rel == "!=") + sum(
            w * (ranges[i][0] if sign * w > 0 else ranges[i][1] - 1) for i, w in floors)
        return bound is not None and all(sign * phi_sign(
            bound[0] * d + bound[2] * (const * d - big_x * up - big_y * vp),
            bound[1] * d - bound[2] * (big_x * uq + big_y * vq)) > 0
            for (up, uq, vp, vq, d), _ in polygon)

    if rel == "!=":
        return beyond(least, 1) and beyond(most, -1)
    return beyond(least, 1) or rel == "=" and beyond(most, -1)


def _floors(polygon: list, line: tuple) -> tuple[int, int]:
    """(least, greatest + 1) of floor(alpha*u + beta*v + c*phi) for the
    line (alpha, beta, c), at the polygon's points where its argument is not
    an integer."""
    alpha, beta, c = line
    (p, q, d), (r, s, e) = _range([vertex for vertex, _ in polygon], (), alpha, beta)
    return phi_floor(p, q + c * d, d), phi_ceil(r, s + c * e, e)


def _value(alpha: tuple[int, int], beta: tuple[int, int], point: tuple) -> tuple[int, int, int]:
    """alpha*u + beta*v at the point (Up, Uq, Vp, Vq, D), a number of Q(phi)."""
    (a, p), (b, q), (up, uq, vp, vq, d) = alpha, beta, point  # phi^2 = phi + 1
    return a * up + p * uq + b * vp + q * vq, a * uq + p * (up + uq) + b * vq + q * (vp + vq), d


def _range(points: list, rays: list, alpha: tuple[int, int], beta: tuple[int, int]) -> tuple:
    """(least, greatest) of alpha*u + beta*v (alpha, beta in Z[phi]), as
    numbers (p, q, D) of Q(phi), over the convex hull of the points plus
    the cone of the integer rays (r, s): each None when a ray takes the
    form past every bound."""
    values = [_value(alpha, beta, point) for point in points]
    least = most = values[0]
    for v in values[1:]:  # v - w has the sign of (v[0]*w[2] - w[0]*v[2]) + (...)*phi
        if phi_sign(v[0] * least[2] - least[0] * v[2], v[1] * least[2] - least[1] * v[2]) < 0:
            least = v
        elif phi_sign(v[0] * most[2] - most[0] * v[2], v[1] * most[2] - most[1] * v[2]) > 0:
            most = v
    signs = {phi_sign(alpha[0] * r + beta[0] * s, alpha[1] * r + beta[1] * s) for r, s in rays}
    return None if -1 in signs else least, None if 1 in signs else most


def _clip(polygon: list, cut: tuple) -> list:
    """The convex polygon cut to alpha*u + beta*v >= gamma for the line
    cut = (alpha, beta, gamma).  Vertices on the cut stay, so a cut that
    only touches leaves one or two of them; a polygon of positive area
    keeps no three on one line."""
    alpha, beta, (p, q) = cut
    sides = []
    for vertex, _ in polygon:
        r, s, d = _value(alpha, beta, vertex)
        sides.append(phi_sign(r - p * d, s - q * d))
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
    """The point where two lines that are not parallel cross, by Cramer's
    rule; a determinant that is not rational is cleared by its conjugate,
    so that D is its norm."""
    (a1, b1, c1), (a2, b2, c2) = first, second
    (p, q), (r, s) = phi_mul(*a1, *b2), phi_mul(*a2, *b1)
    det = p - r, q - s
    (p, q), (r, s) = phi_mul(*c1, *b2), phi_mul(*c2, *b1)
    u = p - r, q - s
    (p, q), (r, s) = phi_mul(*a1, *c2), phi_mul(*a2, *c1)
    v = p - r, q - s
    d = det[0]
    if det[1]:
        conjugate = det[0] + det[1], -det[1]
        u, v, d = phi_mul(*u, *conjugate), phi_mul(*v, *conjugate), phi_norm(*det)
    sign = 1 if d > 0 else -1
    return sign * u[0], sign * u[1], sign * v[0], sign * v[1], sign * d


def _corners(constraints: set) -> list[tuple[int, int, int, int, int]]:
    """The points (x*D, 0, y*D, 0, D), D > 0, of the polyhedron
    a*x + b*y <= d for each (a, b, d) among its vertices, the feet of the
    perpendiculars from the origin to its lines and the origin.  Every face
    of least dimension holds one, so a linear form bounded below on the
    polyhedron takes its least value at one; none when it is empty."""
    lines = [(a, b, d) for a, b, d in constraints if a or b]
    points = [(0, 0, 0, 0, 1)] + [(d * a, 0, d * b, 0, a * a + b * b) for a, b, d in lines]
    for i, (a1, b1, d1) in enumerate(lines):
        for a2, b2, d2 in lines[i + 1:]:
            if det := a1 * b2 - a2 * b1:  # Cramer's rule: the point _meet gives
                s = 1 if det > 0 else -1
                points.append((s * (d1 * b2 - d2 * b1), 0, s * (a1 * d2 - a2 * d1), 0, s * det))
    return [point for point in points
            if all(a * point[0] + b * point[2] <= d * point[4] for a, b, d in constraints)]


def _rays(constraints: set) -> list[tuple[int, int]]:
    """Directions that generate the recession cone of the polyhedron: the
    axes, each line's two directions and each inward normal, where the cone
    holds them."""
    directions = {(1, 0), (-1, 0), (0, 1), (0, -1)}
    for a, b, _ in constraints:
        directions |= {(-b, a), (b, -a), (-a, -b)}
    return [(r, s) for r, s in directions if all(a * r + b * s <= 0 for a, b, _ in constraints)]


# --- axiom audit ------------------------------------------------------------

class FamilyResult(namedtuple("FamilyResult", "name decisions instances failures")):
    """One axiom family: each of its sentences with its Decision by the exact
    routes, the instances enumerated beside them, and the first failures."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


class AuditReport(namedtuple("AuditReport", "bound families")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.families)


# The widest range the audit enumerates: about 2 s and 23 MiB on a 2-vCPU VM.
MAX_AUDIT_RANGE = 10 ** 6


def axiom_audit(n: int) -> AuditReport:
    """Decide the axiom families' sentences by the exact routes; enumerate
    [-n, n], 2 <= n <= MAX_AUDIT_RANGE, beside f-minimum and the partition,
    which elimination proves by Wythoff's identities (_folds),
    _negative_branch assumes, or no route decides.  The one-variable route
    proves the f-identities by its cell step and the convergent implications
    in the normal form, reading neither."""
    if not 2 <= n <= MAX_AUDIT_RANGE:
        raise ValueError(f"audit range must be in [2, {MAX_AUDIT_RANGE}], got {n}")
    families = (
        ("f-minimum", _minimum, "forall x. x > 0 | f(x) = 0", "f(1) = 1",
         "forall x. forall t. x < 1 | t < 1 | t >= x | (f(t) != f(x) & f(t) + t != f(x))",
         "forall x. forall m. x < 1 | m < 1 | m >= f(x)"
         " | (exists t. t > 0 & t < x & (f(t) = m | f(t) + t = m))"),
        ("beatty-partition", _partition,
         "forall n. n < 1 | (exists x. x > 0 & f(x) = n) | (exists x. x > 0 & f(x) + x = n)",
         "forall n. n < 1 | !(exists x. x > 0 & f(x) = n) | !(exists y. y > 0 & f(y) + y = n)"),
        ("window-predicate", _window_predicate),
        ("convergent-implications", None, *_convergent_implications()),
        ("f-identities", None, "forall x. x < 1 | f(f(x)) = f(x) + x - 1",
         "forall x. x < 1 | f(f(x) + x) = 2*f(x) + x"),
    )
    return AuditReport(n, tuple(_family(n, *row) for row in families))


def _family(n: int, name: str, enumeration, *sentences: str) -> FamilyResult:
    """A family fails on a refuted sentence or an enumerated failure, and with no enumeration on
    one not True (exact).  Only the exact routes decide: a bounded scan proves no axiom."""
    decisions = tuple((text, _decide(_miniscope(nnf(parse(text))), None, iter(range(MAX_DISJUNCTS)))
                       or Decision(None, reason="no exact route decides it"))
                      for text in sentences)
    instances, failures = enumeration(n) if enumeration else (0, [])
    failures += [f"not True (exact): {text}" for text, d in decisions
                 if d.truth is False or enumeration is None and d[:2] != (True, EXACT)]
    return FamilyResult(name, decisions, instances, tuple(failures[:5]))


def _minimum(n: int) -> tuple[int, list[str]]:
    """f vanishes on nonpositives, and f(x) is the least natural number not
    hit by {f(t), f(t)+t : t < x}."""
    failures = [f"f({x}) != 0" for x in range(-n, 1) if f_floor(x) != 0]
    limit = f_floor(n) + n + 2  # past every f(x) + x with x <= n
    hit = bytearray(limit + 2)
    hit[0] = 1
    cursor = 1
    for x in range(1, n + 1):
        while cursor <= limit and hit[cursor]:
            cursor += 1
        fx = f_floor(x)
        if fx != cursor:
            failures.append(f"x={x}: least unhit is {cursor}, f(x)={fx}")
        hit[fx] = hit[fx + x] = 1
    return 2 * n + 1, failures


def _partition(n: int) -> tuple[int, list[str]]:
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
        d = decompose(m)
        if f_floor(d.x) + (0 if d.kind == "F" else d.x) != m:
            failures.append(f"decompose({m}) -> {d} does not verify")
    return 2 * n, failures


def _window_predicate(n: int) -> tuple[int, list[str]]:
    """Solver agreement with enumeration for the window predicate."""
    windows = [(-7, 23), (0, 50), (-3, 4), (-min(n, 60), min(n, 60))]
    cases = [(n_x, n_fx, m_x, m_fx, low, high) for n_x in range(1, 5) for n_fx in range(1, 5)
             for m_x in range(n_x) for m_fx in range(n_fx) for low, high in windows]
    failures = []
    for n_x, n_fx, m_x, m_fx, low, high in cases:
        system = CongruenceSystem(Congruence(n_x, m_x), Congruence(n_fx, m_fx), low, high)
        got = solve_system(system).is_witness
        want = any(x % n_x == m_x and f_floor(x) % n_fx == m_fx for x in range(low + 1, high))
        if got != want:
            failures.append(f"P[{n_x},{n_fx},{m_x},{m_fx}]({low},{high}): "
                            f"solver={got} enumeration={want}")
    return len(cases), failures


def _convergent_implications() -> Iterator[str]:
    """f(x) <rel> s*x + k read off where (w - s)*x lies against k and k+1,
    for w the convergent of phi on the slope's side, in the form that holds:
    x with s*x + k an integer, and w at least_adequate_index (the literal
    any-index form is false; see axiom_v_check)."""
    for s in map(_fraction, ("0", "1", "3/2", "8/5", "5/3", "2")):
        ladder = convergent_d if locate_slope(s).side == "below" else convergent_u
        for k in range(-3, 4):
            gap = ladder(least_adequate_index(s, k)) - s
            g, d = gap.numerator, gap.denominator
            for rel, then in (("<", f"{g}*x < {k * d}"),
                              ("=", f"{k * d} <= {g}*x & {g}*x < {(k + 1) * d}"),
                              (">", f"{g}*x >= {(k + 1) * d}")):
                yield (f"forall x. x < 1 | !p{s.denominator}(x)"
                       f" | !({s.denominator}*f(x) {rel} {s.numerator}*x + {k * s.denominator})"
                       f" | {then}")
