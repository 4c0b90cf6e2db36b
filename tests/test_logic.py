import itertools
import random
import re
import sys
import time
from collections.abc import Iterator
from fractions import Fraction
from operator import eq, ge, lt, ne
from unittest.mock import patch

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from beatty import congruence, logic, windows
from beatty.congruence import Congruence, CongruenceSystem, SolveOutcome, solve_system
from beatty.golden import BeattyDecomposition, f_floor, f_inverse, phi_sign
from beatty.logic import (
    BOUNDED,
    EXACT,
    MAX_DISJUNCTS,
    MAX_NESTING,
    Add,
    And,
    AuditReport,
    Cmp,
    Const,
    Decision,
    Div,
    Exists,
    F,
    FamilyResult,
    Forall,
    Implies,
    Not,
    NormalFormQuery,
    Or,
    ParseError,
    PPred,
    Scale,
    Sub,
    Var,
    _join,
    _negate,
    _replace,
    axiom_audit,
    decide,
    decide_existential_nf,
    evaluate,
    format_formula,
    free_vars,
    nnf,
    parse,
    parse_term,
    to_normal_form,
)
from beatty.windows import (
    AxiomVReport,
    BracketInfo,
    LinearConstraint,
    Piece,
    WindowSet,
    _make_piece,
)
from formula_gen import nf_brute_holds, nf_brute_witness, random_formula, random_nf_sentence


# --- parsing ------------------------------------------------------------

def test_parse_examples():
    assert parse("f(3) = 4") == Cmp(F(Const(3)), "=", Const(4))
    expected = Exists("x", And(Div(2, Var("x")),
                               Cmp(F(Var("x")), "<", Add(Var("x"), Var("x")))))
    assert parse("exists x. (p2(x) & f(x) < x + x)") == expected
    assert parse("x < ٣") == Cmp(Var("x"), "<", Const(3))  # \d is any Unicode digit


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("f(x")
    assert err.value.position == 3
    with pytest.raises(ParseError) as err:
        parse("exists . f(x) = 1")
    assert err.value.position == 7
    with pytest.raises(ParseError) as err:
        parse("x < @")
    assert err.value.position == 4


def test_parse_desugars_relations():
    x = Var("x")
    assert parse("x > 1") == Cmp(Const(1), "<", x)
    assert parse("x <= 1") == Not(Cmp(Const(1), "<", x))
    assert parse("x >= 1") == Not(Cmp(x, "<", Const(1)))
    assert parse("x != 1") == Not(Cmp(x, "=", Const(1)))


def test_parse_reserved_names():
    for bad in ("exists f. f < 1", "p3 < 1", "forall P. P = 1"):
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_terms_and_precedence():
    assert parse_term("2 * x + 1") == Add(Scale(2, Var("x")), Const(1))
    assert parse_term("2 * (x + 1)") == Scale(2, Add(Var("x"), Const(1)))
    assert parse_term("-3 * x") == Scale(-3, Var("x"))
    assert parse_term("x - -3") == Sub(Var("x"), Const(-3))
    assert parse_term("1 - 2 - 3") == Sub(Sub(Const(1), Const(2)), Const(3))


def test_parse_quantifier_extends_right():
    got = parse("exists x. x = 1 | x = 2")
    assert isinstance(got, Exists) and isinstance(got.body, Or)


def test_parenthesized_term_versus_formula():
    assert parse("(x + 1) < 2") == Cmp(Add(Var("x"), Const(1)), "<", Const(2))
    assert parse("(x < 2)") == Cmp(Var("x"), "<", Const(2))
    assert parse("(p2(x))") == Div(2, Var("x"))


def _nested(construct: str, n: int) -> str:
    """n levels of one construct around x < 1 (a chain has n + 1 operands)."""
    return {
        "(": "(" * n + "x < 1" + ")" * n,
        "!": "!" * n + "x < 1",
        "f(": "f(" * n + "x" + ")" * n + " < 1",
        "exists": "exists x. " * n + "x < 1",
        "2 *": "2 * " * n + "x < 1",
        "->": " -> ".join(["x < 1"] * (n + 1)),
        "&": " & ".join(["x < 1"] * (n + 1)),
        "|": " | ".join(["x < 1"] * (n + 1)),
        "+": "x < " + " + ".join(["1"] * (n + 1)),
        "-": "x < " + " - ".join(["1"] * (n + 1)),
    }[construct]


@pytest.mark.parametrize("construct", ["(", "!", "f(", "exists", "2 *", "->", "&", "|", "+", "-"])
def test_parse_caps_nesting(construct):
    parse(_nested(construct, MAX_NESTING))
    text = _nested(construct, MAX_NESTING + 1)
    with pytest.raises(ParseError, match="nesting") as err:
        parse(text)
    # the offset is that of the construct one past the cap
    assert text[err.value.position:].startswith(construct)


def test_parse_reports_the_first_error_met():
    # scanning stops at the cap: the bad character past it is never reached
    text = "(" * 4000 + "$"
    with pytest.raises(ParseError, match="nesting") as err:
        parse(text)
    assert err.value.position == MAX_NESTING
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse("(" * MAX_NESTING + "$")
    assert err.value.position == MAX_NESTING


@pytest.mark.parametrize("text", [
    lambda k: "(" * k + "$",
    lambda k: "f(" * k + "x",
    lambda k: "!" * k + "0 < 1",
    lambda k: "2 * " * k + "x < 1",
    lambda k: "x < ) " + "0 < 1 & " * (k // 8),
], ids=["(", "f(", "!", "2 *", "x < )"])
def test_a_refusal_costs_the_same_whatever_the_length_of_the_text(text):
    # the text is scanned in windows as the parser reaches them: a refusal
    # near its start never tokenizes the rest of it
    def refusals(source):
        def run():
            for _ in range(20):
                with pytest.raises(ParseError):
                    parse(source)
        return run

    short, _ = _least_time(refusals(text(4_000)))
    long, _ = _least_time(refusals(text(400_000)))
    assert long < 3 * short


def test_parse_is_linear_in_the_nesting_of_groups():
    # each ( is read once, whether the group holds a formula or a term; a
    # parser that tries the term first and backtracks walks the formula's
    # groups quadratically often (about 25 times the term's time at 99)
    formula, _ = _least_time(lambda: [parse("(" * 99 + "x < 1" + ")" * 99) for _ in range(10)])
    term, _ = _least_time(lambda: [parse("(" * 99 + "x" + ")" * 99 + " < 1") for _ in range(10)])
    assert formula < 4 * term


def test_parse_caps_left_operands_of_chains():
    # a group as the left operand of a chain sits one level deeper per
    # operator, so nesting groups that each start a chain adds up
    text = "x < 1"
    for _ in range(5):
        text = f"({text})" + " & x < 1" * 20
    with pytest.raises(ParseError, match="nesting"):
        parse(text)


_BIG = "1" * (logic.MAX_LITERAL_DIGITS + 1)
_LONG = f"integer literal longer than {logic.MAX_LITERAL_DIGITS} digits"
_RELATIONS = "(expected < or <= or = or != or > or >=)"
# one malformed text per error the parser raises: (text, offset, message)
PARSE_ERRORS = [
    ("x < @", 4, "unexpected character '@'"),
    ("x < 1 é", 6, "unexpected character 'é'"),
    ("x <", 3, "unexpected end of input"),
    ("exists", 6, "unexpected end of input"),
    ("f(x", 3, "unexpected end of input at offset 3 (expected ')')"),
    ("forall x", 8, "unexpected end of input at offset 8 (expected '.')"),
    ("forall x x < 1", 9, "unexpected 'x' at offset 9 (expected '.')"),
    ("x", 1, f"unexpected end of input at offset 1 {_RELATIONS}"),
    ("x + 1 & 2", 6, f"unexpected '&' at offset 6 {_RELATIONS}"),
    ("x < 1 )", 6, "unexpected trailing ')'"),
    ("x < )", 4, "unexpected ')' at offset 4 (expected a term)"),
    ("P[1,x,0,0](0, 5)", 4, "expected integer, got 'x'"),
    ("P[1,1,-x,0](0, 5)", 6, "expected integer, got 'x'"),
    ("P[1,1,--1,0](0, 5)", 6, "expected integer, got '-'"),
    ("P[1,1,-", 7, "unexpected end of input"),
    ("exists f. x < 1", 7, "'f' is reserved"),
    ("exists P. x < 1", 7, "'P' is reserved"),
    ("exists exists. x < 1", 7, "'exists' is reserved"),
    ("exists forall. x < 1", 7, "'forall' is reserved"),
    ("exists p3. x < 1", 7, "'p3' is reserved"),
    ("exists 3. x < 1", 7, "invalid variable name '3'"),
    ("x < f", 5, "unexpected end of input at offset 5 (expected '(')"),
    ("x < P", 4, "'P' is reserved"),
    ("x < exists", 4, "'exists' is reserved"),
    ("x < forall", 4, "'forall' is reserved"),
    ("x < p3", 4, "'p3' is reserved"),
    (f"p{_BIG}(x)", 0, _LONG),
    (f"x < {_BIG}", 4, _LONG),
    ("P[0,1,0,0](0, 5)", 0, "window predicate moduli must be >= 1"),
    ("P[1,0,0,0](0, 5)", 0, "window predicate moduli must be >= 1"),
    ("p0(x)", 0, "divisibility modulus must be >= 1"),
    ("(" * 4000 + "$", 100, "nesting deeper than 100"),
    ("(" * 100 + "$", 100, "unexpected character '$'"),
    ("x < 1" + " & x < 1" * 101 + " & $", 806, "nesting deeper than 100"),
    ("x < " + "f(" * 3000 + "x", 204, "nesting deeper than 100"),
    # a group at an atom that is neither a term nor a formula: the error is
    # the one the formula reading meets, at the first ')' after a term
    ("(x) & y < 1", 2, f"unexpected ')' at offset 2 {_RELATIONS}"),
    ("(x + 1 & 2)", 7, f"unexpected '&' at offset 7 {_RELATIONS}"),
    ("((x)) <", 3, f"unexpected ')' at offset 3 {_RELATIONS}"),
    ("(x < 1", 6, "unexpected end of input at offset 6 (expected ')')"),
    ("(x < 1) + 2 < 3", 8, "unexpected trailing '+'"),
    ("(f(x) = 1", 9, "unexpected end of input at offset 9 (expected ')')"),
    ("((x) + y) & z", 3, f"unexpected ')' at offset 3 {_RELATIONS}"),
    ("(!(x))", 4, f"unexpected ')' at offset 4 {_RELATIONS}"),
    ("((x) < &)", 3, f"unexpected ')' at offset 3 {_RELATIONS}"),
    ("(x) < 1 + #", 2, f"unexpected ')' at offset 2 {_RELATIONS}"),
    ("x < -#", 5, "unexpected character '#'"),
]


# one malformed text per error the term entry point raises: (text, offset, message)
PARSE_TERM_ERRORS = [
    ("2 *", 3, "unexpected end of input"),
    ("f(x", 3, "unexpected end of input at offset 3 (expected ')')"),
    ("x +", 3, "unexpected end of input"),
    ("(x", 2, "unexpected end of input at offset 2 (expected ')')"),
    ("x < 1", 2, "unexpected trailing '<'"),
    ("-x", 0, "unexpected '-' at offset 0 (expected a term)"),
    ("x - -", 4, "unexpected '-' at offset 4 (expected a term)"),
    ("P", 0, "'P' is reserved"),
    ("exists", 0, "'exists' is reserved"),
    ("x $", 2, "unexpected character '$'"),
    # one level past the cap: the 101st f(, (, 3 * and +
    ("f(" * 101 + "x" + ")" * 101, 200, "nesting deeper than 100"),
    ("(" * 101 + "x" + ")" * 101, 100, "nesting deeper than 100"),
    ("3 * " * 101 + "x", 400, "nesting deeper than 100"),
    (" + ".join(["x"] * 102), 402, "nesting deeper than 100"),
]


def _assert_parse_error(entry, text, offset, message):
    with pytest.raises(ParseError) as err:
        entry(text)
    assert err.value.position == offset
    expected = message if " at offset " in message else f"{message} at offset {offset}"
    assert str(err.value) == expected


@pytest.mark.parametrize("text,offset,message", PARSE_ERRORS,
                         ids=[f"{i}:{row[0][:24]}" for i, row in enumerate(PARSE_ERRORS)])
def test_each_parse_error_keeps_its_message_and_offset(text, offset, message):
    _assert_parse_error(parse, text, offset, message)


@pytest.mark.parametrize("text,offset,message", PARSE_TERM_ERRORS,
                         ids=[f"{i}:{row[0][:24]}" for i, row in enumerate(PARSE_TERM_ERRORS)])
def test_each_parse_term_error_keeps_its_message_and_offset(text, offset, message):
    _assert_parse_error(parse_term, text, offset, message)


def test_print_parse_identity_random():
    rng = random.Random(90125)
    for _ in range(300):
        ast = random_formula(rng, depth=6)
        assert parse(format_formula(ast)) == ast


# --- evaluation ----------------------------------------------------------

def test_evaluate_examples():
    assert evaluate(parse("f(-3) = 0")).truth is True
    assert evaluate(parse("f(7) = 11")).truth is True
    d = evaluate(parse("forall x. (0 < x -> x < f(x) + 1)"), bound=1000)
    assert d.truth is True and d.provenance == BOUNDED and d.bound == 1000


def test_evaluate_requires_assignment():
    with pytest.raises(ValueError):
        evaluate(parse("x < 1"))
    assert evaluate(parse("x < 1"), {"x": 0}).truth is True


def test_evaluate_exists_witness_is_exact():
    d = evaluate(parse("exists x. f(x) = 11"), bound=50)
    assert d.truth is True and d.provenance == EXACT and f_floor(d.witness) == 11


def test_evaluate_forall_counterexample_is_exact():
    d = evaluate(parse("forall x. f(x) < 11"), bound=100)
    assert d.truth is False and d.provenance == EXACT
    assert f_floor(d.counterexample) >= 11


def test_evaluate_ppred_matches_enumeration():
    rng = random.Random(33)
    for _ in range(60):
        n, n2 = rng.randint(1, 6), rng.randint(1, 6)
        m, m2 = rng.randrange(n), rng.randrange(n2)
        low = rng.randint(-30, 60)
        high = low + rng.randint(0, 300)
        formula = PPred(n, n2, m, m2, Const(low), Const(high))
        want = any(x % n == m and f_floor(x) % n2 == m2 for x in range(low + 1, high))
        assert evaluate(formula).truth is want


def test_evaluate_ppred_empty_window_is_false():
    assert evaluate(PPred(1, 1, 0, 0, Const(5), Const(5))).truth is False
    assert evaluate(PPred(1, 1, 0, 0, Const(9), Const(2))).truth is False


# --- evaluation against the tree-walking reference ------------------------

def _walk_term(term, env):
    if isinstance(term, Var):
        return env[term.name]
    if isinstance(term, Const):
        return term.value
    if isinstance(term, (Add, Sub)):
        left, right = _walk_term(term.left, env), _walk_term(term.right, env)
        return left + right if isinstance(term, Add) else left - right
    if isinstance(term, Scale):
        return term.coeff * _walk_term(term.term, env)
    return f_floor(_walk_term(term.arg, env))


def _compiled(formula, env, scanned):
    """What evaluate() makes of formula before any scan: the bool it folds
    to, "code" for generated source, or None for a Decision closure.  Over
    no variable in scanned (those of the enclosing quantifiers) a comparison
    or divisibility folds; a negation is what its body is; an operand that
    folds to the deciding value is the connective's value, and one that
    folds to the other value leaves the other operand, except beside a
    closure outside every quantifier, where the connective is a closure; a
    connective of two unfolded operands is a closure if either is one and
    "code" otherwise; a quantifier whose body folds to
    a value no point decides folds to it; a P[...] inside a quantifier
    whose bounds are over no variable in scanned folds to its truth; any
    other is a closure."""
    if isinstance(formula, (Cmp, Div)):
        return "code" if free_vars(formula) & scanned else _walk(formula, env, 0).truth
    if isinstance(formula, PPred) and scanned and not free_vars(formula) & scanned:
        return _walk(formula, env, 0).truth
    if isinstance(formula, Not):
        body = _compiled(formula.body, env, scanned)
        return not body if isinstance(body, bool) else body
    if isinstance(formula, (And, Or, Implies)):
        left, right = (_compiled(side, env, scanned) for side in (formula.left, formula.right))
        if isinstance(formula, Implies) and isinstance(left, bool):
            left = not left
        decisive = not isinstance(formula, And)
        if (left is None or right is None) and not scanned:
            return None
        if decisive in (left, right):
            return decisive
        if isinstance(left, bool) or isinstance(right, bool):
            return right if isinstance(left, bool) else left
        return None if None in (left, right) else "code"
    if isinstance(formula, (Exists, Forall)):
        body = _compiled(formula.body, env, scanned | {formula.var})
        return body if body is (not isinstance(formula, Exists)) else None
    return None


def _walk(formula, env, bound, scanned=frozenset()):
    """The original evaluator: one Decision per node, both sides of every
    connective evaluated, quantifiers scanned 0, 1, -1, ..., bound, -bound
    over a name -> value dict that is restored afterwards; a node that
    evaluate() folds (see _compiled) is its exact value, without a scan."""
    if isinstance(formula, Cmp):
        lv, rv = _walk_term(formula.left, env), _walk_term(formula.right, env)
        return Decision(lv < rv if formula.rel == "<" else lv == rv)
    if isinstance(formula, Div):
        return Decision(_walk_term(formula.term, env) % formula.modulus == 0)
    if isinstance(formula, PPred):
        low, high = _walk_term(formula.low, env), _walk_term(formula.high, env)
        if low >= high:
            return Decision(False)
        system = CongruenceSystem(Congruence(formula.mod_x, formula.res_x),
                                  Congruence(formula.mod_fx, formula.res_fx),
                                  lower=low, upper=high)
        out = solve_system(system)
        return Decision(True, certificate=out.witness) if out.is_witness else Decision(False)
    folded = _compiled(formula, env, scanned)
    if isinstance(folded, bool):
        return Decision(folded)
    if isinstance(formula, Not):
        return _negate(_walk(formula.body, env, bound, scanned))
    if isinstance(formula, And):
        return _join(_walk(formula.left, env, bound, scanned),
                     _walk(formula.right, env, bound, scanned), False)
    if isinstance(formula, Or):
        return _join(_walk(formula.left, env, bound, scanned),
                     _walk(formula.right, env, bound, scanned), True)
    if isinstance(formula, Implies):
        return _join(_negate(_walk(formula.left, env, bound, scanned)),
                     _walk(formula.right, env, bound, scanned), True)
    existential = isinstance(formula, Exists)
    saved = env.get(formula.var)
    unknown_reason = decisive = None
    for v in [0] + [s * k for k in range(1, bound + 1) for s in (1, -1)]:
        env[formula.var] = v
        d = _walk(formula.body, env, bound, scanned | {formula.var})
        if d.truth is existential:
            decisive = Decision(existential, d.provenance,
                                d.bound if d.provenance == BOUNDED else None, v)
            break
        if d.truth is None and unknown_reason is None:
            unknown_reason = d.reason or "subformula unknown"
    if saved is None:
        del env[formula.var]
    else:
        env[formula.var] = saved
    if decisive is not None:
        return decisive
    if unknown_reason is not None:
        return Decision(None, reason=unknown_reason)
    return Decision(not existential, BOUNDED, bound=bound)


def _rename(node, names):
    """Rename every variable, bound or free, through names; a non-injective
    map makes quantifiers shadow each other and the assigned variables."""
    if isinstance(node, Var):
        return Var(names[node.name])
    if isinstance(node, (Exists, Forall)):
        return type(node)(names[node.var], _rename(node.body, names))
    if not isinstance(node, tuple):
        return node
    return node._replace(**{field: _rename(getattr(node, field), names)
                            for field in node._fields})


def test_evaluate_matches_reference_walker_on_random_formulas():
    rng = random.Random(2718)
    seen = set()
    for _ in range(400):
        names = {v: rng.choice("xy") for v in ("x", "y", "z", "u", "v", "w", "n0", "n1")}
        formula = _rename(random_formula(rng, depth=4, variables=["x", "y"]), names)
        assignment = {"x": rng.randint(-9, 9), "y": rng.randint(-9, 9)}
        bound = rng.choice([0, 1, 2, 3, 5, 8, 13, 20])
        got = evaluate(formula, assignment, bound)
        assert got == _walk(formula, dict(assignment), bound), format_formula(formula)
        seen.add((got.truth, got.provenance, got.witness is not None,
                  got.counterexample is not None))
    # the corpus reaches every kind of outcome the walker can give
    assert {truth for truth, *_ in seen} == {True, False}
    assert (True, EXACT, True, False) in seen and (False, EXACT, False, True) in seen
    assert (True, BOUNDED, False, False) in seen and (False, BOUNDED, False, False) in seen


@pytest.mark.parametrize("text,assignment", [
    ("exists x. forall x. f(x) < x + 5", {}),
    ("exists x. (x = 3 & forall x. (x < 1 | x < f(x) + 1) & f(x) = 4)", {}),
    ("forall y. (y < x | exists x. f(x) = y + x)", {"x": 4}),
    ("exists x. (x = y + 1 & forall y. (y < 0 | f(y) < f(y + x) + 1)) & y = 2", {"x": -5, "y": 2}),
    ("exists x. (P[2,3,1,2](x, x + 20) & !P[4,5,3,0](x - 30, x))", {}),
    ("forall x. (P[1,1000000,0,3](x, x + 100000000) | x < 3)", {}),
    ("(exists x. f(x) = 7) -> forall y. exists z. z = y + 1", {}),
])
def test_evaluate_matches_reference_walker_on_shadowing_and_p(text, assignment):
    formula = parse(text)
    for bound in (0, 4, 20):
        assert evaluate(formula, assignment, bound) == _walk(formula, dict(assignment), bound)


def _without_implies(node):
    """node with each L -> R written !L | R."""
    if type(node) is Implies:
        return Or(Not(_without_implies(node.left)), _without_implies(node.right))
    return node._make(_without_implies(c) if isinstance(c, tuple) else c for c in node)


def test_evaluate_reads_an_implication_as_its_disjunction(monkeypatch):
    # the evaluator's one rule for L -> R is nnf's, !L | R: the same Decision,
    # certificate and provenance included, also where a lowered budget spends
    # the scans
    rng = random.Random(1729)
    implications, spent = 0, 0
    for _ in range(600):
        formula = random_formula(rng, depth=5, variables=["x"])
        if not any(type(node) is Implies for node in logic._nodes(formula)):
            continue
        implications += 1
        written, assignment = _without_implies(formula), {"x": rng.randint(-9, 9)}
        for budget in (logic.EVAL_BUDGET, 40, 7):
            monkeypatch.setattr(logic, "EVAL_BUDGET", budget)
            got = evaluate(formula, assignment, 5)
            assert got == evaluate(written, assignment, 5), format_formula(formula)
            spent += got.reason == "evaluation budget spent"
    assert implications >= 200 and spent >= 20


# --- generated code ---------------------------------------------------------

# Every token generated source may hold: slots, constants bound by name, the
# f table f[...], arithmetic, < and ==, and, or, not, parentheses, and a scan
# loop's next, for, in, if, order and None (the comma only before None).
_GENERATED = re.compile(r"(\s*(env\[\d+\]|c\d+\b|f\[|\]|[-+*%()<]|=="
                        r"|(and|or|not|next|for|in|if|order)\b|, None\b))*\s*")


def _generated_sources(monkeypatch) -> list[str]:
    sources = []
    compile_source = logic._Compiler.function

    def recording(compiler, code, *params):
        if isinstance(code, str):
            sources.append(code)
        return compile_source(compiler, code, *params)

    monkeypatch.setattr(logic._Compiler, "function", recording)
    return sources


def test_generated_source_is_closed_over_its_tokens(monkeypatch):
    sources = _generated_sources(monkeypatch)
    rng = random.Random(1618)
    for _ in range(300):
        formula = random_formula(rng, depth=5, variables=["x", "y"])
        evaluate(formula, {"x": rng.randint(-9, 9), "y": rng.randint(-9, 9)}, bound=2)
    assert len(sources) > 300 and any("f[" in s and " % " in s for s in sources)
    for source in sources:
        assert _GENERATED.fullmatch(source), source


# names the generated code itself uses, or Python reserves
_HOSTILE = ["env", "f", "c0", "lambda", "__import__", "c1", "not", "__builtins__", "next", "order"]


def test_variable_names_never_enter_the_generated_code():
    rng = random.Random(4181)
    for i in range(150):
        sentence = random_formula(rng, depth=4)
        # the i-th sentence names its variables x, y, z, ... after the hostile
        # names from the i-th on, so that each hostile name is used
        pool = ("x", "y", "z", "u", "v", "w", "n0", "n1")
        renamed = _rename(sentence, {v: _HOSTILE[(i + k) % len(_HOSTILE)]
                                     for k, v in enumerate(pool)})
        assert evaluate(renamed, bound=2) == evaluate(sentence, bound=2)
        assert decide(renamed, bound=3) == decide(sentence, bound=3)
    text = "forall env. exists c0. exists lambda. (env + c0 = lambda & p2(lambda - f(c0)))"
    assert decide(parse(text), bound=4) == decide(parse(
        "forall a. exists b. exists c. (a + b = c & p2(c - f(b)))"), bound=4)
    text = "forall next. exists order. (f(next) < order & !(order = f(next + 1)))"
    assert evaluate(parse(text), bound=4) == evaluate(parse(
        "forall a. exists b. (f(a) < b & !(b = f(a + 1)))"), bound=4)


def test_huge_constants_are_never_printed():
    # evaluate() runs outside cli.run, under the default int-str digit limit
    assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
    big = 3 * 10 ** 4999 + 1  # 5,000 digits
    x, y = Var("x"), Var("y")
    near = Exists("x", And(Cmp(Const(big), "<", Add(x, Const(3))), Div(5, Sub(x, Const(big)))))
    assert evaluate(near, bound=10).truth is False  # scanned without printing big
    assert evaluate(Cmp(Scale(2, y), "<", Add(y, Const(big))), {"y": big - 1}).truth is True
    assert evaluate(Exists("x", Cmp(Add(x, y), "=", Const(big))), {"y": big}).witness == 0


def test_ground_f_is_folded_to_f_floor(monkeypatch):
    sources = _generated_sources(monkeypatch)
    x = Var("x")
    for value in (-5, 0, 1, 7, 10**6, 3 ** 2000):
        target = Add(F(Const(value)), F(Scale(3, F(Const(value)))))
        want = f_floor(value) + f_floor(3 * f_floor(value))
        assert evaluate(Cmp(target, "=", Const(want))).truth is True
        assert evaluate(Cmp(x, "=", target), {"x": want}).truth is True
        # under a quantifier the ground term is one constant
        assert evaluate(Exists("x", Cmp(Sub(x, target), "=", Const(-want)))).witness == 0
    assert sources and not any("f[" in s for s in sources)


@pytest.mark.parametrize("construct", ["(", "!", "f(", "exists", "2 *", "->", "&", "|", "+", "-"])
def test_a_scan_over_a_body_at_the_nesting_cap_compiles_and_evaluates(monkeypatch, construct):
    # a scan loop puts its body two parentheses deeper: next((... if body), None)
    sources = _generated_sources(monkeypatch)
    body = parse(_nested(construct, MAX_NESTING))
    for quantifier in (Exists, Forall):
        formula = quantifier("x", body)
        assert evaluate(formula, bound=3) == _walk(formula, {}, 3)
    assert any(s.startswith("next(") for s in sources)


# --- the f table and the scan loop -----------------------------------------

_HUGE = 3 ** 2000
_TERMS = st.recursive(
    st.one_of(st.sampled_from([Var("x"), Var("y")]),
              st.builds(Const, st.integers(-6, 6) | st.sampled_from([_HUGE, -_HUGE]))),
    lambda inner: st.builds(F, inner) | st.builds(Add, inner, inner)
    | st.builds(Sub, inner, inner) | st.builds(Scale, st.integers(-3, 3), inner),
    max_leaves=5)
_MATRICES = st.recursive(
    st.builds(Cmp, _TERMS, st.sampled_from(["<", "="]), _TERMS)
    | st.builds(Div, st.integers(1, 5), _TERMS),
    lambda inner: st.builds(Not, inner) | st.builds(And, inner, inner)
    | st.builds(Or, inner, inner) | st.builds(Implies, inner, inner),
    max_leaves=4)


def _recorded_compilers(patch) -> list:
    """The _Compiler of each evaluate() call made after this one."""
    compilers = []

    class Recorded(logic._Compiler):
        def __init__(self, bound):
            super().__init__(bound)
            compilers.append(self)

    patch.setattr(logic, "_Compiler", Recorded)
    return compilers


def _walk_budgeted(formula, env, bound, budget, scanned=frozenset(), memo=None):
    """_walk of a prenex formula under an evaluation budget of budget[0]
    points, scanned as evaluate() scans: a quantifier that folds (see
    _compiled) costs nothing; a scan over reach = min(bound, (budget - 1)
    // 2) is charged 2 * reach + 1 points and gives back the points past a
    decisive one; it ends at the first decisive or unknown point, and is
    unknown if cut short without one; one whose free variables no scan
    binds is scanned once inside a scan.  The quantifier-free matrix is
    _walk's."""
    memo = {} if memo is None else memo
    if not isinstance(formula, (Exists, Forall)):
        return _walk(formula, env, bound, scanned)
    folded = _compiled(formula, env, scanned)
    if isinstance(folded, bool):
        return Decision(folded)
    once = scanned and not free_vars(formula) & scanned
    if once and id(formula) in memo:
        return memo[id(formula)]
    existential = isinstance(formula, Exists)
    reach = min(bound, (budget[0] - 1) // 2)
    result = Decision(None, BOUNDED, reason="evaluation budget spent")
    if reach >= 0:
        budget[0] -= 2 * reach + 1
        if reach == bound:
            result = Decision(not existential, BOUNDED, bound=bound)
        for k, v in enumerate([0] + [s * j for j in range(1, reach + 1) for s in (1, -1)]):
            d = _walk_budgeted(formula.body, {**env, formula.var: v}, bound, budget,
                               scanned | {formula.var}, memo)
            if d.truth is None:
                result = d
                break
            if d.truth is existential:
                budget[0] += 2 * reach - k
                result = Decision(existential, d.provenance, d.bound, v)
                break
    if once:
        memo[id(formula)] = result
    return result


@settings(max_examples=300, deadline=None)
@given(matrix=_MATRICES, quantifiers=st.lists(st.sampled_from([Exists, Forall]), min_size=1,
                                              max_size=2),
       names=st.sampled_from(["xy", "yx", "xx"]), x=st.integers(-4, 4), y=st.integers(-4, 4),
       bound=st.integers(0, 6), budget=st.sampled_from([0, 1, 3, 7, 12, 30, 60, logic.EVAL_BUDGET]))
def test_scan_loops_and_the_f_table_match_the_reference_walker(matrix, quantifiers, names, x, y,
                                                               bound, budget):
    formula = matrix
    for quantifier, name in zip(quantifiers, names):
        formula = quantifier(name, formula)
    with pytest.MonkeyPatch.context() as patch:
        compilers = _recorded_compilers(patch)
        patch.setattr(logic, "EVAL_BUDGET", budget)
        got = evaluate(formula, {"x": x, "y": y}, bound)
    want = _walk_budgeted(formula, {"x": x, "y": y}, bound, [budget])
    assert got == want, format_formula(formula)
    if budget == logic.EVAL_BUDGET:
        assert got == _walk(formula, {"x": x, "y": y}, bound)
    table = compilers[0].names["f"]
    assert all(value == f_floor(arg) for arg, value in table.items())


def test_the_f_table_computes_each_argument_once(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return f_floor(x)

    monkeypatch.setattr(logic, "f_floor", counted)
    # f(x) twice per point and 21 points: the wrapper sees each argument once
    d = evaluate(parse("forall x. f(x) < f(x) + 1"), bound=10)
    assert d == Decision(True, BOUNDED, bound=10)
    assert sorted(calls) == list(range(-10, 11))


def test_the_f_table_stops_growing_at_its_cap(monkeypatch):
    compilers = _recorded_compilers(monkeypatch)
    # f(2x) = 1 nowhere: 2 * cap + 1 points, each with its own argument
    bound = logic.F_TABLE_CAP
    d = evaluate(parse("exists x. f(2 * x) = 1"), bound=bound)
    assert d == Decision(False, BOUNDED, bound=bound)
    table = compilers[0].names["f"]
    assert len(table) == logic.F_TABLE_CAP
    assert all(value == f_floor(arg) for arg, value in table.items())


# --- normal form ----------------------------------------------------------

def test_to_normal_form_examples():
    q = to_normal_form(parse("exists x. (p2(x) & 0 < x & x < 20 & p3(f(x) - 1))"))
    assert q is not None
    assert [(cg.modulus, cg.residue) for cg in q.on_x] == [(2, 0)]
    assert [(cg.modulus, cg.residue) for cg in q.on_fx] == [(3, 1)]
    assert (q.lower, q.upper) == (0, 20)

    q = to_normal_form(parse("exists x. f(x) = x + 1"))
    assert q is not None and len(q.linear) == 1
    constraint = q.linear[0]
    assert (constraint.relation, constraint.slope, constraint.offset) == ("=", 1, 1)

    assert to_normal_form(parse("exists x. f(x + x) = 3")) is None
    assert to_normal_form(parse("exists x. f(f(x)) = 3")) is None
    assert to_normal_form(parse("exists x. (x = 1 | x = 2)")) is None
    assert to_normal_form(parse("exists x. f(x) != 3")) is None  # != is outside the normal form
    assert to_normal_form(parse("forall x. x < 1")) is None  # not existential
    assert to_normal_form(parse("exists x. x < y")) is None  # y is free


def test_to_normal_form_handles_scaled_and_negated_shapes():
    q = to_normal_form(parse("exists x. (x >= 3 & 2 * f(x) = 3 * x + 1)"))
    assert q is not None and q.lower == 2
    assert q.linear[0].slope == Fraction(3, 2)
    assert q.linear[0].offset == Fraction(1, 2)
    q = to_normal_form(parse("exists x. p4(2 * x - 6)"))
    assert q is not None and [(cg.modulus, cg.residue) for cg in q.on_x] == [(2, 1)]
    q = to_normal_form(parse("exists x. p2(2 * x + 1)"))
    assert q is not None
    assert decide_existential_nf(q).truth is False
    # !p2(x) is the one disjunct p2(x + 1), i.e. x = 1 (mod 2)
    q = to_normal_form(parse("exists x. (!p2(x) & 0 < x)"))
    assert q is not None and q.lower == 0
    assert [(cg.modulus, cg.residue) for cg in q.on_x] == [(2, 1)]
    assert to_normal_form(parse("exists x. !p3(x)")) is None  # two disjuncts
    # congruences with clashing residues stay a query, and it is false
    q = to_normal_form(parse("exists x. (p2(x) & p2(x + 1))"))
    assert q is not None and decide_existential_nf(q).truth is False


@given(a=st.integers(-60, 60), b=st.integers(-60, 60).filter(bool), c=st.integers(-60, 60),
       rel=st.sampled_from("<="))
def test_the_decide_path_clears_a_linear_constraint_as_its_rational_reading_does(a, b, c, rel):
    # a*x + b*f(x) + c <rel> 0 is cleared with integers only; its integer form
    # sets the window's zone and, per class, its piece count, so it must be
    # the one of f(x) <rel'> (-a/b)*x + (-c/b)
    x = Var("x")
    term = Add(Add(Scale(a, x), Scale(b, F(x))), Const(c))
    q = to_normal_form(Exists("x", Cmp(term, rel, Const(0))))
    expected = LinearConstraint(rel if b > 0 else {"<": ">", "=": "="}[rel],
                                Fraction(-a, b), Fraction(-c, b))
    assert q.linear == (expected,)
    assert q.linear[0].integer_form() == expected.integer_form()
    assert (q.linear[0].slope, q.linear[0].offset) == (expected.slope, expected.offset)


def _unread_window(lc, start=1):
    """A stream of lc's window pieces from start on that fails the test once
    a piece is read."""
    return (pytest.fail(f"read {lc}") for _ in [lc])


def test_an_unsatisfiable_conjunct_leaves_an_order_window_with_no_integer(monkeypatch):
    # an unsolvable divisibility or order atom empties lower < x < upper,
    # and what the other conjuncts add keeps it empty; the decision reads no
    # linear constraint's window then (the near-phi slope's takes seconds)
    monkeypatch.setattr(logic, "window_pieces", _unread_window)
    for text, on_x, on_fx in [("exists x. p2(2 * x + 1)", (), ()),
                              ("exists x. (p3(x) & 9 < x & x < 5)", ((3, 0),), ()),
                              ("exists x. (p2(2 * x + 1) & 3 < x & p3(f(x)))", (), ((3, 0),)),
                              ("exists x. (x < 0 & 0 < x & 1000003 * f(x) > 1618038 * x)", (), ())]:
        q = to_normal_form(parse(text))
        assert q.on_x == tuple(Congruence(*c) for c in on_x), text
        assert q.on_fx == tuple(Congruence(*c) for c in on_fx), text
        assert q.upper - q.lower < 2, text
        assert WindowSet.from_pieces([_make_piece(q.lower + 1, q.upper - 1)]).is_empty, text
        assert decide_existential_nf(q) == Decision(False)


def test_no_linear_constraint_window_is_read_where_no_positive_x_is_left(monkeypatch):
    # the witness -1 settles x <= 0, and x < 1 leaves no x >= 1 for this
    # near-phi slope's window, which takes seconds to build
    monkeypatch.setattr(logic, "window_pieces", _unread_window)
    sentence = parse("exists x. (x < 1 & 1000003 * f(x) > 1618038 * x)")
    assert decide(sentence) == Decision(True, certificate=-1)


def test_decide_existential_nf_examples():
    q = to_normal_form(parse("exists x. (p2(x) & 0 < x & x < 20 & p3(f(x) - 1))"))
    d = decide_existential_nf(q)
    assert d.truth is True and d.witness == 10

    q = to_normal_form(parse("exists x. (0 < x & f(x) = x + 1 & p2(x))"))
    d = decide_existential_nf(q)
    assert d.truth is True and d.witness == 2

    contradictory = NormalFormQuery("x", (Congruence(2, 0), Congruence(2, 1)), (), None, None, ())
    assert decide_existential_nf(contradictory).truth is False


def test_nf_negative_witnesses():
    # over the integers f vanishes below 1, so offsets can be met there
    d = decide_existential_nf(to_normal_form(parse("exists x. f(x) = x + 1")))
    assert d.truth is True and d.witness == -1
    d = decide(parse("exists x. (x < 0 & p5(f(x)))"))
    assert d.truth is True and d.witness < 0


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 6),
    st.none() | st.tuples(st.integers(1, 8), st.integers(0, 7)),
    st.none() | st.integers(-60, 10),
    st.none() | st.integers(-40, 20),
    st.lists(st.tuples(st.sampled_from("<=>"),
                       st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
                       st.builds(Fraction, st.integers(-20, 20), st.integers(1, 3))),
             min_size=1, max_size=2),
)
def test_witness_is_the_first_in_the_scan_order(fn, on_x, lower, upper, linear):
    # f vanishes on x <= 0, so with an f-residue of 0 every constraint there
    # is a comparison on x alone; with nonzero slopes of at least 1/3 in size
    # and offsets of at most 20 the witness nearest 0, if any, lies above
    # -100.  A positive witness comes before it in the order 0, 1, -1, ...
    # when it is at most its |x|.
    if lower is not None and upper is not None and lower >= upper:
        lower, upper = upper - 1, lower + 1
    query = NormalFormQuery(
        "x", () if on_x is None else (Congruence(*on_x),), (Congruence(fn, 0),),
        lower, upper, tuple(LinearConstraint(*lc) for lc in linear))
    order = [0] + [x for k in range(1, 101) for x in (k, -k)]
    brute = [x for x in order
             if (on_x is None or x % on_x[0] == on_x[1] % on_x[0]) and f_floor(x) % fn == 0
             and (lower is None or lower < x) and (upper is None or x < upper)
             and all(lc.holds(x) for lc in query.linear)]
    d = decide_existential_nf(query)
    if brute:
        assert d.truth is True and d.witness == brute[0]
    else:
        assert not (d.truth and abs(d.witness) <= 100)


def test_near_phi_counterexample_is_the_least_over_every_piece():
    # the per-class pieces of 47/29 overlap in range; 6 is the least, not 30
    d = decide(parse("forall x. 0 < x & p3(x + 0) -> 29*f(x) < 47*x - 24"))
    assert d.truth is False and d.counterexample == 6


_SCAN = [0] + [x for k in range(1, 401) for x in (k, -k)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(2, 13), st.sampled_from("<=>"), st.integers(-30, 30)),
             min_size=1, max_size=2),
    st.none() | st.tuples(st.integers(1, 6), st.integers(0, 5)),
    st.none() | st.tuples(st.integers(1, 6), st.integers(0, 5)),
    st.none() | st.integers(-60, 60),
    st.none() | st.integers(-40, 200),
)
def test_decide_near_phi_witness_is_the_first_in_the_scan_order(linear, on_x, on_fx,
                                                                 lower, upper):
    # slopes round(n*phi)/n: their zones outgrow n classes, so windows are
    # built per class and their pieces overlap in range
    comparisons = [(n, round(n * (1 + 5 ** 0.5) / 2), rel, c) for n, rel, c in linear]
    atoms = [f"{n}*f(x) {rel} {m}*x + {c}" for n, m, rel, c in comparisons]
    if on_x is not None:
        atoms.append(f"p{on_x[0]}(x + {on_x[1]})")
    if on_fx is not None:
        atoms.append(f"p{on_fx[0]}(f(x) + {on_fx[1]})")
    if lower is not None:
        atoms.append(f"{lower} < x")
    if upper is not None:
        atoms.append(f"x < {upper}")

    def holds(x):
        fx = f_floor(x)
        return (all({"<": n * fx < m * x + c, "=": n * fx == m * x + c,
                     ">": n * fx > m * x + c}[rel] for n, m, rel, c in comparisons)
                and (on_x is None or (x + on_x[1]) % on_x[0] == 0)
                and (on_fx is None or (fx + on_fx[1]) % on_fx[0] == 0)
                and (lower is None or lower < x) and (upper is None or x < upper))

    first = next((x for x in _SCAN if holds(x)), None)
    d = decide(parse("exists x. (" + " & ".join(atoms) + ")"))
    assert d.provenance == EXACT
    if first is not None:
        assert d.truth is True and d.witness == first
    else:
        assert not (d.truth and abs(d.witness) <= 400)


_PHI = (1 + 5 ** 0.5) / 2
_F = [f_floor(x) for x in range(3001)]
_ORDER = [0] + [x for k in range(1, 3001) for x in (k, -k)]
_congruences = st.lists(st.builds(Congruence, st.integers(1, 12), st.integers(0, 11)), max_size=2)


@settings(max_examples=300, deadline=None)
@given(
    st.lists((st.integers(1, 60) | st.sampled_from([5, 8, 13, 21, 34, 55])).flatmap(
        lambda n: st.tuples(
            st.sampled_from("<=>"), st.just(n),
            st.just(round(n * _PHI)) | st.integers(-3, 3).map(lambda d: round(n * _PHI) + d)
            | st.integers(-2 * n, 3 * n),
            st.integers(-n, 2 * n))), max_size=2),
    _congruences, _congruences, st.none() | st.integers(-3000, 3000),
    st.none() | st.integers(-3000, 3000),
)
@example(linear=[], on_x=[], on_fx=[], lower=None, upper=0)  # -1, and no x >= 1
@example(linear=[], on_x=[Congruence(5, 2)], on_fx=[], lower=None, upper=1)  # -3
@example(linear=[("<", 1, 2, 1)], on_x=[], on_fx=[], lower=-5, upper=9)  # 0, not 1
@example(linear=[], on_x=[Congruence(4, 2)], on_fx=[], lower=None, upper=None)  # 2, not -2
@example(linear=[(">", 5, 8, 0)], on_x=[Congruence(7, 3)], on_fx=[], lower=None,
         upper=-5)  # -11
def test_nf_least_witness_matches_a_scan_of_its_window(linear, on_x, on_fx, lower, upper):
    # a scan in the order 0, 1, -1, ... of |x| <= 3000 finds the decider's
    # witness when one is there, and no witness is nearer 0 otherwise; near
    # phi (m = round(n*phi), Fibonacci n) windows are built per class, and
    # their pieces overlap in range
    if lower is not None and upper is not None:
        lower, upper = min(lower, upper), max(lower, upper)
    query = NormalFormQuery("x", tuple(on_x), tuple(on_fx), lower, upper, tuple(
        LinearConstraint(rel, Fraction(m, n), Fraction(c, n)) for rel, n, m, c in linear))

    def holds(x):
        fx = 0 if x <= 0 else _F[x] if x <= 3000 else f_floor(x)
        return ((lower is None or lower < x) and (upper is None or x < upper)
                and all(x % cg.modulus == cg.residue for cg in on_x)
                and all(fx % cg.modulus == cg.residue for cg in on_fx)
                and all({"<": n * fx < m * x + c, "=": n * fx == m * x + c,
                         ">": n * fx > m * x + c}[rel] for rel, n, m, c in linear))

    first = next((x for x in _ORDER if holds(x)), None)
    d = decide_existential_nf(query)
    if first is not None:
        assert d == Decision(True, certificate=first)
    else:
        assert d == Decision(False) or abs(d.witness) > 3000 and holds(d.witness), d


def _counted_f_floor(monkeypatch, modules=(windows, logic, congruence)):
    """The arguments of every f_floor call that modules make from now on."""
    calls = []

    def counted(x):
        calls.append(x)
        return f_floor(x)

    for module in modules:
        monkeypatch.setattr(module, "f_floor", counted)
    return calls


def test_nf_decider_stops_at_its_least_witness(monkeypatch):
    # the zone of 1.61802 holds about 71,500 points, but the least witness
    # is 610, and the decider reads no window piece after the first that
    # starts past it
    calls = _counted_f_floor(monkeypatch, [windows])
    d = decide(parse("exists x. (100000*f(x) > 161802*x & x > 0 & p7(f(x)))"))
    assert d == Decision(True, certificate=610)
    assert len(calls) < 2000, len(calls)


def test_nf_decider_scans_no_zone_below_its_order_window(monkeypatch):
    # the zone of 1.618033 ends near x = 1,011,000, below the order window
    # x > 2000000, so no zone point is compared and no probe falls below it
    calls = _counted_f_floor(monkeypatch)
    d = decide(parse("exists x. (1000000*f(x) < 1618033*x & x > 2000000 & p7(f(x)))"))
    assert d == Decision(False)
    assert len(calls) <= 100, len(calls)
    assert all(x > 2000000 for x in calls), min(calls)


def test_nf_decider_reads_a_class_stream_no_further_than_its_least_witness(monkeypatch):
    # the second constraint's zone is built per class (1,005 of them); the
    # sweep that meets them with the first's runs stops at the witness 34
    calls = _counted_f_floor(monkeypatch)
    d = decide(parse("exists x. (1001*f(x) > 1619*x & 1005*f(x) < 1626*x & x > 0)"))
    assert d == Decision(True, certificate=34)
    assert len(calls) <= 500, len(calls)


def _counted_meetings(monkeypatch, cap):
    """The pairs of pieces windows._intersect_pieces meets from now on; past cap it raises."""
    met = []

    def counted(a, b):
        met.append((a, b))
        if len(met) > cap:
            raise AssertionError(f"more than {cap} pairs of pieces met")
        return intersect_pieces(a, b)

    intersect_pieces = windows._intersect_pieces
    monkeypatch.setattr(windows, "_intersect_pieces", counted)
    return met


@pytest.mark.parametrize("sentence, cap", [
    # 500 classes against 5,003 classes: each arrival meets only the classes
    # its points reach below the other stream's furthest end (145,199 pairs
    # when every open piece was met)
    ("exists x. (10000*f(x) < 16180*x & 10006*f(x) > 16190*x & x > 0)", 2000),
    # two windows of the same 610 classes near a convergent: a class meets
    # only its own (184,528 pairs when every open piece was met)
    ("exists x. (x > 0 & 610*f(x) > 987*x + 3 & 610*f(x) < 987*x + 2)", 610),
    # 59,184 runs against 100,001 classes: a run meets the classes of its points
    ("exists x. (100000*f(x) < 161803*x & 100001*f(x) > 161805*x & x > 0)", 5000),
])
def test_nf_decider_meets_class_streams_by_residue(monkeypatch, sentence, cap):
    _counted_meetings(monkeypatch, cap)
    assert decide(parse(sentence)) == Decision(False)


# --- decide ----------------------------------------------------------------

def test_decide_examples():
    d = decide(parse("exists x. (0 < x & f(x) = x + 1)"))
    assert d.truth is True and d.provenance == EXACT and d.witness == 2
    d = decide(parse("f(5) < 8"))
    assert d.truth is False and d.provenance == EXACT
    d = decide(parse("forall x. forall y. (f(x + y) < f(x) + f(y) + 2)"), bound=200)
    assert d == Decision(True)
    d = decide(parse("forall x. forall y. (x < 1 | y < 1 | f(x) != f(y) + y)"), bound=200)
    assert d == Decision(True)  # Rayleigh's theorem: x is pinned to f(y) + 1


def test_decide_requires_sentence():
    with pytest.raises(ValueError):
        decide(parse("x < 1"))


def test_decide_forall_via_negation_is_exact():
    d = decide(parse("forall x. (x < 1 | f(x) < 2 * x)"))
    assert d.truth is True and d.provenance == EXACT
    d = decide(parse("forall x. (x < 2 | x < f(x))"))
    assert d.truth is True and d.provenance == EXACT
    d = decide(parse("forall x. !(f(x) = 4)"))
    assert d.truth is False and d.provenance == EXACT and f_floor(d.counterexample) == 4


def test_decide_boolean_combinations_stay_exact():
    d = decide(parse("(exists x. (0 < x & f(x) = x + 1)) & !(f(5) < 8)"))
    assert d.truth is True and d.provenance == EXACT
    d = decide(parse("(exists x. (0 < x & f(x) = 2 * x & x < 100)) | f(5) < 9"))
    assert d.truth is True and d.provenance == EXACT


def test_decide_negative_slope_constraint():
    d = decide(parse("exists x. (0 < x & f(x) < 50 - 2 * x)"))
    assert d.truth is True and d.provenance == EXACT
    assert 0 < d.witness and f_floor(d.witness) < 50 - 2 * d.witness
    d = decide(parse("forall x. (x < 15 | 20 - 3 * x < f(x))"))
    assert d.truth is True and d.provenance == EXACT


def test_decide_two_linear_constraints_intersect():
    d = decide(parse("exists x. (0 < x & x + 1 < f(x) & f(x) < 2 * x - 2)"))
    assert d.truth is True and d.witness == 6
    brute = [x for x in range(1, 200) if x + 1 < f_floor(x) < 2 * x - 2]
    assert brute[0] == 6


def test_decide_half_line_query_pumps_past_large_bounds():
    d = decide(parse("exists x. (1000000 < x & p7(x - 3) & p5(f(x) - 2))"))
    assert d.truth is True and d.provenance == EXACT
    w = d.witness
    assert w > 1000000 and w % 7 == 3 and f_floor(w) % 5 == 2


def test_decide_fallback_witness_is_still_exact():
    # f applied to a compound term is outside the normal form, so this goes
    # through the bounded scan; a found witness is sound, hence exact
    d = decide(parse("exists x. (0 < x & x < 50 & f(2 * x) = f(x) + f(x) + 1)"), bound=100)
    assert d.truth is True and d.provenance == EXACT
    assert f_floor(2 * d.witness) == 2 * f_floor(d.witness) + 1


def test_decide_negation_coherence():
    sentences = [
        "exists x. (0 < x & f(x) = x + 1)",
        "f(5) < 8",
        "forall x. (x < 1 | f(x) < 2 * x)",
        "exists x. (0 < x & x < 50 & p7(x) & p3(f(x)))",
    ]
    for text in sentences:
        s = parse(text)
        d1, d2 = decide(s), decide(Not(s))
        assert d1.provenance == EXACT and d2.provenance == EXACT
        assert d1.truth is (not d2.truth)


def test_decide_nf_against_brute_force():
    rng = random.Random(4242)
    for _ in range(50):
        sentence, data = random_nf_sentence(rng, max_width=2000)
        d = decide(sentence)
        assert d.provenance == EXACT and d.truth is not None
        witness = nf_brute_witness(data)
        assert d.truth is (witness is not None)
        if d.truth:
            assert nf_brute_holds(data, d.witness)
            matrix = sentence.body
            assert evaluate(matrix, {"x": d.witness}).truth is True


def _disjunction(rng, negated_equalities):
    """exists x. D1 | ... | Dk for 2-3 normal-form disjuncts with finite
    windows, some with a negated equality, and x -> whether the body holds."""
    parts, checks = [], []
    for _ in range(rng.randint(2, 3)):
        sentence, data = random_nf_sentence(rng, max_modulus=6, max_width=1500)
        body, excluded = sentence.body, None
        if negated_equalities and rng.random() < 0.6:
            # knock out the least witness, or a point chosen at random
            _, _, low, high, _ = data
            point = nf_brute_witness(data) or rng.randint(low, high)
            excluded = (point, None) if rng.random() < 0.5 else (None, f_floor(point))
            atom = (Cmp(Var("x"), "=", Const(point)) if excluded[0] is not None
                    else Cmp(F(Var("x")), "=", Const(excluded[1])))
            body = And(body, Not(atom)) if rng.random() < 0.5 else And(Not(atom), body)
        parts.append(body)
        checks.append((data, excluded))

    def holds(x):
        return any(nf_brute_holds(data, x) and (excluded is None or (
            x != excluded[0] if excluded[0] is not None else f_floor(x) != excluded[1]))
            for data, excluded in checks)

    body = parts[0]
    for part in parts[1:]:
        body = Or(body, part)
    lows = [data[2] for data, _ in checks]
    highs = [data[3] for data, _ in checks]
    return body, holds, range(min(lows) + 1, max(highs))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.booleans())
def test_decide_disjunctions_against_brute_force(seed, existential, negated_equalities):
    body, holds, window = _disjunction(random.Random(seed), negated_equalities)
    truth = any(holds(x) for x in window)  # every disjunct has a finite window
    sentence = Exists("x", body) if existential else Forall("x", Not(body))
    d = decide(sentence)
    assert d.provenance == EXACT and d.truth is (truth if existential else not truth)
    certificate = d.witness if existential else d.counterexample
    assert (certificate is not None) is truth
    if truth:
        assert holds(certificate)
        assert evaluate(sentence.body, {"x": certificate}).truth is existential


def test_decide_disjunctions_examples():
    d = decide(parse("exists x. (f(x) = 3*x & 0 < x | f(x) = 4*x + 1 & 0 < x)"))
    assert d == Decision(False)
    # the certificate of least absolute value over the disjuncts
    d = decide(parse("exists x. (x = 5 | x = -3 | f(x) = 100)"))
    assert d == Decision(True, certificate=-3)
    d = decide(parse("forall x. (x < 1 | f(x) = x + 1 | f(x) = x + 2)"))
    assert d == Decision(False, certificate=1)
    # != splits into < and >, under exists and (as = in the negation) forall
    d = decide(parse("exists x. (0 < x & f(x) != x + 1 & x < 3)"))
    assert d == Decision(True, certificate=1)
    d = decide(parse("forall x. (x < 1 | x > 2 | f(x) = 1 | f(x) = 3)"))
    assert d == Decision(True)


def _product_of_disjunctions(factors):
    """exists x with 2**factors disjuncts in normal form, false over Z."""
    pair = "(f(x) = 2 * x | f(x) = 3 * x)"
    return "exists x. (0 < x & " + " & ".join([pair] * factors) + ")"


def _chain_of_disjunctions(count):
    """exists x with count disjuncts in one | chain, false over Z."""
    return "exists x. " + " | ".join(f"0 < x & f(x) = 2 * x + {k}" for k in range(count))


@pytest.mark.parametrize("sentence,at_cap", [
    (_product_of_disjunctions, 6),  # 64 and 128 disjuncts
    (_chain_of_disjunctions, MAX_DISJUNCTS),
], ids=["product", "chain"])
def test_disjunct_cap_sends_larger_bodies_to_bounded_evaluation(sentence, at_cap):
    assert MAX_DISJUNCTS == 64
    assert decide(parse(sentence(at_cap)), bound=30) == Decision(False)
    assert decide(parse(sentence(at_cap + 1)), bound=30) == Decision(False, BOUNDED, bound=30)


def test_negated_divisibility_residues_count_against_the_disjunct_cap():
    # the negation of pN(x) | !pN(x) has one disjunct per residue 1..N-1
    assert decide(parse("forall x. p65(x) | !p65(x)")) == Decision(True)
    assert decide(parse("forall x. p66(x) | !p66(x)")) == Decision(True, BOUNDED, bound=10000)


def test_a_conjunction_keeps_one_residue_per_divisibility():
    # the negation's 4^5 products of pN(x + k) each ask x for two residues mod 5
    body = nnf(parse("p5(x) | p5(x+1) | p5(x+2) | p5(x+3) | p5(x+4)"), negated=True)
    assert logic._dnf(body) is None
    assert logic._dnf(body, "x") == []
    merged = logic._dnf(parse("p3(x + 1) & p3(4 + x) & p3(f(x)) & p3(2 * x)"), "x")
    assert merged == [[parse("p3(x + 1)"), parse("p3(f(x))"), parse("p3(2 * x)")]]
    assert decide(parse("exists x. p3(x + 1) & p3(x + 2)")) == Decision(False)


def test_one_disjunct_outside_the_fragment_sends_the_body_to_bounded_evaluation():
    d = decide(parse("exists x. (0 < x & f(x) = 2 * x | f(x + 1) = 5)"), bound=30)
    assert d == Decision(False, BOUNDED, bound=30)


# --- miniscoping and the single-slab rewrite --------------------------------

def _slab_term(rng, depth):
    """a*x + b*f(x) + c, plus d*f(t) for such a term t nested up to depth,
    under an f or not: f of a term that is not x alone is outside the
    normal form until decide rewrites it."""
    x = Var("x")
    a, b, c = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-4, 4)
    term = Add(Add(Scale(a, x), Scale(b, F(x))), Const(c))
    if depth and rng.random() < 0.6:
        term = Add(term, Scale(rng.choice([-2, -1, 1, 2]), F(_slab_term(rng, depth - 1))))
    return F(term) if rng.random() < 0.7 else term


def _slab_atom(rng):
    """A comparison of a nested term with a flat one, and whether the nested
    one is outside the normal form."""
    left = _slab_term(rng, 3)
    atom = Cmp(left, rng.choice(["<", "="]), _slab_term(rng, 0))
    return Not(atom) if rng.random() < 0.3 else atom, logic._linearize(left, "x") is None


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(-40, 40) | st.integers(10**6, 10**12))
def test_single_slab_rewrite_agrees_with_f_floor_at_each_point(rng, x):
    # x alone leaves the order window (x - 1, x + 1), which for x <= 0 meets
    # the case x <= 0 < t that the rewrite must decline unless f(t) = 0 there,
    # and for x >= 1 lets it take a < 0 or c > 0 too.  The same rule folds
    # f(t) where the pin f(y) = t, t = a*x + b*f(x) + c, eliminates y; p1(y)
    # keeps x's order atoms in the pin's disjuncts, and exists y. f(y) = v
    # holds where v = 0 or v >= 1 is a value of f
    atom, _ = _slab_atom(rng)
    d = decide(Exists("x", And(Cmp(Var("x"), "=", Const(x)), atom)))
    holds = evaluate(atom, {"x": x}).truth
    if d.provenance == EXACT:
        assert d.truth is holds and d.witness == (x if holds else None)
    a, b, c = rng.randint(-3, 3), rng.randint(-3, 3), rng.choice([rng.randint(-4, 4), 1, 2])
    t = f"{a} * x + {b} * f(x) + {c}"
    d = decide(parse(f"exists x. (x = {x} & exists y. (f(y) = {t} & "
                     f"(0 < x & p1(y) | x < 1 & p1(y))))"), bound=0)
    v = a * x + b * f_floor(x) + c
    holds = v == 0 or v >= 1 and f_inverse(v) is not None
    if d.provenance == EXACT:
        assert d.truth is holds and d.witness == (x if holds else None), t


def test_single_slab_rewrite_decides_windows_as_the_scan_does():
    rng = random.Random(1618)
    rewritten = 0
    for _ in range(500):
        atom, compound = _slab_atom(rng)
        lo = rng.randint(-30, 30)
        hi = lo + rng.randint(2, 40)
        window = And(Cmp(Const(lo), "<", Var("x")), Cmp(Var("x"), "<", Const(hi)))
        for existential in (True, False):
            body = And(window, atom) if existential else Or(Not(window), atom)
            d = decide((Exists if existential else Forall)("x", body), bound=100)
            points = [x for x in range(lo + 1, hi)
                      if evaluate(atom, {"x": x}).truth is existential]
            assert d.truth is (bool(points) is existential), format_formula(body)
            assert (d.witness if existential else d.counterexample) in points + [None]
            rewritten += compound and d.provenance == EXACT
    assert rewritten > 400


def test_folds_takes_a_slab_with_c_above_0_once_the_order_window_gives_x_at_least_1():
    # f(f(x) + 1) = x + f(x) + 1 for x >= 1, but at x = 0 <= 0 < f(x) + 1 it
    # is f(1) = 1: the slab needs x >= 1 from the disjunct's order atoms
    t = parse_term("f(x) + 1")
    folded = ([parse("0 < x")], parse_term("x + f(x) + 1"))
    assert logic._folds(t, [parse("0 < x")]) == folded
    assert logic._folds(t, [parse("3 < x"), parse("p2(x)"), parse("f(x) < 9")]) == folded
    assert logic._folds(t, [parse("x < 0"), parse("4 < x")]) == folded  # no integer
    for conjuncts in ([], [parse("-1 < x")], [parse("f(x) > 1")]):
        assert logic._folds(t, conjuncts) == ([], F(t))
    assert all(f_floor(f_floor(x) + 1) == x + f_floor(x) + 1 for x in range(1, 2000))


@pytest.mark.parametrize("text,decision", [
    ("forall x. (f(f(x)) = f(x) + x - 1 | x < 1)", Decision(True)),
    ("forall x. (f(x + f(x)) = x + 2*f(x) | x < 1)", Decision(True)),
    ("forall x. (f(f(f(x))) = x + 2*f(x) - 2 | x < 1)", Decision(True)),
    ("forall x. f(f(x)) = f(x) + x - 1", Decision(False, certificate=0)),
    ("exists x. (0 < x & f(f(x) + 1) = 5)", Decision(False)),
    ("exists x. (p3(f(f(x)) - f(x) - x + 1) & f(x) = 4)", Decision(True, certificate=3)),
    ("exists x. x = f(3) + f(-2)", Decision(True, certificate=4)),
    ("forall x. x < x + 1", Decision(True)),
    ("exists x. x + 1 < x", Decision(False)),
    ("exists x. (p3(x - x + 1) & f(x) = 4)", Decision(False)),
])
def test_single_slab_rewrite_and_cancelled_terms_are_exact(text, decision):
    assert decide(parse(text)) == decision


@pytest.mark.parametrize("text,decision", [
    # f(x + 1) - f(x) is 1 or 2
    ("exists x. (f(x+1) = f(x) + 2 & x > 100000 & p7(x))", Decision(False, BOUNDED, bound=30)),
    # x <= 0 < f(x) + 1 is not empty, here or at x = 0 alone
    ("exists x. f(f(x) + 1) = 5", Decision(False, BOUNDED, bound=30)),
    ("exists x. (-1 < x & x < 1 & f(f(x) + 1) = 1)", Decision(True, certificate=0)),
])
def test_single_slab_rewrite_declines_to_bounded_evaluation(text, decision):
    assert decide(parse(text), bound=30) == decision


def _read(sentence):
    """(pair, DNF) of the NNF sentence's block, (None, None) where it has no
    pair: taken from _decide_exactly itself, as it hands them to
    _decide_block, with no elimination tried."""
    read = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(logic, "_eliminations", lambda *args: iter(()))
        patch.setattr(logic, "_decide_block", lambda s, *args: read.append(args))
        logic._decide_exactly(sentence, logic._quantifiers(sentence.body),
                              iter(range(MAX_DISJUNCTS)))
    return read[0] if read else (None, None)


def _one_deep(formula) -> bool:
    """Whether the NNF formula has quantifiers, none holding another."""
    quantifiers = logic._quantifiers(formula)
    return bool(quantifiers) and not any(logic._quantifiers(q.body) for q in quantifiers)


def _block(sentence):
    """_decide_block of the NNF sentence, with its block read by _read."""
    pair, todo = _read(sentence)
    return pair and logic._decide_block(sentence, pair, todo)


@pytest.mark.parametrize("terms,provenance", [(6, EXACT), (7, BOUNDED)])
def test_single_slab_cases_respect_the_disjunct_cap(terms, provenance):
    # each f(x + f(x) + k) here takes one slab and splits every disjunct in
    # two, and p2(x) keeps the cell step from reading any of them, so past
    # six of them the exact route declines, to bounded evaluation,
    # which finds the witness
    shifts = [0, 1, 2, 4, 5, -1, 7][:terms]
    text = "exists x. (0 < x & p2(x) & " + " & ".join(
        f"f(x + f(x) + {k}) >= 0" for k in shifts) + ")"
    assert 2 ** 6 == MAX_DISJUNCTS
    exact = _block(nnf(parse(text)))
    assert (EXACT if exact else BOUNDED) == provenance
    assert decide(parse(text), bound=30) == Decision(True, certificate=2)
    # with f(...) < 0 in place of f(...) >= 0 and no p2(x), the cell step
    # drops the disjunct before any slab splits it, at either size
    text = "exists x. (0 < x & " + " & ".join(f"f(x + f(x) + {k}) < 0" for k in shifts) + ")"
    assert _block(nnf(parse(text))) == Decision(False)


@pytest.mark.parametrize("text,scoped", [
    ("forall x. forall y. (x < 5 | y < 1 | f(y) = 1)",
     "forall x. (x < 5 | forall y. (y < 1 | f(y) = 1))"),
    ("exists x. exists y. (x > 3 & y > 3 & f(x + y) = 7)",
     "exists x. (x > 3 & exists y. (y > 3 & f(x + y) = 7))"),
    ("exists x. forall y. forall z. (f(x) = 1 | z < y)",
     "exists x. (f(x) = 1 | forall y. forall z. z < y)"),
    ("exists x. (exists y. f(y) = 5 & x = 2)", "exists x. (x = 2 & exists y. f(y) = 5)"),
    ("exists x. forall y. 0 < 1 & (forall z. exists u. u < z)",
     "exists x. 0 < 1 & (forall z. exists u. u < z)"),
    ("forall x. forall y. (f(x + y) < f(x) + f(y) + 2)",
     "forall x. forall y. (f(x + y) < f(x) + f(y) + 2)"),
])
def test_miniscope_narrows_inner_scopes_and_keeps_the_outermost(text, scoped):
    assert logic._miniscope(nnf(parse(text))) == nnf(parse(scoped))


def test_miniscope_keeps_a_sentence_without_nested_quantifiers():
    # decide miniscopes every sentence, which leaves one with at most one
    # quantifier on each path as it is
    rng, one_deep = random.Random(1), 0
    for _ in range(3000):
        sentence = nnf(random_formula(rng, depth=rng.randint(0, 4), variables=[]))
        one_deep += _one_deep(sentence)
        if _one_deep(sentence) or not logic._quantifiers(sentence):
            assert logic._miniscope(sentence) == sentence, format_formula(sentence)
    assert one_deep > 500


def _top_parts(formula):
    if isinstance(formula, (And, Or)):
        return _top_parts(formula.left) + _top_parts(formula.right)
    return [formula]


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([0, 1, 2, 3, 5, 8]))
def test_miniscoped_sentences_evaluate_as_the_original(rng, bound):
    # Each top-level part keeps its outermost quantifier, so it has the same
    # truth and certificate; a part that a dropped vacuous quantifier or a
    # moved exact operand no longer scans may turn from bounded to exact.
    sentence = nnf(random_formula(rng, depth=rng.randint(2, 5), variables=[]))
    for part in _top_parts(sentence):
        original, scoped = evaluate(part, {}, bound), evaluate(logic._miniscope(part), {}, bound)
        if original.truth is None or scoped.truth is None:
            continue
        assert (scoped.truth, scoped.witness, scoped.counterexample) == \
            (original.truth, original.witness, original.counterexample), format_formula(part)
        if scoped.provenance == BOUNDED or original.provenance == EXACT:
            assert scoped == original, format_formula(part)


# --- evaluation budget ------------------------------------------------------

def _evaluate_with_budget(monkeypatch, text, budget):
    monkeypatch.setattr(logic, "EVAL_BUDGET", budget)
    return evaluate(parse(text), bound=100)


def test_exhausted_budget_is_unknown_never_bounded(monkeypatch):
    # the outer scans would run to their end on unknown bodies
    for text in ("forall x. forall y. f(x + y) < f(x) + f(y) + 2",
                 "exists x. exists y. f(x + y) > f(x) + f(y) + 1"):
        d = _evaluate_with_budget(monkeypatch, text, 1000)
        assert d.truth is None and d.reason == "evaluation budget spent"
        # 201 outer points and 201 inner points for each
        assert _evaluate_with_budget(monkeypatch, text, 201 * 202).provenance == BOUNDED
        assert _evaluate_with_budget(monkeypatch, text, 201 * 202 - 1).truth is None


def test_decisive_scans_give_back_the_points_they_skipped(monkeypatch):
    # 201 outer points, each inner scan decisive at its first point (the
    # inner body mentions x, so the inner scan is not run once for all x)
    text = "forall x. exists y. x + y = x"
    assert _evaluate_with_budget(monkeypatch, text, 402) == Decision(True, BOUNDED, bound=100)
    assert _evaluate_with_budget(monkeypatch, text, 401).truth is None


def _least_time(run, times: int = 3):
    """(the least time in s of times calls of run, what the last gave)."""
    least = None
    for _ in range(times):
        started = time.perf_counter()
        out = run()
        took = time.perf_counter() - started
        least = took if least is None else min(least, took)
    return least, out


def test_a_closed_scan_inside_a_scan_runs_once(monkeypatch):
    # the exists y part mentions no x: one scan of y and one of x, 20,001
    # points each, decide the sentence, where re-scanning y at every x would
    # spend the whole budget, about 25 scans of y; no equality pins x or y,
    # and the exact routes decline p2(x), so decide() scans.  The time is
    # taken against one scan of y alone, so that the bound moves with the
    # host's load as the call does.
    scan, _ = _least_time(lambda: evaluate(parse("exists y. 4 < f(y) & f(y) < 6"), {}, 10_000))
    compilers = _recorded_compilers(monkeypatch)
    took, d = _least_time(lambda: decide(parse("exists x. ((exists y. 4 < f(y) & f(y) < 6)"
                                               " & p2(x))")))
    assert took < 5 * scan
    assert d == Decision(False, BOUNDED, bound=10_000)
    assert logic.EVAL_BUDGET - compilers[-1].budget <= 40_002


@pytest.mark.parametrize("text,truth", [
    ("forall x. forall y. 0 < 1", True),
    ("forall x. forall y. (x < y | 0 < 1)", True),
    ("exists x. 0 < 0", False),
    ("exists x. exists y. (x < y & 1 < 0)", False),
    ("forall x. (1 < 0 -> f(x) < x)", True),
    ("forall x. forall y. P[2,3,1,2](0, 10)", True),
    ("forall x. P[1,1,0,0](0, 5)", True),
    ("exists x. P[2,3,1,2](3, 3)", False),
])
def test_ground_bodies_fold_without_a_scan(monkeypatch, text, truth):
    # with no budget, any scan would make the answer unknown
    assert _evaluate_with_budget(monkeypatch, text, 0) == Decision(truth)


def test_nnf_and_free_vars():
    s = parse("!(exists x. (p2(x) & f(x) < 5))")
    pushed = nnf(s)
    assert isinstance(pushed, Forall)
    assert free_vars(s) == set()
    assert free_vars(parse("f(x) < y + 1")) == {"x", "y"}


def _in_nnf(formula) -> bool:
    """Not only directly over an atom, and no Implies."""
    return not any(type(node) is Implies
                   or type(node) is Not and type(node.body) not in logic._ATOMS
                   for node in logic._nodes(formula))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 6))
def test_negated_nnf_evaluates_to_the_flipped_truth(rng, bound):
    sentence = random_formula(rng, depth=rng.randint(1, 5), variables=[])
    negated = nnf(sentence, negated=True)
    assert _in_nnf(negated) and _in_nnf(nnf(sentence)), format_formula(sentence)
    want, got = evaluate(sentence, {}, bound), evaluate(negated, {}, bound)
    assert got.truth is (None if want.truth is None else not want.truth), format_formula(sentence)
    assert (got.provenance, got.bound) == (want.provenance, want.bound), format_formula(sentence)


# --- joining decisions ------------------------------------------------------

# A decision as T, F or U (unknown) for its truth, b<bound> if bounded, and
# :<certificate> if it has one.  The tables below are what _and_d, _or_d
# and _negate gave before _join replaced the first two.
_SIDES = "T T:3 F F:-2 U Tb5 Tb7:4 Fb6 Fb8:-1 Ub".split()
_JOIN = {
    False: """
            T       T:3     F       F:-2    U       Tb5     Tb7:4   Fb6     Fb8:-1  Ub
    T       T       T:3     F       F:-2    U       Tb5     Tb7:4   Fb6     Fb8:-1  Ub
    T:3     T:3     T:3     F       F:-2    U       Tb5:3   Tb7:3   Fb6     Fb8:-1  Ub
    F       F       F       F       F       F       F       F       F       F       F
    F:-2    F:-2    F:-2    F:-2    F:-2    F:-2    F:-2    F:-2    F:-2    F:-2    F:-2
    U       U       U       F       F:-2    U       U       U       Fb6     Fb8:-1  U
    Tb5     Tb5     Tb5:3   F       F:-2    U       Tb5     Tb5:4   Fb6     Fb8:-1  Ub
    Tb7:4   Tb7:4   Tb7:4   F       F:-2    U       Tb7:4   Tb7:4   Fb6     Fb8:-1  Ub
    Fb6     Fb6     Fb6     F       F:-2    Fb6     Fb6     Fb6     Fb6     Fb6     Fb6
    Fb8:-1  Fb8:-1  Fb8:-1  F       F:-2    Fb8:-1  Fb8:-1  Fb8:-1  Fb8:-1  Fb8:-1  Fb8:-1
    Ub      Ub      Ub      F       F:-2    Ub      Ub      Ub      Fb6     Fb8:-1  Ub
""",
    True: """
            T       T:3     F       F:-2    U       Tb5     Tb7:4   Fb6     Fb8:-1  Ub
    T       T       T       T       T       T       T       T       T       T       T
    T:3     T:3     T:3     T:3     T:3     T:3     T:3     T:3     T:3     T:3     T:3
    F       T       T:3     F       F       U       Tb5     Tb7:4   Fb6     Fb8     Ub
    F:-2    T       T:3     F       F       U       Tb5     Tb7:4   Fb6     Fb8     Ub
    U       T       T:3     U       U       U       Tb5     Tb7:4   U       U       U
    Tb5     T       T:3     Tb5     Tb5     Tb5     Tb5     Tb5     Tb5     Tb5     Tb5
    Tb7:4   T       T:3     Tb7:4   Tb7:4   Tb7:4   Tb7:4   Tb7:4   Tb7:4   Tb7:4   Tb7:4
    Fb6     T       T:3     Fb6     Fb6     U       Tb5     Tb7:4   Fb6     Fb6     Ub
    Fb8:-1  T       T:3     Fb8     Fb8     U       Tb5     Tb7:4   Fb8     Fb8     Ub
    Ub      T       T:3     Ub      Ub      Ub      Tb5     Tb7:4   Ub      Ub      Ub
""",
}
_NEGATED = "F F:3 T T:-2 U Fb5 Fb7:4 Tb6 Tb8:-1 Ub".split()


def _decision(code: str) -> Decision:
    truth, bounded, bound, certificate = re.fullmatch(r"([TFU])(b(\d*))?(?::(-?\d+))?",
                                                      code).groups()
    truth = {"T": True, "F": False, "U": None}[truth]
    return Decision(truth, BOUNDED if bounded else EXACT, int(bound) if bound else None,
                    None if certificate is None else int(certificate),
                    "unknown" if truth is None else None)


def _code(d: Decision) -> str:
    code = {True: "T", False: "F", None: "U"}[d.truth]
    if d.provenance == BOUNDED:
        code += "b" + ("" if d.bound is None else str(d.bound))
    return code + ("" if d.certificate is None else f":{d.certificate}")


@pytest.mark.parametrize("decisive", [False, True], ids=["and", "or"])
def test_join_table(decisive):
    header, *rows = (line.split() for line in _JOIN[decisive].strip().splitlines())
    assert header == _SIDES and [row[0] for row in rows] == _SIDES
    for a, *results in rows:
        for b, want in zip(_SIDES, results):
            got = _join(_decision(a), _decision(b), decisive)
            assert _code(got) == want, (a, b)
            if want in (a, b):  # a side comes back whole, its reason too
                assert got in (_decision(a), _decision(b))


def test_negate_table():
    assert [_code(_decision(code)) for code in _SIDES] == _SIDES
    assert [_code(_negate(_decision(code))) for code in _SIDES] == _NEGATED
    assert all(_negate(_negate(_decision(code))) == _decision(code) for code in _SIDES)
    assert [(d.witness, d.counterexample) for d in map(_decision, ("T:3", "F:-2", "Tb5", "U"))] \
        == [(3, None), (None, -2), (None, None), (None, None)]


# no exact route takes three variables, so deciding it would evaluate y
_DISJOINT = "(forall x. forall y. forall z. x < 1 | y < 1 | z < 1 | f(x+y+z) >= f(x)+f(y)+f(z))"


@pytest.mark.parametrize("text, want", [
    ("(exists x. f(x) = 2*x + 7 & 0 < x) & " + _DISJOINT, Decision(False)),
    ("(exists x. f(x) = x & 0 < x) | " + _DISJOINT, Decision(True, certificate=1)),
], ids=["and", "or"])
def test_decide_skips_a_right_side_the_exact_left_side_settles(monkeypatch, text, want):
    evaluated = []

    def spy(formula, *args, **kwargs):
        evaluated.append(formula)
        return evaluate(formula, *args, **kwargs)

    monkeypatch.setattr(logic, "evaluate", spy)
    assert decide(parse(text)) == want
    assert not any(Var("y") in logic._nodes(formula) for formula in evaluated)


# --- two-variable route -----------------------------------------------------

def _route_form(rng) -> tuple[int, int, int]:
    return rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-20, 20)


def _route_f(k: int, a: int, b: int, c: int):
    return f"{k} * f({a} * x + {b} * y + {c})", lambda x, y: k * f_floor(a * x + b * y + c)


def _route_const(c: int):
    return str(c), lambda x, y: c


def _route_piece(rng):
    """(source, value at x and y) of k*x, k*y, k*f(a*x + b*y + c),
    k*f(a*x + b*y + d*f(x) + e*f(y) + c) or a constant."""
    k = rng.choice([1, 1, -1, 2])
    kind = rng.choice(["x", "y", "f", "f", "1", "g"])
    if kind == "f":
        return _route_f(k, *_route_form(rng))
    if kind == "g":
        (a, b, c), d, e = _route_form(rng), rng.choice([-1, 1, 2]), rng.choice([-1, 0, 0, 1])
        return (f"{k} * f({a} * x + {b} * y + {d} * f(x) + {e} * f(y) + {c})",
                lambda x, y: k * f_floor(a * x + b * y + d * f_floor(x) + e * f_floor(y) + c))
    if kind == "1":
        return _route_const(rng.randint(-20, 20))
    return f"{k} * {kind}", lambda x, y: k * (x if kind == "x" else y)


_ROUTE_RELS = {"=": eq, "!=": ne, "<": lt, ">=": ge}


def _route_atom(rng):
    if rng.random() < 0.6:  # f(s + t) against f(s) + f(t) + k, most often near true
        (a, b, c), (d, e, g) = _route_form(rng), _route_form(rng)
        left = [_route_f(1, a + d, b + e, c + g)]
        right = [_route_f(1, a, b, c), _route_f(1, d, e, g),
                 _route_piece(rng) if rng.random() < 0.2 else _route_const(rng.randint(-2, 2))]
        if rng.random() < 0.5:
            left, right = right, left
    else:
        left = [_route_piece(rng) for _ in range(rng.randint(1, 2))]
        right = [_route_piece(rng) for _ in range(rng.randint(1, 2))]
    rel = rng.choice(list(_ROUTE_RELS))
    return (" + ".join(s for s, _ in left) + f" {rel} " + " + ".join(s for s, _ in right),
            lambda x, y: _ROUTE_RELS[rel](sum(v(x, y) for _, v in left),
                                          sum(v(x, y) for _, v in right)))


def _route_guard(rng):
    g = rng.randint(-5, 10)
    text, value = rng.choice([("x", lambda x, y: x), ("y", lambda x, y: y),
                              ("x + y", lambda x, y: x + y)])
    rel = rng.choice(["<", ">="])
    return f"{text} {rel} {g}", lambda x, y: _ROUTE_RELS[rel](value(x, y), g)


def _route_sentence(rng, existential: bool, alone: bool):
    """Q x. Q y. over atoms and order guards joined by one of & and |, or,
    when alone, Q x. over them with y read as x, and its body as a function
    of x and y."""
    atoms = [_route_atom(rng) for _ in range(rng.randint(1, 2))]
    atoms += [_route_guard(rng) for _ in range(rng.randint(0, 2))]
    join = any if rng.random() < 0.5 else all
    q = "exists" if existential else "forall"
    body = (" | " if join is any else " & ").join(text for text, _ in atoms)
    if alone:
        return (f"{q} x. ({body.replace('y', 'x')})",
                lambda x, y: join(holds(x, x) for _, holds in atoms))
    return f"{q} x. {q} y. ({body})", lambda x, y: join(holds(x, y) for _, holds in atoms)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
def test_two_variable_route_answers_have_no_counterexample_in_a_box(rng, existential, alone):
    # An answer without a certificate, a true universal or a false
    # existential, must meet no counterexample (no witness) in a brute force
    # with f_floor over [-25, 25]^2.  A certificate, a value of x, is the
    # least witness in the scan order 0, 1, -1, ...: some y of the box gives
    # the body its truth at it, and none does at an x of the box before it.
    # decide() must give the same answer, also when y is missing and
    # miniscoping drops its quantifier.
    text, holds = _route_sentence(rng, existential, alone)
    d = _block(nnf(parse(text)))
    if d is None:
        return
    box = range(-25, 26)
    if d.certificate is None:
        assert d == Decision(not existential), text
        assert all(holds(x, y) is not existential for x in box for y in box), text
    else:
        assert d == Decision(existential, certificate=d.certificate), text
        at = lambda x: any(holds(x, y) is existential for y in box)
        assert at(d.certificate), text
        assert not any(at(x) for x in box if (abs(x), -x) < (abs(d.certificate), -d.certificate)), text
    assert decide(parse(text), bound=3) == d, text


def _reader_term(rng, depth: int):
    """A random term over x, y and n: constants, the names, sums,
    differences, scales (zero among them) and f of any of these, nested f
    too."""
    kind = rng.choice("xyn1+-*ff" if depth else "xyn1")
    if kind in "xyn":
        return Var(kind)
    if kind == "1":
        return Const(rng.randint(-9, 9))
    if kind == "f":
        return F(_reader_term(rng, depth - 1))
    if kind == "*":
        return Scale(rng.choice([-2, -1, 0, 1, 3]), _reader_term(rng, depth - 1))
    return (Add if kind == "+" else Sub)(_reader_term(rng, depth - 1), _reader_term(rng, depth - 1))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_one_term_reader_agrees_with_f_floor(rng):
    # _affine's forms over x and y and over x alone evaluate to the term's
    # value, f(a*x + b*y + c + d*f(x) + e*f(y)) included, and f of a term
    # free of the form's variables (f(n), and f(y) over x alone) as a key of
    # its own; _linearize, the view of the second, declines exactly when a
    # key other than x, f(x) and 1 has a nonzero coefficient in it
    term = _reader_term(rng, 4)
    forms = [logic._affine(term, "x", "y"), logic._affine(term, "x")]
    lin = logic._linearize(term, "x")
    if forms[1] is None:
        assert lin is None
    else:
        others = {key for key, v in forms[1].items() if v and key not in ("x", (1, 0, 0, 0, 0), 1)}
        assert (lin is None) is bool(others)
    for form, names in zip(forms, ({"x", "y"}, {"x"})):
        assert not any(type(key) is F and names & free_vars(key) for key in form or ())
    for _ in range(5):
        env = {name: rng.randint(-10**6, 10**6) for name in "xyn"}
        fx, fy = f_floor(env["x"]), f_floor(env["y"])
        value = _walk_term(term, env)
        for form in filter(None, forms):
            assert value == sum(v * (1 if key == 1 else env[key] if type(key) is str else
                                     _walk_term(key, env) if type(key) is F else f_floor(
                key[0] * env["x"] + key[1] * env["y"] + key[2] + key[3] * fx + key[4] * fy))
                                for key, v in form.items())
        if lin is not None:
            assert value == lin[0] * env["x"] + lin[1] * f_floor(env["x"]) + lin[2]


def test_one_term_reader_reads_f_nested_over_x_and_y_once():
    assert logic._affine(parse_term("f(2*f(x) - y + 3)"), "x", "y") == {(0, -1, 3, 2, 0): 1}
    assert logic._affine(parse_term("f(f(x) - f(y))"), "x", "y") == {(0, 0, 0, 1, -1): 1}
    assert logic._affine(parse_term("f(f(x + 1))"), "x", "y") is None
    assert logic._affine(parse_term("f(f(f(x)))"), "x", "y") is None
    assert logic._linearize(parse_term("f(f(x))"), "x") is None


def test_one_term_reader_counts_a_zero_coefficient_as_absent():
    assert logic._linearize(parse_term("f(x + f(x) - f(x))"), "x") == (0, 1, 0)
    assert logic._linearize(parse_term("f(x + 0 * y)"), "x") == (0, 1, 0)
    assert logic._linearize(parse_term("f(y)"), "x") is None
    assert logic._linearize(parse_term("x + 0 * f(y)"), "x") == (1, 0, 0)
    assert logic._affine(parse_term("f(x + z)"), "x", "y") is None
    assert logic._affine(parse_term("f(n) + x"), "x") == {"x": 1, F(Var("n")): 1}
    assert logic._affine(parse_term("f(x + n)"), "x") is None


def _pin_side(rng):
    """(source, coefficient of x, of f(x)) of a sum of terms in x, n, f(x),
    f(n) and f(n + k), and a constant."""
    parts, a, b = [], 0, 0
    for _ in range(rng.randint(0, 3)):
        k, atom = rng.randint(-3, 3), rng.choice(["x", "n", "f(x)", "f(n)", "f(n + k)"])
        parts.append(f"{k} * {atom.replace('k', str(rng.randint(-5, 5)))}")
        a, b = a + k * (atom == "x"), b + k * (atom == "f(x)")
    return " + ".join(parts + [str(rng.randint(-9, 9))]), a, b


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_pin_reads_its_equality_through_the_one_term_reader(rng, under_f):
    # _pin(e, "x") gives ((a, b), t) with t free of x and a*x + b*f(x) - t
    # equal to left - right, or to right - left, at every point; it does so
    # wherever the coefficients of x and f(x) are a unit up to sign, and it
    # gives None wherever x is under f of anything but x
    (left, a, b), (right, a2, b2) = _pin_side(rng), _pin_side(rng)
    if under_f:
        under = rng.choice(["f(x + n)", "f(2 * x)", "f(x + 1)", "f(f(x))"])
        left += f" + {rng.choice([-2, 1, 3])} * {under}"
    e = parse(f"{left} = {right}")
    pinned = logic._pin(e, "x")
    if under_f:
        assert pinned is None, e
        return
    unit = (a - a2, b - b2) in ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1))
    assert (pinned is not None) is unit, e
    if pinned is None:
        return
    (a, b), t = pinned
    assert "x" not in free_vars(t), (e, t)
    signs = set()
    for _ in range(8):
        env = {"x": rng.randint(-10**4, 10**4), "n": rng.randint(-10**4, 10**4)}
        diff = _walk_term(e.left, env) - _walk_term(e.right, env)
        solved = a * env["x"] + b * f_floor(env["x"]) - _walk_term(t, env)
        assert solved in (diff, -diff), (e, t, env)
        signs |= {solved == diff} if diff else set()
    assert len(signs) <= 1, (e, t)


@pytest.mark.parametrize("text, want, met", [
    ("forall x. forall y. (x < 7 | y < 1 | f(x) != f(y) + y)", Decision(True), False),
    # the probe meets (7, 3) and (6, 6) at P's first x: each is its
    # disjunct's least witness, and the route answers with it
    ("forall x. forall y. (x < 7 | f(x + y) < f(x) + f(y) + 1)", Decision(False, certificate=7),
     True),
    ("exists x. exists y. (x > 5 & y > 5 & f(x + y) = f(x) + f(y) + 1)",
     Decision(True, certificate=6), True),
    ("forall x. forall y. (x < 1 | p2(f(x) + y) | p2(f(x) + y + 1))",
     Decision(True, BOUNDED, bound=40), False),
    # the probe meets (49, 6), but x = 7 holds with y = 7: a point past P's
    # first x (6) is no least witness
    ("exists x. exists y. (x > 5 & x < 50 & y > 5 & y < 8 & f(x + y) = f(x) + f(y))",
     Decision(True, certificate=7), False),
], ids=["rank 2", "false universal", "true existential", "divisibility", "past the first x"])
def test_two_variable_route_declines_to_the_scan(text, want, met):
    # rank-2 atoms (Rayleigh's f(x) = f(y) + y), p2 and a point met past
    # P's first x decline, and the bounded scan answers with its certificate
    # as before the route; Rayleigh's sentence is decided once its x is
    # eliminated.  A point met at P's first x is the route's answer, the
    # one decide() prints at every bound.
    assert _block(nnf(parse(text))) == (want if met else None)
    assert decide(parse(text), bound=40) == want
    if met:
        assert decide(parse(text), bound=0) == want


def test_two_variable_route_stops_at_its_cell_budget(monkeypatch):
    # true, but its floors cut the square into more than MAX_CELLS cells
    sentence = nnf(parse("forall x. forall y. f(100*x + 99*y + 3) < f(100*x) + f(99*y + 3) + 2"))
    started = time.perf_counter()
    assert _block(sentence) is None
    assert time.perf_counter() - started < 1
    monkeypatch.setattr(logic, "MAX_CELLS", 100 * logic.MAX_CELLS)
    assert _block(sentence) == Decision(True)


@pytest.mark.parametrize("text, want", [
    ("forall x. forall y. (x < 7 | f(x + y) < f(x) + f(y) + 1)", Decision(False, certificate=7)),
    ("exists x. exists y. (x > 5 & y > 5 & f(x + y) = f(x) + f(y) + 1)",
     Decision(True, certificate=6)),
    ("forall x. x < 7719 | f(f(x)) != f(x) + x - 1", Decision(False, certificate=7719)),
], ids=["false universal", "true existential", "f_double_f"])
def test_the_probe_meets_a_point_before_any_sign_case(monkeypatch, text, want):
    # each disjunct the cell step cannot drop has a point near a corner of
    # P, so the step ends there, with no sign case built
    def raising(*args):
        raise AssertionError("a sign case was built")

    monkeypatch.setattr(logic, "_signs_excluded", raising)
    assert decide(parse(text), bound=40) == want


def _literal(draw, names: tuple[str, ...]):
    """s < t, s = t or !(s = t), each side a linear form over the names with
    at most one f of a linear form plus f of a name."""
    def linear():
        term = Const(draw(st.integers(-8, 8)))
        for name in names:
            term = Add(term, Scale(draw(st.integers(-3, 3)), Var(name)))
        return term

    def side():
        if not draw(st.booleans()):
            return linear()
        inner = linear()
        for name in names:
            inner = Add(inner, Scale(draw(st.integers(0, 1)), F(Var(name))))
        return Add(linear(), Scale(draw(st.sampled_from([-1, 1, 2])), F(inner)))

    s, rel, t = side(), draw(st.sampled_from(["<", "=", "!="])), side()
    return Not(Cmp(s, "=", t)) if rel == "!=" else Cmp(s, rel, t)


@st.composite
def _disjuncts(draw) -> tuple[tuple[str, ...], list]:
    names = draw(st.sampled_from([("x",), ("x", "y")]))
    return names, [_literal(draw, names) for _ in range(draw(st.integers(1, 3)))]


def _scan_before(x: int) -> Iterator[int]:
    """The integers before x in the scan order 0, 1, -1, 2, -2, ..."""
    order = itertools.chain([0], itertools.chain.from_iterable((k, -k) for k in itertools.count(1)))
    return itertools.takewhile(lambda c: (abs(c), -c) < (abs(x), -x), order)


def _meets_p(atoms: list, x: int) -> bool:
    """Whether the order atoms (without f, but for E != 0) leave some real y
    at x: the line of x meets the polyhedron P they bound."""
    low = high = None
    for rel, lx, ly, k, terms in atoms:
        if terms or rel == "!=":
            continue
        rest = lx * x + k  # ly*y + rest is <= 0, or = 0
        if not ly:
            if rest > 0 or rel == "=" and rest:
                return False
            continue
        at = Fraction(-rest, ly)
        if ly > 0 or rel == "=":
            high = at if high is None else min(high, at)
        if ly < 0 or rel == "=":
            low = at if low is None else max(low, at)
    return low is None or high is None or low <= high


@settings(max_examples=300, deadline=None)
@given(_disjuncts())
def test_a_probed_point_satisfies_its_disjunct_and_the_cell_step_agrees(drawn):
    # the probe's point satisfies the conjunction (evaluate reads it at x
    # and y), and the cell step without the probe does not drop a disjunct
    # that has it; _no_point gives the point back exactly where its x is
    # the first of P's x-range in the scan order (no x before it meets P)
    names, conjuncts = drawn
    atoms = [logic._atom(e, *names) for e in conjuncts]
    if None in atoms:
        return
    points, probe = [], logic._probe
    with patch.object(logic, "_probe", lambda *args: points.append(probe(*args)) or points[-1]):
        dropped = logic._no_point(atoms, iter(range(logic.MAX_CELLS)))
    met = "P empty" if not points else "no point" if points[0] is None else "a point"
    x, y = points[0] if met == "a point" else (0, 0)
    first = met == "a point" and not any(_meets_p(atoms, c) for c in _scan_before(x))
    event(f"{len(names)} names: {met}{' at the first x' * first}")
    if met != "a point":
        return
    assert dropped == ((x, y) if first else False), (x, y)
    assert evaluate(logic._either([conjuncts]), {"x": x, "y": y}, 0).truth, (x, y)
    with patch.object(logic, "_probe", lambda *args: None):
        assert not logic._no_point(atoms, iter(range(logic.MAX_CELLS))), (x, y)


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.booleans(), st.integers(10**4, 10**6), st.integers(-10**6, 10**6),
       st.integers(1, 3), st.integers(1, 2), st.integers(-3, 3), st.integers(-1, 2),
       st.sampled_from(["=", "<", ">=", "!="]))
def test_a_point_met_past_the_bound_is_a_checked_least_witness(existential, alone, c, g, a, b,
                                                               k, j, rel):
    # The order guards put P's first x, c + 1 (x > c) or c (the negation of
    # x < c), past any bound a scan reaches.  Each point the block route
    # meets takes the body's truth for the sentence's answer (evaluate reads
    # f by f_floor) and lies at P's first x, which is then the certificate;
    # decide() prints the same answer at --bound 0.
    if alone:
        names, atom = "x", f"f({a}*x + {k}) {rel} {a}*f(x) + {j}"
    else:
        names, atom = "xy", f"f({a}*x + {b}*y + {k}) {rel} f({a}*x) + f({b}*y) + {j}"
    guards = [f"{v} {'>' if existential else '<'} {bound}" for v, bound in zip(names, (c, g))]
    body = (" & " if existential else " | ").join(guards + [atom])
    q = "exists" if existential else "forall"
    text = " ".join(f"{q} {v}." for v in names) + f" ({body})"
    met, no_point = [], logic._no_point
    with patch.object(logic, "_no_point", lambda *args: (met.append(r := no_point(*args)), r)[1]):
        d = _block(nnf(parse(text)))
    points = [point for point in met if type(point) is tuple]
    event("declined" if d is None else "met" if points else "answered otherwise")
    if d is None or not points:
        return
    first = c + 1 if existential else c
    for x, y in points:
        assert evaluate(parse(body), {"x": x, "y": y}, 0).truth is existential, (text, x, y)
        assert x == first, (text, x, y)
    assert d == Decision(existential, certificate=first), text
    assert decide(parse(text), bound=0) == d, text


def _corners_by_meet(constraints: set) -> list[tuple]:
    """_corners with each vertex solved by _meet over Z[phi]."""
    lines = [(a, b, d) for a, b, d in constraints if a or b]
    points = [(0, 0, 0, 0, 1)] + [(d * a, 0, d * b, 0, a * a + b * b) for a, b, d in lines]
    points += [logic._meet(((a1, 0), (b1, 0), (d1, 0)), ((a2, 0), (b2, 0), (d2, 0)))
               for i, (a1, b1, d1) in enumerate(lines) for a2, b2, d2 in lines[i + 1:]
               if a1 * b2 != a2 * b1]
    return [point for point in points
            if all(a * point[0] + b * point[2] <= d * point[4] for a, b, d in constraints)]


@settings(max_examples=300, deadline=None)
@given(st.sets(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-30, 30)),
               min_size=1, max_size=5))
def test_integer_corners_are_the_points_meet_gives(constraints):
    assert logic._corners(constraints) == _corners_by_meet(constraints)


_Z_PHI = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
@given(_Z_PHI, _Z_PHI, st.integers(-20, 20))
def test_the_square_floor_memo_is_floors_over_the_square(alpha, beta, c):
    line = (alpha, beta, c)
    want = logic._floors(logic._SQUARE, line)
    assert logic._square_floors(line) == want
    assert logic._square_floors(line) == want  # again, from the memo


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-6, 6)),
                min_size=1, max_size=4), _Z_PHI, _Z_PHI)
def test_range_over_a_polyhedron_bounds_its_integer_points(half_planes, alpha, beta):
    # over P = {a*x + b*y <= d}, _range's least and greatest of
    # alpha*x + beta*y bound it at each integer point of P in [-12, 12]^2;
    # a side is None exactly when an integer direction of P's recession cone
    # moves the form that way; and an empty P has no integer point there
    box = [(x, y) for x in range(-12, 13) for y in range(-12, 13)
           if all(a * x + b * y <= d for a, b, d in half_planes)]
    polyhedron = logic._polyhedron(set(half_planes))
    if polyhedron is None:
        assert not box, half_planes
        return
    least, most = logic._range(*polyhedron[1:], alpha, beta)
    for x, y in box:
        p, q = alpha[0] * x + beta[0] * y, alpha[1] * x + beta[1] * y
        assert least is None or phi_sign(p * least[2] - least[0], q * least[2] - least[1]) >= 0
        assert most is None or phi_sign(most[0] - p * most[2], most[1] - q * most[2]) >= 0
    signs = {phi_sign(alpha[0] * r + beta[0] * s, alpha[1] * r + beta[1] * s)
             for r in range(-6, 7) for s in range(-6, 7)
             if all(a * r + b * s <= 0 for a, b, _ in half_planes)}
    assert (least is None) is (-1 in signs) and (most is None) is (1 in signs), half_planes


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_Z_PHI, _Z_PHI, _Z_PHI), min_size=1, max_size=2), _Z_PHI, _Z_PHI)
def test_range_over_a_cell_bounds_its_grid_points(cuts, alpha, beta):
    # the unit square, clipped to alpha'*u + beta'*v >= gamma for one or two
    # Z[phi] lines as the cells are (a second only while the first leaves
    # area): at each point (i, j)/16 in it, alpha*u + beta*v lies between
    # _range's least and greatest over its vertices; an empty cell holds none
    cell, applied = logic._SQUARE, []
    for cut in cuts:
        if len(cell) > 2:
            cell = logic._clip(cell, cut)
            applied.append(cut)
    grid = [(i, j) for i in range(17) for j in range(17)
            if all(phi_sign(i * a + j * b - 16 * g, i * p + j * q - 16 * h) >= 0
                   for (a, p), (b, q), (g, h) in applied)]
    if not cell:
        assert not grid, cuts
        return
    least, most = logic._range([vertex for vertex, _ in cell], (), alpha, beta)
    for i, j in grid:
        p, q = i * alpha[0] + j * beta[0], i * alpha[1] + j * beta[1]  # 16 times the form
        assert phi_sign(p * least[2] - 16 * least[0], q * least[2] - 16 * least[1]) >= 0, cuts
        assert phi_sign(16 * most[0] - p * most[2], 16 * most[1] - q * most[2]) >= 0, cuts


def test_the_one_variable_and_cell_routes_agree_where_both_answer(monkeypatch):
    # Every closed one-quantifier subsentence of a seeded draw, after NNF and
    # miniscoping, that _decide_block decides both as it is and with no
    # normal form (so that each disjunct must be dropped by the cell step)
    # gets one truth from both.  A conflict is a defect of a step: the draw
    # stays as it is.  And the cell step answers none alone.
    rng = random.Random(1)
    sentences = [q for _ in range(1500)
                 for q in logic._quantifiers(logic._miniscope(nnf(random_formula(rng, 5))))
                 if not logic._quantifiers(q.body) and not free_vars(q)]
    answers = [_block(q) for q in sentences]
    monkeypatch.setattr(logic, "_conjunction_query", lambda var, conjuncts: None)
    pairs, cell_alone = 0, []
    for q, one in zip(sentences, answers):
        cell = _block(q)
        if one is not None and cell is not None:
            pairs += 1
            assert one.truth is cell.truth, format_formula(q)
        elif cell is not None:
            cell_alone.append(format_formula(q))
    assert pairs >= 100  # 122 when written: the draw keeps comparing the routes
    assert cell_alone == []


def test_a_sentence_and_its_negation_get_two_truths_where_both_are_exact():
    # Every closed draw of seed 1 whose decide and whose negation's decide
    # are both exact: the truths differ.  A conflict is a defect of the
    # decider: the draw stays as it is.
    rng = random.Random(1)
    pairs = 0
    for _ in range(500):
        sentence = random_formula(rng, 5)
        yes, no = decide(sentence, 100), decide(Not(sentence), 100)
        if EXACT == yes.provenance == no.provenance and None not in (yes.truth, no.truth):
            pairs += 1
            assert yes.truth is not no.truth, format_formula(sentence)
    assert pairs >= 400  # 421 when written: the draw keeps asking both


def _commuted(node):
    """The formula with the two sides of every & and | swapped."""
    if type(node) in (And, Or):
        return type(node)(_commuted(node.right), _commuted(node.left))
    return node._make(_commuted(c) if isinstance(c, tuple) else c for c in node)


def test_a_sentence_with_every_and_and_or_commuted_gets_its_truth_where_both_are_exact():
    # Every closed draw of seed 1 whose decide and whose commuted copy's
    # decide are both exact: the truths agree.  A conflict is a defect of
    # the decider: the draw stays as it is.
    rng = random.Random(1)
    pairs = 0
    for _ in range(500):
        sentence = random_formula(rng, 5)
        one, other = decide(sentence, 100), decide(_commuted(sentence), 100)
        if EXACT == one.provenance == other.provenance and None not in (one.truth, other.truth):
            pairs += 1
            assert one.truth is other.truth, format_formula(sentence)
    assert pairs >= 400  # 421 when written: the draw keeps asking both


def _renamed(node, names, fresh):
    """The formula with each bound variable given the next name of fresh."""
    if type(node) is Var:
        return Var(names.get(node.name, node.name))
    if type(node) in (Exists, Forall):
        name = next(fresh)
        return type(node)(name, _renamed(node.body, {**names, node.var: name}, fresh))
    return node._make(_renamed(c, names, fresh) if isinstance(c, tuple) else c for c in node)


def test_a_sentence_with_its_bound_variables_renamed_gets_the_same_decision():
    # Every closed draw of seed 1, with each quantifier's variable renamed
    # to one no other quantifier uses, gets the same Decision, certificate
    # and provenance included.  A difference is a defect of the decider:
    # the draw stays as it is.
    rng = random.Random(1)
    for _ in range(500):
        sentence = random_formula(rng, 5)
        renamed = _renamed(sentence, {}, (f"r{k}" for k in itertools.count()))
        assert decide(renamed, 100) == decide(sentence, 100), format_formula(sentence)


@pytest.mark.parametrize("text, bound, want", [
    ("exists w. forall x. exists y. y > x & p3(y)", 20, Decision(False, BOUNDED, bound=20)),
    ("forall w. forall x. exists y. y > x & p3(y)", 20,
     Decision(False, BOUNDED, bound=20, certificate=0)),
    ("forall w. exists x. forall y. y < x | y > x + 30 | !p7(y)", 20,
     Decision(True, BOUNDED, bound=20)),
    ("exists w. exists x. forall y. y < x | y > x + 30 | !p7(y)", 20,
     Decision(True, BOUNDED, bound=20, certificate=0)),
    ("exists w. forall x. exists y. y > x & p3(y)", logic.DEFAULT_EVAL_BOUND, logic._SPENT),
])
def test_a_vacuous_quantifier_over_an_inexact_sentence_is_decided_once(text, bound, want,
                                                                       monkeypatch):
    # Q w. S is S: S's own bounded or unknown answer, with the certificate 0
    # (w's first point) for a true exists or a false forall, and no scan of
    # the whole sentence after S's
    scanned, scan = [], logic.evaluate
    monkeypatch.setattr(logic, "evaluate", lambda formula, *args: (
        scanned.append(formula), scan(formula, *args))[1])
    assert decide(parse(text), bound) == want
    assert not any(type(formula) in (Exists, Forall) and formula.var == "w" for formula in scanned)


def test_a_sentence_gets_one_truth_at_every_bound_where_it_is_exact():
    # Every closed draw of seed 1, decided at bounds 0, 10 and 100: wherever
    # two or more of the answers are exact, their truths agree.  A conflict
    # is a defect of the decider: the draw stays as it is.
    rng = random.Random(1)
    compared = 0
    for _ in range(500):
        sentence = random_formula(rng, 5)
        truths = [d.truth for bound in (0, 10, 100) if (d := decide(sentence, bound)).provenance
                  == EXACT and d.truth is not None]
        if len(truths) >= 2:
            compared += 1
            assert len(set(truths)) == 1, format_formula(sentence)
    assert compared >= 350  # 415 when written: the draw keeps comparing bounds


def test_each_disjunct_takes_the_first_of_the_four_steps_in_order(monkeypatch):
    # the normal form, the cell step (_no_point), the split of a !(s = t)
    # (_unequal), the slabs (_slab_cases, which reads _folds): a disjunct
    # that the cell step drops is never split, and one it does not drop
    # goes on to the split or the slabs
    calls = []
    for name in ("_no_point", "_unequal", "_slab_cases", "_folds"):
        step = getattr(logic, name)
        monkeypatch.setattr(logic, name, lambda *args, step=step, name=name: (
            calls.append(name), step(*args))[1])
    assert decide(parse("forall x. x < 37 | f(f(x)) = f(x) + x - 1")) == Decision(True)
    assert calls == ["_no_point"]
    calls.clear()
    # the probe meets (37, 0) at P's first x: a least witness of the negation
    assert decide(parse("forall x. x < 37 | f(f(x)) != f(x) + x - 1")) == Decision(
        False, certificate=37)
    assert calls == ["_no_point"]
    calls.clear()
    # f(37) = 59: the probe meets (38, 0), past P's first x, and the step declines
    assert decide(parse("forall x. x < 37 | f(x) < 60 | f(f(x)) != f(x) + x - 1")) == Decision(
        False, certificate=38)
    assert calls == ["_no_point", "_unequal", "_slab_cases", "_folds"]
    calls.clear()
    assert decide(parse("exists x. x > 0 & f(x) != 2*x")) == Decision(True, certificate=1)
    assert calls == ["_no_point"]  # the probe meets (1, 0) at P's first x
    calls.clear()
    # f(1) = 1: the probe meets (2, 0), past P's first x, and the step declines
    assert decide(parse("exists x. x > 0 & f(x) != 1")) == Decision(True, certificate=2)
    assert calls == ["_no_point", "_unequal"]  # then each half is in the normal form
    calls.clear()
    # an f-free !(s = t) is one literal of the DNF too: the loop splits it
    assert decide(parse("exists x. x > 0 & x != 1")) == Decision(True, certificate=2)
    assert calls == ["_no_point", "_unequal"]


def test_a_block_is_read_once_per_decision(monkeypatch):
    # _eliminations' pair step and _decide_block take the one reading, and a
    # block of one quantifier is read by it too
    calls = []
    read = logic._prenex_pair
    monkeypatch.setattr(logic, "_prenex_pair", lambda sentence, inner: (
        calls.append(sentence), read(sentence, inner))[1])
    text = "forall x. forall y. f(x + y + 3) < f(x + 3) + f(y) + 2"
    assert decide(parse(text)) == Decision(True)
    assert len(calls) == 1
    calls.clear()
    assert decide(parse("exists x. x > 3")) == Decision(True, certificate=4)
    assert len(calls) == 1


def test_a_block_has_one_dnf_per_decision(monkeypatch):
    # both eliminations of the pair read the DNF that _decide_exactly builds
    # for _decide_block: one _dnf call, from outside _dnf, per block decided
    # (the pair, what is left once y is pinned, and the certificate's check)
    callers = []
    dnf = logic._dnf
    monkeypatch.setattr(logic, "_dnf", lambda *args: (
        callers.append(sys._getframe(1).f_code.co_name), dnf(*args))[1])
    text = "exists x. exists y. y = x + 1 & P[2,3,1,1](x, y + 5)"
    assert decide(parse(text)) == Decision(True, certificate=0)
    assert [name for name in callers if name != "_dnf"] == ["_decide_exactly"] * 3


def _atom_of_two_readings(e, x, y=None):
    """_atom as it was when it read s and t apart and merged the two
    readings: the reference for its one walk of s - t."""
    rel = "!=" if type(e) is Not and type(e.body) is Cmp else e.rel if type(e) is Cmp else None
    if rel is None:
        return None
    e = e.body if rel == "!=" else e
    left, right = logic._affine(e.left, x, y), logic._affine(e.right, x, y)
    if left is None or right is None:
        return None
    for key, v in right.items():
        left[key] = left.get(key, 0) - v
    if any(type(key) is F and w for key, w in left.items()):
        return None
    terms = tuple((key, w) for key, w in left.items() if type(key) is tuple and w)
    return rel, left.get(x, 0), left.get(y, 0), left.get(1, 0) + (rel == "<"), terms


def test_an_atom_is_read_by_one_walk_as_by_two():
    # literals over x, y and n with f nested in them, read in x and y, and in x alone
    rng = random.Random(1597)
    read = 0
    for _ in range(3000):
        s, t = _reader_term(rng, 3), _reader_term(rng, 3)
        e = rng.choice([Cmp(s, "<", t), Cmp(s, "=", t), Not(Cmp(s, "=", t)), Div(3, s)])
        for names in (("x", "y"), ("x",)):
            atom = logic._atom(e, *names)
            assert atom == _atom_of_two_readings(e, *names), (e, names)
            read += atom is not None
    assert read >= 1000


# --- elimination ------------------------------------------------------------

def _order_atom(rng):
    """(source, value at x and n) of an order atom on x against n."""
    g = rng.randint(-6, 6)
    text, value = rng.choice([("x", lambda x, n: x), ("x - n", lambda x, n: x - n),
                              ("x + n", lambda x, n: x + n)])
    rel = rng.choice(["<", ">="])
    return f"{text} {rel} {g}", lambda x, n: _ROUTE_RELS[rel](value(x, n), g), g


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_elimination_agrees_with_a_scan_of_x(rng, existential):
    # Q x. (±(a*x + b*f(x)) = t & order atoms), t = p*n + q*f(n) + c, as
    # _eliminations leaves it: at each n of a box, what is left of it agrees
    # with a scan of x over |x| <= |t| + 1 and past the order atoms' bounds
    (a, b), sign = rng.choice([(1, 0), (0, 1), (1, 1)]), rng.choice([1, -1])
    p, q, c = rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(-5, 5)
    pin = f"{sign * a} * x + {sign * b} * f(x) = {sign * p} * n + {sign * q} * f(n) + {sign * c}"
    atoms = [(pin, lambda x, n: a * x + b * f_floor(x) == p * n + q * f_floor(n) + c, 0)]
    atoms += [_order_atom(rng) for _ in range(rng.randint(0, 2))]
    rng.shuffle(atoms)
    body = " & ".join(text for text, _, _ in atoms)
    inner = f"exists x. ({body})" if existential else f"forall x. !({body})"
    outer = "forall" if existential else "exists"  # of the other kind: no pair
    sentence = nnf(parse(f"{outer} n. {inner}"))
    residual, was_outer = next(logic._eliminations(sentence, *_read(sentence)))
    assert not was_outer, inner
    assert _one_deep(residual.body) or not logic._quantifiers(residual.body), inner
    for n in range(-12, 13):
        t = p * n + q * f_floor(n) + c
        reach = abs(t) + 1 + abs(n) + max(abs(g) for _, _, g in atoms) + 1
        found = any(all(holds(x, n) for _, holds, _ in atoms) for x in range(-reach, reach + 1))
        assert evaluate(residual.body, {"n": n}, reach).truth is (found is existential), (inner, n)


def test_eliminations_that_all_fail_stop_at_their_budget():
    # each inner quantifier is pinned, but what any order of eliminations
    # leaves holds P[...] over a variable, which no exact route takes; the
    # 20! orders stop after MAX_DISJUNCTS tries, and the scan answers
    parts = " | ".join(f"(exists a{i}. f(a{i}) = n + {i} & P[2,3,1,1](a{i}, n))" for i in range(20))
    sentence = parse(f"forall n. n < 0 | {parts}")
    started = time.perf_counter()
    assert decide(sentence, bound=20) == Decision(False, BOUNDED, bound=20, certificate=0)
    assert time.perf_counter() - started < 2


def _f_nested_twice(node) -> bool:
    """Whether some f(... f(... f(...) ...) ...) is in the formula or term."""
    return any(type(outer) is F and any(
        type(mid) is F and any(type(inner) is F for inner in logic._nodes(mid.arg))
        for mid in logic._nodes(outer.arg)) for outer in logic._nodes(node))


def test_eliminations_take_an_inner_quantifier_in_place_before_a_pair():
    # Beatty's existential: x goes first, in place; what is left is a pair
    # (n, y), where y, pinned by f(y) + y = n, goes next, in place, before
    # n, whose candidate n := f(y) + y would nest f twice (which no exact
    # route reads) and give no certificate
    sentence = logic._miniscope(nnf(parse(
        "exists n. n > 0 & (exists x. f(x) = n) & (exists y. f(y) + y = n)")))
    names = lambda formula: [q.var for q in logic._quantifiers(formula)]
    left, outer = next(logic._eliminations(sentence, *_read(sentence)))
    assert not outer and names(left) == ["y", "n"]
    assert logic._prenex_pair(left, logic._quantifiers(left.body))[:2] == ("n", "y")
    left, outer = next(logic._eliminations(left, *_read(left)))
    assert not outer and names(left) == ["n"] and not _f_nested_twice(left)
    assert logic._decide(left, None, iter(range(MAX_DISJUNCTS))) == Decision(False)


@pytest.mark.parametrize("text,check", [
    # the body at x = 7 is forall y. (7 = 7 & y < 3): the one-variable route
    # refutes it
    ("exists x. forall y. (x = 7 & y < 3)", Decision(False, certificate=3)),
    # the body at x = 7 is forall y. forall z. (7 = 7 & y < z): the probe
    # meets (0, 0) at the first y of the negation's polyhedron
    ("exists x. forall y. forall z. (x = 7 & y < z)", Decision(False, certificate=0)),
    # the body at x = 7 has three quantifiers left, which the exact routes decline
    ("exists x. forall y. forall z. forall w. (x = 7 & y < z + w)", None),
], ids=["refuted", "refuted at a met point", "unchecked"])
def test_a_certificate_from_an_elimination_is_checked_against_the_body(text, check,
                                                                      monkeypatch):
    # an elimination that leaves exists x. x = 7, which is not the sentence:
    # its witness 7 fails the sentence's body, or cannot be checked there, so
    # decide() drops it and scans
    sentence = nnf(parse(text))
    bogus = parse("exists x. x = 7")
    monkeypatch.setattr(logic, "_eliminations",
                        lambda s, pair, todo: iter([(bogus, False)] if s == sentence else []))
    at_seven = logic._replace(sentence.body, Var("x"), Const(7))
    assert logic._decide(at_seven, None, iter(range(MAX_DISJUNCTS))) == check
    assert logic._decide(bogus, None, iter(range(1))) == Decision(True, certificate=7)
    d = decide(sentence, bound=5)
    assert d.provenance == BOUNDED and d.certificate != 7


def test_a_certificate_is_not_checked_where_the_body_binds_its_variable_again():
    # x := 3 in the body would reach the inner x too, so the check declines
    sentence = nnf(parse("exists x. (x = 3 & exists x. x = 2)"))
    assert not logic._certified(sentence, Decision(True, certificate=3), iter(range(MAX_DISJUNCTS)))
    assert decide(sentence) == Decision(True, certificate=3)


@pytest.mark.parametrize("text,decision", [
    ("exists x. (x < 0 | exists y. (y = f(x) & p3(y)))", Decision(True, certificate=0)),
    ("exists x. x > 3 & (x < 0 | exists y. (y = f(x) & p3(y)))", Decision(True, certificate=4)),
    ("exists x. x > 0 & (x < 0 | exists y. (y = 2*x & p2(y + 1)))", Decision(False)),
    ("forall x. x < 1 | (x > 0 & forall y. (!(y = 2*x) | p2(y)))", Decision(True)),
    ("forall x. 3 < x | (x < 0 & forall y. (!(y = f(x)) | p3(y)))", Decision(False, certificate=0)),
])
def test_a_disjunct_free_of_the_pinned_variable_goes_over_as_it_is(text, decision):
    # exists y. D == D where y is not free in D: the pair's y is pinned from
    # the block's DNF though one disjunct has no y, and the rest is exact
    sentence = logic._miniscope(nnf(parse(text)))
    left, outer = next(logic._eliminations(sentence, *_read(sentence)))
    assert not outer and _one_deep(left)
    assert logic._decide(sentence, None, iter(range(MAX_DISJUNCTS))) == decision


def test_a_pinned_quantifier_whose_dnf_passes_the_disjunct_cap_is_not_eliminated():
    # x = n pins x, but !p70(x) is 69 disjuncts, past MAX_DISJUNCTS; !p65(x)
    # is 64, under it, so the cap, not a missing pin, is why x stays
    assert logic._dnf(nnf(parse("x = n & !p70(x)"))) is None and logic._pinned("x", None) is None
    assert logic._pinned("x", logic._dnf(nnf(parse("x = n & !p65(x)")))) is not None
    sentence = nnf(parse("forall n. n < 1 | exists x. (x = n & !p70(x))"))
    assert list(logic._eliminations(sentence, *_read(sentence))) == []
    assert decide(sentence, bound=80) == Decision(False, BOUNDED, bound=80, certificate=70)


# --- values -----------------------------------------------------------------

_X, _Y = Var("x"), Var("y")
_SAME_FIELDS = [(Add(_X, _Y), Sub(_X, _Y)), (Div(3, _X), Scale(3, _X)),
                (Exists("x", Cmp(_X, "<", _Y)), Forall("x", Cmp(_X, "<", _Y))),
                (Not(_X), F(_X))]


@pytest.mark.parametrize("a, b", _SAME_FIELDS, ids=["Add-Sub", "Div-Scale", "Exists-Forall",
                                                    "Not-F"])
def test_kinds_with_the_same_fields_never_compare_equal(a, b):
    assert tuple(a) == tuple(b)
    assert a != b and b != a and not a == b
    assert len({a, b}) == 2
    assert a == type(a)(*a) and hash(a) == hash(type(a)(*a))
    assert _replace(Cmp(a, "<", b), a, Const(0)) == Cmp(Const(0), "<", b)
    assert _replace(Cmp(a, "<", b), b, Const(0)) == Cmp(a, "<", Const(0))


def test_constructor_contracts():
    with pytest.raises(ValueError):
        Cmp(_X, ">", _Y)
    with pytest.raises(ValueError):
        Div(0, _X)
    for mod_x, mod_fx in ((0, 2), (2, 0)):
        with pytest.raises(ValueError):
            PPred(mod_x, mod_fx, 0, 0, Const(0), Const(9))
    pred = PPred(3, 5, 7, -1, Const(0), Const(9))
    assert (pred.res_x, pred.res_fx) == (1, 4)
    assert repr(Congruence(2, 5)) == "Congruence(modulus=2, residue=1)"
    values = [(_X, "name"), (Cmp(_X, "=", _Y), "rel"), (pred, "res_x"),
              (Congruence(2, 5), "residue"), (Decision(True), "truth"),
              (Piece(1, None), "hi"), (LinearConstraint("<", 1, 0), "slope"),
              (WindowSet(()), "pieces")]
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    # every record is a collections.namedtuple with these fields; a
    # LinearConstraint keeps its cleared integer form, and reads slope and
    # offset from it
    fields = {
        BeattyDecomposition: "kind x", Congruence: "modulus residue",
        CongruenceSystem: "on_x on_fx lower upper", SolveOutcome: "status witness",
        BracketInfo: "side index", LinearConstraint: "relation n m c0",
        Piece: "lo hi mod res", WindowSet: "pieces",
        AxiomVReport: "slope offset index side checked counterexamples",
        Var: "name", Const: "value", Add: "left right", Sub: "left right",
        Scale: "coeff term", F: "arg", Cmp: "left rel right", Div: "modulus term",
        PPred: "mod_x mod_fx res_x res_fx low high", Not: "body", And: "left right",
        Or: "left right", Implies: "left right", Exists: "var body", Forall: "var body",
        Decision: "truth provenance bound certificate reason",
        NormalFormQuery: "var on_x on_fx lower upper linear",
        FamilyResult: "name decisions instances failures", AuditReport: "bound families",
    }
    for kind, names in fields.items():
        assert kind._fields == tuple(names.split()), kind
        assert not hasattr(kind._make(names.split()), "__dict__"), kind
    assert Decision(True) == (True, EXACT, None, None, None)
    assert Piece(4, None) == (4, None, 1, 0)
    assert SolveOutcome("no_solution") == ("no_solution", None)
    assert SolveOutcome.fallback_used is False and SolveOutcome("witness", 5).fallback_used is False
    assert LinearConstraint("<", Fraction(3, 2), Fraction(-1, 4)) == ("<", 4, 6, -1)


# --- audit ------------------------------------------------------------------

COVERING = ("forall x. forall m. x < 1 | m < 1 | m >= f(x)"
            " | (exists t. t > 0 & t < x & (f(t) = m | f(t) + t = m))")


def test_axiom_audit_small():
    report = axiom_audit(100)
    assert report.passed
    assert [fam.name for fam in report.families] == [
        "f-minimum", "beatty-partition", "window-predicate", "convergent-implications",
        "f-identities"]
    assert [len(fam.decisions) for fam in report.families] == [4, 2, 0, 126, 2]
    # enumeration only beside the families whose proof reads what it proves, or is declined
    assert [fam.instances for fam in report.families] == [201, 200, 400, 0, 0]
    # every sentence is True (exact) but the covering half of f-minimum, which no route decides
    decisions = dict(d for fam in report.families for d in fam.decisions)
    assert decisions.pop(COVERING) == Decision(None, reason="no exact route decides it")
    assert set(decisions.values()) == {Decision(True)}


def test_an_audit_family_fails_on_a_refutation_and_without_enumeration_on_an_unknown():
    refuted = "forall x. x < 1 | !(f(x) > 7) | 3*x >= 16"  # criterion 07's literal claim
    enumerated = lambda n: (n, [])  # noqa: E731
    assert not logic._family(2, "refuted", None, refuted).passed
    assert not logic._family(2, "refuted", enumerated, refuted).passed
    assert not logic._family(2, "declined", None, COVERING).passed
    assert logic._family(2, "declined", enumerated, COVERING).passed
    failing = lambda n: (n, ["x=1: a failure"])  # noqa: E731
    assert logic._family(2, "enumerated", failing).failures == ("x=1: a failure",)


class _ReadsWythoff(Exception):
    pass


def test_families_without_enumeration_are_proved_without_wythoffs_identity(monkeypatch):
    # A proof that reads the identity it proves checks nothing.  With _folds (the rewrite by
    # Wythoff's identities) raising, the two families with no enumeration still pass, and each
    # partition and "no earlier hit" sentence reaches _folds: why those keep their enumeration.
    families = {fam.name: [text for text, _ in fam.decisions] for fam in axiom_audit(2).families}

    def folds(*args):
        raise _ReadsWythoff

    monkeypatch.setattr(logic, "_folds", folds)
    for name in ("f-identities", "convergent-implications"):
        assert logic._family(2, name, None, *families[name]).passed
    for text in [*families["beatty-partition"], families["f-minimum"][2]]:
        with pytest.raises(_ReadsWythoff):
            logic._family(2, "reads _folds", None, text)


def test_axiom_audit_degenerate_range():
    assert axiom_audit(2).passed
    with pytest.raises(ValueError):
        axiom_audit(1)


def test_axiom_audit_refuses_a_range_past_its_cap_before_it_enumerates(monkeypatch):
    def enumerate_(n):
        raise AssertionError("enumerated")

    monkeypatch.setattr(logic, "_minimum", enumerate_)
    with pytest.raises(ValueError, match=r"in \[2, 1000000\]"):
        axiom_audit(logic.MAX_AUDIT_RANGE + 1)
