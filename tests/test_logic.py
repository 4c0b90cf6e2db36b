import dataclasses
import random
from fractions import Fraction

import pytest

from beatty.congruence import Congruence, CongruenceSystem, solve_system
from beatty.golden import f_floor
from beatty.logic import (
    BOUNDED,
    EXACT,
    MAX_NESTING,
    Add,
    And,
    Cmp,
    Const,
    Decision,
    Div,
    Exists,
    F,
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
    _and_d,
    _negate,
    _or_d,
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
from formula_gen import nf_brute_holds, nf_brute_witness, random_formula, random_nf_sentence


# --- parsing ------------------------------------------------------------

def test_parse_examples():
    assert parse("f(3) = 4") == Cmp(F(Const(3)), "=", Const(4))
    expected = Exists("x", And(Div(2, Var("x")),
                               Cmp(F(Var("x")), "<", Add(Var("x"), Var("x")))))
    assert parse("exists x. (p2(x) & f(x) < x + x)") == expected


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


def test_parse_caps_left_operands_of_chains():
    # a group as the left operand of a chain sits one level deeper per
    # operator, so nesting groups that each start a chain adds up
    text = "x < 1"
    for _ in range(5):
        text = f"({text})" + " & x < 1" * 20
    with pytest.raises(ParseError, match="nesting"):
        parse(text)


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


def _walk(formula, env, bound):
    """The original evaluator: one Decision per node, both sides of every
    connective evaluated, quantifiers scanned 0, 1, -1, ..., bound, -bound
    over a name -> value dict that is restored afterwards."""
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
        return Decision(True, witness=out.witness) if out.is_witness else Decision(False)
    if isinstance(formula, Not):
        return _negate(_walk(formula.body, env, bound))
    if isinstance(formula, And):
        return _and_d(_walk(formula.left, env, bound), _walk(formula.right, env, bound))
    if isinstance(formula, Or):
        return _or_d(_walk(formula.left, env, bound), _walk(formula.right, env, bound))
    if isinstance(formula, Implies):
        return _or_d(_negate(_walk(formula.left, env, bound)),
                     _walk(formula.right, env, bound))
    existential = isinstance(formula, Exists)
    saved = env.get(formula.var)
    unknown_reason = decisive = None
    for v in [0] + [s * k for k in range(1, bound + 1) for s in (1, -1)]:
        env[formula.var] = v
        d = _walk(formula.body, env, bound)
        if d.truth is existential:
            found = (v, None) if existential else (None, v)
            decisive = Decision(existential, d.provenance,
                                d.bound if d.provenance == BOUNDED else None, *found)
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
    if not dataclasses.is_dataclass(node):
        return node
    return dataclasses.replace(node, **{field.name: _rename(getattr(node, field.name), names)
                                        for field in dataclasses.fields(node)})


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


# --- decide ----------------------------------------------------------------

def test_decide_examples():
    d = decide(parse("exists x. (0 < x & f(x) = x + 1)"))
    assert d.truth is True and d.provenance == EXACT and d.witness == 2
    d = decide(parse("f(5) < 8"))
    assert d.truth is False and d.provenance == EXACT
    d = decide(parse("forall x. forall y. (f(x + y) < f(x) + f(y) + 2)"), bound=200)
    assert d.truth is True and d.provenance == BOUNDED and d.bound == 200


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


def test_nnf_and_free_vars():
    s = parse("!(exists x. (p2(x) & f(x) < 5))")
    pushed = nnf(s)
    assert isinstance(pushed, Forall)
    assert free_vars(s) == set()
    assert free_vars(parse("f(x) < y + 1")) == {"x", "y"}


# --- audit ------------------------------------------------------------------

def test_axiom_audit_small():
    report = axiom_audit(100)
    assert report.passed
    names = [fam.name for fam in report.families]
    assert len(names) == 5 and len(set(names)) == 5


def test_axiom_audit_degenerate_range():
    assert axiom_audit(2).passed
    with pytest.raises(ValueError):
        axiom_audit(1)
