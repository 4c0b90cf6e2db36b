import random
from fractions import Fraction
from functools import reduce
from unittest.mock import patch

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from beatty.golden import f_floor, phi_sign
from beatty.windows import (
    LinearConstraint,
    Piece,
    WindowSet,
    _intersect_pieces,
    _make_piece,
    _piece_key,
    axiom_v_check,
    convergent_d,
    convergent_u,
    intersect_streams,
    least_adequate_index,
    locate_slope,
    solution_window,
    window_pieces,
)

GRID_SLOPES = [Fraction(0, 1), Fraction(1, 1), Fraction(3, 2), Fraction(8, 5),
               Fraction(5, 3), Fraction(2, 1), Fraction(13, 8)]


def test_convergent_examples():
    assert convergent_d(0) == Fraction(1, 1)
    assert convergent_d(1) == Fraction(3, 2)
    assert convergent_d(2) == Fraction(8, 5)
    assert convergent_u(0) == Fraction(2, 1)
    assert convergent_u(1) == Fraction(5, 3)
    assert convergent_u(2) == Fraction(13, 8)
    for convergent in (convergent_d, convergent_u):
        with pytest.raises(ValueError):
            convergent(-1)


def test_convergent_ladders_bracket_phi():
    for i in range(31):
        d, u = convergent_d(i), convergent_u(i)
        assert phi_sign(d.numerator, -d.denominator) == -1
        assert phi_sign(u.numerator, -u.denominator) == 1
        if i:
            assert convergent_d(i - 1) < d
            assert convergent_u(i - 1) > u


def test_locate_slope_examples():
    assert (locate_slope(Fraction(3, 2)).side, locate_slope(Fraction(3, 2)).index) == ("below", 1)
    assert (locate_slope(Fraction(2, 1)).side, locate_slope(Fraction(2, 1)).index) == ("above", 0)
    assert (locate_slope(Fraction(1, 1)).side, locate_slope(Fraction(1, 1)).index) == ("below", 0)
    assert locate_slope(Fraction(1, 3)).index == 0
    assert locate_slope(Fraction(7, 2)).index == 0
    with pytest.raises(ValueError):
        locate_slope(Fraction(-1, 2))


@given(st.integers(0, 400), st.integers(1, 200))
def test_locate_slope_brackets(p, q):
    slope = Fraction(p, q)
    info = locate_slope(slope)
    if info.side == "below":
        if slope >= 1:
            assert convergent_d(info.index) <= slope < convergent_d(info.index + 1)
        else:
            assert info.index == 0
    else:
        if slope <= 2:
            assert convergent_u(info.index + 1) < slope <= convergent_u(info.index)
        else:
            assert info.index == 0


def _members(window, limit):
    return [x for x in range(1, limit + 1) if x in window]


def test_solution_window_examples():
    w = solution_window(LinearConstraint("=", Fraction(1), 1))
    assert w.kind == "finite_interval" and _members(w, 50) == [2, 3]
    w = solution_window(LinearConstraint("=", Fraction(2), -1))
    assert _members(w, 50) == [1, 2]
    w = solution_window(LinearConstraint(">", Fraction(1), 1))
    assert w.kind == "half_line_up" and _members(w, 50) == list(range(4, 51))
    w = solution_window(LinearConstraint("<", Fraction(1), 1))
    assert _members(w, 50) == [1]
    with pytest.raises(ValueError):
        LinearConstraint("<=", Fraction(1), 1)


def test_solution_window_fractional_slope_is_strided():
    w = solution_window(LinearConstraint("=", Fraction(3, 2), 0))
    assert _members(w, 100) == [2, 4, 6, 8]
    w = solution_window(LinearConstraint("<", Fraction(3, 2), 0))
    assert _members(w, 100) == [1, 3]


def test_empty_equality_window():
    w = solution_window(LinearConstraint("=", Fraction(1, 2), 1))
    assert w.is_empty and w.kind == "empty"


def _brute_members(constraint, limit):
    return [x for x in range(1, limit + 1) if constraint.holds(x)]


def test_window_agrees_with_brute_scan():
    for slope in GRID_SLOPES:
        for offset in range(-8, 9):
            for relation in "<=>":
                constraint = LinearConstraint(relation, slope, offset)
                window = solution_window(constraint)
                assert _members(window, 1500) == _brute_members(constraint, 1500), constraint


def test_window_brute_agreement_beyond_the_grid():
    # negative and large slopes are reachable through formula normalization
    for num, den in [(-2, 1), (-1, 2), (-5, 3), (7, 2), (3, 1), (11, 4)]:
        for offset in (-6, -1, 0, 3, 9):
            for relation in "<=>":
                constraint = LinearConstraint(relation, Fraction(num, den), offset)
                window = solution_window(constraint)
                assert _members(window, 800) == _brute_members(constraint, 800), constraint


def test_half_line_membership_beyond_scan():
    rng = random.Random(5)
    for slope in GRID_SLOPES:
        for relation in "<>":
            constraint = LinearConstraint(relation, slope, 3)
            window = solution_window(constraint)
            for _ in range(10):
                x = rng.randint(10_001, 10**7)
                assert (x in window) == constraint.holds(x)


def test_trichotomy():
    for slope in GRID_SLOPES:
        for offset in (-5, -1, 0, 2, 7):
            windows = [solution_window(LinearConstraint(rel, slope, offset)) for rel in "<=>"]
            for x in range(1, 600):
                assert sum(x in w for w in windows) == 1


def _run(lo, hi):
    """The window lo <= x <= hi over x >= 1 (hi None: unbounded above)."""
    return WindowSet.from_pieces([_make_piece(lo, hi)])


def test_windowset_operations():
    a = _run(5, 40)
    b = _run(20, None)
    assert (a.kind, b.kind) == ("finite_interval", "half_line_up")
    inter = a.intersect(b)
    assert _members(inter, 100) == list(range(20, 41))
    assert _members(a.intersect(_run(11, 14)), 100) == list(range(11, 15))
    assert a.intersect(_run(1, 2)).is_empty
    assert _members(_run(1, 4), 10) == [1, 2, 3, 4]
    assert _run(-5, 4).kind == "half_line_down" and _run(-5, 4) == _run(1, 4)
    assert _run(-6, None) == WindowSet((Piece(1, None),))
    assert _run(4, 3).is_empty and _run(5, 2).kind == "empty" and _run(-3, 0).is_empty
    assert b.pieces[-1].hi is None and 10**9 in b


@settings(max_examples=200)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 6), st.integers(0, 5),
       st.integers(1, 80))
def test_windowset_intersection_is_setwise(lo, hi, mod, res, probe):
    piece = _make_piece(lo, hi, mod, res)
    window = WindowSet.from_pieces([piece])
    other = _run(10, 50)
    merged = window.intersect(other)
    assert (probe in merged) == ((probe in window) and (probe in other))


def test_window_boundaries_satisfy_constraint():
    for slope in GRID_SLOPES:
        for offset in (-3, 0, 4):
            constraint = LinearConstraint("=", slope, offset)
            window = solution_window(constraint)
            for piece in window.pieces:
                assert constraint.holds(piece.lo)
                if piece.lo - piece.mod >= 1:
                    assert not constraint.holds(piece.lo - piece.mod)
                assert constraint.holds(piece.hi)
                assert not constraint.holds(piece.hi + piece.mod)


def test_axiom_v_check_passing_example():
    report = axiom_v_check(Fraction(1), 1, 1, 1000)
    assert report.passed and report.side == "below"


def test_axiom_v_literal_form_fails():
    # the convergent-substituted implications are not valid for every
    # index past the bracket: pinned counterexamples
    report = axiom_v_check(Fraction(1), 2, 1, 10)
    assert 5 in report.counterexamples
    report = axiom_v_check(Fraction(3, 2), 0, 2, 100)
    assert 5 in report.counterexamples
    report = axiom_v_check(Fraction(2), -1, 1, 100)
    assert 3 in report.counterexamples
    # drift persists at bracket+3 for slopes with tight gaps
    report = axiom_v_check(Fraction(8, 5), 8, 5, 1000)
    assert 500 in report.counterexamples


def test_axiom_v_check_index_validation():
    with pytest.raises(ValueError):
        axiom_v_check(Fraction(3, 2), 0, 1, 100)  # bracket index is 1, need >= 2


def test_axiom_v_adequate_index_restricted_form_passes():
    for slope in GRID_SLOPES:
        bracket = locate_slope(slope)
        for offset in range(-8, 9):
            index = least_adequate_index(slope, offset)
            assert index >= bracket.index + 1
            report = axiom_v_check(slope, offset, index, 2000, only_integer_rhs=True)
            assert report.passed, (slope, offset, index, report.counterexamples[:3])


def _implications_hold(s, k, w, x):
    """axiom_v_check's docstring, read at x: below phi with w = d_i, and in
    the mirrored forms with w = u_i above it."""
    fx, rhs = f_floor(x), s * x + k
    low, high = Fraction(k) / (w - s), Fraction(k + 1) / (w - s)
    if w > s:
        if fx == rhs:
            return low <= x < high
        return x < low if fx < rhs else x >= high
    if fx == rhs:
        return high < x <= low
    return x > low if fx < rhs else x <= high


_slopes = st.builds(Fraction, st.integers(0, 200), st.integers(1, 60))


@settings(max_examples=300, deadline=None)
@given(_slopes, st.integers(-12, 12), st.integers(1, 4), st.integers(1, 400), st.booleans())
def test_axiom_v_check_transcribes_its_implications(slope, offset, past, x_range, only):
    bracket = locate_slope(slope)
    index = bracket.index + past
    w = (convergent_d if bracket.side == "below" else convergent_u)(index)
    step = slope.denominator if only else 1
    xs = range(step, x_range + 1, step)
    report = axiom_v_check(slope, offset, index, x_range, only_integer_rhs=only)
    assert report.side == bracket.side and report.checked == len(xs)
    assert report.counterexamples == tuple(
        x for x in xs if not _implications_hold(slope, offset, w, x))


def _switch(holds_before):
    """The integer c with holds_before(x) exactly for x < c (x monotone)."""
    low, high = -1, 1
    while holds_before(high):
        high *= 2
    while not holds_before(low):
        low *= 2
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if holds_before(mid) else (low, mid)
    return high


def _thresholds(slope, offset, gap_below_t):
    """Where gap*x < t switches, for t = k and k + 1; gap_below_t(x, t)
    tests gap*x < t, which holds before the switch below phi and after it
    above phi."""
    below = phi_sign(slope.numerator, -slope.denominator) < 0
    return [_switch(lambda x: gap_below_t(x, t) is below) for t in (offset, offset + 1)]


def _exact_below(slope):
    """(phi - s)*x < t, decided through phi_sign alone."""
    def test(x, t):
        if x == 0:
            return 0 < t
        r = slope + Fraction(t, x)  # phi < r for x > 0, phi > r for x < 0
        return phi_sign(r.numerator, -r.denominator) == (1 if x > 0 else -1)
    return test


@settings(max_examples=300, deadline=None)
@given(_slopes, st.integers(-12, 12))
def test_least_adequate_index_is_least(slope, offset):
    bracket = locate_slope(slope)
    index = least_adequate_index(slope, offset)
    exact = _thresholds(slope, offset, _exact_below(slope))

    def substituted(i):
        gap = (convergent_d if bracket.side == "below" else convergent_u)(i) - slope
        return _thresholds(slope, offset, lambda x, t: gap * x < t)

    assert substituted(index) == exact
    if index - 1 >= bracket.index + 1:
        assert substituted(index - 1) != exact


def test_criterion_07_grid_fails_as_pinned():
    # criterion 07's own grid: its expected failure, pinned, so that a
    # change to axiom_v_check shows here rather than behind that failure
    failures = []
    for slope in GRID_SLOPES:
        j = locate_slope(slope).index
        for offset in range(-8, 9):
            for index in (j + 1, j + 3):
                report = axiom_v_check(slope, offset, index, 10_000)
                if not report.passed:
                    failures.append((slope, offset, index, report.counterexamples[0]))
    assert len(failures) == 86
    assert failures[0] == (Fraction(0), 7, 1, 5)


# --- the settled-zone representation ------------------------------------------

PHI = (1 + 5 ** 0.5) / 2


def _near_phi_constraints(n_values, seed):
    """n*f(x) <rel> m*x + k with m/n 0.3-5% on either side of phi and k in
    [-2n, 2n]."""
    rng = random.Random(seed)
    for n in n_values:
        for side in (-1, 1):
            for dev in (0.003, 0.012, 0.05):
                slope = Fraction(round(n * PHI * (1 + side * dev)), n)
                for k in (-2 * n, rng.randint(-2 * n, 2 * n), 2 * n):
                    for relation in "<=>":
                        yield LinearConstraint(relation, slope, Fraction(k, n))


def _zone_end(constraint):
    """Past this x the comparison no longer depends on x (the settled side)."""
    n, m, c0 = constraint.integer_form()
    return int((abs(c0) + n) / abs(n * PHI - m)) + 2


# Near-convergent slopes: their zones outgrow the n residue classes, so these
# sets are built per class.
PER_CLASS_SLOPES = [Fraction(13, 8), Fraction(144, 89), Fraction(809, 500)]


def test_window_brute_agreement_near_phi():
    constraints = list(_near_phi_constraints((97, 500, 2000), seed=11))
    constraints += [LinearConstraint(rel, s, Fraction(k, s.denominator)) for s in PER_CLASS_SLOPES
                    for k in (-s.denominator, 0, 3) for rel in "<=>"]
    for constraint in constraints:
        window = solution_window(constraint)
        limit = _zone_end(constraint) + 2 * constraint.slope.denominator
        assert _members(window, limit) == _brute_members(constraint, limit), constraint


def test_near_phi_membership_far_out():
    rng = random.Random(12)
    constraints = list(_near_phi_constraints((97, 2000), seed=13))
    constraints += [LinearConstraint(rel, s, Fraction(5, s.denominator))
                    for s in PER_CLASS_SLOPES for rel in "<=>"]
    for constraint in constraints:
        window = solution_window(constraint)
        for x in [rng.randint(1, 10**7) for _ in range(25)]:
            assert (x in window) == constraint.holds(x), (constraint, x)


def test_both_shapes_are_built():
    runs = solution_window(LinearConstraint(">", Fraction(162, 100), 7))
    assert all(p.mod == 1 for p in runs.pieces)
    per_class = solution_window(LinearConstraint(">", Fraction(144, 89), 7))
    assert per_class.pieces and all(p.mod == 89 for p in per_class.pieces)


def test_a_convergent_window_is_one_piece_per_class():
    # near 987/610 the zone holds about sqrt(5)*610**2 points, and about as
    # many runs; per class the set is 610 pieces
    constraint = LinearConstraint(">", Fraction(987, 610), 3)
    pieces = list(window_pieces(constraint))
    assert 0 < len(pieces) <= 610 and all(p.mod == 610 for p in pieces)
    assert all(p.lo <= q.lo for p, q in zip(pieces, pieces[1:]))
    window = WindowSet(tuple(pieces))
    for x in [*range(1, 3000), *range(2497000, 2520000, 7)]:
        assert (x in window) == constraint.holds(x), x


def _assert_canonical_runs(window):
    runs = [p for p in window.pieces if p.mod == 1]
    for a, b in zip(runs, runs[1:]):
        assert a.hi is not None and a.hi + 1 < b.lo, (a, b)


def test_window_far_from_phi_is_one_half_line():
    window = solution_window(LinearConstraint(">", Fraction(1, 1_000_000), 0))
    assert window.kind == "half_line_up"
    assert window == WindowSet((Piece(1, None),)) == _run(0, None)


def test_equal_sets_have_equal_pieces():
    window = solution_window(LinearConstraint(">", Fraction(3, 2), 0))
    _assert_canonical_runs(window)
    tail = window.pieces[-1].lo
    points = [Piece(x, x) for x in _members(window, tail - 1)]
    rebuilt = WindowSet.from_pieces(points + [Piece(tail, None)])
    assert rebuilt == window
    assert _run(1, None).intersect(window) == window == window.intersect(window)
    split = WindowSet.from_pieces([_make_piece(0, 5), _make_piece(6, 9)])
    assert split == _run(1, 9)
    assert split.kind == "half_line_down"


_run_windows = st.builds(
    lambda rel, num, offset: solution_window(LinearConstraint(rel, Fraction(num, 100), offset)),
    st.sampled_from("<>"), st.integers(150, 175), st.integers(-40, 40),
).filter(lambda w: all(p.mod == 1 for p in w.pieces))  # 8/5 and 81/50 are built per class
_class_windows = st.builds(
    lambda rel, slope, offset: solution_window(LinearConstraint(rel, slope, offset)),
    st.sampled_from("<=>"), st.sampled_from([Fraction(13, 8), Fraction(8, 5), Fraction(21, 13)]),
    st.integers(-20, 20))


@settings(max_examples=150, deadline=None)
@given(_run_windows | _class_windows, _run_windows | _class_windows, st.integers(1, 3000))
def test_windowset_intersection_with_runs_is_setwise(a, b, probe):
    merged = a.intersect(b)
    both = (probe in a) and (probe in b)
    assert (probe in merged) == both
    assert merged == b.intersect(a)
    if all(p.mod == 1 for w in (a, b) for p in w.pieces):
        _assert_canonical_runs(merged)
    # the sweep itself, for runs, classes and both: ascending by lo, and the same set
    stream = list(intersect_streams(a.pieces, b.pieces))
    assert all(p.lo <= q.lo for p, q in zip(stream, stream[1:])), stream
    assert any(p.lo <= probe and (p.hi is None or probe <= p.hi) and probe % p.mod == p.res
               for p in stream) == both


def _overlaps(a, b):
    """Every piece that a pair of pieces of a and b with overlapping ranges holds, by key."""
    return sorted((r for p in a for q in b
                   if (p.hi is None or q.lo <= p.hi) and (q.hi is None or p.lo <= q.hi)
                   if (r := _intersect_pieces(p, q))), key=_piece_key)


_windows = _run_windows | _class_windows
# streams of up to three windows met, so that one stream holds several moduli
_streams = st.lists(_windows, min_size=1, max_size=3).map(
    lambda ws: list(reduce(intersect_streams, [w.pieces for w in ws])))


@settings(max_examples=200, deadline=None)
@given(_streams, _streams)
@example([Piece(1, 40)], [_make_piece(c, None, 8, c) for c in range(2, 10)])  # a run, 8 classes
@example([_make_piece(c, None, 5, c) for c in range(1, 6)],
         [_make_piece(c, c + 40, 8, c) for c in range(1, 9)])  # classes of two moduli
def test_the_sweep_meets_every_pair_whose_ranges_overlap(a, b):
    # keeping open pieces by class skips only pairs that hold no common point
    assert list(intersect_streams(a, b)) == _overlaps(a, b)


# n <= 60, half of them Fibonacci numbers, with m = round(n*phi) (where that
# is near n*phi, as for Fibonacci n, the set is built per class), m within 3
# of it, or m/n anywhere in [-2, 3]: all three shapes occur
_stream_constraints = (st.integers(1, 60) | st.sampled_from([5, 8, 13, 21, 34, 55])).flatmap(
    lambda n: st.builds(
        lambda rel, m, c: LinearConstraint(rel, Fraction(m, n), Fraction(c, n)),
        st.sampled_from("<=>"),
        st.just(round(n * PHI)) | st.integers(-3, 3).map(lambda d: round(n * PHI) + d)
        | st.integers(-2 * n, 3 * n),
        st.integers(-n, 2 * n)))


@settings(max_examples=300, deadline=None)
@given(_stream_constraints)
@example(LinearConstraint(">", Fraction(162, 100), 7))  # runs
@example(LinearConstraint("<", Fraction(55, 34), 1))  # one piece per class
@example(LinearConstraint("<", Fraction(89, 55), -3))  # per class above phi, after the cuts
@example(LinearConstraint("=", Fraction(13, 8), 0))  # one class
def test_window_stream_matches_the_eager_window(constraint):
    stream = list(window_pieces(constraint))
    window = solution_window(constraint)
    assert tuple(stream) == window.pieces == WindowSet.from_pieces(stream).pieces
    limit = _zone_end(constraint) + 2 * constraint.n
    assert _members(window, limit) == _brute_members(constraint, limit), constraint
    runs = all(p.mod == 1 for p in stream) and constraint.relation != "="
    event("=" if constraint.relation == "=" else "runs" if runs else "per class")
    for before, p in zip([None, *stream], stream):
        # each end holds, and the class point past it does not
        assert constraint.holds(p.lo) and (p.lo - p.mod < 1 or not constraint.holds(p.lo - p.mod))
        assert p.hi is None or constraint.holds(p.hi) and not constraint.holds(p.hi + p.mod)
        if runs and before is not None:  # the neighbour test
            assert before.hi is not None and p.lo >= before.hi + 2, (before, p)


def _cut(piece, start):
    """piece cut to x >= start, or None where nothing of it is left."""
    lo = max(piece.lo, start + (piece.res - start) % piece.mod)
    return None if piece.hi is not None and piece.hi < lo else piece._replace(lo=lo)


@settings(max_examples=300, deadline=None)
@given(_stream_constraints, st.integers(-5, 400))
@example(LinearConstraint(">", Fraction(162, 100), 7), 20)  # runs, one cut at 20
@example(LinearConstraint("<", Fraction(162, 100), 0), 400)  # runs, the zone all below 400
@example(LinearConstraint("<", Fraction(55, 34), 1), 50)  # one piece per class
@example(LinearConstraint("<", Fraction(89, 55), -3), 13700)  # per class above phi, cut
@example(LinearConstraint("=", Fraction(13, 8), 0), 9)  # one class
def test_a_stream_from_start_is_the_whole_stream_cut_there(constraint, start):
    probes = []
    holds = LinearConstraint.holds
    with patch.object(LinearConstraint, "holds", lambda c, x: probes.append(x) or holds(c, x)):
        stream = list(window_pieces(constraint, start))
    start = max(start, 1)
    whole = window_pieces(constraint)
    assert stream == list(WindowSet.from_pieces([_cut(p, start) for p in whole]).pieces)
    # each end of each piece, and the class point past it, is probed from start on
    ends = set()
    for p in stream:
        ends |= {p.lo, p.lo - p.mod} | (set() if p.hi is None else {p.hi, p.hi + p.mod})
    assert set(probes) == {x for x in ends if x >= start}, constraint


def _nf_sentences(seed):
    """exists x. (0 < x & congruence & first [& second]) with near-phi
    comparisons.  The first is < below phi or > above it, which bounds the
    solution set by its zone, so a scan up to the zone end is a complete
    oracle; it is returned with the sentence."""
    rng = random.Random(seed)
    congruences = ["p5(x + 2)", "p7(f(x) + 3)", "p4(f(x) + 1) & p3(x)", "p2(x)"]
    for i in range(40):
        side = rng.choice((-1, 1))
        n = rng.choice([97, 500, 2000])
        m = round(n * PHI * (1 + side * rng.uniform(0.003, 0.05)))
        if i % 4 == 0:
            n, m = 13, 21  # a window built per class
        rel = "<" if m / n < PHI else ">"
        k = rng.randint(-2 * n, 2 * n)
        parts = ["0 < x", rng.choice(congruences), f"{n}*f(x) {rel} {m}*x + {k}"]
        if i % 2:
            n2 = rng.choice([8, 97, 300])
            m2 = round(n2 * PHI * (1 - side * rng.uniform(0.003, 0.05)))
            parts.append(f"{n2}*f(x) {rng.choice('<>=')} {m2}*x + {rng.randint(-2 * n2, 2 * n2)}")
        yield "exists x. (" + " & ".join(parts) + ")", LinearConstraint(
            rel, Fraction(m, n), Fraction(k, n))


def test_nf_decider_on_near_phi_windows_agrees_with_a_scan():
    from beatty.logic import decide, evaluate, parse

    truths = set()
    for text, first in _nf_sentences(17):
        sentence = parse(text)
        decision = decide(sentence)
        assert decision.provenance == "exact", text

        def holds(x):
            return evaluate(sentence.body, {sentence.var: x}).truth

        scan = any(holds(x) for x in range(1, _zone_end(first) + 1))
        assert decision.truth == scan, text
        if decision.truth:
            assert holds(decision.witness), (text, decision.witness)
        truths.add(decision.truth)
    assert truths == {True, False}
