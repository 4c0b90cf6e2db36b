import itertools
import os
import random
import subprocess
import sys
import time
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beatty import congruence
from beatty.congruence import (
    Congruence,
    CongruenceSystem,
    crt_combine,
    satisfies,
    solve_image,
    solve_linear,
    solve_system,
    solve_system_bounded,
)
from beatty.golden import f_floor
from beatty.numeration import fib, pisano, zeckendorf


def test_congruence_normalizes_residue():
    assert Congruence(5, 12).residue == 2
    assert Congruence(5, -1).residue == 4
    with pytest.raises(ValueError):
        Congruence(0, 0)


def test_system_window_validation():
    with pytest.raises(ValueError):
        CongruenceSystem(Congruence(2, 0), Congruence(2, 0), lower=5, upper=5)
    CongruenceSystem(Congruence(2, 0), Congruence(2, 0), lower=5, upper=6)  # empty but legal


def test_crt_examples():
    combined = crt_combine([Congruence(2, 1), Congruence(3, 2)])
    assert (combined.modulus, combined.residue) == (6, 5)
    combined = crt_combine([Congruence(4, 0), Congruence(6, 2)])
    assert (combined.modulus, combined.residue) == (12, 8)
    assert crt_combine([Congruence(2, 0), Congruence(2, 1)]) is None
    with pytest.raises(ValueError):
        crt_combine([])


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(1, 12), st.integers(0, 50)), min_size=1, max_size=4))
def test_crt_matches_exhaustive_scan(raw):
    congruences = [Congruence(n, m) for n, m in raw]
    total = lcm(*[cg.modulus for cg in congruences])
    if total > 10_000:
        return
    solutions = {x for x in range(total) if all(cg.holds(x) for cg in congruences)}
    combined = crt_combine(congruences)
    if combined is None:
        assert not solutions
    else:
        assert combined.modulus == total or total % combined.modulus == 0
        assert solutions == {x for x in range(total) if combined.holds(x)}


@settings(max_examples=300)
@given(st.integers(-30, 30), st.integers(-50, 50), st.integers(1, 40))
def test_solve_linear_matches_a_scan(a, c, n):
    solutions = {x for x in range(n) if (a * x + c) % n == 0}
    solved = solve_linear(a, c, n)
    if solved is None:
        assert not solutions
    else:
        assert n % solved.modulus == 0
        assert solutions == {x for x in range(n) if solved.holds(x)}


def test_solve_image_examples():
    # contract: any verified c; the brute-force minima for the record
    def brute_min(n, m):
        x = 1
        while f_floor(x) % n != m:
            x += 1
        return x

    assert brute_min(2, 0) == 3
    assert brute_min(1, 0) == 1
    assert brute_min(3, 2) == 5
    for n, m in ((2, 0), (1, 0), (3, 2)):
        x = solve_image(n, m)
        assert f_floor(x) % n == m
    with pytest.raises(ValueError):
        solve_image(3, 3)


def test_solve_image_full_range():
    for n in range(1, 31):
        for m in range(n):
            x = solve_image(n, m)
            assert x >= 1 and f_floor(x) % n == m


# --- the paper's construction, kept as an independent cross-check ----------

def _qualifies(j, n):
    return fib(j) % n == 0 and fib(j + 1) % n == 1 % n


def find_period_index(n, min_index):
    """Least j > min_index with fib(j) = 0 and fib(j+1) = 1 (mod n), in the
    closed form: those indices are exactly j = -1 (mod pisano(n))."""
    period = pisano(n)
    return min_index + 1 + (-min_index - 2) % period


def pump(n, m, n2, m2):
    """The constructive witness: adding fib(j), for a qualifying index j at
    least two above every Zeckendorf index of x, keeps x mod n and adds
    fib(j+1) = 1 to f(x) mod n'."""
    shared = lcm(n, n2)
    x = m if m >= 1 else n
    top = zeckendorf(x)[-1]
    while f_floor(x) % n2 != m2:
        top = find_period_index(shared, top + 1)
        x += fib(top)
    return x


def test_find_period_index_examples():
    assert find_period_index(1, 0) == 1
    j = find_period_index(2, 0)
    assert j == 2 and fib(j) % 2 == 0 and fib(j + 1) % 2 == 1
    j = find_period_index(4, 5)
    assert j > 5 and fib(j) % 4 == 0 and fib(j + 1) % 4 == 1


def test_even_period_index_exists_only_for_tiny_moduli():
    # the closed form against a scan of two periods; pisano(n) is even for
    # n >= 3, so an even qualifying index requires n <= 2
    for n in range(1, 40):
        period = pisano(n)
        qualifying = [j for j in range(2 * period) if _qualifies(j, n)]
        assert qualifying == [j for j in range(2 * period) if (j + 1) % period == 0]
        assert any(j % 2 == 0 for j in qualifying) == (n <= 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 12, 19, 30, 36])
def test_any_parity_period_index_properties(n):
    period = pisano(n)
    for min_index in (0, 3, 50):
        j = find_period_index(n, min_index)
        assert j > min_index
        assert j <= min_index + 4 * period + 4
        assert _qualifies(j, n)
        assert (j + 1) % period == 0
        assert not any(_qualifies(i, n) for i in range(min_index + 1, j))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=60),
       st.booleans())
def test_high_index_addition_shifts_f_by_next_fib(x, gap, even):
    # adding fib(j) for j at least two above every index of x adds exactly
    # fib(j+1) to f(x), whatever the parity of j
    top = zeckendorf(x)[-1]
    j = top + gap
    if even and j % 2:
        j += 1
    assert f_floor(x + fib(j)) == f_floor(x) + fib(j + 1)


def test_high_index_addition_bulk():
    rng = random.Random(55)
    for _ in range(1000):
        x = rng.randint(1, 10**9)
        j = zeckendorf(x)[-1] + rng.randint(2, 40)
        assert f_floor(x + fib(j)) == f_floor(x) + fib(j + 1)


def _brute_exists(n, m, n2, m2, limit):
    x = m if m >= 1 else n
    while x <= limit:
        if f_floor(x) % n2 == m2:
            return x
        x += n
    return None


def test_solve_system_examples():
    out = solve_system(CongruenceSystem(Congruence(2, 1), Congruence(3, 2)))
    assert out.is_witness and out.witness % 2 == 1 and f_floor(out.witness) % 3 == 2
    assert _brute_exists(2, 1, 3, 2, 10**4) == 5
    out = solve_system(CongruenceSystem(Congruence(1, 0), Congruence(1, 0)))
    assert out.is_witness
    out = solve_system(CongruenceSystem(Congruence(2, 0), Congruence(3, 1)))
    assert out.is_witness
    assert _brute_exists(2, 0, 3, 1, 10**4) == 10


def test_solve_system_grid_constructive():
    fallbacks = 0
    for n, n2 in itertools.product(range(1, 11), repeat=2):
        for m in range(n):
            for m2 in range(n2):
                out = solve_system(CongruenceSystem(Congruence(n, m), Congruence(n2, m2)))
                assert out.is_witness
                fallbacks += out.fallback_used
                assert out.witness % n == m
                assert f_floor(out.witness) % n2 == m2
    assert fallbacks == 0


def test_solve_system_bounded_examples():
    out = solve_system_bounded(CongruenceSystem(Congruence(2, 1), Congruence(3, 2), 0, 10))
    assert out.is_witness and out.witness == 5
    out = solve_system_bounded(CongruenceSystem(Congruence(2, 0), Congruence(2, 1), 2, 4))
    assert out.status == "no_solution"
    out = solve_system_bounded(CongruenceSystem(Congruence(1, 0), Congruence(1, 0), 7, 9))
    assert out.is_witness and out.witness == 8


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(0, 8), st.integers(1, 9), st.integers(0, 8),
       st.integers(-50, 300), st.integers(2, 400))
def test_bounded_agrees_with_enumeration(n, m, n2, m2, low, width):
    system = CongruenceSystem(Congruence(n, m), Congruence(n2, m2),
                              lower=low, upper=low + width)
    out = solve_system_bounded(system)
    expected = [x for x in range(low + 1, low + width)
                if x % n == m % n and f_floor(x) % n2 == m2 % n2]
    if expected:
        assert out.is_witness and out.witness in expected
    else:
        assert out.status == "no_solution"


def test_bounded_half_line_up_pumps_above():
    rng = random.Random(7)
    for _ in range(100):
        n, n2 = rng.randint(1, 12), rng.randint(1, 12)
        m, m2 = rng.randrange(n), rng.randrange(n2)
        low = rng.randint(10**6, 10**9)
        system = CongruenceSystem(Congruence(n, m), Congruence(n2, m2), lower=low)
        out = solve_system_bounded(system)
        assert out.is_witness and out.witness > low
        assert satisfies(system, out.witness)


def test_bounded_half_line_down():
    system = CongruenceSystem(Congruence(5, 2), Congruence(3, 0), upper=-100)
    out = solve_system_bounded(system)
    assert out.is_witness and out.witness < -100 and out.witness % 5 == 2
    # nonzero f-residue forces positive witnesses, which the window excludes
    system = CongruenceSystem(Congruence(5, 2), Congruence(3, 1), upper=10)
    assert solve_system_bounded(system).status == "no_solution"
    system = CongruenceSystem(Congruence(5, 2), Congruence(3, 2), upper=100)
    out = solve_system_bounded(system)
    assert out.is_witness and satisfies(system, out.witness)



# --- the least witness ------------------------------------------------------

def test_convergent_substitution_is_exact_below_fib_k():
    for k in range(1, 22):
        p, q = fib(k + 1), fib(k)
        assert all(f_floor(x) == p * x // q for x in range(1, q))


def _least_witness(n, m, n2, m2, lower, upper):
    """Scan for the solver's answer: the least witness, except that a window
    open only to the left with f-residue 0 yields its greatest witness <= 0."""
    if m2 == 0 and lower is None and upper is not None:
        top = min(upper - 1, 0)
        return next(x for x in range(top, top - n, -1) if x % n == m)
    start = 1 if lower is None or (lower < 0 and m2) else lower + 1
    xs = range(start, upper) if upper is not None else itertools.count(start)
    return next((x for x in xs if x % n == m and f_floor(x) % n2 == m2), None)


@settings(max_examples=600, deadline=None)
@given(st.integers(1, 15), st.integers(0, 14), st.integers(1, 15), st.integers(0, 14),
       st.sampled_from(["free", "finite", "lower", "upper"]),
       st.integers(-80, 400), st.integers(1, 500))
@example(7, 3, 5, 0, "lower", -30, 1)  # x <= 0 has f(x) = 0: the least member, -25
@example(7, 3, 5, 0, "finite", -30, 4)  # the window (-30, -26) misses the class
@example(7, 3, 5, 1, "lower", -30, 1)  # a nonzero f-residue needs x >= 1
@example(7, 3, 5, 0, "upper", -30, 1)  # open below: the greatest witness, -32
@example(13, 0, 7, 6, "free", 0, 1)  # 13*phi/7 is near 3: k has to double
def test_witness_is_the_least(n, m, n2, m2, shape, low, width):
    m, m2 = m % n, m2 % n2
    lower = low if shape in ("finite", "lower") else None
    upper = {"finite": low + width, "upper": low}.get(shape)
    system = CongruenceSystem(Congruence(n, m), Congruence(n2, m2), lower, upper)
    out = solve_system(system)
    want = _least_witness(n, m, n2, m2, lower, upper)
    assert out.witness == want and out.is_witness == (want is not None)
    if want is None:
        assert out.status == "no_solution"


@settings(max_examples=600, deadline=None)
@given(st.integers(1, 12), st.integers(-40, 40), st.integers(-40, 40), st.integers(0, 11),
       st.integers(0, 11))
@example(4, 8, 1, 0, 0)  # a = 0 (mod M) and b outside the target: no t at all
@example(6, 4, 0, 1, 0)  # a*t + b stays even mod 6, the target is odd
def test_least_step_is_the_least_t_of_a_scan_over_one_period(M, a, b, L, w):
    # (a*t + b) mod M repeats with period M / gcd(a, M), so a scan of
    # 0 <= t < M finds the least t in [L, L + w], or shows there is none
    L = L % M
    w = w % (M - L)  # L + w < M
    want = next((t for t in range(M) if L <= (a * t + b) % M <= L + w), None)
    assert congruence._least_step(a, b, M, L, w) == want


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(0, 11), st.integers(1, 12), st.integers(0, 11))
def test_least_witness_against_the_pumped_witness(n, m, n2, m2):
    m, m2 = m % n, m2 % n2
    system = CongruenceSystem(Congruence(n, m), Congruence(n2, m2))
    pumped = pump(n, m, n2, m2)
    out = solve_system(system)
    assert satisfies(system, pumped) and satisfies(system, out.witness)
    assert 1 <= out.witness <= pumped


@pytest.mark.parametrize("huge", ["n", "n'", "lo"])
def test_4300_digit_inputs_are_fast(huge):
    rng = random.Random(4300)
    digits = lambda: rng.randrange(10**4299, 10**4300)
    n = digits() if huge == "n" else 7
    n2 = digits() if huge == "n'" else 11
    lo = digits() if huge == "lo" else 5
    system = CongruenceSystem(Congruence(n, rng.randrange(n)),
                              Congruence(n2, rng.randrange(n2)), lower=lo)
    started = time.perf_counter()
    out = solve_system(system)
    assert time.perf_counter() - started < 0.05
    assert out.is_witness and satisfies(system, out.witness)


def test_4300_digit_inputs_together_need_no_deep_recursion():
    # about 0.84 * ln(n') Euclid steps, each on numbers the size of n*n'*lo
    rng = random.Random(4301)
    n, n2, lo = (rng.randrange(10**4299, 10**4300) for _ in range(3))
    system = CongruenceSystem(Congruence(n, rng.randrange(n)),
                              Congruence(n2, rng.randrange(n2)), lower=lo, upper=3 * lo)
    out = solve_system(system)
    assert out.status == "no_solution" or satisfies(system, out.witness)


# Under python -O, with one check at a time made to refuse every point
# (satisfies in congruence, _query_holds and evaluate in logic), each witness
# check still raises AssertionError, which an assert statement would not.
_REFUSED_WITNESS = """
import sys
from beatty import congruence, logic
from beatty.congruence import Congruence, CongruenceSystem
assert_ran = False
assert (assert_ran := True)
if assert_ran:
    sys.exit("not run under -O")
query = lambda text: logic.to_normal_form(logic.parse(text))
checks = [
    (congruence, "satisfies", lambda system, x: False,
     lambda: congruence.solve_system(CongruenceSystem(Congruence(2, 1), Congruence(3, 2)))),
    (logic, "_query_holds", lambda query, x: False,
     lambda: logic.decide_existential_nf(query("exists x. x = 3"))),
    (logic, "_query_holds", lambda query, x: False,
     lambda: logic.decide_existential_nf(query("exists x. x = -3"))),
    (logic, "evaluate", lambda *args: logic.Decision(False),
     lambda: logic._decide_one_variable(logic.nnf(logic.parse("exists x. x = 3")))),
]
for number, (module, name, refuse, check) in enumerate(checks):
    kept = getattr(module, name)
    setattr(module, name, refuse)
    try:
        check()
    except AssertionError:
        continue
    finally:
        setattr(module, name, kept)
    sys.exit(f"check {number} did not raise")
"""


def test_witness_checks_raise_under_python_dash_O():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-O", "-c", _REFUSED_WITNESS], capture_output=True,
                         text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
