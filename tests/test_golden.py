import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatty.golden import (
    QuadRat,
    additivity_defect,
    compare_phi,
    decompose,
    f_floor,
    f_inverse,
    f_zeck,
    isqrt,
    linear_defect,
    quad_ceil,
    quad_floor,
)
from beatty.numeration import c

# rational interval containing sqrt(5), tight to 40 digits: the test oracle
# for anything that claims to compare against phi exactly
_SQRT5_LO = Fraction(isqrt(5 * 10**80), 10**40)
_SQRT5_HI = _SQRT5_LO + Fraction(1, 10**40)
_PHI_LO = (1 + _SQRT5_LO) / 2
_PHI_HI = (1 + _SQRT5_HI) / 2


def test_isqrt_examples():
    assert isqrt(0) == 0
    assert isqrt(20) == 4
    assert isqrt(245) == 15
    with pytest.raises(ValueError):
        isqrt(-1)


@given(st.integers(min_value=0, max_value=10**40))
def test_isqrt_brackets(n):
    s = isqrt(n)
    assert s * s <= n < (s + 1) * (s + 1)


def test_f_floor_examples():
    assert f_floor(-3) == 0
    assert f_floor(0) == 0
    assert f_floor(1) == 1
    assert f_floor(7) == 11


def test_f_zeck_examples():
    assert f_zeck(4) == 6
    assert f_zeck(5) == 8
    assert f_zeck(3) == 4
    with pytest.raises(ValueError):
        f_zeck(0)


def test_dual_implementation_agrees():
    assert all(f_floor(x) == f_zeck(x) for x in range(1, 100_001))


@given(st.integers(min_value=1, max_value=10**30))
def test_dual_implementation_agrees_large(x):
    assert f_floor(x) == f_zeck(x)


@given(st.integers(min_value=1, max_value=10**24))
def test_f_floor_matches_phi_interval(x):
    fx = f_floor(x)
    assert _PHI_LO * x - 1 < fx <= _PHI_HI * x


def test_f_inverse_examples():
    assert f_inverse(11) == 7
    assert f_inverse(2) is None
    assert f_inverse(1) == 1
    with pytest.raises(ValueError):
        f_inverse(0)


def test_f_inverse_round_trip():
    for x in range(1, 100_001):
        assert f_inverse(f_floor(x)) == x


@given(st.integers(min_value=1, max_value=10**6))
def test_f_inverse_none_exactly_off_the_word(y):
    assert (f_inverse(y) is None) == (c(y) == 0)


def test_decompose_examples():
    assert decompose(4) == decompose(4).__class__("F", 3)
    assert (decompose(7).kind, decompose(7).x) == ("G", 3)
    assert (decompose(1).kind, decompose(1).x) == ("F", 1)
    with pytest.raises(ValueError):
        decompose(0)


def test_partition_no_gap_no_overlap():
    limit = 20_000
    counts = bytearray(limit + 1)
    for x in range(1, limit + 1):
        fx = f_floor(x)
        for value in (fx, fx + x):
            if value <= limit:
                counts[value] += 1
    assert all(counts[n] == 1 for n in range(1, limit + 1))


@given(st.integers(min_value=1, max_value=10**9))
def test_decompose_verifies(n):
    d = decompose(n)
    if d.kind == "F":
        assert f_floor(d.x) == n
    else:
        assert f_floor(d.x) + d.x == n


def test_minimum_characterization():
    # f(x) = min of naturals not yet used by {f(t), f(t)+t : 1 <= t < x}
    limit = 3000
    used = {0}
    for x in range(1, limit + 1):
        expected = next(v for v in range(1, 3 * limit) if v not in used)
        assert f_floor(x) == expected
        used.add(f_floor(x))
        used.add(f_floor(x) + x)


def test_monotonicity_and_growth():
    values = [f_floor(x) for x in range(1, 10_001)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(f_floor(x) > x for x in range(2, 10_001))


def test_composition_identities():
    for x in range(1, 100_001):
        fx = f_floor(x)
        assert f_floor(fx) == fx + x - 1
        assert f_floor(fx + x) == 2 * fx + x


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_additivity_defect_in_01(x, y):
    assert additivity_defect(x, y) in (0, 1)


def test_additivity_defect_bulk():
    rng = random.Random(1618)
    for _ in range(10_000):
        x, y = rng.randint(1, 10**9), rng.randint(1, 10**9)
        assert additivity_defect(x, y) in (0, 1)
    with pytest.raises(ValueError):
        additivity_defect(0, 1)


def test_homogeneous_defect_bound():
    for n in range(1, 21):
        for x in range(1, 1001):
            defect = f_floor(n * x) - n * f_floor(x)
            assert 0 <= defect <= n - 1


def test_linear_defect_examples_and_bound():
    assert linear_defect(1, 1, 2) == 0
    assert linear_defect(2, 1, 1) == 1
    assert linear_defect(3, 2, 1) == 1
    rng = random.Random(11)
    for _ in range(2000):
        r = rng.randint(1, 20)
        x = rng.randint(1, 10**6)
        b = rng.randint(1, 10**6)
        assert 0 <= linear_defect(r, x, b) <= r
    with pytest.raises(ValueError):
        linear_defect(0, 1, 1)


def test_compare_phi_examples():
    assert compare_phi(3, 2) == -1
    assert compare_phi(2, 1) == 1
    assert compare_phi(1, 1) == -1
    with pytest.raises(ValueError):
        compare_phi(1, 0)


@given(st.integers(min_value=-10**12, max_value=10**12),
       st.integers(min_value=1, max_value=10**12))
def test_compare_phi_against_interval_oracle(p, q):
    value = Fraction(p, q)
    if value < _PHI_LO:
        assert compare_phi(p, q) == -1
    elif value > _PHI_HI:
        assert compare_phi(p, q) == 1
    # values inside the 1e-40 sliver are skipped; they cannot arise here


def test_quadrat_canonical_form():
    assert QuadRat(2, 2, 4) == QuadRat(1, 1, 2)
    assert QuadRat(1, 1, -2) == QuadRat(-1, -1, 2)
    assert QuadRat(0, 0, 7) == QuadRat(0, 0, 1)
    assert QuadRat(3, 0, 6) == QuadRat(1, 0, 2)
    with pytest.raises(ValueError):
        QuadRat(1, 1, 0)


def test_quad_floor_examples():
    assert quad_floor(QuadRat(1, 1, 2)) == 1  # phi
    assert quad_floor(QuadRat(0, 0, 1)) == 0
    assert quad_floor(QuadRat(3, -1, 1)) == 0  # 3 - sqrt(5)
    assert quad_ceil(QuadRat(3, -1, 1)) == 1


def test_quad_floor_against_interval_oracle():
    rng = random.Random(202)
    for _ in range(1000):
        v = QuadRat(rng.randint(-500, 500), rng.randint(-500, 500), rng.choice([-9, -3, -2, -1, 1, 2, 3, 7]))
        lo = (v.p + v.q * (_SQRT5_LO if v.q >= 0 else _SQRT5_HI)) / v.r
        hi = (v.p + v.q * (_SQRT5_HI if v.q >= 0 else _SQRT5_LO)) / v.r
        floor_lo, floor_hi = lo.__floor__(), hi.__floor__()
        assert floor_lo == floor_hi, "oracle interval too wide"
        assert quad_floor(v) == floor_lo
        assert quad_ceil(v) == -((-lo).__floor__())


@settings(max_examples=200)
@given(st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=1, max_value=10**4))
def test_quad_floor_bracketing(p, q, r):
    v = QuadRat(p, q, r)
    k = quad_floor(v)
    # k <= v < k+1, checked with the rational sqrt(5) interval
    value_lo = (Fraction(v.p) + v.q * (_SQRT5_LO if v.q >= 0 else _SQRT5_HI)) / v.r
    value_hi = (Fraction(v.p) + v.q * (_SQRT5_HI if v.q >= 0 else _SQRT5_LO)) / v.r
    assert k <= value_lo and value_hi < k + 1
