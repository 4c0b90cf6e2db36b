import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatty.golden import (
    additivity_defect,
    decompose,
    f_floor,
    f_inverse,
    f_zeck,
    isqrt,
    linear_defect,
    phi_ceil,
    phi_floor,
    phi_mul,
    phi_norm,
    phi_sign,
)
from beatty.numeration import c


def _phi_interval(digits: int) -> tuple[Fraction, Fraction]:
    """A rational interval containing phi, from sqrt(5) to that many digits."""
    sqrt5_lo = Fraction(isqrt(5 * 10 ** (2 * digits)), 10**digits)
    return (1 + sqrt5_lo) / 2, (1 + sqrt5_lo + Fraction(1, 10**digits)) / 2


# tight to 40 digits: the test oracle for anything that claims to compare
# against phi exactly
_PHI_LO, _PHI_HI = _phi_interval(40)


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
    assert phi_sign(3, -2) == -1  # 3/2 < phi
    assert phi_sign(2, -1) == 1
    assert phi_sign(1, -1) == -1
    assert phi_sign(0, 0) == 0
    assert phi_sign(-1, 1) == 1  # phi - 1
    assert phi_sign(-2, 1) == -1 and phi_sign(1, 0) == 1 and phi_sign(0, -5) == -1


@given(st.integers(min_value=-10**12, max_value=10**12),
       st.integers(min_value=-10**12, max_value=10**12))
def test_compare_phi_against_interval_oracle(p, q):
    # p + q*phi for q >= 1 has the sign of p/q - phi; |p + q*phi| is at
    # least about 1/(3|q|), far outside the 1e-40 sliver
    lo, hi = sorted((p + q * _PHI_LO, p + q * _PHI_HI))
    if lo > 0:
        assert phi_sign(p, q) == 1
    elif hi < 0:
        assert phi_sign(p, q) == -1
    else:
        assert p == q == 0 and phi_sign(p, q) == 0


def test_quad_floor_examples():
    assert phi_floor(0, 1) == 1  # phi
    assert phi_floor(0, 0) == 0
    assert phi_floor(4, -2) == 0  # 3 - sqrt(5)
    assert phi_ceil(4, -2) == 1
    assert phi_floor(0, 1, 2) == 0 and phi_ceil(0, 1, 2) == 1  # phi/2
    assert phi_floor(0, -3, 2) == -3 and phi_ceil(0, -3, 2) == -2  # -3*phi/2
    assert phi_floor(10, 0, 5) == phi_ceil(10, 0, 5) == 2
    assert phi_floor(-1, 0, 2) == -1 and phi_ceil(-1, 0, 2) == 0


def _floor_and_ceil(p: int, q: int, d: int, phi: tuple[Fraction, Fraction]) -> tuple[int, int]:
    """floor and ceiling of (p + q*phi)/d from an interval around phi."""
    lo, hi = sorted(((p + q * phi[0]) / d, (p + q * phi[1]) / d))
    assert lo.__floor__() == hi.__floor__() and lo.__ceil__() == hi.__ceil__(), \
        "oracle interval too wide"
    return lo.__floor__(), lo.__ceil__()


def test_quad_floor_against_interval_oracle():
    rng = random.Random(202)
    phi = _PHI_LO, _PHI_HI
    for _ in range(1000):
        p, q = rng.randint(-500, 500), rng.randint(-500, 500)
        d = rng.choice([1, 1, 2, 3, 7, 9, 1000])
        assert (phi_floor(p, q, d), phi_ceil(p, q, d)) == _floor_and_ceil(p, q, d, phi)
    # a 4,000-digit q, either sign, against phi to 4,100 digits
    phi = _phi_interval(4100)
    for _ in range(20):
        q = rng.choice([-1, 1]) * rng.randrange(10**3999, 10**4000)
        p, d = rng.randrange(-10**4000, 10**4000), rng.randrange(1, 10**60)
        assert (phi_floor(p, q, d), phi_ceil(p, q, d)) == _floor_and_ceil(p, q, d, phi)


@settings(max_examples=200)
@given(st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=1, max_value=10**4))
def test_quad_floor_bracketing(p, q, d):
    k = phi_floor(p, q, d)
    # k <= (p + q*phi)/d < k + 1, checked with the rational phi interval
    value_lo, value_hi = sorted(((p + q * _PHI_LO) / d, (p + q * _PHI_HI) / d))
    assert k <= value_lo and value_hi < k + 1
    assert phi_ceil(p, q, d) == (k if q == 0 and p % d == 0 else k + 1)


def test_phi_mul_and_norm_examples():
    assert phi_mul(0, 1, 0, 1) == (1, 1)  # phi^2 = phi + 1
    assert phi_mul(1, 1, -1, 1) == (0, 1)  # (phi + 1)(phi - 1) = phi
    assert phi_mul(3, 0, -2, 5) == (-6, 15) and phi_mul(0, 0, 7, 7) == (0, 0)
    assert phi_norm(0, 1) == -1  # phi * (1 - phi)
    assert phi_norm(1, 1) == 1 and phi_norm(2, -1) == 1  # phi^2 and 2 - phi, units
    assert phi_norm(3, 0) == 9 and phi_norm(0, 0) == 0


def _interval(p: int, q: int, phi: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """An interval containing p + q*phi, from an interval around phi."""
    return tuple(sorted((p + q * phi[0], p + q * phi[1])))


def _times(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    products = [x * y for x in a for y in b]
    return min(products), max(products)


def _check_mul_and_norm(p: int, q: int, r: int, s: int, phi: tuple[Fraction, Fraction]) -> None:
    # the pair of phi_mul is in the interval of the product, and phi_norm is
    # the one integer in that of (p + q*phi)(p + q - q*phi); a wrong pair
    # would differ by a nonzero number of Z[phi], far wider than the intervals
    lo, hi = _times(_interval(p, q, phi), _interval(r, s, phi))
    got = _interval(*phi_mul(p, q, r, s), phi)
    assert max(lo, got[0]) <= min(hi, got[1])
    lo, hi = _times(_interval(p, q, phi), _interval(p + q, -q, phi))
    assert hi - lo < 1 and lo <= phi_norm(p, q) <= hi


def test_phi_mul_and_norm_against_interval_oracle():
    rng = random.Random(303)
    phi = _PHI_LO, _PHI_HI
    for _ in range(1000):
        _check_mul_and_norm(*(rng.randint(-10**6, 10**6) for _ in range(4)), phi)
    # 4,000-digit p and q of either sign, against phi to 8,200 digits
    phi = _phi_interval(8200)
    for _ in range(20):
        p, q = (rng.choice([-1, 1]) * rng.randrange(10**3999, 10**4000) for _ in range(2))
        _check_mul_and_norm(p, q, rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6), phi)


@settings(max_examples=200)
@given(*[st.integers(min_value=-10**9, max_value=10**9)] * 4)
def test_phi_norm_is_multiplicative_and_zero_only_at_zero(p, q, r, s):
    assert phi_norm(*phi_mul(p, q, r, s)) == phi_norm(p, q) * phi_norm(r, s)
    assert (phi_norm(p, q) == 0) is (p == q == 0)
