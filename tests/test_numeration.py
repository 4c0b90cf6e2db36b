import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beatty.golden import decompose, f_floor, f_inverse, f_zeck
from beatty.numeration import (
    c,
    fib,
    fib_word_prefix,
    PISANO_TRIAL_LIMIT,
    Unfactored,
    pisano,
    unzeckendorf,
    zeckendorf,
)


def test_fib_values():
    assert [fib(i) for i in range(11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert fib(10) == 89
    assert fib(300) == fib(299) + fib(298)


def test_fib_follows_the_recurrence_across_every_index():
    assert all(fib(i) == fib(i - 1) + fib(i - 2) for i in range(2, 301))


def test_fib_rejects_negative_index():
    with pytest.raises(ValueError):
        fib(-1)


def test_zeckendorf_examples():
    assert zeckendorf(1) == [1]
    assert zeckendorf(11) == [3, 5]
    assert zeckendorf(100) == [3, 5, 10]


def test_zeckendorf_rejects_nonpositive():
    for n in (0, -5):
        with pytest.raises(ValueError):
            zeckendorf(n)


def test_unzeckendorf_examples():
    assert unzeckendorf([1]) == 1
    assert unzeckendorf([3, 5]) == 11
    assert unzeckendorf([2, 4]) == 7


def test_unzeckendorf_rejects_invalid():
    for bad in ([], [0], [2, 3], [3, 2], [1, 2]):
        with pytest.raises(ValueError):
            unzeckendorf(bad)


@given(st.integers(min_value=1, max_value=100_000))
def test_zeckendorf_round_trip_and_invariants(n):
    rep = zeckendorf(n)
    assert unzeckendorf(rep) == n
    assert rep[0] >= 1
    assert all(b - a >= 2 for a, b in zip(rep, rep[1:]))


def _count_representations(n, max_index):
    # independent oracle: count all non-adjacent index sets (indices >= 1)
    def count(remaining, top):
        if remaining == 0:
            return 1
        total = 0
        i = top
        while i >= 1 and fib(i) > remaining:
            i -= 1
        while i >= 1:
            if fib(i) <= remaining:
                total += count(remaining - fib(i), i - 2)
            i -= 1
        return total

    return count(n, max_index)


def test_zeckendorf_uniqueness_exhaustive():
    top = len(zeckendorf(600)) and zeckendorf(600)[-1] + 2
    for n in range(1, 601):
        assert _count_representations(n, top) == 1


def _wythoff_lower(limit):
    """[0, f(1), ..., f(limit)] with no phi: f(x) is the least positive
    integer not among f(t) and f(t) + t for t < x."""
    used = bytearray(3 * limit + 3)
    out, m = [0], 1
    for x in range(1, limit + 1):
        while used[m]:
            m += 1
        out.append(m)
        used[m] = used[m + x] = 1
    return out


def _is_f(x, y):
    """y = floor(phi*x) for x >= 1: y < phi*x < y + 1, doubled and squared."""
    t = 2 * y - x
    return t >= 0 and t * t < 5 * x * x < (t + 2) ** 2


def _least_above(y, fibs):
    """Least x >= 1 with phi*x > y, tested on that inequality upwards from
    below y*fibs[-2]/fibs[-1], which is within y/fibs[-1]**2 < 1 of y/phi."""
    def above(x):
        t = 2 * y - x
        return t < 0 or 5 * x * x > t * t

    x = max(y * fibs[-2] // fibs[-1] - 2, 0)
    assert fibs[-1] > y and not above(x)
    while not above(x):
        x += 1
    return x


def _check_zeckendorf(n, fibs):
    rep = zeckendorf(n)
    assert rep[0] >= 1 and all(b - a >= 2 for a, b in zip(rep, rep[1:]))
    assert sum(fibs[i] for i in rep) == n


def test_zeckendorf_of_a_huge_value_keeps_no_table():
    n = random.Random(4291).randrange(10**4290, 10**4291)
    tracemalloc.start()
    try:
        zeckendorf(n)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 2**20


def test_unzeckendorf_of_a_huge_value_keeps_no_table():
    n = random.Random(4291).randrange(10**4290, 10**4291)
    digits = zeckendorf(n)
    tracemalloc.start()
    try:
        assert unzeckendorf(digits) == n
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 2**20


def test_f_inverse_of_a_huge_value_is_fast():
    x = 7 * 10**4289
    y = f_floor(x)  # 4,291 digits
    start = time.perf_counter()
    assert f_inverse(y) == x
    assert time.perf_counter() - start < 0.05


def test_fibonacci_path_matches_brute_force_definitions():
    limit = 100_000
    fibs = [1, 1]
    lower = _wythoff_lower(limit)
    inverse = {y: x for x, y in enumerate(lower) if x}
    upper = {y + x: x for x, y in enumerate(lower) if x}
    for n in range(1, limit + 1):
        while fibs[-1] <= n:
            fibs.append(fibs[-1] + fibs[-2])
        _check_zeckendorf(n, fibs)
        assert f_zeck(n) == lower[n]
        assert f_inverse(n) == inverse.get(n)
        assert c(n) == (n in inverse)
        assert decompose(n) == (("F", inverse[n]) if n in inverse else ("G", upper[n]))
    rng = random.Random(17)
    values = []
    for digits in (16, 300, 4291):
        values += [rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(2)]
        while fibs[-2] < 10 ** (digits - 1):
            fibs.append(fibs[-1] + fibs[-2])
        values += [fibs[-2] - 1, fibs[-2], fibs[-2] + 1, fibs[-1] - 1]
    while fibs[-1] <= max(values):
        fibs.append(fibs[-1] + fibs[-2])
    for n in values:
        _check_zeckendorf(n, fibs)
        assert _is_f(n, f_zeck(n))
        x = _least_above(n, fibs)
        expected = x if _is_f(x, n) else None
        assert f_inverse(n) == expected
        assert c(n) == (expected is not None)
        kind, x = decompose(n)
        assert (kind == "F") == (expected is not None)
        assert x == expected if kind == "F" else _is_f(x, n - x)


def test_pisano_examples():
    assert pisano(1) == 1
    assert pisano(2) == 3
    assert pisano(3) == 8
    assert pisano(10) == 60


def test_pisano_rejects_nonpositive():
    with pytest.raises(ValueError):
        pisano(0)


@pytest.mark.parametrize("n", range(2, 51))
def test_pisano_is_the_least_period(n):
    period = pisano(n)
    values = [fib(i) % n for i in range(3 * period + period + 1)]
    assert all(values[i + period] == values[i] for i in range(3 * period))
    for smaller in range(1, period):
        if any(values[i + smaller] != values[i] for i in range(2 * period)):
            continue
        pytest.fail(f"period {smaller} < {period} also works for n={n}")


def _pisano_scan(n):
    """The least k > 0 at which the pair (F_k, F_k+1) mod n is (0, 1) again."""
    a, b, k = 0, 1 % n, 0
    while True:
        a, b, k = b, (a + b) % n, k + 1
        if (a, b) == (0, 1 % n):
            return k


def test_pisano_matches_a_scan():
    # every n below 3000, and some higher prime powers
    for n in [*range(1, 3000), 2**14, 5**6, 3**4 * 7**3, 11**4]:
        assert pisano(n) == _pisano_scan(n), n


def test_pisano_of_a_ten_digit_prime_is_fast():
    started = time.perf_counter()
    assert pisano(1000000007) == 2000000016
    assert pisano(12 * 1000000007) == 2000000016  # lcm with pisano(12) = 24
    assert time.perf_counter() - started < 2


@pytest.mark.parametrize("n,period", [(2**14000, 3 * 2**13999), (3**8000, 8 * 3**7999)],
                         ids=["2**14000", "3**8000"])
def test_pisano_of_a_smooth_thousands_digit_modulus_is_fast(n, period):
    started = time.perf_counter()
    assert pisano(n) == period
    assert time.perf_counter() - started < 1


def test_pisano_refuses_a_modulus_trial_division_cannot_factor():
    n = 1000003 * 1000033  # both primes above the limit, the product above its square
    assert n > PISANO_TRIAL_LIMIT ** 2
    with pytest.raises(Unfactored, match="trial division"):
        pisano(n)


def test_word_rows_match_substitution():
    # row k of the substitution seeded with "10" is the prefix of length fib(k + 2)
    rows = [fib_word_prefix(fib(k + 2)) for k in range(5)]
    assert rows == ["10", "101", "10110", "10110101", "1011010110110"]
    # each row rewrites 1 -> 10, 0 -> 1 into the next
    for row, nxt in zip(rows, rows[1:]):
        assert "".join("10" if ch == "1" else "1" for ch in row) == nxt


def test_word_prefix_examples():
    assert fib_word_prefix(0) == ""
    assert fib_word_prefix(1) == "1"
    assert fib_word_prefix(2) == "10"
    assert fib_word_prefix(8) == "10110101"


def test_word_has_no_adjacent_zeros():
    assert "00" not in fib_word_prefix(100_000)


def test_c_examples():
    assert c(1) == 1
    assert c(2) == 0
    assert c(7) == 0
    with pytest.raises(ValueError):
        c(0)


def test_c_agrees_with_word_prefix():
    limit = fib(24)  # 75025
    word = fib_word_prefix(limit)
    assert all(c(n) == int(word[n - 1]) for n in range(1, limit + 1))


@settings(max_examples=60)
@given(st.integers(min_value=4, max_value=22), st.data())
def test_word_shift_identity(n, data):
    # c(fib(n) + i) = c(i) for 1 <= i <= fib(n - 1)
    i = data.draw(st.integers(min_value=1, max_value=fib(n - 1)))
    assert c(fib(n) + i) == c(i)
