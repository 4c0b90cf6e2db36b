"""Fibonacci numeration: Fibonacci numbers, Zeckendorf representations,
Pisano periods, and the infinite Fibonacci word."""

from functools import lru_cache
from math import lcm

__all__ = [
    "fib",
    "fib_index_above",
    "zeckendorf",
    "unzeckendorf",
    "pisano",
    "PISANO_TRIAL_LIMIT",
    "Unfactored",
    "fib_word_prefix",
    "c",
]

# Index convention used throughout the package: fib(0) = fib(1) = 1,
# fib(2) = 2, fib(3) = 3, ...  Zeckendorf indices start at 1 (the value 1
# appears at indices 0 and 1; admitting index 0 would break uniqueness).


def _fib_pair(k: int, n: int = 0) -> tuple[int, int]:
    """(F_k, F_(k+1)) on the 0, 1, 1, 2, ... convention, by fast doubling
    over the bits of k; reduced mod n when n is given."""
    a, b = 0, 1
    for bit in bin(k)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
        if n:
            a, b = a % n, b % n
    return a, b


@lru_cache(maxsize=4096)
def fib(i: int) -> int:
    """i-th Fibonacci number under fib(0) = fib(1) = 1."""
    if i < 0:
        raise ValueError(f"fib index must be non-negative, got {i}")
    return _fib_pair(i + 1)[0]


def fib_index_above(n: int) -> int:
    """An index k with fib(k) > n, at most a few above the least one."""
    return int(n.bit_length() * 1.4405) + 2  # fib(k) >= phi**(k-1) > n


def _zeck_walk(n: int):
    """Yield (j, fib(j + 1)) for each Zeckendorf index j of n >= 1, largest
    first.

    Greedy: take the largest fib(j) <= remainder.  The remainder after
    subtracting fib(j) is < fib(j - 1), which forces the non-adjacency gap
    and makes the result the unique such representation.  Each step down
    is fib(j - 1) = fib(j + 1) - fib(j), and after a digit j the walk steps
    to j - 2 at once with fib(j - 2) = 2*fib(j) - fib(j + 1), so fib is
    called only at the top.
    """
    j = fib_index_above(n)
    a, b = fib(j), fib(j + 1)
    while n > 0:
        while a > n:  # fib(1) = 1 <= n, so j never reaches 0
            j, a, b = j - 1, b - a, a
        yield j, b
        n -= a
        j, a, b = j - 2, 2 * a - b, b - a


def zeckendorf(n: int) -> list[int]:
    """Ascending, non-adjacent Fibonacci indices (all >= 1) summing to n."""
    if n < 1:
        raise ValueError(f"zeckendorf requires n >= 1, got {n}")
    return [j for j, _ in _zeck_walk(n)][::-1]


def unzeckendorf(indices: list[int]) -> int:
    """Inverse of zeckendorf; rejects anything but a valid representation.
    One walk up the indices with fib(j + 1) = fib(j) + fib(j - 1) sums the
    value, so no Fibonacci number is kept."""
    if not indices:
        raise ValueError("empty representation")
    total, prev = 0, None
    j, a, b = 1, 1, 2  # fib(j), fib(j + 1)
    for i in indices:
        if i < 1:
            raise ValueError(f"index {i} out of range (must be >= 1)")
        if prev is not None and i < prev + 2:
            raise ValueError(f"indices {prev}, {i} violate non-adjacency")
        prev = i
        while j < i:
            j, a, b = j + 1, b, a + b
        total += a
    return total


# pisano factors its argument by trial division up to this divisor.
PISANO_TRIAL_LIMIT = 10**6


class Unfactored(Exception):
    """Trial division up to PISANO_TRIAL_LIMIT left a cofactor that may be
    composite."""


def _factor(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1 by trial division; what is left above
    the last divisor tried is prime once that divisor's square exceeds it."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d > PISANO_TRIAL_LIMIT:
            raise Unfactored(f"trial division to {PISANO_TRIAL_LIMIT} leaves a "
                             f"{n.bit_length()}-bit cofactor unfactored")
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def pisano(n: int) -> int:
    """Period of the Fibonacci sequence modulo n.

    The least k > 0 with (F_k, F_(k+1)) = (0, 1) (mod n): the lcm of the
    periods of the prime powers p^e of n.  The period of p divides 3 for
    p = 2, 20 for p = 5, p - 1 for p = +-1 (mod 5) and 2(p + 1) otherwise;
    each prime of that multiple is divided out while the pair still returns
    modulo p.  With t the largest s <= e at which the pair returns modulo
    p^s after that period, the period of p^e is p^(e-t) times it (Wall 1960,
    Theorem 5); t is measured, so no conjecture is used.  Raises Unfactored
    when trial division up to PISANO_TRIAL_LIMIT does not factor n.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    period = 1
    for p, e in _factor(n).items():
        base = 3 if p == 2 else 20 if p == 5 else p - 1 if p % 5 in (1, 4) else 2 * (p + 1)
        for q in _factor(base):
            while base % q == 0 and _fib_pair(base // q, p) == (0, 1):
                base //= q
        a, b = _fib_pair(base, p**e)
        t = 1
        while t < e and a % p ** (t + 1) == 0 and b % p ** (t + 1) == 1:
            t += 1
        period = lcm(period, p ** (e - t) * base)
    return period


def fib_word_prefix(length: int) -> str:
    """First `length` symbols of the infinite Fibonacci word 1011010110110...

    The substitution 1 -> 10, 0 -> 1 maps row S_n to S_n S_(n-1), so each
    row is the previous two concatenated."""
    if length < 0:
        raise ValueError("length must be non-negative")
    prev, row = "1", "10"
    while len(row) < length:
        prev, row = row, row + prev
    return row[:length]


def c(n: int) -> int:
    """n-th symbol (1-based) of the Fibonacci word.

    1 exactly when the smallest Zeckendorf index of n is odd, i.e. when n is
    a value of the golden-ratio Beatty sequence.
    """
    if n < 1:
        raise ValueError(f"c requires n >= 1, got {n}")
    return 1 if zeckendorf(n)[0] % 2 == 1 else 0
