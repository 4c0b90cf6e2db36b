"""Exact evaluation of the golden-ratio Beatty map f(x) = floor(phi * x),
its inverse, the complement decomposition, and arithmetic with numbers of
the form (p + q*sqrt(5)) / r."""

from __future__ import annotations

from math import gcd, isqrt
from typing import NamedTuple

from .numeration import _zeck_walk

__all__ = [
    "isqrt",
    "f_floor",
    "f_zeck",
    "f_inverse",
    "BeattyDecomposition",
    "decompose",
    "additivity_defect",
    "linear_defect",
    "compare_phi",
    "QuadRat",
    "quad_floor",
    "quad_ceil",
]


def f_floor(x: int) -> int:
    """floor(phi * x) for x > 0, and 0 for x <= 0."""
    if x <= 0:
        return 0
    # 5*x*x is never a perfect square for x > 0, so isqrt lands strictly
    # below sqrt(5)*x and the floor is exact.
    return (x + isqrt(5 * x * x)) // 2


def f_zeck(x: int) -> int:
    """floor(phi * x) computed through the Zeckendorf index shift.

    Shift every index up by one and sum; subtract 1 when the smallest index
    is odd.  Independent of f_floor, used as a cross-check.
    """
    if x < 1:
        raise ValueError(f"f_zeck requires x >= 1, got {x}")
    total = 0
    for j, above in _zeck_walk(x):
        total += above
    return total - 1 if j % 2 == 1 else total


def f_inverse(y: int) -> int | None:
    """The unique x with f_floor(x) = y, or None when y is not a value of f.

    phi*x - 1 < y < phi*x pins x to the least integer above the irrational
    y/phi = (sqrt(5)*y - y)/2, whose floor is (isqrt(5*y*y) - y) // 2.
    """
    if y < 1:
        raise ValueError(f"f_inverse requires y >= 1, got {y}")
    x = (isqrt(5 * y * y) - y) // 2 + 1
    return x if f_floor(x) == y else None


class BeattyDecomposition(NamedTuple):
    """Which half of the complementary pair n falls in: n = f(x) on the
    F branch, n = f(x) + x on the G branch."""

    kind: str  # "F" or "G"
    x: int


def decompose(n: int) -> BeattyDecomposition:
    """Write n >= 1 as f(x) or f(x) + x, exactly one of which is possible."""
    if n < 1:
        raise ValueError(f"decompose requires n >= 1, got {n}")
    x = f_inverse(n)
    if x is not None:
        return BeattyDecomposition("F", x)
    # n = floor((phi + 1) * x) has the single candidate x = ceil(n / phi^2),
    # and ceil(n / phi^2) = 2n - floor(phi * n) since phi^2 = phi + 1.
    x = 2 * n - f_floor(n)
    if f_floor(x) + x != n:
        raise AssertionError(f"complement decomposition failed for n={n}")
    return BeattyDecomposition("G", x)


def additivity_defect(x: int, y: int) -> int:
    """f(x + y) - f(x) - f(y); always 0 or 1 for x, y >= 1."""
    if x < 1 or y < 1:
        raise ValueError("additivity_defect requires x, y >= 1")
    return f_floor(x + y) - f_floor(x) - f_floor(y)


def linear_defect(r: int, x: int, b: int) -> int:
    """f(r*x + b) - r*f(x) - f(b); lies in [0, r] for r, x, b >= 1."""
    if r < 1 or x < 1 or b < 1 or r * x + b < 1:
        raise ValueError("linear_defect requires r, x, b >= 1")
    return f_floor(r * x + b) - r * f_floor(x) - f_floor(b)


def compare_phi(p: int, q: int) -> int:
    """-1 when p/q < phi, +1 when p/q > phi.  A rational never equals phi."""
    if q < 1:
        raise ValueError(f"denominator must be >= 1, got {q}")
    t = 2 * p - q
    if t < 0:
        return -1
    return -1 if t * t < 5 * q * q else 1


class QuadRat(NamedTuple("QuadRat", [("p", int), ("q", int), ("r", int)])):
    """Exact number (p + q*sqrt(5)) / r, canonical: r > 0 and gcd(p, q, r) = 1.

    Equals a rational iff q == 0 after canonicalization, so structural
    equality decides value equality.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int, r: int = 1) -> "QuadRat":
        if r == 0:
            raise ValueError("zero denominator")
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(p, q, r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        return tuple.__new__(cls, (p, q, r))

    def __neg__(self) -> "QuadRat":
        return QuadRat(-self.p, -self.q, self.r)

    def __repr__(self) -> str:
        return f"({self.p} + {self.q}*sqrt5)/{self.r}"


def quad_floor(v: QuadRat) -> int:
    """Exact floor of (p + q*sqrt(5)) / r."""
    q = v.q
    if q == 0:
        shift = 0
    elif q > 0:
        shift = isqrt(5 * q * q)
    else:
        # 5 q^2 is never a perfect square for q != 0, so the ceiling of
        # |q|*sqrt(5) is isqrt(5 q^2) + 1.
        shift = -isqrt(5 * q * q) - 1
    return (v.p + shift) // v.r


def quad_ceil(v: QuadRat) -> int:
    return -quad_floor(-v)
