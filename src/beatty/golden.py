"""Exact evaluation of the golden-ratio Beatty map f(x) = floor(phi * x),
its inverse and the complement decomposition, and the one exact reading of
numbers (p + q*phi)/d of Q(phi): their sign, floor and ceiling (phi_sign,
phi_floor, phi_ceil), the product and the norm of numbers p + q*phi of
Z[phi] (phi_mul, phi_norm), which every other module uses."""

from collections import namedtuple
from math import isqrt

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
    "phi_sign",
    "phi_floor",
    "phi_ceil",
    "phi_mul",
    "phi_norm",
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


class BeattyDecomposition(namedtuple("BeattyDecomposition", "kind x")):
    """Which half of the complementary pair n falls in: n = f(x) on the
    F branch (kind "F"), n = f(x) + x on the G branch (kind "G")."""

    __slots__ = ()


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


def phi_sign(p: int, q: int) -> int:
    """The sign of p + q*phi, that of (2p + q) + q*sqrt(5): 0 only when
    p = q = 0, since sqrt(5) is irrational."""
    s = 2 * p + q
    if (s >= 0) == (q >= 0) or not s or not q:
        return (s > 0 or q > 0) - (s < 0 or q < 0)
    return 1 if (s > 0) == (s * s > 5 * q * q) else -1


def phi_floor(p: int, q: int, d: int = 1) -> int:
    """floor((p + q*phi)/d) for d > 0, read as (2p + q + q*sqrt(5)) // 2d."""
    # 5 q^2 is never a perfect square for q != 0, so q*sqrt(5) lies strictly
    # between isqrt(5 q^2) and the next integer, or, for q < 0, between the
    # negatives of both; the lower one gives the same floor.
    root = isqrt(5 * q * q)
    return (2 * p + q + (root if q >= 0 else -root - 1)) // (2 * d)


def phi_ceil(p: int, q: int, d: int = 1) -> int:
    """ceil((p + q*phi)/d) for d > 0."""
    return -phi_floor(-p, -q, d)


def phi_mul(p: int, q: int, r: int, s: int) -> tuple[int, int]:
    """(p + q*phi)(r + s*phi) as its pair, since phi^2 = phi + 1."""
    return p * r + q * s, p * s + q * r + q * s


def phi_norm(p: int, q: int) -> int:
    """(p + q*phi)(p + q - q*phi) = p^2 + p*q - q^2, the product with the
    conjugate (phi's conjugate is 1 - phi); 0 only when p = q = 0."""
    return p * p + p * q - q * q
