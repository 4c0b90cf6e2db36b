"""Congruence solver for the pair (x mod n, f(x) mod n') with an optional
order window, where f(x) = floor(phi * x).

The solver finds the least witness by convergent substitution: for
1 <= x < fib(k), f(x) = floor(fib(k+1) * x / fib(k)).  The convergent
fib(k+1)/fib(k) is within 1/(fib(k) * fib(k+1)) of phi, so phi*x is within
1/fib(k+1) of fib(k+1)*x/fib(k), which is not an integer and so lies at
least 1/fib(k) from every integer.  Along the class x = x0 + n*t the
condition f(x) = m' (mod n') then reads (a*t + b) mod M in [L, L + w], a
Euclid-style search (the family of floor_sum) solves that for the least t,
and k grows until the least t lands below fib(k) or fib(k) passes the
window.
"""

from collections import namedtuple
from collections.abc import Iterable
from math import gcd

from .golden import f_floor
from .numeration import fib, fib_index_above

__all__ = [
    "Congruence",
    "CongruenceSystem",
    "SolveOutcome",
    "crt_combine",
    "solve_linear",
    "solve_image",
    "solve_system",
    "satisfies",
]


class Congruence(namedtuple("Congruence", "modulus residue")):
    """x = residue (mod modulus), residue stored reduced."""

    __slots__ = ()

    def __new__(cls, modulus: int, residue: int) -> "Congruence":
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        return tuple.__new__(cls, (modulus, residue % modulus))

    def holds(self, x: int) -> bool:
        return x % self.modulus == self.residue


class CongruenceSystem(namedtuple("CongruenceSystem", "on_x on_fx lower upper")):
    """x = m (mod n), f(x) = m' (mod n'), with open window lower < x < upper.

    A bound of None means the window is unbounded on that side.
    """

    __slots__ = ()

    def __new__(cls, on_x: Congruence, on_fx: Congruence, lower: int | None = None,
                upper: int | None = None) -> "CongruenceSystem":
        if lower is not None and upper is not None and lower >= upper:
            raise ValueError("window requires lower < upper")
        return tuple.__new__(cls, (on_x, on_fx, lower, upper))


class SolveOutcome(namedtuple("SolveOutcome", "status witness", defaults=(None,))):
    """status "witness" with the least witness, or "no_solution"."""

    __slots__ = ()
    # There is one search, so no outcome comes from a fallback; the flag
    # stays because criterion 05 (tests/test_acceptance.py),
    # tests/test_congruence.py and perfbench/tracing.py read it.
    fallback_used = False

    @property
    def is_witness(self) -> bool:
        return self.status == "witness"


def satisfies(system: CongruenceSystem, x: int) -> bool:
    """Direct check of every constraint of the system at x."""
    if not system.on_x.holds(x):
        return False
    if not system.on_fx.holds(f_floor(x)):
        return False
    if system.lower is not None and not system.lower < x:
        return False
    if system.upper is not None and not x < system.upper:
        return False
    return True


def solve_linear(a: int, c: int, n: int) -> Congruence | None:
    """The x with a*x + c = 0 (mod n), as one class, or None when there are
    none: dividing out g = gcd(a, n) leaves a unit a/g modulo n/g."""
    g = gcd(a, n)
    if c % g:
        return None
    reduced = n // g
    return Congruence(reduced, -(c // g) * pow(a // g, -1, reduced))


def crt_combine(congruences: Iterable[Congruence]) -> Congruence | None:
    """Single congruence equivalent to the conjunction, or None if
    inconsistent; the empty conjunction is x = 0 (mod 1).  Moduli need not
    be coprime."""
    n, m = 1, 0
    for cg in congruences:
        # x = m + n*t meets cg where n*t + m - residue = 0 (mod modulus)
        step = solve_linear(n, m - cg.residue, cg.modulus)
        if step is None:
            return None
        m, n = m + n * step.residue, n * step.modulus
    return Congruence(n, m)


def solve_image(n: int, m: int) -> int:
    """The least c >= 1 with f_floor(c) = m (mod n)."""
    if n < 1 or not 0 <= m < n:
        raise ValueError(f"need n >= 1 and 0 <= m < n, got n={n}, m={m}")
    return solve_system(CongruenceSystem(Congruence(1, 0), Congruence(n, m))).witness


def _least_step(a: int, b: int, M: int, L: int, w: int) -> int | None:
    """Least t >= 0 with (a*t + b) mod M in [L, L + w], where 0 <= L and
    L + w < M; None when there is none.

    When no multiple of a lies in the target, every wrap past M adds at most
    one candidate, so the least t comes from the least number of wraps y,
    which solves the same problem for (M mod a, a).  That is one Euclid step;
    the loop records each level's two quotients and climbs back up from
    them, so its depth is bounded by memory, not by the interpreter stack.
    """
    L = (L - b) % M
    if L == 0 or L + w >= M:  # the target holds b itself
        return 0
    a %= M
    levels = []
    while a:
        s, r = divmod(L, a)
        if not r or a - r <= w:  # a multiple of a lies in [L, L + w]
            break
        q, rem = divmod(M, a)
        levels.append((q, s))
        # a*t - M*y lands in [L, L + w] exactly when M*y mod a lands in
        # [a - r - w, a - r]
        M, a, L = a, rem, a - r - w
    else:
        return None
    t, below = s + (r > 0), 0
    for q, s in reversed(levels):
        # t = ceil((L + M*y) / a) at the level above, written in quotients
        t, below = q * t + below + s + 1, t
    return t


def solve_system(system: CongruenceSystem) -> SolveOutcome:
    """Decide the system over the integers, f(x) = 0 for x <= 0, with its
    least witness.

    Non-positive x satisfy the f-congruence exactly when its residue is 0.
    A window bounded only above then has no least witness and yields its
    greatest one at or below 0 instead.  Positive witnesses are found by
    convergent substitution; a window-free system always has one, since the
    rotation by phi is irrational.
    """
    n, m = system.on_x.modulus, system.on_x.residue
    n2, m2 = system.on_fx.modulus, system.on_fx.residue
    lower, upper = system.lower, system.upper
    if m2 == 0 and lower is None and upper is not None:
        t = min(upper - 1, 0)
        return _verified(system, t - ((t - m) % n))
    lo = lower if lower is not None and (lower >= 0 or m2 == 0) else 0
    x0 = lo + 1 + (m - lo - 1) % n  # least member of the class above lo
    if upper is not None and x0 >= upper:
        return SolveOutcome("no_solution")
    if x0 <= 0:
        return _verified(system, x0)
    reach = x0 + n * n2 if upper is None else min(x0 + n * n2, upper)
    k = fib_index_above(reach)
    while True:
        p, q = fib(k + 1), fib(k)
        t = _least_step(p * n, p * x0, q * n2, m2 * q, q - 1)
        if t is not None and x0 + n * t < q:  # the substitution holds there
            x = x0 + n * t
            if upper is not None and x >= upper:
                return SolveOutcome("no_solution")
            return _verified(system, x)
        if upper is not None and q >= upper:
            return SolveOutcome("no_solution")
        k *= 2


def _verified(system: CongruenceSystem, x: int) -> SolveOutcome:
    if not satisfies(system, x):
        raise AssertionError(f"witness check failed at x={x} for {system}")
    return SolveOutcome("witness", x)


# perfbench/tracing.py wraps this name; it is the same solver.
solve_system_bounded = solve_system
