"""Convergent ladders toward phi and exact integer solution sets of linear
constraints f(x) <op> slope*x + offset over x >= 1.

As n*f(x) <op> m*x + c0, f(x) = phi*x - {phi*x} settles the comparison outside
a zone of about 1/|phi - slope| integers: a < or > set is a settled interval
plus the zone points that hold, as runs, or per residue class of x mod n
near phi, where that is smaller.  An = set is one residue class.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, gcd, lcm

from .congruence import Congruence, crt_combine
from .golden import QuadRat, compare_phi, f_floor, quad_ceil, quad_floor
from .numeration import fib

__all__ = [
    "convergent_d",
    "convergent_u",
    "BracketInfo",
    "locate_slope",
    "LinearConstraint",
    "Piece",
    "WindowSet",
    "solution_window",
    "AxiomVReport",
    "axiom_v_check",
    "least_adequate_index",
]

# A < or > set is built per class when its zone has more points than this
# many per class: measured fastest for deciding near-phi sentences.
CLASS_CROSSOVER = 8


def convergent_d(i: int) -> Fraction:
    """fib(2i+1)/fib(2i): the increasing ladder of approximants below phi."""
    if i < 0:
        raise ValueError("index must be non-negative")
    return Fraction(fib(2 * i + 1), fib(2 * i))


def convergent_u(i: int) -> Fraction:
    """fib(2i+2)/fib(2i+1): the decreasing ladder of approximants above phi."""
    if i < 0:
        raise ValueError("index must be non-negative")
    return Fraction(fib(2 * i + 2), fib(2 * i + 1))


@dataclass(frozen=True)
class BracketInfo:
    side: str  # "below" or "above"
    index: int


def locate_slope(slope: Fraction | int) -> BracketInfo:
    """Bracket a non-negative rational slope between consecutive convergents.

    Below phi: the unique j with d_j <= slope < d_{j+1}; slopes under
    d_0 = 1 report j = 0 (the d_i formulas then hold for every i >= 1).
    Above phi: the unique j with u_{j+1} < slope <= u_j, with the mirrored
    j = 0 convention for slopes above u_0 = 2.
    """
    s = Fraction(slope)
    if s < 0:
        raise ValueError(f"slope must be non-negative, got {s}")
    if compare_phi(s.numerator, s.denominator) < 0:
        if s < 1:
            return BracketInfo("below", 0)
        j = 0
        while convergent_d(j + 1) <= s:
            j += 1
        return BracketInfo("below", j)
    if s > convergent_u(0):
        return BracketInfo("above", 0)
    j = 0
    while convergent_u(j + 1) >= s:
        j += 1
    return BracketInfo("above", j)


@dataclass(frozen=True)
class LinearConstraint:
    """f(x) <relation> slope*x + offset over integer x >= 1.

    Kept as exact rationals; integer_form() recovers the cleared-denominator
    reading N*f(x) <relation> M*x + C.
    """

    relation: str  # "<", "=" or ">"
    slope: Fraction
    offset: Fraction

    def __post_init__(self) -> None:
        if self.relation not in ("<", "=", ">"):
            raise ValueError(f"relation must be one of < = >, got {self.relation!r}")
        object.__setattr__(self, "slope", Fraction(self.slope))
        object.__setattr__(self, "offset", Fraction(self.offset))
        n = lcm(self.slope.denominator, self.offset.denominator)
        m = self.slope.numerator * (n // self.slope.denominator)
        c0 = self.offset.numerator * (n // self.offset.denominator)
        object.__setattr__(self, "_integer_form", (n, m, c0))

    def integer_form(self) -> tuple[int, int, int]:
        return self._integer_form

    def holds(self, x: int) -> bool:
        n, m, c0 = self.integer_form()
        lhs = n * f_floor(x)
        rhs = m * x + c0
        if self.relation == "<":
            return lhs < rhs
        if self.relation == "=":
            return lhs == rhs
        return lhs > rhs


@dataclass(frozen=True)
class Piece:
    """Integers x with lo <= x (<= hi) and x = res (mod mod); hi None means
    unbounded above.  Normalized so lo and hi both lie in the class."""

    lo: int
    hi: int | None
    mod: int = 1
    res: int = 0


def _make_piece(lo: int, hi: int | None, mod: int = 1, res: int = 0) -> Piece | None:
    lo = max(lo, 1)
    res %= mod
    lo += (res - lo) % mod
    if hi is not None:
        hi -= (hi - res) % mod
        if hi < lo:
            return None
    return Piece(lo, hi, mod, res)


def _piece_key(p: Piece) -> tuple:
    return (p.lo, p.mod, p.res, p.hi is None, p.hi or 0)


def _intersect_pieces(a: Piece, b: Piece) -> Piece | None:
    lo = max(a.lo, b.lo)
    hi = b.hi if a.hi is None else a.hi if b.hi is None else min(a.hi, b.hi)
    if hi is not None and hi < lo:
        return None
    if b.mod == 1 and (lo, hi) == (a.lo, a.hi):
        return a
    if a.mod == 1 and (lo, hi) == (b.lo, b.hi):
        return b
    if a.mod == 1 or b.mod == 1:  # residue 0 mod 1: the other piece's class
        return _make_piece(lo, hi, a.mod * b.mod, a.res + b.res)
    merged = crt_combine([Congruence(a.mod, a.res), Congruence(b.mod, b.res)])
    if merged is None:
        return None
    return _make_piece(lo, hi, merged.modulus, merged.residue)


def _intersect_runs(a: tuple[Piece, ...], b: tuple[Piece, ...]) -> tuple[Piece, ...]:
    """Overlaps of two sorted lists of maximal runs, in one sweep."""
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        out.append(_intersect_pieces(a[i], b[j]))
        if b[j].hi is None or (a[i].hi is not None and a[i].hi < b[j].hi):
            i += 1
        else:
            j += 1
    return tuple(p for p in out if p is not None)


@dataclass(frozen=True)
class WindowSet:
    """A finite union of congruence-restricted intervals over x >= 1; its runs
    (modulus-1 pieces) are sorted, disjoint and maximal (see from_pieces)."""

    pieces: tuple[Piece, ...]

    @classmethod
    def from_pieces(cls, pieces: list[Piece | None]) -> "WindowSet":
        runs, classes = [], set()
        for p in sorted(filter(None, pieces), key=_piece_key):
            if p.mod > 1:
                classes.add(p)
            elif runs and (runs[-1].hi is None or p.lo <= runs[-1].hi + 1):
                if runs[-1].hi is not None and (p.hi is None or p.hi > runs[-1].hi):
                    runs[-1] = Piece(runs[-1].lo, p.hi)
            else:
                runs.append(p)
        return cls(tuple(sorted(runs + list(classes), key=_piece_key)))

    @classmethod
    def empty(cls) -> "WindowSet":
        return cls(())

    @classmethod
    def finite_interval(cls, lo: int, hi: int) -> "WindowSet":
        if lo > hi:
            raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
        return cls.from_pieces([_make_piece(lo, hi)])

    @classmethod
    def half_line_up(cls, lo: int) -> "WindowSet":
        return cls.from_pieces([_make_piece(lo, None)])

    @classmethod
    def half_line_down(cls, hi: int) -> "WindowSet":
        return cls.from_pieces([_make_piece(1, hi)])

    @classmethod
    def all(cls) -> "WindowSet":
        return cls.from_pieces([_make_piece(1, None)])

    @property
    def kind(self) -> str:
        if not self.pieces:
            return "empty"
        if len(self.pieces) == 1 and self.pieces[0].mod == 1:
            p = self.pieces[0]
            if p.hi is None:
                return "half_line_up"
            if p.lo <= 1:
                return "half_line_down"
            return "finite_interval"
        return "union"

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    @cached_property
    def _index(self) -> tuple[list[int], list[Piece], dict, set[int]]:
        classes: dict[tuple[int, int], list[Piece]] = {}
        for p in self.pieces:
            classes.setdefault((p.mod, p.res), []).append(p)
        runs = classes.pop((1, 0), [])
        return [p.lo for p in runs], runs, classes, {mod for mod, _ in classes}

    def __contains__(self, x: int) -> bool:
        starts, runs, classes, moduli = self._index
        i = bisect_right(starts, x) - 1
        if i >= 0 and (runs[i].hi is None or x <= runs[i].hi):
            return True
        return any(p.lo <= x and (p.hi is None or x <= p.hi)
                   for mod in moduli for p in classes.get((mod, x % mod), ()))

    def min_element(self) -> int | None:
        return min((p.lo for p in self.pieces), default=None)

    def max_element(self) -> int | None:
        """Largest member, or None when empty or unbounded above."""
        if not self.pieces or any(p.hi is None for p in self.pieces):
            return None
        return max(p.hi for p in self.pieces)

    @property
    def is_bounded(self) -> bool:
        return all(p.hi is not None for p in self.pieces)

    def members_upto(self, bound: int) -> list[int]:
        seen = set()
        for p in self.pieces:
            top = bound if p.hi is None else min(p.hi, bound)
            seen.update(range(p.lo, top + 1, p.mod))
        return sorted(seen)

    def intersect(self, other: "WindowSet") -> "WindowSet":
        """A linear merge of two run sets; pairwise otherwise."""
        if all(p.mod == 1 for w in (self, other) for p in w.pieces):
            return WindowSet(_intersect_runs(self.pieces, other.pieces))
        return WindowSet.from_pieces(
            [_intersect_pieces(a, b) for a in self.pieces for b in other.pieces]
        )

    def clip(self, lower: int | None, upper: int | None) -> "WindowSet":
        """Restrict to the open window lower < x < upper (None = unbounded)."""
        lo = 1 if lower is None else max(lower + 1, 1)
        hi = None if upper is None else upper - 1
        return self.intersect(WindowSet.from_pieces([_make_piece(lo, hi)]))


def _qdiv(t: int, denom: QuadRat) -> QuadRat:
    return denom.reciprocal().scaled(t)


def solution_window(constraint: LinearConstraint) -> WindowSet:
    """The exact set {x >= 1 : f(x) <relation> slope*x + offset}.

    Endpoint floors are exact QuadRat arithmetic, zone points are compared
    through f_floor, and every piece boundary is re-verified against
    f_floor.
    """
    n, m, c0 = constraint.integer_form()
    below = compare_phi(m, n) < 0  # slope < phi (a rational never equals phi)
    rel = constraint.relation
    # n*phi - m = (n - 2m + n*sqrt(5)) / 2, positive exactly when slope < phi
    denom = QuadRat(n - 2 * m, n, 2)
    # The zone c0 < (n*phi - m)*x < c0 + n is [lo, hi].
    a, b = (c0, c0 + n) if below else (c0 + n, c0)
    lo, hi = quad_floor(_qdiv(a, denom)) + 1, quad_ceil(_qdiv(b, denom)) - 1
    pieces: list[Piece | None] = []

    if rel == "=":
        # n*f(x) = m*x + c0 at the zone points with n | m*x + c0: one class
        g = gcd(m, n)
        if c0 % g == 0:
            n_cls = n // g
            r0 = 0 if n_cls == 1 else (-(c0 // g) * pow((m // g) % n_cls, -1, n_cls)) % n_cls
            pieces.append(_make_piece(lo, hi, n_cls, r0))
    elif hi - max(lo, 1) + 1 <= CLASS_CROSSOVER * n:
        sign = 1 if rel == ">" else -1
        pieces += _zone_runs(sign * n, sign * m, sign * c0, lo, hi, (rel == "<") == below)
    elif rel == "<":
        # n*f(x) <= m*x + c0 - 1, settled per class r: the threshold is
        # (n*phi - m)*x < c0 + n - 1 - ((m*r + c0 - 1) mod n).
        for r in range(n):
            t = c0 + n - 1 - ((m * r + c0 - 1) % n)
            if below:
                pieces.append(_make_piece(1, quad_ceil(_qdiv(t, denom)) - 1, n, r))
            else:
                pieces.append(_make_piece(quad_floor(_qdiv(t, denom)) + 1, None, n, r))
    else:
        # n*f(x) >= m*x + c0 + 1: threshold (n*phi - m)*x >= c0 + 1 + eps_r.
        for r in range(n):
            t = c0 + 1 + (-(m * r + c0 + 1)) % n
            if below:
                pieces.append(_make_piece(quad_ceil(_qdiv(t, denom)), None, n, r))
            else:
                pieces.append(_make_piece(1, quad_floor(_qdiv(t, denom)), n, r))

    window = WindowSet.from_pieces(pieces)
    _verify_boundaries(constraint, window)
    return window


def _zone_runs(n: int, m: int, c0: int, lo: int, hi: int, before: bool) -> list[Piece | None]:
    """Maximal runs (None where empty) of {x >= 1 : n*f(x) > m*x + c0}, given
    that the comparison is `before` on x < lo and the opposite on x > hi."""
    edges = [1] if before else []  # where runs start and end, alternately
    for x in range(max(lo, 1), hi + 1):
        if (n * f_floor(x) > m * x + c0) is not (len(edges) % 2 == 1):
            edges.append(x)
    if (len(edges) % 2 == 1) is before:
        edges.append(max(hi + 1, 1))
    edges.append(None)
    return [_make_piece(a, None if b is None else b - 1) for a, b in zip(edges[::2], edges[1::2])]


def _verify_boundaries(constraint: LinearConstraint, window: WindowSet) -> None:
    """Probe every piece end, and the class point past it, in O(P log P)."""
    for p in window.pieces:
        probes = {p.lo: True, p.lo - p.mod: False}
        if p.hi is not None:
            probes |= {p.hi: True, p.hi + p.mod: False}
        for x, expected in probes.items():
            if x >= 1 and (x in window) is not expected:
                raise AssertionError(
                    f"window boundary check failed at x={x} for {constraint}"
                )
            if x >= 1 and constraint.holds(x) is not expected:
                raise AssertionError(
                    f"exact endpoint check failed at x={x} for {constraint}"
                )


@dataclass(frozen=True)
class AxiomVReport:
    slope: Fraction
    offset: int
    index: int
    side: str
    checked: int
    counterexamples: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def axiom_v_check(
    slope: Fraction | int,
    offset: int,
    index: int,
    x_range: int,
    *,
    only_integer_rhs: bool = False,
) -> AxiomVReport:
    """Verify, for x in [1, x_range], the one-directional implications that
    substitute the bracketing convergent for phi:

      below, w = d_index:  f(x) = s*x+k  =>  k/(w-s) <= x < (k+1)/(w-s)
                           f(x) < s*x+k  =>  x < k/(w-s)
                           f(x) > s*x+k  =>  x >= (k+1)/(w-s)

    and the mirrored forms with w = u_index when the slope exceeds phi.
    Requires index >= bracket.index + 1.

    With only_integer_rhs the scan is restricted to x making s*x + k an
    integer (the reading under which the implications can hold at all for
    fractional slopes); see least_adequate_index for the index threshold
    beyond which they provably do.
    """
    s = Fraction(slope)
    bracket = locate_slope(s)
    if index < bracket.index + 1:
        raise ValueError(f"index must be >= {bracket.index + 1}, got {index}")
    w = convergent_d(index) if bracket.side == "below" else convergent_u(index)
    gap = w - s  # positive below phi, negative above
    t_low = Fraction(offset) / gap
    t_high = Fraction(offset + 1) / gap

    counterexamples: list[int] = []
    num, den = s.numerator, s.denominator
    if bracket.side == "below":
        eq_lo, eq_hi = ceil(t_low), ceil(t_high) - 1
        lt_hi, gt_lo = ceil(t_low) - 1, ceil(t_high)
    else:
        eq_lo, eq_hi = floor(t_high) + 1, floor(t_low)
        lt_lo, gt_hi = floor(t_low) + 1, floor(t_high)
    start = den if only_integer_rhs else 1
    step = den if only_integer_rhs else 1
    checked = 0
    for x in range(start, x_range + 1, step):
        checked += 1
        lhs = den * f_floor(x)
        rhs = num * x + offset * den
        if bracket.side == "below":
            if lhs == rhs:
                ok = eq_lo <= x <= eq_hi
            elif lhs < rhs:
                ok = x <= lt_hi
            else:
                ok = x >= gt_lo
        else:
            if lhs == rhs:
                ok = eq_lo <= x <= eq_hi
            elif lhs < rhs:
                ok = x >= lt_lo
            else:
                ok = x <= gt_hi
        if not ok:
            counterexamples.append(x)
    return AxiomVReport(s, offset, index, bracket.side, checked, tuple(counterexamples))


def least_adequate_index(slope: Fraction | int, offset: int) -> int:
    """Smallest i >= bracket.index + 1 whose substituted thresholds k/(w-s)
    and (k+1)/(w-s) enclose exactly the same integers as the exact-phi ones.

    At such an index the three implications of axiom_v_check hold for every
    x with s*x + offset an integer; below it they can fail (e.g. slope 1,
    offset 2, index 1 fails at x = 5).  Convergence of w to phi guarantees
    termination.
    """
    s = Fraction(slope)
    bracket = locate_slope(s)
    num, den = s.numerator, s.denominator
    # phi - s = (den - 2*num + den*sqrt(5)) / (2*den)
    exact_gap = QuadRat(den - 2 * num, den, 2 * den)
    exact: list[int] = []
    for t in (offset, offset + 1):
        v = _qdiv(t, exact_gap)
        exact.append(quad_ceil(v) if bracket.side == "below" else quad_floor(v))
    i = bracket.index + 1
    while True:
        w = convergent_d(i) if bracket.side == "below" else convergent_u(i)
        ok = True
        for t, target in zip((offset, offset + 1), exact):
            tv = Fraction(t) / (w - s)
            got = ceil(tv) if bracket.side == "below" else floor(tv)
            if got != target:
                ok = False
                break
        if ok:
            return i
        i += 1
