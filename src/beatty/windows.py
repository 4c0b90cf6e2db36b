"""Convergent ladders toward phi and exact integer solution sets of linear
constraints f(x) <op> slope*x + offset over x >= 1.

As n*f(x) <op> m*x + c0, f(x) = phi*x - {phi*x} settles the comparison outside
a zone of about 1/|phi - slope| integers: a < or > set is a settled interval
plus the zone points that hold, as maximal runs, or per residue class of x mod n
where the zone holds more than CLASS_CROSSOVER points per class.  An = set is
one residue class.

Every integer end is one cut (_cut): the integer where gap*x < t switches,
for the exact gap n*phi - m or a convergent's rational gap w - s.
"""

from collections import namedtuple
from collections.abc import Iterable, Iterator
from heapq import heappop, heappush
from math import gcd, lcm

from .congruence import Congruence, crt_combine, solve_linear
from .golden import f_floor, phi_ceil, phi_floor, phi_sign
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
# many per class: near a convergent of phi the zone holds about sqrt(5)*n**2
# points and its runs about as many pieces, where the classes are n.
CLASS_CROSSOVER = 8


def convergent_d(i: int) -> "Fraction":
    """fib(2i+1)/fib(2i): the increasing ladder of approximants below phi."""
    from fractions import Fraction  # only the rational paths need it; importing costs set-up time

    if i < 0:
        raise ValueError("index must be non-negative")
    return Fraction(fib(2 * i + 1), fib(2 * i))


def convergent_u(i: int) -> "Fraction":
    """fib(2i+2)/fib(2i+1): the decreasing ladder of approximants above phi."""
    from fractions import Fraction

    if i < 0:
        raise ValueError("index must be non-negative")
    return Fraction(fib(2 * i + 2), fib(2 * i + 1))


BracketInfo = namedtuple("BracketInfo", "side index")  # side "below" or "above" phi


def _ladder(side: str, i: int) -> "Fraction":
    """The side's convergent at index i: d_i below phi, u_i above."""
    return convergent_d(i) if side == "below" else convergent_u(i)


def locate_slope(slope: "Fraction | int") -> BracketInfo:
    """Bracket a non-negative rational slope between consecutive convergents.

    Below phi: the unique j with d_j <= slope < d_{j+1}; slopes under
    d_0 = 1 report j = 0 (the d_i formulas then hold for every i >= 1).
    Above phi: the unique j with u_{j+1} < slope <= u_j, with the mirrored
    j = 0 convention for slopes above u_0 = 2.
    """
    from fractions import Fraction

    s = Fraction(slope)
    if s < 0:
        raise ValueError(f"slope must be non-negative, got {s}")
    side, sign = ("below", 1) if phi_sign(s.numerator, -s.denominator) < 0 else ("above", -1)
    j = 0  # slopes under d_0 or over u_0 stop here too: d_1 = 3/2, u_1 = 5/3
    while sign * (s - _ladder(side, j + 1)) >= 0:
        j += 1
    return BracketInfo(side, j)


class LinearConstraint(namedtuple("LinearConstraint", "relation n m c0")):
    """f(x) <relation> slope*x + offset over integer x >= 1, for int or
    Fraction slope and offset.

    Kept as the cleared-denominator reading n*f(x) <relation> m*x + c0, with
    n >= 1 and gcd(n, m, c0) = 1, which integer_form() returns and _make()
    takes; slope and offset read it back as Fractions.
    """

    __slots__ = ()

    def __new__(cls, relation: str, slope: "Fraction | int",
                offset: "Fraction | int") -> "LinearConstraint":
        if relation not in ("<", "=", ">"):
            raise ValueError(f"relation must be one of < = >, got {relation!r}")
        n = lcm(slope.denominator, offset.denominator)
        return tuple.__new__(cls, (relation, n, slope.numerator * (n // slope.denominator),
                                   offset.numerator * (n // offset.denominator)))

    @property
    def slope(self) -> "Fraction":
        from fractions import Fraction

        return Fraction(self.m, self.n)

    @property
    def offset(self) -> "Fraction":
        from fractions import Fraction

        return Fraction(self.c0, self.n)

    def integer_form(self) -> tuple[int, int, int]:
        return self[1:]

    def holds(self, x: int) -> bool:
        n, m, c0 = self.integer_form()
        return _order(n * f_floor(x), m * x + c0) == self.relation


def _order(a: int, b: int) -> str:
    """The relation "<", "=" or ">" that a bears to b."""
    return "<" if a < b else "=" if a == b else ">"


class Piece(namedtuple("Piece", "lo hi mod res", defaults=(1, 0))):
    """Integers x with lo <= x (<= hi) and x = res (mod mod); hi None means
    unbounded above.  Normalized so lo and hi both lie in the class."""

    __slots__ = ()


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
    """The piece a and b both hold, or None; their ranges overlap (the sweep meets no others)."""
    lo = max(a.lo, b.lo)
    hi = b.hi if a.hi is None else a.hi if b.hi is None else min(a.hi, b.hi)
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


class WindowSet(namedtuple("WindowSet", "pieces")):
    """A finite union of congruence-restricted intervals over x >= 1; its runs
    (modulus-1 pieces) are sorted, disjoint and maximal (see from_pieces)."""

    __slots__ = ()

    @classmethod
    def from_pieces(cls, pieces: Iterable[Piece | None]) -> "WindowSet":
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

    def __contains__(self, x: int) -> bool:
        return any(p.lo <= x and (p.hi is None or x <= p.hi) and x % p.mod == p.res
                   for p in self.pieces)

    def intersect(self, other: "WindowSet") -> "WindowSet":
        """The set both windows hold: from_pieces of their overlaps (intersect_streams)."""
        return WindowSet.from_pieces(intersect_streams(self.pieces, other.pieces))


def intersect_streams(a: Iterable[Piece], b: Iterable[Piece]) -> Iterator[Piece]:
    """The overlaps of two streams ascending by lo, ascending by lo themselves: one sweep,
    for runs, classes or both, meets each arriving piece of their merge by lo with the
    other stream's pieces still open at its lo, and yields each overlap once no later
    arrival can start below it: each stream is read up to its first piece past those taken.
    Open classes are kept by modulus and residue, so per modulus an arriving piece meets
    only the classes that its points up to the furthest end of the other stream's classes
    reach, when they are fewer than the open ones."""
    streams = iter(a), iter(b)
    heads = [next(s, None) for s in streams]
    runs = [], []  # per stream, the runs that arrived and may meet later arrivals
    classes = {}, {}  # per stream, the same for its classes: {mod: {res: [piece]}}
    ends = [], []  # per stream, (hi, piece) of its bounded open classes, by hi
    tops = [0, 0]  # per stream, the furthest hi of its classes; None once one is unbounded
    ready = []  # the overlaps met, by _piece_key
    while heads[0] or heads[1]:
        i = 0 if heads[1] is None or heads[0] and heads[0].lo <= heads[1].lo else 1
        p, heads[i] = heads[i], next(streams[i], None)
        j = 1 - i
        runs[j][:] = [q for q in runs[j] if q.hi is None or q.hi >= p.lo]
        while ends[j] and ends[j][0][0] < p.lo:  # q ends before p starts: it meets no later arrival
            q = heappop(ends[j])[1]
            by_res = classes[j][q.mod]
            by_res[q.res].remove(q)
            if not by_res[q.res]:
                del by_res[q.res]
                if not by_res:
                    del classes[j][q.mod]
        if not (runs[j] or classes[j] or heads[j]):  # nothing of the other stream is left
            heads = [None, None]
        met = runs[j]
        if classes[j]:
            met = met[:]
            top = p.hi if tops[j] is None else tops[j] if p.hi is None else min(p.hi, tops[j])
            for mod, by_res in classes[j].items():
                reach = mod // gcd(mod, p.mod)  # the residues mod `mod` that p's points reach
                if top is not None:
                    reach = min(reach, (top - p.lo) // p.mod + 1)
                if reach < len(by_res):
                    met += [q for k in range(reach)
                            for q in by_res.get((p.lo + k * p.mod) % mod, ())]
                else:
                    met += [q for qs in by_res.values() for q in qs]
        for q in met:
            if r := _intersect_pieces(p, q):
                heappush(ready, (_piece_key(r), r))
        if p.mod == 1:
            runs[i].append(p)
        else:
            classes[i].setdefault(p.mod, {}).setdefault(p.res, []).append(p)
            if p.hi is not None:
                heappush(ends[i], (p.hi, p))
            tops[i] = None if p.hi is None or tops[i] is None else max(tops[i], p.hi)
        ahead = [h.lo for h in heads if h]  # where the next arrival starts
        while ready and (not ahead or ready[0][0][0] < min(ahead)):
            yield heappop(ready)[1]


def _cut(t: int, gap: tuple[int, int, int], below: bool) -> int:
    """The integer where gap*x < t switches, for gap = (p, q, d) the number
    (p + q*phi)/d: the form holds on x < cut when gap > 0 (slope below phi)
    and on x >= cut when gap < 0."""
    # t/gap = t*d*(p + q - q*phi) / (p^2 + p*q - q^2), a norm that is never 0
    p, q, d = gap
    norm = p * p + p * q - q * q
    s = t * d if norm > 0 else -t * d
    v = s * (p + q), -s * q, abs(norm)
    return phi_ceil(*v) if below else phi_floor(*v) + 1


def solution_window(constraint: LinearConstraint) -> WindowSet:
    """The exact set {x >= 1 : f(x) <relation> slope*x + offset} (window_pieces)."""
    return WindowSet(tuple(window_pieces(constraint)))


def window_pieces(constraint: LinearConstraint, start: int = 1) -> Iterator[Piece]:
    """The pieces of solution_window(constraint), ascending by lo, cut to x >= start,
    where the scan of the zone begins.

    Endpoint floors are exact arithmetic in Q(phi), zone points are compared
    through f_floor, and each piece's boundary is re-verified against f_floor
    from start on before it is yielded: a run as soon as the scan of the zone closes it.
    """
    start = max(start, 1)
    n, m, c0 = constraint.integer_form()
    below = phi_sign(m, -n) < 0  # slope < phi (a rational never equals phi)
    gap = (-m, n, 1)  # n*phi - m, positive exactly when slope < phi
    # The zone c0 < gap*x < c0 + n is [lo, hi] over x >= 1.
    a, b = (c0, c0 + n) if below else (c0 + n, c0)
    lo, hi = _cut(a, gap, below), _cut(b, gap, below) - 1
    if constraint.relation != "=":
        before = (constraint.relation == "<") == below  # the comparison holds before the zone
        if hi - max(lo, 1) + 1 <= CLASS_CROSSOVER * n:
            yield from _zone_runs(constraint, lo, hi, before, start)
        else:
            yield from _class_pieces(constraint, gap, below, before, start)
        return
    # n*f(x) = m*x + c0 at the zone points with n | m*x + c0: one class
    cls = solve_linear(m, c0, n)
    if cls and (piece := _make_piece(max(lo, start), hi, cls.modulus, cls.residue)):
        yield _verified(constraint, piece, -1, start)


def _zone_runs(constraint: LinearConstraint, lo: int, hi: int, before: bool,
               start: int) -> Iterator[Piece]:
    """The maximal runs of constraint's set from start on, signed to read n*f(x) > m*x + c0,
    given that it holds on x < lo when `before` and on x > hi when not; each is
    yielded once the zone's scan closes it and its ends are probed."""
    n, m, c0 = (v if constraint.relation == ">" else -v for v in constraint.integer_form())

    def edges() -> Iterator[int | None]:  # where runs start and end, alternately
        inside = before
        if before:
            yield start
        for x in range(max(lo, start), hi + 1):
            if (n * f_floor(x) > m * x + c0) is not inside:
                inside = not inside
                yield x
        yield from (max(hi + 1, start), None) if inside is before else (None,)

    last = -1  # where the last run yielded ends
    for a, b in zip(*[edges()] * 2):  # each start with its end
        if run := _make_piece(a, None if b is None else b - 1):
            yield _verified(constraint, run, last, start)
            last = run.hi


def _class_pieces(constraint: LinearConstraint, gap: tuple[int, int, int], below: bool,
                  before: bool, start: int) -> Iterator[Piece]:
    """The window one piece per residue class r mod n, ascending by lo from start on, each
    probed as it is yielded.  Per class, n*f(x) <= m*x + c0 - 1 reads gap*x < t and
    n*f(x) >= m*x + c0 + 1 reads gap*x >= t, for the t in [t0, t0 + n) with
    m*r + t = 0 (mod n), so the class holds before or after the cut of its t."""
    n, m, c0 = constraint.integer_form()
    t0 = c0 if constraint.relation == "<" else c0 + 1
    if before:  # the class of x starts at x, for the first n x from start on
        for x in range(start, start + n):
            if piece := _make_piece(x, _cut(t0 + (-m * x - t0) % n, gap, below) - 1, n, x):
                yield _verified(constraint, piece, -1, start)
        return
    # The cut grows with t below phi and falls with it above; a piece is yielded
    # once the cut of the next t passes its lo.
    waiting: list[tuple[int, Piece]] = []
    for t in range(t0, t0 + n) if below else range(t0 + n - 1, t0 - 1, -1):
        cut = max(_cut(t, gap, below), start)
        while waiting and waiting[0][0] < cut:
            yield _verified(constraint, heappop(waiting)[1], -1, start)
        if cls := solve_linear(m, t, n):
            for r in range(cls.residue, n, cls.modulus):
                piece = _make_piece(cut, None, n, r)
                heappush(waiting, (piece.lo, piece))
    while waiting:
        yield _verified(constraint, heappop(waiting)[1], -1, start)


def _verified(constraint: LinearConstraint, p: Piece, last: int, start: int) -> Piece:
    """p once its ends, and the class point past each, are probed from start on against
    the window (the runs before p end at last; a class window holds each class in one
    piece, so last is -1) and against constraint.holds."""
    probes = {p.lo: True, p.lo - p.mod: False}
    if p.hi is not None:
        probes |= {p.hi: True, p.hi + p.mod: False}
    for x, expected in probes.items():
        if x >= start and (x <= last or x in p[:2]) is not expected:
            raise AssertionError(f"window boundary check failed at x={x} for {constraint}")
        if x >= start and constraint.holds(x) is not expected:
            raise AssertionError(f"exact endpoint check failed at x={x} for {constraint}")
    return p


class AxiomVReport(namedtuple("AxiomVReport", "slope offset index side checked counterexamples")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def axiom_v_check(
    slope: "Fraction | int",
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
    On either side of phi they are one reading: the relation is read off
    where (w - s)*x lies against k and k+1, so < below k, = from k up to
    k+1, and > from k+1 on.  Requires index >= bracket.index + 1.

    With only_integer_rhs the scan is restricted to x making s*x + k an
    integer (the reading under which the implications can hold at all for
    fractional slopes); see least_adequate_index for the index threshold
    beyond which they provably do.
    """
    from fractions import Fraction

    s = Fraction(slope)
    bracket = locate_slope(s)
    if index < bracket.index + 1:
        raise ValueError(f"index must be >= {bracket.index + 1}, got {index}")
    gap = _ladder(bracket.side, index) - s
    g, d = gap.numerator, gap.denominator
    num, den = s.numerator, s.denominator
    xs = range(den, x_range + 1, den) if only_integer_rhs else range(1, x_range + 1)
    # floor((w - s)*x) against k is the claimed relation
    counterexamples = tuple(x for x in xs if _order(den * f_floor(x), num * x + offset * den)
                            != _order(g * x // d, offset))
    return AxiomVReport(s, offset, index, bracket.side, len(xs), counterexamples)


def least_adequate_index(slope: "Fraction | int", offset: int) -> int:
    """Smallest i >= bracket.index + 1 whose substituted thresholds k/(w-s)
    and (k+1)/(w-s) enclose exactly the same integers as the exact-phi ones.

    At such an index the three implications of axiom_v_check hold for every
    x with s*x + offset an integer; below it they can fail (e.g. slope 1,
    offset 2, index 1 fails at x = 5).  Convergence of w to phi guarantees
    termination.
    """
    from fractions import Fraction

    s = Fraction(slope)
    bracket = locate_slope(s)
    below = bracket.side == "below"
    num, den = s.numerator, s.denominator

    def cuts(gap: tuple[int, int, int]) -> list[int]:
        return [_cut(t, gap, below) for t in (offset, offset + 1)]

    exact = cuts((-num, den, den))  # phi - s
    i = bracket.index + 1
    while True:
        gap = _ladder(bracket.side, i) - s
        if cuts((gap.numerator, 0, gap.denominator)) == exact:
            return i
        i += 1
