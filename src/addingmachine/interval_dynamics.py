"""Symmetric tent maps with exact arithmetic.

T_a(x) = a*x for x < 1/2 and a*(1-x) for x >= 1/2, with slope a in
[0, 2]. Parameters and points are Fractions or quadratic surds, so
orbits, kneading symbols, and interval endpoints are all exact; cycles
are detected by exact equality, never by closeness.

critical_orbit, which hands out an orbit point by point, steps exact
numbers with that formula from 1/2 on, a*x or a*(1 - x), and takes no
step past its last point. For a rational slope p/s and a rational point
N/D, Fraction arithmetic reduces a*x by gcd(p, D) and gcd(N, s), gcds
against the short p and s, and 1 - x needs none, so each point costs
time linear in its bits. A surd step reduces by the gcd of the whole
triple (exactnum._reduced): once for x < 1/2, and twice for x >= 1/2,
where 1 - x is reduced before the product.

The kneading symbols and the interval-cycle detector read the critical
orbit (the orbit of 1/2) in integers instead. With the slope written as
the triple (p + q*sqrt(r))/s of exactnum (q = r = 0 for a rational p/s
in lowest terms), a point is a triple (P + Q*sqrt(r))/D with D > 0, and
one step is the slope times

    x = (P, Q, D)            for x < 1/2,
    1 - x = (D - P, -Q, D)   for x >= 1/2.

exactnum._tent_step is that step, written once. It takes the point's
side (the sign of x - 1/2) and returns the next point with its side, so
each side is taken once: by 2P against D for r = 0, with no kernel call
and no gcd, and by _sign(2P - D, 2Q, r) for r != 0, after a reduction
by the step's determinant (proved in exactnum). _walk(param) is one loop
of kernel steps for both kinds of slope: it yields c_0 = 1/2 = (1, 0, 2),
c_1, c_2, ... as triples. tent_eval is the same step on one exact point:
its triple is checked against [0, 1] and placed against 1/2 by _sign,
stepped, and read back through exactnum._reduced.

For a rational slope the k-th point is the triple (P_k, 0, 2*s^k), never
reduced, because reducing could only remove one factor 2. Proof:
gcd(p, s) = 1 and P_0 = 1. If gcd(P_k, s) = 1, then P_{k+1} is p*P_k or
p*(2*s^k - P_k), and for k >= 1 the latter is -p*P_k modulo every prime
of s (for k = 0 it is p). So every P_k is coprime to s, the only prime
P_k and 2*s^k can share is 2, and they share 4 only if s is even, which
makes P_k odd. Hence gcd(P_k, 2*s^k) is 1 or 2, and a gcd per step would
buy at most one bit.

A surd walk reduces each step to lowest terms, which keeps its triples
canonical (equal values, equal triples) and short: without it a
periodic orbit would carry a common factor that grows with every step.
The golden mean (1+sqrt(5))/2 returns to 1/2 every three steps while
s^k = 2^k grows. The common factor of a step divides the step's
determinant N = s*|p^2 - q^2*r|, so the reduction is a gcd against N,
linear in the length of the triple, not a gcd of full-length integers.

Each call walks the orbit afresh, and nothing outlives the call: a
TentParam holds no orbit state, and kneading_sequence holds one point at
a time. The levels of one tower_certificate share one _CriticalWalk (the
points read so far and the rest of the walk), so they walk once. Nothing
is cached across calls (no module-level table, no lru_cache), because a
process-wide cache would grow with every slope ever seen and would only
pay off for repeated identical calls, which a CLI run never makes.

The renormalization detector looks for closed intervals J_1, ..., J_n,
pairwise disjoint, with T(J_j) inside J_(j+1) and T(J_n) inside J_1
(J_0 is J_n below). Such a family is the interval counterpart of one
tower level of a cyclic partition, and certified levels for sizes
m_1 | m_2 | ... chain into an adding-machine-style certificate
(necessary evidence, not a proof of the full structure). T_a has one
for n = 2^k exactly when a^(2^k) <= 2 (Milnor-Thurston 1988; de
Melo-van Strien 1993, ch. III). The detector reads the critical orbit
c_0 = 1/2, c_(k+1) = T(c_k) in prefixes c_0, ..., c_(m-1), for
m = 2n+1, 3n+1, ... and last m = window; it takes the hull I_j of the
points c_k with k = j mod n (c_0 in class 0) and stops at the first
prefix whose hulls decide:

- Two hulls meet: "absent", and this is sound. Number a family so that
  c_1 lies in J_1. Then c_k lies in J_(k mod n) for every k >= 1, by
  induction on k. For a > 1, 1/2 lies in J_n as well. If 1/2 lies in
  some J_j, then c_1 = T(1/2) lies in J_(j+1) and in J_1, so j = n by
  disjointness. If 1/2 lies in none and J_1 is not a point, T is affine
  on every J_j, so T^n is affine on J_1 with slope +-a^n and stretches
  J_1, and cannot map it into itself. If J_1 is the point c_1, then
  T^n(c_1) = c_1, so T(c_n) = c_1 = T(1/2), and 1/2 is the only point
  T sends to its maximum a/2: c_n = 1/2 lies in J_n. So every I_j lies
  in J_j, and hulls that meet rule out every family. For a <= 1 and
  n >= 2 there is no family at all. For a < 1, T^n maps J_1 into
  itself and so fixes a point of it, but every orbit tends to 0, so
  that point is 0, and 0 = T(0) lies in J_2 too. For a = 1,
  c_1 = 1/2 is fixed and lies in J_1 and J_2. (For n = 1 there are
  no two hulls to meet.)
- The hulls are disjoint and T(I_j) lies in I_(j+1): "certified", a
  family by construction. It is forward invariant, so every later
  point c_k stays in I_(k mod n): the hulls of every longer prefix,
  the whole window's included, are the same.
- The hulls are disjoint but an image leaks out. An escape is no
  absence witness, so the prefix grows. When the window's points are
  read and the hulls still escape, the status is "inconclusive".

A margin widens the hulls (clamped to [0, 1]) for the certification
only; widened hulls that meet or escape make the prefix grow, since a
widened overlap proves nothing. When every point read is 1/2 (a = 1, or
a window of one point) all hulls are that point, and the status is
"degenerate". The levels of one tower share the points read and nothing
else, and never more than the window's points. Each class hull grows one
point at a time by one exact comparison of integer triples,
_sign(P*D' - P'*D, Q*D' - Q'*D, r) for (P + Q*sqrt(r))/D against
(P' + Q'*sqrt(r))/D' (exactnum._compare; for r = 0 the sign of
P*D' - P'*D), so a window costs O(window) comparisons. The hulls are
ordered by their lowest points. On a rational slope these are plain
integers P*(D_max // D), with D_max = 2*s^(m-1) the denominator of the
prefix's last point: every D = 2*s^k with k < m divides it, so the key
is the point times D_max, exact. A surd slope orders them by _compare.
The sort is stable either way, so tied hulls keep class order.

After the absence check both margins test containment by one rule: T
is evaluated only at the hull ends whose image is not an orbit point
already read, and _compare places each image against the ends of the
next hull. Write W_j for the hull I_j widened by the margin (W_j = I_j
at margin 0). T is monotone on [0, 1/2] and on [1/2, 1], so T(W_j) is
the hull of T at the two ends of W_j and, when W_j straddles 1/2, of
T(1/2) = c_1; it lies in W_(j+1) exactly when those points do.

T(1/2) never decides containment. The W_j are disjoint by now: at
margin 0 because the hulls did not meet, and with a margin because
widened hulls that meet make the prefix grow before T is read. c_0 =
1/2 lies in I_0, inside W_0, so no W_j of class j != 0 reaches 1/2, and
only W_0 can straddle it. Its image point T(1/2) = c_1 lies in I_1,
inside W_1, the target of class 0 (for n = 1 that is I_0, inside W_0
itself). (c_1 is read: a prefix of the one point c_0 is "degenerate".)
So T(W_j) lies in W_(j+1) for every j exactly when T at every end of
every W_j does.

- At margin 0 the ends are orbit points, and the orbit is its own
  image. An end c_i with i + 1 < m has T(c_i) = c_(i+1), a point read of
  class j + 1, so it lies in I_(j+1) with no test. This holds for 1/2 as
  an end too (c_0, or a c_k = 1/2 on a periodic orbit): T(c_k) = c_(k+1)
  all the same. So the one end tested is c_(m-1), when it is an end of
  its hull.
- With a margin mu the ends are the triples x - mu and x + mu, for x the
  ends of I_j, clamped by _compare to (0, 0, 1) and (1, 0, 1) and built
  with plain integer arithmetic on the triples of x and mu. They are no
  orbit points read, in general, so every widened end is tested.

tent_eval evaluates each tested end on its exact number, and the walk
never steps past the prefix. Beyond the tested ends, exact numbers are
built only for the detection returned: the certified hulls, or, for an
escape, the hull, its image (_tent_image, which reads T at 1/2 too) and
the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, chain, islice
from operator import mul

from .errors import InputError
from .exactnum import (
    ExactNumber, Surd, _compare, _radicand, _reduced, _sign, _tent_step, _triple,
    format_exact, parse_exact,
)

HALF = Fraction(1, 2)
ZERO, ONE = (0, 0, 1), (1, 0, 1)  # the triples of 0 and 1


def _coerce(value) -> ExactNumber:
    if isinstance(value, (Fraction, Surd)):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_exact(value)
    raise InputError(f"expected an exact number, got {value!r}")


@dataclass(frozen=True)
class TentParam:
    """A validated tent-map slope in [0, 2]."""

    a: ExactNumber

    def __post_init__(self):
        value = _coerce(self.a)
        object.__setattr__(self, "a", value)
        if value < 0 or value > 2:
            raise InputError(f"slope must lie in [0, 2], got {format_exact(value)}")

    @classmethod
    def from_text(cls, text: str) -> "TentParam":
        return cls(parse_exact(text))


def _slope(a) -> TentParam:
    return a if isinstance(a, TentParam) else TentParam(a)


def tent_eval(a, x) -> ExactNumber:
    """One exact application of the tent map; x must lie in [0, 1].

    x's triple is placed in [0, 1] and against 1/2 by _sign, and one
    kernel step (exactnum._tent_step) maps it."""
    a = _slope(a).a
    x = _coerce(x)
    P, Q, D = _triple(x)
    r = _radicand(x)
    if _sign(P, Q, r) < 0 or _sign(P - D, Q, r) > 0:
        raise InputError(f"point {format_exact(x)} outside [0, 1]")
    r = _radicand(a, x)
    P, Q, D, _ = _tent_step(*_triple(a), r, P, Q, D, _sign(2 * P - D, 2 * Q, r))
    return _reduced(P, Q, D, r)


def _walk(param: TentParam, sides: bool = False):
    """Yield the critical orbit c_0 = 1/2, c_1, ... as integer triples
    (P, Q, D) (see the module docstring): over D = 2*s^k and never
    reduced for a rational slope (r = 0), in lowest terms for a surd
    slope.

    Each point is one kernel step (exactnum._tent_step), which also
    takes the point's side, the sign of c_k - 1/2, once, to choose the
    next step. With sides=True the walk yields those signs in place of
    the points, so kneading_sequence reads each sign instead of taking
    it again."""
    p, q, s = _triple(param.a)
    r = _radicand(param.a)
    P, Q, D, side = 1, 0, 2, 0  # c_0 = 1/2
    while True:
        yield side if sides else (P, Q, D)
        P, Q, D, side = _tent_step(p, q, s, r, P, Q, D, side)


class _CriticalWalk:
    """One call's read of a slope's critical orbit: the TentParam, the
    points read so far as triples, and the rest of its _walk."""

    __slots__ = ("param", "points", "rest")

    def __init__(self, param: TentParam):
        self.param, self.points, self.rest = param, [], _walk(param)

    def read(self, m: int) -> list:
        """The points read so far, walked on to at least c_0, ..., c_(m-1)."""
        self.points += islice(self.rest, max(m - len(self.points), 0))
        return self.points


@dataclass(frozen=True)
class OrbitSegment:
    """An exact orbit prefix; points[k+1] = T(points[k]).

    status is "exact-cycle-found" when some point repeated exactly
    (cycle_start and period then describe the cycle), and
    "transient-only" when the budget ran out with all points distinct.
    """

    points: tuple
    status: str
    cycle_start: int | None = None
    period: int | None = None


def critical_orbit(a, budget: int = 64) -> OrbitSegment:
    """Orbit of the turning point 1/2 under T_a, for budget applications."""
    a = _slope(a).a
    if budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    x = HALF
    seen: dict = {}  # point -> index, in orbit order
    while x not in seen:
        seen[x] = len(seen)
        if len(seen) > budget:  # no step past the last point
            return OrbitSegment(points=tuple(seen), status="transient-only")
        x = a * x if x < HALF else a * (1 - x)
    first = seen[x]
    return OrbitSegment(
        points=tuple(seen),
        status="exact-cycle-found",
        cycle_start=first,
        period=len(seen) - first,
    )


def kneading_sequence(a, length: int) -> str:
    """Symbols of T(c), T^2(c), ...: L below 1/2, C at it, R above."""
    a = _slope(a)
    if length < 0:
        raise InputError(f"length must be >= 0, got {length}")
    # the walk's sides, the signs of c_k - 1/2; sign -1 picks "L"
    return "".join("CRL"[side] for side in islice(_walk(a, sides=True), 1, length + 1))


@dataclass(frozen=True)
class CycleDetection:
    """Outcome of the n-interval renormalization check.

    status: "certified" (disjoint hulls, cyclically mapped inside each
    other), "absent" (the exact hulls of two classes meet, which rules
    out every such family), "degenerate" (every point read is 1/2, a
    trivial cycle that certifies nothing), or "inconclusive" (the window
    ran out first: some class got no point, or the hulls of the whole
    window were disjoint but not mapped inside each other).
    intervals holds the n hulls when certified; overlap names two hull
    indices that meet; escape names (class j, image interval, target
    interval) when the window ran out on an image that leaks out.
    """

    n: int
    status: str
    window: int
    margin: ExactNumber
    intervals: tuple | None = None
    overlap: tuple | None = None
    escape: tuple | None = None


def _tent_image(a: TentParam, lo, hi):
    """Exact image interval of [lo, hi] under T_a, from T at the two ends
    and, when [lo, hi] straddles 1/2, at 1/2 for the top."""
    left, right = tent_eval(a, lo), tent_eval(a, hi)
    if hi <= HALF:
        return left, right
    if lo >= HALF:
        return right, left
    return (left if left <= right else right), tent_eval(a, HALF)


def detect_interval_cycle(a, n: int, window: int = 64, margin=0) -> CycleDetection:
    """Look for n disjoint closed intervals cyclically permuted by T_a.

    Reads the critical orbit in prefixes of m = 2n+1, 3n+1, ... points,
    the last of window points, groups point k by k mod n, and stops at
    the first prefix whose class hulls meet ("absent") or certify: exact
    pairwise disjointness and exact image containment T(I_j) inside
    I_{j+1 mod n}, for the hulls widened by the margin and clamped to
    [0, 1]. The margin plays no part in the absence test (see the
    module docstring).

    Each hull is kept as the indices of its lowest and highest point and
    grows one point at a time: a new point is compared with the two ends
    of its class by _compare on integer triples. So a window costs
    O(window) comparisons, and the walk stops at the prefix that decides.
    A prefix in which no hull moved would repeat the last verdict, which
    did not decide, so it is skipped. Containment evaluates T only at the
    hull ends whose image is not an orbit point already read: at margin 0
    the end c_(m-1) at most, with a margin every widened end (module
    docstring). Beyond those ends, exact numbers are built only for the
    detection returned: the certified hulls, or the escape's hull, image
    and target.
    """
    # tower_certificate hands its levels one shared _CriticalWalk as `a`
    orbit = a if isinstance(a, _CriticalWalk) else _CriticalWalk(_slope(a))
    a = orbit.param
    margin = _coerce(margin)
    if n < 1:
        raise InputError(f"cycle length must be >= 1, got {n}")
    if window < 1:
        raise InputError(f"window must be >= 1, got {window}")
    if margin < 0:
        raise InputError("margin must be >= 0")
    # checked up front: the margin meets the hulls only once they are disjoint
    r = _radicand(a.a, margin)
    if window < n:  # some residue class gets no point
        return CycleDetection(n=n, status="inconclusive", window=window, margin=margin)
    by_value = cmp_to_key(lambda x, y: _compare(x, y, r))
    lo, hi = list(range(n)), list(range(n))  # each class's lowest and highest point
    moved, leak, read = True, None, 0
    for m in chain(range(2 * n + 1, window, n), (window,)):
        points = orbit.read(m)
        for k in range(max(read, n), m):
            j, x = k % n, points[k]
            if _compare(x, points[lo[j]], r) < 0:
                lo[j], moved = k, True
            elif _compare(x, points[hi[j]], r) > 0:
                hi[j], moved = k, True
        read = m
        if not moved:
            continue  # the same hulls as the last prefix examined, which did not decide
        moved = False
        # no hull moved off its class's first point c_j, and those are all c_0
        if lo == hi and all(_compare(points[j], points[0], r) == 0 for j in range(n)):
            return CycleDetection(n=n, status="degenerate", window=window, margin=margin)
        if r:
            keys = [by_value(points[i]) for i in lo]
        else:  # P*(D_max // D) is exact: every D = 2*s^k divides D_max = 2*s^(m-1)
            top = points[m - 1][2]
            keys = [P * (top // D) for P, _, D in map(points.__getitem__, lo)]
        order = sorted(range(n), key=keys.__getitem__)  # stable: ties keep class order
        neighbours = list(zip(order, order[1:]))
        for prev, nxt in neighbours:
            if _compare(points[hi[prev]], points[lo[nxt]], r) >= 0:
                return CycleDetection(
                    n=n, status="absent", window=window, margin=margin, overlap=(prev, nxt)
                )
        leak = None
        if margin:  # the widened ends x - mu and x + mu, clamped to [0, 1]: each is tested
            mP, mQ, mD = _triple(margin)
            ends = []
            for i, k in zip(lo, hi):
                (P, Q, D), (P2, Q2, D2) = points[i], points[k]
                low = (P * mD - mP * D, Q * mD - mQ * D, D * mD)
                high = (P2 * mD + mP * D2, Q2 * mD + mQ * D2, D2 * mD)
                ends.append((ZERO if _compare(low, ZERO, r) < 0 else low,
                             ONE if _compare(high, ONE, r) > 0 else high))
            if any(_compare(ends[prev][1], ends[nxt][0], r) >= 0 for prev, nxt in neighbours):
                continue  # widened hulls that meet certify nothing, and rule nothing out
            tested = [(j, x) for j, end in enumerate(ends) for x in end]
        else:  # the orbit is its own image: only an end c_(m-1) has no image read
            ends = [(points[i], points[k]) for i, k in zip(lo, hi)]
            j = (m - 1) % n
            tested = ((j, points[m - 1]),) if m - 1 in (lo[j], hi[j]) else ()
        for j, x in tested:
            y, target = _triple(tent_eval(a, _reduced(*x, r))), ends[(j + 1) % n]
            if _compare(y, target[0], r) < 0 or _compare(y, target[1], r) > 0:
                leak = j
                break
        else:
            intervals = tuple((_reduced(*x, r), _reduced(*y, r)) for x, y in ends)
            return CycleDetection(n=n, status="certified", window=window, margin=margin,
                                  intervals=intervals)
    escape = None
    if leak is not None:  # the hulls of the last prefix examined, which no later point moved
        hulls = [(_reduced(*x, r), _reduced(*y, r)) for x, y in ends]
        escape = (leak, _tent_image(a, *hulls[leak]), hulls[(leak + 1) % n])
    return CycleDetection(n=n, status="inconclusive", window=window, margin=margin, escape=escape)


DISCLAIMER = (
    "certified levels witness disjoint interval families cyclically permuted "
    "by the map; they are necessary evidence for adding-machine structure on "
    "the critical orbit closure, not a proof of it"
)


@dataclass(frozen=True)
class TowerCertificate:
    """detect_interval_cycle run at each cumulative level size.

    levels pairs each size with its CycleDetection; deepest_certified
    counts how many leading levels certified. The disclaimer travels
    with every certificate.
    """

    slope: ExactNumber
    sizes: tuple[int, ...]
    levels: tuple
    deepest_certified: int
    disclaimer: str = DISCLAIMER


def tower_certificate(a, primes, window: int = 64, margin=0) -> TowerCertificate:
    """Certify nested interval cycles at sizes p1, p1*p2, ... in order."""
    a = _slope(a)
    primes = tuple(primes)
    if not primes:
        raise InputError("need at least one prime level")
    for p in primes:
        if not isinstance(p, int) or isinstance(p, bool) or p < 2:
            raise InputError(f"level factor must be an integer >= 2, got {p!r}")
    sizes = tuple(accumulate(primes, mul))
    # the levels share one walk, and each is still one detect_interval_cycle call
    orbit = _CriticalWalk(a)
    levels = tuple(detect_interval_cycle(orbit, size, window, margin) for size in sizes)
    deepest = 0
    for det in levels:
        if det.status != "certified":
            break
        deepest += 1
    return TowerCertificate(
        slope=a.a, sizes=sizes, levels=levels, deepest_certified=deepest
    )
