"""Symmetric tent maps with exact arithmetic.

T_a(x) = a*x for x < 1/2 and a*(1-x) for x >= 1/2, with slope a in
[0, 2]. Parameters and points are Fractions or quadratic surds, so
orbits, kneading symbols, and interval endpoints are all exact; cycles
are detected by exact equality, never by closeness.

Every orbit comes from one walk, _orbit, the module's only caller of
tent_eval: it yields x, T(x), T(T(x)), ... and checks each point
against [0, 1] before yielding it. After the starting point that check
always passes, because T_a maps [0, 1] into [0, a/2] and a <= 2; it
stays so that an outside starting point is rejected.

Each TentParam keeps the prefix of the critical orbit (the orbit of 1/2)
walked so far, and _orbit(param, HALF) reads and extends that list, so
the levels of one tower_certificate, or any other consumers handed the
same TentParam, share one walk. The memo lives exactly as long as its
TentParam: public functions given a raw slope build a fresh TentParam,
so every call with an equal slope value walks the orbit again. Nothing
is cached across calls (no module-level table, no lru_cache), because a
process-wide cache would grow with every slope ever seen and would only
pay off for repeated identical calls, which a CLI run never makes.

The renormalization detector looks for n closed intervals, one per
residue class of the iteration index, that are pairwise disjoint and
cyclically permuted by the map. Such a family is the interval
counterpart of one tower level of a cyclic partition, and certified
levels for sizes m_1 | m_2 | ... chain into an adding-machine-style
certificate (necessary evidence, not a proof of the full structure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from .errors import InputError
from .exactnum import ExactNumber, Surd, exact_sign, format_exact, parse_exact

HALF = Fraction(1, 2)


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
    """A validated tent-map slope in [0, 2].

    _critical is the walked prefix of the critical orbit, 1/2, T(1/2), ...;
    it takes no part in equality, hashing or repr.
    """

    a: ExactNumber
    _critical: list = field(
        default_factory=lambda: [HALF], init=False, compare=False, repr=False
    )

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
    """One exact application of the tent map; x must lie in [0, 1]."""
    a = _slope(a).a
    x = _coerce(x)
    if x < 0 or x > 1:
        raise InputError(f"point {format_exact(x)} outside [0, 1]")
    if x < HALF:
        return a * x
    return a * (1 - x)


def _orbit(param: TentParam, x):
    """Yield x, T(x), T(T(x)), ...; each point is checked before it is yielded.

    From HALF the walk reads param's critical-orbit memo and extends it
    one point ahead of what it yields (computing T(x) checks x). Walks
    over one memo may interleave, even from two threads: a walk writes
    index k + 1 only from index k, and the slice assignment stores the
    same value whichever walk gets there first, never a second copy.
    """
    points = param._critical if x == HALF else [x]
    k = 0
    while True:
        if len(points) == k + 1:
            points[k + 1:k + 2] = [tent_eval(param, points[k])]
        yield points[k]
        k += 1


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

    @property
    def start(self):
        return self.points[0]

    def __len__(self):
        return len(self.points)


def critical_orbit(a, budget: int = 64) -> OrbitSegment:
    """Orbit of the turning point 1/2 under T_a, for budget applications."""
    a = _slope(a)
    if budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    seen: dict = {}  # point -> index, in orbit order
    for x in islice(_orbit(a, HALF), budget + 1):
        if x in seen:
            first = seen[x]
            return OrbitSegment(
                points=tuple(seen),
                status="exact-cycle-found",
                cycle_start=first,
                period=len(seen) - first,
            )
        seen[x] = len(seen)
    return OrbitSegment(points=tuple(seen), status="transient-only")


def kneading_sequence(a, length: int) -> str:
    """Symbols of T(c), T^2(c), ...: L below 1/2, C at it, R above."""
    a = _slope(a)
    if length < 0:
        raise InputError(f"length must be >= 0, got {length}")
    orbit = islice(_orbit(a, HALF), 1, length + 1)
    return "".join("CRL"[exact_sign(x - HALF)] for x in orbit)  # sign -1 picks "L"


@dataclass(frozen=True)
class OmegaEstimate:
    """Closed rational-endpoint intervals covering the sampled tail.

    An outer cover of the observed samples: every post-transient sample
    lies inside some interval. Samples closer than the resolution are
    merged into one interval.
    """

    intervals: tuple
    resolution: ExactNumber
    transient: int
    window: int
    samples: tuple


def omega_limit_estimate(a, y, transient: int, window: int, resolution=0) -> OmegaEstimate:
    """Iterate past the transient, then cover the next window of points."""
    a = _slope(a)
    y = _coerce(y)
    resolution = _coerce(resolution)
    if transient < 0 or window < 1:
        raise InputError("need transient >= 0 and window >= 1")
    if resolution < 0:
        raise InputError("resolution must be >= 0")
    samples = tuple(islice(_orbit(a, y), transient, transient + window))
    ordered = sorted(set(samples))
    intervals = []
    lo = hi = ordered[0]
    for v in ordered[1:]:
        if v - hi <= resolution:
            hi = v
        else:
            intervals.append((lo, hi))
            lo = hi = v
    intervals.append((lo, hi))
    return OmegaEstimate(
        intervals=tuple(intervals),
        resolution=resolution,
        transient=transient,
        window=window,
        samples=samples,
    )


@dataclass(frozen=True)
class CycleDetection:
    """Outcome of the n-interval renormalization check.

    status: "certified" (disjoint hulls, cyclically mapped inside each
    other), "absent" (a witness breaks disjointness or containment),
    "degenerate" (the sampled tail is one repeated point, a trivial
    cycle that certifies nothing), or "inconclusive" (some residue class
    got no samples).
    intervals holds the n hulls when certified; overlap names two hull
    indices that touch; escape names (class j, image interval, target
    interval) when an image leaks out.
    """

    n: int
    status: str
    transient: int
    window: int
    margin: ExactNumber
    intervals: tuple | None = None
    overlap: tuple | None = None
    escape: tuple | None = None


def _tent_image(a, lo, hi):
    """Exact image interval of [lo, hi] under T_a."""
    if hi <= HALF:
        return a * lo, a * hi
    if lo >= HALF:
        return a * (1 - hi), a * (1 - lo)
    left, right = a * lo, a * (1 - hi)
    return (left if left <= right else right), a * HALF


def detect_interval_cycle(a, n: int, transient: int = 0, window: int = 64, margin=0) -> CycleDetection:
    """Look for n disjoint closed intervals cyclically permuted by T_a.

    Samples the critical orbit, groups sample k by k mod n, and takes
    each group's hull (widened by the margin, clamped to [0, 1]). The
    certificate requires exact pairwise disjointness and exact image
    containment T(I_j) inside I_{j+1 mod n}.
    """
    a = _slope(a)
    margin = _coerce(margin)
    if n < 1:
        raise InputError(f"cycle length must be >= 1, got {n}")
    if transient < 0 or window < 1:
        raise InputError("need transient >= 0 and window >= 1")
    if margin < 0:
        raise InputError("margin must be >= 0")
    groups: list[list[ExactNumber]] = [[] for _ in range(n)]
    for k, x in enumerate(islice(_orbit(a, HALF), transient, transient + window), transient):
        groups[k % n].append(x)
    if any(not g for g in groups):
        return CycleDetection(
            n=n, status="inconclusive", transient=transient, window=window, margin=margin
        )
    bounds = [(min(g), max(g)) for g in groups]
    v = bounds[0][0]
    if all(lo == v and hi == v for lo, hi in bounds):
        return CycleDetection(
            n=n, status="degenerate", transient=transient, window=window, margin=margin
        )
    hulls = []
    for lo, hi in bounds:
        lo, hi = lo - margin, hi + margin
        if lo < 0:
            lo = Fraction(0)
        if hi > 1:
            hi = Fraction(1)
        hulls.append((lo, hi))
    order = sorted(range(n), key=lambda j: hulls[j][0])
    for prev, nxt in zip(order, order[1:]):
        if not hulls[prev][1] < hulls[nxt][0]:
            return CycleDetection(
                n=n, status="absent", transient=transient, window=window,
                margin=margin, overlap=(prev, nxt),
            )
    for j in range(n):
        img = _tent_image(a.a, *hulls[j])
        target = hulls[(j + 1) % n]
        if img[0] < target[0] or img[1] > target[1]:
            return CycleDetection(
                n=n, status="absent", transient=transient, window=window,
                margin=margin, escape=(j, img, target),
            )
    return CycleDetection(
        n=n, status="certified", transient=transient, window=window,
        margin=margin, intervals=tuple(hulls),
    )


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


def tower_certificate(a, primes, transient: int = 0, window: int = 64, margin=0) -> TowerCertificate:
    """Certify nested interval cycles at sizes p1, p1*p2, ... in order."""
    a = _slope(a)
    primes = tuple(primes)
    if not primes:
        raise InputError("need at least one prime level")
    for p in primes:
        if not isinstance(p, int) or isinstance(p, bool) or p < 2:
            raise InputError(f"level factor must be an integer >= 2, got {p!r}")
    sizes = []
    m = 1
    for p in primes:
        m *= p
        sizes.append(m)
    levels = tuple(
        detect_interval_cycle(a, size, transient=transient, window=window, margin=margin)
        for size in sizes
    )
    deepest = 0
    for det in levels:
        if det.status != "certified":
            break
        deepest += 1
    return TowerCertificate(
        slope=a.a, sizes=tuple(sizes), levels=levels, deepest_certified=deepest
    )
