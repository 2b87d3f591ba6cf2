"""From minimal finite systems to adding-machine factors.

The bridge object is a tower: a chain of partitions of the state set,
each refining the last, whose blocks every map permutes cyclically. A
depth-k tower with level sizes m_1 | m_2 | ... | m_k assigns each state
a digit vector, and that assignment intertwines every map of the system
with the successor map of the mixed-radix adding machine. Towers are
grown one prime at a time through mod-n colorings: a coloring mod n
labels states with Z_n so that every map advances the label by one.

A coloring is read off one breadth-first search of the union graph
from state 0, labels scanned in order. Let l(x) be the level at which
x is found (minimality makes every state found) and let the period d
be the gcd of l(x) + 1 - l(y) over all edges x -> y. A mod-n coloring
c with c(0) = 0 is l mod n: every state y other than 0 was first found
along an edge x -> y with l(y) = l(x) + 1, where c(y) = c(x) + 1, so
induction on l gives c(y) = l(y) mod n. Hence the coloring is unique
(so tower growth, factor maps and all reports here are deterministic),
and it exists iff n divides l(x) + 1 - l(y) on every edge, that is iff
n divides d. The differences sum to the length of any closed walk, so
d divides every cycle length and is at most the number of states |X|.
The search, its order, l and d are all in the system's summary
(finite_ifs._summary), built once per system.

When n does not divide d, the obstruction reported is the first edge
x -> y, in the search's scan order (states in the order found, labels
in order at each), whose difference l(x) + 1 - l(y) is not a multiple
of n. That is the edge a search that colors states as it finds them
stops at: it colors y with l(y) mod n on the edge that finds y, whose
difference is 0, so it never stops there, and it tests every other
edge x -> y against colors already final, l(x) and l(y) mod n. It
stops at the first edge that fails, and its queue up to x is the full
search's order, so the two agree on the witness.

A tower level of size m is a coloring mod m up to a shift, so m
divides d. Each map carries its block j onto block j + 1, so block
sizes cannot grow around the cycle and are all equal: m divides |X|
too. A tower of top size m can thus grow by a prime p only if p
divides |X| / m, and those are the only primes extend_tower tries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import prod

from ._intmath import factorize
from .errors import InputError
from .finite_ifs import (
    FiniteIFS,
    _summary,
    is_minimal,
    nm_set,
    regularly_recurrent_points,
)
from .odometer import BaseSequence, OdometerPoint, from_residue


# -- colorings --------------------------------------------------------------


@dataclass(frozen=True)
class ModNColoring:
    """colors[x] in Z_n with every map advancing the color by one."""

    n: int
    colors: tuple[int, ...]

    def fibers(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for x, c in enumerate(self.colors):
            out[c].append(x)
        return tuple(tuple(f) for f in out)


@dataclass(frozen=True)
class ColoringObstruction:
    """Witness that no coloring mod n exists: one edge got two colors.

    Following label from state forces color expected on successor, but
    successor was already forced to color found along another path.
    """

    n: int
    state: int
    label: str
    successor: int
    expected: int
    found: int


def find_mod_n_coloring(F: FiniteIFS, n: int):
    """The unique mod-n coloring with state 0 colored 0, or an obstruction.

    Requires n >= 2 and a minimal system. The coloring is the BFS level
    l mod n, and it exists iff n divides the period d (see the module
    docstring). Otherwise the obstruction is the first edge x -> y in
    scan order that breaks it, with expected = (l(x) + 1) mod n and
    found = l(y) mod n.
    """
    if n < 2:
        raise InputError(f"coloring modulus must be >= 2, got {n}")
    summary = _summary(F)
    if not summary.minimal:
        raise InputError("mod-n colorings are defined for minimal systems only")
    levels = summary.levels
    if summary.period % n:  # d is the gcd of the differences, so one fails
        for x in summary.order:
            for label in F.labels:
                y = F.table(label)[x]
                if (levels[x] + 1 - levels[y]) % n:
                    return ColoringObstruction(
                        n=n, state=x, label=label, successor=y,
                        expected=(levels[x] + 1) % n, found=levels[y] % n,
                    )
    return ModNColoring(n=n, colors=tuple(level % n for level in levels))


# -- towers ------------------------------------------------------------------


def _first_not_onto(F: FiniteIFS, blocks):
    """First (label, j) whose map does not carry block j onto block j + 1."""
    for label in F.labels:
        t = F.table(label)
        for j, block in enumerate(blocks):
            if {t[x] for x in block} != set(blocks[(j + 1) % len(blocks)]):
                return label, j
    return None


@dataclass(frozen=True)
class CyclicTower:
    """Nested partitions cyclically permuted by every map of the system.

    levels[i] is a tuple of m_{i+1} blocks (sorted state tuples) where
    m_i is the product of the first i primes; block j of a level maps
    onto block j+1 (mod level size) under every map, and block j at one
    level sits inside block j mod m_i of the level above.
    """

    system: FiniteIFS
    primes: tuple[int, ...]
    levels: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        self.validate()

    @classmethod
    def trivial(cls, system: FiniteIFS) -> "CyclicTower":
        return cls(system=system, primes=(), levels=())

    @property
    def depth(self) -> int:
        return len(self.primes)

    def size(self, i: int) -> int:
        """Number of blocks at level i (level 0 is the whole space)."""
        if not 0 <= i <= self.depth:
            raise InputError(f"tower level {i} outside 0..{self.depth}")
        return prod(self.primes[:i])

    @property
    def top_size(self) -> int:
        return self.size(self.depth)

    def block_index(self, level: int, x: int) -> int:
        """Index of the block of x at the given level (1-based level)."""
        if not 1 <= level <= self.depth:
            raise InputError(f"tower level {level} outside 1..{self.depth}")
        for j, block in enumerate(self.levels[level - 1]):
            if x in block:
                return j
        raise InputError(f"state {x} not covered at level {level}")

    def validate(self) -> None:
        """Raise InputError unless every tower invariant holds."""
        if len(self.levels) != len(self.primes):
            raise InputError("tower has mismatched primes and levels")
        states = list(self.system.states)
        for i, (p, level) in enumerate(zip(self.primes, self.levels), start=1):
            if factorize(p) != {p: 1}:
                raise InputError(f"tower factor {p} at level {i} is not prime")
            m = self.size(i)
            if len(level) != m:
                raise InputError(f"level {i} has {len(level)} blocks, expected {m}")
            seen: list[int] = []
            for block in level:
                if not block or list(block) != sorted(block):
                    raise InputError(f"level {i} has an empty or unsorted block")
                seen.extend(block)
            if sorted(seen) != states:
                raise InputError(f"level {i} blocks do not partition the states")
            broken = _first_not_onto(self.system, level)
            if broken is not None:
                label, j = broken
                raise InputError(
                    f"map {label!r} does not send level-{i} block {j} onto block {(j + 1) % m}"
                )
            if i >= 2:
                prev_m = self.size(i - 1)
                prev = self.levels[i - 2]
                for j, block in enumerate(level):
                    if not set(block) <= set(prev[j % prev_m]):
                        raise InputError(
                            f"level-{i} block {j} is not inside level-{i - 1} block {j % prev_m}"
                        )


def extend_tower(F: FiniteIFS, tower: CyclicTower):
    """All one-prime extensions of the tower, smallest prime first.

    Every map carries a level's block j onto block j + 1, so all blocks
    of a level have one size and the level size divides the state count
    |X|. The candidates are therefore the primes p dividing |X| / m, m
    the top size of the tower, and each one's level is the fibers of the
    coloring mod p * m, if there is one, rotated so their indices
    reduce to the tower's block indices, which keeps the chain nested.
    An extension is kept when every map carries each fiber onto (not
    just into) the next. A bijection always does: it carries each fiber
    into the next, and the images of the fibers are disjoint and cover
    X, so each image is all of the next fiber. So only systems with a
    map that is not a bijection test it here; the new CyclicTower
    checks it again either way.
    """
    if tower.system != F:
        raise InputError("tower belongs to a different system")
    if not is_minimal(F):
        raise InputError("towers are defined for minimal systems only")
    bijective = _summary(F).bijective
    m = tower.top_size
    shift = tower.block_index(tower.depth, 0) if tower.depth else 0
    out = []
    for p in sorted(factorize(F.n_states // m)):
        size = p * m
        coloring = find_mod_n_coloring(F, size)
        if isinstance(coloring, ColoringObstruction):
            continue
        fibers = coloring.fibers()
        blocks = tuple(fibers[(j - shift) % size] for j in range(size))
        if bijective or _first_not_onto(F, blocks) is None:
            out.append((p, CyclicTower(
                system=F, primes=tower.primes + (p,), levels=tower.levels + (blocks,)
            )))
    return out


def max_tower(F: FiniteIFS) -> CyclicTower:
    """Grow a tower greedily, always taking the smallest viable prime."""
    tower = CyclicTower.trivial(F)
    while True:
        extensions = extend_tower(F, tower)
        if not extensions:
            return tower
        tower = extensions[0][1]


# -- factor maps -------------------------------------------------------------


@dataclass(frozen=True)
class FactorMap:
    """Assignment of a depth-k digit vector to every state.

    digits[x] is least significant first over the prime radices; the
    residue is the integer the vector encodes. A depth-0 map is the
    constant map to the one-point system.
    """

    primes: tuple[int, ...]
    digits: tuple[tuple[int, ...], ...]
    residues: tuple[int, ...]

    @classmethod
    def from_digits(cls, primes, digits) -> "FactorMap":
        primes = tuple(primes)
        digits = tuple(tuple(d) for d in digits)
        residues = []
        for vector in digits:
            if len(vector) != len(primes):
                raise InputError("digit vector length differs from tower depth")
            value, weight = 0, 1
            for d, p in zip(vector, primes):
                if not 0 <= d < p:
                    raise InputError(f"digit {d} outside 0..{p - 1}")
                value += d * weight
                weight *= p
            residues.append(value)
        return cls(primes=primes, digits=digits, residues=tuple(residues))

    @property
    def depth(self) -> int:
        return len(self.primes)

    @property
    def modulus(self) -> int:
        return prod(self.primes)

    def base(self) -> BaseSequence:
        if not self.primes:
            raise InputError("a depth-0 factor map has no base")
        return BaseSequence(prefix=self.primes, tail=())

    def point(self, x: int) -> OdometerPoint:
        return OdometerPoint(self.base(), self.digits[x])

    def is_injective(self) -> bool:
        return len(set(self.residues)) == len(self.residues)


def build_factor_map(F: FiniteIFS, tower: CyclicTower) -> FactorMap:
    """Digit vectors read off the tower: state x gets its block indices."""
    if tower.system != F:
        raise InputError("tower belongs to a different system")
    n = F.n_states
    if tower.depth == 0:
        return FactorMap(primes=(), digits=((),) * n, residues=(0,) * n)
    base = BaseSequence(prefix=tower.primes, tail=())
    # nesting, checked when the tower was built, makes the top block
    # index determine every level's index
    index_at = {x: j for j, block in enumerate(tower.levels[-1]) for x in block}
    residues = tuple(index_at[x] for x in range(n))
    # one digit vector per top block, shared by the states in it
    vectors = [from_residue(base, tower.depth, r).digits for r in range(tower.top_size)]
    digits = tuple(vectors[r] for r in residues)
    return FactorMap(primes=tuple(tower.primes), digits=digits, residues=residues)


@dataclass(frozen=True)
class EquivarianceReport:
    """Whether every map of the system advances the factor by one step."""

    passed: bool
    witness: tuple[str, int] | None
    per_label: tuple[tuple[str, bool], ...]
    checks: int


def verify_equivariance(F: FiniteIFS, fm: FactorMap) -> EquivarianceReport:
    """Check residue(f(x)) = residue(x) + 1 mod m for every map and state."""
    if len(fm.residues) != F.n_states:
        raise InputError("factor map does not fit the system's state count")
    m = fm.modulus
    witness = None
    per_label = []
    checks = 0
    for label in F.labels:
        t = F.table(label)
        ok = True
        for x in F.states:
            checks += 1
            if fm.residues[t[x]] != (fm.residues[x] + 1) % m:
                ok = False
                if witness is None:
                    witness = (label, x)
        per_label.append((label, ok))
    return EquivarianceReport(
        passed=witness is None,
        witness=witness,
        per_label=tuple(per_label),
        checks=checks,
    )


# -- the induced base --------------------------------------------------------


@dataclass(frozen=True)
class AlphaReport:
    """The truncated base a tower realizes, cross-checked two ways.

    multiplicities pairs each prime with its count among the tower
    factors; the same counts must re-emerge as the highest power of the
    prime dividing any member of the power spectrum of the system.
    mismatch describes the first prime, in ascending order, where they
    differ, and is None when the check passes.
    """

    primes: tuple[int, ...]
    multiplicities: tuple[tuple[int, int], ...]
    mismatch: str | None = None

    def base(self) -> BaseSequence | None:
        return BaseSequence(prefix=self.primes, tail=()) if self.primes else None


def tower_to_alpha(tower: CyclicTower) -> AlphaReport:
    """Read the base off the tower and cross-validate against nm_set.

    A prime whose tower count differs from the highest power the power
    spectrum supports is a finding, named in the report's mismatch.
    """
    F = tower.system
    tower_counts = Counter(tower.primes)
    spectrum = [factorize(s) for s in nm_set(F, F.n_states)]
    mismatch = None
    for p in sorted(set(tower_counts).union(*spectrum)):
        from_spectrum = max(f.get(p, 0) for f in spectrum)
        if tower_counts.get(p, 0) != from_spectrum:
            mismatch = (f"tower gives {p}^{tower_counts.get(p, 0)} but the power spectrum"
                        f" supports {p}^{from_spectrum}")
            break
    mults = tuple(sorted(tower_counts.items()))
    return AlphaReport(primes=tower.primes, multiplicities=mults, mismatch=mismatch)


def injectivity_on_regularly_recurrent(
    F: FiniteIFS, fm: FactorMap, rr=None
) -> bool:
    """Whether the factor map separates the regularly recurrent states.

    Vacuously true when that set is empty or a singleton.
    """
    if rr is None:
        rr = regularly_recurrent_points(F)
    rr = sorted(rr)
    values = [fm.residues[x] for x in rr]
    return len(set(values)) == len(values)
