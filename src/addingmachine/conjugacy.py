"""From minimal finite systems to adding-machine factors.

The bridge object is a tower: a chain of partitions of the state set,
each refining the last, whose blocks every map permutes cyclically. A
depth-k tower with level sizes m_1 | m_2 | ... | m_k assigns each state
a digit vector, and that assignment intertwines every map of the system
with the successor map of the mixed-radix adding machine. Towers are
grown one prime at a time through mod-n colorings: a coloring mod n
labels states with Z_n so that every map advances the label by one.

With the block containing state 0 pinned to index 0, the coloring at
each size is unique, so tower growth, the resulting factor map, and all
reports here are deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ._intmath import factorize
from .errors import InputError, InternalConsistencyError
from .finite_ifs import (
    FiniteIFS,
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

    Requires n >= 2 and a minimal system. Colors propagate breadth-first
    from state 0; minimality makes every state reachable and every edge
    is checked once, so success really is a coloring and failure returns
    the first contradicted edge in scan order.
    """
    if n < 2:
        raise InputError(f"coloring modulus must be >= 2, got {n}")
    if not is_minimal(F):
        raise InputError("mod-n colorings are defined for minimal systems only")
    colors: list[int | None] = [None] * F.n_states
    colors[0] = 0
    queue = [0]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        want = (colors[x] + 1) % n
        for label in F.labels:
            y = F.table(label)[x]
            if colors[y] is None:
                colors[y] = want
                queue.append(y)
            elif colors[y] != want:
                return ColoringObstruction(
                    n=n, state=x, label=label, successor=y,
                    expected=want, found=colors[y],
                )
    assert None not in colors  # minimality: everything is reachable from 0
    return ModNColoring(n=n, colors=tuple(colors))


# -- towers ------------------------------------------------------------------


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

    @classmethod
    def trivial(cls, system: FiniteIFS) -> "CyclicTower":
        return cls(system=system, primes=(), levels=())

    @property
    def depth(self) -> int:
        return len(self.primes)

    def size(self, i: int) -> int:
        """Number of blocks at level i (level 0 is the whole space)."""
        out = 1
        for p in self.primes[:i]:
            out *= p
        return out

    @property
    def top_size(self) -> int:
        return self.size(self.depth)

    def block_index(self, level: int, x: int) -> int:
        """Index of the block of x at the given level (1-based level)."""
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
            for label in self.system.labels:
                t = self.system.table(label)
                for j, block in enumerate(level):
                    if {t[x] for x in block} != set(level[(j + 1) % m]):
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

    For each prime p with p * top_size <= number of states, attempts the
    mod-(p * top_size) coloring; the extension is kept when the coloring
    exists and every map carries each fiber onto (not just into) the
    next. Fibers are shifted so their indices reduce to the existing
    tower's block indices, which keeps the chain nested.
    """
    if tower.system != F:
        raise InputError("tower belongs to a different system")
    tower.validate()
    m = tower.top_size
    out = []
    for p in range(2, F.n_states // m + 1):
        if factorize(p) != {p: 1}:
            continue
        size = p * m
        coloring = find_mod_n_coloring(F, size)
        if isinstance(coloring, ColoringObstruction):
            continue
        shift = tower.block_index(tower.depth, 0) if tower.depth else 0
        colors = tuple((c + shift) % size for c in coloring.colors)
        fibers: list[list[int]] = [[] for _ in range(size)]
        for x, c in enumerate(colors):
            fibers[c].append(x)
        level = tuple(tuple(f) for f in fibers)
        onto = all(
            {F.table(label)[x] for x in level[j]} == set(level[(j + 1) % size])
            for label in F.labels
            for j in range(size)
        )
        if not onto:
            continue
        candidate = CyclicTower(
            system=F, primes=tower.primes + (p,), levels=tower.levels + (level,)
        )
        candidate.validate()
        out.append((p, candidate))
    return out


def max_tower(F: FiniteIFS) -> CyclicTower:
    """Grow a tower greedily, always taking the smallest viable prime."""
    if not is_minimal(F):
        raise InputError("towers are defined for minimal systems only")
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
        out = 1
        for p in self.primes:
            out *= p
        return out

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
    tower.validate()
    n = F.n_states
    if tower.depth == 0:
        return FactorMap(primes=(), digits=((),) * n, residues=(0,) * n)
    base = BaseSequence(prefix=tower.primes, tail=())
    index_at = [
        {x: j for j, block in enumerate(blocks) for x in block}
        for blocks in tower.levels
    ]
    residues = tuple(index_at[-1][x] for x in range(n))
    digits = tuple(
        from_residue(base, tower.depth, r).digits for r in residues
    )
    # nesting makes the top block index determine every level's index
    for level in range(1, tower.depth):
        m = tower.size(level)
        for x in range(n):
            if index_at[level - 1][x] != residues[x] % m:
                raise InternalConsistencyError(
                    f"level {level} index of state {x} breaks the digit chain"
                )
    return FactorMap.from_digits(tower.primes, digits)


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
    """

    primes: tuple[int, ...]
    multiplicities: tuple[tuple[int, int], ...]

    def base(self) -> BaseSequence | None:
        return BaseSequence(prefix=self.primes, tail=()) if self.primes else None


def tower_to_alpha(tower: CyclicTower) -> AlphaReport:
    """Read the base off the tower and cross-validate against nm_set.

    Disagreement between the tower's prime counts and the maxima over
    the power spectrum signals a bug or a guard leak, and raises
    InternalConsistencyError rather than returning a report.
    """
    tower.validate()
    F = tower.system
    tower_counts = Counter(tower.primes)
    spectrum = [factorize(s) for s in nm_set(F, F.n_states)]
    for p in sorted(set(tower_counts).union(*spectrum)):
        from_spectrum = max(f.get(p, 0) for f in spectrum)
        if tower_counts.get(p, 0) != from_spectrum:
            raise InternalConsistencyError(
                f"tower gives {p}^{tower_counts.get(p, 0)} but the power spectrum"
                f" supports {p}^{from_spectrum}"
            )
    mults = tuple(sorted(tower_counts.items()))
    return AlphaReport(primes=tower.primes, multiplicities=mults)


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
