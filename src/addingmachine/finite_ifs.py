"""Iterated function systems on a finite set of states.

A system is a finite family of total maps f_label : X -> X on
X = {0, ..., n-1}, together with an optional exact metric (the discrete
metric by default). Words act first letter first: the word "ab" means
apply f_a, then f_b.

The central notion: a set M is minimal for the n-th power of the system
when every length-n word maps M onto itself and no nonempty proper
subset of M is mapped to itself by all length-n words simultaneously.

Minimal sets come from one rule. Fix a length L. R_L is one bitmask
per state: bit y of R_L[x] is set when some length-L word sends x to y.
C_L is the set of pairs {x, y}, x != y, that some length-L word sends
to one state. The forward closure of x under R_L is the smallest set
holding x and R_L[y] for each of its states y. Then the minimal sets
of length L are the forward closures under R_L that hold no pair of C_L.

(<=) Let B be the closure of x, holding no pair of C_L. Every length-L
table T maps B into B, as B is closed under R_L, and one-to-one, as no
pair of B collapses, so T permutes B. The restrictions to B of the
words of lengths L, 2L, 3L, ... form a finite semigroup of
permutations, which is a group. Every y in B is reached from x by one
of those words, so another one sends y back to x: every state of B has
closure B. A nonempty S inside B with T(S) = S for every table T holds
the closure of each of its states, so S = B, and B is minimal.
(=>) Let M be minimal. Every table maps M onto M, so it is one-to-one
on M, no pair of M lies in C_L, and M is closed under R_L. The closure
of any x in M is a subset of M that every table maps into itself, so by
minimality it is M.

So two minimal sets are equal or disjoint, and _pair_free_closures
finds them one state at a time: the closure of the lowest state x left
is a minimal set if it holds no pair of C_L, and then it is the closure
of each of its states; otherwise x lies in no minimal set. On a system
of bijections no word collapses a pair, and C_L is empty.

A rejected closure rejects backwards. Call a state bad when its closure
holds a pair of C_L. A bad state lies in no minimal set, as each state
of a minimal set M has closure M, which holds no pair. If R_L[y] holds a
bad state z, the closure of y holds z, so it holds the closure of z and
its pair: y is bad too. So when the closure of the lowest state x left
is rejected, _pair_free_closures drops x, then every state left whose
R_L row meets the states just dropped, and repeats that step until it
drops none. Every dropped state is bad, so no minimal set loses a
state, and a closure that would be rejected again is not grown again.
Closures still grow over all of R_L, dropped states included, so an
accepted block is the whole closure of its lowest state.

A word of length L+1 is a first letter f followed by a word of length
L, so R_{L+1}[x] is the OR of R_L[f(x)] over the maps f (_reach_walk),
and C_{L+1} is the set of pairs {x, y} such that some map f has
f(x) = f(y) or {f(x), f(y)} in C_L. Appending a letter keeps a
collapse, so C_L is the set of pairs whose shortest collapsing word has
length at most L, and one backward breadth-first search from the
diagonal of the pair graph, with edges {x, y} -> {f(x), f(y)}, finds
all those lengths (_collapse_layers; the graph of Eppstein's reset
sequences, SIAM J. Comput. 1990). Both R_L and C_L are held as one
bitmask per state: bit y of C_L's entry x is set when {x, y} is in C_L.
nm_set walks (R_L, C_L) and builds no word table; minimal_sets reads
R_n and C_n off the x-columns of the length-n tables. Minimality is
decided on the union graph (an edge x -> f(x) for every map f) by two
searches, once per system.

One walk per system. nm_set keeps its outcome on the system: the bound
it walked to, whether R repeated, and the members found. Whether n is a
member depends on the layers 1..n alone, and a walk to a bound b takes
the first steps of a walk to any larger bound B, b of them or fewer
when R repeats first. So the members up to b of the walk to B are those
of the walk to b. After a repeat no member appears at any length
(nm_set), so the stored members then answer every bound. Only a call
past an unrepeated walk walks again, to its own bound.

One summary per system. _summary(F) runs the two searches of is_minimal
once and keeps what they show: whether the system is minimal; the
breadth-first order of the states from state 0, maps scanned in label
order, and the level l(x) at which each state is found; the period d,
the gcd of l(x) + 1 - l(y) over all edges x -> y; whether every map is
a bijection; and whether all maps share one table. It is built at most
once per system and cached on it. On a minimal system l mod d is a
coloring (see the conjugacy docstring): every edge x -> y has
l(y) = l(x) + 1 mod d, so a word of length L moves l by L mod d. Every
residue mod d is some l(x), as walks of every length leave state 0.

On a minimal system of bijections, with N states, two closed forms
follow from l and d; nm_set keeps its walk all the same, because
tower_to_alpha checks the tower, which is built from l and d, against
it, and a check of l and d against themselves would prove nothing.

(a) The spectrum, the members of nm_set(F, b), is the divisors of d
that are at most b. The minimal sets of length L are the forward
closures under R_L, as C_L is empty (see above), and they are the
fibers of l mod g, g = gcd(L, d). A word of length L moves l by L,
which g divides, so no closure leaves a fiber. Conversely, take x and y
in one fiber. The multiples of L mod d are the multiples of g, so
l(y) - l(x) = jL mod d for some j >= 1, and j can be raised by any
multiple of d/g. A strongly connected graph of period d has walks of
every long enough length t = l(y) - l(x) mod d from x to y
(Brualdi-Ryser, Combinatorial Matrix Theory, section 3.4), so for large
j some word of length jL, that is j words of length L, sends x to y:
the fiber is the closure of x. For g < g' dividing d, each fiber mod g
is the union of g'/g nonempty fibers mod g', so lengths with different
g share no minimal set. If L divides d, every shorter L' has
gcd(L', d) <= L' < L = g, so the fibers mod L are new and L is a
member. If not, g = gcd(L, d) < L has already shown the same fibers,
and L is not.

(c) regularly_recurrent_points(F, h) is X when all maps share one table
and h >= N, and empty otherwise. Suppose every length-L word fixes x.
Split such a word into a first map a and a word w of length L - 1
(possibly empty, the identity). Then w(a(x)) = x for every a, and w is
a bijection, so all maps send x to one state x1, and every word of
length L - 1 sends x1 to x. A length-L word is such a word followed by a
last map b, so it sends x1 to b(x) = x1: x1 is fixed too. The states
that all length-L words fix are thus carried into themselves by every
map, so by minimality they are all of X, and all maps agree everywhere.
If they share one table T, minimality makes T one N-cycle, and T^L
fixes a state exactly when N divides L.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import InputError, NoCanonicalCoverError
from .exactnum import exact_rational

Word = tuple[str, ...]
Table = tuple[int, ...]


class FiniteIFS:
    """An iterated function system on states 0..n-1 with an exact metric.

    tables maps each label to the tuple (f(0), f(1), ..., f(n-1)); each
    map passes _checked_map, the one rule for a valid map, with n the
    length of the first. metric, when given, is an n-by-n matrix of exact
    rationals (exact_rational) satisfying the metric axioms (checked,
    including separation and the triangle inequality); omitted means the
    discrete metric.

    _summary caches the system's _Summary once it is asked for, and
    _walk the outcome of its longest nm_set walk; the system is
    immutable, and neither cache takes part in equality, hashing or
    repr.
    """

    __slots__ = ("n_states", "labels", "_tables", "_by_label", "metric", "_summary", "_walk")

    def __init__(self, tables, metric=None):
        by_label: dict[str, Table] = {}
        n = None
        for label, table in tables.items() if isinstance(tables, Mapping) else tables:
            by_label[label] = _checked_map(label, table, n, by_label)
            n = len(by_label[label])
        if n is None:
            raise InputError("a system needs at least one map")
        if n == 0:
            raise InputError("state space must be nonempty")
        self.n_states = n
        self.labels = tuple(by_label)
        self._tables = tuple(by_label.values())
        self._by_label = by_label
        self.metric = _validate_metric(metric, n) if metric is not None else None
        self._summary = None
        self._walk = None

    # -- basic access ----------------------------------------------------

    @property
    def states(self) -> range:
        return range(self.n_states)

    def table(self, label: str) -> Table:
        if label not in self._by_label:
            raise InputError(f"unknown label {label!r}")
        return self._by_label[label]

    def apply(self, label: str, x: int) -> int:
        return self.table(label)[x]

    def distance(self, x: int, y: int) -> Fraction:
        if self.metric is None:
            return Fraction(0) if x == y else Fraction(1)
        return self.metric[x][y]

    def __eq__(self, other):
        if not isinstance(other, FiniteIFS):
            return NotImplemented
        return (
            self.labels == other.labels
            and self._tables == other._tables
            and self.metric == other.metric
        )

    def __hash__(self):
        return hash((self.labels, self._tables, self.metric))

    def __repr__(self):
        body = ", ".join(f"{l}: {t}" for l, t in zip(self.labels, self._tables))
        return f"FiniteIFS({{{body}}})"


def _checked_map(label, table, n: int | None, labels) -> Table:
    """table as the map of a new label on states 0..n-1, n = None taking
    its own length; the one rule for a valid map.

    The label must be a nonempty string not in labels, and the table
    have n entries, each an int (not a bool) in 0..n-1. The table is
    read once, as it may be a one-shot iterable.
    """
    if not isinstance(label, str) or not label:
        raise InputError(f"label must be a nonempty string, got {label!r}")
    if label in labels:
        raise InputError(f"duplicate label {label!r}")
    row = tuple(table)
    n = len(row) if n is None else n
    if len(row) != n:
        raise InputError(f"map {label!r} has {len(row)} entries, expected {n}")
    for x, y in enumerate(row):
        if not isinstance(y, int) or isinstance(y, bool) or not 0 <= y < n:
            raise InputError(f"map {label!r} sends {x} to {y!r}, outside 0..{n - 1}")
    return row


def _validate_metric(metric, n: int):
    rows = [tuple(exact_rational(v) for v in row) for row in metric]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError(f"metric must be an {n}x{n} matrix")
    for x in range(n):
        if rows[x][x] != 0:
            raise InputError(f"metric has nonzero diagonal at {x}")
        for y in range(n):
            if rows[x][y] != rows[y][x]:
                raise InputError(f"metric not symmetric at ({x},{y})")
            if x != y and rows[x][y] <= 0:
                raise InputError(f"metric not positive at ({x},{y})")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if rows[x][z] > rows[x][y] + rows[y][z]:
                    raise InputError(
                        f"metric violates the triangle inequality at ({x},{y},{z})"
                    )
    return tuple(rows)


def rotation_system(m: int, shifts: Sequence[int], metric=None) -> FiniteIFS:
    """The system x -> x + s (mod m) for each shift s; labels a, b, c, ..."""
    if m < 1:
        raise InputError(f"need at least one state, got {m}")
    if not shifts:
        raise InputError("need at least one shift")
    labels = [chr(ord("a") + i) for i in range(len(shifts))]
    tables = {
        label: tuple((x + s) % m for x in range(m))
        for label, s in zip(labels, shifts)
    }
    return FiniteIFS(tables, metric=metric)


# -- words -----------------------------------------------------------------


def tables_of_length(F: FiniteIFS, n: int) -> list[Table]:
    """Distinct tables of all length-n words, sorted for determinism.

    Layer L+1 is built from layer L: each table followed by each map.
    """
    if n < 1:
        raise InputError(f"word length must be >= 1, got {n}")
    level = frozenset(F._tables)
    for _ in range(n - 1):
        # a list comprehension builds each tuple about twice as fast as a generator
        level = frozenset(
            tuple([t[v] for v in prev]) for prev in level for t in F._tables
        )
    return sorted(level)


# -- minimal sets ----------------------------------------------------------


@dataclass(frozen=True)
class MinimalSetReport:
    """Minimal sets for the n-th power, as sorted disjoint state tuples."""

    n: int
    sets: tuple[tuple[int, ...], ...]
    is_whole_space: bool

    def as_frozensets(self) -> set[frozenset[int]]:
        return {frozenset(block) for block in self.sets}


def minimal_sets(F: FiniteIFS, n: int) -> MinimalSetReport:
    """All minimal sets of the n-th power of the system.

    R_n and C_n are read off the x-columns of the length-n tables, and
    the minimal sets are the forward closures under R_n that hold no
    pair of C_n (see the module docstring). May be empty when some
    length-n word acts non-surjectively everywhere; for systems of
    bijections it is always a partition refinement.
    """
    tables = tables_of_length(F, n)
    reach = tuple(sum(1 << y for y in set(column)) for column in zip(*tables))
    partners = [0] * F.n_states
    if not _summary(F).bijective:
        for t in tables:
            fibers: dict[int, int] = {}
            for x, y in enumerate(t):
                fibers[y] = fibers.get(y, 0) | 1 << x
            for x, y in enumerate(t):
                partners[x] |= fibers[y] & ~(1 << x)
    blocks = _pair_free_closures(reach, partners)
    sets = tuple(sorted(tuple(_bits(b)) for b in blocks))
    whole = len(sets) == 1 and len(sets[0]) == F.n_states
    return MinimalSetReport(n=n, sets=sets, is_whole_space=whole)


def _bits(mask: int) -> Iterator[int]:
    """Yield the states whose bits are set in mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pair_free_closures(reach: Sequence[int], partners: Sequence[int]) -> frozenset[int]:
    """R's minimal sets as bitmasks: the closures holding no collapsed pair.

    Bit y of partners[x] is set when {x, y} collapses. A rejected
    closure drops its lowest state and every state left that reaches it
    (module docstring).
    """
    blocks = []
    todo = (1 << len(reach)) - 1
    while todo:
        low = todo & -todo
        block, grow, near = 0, low, 0
        while grow:
            bit = grow & -grow
            x = bit.bit_length() - 1
            block |= bit
            near |= partners[x]
            grow = (grow | reach[x]) & ~block
        if near & block:
            dropped = low
            while dropped:
                todo ^= dropped
                found, rest = 0, todo
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    if reach[bit.bit_length() - 1] & dropped:
                        found |= bit
                dropped = found
        else:
            blocks.append(block)
            todo &= ~block
    return frozenset(blocks)


def _collapse_layers(F: FiniteIFS) -> Iterator[tuple[int, ...]]:
    """Yield C_L for L = 1, 2, ... while it grows, as partner bitmasks.

    Bit y of entry x is set when some word of length at most L sends x
    and y to one state. Each step is one layer of a backward
    breadth-first search from the diagonal of the pair graph (see the
    module docstring); the partner masks mark the pairs already found.
    A system of bijections yields nothing.
    """
    if _summary(F).bijective:
        return
    own = [1 << x for x in F.states]
    preimages = []
    for t in F._tables:
        lists: list[list[int]] = [[] for _ in own]
        masks = [0] * F.n_states
        for x, y in enumerate(t):
            lists[y].append(x)
            masks[y] |= own[x]
        preimages.append((lists, masks))
    partners = [0] * F.n_states
    frontier = [(x, x) for x in F.states]
    while True:
        found = []
        for u, v in frontier:
            for lists, masks in preimages:
                for x in lists[u]:
                    new = masks[v] & ~(partners[x] | own[x])
                    if new:
                        partners[x] |= new
                        for y in _bits(new):
                            partners[y] |= own[x]
                            found.append((x, y))
        if not found:
            return
        frontier = found
        yield tuple(partners)


def _reach_walk(F: FiniteIFS, limit: int):
    """Yield R_L for L = 1, 2, ..., limit as a tuple of per-state bitmasks.

    Bit y of R_L[x] is set when some length-L word sends x to y. A word
    of length L+1 is a first letter f followed by a word of length L, so
    R_{L+1}[x] is the OR of R_L[f(x)] over the maps f.
    """
    first, *rest = F._tables
    reach = tuple(1 << x for x in F.states)
    for _ in range(limit):
        step = [reach[y] for y in first]
        for t in rest:
            step = [r | reach[y] for r, y in zip(step, t)]
        reach = tuple(step)
        yield reach


def _images(F: FiniteIFS) -> list[tuple[int, ...]]:
    """For each state x, the tuple (f(x) for each map f) in label order."""
    return list(zip(*F._tables))


def _reached(successors: Sequence[Sequence[int]], starts: Iterable[int]) -> dict[int, int]:
    """States reached from starts in zero or more steps along successors.

    Each maps to its breadth-first level, 0 for the starts; the dict
    lists them in the order the search finds them, scanning each state's
    successors in order.
    """
    levels = dict.fromkeys(starts, 0)
    queue = list(levels)
    for x in queue:
        level = levels[x] + 1
        for y in successors[x]:
            if y not in levels:
                levels[y] = level
                queue.append(y)
    return levels


class _Summary(NamedTuple):
    """What one system's two searches from state 0 show (module docstring).

    order lists the states the forward search finds, in the order it
    finds them, and levels[x] is the level of x there (None when it is
    not found). period is d, or 0 when the system is not minimal.
    """

    minimal: bool
    order: tuple[int, ...]
    levels: tuple[int | None, ...]
    period: int
    bijective: bool
    one_table: bool


def _summary(F: FiniteIFS) -> _Summary:
    """F's summary, built on the first call and cached on F."""
    summary = F._summary
    if summary is None:
        n, tables = F.n_states, F._tables
        images = _images(F)
        preimages: list[list[int]] = [[] for _ in images]
        for x, ys in enumerate(images):
            for y in ys:
                preimages[y].append(x)
        found = _reached(images, (0,))
        minimal = len(found) == n and len(_reached(preimages, (0,))) == n
        period = 0
        if minimal:
            for x, ys in enumerate(images):
                for y in ys:
                    period = gcd(period, found[x] + 1 - found[y])
                if period == 1:
                    break
        summary = F._summary = _Summary(
            minimal=minimal,
            order=tuple(found),
            levels=tuple(map(found.get, range(n))),
            period=period,
            bijective=all(len(set(t)) == n for t in tables),
            one_table=len(set(tables)) == 1,
        )
    return summary


def is_minimal(F: FiniteIFS) -> bool:
    """Whether every state's forward orbit under the system is all of X.

    That is strong connectivity of the union graph. If every state
    reaches state 0 and state 0 reaches every state, then any x reaches
    any y by going through 0, and x reaches itself in one or more steps
    through any of its images; the converse is immediate. So one forward
    and one reverse search from state 0 decide it, in place of a search
    from every state. The verdict is part of the system's summary.
    """
    return _summary(F).minimal


@dataclass(frozen=True)
class NMSet:
    """The powers n <= bound at which a fresh minimal set appears.

    1 is always a member for a minimal system: the whole space is the
    trivial level-one cover.
    """

    bound: int
    members: tuple[int, ...]

    def __contains__(self, n: int) -> bool:
        return n in self.members

    def __iter__(self):
        return iter(self.members)


class _Walk(NamedTuple):
    """The outcome of one nm_set walk: bound walked, repeat seen, members."""

    bound: int
    repeated: bool
    members: tuple[int, ...]


def nm_set(F: FiniteIFS, bound: int) -> NMSet:
    """Members n <= bound: some n-th power minimal set is new at n.

    The walk steps the pair (R_n, C_n), and the minimal sets of length n
    are the forward closures under R_n that hold no pair of C_n (see the
    module docstring). It stops at the first R_n equal to an earlier
    R_j: R is then periodic, so every later R_m equals some R_i with
    j <= i < n, and C_i lies in C_m, as C only grows. A closure under
    R_m that holds no pair of C_m holds none of C_i either, so every
    later minimal set has been seen and no new member can appear. R_n,
    the n-th Boolean power of the union graph, repeats within
    (N-1)^2 + 1 + d steps on N states. The returned bound is the one
    asked for, however early the walk stopped. The walk's outcome stays
    on F, and a later call that it covers reads it (module docstring).
    """
    if bound < 1:
        raise InputError(f"bound must be >= 1, got {bound}")
    if not is_minimal(F):
        raise InputError("system is not minimal; its power structure is undefined here")
    walk = F._walk
    if walk is None or not (walk.repeated or bound <= walk.bound):
        walk = F._walk = _nm_walk(F, bound)
    return NMSet(bound=bound, members=tuple(n for n in walk.members if n <= bound))


def _nm_walk(F: FiniteIFS, bound: int) -> _Walk:
    """nm_set's walk over (R_n, C_n) for n = 1, ..., bound, or to a repeat."""
    layers = _collapse_layers(F)
    partners: Sequence[int] = (0,) * F.n_states
    members = []
    earlier: set[int] = set()
    seen = set()
    for n, reach in enumerate(_reach_walk(F, bound), start=1):
        if reach in seen:
            return _Walk(bound, True, tuple(members))
        seen.add(reach)
        partners = next(layers, partners)
        blocks = _pair_free_closures(reach, partners)
        if n == 1 or not blocks <= earlier:
            members.append(n)
        earlier |= blocks
    return _Walk(bound, False, tuple(members))


def spectrum(F: FiniteIFS, bound: int) -> NMSet:
    """The members of nm_set(F, bound), in closed form where there is one.

    On a minimal system of bijections they are the divisors of the
    period d up to the bound (closed form (a) of the module docstring),
    found without a walk; other systems run nm_set.
    """
    summary = _summary(F)
    if not (summary.minimal and summary.bijective):
        return nm_set(F, bound)
    if bound < 1:
        raise InputError(f"bound must be >= 1, got {bound}")
    d = summary.period
    members = tuple(k for k in range(1, min(d, bound) + 1) if d % k == 0)
    return NMSet(bound=bound, members=members)


def canonical_cover(F: FiniteIFS, n: int) -> MinimalSetReport:
    """The n minimal sets of the n-th power, when they partition X.

    Requires n to be a member of the spectrum up to n (on a system of
    bijections, a divisor of the period); raises NoCanonicalCoverError
    when the minimal sets fail to form an n-block partition (possible
    for non-bijective systems).
    """
    if n not in spectrum(F, n):
        raise InputError(f"{n} is not a power at which a new minimal set appears")
    report = minimal_sets(F, n)
    covered = [x for block in report.sets for x in block]
    if len(report.sets) != n:
        raise NoCanonicalCoverError(n, f"{len(report.sets)} minimal sets, expected {n}")
    if sorted(covered) != list(F.states):
        raise NoCanonicalCoverError(n, "minimal sets do not partition the states")
    return report


# -- recurrence ------------------------------------------------------------


def regularly_recurrent_points(F: FiniteIFS, horizon: int | None = None) -> frozenset[int]:
    """States fixed by every word of some single length n <= horizon.

    Fixing by all length-n words propagates to all multiples of n by
    splitting longer words into length-n pieces, and singletons are the
    smallest neighborhoods, so this finite check captures the notion of
    returning to every neighborhood along a full arithmetic progression.

    The check reads only the x-column of the length-n tables: the set
    R_n(x) of states that length-n words send x to, as _reach_walk yields
    it. Every length-n word fixes x exactly when R_n(x) = {x}. A
    length-(n+1) word is also a length-n word followed by a last letter,
    so R_{n+1}(x) is the union of the images of R_n(x) under the maps
    and depends on R_n(x) alone. Once x's own set repeats, its sequence
    cycles through sets already checked, and x is settled. The walk
    stops at the horizon, or once every state is found or settled; it
    never waits for the whole vector R_n to repeat, which can take the
    lcm of the states' periods.

    A minimal system of bijections needs no walk: closed form (c) of the
    module docstring gives the answer from its summary.
    """
    if horizon is None:
        horizon = F.n_states * F.n_states
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    summary = _summary(F)
    if summary.minimal and summary.bijective:
        whole = summary.one_table and horizon >= F.n_states
        return frozenset(F.states) if whole else frozenset()
    found: set[int] = set()
    pending: dict[int, set[int]] = {x: set() for x in F.states}
    for reach in _reach_walk(F, horizon):
        for x, seen in list(pending.items()):
            if reach[x] == 1 << x:
                found.add(x)
            elif reach[x] not in seen:
                seen.add(reach[x])
                continue
            del pending[x]
        if not pending:
            break
    return frozenset(found)


def periodic_points(F: FiniteIFS) -> frozenset[int]:
    """States lying on a directed cycle of the union graph of all maps."""
    images = _images(F)
    return frozenset(x for x in F.states if x in _reached(images, images[x]))


# -- metric dynamics on a single map ---------------------------------------


def _single_table(F: FiniteIFS, operation: str) -> Table:
    if len(F.labels) != 1:
        raise InputError(f"{operation} is defined here for single-map systems only")
    return F._tables[0]


def has_shadowing(F: FiniteIFS, delta, epsilon) -> bool:
    """Whether every delta-pseudo-orbit is epsilon-shadowed by a true orbit.

    A pseudo-orbit is a finite walk x_0, x_1, ... with
    d(f(x_k), x_{k+1}) <= delta; a shadow is a point y with
    d(f^k(y), x_k) < epsilon for every k. Decided exactly by tracking,
    along every pseudo-orbit simultaneously, the set of surviving shadow
    positions; shadowing fails exactly when that set can be emptied.
    delta and epsilon are exact rationals (exact_rational).
    """
    f = _single_table(F, "has_shadowing")
    delta, epsilon = exact_rational(delta), exact_rational(epsilon)
    n, d = F.n_states, F.distance
    pseudo_next = [
        tuple(y for y in range(n) if d(f[x], y) <= delta) for x in range(n)
    ]
    seen: set[tuple[int, frozenset[int]]] = set()
    queue: deque[tuple[int, frozenset[int]]] = deque()
    for x0 in range(n):
        survivors = frozenset(y for y in range(n) if d(y, x0) < epsilon)
        if not survivors:
            return False
        if (x0, survivors) not in seen:
            seen.add((x0, survivors))
            queue.append((x0, survivors))
    while queue:
        x, survivors = queue.popleft()
        for x2 in pseudo_next[x]:
            moved = frozenset(f[a] for a in survivors if d(f[a], x2) < epsilon)
            if not moved:
                return False
            if (x2, moved) not in seen:
                seen.add((x2, moved))
                queue.append((x2, moved))
    return True


def is_sensitive(F: FiniteIFS, delta) -> bool:
    """Sensitive dependence with sensitivity constant delta.

    Every point's smallest neighborhood must eventually spread to
    diameter exceeding delta. Since exact metrics separate points, the
    smallest neighborhood of any state is the singleton, whose iterates
    stay singletons of diameter 0; so a finite metric system is
    sensitive exactly for delta < 0.
    """
    _single_table(F, "is_sensitive")
    return exact_rational(delta) < 0
