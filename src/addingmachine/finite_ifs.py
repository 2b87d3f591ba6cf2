"""Iterated function systems on a finite set of states.

A system is a finite family of total maps f_label : X -> X on
X = {0, ..., n-1}, together with an optional exact metric (the discrete
metric by default). Words act first letter first: the word "ab" means
apply f_a, then f_b.

The central notion: a set M is minimal for the n-th power of the system
when every length-n word maps M onto itself and no nonempty proper
subset of M is mapped to itself by all length-n words simultaneously.
Those sets are computed combinatorially in minimal_sets; nm_set and
canonical covers build on it.

Two walks feed everything else. _word_layers yields the distinct tables
of each word length, building layer L+1 from layer L. _reach_walk
yields R_L, one bitmask per state: bit y of R_L[x] is set when some
length-L word sends x to y, so R_L[x] is the set of entries of the
x-column of layer L. A word of length L+1 is a first letter f followed
by a word of length L, so R_{L+1}[x] is the OR of R_L[f(x)] over the
maps f: k ORs per state for k maps, however large the layer is.
Minimality needs neither walk: it is decided on the union graph (an
edge x -> f(x) for every map f) by two searches, once per system.

Algorithm behind minimal_sets: for a single table T, any set that T
maps onto itself consists of whole T-cycles, and the states on T-cycles
are T's eventual image (the images X, T(X), T(T(X)), ... shrink until a
step keeps the size; T then permutes that image). So, over the length-L
tables: (1) intersect their eventual images, stopping if the
intersection empties; (2) prune to the largest subset G that every
table maps into itself, dropping each x whose R_L[x] leaves G until
nothing drops; (3) take the forward closure under R_L of each x in G.
Every state left by (1) lies on a T-cycle, so T maps G into itself
exactly when each x in G has its whole T-cycle in G. Hence (2) reaches
the same fixed point as pruning states whose cycle under some table
leaves the surviving set. Each edge x -> T(x) inside G lies on a
T-cycle, and the T-cycle steps back from T(x) to x are edges too, so in
the graph with an edge x -> y for each y in R_L[x] every edge lies on a
cycle. Its forward closures are therefore its strongly connected
components, and those equal its undirected components: the classes of
gluing x to T(x) for every table T. The components are the minimal
sets: every common invariant set is a union of components, and no
component has a smaller common invariant subset. Step (1) is one pass
over the layer, repeated once per state of the longest tail; steps (2)
and (3) read R_L alone.

When every map is a bijection, so is every table: its eventual image
is all of X, step (1) keeps every state, and step (2) drops none. The
minimal sets of length L are then the forward closures under R_L, a
function of R_L alone, and nm_set walks R_L without building a table.
Non-bijective systems keep the table walk, which step (1) needs.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Mapping, Sequence

from .errors import InputError, NoCanonicalCoverError

Word = tuple[str, ...]
Table = tuple[int, ...]


class FiniteIFS:
    """An iterated function system on states 0..n-1 with an exact metric.

    tables maps each label to the tuple (f(0), f(1), ..., f(n-1)).
    metric, when given, is an n-by-n matrix of rationals satisfying the
    metric axioms (checked, including separation and the triangle
    inequality); omitted means the discrete metric.

    _minimal caches the is_minimal verdict once it is asked for; the
    system is immutable, and the cache takes no part in equality,
    hashing or repr.
    """

    __slots__ = ("n_states", "labels", "_tables", "_by_label", "metric", "_minimal")

    def __init__(self, tables, metric=None):
        if isinstance(tables, Mapping):
            items = list(tables.items())
        else:
            items = [(label, table) for label, table in tables]
        if not items:
            raise InputError("a system needs at least one map")
        labels = []
        rows = []
        for label, table in items:
            if not isinstance(label, str) or not label:
                raise InputError(f"label must be a nonempty string, got {label!r}")
            if label in labels:
                raise InputError(f"duplicate label {label!r}")
            labels.append(label)
            rows.append(tuple(table))
        n = len(rows[0])
        if n == 0:
            raise InputError("state space must be nonempty")
        for label, row in zip(labels, rows):
            if len(row) != n:
                raise InputError(
                    f"map {label!r} has {len(row)} entries, expected {n}"
                )
            for x, y in enumerate(row):
                if not isinstance(y, int) or isinstance(y, bool) or not 0 <= y < n:
                    raise InputError(
                        f"map {label!r} sends {x} to {y!r}, outside 0..{n - 1}"
                    )
        self.n_states = n
        self.labels = tuple(labels)
        self._tables = tuple(rows)
        self._by_label = dict(zip(labels, rows))
        self.metric = _validate_metric(metric, n) if metric is not None else None
        self._minimal = None

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


def _validate_metric(metric, n: int):
    rows = []
    for row in metric:
        rows.append(tuple(Fraction(v) for v in row))
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


# -- words and powers ------------------------------------------------------


def compose(F: FiniteIFS, word: Sequence[str]) -> Table:
    """Table of the word's action, first letter applied first."""
    word = tuple(word)
    if not word:
        raise InputError("word must be nonempty")
    current = F.table(word[0])
    for label in word[1:]:
        nxt = F.table(label)
        current = tuple(nxt[v] for v in current)
    return current


def image_of_set(F: FiniteIFS, A: Iterable[int]) -> frozenset[int]:
    """Union of f_label(A) over all labels."""
    A = frozenset(A)
    for x in A:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < F.n_states:
            raise InputError(f"state {x!r} outside 0..{F.n_states - 1}")
    return frozenset(t[x] for t in F._tables for x in A)


def power_system(F: FiniteIFS, k: int) -> FiniteIFS:
    """The system whose maps are the distinct length-k word actions.

    Labels are the constituent labels joined by commas; when several
    words share a table, the first word in label order names it.
    """
    if k < 1:
        raise InputError(f"power must be >= 1, got {k}")
    tables: dict[Table, str] = {}
    for word in itertools.product(F.labels, repeat=k):
        t = compose(F, word)
        if t not in tables:
            tables[t] = ",".join(word)
    return FiniteIFS([(name, t) for t, name in tables.items()], metric=F.metric)


def _word_layers(F: FiniteIFS, limit: int):
    """Yield the set of distinct tables of word length 1, 2, ..., limit."""
    level = frozenset(F._tables)
    yield level
    for _ in range(limit - 1):
        # a list comprehension builds each tuple about twice as fast as a generator
        level = frozenset(
            tuple([t[v] for v in prev]) for prev in level for t in F._tables
        )
        yield level


def tables_of_length(F: FiniteIFS, n: int) -> list[Table]:
    """Distinct tables of all length-n words, sorted for determinism."""
    if n < 1:
        raise InputError(f"word length must be >= 1, got {n}")
    for level in _word_layers(F, n):
        pass
    return sorted(level)


# -- minimal sets ----------------------------------------------------------


@dataclass(frozen=True)
class MinimalSetReport:
    """Minimal sets for the n-th power, as sorted disjoint state tuples."""

    n: int
    sets: tuple[tuple[int, ...], ...]
    is_whole_space: bool

    def __iter__(self):
        return iter(self.sets)

    def __len__(self):
        return len(self.sets)

    def as_frozensets(self) -> set[frozenset[int]]:
        return {frozenset(block) for block in self.sets}


def minimal_sets(F: FiniteIFS, n: int) -> MinimalSetReport:
    """All minimal sets of the n-th power of the system.

    May be empty when some length-n word acts non-surjectively everywhere;
    for systems of bijections it is always a partition refinement.
    """
    blocks = _minimal_blocks(F, tables_of_length(F, n))
    sets = tuple(sorted(_states_of(block) for block in blocks))
    whole = len(sets) == 1 and len(sets[0]) == F.n_states
    return MinimalSetReport(n=n, sets=sets, is_whole_space=whole)


def _minimal_blocks(F: FiniteIFS, tables: Collection[Table]) -> frozenset[int]:
    """Steps (1)-(3) on one layer of tables: its minimal sets as bitmasks."""
    good = set(F.states)
    for t in tables:
        image = set(t)
        while True:
            shrunk = {t[x] for x in image}
            if len(shrunk) == len(image):
                break
            image = shrunk
        good &= image
        if not good:
            return frozenset()
    # R of this length, read off the x-columns of the layer
    reach = tuple(sum(1 << y for y in set(column)) for column in zip(*tables))
    return _closures(reach, _prune(reach, sum(1 << x for x in good)))


def _prune(reach: Sequence[int], good: int) -> int:
    """Step (2): drop each x in good whose R[x] leaves good, until none drops."""
    members = _states_of(good)
    while True:
        outside = ~good
        kept = [x for x in members if not reach[x] & outside]
        if len(kept) == len(members):
            return good
        members = kept
        good = sum(1 << x for x in kept)


def _closures(reach: Sequence[int], good: int) -> frozenset[int]:
    """Step (3): the forward closures under R of the states in good, as bitmasks.

    Requires R[x] to lie inside good for every x in good, which step (2)
    leaves behind.
    """
    blocks = []
    while good:
        block, todo = 0, good & -good
        while todo:
            low = todo & -todo
            block |= low
            todo = (todo | reach[low.bit_length() - 1]) & ~block
        blocks.append(block)
        good &= ~block
    return frozenset(blocks)


def _states_of(mask: int) -> tuple[int, ...]:
    """The states whose bits are set in mask, in ascending order."""
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


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


def _reached(successors: Sequence[Iterable[int]], x: int) -> set[int]:
    """States reached from x by one or more steps along successors."""
    seen: set[int] = set()
    queue = deque(successors[x])
    while queue:
        y = queue.popleft()
        if y in seen:
            continue
        seen.add(y)
        queue.extend(successors[y])
    return seen


def is_minimal(F: FiniteIFS) -> bool:
    """Whether every state's forward orbit under the system is all of X.

    That is strong connectivity of the union graph. If every state
    reaches state 0 and state 0 reaches every state (itself included)
    in one or more steps, then any x reaches any y, itself included, by
    going through 0; the converse is immediate. So one forward and one
    reverse search from state 0 decide it, in place of a search from
    every state.
    """
    if F._minimal is None:
        images = _images(F)
        preimages: list[list[int]] = [[] for _ in images]
        for x, ys in enumerate(images):
            for y in ys:
                preimages[y].append(x)
        n = F.n_states
        F._minimal = len(_reached(images, 0)) == n and len(_reached(preimages, 0)) == n
    return F._minimal


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


def nm_set(F: FiniteIFS, bound: int) -> NMSet:
    """Members n <= bound: some n-th power minimal set is new at n.

    When every map is a bijection, the minimal sets of length n are the
    forward closures under R_n (see the module docstring), and the walk
    reads R_n alone. Otherwise it walks the table layers and runs steps
    (1)-(3) on each. Either way the walk's next item, R_{n+1} or the
    length-(n+1) layer, is a function of its current one. So once an item
    equals an earlier one, every later item, and with it every later
    collection of minimal sets, repeats an earlier one, no new member
    can appear, and the walk stops there. R_n repeats no later than the
    layer it is read from. The returned bound is the one asked for,
    however early the walk stopped.
    """
    if bound < 1:
        raise InputError(f"bound must be >= 1, got {bound}")
    if not is_minimal(F):
        raise InputError("system is not minimal; its power structure is undefined here")
    bijective = all(len(set(t)) == F.n_states for t in F._tables)
    walk = _reach_walk(F, bound) if bijective else _word_layers(F, bound)
    everything = (1 << F.n_states) - 1
    members = []
    earlier: set[int] = set()
    seen = set()
    for n, state in enumerate(walk, start=1):
        if state in seen:
            break
        seen.add(state)
        if bijective:
            blocks = _closures(state, everything)
        else:
            blocks = _minimal_blocks(F, state)
        if n == 1 or not blocks <= earlier:
            members.append(n)
        earlier |= blocks
    return NMSet(bound=bound, members=tuple(members))


def canonical_cover(F: FiniteIFS, n: int) -> MinimalSetReport:
    """The n minimal sets of the n-th power, when they partition X.

    Requires n to be a member of nm_set(F, n); raises
    NoCanonicalCoverError when the minimal sets fail to form an n-block
    partition (possible for non-bijective systems).
    """
    if n not in nm_set(F, n):
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
    """
    if horizon is None:
        horizon = F.n_states * F.n_states
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
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
    return frozenset(x for x in F.states if x in _reached(images, x))


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
    """
    f = _single_table(F, "has_shadowing")
    delta, epsilon = Fraction(delta), Fraction(epsilon)
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
    return Fraction(delta) < 0
