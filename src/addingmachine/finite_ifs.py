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

The distinct tables of each word length come from one walk,
_word_layers, which builds layer n+1 from layer n. Every consumer of
word tables shares it, and nm_set walks it once, taking each length
from the layer before instead of rebuilding from length 1. Minimality
and regular recurrence need no word tables: they are decided on the
union graph (an edge x -> f(x) for every map f), minimality by two
searches and recurrence by walking, per state, the set of states that
words of each length reach.

Algorithm behind minimal_sets: for a single table T, any set that T
maps onto itself consists of whole T-cycles, and the states on T-cycles
are T's eventual image (the images X, T(X), T(T(X)), ... shrink until a
step keeps the size; T then permutes that image). So, over the length-n
tables: (1) intersect their eventual images, stopping if the
intersection empties; (2) prune to the largest subset G that every
table maps into itself, dropping each x with T(x) outside G until
nothing drops; (3) glue x to T(x) for every table T and every x in G.
Every state left by (1) lies on a T-cycle, so T maps G into itself
exactly when each x in G has its whole T-cycle in G. Hence (2) reaches
the same fixed point as pruning states whose cycle under some table
leaves the surviving set, and (3) joins exactly the states that share a
cycle of some table. The components are the minimal sets: every common
invariant set is a union of components, and no component has a smaller
common invariant subset. Each step is one pass over the layer, repeated
once per state of the longest tail in (1) and once per round in (2).
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
    """

    __slots__ = ("n_states", "labels", "_tables", "_by_label", "metric")

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
    return _minimal_sets_of(F, n, tables_of_length(F, n))


def _minimal_sets_of(F: FiniteIFS, n: int, tables: Collection[Table]) -> MinimalSetReport:
    """minimal_sets for the given length-n tables; their order is irrelevant."""
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
            break
    while True:
        dropped = {x for t in tables for x in good if t[x] not in good}
        if not dropped:
            break
        good -= dropped
    parent = {x: x for x in good}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t in tables:
        for x in good:
            rx, ry = find(x), find(t[x])
            if rx != ry:
                parent[ry] = rx
    blocks: dict[int, list[int]] = {}
    for x in sorted(good):
        blocks.setdefault(find(x), []).append(x)
    sets = tuple(sorted(tuple(b) for b in blocks.values()))
    whole = len(sets) == 1 and len(sets[0]) == F.n_states
    return MinimalSetReport(n=n, sets=sets, is_whole_space=whole)


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
    images = _images(F)
    preimages: list[list[int]] = [[] for _ in images]
    for x, ys in enumerate(images):
        for y in ys:
            preimages[y].append(x)
    n = F.n_states
    return len(_reached(images, 0)) == n and len(_reached(preimages, 0)) == n


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

    The layer of length-(n+1) tables depends on the length-n layer
    alone. So once a layer equals an earlier one, every later layer, and
    with it every later collection of minimal sets, repeats an earlier
    one, no new member can appear, and the walk stops there. The
    returned bound is the one asked for, however early the walk stopped.
    """
    if bound < 1:
        raise InputError(f"bound must be >= 1, got {bound}")
    if not is_minimal(F):
        raise InputError("system is not minimal; its power structure is undefined here")
    members = []
    earlier: set[frozenset[int]] = set()
    seen_layers: set[frozenset[Table]] = set()
    for n, layer in enumerate(_word_layers(F, bound), start=1):
        if layer in seen_layers:
            break
        seen_layers.add(layer)
        collection = _minimal_sets_of(F, n, layer).as_frozensets()
        if n == 1 or not collection <= earlier:
            members.append(n)
        earlier |= collection
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
    R_n(x) of states that length-n words send x to. Every length-n word
    fixes x exactly when R_n(x) = {x}, and R_{n+1}(x) is the union of
    the images of R_n(x) under the maps, so the walk keeps one bitmask
    per state instead of the tables. R_{n+1}(x) depends on R_n(x) alone,
    so once a set repeats the sequence cycles through sets already
    checked and the walk for x stops early.
    """
    if horizon is None:
        horizon = F.n_states * F.n_states
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    step = [0] * F.n_states
    for x, ys in enumerate(_images(F)):
        for y in ys:
            step[x] |= 1 << y
    found: set[int] = set()
    for x in F.states:
        reach, seen = step[x], set()
        for _ in range(horizon):
            if reach == 1 << x:
                found.add(x)
                break
            if reach in seen:
                break
            seen.add(reach)
            rest, reach = reach, 0
            while rest:
                low = rest & -rest
                reach |= step[low.bit_length() - 1]
                rest ^= low
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
