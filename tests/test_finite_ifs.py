import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from addingmachine.cli import main
from addingmachine.errors import InputError, NoCanonicalCoverError
from addingmachine.finite_ifs import (
    FiniteIFS,
    canonical_cover,
    compose,
    has_shadowing,
    image_of_set,
    is_minimal,
    is_sensitive,
    minimal_sets,
    nm_set,
    periodic_points,
    power_system,
    regularly_recurrent_points,
    rotation_system,
    tables_of_length,
)
from addingmachine.ifs_io import format_ifs
from strategies import small_systems

Z6 = rotation_system(6, [1])
Z6_TWO = rotation_system(6, [1, 3])
Z4 = rotation_system(4, [1])
Z2_SWAP = rotation_system(2, [1])
CONST = FiniteIFS({"a": (0, 0), "b": (1, 1)})
# minimal, mod-2 colorable, but the second map is not surjective; its
# second power has no minimal sets at all
NONSURJ = FiniteIFS({"a": (1, 2, 3, 0), "b": (1, 0, 1, 0)})


def brute_minimal_sets(F, n):
    """Oracle: enumerate every subset and apply the definition directly."""
    return brute_minimal_sets_of(F, tables_of_length(F, n))


def brute_minimal_sets_of(F, tabs):
    """brute_minimal_sets for the given collection of word tables."""
    states = list(F.states)
    fixed = [
        frozenset(A)
        for r in range(1, len(states) + 1)
        for A in map(frozenset, itertools.combinations(states, r))
        if all({t[x] for x in A} == A for t in tabs)
    ]
    return tuple(sorted(
        tuple(sorted(M)) for M in fixed if not any(A < M for A in fixed)
    ))


# -- construction ------------------------------------------------------------


def test_constructor_validation():
    with pytest.raises(InputError):
        FiniteIFS({})
    with pytest.raises(InputError):
        FiniteIFS({"a": (0, 2)})  # image out of range
    with pytest.raises(InputError):
        FiniteIFS({"a": (0, 1), "b": (0,)})  # length mismatch
    with pytest.raises(InputError):
        FiniteIFS({"": (0,)})
    with pytest.raises(InputError):
        FiniteIFS([("a", (0,)), ("a", (0,))])


def test_metric_validation():
    good = [[0, 1], [1, 0]]
    F = FiniteIFS({"a": (1, 0)}, metric=good)
    assert F.distance(0, 1) == 1
    with pytest.raises(InputError):
        FiniteIFS({"a": (1, 0)}, metric=[[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(InputError):
        FiniteIFS({"a": (1, 0)}, metric=[[1, 1], [1, 0]])  # nonzero diagonal
    with pytest.raises(InputError):
        FiniteIFS({"a": (1, 0)}, metric=[[0, 0], [0, 0]])  # no separation
    with pytest.raises(InputError):
        FiniteIFS(
            {"a": (1, 2, 0)},
            metric=[[0, 1, 3], [1, 0, 1], [3, 1, 0]],  # triangle violated
        )


def test_rotation_system_helper():
    assert Z6.labels == ("a",)
    assert Z6.table("a") == (1, 2, 3, 4, 5, 0)
    assert Z6_TWO.table("b") == (3, 4, 5, 0, 1, 2)
    with pytest.raises(InputError):
        rotation_system(0, [1])


# -- words -------------------------------------------------------------------


def test_compose_first_letter_first():
    F = FiniteIFS({"a": (1, 2, 3, 0), "b": (0, 0, 1, 2)})
    # word "ab": apply a, then b
    expected = tuple(F.table("b")[F.table("a")[x]] for x in range(4))
    assert compose(F, ("a", "b")) == expected
    assert compose(F, "ab") == expected  # strings iterate to labels
    with pytest.raises(InputError):
        compose(F, ())
    with pytest.raises(InputError):
        compose(F, ("a", "z"))


def test_image_of_set():
    assert image_of_set(Z6_TWO, {0}) == frozenset({1, 3})
    assert image_of_set(Z6_TWO, {0, 1}) == frozenset({1, 2, 3, 4})
    assert image_of_set(Z6_TWO, set()) == frozenset()
    with pytest.raises(InputError):
        image_of_set(Z6_TWO, {9})


def test_compose_full_cycle_is_identity():
    assert compose(Z4, "aaaa") == (0, 1, 2, 3)


def test_power_system_dedupes_words():
    P = power_system(Z6_TWO, 2)
    assert P.n_states == 6
    # words aa, ab, ba, bb give shifts +2, +4, +4, +6=0: three distinct maps
    assert len(P.labels) == 3
    assert set(P._tables) == {
        tuple((x + 2) % 6 for x in range(6)),
        tuple((x + 4) % 6 for x in range(6)),
        tuple(range(6)),
    }
    assert P.labels[0] == "a,a"
    with pytest.raises(InputError):
        power_system(Z6, 0)


def test_power_system_edge_lengths():
    P = power_system(Z6_TWO, 1)
    assert set(P._tables) == set(Z6_TWO._tables)
    Q = power_system(Z4, 2)
    assert Q.labels == ("a,a",)
    assert Q._tables == ((2, 3, 0, 1),)


def test_power_system_tables_are_exactly_word_compositions():
    F = FiniteIFS({"a": (1, 2, 3, 0), "b": (0, 0, 1, 2)})
    for k in (1, 2, 3):
        P = power_system(F, k)
        words = {compose(F, w) for w in itertools.product("ab", repeat=k)}
        assert set(P._tables) == words


def test_tables_of_length_counts():
    assert len(tables_of_length(Z6, 5)) == 1
    assert tables_of_length(Z6_TWO, 1) == sorted(
        [Z6_TWO.table("a"), Z6_TWO.table("b")]
    )
    assert len(tables_of_length(Z6_TWO, 2)) == 3


# -- minimal sets -------------------------------------------------------------


def test_minimal_sets_single_rotation():
    assert minimal_sets(Z6, 1).sets == ((0, 1, 2, 3, 4, 5),)
    assert minimal_sets(Z6, 1).is_whole_space
    assert minimal_sets(Z6, 2).sets == ((0, 2, 4), (1, 3, 5))
    assert minimal_sets(Z6, 3).sets == ((0, 3), (1, 4), (2, 5))
    assert minimal_sets(Z6, 6).sets == ((0,), (1,), (2,), (3,), (4,), (5,))
    assert minimal_sets(Z6, 4).sets == ((0, 2, 4), (1, 3, 5))


def test_minimal_sets_two_labels():
    assert minimal_sets(Z6_TWO, 2).sets == ((0, 2, 4), (1, 3, 5))
    assert minimal_sets(Z6_TWO, 3).sets == ((0, 1, 2, 3, 4, 5),)


def test_minimal_sets_swap():
    assert minimal_sets(Z2_SWAP, 1).sets == ((0, 1),)
    assert minimal_sets(Z2_SWAP, 2).sets == ((0,), (1,))


def test_minimal_sets_constant_maps_empty():
    # each constant table has one cycle state; the intersection is empty
    assert minimal_sets(CONST, 1).sets == ()


def test_minimal_sets_nonsurjective_power_collapses():
    # every orbit is dense (the first map is a full cycle), yet no set is
    # carried onto itself by the non-surjective second map, at any length
    assert is_minimal(NONSURJ)
    assert minimal_sets(NONSURJ, 1).sets == ()
    assert minimal_sets(NONSURJ, 2).sets == ()


def test_minimal_sets_against_brute_force():
    rng = random.Random(901)
    for _ in range(120):
        n_states = rng.randint(1, 5)
        n_labels = rng.randint(1, 2)
        tables = {}
        for i in range(n_labels):
            if rng.random() < 0.5:
                perm = list(range(n_states))
                rng.shuffle(perm)
                tables[chr(97 + i)] = tuple(perm)
            else:
                tables[chr(97 + i)] = tuple(
                    rng.randrange(n_states) for _ in range(n_states)
                )
        F = FiniteIFS(tables)
        for n in range(1, 5):
            assert minimal_sets(F, n).sets == brute_minimal_sets(F, n)


def test_minimal_set_image_orbits_tile_the_space():
    # for a minimal system, the successive images of one length-n minimal set
    # stay within the minimal family, return to the start within n steps, and
    # partition the state space
    systems = [Z6, Z6_TWO, Z4]
    rng = random.Random(871)
    while len(systems) < 15:
        m = rng.randrange(2, 7)
        tables = {}
        for lab in "ab":
            perm = list(range(m))
            rng.shuffle(perm)
            tables[lab] = tuple(perm)
        F = FiniteIFS(tables)
        if is_minimal(F):
            systems.append(F)
    for F in systems:
        for n in range(1, 5):
            family = set(minimal_sets(F, n).sets)
            for M in family:
                orbit = [frozenset(M)]
                while True:
                    step = image_of_set(F, orbit[-1])
                    if step == orbit[0]:
                        break
                    orbit.append(step)
                    assert len(orbit) <= n
                assert all(tuple(sorted(S)) in family for S in orbit)
                seen = sorted(x for S in orbit for x in S)
                assert seen == list(range(F.n_states))


# -- minimality, spectrum, covers ----------------------------------------------


def test_is_minimal_examples():
    assert is_minimal(Z6)
    assert is_minimal(Z6_TWO)
    assert not is_minimal(rotation_system(4, [2]))
    assert is_minimal(CONST)
    assert is_minimal(rotation_system(1, [0]))
    assert not is_minimal(FiniteIFS({"a": (0, 0)}))
    # neither +2 nor +3 is minimal alone, but words mixing them reach +1
    assert is_minimal(rotation_system(6, [2, 3]))


def test_nm_set_examples():
    assert nm_set(Z6, 6).members == (1, 2, 3, 6)
    assert nm_set(Z2_SWAP, 4).members == (1, 2)
    assert nm_set(Z6_TWO, 6).members == (1, 2)
    assert nm_set(rotation_system(1, [0]), 3).members == (1,)
    assert nm_set(CONST, 3).members == (1,)


def test_nm_set_huge_bound_matches_state_count_bound():
    for F in (Z6, Z6_TWO, NONSURJ):
        huge = nm_set(F, 10**9)
        assert huge.members == nm_set(F, F.n_states).members
        assert huge.bound == 10**9


def test_nm_set_rejects_bad_input():
    with pytest.raises(InputError):
        nm_set(rotation_system(4, [2]), 4)  # not minimal
    with pytest.raises(InputError):
        nm_set(Z6, 0)


def test_canonical_cover():
    assert canonical_cover(Z6, 3).sets == ((0, 3), (1, 4), (2, 5))
    assert canonical_cover(Z6, 1).sets == ((0, 1, 2, 3, 4, 5),)
    assert canonical_cover(Z6, 2).sets == ((0, 2, 4), (1, 3, 5))
    assert canonical_cover(Z6, 6).sets == tuple((x,) for x in range(6))
    assert canonical_cover(Z6_TWO, 2).sets == ((0, 2, 4), (1, 3, 5))
    with pytest.raises(InputError):
        canonical_cover(Z6, 4)  # 4 is not in the spectrum
    with pytest.raises(NoCanonicalCoverError):
        canonical_cover(CONST, 1)  # minimal sets vanish, no partition


# -- recurrence ----------------------------------------------------------------


def test_regularly_recurrent_points():
    assert regularly_recurrent_points(Z4) == frozenset({0, 1, 2, 3})
    assert regularly_recurrent_points(Z6_TWO) == frozenset()
    assert regularly_recurrent_points(rotation_system(1, [0])) == frozenset({0})
    # the fixing length for a 4-cycle is 4; a shorter horizon finds nothing
    assert regularly_recurrent_points(Z4, horizon=3) == frozenset()
    with pytest.raises(InputError):
        regularly_recurrent_points(Z4, horizon=0)


def test_periodic_points():
    assert periodic_points(Z6) == frozenset(range(6))
    assert periodic_points(FiniteIFS({"a": (1, 1)})) == frozenset({1})
    assert periodic_points(FiniteIFS({"a": (0, 0)})) == frozenset({0})
    assert periodic_points(rotation_system(6, [2])) == frozenset(range(6))
    assert periodic_points(FiniteIFS({"a": (1, 0), "b": (0, 0)})) == frozenset({0, 1})


# -- the word-layer walk against per-length references ---------------------------


def word_tables(F, n):
    return {compose(F, w) for w in itertools.product(F.labels, repeat=n)}


@settings(max_examples=80, deadline=None)
@given(F=small_systems(), n=st.integers(min_value=1, max_value=4))
def test_tables_of_length_matches_word_enumeration(F, n):
    assert tables_of_length(F, n) == sorted(word_tables(F, n))


@settings(max_examples=150, deadline=None)
@given(F=small_systems(), n=st.integers(min_value=1, max_value=3))
@example(F=NONSURJ, n=1)
@example(F=NONSURJ, n=2)
@example(F=CONST, n=1)
@example(F=FiniteIFS({"a": (1, 2, 0, 0)}), n=1)
@example(F=FiniteIFS({"a": (1, 2, 0, 0)}), n=3)
def test_minimal_sets_match_brute_force_on_small_systems(F, n):
    assert minimal_sets(F, n).sets == brute_minimal_sets(F, n)


@settings(max_examples=80, deadline=None)
@given(F=small_systems(), bound=st.integers(min_value=1, max_value=6))
def test_nm_set_matches_per_length_definition(F, bound):
    if not is_minimal(F):
        return
    members, earlier = [1], minimal_sets(F, 1).as_frozensets()
    for n in range(2, bound + 1):
        collection = minimal_sets(F, n).as_frozensets()
        if collection - earlier:
            members.append(n)
        earlier |= collection
    assert nm_set(F, bound).members == tuple(members)


# an example may walk n^2 + 3 layers of up to ~10^4 tables, so keep few
@settings(max_examples=30, deadline=None)
@given(F=small_systems().filter(is_minimal), data=st.data())
def test_nm_set_at_long_bounds_matches_per_length_definition(F, data):
    bound = data.draw(st.integers(min_value=1, max_value=F.n_states ** 2 + 3))
    maps = [F.table(label) for label in F.labels]
    level, members, earlier = set(maps), [], set()
    for n in range(1, bound + 1):
        collection = set(brute_minimal_sets_of(F, level))
        if n == 1 or collection - earlier:
            members.append(n)
        earlier |= collection
        level = {tuple(t[v] for v in prev) for prev in level for t in maps}
    assert nm_set(F, bound).members == tuple(members)


@settings(max_examples=80, deadline=None)
@given(F=small_systems(), horizon=st.integers(min_value=1, max_value=5))
def test_regularly_recurrent_points_match_definition(F, horizon):
    fixing = [word_tables(F, n) for n in range(1, horizon + 1)]
    expected = {
        x for x in F.states
        if any(all(t[x] == x for t in level) for level in fixing)
    }
    assert regularly_recurrent_points(F, horizon) == frozenset(expected)


# an example may walk n^2 + 3 layers of up to ~10^4 tables, so keep few
@settings(max_examples=30, deadline=None)
@given(F=small_systems(), data=st.data())
def test_regularly_recurrent_points_at_long_horizons(F, data):
    n = F.n_states
    horizon = data.draw(st.none() | st.integers(min_value=1, max_value=n * n + 3))
    maps = [F.table(label) for label in F.labels]
    level, expected, seen = frozenset(maps), set(), set()
    for _ in range(n * n if horizon is None else horizon):
        # each layer is a function of the previous one, so once a layer
        # repeats, every later one has been seen and expected is final
        if level in seen:
            break
        seen.add(level)
        expected |= {x for x in F.states if all(t[x] == x for t in level)}
        level = frozenset(tuple(t[v] for v in prev) for prev in level for t in maps)
    assert regularly_recurrent_points(F, horizon) == frozenset(expected)


def test_regularly_recurrent_points_huge_horizon_matches_default():
    for F in (Z4, Z6_TWO, NONSURJ):
        assert regularly_recurrent_points(F, 10**9) == regularly_recurrent_points(F)


@settings(max_examples=150, deadline=None)
@given(F=small_systems())
@example(F=rotation_system(1, [0]))
@example(F=FiniteIFS({"a": (0,), "b": (0,)}))
@example(F=NONSURJ)
@example(F=CONST)
@example(F=FiniteIFS({"a": (1, 1)}))
def test_is_minimal_matches_definition(F):
    def reached(x):
        # a shortest walk of one or more steps has at most n steps
        seen, frontier = set(), {x}
        for _ in F.states:
            frontier = {F.apply(label, y) for y in frontier for label in F.labels}
            seen |= frontier
        return seen

    assert is_minimal(F) == all(reached(x) == set(F.states) for x in F.states)


def test_is_minimal_verdict_is_cached_out_of_equality_hash_and_repr():
    asked, fresh = rotation_system(6, [1, 3]), rotation_system(6, [1, 3])
    assert is_minimal(asked)
    assert asked == fresh and hash(asked) == hash(fresh)
    assert repr(asked) == repr(fresh)
    assert is_minimal(fresh)


# -- the reach kernel on permutation systems ----------------------------------


@st.composite
def permutation_systems(draw):
    """1-3 permutations of at most 7 states; half are relabelled rotations."""
    n = draw(st.integers(min_value=1, max_value=7))
    labels = "abc"[: draw(st.integers(min_value=1, max_value=3))]
    if not draw(st.booleans()):
        return FiniteIFS({l: tuple(draw(st.permutations(range(n)))) for l in labels})
    name = draw(st.permutations(range(n)))
    tables = {}
    for label in labels:
        shift, table = draw(st.integers(0, n - 1)), [0] * n
        for x in range(n):
            table[name[x]] = name[(x + shift) % n]
        tables[label] = tuple(table)
    return FiniteIFS(tables)


def bfs_period(F):
    """gcd of l(x) + 1 - l(y) over the edges x -> y, l the BFS levels from 0."""
    levels = {0: 0}
    queue = [0]
    for x in queue:
        for label in F.labels:
            y = F.apply(label, x)
            if y not in levels:
                levels[y] = levels[x] + 1
                queue.append(y)
    return math.gcd(*(
        levels[x] + 1 - levels[F.apply(label, x)]
        for x in F.states for label in F.labels
    ))


@settings(max_examples=60, deadline=None)
@given(F=permutation_systems().filter(is_minimal))
@example(F=rotation_system(6, [2, 3]))
def test_nm_set_on_permutation_systems_matches_per_length_oracle(F):
    top = F.n_states ** 2 + 3
    maps = [F.table(label) for label in F.labels]
    level, seen, members, earlier = frozenset(maps), set(), [], set()
    for n in range(1, top + 1):
        # each layer is a function of the previous one, so once a layer
        # repeats, every later collection has been seen and members is final
        if level in seen:
            break
        seen.add(level)
        collection = set(brute_minimal_sets_of(F, level))
        if n == 1 or collection - earlier:
            members.append(n)
        earlier |= collection
        level = frozenset(tuple(t[v] for v in prev) for prev in level for t in maps)
    for bound in range(1, top + 1):
        assert nm_set(F, bound).members == tuple(m for m in members if m <= bound)


def minimal_two_permutation_system(n, seed):
    rng = random.Random(seed)
    while True:
        tables = {}
        for label in "ab":
            table = list(range(n))
            rng.shuffle(table)
            tables[label] = tuple(table)
        F = FiniteIFS(tables)
        if is_minimal(F):
            return F


# out of reach of the table walk, which enumerates the whole generated
# permutation group: about 1 s for the rotation, far longer for the pair
@pytest.mark.parametrize("F", [
    rotation_system(384, [1, 5]),
    minimal_two_permutation_system(24, seed=3),
], ids=["rotation-384", "two-permutations-24"])
def test_nm_set_on_large_permutation_systems_is_the_divisors_of_the_period(F):
    d = bfs_period(F)
    n = F.n_states
    assert nm_set(F, n).members == tuple(k for k in range(1, n + 1) if d % k == 0)


def test_verify_passes_on_a_24_state_two_permutation_system(tmp_path, capsys):
    path = tmp_path / "two-permutations-24.ifs"
    path.write_text(format_ifs(minimal_two_permutation_system(24, seed=3)))
    assert main(["ifs", "verify", str(path)]) == 0
    assert capsys.readouterr().out.endswith("verdict: PASS\n")


def test_regularly_recurrent_points_do_not_wait_for_the_lcm_of_the_periods():
    # one permutation with cycles of the primes 2..23, which sum to 100;
    # each state is fixed at its own cycle length, while the whole reach
    # vector repeats only after lcm = 223092870 steps
    table = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        start = len(table)
        table += [start + (i + 1) % p for i in range(p)]
    F = FiniteIFS({"a": tuple(table)})
    assert F.n_states == 100
    assert regularly_recurrent_points(F, 10**9) == frozenset(F.states)


# -- shadowing and sensitivity ---------------------------------------------------


def test_shadowing_on_discrete_metric():
    # below the discrete jump, pseudo-orbits are true orbits
    assert has_shadowing(Z4, Fraction(1, 2), Fraction(1, 2))
    assert has_shadowing(Z4, 0, Fraction(1, 3))
    assert has_shadowing(rotation_system(1, [0]), Fraction(1, 2), Fraction(1, 2))
    # at the jump every hop is allowed and one point cannot track them all
    assert not has_shadowing(Z4, 1, Fraction(1, 2))
    # epsilon so large that any point shadows anything
    assert has_shadowing(Z4, 1, 2)


def test_shadowing_zero_epsilon_fails():
    assert not has_shadowing(Z4, Fraction(1, 2), 0)


def test_shadowing_needs_single_map():
    with pytest.raises(InputError):
        has_shadowing(Z6_TWO, Fraction(1, 2), Fraction(1, 2))


def test_shadowing_with_line_metric():
    # identity map on a three-point line; delta reaches one step, so a
    # pseudo-orbit can drift from 0 to 2 while true orbits stand still
    line = [[0, Fraction(1, 2), 1], [Fraction(1, 2), 0, Fraction(1, 2)], [1, Fraction(1, 2), 0]]
    F = FiniteIFS({"a": (0, 1, 2)}, metric=line)
    assert not has_shadowing(F, Fraction(1, 2), Fraction(1, 2))
    assert has_shadowing(F, Fraction(1, 4), Fraction(3, 4))


def test_sensitivity_contracts():
    # exact metrics separate points, so singletons are open and nothing
    # is sensitive with a nonnegative constant
    assert not is_sensitive(Z4, 0)
    assert not is_sensitive(Z4, Fraction(1, 2))
    assert not is_sensitive(rotation_system(1, [0]), 0)
    assert is_sensitive(Z4, Fraction(-1))
    with pytest.raises(InputError):
        is_sensitive(Z6_TWO, 0)


@settings(max_examples=40)
@given(data=st.data())
def test_random_single_maps_shadow_below_discrete_jump(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    table = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n))
    F = FiniteIFS({"a": table})
    delta = data.draw(st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10))
    eps = data.draw(st.fractions(min_value=Fraction(1, 10), max_value=1, max_denominator=10))
    assert has_shadowing(F, delta, eps)
    assert not is_sensitive(F, 0)
