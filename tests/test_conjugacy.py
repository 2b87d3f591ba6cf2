from math import gcd

import pytest
from hypothesis import example, given, settings

from addingmachine.conjugacy import (
    AlphaReport,
    ColoringObstruction,
    CyclicTower,
    FactorMap,
    ModNColoring,
    build_factor_map,
    extend_tower,
    find_mod_n_coloring,
    injectivity_on_regularly_recurrent,
    max_tower,
    tower_to_alpha,
    verify_equivariance,
)
from addingmachine.errors import InputError
from addingmachine.finite_ifs import (
    FiniteIFS,
    is_minimal,
    regularly_recurrent_points,
    rotation_system,
)
from addingmachine.odometer import BaseSequence, OdometerPoint, as_residue
from strategies import (
    affine_system,
    affine_systems,
    permutation_systems,
    small_systems,
    trial_division,
)
from words import word_tables

Z4 = rotation_system(4, [1])
Z6 = rotation_system(6, [1])
Z6_TWO = rotation_system(6, [1, 3])
Z12 = rotation_system(12, [1])
NONSURJ = FiniteIFS({"a": (1, 2, 3, 0), "b": (1, 0, 1, 0)})

Z4_TOWER = CyclicTower(
    system=Z4,
    primes=(2, 2),
    levels=(((0, 2), (1, 3)), ((0,), (1,), (2,), (3,))),
)


# -- colorings ----------------------------------------------------------------


def test_coloring_found():
    c = find_mod_n_coloring(Z6, 3)
    assert isinstance(c, ModNColoring)
    assert c.colors == (0, 1, 2, 0, 1, 2)
    assert c.fibers() == ((0, 3), (1, 4), (2, 5))
    assert find_mod_n_coloring(Z6, 2).colors == (0, 1, 0, 1, 0, 1)
    assert find_mod_n_coloring(Z6_TWO, 2).colors == (0, 1, 0, 1, 0, 1)
    assert find_mod_n_coloring(NONSURJ, 2).colors == (0, 1, 0, 1)


def test_coloring_obstruction_witness():
    obs = find_mod_n_coloring(Z6, 4)
    assert obs == ColoringObstruction(
        n=4, state=5, label="a", successor=0, expected=2, found=0
    )
    # the witness edge really is contradictory: following it closes a
    # loop of length 6, which is not divisible by 4
    assert Z6.table(obs.label)[obs.state] == obs.successor

    obs = find_mod_n_coloring(Z6_TWO, 3)
    assert obs == ColoringObstruction(
        n=3, state=3, label="b", successor=0, expected=2, found=0
    )


def test_coloring_input_errors():
    with pytest.raises(InputError):
        find_mod_n_coloring(Z6, 1)
    with pytest.raises(InputError):
        find_mod_n_coloring(rotation_system(4, [2]), 2)


def reference_coloring(F, n):
    """Oracle: propagate colors breadth-first from state 0 for one modulus."""
    colors = [None] * F.n_states
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
    return ModNColoring(n=n, colors=tuple(colors))


def reference_extensions(F):
    """Oracle: extensions of the trivial tower, one coloring search per prime."""
    out = []
    for p in range(2, F.n_states + 1):
        if any(p % q == 0 for q in range(2, p)):
            continue
        coloring = reference_coloring(F, p)
        if isinstance(coloring, ColoringObstruction):
            continue
        level = coloring.fibers()
        if all(
            {F.table(label)[x] for x in level[j]} == set(level[(j + 1) % p])
            for label in F.labels
            for j in range(p)
        ):
            out.append((p, level))
    return out


@settings(max_examples=150, deadline=None)
@given(F=(small_systems() | permutation_systems()).filter(is_minimal))
@example(F=NONSURJ)
@example(F=Z6_TWO)
@example(F=rotation_system(1, [0]))
def test_one_search_matches_per_modulus_search(F):
    for n in range(2, F.n_states + 3):
        assert find_mod_n_coloring(F, n) == reference_coloring(F, n)
    extensions = extend_tower(F, CyclicTower.trivial(F))
    assert [(p, t.levels[-1]) for p, t in extensions] == reference_extensions(F)


# -- towers --------------------------------------------------------------------


def test_tower_accessors():
    assert Z4_TOWER.depth == 2
    assert Z4_TOWER.size(0) == 1
    assert Z4_TOWER.size(1) == 2
    assert Z4_TOWER.top_size == 4
    assert Z4_TOWER.block_index(1, 2) == 0
    assert Z4_TOWER.block_index(2, 3) == 3
    Z4_TOWER.validate()
    CyclicTower.trivial(Z4).validate()
    for level in (0, 3, -1):
        with pytest.raises(InputError, match="outside 1..2"):
            Z4_TOWER.block_index(level, 1)
    for i in (-1, 3, 5):
        with pytest.raises(InputError, match="outside 0..2"):
            Z4_TOWER.size(i)
    with pytest.raises(InputError, match="outside 1..0"):
        CyclicTower.trivial(Z4).block_index(1, 0)


def test_tower_validate_rejects_corruption():
    with pytest.raises(InputError, match="not prime"):
        CyclicTower(Z4, (4,), (((0,), (1,), (2,), (3,)),)).validate()
    with pytest.raises(InputError, match="expected 2"):
        CyclicTower(Z4, (2,), (((0, 1, 2, 3),),)).validate()
    with pytest.raises(InputError, match="partition"):
        CyclicTower(Z4, (2,), (((0, 2), (1, 2)),)).validate()
    with pytest.raises(InputError, match="onto"):
        CyclicTower(Z4, (2,), (((0, 1), (2, 3)),)).validate()
    with pytest.raises(InputError, match="inside"):
        # top level shifted by one: cyclic, but parity flips under nesting
        CyclicTower(
            Z4, (2, 2), (((0, 2), (1, 3)), ((1,), (2,), (3,), (0,)))
        ).validate()
    with pytest.raises(InputError, match="mismatched"):
        CyclicTower(Z4, (2, 2), (((0, 2), (1, 3)),)).validate()
    # construction alone validates, so no invalid tower can be passed on
    with pytest.raises(InputError, match="onto"):
        CyclicTower(Z4, (2,), (((0, 1), (2, 3)),))


def test_extend_tower_orders_primes():
    exts = extend_tower(Z6, CyclicTower.trivial(Z6))
    assert [p for p, _ in exts] == [2, 3]
    for _, t in exts:
        t.validate()
    # extending the depth-one factor-2 tower reaches depth two
    deeper = extend_tower(Z6, exts[0][1])
    assert [p for p, _ in deeper] == [3]
    assert deeper[0][1].primes == (2, 3)


def test_extend_tower_mixed_rotation_stops_at_two():
    # the +3 map swaps parity classes but does not advance mod-3 classes,
    # so only the factor-2 extension survives
    exts = extend_tower(Z6_TWO, CyclicTower.trivial(Z6_TWO))
    assert [p for p, _ in exts] == [2]


def test_extend_tower_keeps_a_shifted_tower_nested():
    # state 0 sits in block 1, so the new fibers must be rotated by one
    # to land inside the blocks of the level above
    shifted = CyclicTower(Z4, (2,), (((1, 3), (0, 2)),))
    exts = extend_tower(Z4, shifted)
    assert [p for p, _ in exts] == [2]
    assert exts[0][1].levels[-1] == ((3,), (0,), (1,), (2,))


def test_extend_tower_requires_matching_system():
    with pytest.raises(InputError):
        extend_tower(Z6, CyclicTower.trivial(Z4))


def test_extend_tower_demands_onto_fibers():
    # a mod-2 coloring exists, but map b sends both colors into {0, 1}
    # only, so neither fiber is carried onto the next one
    assert isinstance(find_mod_n_coloring(NONSURJ, 2), ModNColoring)
    assert extend_tower(NONSURJ, CyclicTower.trivial(NONSURJ)) == []
    assert max_tower(NONSURJ).primes == ()


def test_max_tower_frozen_examples():
    assert max_tower(Z4).primes == (2, 2)
    assert max_tower(Z4).levels == Z4_TOWER.levels
    assert max_tower(Z6).primes == (2, 3)
    assert max_tower(Z12).primes == (2, 2, 3)
    assert max_tower(Z6_TWO).primes == (2,)
    assert max_tower(Z6_TWO).levels == (((0, 2, 4), (1, 3, 5)),)
    assert max_tower(rotation_system(5, [1])).primes == (5,)
    assert max_tower(rotation_system(1, [0])).primes == ()
    with pytest.raises(InputError):
        max_tower(rotation_system(4, [2]))


def test_greedy_order_does_not_change_the_multiset():
    # taking the largest viable prime at every step reaches the same
    # factor multiset, only in another order
    tower = CyclicTower.trivial(Z12)
    while True:
        exts = extend_tower(Z12, tower)
        if not exts:
            break
        tower = exts[-1][1]
    assert tower.primes == (3, 2, 2)
    assert sorted(tower.primes) == sorted(max_tower(Z12).primes)
    assert tower.top_size == 12


# -- factor maps ---------------------------------------------------------------


def test_build_factor_map_digits():
    fm = build_factor_map(Z4, Z4_TOWER)
    assert fm.primes == (2, 2)
    assert fm.digits == ((0, 0), (1, 0), (0, 1), (1, 1))
    assert fm.residues == (0, 1, 2, 3)
    assert fm.modulus == 4
    assert fm.is_injective()
    assert fm.base() == BaseSequence(prefix=(2, 2), tail=())
    assert fm.point(1) == OdometerPoint(fm.base(), (1, 0))


def test_build_factor_map_trivial_tower():
    fm = build_factor_map(Z4, CyclicTower.trivial(Z4))
    assert fm.depth == 0
    assert fm.modulus == 1
    assert fm.residues == (0, 0, 0, 0)
    assert not fm.is_injective()
    with pytest.raises(InputError):
        fm.base()


def test_from_digits_validation():
    with pytest.raises(InputError):
        FactorMap.from_digits((2, 2), [(0,), (1,)])
    with pytest.raises(InputError):
        FactorMap.from_digits((2,), [(2,), (0,)])


def test_from_digits_reads_residues_through_the_odometer():
    fm = FactorMap.from_digits([2, 3], [[1, 2], (0, 1)])
    base = BaseSequence((2, 3))
    assert fm.residues == (as_residue(OdometerPoint(base, (1, 2))), 2) == (5, 2)
    assert fm.digits == ((1, 2), (0, 1))
    depth0 = FactorMap.from_digits((), [(), ()])
    assert depth0 == FactorMap(primes=(), digits=((), ()), residues=(0, 0))
    # the digit rule is OdometerPoint's: ints only, bools too are refused
    with pytest.raises(InputError, match=r"digit 3 at position 2 not in 0\.\.2"):
        FactorMap.from_digits((2, 3), [(0, 3)])
    with pytest.raises(InputError, match="digit True at position 1"):
        FactorMap.from_digits((2,), [(True,)])
    with pytest.raises(InputError, match="length differs"):
        FactorMap.from_digits((), [(0,)])


def test_equivariance_passes_on_built_maps():
    for F in (Z4, Z6, Z12, Z6_TWO):
        fm = build_factor_map(F, max_tower(F))
        # the residues built with the digits are the ones the digits encode
        assert fm == FactorMap.from_digits(fm.primes, fm.digits)
        report = verify_equivariance(F, fm)
        assert report.passed
        assert report.witness is None
        assert report.checks == F.n_states * len(F.labels)
        assert all(ok for _, ok in report.per_label)
        for label in F.labels:
            t = F.table(label)
            for x in F.states:
                assert fm.point(t[x]) == fm.point(x).successor()


def test_equivariance_catches_corruption():
    fm = build_factor_map(Z4, Z4_TOWER)
    bad = FactorMap.from_digits(
        fm.primes, [(0, 0), (1, 0), (0, 0), (1, 1)]
    )
    report = verify_equivariance(Z4, bad)
    assert not report.passed
    assert report.witness == ("a", 1)
    assert report.per_label == (("a", False),)


def test_equivariance_word_iteration():
    # length-k words advance the odometer image by k steps
    fm = build_factor_map(Z12, max_tower(Z12))
    for k in (1, 2, 3):
        for t in word_tables(Z12, k):
            for x in Z12.states:
                assert fm.residues[t[x]] == (fm.residues[x] + k) % 12


def test_equivariance_size_mismatch():
    fm = build_factor_map(Z4, Z4_TOWER)
    with pytest.raises(InputError):
        verify_equivariance(Z6, fm)


# -- induced bases ---------------------------------------------------------------


def test_tower_to_alpha_frozen():
    assert tower_to_alpha(max_tower(Z12)) == AlphaReport(
        primes=(2, 2, 3), multiplicities=((2, 2), (3, 1))
    )
    assert tower_to_alpha(max_tower(Z6_TWO)) == AlphaReport(
        primes=(2,), multiplicities=((2, 1),)
    )
    report = tower_to_alpha(max_tower(NONSURJ))
    assert report.multiplicities == ()
    assert report.base() is None
    assert tower_to_alpha(max_tower(Z12)).base() == BaseSequence(
        prefix=(2, 2, 3), tail=()
    )


def test_tower_to_alpha_rejects_partial_towers():
    # the cross-check is part of the contract: a depth-one tower on a
    # twelve-state cycle undersells the spectrum and must not pass; a
    # failed check is a finding, returned rather than raised
    partial = extend_tower(Z12, CyclicTower.trivial(Z12))[0][1]
    report = tower_to_alpha(partial)
    assert report.mismatch == "tower gives 2^1 but the power spectrum supports 2^2"
    assert report.multiplicities == ((2, 1),)
    assert tower_to_alpha(max_tower(Z12)).mismatch is None


def test_tower_to_alpha_returns_a_spectrum_prime_without_a_level():
    # minimal and not bijective: the spectrum is 1 2, but no coloring mod
    # 2 exists, so the greedy tower stays trivial
    F = FiniteIFS({"a": (1, 0, 0), "b": (2, 0, 0)})
    report = tower_to_alpha(max_tower(F))
    assert report.mismatch == "tower gives 2^0 but the power spectrum supports 2^1"
    assert report.multiplicities == () and report.base() is None


# -- injectivity ------------------------------------------------------------------


def test_injectivity_on_regularly_recurrent():
    full = build_factor_map(Z4, Z4_TOWER)
    assert regularly_recurrent_points(Z4) == frozenset({0, 1, 2, 3})
    assert injectivity_on_regularly_recurrent(Z4, full)

    shallow = build_factor_map(Z4, extend_tower(Z4, CyclicTower.trivial(Z4))[0][1])
    assert not injectivity_on_regularly_recurrent(Z4, shallow)

    # no regularly recurrent states at all: vacuously injective there
    fm = build_factor_map(Z6_TWO, max_tower(Z6_TWO))
    assert regularly_recurrent_points(Z6_TWO) == frozenset()
    assert injectivity_on_regularly_recurrent(Z6_TWO, fm)
    assert injectivity_on_regularly_recurrent(Z6_TWO, fm, rr=[0, 1])
    assert not injectivity_on_regularly_recurrent(Z6_TWO, fm, rr=[0, 2])


# -- affine systems: a closed form ----------------------------------------------


def closed_form_size(m, coefficients):
    """g = gcd(m, a_i - a_1, b_i - b_1 for every i)."""
    (a1, b1), g = coefficients[0], m
    for a, b in coefficients[1:]:
        g = gcd(g, a - a1, b - b1)
    return g


@settings(max_examples=100, deadline=None)
@example(case=(2 ** 8, ((5, 1), (37, 97), (69, 65))))  # g = 2^5
@example(case=(3 ** 5, ((4, 1), (31, 55))))  # g = 3^3
@given(case=affine_systems())
def test_affine_towers_match_the_closed_form(case):
    """Maps x -> a_i*x + b_i mod m, map 1 of full period, every a_i a unit.

    The tower's top size is g = gcd(m, a_i - a_1, b_i - b_1), and each
    level of size n holds the residue classes mod n of the step count s(x)
    along map 1 from 0. A coloring is unique (the conjugacy module
    docstring), and map 1 is an n-cycle mod every n | m, so a level of
    size n is the classes of s mod n. Map i acts on them as map 1 does iff
    the two agree mod n, that is iff n | a_i - a_1 and n | b_i - b_1
    (evaluate at 0 and at 1). Unit slopes make every map a bijection, so
    every such level is onto and the tower reaches g.
    """
    m, coefficients = case
    F = affine_system(m, coefficients)
    g = closed_form_size(m, coefficients)
    steps, x = [0] * m, 0
    for k in range(m):
        steps[x], x = k, F.table("a")[x]
    tower = max_tower(F)
    assert tower.top_size == g
    for i, level in enumerate(tower.levels, start=1):
        n = tower.size(i)
        assert level == tuple(tuple(y for y in F.states if steps[y] % n == j) for j in range(n))
    alpha = tower_to_alpha(tower)
    assert alpha.multiplicities == tuple(sorted(trial_division(g).items()))
    assert alpha.mismatch is None
    fm = build_factor_map(F, tower)
    assert fm.residues == tuple(steps[y] % g for y in F.states)
    assert verify_equivariance(F, fm).passed


def test_affine_closed_form_needs_unit_slopes():
    # 13x + 13 has full period mod 24, but 21 is no unit mod 24: 21x + 21
    # agrees with it mod 8, yet no size-2 level is onto, so the tower is trivial
    m, coefficients = 24, ((13, 13), (21, 21))
    F = affine_system(m, coefficients)
    assert closed_form_size(m, coefficients) == 8 and gcd(21, m) == 3
    assert is_minimal(F)
    tower = max_tower(F)
    assert tower.depth == 0
    assert tower_to_alpha(tower).multiplicities == ()
