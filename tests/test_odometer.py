from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from addingmachine.errors import InputError
from addingmachine.odometer import (
    INFINITY,
    BaseSequence,
    OdometerPoint,
    add,
    as_residue,
    distance,
    from_residue,
    odometers_conjugate,
    prime_multiplicity,
    successor,
)

B222 = BaseSequence((2, 2, 2))
B23 = BaseSequence((2, 3))
DYADIC = BaseSequence((), (2,))


def all_points(base, depth):
    return [from_residue(base, depth, v) for v in range(base.level_size(depth))]


# -- construction and parsing ----------------------------------------------


def test_base_construction_and_text():
    b = BaseSequence.from_text("4,3;5")
    assert b.prefix == (4, 3) and b.tail == (5,)
    assert b.to_text() == "4,3;5"
    assert BaseSequence.from_text(";2").prefix == ()
    assert BaseSequence.from_text("2,3;").max_depth == 2
    assert b.is_full and b.max_depth is None
    assert b.radices(4) == (4, 3, 5, 5)
    assert b.level_size(3) == 60


def test_base_rejects_garbage():
    for bad in ["", ";", "1;2", "2,x;", "0;", "2;-3"]:
        with pytest.raises(InputError):
            BaseSequence.from_text(bad)
    with pytest.raises(InputError):
        BaseSequence((2,), ()).radices(2)


def test_point_construction_and_text():
    p = OdometerPoint.from_text(B222, "1,0,1")
    assert p.digits == (1, 0, 1)
    assert p.to_text() == "1,0,1"
    with pytest.raises(InputError):
        OdometerPoint(B222, (2, 0, 0))  # digit out of radix range
    with pytest.raises(InputError):
        OdometerPoint(B222, ())
    with pytest.raises(InputError):
        OdometerPoint(BaseSequence((2, 3), ()), (0, 0, 0))  # beyond truncation
    with pytest.raises(InputError):
        OdometerPoint.from_text(B222, "1,x,0")


# -- value semantics -----------------------------------------------------------


def test_equal_values_from_lists_and_tuples():
    bases = [BaseSequence([2, 3], [5]), BaseSequence((2, 3), (5,)),
             BaseSequence.from_text("2,3;5")]
    assert bases[0] == bases[1] == bases[2]
    assert len(set(bases)) == 1
    assert bases[0].prefix == (2, 3) and bases[0].tail == (5,)
    points = [OdometerPoint(bases[0], [1, 2, 4]), OdometerPoint(bases[1], (1, 2, 4)),
              OdometerPoint.from_text(bases[2], "1,2,4")]
    assert points[0] == points[1] == points[2]
    assert len(set(points)) == 1
    assert points[0].digits == (1, 2, 4)
    assert len({BaseSequence((2, 3)), BaseSequence((2, 3), ()), BaseSequence((), (2, 3))}) == 2
    assert len({OdometerPoint(B23, (1, 0)), OdometerPoint(B23, (0, 1))}) == 2


def test_equality_with_another_type_is_false():
    b = BaseSequence((2, 3))
    x = OdometerPoint(b, (1, 2))
    for other in [((2, 3), ()), "2,3;", None, 5]:
        assert (b == other) is False and b != other
    for other in [(1, 2), b, "1,2", as_residue(x)]:
        assert (x == other) is False and x != other


def test_values_are_immutable():
    b = BaseSequence((2, 3))
    x = OdometerPoint(b, (1, 2))
    for obj, field, value in [(b, "prefix", (5,)), (b, "tail", (5,)),
                              (x, "base", B222), (x, "digits", (0, 0))]:
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert b == BaseSequence((2, 3)) and x.digits == (1, 2)


def test_repr_round_trips():
    x = OdometerPoint(BaseSequence((2, 3), (5,)), (1, 2, 4))
    assert repr(x.base) == "BaseSequence(prefix=(2, 3), tail=(5,))"
    assert repr(x) == (
        "OdometerPoint(base=BaseSequence(prefix=(2, 3), tail=(5,)), digits=(1, 2, 4))"
    )
    assert eval(repr(x), {"BaseSequence": BaseSequence, "OdometerPoint": OdometerPoint}) == x


# -- frozen arithmetic examples ---------------------------------------------


def test_add_with_carry_dyadic():
    p = OdometerPoint(B222, (1, 0, 1))
    q = OdometerPoint(B222, (1, 1, 0))
    assert add(p, q).digits == (0, 0, 0)


def test_add_with_carry_mixed_radix():
    p = OdometerPoint(B23, (1, 2))
    q = OdometerPoint(B23, (1, 0))
    assert add(p, q).digits == (0, 0)
    assert (p + q).digits == (0, 0)


def test_successor_wraps():
    assert successor(OdometerPoint(B222, (1, 1, 1))).digits == (0, 0, 0)
    assert successor(OdometerPoint(B222, (0, 0, 0))).digits == (1, 0, 0)
    assert successor(OdometerPoint(B23, (1, 2))).digits == (0, 0)


def test_successor_wraps_at_every_depth():
    # 2, 3, 4, then 5 forever: all digits at their top wrap to zero, and
    # a run of top digits below the first non-top digit carries into it
    base = BaseSequence((2, 3, 4), (5,))
    radices = base.radices(6)
    for depth in range(1, 7):
        top = tuple(j - 1 for j in radices[:depth])
        assert successor(OdometerPoint(base, top)) == OdometerPoint.zero(base, depth)
        for k in range(depth):
            x = OdometerPoint(base, top[:k] + (0,) * (depth - k))
            assert successor(x).digits == (0,) * k + (1,) + (0,) * (depth - k - 1)
            assert x.successor() == successor(x)


def test_distance_example():
    b = BaseSequence((2, 2, 2, 2))
    x = OdometerPoint(b, (0, 0, 0, 0))
    y = OdometerPoint(b, (0, 1, 1, 0))
    assert distance(x, y) == Fraction(3, 8)


def test_residue_examples():
    assert as_residue(OdometerPoint(B23, (1, 2))) == 5
    assert from_residue(B222, 3, 6).digits == (0, 1, 1)
    with pytest.raises(InputError):
        from_residue(B222, 3, 8)
    with pytest.raises(InputError):
        from_residue(B222, 3, -1)


def test_space_mismatch_rejected():
    with pytest.raises(InputError):
        add(OdometerPoint(B222, (0, 0, 0)), OdometerPoint(B23, (0, 0)))
    with pytest.raises(InputError):
        distance(OdometerPoint(DYADIC, (0, 0)), OdometerPoint(DYADIC, (0, 0, 0)))


# -- group structure, exhaustively -------------------------------------------


@pytest.mark.parametrize("radices", [(2, 2, 2, 2), (2, 3, 2), (5, 2)])
def test_addition_is_residue_arithmetic(radices):
    base = BaseSequence(radices)
    depth = len(radices)
    m = base.level_size(depth)
    pts = all_points(base, depth)
    for x in pts:
        for y in pts:
            assert as_residue(add(x, y)) == (as_residue(x) + as_residue(y)) % m
        assert as_residue(successor(x)) == (as_residue(x) + 1) % m


def test_group_laws_exhaustive_2_3_2():
    base = BaseSequence((2, 3, 2))
    pts = all_points(base, 3)
    zero = OdometerPoint.zero(base, 3)
    for x in pts:
        assert add(x, zero) == x
        for y in pts:
            assert add(x, y) == add(y, x)
            for z in pts:
                assert add(add(x, y), z) == add(x, add(y, z))


@pytest.mark.parametrize("radices", [(2, 2, 2, 2), (2, 3, 2), (5, 2)])
def test_successor_orbit_visits_everything(radices):
    base = BaseSequence(radices)
    depth = len(radices)
    m = base.level_size(depth)
    x = OdometerPoint.zero(base, depth)
    seen = set()
    for _ in range(m):
        seen.add(x.digits)
        x = successor(x)
    assert len(seen) == m
    assert x == OdometerPoint.zero(base, depth)


# -- the metric ---------------------------------------------------------------


@pytest.mark.parametrize("radices", [(2, 2, 2, 2), (2, 3, 2), (5, 2)])
def test_metric_axioms_on_all_pairs(radices):
    base = BaseSequence(radices)
    pts = all_points(base, len(radices))
    for x in pts:
        for y in pts:
            d = distance(x, y)
            assert d == distance(y, x)
            assert d >= 0
            assert (d == 0) == (x == y)


def test_triangle_inequality_exhaustive_dyadic():
    base = BaseSequence((2, 2, 2, 2))
    pts = all_points(base, 4)
    for x in pts:
        for y in pts:
            dxy = distance(x, y)
            for z in pts:
                assert distance(x, z) <= dxy + distance(y, z)


def test_deeper_agreement_is_closer():
    b = BaseSequence((), (2,))
    x = OdometerPoint(b, (0, 0, 0, 0))
    near = OdometerPoint(b, (0, 0, 0, 1))
    far = OdometerPoint(b, (1, 0, 0, 0))
    assert distance(x, near) < distance(x, far)


def test_distance_when_every_digit_differs():
    b = BaseSequence((2, 2))
    assert distance(OdometerPoint(b, (1, 0)), OdometerPoint(b, (0, 1))) == Fraction(3, 4)


# -- prime profiles and conjugacy ---------------------------------------------


def test_prime_multiplicity_example():
    profile = prime_multiplicity(BaseSequence((4, 3), (5,)))
    assert profile.as_dict() == {2: 2, 3: 1, 5: INFINITY}
    assert profile.to_text() == "2^2 3^1 5^inf"


def test_prime_multiplicity_tail_dominates():
    profile = prime_multiplicity(BaseSequence((2, 2), (6,)))
    assert profile.as_dict() == {2: INFINITY, 3: INFINITY}


def test_prime_multiplicity_mixed_prefix_and_tail():
    # the prefix contributes a lone factor of 3; 2 and 5 recur in the tail
    profile = prime_multiplicity(BaseSequence((6,), (10,)))
    assert profile.as_dict() == {2: INFINITY, 3: 1, 5: INFINITY}


def test_prime_multiplicity_requires_tail():
    with pytest.raises(InputError):
        prime_multiplicity(BaseSequence((2, 3), ()))


def test_conjugacy_examples():
    assert odometers_conjugate(BaseSequence((), (2, 3)), BaseSequence((), (6,)))
    assert not odometers_conjugate(DYADIC, BaseSequence((), (3,)))
    assert odometers_conjugate(BaseSequence((4, 3), (5,)), BaseSequence((2, 2, 3), (5,)))
    assert not odometers_conjugate(BaseSequence((4,), (5,)), BaseSequence((2,), (5,)))


def test_conjugacy_is_an_equivalence_on_a_family():
    family = [
        BaseSequence((), (2, 3)),
        BaseSequence((), (6,)),
        BaseSequence((2,), (6,)),
        BaseSequence((4, 3), (5,)),
        BaseSequence((2, 2, 3), (5,)),
        DYADIC,
    ]
    for b in family:
        assert odometers_conjugate(b, b)
    for b1 in family:
        for b2 in family:
            assert odometers_conjugate(b1, b2) == odometers_conjugate(b2, b1)
            for b3 in family:
                if odometers_conjugate(b1, b2) and odometers_conjugate(b2, b3):
                    assert odometers_conjugate(b1, b3)


def test_infinity_ordering():
    assert INFINITY > 10 ** 9
    assert not (INFINITY < 3)
    assert INFINITY >= INFINITY
    assert INFINITY == INFINITY
    assert INFINITY != 7
    # the other comparisons derive from __eq__ and __lt__
    for k in (0, 1, 7, 10 ** 30):
        assert INFINITY > k and INFINITY >= k and not INFINITY < k and not INFINITY <= k
        assert k < INFINITY and k <= INFINITY and not k > INFINITY and not k >= INFINITY
    assert INFINITY <= INFINITY and not INFINITY < INFINITY and not INFINITY > INFINITY
    assert sorted([INFINITY, 3, 1]) == [1, 3, INFINITY]
    assert max(5, INFINITY) is INFINITY
    with pytest.raises(TypeError):
        INFINITY < Fraction(1, 2)
    with pytest.raises(TypeError):
        INFINITY >= "inf"


# -- property tests ------------------------------------------------------------


small_bases = st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=4)


@given(radices=small_bases, data=st.data())
def test_add_matches_modular_arithmetic(radices, data):
    base = BaseSequence(tuple(radices))
    depth = len(radices)
    m = base.level_size(depth)
    u = data.draw(st.integers(min_value=0, max_value=m - 1))
    v = data.draw(st.integers(min_value=0, max_value=m - 1))
    x = from_residue(base, depth, u)
    y = from_residue(base, depth, v)
    assert as_residue(add(x, y)) == (u + v) % m
    assert as_residue(x) == u


@given(radices=small_bases, data=st.data())
def test_metric_triangle_sampled(radices, data):
    base = BaseSequence(tuple(radices))
    depth = len(radices)
    m = base.level_size(depth)
    pick = lambda: from_residue(base, depth, data.draw(st.integers(0, m - 1)))
    x, y, z = pick(), pick(), pick()
    assert distance(x, z) <= distance(x, y) + distance(y, z)
