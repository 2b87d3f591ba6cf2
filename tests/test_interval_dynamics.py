from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from addingmachine.errors import InputError
from addingmachine.exactnum import Surd, format_exact, parse_exact, surd
from addingmachine.interval_dynamics import (
    DISCLAIMER,
    TentParam,
    critical_orbit,
    detect_interval_cycle,
    kneading_sequence,
    omega_limit_estimate,
    tent_eval,
    tower_certificate,
)

SQRT2 = parse_exact("(0+1*sqrt(2))/1")
PHI = parse_exact("(1+1*sqrt(5))/2")


# -- evaluation ----------------------------------------------------------------


def test_tent_eval_frozen():
    assert tent_eval(2, Fraction(1, 2)) == 1
    assert tent_eval(Fraction(3, 2), Fraction(3, 4)) == Fraction(3, 8)
    assert tent_eval(Fraction(3, 2), Fraction(1, 4)) == Fraction(3, 8)
    assert tent_eval(SQRT2, SQRT2 - 1) == 2 - SQRT2
    assert tent_eval("13/10", "1/2") == Fraction(13, 20)
    assert tent_eval(0, Fraction(1, 3)) == 0


def test_tent_eval_left_branch_is_half_open():
    # the slope applies to x < 1/2, the reflected branch at x >= 1/2
    a = Fraction(13, 10)
    assert tent_eval(a, Fraction(1, 2)) == a * Fraction(1, 2)
    eps = Fraction(1, 10**9)
    assert tent_eval(a, Fraction(1, 2) + eps) == a * (Fraction(1, 2) - eps)


def test_branch_formulas_agree_at_the_join():
    # a*x and a*(1-x) coincide at x = 1/2, so the half-open split is seamless
    for a in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(13, 10), Fraction(2)):
        assert tent_eval(a, Fraction(1, 2)) == a / 2
    assert tent_eval(SQRT2, Fraction(1, 2)) == parse_exact("(0+1*sqrt(2))/2")


def test_tent_eval_rejections():
    with pytest.raises(InputError):
        tent_eval(Fraction(5, 2), Fraction(1, 2))  # slope above 2
    with pytest.raises(InputError):
        tent_eval(-1, Fraction(1, 2))
    with pytest.raises(InputError):
        tent_eval(1, Fraction(3, 2))  # point outside the unit interval
    with pytest.raises(InputError):
        tent_eval(1, -Fraction(1, 10**6))


def test_tent_param_parsing():
    assert TentParam.from_text("13/10").a == Fraction(13, 10)
    assert TentParam.from_text("(0+1*sqrt(2))/1").a == SQRT2
    with pytest.raises(InputError):
        TentParam.from_text("(0+1*sqrt(2))/-1")
    with pytest.raises(InputError):
        TentParam.from_text("3")


@settings(max_examples=120)
@given(
    a=st.fractions(min_value=0, max_value=2, max_denominator=64),
    x=st.fractions(min_value=0, max_value=1, max_denominator=64),
)
def test_tent_eval_preserves_unit_interval(a, x):
    y = tent_eval(a, x)
    assert 0 <= y <= 1


# -- critical orbits -------------------------------------------------------------


def test_critical_orbit_frozen():
    o = critical_orbit(Fraction(2))
    assert o.points == (Fraction(1, 2), Fraction(1), Fraction(0))
    assert o.status == "exact-cycle-found"
    assert (o.cycle_start, o.period) == (2, 1)

    o = critical_orbit(SQRT2)
    assert [format_exact(p) for p in o.points] == [
        "1/2", "(0+1*sqrt(2))/2", "(-1+1*sqrt(2))/1", "(2-1*sqrt(2))/1",
    ]
    assert o.status == "exact-cycle-found"
    assert (o.cycle_start, o.period) == (3, 1)
    # the orbit lands on the fixed point a(1 - x) = x
    fixed = o.points[3]
    assert tent_eval(SQRT2, fixed) == fixed

    o = critical_orbit(Fraction(0))
    assert o.points == (Fraction(1, 2), Fraction(0))
    assert (o.cycle_start, o.period) == (1, 1)

    o = critical_orbit(Fraction(1))
    assert o.points == (Fraction(1, 2),)
    assert (o.cycle_start, o.period) == (0, 1)


def test_critical_orbit_budget():
    o = critical_orbit(Fraction(13, 10), budget=3)
    assert o.points == (
        Fraction(1, 2), Fraction(13, 20), Fraction(91, 200), Fraction(1183, 2000)
    )
    assert o.status == "transient-only"
    assert o.cycle_start is None and o.period is None
    assert critical_orbit(Fraction(13, 10), budget=0).points == (Fraction(1, 2),)
    with pytest.raises(InputError):
        critical_orbit(Fraction(13, 10), budget=-1)


def test_critical_orbit_is_an_orbit():
    for a in (Fraction(2), Fraction(13, 10), SQRT2, PHI):
        o = critical_orbit(a, budget=24)
        for k in range(len(o.points) - 1):
            assert o.points[k + 1] == tent_eval(a, o.points[k])
        if o.status == "exact-cycle-found":
            assert tent_eval(a, o.points[-1]) == o.points[o.cycle_start]


def test_long_iteration_stays_exact():
    for a in (surd(1, 1, 3) / 2, PHI):
        x = Fraction(1, 2)
        for _ in range(50):
            x = tent_eval(a, x)
            assert isinstance(x, (Fraction, Surd))
            if isinstance(x, Surd):
                assert x.r == (3 if a.r == 3 else 5)


def test_sqrt2_orbit_certifies_exactness_within_fifty_steps():
    # the cycle report means every needed iterate was exactly representable;
    # the orbit never degrades to an approximation
    o = critical_orbit(SQRT2, budget=50)
    assert o.status == "exact-cycle-found"


# -- kneading ---------------------------------------------------------------------


def test_kneading_frozen():
    assert kneading_sequence(Fraction(2), 4) == "RLLL"
    assert kneading_sequence(Fraction(13, 10), 5) == "RLRRR"
    assert kneading_sequence(Fraction(1, 2), 3) == "LLL"
    assert kneading_sequence(PHI, 5) == "RLCRL"
    with pytest.raises(InputError):
        kneading_sequence(Fraction(2), -1)


# -- omega limit estimates ----------------------------------------------------------


def test_omega_estimate_collapses_to_cycle():
    om = omega_limit_estimate(Fraction(2), Fraction(1, 2), transient=2, window=4)
    assert om.intervals == ((Fraction(0), Fraction(0)),)
    assert om.samples == (Fraction(0),) * 4


def test_omega_estimate_degenerate_at_surd_fixed_point():
    om = omega_limit_estimate(SQRT2, Fraction(1, 2), transient=4, window=8)
    fixed = 2 - SQRT2
    assert om.intervals == ((fixed, fixed),)


def test_omega_estimate_rational_seed_lands_on_interior_fixed_point():
    om = omega_limit_estimate(Fraction(2), Fraction(1, 3), transient=1, window=8)
    assert om.intervals == ((Fraction(2, 3), Fraction(2, 3)),)


def test_omega_estimate_resolution_merging():
    om = omega_limit_estimate(
        Fraction(13, 10), Fraction(1, 2), transient=0, window=4,
        resolution=Fraction(1, 20),
    )
    assert om.intervals == (
        (Fraction(91, 200), Fraction(1, 2)),
        (Fraction(1183, 2000), Fraction(1183, 2000)),
        (Fraction(13, 20), Fraction(13, 20)),
    )
    wide = omega_limit_estimate(
        Fraction(13, 10), Fraction(1, 2), transient=0, window=4, resolution=1
    )
    assert wide.intervals == ((Fraction(91, 200), Fraction(13, 20)),)


def test_omega_estimate_covers_every_sample():
    om = omega_limit_estimate(
        Fraction(19, 10), Fraction(1, 3), transient=5, window=40,
        resolution=Fraction(1, 50),
    )
    assert len(om.samples) == 40
    for s in om.samples:
        assert any(lo <= s <= hi for lo, hi in om.intervals)
    los = [lo for lo, _ in om.intervals]
    assert los == sorted(los)
    with pytest.raises(InputError):
        omega_limit_estimate(Fraction(2), Fraction(1, 2), transient=0, window=0)


# -- interval cycle detection ----------------------------------------------------------


def test_detect_cycle_certified_13_10():
    d = detect_interval_cycle(Fraction(13, 10), 2)
    assert d.status == "certified"
    assert d.intervals == (
        (Fraction(91, 200), Fraction(10621, 20000)),
        (Fraction(1183, 2000), Fraction(13, 20)),
    )
    assert d.overlap is None and d.escape is None
    # the two hulls really are swapped by the map: strict disjointness
    assert d.intervals[0][1] < d.intervals[1][0]


def test_detect_cycle_single_interval():
    d = detect_interval_cycle(Fraction(13, 10), 1)
    assert d.status == "certified"
    assert d.intervals == ((Fraction(91, 200), Fraction(13, 20)),)


def test_detect_cycle_absent_for_full_tent():
    d = detect_interval_cycle(Fraction(2), 2)
    assert d.status == "absent"
    assert d.overlap == (0, 1)


def test_detect_cycle_degenerate_on_fixed_point():
    # past the transient the critical orbit sits on one point, so a
    # two-interval family has nothing to separate
    assert detect_interval_cycle(SQRT2, 2).status == "absent"
    assert detect_interval_cycle(SQRT2, 2, transient=3).status == "degenerate"
    assert detect_interval_cycle(SQRT2, 1, transient=4).status == "degenerate"


def test_detect_cycle_inconclusive_window():
    assert detect_interval_cycle(Fraction(13, 10), 2, window=1).status == "inconclusive"


def test_detect_cycle_margin_can_break_tight_certificates():
    # the certified pair at slope 13/10 has zero slack: the image of the
    # odd hull IS the even hull, so any widening makes containment fail
    d = detect_interval_cycle(Fraction(13, 10), 2, margin=Fraction(1, 1000))
    assert d.status == "absent"
    assert d.escape is not None


def test_detect_cycle_validation():
    with pytest.raises(InputError):
        detect_interval_cycle(Fraction(13, 10), 0)
    with pytest.raises(InputError):
        detect_interval_cycle(Fraction(13, 10), 2, transient=-1)
    with pytest.raises(InputError):
        detect_interval_cycle(Fraction(13, 10), 2, margin=Fraction(-1, 10))


# -- tower certificates -----------------------------------------------------------------


def test_tower_certificate_11_10():
    tc = tower_certificate(Fraction(11, 10), (2, 2), window=128)
    assert tc.sizes == (2, 4)
    assert [lv.status for lv in tc.levels] == ["certified", "certified"]
    assert tc.deepest_certified == 2
    assert tc.disclaimer == DISCLAIMER
    # nesting: each level-two interval sits inside its level-one parent
    top = tc.levels[1].intervals
    bottom = tc.levels[0].intervals
    for j, (lo, hi) in enumerate(top):
        plo, phi = bottom[j % 2]
        assert plo <= lo and hi <= phi


def test_tower_certificate_13_10_stops_at_depth_one():
    tc = tower_certificate(Fraction(13, 10), (2, 2))
    assert tc.sizes == (2, 4)
    assert [lv.status for lv in tc.levels] == ["certified", "absent"]
    assert tc.deepest_certified == 1


def test_tower_certificate_full_slope_fails_level_one():
    tc = tower_certificate(Fraction(2), (2,), transient=0, window=64)
    assert tc.deepest_certified == 0
    assert [lv.status for lv in tc.levels] == ["absent"]


def test_tower_certificate_validation():
    with pytest.raises(InputError):
        tower_certificate(Fraction(11, 10), (1, 2))
    with pytest.raises(InputError):
        tower_certificate(Fraction(11, 10), ())
    # composite level factors are allowed; the sizes just multiply up
    assert tower_certificate(Fraction(11, 10), (4,), window=128).sizes == (4,)


# -- one orbit walk ----------------------------------------------------------------


@settings(max_examples=80)
@example(a=Fraction(11, 10), transient=1, window=12, n=4)  # classes start at k = 1
@given(
    a=st.fractions(min_value=1, max_value=2, max_denominator=64).filter(lambda a: a > 1),
    transient=st.integers(min_value=0, max_value=4),
    window=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=1, max_value=4),
)
def test_every_orbit_consumer_reads_the_same_walk(a, transient, window, n):
    half = Fraction(1, 2)
    length = transient + window
    points = [half]  # reference: a plain tent_eval loop
    for _ in range(length):
        points.append(tent_eval(a, points[-1]))
    tail = points[transient:length]

    orbit = critical_orbit(a, length)
    if orbit.status == "transient-only":
        assert list(orbit.points) == points
    else:
        assert list(orbit.points) == points[:len(orbit.points)]
    assert kneading_sequence(a, length) == "".join(
        "L" if x < half else ("C" if x == half else "R") for x in points[1:]
    )
    assert list(omega_limit_estimate(a, half, transient, window).samples) == tail
    det = detect_interval_cycle(a, n, transient, window)
    if det.status == "certified":
        for j, hull in enumerate(det.intervals):
            group = [x for k, x in enumerate(tail, transient) if k % n == j]
            assert hull == (min(group), max(group))
