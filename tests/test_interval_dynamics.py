import sys
import threading
import tracemalloc
from fractions import Fraction
from functools import cmp_to_key
from itertools import islice, pairwise
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from addingmachine import exactnum, interval_dynamics
from addingmachine.errors import ExactnessError, InputError
from addingmachine.exactnum import Surd, format_exact, parse_exact, surd
from addingmachine.interval_dynamics import (
    DISCLAIMER,
    HALF,
    CycleDetection,
    TentParam,
    critical_orbit,
    detect_interval_cycle,
    kneading_sequence,
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


@pytest.mark.parametrize("a, length", [
    (Fraction(707, 500), 6000),  # points of up to 54,000 bits, never reduced
    (parse_exact("(12-2*sqrt(5))/7"), 2000),
])
def test_kneading_holds_one_point_at_a_time(a, length):
    # the symbols of a long orbit cost memory for one point, not for all:
    # holding every point read would take about 21 MiB and 3.3 MiB here
    tracemalloc.start()
    try:
        kneading_sequence(a, length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("text", ["(12-2*sqrt(5))/7", "(1+sqrt(5))/2", "(7+sqrt(13))/9", "13/10"])
def test_kneading_takes_one_sign_per_point(monkeypatch, text):
    # the walk takes the side of each point to choose its step, and the
    # symbols read that side: one sign per point, not two. The kernel step
    # takes it, by exactnum._sign on a surd slope and by comparing 2P with
    # D inline on a rational one, so a sign taken is a _sign or _compare
    # call in either module, or a rational step. The slope is validated
    # before counting, since its range check compares too
    a, length, calls = TentParam.from_text(text), 200, 0

    def counting(original, rational_step=False):
        def counted(*args):
            nonlocal calls
            calls += not rational_step or not args[3]  # args[3] is r
            return original(*args)
        return counted

    for module in (exactnum, interval_dynamics):
        for name in ("_sign", "_compare"):
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
    monkeypatch.setattr(interval_dynamics, "_tent_step",
                        counting(interval_dynamics._tent_step, rational_step=True))
    symbols = kneading_sequence(a, length)
    assert length <= calls <= length + 1
    assert symbols == "".join("L" if x < HALF else ("C" if x == HALF else "R")
                              for x in plain_orbit(a.a, length)[1:])


# -- kneading renormalization ------------------------------------------------------


SIGMA = {"R": "RL", "L": "RR", "C": "RC"}


def slope_text(p, q, r, s):
    """(p + q*sqrt(r))/s as text, p/s when q = 0."""
    if not q:
        return f"{p}/{s}"
    return f"({p}{'+' if q > 0 else '-'}{abs(q)}*sqrt({r}))/{s}"


@st.composite
def renormalizable_slopes(draw):
    """(p, q, r, s) with 1 < (p + q*sqrt(r))/s <= sqrt(2): rational (q = 0)
    or in Q(sqrt(r)) for r = 2, 3, 5, 7. Floats only place the slope;
    integer signs decide which side of 1 and of sqrt(2) it is on."""
    s = draw(st.integers(min_value=2, max_value=10**6))
    target = 1 + draw(st.integers(min_value=1, max_value=4142)) / 10**4
    r = draw(st.sampled_from([0, 2, 3, 5, 7]))
    q = draw(st.sampled_from([-3, -2, -1, 1, 2, 3])) if r else 0
    p = round(s * target - q * r ** 0.5)
    # a > 1 and a^2 <= 2, with a^2 = (p^2 + q^2*r + 2*p*q*sqrt(r))/s^2
    assume(surd_sign(p - s, q, r) > 0)
    assume(surd_sign(p * p + q * q * r - 2 * s * s, 2 * p * q, r) <= 0)
    return p, q, r, s


@settings(max_examples=150, deadline=None)
@example(slope=(0, 1, 2, 1), length=40)  # a = sqrt(2), where K(2) = RLLL...
@given(slope=renormalizable_slopes(), length=st.integers(min_value=1, max_value=120))
def test_kneading_renormalizes_under_the_square(slope, length):
    """K(a)[:2L] = sigma(K(a^2)[:L]) for 1 < a <= sqrt(2), K the kneading
    sequence and sigma the substitution R -> RL, L -> RR, C -> RC.

    Proof. Let x* = a/(1 + a), the fixed point a*(1 - x*) = x*, which lies
    in (1/2, 1) for a > 1, and J = [1 - x*, x*], the interval around 1/2
    whose ends T maps to x*. On J, T(x) = a/2 - a*|x - 1/2| lies in
    [x*, a/2], right of 1/2, where T(y) = a*(1 - y); so for x in J

        T^2(x) = a - a^2/2 + a^2*|x - 1/2|.

    The orientation-reversing affine map h(x) = (x* - x)/l, l = 2x* - 1 =
    (a - 1)/(a + 1), sends J onto [0, 1] and fixes 1/2, and
    |x - 1/2| = l*|h(x) - 1/2|. Since x* - a + a^2/2 = a^2*l/2 (times
    1 + a, both sides are (a^3 - a^2)/2),

        h(T^2(x)) = a^2/2 - a^2*|h(x) - 1/2| = T_(a^2)(h(x)),

    so on J, T_a^2 is h^-1 T_(a^2) h, a copy of T_(a^2) turned around.
    a^2 <= 2 makes T_(a^2) a tent map of [0, 1] into itself, so T^2 maps J
    into J, and by induction from c_0 = 1/2 = h(1/2) the critical orbits
    c_k of T_a and d_k of T_(a^2) satisfy c_(2k) = h^-1(d_k). h reverses
    order about 1/2, so c_(2k) is L, C or R exactly when d_k is R, C or
    L, and c_(2k+1) = T(c_(2k)) lies in T(J), right of 1/2: R. So symbols
    2k - 1 and 2k of K(a) (c_(2k-1) and c_(2k), counting from 1) are R and
    symbol k of K(a^2) turned around: sigma's image of it.

    The test shares no code with the package beyond kneading_sequence,
    which reads both slopes as text."""
    p, q, r, s = slope
    inner = kneading_sequence(slope_text(p * p + q * q * r, 2 * p * q, r, s * s), length)
    outer = kneading_sequence(slope_text(p, q, r, s), 2 * length)
    assert outer == "".join(SIGMA[symbol] for symbol in inner)


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
    # at a = sqrt(2), a^2 = 2, the orbit lands on the fixed point 2 - sqrt(2)
    # at c_3, and the hulls [sqrt(2) - 1, 2 - sqrt(2)] of c_0, c_2, c_4 and
    # [2 - sqrt(2), sqrt(2)/2] of c_1, c_3 touch there: absent, as the
    # threshold a^2 <= 2 counts a boundary case that the hulls cannot separate
    d = detect_interval_cycle(SQRT2, 2)
    assert d.status == "absent" and d.overlap == (0, 1)
    # 1/2 is read in every prefix, so only a = 1, where 1/2 is fixed, or a
    # single point reads one repeated point
    assert detect_interval_cycle(Fraction(1), 2).status == "degenerate"
    assert detect_interval_cycle(SQRT2, 1, window=1).status == "degenerate"
    assert detect_interval_cycle(SQRT2, 1).status == "certified"


def test_detect_cycle_inconclusive_window():
    assert detect_interval_cycle(Fraction(13, 10), 2, window=1).status == "inconclusive"


def test_detect_cycle_margin_can_break_tight_certificates():
    # the certified pair at slope 13/10 has zero slack: the image of the
    # odd hull IS the even hull, so any widening makes containment fail.
    # A widened escape rules nothing out: the window runs out
    d = detect_interval_cycle(Fraction(13, 10), 2, margin=Fraction(1, 1000))
    assert d.status == "inconclusive"
    assert d.escape is not None and d.overlap is None
    # the margin never makes an absence: exact hulls that meet still do
    d = detect_interval_cycle(Fraction(2), 2, margin=Fraction(1, 1000))
    assert d.status == "absent" and d.overlap == (0, 1)


def test_detect_cycle_skips_prefixes_whose_hulls_did_not_move(monkeypatch):
    # the widened 13/10 escape runs the whole window of 511 prefixes, but
    # its hulls stop moving early, and images are read only for a prefix
    # whose hulls moved: at most 3 tent_eval calls per hull in all
    calls = 0
    original = interval_dynamics.tent_eval

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(interval_dynamics, "tent_eval", counting)
    n = 2
    d = detect_interval_cycle(Fraction(13, 10), n, 1024, Fraction(1, 1000))
    assert d.status == "inconclusive" and d.escape is not None
    assert 0 < calls <= 3 * n


def test_detect_cycle_validation():
    with pytest.raises(InputError):
        detect_interval_cycle(Fraction(13, 10), 0)
    with pytest.raises(InputError):
        detect_interval_cycle(Fraction(13, 10), 2, window=0)
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
    tc = tower_certificate(Fraction(2), (2,), window=64)
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
@example(a=Fraction(11, 10), transient=1, window=12, n=4)
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

    orbit = critical_orbit(a, length)
    if orbit.status == "transient-only":
        assert list(orbit.points) == points
    else:
        assert list(orbit.points) == points[:len(orbit.points)]
    assert kneading_sequence(a, length) == "".join(
        "L" if x < half else ("C" if x == half else "R") for x in points[1:]
    )
    det = detect_interval_cycle(a, n, window)
    if det.status == "certified":
        # a certified family is forward invariant: whatever prefix certified
        # it, its hulls are those of the whole window
        assert_window_hulls(det, points[:window])


def assert_window_hulls(det, window_points):
    """det's hulls are min and max of its classes over the whole window."""
    for j, hull in enumerate(det.intervals):
        group = window_points[j::det.n]
        assert hull == (min(group), max(group))


# -- one walk per slope -------------------------------------------------------------


@st.composite
def slopes(draw):
    """Rational and quadratic-surd slopes in (1, 2]."""
    if draw(st.booleans()):
        return draw(st.fractions(min_value=1, max_value=2, max_denominator=64)
                    .filter(lambda a: a > 1))
    r = draw(st.sampled_from([2, 3, 5]))
    frac = surd(-isqrt(r), 1, r)  # sqrt(r) - floor(sqrt(r)), in (0, 1)
    u = draw(st.fractions(min_value=0, max_value=1, max_denominator=32).filter(bool))
    return 1 + u * frac if draw(st.booleans()) else 2 - u * frac


def plain_orbit(a, length):
    """1/2, T(1/2), ..., T^length(1/2) from a plain tent_eval loop."""
    points = [HALF]
    for _ in range(length):
        points.append(tent_eval(a, points[-1]))
    return points


def count_walk_steps(call):
    """Run call() and return how many steps the integer orbit walks took,
    over all walks: every point a walk yielded after its first, c_0."""
    steps = 0
    original = interval_dynamics._walk

    def counting(param):
        nonlocal steps
        walk = original(param)
        yield next(walk)
        for point in walk:
            steps += 1
            yield point

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interval_dynamics, "_walk", counting)
        call()
    return steps


tower_args = dict(
    a=slopes(),
    window=st.integers(min_value=1, max_value=40),
    primes=st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3),
    margin=st.sampled_from([Fraction(0), Fraction(1, 1000)]),
)


@settings(max_examples=60, deadline=None)
@given(**tower_args)
def test_tower_levels_match_fresh_detections(a, window, primes, margin):
    cert = tower_certificate(a, primes, window, margin)
    assert cert.levels == tuple(
        detect_interval_cycle(a, size, window, margin) for size in cert.sizes
    )


@settings(max_examples=40, deadline=None)
@given(**tower_args)
def test_tower_certificate_walks_the_orbit_once(a, window, primes, margin):
    # one walk for any number of levels, from 1/2 to the last point of the
    # longest prefix a level reads (the one that decides it), and never
    # past the window
    for depth in range(1, len(primes) + 1):
        sizes = tower_certificate(a, primes[:depth], window, margin).sizes
        read = max(reference_detection(a, size, window, margin)[1] for size in sizes)
        steps = max(read - 1, 0)
        assert count_walk_steps(
            lambda: tower_certificate(a, primes[:depth], window, margin)
        ) == steps
    # a TentParam keeps no orbit: each call walks again, a reused one too
    param = TentParam(a)
    for slope in (a, param, param, TentParam(a)):
        assert count_walk_steps(
            lambda: tower_certificate(slope, primes, window, margin)
        ) == steps
    assert steps <= max(window - 1, 0)


@settings(max_examples=150, deadline=None)
@example(a=PHI, n=3, window=64, margin=Fraction(0))  # superstable of period 3
@example(a=PHI, n=3, window=64, margin=Fraction(1, 1000))
@given(
    a=slopes(),
    n=st.builds(lambda j, q: 2 ** j * q, st.integers(0, 2), st.sampled_from([3, 5, 7, 9])),
    window=st.integers(min_value=1, max_value=200),
    margin=st.sampled_from([Fraction(0), Fraction(1, 1000)]),
)
def test_only_period_doubling_certifies_a_hull_of_positive_length(a, n, window, margin):
    """For 1 < a <= 2 and n = 2^j * q with q odd and q >= 3, a certified
    level has I_0 = [1/2, 1/2]: the critical orbit is periodic of period n.

    Take disjoint hulls J_0, ..., J_(n-1) with T(J_i) inside J_(i+1) and
    1/2 in J_0, and suppose J_0 has positive length. Only J_0 holds 1/2,
    so T^n on J_0 has slopes +-a^n and at most one turn; it maps J_0 into
    itself, so a^n <= 2, that is log a <= log 2 / n. T^n has a fixed point
    in J_0, whose T-orbit visits the disjoint J_i in turn, so T has a point
    of exact period n. The entropy of T_a is log a (Misiurewicz and
    Szlenk 1980), and a point of period 2^j * q forces entropy at least
    log(lambda_q) / 2^j with lambda_q > sqrt(2) (Stefan 1977; Block,
    Guckenheimer, Misiurewicz and Young 1980). That exceeds
    log 2 / (2 * 2^j) >= log 2 / n, a contradiction.

    At the golden mean the orbit 1/2 -> a/2 -> a - a^2/2 -> a^2 - a^3/2 = 1/2
    has period 3, and n = 3 certifies three point hulls. A margin widens J_0 to
    positive length, so then no such level certifies at all.
    """
    det = detect_interval_cycle(a, n, window, margin)
    if det.status == "certified":
        assert det.intervals[0] == (HALF, HALF)
        assert margin == 0


def test_threads_sharing_one_param_read_one_orbit():
    # a TentParam carries no orbit state; readers racing on one fresh
    # TentParam, each with its own window, must each get what a TentParam
    # of their own gives, so any cache added to it must be race-free
    a = parse_exact("(12-2*sqrt(5))/7")
    windows = [64, 6, 12, 70, 24, 3]
    expected = {window: tower_certificate(a, (2, 2, 2), window) for window in windows}
    orbit = critical_orbit(a, 80)
    mismatches = []

    def read(param, window, start):
        start.wait(timeout=10)
        for _ in range(3):
            if tower_certificate(param, (2, 2, 2), window) != expected[window]:
                mismatches.append(window)
            if critical_orbit(param, window) != critical_orbit(a, window):
                mismatches.append(("orbit", window))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            param, start = TentParam(a), threading.Barrier(len(windows))
            threads = [threading.Thread(target=read, args=(param, window, start))
                       for window in windows]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert critical_orbit(param, 80) == orbit
    finally:
        sys.setswitchinterval(interval)
    assert mismatches == []


CONSUMERS = ("critical_orbit", "kneading_sequence", "detect_interval_cycle", "zip")


@settings(max_examples=60, deadline=None)
@example(a=SQRT2, transient=3, window=8, n=2, order=CONSUMERS)  # reaches 2 - sqrt(2)
@example(a=Fraction(2), transient=2, window=6, n=1, order=CONSUMERS[::-1])  # reaches 0
@given(
    a=slopes(),
    transient=st.integers(min_value=0, max_value=8),
    window=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=1, max_value=4),
    order=st.permutations(CONSUMERS),
)
def test_consumers_of_one_param_read_one_orbit_in_any_order(a, transient, window, n, order):
    length = transient + window
    points = plain_orbit(a, length)
    param = TentParam(a)

    def check_critical_orbit():
        orbit = critical_orbit(param, length)
        assert list(orbit.points) == points[:len(orbit.points)]
        if orbit.status == "transient-only":
            assert len(orbit.points) == length + 1

    def check_kneading_sequence():
        assert kneading_sequence(param, length) == "".join(
            "L" if x < HALF else ("C" if x == HALF else "R") for x in points[1:]
        )

    def check_detect_interval_cycle():
        det = detect_interval_cycle(param, n, window)
        assert det == detect_interval_cycle(a, n, window)
        if det.status == "certified":
            assert_window_hulls(det, points[:window])

    def check_zip():
        # two walks of one param, read in lockstep one point apart, against
        # plain exact arithmetic, which shares no kernel with the walk
        r, want = exactnum._radicand(param.a), exact_orbit(param.a, length + 1)
        lead, lag = interval_dynamics._walk(param), interval_dynamics._walk(param)
        next(lead)
        assert [(exactnum._reduced(*x, r), exactnum._reduced(*y, r))
                for x, y in islice(zip(lag, lead), length)] == list(zip(want, want[1:]))

    checks = {
        "critical_orbit": check_critical_orbit,
        "kneading_sequence": check_kneading_sequence,
        "detect_interval_cycle": check_detect_interval_cycle,
        "zip": check_zip,
    }
    for name in order:
        checks[name]()


@settings(max_examples=80, deadline=None)
@example(a=SQRT2, window=8, n=2, margin=Fraction(0))  # hulls touch at 2 - sqrt(2)
@example(a=SQRT2, window=1, n=1, margin=Fraction(1, 1000))
@example(a=Fraction(1), window=5, n=3, margin=Fraction(1, 1000))
@example(a=Fraction(1), window=1, n=2, margin=Fraction(0))
@given(
    a=st.one_of(slopes(), st.sampled_from([Fraction(0), Fraction(1), Fraction(2), SQRT2])),
    window=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=1, max_value=4),
    margin=st.sampled_from([Fraction(0), Fraction(1, 1000)]),
)
def test_degenerate_exactly_when_one_distinct_sample(a, window, n, margin):
    det = detect_interval_cycle(a, n, window, margin)
    if window < n:
        assert det.status == "inconclusive"
    else:  # the first prefix read is 2n + 1 points, or the window
        first = plain_orbit(a, min(2 * n + 1, window) - 1)
        assert (det.status == "degenerate") == (len(set(first)) == 1)


@settings(max_examples=60, deadline=None)
@example(a=PHI, m=12)  # a periodic surd orbit through 1/2
@given(
    a=st.one_of(slopes(), st.sampled_from([Fraction(0), Fraction(2), SQRT2, PHI])),
    m=st.integers(min_value=1, max_value=48),
)
def test_detector_comparison_orders_the_samples_exactly(a, m):
    # the detector compares orbit points as the integer triples the walk
    # yields; the comparison must order the exact points
    samples = plain_orbit(a, m - 1)
    param = TentParam(a)
    r = exactnum._radicand(param.a)
    triples = list(islice(interval_dynamics._walk(param), m))
    assert [interval_dynamics._reduced(*t, r) for t in triples] == samples
    for t, x in zip(triples, samples):
        signs = [interval_dynamics._compare(t, u, r) for u in triples]
        assert signs == [(x > y) - (x < y) for y in samples]
    if r:
        return
    # a rational slope orders classes by the integers P*(D_max // D), D_max
    # the last point's denominator: they must order the triples as _compare
    # does, ties included, and sort them in the same stable order
    top = triples[-1][2]
    keys = [P * (top // D) for P, _, D in triples]
    for t, key in zip(triples, keys):
        assert [(key > k) - (key < k) for k in keys] == [
            interval_dynamics._compare(t, u, 0) for u in triples]
    by_value = cmp_to_key(lambda x, y: interval_dynamics._compare(x, y, 0))
    assert sorted(range(m), key=keys.__getitem__) == sorted(
        range(m), key=lambda k: by_value(triples[k]))


@settings(max_examples=60, deadline=None)
@example(a=PHI, m=12)
@given(
    a=st.one_of(slopes(), st.sampled_from([Fraction(0), Fraction(2), SQRT2, PHI])),
    m=st.integers(min_value=1, max_value=48),
)
def test_one_loop_walk_matches_the_plain_orbit(a, m):
    # rational and surd slopes step through one loop: its points are the
    # plain orbit's and its sides their signs against 1/2; a surd walk's
    # triples are in lowest terms, a rational walk's are (P, 0, 2*s^k)
    samples = plain_orbit(a, m - 1)
    param = TentParam(a)
    r = exactnum._radicand(a)
    triples = list(islice(interval_dynamics._walk(param), m))
    assert [exactnum._reduced(*t, r) for t in triples] == samples
    assert list(islice(interval_dynamics._walk(param, sides=True), m)) == [
        (x > HALF) - (x < HALF) for x in samples]
    for k, (P, Q, D) in enumerate(triples):
        if r:
            assert exactnum._lowest(P, Q, D) == (P, Q, D)
        else:
            assert (Q, D) == (0, 2 * a.denominator ** k)


# -- the kernel step ------------------------------------------------------------------


def plain_tent(a, x):
    """T_a(x) by plain exact arithmetic, with tent_eval's range check."""
    if x < 0 or x > 1:
        raise InputError(f"point {format_exact(x)} outside [0, 1]")
    return a * x if x < HALF else a * (1 - x)


def exact_orbit(a, m):
    """The first m points 1/2, T(1/2), ... by plain exact arithmetic."""
    points = [HALF]
    while len(points) < m:
        points.append(plain_tent(a, points[-1]))
    return points[:m]


@st.composite
def exact_points(draw):
    """Rationals and surds over radicands 2, 3 and 5 near [0, 1]."""
    u = draw(st.fractions(min_value=Fraction(-1, 4), max_value=Fraction(5, 4),
                          max_denominator=40))
    r = draw(st.sampled_from([0, 2, 3, 5]))
    if not r:
        return u
    v = draw(st.fractions(min_value=-1, max_value=1, max_denominator=40).filter(bool))
    return surd(u, v, r)


@settings(max_examples=250, deadline=None)
@example(a=Fraction(0), x=SQRT2 - 1)  # the step's determinant is 0
@example(a=Fraction(0), x=Fraction(1, 3))
@example(a=SQRT2, x=Fraction(0))
@example(a=SQRT2, x=HALF)
@example(a=PHI, x=Fraction(1))
@example(a=Fraction(3, 2), x=2 - SQRT2)
@example(a=PHI, x=SQRT2 - 1)  # mixed radicands
@example(a=PHI, x=SQRT2 + 1)  # mixed radicands, and outside [0, 1]
@example(a=Fraction(2), x=-SQRT2 / 100)
@given(
    a=st.one_of(slopes(), st.fractions(min_value=0, max_value=2, max_denominator=64),
                st.sampled_from([Fraction(0), Fraction(2), SQRT2, PHI])),
    x=st.one_of(exact_points(), st.sampled_from(
        [Fraction(0), HALF, Fraction(1), SQRT2 - 1, 2 - SQRT2, SQRT2 / 2, PHI - 1])),
)
def test_tent_eval_matches_plain_arithmetic(a, x):
    # tent_eval is one kernel step on x's triple: it must give a*x or
    # a*(1 - x), and reject what plain arithmetic rejects, with its message
    try:
        want = plain_tent(a, x)
    except (InputError, ExactnessError) as exc:
        with pytest.raises(type(exc)) as got:
            tent_eval(a, x)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    got = tent_eval(a, x)
    assert got == want and type(got) is type(want)


REDUCING = [parse_exact(t) for t in ("(5+sqrt(3))/4", "(1+sqrt(3))/2", "(1+sqrt(5))/2")]


@settings(max_examples=15, deadline=None)
@example(a=REDUCING[0], m=300)
@given(
    a=st.one_of(st.sampled_from(REDUCING), slopes().filter(lambda a: isinstance(a, Surd))),
    m=st.integers(min_value=300, max_value=340),
)
def test_surd_walk_reduces_each_step_by_its_determinant(a, m):
    # each surd step divides by a gcd against the step's determinant, not
    # of the whole triple: its triples must still be in lowest terms, and
    # on the REDUCING slopes steps with a common factor g > 1 occur
    param, r = TentParam(a), a.r
    p, q, s = exactnum._triple(a)
    triples = list(islice(interval_dynamics._walk(param), m))
    assert [exactnum._reduced(*t, r) for t in triples] == exact_orbit(a, m)
    common = []
    for P, Q, D in triples:
        assert exactnum._lowest(P, Q, D) == (P, Q, D)
        if exactnum._sign(2 * P - D, 2 * Q, r) >= 0:
            P, Q = D - P, -Q
        common.append(gcd(*exactnum._product(p, q, s, P, Q, D, r)))
    if a in REDUCING:
        assert max(common) > 1


# -- differential check against the exact-number detector ------------------------------


def reference_detection(a, n, window, margin):
    """The detector's statement on exact numbers, and how many orbit points
    it read: hulls of c_0, ..., c_(m-1) by class for m = 2n+1, 3n+1, ...,
    window, from a plain tent_eval loop, and images from a*x and a*(1 - x)."""
    a = TentParam(a).a
    same = dict(n=n, window=window, margin=margin)
    if window < n:
        return CycleDetection(status="inconclusive", **same), 0
    escape = None
    for m in [*range(2 * n + 1, window, n), window]:
        groups = [plain_orbit(a, m - 1)[j::n] for j in range(n)]
        if len(set().union(*groups)) == 1:
            return CycleDetection(status="degenerate", **same), m
        bounds = [(min(g), max(g)) for g in groups]
        pairs = list(pairwise(sorted(range(n), key=lambda j: bounds[j][0])))
        for prev, nxt in pairs:
            if not bounds[prev][1] < bounds[nxt][0]:
                return CycleDetection(status="absent", overlap=(prev, nxt), **same), m
        hulls = [(max(lo - margin, Fraction(0)), min(hi + margin, Fraction(1)))
                 for lo, hi in bounds]
        escape = None
        if any(not hulls[prev][1] < hulls[nxt][0] for prev, nxt in pairs):
            continue
        for j, (lo, hi) in enumerate(hulls):
            if hi <= HALF:
                img = (a * lo, a * hi)
            elif lo >= HALF:
                img = (a * (1 - hi), a * (1 - lo))
            else:
                img = (min(a * lo, a * (1 - hi)), a * HALF)
            target = hulls[(j + 1) % n]
            if img[0] < target[0] or img[1] > target[1]:
                escape = (j, img, target)
                break
        else:
            return CycleDetection(status="certified", intervals=tuple(hulls), **same), m
    return CycleDetection(status="inconclusive", escape=escape, **same), window


@st.composite
def surd_margins(draw):
    """Margins u*(sqrt(r) - floor(sqrt(r))) + w in Q(sqrt(r)), r = 2, 3, 5,
    from far inside the orbit's gaps to wide enough to reach past 0 and 1."""
    r = draw(st.sampled_from([2, 3, 5]))
    u = draw(st.fractions(min_value=0, max_value=1, max_denominator=16).filter(bool))
    scale = draw(st.sampled_from([Fraction(1, 10**4), Fraction(1, 50), Fraction(1)]))
    w = draw(st.sampled_from([Fraction(0), Fraction(1, 1000), Fraction(1, 4)]))
    return scale * u * surd(-isqrt(r), 1, r) + w


# the first five examples are cases the orbit rule of the margin-0
# containment test singles out (module docstring), and
# test_orbit_rule_examples_are_what_they_claim checks the comments of the
# second to fifth; the last three widen ends past 0 or 1, with a margin in
# the slope's own field or a surd margin on a rational slope
@settings(max_examples=300, deadline=None)
@example(a=PHI, n=3, window=9, margin=Fraction(0))  # 1/2 recurs in every class 0
@example(a=PHI, n=2, window=5, margin=Fraction(0))  # c_3 = 1/2 lies in class 1
@example(a=Fraction(3, 2), n=2, window=3, margin=Fraction(0))  # T(c_2) escapes I_1
@example(a=parse_exact("(19-3*sqrt(2))/8"), n=4, window=9, margin=Fraction(0))  # T(c_8) escapes
@example(a=Fraction(3, 2), n=3, window=7, margin=Fraction(0))  # I_2 straddles 1/2, c_1 not in I_0
@example(a=SQRT2, n=1, window=1, margin=Fraction(0))  # one rational point
@example(a=Fraction(11, 10), n=4, window=12, margin=Fraction(1, 7))
@example(a=Fraction(13, 10), n=2, window=64, margin=Fraction(1, 1000))  # widened escapes
@example(a=Fraction(1, 2), n=1, window=6, margin=SQRT2 / 10)  # clamped at 0, certified
@example(a=PHI, n=1, window=4, margin=2 * PHI - 3)  # clamped at 1, escapes
@example(a=SQRT2, n=1, window=8, margin=SQRT2 / 2)  # clamped at 0 and at 1
@given(
    a=st.one_of(slopes(), st.sampled_from([Fraction(0), Fraction(1), Fraction(2), SQRT2, PHI])),
    n=st.integers(min_value=1, max_value=9),
    window=st.integers(min_value=1, max_value=64),
    margin=st.one_of(st.sampled_from([Fraction(0), Fraction(1, 1000), Fraction(1, 7)]),
                     surd_margins()),
)
def test_detection_matches_the_exact_number_reference(a, n, window, margin):
    # a surd margin lies in the slope's own field, or widens a rational slope
    assume(not isinstance(a, Surd) or not isinstance(margin, Surd) or a.r == margin.r)
    assert detect_interval_cycle(a, n, window, margin) == reference_detection(
        a, n, window, margin
    )[0]


def test_orbit_rule_examples_are_what_they_claim():
    def hulls(a, n, window):
        points = plain_orbit(a, window - 1)
        return points, [(min(points[j::n]), max(points[j::n])) for j in range(n)]

    # the last point read, c_(m-1), is an end of its hull, and its image is
    # the one that leaks out of the next hull
    for a, n, window in ((Fraction(3, 2), 2, 3), (parse_exact("(19-3*sqrt(2))/8"), 4, 9)):
        points, bounds = hulls(a, n, window)
        j = (window - 1) % n
        det = detect_interval_cycle(a, n, window)
        assert det.status == "inconclusive" and det.escape[0] == j
        assert points[-1] in bounds[j]
        lo, hi = bounds[(j + 1) % n]
        assert not lo <= tent_eval(a, points[-1]) <= hi
    # a hull of class j != 0 straddles 1/2 while c_1 lies outside I_(j+1):
    # it meets I_0, which holds c_0 = 1/2, so the verdict is absent
    a, n, window = Fraction(3, 2), 3, 7
    points, bounds = hulls(a, n, window)
    (lo, hi), (next_lo, next_hi) = bounds[2], bounds[0]
    assert lo < HALF < hi and not next_lo <= points[1] <= next_hi
    assert detect_interval_cycle(a, n, window).status == "absent"
    # a periodic critical orbit returns to 1/2 in a class other than 0
    a, n, window = PHI, 2, 5
    points, _ = hulls(a, n, window)
    assert points[3] == HALF and 3 % n != 0
    assert detect_interval_cycle(a, n, window).status == "absent"


def test_tower_certificate_evaluates_the_map_at_most_once_per_level(monkeypatch):
    # at margin 0 the orbit is its own image: T is evaluated only at an end
    # c_(m-1), the one point whose image the prefix does not hold
    calls = 0
    original = interval_dynamics.tent_eval

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(interval_dynamics, "tent_eval", counting)
    cert = tower_certificate(Fraction(109, 100), (2, 2, 2))
    assert [level.status for level in cert.levels] == ["certified"] * 3
    assert calls <= len(cert.levels)


# -- the closed-form threshold ----------------------------------------------------------
# T_a has n = 2^k disjoint intervals cyclically permuted by the map exactly
# when a^(2^k) <= 2 (Milnor-Thurston; de Melo-van Strien, ch. III). The
# oracle decides a^e against 2 in integers and shares no code with the
# package.


def sign(v):
    return (v > 0) - (v < 0)


def surd_sign(x, y, r):
    """Sign of x + y*sqrt(r) for integers x, y and a non-square r."""
    if not y or sign(x) == sign(y):
        return sign(x) or sign(y)
    return sign(x) if x * x > y * y * r else sign(y)


def power_minus_two_sign(a, e):
    """Sign of a^e - 2 for a Fraction or a Surd a and e a power of 2,
    squaring p + q*sqrt(r) over a common denominator s."""
    if isinstance(a, Fraction):
        return sign(a.numerator ** e - 2 * a.denominator ** e)
    s = a.a.denominator * a.b.denominator
    x, y, k = int(a.a * s), int(a.b * s), 1
    while k < e:
        x, y, k = x * x + y * y * a.r, 2 * x * y, 2 * k
    return surd_sign(x - 2 * s ** e, y, a.r)


def test_threshold_oracle():
    assert power_minus_two_sign(SQRT2, 2) == 0
    assert power_minus_two_sign(SQRT2, 4) == 1
    assert power_minus_two_sign(Fraction(1101, 1000), 2) == -1
    assert power_minus_two_sign(Fraction(1101, 1000), 8) == 1  # 1.101^8 = 2.16
    assert power_minus_two_sign(Fraction(13, 10), 2) == -1
    assert power_minus_two_sign(Fraction(13, 10), 4) == 1
    assert power_minus_two_sign(parse_exact("(12-2*sqrt(5))/7"), 8) == -1
    assert power_minus_two_sign(parse_exact("(3-sqrt(2))/1"), 2) == 1  # 2.52


@st.composite
def near_thresholds(draw):
    """A slope in (1, 2] near 2^(1/2^k) for k = 1...4, on either side,
    rational or a surd in sqrt(2), sqrt(3) or sqrt(5). Floats only place
    it; the oracle decides which side it is on."""
    n = 2 ** draw(st.integers(min_value=1, max_value=4))
    distance = draw(st.integers(min_value=1, max_value=10**4)) / 10**6
    target = 2 ** (1 / n) * (1 + draw(st.sampled_from([-1, 1])) * distance)
    if draw(st.booleans()):
        s = draw(st.integers(min_value=10, max_value=10**9))
        a = Fraction(round(s * target), s)
    else:
        r = draw(st.sampled_from([2, 3, 5]))
        q = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        s = draw(st.integers(min_value=2, max_value=10**6))
        a = surd(Fraction(round(s * target - q * r ** 0.5), s), Fraction(q, s), r)
    assume(1 < a <= 2)
    return a


@settings(max_examples=200, deadline=None)
@example(a=SQRT2)  # a^2 = 2: the hulls touch
@example(a=Fraction(1101, 1000))
@given(a=near_thresholds())
def test_certified_exactly_below_the_threshold(a):
    cert = tower_certificate(a, (2, 2, 2, 2))
    for size, level in zip(cert.sizes, cert.levels):
        below = power_minus_two_sign(a, size) < 0
        assert (level.status == "certified") == below, (size, level.status)
        # within the default window every level decides
        assert level.status == ("certified" if below else "absent"), (size, level.status)


def test_tower_memo_holds_at_most_the_window():
    # levels read the prefixes they need and share one walk, which never
    # steps past the window's last point, c_(window-1)
    for a, window, statuses, bound in (
        (Fraction(13, 10), 64, ["certified", "absent", "absent"], 64 - 1),
        (Fraction(1101, 1000), 4096, ["certified", "certified", "absent"], 2 * 8),
    ):
        cert = tower_certificate(a, (2, 2, 2), window=window)
        assert [level.status for level in cert.levels] == statuses
        assert count_walk_steps(lambda: tower_certificate(a, (2, 2, 2), window=window)) <= bound
