from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from addingmachine.errors import ExactnessError, InputError
from addingmachine.exactnum import (
    Surd,
    exact_sign,
    exact_sqrt,
    format_exact,
    parse_exact,
    squarefree_decompose,
    surd,
)

R2 = exact_sqrt(2)
R3 = exact_sqrt(3)


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(2) == (1, 2)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(360) == (6, 10)
    with pytest.raises(InputError):
        squarefree_decompose(0)


def test_exact_sqrt_collapses_squares():
    assert exact_sqrt(4) == Fraction(2)
    assert exact_sqrt(Fraction(9, 16)) == Fraction(3, 4)
    assert exact_sqrt(0) == Fraction(0)
    r = exact_sqrt(12)
    assert isinstance(r, Surd)
    assert (r.a, r.b, r.r) == (Fraction(0), Fraction(2), 3)
    # sqrt(1/2) = sqrt(2)/2
    h = exact_sqrt(Fraction(1, 2))
    assert (h.a, h.b, h.r) == (Fraction(0), Fraction(1, 2), 2)
    with pytest.raises(InputError):
        exact_sqrt(-1)


def test_surd_factory_normalizes():
    assert surd(1, 0, 2) == Fraction(1)
    assert surd(1, 1, 4) == Fraction(3)  # 1 + sqrt(4)
    s = surd(0, 1, 8)  # sqrt(8) = 2 sqrt(2)
    assert (s.a, s.b, s.r) == (Fraction(0), Fraction(2), 2)
    with pytest.raises(InputError):
        Surd(Fraction(0), Fraction(0), 2)


def test_conjugate_product_is_rational():
    x = 1 + R2
    y = 1 - R2
    assert x * y == Fraction(-1)
    assert (R2 * R2) == Fraction(2)


def test_division_and_inverse():
    x = 2 - R2  # the tent fixed point for slope sqrt(2)
    assert x * (1 / x) == Fraction(1)
    assert (R2 / R2) == Fraction(1)
    assert (1 / R2) == R2 / 2
    with pytest.raises(ZeroDivisionError):
        R2 / 0


def test_exact_comparisons_near_sqrt2():
    assert Fraction(141, 100) < R2 < Fraction(142, 100)
    assert -R2 < Fraction(-141, 100)
    assert R2 > 0
    assert not (R2 < R2)
    assert R2 <= R2
    # opposite-sign coefficient cases exercise the norm comparison
    assert surd(2, -1, 2) > 0      # 2 - sqrt(2) > 0
    assert surd(1, -1, 2) < 0      # 1 - sqrt(2) < 0
    assert surd(-1, 1, 2) > 0
    assert surd(-2, 1, 2) < 0


def test_surd_is_never_rational():
    assert R2 != Fraction(141421356, 100000000)
    assert not (R2 == 1)
    assert (1 + R2) != (1 + R3)


def test_mixing_radicands_raises():
    with pytest.raises(ExactnessError):
        R2 + R3
    with pytest.raises(ExactnessError):
        R2 * R3
    with pytest.raises(ExactnessError):
        R2 < R3


def test_parse_and_format_roundtrip():
    cases = ["13/10", "-3", "(2-1*sqrt(2))/1", "(0+1*sqrt(2))/2", "(-1+2*sqrt(5))/3"]
    for text in cases:
        assert format_exact(parse_exact(text)) == text
    assert parse_exact("sqrt(2)") == R2
    assert parse_exact("3*sqrt(2)/4") == surd(0, Fraction(3, 4), 2)
    assert parse_exact("2-sqrt(2)") == 2 - R2
    assert parse_exact("1.05") == Fraction(21, 20)
    assert parse_exact(" 7 ") == Fraction(7)


def test_parse_rejects_garbage():
    for text in ["", "sqrt(-1)", "1+/2", "(1+1*sqrt(2))/0", "two", "sqrt(2)+"]:
        with pytest.raises(InputError):
            parse_exact(text)


def test_hash_consistency():
    assert hash(1 + R2) == hash(surd(1, 1, 2))
    values = {1 + R2, surd(1, 1, 2), R2, Fraction(1)}
    assert len(values) == 3


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


@given(a=rationals, b=rationals, c=rationals, d=rationals)
def test_field_axioms_in_q_sqrt2(a, b, c, d):
    x = surd(a, b, 2)
    y = surd(c, d, 2)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) - y == x
    assert x * (y + 1) == x * y + x
    if y != 0:
        assert (x / y) * y == x


@given(a=rationals, b=rationals)
def test_sign_matches_float(a, b):
    x = surd(a, b, 2)
    approx = float(a) + float(b) * 2 ** 0.5
    if isinstance(x, Surd) and abs(approx) > 1e-9:
        assert (x.sign() > 0) == (approx > 0)


def oracle_sign(a, b, r):
    """Sign of a + b*sqrt(r) in integers only.

    Multiplying by the positive a.denominator * b.denominator gives
    p + q*sqrt(r) with integers p, q; its sign follows from p's sign,
    q's sign and p^2 against q^2*r.
    """
    p = a.numerator * b.denominator
    q = b.numerator * a.denominator
    if q == 0:
        return (p > 0) - (p < 0)
    if q > 0:  # positive unless -p > q*sqrt(r)
        return 1 if p >= 0 or p * p < q * q * r else -1
    return -1 if p <= 0 or p * p < q * q * r else 1  # positive iff p > |q|*sqrt(r)


wide_rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=10 ** 4
)


def critical_coefficients(k):
    """(p, q) with T^k(1/2) = p + q*sqrt(5) for the tent map of slope
    (12 - 2*sqrt(5))/7, iterated on coefficient pairs with oracle_sign
    picking the branch. Iterates 40, 41, 64 and 65 have numerators of
    154 to 259 bits, and their denominators differ from one iterate to
    the next."""
    a, b = Fraction(12, 7), Fraction(-2, 7)
    p, q = Fraction(1, 2), Fraction(0)
    for _ in range(k):
        if oracle_sign(p - Fraction(1, 2), q, 5) >= 0:  # reflect: x -> 1 - x
            p, q = 1 - p, -q
        p, q = a * p + 5 * b * q, a * q + b * p
    return p, q


T40, T41, T64, T65 = (critical_coefficients(k) for k in (40, 41, 64, 65))


# Pell solutions: 577/408 and 1351/780 lie within 1e-5 of sqrt(2) and
# sqrt(3) (577^2 - 2*408^2 = 1351^2 - 3*780^2 = 1), and 3 - 2*sqrt(2) is
# the inverse of the Pell unit 3 + 2*sqrt(2)
@example(a=Fraction(0), b=Fraction(1), c=Fraction(577, 408), d=Fraction(1), r=2)
@example(a=Fraction(577, 408), b=Fraction(1), c=Fraction(0), d=Fraction(2), r=2)
@example(a=Fraction(3), b=Fraction(-2), c=Fraction(0), d=Fraction(1), r=2)
@example(a=Fraction(0), b=Fraction(1), c=Fraction(1351, 780), d=Fraction(1), r=3)
@example(a=Fraction(1351, 780), b=Fraction(-1), c=Fraction(0), d=Fraction(1), r=3)
# neighbouring points of one exact orbit, as detect_interval_cycle compares them
@example(a=T40[0], b=T40[1], c=T41[0], d=T41[1], r=5)
@example(a=T41[0], b=T41[1], c=T40[0], d=T40[1], r=5)
@example(a=T64[0], b=T64[1], c=T65[0], d=T65[1], r=5)
@example(a=T65[0], b=T65[1], c=T64[0], d=T64[1], r=5)
@given(a=wide_rationals, b=wide_rationals, c=wide_rationals, d=wide_rationals,
       r=st.sampled_from([2, 3, 5, 6, 7, 10]))
def test_sign_and_comparisons_match_integer_oracle(a, b, c, d, r):
    x = surd(a, b, r)
    if isinstance(x, Surd):
        assert x.sign() == oracle_sign(a, b, r)
    # x against the rational c, then against the surd c + d*sqrt(r)
    for other, (oc, od) in ((c, (c, 0)), (surd(c, d, r), (c, d))):
        s = oracle_sign(a - oc, b - od, r)
        assert (x < other) == (s < 0)
        assert (x > other) == (s > 0)
        assert (x == other) == (s == 0)
        assert exact_sign(x - other) == s
