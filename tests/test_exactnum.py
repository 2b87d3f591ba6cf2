import math
import operator
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from addingmachine import exactnum
from addingmachine._intmath import FACTOR_LIMIT, decimal_str, factorize
from addingmachine.errors import ExactnessError, InputError
from addingmachine.exactnum import (
    Surd,
    exact_rational,
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


def trial_division(n):
    factors, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


@settings(max_examples=300)
@example(n=0)
@example(n=1)
@example(n=41 * 41)
@example(n=43 * 43)  # the least square past the small primes
@example(n=2**20 * 3**7)
@given(n=st.one_of(st.integers(min_value=0, max_value=10**4),
                   st.integers(min_value=0, max_value=10**10)))
def test_factorize_matches_trial_division(n):
    assert factorize(n) == trial_division(n)
    assert list(factorize(n)) == sorted(factorize(n))


@pytest.mark.parametrize("factors", [
    {100000000003: 1, 100000000019: 1},  # two 12-digit primes: rho's slow kind
    {100000000003: 2},
    {399165290221: 1, 798330580441: 1},  # strong pseudoprime to bases 2 ... 37
    {151: 1, 751: 1, 28351: 1},  # strong pseudoprime to bases 2 ... 7
    {1000000000000000000000007: 1},  # prime
    {3: 40, 1000000000039: 1},
])
def test_factorize_big_inputs_below_the_limit(factors):
    assert factorize(math.prod(p**e for p, e in factors.items())) == factors


def test_factorize_refuses_a_part_at_the_limit():
    # FACTOR_LIMIT is the least strong pseudoprime to the first 13 primes
    p, q = 1287836182261, 2575672364521
    assert p * q == FACTOR_LIMIT and factorize(p) == {p: 1} and factorize(q) == {q: 1}
    assert factorize(2**100) == {2: 100}  # small primes divide out at any size
    with pytest.raises(InputError, match="below 3317044064679887385961981"):
        factorize(FACTOR_LIMIT)
    with pytest.raises(InputError, match="radicand must be below"):
        squarefree_decompose(FACTOR_LIMIT)
    with pytest.raises(InputError, match="radicand must be below"):
        exact_sqrt(FACTOR_LIMIT + 2)


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


NOT_EXACT = [0.5, 1.0, None, "x", "1/0", True, Decimal("0.5"), R2, [1]]


def test_exact_rational_takes_ints_fractions_and_rational_strings():
    assert exact_rational(3) == 3 and type(exact_rational(3)) is Fraction
    assert exact_rational(Fraction(-1, 2)) == Fraction(-1, 2)
    assert exact_rational(" -1/2 ") == Fraction(-1, 2)
    assert exact_rational("0.25") == Fraction(1, 4)
    for value in NOT_EXACT:
        with pytest.raises(InputError):
            exact_rational(value)


@pytest.mark.parametrize("value", NOT_EXACT, ids=repr)
def test_surd_builders_and_exact_sqrt_take_exact_rationals_only(value):
    # no float passes, not even a binary-exact one: a bare Fraction(0.1)
    # would store 3602879701896397/36028797018963968
    with pytest.raises(InputError):
        surd(value, 1, 2)
    with pytest.raises(InputError):
        surd(0, value, 2)
    with pytest.raises(InputError):
        exact_sqrt(value)
    with pytest.raises(InputError):
        Surd(value, 1, 2)
    with pytest.raises(InputError):
        Surd(1, value, 2)


def test_surd_factory_and_exact_sqrt_read_rational_strings():
    assert surd("1/2", "1/2", 5) == parse_exact("(1+sqrt(5))/2")
    assert exact_sqrt("9/16") == Fraction(3, 4)
    assert exact_sqrt("1/2") == exact_sqrt(Fraction(1, 2))


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


# Decimal converts ints of any size exactly, with no digit limit, so it
# is the reference for printing past str's 4300-digit default


@settings(max_examples=60)
@given(n=st.integers(min_value=-(10**9000), max_value=10**9000))
@example(n=10**4300 - 1)  # 4300 digits, the most str prints by default
@example(n=10**4300)
@example(n=-(10**4300))
@example(n=10**8601)  # a split leaves long runs of zeros
@example(n=0)
def test_decimal_str_prints_ints_of_any_size(n):
    assert decimal_str(n) == str(Decimal(n))


def test_format_exact_past_the_int_digit_limit():
    big = 10**4400 + 3
    assert format_exact(Fraction(big, 7)) == f"{Decimal(big)}/7"
    assert format_exact(Fraction(big)) == str(Decimal(big))
    x = surd(Fraction(1, big), Fraction(big - 1, big), 2)
    assert format_exact(x) == f"(1+{Decimal(big - 1)}*sqrt(2))/{Decimal(big)}"


def test_parse_rejects_garbage():
    for text in ["", "sqrt(-1)", "1+/2", "(1+1*sqrt(2))/0", "two", "sqrt(2)+", "+sqrt(2)"]:
        with pytest.raises(InputError):
            parse_exact(text)


@pytest.mark.parametrize("text", ["1+2+sqrt(2)", "1-2+sqrt(2)", "1+sqrt(2)+1",
                                  "1+(1+1*sqrt(2))/2", "1+sqrt(2)-sqrt(2)"])
def test_parse_rejects_chained_sums(text):
    # only a rational plus or minus one sqrt term is a sum; reading a longer
    # chain as one would drop its extra terms
    with pytest.raises(InputError, match="malformed exact number"):
        parse_exact(text)


def test_parse_single_sums_unchanged():
    assert parse_exact("1-sqrt(2)") == 1 - R2
    assert parse_exact("-1-sqrt(2)") == -1 - R2
    assert parse_exact("1+2*sqrt(2)/3") == 1 + Fraction(2, 3) * R2
    assert format_exact(parse_exact("1+2*sqrt(2)/3")) == "(3+2*sqrt(2))/3"


def test_parse_canonical_form_without_coefficient():
    # the golden mean as usually written; the coefficient 1 is optional
    golden = surd(Fraction(1, 2), Fraction(1, 2), 5)
    assert parse_exact("(1+sqrt(5))/2") == parse_exact("(1+1*sqrt(5))/2") == golden
    assert parse_exact("(1-sqrt(5))/2") == surd(Fraction(1, 2), Fraction(-1, 2), 5)
    assert parse_exact("( -3 + sqrt(8) )/ 4") == surd(Fraction(-3, 4), Fraction(1, 2), 2)
    assert format_exact(parse_exact("(1+sqrt(5))/2")) == "(1+1*sqrt(5))/2"
    for text in ("(1+*sqrt(5))/2", "(1+sqrt(5))/0", "(sqrt(5))/2"):
        with pytest.raises(InputError):
            parse_exact(text)


def test_parse_leading_minus_before_sqrt_term():
    assert parse_exact("-sqrt(2)") == -surd(0, 1, 2)
    assert parse_exact("-3*sqrt(2)/4") == surd(0, Fraction(-3, 4), 2)
    assert parse_exact(" - sqrt(8)") == surd(0, -2, 2)


@pytest.mark.parametrize("text", ["sqrt(2)/0", "3*sqrt(2)/0", "1+sqrt(2)/0"])
def test_parse_zero_denominator_after_sqrt(text):
    with pytest.raises(InputError, match="zero denominator"):
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


def sign_of(z, r):
    """Surd.sign() of a Surd z, and the oracle's sign of a rational z."""
    return z.sign() if isinstance(z, Surd) else oracle_sign(Fraction(z), Fraction(0), r)


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
        assert sign_of(x - other, r) == s


# -- differential test against an oracle on rational coefficient pairs ---------
#
# The oracle keeps x = a + b*sqrt(r) as the Fraction pair (a, b) and applies
# the textbook formulas; division multiplies through by the conjugate.

PAIR_OPS = {
    operator.add: lambda a, b, c, d, r: (a + c, b + d),
    operator.sub: lambda a, b, c, d, r: (a - c, b - d),
    operator.mul: lambda a, b, c, d, r: (a * c + b * d * r, a * d + b * c),
    operator.truediv: lambda a, b, c, d, r: (
        (a * c - b * d * r) / (c * c - d * d * r),
        (b * c - a * d) / (c * c - d * d * r),
    ),
}
COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge)


def old_format(a, b, r):
    """format_exact as it was computed from the pair (a, b)."""
    s = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    p, q = a.numerator * (s // a.denominator), b.numerator * (s // b.denominator)
    return f"({p}{'+' if q >= 0 else '-'}{abs(q)}*sqrt({r}))/{s}"


def assert_is(x, a, b, r):
    """x is the oracle's a + b*sqrt(r): a Fraction when b = 0, else a Surd
    whose public surface matches the old formulas."""
    if b == 0:
        assert type(x) is Fraction and x == a
        return
    assert isinstance(x, Surd)
    assert (x.a, x.b, x.r) == (a, b, r)
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert repr(x) == f"Surd({a!r}, {b!r}, {r})"
    assert format_exact(x) == str(x) == old_format(a, b, r)
    expected = surd(a, b, r)
    assert x == expected and hash(x) == hash(expected)


coefficients = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=60
)
radicands = st.sampled_from([2, 3, 5, 7])


@st.composite
def operands(draw, r):
    """(value, (a, b)): a Surd, a Fraction or an int, with its oracle pair."""
    kind = draw(st.sampled_from(["surd", "fraction", "int"]))
    if kind == "int":
        n = draw(st.integers(-30, 30))
        return n, (Fraction(n), Fraction(0))
    a = draw(coefficients)
    if kind == "fraction":
        return a, (a, Fraction(0))
    b = draw(coefficients.filter(bool))
    return Surd(a, b, r), (a, b)


@given(data=st.data(), r=radicands, a=coefficients, b=coefficients.filter(bool))
def test_surd_matches_pair_oracle(data, r, a, b):
    x = Surd(a, b, r)
    assert_is(x, a, b, r)
    assert_is(-x, -a, -b, r)
    assert x.sign() == oracle_sign(a, b, r)
    assert_is(abs(x), *((a, b) if oracle_sign(a, b, r) > 0 else (-a, -b)), r)
    y, (c, d) = data.draw(operands(r))
    for op, formula in PAIR_OPS.items():
        # x op y, then y op x, which reaches the reflected method when y is rational
        for (u, v), (p, q, s, t) in (((x, y), (a, b, c, d)), ((y, x), (c, d, a, b))):
            if op is operator.truediv and s == t == 0:
                with pytest.raises(ZeroDivisionError):
                    op(u, v)
                continue
            assert_is(op(u, v), *formula(p, q, s, t, r), r)
    sign = oracle_sign(a - c, b - d, r)
    for op in COMPARISONS:
        assert op(x, y) == op(sign, 0)
        assert op(y, x) == op(0, sign)
    assert sign_of(x - y, r) == sign
    assert (x == y) == (sign == 0)
    # one value reached along different paths is one canonical triple,
    # and x/2 differs from x even where only the denominator tells them apart
    for z in ((x + y) - y, x * 7 / 7) + ((x * y / y,) if c or d else ()):
        assert z == x and hash(z) == hash(x)
    assert x / 2 != x


@given(r=radicands, a=coefficients, b=coefficients.filter(bool), c=coefficients)
def test_surd_collapses_when_the_irrational_part_cancels(r, a, b, c):
    x = Surd(a, b, r)
    for z, value in ((x - Surd(c, b, r), a - c), (x + Surd(c, -b, r), a + c),
                     (x * Surd(a, -b, r), a * a - b * b * r), (x / x, 1), (x * 0, 0)):
        assert type(z) is Fraction and z == value


@given(rs=st.lists(radicands, min_size=2, max_size=2, unique=True),
       a=coefficients, b=coefficients.filter(bool), c=coefficients,
       d=coefficients.filter(bool))
def test_every_binary_operation_rejects_mixed_radicands(rs, a, b, c, d):
    x, y = Surd(a, b, rs[0]), Surd(c, d, rs[1])
    for op in tuple(PAIR_OPS) + COMPARISONS:
        for u, v in ((x, y), (y, x)):
            with pytest.raises(ExactnessError):
                op(u, v)


@given(a=st.none() | coefficients, op=st.sampled_from(["", "+", "-"]),
       space=st.sampled_from(["", " "]), c=st.none() | coefficients, r=radicands,
       d=st.none() | st.integers(1, 60), y=radicands.flatmap(operands))
def test_one_grammar_matches_arithmetic(a, op, space, c, r, d, y):
    # a rational and its sign, or a bare sign, then one term c*sqrt(r)/d;
    # without a rational a plus may not lead
    assume(a is None or op)  # a rational with no sign would run into c
    text = (f"{'' if a is None else a}{space}{op}{space}"
            f"{'' if c is None else f'{c}*'}sqrt({r}){'' if d is None else f'/{d}'}")
    if op == "+" and a is None:
        with pytest.raises(InputError, match="malformed exact number"):
            parse_exact(text)
    else:
        term = surd(0, Fraction(1 if c is None else c) / (d or 1), r)
        value = (a or 0) + term if op != "-" else (a or 0) - term
        assert parse_exact(text) == value
    x, _ = y
    assert parse_exact(format_exact(x)) == x


@pytest.mark.parametrize("flag", [True, False])
def test_bool_operands_raise_type_error(flag):
    for op in tuple(PAIR_OPS) + COMPARISONS:
        for u, v in ((R2, flag), (flag, R2)):
            with pytest.raises(TypeError):
                op(u, v)
    assert (R2 == flag) is False and (flag == R2) is False


def test_surd_factorizes_the_radicand_once(monkeypatch):
    # surd decomposes r once and builds the result through the kernel;
    # Surd(a, b, m) would factorize m a second time
    calls = []

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(exactnum, "factorize", counting)
    x = parse_exact("(1+sqrt(100160063))/2")  # 10007 * 10009
    assert calls == [100160063]
    assert (x.a, x.b, x.r) == (Fraction(1, 2), Fraction(1, 2), 100160063)


# -- the triple kernel ---------------------------------------------------------


@given(data=st.data(), r=radicands)
def test_kernel_product_and_reducer_match_arithmetic(data, r):
    (x, _), (y, _) = data.draw(operands(r)), data.draw(operands(r))
    t, u = exactnum._triple(x), exactnum._triple(y)
    z = exactnum._reduced(*exactnum._product(*t, *u, r), r)
    assert z == x * y
    assert isinstance(z, Surd) == isinstance(x * y, Surd)


@given(P=st.integers(-10**6, 10**6), Q=st.integers(-10**6, 10**6),
       D=st.integers(-10**6, 10**6).filter(bool), k=st.integers(-50, 50).filter(bool),
       r=radicands)
def test_kernel_reducer_gives_lowest_terms(P, Q, D, k, r):
    g = math.gcd(P, Q, D) * (1 if D > 0 else -1)
    t = (P // g, Q // g, D // g)  # lowest terms, with a positive denominator
    x = exactnum._reduced(k * P, k * Q, k * D, r)
    assert exactnum._triple(x) == t
    assert exactnum._triple(exactnum._reduced(*t, r)) == t
    assert x == surd(Fraction(P, D), Fraction(Q, D), r)


def test_kernel_radicand_rule():
    assert exactnum._radicand() == exactnum._radicand(Fraction(1, 2), 3) == 0
    assert exactnum._radicand(Fraction(1, 2), R3, R3 + 1) == 3
    with pytest.raises(ExactnessError, match=r"^cannot combine sqrt\(3\) with sqrt\(2\) exactly$"):
        exactnum._radicand(1, R3, R2)
