"""Exact arithmetic in a real quadratic field Q(sqrt(r)).

Numbers are either plain Fractions or Surd objects (p + q*sqrt(r))/s
with integers p, q, s and r, kept reduced: s > 0, q != 0,
gcd(p, q, s) = 1, and r squarefree and >= 2. That form is canonical, so
equality and hashing compare fields.

Each operation is one integer formula over two triples (p, q, s): a
rational operand n/d enters as (n, 0, d), so no Surd operation has a
separate rational case. Nothing here ever rounds, and combining two
surds with different radicands raises ExactnessError instead of
silently falling back to floats. The triple form is private to this
module. A kernel of helpers, each rule written once, serves Surd and
the tent-map orbit walk of interval_dynamics alike:

- _triple(x) reads a Surd, Fraction or int as (P, Q, D);
- _product multiplies two triples, unreduced (Surd's * and /, and
  _tent_step);
- _lowest divides by gcd(P, Q, D), signed so that D > 0 (Surd(), and
  _reduced, which gives a Fraction when Q = 0);
- _radicand(*xs) is the radicand the surds among xs share, 0 for none,
  and raises the one mixed-radicand error;
- _compare puts two triples over a common positive denominator, with
  no gcd, and one integer rule (_sign) decides, comparing P^2 with
  Q^2*r when P and Q have opposite signs; for r = 0 one cross-multiplied
  difference decides;
- _tent_step is the tent map T(x) = a*x (x < 1/2), a*(1 - x) (x >= 1/2)
  on triples, the one step rule of interval_dynamics' orbit walk and of
  its tent_eval.

_tent_step takes the slope a = (p + q*sqrt(r))/s, a point x = (P, Q, D)
in lowest terms with D > 0, and x's side, the sign of x - 1/2; it
returns the triple of T(x) and its side. For r = 0 (a rational slope
and point) it is P <- p*P or p*(D - P), D <- s*D, and the side is that
of 2P - D: no kernel call and no gcd. That triple is not reduced;
interval_dynamics proves that on the critical orbit of a slope p/s in
lowest terms its P and D share at most a factor 2, and tent_eval
reduces through _reduced. For r != 0 the step is _product followed by
one exact reduction by the step's determinant, so the result is in
lowest terms. On integer vectors v = (P, Q, D) the step is the matrix

    M = [[p, q*r, 0], [q, p, 0], [0, 0, s]]           for x < 1/2,
    M = [[-p, -q*r, p], [-q, -p, q], [0, 0, s]]       for x >= 1/2,

the second being the first times v -> (D - P, -Q, D), of determinant 1.
Both have determinant s*(p^2 - q^2*r); let N be its absolute value. The
adjugate of M is an integer matrix with adj(M)*M = det(M)*I. So if g
divides every entry of M*v, it divides every entry of det(M)*v, hence
N*gcd(P, Q, D), which is N because v is in lowest terms. The gcd of
the new triple (P', Q', D') therefore divides N and equals
gcd(N, P' mod N, Q' mod N, D' mod N): three remainders, linear in the
length of the triple, and a gcd of numbers below N, where
gcd(P', Q', D') of the full-length integers costs time quadratic in
their length. N = 0 only for p = q = 0, since p^2 = q^2*r with q != 0
would make sqrt(r) rational: the slope 0, with a surd point in
tent_eval, sends every point to 0 = (0, 0, 1).

The canonical text form is (p+q*sqrt(r))/s, the reduced triple itself;
parse_exact reads it with q*sqrt(r) written as sqrt(r) too, as in
(1+sqrt(5))/2. It also reads plain integers, fractions p/q and decimal
literals, and one sqrt term c*sqrt(r)/d (c and d optional) after an
optional rational and its sign or a bare minus: sqrt(2), -sqrt(2),
3*sqrt(2)/4, 2-sqrt(2).

exact_rational is the one gate for a rational argument, here and in
finite_ifs: an int (not a bool), a Fraction or a rational string. A
float is an InputError, never a silently converted binary fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Union

from ._intmath import FACTOR_LIMIT, decimal_str, factorize
from .errors import ExactnessError, InputError

ExactNumber = Union[Fraction, "Surd"]


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n >= 1 as k*k*m with m squarefree; return (k, m).

    n must lie below FACTOR_LIMIT (about 3.3*10^24), where factorize is
    exact and takes at most about a second.
    """
    if n < 1:
        raise InputError(f"radicand must be positive, got {n}")
    if n >= FACTOR_LIMIT:
        raise InputError(f"radicand must be below {FACTOR_LIMIT}, got {decimal_str(n)}")
    k = m = 1
    for p, e in factorize(n).items():
        k *= p ** (e // 2)
        m *= p ** (e % 2)
    return k, m


def _triple(x) -> tuple[int, int, int]:
    """A Surd's own triple, or (n, 0, d) for a Fraction or int n/d."""
    if isinstance(x, Surd):
        return x._p, x._q, x._s
    return x.numerator, 0, x.denominator


def _radicand(*xs) -> int:
    """The radicand r that the Surds among xs share, 0 when none is a Surd.

    The module's one radicand rule: two different radicands raise
    ExactnessError, because no exact arithmetic combines them."""
    r = 0
    for x in xs:
        if isinstance(x, Surd) and x.r != r:
            if r:
                raise ExactnessError(f"cannot combine sqrt({r}) with sqrt({x.r}) exactly")
            r = x.r
    return r


def _product(p: int, q: int, s: int, p2: int, q2: int, s2: int, r: int) -> tuple[int, int, int]:
    """The triple of (p + q*sqrt(r))/s times (p2 + q2*sqrt(r))/s2, not reduced."""
    return p * p2 + q * q2 * r, p * q2 + q * p2, s * s2


def _lowest(p: int, q: int, s: int) -> tuple[int, int, int]:
    """The triple (p, q, s), s != 0, divided by gcd(p, q, s), whose sign
    makes s > 0."""
    g = gcd(p, q, s)
    if s < 0:
        g = -g
    return (p, q, s) if g == 1 else (p // g, q // g, s // g)


def _reduced(p: int, q: int, s: int, r: int) -> ExactNumber:
    """(p + q*sqrt(r))/s for integers with s != 0, in lowest terms
    (_lowest); a Fraction when q = 0. Every Surd that arithmetic returns
    is built here, bypassing __init__'s checks, which the operands
    already passed."""
    if not q:
        return Fraction(p, s)
    x = object.__new__(Surd)
    x._p, x._q, x._s = _lowest(p, q, s)
    x.r = r
    return x


def _quotient(p: int, q: int, s: int, p2: int, q2: int, s2: int, r: int) -> ExactNumber:
    """(p + q*sqrt(r))/s divided by (p2 + q2*sqrt(r))/s2: the product of
    s2*(p + q*sqrt(r))/s and (p2 - q2*sqrt(r))/(p2^2 - q2^2*r). That norm
    is nonzero unless p2 = q2 = 0, because sqrt(r) is irrational."""
    if not p2 and not q2:
        raise ZeroDivisionError("division by zero")
    return _reduced(*_product(s2 * p, s2 * q, s, p2, -q2, p2 * p2 - q2 * q2 * r, r), r)


class Surd:
    """An irrational element (p + q*sqrt(r))/s of Q(sqrt(r)).

    Invariants: p, q, s are integers with s > 0, q != 0 and
    gcd(p, q, s) = 1, and r is squarefree and >= 2; the triple is
    therefore unique, and == and hash compare it. Arithmetic reduces
    each result with a single gcd and collapses to a Fraction whenever
    the irrational part cancels; comparisons run no gcd. Build values
    with the surd() factory or plain arithmetic; Surd(a, b, r) takes the
    exact rational coefficients (exact_rational) of a + b*sqrt(r), and .a
    and .b give them back as Fractions.

    Every operation reads its operand as a triple through _parts and
    applies one formula to the two triples. The reflected - and / apply
    their formula with the triples swapped rather than negating or
    inverting the forward result: that would reduce twice.
    """

    __slots__ = ("_p", "_q", "_s", "r")

    def __init__(self, a: Fraction, b: Fraction, r: int):
        if b == 0:
            raise InputError("Surd requires a nonzero irrational part; use a Fraction")
        _, m = squarefree_decompose(r)
        if m != r or r < 2:
            raise InputError(f"radicand must be squarefree and >= 2, got {r}")
        a, b = exact_rational(a), exact_rational(b)
        self._p, self._q, self._s = _lowest(
            a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator)
        self.r = r

    @property
    def a(self) -> Fraction:
        """The rational part p/s."""
        return Fraction(self._p, self._s)

    @property
    def b(self) -> Fraction:
        """The coefficient q/s of sqrt(r)."""
        return Fraction(self._q, self._s)

    # -- helpers -------------------------------------------------------

    def _parts(self, other) -> tuple[int, int, int] | None:
        """other as a triple over this radicand (_triple): an int or
        Fraction, or a Surd, whose other radicand raises ExactnessError
        (_radicand); None for anything else, bool included."""
        if isinstance(other, Surd):
            if other.r != self.r:
                _radicand(self, other)  # raises
        elif isinstance(other, bool) or not isinstance(other, (int, Fraction)):
            return None
        return _triple(other)

    def sign(self) -> int:
        """Exact sign of (p + q*sqrt(r))/s, which is that of p + q*sqrt(r)."""
        return _sign(self._p, self._q, self.r)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        t = self._parts(other)
        if t is None:
            return NotImplemented
        p, q, s, r = self._p, self._q, self._s, self.r
        p2, q2, s2 = t
        return _reduced(p * s2 + p2 * s, q * s2 + q2 * s, s * s2, r)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self._p, -self._q, self._s, self.r)

    def __sub__(self, other):
        t = self._parts(other)
        if t is None:
            return NotImplemented
        p, q, s, r = self._p, self._q, self._s, self.r
        p2, q2, s2 = t
        return _reduced(p * s2 - p2 * s, q * s2 - q2 * s, s * s2, r)

    def __rsub__(self, other):
        t = self._parts(other)
        if t is None:
            return NotImplemented
        p, q, s, r = self._p, self._q, self._s, self.r
        p2, q2, s2 = t
        return _reduced(p2 * s - p * s2, q2 * s - q * s2, s * s2, r)

    def __mul__(self, other):
        t = self._parts(other)
        if t is None:
            return NotImplemented
        r = self.r
        return _reduced(*_product(self._p, self._q, self._s, *t, r), r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = self._parts(other)
        if t is None:
            return NotImplemented
        return _quotient(self._p, self._q, self._s, *t, self.r)

    def __rtruediv__(self, other):
        t = self._parts(other)
        if t is None:
            return NotImplemented
        return _quotient(*t, self._p, self._q, self._s, self.r)

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    # -- comparisons ---------------------------------------------------

    def _cmp(self, other) -> int:
        """Sign of self - other, by _compare on the two triples."""
        t = self._parts(other)
        if t is None:
            raise TypeError(f"cannot compare Surd with {type(other).__name__}")
        return _compare((self._p, self._q, self._s), t, self.r)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return False  # a Surd is irrational by construction
        if isinstance(other, Surd):
            return (self._p == other._p and self._q == other._q
                    and self._s == other._s and self.r == other.r)
        return NotImplemented

    def __hash__(self):
        return hash((self._p, self._q, self._s, self.r))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- conversions ---------------------------------------------------

    def __repr__(self):
        return f"Surd({self.a!r}, {self.b!r}, {self.r})"

    def __str__(self):
        return format_exact(self)


def surd(a, b, r: int) -> ExactNumber:
    """Build a + b*sqrt(r), collapsing to a Fraction when possible; a
    and b are exact rationals (exact_rational)."""
    a, b = exact_rational(a), exact_rational(b)
    if b == 0:
        return a
    k, m = squarefree_decompose(r)
    if m == 1:
        return a + b * k
    # built by the kernel: Surd(a, b*k, m) would decompose m again
    return a + _reduced(0, b.numerator * k, b.denominator, m)


def _sign(p: int, q: int, r: int) -> int:
    """Exact sign of p + q*sqrt(r) for integers p, q and squarefree r >= 2.

    The module's one sign rule: Surd.sign and every Surd comparison end
    here. The three arguments are plain integers that need not be
    reduced: Surd.sign passes its own p, q and r (its sign is that of
    p + q*sqrt(r) because s > 0), and a comparison passes the two
    numerators of the difference over the common positive denominator.

    If p and q do not have opposite signs, the nonzero one decides
    (q = 0 gives the sign of p). Otherwise |p| is compared with
    |q|*sqrt(r) through p^2 against q^2*r. The two are never equal:
    equality with q != 0 would make sqrt(r) rational, and a squarefree
    r >= 2 has no rational square root.
    """
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp * sq >= 0:
        return sp or sq
    return sp if p * p > q * q * r else sq


def _compare(x: tuple, y: tuple, r: int) -> int:
    """The sign of x - y for x = (P + Q*sqrt(r))/D and y = (P' + Q'*sqrt(r))/D'
    given as integer triples with D, D' > 0 (a rational n/d as (n, 0, d)):
    x - y = ((P*D' - P'*D) + (Q*D' - Q'*D)*sqrt(r))/(D*D'), so no gcd runs."""
    P, Q, D = x
    P2, Q2, D2 = y
    if not r:  # both rational: Q = Q' = 0
        d = P * D2 - P2 * D
        return (d > 0) - (d < 0)
    return _sign(P * D2 - P2 * D, Q * D2 - Q2 * D, r)


def _tent_step(p: int, q: int, s: int, r: int, P: int, Q: int, D: int,
               side: int) -> tuple[int, int, int, int]:
    """T_a at x = (P + Q*sqrt(r))/D for a = (p + q*sqrt(r))/s, given side,
    the sign of x - 1/2: the triple of T_a(x) and its side (the module
    docstring has the rule and the proof of the reduction). x is in
    lowest terms with D > 0, and so is the result when r != 0; r = 0
    means q = Q = 0."""
    if side >= 0:  # T(x) = a*(1 - x)
        P, Q = D - P, -Q
    if not r:
        P *= p
        D *= s
        d = 2 * P - D
        return P, 0, D, (d > 0) - (d < 0)
    n = s * abs(p * p - q * q * r)
    if not n:  # the slope 0
        return 0, 0, 1, -1
    P, Q, D = _product(p, q, s, P, Q, D, r)
    g = gcd(n, P % n, Q % n, D % n)
    if g > 1:
        P, Q, D = P // g, Q // g, D // g
    return P, Q, D, _sign(2 * P - D, 2 * Q, r)


def exact_sqrt(x) -> ExactNumber:
    """Exact square root of a nonnegative exact rational (exact_rational)."""
    q = exact_rational(x)
    if q < 0:
        raise InputError(f"cannot take a real square root of {q}")
    if q == 0:
        return Fraction(0)
    # sqrt(p/q) = sqrt(p*q)/q
    n = q.numerator * q.denominator
    k, m = squarefree_decompose(n)
    return surd(0, Fraction(k, q.denominator), m)


_RAT = r"-?\d+(?:/\d+|\.\d+)?"
_FULL_FORM = re.compile(
    r"^\(\s*(?P<p>-?\d+)\s*(?P<sign>[+-])\s*(?:(?P<q>\d+)\s*\*\s*)?sqrt\(\s*(?P<r>\d+)\s*\)\s*\)\s*/\s*(?P<s>-?\d+)$"
)
# an optional rational and its sign, or a bare minus, then one sqrt term
_SQRT_FORM = re.compile(
    r"^(?:(?P<a>" + _RAT + r")\s*(?P<sign>[+-])|(?P<neg>-))?\s*"
    r"(?:(?P<c>" + _RAT + r")\s*\*\s*)?sqrt\(\s*(?P<r>\d+)\s*\)(?:\s*/\s*(?P<d>\d+))?$"
)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational {text!r}") from exc


def exact_rational(value) -> Fraction:
    """value as a Fraction: an int (not a bool), a Fraction or a rational
    string such as "3", "-1/2" or "0.25". Anything else, a float
    included, is an InputError, so no value ever enters rounded."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_rational(value)
    raise InputError(f"expected an exact rational, got {value!r}")


def parse_exact(text: str) -> ExactNumber:
    """Parse the canonical (p+q*sqrt(r))/s form and friendly variants."""
    s = text.strip()
    if not s:
        raise InputError("empty number")
    if "sqrt" not in s and "(" not in s:  # neither surd form can match
        return _parse_rational(s)
    m = _FULL_FORM.match(s)
    if m:
        p = int(m.group("p"))
        q = int(m.group("q") or 1) * (1 if m.group("sign") == "+" else -1)
        den = int(m.group("s"))
        if den == 0:
            raise InputError(f"zero denominator in {text!r}")
        return surd(Fraction(p, den), Fraction(q, den), int(m.group("r")))
    m = _SQRT_FORM.match(s)
    if m:
        a = _parse_rational(m.group("a")) if m.group("a") else Fraction(0)
        c = _parse_rational(m.group("c")) if m.group("c") else Fraction(1)
        if m.group("d"):
            d = int(m.group("d"))
            if d == 0:
                raise InputError(f"zero denominator in {text!r}")
            c /= d
        if m.group("sign") == "-" or m.group("neg"):
            c = -c
        return surd(a, c, int(m.group("r")))
    raise InputError(f"malformed exact number {text!r}")


def format_exact(x: ExactNumber) -> str:
    """Canonical text: p/q for rationals, (p+q*sqrt(r))/s for surds.

    A Surd prints its reduced triple. That s is the lcm of the reduced
    denominators of a = p/s and b = q/s: those are s/gcd(p, s) and
    s/gcd(q, s), whose lcm is s/gcd(p, q, s) = s.
    """
    if isinstance(x, Surd):
        q = x._q
        sign = "+" if q >= 0 else "-"
        return f"({decimal_str(x._p)}{sign}{decimal_str(abs(q))}*sqrt({x.r}))/{decimal_str(x._s)}"
    f = Fraction(x)
    numerator = decimal_str(f.numerator)
    return numerator if f.denominator == 1 else f"{numerator}/{decimal_str(f.denominator)}"
