"""Exact arithmetic in a real quadratic field Q(sqrt(r)).

Numbers are either plain Fractions or Surd objects a + b*sqrt(r) with
rational a, b, b != 0, and r a squarefree integer >= 2. All arithmetic
and every comparison is exact; nothing here ever rounds. Comparisons and
signs all go through one integer rule (_sign): compare a^2 with b^2*r
when a and b have opposite signs. Combining two surds with different
radicands raises ExactnessError instead of silently falling back to
floats.

The canonical text form is (p+q*sqrt(r))/s with integers p, q, r, s,
s > 0. parse_exact also accepts plain integers, fractions p/q, decimal
literals, and lightweight variants like sqrt(2), 3*sqrt(2)/4, 2-sqrt(2).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Union

from ._intmath import factorize
from .errors import ExactnessError, InputError

ExactNumber = Union[Fraction, "Surd"]

_SQUAREFREE_CACHE: dict[int, tuple[int, int]] = {}


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n >= 1 as k*k*m with m squarefree; return (k, m)."""
    if n < 1:
        raise InputError(f"radicand must be positive, got {n}")
    if n in _SQUAREFREE_CACHE:
        return _SQUAREFREE_CACHE[n]
    k = m = 1
    for p, e in factorize(n).items():
        k *= p ** (e // 2)
        m *= p ** (e % 2)
    _SQUAREFREE_CACHE[n] = (k, m)
    return k, m


def _coerce_rational(x) -> Fraction | None:
    if isinstance(x, bool):
        return None
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    return None


class Surd:
    """An irrational element a + b*sqrt(r) of Q(sqrt(r)).

    Invariants: a, b are Fractions, b != 0, r is squarefree and >= 2.
    Use the surd() factory (or plain arithmetic) to build values; it
    collapses to a Fraction whenever the irrational part cancels.
    """

    __slots__ = ("a", "b", "r")

    def __init__(self, a: Fraction, b: Fraction, r: int):
        if b == 0:
            raise InputError("Surd requires a nonzero irrational part; use a Fraction")
        _, m = squarefree_decompose(r)
        if m != r or r < 2:
            raise InputError(f"radicand must be squarefree and >= 2, got {r}")
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.r = r

    # -- helpers -------------------------------------------------------

    def _check_compatible(self, other: "Surd") -> None:
        if self.r != other.r:
            raise ExactnessError(
                f"cannot combine sqrt({self.r}) with sqrt({other.r}) exactly"
            )

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(r)."""
        a, b = self.a, self.b
        return _sign(a.numerator, a.denominator, b.numerator, b.denominator, self.r)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        q = _coerce_rational(other)
        if q is not None:
            return Surd(self.a + q, self.b, self.r)
        if isinstance(other, Surd):
            self._check_compatible(other)
            return surd(self.a + other.a, self.b + other.b, self.r)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.a, -self.b, self.r)

    def __sub__(self, other):
        q = _coerce_rational(other)
        if q is not None:
            return Surd(self.a - q, self.b, self.r)
        if isinstance(other, Surd):
            self._check_compatible(other)
            return surd(self.a - other.a, self.b - other.b, self.r)
        return NotImplemented

    def __rsub__(self, other):
        q = _coerce_rational(other)
        if q is not None:
            return Surd(q - self.a, -self.b, self.r)
        return NotImplemented

    def __mul__(self, other):
        q = _coerce_rational(other)
        if q is not None:
            if q == 0:
                return Fraction(0)
            return Surd(self.a * q, self.b * q, self.r)
        if isinstance(other, Surd):
            self._check_compatible(other)
            return surd(
                self.a * other.a + self.b * other.b * self.r,
                self.a * other.b + self.b * other.a,
                self.r,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        q = _coerce_rational(other)
        if q is not None:
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return Surd(self.a / q, self.b / q, self.r)
        if isinstance(other, Surd):
            return self * other._inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        q = _coerce_rational(other)
        if q is not None:
            return q * self._inverse()
        return NotImplemented

    def _inverse(self) -> "Surd":
        # (a + b sqrt r)^-1 = (a - b sqrt r) / (a^2 - b^2 r); the norm is
        # nonzero because sqrt(r) is irrational and b != 0.
        norm = self.a * self.a - self.b * self.b * self.r
        return Surd(self.a / norm, -self.b / norm, self.r)

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    # -- comparisons ---------------------------------------------------

    def _cmp(self, other) -> int:
        q = _coerce_rational(other)
        if q is not None:
            c, d = q, 0  # an int has a numerator and a denominator too
        elif isinstance(other, Surd):
            self._check_compatible(other)
            c, d = other.a, other.b
        else:
            raise TypeError(f"cannot compare Surd with {type(other).__name__}")
        # sign of self - other from cross-multiplied differences, which no
        # Fraction normalises (see _sign)
        a, b = self.a, self.b
        return _sign(
            a.numerator * c.denominator - c.numerator * a.denominator,
            a.denominator * c.denominator,
            b.numerator * d.denominator - d.numerator * b.denominator,
            b.denominator * d.denominator,
            self.r,
        )

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return False  # a Surd is irrational by construction
        if isinstance(other, Surd):
            return self.r == other.r and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        return hash(("Surd", self.a, self.b, self.r))

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
    """Build a + b*sqrt(r), collapsing to a Fraction when possible."""
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return a
    k, m = squarefree_decompose(r)
    if m == 1:
        return a + b * k
    return Surd(a, b * k, m)


def _sign(an: int, ad: int, bn: int, bd: int, r: int) -> int:
    """Exact sign of an/ad + (bn/bd)*sqrt(r) for squarefree r >= 2.

    The module's one sign rule: Surd.sign, every Surd comparison and
    exact_sign end here. The arguments are integers with ad, bd > 0 and
    need not be in lowest terms: a comparison passes cross-multiplied
    differences such as (a.num*c.den - c.num*a.den, a.den*c.den) as they
    are, so it runs no gcd. Nothing below needs reduced fractions,
    because the signs are those of the numerators and the test scales
    both sides by the positive (ad*bd)^2.

    If the two terms do not have opposite signs, the nonzero one decides
    (bn = 0 gives the sign of an for any r). Otherwise |an/ad| is
    compared with |bn/bd|*sqrt(r) through (an*bd)^2 against (bn*ad)^2*r.
    The two are never equal: equality with bn != 0 would make sqrt(r)
    rational, and a squarefree r >= 2 has no rational square root.
    """
    sa, sb = (an > 0) - (an < 0), (bn > 0) - (bn < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if (an * bd) ** 2 > (bn * ad) ** 2 * r else sb


def exact_sign(x: ExactNumber) -> int:
    if isinstance(x, Surd):
        return x.sign()
    return _sign(x.numerator, x.denominator, 0, 1, 0)


def exact_sqrt(x) -> ExactNumber:
    """Exact square root of a nonnegative rational."""
    q = Fraction(x)
    if q < 0:
        raise InputError(f"cannot take a real square root of {q}")
    if q == 0:
        return Fraction(0)
    # sqrt(p/q) = sqrt(p*q)/q
    n = q.numerator * q.denominator
    k, m = squarefree_decompose(n)
    return surd(0, Fraction(k, q.denominator), m) if m != 1 else Fraction(k, q.denominator)


_RAT = r"-?\d+(?:/\d+|\.\d+)?"
_FULL_FORM = re.compile(
    r"^\(\s*(?P<p>-?\d+)\s*(?P<sign>[+-])\s*(?P<q>\d+)\s*\*\s*sqrt\(\s*(?P<r>\d+)\s*\)\s*\)\s*/\s*(?P<s>-?\d+)$"
)
_SQRT_TERM = re.compile(
    r"^(?:(?P<coef>" + _RAT + r")\s*\*\s*)?sqrt\(\s*(?P<r>\d+)\s*\)(?:\s*/\s*(?P<den>\d+))?$"
)
_SUM_FORM = re.compile(
    r"^(?P<a>" + _RAT + r")\s*(?P<sign>[+-])\s*(?P<rest>.+)$"
)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational {text!r}") from exc


def parse_exact(text: str) -> ExactNumber:
    """Parse the canonical (p+q*sqrt(r))/s form and friendly variants."""
    s = text.strip()
    if not s:
        raise InputError("empty number")
    m = _FULL_FORM.match(s)
    if m:
        p = int(m.group("p"))
        q = int(m.group("q")) * (1 if m.group("sign") == "+" else -1)
        den = int(m.group("s"))
        if den == 0:
            raise InputError(f"zero denominator in {text!r}")
        return surd(Fraction(p, den), Fraction(q, den), int(m.group("r")))
    m = _SQRT_TERM.match(s)
    if m:
        coef = _parse_rational(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("den"):
            coef /= int(m.group("den"))
        return surd(0, coef, int(m.group("r")))
    m = _SUM_FORM.match(s)
    if m and "sqrt" in m.group("rest"):
        rest = parse_exact(m.group("rest"))
        a = _parse_rational(m.group("a"))
        if not isinstance(rest, Surd):
            return a + rest if m.group("sign") == "+" else a - rest
        return surd(a, rest.b if m.group("sign") == "+" else -rest.b, rest.r)
    if "sqrt" in s or "(" in s:
        raise InputError(f"malformed exact number {text!r}")
    return _parse_rational(s)


def format_exact(x: ExactNumber) -> str:
    """Canonical text: p/q for rationals, (p+q*sqrt(r))/s for surds."""
    if isinstance(x, Surd):
        s = x.a.denominator * x.b.denominator // gcd(x.a.denominator, x.b.denominator)
        p = x.a.numerator * (s // x.a.denominator)
        q = x.b.numerator * (s // x.b.denominator)
        sign = "+" if q >= 0 else "-"
        return f"({p}{sign}{abs(q)}*sqrt({x.r}))/{s}"
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
