"""Exact arithmetic in a real quadratic field Q(sqrt(r)).

Numbers are either plain Fractions or Surd objects (p + q*sqrt(r))/s
with integers p, q, s and r, kept reduced: s > 0, q != 0,
gcd(p, q, s) = 1, and r squarefree and >= 2. That form is canonical, so
equality and hashing compare fields. Every arithmetic operation builds
its triple with integer formulas and reduces it with one gcd; when the
irrational part cancels the result is a Fraction. Comparisons run no
gcd: both sides go over a common positive denominator and one integer
rule (_sign) decides, comparing P^2 with Q^2*r when P and Q have
opposite signs. Nothing here ever rounds. Combining two surds with
different radicands raises ExactnessError instead of silently falling
back to floats.

The canonical text form is (p+q*sqrt(r))/s, the reduced triple itself.
parse_exact also accepts plain integers, fractions p/q, decimal
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


def _rational(x) -> tuple[int, int] | None:
    """(numerator, denominator) of an int or Fraction; None for anything
    else, bool included."""
    if isinstance(x, Fraction) or (isinstance(x, int) and not isinstance(x, bool)):
        return x.numerator, x.denominator
    return None


def _reduced(p: int, q: int, s: int, r: int) -> ExactNumber:
    """(p + q*sqrt(r))/s for integers with s != 0, reduced with one gcd
    (its sign makes s > 0); a Fraction when q = 0. Every Surd that
    arithmetic returns is built here, bypassing __init__'s checks, which
    the operands already passed."""
    if not q:
        return Fraction(p, s)
    g = gcd(p, q, s)
    if s < 0:
        g = -g
    if g != 1:
        p, q, s = p // g, q // g, s // g
    x = object.__new__(Surd)
    x._p, x._q, x._s, x.r = p, q, s, r
    return x


class Surd:
    """An irrational element (p + q*sqrt(r))/s of Q(sqrt(r)).

    Invariants: p, q, s are integers with s > 0, q != 0 and
    gcd(p, q, s) = 1, and r is squarefree and >= 2; the triple is
    therefore unique, and == and hash compare it. Arithmetic reduces
    each result with a single gcd and collapses to a Fraction whenever
    the irrational part cancels; comparisons run no gcd. Build values
    with the surd() factory or plain arithmetic; Surd(a, b, r) takes the
    rational coefficients of a + b*sqrt(r), and .a and .b give them back
    as Fractions.
    """

    __slots__ = ("_p", "_q", "_s", "r")

    def __init__(self, a: Fraction, b: Fraction, r: int):
        if b == 0:
            raise InputError("Surd requires a nonzero irrational part; use a Fraction")
        _, m = squarefree_decompose(r)
        if m != r or r < 2:
            raise InputError(f"radicand must be squarefree and >= 2, got {r}")
        a, b = Fraction(a), Fraction(b)
        # s = lcm of the two denominators, which leaves gcd(p, q, s) = 1
        s = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
        self._p = a.numerator * (s // a.denominator)
        self._q = b.numerator * (s // b.denominator)
        self._s = s
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

    def _check_compatible(self, other: "Surd") -> None:
        if self.r != other.r:
            raise ExactnessError(
                f"cannot combine sqrt({self.r}) with sqrt({other.r}) exactly"
            )

    def sign(self) -> int:
        """Exact sign of (p + q*sqrt(r))/s, which is that of p + q*sqrt(r)."""
        return _sign(self._p, self._q, self.r)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        p, q, s, r = self._p, self._q, self._s, self.r
        nd = _rational(other)
        if nd is not None:
            n, d = nd
            return _reduced(p * d + n * s, q * d, s * d, r)
        if isinstance(other, Surd):
            self._check_compatible(other)
            p2, q2, s2 = other._p, other._q, other._s
            return _reduced(p * s2 + p2 * s, q * s2 + q2 * s, s * s2, r)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self._p, -self._q, self._s, self.r)

    def __sub__(self, other):
        p, q, s, r = self._p, self._q, self._s, self.r
        nd = _rational(other)
        if nd is not None:
            n, d = nd
            return _reduced(p * d - n * s, q * d, s * d, r)
        if isinstance(other, Surd):
            self._check_compatible(other)
            p2, q2, s2 = other._p, other._q, other._s
            return _reduced(p * s2 - p2 * s, q * s2 - q2 * s, s * s2, r)
        return NotImplemented

    def __rsub__(self, other):
        nd = _rational(other)
        if nd is not None:
            n, d = nd
            s = self._s
            return _reduced(n * s - self._p * d, -self._q * d, s * d, self.r)
        return NotImplemented

    def __mul__(self, other):
        p, q, s, r = self._p, self._q, self._s, self.r
        nd = _rational(other)
        if nd is not None:
            n, d = nd
            return _reduced(p * n, q * n, s * d, r)
        if isinstance(other, Surd):
            self._check_compatible(other)
            p2, q2, s2 = other._p, other._q, other._s
            return _reduced(p * p2 + q * q2 * r, p * q2 + q * p2, s * s2, r)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        p, q, s, r = self._p, self._q, self._s, self.r
        nd = _rational(other)
        if nd is not None:
            n, d = nd
            if n == 0:
                raise ZeroDivisionError("division by zero")
            return _reduced(p * d, q * d, s * n, r)
        if isinstance(other, Surd):
            self._check_compatible(other)
            # multiply through by the conjugate p2 - q2*sqrt(r); the norm
            # p2^2 - q2^2*r is nonzero because sqrt(r) is irrational
            p2, q2, s2 = other._p, other._q, other._s
            return _reduced(
                s2 * (p * p2 - q * q2 * r), s2 * (q * p2 - p * q2),
                s * (p2 * p2 - q2 * q2 * r), r,
            )
        return NotImplemented

    def __rtruediv__(self, other):
        nd = _rational(other)
        if nd is not None:
            n, d = nd
            p, q, s, r = self._p, self._q, self._s, self.r
            return _reduced(n * s * p, -n * s * q, d * (p * p - q * q * r), r)
        return NotImplemented

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    # -- comparisons ---------------------------------------------------

    def _cmp(self, other) -> int:
        """Sign of self - other over the common positive denominator
        s*d or s*s2, so no gcd runs."""
        p, q, s = self._p, self._q, self._s
        nd = _rational(other)
        if nd is not None:
            n, d = nd
            return _sign(p * d - n * s, q * d, self.r)
        if isinstance(other, Surd):
            self._check_compatible(other)
            p2, q2, s2 = other._p, other._q, other._s
            return _sign(p * s2 - p2 * s, q * s2 - q2 * s, self.r)
        raise TypeError(f"cannot compare Surd with {type(other).__name__}")

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
    """Build a + b*sqrt(r), collapsing to a Fraction when possible."""
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return a
    k, m = squarefree_decompose(r)
    if m == 1:
        return a + b * k
    return Surd(a, b * k, m)


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


def exact_sign(x: ExactNumber) -> int:
    """Exact sign of a Surd, or of a Fraction or int (its numerator's)."""
    if isinstance(x, Surd):
        return x.sign()
    n = x.numerator
    return (n > 0) - (n < 0)


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
            den = int(m.group("den"))
            if den == 0:
                raise InputError(f"zero denominator in {text!r}")
            coef /= den
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
    """Canonical text: p/q for rationals, (p+q*sqrt(r))/s for surds.

    A Surd prints its reduced triple. That s is the lcm of the reduced
    denominators of a = p/s and b = q/s: those are s/gcd(p, s) and
    s/gcd(q, s), whose lcm is s/gcd(p, q, s) = s.
    """
    if isinstance(x, Surd):
        q = x._q
        sign = "+" if q >= 0 else "-"
        return f"({x._p}{sign}{abs(q)}*sqrt({x.r}))/{x._s}"
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
