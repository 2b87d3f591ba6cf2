"""Adding machines with digit-wise carry over a mixed-radix base.

A base is a sequence of radices j_1, j_2, ... with every j_i >= 2,
described as a finite prefix plus an optional repeating tail. Points are
digit tuples, least significant digit first, with digit i drawn from
{0, ..., j_i - 1}. Addition carries to the right, so truncating at depth
L is exactly arithmetic modulo m_L = j_1 * ... * j_L, and the depth-L
point set with the successor map is the cyclic group of order m_L.
There is one carry rule, add: successor is add of the point one,
(1, 0, ..., 0). There is one residue rule, as_residue and its inverse
from_residue, which read a digit vector as the integer it encodes in
0..m_L - 1 and back; factor maps read their residues through it too.
Bases and points are frozen values: equal when their fields are equal,
hashable, and never changed in place.

The metric counts disagreeing digit positions with weight 1/2^i, which
makes deeper agreement mean closer points; all distances are Fractions.

Two infinite-base adding machines are topologically the same system
exactly when every prime is used the same number of times overall, where
"number of times" may be infinite. prime_multiplicity computes that
profile and odometers_conjugate compares two of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import chain, cycle, islice
from math import prod

from ._intmath import factorize
from .errors import InputError


@total_ordering
class _InfiniteMultiplicity:
    """Singleton for an infinitely repeated prime factor, above every int."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("_InfiniteMultiplicity")

    def __lt__(self, other):
        if isinstance(other, int) or other is self:
            return False
        return NotImplemented


INFINITY = _InfiniteMultiplicity()


@dataclass(frozen=True, slots=True)
class BaseSequence:
    """A mixed-radix base: finite prefix plus optional repeating tail.

    Text form is "prefix;tail" with comma-separated radices on each side,
    e.g. "4,3;5" (4, 3, then 5 forever), ";2" (dyadic), "2,3;" (a
    truncated base of exactly two levels, no infinite tail).
    """

    prefix: tuple[int, ...] = ()
    tail: tuple[int, ...] = ()

    def __post_init__(self):
        prefix, tail = tuple(self.prefix), tuple(self.tail)
        if not prefix and not tail:
            raise InputError("base needs at least one radix")
        for j in prefix + tail:
            if not isinstance(j, int) or isinstance(j, bool) or j < 2:
                raise InputError(f"radix must be an integer >= 2, got {j!r}")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", tail)

    @property
    def is_full(self) -> bool:
        """True when the base describes an infinite digit sequence."""
        return bool(self.tail)

    @property
    def max_depth(self):
        """Largest usable depth, or None when the base is infinite."""
        return None if self.tail else len(self.prefix)

    def supports_depth(self, depth: int) -> bool:
        return depth >= 1 and (self.is_full or depth <= len(self.prefix))

    def radix(self, i: int) -> int:
        """Radix at 1-based position i."""
        if i < 1:
            raise InputError(f"radix position must be >= 1, got {i}")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        if not self.tail:
            raise InputError(f"base {self} has only {len(self.prefix)} levels")
        return self.tail[(i - len(self.prefix) - 1) % len(self.tail)]

    def radices(self, depth: int) -> tuple[int, ...]:
        if not self.supports_depth(depth):
            raise InputError(f"base {self} does not support depth {depth}")
        return tuple(islice(chain(self.prefix, cycle(self.tail)), depth))

    def level_size(self, depth: int) -> int:
        """Number of depth-level truncated points, the product of radices."""
        return prod(self.radices(depth))

    @classmethod
    def from_text(cls, text: str) -> "BaseSequence":
        if ";" not in text:
            raise InputError(f"base text needs a ';' separator, got {text!r}")
        left, _, right = text.partition(";")

        def side(part: str) -> tuple[int, ...]:
            part = part.strip()
            if not part:
                return ()
            out = []
            for token in part.split(","):
                token = token.strip()
                try:
                    out.append(int(token))
                except ValueError:
                    raise InputError(f"malformed radix {token!r} in {text!r}") from None
            return tuple(out)

        return cls(side(left), side(right))

    def to_text(self) -> str:
        return ",".join(map(str, self.prefix)) + ";" + ",".join(map(str, self.tail))

    def __str__(self):
        return self.to_text()


@dataclass(frozen=True, slots=True)
class OdometerPoint:
    """A depth-L truncated point of an adding machine.

    Digits are least significant first; digit i must lie below the base's
    radix at position i+1.
    """

    base: BaseSequence
    digits: tuple[int, ...]

    def __post_init__(self):
        digits = tuple(self.digits)
        if not digits:
            raise InputError("a point needs at least one digit")
        for i, (j, d) in enumerate(zip(self.base.radices(len(digits)), digits), start=1):
            if not isinstance(d, int) or isinstance(d, bool) or not 0 <= d < j:
                raise InputError(f"digit {d!r} at position {i} not in 0..{j - 1}")
        object.__setattr__(self, "digits", digits)

    @property
    def depth(self) -> int:
        return len(self.digits)

    @classmethod
    def zero(cls, base: BaseSequence, depth: int) -> "OdometerPoint":
        return cls(base, (0,) * depth)

    @classmethod
    def from_text(cls, base: BaseSequence, text: str) -> "OdometerPoint":
        try:
            digits = tuple(int(t.strip()) for t in text.split(","))
        except ValueError:
            raise InputError(f"malformed point {text!r}") from None
        return cls(base, digits)

    def to_text(self) -> str:
        return ",".join(map(str, self.digits))

    def successor(self) -> "OdometerPoint":
        return successor(self)

    def __add__(self, other):
        if isinstance(other, OdometerPoint):
            return add(self, other)
        return NotImplemented

    def __str__(self):
        return self.to_text()


def _require_same_space(x: OdometerPoint, y: OdometerPoint) -> None:
    if x.base != y.base:
        raise InputError(f"points live over different bases: {x.base} vs {y.base}")
    if x.depth != y.depth:
        raise InputError(f"points have different depths: {x.depth} vs {y.depth}")


def add(x: OdometerPoint, y: OdometerPoint) -> OdometerPoint:
    """Digit-wise addition with carry propagating to the right.

    The carry past the last digit is dropped, so depth-L addition is
    addition modulo the level size m_L.
    """
    _require_same_space(x, y)
    out, carry = [], 0
    for j, r, s in zip(x.base.radices(x.depth), x.digits, y.digits):
        carry, digit = divmod(r + s + carry, j)
        out.append(digit)
    return OdometerPoint(x.base, out)


def successor(x: OdometerPoint) -> OdometerPoint:
    """Add one: the adding-machine map truncated at this depth."""
    return add(x, OdometerPoint(x.base, (1,) + (0,) * (x.depth - 1)))


def distance(x: OdometerPoint, y: OdometerPoint) -> Fraction:
    """Sum of 1/2^i over digit positions i where the two points differ."""
    _require_same_space(x, y)
    return sum(
        (Fraction(1, 2 ** (i + 1)) for i, (r, s) in enumerate(zip(x.digits, y.digits)) if r != s),
        Fraction(0),
    )


def as_residue(x: OdometerPoint) -> int:
    """The integer the digit vector encodes, in 0..m_L-1."""
    value, weight = 0, 1
    for i, d in enumerate(x.digits):
        value += d * weight
        weight *= x.base.radix(i + 1)
    return value


def from_residue(base: BaseSequence, depth: int, value: int) -> OdometerPoint:
    """Inverse of as_residue at the given depth."""
    radices = base.radices(depth)
    m = prod(radices)
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < m:
        raise InputError(f"residue {value!r} not in 0..{m - 1}")
    digits = []
    for j in radices:
        value, digit = divmod(value, j)
        digits.append(digit)
    return OdometerPoint(base, digits)


@dataclass(frozen=True)
class PrimeMultiplicity:
    """How many times each prime divides the full radix sequence.

    Values are positive ints or INFINITY; primes that never occur are
    absent. Two adding machines over infinite bases are topologically
    the same exactly when these profiles are equal.
    """

    counts: tuple

    @classmethod
    def from_dict(cls, d: dict) -> "PrimeMultiplicity":
        return cls(tuple(sorted(d.items(), key=lambda kv: kv[0])))

    def as_dict(self) -> dict:
        return dict(self.counts)

    def to_text(self) -> str:
        if not self.counts:
            return "(empty)"
        return " ".join(f"{p}^{m}" for p, m in self.counts)

    def __str__(self):
        return self.to_text()


def prime_multiplicity(base: BaseSequence) -> PrimeMultiplicity:
    """Total prime usage of an infinite base; tail primes count INFINITY."""
    if not base.is_full:
        raise InputError(
            f"base {base} is truncated; the prime profile needs an infinite tail"
        )
    counts: dict[int, object] = {}
    for j in base.prefix:
        for p, k in factorize(j).items():
            counts[p] = counts.get(p, 0) + k
    for j in base.tail:
        for p in factorize(j):
            counts[p] = INFINITY
    return PrimeMultiplicity.from_dict(counts)


def odometers_conjugate(b1: BaseSequence, b2: BaseSequence) -> bool:
    """Whether two infinite bases define the same machine up to relabeling."""
    return prime_multiplicity(b1) == prime_multiplicity(b2)
