"""Integer helpers: factorization shared by the odometer, tower and surd
code, and decimal printing of integers of any size."""

from __future__ import annotations

from itertools import count
from math import gcd

from .errors import InputError

# the first 13 primes: Miller-Rabin with these bases is exact for every
# n < FACTOR_LIMIT (Sorenson and Webster 2017), the least strong
# pseudoprime to all of them
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
FACTOR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 1 < n < FACTOR_LIMIT with no prime
    factor in SMALL_PRIMES: n - 1 = d*2^t with d odd, and n is prime iff
    no base b is a witness, b^d not 1 and b^(d*2^i) not -1 mod n for
    i < t."""
    t = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> t
    for b in SMALL_PRIMES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(t - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split(n: int) -> int:
    """A factor 1 < f < n of an odd composite n, by Pollard's rho with
    Brent's cycle search (Brent 1980): x -> x^2 + c mod n, with the
    differences multiplied in batches of 128 between gcds; a batch that
    overshoots to gcd n is replayed one step at a time, and a c whose
    cycle closes modulo n itself gives way to c + 1."""
    for c in count(1):
        y, power, g, q = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(power):
                y = (y * y + c) % n
            k = 0
            while k < power and g == 1:
                saved = y
                for _ in range(min(128, power - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            power *= 2
        if g == n:
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(abs(x - saved), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent}, primes ascending; {} for n < 2.

    SMALL_PRIMES are divided out first; what is left splits by _split
    into parts that is_prime decides. Every part must lie below
    FACTOR_LIMIT, where that test is exact: a larger part raises
    InputError rather than risk a wrong factor. A part costs about
    p^(1/2) steps of _split for its second-largest prime p, so a
    product of two primes near 10^12 is the slowest input: about a
    second.
    """
    factors: dict[int, int] = {}
    if n < 2:
        return factors
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # what is left has no prime factor up to 41, so below 43^2 it is 1 or prime
    if n < 43 * 43:
        if n > 1:
            factors[n] = 1
        return factors
    primes, parts = [], [n]
    while parts:
        m = parts.pop()
        if m >= FACTOR_LIMIT:
            raise InputError(f"cannot factor {decimal_str(m)} exactly: "
                             f"factors must lie below {FACTOR_LIMIT}")
        if m < 43 * 43 or is_prime(m):
            primes.append(m)
        else:
            f = _split(m)
            parts += [f, m // f]
    for p in sorted(primes):
        factors[p] = factors.get(p, 0) + 1
    return factors


def decimal_str(n: int) -> str:
    """The decimal digits of n, as str(n) gives them, for n of any size.

    str refuses an int with more digits than the interpreter's limit
    (sys.get_int_max_str_digits(), 4300 by default since Python 3.11
    and 3.10.7) and leaves the limit process-wide. Over the limit, n is
    split as q*10^k + r with k near half its digits, 1233/8192 being
    just under half of log10(2) = 0.30103, and the halves are printed
    alike, r padded with zeros to k digits. With b = n.bit_length(),
    10^k < 2^(b/2) <= n, so q >= 1 has no leading zero, and both halves
    are shorter than n.
    """
    try:
        return str(n)
    except ValueError:  # more digits than the limit
        pass
    if n < 0:
        return "-" + decimal_str(-n)
    k = n.bit_length() * 1233 >> 13
    q, r = divmod(n, 10**k)
    return decimal_str(q) + decimal_str(r).zfill(k)
