"""Integer factorization shared by the odometer, tower and surd code."""

from __future__ import annotations


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division; {} for n < 2.

    Inputs are radices, tower sizes, spectrum members and radicands, so
    trial division is fast enough everywhere it is used.
    """
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors
