"""Integer helpers: factorization shared by the odometer, tower and surd
code, and decimal printing of integers of any size."""

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
