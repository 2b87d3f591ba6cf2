"""Hypothesis strategies shared by the test modules."""

from math import gcd

from hypothesis import strategies as st

from addingmachine.finite_ifs import FiniteIFS


@st.composite
def small_systems(draw):
    """1-3 labels on at most 6 states; each map a permutation or arbitrary."""
    n = draw(st.integers(min_value=1, max_value=6))
    tables = {}
    for label in "abc"[: draw(st.integers(min_value=1, max_value=3))]:
        if draw(st.booleans()):
            tables[label] = tuple(draw(st.permutations(range(n))))
        else:
            tables[label] = tuple(draw(st.integers(0, n - 1)) for _ in range(n))
    return FiniteIFS(tables)


@st.composite
def permutation_systems(draw):
    """1-3 permutations of at most 7 states; a third are relabelled rotations."""
    n = draw(st.integers(min_value=1, max_value=7))
    labels = "abc"[: draw(st.integers(min_value=1, max_value=3))]
    if draw(st.integers(min_value=0, max_value=2)):
        return FiniteIFS({l: tuple(draw(st.permutations(range(n)))) for l in labels})
    name = draw(st.permutations(range(n)))
    tables = {}
    for label in labels:
        shift, table = draw(st.integers(0, n - 1)), [0] * n
        for x in range(n):
            table[name[x]] = name[(x + shift) % n]
        tables[label] = tuple(table)
    return FiniteIFS(tables)


def trial_division(n):
    """{p: k} with n = prod p^k, by trial division; {} for n = 1."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p], n = out.get(p, 0) + 1, n // p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def affine_system(m, coefficients):
    """Labels a, b, c, ... for the maps x -> a_i*x + b_i mod m, in order."""
    return FiniteIFS({label: tuple((a * x + b) % m for x in range(m))
                      for label, (a, b) in zip("abcdefgh", coefficients)})


@st.composite
def affine_systems(draw, max_m=120):
    """(m, ((a_1, b_1), ...)): one to three affine maps of Z/m.

    Map 1 has full period, one m-cycle. By Hull and Dobell that holds iff
    gcd(b_1, m) = 1, every prime of m divides a_1 - 1, and 4 divides
    a_1 - 1 when 4 divides m. Every other map has a unit slope and agrees
    with map 1 mod a drawn divisor d of m: a_i = a_1 and b_i = b_1 mod d.
    """
    m = draw(st.integers(min_value=2, max_value=max_m))
    step = 1
    for p in trial_division(m):
        step *= p
    if m % 4 == 0:
        step *= 2  # step is squarefree, so this makes 4 | step
    a1 = (1 + step * draw(st.integers(min_value=0, max_value=m - 1))) % m
    b1 = draw(st.sampled_from([b for b in range(m) if gcd(b, m) == 1]))
    coefficients = [(a1, b1)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
        a = draw(st.sampled_from([a for a in range(a1 % d, m, d) if gcd(a, m) == 1]))
        b = (b1 + d * draw(st.integers(min_value=0, max_value=m // d - 1))) % m
        coefficients.append((a, b))
    return m, tuple(coefficients)
