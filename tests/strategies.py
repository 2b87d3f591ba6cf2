"""Hypothesis strategies shared by the test modules."""

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
