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
