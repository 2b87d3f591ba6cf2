"""Word composition by brute force, the reference for the word-table walks.

Words act first letter first, as in finite_ifs: "ab" applies f_a, then f_b.
"""

import itertools


def compose(F, word):
    """Table of the word's action; the empty word gives the identity."""
    table = tuple(F.states)
    for label in word:
        step = F.table(label)
        table = tuple(step[v] for v in table)
    return table


def word_tables(F, n):
    """The distinct tables of all |labels|^n words of length n."""
    return {compose(F, w) for w in itertools.product(F.labels, repeat=n)}


def image_of_set(F, A):
    """The union of f(A) over the system's maps."""
    return frozenset(F.table(label)[x] for label in F.labels for x in A)
