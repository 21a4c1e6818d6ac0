"""(p, p)-forms of a unitary coframe as C(n, p) x C(n, p) matrices, and their wedge product.

Entry [I, J] of a (p, p)-form in the coframe theta^1, ..., theta^n, for
p-subsets I = (i_1 < ... < i_p) and J = (j_1 < ... < j_p) of range(n), is
the coefficient of the product of the 2-forms theta^{i_r} ^ conj theta^{j_r}
in increasing r. Leading axes are batch axes: a matrix of (1,1)-forms has
shape (n, n, n, n), and a stack of B of them, one per tensor, (B, n, n, n, n).
A wedge multiplies each slice of a stack on its own (stacked matmuls, never
one product over the stack), so a stack's wedges are its slices' own bit for
bit.

2-forms commute, so the (I, J) basis form times the (I', J') one is the
(K, L) basis form times the signs of the shuffles that sort I + I' into K
and J + J' into L. With E[K, (I, I')] the first sign, 0 unless I and I' are
disjoint, a (p, p)-form A wedge a (q, q)-form B is E (A kron B) E^T.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

import numpy as np

__all__ = []


@lru_cache(maxsize=None)
def _subsets(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The p-subsets of range(n) for p = 0, ..., n, each in lexicographic order."""
    return tuple(tuple(combinations(range(n), p)) for p in range(n + 1))


@lru_cache(maxsize=None)
def _shuffle(n: int, p: int, q: int) -> np.ndarray:
    """E, shape (C(n, p + q), C(n, p) C(n, q)), columns (I, I') in np.kron order."""
    subsets = _subsets(n)
    row = {k: r for r, k in enumerate(subsets[p + q])}
    e = np.zeros((len(subsets[p + q]), len(subsets[p]) * len(subsets[q])))
    for column, (i, j) in enumerate(product(subsets[p], subsets[q])):
        if not set(i) & set(j):
            inversions = sum(x > y for x in i for y in j)
            e[row[tuple(sorted(i + j))], column] = (-1.0) ** inversions
    return e


def _wedge(e: np.ndarray, a: np.ndarray, b: np.ndarray, subscripts: str = "...ij,...kl->...ikjl") -> np.ndarray:
    """a ^ b for a (p, p)-form a and a (q, q)-form b, with e = _shuffle(n, p, q).

    Broadcasts over leading axes; the subscripts "abij,bckl->acikjl" contract
    them instead to the matrix product (a b)_ac = sum_b a_ab ^ b_bc, and
    "zabij,zbckl->zacikjl" to that product per slice z of two stacks.
    """
    kron = np.einsum(subscripts, a, b)
    size = e.shape[1]
    return e @ kron.reshape(kron.shape[:-4] + (size, size)) @ e.T
