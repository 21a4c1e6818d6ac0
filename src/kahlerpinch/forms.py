"""Alternating forms as arrays indexed by basis bitmask, and their wedge tables.

A form is a real or complex array with one coefficient per admissible mask of
an ordered basis of 1-forms. In the real algebra of R^{2n} every mask is
admissible: entry m is the coefficient of e^{i_1} ^ ... ^ e^{i_k}, where
i_1 < ... < i_k are the set bits of m, so (e^1 ^ e^2)(e_1, e_2) = 1 and the
degree-k part of a form lives on the masks with k bits set. Leading axes are
batch axes: a matrix of forms is an array of shape (n, n, 2^{2n}). This is
the bitmap representation of basis blades (Dorst, Fontijne & Mann,
*Geometric Algebra for Computer Science*, 2007).

A wedge table lists the disjoint pairs of a set of admissible masks, sorted
by their union, with the pairs' shuffle signs. A product gathers the
coefficients of every pair, multiplies them by the signs and sums them into
the union masks. The real algebra has 4^n coefficients and 3^{2n} pairs (256
and 6561 at n = 4). `chern` runs the same product on the bidegree-(p, p)
masks of the unitary coframe, C(2n, n) coefficients and 639 pairs at n = 4;
`wedge`, the real product, is the tests' oracle for it. A product whose
degree exceeds 2n has no disjoint pairs and is the zero form.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import SpaceMismatchError

__all__ = ["wedge"]


def _dimension(size: int) -> int:
    """Real dimension 2n of the space whose forms have `size` coefficients."""
    dim = size.bit_length() - 1
    if size < 4 or size != 1 << dim or dim % 2:
        raise SpaceMismatchError(f"{size} coefficients is not 2^(2n) for any n >= 1")
    return dim


def _wedge_table(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint pairs of `masks`, an ascending array that holds 0 and every disjoint union.

    Returns the pairs' positions (left, right) in `masks` sorted by the
    position of their union, their shuffle signs, and the offset of each
    union's run of pairs.
    """
    dim = int(masks[-1]).bit_length()
    popcount = np.array([m.bit_count() for m in range(1 << dim)])
    left, right = np.nonzero((masks[:, None] & masks[None, :]) == 0)
    left_mask, right_mask = masks[left], masks[right]
    # sorting e_left ^ e_right takes one transposition per (x in left, y in right) with x > y
    inversions = sum(((right_mask >> y) & 1) * popcount[left_mask >> (y + 1)] for y in range(dim))
    sign = 1.0 - 2.0 * (inversions % 2)
    union = np.searchsorted(masks, left_mask | right_mask)
    order = np.argsort(union, kind="stable")
    starts = np.searchsorted(union[order], np.arange(masks.size))
    return left[order], right[order], sign[order], starts


@lru_cache(maxsize=None)
def _real_table(dim: int):
    return _wedge_table(np.arange(1 << dim))


def _wedge(table, f, g) -> np.ndarray:
    """Wedge product over a table's masks; broadcasts over leading axes."""
    left, right, sign, starts = table
    # every union mask m has at least the pair (0, m), so no run is empty
    return np.add.reduceat(sign * f[..., left] * g[..., right], starts, axis=-1)


def wedge(f, g) -> np.ndarray:
    """Wedge product in the real algebra, shuffle-sign convention; broadcasts over leading axes."""
    f, g = np.asarray(f), np.asarray(g)
    if f.shape[-1] != g.shape[-1]:
        raise SpaceMismatchError(
            f"forms live over different spaces: {f.shape[-1]} vs {g.shape[-1]} coefficients"
        )
    return _wedge(_real_table(_dimension(f.shape[-1])), f, g)
