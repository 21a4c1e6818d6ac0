"""Alternating forms as arrays indexed by basis bitmask, and their wedge tables.

A form is a real or complex array with one coefficient per admissible mask
of an ordered basis of 1-forms: entry m is the coefficient of the wedge of the
basis forms whose bits are set in m, in increasing bit order. Leading axes
are batch axes: a matrix of forms has shape (n, n, size). This is the
bitmap representation of basis blades (Dorst, Fontijne & Mann, *Geometric
Algebra for Computer Science*, 2007).

A wedge table lists the disjoint pairs of a set of admissible masks, sorted
by their union, with the pairs' shuffle signs. A product gathers the
coefficients of every pair, multiplies them by the signs and sums them into
the union masks. `chern` runs it on the bidegree-(p, p) masks of the unitary
coframe: C(2n, n) coefficients and 639 pairs at n = 4, against 4^n and
3^{2n} in the real algebra of R^{2n}.
"""

from __future__ import annotations

import numpy as np

__all__ = []


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


def _wedge(table, f, g) -> np.ndarray:
    """Wedge product over a table's masks; broadcasts over leading axes."""
    left, right, sign, starts = table
    # every union mask m has at least the pair (0, m), so no run is empty
    return np.add.reduceat(sign * f[..., left] * g[..., right], starts, axis=-1)
