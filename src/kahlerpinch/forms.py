"""Alternating forms on R^{2n} as arrays indexed by basis bitmask.

A form is a real or complex array of length 2^{2n}. Entry m is the
coefficient of e^{i_1} ^ ... ^ e^{i_k}, where i_1 < ... < i_k are the set bits
of m, so (e^1 ^ e^2)(e_1, e_2) = 1 and the degree-k part of a form lives on
the masks with k bits set. Leading axes are batch axes: a matrix of forms is
an array of shape (n, n, 2^{2n}). This is the bitmap representation of basis
blades (Dorst, Fontijne & Mann, *Geometric Algebra for Computer Science*,
2007).

The wedge product gathers the coefficients of the 3^{2n} disjoint mask pairs
(6561 at n = 4, over 256 coefficients), multiplies them by the pairs' shuffle
signs and sums them into the union masks. A product whose degree exceeds 2n
has no disjoint pairs and is the zero form.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

from .errors import DegreeError, SpaceMismatchError
from .space import HermitianSpace

__all__ = [
    "wedge",
    "power",
    "top_coefficient",
    "kahler_form",
    "basis_form",
    "two_form",
]


def _dimension(size: int) -> int:
    """Real dimension 2n of the space whose forms have `size` coefficients."""
    dim = size.bit_length() - 1
    if size < 4 or size != 1 << dim or dim % 2:
        raise SpaceMismatchError(f"{size} coefficients is not 2^(2n) for any n >= 1")
    return dim


@lru_cache(maxsize=None)
def _wedge_table(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint mask pairs (left, right) sorted by union, their shuffle signs, and
    the offset of each union mask's run of pairs."""
    masks = np.arange(1 << dim)
    popcount = np.array([int(m).bit_count() for m in masks])
    left, right = np.nonzero((masks[:, None] & masks[None, :]) == 0)
    # sorting e_left ^ e_right takes one transposition per (x in left, y in right) with x > y
    inversions = sum(((right >> y) & 1) * popcount[left >> (y + 1)] for y in range(dim))
    sign = 1.0 - 2.0 * (inversions % 2)
    order = np.argsort(left | right, kind="stable")
    starts = np.searchsorted((left | right)[order], masks)
    return left[order], right[order], sign[order], starts


def wedge(f, g) -> np.ndarray:
    """Wedge product, shuffle-sign convention; broadcasts over leading axes."""
    f, g = np.asarray(f), np.asarray(g)
    if f.shape[-1] != g.shape[-1]:
        raise SpaceMismatchError(
            f"forms live over different spaces: {f.shape[-1]} vs {g.shape[-1]} coefficients"
        )
    left, right, sign, starts = _wedge_table(_dimension(f.shape[-1]))
    # every union mask m has at least the pair (0, m), so no run is empty
    return np.add.reduceat(sign * f[..., left] * g[..., right], starts, axis=-1)


def power(f, m: int) -> np.ndarray:
    """Iterated wedge f^m; m = 0 gives the constant-one 0-form."""
    if m < 0:
        raise DegreeError("negative wedge power")
    result = np.zeros_like(f)
    result[..., 0] = 1.0
    for _ in range(m):
        result = wedge(result, f)
    return result


def two_form(matrix) -> np.ndarray:
    """The 2-form with coefficient matrix[..., i, j] on e^i ^ e^j for i < j."""
    matrix = np.asarray(matrix)
    dim = matrix.shape[-1]
    i, j = np.triu_indices(dim, 1)
    out = np.zeros(matrix.shape[:-2] + (1 << dim,), dtype=matrix.dtype)
    out[..., (1 << i) | (1 << j)] = matrix[..., i, j]
    return out


def kahler_form(space: HermitianSpace) -> np.ndarray:
    """omega as a 2-form; the J convention makes omega(e_{2a-1}, e_{2a}) = -1."""
    return two_form(space.j_matrix)


def top_coefficient(f) -> float:
    """Coefficient gamma with top-degree part of f = gamma * omega^n (the top space is 1-dimensional).

    omega = -sum_a e^{2a-1} ^ e^{2a}, and its 2-form terms commute, so
    omega^n = (-1)^n n! e^1 ^ ... ^ e^{2n}.
    """
    f = np.asarray(f)
    n = _dimension(f.shape[-1]) // 2
    return float(f[-1]) / ((-1) ** n * factorial(n))


def basis_form(space: HermitianSpace, combo: tuple[int, ...]) -> np.ndarray:
    """Dual basis form e^{i_1} ^ ... ^ e^{i_k} for a strictly increasing tuple."""
    combo = tuple(combo)
    if list(combo) != sorted(set(combo)) or any(i < 0 or i >= space.dim for i in combo):
        raise ValueError(f"combo must be strictly increasing in [0, {space.dim}), got {combo}")
    f = np.zeros(1 << space.dim)
    f[sum(1 << i for i in combo)] = 1.0
    return f
