"""Real-algebra helpers for the tests: the real wedge product and the map to it.

The package computes Chern forms in bidegree (p, p) of the unitary coframe, as
C(n, p) x C(n, p) matrices. `pp_to_real(form, n, p)` maps such a matrix to the
real basis e^i of R^{2n}, where `wedge` multiplies all 4^n coefficients,
through the balanced masks of `balanced(n)`. `real_chern_densities` is the
independent oracle for the package: the Newton recursion on wedge-traces in
the real algebra, from the curvature matrix as real 2-forms over e^i ^ e^j.
"""

from functools import lru_cache
from itertools import combinations
from math import factorial, sqrt
from typing import NamedTuple

import numpy as np

from kahlerpinch import enumerate_indices
from kahlerpinch.errors import DegreeError, SpaceMismatchError


def _dimension(size: int) -> int:
    """Real dimension 2n of the space whose forms have `size` coefficients."""
    dim = size.bit_length() - 1
    if size < 4 or size != 1 << dim or dim % 2:
        raise SpaceMismatchError(f"{size} coefficients is not 2^(2n) for any n >= 1")
    return dim


@lru_cache(maxsize=None)
def _real_table(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 3^dim disjoint pairs (left, right) of the masks of R^dim, sorted by their
    union, with their shuffle signs and the offset of each union's run of pairs.

    A mask's coefficient belongs to the wedge of the basis forms whose bits are
    set in it, in increasing bit order (Dorst, Fontijne & Mann, *Geometric
    Algebra for Computer Science*, 2007).
    """
    masks = np.arange(1 << dim)
    popcount = np.array([m.bit_count() for m in masks])
    left, right = np.nonzero((masks[:, None] & masks[None, :]) == 0)
    # sorting e_left ^ e_right takes one transposition per (x in left, y in right) with x > y
    inversions = sum(((right >> y) & 1) * popcount[left >> (y + 1)] for y in range(dim))
    sign = 1.0 - 2.0 * (inversions % 2)
    order = np.argsort(left | right, kind="stable")
    starts = np.searchsorted((left | right)[order], masks)
    return left[order], right[order], sign[order], starts


def wedge(f, g) -> np.ndarray:
    """Wedge product in the real algebra, shuffle-sign convention; broadcasts over leading axes."""
    f, g = np.asarray(f), np.asarray(g)
    if f.shape[-1] != g.shape[-1]:
        raise SpaceMismatchError(
            f"forms live over different spaces: {f.shape[-1]} vs {g.shape[-1]} coefficients"
        )
    left, right, sign, starts = _real_table(_dimension(f.shape[-1]))
    # every union mask m has at least the pair (0, m), so no run is empty
    return np.add.reduceat(sign * f[..., left] * g[..., right], starts, axis=-1)


# sqrt(2)^k times the factors 1, theta^c, conj theta^c and theta^c ^ conj theta^c of a
# coframe pair (rows), on 1, e^{2c}, e^{2c+1} and e^{2c} ^ e^{2c+1} (columns); all exact
_PAIR_FORMS = np.array([[1, 0, 0, 0], [0, 1, 1j, 0], [0, 1, -1j, 0], [0, 0, 0, -2j]])


class Balanced(NamedTuple):
    """The balanced masks of the coframe at n, and where each (p, p) matrix entry goes.

    Bits 2c and 2c + 1 of a mask are theta^c and conj theta^c, and a balanced
    mask sets as many theta as conj theta. A mask's coefficient belongs to the
    product of its bits' 1-forms in increasing bit order. Entry [I, J] of a
    (p, p) matrix, I and J p-subsets of range(n) in lexicographic order, is the
    coefficient of the product of theta^{i_r} ^ conj theta^{j_r} in increasing
    r: the mask with bits 2 i_r and 2 j_r + 1, times the sign of sorting the
    bit sequence (2 i_1, 2 j_1 + 1, 2 i_2, ...) into increasing order.
    """

    masks: np.ndarray  # ascending, so mask 0 comes first and the top mask last
    place: tuple  # per p, a C(n, p) x C(n, p) array of positions in masks
    sign: tuple  # per p, the matching signs


def _basis_entry(i: tuple, j: tuple) -> tuple[int, float]:
    """Mask and sign of the basis form prod_r theta^{i_r} ^ conj theta^{j_r}."""
    bits = [bit for i_r, j_r in zip(i, j) for bit in (2 * i_r, 2 * j_r + 1)]
    inversions = sum(x > y for r, x in enumerate(bits) for y in bits[r + 1 :])
    return sum(1 << bit for bit in bits), (-1.0) ** inversions


@lru_cache(maxsize=None)
def balanced(n: int) -> Balanced:
    blocks = []
    for p in range(n + 1):
        subsets = list(combinations(range(n), p))
        entries = [[_basis_entry(i, j) for j in subsets] for i in subsets]
        blocks.append(np.array(entries).reshape(len(subsets), len(subsets), 2))
    # masks below 2^(2n) are exact as floats
    masks = np.sort(np.concatenate([block[..., 0].ravel() for block in blocks])).astype(int)
    place = tuple(np.searchsorted(masks, block[..., 0]) for block in blocks)
    return Balanced(masks, place, tuple(block[..., 1] for block in blocks))


@lru_cache(maxsize=None)
def to_real(n: int) -> np.ndarray:
    """Every balanced basis form as a row in the real basis e^i.

    `coefficients @ to_real(n)` maps coefficients on the masks of `balanced(n)`
    to 4^n real-basis ones. Coframe pair c and the real pair (e^{2c}, e^{2c+1})
    take the same two bits, and a basis form is the product of its pairs'
    factors in increasing c, so the map is a Kronecker product of the pairs'
    maps.
    """
    masks = balanced(n).masks
    rows = np.ones((masks.size, 1), dtype=complex)
    for c in range(n):
        factors = _PAIR_FORMS[(masks >> 2 * c) & 3]
        rows = (factors[:, :, None] * rows[:, None, :]).reshape(masks.size, -1)
    degree = np.array([int(m).bit_count() // 2 for m in masks])
    return rows * 0.5 ** degree[:, None]


def pp_to_real(form, n: int, p: int) -> np.ndarray:
    """A (p, p) matrix, or a batch of them on leading axes, as forms in the real basis e^i."""
    algebra = balanced(n)
    rows = algebra.sign[p][..., None] * to_real(n)[algebra.place[p]]
    return np.einsum("...ij,ijm->...m", form, rows)


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


def kahler_form(space) -> np.ndarray:
    """omega as a 2-form; the J convention makes omega(e_{2a-1}, e_{2a}) = -1."""
    return two_form(space.j_matrix)


def top_coefficient(f) -> float:
    """gamma with top-degree part of f = gamma * omega^n, omega^n = (-1)^n n! e^1 ^ ... ^ e^{2n}."""
    f = np.asarray(f)
    n = _dimension(f.shape[-1]) // 2
    return float(f[-1]) / ((-1) ** n * factorial(n))


def basis_form(space, combo) -> np.ndarray:
    """Dual basis form e^{i_1} ^ ... ^ e^{i_k} for a strictly increasing tuple."""
    f = np.zeros(1 << space.dim)
    f[sum(1 << i for i in combo)] = 1.0
    return f


def real_curvature_matrix(tensor) -> np.ndarray:
    """Omega_ab = R(., ., eps_a, conj eps_b) as real-basis 2-forms, one contraction of the entries."""
    n, d = tensor.space.n, tensor.space.dim
    eps = np.array([1.0, -1j]) / sqrt(2.0)  # eps_a on the pair (e_{2a}, e_{2a+1})
    pairs = tensor.entries.reshape(d, d, n, 2, n, 2)
    return two_form(np.einsum("ijakbl,k,l->abij", pairs, eps, eps.conj()))


def real_chern_forms(tensor) -> np.ndarray:
    """c_0..c_n in the real algebra, complex, by Newton's identities on wedge-traces."""
    n = tensor.space.n
    normalized = real_curvature_matrix(tensor) * (1j / (2.0 * np.pi))
    traces = [np.trace(normalized)]
    current = normalized
    for _ in range(1, n):
        current = sum(wedge(current[:, b, None], normalized[b]) for b in range(n))
        traces.append(np.trace(current))
    sigmas = [np.zeros(normalized.shape[-1], dtype=complex)]
    sigmas[0][0] = 1.0
    for k in range(1, n + 1):
        terms = [(-1) ** (j - 1) * wedge(sigmas[k - j], traces[j - 1]) for j in range(1, k + 1)]
        sigmas.append(sum(terms) / k)
    return np.array(sigmas)


def real_chern_densities(tensor) -> dict:
    """Every density of c_1^{a_1} ^ ... ^ c_n^{a_n} relative to omega^n, in the real algebra."""
    forms = real_chern_forms(tensor).real
    densities = {}
    for index in enumerate_indices(tensor.space.n):
        product = forms[0]
        for k, a in enumerate(index.multi_index, start=1):
            for _ in range(a):
                product = wedge(product, forms[k])
        densities[index] = top_coefficient(product)
    return densities
