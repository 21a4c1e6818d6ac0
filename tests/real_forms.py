"""Real-algebra helpers for the tests: the real wedge product and the map to it.

The package computes Chern forms in bidegree (p, p) of the unitary coframe.
`to_real(n)` maps those forms to the real basis e^i of R^{2n}, where `wedge`
multiplies all 4^n coefficients. `real_chern_densities` is the independent
oracle for the package: the Newton recursion on wedge-traces in the real
algebra, from the curvature matrix as real 2-forms over e^i ^ e^j.
"""

from functools import lru_cache
from math import factorial, sqrt

import numpy as np

from kahlerpinch import enumerate_indices
from kahlerpinch.chern import _balanced
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


@lru_cache(maxsize=None)
def to_real(n: int) -> np.ndarray:
    """Every balanced basis form of `kahlerpinch.chern` as a row in the real basis e^i.

    `forms @ to_real(n)` maps (p, p) coefficients to 4^n real-basis ones.
    Coframe pair c and the real pair (e^{2c}, e^{2c+1}) take the same two
    bits, and a basis form is the product of its pairs' factors in increasing
    c, so the map is a Kronecker product of the pairs' maps.
    """
    masks = _balanced(n).masks
    rows = np.ones((masks.size, 1), dtype=complex)
    for c in range(n):
        factors = _PAIR_FORMS[(masks >> 2 * c) & 3]
        rows = (factors[:, :, None] * rows[:, None, :]).reshape(masks.size, -1)
    degree = np.array([int(m).bit_count() // 2 for m in masks])
    return rows * 0.5 ** degree[:, None]


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
