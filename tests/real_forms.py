"""Real-algebra helpers for the tests, built on `forms.wedge`.

The package computes Chern forms in bidegree (p, p) of the unitary coframe.
`real_chern_densities` is the independent oracle for it: the Newton recursion
on wedge-traces over all 4^n coefficients of the real algebra, from the
curvature matrix as real 2-forms over e^i ^ e^j.
"""

from math import factorial, sqrt

import numpy as np

from kahlerpinch import enumerate_indices, wedge
from kahlerpinch.errors import DegreeError
from kahlerpinch.forms import _dimension


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
