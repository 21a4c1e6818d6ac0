"""Pointwise Chern-Weil theory for Kahler curvature tensors.

Given a certified tensor R, the curvature matrix of 2-forms is

    Omega_ab(x, y) = R(x, y, eps_a, conj eps_b),  eps_a = (e_{2a} - i J e_{2a}) / sqrt(2),

in the unitary basis of the Kahler projection (`curvature._PAIR_UNITARY`); it
is skew-Hermitian as a matrix of forms. Chern forms are the elementary
symmetric polynomials of (i/2pi) Omega under wedge multiplication, computed
through Newton's identities on wedge-traces; 2-form entries commute, so the
classical recursion applies verbatim. Being invariant polynomials, they do
not depend on the unitary frame (Kobayashi-Nomizu, Foundations of
Differential Geometry II, ch. XII). Densities are coefficients relative to
omega^n; only ratios of densities are consumed downstream, so the
normalization convention cancels.

`chern_densities` builds the forms once per tensor and evaluates every
product c_1^{a_1} ^ ... ^ c_n^{a_n}; `chern_ratio` and
`reference_constants` are read off its table, and `density_ratio` divides two
entries of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, sqrt

import numpy as np

from .curvature import _PAIR_UNITARY, CurvatureTensor, complex_hyperbolic_tensor, require_certified
from .errors import (
    DegenerateDenominatorError,
    DegreeError,
    IdentityInconsistencyError,
    PreconditionError,
)
from .forms import top_coefficient, two_form, wedge
from .space import make_space

__all__ = [
    "ChernIndex",
    "curvature_matrix",
    "chern_forms",
    "chern_densities",
    "chern_ratio",
    "density_ratio",
    "enumerate_indices",
    "reference_constants",
    "space_form_ratio",
]

REALITY_TOL = 1e-12


@dataclass(frozen=True)
class ChernIndex:
    """Multi-index (a_1, ..., a_n) with sum of i * a_i equal to n."""

    multi_index: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(a) for a in self.multi_index)
        object.__setattr__(self, "multi_index", idx)
        if any(a < 0 for a in idx):
            raise DegreeError(f"multi-index must be nonnegative, got {idx}")
        n = len(idx)
        weight = sum((i + 1) * a for i, a in enumerate(idx))
        if weight != n:
            raise DegreeError(f"multi-index {idx} has total degree {weight}, expected {n}")

    @property
    def n(self) -> int:
        return len(self.multi_index)

    def label(self) -> str:
        return ",".join(str(a) for a in self.multi_index)

    def __str__(self) -> str:
        return self.label()


def enumerate_indices(n: int) -> list[ChernIndex]:
    """All multi-indices with sum i * a_i = n, largest leading entries first."""
    if n < 1:
        raise DegreeError("n must be >= 1")
    # descending ranges make the product lexicographically descending
    candidates = itertools.product(*(range(n // k, -1, -1) for k in range(1, n + 1)))
    return [ChernIndex(t) for t in candidates if sum(k * a for k, a in enumerate(t, 1)) == n]


def curvature_matrix(tensor: CurvatureTensor) -> np.ndarray:
    """Curvature matrix of complex 2-forms, Omega_ab = R(., ., eps_a, conj eps_b), shape (n, n, 2^{2n})."""
    require_certified(tensor)
    n, d = tensor.space.n, tensor.space.dim
    # sqrt(2) eps_a and its conjugate on the pair (e_{2a}, e_{2a+1}): the exact
    # entries (1, -i) and (1, i), so the contraction and the halving round nothing
    eps, eps_bar = sqrt(2.0) * _PAIR_UNITARY.T
    # slots k, l of R split into (vector a, pair bit) and (vector b, pair bit)
    pairs = tensor.entries.reshape(d, d, n, 2, n, 2)
    return two_form(0.5 * np.einsum("ijakbl,k,l->abij", pairs, eps, eps_bar))


def chern_forms(tensor: CurvatureTensor) -> np.ndarray:
    """All Chern forms c_0, ..., c_n as the rows of a real (n + 1, 2^{2n}) array.

    Imaginary parts must cancel (skew-Hermitian input); they are checked
    against a small threshold and discarded.
    """
    n = tensor.space.n
    normalized = curvature_matrix(tensor) * (1j / (2.0 * np.pi))
    # traces of the wedge powers; entry c of a row wedges with entry c of a column
    traces = [np.trace(normalized)]
    current = normalized
    for _ in range(1, n):
        current = wedge(current[:, :, None], normalized[None]).sum(axis=1)
        traces.append(np.trace(current))
    # Newton's identities: k sigma_k = sum_{j=1..k} (-1)^{j-1} sigma_{k-j} ^ p_j
    one = np.zeros(normalized.shape[-1], dtype=complex)
    one[0] = 1.0
    sigmas = [one]
    for k in range(1, n + 1):
        terms = [(-1) ** (j - 1) * wedge(sigmas[k - j], traces[j - 1]) for j in range(1, k + 1)]
        sigmas.append(sum(terms) / k)
    sigmas = np.array(sigmas)
    residues = np.max(np.abs(sigmas.imag), axis=1)
    scales = np.maximum(1.0, np.max(np.abs(sigmas.real), axis=1))
    bad = np.flatnonzero(residues > REALITY_TOL * scales)
    if bad.size:
        k = bad[0]
        raise PreconditionError(
            f"Chern form c_{k} has imaginary residue {residues[k]:.3e}; "
            "input tensor is not Kahler enough"
        )
    return sigmas.real


def chern_densities(tensor: CurvatureTensor) -> dict[ChernIndex, float]:
    """Density of c_1^{a_1} ^ ... ^ c_n^{a_n} relative to omega^n, for every index."""
    forms = chern_forms(tensor)
    densities: dict[ChernIndex, float] = {}
    for index in enumerate_indices(tensor.space.n):
        product = forms[0]
        for k, a in enumerate(index.multi_index, start=1):
            for _ in range(a):
                product = wedge(product, forms[k])
        densities[index] = top_coefficient(product)
    return densities


def space_form_ratio(index_i: ChernIndex, index_j: ChernIndex) -> float:
    """Reference ratio for a complex space form: products of binomials C(n+1, k)."""
    n = index_i.n
    ratio = 1.0
    for k in range(1, n + 1):
        ratio *= float(comb(n + 1, k)) ** (index_i.multi_index[k - 1] - index_j.multi_index[k - 1])
    return ratio


@lru_cache(maxsize=None)
def reference_constants(n: int) -> dict[ChernIndex, float]:
    """Densities gamma_I of the complex hyperbolic model tensor, all indices.

    Cross-checked internally: every pairwise ratio must match the space-form
    binomial formula.
    """
    table = chern_densities(complex_hyperbolic_tensor(make_space(n)))
    for a in table:
        for b in table:
            expected = space_form_ratio(a, b)
            got = table[a] / table[b]
            if abs(got - expected) > 1e-8 * max(1.0, abs(expected)):
                raise IdentityInconsistencyError(
                    f"reference ratio {a}/{b} = {got!r} disagrees with "
                    f"space-form value {expected!r}"
                )
    return table


def density_ratio(
    densities: dict[ChernIndex, float], index_i: ChernIndex, index_j: ChernIndex
) -> float:
    """gamma_I / gamma_J from a chern_densities table.

    Raises DegenerateDenominatorError when gamma_J vanished relative to the
    largest |gamma| of the same table, a test that rescaling the tensor keeps.
    """
    denominator = densities[index_j]
    largest = max(abs(gamma) for gamma in densities.values())
    if abs(denominator) <= 1e-12 * largest:
        raise DegenerateDenominatorError(
            f"density gamma_{index_j} = {denominator!r} vanished relative to "
            f"the largest density {largest!r}"
        )
    return densities[index_i] / denominator


def chern_ratio(tensor: CurvatureTensor, index_i: ChernIndex, index_j: ChernIndex) -> float:
    """gamma_I / gamma_J; scale- and frame-independent."""
    if index_i.n != tensor.space.n or index_j.n != tensor.space.n:
        raise DegreeError("index dimensions disagree with the tensor")
    return density_ratio(chern_densities(tensor), index_i, index_j)
