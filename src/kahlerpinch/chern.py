"""Pointwise Chern-Weil theory for Kahler curvature tensors, in bidegree (p, p).

In the unitary basis eps_a = (e_{2a} - i J e_{2a}) / sqrt(2) of the Kahler
projection (`curvature._PAIR_UNITARY`), with dual coframe theta^a, a Kahler
tensor R has the coordinate S_{abcd} = R(eps_a, conj eps_b, eps_c, conj eps_d),
and its curvature matrix Omega_ab = R(., ., eps_a, conj eps_b) is the
skew-Hermitian matrix of (1,1)-forms

    Omega_ab = sum_{c,d} S_{cdab} theta^c ^ conj theta^d.

Chern forms are the elementary symmetric polynomials of (i/2pi) Omega under
wedge multiplication, computed through Newton's identities on wedge-traces;
2-form entries commute, so the classical recursion applies verbatim. Every
product of (1,1)-forms stays in bidegree (p, p), so the forms live on the
balanced masks of the coframe, those with as many theta as conj theta:
C(2n, n) coefficients and a wedge table of 639 pairs at n = 4, against 4^n
coefficients and 3^{2n} pairs in the real algebra of R^{2n}. Being invariant
polynomials, the forms do not depend on the unitary frame (Kobayashi-Nomizu,
Foundations of Differential Geometry II, ch. XII). Densities are top
coefficients relative to omega^n, omega = -i sum_c theta^c ^ conj theta^c,
whose top coefficient is n! (-i)^n; only ratios of densities are consumed
downstream, so the normalization convention cancels.

`curvature_matrix` and `chern_forms` return the forms they compute: complex
coefficients on the balanced masks, ascending, where bit 2c is theta^c and
bit 2c + 1 is conj theta^c. `chern_densities` builds the forms once per
tensor and evaluates every product c_1^{a_1} ^ ... ^ c_n^{a_n} in the same
basis; `chern_ratio` and `reference_constants` are read off its table, and
`density_ratio` divides two entries of it.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from math import comb, factorial
from typing import NamedTuple

import numpy as np

from .curvature import (
    CurvatureTensor,
    _kahler_coordinates,
    complex_hyperbolic_tensor,
    require_certified,
)
from .errors import (
    DegenerateDenominatorError,
    DegreeError,
    IdentityInconsistencyError,
    PreconditionError,
)
from .forms import _wedge, _wedge_table
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
        entries = self.multi_index
        try:
            if any(isinstance(a, bool) for a in entries):
                raise TypeError("bool entry")
            idx = tuple(operator.index(a) for a in entries)
        except TypeError:
            raise DegreeError(f"multi-index entries must be integers, got {entries!r}") from None
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


class _Balanced(NamedTuple):
    """The (p, p) algebra at n. Bits 2c and 2c + 1 of a mask are theta^c and
    conj theta^c. A mask is balanced when it sets as many theta as conj
    theta; the wedge of two disjoint balanced masks is balanced.

    `pair` and `pair_sign` place theta^c ^ conj theta^d at [c, d]: its mask
    lists conj theta^d first when d < c. `conjugate` and `conjugate_sign`
    map each mask to its conjugate, which swaps theta^c and conj theta^c and
    so negates theta^c ^ conj theta^c.
    """

    masks: np.ndarray  # ascending, so mask 0 comes first and the top mask last
    table: tuple  # the wedge table of the balanced masks
    pair: np.ndarray
    pair_sign: np.ndarray
    conjugate: np.ndarray
    conjugate_sign: np.ndarray


@lru_cache(maxsize=None)
def _balanced(n: int) -> _Balanced:
    popcount = np.array([m.bit_count() for m in range(1 << 2 * n)])
    bits = np.arange(1 << 2 * n)
    even = int("01" * n, 2)  # the theta bits
    masks = bits[popcount[bits & even] == popcount[bits & (even << 1)]]
    table = _wedge_table(masks)
    c = np.arange(n)
    pair = np.searchsorted(masks, (1 << 2 * c)[:, None] | (1 << 2 * c + 1)[None, :])
    pair_sign = np.where(c[:, None] > c[None, :], -1.0, 1.0)
    theta, theta_bar = masks & even, (masks >> 1) & even
    conjugate = np.searchsorted(masks, theta_bar | (theta << 1))
    conjugate_sign = 1.0 - 2.0 * (popcount[theta & theta_bar] % 2)
    return _Balanced(masks, table, pair, pair_sign, conjugate, conjugate_sign)


def curvature_matrix(tensor: CurvatureTensor) -> np.ndarray:
    """Omega_ab = R(., ., eps_a, conj eps_b) = sum_{c,d} S_{cdab} theta^c ^ conj theta^d.

    Shape (n, n, C(2n, n)): complex coefficients on the balanced masks, ascending,
    with bit 2c = theta^c and bit 2c + 1 = conj theta^c. Read off S, the forms
    are the (1,1) part of R(., ., eps_a, conj eps_b): all of it when R is Kahler.
    """
    require_certified(tensor)
    n = tensor.space.n
    algebra = _balanced(n)
    out = np.zeros((n, n, algebra.masks.size), dtype=complex)
    s = _kahler_coordinates(tensor.entries)
    out[:, :, algebra.pair] = algebra.pair_sign * s.transpose(2, 3, 0, 1)
    return out


def chern_forms(tensor: CurvatureTensor) -> np.ndarray:
    """Chern forms c_0, ..., c_n, shape (n + 1, C(2n, n)), on the masks of `curvature_matrix`.

    Each is checked to be a real form, conj c_k = c_k, up to a small threshold.
    """
    n = tensor.space.n
    algebra = _balanced(n)
    normalized = curvature_matrix(tensor) * (1j / (2.0 * np.pi))
    product = partial(_wedge, algebra.table)
    # traces of the wedge powers; (M Omega)_ac = sum_b M_ab ^ Omega_bc takes one b at a
    # time, so the (n, n, n) batch is never gathered
    traces = [np.trace(normalized)]
    current = normalized
    for _ in range(1, n):
        current = sum(product(current[:, b, None], normalized[b]) for b in range(n))
        traces.append(np.trace(current))
    # Newton's identities: k sigma_k = sum_{j=1..k} (-1)^{j-1} sigma_{k-j} ^ p_j
    sigmas = np.zeros((n + 1, algebra.masks.size), dtype=complex)
    sigmas[0, 0] = 1.0
    traces = np.array(traces)
    signs = (-1.0) ** np.arange(n)
    for k in range(1, n + 1):
        terms = product(sigmas[k - 1 :: -1], traces[:k])  # row j - 1: sigma_{k-j} ^ p_j
        sigmas[k] = signs[:k] @ terms / k
    # a real form F has conj F = F
    conjugates = algebra.conjugate_sign * np.conj(sigmas[:, algebra.conjugate])
    residues = np.max(np.abs(sigmas - conjugates), axis=1) / 2.0
    scales = np.maximum(1.0, np.max(np.abs(sigmas + conjugates), axis=1) / 2.0)
    bad = np.flatnonzero(residues > REALITY_TOL * scales)
    if bad.size:
        k = bad[0]
        raise PreconditionError(
            f"Chern form c_{k} has imaginary residue {residues[k]:.3e}; "
            "input tensor is not Kahler enough"
        )
    return sigmas


def chern_densities(tensor: CurvatureTensor) -> dict[ChernIndex, float]:
    """Density of c_1^{a_1} ^ ... ^ c_n^{a_n} relative to omega^n, for every index."""
    n = tensor.space.n
    algebra = _balanced(n)
    sigmas = chern_forms(tensor)
    densities: dict[ChernIndex, float] = {}
    # the pairs of the last run of the table make up the top mask: top(f ^ g) is one dot product
    left, right, sign, starts = algebra.table
    top = slice(starts[-1], None)
    # omega^n = n! prod_c (-i theta^c ^ conj theta^c): the top mask lists the pairs in order
    left, right, sign = left[top], right[top], sign[top] / (factorial(n) * (-1j) ** n)
    for index in enumerate_indices(n):
        *head, last = [sigmas[k] for k, a in enumerate(index.multi_index, 1) for _ in range(a)]
        product = reduce(partial(_wedge, algebra.table), head) if head else sigmas[0]
        densities[index] = float(np.sum(sign * product[left] * last[right]).real)
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
