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
product of (1,1)-forms stays in bidegree (p, p): a C(n, p) x C(n, p) matrix
(`forms`), C(2n, n) coefficients over all p against 4^n in the real algebra
of R^{2n}. Being invariant polynomials, the forms do not depend on the
unitary frame (Kobayashi-Nomizu, Foundations of Differential Geometry II,
ch. XII). Densities are top coefficients relative to omega^n,
omega = -i sum_c theta^c ^ conj theta^c, whose top coefficient is n! (-i)^n;
only ratios of densities are consumed downstream, so the normalization
convention cancels.

`curvature_matrix` and `chern_forms` lay their forms out as complex
coefficients on the balanced masks (`_Balanced`). `chern_densities` builds
the matrices once per tensor, at unit scale 2^-e R, evaluates every product
c_1^{a_1} ^ ... ^ c_n^{a_n} and scales the densities back by 2^(n e); both
steps are exact. `chern_ratio` reads the unit-scale table, so 2^k R has the
ratios of R bit for bit even where its own densities leave the double range.
`reference_constants` is read off the table, and `density_ratio` divides two
entries of one.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, isfinite
from typing import NamedTuple

import numpy as np

from .curvature import (
    CurvatureTensor,
    _kahler_coordinates,
    _unit_exponent,
    complex_hyperbolic_tensor,
    require_certified,
)
from .errors import (
    DegenerateDenominatorError,
    DegreeError,
    IdentityInconsistencyError,
    PreconditionError,
    ResourceLimitError,
)
from .forms import _shuffle, _subsets, _wedge
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
        if not idx:
            raise DegreeError("multi-index must have at least one entry")
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


@lru_cache(maxsize=None)
def _index_factors(n: int) -> tuple[tuple[ChernIndex, tuple[int, ...]], ...]:
    """Each index of enumerate_indices(n) with the degrees k of its factors c_k,
    one per power: built and validated once per n (ChernIndex is frozen)."""
    return tuple(
        (index, tuple(k for k, a in enumerate(index.multi_index, 1) for _ in range(a)))
        for index in enumerate_indices(n)
    )


class _Balanced(NamedTuple):
    """The mask layout of `curvature_matrix` and `chern_forms` at n. Bits 2c and
    2c + 1 of a mask are theta^c and conj theta^c, and a balanced mask sets as
    many theta as conj theta. Entry [I, J] of a (p, p) matrix (`forms`) goes to
    the mask with bits 2 i_r and 2 j_r + 1, times the sign of sorting the bit
    sequence (2 i_1, 2 j_1 + 1, 2 i_2, ...) into increasing order.
    """

    masks: np.ndarray  # ascending, so mask 0 comes first and the top mask last
    place: tuple  # per p, a C(n, p) x C(n, p) array of positions in masks
    sign: tuple  # per p, the matching signs


def _entry(i: tuple[int, ...], j: tuple[int, ...]) -> tuple[int, float]:
    """Mask and sign of the basis form prod_r theta^{i_r} ^ conj theta^{j_r}."""
    bits = [bit for i_r, j_r in zip(i, j) for bit in (2 * i_r, 2 * j_r + 1)]
    inversions = sum(x > y for r, x in enumerate(bits) for y in bits[r + 1 :])
    return sum(1 << bit for bit in bits), (-1.0) ** inversions


@lru_cache(maxsize=None)
def _balanced(n: int) -> _Balanced:
    # blocks[p][I, J] = (mask, sign); masks below 2^(2n) are exact as floats
    blocks = [np.array([[_entry(i, j) for j in subsets] for i in subsets]) for subsets in _subsets(n)]
    masks = np.sort(np.concatenate([block[..., 0].ravel() for block in blocks])).astype(int)
    place = tuple(np.searchsorted(masks, block[..., 0]) for block in blocks)
    return _Balanced(masks, place, tuple(block[..., 1] for block in blocks))


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
    out[:, :, algebra.place[1]] = algebra.sign[1] * _kahler_coordinates(tensor.entries).transpose(2, 3, 0, 1)
    return out


def chern_forms(tensor: CurvatureTensor) -> np.ndarray:
    """Chern forms c_0, ..., c_n, shape (n + 1, C(2n, n)), on the masks of `curvature_matrix`.

    Each is checked to be a real form, conj c_k = c_k, up to a small threshold.
    ResourceLimitError when a form leaves the double range: the degree-k
    products scale as |R|^k.
    """
    require_certified(tensor)
    n = tensor.space.n
    algebra = _balanced(n)
    out = np.zeros((n + 1, algebra.masks.size), dtype=complex)
    for k, sigma in enumerate(_chern_matrices(tensor.entries)):
        out[k, algebra.place[k]] = algebra.sign[k] * sigma
    return out


def _chern_matrices(entries: np.ndarray) -> list[np.ndarray]:
    """c_0, ..., c_n of a certified tensor's entries as (k, k) matrices (`forms`), checked as
    `chern_forms` says."""
    n = entries.shape[0] // 2
    # Omega_ab is the (1,1) matrix S[:, :, a, b]
    normalized = _kahler_coordinates(entries).transpose(2, 3, 0, 1) * (1j / (2.0 * np.pi))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        # traces of the wedge powers, (M Omega)_ac = sum_b M_ab ^ Omega_bc
        traces = [np.trace(normalized)]
        current = normalized
        for p in range(1, n):
            current = _wedge(_shuffle(n, p, 1), current, normalized, "abij,bckl->acikjl")
            traces.append(np.trace(current))
        # Newton's identities: k sigma_k = sum_{j=1..k} (-1)^{j-1} sigma_{k-j} ^ p_j
        sigmas = [np.ones((1, 1), dtype=complex)]
        for k in range(1, n + 1):
            terms = [_wedge(_shuffle(n, k - j, j), sigmas[k - j], traces[j - 1]) for j in range(1, k + 1)]
            sigmas.append(sum(term * (-1) ** j for j, term in enumerate(terms)) / k)
    if not all(np.all(np.isfinite(sigma)) for sigma in sigmas):
        raise ResourceLimitError("a Chern form is not finite: the tensor exceeds double precision")
    # a real (k, k) form F has conj F = (-1)^k F^H
    for k, sigma in enumerate(sigmas):
        conjugate = (-1) ** k * sigma.conj().T
        residue = np.max(np.abs(sigma - conjugate)) / 2.0
        if residue > REALITY_TOL * max(1.0, np.max(np.abs(sigma + conjugate)) / 2.0):
            raise PreconditionError(
                f"Chern form c_{k} has imaginary residue {residue:.3e}; "
                "input tensor is not Kahler enough"
            )
    return sigmas


def chern_densities(tensor: CurvatureTensor) -> dict[ChernIndex, float]:
    """Density of c_1^{a_1} ^ ... ^ c_n^{a_n} relative to omega^n, for every index.

    Computed at unit scale and scaled back exactly (`_density_tables`): a
    density beyond the double range is +-inf, or underflows towards 0.0.
    """
    return _density_tables(tensor)[0]


def _density_tables(tensor: CurvatureTensor) -> tuple[dict[ChernIndex, float], dict[ChernIndex, float]]:
    """chern_densities of R, and its unit-scale table: the densities of 2^-e R
    for e = curvature._unit_exponent(R).

    That scaling is exact, so 2^k R has the unit table of R bit for bit while
    its entries stay normal doubles, with no overflow or underflow in the
    degree-n products, and the reality check of `chern_forms` gives the same
    verdict at every such scale. R's densities are the unit ones times
    2^(n e), which is exact as long as they stay normal doubles.
    """
    require_certified(tensor)  # scaling keeps every symmetry, so the verdict holds for 2^-e R
    n = tensor.space.n
    exponent = _unit_exponent(tensor.entries)
    sigmas = _chern_matrices(np.ldexp(tensor.entries, -exponent))
    # omega^n = n! (-i)^n prod_c theta^c ^ conj theta^c, the top basis form
    top = factorial(n) * (-1j) ** n
    unit_table: dict[ChernIndex, float] = {}
    for index, (first, *rest) in _index_factors(n):
        product, degree = sigmas[first], first
        for k in rest:
            product, degree = _wedge(_shuffle(n, degree, k), product, sigmas[k]), degree + k
        unit_table[index] = float((product[0, 0] / top).real)
    shift = n * exponent
    with np.errstate(over="ignore"):  # past the double range a density is +-inf
        table = {index: float(np.ldexp(gamma, shift)) for index, gamma in unit_table.items()}
    return table, unit_table


def _require_dimension(n: int, *indices: ChernIndex) -> None:
    """DegreeError unless every index has dimension n."""
    if any(index.n != n for index in indices):
        raise DegreeError(f"index dimensions {[index.n for index in indices]} disagree with n = {n}")


def space_form_ratio(index_i: ChernIndex, index_j: ChernIndex) -> float:
    """Reference ratio for a complex space form: products of binomials C(n+1, k)."""
    n = index_i.n
    _require_dimension(n, index_j)
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
    largest |gamma| of the same table, a test that rescaling the tensor keeps,
    ResourceLimitError when a density of the table is not finite, and
    PreconditionError for an empty table.
    """
    if not densities:
        raise PreconditionError("the density table is empty")
    _require_dimension(next(iter(densities)).n, index_i, index_j)
    if not all(isfinite(gamma) for gamma in densities.values()):
        raise ResourceLimitError("a Chern density is not finite: the tensor exceeds double precision")
    denominator = densities[index_j]
    largest = max(abs(gamma) for gamma in densities.values())
    if abs(denominator) <= 1e-12 * largest:
        raise DegenerateDenominatorError(
            f"density gamma_{index_j} = {denominator!r} vanished relative to "
            f"the largest density {largest!r}"
        )
    return densities[index_i] / denominator


def chern_ratio(tensor: CurvatureTensor, index_i: ChernIndex, index_j: ChernIndex) -> float:
    """gamma_I / gamma_J; scale- and frame-independent.

    Read off the unit-scale table of `_density_tables`, so 2^k R has the
    ratio of R bit for bit, even where the densities of 2^k R themselves
    overflow or underflow.
    """
    _require_dimension(tensor.space.n, index_i, index_j)
    return density_ratio(_density_tables(tensor)[1], index_i, index_j)
