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

One pass computes the forms at unit scale 2^-e R (`curvature._unit_exponent`)
and checks them: `chern_forms` scales c_k back by 2^(k e), and
`chern_densities` evaluates every product c_1^{a_1} ^ ... ^ c_n^{a_n} and
scales the densities back by 2^(n e). Each scaling is exact while its
results stay normal doubles. `chern_ratio` reads the unit-scale table, so
2^k R has the ratios of R bit for bit even where its own forms and densities
leave the double range. `reference_constants` is read off the table, and
`density_ratio` divides two entries of one.

The pass runs over a Kahler stack of entry tables, (B, d, d, d, d): either
certified from tensor objects by `curvature._certified_stack`, or a sweep or
certification chunk, which is Kahler by construction. `_unit_forms` and
`_density_tables` carry its batch axis through the reality check, the
Newton recursion (`forms._wedge` with "zabij,zbckl->zacikjl") and the index
products, and give one (B, P) table per stack. Every product is one per
tensor, stacked, never one GEMM over the stack, so each tensor's table is
its batch-of-one table bit for bit; `chern_forms`, `chern_densities` and
`chern_ratio` are that batch of one. A stack runs in groups whose wedge
tables fit `_STACK_BYTES`.
`_ratio_rows` divides columns of a (B, P) table with `density_ratio`'s
checks, made once per row; `density_ratio` is its one-row case.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .curvature import (
    CurvatureTensor,
    _certified_stack,
    _kahler_coordinates,
    _unit_exponent,
    complex_hyperbolic_tensor,
)
from .errors import (
    DegenerateDenominatorError,
    DegreeError,
    IdentityInconsistencyError,
    PreconditionError,
    ResourceLimitError,
)
from .forms import _shuffle, _wedge
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

# A stacked density pass runs in groups whose largest table, Omega^p ^ Omega
# before its shuffle (n^4 C(n, p)^2 complex entries per tensor), stays within
# this many bytes: at n = 6 an 8-tensor pass took 124 MB more peak RSS than one
# tensor at a time, and a 64-sample chunk would take about 1 GB. Every product
# is one per tensor, so the grouping changes no result.
_STACK_BYTES = 1 << 21

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


def curvature_matrix(tensor: CurvatureTensor) -> np.ndarray:
    """Omega_ab = R(., ., eps_a, conj eps_b) = sum_{c,d} S_{cdab} theta^c ^ conj theta^d.

    Shape (n, n, n, n): Omega[a, b] is the (1,1) matrix (`forms`) S[:, :, a, b].
    Read off S, the forms are the (1,1) part of R(., ., eps_a, conj eps_b): all
    of it when R is Kahler.
    """
    return _kahler_coordinates(_certified_stack([tensor]))[0].transpose(2, 3, 0, 1)


def chern_forms(tensor: CurvatureTensor) -> list[np.ndarray]:
    """Chern forms c_0, ..., c_n: c_k is a (C(n, k), C(n, k)) complex matrix (`forms`).

    Computed and checked to be real forms at unit scale (`_unit_forms`), then
    scaled back by 2^(k e). ResourceLimitError when a form leaves the double
    range: c_k scales as |R|^k.
    """
    exponents, sigmas = _unit_forms(_certified_stack([tensor]))
    exponent = int(exponents[0])
    with np.errstate(over="ignore"):  # checked below
        # ldexp on the float view scales real and imaginary parts exactly
        forms = [np.ldexp(sigma[0].view(float), k * exponent).view(complex) for k, sigma in enumerate(sigmas)]
    if not all(np.all(np.isfinite(form)) for form in forms):
        raise ResourceLimitError("a Chern form is not finite: the tensor exceeds double precision")
    return forms


def _unit_forms(entries: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """e = curvature._unit_exponent(R) of each table R of a Kahler
    (B, d, d, d, d) stack, and c_0, ..., c_n of each 2^-e R: sigmas[k] stacks
    the tables' (k, k) matrices, shape (B, C(n, k), C(n, k)).

    That scaling is exact and keeps every symmetry, so R's certificate holds
    for 2^-e R, and 2^k R has the unit forms of R bit for bit. Its entries are
    below 1, so no product overflows, and each form is checked to be real,
    conj c_k = c_k, up to REALITY_TOL relative to max(1, |c_k|): the verdict
    does not depend on the scale of R. Every product is one per tensor,
    stacked, so each tensor's forms are its batch-of-one forms bit for bit;
    the first tensor with a form that is not real raises.
    """
    b, n = len(entries), entries.shape[-1] // 2
    exponents = _unit_exponent(entries)
    # Omega_ab is the (1,1) matrix S[:, :, a, b]
    omega = _kahler_coordinates(np.ldexp(entries, -exponents.reshape(-1, 1, 1, 1, 1))).transpose(0, 3, 4, 1, 2)
    normalized = omega * (1j / (2.0 * np.pi))
    # traces of the wedge powers, (M Omega)_ac = sum_b M_ab ^ Omega_bc
    traces = [normalized.trace(axis1=1, axis2=2)]
    current = normalized
    for p in range(1, n):
        current = _wedge(_shuffle(n, p, 1), current, normalized, "zabij,zbckl->zacikjl")
        traces.append(current.trace(axis1=1, axis2=2))
    # Newton's identities: k sigma_k = sum_{j=1..k} (-1)^{j-1} sigma_{k-j} ^ p_j,
    # where the last term is sigma_0 ^ p_k = p_k
    sigmas = [np.ones((b, 1, 1), dtype=complex)]
    for k in range(1, n + 1):
        terms = [_wedge(_shuffle(n, k - j, j), sigmas[k - j], traces[j - 1]) for j in range(1, k)] + [traces[k - 1]]
        sigmas.append(sum(term * (-1) ** j for j, term in enumerate(terms)) / k)
    # a real (k, k) form F has conj F = (-1)^k F^H, and c_0 = 1 is real; a residue up
    # to REALITY_TOL passes at any scale, a larger one is held to REALITY_TOL max(1, |c_k|)
    residues = np.array(
        [
            np.abs(sigma - (-1) ** k * sigma.conj().transpose(0, 2, 1)).reshape(b, -1).max(axis=1)
            for k, sigma in enumerate(sigmas[1:], 1)
        ]
    ) / 2.0
    for i, row in zip(*np.nonzero(residues.T > REALITY_TOL)):  # tensor by tensor, degree by degree
        k = int(row) + 1
        sigma = sigmas[k][i]
        conjugate = (-1) ** k * sigma.conj().T
        if residues[row, i] > REALITY_TOL * max(1.0, np.max(np.abs(sigma + conjugate)) / 2.0):
            with np.errstate(over="ignore"):  # reported at the scale of R, inf past the double range
                residue = np.ldexp(residues[row, i], k * int(exponents[i]))
            raise PreconditionError(
                f"Chern form c_{k} has imaginary residue {residue:.3e}; "
                "input tensor is not Kahler enough"
            )
    return exponents, sigmas


def chern_densities(tensor: CurvatureTensor) -> dict[ChernIndex, float]:
    """Density of c_1^{a_1} ^ ... ^ c_n^{a_n} relative to omega^n, for every index.

    Computed at unit scale and scaled back exactly (`_density_tables`): a
    density beyond the double range is +-inf, or underflows towards 0.0.
    """
    return _density_dicts(tensor)[0]


def _density_dicts(tensor: CurvatureTensor) -> tuple[dict[ChernIndex, float], dict[ChernIndex, float]]:
    """The two tables of `_density_tables` for one tensor, keyed by index."""
    table, unit = _density_tables(_certified_stack([tensor]))
    indices = [index for index, _ in _index_factors(tensor.space.n)]
    return dict(zip(indices, table[0].tolist())), dict(zip(indices, unit[0].tolist()))


def _density_tables(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """chern_densities of each table R of a Kahler (B, d, d, d, d) stack, and
    its unit-scale table: the densities of 2^-e R, from the forms of
    `_unit_forms`. Both are (B, P) arrays, columns in enumerate_indices order.

    2^k R has the unit table of R bit for bit. R's densities are the unit
    ones times 2^(n e), which is exact as long as they stay normal doubles.
    """
    n = entries.shape[-1] // 2
    size = max(1, _STACK_BYTES // (16 * n**4 * comb(n, n // 2) ** 2))
    if len(entries) > size:
        groups = (_density_tables(entries[start : start + size]) for start in range(0, len(entries), size))
        tables, units = zip(*groups)
        return np.concatenate(tables), np.concatenate(units)
    exponents, sigmas = _unit_forms(entries)
    # omega^n = n! (-i)^n prod_c theta^c ^ conj theta^c, the top basis form
    top = factorial(n) * (-1j) ** n
    tops = []
    for _, (first, *rest) in _index_factors(n):
        product, degree = sigmas[first], first
        for k in rest:
            product, degree = _wedge(_shuffle(n, degree, k), product, sigmas[k]), degree + k
        tops.append(product[:, 0, 0])
    unit = (np.array(tops).T / top).real
    with np.errstate(over="ignore"):  # past the double range a density is +-inf
        table = np.ldexp(unit, n * exponents[:, None])
    return table, unit


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


def reference_constants(n: int) -> dict[ChernIndex, float]:
    """Densities gamma_I of the complex hyperbolic model tensor, all indices.

    Cross-checked internally: every pairwise ratio must match the space-form
    binomial formula. The table is computed once per n; each call returns a
    fresh copy of it, so a caller that changes its dict changes no later one.
    """
    return dict(_reference_table(n))


@lru_cache(maxsize=None)
def _reference_table(n: int) -> dict[ChernIndex, float]:
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
    indices = list(densities)
    column = {index: c for c, index in enumerate(indices)}
    table = np.array([list(densities.values())], dtype=float)
    return float(_ratio_rows(table, indices, [column[index_i]], [column[index_j]])[0, 0])


def _ratio_rows(table: np.ndarray, indices, numerators, denominators) -> np.ndarray:
    """gamma_I / gamma_J of each row of a (B, P) density table, as (B, Q), for
    the column pairs (numerators[q], denominators[q]); indices names the columns.

    Each row is checked once, as density_ratio checks its table: the first
    failing row, and in it the first failing pair, raises density_ratio's
    error, ResourceLimitError for a density that is not finite before
    DegenerateDenominatorError.
    """
    largest = np.abs(table).max(axis=1, keepdims=True)  # inf or nan when a density is not finite
    denominator = table[:, denominators]
    # no pair of a table that is not finite passes
    passed = np.abs(denominator) > 1e-12 * largest
    if not passed.all():
        row = int(np.argmin(passed.all(axis=1)))
        if not np.isfinite(largest[row, 0]):
            raise ResourceLimitError("a Chern density is not finite: the tensor exceeds double precision")
        q = int(np.argmin(passed[row]))
        raise DegenerateDenominatorError(
            f"density gamma_{indices[denominators[q]]} = {float(denominator[row, q])!r} vanished relative to "
            f"the largest density {float(largest[row, 0])!r}"
        )
    return table[:, numerators] / denominator


def chern_ratio(tensor: CurvatureTensor, index_i: ChernIndex, index_j: ChernIndex) -> float:
    """gamma_I / gamma_J; scale- and frame-independent.

    Read off the unit-scale table of `_density_tables`, so 2^k R has the
    ratio of R bit for bit, even where the densities of 2^k R themselves
    overflow or underflow.
    """
    _require_dimension(tensor.space.n, index_i, index_j)
    return density_ratio(_density_dicts(tensor)[1], index_i, index_j)
