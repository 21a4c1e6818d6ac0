"""Kahler curvature tensors on the model space.

Covers the dense rank-4 representation, symmetry certification, the complex
hyperbolic model tensor, orthogonal projection onto the Kahler curvature
subspace, seeded sampling, sectional/holomorphic curvature evaluation, the
polarization identities that express sectional data through holomorphic
sectional values, the 24-term reconstruction of a tensor from its biquadratic,
and a plain-text file format.

A tensor R is Kahler when, for all X, Y, Z, W:

    (1) R(X,Y,Z,W) = -R(Y,X,Z,W) = -R(X,Y,W,Z)
    (2) R(Z,W,X,Y) =  R(X,Y,Z,W)
    (3) R(X,Y,Z,W) + R(X,W,Y,Z) + R(X,Z,W,Y) = 0
    (4) R(JX,JY,Z,W) = R(X,Y,JZ,JW) = R(X,Y,Z,W)
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import (
    DegeneratePlaneError,
    DegenerateSampleError,
    IdentityInconsistencyError,
    PreconditionError,
    SpaceMismatchError,
    TensorFormatError,
)
from .space import HermitianSpace, _norms, _seeded_normals, make_space

__all__ = [
    "DEFAULT_SYMMETRY_TOL",
    "SymmetryCertificate",
    "CurvatureTensor",
    "TwoPlane",
    "complex_hyperbolic_tensor",
    "symmetry_residuals",
    "check_kahler",
    "project_kahler",
    "random_kahler",
    "sectional",
    "holomorphic_sectional",
    "identity_one_residual",
    "reconstruct_from_sectional",
    "solve_sectional_from_H",
    "polarization_residuals",
    "distance",
    "tensor_to_text",
    "tensor_from_text",
    "write_tensor",
    "read_tensor",
    "TENSOR_LAYOUT",
]

DEFAULT_SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class SymmetryCertificate:
    """Max residuals of the four Kahler symmetry conditions over all basis tuples."""

    antisymmetry: float
    pair_exchange: float
    bianchi: float
    j_invariance: float
    tolerance: float
    passed: bool

    @property
    def max_residual(self) -> float:
        return max(self.antisymmetry, self.pair_exchange, self.bianchi, self.j_invariance)


def _pair_outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flattened outer products x (x) y over the last axis; leading axes broadcast."""
    xy = np.einsum("...i,...j->...ij", x, y)  # faster than a broadcast multiply on small rows
    return xy.reshape(xy.shape[:-2] + (xy.shape[-2] * xy.shape[-1],))


def _unbatched(value):
    """A Python float for a 0-d result (1-D arguments), the array otherwise."""
    value = np.asarray(value)
    return float(value) if value.ndim == 0 else value


def _evaluate(matrices: np.ndarray, x, y, z, w) -> np.ndarray:
    """R(x, y, z, w) = (x (x) y) . M . (z (x) w) for one pair matrix M (d^2, d^2) or
    a stack of them (T, 1, ..., d^2, d^2) whose axes broadcast against the
    arguments' leading axes: CurvatureTensor.evaluate's arithmetic with a tensor
    axis.

    The pair rows of arguments (..., k, d) meet M in one (k, d^2) @ (d^2, d^2)
    product per batch entry, whatever else shares the call, so every value
    is the one its tensor's evaluate gives on the same k rows.
    """
    return np.einsum("...p,...p->...", _pair_outer(x, y) @ matrices, _pair_outer(z, w))


def _biquadratic(matrices: np.ndarray, x, y) -> np.ndarray:
    """_evaluate(matrices, x, y, x, y) with x (x) y formed once and read on both
    sides of the product: the same rows, so the same values bit for bit."""
    xy = _pair_outer(x, y)
    return np.einsum("...p,...p->...", xy @ matrices, xy)


class CurvatureTensor:
    """Dense rank-4 coefficient table over the standard basis.

    `matrix` is the same table read as M[(i,j),(k,l)] = R_ijkl on index pairs,
    a read-only (d^2, d^2) view; every contraction of R with vectors goes
    through it.
    """

    __slots__ = ("space", "entries", "matrix", "certificate")

    def __init__(self, space: HermitianSpace, entries: np.ndarray):
        d = space.dim
        entries = np.asarray(entries, dtype=float)
        if entries.shape != (d, d, d, d):
            raise ValueError(f"expected shape {(d, d, d, d)}, got {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("tensor entries must be finite")
        entries = entries.copy()
        entries.flags.writeable = False
        self.space = space
        self.entries = entries
        self.matrix = entries.reshape(d * d, d * d)
        self.certificate: SymmetryCertificate | None = None

    @classmethod
    def _shared(
        cls, space: HermitianSpace, entries: np.ndarray, certificate: SymmetryCertificate | None
    ) -> "CurvatureTensor":
        """A tensor over read-only, finite (d, d, d, d) entries, not copied or checked again.

        The certificate is frozen and check_kahler sets it per tensor, so
        tensors that share entries stay independent.
        """
        d = space.dim
        tensor = cls.__new__(cls)
        tensor.space, tensor.entries = space, entries
        tensor.matrix = entries.reshape(d * d, d * d)
        tensor.certificate = certificate
        return tensor

    def evaluate(self, x, y, z, w) -> float | np.ndarray:
        """R(x, y, z, w) = (x (x) y) . M . (z (x) w); leading axes are batch axes.

        Returns a float for 1-D arguments and an array of the batch shape otherwise.
        """
        x, y, z, w = (np.asarray(a, dtype=float) for a in (x, y, z, w))
        return _unbatched(_evaluate(self.matrix, x, y, z, w))

    def biquadratic(self, a, b) -> float | np.ndarray:
        """Unnormalized K(a, b) = R(a, b, a, b), batched like evaluate.

        a (x) b is formed once, so the value is evaluate(a, b, a, b)'s bit for bit.
        """
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return _unbatched(_biquadratic(self.matrix, a, b))

    def frobenius_norm(self) -> float:
        return float(_frobenius(self.entries[None])[0])

    def scaled(self, factor: float) -> "CurvatureTensor":
        out = CurvatureTensor(self.space, self.entries * float(factor))
        c = self.certificate
        if c is not None and c.passed:
            # symmetries are linear: residuals and tolerance both scale with |factor|,
            # so the extremes of f R are f times those of R at any f
            s = abs(float(factor))
            fields = (c.antisymmetry, c.pair_exchange, c.bianchi, c.j_invariance, c.tolerance)
            out.certificate = SymmetryCertificate(*(x * s for x in fields), True)
        return out

    def __repr__(self) -> str:
        return f"CurvatureTensor(n={self.space.n}, |R|={self.frobenius_norm():.6g})"


def _unit(u: np.ndarray, message: str) -> np.ndarray:
    """u / |u|, with |u| free of overflow and underflow; a zero or non-finite |u| raises."""
    length = math.hypot(*u)
    if not 0.0 < length < math.inf:
        raise DegeneratePlaneError(message)
    return u / length


class TwoPlane:
    """A 2-plane, kept as the unit vectors u/|u| and v/|v| of its spanning vectors
    (not required orthogonal), so their lengths may be any finite nonzero value."""

    __slots__ = ("u", "v", "gram_determinant")

    def __init__(self, u, v):
        message = "spanning vectors must be finite and nonzero"
        self.u = u = _unit(np.asarray(u, dtype=float), message)
        self.v = v = _unit(np.asarray(v, dtype=float), message)
        gram = float(np.dot(u, u) * np.dot(v, v) - np.dot(u, v) ** 2)
        if gram <= 1e-12:
            raise DegeneratePlaneError("spanning vectors are numerically dependent")
        self.gram_determinant = gram

    def __repr__(self) -> str:
        return f"TwoPlane(gram={self.gram_determinant:.6g})"


# ---------------------------------------------------------------------------
# model tensor and symmetry checks
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _model_table(n: int) -> tuple[np.ndarray, SymmetryCertificate]:
    """R0's read-only entries at complex dimension n and their certificate at 1e-12."""
    space = make_space(n)
    g = space.metric
    jm = space.j_matrix
    entries = -0.25 * (
        np.einsum("ik,jl->ijkl", g, g)
        - np.einsum("il,jk->ijkl", g, g)
        + np.einsum("ik,jl->ijkl", jm, jm)
        - np.einsum("il,jk->ijkl", jm, jm)
        + 2.0 * np.einsum("ij,kl->ijkl", jm, jm)
    )
    tensor = CurvatureTensor(space, entries)
    return tensor.entries, check_kahler(tensor, 1e-12)


def complex_hyperbolic_tensor(space: HermitianSpace) -> CurvatureTensor:
    """Curvature tensor of complex hyperbolic space, holomorphic curvature -1.

    -4 R(u,v,z,w) = <u,z><v,w> - <u,w><v,z> + <u,Jz><v,Jw> - <u,Jw><v,Jz>
                    + 2 <u,Jv><z,Jw>

    Built and certified once per n: each call returns a new tensor over the
    same read-only entries, with the certificate at tolerance 1e-12.
    """
    entries, certificate = _model_table(space.n)
    return CurvatureTensor._shared(space, entries, certificate)


@lru_cache(maxsize=None)
def _j_kron(n: int) -> np.ndarray:
    """J (x) J at complex dimension n, read-only."""
    jm = make_space(n).j_matrix
    jj = np.kron(jm, jm)
    jj.flags.writeable = False
    return jj


_RESIDUAL_NAMES = ("antisymmetry", "pair_exchange", "bianchi", "j_invariance")


def symmetry_residuals(tensor: CurvatureTensor) -> dict[str, float]:
    """Max-abs residual of each symmetry condition by exhaustive basis enumeration."""
    return dict(zip(_RESIDUAL_NAMES, _symmetry_residuals(tensor.entries[None])[0].tolist()))


def _symmetry_residuals(entries: np.ndarray) -> np.ndarray:
    """symmetry_residuals of each table of a (B, d, d, d, d) stack, as (B, 4) in
    _RESIDUAL_NAMES order.

    (2) and (4) are read off the pair matrices M: pair exchange is M = M^T,
    and J-invariance is (J (x) J)^T M = M = M (J (x) J). J (x) J is a signed
    permutation, so these products are exact.
    """
    b, d = len(entries), entries.shape[-1]
    e, m = entries, entries.reshape(b, d * d, d * d)
    jj = _j_kron(d // 2)
    # |residual| of each condition, its two forms merged; one reduction for all four
    residuals = np.empty((4, b, d**4))
    tables, matrices = residuals.reshape(4, b, d, d, d, d), residuals.reshape(4, b, d * d, d * d)
    # entries near the double range overflow a sum to inf: a residual above every tolerance
    with np.errstate(over="ignore"):
        np.maximum(np.abs(e + e.transpose(0, 2, 1, 3, 4)), np.abs(e + e.transpose(0, 1, 2, 4, 3)), out=tables[0])
        np.abs(m - m.transpose(0, 2, 1), out=matrices[1])
        np.abs(e + e.transpose(0, 1, 4, 2, 3) + e.transpose(0, 1, 3, 4, 2), out=tables[2])
        np.maximum(np.abs(jj.T @ m - m), np.abs(m @ jj - m), out=matrices[3])
    return residuals.max(axis=2).T


def check_kahler(tensor: CurvatureTensor, tol: float = DEFAULT_SYMMETRY_TOL) -> SymmetryCertificate:
    """Compute the symmetry certificate from _symmetry_residuals at tol; attach
    it to the tensor when every residual is at most tol."""
    tol = float(tol)
    fields = _symmetry_residuals(tensor.entries[None])[0].tolist()
    cert = SymmetryCertificate(*fields, tol, all(v <= tol for v in fields))
    if cert.passed:
        tensor.certificate = cert
    return cert


def _unit_exponent(entries: np.ndarray):
    """The e that puts the largest |entry| of a (d, d, d, d) table times 2^-e in
    [1/2, 1); 0 for a zero table. A Python int for one table, an int array
    of the batch shape for a stack (..., d, d, d, d), from one np.frexp.

    Scaling by 2^-e (np.ldexp) is exact: work done at unit scale avoids the
    overflow and underflow of the table's own scale and loses nothing.
    """
    exponent = np.frexp(_largest(entries))[1]
    return int(exponent) if exponent.ndim == 0 else exponent


def _largest(entries: np.ndarray) -> np.ndarray:
    """max |R_ijkl| of each table of a stack (..., d, d, d, d)."""
    return np.abs(entries).reshape(entries.shape[:-4] + (-1,)).max(axis=-1)


def _relative_tolerance(entries: np.ndarray):
    """DEFAULT_SYMMETRY_TOL times the entry scale max(1, max |R_ijkl|), per table
    of a stack (..., d, d, d, d): a float for one table."""
    return _unbatched(DEFAULT_SYMMETRY_TOL * np.maximum(1.0, _largest(entries)))


def require_certified(tensor: CurvatureTensor) -> CurvatureTensor:
    """Certify on demand; raise if the tensor is not Kahler.

    The tolerance is DEFAULT_SYMMETRY_TOL times the entry scale
    max(1, max |R_ijkl|): the residuals are linear in R, so f R passes
    whenever R does, as `scaled` keeps a certificate. `project_kahler`
    certifies by the same rule; `check_kahler` and tensor files keep their
    absolute tolerance.
    """
    if tensor.certificate is None or not tensor.certificate.passed:
        cert = check_kahler(tensor, _relative_tolerance(tensor.entries))
        if not cert.passed:
            raise PreconditionError(
                f"tensor is not Kahler at tolerance {cert.tolerance:g} "
                f"(max residual {cert.max_residual:.3e})"
            )
    return tensor


def _certified_stack(tensors) -> np.ndarray:
    """The entries of tensors over one space, each put through require_certified in
    order, as one read-only (B, d, d, d, d) stack: what the stacked layers take."""
    stack = np.array([require_certified(tensor).entries for tensor in tensors])
    stack.flags.writeable = False
    return stack


# ---------------------------------------------------------------------------
# projection onto the Kahler curvature subspace
# ---------------------------------------------------------------------------


# _PAIR_UNITARY has columns eps_a = (e_{2a} - i J e_{2a}) / sqrt(2) and conj eps_a
# on the pair (e_{2a}, e_{2a+1}). Of the 16 slot types of its fourfold Kronecker
# power (bit set = conj eps), a Kahler tensor lives on the four (1,1)x(1,1) blocks
# 0b0101 = (eps, conj eps, eps, conj eps), 0b1001, 0b0110 and 0b1010. Block k holds
# _BLOCK_SIGNS[k] * S.transpose(_BLOCK_AXES[k]) (axis 0 is the batch axis), where
# S_{abcd} = R(eps_a, conj eps_b, eps_c, conj eps_d). _BLOCK_EMBED maps the four
# block values of an index tuple back to its 16 slot types; _BLOCK_READ is
# block 0's column as [Re | Im].
_PAIR_UNITARY = np.array([[1.0, 1.0], [-1j, 1j]]) / math.sqrt(2.0)
_BLOCK_BASIS = reduce(np.kron, [_PAIR_UNITARY] * 4)[:, [0b0101, 0b1001, 0b0110, 0b1010]]
_BLOCK_EMBED = _BLOCK_BASIS.conj().T
_BLOCK_READ = np.stack([_BLOCK_BASIS[:, 0].real, _BLOCK_BASIS[:, 0].imag], axis=1)
_BLOCK_AXES = ((0, 1, 2, 3, 4), (0, 2, 1, 3, 4), (0, 1, 2, 4, 3), (0, 2, 1, 4, 3))
_BLOCK_SIGNS = (1.0, -1.0, -1.0, 1.0)


def _kahler_coordinates(entries: np.ndarray) -> np.ndarray:
    """S_{abcd} = R(eps_a, conj eps_b, eps_c, conj eps_d) of each table of a
    (B, d, d, d, d) stack, as (B, n, n, n, n).

    Block 0 of the unitary basis change: one real (n^4, 16) by (16, 2) GEMM
    of the pair rows per table, stacked, read as complex (a complex GEMV,
    which OpenBLAS threads, stalled some processes at about 8 ms a call).
    """
    b, n = len(entries), entries.shape[-1] // 2
    # rows: index tuples a, b, c, d; columns: the pair bits of the four slots
    pairs = entries.reshape((b,) + (n, 2) * 4).transpose(0, 1, 3, 5, 7, 2, 4, 6, 8).reshape(b, n**4, 16)
    return (pairs @ _BLOCK_READ).view(complex).reshape((b,) + (n,) * 4)


def project_kahler(tensor, space: HermitianSpace | None = None) -> CurvatureTensor:
    """Orthogonal projection of an arbitrary rank-4 table onto the Kahler subspace.

    Closed form (Besse, Einstein Manifolds, ch. 2): in the unitary basis
    (eps, conj eps) a Kahler tensor vanishes off four (1,1)x(1,1) blocks, which
    hold +-S for one S symmetric in (a, c) and in (b, d). Averaging the signed
    blocks, symmetrizing and re-embedding are orthogonal projections in that
    basis, so their composite with the unitary basis change is one too. The
    result is certified at `require_certified`'s tolerance, relative to its
    entry scale, so a projection keeps its certificate at any scale.
    """
    if isinstance(tensor, CurvatureTensor):
        space = tensor.space
        raw = tensor.entries
    else:
        if space is None:
            raise ValueError("space required when projecting a raw array")
        raw = CurvatureTensor(space, tensor).entries  # checks shape and finiteness
    out = CurvatureTensor(space, _projection(raw[None])[0])
    check_kahler(out, _relative_tolerance(out.entries))
    return out


def _projection(raw: np.ndarray) -> np.ndarray:
    """project_kahler of each checked table of a (B, d, d, d, d) stack, uncertified.

    Every product is one per table, stacked, so each table's projection is
    its batch-of-one value bit for bit.
    """
    b, d = len(raw), raw.shape[-1]
    n = d // 2
    # at unit scale (exact) the sums below, up to 8 entries, stay finite
    exponent = _unit_exponent(raw).reshape(b, 1, 1, 1, 1)
    raw = np.ldexp(raw, -exponent)
    # the signed blocks of raw sum to block 0 of its pair-antisymmetric part times 4
    raw = raw - raw.transpose(0, 2, 1, 3, 4)
    s = _kahler_coordinates(raw - raw.transpose(0, 1, 2, 4, 3))
    s = (s + s.transpose(0, 3, 2, 1, 4)) / 8.0  # the mean of four blocks, symmetrized in (a, c)
    s = (s + s.transpose(0, 1, 4, 3, 2)) / 2.0
    blocks = np.empty(s.shape + (4,), dtype=complex)
    for k, (axes, sign) in enumerate(zip(_BLOCK_AXES, _BLOCK_SIGNS)):
        np.multiply(s.transpose(axes), sign, out=blocks[..., k])
    pairs = (blocks.reshape(b, n**4, 4) @ _BLOCK_EMBED).real
    entries = pairs.reshape((b,) + (n,) * 4 + (2,) * 4).transpose(0, 1, 5, 2, 6, 3, 7, 4, 8)
    return np.ldexp(entries.reshape((b,) + (d,) * 4), exponent)


def random_kahler(
    space: HermitianSpace, seed: int, frobenius_norm: float = 1.0
) -> CurvatureTensor:
    """Seeded random Kahler tensor of prescribed Frobenius norm, with the projection's certificate.

    The seed's normal table is projected, certified by check_kahler at
    project_kahler's relative tolerance, then scaled to the prescribed norm.
    """
    if not 0 < frobenius_norm < math.inf:
        raise PreconditionError(f"frobenius_norm must be positive and finite, got {frobenius_norm}")
    projected, norms = _random_projection(space, [seed])
    (norm,) = norms.tolist()
    _require_nondegenerate(seed, norm)
    tensor = CurvatureTensor._shared(space, projected[0], None)
    check_kahler(tensor, _relative_tolerance(tensor.entries))
    return tensor.scaled(frobenius_norm / norm)


def _random_projection(space: HermitianSpace, seeds) -> tuple[np.ndarray, np.ndarray]:
    """The uncertified projections of the seeded normal tables, read-only as
    (B, d, d, d, d), and their Frobenius norms (B,). random_kahler scales
    each by its norm to the prescribed one."""
    d = space.dim
    raw = np.empty((len(seeds), d, d, d, d))
    _seeded_normals(seeds, raw)
    projected = _projection(raw)
    projected.flags.writeable = False
    return projected, _frobenius(projected)


def _require_nondegenerate(seed: int, norm: float) -> None:
    """DegenerateSampleError when the seed's projection, of Frobenius norm `norm`, is zero."""
    if norm < 1e-12:
        raise DegenerateSampleError(f"seed {seed} projected to zero; retry with another seed")


# ---------------------------------------------------------------------------
# curvature evaluation
# ---------------------------------------------------------------------------


def sectional(tensor: CurvatureTensor, plane: TwoPlane) -> float:
    """Sectional curvature of the plane: R(u,v,u,v) normalized by the Gram determinant."""
    return tensor.biquadratic(plane.u, plane.v) / plane.gram_determinant


def holomorphic_sectional(tensor: CurvatureTensor, u) -> float:
    """Sectional curvature of span(u, Ju): R(u,Ju,u,Ju) / |u|^4, evaluated at u/|u|."""
    u = _unit(np.asarray(u, dtype=float), "a zero or non-finite vector has no holomorphic plane")
    return tensor.biquadratic(u, tensor.space.j(u)) / float(np.dot(u, u)) ** 2


def _require_finite_pair(u, v) -> None:
    # NaN fails every comparison, so the later tolerance tests cannot catch it
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise PreconditionError("u and v must be finite")


def _require_unitary_quadruple(space: HermitianSpace, u, v, tol: float = 1e-8):
    _require_finite_pair(u, v)
    jt = space.j_matrix.T
    vectors = np.stack([u, u @ jt, v, v @ jt], axis=-1)
    gram = np.swapaxes(vectors, -1, -2) @ vectors
    if np.max(np.abs(gram - np.eye(4))) > tol:
        raise PreconditionError("{u, Ju, v, Jv} must be orthonormal")


def _stacked_direct_triple(matrices: np.ndarray, j_matrix: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(K(u,v), K(u,Jv), R(u,Ju,v,Jv)) by direct contraction along a last axis
    of 3, for pair matrices that broadcast as _evaluate's against the batch
    axes of u and v (..., d): one (3, d^2) product per sample."""
    jt = j_matrix.T
    ju, jv = u @ jt, v @ jt
    slots = ([u, u, u], [v, jv, ju], [u, u, v], [v, jv, jv])
    return _evaluate(matrices, *(np.stack(slot, axis=-2) for slot in slots))


def identity_one_residual(tensor: CurvatureTensor, u, v):
    """Residual of K(u,v) + K(u,Jv) - R(u,Ju,v,Jv); zero for Kahler tensors.

    u and v of one shape (..., d): leading axes are batch axes, as in the
    polarization identities below, and 1-D arguments give a float.
    """
    _require_unitary_quadruple(tensor.space, u, v)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    values = _stacked_direct_triple(tensor.matrix, tensor.space.j_matrix, u, v)
    return _unbatched(values[..., 0] + values[..., 1] - values[..., 2])


def reconstruct_from_sectional(k_oracle, space: HermitianSpace) -> CurvatureTensor:
    """Rebuild a tensor with symmetries (1)-(3) from its raw biquadratic K(a,b) = R(a,b,a,b).

    24 R(x,y,z,t) = P(x,z;y,t) - P(x,t;y,z),
    P(x,z;y,t) = K(x+z,y+t) + K(x-z,y-t) - K(x+z,y-t) - K(x-z,y+t).

    On basis vectors every argument is 0 or, up to sign, one of the d^2
    vectors e_i + e_k (i <= k) and e_i - e_k (i < k). The oracle must satisfy
    K(a,b) = K(b,a) = K(-a,b), as R(a,b,a,b) does under (1), and take leading
    batch axes as CurvatureTensor.biquadratic does: one call gets every
    unordered pair of those vectors as the rows of two arrays, in a fixed
    order. K(0, .) = 0 is a padding row of the table. The oracle consumes
    unnormalized biquadratic values; the arguments are not unit vectors.
    The two arrays and the index tables of the gathers are built once per
    dimension and are read-only: the oracle must not write to its arguments.
    """
    d = space.dim
    first, second, p, q, gathers = _reconstruction_tables(d)
    table = np.zeros((d * d + 1, d * d + 1))
    table[p, q] = table[q, p] = k_oracle(first, second)
    plus_plus, minus_minus, plus_minus, minus_plus = table.take(gathers)
    # P(e_i, e_k; e_j, e_l) at [i, k, j, l]
    pair = (plus_plus + minus_minus - plus_minus - minus_plus).reshape(d, d, d, d)
    return CurvatureTensor(space, (pair.transpose(0, 2, 1, 3) - pair.transpose(0, 2, 3, 1)) / 24.0)


@lru_cache(maxsize=None)
def _reconstruction_tables(d: int) -> tuple[np.ndarray, ...]:
    """reconstruct_from_sectional's index tables at real dimension d, read-only:
    the oracle's two argument arrays, the (p, q) of the table entry each row
    fills, and the flat table indices of the four terms of P, (4, d^2, d^2)."""
    eye = np.eye(d)
    i, k = np.divmod(np.arange(d * d), d)
    low, high = np.minimum(i, k), np.maximum(i, k)
    # vector i*d + k is e_i + e_k for i <= k and e_k - e_i for i > k
    vectors = eye[low] + np.where(i <= k, 1.0, -1.0)[:, None] * eye[high]
    plus = low * d + high  # e_i + e_k
    minus = np.where(i == k, d * d, high * d + low)  # +-(e_i - e_k), or the padding row
    p, q = np.triu_indices(d * d)
    # K(x+z, y+t), K(x-z, y-t), K(x+z, y-t) and K(x-z, y+t) of P, in that order
    terms = [(plus, plus), (minus, minus), (plus, minus), (minus, plus)]
    gathers = np.array([rows[:, None] * (d * d + 1) + columns for rows, columns in terms])
    tables = (vectors[p], vectors[q], p, q, gathers)
    for array in tables:
        array.flags.writeable = False
    return tables


# ---------------------------------------------------------------------------
# polarization identities
# ---------------------------------------------------------------------------
#
# For any u, v and a^2 + b^2 = 1, a Kahler tensor satisfies
#
#   H(au+bv)  + H(au-bv)  = 2a^4 H(u) + 2b^4 H(v) + 12 a^2b^2 R(u,Ju,v,Jv)
#                           - 8 a^2b^2 K(u,v)
#   H(au+bJv) + H(au-bJv) = 2a^4 H(u) + 2b^4 H(v) + 12 a^2b^2 R(u,Ju,v,Jv)
#                           - 8 a^2b^2 K(u,Jv)
#
# where H and K are unnormalized biquadratics. The second line is the image
# of the first under v -> Jv together with J-invariance; a circulating
# variant prints its last coefficient as -a^2b^2 instead of -8a^2b^2, which
# is falsified by the model tensor (experiments.identity_suite fits the
# coefficient by least squares on its samples and lands on -8).
# Together with K(u,v) + K(u,Jv) - R(u,Ju,v,Jv) = 0 these give a 3x3 system
# for (K(u,v), K(u,Jv), R(u,Ju,v,Jv)) in terms of six H-values.
# Every function here takes leading batch axes on u, v (one shape), a and b,
# and gives floats for 1-D u and v with scalar a and b.

SECOND_IDENTITY_COEFF = -8.0
SECOND_IDENTITY_COEFF_PRINTED = -1.0


def _polarization_system(a: float, b: float) -> np.ndarray:
    ab2 = a * a * b * b
    return np.array(
        [
            [-8.0 * ab2, 0.0, 12.0 * ab2],
            [0.0, -8.0 * ab2, 12.0 * ab2],
            [1.0, 1.0, -1.0],
        ]
    )


def _stacked_holomorphic_sides(
    matrices: np.ndarray, j_matrix: np.ndarray, u: np.ndarray, v: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """H(au+bv) + H(au-bv) and H(au+bJv) + H(au-bJv), each less 2a^4 H(u) + 2b^4 H(v),
    for pair matrices that broadcast as _evaluate's against the batch axes of
    u and v (..., d), a and b.

    H(w) = R(w,Jw,w,Jw) is unnormalized; all six values come from one
    (6, d^2) product per sample.
    """
    jt = j_matrix.T
    au, bv, bjv = a[..., None] * u, b[..., None] * v, b[..., None] * (v @ jt)
    w = np.stack(np.broadcast_arrays(u, v, au + bv, au - bv, au + bjv, au - bjv), axis=-2)
    jw = w @ jt
    h = _biquadratic(matrices, w, jw)
    base = 2 * a**4 * h[..., 0] + 2 * b**4 * h[..., 1]
    return h[..., 2] + h[..., 3] - base, h[..., 4] + h[..., 5] - base


# a = b at which solve_sectional_from_H reads the holomorphic sides
_DIAGONAL = 1.0 / math.sqrt(2.0)


def solve_sectional_from_H(tensor: CurvatureTensor, u, v) -> tuple:
    """Recover (K(u,v), K(u,Jv), R(u,Ju,v,Jv)) from six holomorphic sectional values.

    Requires {u, Ju, v, Jv} orthonormal so that the combined vectors at
    a = b = 1/sqrt(2) are unit and the H-values are holomorphic sectional
    curvatures.
    """
    _require_unitary_quadruple(tensor.space, u, v)
    u, v, diagonal = np.asarray(u, dtype=float), np.asarray(v, dtype=float), np.asarray(_DIAGONAL)
    sides = _stacked_holomorphic_sides(tensor.matrix, tensor.space.j_matrix, u, v, diagonal, diagonal)
    solution = _solve_diagonal_sides(*sides)
    return tuple(_unbatched(solution[..., k]) for k in range(3))


def _solve_diagonal_sides(first, second) -> np.ndarray:
    """solve_sectional_from_H's triple along a last axis of 3, from the holomorphic
    sides at a = b = 1/sqrt(2): one 3x3 solve per sample."""
    rhs = np.stack([first, second, np.zeros_like(first)], axis=-1)
    # the system at a = b has determinant 8
    solution = np.linalg.solve(_polarization_system(_DIAGONAL, _DIAGONAL), rhs[..., None])[..., 0]
    if not np.all(np.isfinite(solution)):
        raise IdentityInconsistencyError("polarization system produced non-finite values")
    return solution


def polarization_residuals(tensor: CurvatureTensor, u, v, a, b) -> dict:
    """Residuals of both polarization identities at (a, b), plus the printed
    variant of the second identity's last coefficient (informational)."""
    _require_finite_pair(u, v)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    matrix, jmat = tensor.matrix, tensor.space.j_matrix
    sides = _stacked_holomorphic_sides(matrix, jmat, u, v, a, b)
    residuals = _polarization_terms(_stacked_direct_triple(matrix, jmat, u, v), *sides, a, b)[0]
    return {key: _unbatched(value) for key, value in residuals.items()}


def _polarization_terms(direct: np.ndarray, first, second, a, b) -> tuple[dict, np.ndarray, np.ndarray]:
    """polarization_residuals as arrays, from the direct triple (..., 3) and the
    holomorphic sides at (a, b), with the least-squares pair of the second
    identity's last coefficient: its sides less 12 a^2b^2 R(u,Ju,v,Jv), and the
    regressor a^2b^2 K(u,Jv)."""
    k_uv, k_ujv, r = (direct[..., k] for k in range(3))
    ab2 = a * a * b * b
    first, second = (side - 12 * ab2 * r for side in (first, second))
    residuals = {
        "first": abs(first - SECOND_IDENTITY_COEFF * ab2 * k_uv),
        "second": abs(second - SECOND_IDENTITY_COEFF * ab2 * k_ujv),
        "second_printed": abs(second - SECOND_IDENTITY_COEFF_PRINTED * ab2 * k_ujv),
    }
    return residuals, second, ab2 * k_ujv


def distance(first: CurvatureTensor, second: CurvatureTensor) -> float:
    """Frobenius distance of entry tables (the induced norm in the orthonormal basis)."""
    if first.space != second.space:
        raise SpaceMismatchError("tensors live over different spaces")
    return float(_distances(first.entries[None], second.entries)[0])


def _distances(entries: np.ndarray, other: np.ndarray) -> np.ndarray:
    """distance from each table of a (B, d, d, d, d) stack to one (d, d, d, d) table,
    each difference taken at the unit scale of its larger table."""
    exponent = np.maximum(_unit_exponent(entries), _unit_exponent(other))
    scale = -exponent.reshape(-1, 1, 1, 1, 1)
    return _frobenius(np.ldexp(entries, scale) - np.ldexp(other, scale), exponent)


def _frobenius(entries: np.ndarray, shift=0) -> np.ndarray:
    """2^shift times the Frobenius norm of each table of a (B, d, d, d, d) stack,
    summed at unit scale (`_unit_exponent`) by one BLAS dot per table
    (`space._norms`), the dot of np.linalg.norm.

    The largest square is below 1, so none overflows, and the scalings are
    exact: the result equals the plain norm wherever that neither overflows
    nor underflows, and is inf only when the norm exceeds the double range.
    """
    b = len(entries)
    exponent = _unit_exponent(entries)
    rows = np.ldexp(entries, -exponent.reshape(b, 1, 1, 1, 1)).reshape(b, -1)
    norms = _norms(rows)
    with np.errstate(over="ignore"):  # past the double range
        return np.ldexp(norms, exponent + shift)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

TENSOR_LAYOUT = "row-major i,j,k,l ascending, 1-based indices mapped to 0-based storage"
_FORMAT_VERSION = 1


def _float17(x: float) -> str:
    return format(float(x), ".17g")


def _json_int(text: str) -> int | float:
    # _float17 writes -0.0 as "-0"; read it back as the float it was
    return -0.0 if text == "-0" else int(text)


def tensor_to_text(tensor: CurvatureTensor, symmetry_tolerance: float = DEFAULT_SYMMETRY_TOL) -> str:
    """Serialize to the JSON tensor file format (17 significant digits, exact round-trip).

    PreconditionError for a tolerance that `tensor_from_text` would reject.
    """
    if not 0 < symmetry_tolerance <= sys.float_info.max:
        raise PreconditionError(f"symmetry_tolerance must be a positive finite number, got {symmetry_tolerance!r}")
    entries = ", ".join(_float17(x) for x in tensor.entries.ravel())
    return (
        "{\n"
        f'  "format_version": {_FORMAT_VERSION},\n'
        f'  "n": {tensor.space.n},\n'
        f'  "layout": {json.dumps(TENSOR_LAYOUT)},\n'
        f'  "symmetry_tolerance": {_float17(symmetry_tolerance)},\n'
        f'  "entries": [{entries}]\n'
        "}\n"
    )


def tensor_from_text(text: str) -> tuple[CurvatureTensor, float]:
    """Parse the tensor file format; returns (tensor, symmetry_tolerance)."""
    try:
        obj = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise TensorFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise TensorFormatError("top-level object must be a mapping")
    for field in ("format_version", "n", "layout", "symmetry_tolerance", "entries"):
        if field not in obj:
            raise TensorFormatError(f"missing field {field!r}")
    if obj["format_version"] != _FORMAT_VERSION:
        raise TensorFormatError(f"unsupported format_version {obj['format_version']!r}")
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise TensorFormatError(f"n must be a positive integer, got {n!r}")
    entries = obj["entries"]
    d = 2 * n
    if not isinstance(entries, list) or len(entries) != d**4:
        raise TensorFormatError(
            f"entries must be a flat list of {d**4} numbers, got length "
            f"{len(entries) if isinstance(entries, list) else 'non-list'}"
        )
    if not all(isinstance(e, (int, float)) and not isinstance(e, bool) for e in entries):
        raise TensorFormatError("entries must be real numbers (not lists, strings or booleans)")
    try:
        array = np.asarray(entries, dtype=float).reshape((d, d, d, d))
    except OverflowError as exc:
        raise TensorFormatError(f"entries are not representable as floats: {exc}") from exc
    if not np.all(np.isfinite(array)):
        raise TensorFormatError("entries must be finite")
    tol = obj["symmetry_tolerance"]
    is_number = isinstance(tol, (int, float)) and not isinstance(tol, bool)
    if not is_number or not 0 < tol <= sys.float_info.max:
        raise TensorFormatError(f"symmetry_tolerance must be a positive finite number, got {tol!r}")
    return CurvatureTensor(make_space(n), array), float(tol)


def write_tensor(path, tensor: CurvatureTensor, symmetry_tolerance: float = DEFAULT_SYMMETRY_TOL):
    text = tensor_to_text(tensor, symmetry_tolerance)  # before open, so a bad tolerance leaves no file
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def read_tensor(path) -> tuple[CurvatureTensor, float]:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise TensorFormatError(f"not ASCII text: {exc}") from exc
    return tensor_from_text(text)
