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
import threading
from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegeneratePlaneError,
    DegenerateSampleError,
    IdentityInconsistencyError,
    PreconditionError,
    ResourceLimitError,
    SpaceMismatchError,
    TensorFormatError,
)
from .space import HermitianSpace, make_space, seeded_rng

__all__ = [
    "DEFAULT_SYMMETRY_TOL",
    "PROJECTOR_DIM_CAP",
    "SymmetryCertificate",
    "CurvatureTensor",
    "TwoPlane",
    "complex_hyperbolic_tensor",
    "symmetry_residuals",
    "check_kahler",
    "constraint_matrix",
    "kahler_projector",
    "project_kahler",
    "random_kahler",
    "sectional",
    "holomorphic_sectional",
    "identity_one_residual",
    "reconstruct_from_sectional",
    "solve_sectional_from_H",
    "polarization_residuals",
    "fit_second_polarization_coefficient",
    "distance",
    "tensor_to_text",
    "tensor_from_text",
    "write_tensor",
    "read_tensor",
    "TENSOR_LAYOUT",
]

DEFAULT_SYMMETRY_TOL = 1e-9

# The projector needs an eigendecomposition of a (2n)^4 x (2n)^4 Gram matrix;
# n = 4 means 4096 x 4096, which is the largest we allow by default.
PROJECTOR_DIM_CAP = 4


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

    def as_dict(self) -> dict:
        return {
            "antisymmetry": self.antisymmetry,
            "pair_exchange": self.pair_exchange,
            "bianchi": self.bianchi,
            "j_invariance": self.j_invariance,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


class CurvatureTensor:
    """Dense rank-4 coefficient table over the standard basis."""

    __slots__ = ("space", "entries", "certificate")

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
        self.certificate: SymmetryCertificate | None = None

    def evaluate(self, x, y, z, w) -> float:
        return float(np.einsum("ijkl,i,j,k,l", self.entries, x, y, z, w))

    def biquadratic(self, a, b) -> float:
        """Unnormalized K(a, b) = R(a, b, a, b)."""
        return self.evaluate(a, b, a, b)

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.entries.ravel()))

    def scaled(self, factor: float) -> "CurvatureTensor":
        out = CurvatureTensor(self.space, self.entries * float(factor))
        if self.certificate is not None and self.certificate.passed:
            # symmetries are linear; residuals scale with |factor|
            s = abs(float(factor))
            c = self.certificate
            scaled_res = (c.antisymmetry * s, c.pair_exchange * s, c.bianchi * s, c.j_invariance * s)
            passed = all(r <= c.tolerance for r in scaled_res)
            if passed:
                out.certificate = SymmetryCertificate(*scaled_res, c.tolerance, passed)
        return out

    def __repr__(self) -> str:
        return f"CurvatureTensor(n={self.space.n}, |R|={self.frobenius_norm():.6g})"


class TwoPlane:
    """A 2-plane given by spanning vectors (not required orthonormal)."""

    __slots__ = ("u", "v", "gram_determinant")

    def __init__(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        gram = float(np.dot(u, u) * np.dot(v, v) - np.dot(u, v) ** 2)
        scale = max(1.0, float(np.dot(u, u) * np.dot(v, v)))
        if gram <= 1e-12 * scale:
            raise DegeneratePlaneError("spanning vectors are numerically dependent")
        self.u = u
        self.v = v
        self.gram_determinant = gram

    def __repr__(self) -> str:
        return f"TwoPlane(gram={self.gram_determinant:.6g})"


# ---------------------------------------------------------------------------
# model tensor and symmetry checks
# ---------------------------------------------------------------------------


def complex_hyperbolic_tensor(space: HermitianSpace) -> CurvatureTensor:
    """Curvature tensor of complex hyperbolic space, holomorphic curvature -1.

    -4 R(u,v,z,w) = <u,z><v,w> - <u,w><v,z> + <u,Jz><v,Jw> - <u,Jw><v,Jz>
                    + 2 <u,Jv><z,Jw>
    """
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
    check_kahler(tensor, 1e-12)
    return tensor


def _j_index_sign(dim: int) -> tuple[np.ndarray, np.ndarray]:
    perm = np.empty(dim, dtype=int)
    sign = np.empty(dim)
    perm[0::2] = np.arange(1, dim, 2)
    perm[1::2] = np.arange(0, dim, 2)
    sign[0::2] = 1.0
    sign[1::2] = -1.0
    return perm, sign


def symmetry_residuals(tensor: CurvatureTensor) -> dict[str, float]:
    """Max-abs residual of each symmetry condition by exhaustive basis enumeration."""
    e = tensor.entries
    perm, sign = _j_index_sign(tensor.space.dim)
    r1a = np.max(np.abs(e + e.transpose(1, 0, 2, 3)))
    r1b = np.max(np.abs(e + e.transpose(0, 1, 3, 2)))
    r2 = np.max(np.abs(e - e.transpose(2, 3, 0, 1)))
    r3 = np.max(np.abs(e + e.transpose(0, 3, 1, 2) + e.transpose(0, 2, 3, 1)))
    front = sign[:, None, None, None] * sign[None, :, None, None] * e[perm][:, perm]
    back = sign[None, None, :, None] * sign[None, None, None, :] * e[:, :, perm][:, :, :, perm]
    r4a = np.max(np.abs(front - e))
    r4b = np.max(np.abs(back - e))
    return {
        "antisymmetry": float(max(r1a, r1b)),
        "pair_exchange": float(r2),
        "bianchi": float(r3),
        "j_invariance": float(max(r4a, r4b)),
    }


def check_kahler(tensor: CurvatureTensor, tol: float = DEFAULT_SYMMETRY_TOL) -> SymmetryCertificate:
    """Compute the symmetry certificate; attach it to the tensor when it passes."""
    res = symmetry_residuals(tensor)
    passed = all(v <= tol for v in res.values())
    cert = SymmetryCertificate(
        res["antisymmetry"],
        res["pair_exchange"],
        res["bianchi"],
        res["j_invariance"],
        float(tol),
        passed,
    )
    if passed:
        tensor.certificate = cert
    return cert


def require_certified(tensor: CurvatureTensor, tol: float = DEFAULT_SYMMETRY_TOL) -> CurvatureTensor:
    """Certify on demand; raise if the tensor is not Kahler at the tolerance."""
    if tensor.certificate is None or not tensor.certificate.passed:
        cert = check_kahler(tensor, tol)
        if not cert.passed:
            raise PreconditionError(
                f"tensor is not Kahler at tolerance {tol:g} "
                f"(max residual {cert.max_residual:.3e})"
            )
    return tensor


# ---------------------------------------------------------------------------
# projection onto the Kahler curvature subspace
# ---------------------------------------------------------------------------


def constraint_matrix(space: HermitianSpace) -> sp.coo_matrix:
    """Sparse linear system whose null space is the Kahler curvature subspace.

    One row per basis tuple per symmetry condition; heavily redundant, which
    is harmless for the null space.
    """
    d = space.dim
    n_entries = d**4
    idx = np.arange(n_entries)
    i, rem = np.divmod(idx, d**3)
    j, rem = np.divmod(rem, d**2)
    k, l = np.divmod(rem, d)
    perm, sign = _j_index_sign(d)

    def flat(a, b, c, e):
        return ((a * d + b) * d + c) * d + e

    rows, cols, data = [], [], []
    row_offset = 0

    def add_family(col_lists, data_lists):
        nonlocal row_offset
        for c, v in zip(col_lists, data_lists):
            rows.append(idx + row_offset)
            cols.append(c)
            data.append(v if isinstance(v, np.ndarray) else np.full(n_entries, float(v)))
        row_offset += n_entries

    ones = np.ones(n_entries)
    # (1a) R_ijkl + R_jikl = 0
    add_family([idx, flat(j, i, k, l)], [ones, ones])
    # (1b) R_ijkl + R_ijlk = 0
    add_family([idx, flat(i, j, l, k)], [ones, ones])
    # (2)  R_ijkl - R_klij = 0
    add_family([idx, flat(k, l, i, j)], [ones, -ones])
    # (3)  R_ijkl + R_iljk + R_iklj = 0
    add_family([idx, flat(i, l, j, k), flat(i, k, l, j)], [ones, ones, ones])
    # (4a) s_i s_j R_{Ji,Jj,k,l} - R_ijkl = 0
    add_family([flat(perm[i], perm[j], k, l), idx], [sign[i] * sign[j], -ones])
    # (4b) s_k s_l R_{i,j,Jk,Jl} - R_ijkl = 0
    add_family([flat(i, j, perm[k], perm[l]), idx], [sign[k] * sign[l], -ones])

    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row_offset, n_entries),
    )


@dataclass(frozen=True)
class _Projector:
    matrix: np.ndarray
    nullity: int


_PROJECTOR_CACHE: dict[int, _Projector] = {}
_PROJECTOR_LOCK = threading.Lock()


def kahler_projector(space: HermitianSpace, cap: int = PROJECTOR_DIM_CAP) -> _Projector:
    """Orthogonal projector onto the Kahler curvature subspace; built once per n.

    Constructed from the null space of the constraint system via the
    eigendecomposition of A^T A (dense SVD of A would not fit in memory at
    the n = 4 cap).
    """
    if space.n > cap:
        raise ResourceLimitError(f"projector capped at complex dimension {cap}, got n={space.n}")
    with _PROJECTOR_LOCK:
        cached = _PROJECTOR_CACHE.get(space.n)
        if cached is not None:
            return cached
        a = constraint_matrix(space)
        gram = np.asarray((a.T @ a).todense())
        eigvals, eigvecs = np.linalg.eigh(gram)
        null_mask = eigvals < 1e-9 * max(eigvals[-1], 1.0)
        basis = eigvecs[:, null_mask]
        matrix = basis @ basis.T
        matrix.flags.writeable = False
        projector = _Projector(matrix=matrix, nullity=int(null_mask.sum()))
        _PROJECTOR_CACHE[space.n] = projector
        return projector


def project_kahler(
    tensor, space: HermitianSpace | None = None, cap: int = PROJECTOR_DIM_CAP
) -> CurvatureTensor:
    """Orthogonal projection of an arbitrary rank-4 table onto the Kahler subspace."""
    if isinstance(tensor, CurvatureTensor):
        space = tensor.space
        raw = tensor.entries
    else:
        if space is None:
            raise ValueError("space required when projecting a raw array")
        raw = np.asarray(tensor, dtype=float)
    proj = kahler_projector(space, cap)
    out = CurvatureTensor(space, (proj.matrix @ raw.ravel()).reshape(raw.shape))
    check_kahler(out)
    return out


def random_kahler(
    space: HermitianSpace, seed: int, frobenius_norm: float = 1.0
) -> CurvatureTensor:
    """Seeded random certified Kahler tensor of prescribed Frobenius norm."""
    if frobenius_norm <= 0:
        raise PreconditionError("frobenius_norm must be positive")
    d = space.dim
    rng = seeded_rng(seed)
    raw = rng.standard_normal((d, d, d, d))
    projected = project_kahler(raw, space)
    norm = projected.frobenius_norm()
    if norm < 1e-12:
        raise DegenerateSampleError(f"seed {seed} projected to zero; retry with another seed")
    out = projected.scaled(frobenius_norm / norm)
    check_kahler(out)
    return out


# ---------------------------------------------------------------------------
# curvature evaluation
# ---------------------------------------------------------------------------


def sectional(tensor: CurvatureTensor, plane: TwoPlane) -> float:
    """Sectional curvature of the plane: R(u,v,u,v) normalized by the Gram determinant."""
    return tensor.biquadratic(plane.u, plane.v) / plane.gram_determinant


def holomorphic_sectional(tensor: CurvatureTensor, u) -> float:
    """Sectional curvature of span(u, Ju): R(u,Ju,u,Ju) / |u|^4."""
    u = np.asarray(u, dtype=float)
    nu2 = float(np.dot(u, u))
    if nu2 < 1e-24:
        raise DegeneratePlaneError("zero vector has no holomorphic plane")
    return tensor.biquadratic(u, tensor.space.j(u)) / nu2**2


def _require_unitary_quadruple(space: HermitianSpace, u, v, tol: float = 1e-8):
    vectors = np.column_stack([u, space.j(u), v, space.j(v)])
    gram = vectors.T @ vectors
    if np.max(np.abs(gram - np.eye(4))) > tol:
        raise PreconditionError("{u, Ju, v, Jv} must be orthonormal")


def identity_one_residual(tensor: CurvatureTensor, u, v) -> float:
    """Residual of K(u,v) + K(u,Jv) - R(u,Ju,v,Jv); zero for Kahler tensors."""
    space = tensor.space
    _require_unitary_quadruple(space, u, v)
    ju, jv = space.j(u), space.j(v)
    return (
        tensor.biquadratic(u, v)
        + tensor.biquadratic(u, jv)
        - tensor.evaluate(u, ju, v, jv)
    )


def reconstruct_from_sectional(k_oracle, space: HermitianSpace) -> CurvatureTensor:
    """Rebuild a tensor with symmetries (1)-(3) from its raw biquadratic K(a,b) = R(a,b,a,b).

    24 R(x,y,z,t) = K(x+z,y+t) + K(x-z,y-t) - K(x+z,y-t) - K(x-z,y+t)
                  - K(x+t,y+z) - K(x-t,y-z) + K(x+t,y-z) + K(x-t,y+z)

    The oracle consumes unnormalized biquadratic values; the combined
    arguments are not unit vectors.
    """
    d = space.dim
    eye = np.eye(d)
    entries = np.empty((d, d, d, d))
    for i, j, k, l in product(range(d), repeat=4):
        x, y, z, t = eye[i], eye[j], eye[k], eye[l]
        entries[i, j, k, l] = (
            k_oracle(x + z, y + t)
            + k_oracle(x - z, y - t)
            - k_oracle(x + z, y - t)
            - k_oracle(x - z, y + t)
            - k_oracle(x + t, y + z)
            - k_oracle(x - t, y - z)
            + k_oracle(x + t, y - z)
            + k_oracle(x - t, y + z)
        ) / 24.0
    return CurvatureTensor(space, entries)


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
# is falsified by the model tensor (see fit_second_polarization_coefficient).
# Together with K(u,v) + K(u,Jv) - R(u,Ju,v,Jv) = 0 these give a 3x3 system
# for (K(u,v), K(u,Jv), R(u,Ju,v,Jv)) in terms of six H-values.

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


def solve_sectional_from_H(
    tensor: CurvatureTensor, u, v
) -> tuple[float, float, float]:
    """Recover (K(u,v), K(u,Jv), R(u,Ju,v,Jv)) from six holomorphic sectional values.

    Requires {u, Ju, v, Jv} orthonormal so that the combined vectors at
    a = b = 1/sqrt(2) are unit and the H-values can be read through
    holomorphic_sectional.
    """
    space = tensor.space
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _require_unitary_quadruple(space, u, v)
    a = b = 1.0 / math.sqrt(2.0)
    jv = space.j(v)

    def H(w):
        return holomorphic_sectional(tensor, w)

    h_u, h_v = H(u), H(v)
    rhs = np.array(
        [
            H(a * u + b * v) + H(a * u - b * v) - 2 * a**4 * h_u - 2 * b**4 * h_v,
            H(a * u + b * jv) + H(a * u - b * jv) - 2 * a**4 * h_u - 2 * b**4 * h_v,
            0.0,
        ]
    )
    matrix = _polarization_system(a, b)
    try:
        solution = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise IdentityInconsistencyError("polarization system is singular") from exc
    if not np.all(np.isfinite(solution)):
        raise IdentityInconsistencyError("polarization system produced non-finite values")
    return float(solution[0]), float(solution[1]), float(solution[2])


def polarization_residuals(
    tensor: CurvatureTensor, u, v, a: float, b: float
) -> dict[str, float]:
    """Residuals of both polarization identities at (a, b), plus the printed
    variant of the second identity's last coefficient (informational)."""
    space = tensor.space
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    jv = space.j(v)
    biq = tensor.biquadratic

    def H(w):
        return biq(w, space.j(w))

    ab2 = a * a * b * b
    base = (
        2 * a**4 * H(u)
        + 2 * b**4 * H(v)
        + 12 * ab2 * tensor.evaluate(u, space.j(u), v, jv)
    )
    lhs_first = H(a * u + b * v) + H(a * u - b * v)
    lhs_second = H(a * u + b * jv) + H(a * u - b * jv)
    k_uv = biq(u, v)
    k_ujv = biq(u, jv)
    return {
        "first": abs(lhs_first - (base + SECOND_IDENTITY_COEFF * ab2 * k_uv)),
        "second": abs(lhs_second - (base + SECOND_IDENTITY_COEFF * ab2 * k_ujv)),
        "second_printed": abs(
            lhs_second - (base + SECOND_IDENTITY_COEFF_PRINTED * ab2 * k_ujv)
        ),
    }


def fit_second_polarization_coefficient(
    space: HermitianSpace, seed: int, samples: int = 200
) -> float:
    """Least-squares fit of c in H(au+bJv) + H(au-bJv) = ... + c a^2b^2 K(u,Jv).

    Fitted over random Kahler tensors, random orthonormal quadruples, and
    random (a, b) with a^2 + b^2 = 1; returns approximately -8.
    """
    from .space import random_orthonormal_pair

    rng = seeded_rng(seed, 1)
    num = 0.0
    den = 0.0
    for s in range(samples):
        tensor = random_kahler(space, seed * 1000 + s)
        u, v = random_orthonormal_pair(space, seed * 1000 + s, constraint="v_perp_ju")
        theta = rng.uniform(0.1, math.pi / 2 - 0.1)
        a, b = math.cos(theta), math.sin(theta)
        jv = space.j(v)
        biq = tensor.biquadratic

        def H(w):
            return biq(w, space.j(w))

        ab2 = a * a * b * b
        base = (
            2 * a**4 * H(u)
            + 2 * b**4 * H(v)
            + 12 * ab2 * tensor.evaluate(u, space.j(u), v, jv)
        )
        target = H(a * u + b * jv) + H(a * u - b * jv) - base
        x = ab2 * biq(u, jv)
        num += target * x
        den += x * x
    if den == 0.0:
        raise IdentityInconsistencyError("degenerate fit: all regressors vanished")
    return num / den


def distance(first: CurvatureTensor, second: CurvatureTensor) -> float:
    """Frobenius distance of entry tables (the induced norm in the orthonormal basis)."""
    if first.space != second.space:
        raise SpaceMismatchError("tensors live over different spaces")
    return float(np.linalg.norm((first.entries - second.entries).ravel()))


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

TENSOR_LAYOUT = "row-major i,j,k,l ascending, 1-based indices mapped to 0-based storage"
_FORMAT_VERSION = 1


def _float17(x: float) -> str:
    return format(float(x), ".17g")


def tensor_to_text(tensor: CurvatureTensor, symmetry_tolerance: float = DEFAULT_SYMMETRY_TOL) -> str:
    """Serialize to the JSON tensor file format (17 significant digits, exact round-trip)."""
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
        obj = json.loads(text)
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
    if not isinstance(tol, (int, float)) or tol <= 0:
        raise TensorFormatError(f"symmetry_tolerance must be positive, got {tol!r}")
    return CurvatureTensor(make_space(n), array), float(tol)


def write_tensor(path, tensor: CurvatureTensor, symmetry_tolerance: float = DEFAULT_SYMMETRY_TOL):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(tensor_to_text(tensor, symmetry_tolerance))


def read_tensor(path) -> tuple[CurvatureTensor, float]:
    with open(path, "r", encoding="ascii") as fh:
        return tensor_from_text(fh.read())
