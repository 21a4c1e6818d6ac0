"""Sectional-curvature extremes over 2-planes and the unit sphere.

At n = 2 the default budget (restarts=None) computes the extremes exactly
(_surface_rows): on a Kahler surface K and H reduce to two trust-region
problems on a 2-sphere and one rank-one eigenvalue update of a 3 x 3
matrix. A batch of tensors takes one pass for K and H together, with one
solver per problem kind: one stacked eigh gives the eigenbases of the
sphere problems and the eigenvectors of the rank-one updates (K's interior
candidates), one secular loop solves the sphere problems (_secular_top), and
one stacked matmul per kind gives the witness values; the J-line rows are
the planes' H candidates. Everywhere else, and at n = 2 with an
explicit restart count, one multistart projected-gradient optimizer on one
objective serves both problems. It runs the descending (minimum) and ascending (maximum) restarts
as rows of one batch, with a sign per row and a retraction after every step;
a restart that stops leaves the batch, so later iterations cost only the
restarts still running. Every row is a pair [u | v] and every objective is
the pair objective K(u, v). Planes are re-orthonormalized rows; the
holomorphic curvature H(u) = K(u, Ju) runs on the rows [u | Ju] with |u| = 1,
where the pair gradient already has the form [g | Jg]. A multistart's
restarts are consecutive rows of one normal stream per (seed) for planes and
(seed, 7) for H, so results are independent of how many restarts run up to
last-bit rounding: BLAS switches GEMM kernels with the batch size. With
numpy 2.4's bundled OpenBLAS 0.3.31 (Haswell kernels), a block's _pair_state
values first differ from their 2-row values at 1024 rows at n = 3 and at
128 rows at n = 5, and not up to 4096 rows at n = 1, 2, 4, 6. The
restarts of several tensors can share one batch, up to BATCH_ROWS plane
rows, so that their iteration tails overlap, and one batch can run both
problems: its tensors' plane blocks, then the same tensors' J-line blocks.
Each block of one tensor and problem has its own GEMM, so the rounding
stays per block and every result is bit-identical to a one-tensor,
one-problem run. _multistart takes one Kahler (B, d, d, d, d) entries
stack, certified by `curvature._certified_stack` for pinch and
hol_extremes and Kahler by construction for a sweep or certification
chunk, and returns arrays per problem, which sweep reads directly; only
pinch and hol_extremes build reports from them. The multistart's extremes are the best values the
restarts reach, not proven optima; the n = 2 closed form's are the extremes
up to rounding. A rigorous eigenvalue envelope from the curvature operator
on bivectors sandwiches both.

A multistart with the default budget (restarts=None) runs DEFAULT_RESTARTS
= 64 restarts, and reruns once at ESCALATION x 64 = 256 restarts each tensor
whose report is not converged; the rerun's report is final. Start rows are
prefix-stable, so that rerun is exactly the explicit 256-restart multistart.
An explicit restart count runs as given and is never escalated.

Plane rows step along a preconditioned gradient (preconditioned
Barzilai-Borwein; Molina & Raydan, Numer. Algorithms 1996). The tensors of
interest lie near the complex hyperbolic model: R = s0 R0 + E with
s0 = <R, R0>/|R0|^2 and E orthogonal to R0, of relative size
mu = |E|/|R0|. The model's K = s0 (-1/4 - 3/4 c^2), c = <u, Jv>, is flat
along complex lines and totally real planes, so a remainder of size t
leaves the plane problem with curvature ratios of about 1/t, and plain BB
steps crawl (hundreds of iterations near t = 1e-6). A plane row therefore
moves along p = M^{-1} g with M = |Hess K of s0 R0| + mu I on the
horizontal space; M^{-1} has a closed form row by row (_plane_direction),
and since M p_prev = g_prev the BB secant s^T M s costs no second solve.
Three kinds of rows keep the plain step: the J-line rows of H, where M
reduces to mu I; the rows of a space form up to rounding
(mu <= d^2 eps |s0|, d = 2n), where M is singular or amplifies the
gradient's rounding error past the step; and the rows of a tensor far from
the model (3 |s0| <= mu), where cond(M) <= 2 and the solve buys nothing.

Each tensor is optimized at unit curvature scale |R|/|R0| = hypot(s0, mu)
(1 for R0), so every threshold is a fixed number, and the best values are
multiplied back: the extremes of 2^k R are exactly 2^k times those of R.
A reported extreme is the value at its witness, the optimizer's or the n = 2
closed form's, except that a space form up to rounding reports the closed
form of s0 R0: K from -s0 to -s0/4 (-s0 at n = 1) and H = -s0, so the
model's -1 and -1/4 are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .curvature import (
    CurvatureTensor,
    TwoPlane,
    _biquadratic,
    _certified_stack,
    _pair_outer,
    _unit_exponent,
    complex_hyperbolic_tensor,
)
from .errors import InvalidDimensionError, NotNegativelyCurvedError, PreconditionError, ResourceLimitError
from .space import _dots, _norms, make_space, seeded_rng

__all__ = [
    "PinchReport",
    "HolReport",
    "OptimizerDiagnostics",
    "QuarterNormalization",
    "DEFAULT_RESTARTS",
    "curvature_operator_envelope",
    "pinch",
    "hol_extremes",
    "berger_bound_check",
    "normalize_quarter",
]

# gradient and restart-spread tolerances at unit curvature scale |R|/|R0| = 1
GRAD_TOL = 1e-10
MAX_ITER = 10000
STABILITY_TOL = 1e-8
# a restart also stops after this many consecutive iterations that do not beat
# its best value by more than double-precision noise (ill-conditioned valleys
# can saturate the value long before the gradient threshold is reachable, and
# accepted uphill steps can cycle without ever improving on the best)
STAGNATION_LIMIT = 50
# plane rows of one optimizer batch: the restarts of consecutive tensors share
# a batch while their plane rows fit (4 tensors at the default 64 restarts; a
# tensor rerun at 256 restarts fills a batch alone), so their iteration tails
# overlap, and the same tensors' J-line rows ride along. The bound is set by
# rounding, not memory: _plane_direction multiplies the batch's plane rows at
# once, and a row's direction equals its 2-row value only up to a row count
# where BLAS switches kernels (with OpenBLAS 0.3.31 on x86-64 it moved at 8192
# rows for n = 4..6, never at 4096 or fewer for n = 1..6), so a capped batch
# keeps every report bit-identical to its one-tensor run. J-line rows take the
# plain step and never enter that product
BATCH_ROWS = 512
# plane rows of a block keep the plain step at either end of mu / |s0|. Far
# from the model, at 3 |s0| <= mu: |Hess K of s0 R0| has its spectrum in
# [0, 3 |s0|] (see _plane_direction), so cond(M) <= 1 + 3 |s0| / mu <= 2 and
# M^{-1} is within a factor 2 of the scalar 1/mu, which the BB step absorbs;
# the solve would only add its cost. Near a space form, at
# mu <= d^2 eps |s0| with d = 2n, M^{-1} amplifies rounding: the pair
# objective's GEMM sums d^2 products per entry, so the gradient carries a
# rounding error of up to about d^2 eps |s0|. Along the model's flat
# directions the true gradient is of order mu, and M^{-1} divides both by mu:
# at mu <= d^2 eps |s0| the step there is rounding noise. Such a tensor also
# reports the closed-form extremes of s0 R0 (see _multistart).
# why a restart stopped, in the order _optimize tests them; rows still live
# after MAX_ITER iterations exit by the cap
EXIT_REASONS = ("gradient_tol", "step_underflow", "stagnation", "iteration_cap")
# first-run restarts of a default multistart, at every n. At n = 4, on 100
# tensors perturbed from the model by t = 0.02, at least 17% of the restarts
# reached each extreme, so 64 restarts miss the best with probability about
# (1 - 0.17)^64 = 7e-6
DEFAULT_RESTARTS = 64
# a default multistart whose report is not converged reruns once at this
# multiple of DEFAULT_RESTARTS, and that report is final
ESCALATION = 4
EPS = float(np.finfo(float).eps)
# per (minimum, maximum) side: the maxima as minima of the negated values
_MIN_MAX_SIGNS = np.array([[1.0], [-1.0]])
# a cap on the Newton steps of _secular_top, whose rows leave at their first
# step that does not raise mu by more than 4 eps mu: within 4 to 10 steps over
# 200 sweep-n2 calls and 200 one-sample certifications
SECULAR_ITERATIONS = 100


@dataclass(frozen=True)
class OptimizerDiagnostics:
    """How the restarts of one optimizer batch stopped, min and max rows together.

    One count per exit reason (they sum to twice the restarts), the
    iterations summed over all rows, and the longest row's iterations.
    """

    gradient_tol: int
    step_underflow: int
    stagnation: int
    iteration_cap: int
    row_iterations: int
    max_row_iterations: int


@dataclass(frozen=True)
class PinchReport:
    """Sectional-curvature extremes, their witness planes and the rigorous
    bivector envelope that sandwiches them. restarts is 0 and diagnostics
    None for the exact extremes of n = 2's default budget."""

    k_min: float
    k_max: float
    argmin_plane: TwoPlane
    argmax_plane: TwoPlane
    envelope_lo: float
    envelope_hi: float
    restarts: int
    converged: bool
    diagnostics: OptimizerDiagnostics | None = None


@dataclass(frozen=True)
class HolReport:
    """Holomorphic sectional extremes over the unit sphere."""

    h_min: float
    h_max: float
    argmin_u: np.ndarray
    argmax_u: np.ndarray
    restarts: int
    converged: bool
    diagnostics: OptimizerDiagnostics | None = None


@dataclass(frozen=True)
class QuarterNormalization:
    """Rescaled tensor with curvature maximum -1/4 and its pinching defect."""

    tensor: CurvatureTensor
    scale: float
    delta: float
    anomaly: bool  # delta meaningfully below zero: better-than-quarter pinching


def curvature_operator_envelope(tensor: CurvatureTensor) -> tuple[float, float]:
    """Extreme eigenvalues of the curvature operator on bivectors.

    With bivector coordinates b_{ij} = u_i v_j - u_j v_i over sorted pairs,
    <Rb, b> = R(u,v,u,v) and |b|^2 equals the plane's Gram determinant, so the
    Rayleigh quotient on decomposable bivectors is exactly the sectional
    curvature and the eigenvalue range encloses all of them. The operator is
    the pair matrix restricted to the index pairs (i, j) with i < j.
    """
    return tuple(_envelopes(_certified_stack([tensor]))[0][0].tolist())


def _envelopes(entries: np.ndarray):
    """curvature_operator_envelope of each table of a Kahler (B, d, d, d, d)
    stack, as (B, 2), from one stacked eigvalsh: each is its one-tensor value
    bit for bit. Also the (B, 2) bounds [lo - slack, hi + slack] that
    sandwich converged extremes, slack = 1e-9 max(|lo|, |hi|): relative, so
    that 2^k R sandwiches as R does."""
    b, d = len(entries), entries.shape[-1]
    rows, columns = _bivector_block(d)
    envelopes = np.linalg.eigvalsh(entries.reshape(b, d * d, d * d)[:, rows, columns])[:, [0, -1]]
    with np.errstate(under="ignore"):  # subnormal at 2^-1000 R0, as in float arithmetic
        slack = 1e-9 * np.abs(envelopes).max(axis=1, keepdims=True)
    return envelopes, envelopes + slack * [-1.0, 1.0]


@lru_cache(maxsize=None)
def _bivector_block(d: int) -> tuple[np.ndarray, np.ndarray]:
    """np.ix_ of the flat pair indices i * d + j (i < j), read-only: it selects the
    bivector operator from a (d^2, d^2) pair matrix."""
    i, j = np.triu_indices(d, 1)
    pairs = i * d + j
    pairs.flags.writeable = False
    return np.ix_(pairs, pairs)


# ---------------------------------------------------------------------------
# batched multistart optimization
# ---------------------------------------------------------------------------


def _row_norms(u: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row as a (rows, 1) column, summed by np.add.reduce.

    That is not np.linalg.norm's arithmetic (a BLAS dot, `space._norms`): a
    row can differ from it in the last bit. The optimizer's and the n = 2
    closed form's bits are pinned to this summation order.
    """
    return np.sqrt(np.add.reduce(u * u, axis=1, keepdims=True))


def _orthonormalize_pairs(x: np.ndarray) -> np.ndarray:
    """Gram-Schmidt on each row [u | v]: u normalized, v made orthonormal to it."""
    d = x.shape[1] // 2
    u, v = x[:, :d], x[:, d:]
    nu = _row_norms(u)
    nu[nu < 1e-300] = 1.0
    u = u / nu
    v = v - np.add.reduce(u * v, axis=1, keepdims=True) * u
    nv = _row_norms(v)
    bad = nv[:, 0] < 1e-10
    if np.any(bad):
        # deterministic fallback: least-aligned basis vector, re-projected
        for row in np.nonzero(bad)[0]:
            m = int(np.argmin(np.abs(u[row])))
            w = np.zeros(d)
            w[m] = 1.0
            w -= np.dot(w, u[row]) * u[row]
            v[row] = w
        nv = _row_norms(v)
    return np.concatenate([u, v / nv], axis=1)


def _j_lines(u: np.ndarray, jmat: np.ndarray) -> np.ndarray:
    """The rows [u | Ju]."""
    return np.concatenate([u, u @ jmat.T], axis=1)


def _retract_j_lines(x: np.ndarray, jmat: np.ndarray) -> np.ndarray:
    """A stepped row [a | b] retracted to the J-line row of u = (a + J^T b) normalized.

    J is a signed permutation, so both products with it are exact at any row count.
    """
    d = len(jmat)
    u = x[:, :d] + x[:, d:] @ jmat
    return _j_lines(u / _row_norms(u), jmat)


def _pair_state(mats, sizes, x: np.ndarray):
    """Biquadratic values of rows [u | v] and the matrices B_m[i,j] = R(e_i, e_j, u_m, v_m).

    The rows come in consecutive blocks, one per tensor: block k holds
    sizes[k] rows and mats[k] is its tensor's pair matrix. Pair-exchange
    symmetry makes each pair matrix symmetric, so one GEMM per block against
    the outer products u (x) v yields B. numpy hands a one-row product to
    GEMV, which rounds differently from GEMM, so a lone row is evaluated as
    two: a row's values then depend only on how many rows share its block.
    """
    d = x.shape[1] // 2
    w = _pair_outer(x[:, :d], x[:, d:])
    bflat = np.empty_like(w)
    stop = 0
    for m2, size in zip(mats, sizes):
        start, stop = stop, stop + size
        if size > 1:
            np.matmul(w[start:stop], m2, out=bflat[start:stop])
        elif size == 1:
            bflat[start] = (np.repeat(w[start:stop], 2, axis=0) @ m2)[0]
    vals = np.einsum("mk,mk->m", bflat, w)
    return vals, bflat


def _pair_gradient(x: np.ndarray, vals: np.ndarray, bflat: np.ndarray) -> np.ndarray:
    """Gradient of R(u,v,u,v)/(|u|^2|v|^2 - <u,v>^2) at orthonormal rows [u | v]."""
    d = x.shape[1] // 2
    b = bflat.reshape(-1, d, d)
    bv = np.matmul(b, x[:, d:, None])[:, :, 0]
    btu = np.matmul(x[:, None, :d], b)[:, 0, :]
    return 2.0 * (np.concatenate([bv, btu], axis=1) - vals[:, None] * x)


def _pair_objective(mats, sizes, x: np.ndarray):
    """Values and gradients of the pair objective at orthonormal rows [u | v], by tensor block."""
    vals, bflat = _pair_state(mats, sizes, x)
    return vals, _pair_gradient(x, vals, bflat)


@lru_cache(maxsize=None)
def _model(n: int):
    """R0 of complex dimension n flattened, |R0|^2, and the constant maps of
    _plane_direction on rows: [u | v] -> [Ju | Jv | Jv | Ju] and
    [a | b] -> [Jb | -Ja] (signed permutations, so exact at any row count),
    the sums over the four d-blocks of a 4d-row, and the space itself."""
    space = make_space(n)
    r0 = complex_hyperbolic_tensor(space).entries.ravel()
    jt, zero = space.j_matrix.T, np.zeros((space.dim, space.dim))
    j_rows = np.block([[jt, zero, zero, jt], [zero, jt, jt, zero]])
    t_rows = np.block([[zero, -jt], [jt, zero]])
    block_sums = np.kron(np.eye(4), np.ones((space.dim, 1)))
    return r0, float(r0 @ r0), j_rows, t_rows, block_sums, space


def _stacked_model_coordinates(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s0, mu) of each table R of a (B, d, d, d, d) stack, as two arrays, with
    R = s0 R0 + E, E orthogonal to R0 and mu = |E| / |R0|.

    s0 = 1 and mu = 0 exactly for R0 itself; hypot(s0, mu) = |R| / |R0| is
    the tensor's curvature scale. The entries are first brought to unit
    scale (`curvature._unit_exponent`), which is exact, so that mu neither
    overflows nor underflows and (s0, mu) of 2^k R are 2^k times those of R.
    Each tensor's two dots are its own BLAS dots (`space._dots`), so its
    coordinates are its batch-of-one values bit for bit.
    """
    r0, r0_sq = _model(entries.shape[-1] // 2)[:2]
    exponents = _unit_exponent(entries)
    r = np.ldexp(entries.reshape(len(entries), -1), -exponents[:, None])
    s0 = _dots(r, r0) / r0_sq
    residues = r - s0[:, None] * r0
    mu = _norms(residues) / np.sqrt(r0_sq)
    return np.ldexp(s0, exponents), np.ldexp(mu, exponents)


@lru_cache(maxsize=None)
def _direction_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constant matrices (eig, bias, K) of _plane_direction.

    Per row let c = <u, Jv>, q = 1/(1 - c^2) (0 at c = +-1), the dots
    (A1, B2, A2, B1) = (<a, Ju>, <b, Jv>, <a, Jv>, <b, Ju>), and r the inverse
    eigenvalues 1/(|s0| lam + mu) of M on V+, V-, (e1, e2), (e2, -e1) and the
    null pair, lam = |[|c|, |c| c, c^2] @ eig + bias|. With
    rho, tau = (r+ +- r-)/2, s1 = (r1 + r0)/2 - rho, s2 = (r2 + r0)/2 - rho,
    d1 = (r1 - r0)/2 and d2 = (r0 - r2)/2, M^{-1} g is rho g + tau Tg
    corrected on W x W, W = span(u, v, Ju, Jv), by the block's solve. In the
    basis u, v, Ju, Jv of each half of [a | b] the correction is
      [Ju_a, Jv_b] = q [[s1, d1 + c tau], [d1 + c tau, s1]] [A1, B2],
      [Jv_a, Ju_b] = q [[s2, d2 - c tau], [d2 - c tau, s2]] [A2, B1],
      u_a = -c Jv_a + tau B1, v_a = c Ju_a + tau B2,
      u_b = -c Jv_b - tau A1, v_b = c Ju_b - tau A2,
    where q c^2 = q - 1 turns the u, v terms into q and q c terms only. K
    holds these bilinear forms: the coefficients of (u, v, Ju, Jv, a, b, Jb,
    -Ja), half a then half b, are [q (dots (x) r), q c (dots (x) r), r] @ K.
    """
    eig = np.array([[1.5, 1.5, 0.0, 0.0, 0.0], [-1.5, 1.5, 0.0, 0.0, 0.0], [0.0, 0.0, 3.0, 6.0, 0.0]])
    bias = np.array([0.0, 0.0, 0.0, -3.0, 0.0])
    rho, tau = np.array([1, 1, 0, 0, 0]) / 2, np.array([1, -1, 0, 0, 0]) / 2
    s1, s2 = np.array([-1, -1, 1, 0, 1]) / 2, np.array([-1, -1, 0, 1, 1]) / 2
    d1, d2 = np.array([0, 0, 1, 0, -1]) / 2, np.array([0, 0, 0, -1, 1]) / 2
    a1, b2, a2, b1 = np.eye(4)

    def f(r, dot):  # the features dots[k] * r[i], at 5k + i
        return np.outer(dot, r).ravel()

    # (q part, q c part) of the coefficients on u, v, Ju, Jv: half a, then half b
    terms = [
        (f(tau, b1), -f(s2, a2) - f(d2, b1)),
        (f(tau, b2), f(s1, a1) + f(d1, b2)),
        (f(s1, a1) + f(d1, b2), f(tau, b2)),
        (f(s2, a2) + f(d2, b1), -f(tau, b1)),
        (-f(tau, a1), -f(s1, b2) - f(d1, a1)),
        (-f(tau, a2), f(s2, b1) + f(d2, a2)),
        (f(s2, b1) + f(d2, a2), -f(tau, a2)),
        (f(s1, b2) + f(d1, a1), f(tau, a1)),
    ]
    table = np.zeros((45, 2, 8))
    for k, (q_part, qc_part) in enumerate(terms):
        table[:40, k // 4, k % 4] = np.concatenate([q_part, qc_part])
    # rho g + tau Tg: rho a + tau Jb in half a, rho b - tau Ja in half b
    table[40:, 0, 4], table[40:, 0, 6], table[40:, 1, 5], table[40:, 1, 7] = rho, tau, rho, tau
    return eig, bias, table.reshape(45, 16)


def _plane_direction(x, g, abs_s0, mu):
    """M^{-1} g at orthonormal rows x = [u | v], for gradients g = [a | b] with a, b ⟂ u, v.

    M = |Hess K of s0 R0| + mu I on the horizontal space, row by row (abs_s0
    and mu > 0 are (rows, 1) columns). With c = <u, Jv>, e1 = (Ju + cv)/w,
    e2 = (Jv - cu)/w, w = sqrt(1 - c^2), V the orthogonal complement of
    span(u, v, Ju, Jv) and T(a, b) = (Jb, -Ja), the Hessian is
    -(3/2) s0 (l l^T + c T - c^2) for l = w (e2, -e1), and |Hess| / |s0| is
      (3/2)|c||1 - c| and (3/2)|c||1 + c| on the +1 and -1 eigenspaces of T on V x V,
      3c^2 along (e1, e2), |6c^2 - 3| along (e2, -e1), 0 along (e2, e1) and (-e1, e2).
    So M^{-1} = rho + tau T on V x V, and the 4-dimensional block is solved
    in the basis e1, e2 (see _direction_table). At c = +-1 the block folds
    into V (q = 0 drops its terms); as c nears +-1 its eigenvalues meet V's,
    so the ill-defined e1, e2 there carry no weight. Every product is a GEMM
    with the same result per row at any row count (a lone row is evaluated as
    two, since numpy hands one-row products to GEMV), so a row's direction
    does not depend on which rows share its batch.
    """
    m, width = x.shape
    if m == 1:
        return _plane_direction(*(np.repeat(a, 2, axis=0) for a in (x, g, abs_s0, mu)))[:1]
    d = width // 2
    _, _, j_rows, t_rows, block_sums, _ = _model(width // 4)
    eig_map, eig_bias, table = _direction_table()
    y = x @ j_rows  # [Ju | Jv | Jv | Ju]
    tg = g @ t_rows  # [Jb | -Ja]
    dots = (np.concatenate([g, g], axis=1) * y) @ block_sums
    c = np.einsum("mi,mi->m", x[:, :d], y[:, d:width])
    ac, c2 = np.abs(c), c * c
    eig = np.abs(np.stack([ac, ac * c, c2], axis=1) @ eig_map + eig_bias)
    r = 1.0 / (abs_s0 * eig + mu)
    w2 = 1.0 - c2
    q = 1.0 / np.where(w2 > 0.0, w2, np.inf)
    features = (dots[:, :, None] * r[:, None, :]).reshape(m, 20) * q[:, None]
    coefficients = np.concatenate([features, features * c[:, None], r], axis=1) @ table
    basis = np.concatenate([x, y[:, :width], g, tg], axis=1).reshape(m, 8, d)
    return np.matmul(coefficients.reshape(m, 2, 8), basis).reshape(m, width)


def _inits(width: int, seed: int, restarts: int, *stream: int) -> np.ndarray:
    """One standard normal row per restart, consecutive rows of the generator (seed, *stream).

    The rows come out in order, so restart r starts from the same row
    whatever the restart count.
    """
    return seeded_rng(seed, *stream).standard_normal((restarts, width))


def _optimize(x, signs, owners, objective, retract, models=None, planes=0):
    """Best value and point of each row, its iteration count and its exit reason.

    Rows with sign +1 ascend, rows with -1 descend. Projected-gradient
    iteration with Barzilai-Borwein steps (halved on steps that regress
    badly) and retraction onto the constraint set after every step.
    owners[m] is the block (tensor) of row m, non-decreasing, so each block's
    rows are consecutive; objective(x, sizes) returns the row values and
    gradients, sizes[k] being the number of rows of block k in x. The
    thresholds are fixed: the objective is at unit curvature scale (see
    _multistart), and models = (|s0|, mu, plain) holds the blocks' model
    coordinates at that scale and whether they keep the plain step.

    The rows of the first `planes` blocks are planes: they retract by
    _orthonormalize_pairs and, unless their block is plain, step along
    p = M^{-1} g (_plane_direction), with the BB step s^T M s / s^T y and
    s^T M s = sign * step * <s, g_prev>, since M p_prev = g_prev: one solve
    per iteration and no product with M. Every other row retracts by retract
    and steps along g; with models None, every row steps along g. Each row
    evolves independently (up to the rounding of the objective's per-block
    GEMM, see the module docstring). A row leaves the batch for good at the
    first EXIT_REASONS test it fails, so an iteration steps, retracts and
    evaluates only the rows still live; compaction keeps the row order, and
    with it the blocks. A row's gradient is evaluated once per accepted
    point: a rejected step leaves the row where it was. The live rows' state
    is one packed array, so a compaction is one take; reasons index
    EXIT_REASONS.
    """
    rows, w = x.shape
    blocks = int(owners[-1]) + 1
    out_vals, out_x = np.empty(rows), np.empty_like(x)
    iterations, reasons = np.empty(rows, dtype=int), np.empty(rows, dtype=int)
    if models is None:
        models = np.ones(blocks), np.ones(blocks), np.ones(blocks, dtype=bool)
    plain = np.asarray(models[2], dtype=bool)
    # a plain block's placeholder mu = 1 only avoids 1/0
    per_block = np.stack([models[0], np.where(plain, 1.0, models[1]), plain], axis=1)[owners]
    vals, g = objective(x, np.bincount(owners, minlength=blocks).tolist())
    zeros = np.zeros((rows, 1))
    # the packed state, one row per live row: three groups that the accept and
    # record updates copy whole, [prev_x | spare | prev_g], [x | value | g] and
    # [best_x | best value], then step, have_prev, stagnant, sign, |s0|, mu,
    # plain, owner, row and |g|^2, one column each
    state = np.concatenate(
        [
            x, zeros, np.zeros_like(x), x, vals[:, None], g, x, vals[:, None],
            np.full((rows, 1), 0.05), zeros, zeros, signs[:, None], per_block,
            owners[:, None], np.arange(rows)[:, None], zeros,
        ],
        axis=1,
    )
    prev, cur, best = slice(0, 2 * w + 1), slice(2 * w + 1, 4 * w + 2), slice(4 * w + 2, 5 * w + 3)

    def fields(state):
        # views: prev_x, prev_g, x, value, g, best_x, best value, then the columns
        return (
            state[:, :w], state[:, w + 1 : 2 * w + 1],
            state[:, cur.start : cur.start + w], state[:, cur.start + w], state[:, cur.start + w + 1 : cur.stop],
            state[:, best.start : best.start + w], state[:, best.start + w],
            *state[:, best.stop :].T,
        )

    def unpack(state):
        # the views, and what derives from the live rows: the block sizes, the
        # plane rows (heads) and which of them keep the plain step
        (prev_x, prev_g, x, vals, g, _, best_vals, step, have_prev, stagnant, signs, abs_s0, mu, plain, owners, _,
         gsq) = fields(state)
        sizes = np.bincount(owners.astype(np.intp), minlength=blocks).tolist()
        heads = sum(sizes[:planes])
        head_plain = plain[:heads] > 0.0
        return (
            state[:, prev], state[:, cur], state[:, best], prev_x, prev_g, x, vals, g, best_vals,
            step, have_prev, stagnant, signs, abs_s0[:heads, None], mu[:heads, None], gsq,
            sizes, heads, head_plain, not head_plain.all(), head_plain.any(),
        )

    (
        prev_rows, cur_rows, best_rows, prev_x, prev_g, x, vals, g, best_vals,
        step, have_prev, stagnant, signs, abs_s0, mu, gsq,
        sizes, heads, head_plain, precondition, mixed,
    ) = unpack(state)
    for it in range(MAX_ITER + 1):
        np.einsum("mi,mi->m", g, g, out=gsq)
        # one row per entry of EXIT_REASONS
        passed = np.array(
            [
                gsq > GRAD_TOL * GRAD_TOL,
                step >= 1e-14,
                stagnant <= STAGNATION_LIMIT,
                np.full(len(gsq), it < MAX_ITER),
            ]
        )
        go = passed.all(axis=0)
        if not go.all():
            done = ~go
            _, _, left_x, left_vals, _, left_best_x, left_best, _, _, _, left_signs, *_, left_rows, _ = fields(
                state[done]
            )
            gone = left_rows.astype(np.intp)
            reasons[gone] = np.argmin(passed[:, done], axis=0)
            iterations[gone] = it
            # prefer each row's final (converged) iterate; fall back to the best
            # point visited only when it is genuinely better, not better by float noise
            better = left_signs * (left_best - left_vals) > 1e-9
            out_vals[gone] = np.where(better, left_best, left_vals)
            out_x[gone] = np.where(better[:, None], left_best_x, left_x)
            if not go.any():
                break
            state = state[go]
            (
                prev_rows, cur_rows, best_rows, prev_x, prev_g, x, vals, g, best_vals,
                step, have_prev, stagnant, signs, abs_s0, mu, gsq,
                sizes, heads, head_plain, precondition, mixed,
            ) = unpack(state)
        s = x - prev_x
        if precondition:
            p = _plane_direction(x[:heads], g[:heads], abs_s0, mu)
            psq = np.einsum("mi,mi->m", p, p)
            sms = signs[:heads] * step[:heads] * np.einsum("mi,mi->m", s[:heads], prev_g[:heads])
            if mixed:
                p = np.where(head_plain[:, None], g[:heads], p)
                psq = np.where(head_plain, gsq[:heads], psq)
                sms = np.where(head_plain, np.einsum("mi,mi->m", s[:heads], s[:heads]), sms)
            if heads < len(x):
                p = np.concatenate([p, g[heads:]])
                psq = np.concatenate([psq, gsq[heads:]])
                sms = np.concatenate([sms, np.einsum("mi,mi->m", s[heads:], s[heads:])])
        else:
            p, psq, sms = g, gsq, np.einsum("mi,mi->m", s, s)
        sy = signs * np.einsum("mi,mi->m", s, prev_g - g)
        bb_ok = (have_prev > 0.0) & np.isfinite(sy) & (sy > 1e-300) & (sms > 0.0)
        # invalid curvature along the last step means a saddle escape: grow instead
        fallback = np.where(have_prev > 0.0, step * 2.0, step)
        steps = np.where(bb_ok, np.maximum(sms / np.where(sy > 0, sy, 1.0), 1e-12), fallback)
        # cap the displacement, not the step: flat valleys need huge steps
        np.minimum(steps, 2.0 / np.sqrt(np.maximum(psq, 1e-300)), out=step)
        moved = x + (signs * step)[:, None] * p
        # the candidates' [x | value | g]
        cand = np.empty((len(x), 2 * w + 1))
        if heads:
            cand[:heads, :w] = _orthonormalize_pairs(moved[:heads])
        if heads < len(x):
            cand[heads:, :w] = retract(moved[heads:])
        cand[:, w], cand[:, w + 1 :] = objective(cand[:, :w], sizes)
        cand_vals = cand[:, w]
        gain = signs * (cand_vals - vals)
        accept = gain > -0.1 * (1.0 + np.abs(vals))
        rise = signs * (cand_vals - best_vals)
        record = accept & (rise > 0)
        improved = accept & (rise > 1e-14 * (1.0 + np.abs(best_vals)))
        stagnant[:] = np.where(improved, 0.0, stagnant + 1.0)
        step[~accept] *= 0.5
        have_prev[:] = accept
        np.copyto(prev_rows, cur_rows, where=accept[:, None])
        np.copyto(cur_rows, cand, where=accept[:, None])
        np.copyto(best_rows, cand[:, : w + 1], where=record[:, None])
    return out_vals, out_x, iterations, reasons


@lru_cache(maxsize=None)
def _surface_basis() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bivectors of R^4 = C^2 for _surface_rows, in the coordinates b_ij (i < j)
    of curvature_operator_envelope, ordered 01, 02, 03, 12, 13, 23.

    Returns the flat pair indices i * 4 + j, the orthonormal basis
    [w | f1 f2 f3] of Lambda^{1,1} (the J-invariant bivectors) as columns, and
    a unit bivector e of [Lambda^{2,0}] (the J-anti-invariant ones). Here
    w = (e01 + e23)/sqrt(2) is the unit Kahler form, oriented so that u ^ Ju
    has a positive w-component, and f1, f2, f3 span Lambda^{1,1}_0.
    For the orientation of J, w and [Lambda^{2,0}] span the self-dual
    bivectors and Lambda^{1,1}_0 the anti-self-dual ones (Atiyah, Hitchin &
    Singer, Proc. R. Soc. A 1978), and a unit bivector is a plane exactly
    when both of its parts have length 1/sqrt(2).
    """
    i, j = np.triu_indices(4, 1)
    basis = np.array(
        [
            [1, 0, 0, 0, 0, 1],  # w
            [1, 0, 0, 0, 0, -1],
            [0, 1, 0, 0, 1, 0],
            [0, 0, 1, -1, 0, 0],
        ]
    ).T / np.sqrt(2.0)
    return i * 4 + j, basis, np.array([0, 1, 0, 0, -1, 0]) / np.sqrt(2.0)


@lru_cache(maxsize=None)
def _antisymmetric_index() -> np.ndarray:
    """Flat indices i * 4 + j, then j * 4 + i, of the bivector coordinates b_ij
    (i < j) of _surface_basis in a 4 x 4 matrix: [b | -b] scattered there is
    the antisymmetric matrix of b."""
    pairs = _surface_basis()[0]
    index = np.concatenate([pairs, pairs % 4 * 4 + pairs // 4])
    index.flags.writeable = False
    return index


def _secular_top(c, g):
    """Unit y~ maximizing <Cy, y> + 2 <r, y> over the unit sphere, one problem
    per row, in the eigenbasis of C.

    Rows of c hold the eigenvalues of a symmetric C in ascending order and
    rows of g the coordinates of a vector r in its eigenbasis. With
    e = c_top - c >= 0 and F(mu) = (sum g^2 / (e + mu)^2)^(-1/2), mu is the
    least root >= 0 of F(mu) = 1 and y~ = g / (e + mu) normalized: the
    trust-region subproblem on its boundary, with multiplier c_top + mu. F is
    increasing and concave (Moré & Sorensen, SIAM J. Sci. Stat. Comput. 1983),
    and F <= 1 at the lower bound max(0, max(|g| - e)), so Newton's method
    from there rises to the root and, in exact arithmetic, never passes it:
    no bracket is needed. A row leaves the loop at its first step that does
    not raise mu by more than 4 eps mu. That step is taken if it moves mu by
    at most 4 eps mu either way; a larger step down is rounding past the
    root, where F can alternate between two values a few ulps apart, and is
    dropped, so mu never falls by more than 4 eps mu. Only the live rows
    step, each with its own arithmetic, so a row's result does not depend on
    the other rows. In the hard case r is orthogonal to the top eigenvectors
    and F(0) >= 1: mu = 0, and the top eigenvector completes y. At mu = 0, a
    top coordinate has e + mu = 0 and g = 0 (mu >= |g| - e), and its ratio
    g / (e + mu) is read as 0.
    """
    e = c[:, -1:] - c
    mu = np.maximum(np.max(np.abs(g) - e, axis=1), 0.0)
    den = e + mu[:, None]
    den = np.where(den > 0.0, den, 1.0)
    y = g / den
    hard = (mu == 0.0) & (np.add.reduce(y * y, axis=1) <= 1.0)
    live = np.flatnonzero(~hard)
    # a live row's first step leaves mu > 0, so from then on e + mu > 0
    e_live, g_live, m, ratio, den = e[live], g[live], mu[live], y[live], den[live]
    for _ in range(SECULAR_ITERATIONS):
        if not len(live):
            break
        term = ratio * ratio
        total = np.add.reduce(term, axis=1)
        value = total**-0.5
        slope = value / total * np.add.reduce(term / den, axis=1)
        step = m + (1.0 - value) / slope
        rise, tol = step - m, 4.0 * EPS * step
        moving = rise > tol
        if not moving.all():
            # the rows that leave take their step, or keep mu if it falls by more than 4 eps mu
            mu[live] = np.where(rise < -tol, m, step)
            live, e_live, g_live, step = live[moving], e_live[moving], g_live[moving], step[moving]
        m = step
        den = e_live + m[:, None]
        ratio = g_live / den
    else:
        mu[live] = m  # the rows still live at the cap
    den = e + mu[:, None]
    y = g / np.where(den > 0.0, den, 1.0)
    if hard.any():
        top = c.shape[1] - 1
        y[hard, top] = np.sqrt(np.maximum(1.0 - np.sum(y[hard, :top] ** 2, axis=1), 0.0))
    return y / _row_norms(y)


def _surface_rows(mats: np.ndarray, planes: bool) -> np.ndarray:
    """Exact witness rows [u | v] of the extremes of K (planes) or of H at n = 2.

    mats are the tensors' (B, 16, 16) pair matrices at unit curvature scale.
    A tensor gives the rows [min candidates | max candidates]: (H, interior)
    of each for planes, H alone for J-lines; the extremes are the least and
    greatest values among them. The planes' rows hold the J-lines' rows as
    their H candidates, rows.reshape(B, 2, 2, 8)[:, :, 0], bit for bit, so
    one planes call serves both kinds, and a J-lines call skips the interior
    problem. Each problem kind has one solver for all tensors: one stacked
    eigh of the C's (and, for planes, of C - r r^T / q), whose first B
    results are the C's eigenbases bit for bit since LAPACK works per matrix,
    and one _secular_top call over the 2B sphere problems.

    On R^4 a Kahler tensor vanishes on [Lambda^{2,0}], so with the pair
    matrix written on [w | Lambda^{1,1}_0] as Q = [[q, r^T], [r, C]], the
    plane b = (s w + sqrt(1 - s^2) e + y)/sqrt(2), s in [-1, 1] and y on the
    unit sphere of Lambda^{1,1}_0 (see _surface_basis), has
    K = (q s^2 + 2 s <r, y> + <Cy, y>)/2. Every such (s, y) is a plane, and
    s = 1 are the J-lines (u, Ju), so the extremes of H are
    (q + extremes of <Cy, y> + 2 <r, y>)/2, two trust-region problems
    (_secular_top of (C, r) and of (-C, -r)). An extreme of K in s in
    (-1, 1) has s = -<r, y>/q and K = <(C - r r^T / q) y, y>/2, which is
    at most the top eigenvalue of C - r r^T / q over 2 for q < 0 (a
    maximum; for q >= 0 K is convex in s, so its maximum lies at s = +-1 and
    equals H's), and at least its bottom eigenvalue over 2 for q > 0 (a
    minimum). That eigenvector, signed so that s >= 0, gives the interior
    candidate, its s clipped to 1: a plane either way, and the extreme
    whenever s <= 1. An interior value lies within 2 |q| of H's range, so
    tensors with |q| <= eps take H's candidate twice (their q is replaced by
    1 in the eigh). The witness plane is read off the bivector b: u is its
    longest column as a 4 x 4 antisymmetric matrix (one scatter of [b | -b]
    at _antisymmetric_index), and v = b^T u, so that u ^ v = b.
    """
    pairs, basis, e20 = _surface_basis()
    antisymmetric = _antisymmetric_index()
    quad = basis.T @ mats[:, pairs[:, None], pairs] @ basis
    q, r, cmat = quad[:, 0, 0], quad[:, 1:, 0], quad[:, 1:, 1:]
    count = len(q)
    if planes:
        q_eig = np.where(np.abs(q) > EPS, q, 1.0)
        cmat = np.concatenate([cmat, cmat - r[:, :, None] * r[:, None, :] / q_eig[:, None, None]])
    c, vecs = np.linalg.eigh(cmat)
    c, basis_c = c[:count], vecs[:count]
    coords = np.einsum("mij,mi->mj", basis_c, r)
    # the minimum problems as maxima of the negated ones, in the reversed eigenbasis
    tops = _secular_top(np.concatenate([-c[:, ::-1], c]), np.concatenate([-coords[:, ::-1], coords]))
    y = np.einsum("mij,mj->mi", np.concatenate([basis_c[:, :, ::-1], basis_c]), tops)
    s = np.ones(2 * count)
    if planes:
        # per side: the bottom eigenvector of C - r r^T / q for the minimum
        # (q > eps), the top one for the maximum (q < -eps)
        interior = _MIN_MAX_SIGNS * q > EPS
        y_int = vecs[count:, :, [0, -1]].transpose(2, 0, 1)
        ratio = np.einsum("mi,smi->sm", r, y_int) / q_eig
        # (s, y) and (-s, -y) have the same K: s = -<r, y>/q >= 0 fixes the witness plane
        y_int = np.where(ratio[:, :, None] > 0.0, -y_int, y_int)
        y_int = np.where(interior[:, :, None], y_int, y.reshape(2, count, 3))
        s_int = np.where(interior, np.minimum(np.abs(ratio), 1.0), 1.0)
        # per side and tensor: (H, interior)
        s = np.stack([s, s_int.ravel()], axis=1).ravel()
        y = np.concatenate([y, y_int.reshape(-1, 3)], axis=1).reshape(-1, 3)
    b = (s[:, None] * basis[:, 0] + np.sqrt(1.0 - s * s)[:, None] * e20 + y @ basis[:, 1:].T) / np.sqrt(2.0)
    bmat = np.zeros((len(b), 16))
    bmat[:, antisymmetric] = np.concatenate([b, -b], axis=1)
    bmat = bmat.reshape(-1, 4, 4)
    longest = np.argmax(np.einsum("mij,mij->mj", bmat, bmat), axis=1)
    u = bmat[np.arange(len(b)), :, longest]
    u /= _row_norms(u)
    rows = np.concatenate([u, np.einsum("mij,mi->mj", bmat, u)], axis=1)
    # (side, tensor, candidate) -> (tensor, side, candidate)
    per_side = len(rows) // (2 * len(mats))
    return rows.reshape(2, len(mats), per_side, 8).transpose(1, 0, 2, 3).reshape(-1, 8)


class _Extremes(NamedTuple):
    """_multistart's arrays for one kind over a stack of B tensors."""

    values: np.ndarray  # (B, 2): each tensor's minimum and maximum
    rows: np.ndarray  # (B, 2, 2d): their witness rows [u | v]
    restarts: np.ndarray  # (B,): 0 for the exact extremes of n = 2
    converged: np.ndarray  # (B,)
    diagnostics: np.ndarray  # (B, 6): OptimizerDiagnostics' fields, read where restarts > 0
    envelopes: np.ndarray | None  # (B, 2) when planes are wanted: curvature_operator_envelope


def _multistart(entries, restarts, seeds, kinds) -> list[_Extremes]:
    """The extremes of each table of a Kahler (B, d, d, d, d) stack, one
    _Extremes per kind in kinds: (True,) planes, (False,) J-lines, or both.
    The stack is not certified here: pinch and hol_extremes certify their
    tensors (`curvature._certified_stack`), and a sweep or certification
    chunk is Kahler by construction.

    Descends and ascends the pair objective from every start row of each
    tensor and kind. A batch's block of one tensor and kind holds its start
    rows twice, descending then ascending (_start_rows); the plane blocks
    come first, then the same tensors' J-line blocks. Consecutive tensors
    share one _optimize batch while their plane rows fit in BATCH_ROWS (a
    batch holds at least one tensor), and a tensor's J-line rows ride along.
    _optimize and _stable see each tensor divided by its curvature scale
    hypot(s0, mu) (1 for the zero tensor), from one stacked pass
    (_stacked_model_coordinates); the best values are multiplied back, or a
    space form up to rounding takes s0 times R0's extremes. Plane rows are
    preconditioned unless their tensor is a space form up to rounding or has
    3 |s0| <= mu. The extremes and their rows come from one argmin over each
    batch's (tensors, 2, restarts) values, the maxima's side negated, ties
    going to the lowest restart; converged means both are stable and, for planes,
    sandwiched by the stack's curvature-operator envelopes (`_envelopes`).

    An explicit restart count runs as given. restarts=None runs
    DEFAULT_RESTARTS and queues each tensor with a kind that is not
    converged for one rerun of those kinds at ESCALATION times that count,
    after every first run; the rerun's results are final.

    At n = 2, restarts=None runs no optimizer: the extremes are exact
    (_surface_rows), values at their witness rows, with restarts 0 and stable
    true. One _surface_rows call serves every kind (the planes' H candidates
    are the J-line rows), and one `curvature._biquadratic` call per kind
    evaluates its retracted rows: _pair_state's values, with one GEMM per
    tensor.
    """
    if restarts is not None and restarts < 1:
        raise PreconditionError("restarts must be >= 1")
    b, d = len(entries), entries.shape[-1]
    space = _model(d // 2)[-1]
    jmat = space.j_matrix
    matrices = entries.reshape(b, d * d, d * d)
    s0, mu = _stacked_model_coordinates(entries)
    scales = np.hypot(s0, mu)
    scales[scales == 0.0] = 1.0
    abs_s0, mu = np.abs(s0) / scales, mu / scales
    space_forms = mu <= d**2 * EPS * abs_s0  # up to rounding
    envelopes, bounds = _envelopes(entries) if True in kinds else (None, None)
    shapes = ((b, 2), float), ((b, 2, 2 * d), float), (b, int), (b, bool), ((b, len(EXIT_REASONS) + 2), int)
    found = {planes: _Extremes(*(np.zeros(*shape) for shape in shapes), envelopes) for planes in kinds}

    def settle(planes, ks, sides, x, stable):
        # the tensors ks (indices or a slice) of one kind from their consecutive
        # blocks: sides is (tensors, 2, rows), each its minimum rows, then as
        # many maximum rows, and x holds those rows in that order
        vals = sides.reshape(-1)
        # the maxima as minima of the negated values, so one argmin; ties go to the first row
        best = np.arange(0, len(vals), sides.shape[2]).reshape(-1, 2) + (sides * _MIN_MAX_SIGNS).argmin(axis=2)
        found[planes].rows[ks] = x[best]
        extremes = scales[ks, None] * vals[best]
        if space_forms[ks].any():
            # a space form takes s0 times R0's extremes over planes (at n = 1 a plane
            # is a J-line) or J-lines; + 0.0 turns the zero tensor's -0.0 into 0.0
            model = np.sort(s0[ks, None] * [-1.0, -0.25 if planes and d > 2 else -1.0], axis=1) + 0.0
            extremes = np.where(space_forms[ks, None], model, extremes)
        found[planes].values[ks] = extremes
        if planes:
            lo, hi = bounds[ks].T
            stable = stable & (lo <= extremes[:, 0]) & (extremes[:, 1] <= hi)
        found[planes].converged[ks] = stable

    if restarts is None and d == 4:
        mats = matrices / scales[:, None, None]
        rows = _surface_rows(mats, True in kinds)
        # each (tensor, side)'s first candidate is its H row, before retraction
        j_rows = rows.reshape(b, 2, -1, 8)[:, :, 0].reshape(-1, 8)
        for planes in kinds:
            x = _orthonormalize_pairs(rows) if planes else _retract_j_lines(j_rows, jmat)
            # _pair_state's values (curvature._biquadratic): one GEMM per tensor
            vals = _biquadratic(mats, x[:, :4].reshape(b, -1, 4), x[:, 4:].reshape(b, -1, 4))
            settle(planes, slice(None), vals.reshape(b, 2, -1), x, True)
        return [found[planes] for planes in kinds]
    plain_planes = space_forms | (3.0 * abs_s0 <= mu)
    # (tensor, restarts, kinds to run)
    queue = [(k, DEFAULT_RESTARTS if restarts is None else restarts, kinds) for k in range(b)]
    while queue:
        count = queue[0][1]
        # the queue holds its first runs, then its reruns
        batch = [entry for entry in queue[: max(1, BATCH_ROWS // (2 * count))] if entry[1] == count]
        del queue[: len(batch)]
        # (kind, tensor) per block: the plane blocks, then the J-line blocks
        blocks = [(planes, k) for planes in kinds for k, _, wanted in batch if planes in wanted]
        owners = [k for _, k in blocks]
        mats = [matrices[k] / scales[k] for k in owners]
        vals, x, iterations, reasons = _optimize(
            np.concatenate([_start_rows(planes, space, seeds[k], count) for planes, k in blocks]),
            np.tile(np.repeat([-1.0, 1.0], count), len(blocks)),
            np.repeat(np.arange(len(blocks)), 2 * count),
            lambda y, sizes: _pair_objective(mats, sizes, y),
            lambda y: _retract_j_lines(y, jmat),
            (abs_s0[owners], mu[owners], np.array([not planes or plain_planes[k] for planes, k in blocks])),
            sum(planes for planes, _ in blocks),
        )
        rerun, stop = {}, 0
        for planes in dict.fromkeys(kind for kind, _ in blocks):  # the batch's kinds, planes first
            ks = [k for kind, k in blocks if kind == planes]
            start, stop = stop, stop + 2 * count * len(ks)
            sides = vals[start:stop].reshape(len(ks), 2, count)
            stable = np.array([_stable(lo, False) and _stable(hi, True) for lo, hi in sides])
            found[planes].restarts[ks] = count
            steps, exits = (a[start:stop].reshape(len(ks), -1) for a in (iterations, reasons))
            counts = (exits[:, :, None] == np.arange(len(EXIT_REASONS))).sum(axis=1)
            found[planes].diagnostics[ks] = np.column_stack([counts, steps.sum(axis=1), steps.max(axis=1)])
            settle(planes, ks, sides, x[start:stop], stable)
            if restarts is None and count == DEFAULT_RESTARTS:
                for k in np.array(ks, dtype=int)[~found[planes].converged[ks]].tolist():
                    rerun.setdefault(k, []).append(planes)
        queue += [(k, ESCALATION * count, tuple(wanted)) for k, wanted in sorted(rerun.items())]
    return [found[planes] for planes in kinds]


def _start_rows(planes: bool, space, seed: int, restarts: int) -> np.ndarray:
    """A block's start rows: each restart's row twice (descending, then
    ascending), retracted. Planes read the generator (seed), J-lines [u | Ju]
    the generator (seed, 7)."""
    if planes:
        return _orthonormalize_pairs(np.tile(_inits(2 * space.dim, seed, restarts), (2, 1)))
    jmat = space.j_matrix
    return _retract_j_lines(np.tile(_j_lines(_inits(space.dim, seed, restarts, 7), jmat), (2, 1)), jmat)


def _stable(vals: np.ndarray, maximize: bool) -> bool:
    """Best value reproduced across the top 10% of restarts within STABILITY_TOL (at unit scale)."""
    ordered = np.sort(vals)[::-1] if maximize else np.sort(vals)
    top = max(1, int(np.ceil(0.1 * len(vals))))
    return bool(abs(ordered[0] - ordered[top - 1]) <= STABILITY_TOL)


def _reports(planes: bool, found: _Extremes) -> list:
    """The PinchReports (planes) or HolReports of one kind of _multistart's arrays."""
    reports, dim = [], found.rows.shape[-1] // 2
    for k, ((lo, hi), count, converged, diagnostics) in enumerate(
        zip(found.values.tolist(), found.restarts.tolist(), found.converged.tolist(), found.diagnostics.tolist())
    ):
        (u_min, v_min), (u_max, v_max) = found.rows[k].reshape(2, 2, dim)
        fields = count, converged, OptimizerDiagnostics(*diagnostics) if count else None
        if planes:
            witnesses = TwoPlane(u_min, v_min), TwoPlane(u_max, v_max)
            reports.append(PinchReport(lo, hi, *witnesses, *found.envelopes[k].tolist(), *fields))
        else:
            reports.append(HolReport(lo, hi, u_min, u_max, *fields))
    return reports


def pinch(tensor: CurvatureTensor, restarts: int | None = None, seed: int = 0) -> PinchReport:
    """Extremes of the sectional curvature over 2-planes: exact at n = 2 with
    restarts=None, multistart otherwise."""
    return _pinch_batch([tensor], restarts, [seed])[0]


def _pinch_batch(tensors, restarts, seeds) -> list[PinchReport]:
    """pinch of each tensor (all over one space) with its own seed, in shared batches."""
    return _reports(True, _multistart(_certified_stack(tensors), restarts, seeds, (True,))[0]) if tensors else []


def hol_extremes(tensor: CurvatureTensor, restarts: int | None = None, seed: int = 0) -> HolReport:
    """Extremes of the holomorphic sectional curvature over the unit sphere:
    exact at n = 2 with restarts=None, multistart otherwise."""
    return _hol_batch([tensor], restarts, [seed])[0]


def _hol_batch(tensors, restarts, seeds) -> list[HolReport]:
    """hol_extremes of each tensor (all over one space) with its own seed, in shared batches.

    H(u) = K(u, Ju) is the pair objective on the rows [u | Ju] with |u| = 1.
    At such a row the pair gradient [g_u | g_v] has g_v = J g_u, so it runs
    along these rows, and _retract_j_lines maps a stepped row back.
    """
    return _reports(False, _multistart(_certified_stack(tensors), restarts, seeds, (False,))[0]) if tensors else []


def berger_bound_check(
    tensor: CurvatureTensor, k_min: float, samples: int = 200, seed: int = 0
) -> float:
    """Sampled violation of the mixed-component bound for pinched tensors.

    For a tensor normalized to -alpha <= K <= -1/4, orthonormal quadruples
    satisfy |R(X,Y,Z,W)| <= (2/3)(alpha - 1/4); k_min = -alpha is the
    curvature minimum, e.g. a PinchReport's k_min or a known exact value.
    Returns the max over sampled quadruples of |R(X,Y,Z,W)| - bound; positive
    values are reported, not raised (they flag a violated pinching
    precondition). No samples give -inf.
    """
    if tensor.space.n < 2:
        raise InvalidDimensionError("orthonormal quadruples need complex dimension >= 2")
    bound = (2.0 / 3.0) * (-k_min - 0.25)
    rng = seeded_rng(seed, 11)
    # one (d, 4) Gaussian block per sample, QR'd with positive diagonal of R
    q, r = np.linalg.qr(rng.standard_normal((max(samples, 0), tensor.space.dim, 4)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    values = np.abs(tensor.evaluate(q[..., 0], q[..., 1], q[..., 2], q[..., 3]))
    return float(np.max(values - bound, initial=-np.inf))


def normalize_quarter(tensor: CurvatureTensor, pinch_report: PinchReport) -> QuarterNormalization:
    """Rescale so the curvature maximum is exactly -1/4; defect = -(new minimum) - 1.

    The batch of one of _quarter_normalization.
    """
    scale, delta, anomaly, _ = _quarter_normalization(*np.array([pinch_report.k_min, pinch_report.k_max]))
    return QuarterNormalization(tensor.scaled(scale), float(scale), float(delta), bool(anomaly))


def _quarter_normalization(k_min, k_max, raises: bool = True):
    """normalize_quarter's rule on arrays of extremes: the scale -1/(4 k_max), by
    which CurvatureTensor.scaled multiplies the entries, the defect, the anomaly
    flag and the rejected entries (k_max >= 0, or a scale past the double
    range), the first of which raises normalize_quarter's error if raises."""
    with np.errstate(all="ignore"):  # rejected entries, and float arithmetic's underflow
        scale = -1.0 / (4.0 * k_max)
        delta = -scale * k_min - 1.0
    rejected = (k_max >= 0) | ~np.isfinite(scale)
    if raises and np.any(rejected):
        k_max = np.ravel(k_max)[np.argmax(rejected)]
        if k_max >= 0:
            raise NotNegativelyCurvedError(f"curvature maximum must be negative, got {k_max:g}")
        raise ResourceLimitError(
            f"curvature maximum {k_max:g} is too close to 0: the scale "
            "to a maximum of -1/4 exceeds double precision"
        )
    return scale, delta, delta < -1e-9, rejected
