"""Sectional-curvature extremes over 2-planes and the unit sphere.

At n = 2 the default budget (restarts=None) computes the extremes exactly
(_surface_rows): on a Kahler surface K and H reduce to two trust-region
problems on a 2-sphere and one rank-one eigenvalue update, solved by secular
equations in a 3 x 3 eigenbasis. Everywhere else, and at n = 2 with an
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
problems: its tensors' plane blocks, then the same tensors' J-line blocks
(sweep runs them so). Each block of one tensor and problem has its own
GEMM, so the rounding stays per block and every report is bit-identical to
a one-tensor, one-problem run. The multistart's extremes are the best values the
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
from math import isfinite

import numpy as np

from .curvature import (
    CurvatureTensor,
    TwoPlane,
    _pair_outer,
    _unit_exponent,
    complex_hyperbolic_tensor,
    require_certified,
)
from .errors import InvalidDimensionError, NotNegativelyCurvedError, PreconditionError, ResourceLimitError
from .space import make_space, seeded_rng

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
# Newton steps of _secular_top, a cap that its monotone iteration stays far below
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

    @classmethod
    def of(cls, iterations: np.ndarray, reasons: np.ndarray) -> OptimizerDiagnostics:
        counts = np.bincount(reasons, minlength=len(EXIT_REASONS))
        return cls(
            **{reason: int(c) for reason, c in zip(EXIT_REASONS, counts)},
            row_iterations=int(iterations.sum()),
            max_row_iterations=int(iterations.max()),
        )


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
    require_certified(tensor)
    return _envelopes([tensor])[0]


def _envelopes(tensors) -> list[tuple[float, float]]:
    """curvature_operator_envelope of each certified tensor (all over one space),
    from one stacked eigvalsh: each is its one-tensor value bit for bit."""
    rows, columns = _bivector_block(tensors[0].space.dim)
    eigvals = np.linalg.eigvalsh(np.array([tensor.matrix for tensor in tensors])[:, rows, columns])
    return list(zip(eigvals[:, 0].tolist(), eigvals[:, -1].tolist()))


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
    """The Euclidean norm of each row as a (rows, 1) column: np.linalg.norm's arithmetic, fewer calls."""
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
    and the sums over the four d-blocks of a 4d-row."""
    space = make_space(n)
    r0 = complex_hyperbolic_tensor(space).entries.ravel()
    jt, zero = space.j_matrix.T, np.zeros((space.dim, space.dim))
    j_rows = np.block([[jt, zero, zero, jt], [zero, jt, jt, zero]])
    t_rows = np.block([[zero, -jt], [jt, zero]])
    block_sums = np.kron(np.eye(4), np.ones((space.dim, 1)))
    return r0, float(r0 @ r0), j_rows, t_rows, block_sums


def _model_coordinates(tensor: CurvatureTensor) -> tuple[float, float]:
    """(s0, mu) with R = s0 R0 + E, E orthogonal to R0 and mu = |E| / |R0|.

    s0 = 1 and mu = 0 exactly for R0 itself; hypot(s0, mu) = |R| / |R0| is
    the tensor's curvature scale. The entries are first brought to unit scale
    (`curvature._unit_exponent`), which is exact, so that mu neither overflows
    nor underflows and (s0, mu) of 2^k R are 2^k times those of R.
    """
    r0, r0_sq = _model(tensor.space.n)[:2]
    exponent = _unit_exponent(tensor.entries)
    r = np.ldexp(tensor.entries.ravel(), -exponent)
    s0 = float(r @ r0) / r0_sq
    mu = float(np.linalg.norm(r - s0 * r0)) / np.sqrt(r0_sq)
    return float(np.ldexp(s0, exponent)), float(np.ldexp(mu, exponent))


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
    _, _, j_rows, t_rows, block_sums = _model(width // 4)
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


def _secular_top(c, g, power, target):
    """Unit y~ of one extreme eigen-problem per row, in the eigenbasis of C.

    Rows of c hold the eigenvalues of a symmetric C in ascending order and
    rows of g the coordinates of a vector r in its eigenbasis. With
    e = c_top - c >= 0 and F(mu) = (sum g^2 / (e + mu)^power)^(-1/power), mu
    is the least root >= 0 of F(mu) = target and y~ = g / (e + mu) normalized:
      power 2, target 1: y maximizes <Cy, y> + 2 <r, y> over the unit sphere
        (the trust-region subproblem on its boundary, with multiplier
        c_top + mu);
      power 1, target 1/|q|: y is the top eigenvector of C + r r^T / |q|, of
        eigenvalue c_top + mu.
    F is increasing and concave (Moré & Sorensen, SIAM J. Sci. Stat. Comput.
    1983 for power 2; a parallel sum of linear functions for power 1), so
    Newton's method from the lower bound max(0, max(target g^(2/power) - e))
    rises to the root; the bracket [lo, hi] only catches rounding. In the
    hard case r is orthogonal to the top eigenvectors and F(0) >= target:
    mu = 0, and the top eigenvector completes y (power 2) or is y (power 1).
    Each row iterates until it settles and then stays, so a row's result
    does not depend on the other rows.
    """
    e = c[:, -1:] - c
    w = g * g
    lo = np.maximum(np.max(target[:, None] * (np.abs(g) if power == 2 else w) - e, axis=1), 0.0)
    hi = np.maximum(target * np.sum(w, axis=1) ** (1.0 / power), lo)

    def ratios(rows, mu):  # g / (e + mu) and e + mu, with 1 for e + mu = 0 (where g = 0 when mu >= lo)
        den = e[rows] + mu[:, None]
        den = np.where(den > 0.0, den, 1.0)
        return g[rows] / den, den

    def terms(rows, ratio):
        return ratio * ratio if power == 2 else g[rows] * ratio

    mu = lo.copy()
    rows = np.arange(len(c))
    ratio, _ = ratios(rows, mu)
    total = np.sum(terms(rows, ratio), axis=1)
    hard = (lo == 0.0) & (total <= target ** (-power))
    live = np.nonzero(~hard)[0]
    for _ in range(SECULAR_ITERATIONS):
        if not len(live):
            break
        ratio, den = ratios(live, mu[live])
        term = terms(live, ratio)
        total = np.sum(term, axis=1)
        value = total ** (-1.0 / power)
        slope = value / total * np.sum(term / den, axis=1)
        below = value <= target[live]
        lo[live] = np.where(below, mu[live], lo[live])
        hi[live] = np.where(below, hi[live], mu[live])
        step = mu[live] + (target[live] - value) / slope
        step = np.where((lo[live] <= step) & (step <= hi[live]), step, 0.5 * (lo[live] + hi[live]))
        settled = np.abs(step - mu[live]) <= 4.0 * EPS * step
        mu[live] = step
        live = live[~settled]
    y, _ = ratios(rows, mu)
    top = c.shape[1] - 1
    if power == 2:
        y[hard, top] = np.sqrt(np.maximum(1.0 - np.sum(y[hard, :top] ** 2, axis=1), 0.0))
    else:
        y[hard] = np.eye(c.shape[1])[top]
    return y / np.linalg.norm(y, axis=1, keepdims=True)


def _surface_rows(mats, planes: bool) -> np.ndarray:
    """Exact witness rows [u | v] of the extremes of K (planes) or of H at n = 2.

    mats are the tensors' pair matrices at unit curvature scale. A tensor
    gives the rows [min candidates | max candidates]: (H, interior) of each
    for planes, H alone for J-lines; the extremes are the least and greatest
    values among them.

    On R^4 a Kahler tensor vanishes on [Lambda^{2,0}], so with the pair
    matrix written on [w | Lambda^{1,1}_0] as Q = [[q, r^T], [r, C]], the
    plane b = (s w + sqrt(1 - s^2) e + y)/sqrt(2), s in [-1, 1] and y on the
    unit sphere of Lambda^{1,1}_0 (see _surface_basis), has
    K = (q s^2 + 2 s <r, y> + <Cy, y>)/2. Every such (s, y) is a plane, and
    s = 1 are the J-lines (u, Ju), so the extremes of H are
    (q + extremes of <Cy, y> + 2 <r, y>)/2, two trust-region problems
    (_secular_top of (C, r) and of (-C, -r)). An extreme of K in s in
    (-1, 1) has s = -<r, y>/q and K = <(C - r r^T / q) y, y>/2, which is
    at most the top eigenvalue of C + r r^T / |q| over 2 for q < 0 (a
    maximum; for q >= 0 K is convex in s, so its maximum lies at s = +-1 and
    equals H's), and at least the bottom eigenvalue of C - r r^T / q over 2
    for q > 0 (a minimum). That eigenvector gives the interior candidate,
    its s clipped to [-1, 1]: a plane either way, and the extreme whenever
    |s| <= 1. An interior value lies within 2 |q| of H's range, so tensors
    with |q| <= eps take H's candidate twice. The witness plane is read off
    the bivector b: u is its longest column as a 4 x 4 antisymmetric matrix,
    and v = b^T u, so that u ^ v = b.
    """
    pairs, basis, e20 = _surface_basis()
    quad = basis.T @ np.stack(mats)[:, pairs][:, :, pairs] @ basis
    q, r = quad[:, 0, 0], quad[:, 1:, 0]
    c, vecs = np.linalg.eigh(quad[:, 1:, 1:])
    coords = np.einsum("mij,mi->mj", vecs, r)
    # the minimum problems as maxima of the negated ones, in the reversed eigenbasis
    c = np.concatenate([-c[:, ::-1], c])
    coords = np.concatenate([-coords[:, ::-1], coords])
    vecs = np.concatenate([vecs[:, :, ::-1], vecs])
    sphere = np.einsum("mij,mj->mi", vecs, _secular_top(c, coords, 2, np.ones(len(c))))
    s, y = np.ones(len(c)), sphere
    if planes:
        q2, r2 = np.tile(q, 2), np.tile(r, (2, 1))
        sign = np.repeat([1.0, -1.0], len(q))
        interior = sign * q2 > EPS  # q > eps for the minimum, q < -eps for the maximum
        target = 1.0 / np.where(interior, np.abs(q2), 1.0)
        y_int = np.einsum("mij,mj->mi", vecs, _secular_top(c, coords, 1, target))
        y_int = np.where(interior[:, None], y_int, sphere)
        s_int = np.ones(len(c))
        s_int[interior] = np.clip(-np.einsum("mi,mi->m", r2, y_int)[interior] / q2[interior], -1.0, 1.0)
        # per side and tensor: (H, interior)
        s, y = np.stack([s, s_int], axis=1).ravel(), np.stack([y, y_int], axis=1).reshape(-1, 3)
    b = (np.outer(s, basis[:, 0]) + np.outer(np.sqrt(1.0 - s * s), e20) + y @ basis[:, 1:].T) / np.sqrt(2.0)
    i, j = np.divmod(pairs, 4)
    bmat = np.zeros((len(b), 4, 4))
    bmat[:, i, j], bmat[:, j, i] = b, -b
    longest = np.argmax(np.einsum("mij,mij->mj", bmat, bmat), axis=1)
    u = bmat[np.arange(len(b)), :, longest]
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    rows = np.hstack([u, np.einsum("mij,mi->mj", bmat, u)])
    # (side, tensor, candidate) -> (tensor, side, candidate)
    per_side = len(rows) // (2 * len(mats))
    return rows.reshape(2, len(mats), per_side, 8).transpose(1, 0, 2, 3).reshape(-1, 8)


def _multistart(tensors, restarts, seeds, kinds):
    """Each tensor's reports of every kind in kinds, one list per kind.

    kinds is (True,) for planes (PinchReport), (False,) for J-lines
    (HolReport) or (True, False) for both. Certifies the tensors, then
    descends and ascends the pair objective from every start row of each
    tensor and kind. A batch's block of one tensor and kind holds its start
    rows twice, descending then ascending (_start_rows); the plane blocks
    come first, then the same tensors' J-line blocks.
    Consecutive tensors share one _optimize batch while their plane rows fit
    in BATCH_ROWS (a batch holds at least one tensor), and a tensor's J-line
    rows ride along. _optimize and _stable see each tensor divided by its
    curvature scale hypot(s0, mu) (1 for the zero tensor); the best values
    are multiplied back, or a space form up to rounding takes s0 times R0's
    extremes. Plane rows are preconditioned unless their tensor is a space
    form up to rounding or has 3 |s0| <= mu. A report gets the restart count,
    the minimum and maximum, their rows (ties go to the lowest restart), the
    diagnostics and whether both extremes are stable; plane reports get the
    curvature-operator envelopes of all the tensors, from one stacked
    eigvalsh (`_envelopes`).

    An explicit restart count runs as given. restarts=None runs
    DEFAULT_RESTARTS and queues each tensor with a report that is not
    converged for one rerun of those kinds at ESCALATION times that count,
    after every first run; the rerun's reports are final.

    At n = 2, restarts=None runs no optimizer: the extremes are exact
    (_surface_rows), values at their witness rows, and the reports get
    restarts 0, no diagnostics and stable true, so converged rests on the
    envelope sandwich alone.
    """
    for tensor in tensors:
        require_certified(tensor)
    if restarts is not None and restarts < 1:
        raise PreconditionError("restarts must be >= 1")
    space = tensors[0].space
    jmat = space.j_matrix
    s0, mu = np.array([_model_coordinates(tensor) for tensor in tensors]).T
    scales = np.hypot(s0, mu)
    scales[scales == 0.0] = 1.0
    abs_s0, mu = np.abs(s0) / scales, mu / scales
    space_forms = mu <= space.dim**2 * EPS * abs_s0  # up to rounding
    plain_planes = space_forms | (3.0 * abs_s0 <= mu)
    envelopes = _envelopes(tensors) if True in kinds else None

    def block_report(planes, k, count, vals, x, diagnostics, stable):
        # vals and x: the tensor's minimum rows, then as many maximum rows
        half = len(vals) // 2
        i_min, i_max = int(np.argmin(vals[:half])), half + int(np.argmax(vals[half:]))
        if space_forms[k]:
            # R0's extremes over planes (at n = 1 a plane is a J-line) or J-lines;
            # + 0.0 turns the zero tensor's -0.0 into 0.0
            model_extremes = np.array([-1.0, -0.25 if planes and space.n > 1 else -1.0])
            lo, hi = np.sort(s0[k] * model_extremes) + 0.0
        else:
            lo, hi = scales[k] * vals[i_min], scales[k] * vals[i_max]
        fields = (count, float(lo), float(hi), x[i_min].copy(), x[i_max].copy(), diagnostics, stable)
        return _pinch_report(tensors[k], envelopes[k], *fields) if planes else _hol_report(tensors[k], *fields)

    if restarts is None and space.n == 2:
        mats = [tensor.matrix / scale for tensor, scale in zip(tensors, scales)]
        out = []
        for planes in kinds:
            x = _surface_rows(mats, planes)
            x = _orthonormalize_pairs(x) if planes else _retract_j_lines(x, jmat)
            size = len(x) // len(tensors)
            vals = _pair_state(mats, [size] * len(tensors), x)[0]
            out.append(
                [
                    block_report(planes, k, 0, vals[start : start + size], x[start : start + size], None, True)
                    for k, start in enumerate(range(0, len(x), size))
                ]
            )
        return out
    reports = {planes: [None] * len(tensors) for planes in kinds}
    # (tensor, restarts, kinds to run)
    queue = [(k, DEFAULT_RESTARTS if restarts is None else restarts, kinds) for k in range(len(tensors))]
    while queue:
        count = queue[0][1]
        # the queue holds its first runs, then its reruns
        batch = [entry for entry in queue[: max(1, BATCH_ROWS // (2 * count))] if entry[1] == count]
        del queue[: len(batch)]
        # (kind, tensor) per block: the plane blocks, then the J-line blocks
        blocks = [(planes, k) for planes in kinds for k, _, wanted in batch if planes in wanted]
        owners = [k for _, k in blocks]
        unit = {k: tensors[k].matrix / scales[k] for k, _, _ in batch}
        mats = [unit[k] for k in owners]
        vals, x, iterations, reasons = _optimize(
            np.concatenate([_start_rows(planes, space, seeds[k], count) for planes, k in blocks]),
            np.tile(np.repeat([-1.0, 1.0], count), len(blocks)),
            np.repeat(np.arange(len(blocks)), 2 * count),
            lambda y, sizes: _pair_objective(mats, sizes, y),
            lambda y: _retract_j_lines(y, jmat),
            (abs_s0[owners], mu[owners], np.array([not planes or plain_planes[k] for planes, k in blocks])),
            sum(planes for planes, _ in blocks),
        )
        rerun = {}
        for start, (planes, k) in zip(range(0, len(x), 2 * count), blocks):
            block = slice(start, start + 2 * count)
            diagnostics = OptimizerDiagnostics.of(iterations[block], reasons[block])
            stable = _stable(vals[start : start + count], False) and _stable(vals[start + count : block.stop], True)
            report = reports[planes][k] = block_report(planes, k, count, vals[block], x[block], diagnostics, stable)
            if restarts is None and count == DEFAULT_RESTARTS and not report.converged:
                rerun.setdefault(k, []).append(planes)
        queue += [(k, ESCALATION * count, tuple(wanted)) for k, wanted in sorted(rerun.items())]
    return [reports[planes] for planes in kinds]


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


def pinch(tensor: CurvatureTensor, restarts: int | None = None, seed: int = 0) -> PinchReport:
    """Extremes of the sectional curvature over 2-planes: exact at n = 2 with
    restarts=None, multistart otherwise."""
    return _pinch_batch([tensor], restarts, [seed])[0]


def _pinch_batch(tensors, restarts, seeds) -> list[PinchReport]:
    """pinch of each tensor (all over one space) with its own seed, in shared batches."""
    return _multistart(tensors, restarts, seeds, (True,))[0] if tensors else []


def _pinch_hol_batch(tensors, restarts, seeds) -> tuple[list[PinchReport], list[HolReport]]:
    """_pinch_batch and _hol_batch of the same tensors, each batch's plane and
    J-line rows running in one _optimize loop; every report equals its
    one-kind call's bit for bit."""
    if not tensors:
        return [], []
    pinches, hols = _multistart(tensors, restarts, seeds, (True, False))
    return pinches, hols


def _pinch_report(tensor, envelope, restarts, k_min, k_max, x_min, x_max, diagnostics, stable):
    dim = tensor.space.dim
    lo, hi = envelope
    slack = 1e-9 * max(abs(lo), abs(hi))  # relative, so 2^k R sandwiches as R does
    sandwich = (lo - slack <= k_min) and (k_max <= hi + slack)
    return PinchReport(
        k_min=k_min,
        k_max=k_max,
        argmin_plane=TwoPlane(x_min[:dim], x_min[dim:]),
        argmax_plane=TwoPlane(x_max[:dim], x_max[dim:]),
        envelope_lo=lo,
        envelope_hi=hi,
        restarts=restarts,
        converged=stable and sandwich,
        diagnostics=diagnostics,
    )


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
    return _multistart(tensors, restarts, seeds, (False,))[0] if tensors else []


def _hol_report(tensor, restarts, h_min, h_max, x_min, x_max, diagnostics, stable):
    dim = tensor.space.dim
    return HolReport(
        h_min=h_min,
        h_max=h_max,
        argmin_u=x_min[:dim],
        argmax_u=x_max[:dim],
        restarts=restarts,
        converged=stable,
        diagnostics=diagnostics,
    )


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
    """Rescale so the curvature maximum is exactly -1/4; defect = -(new minimum) - 1."""
    if pinch_report.k_max >= 0:
        raise NotNegativelyCurvedError(
            f"curvature maximum must be negative, got {pinch_report.k_max:g}"
        )
    scale = -1.0 / (4.0 * pinch_report.k_max)
    if not isfinite(scale):
        raise ResourceLimitError(
            f"curvature maximum {pinch_report.k_max:g} is too close to 0: the scale "
            "to a maximum of -1/4 exceeds double precision"
        )
    delta = -scale * pinch_report.k_min - 1.0
    return QuarterNormalization(
        tensor=tensor.scaled(scale),
        scale=scale,
        delta=delta,
        anomaly=delta < -1e-9,
    )
