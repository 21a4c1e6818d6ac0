"""Theorem-level experiments: perturbation sweeps and the explicit constant chain.

A sweep perturbs the complex hyperbolic model tensor, finds its pinching,
renormalizes to curvature maximum -1/4, and records the pinching defect, the
distance to the model tensor, the holomorphic-curvature deviation, and the
deviation of every Chern-density ratio from its model value. Aggregation uses
per-step maxima (worst case). The constant chain makes the qualitative
"small defect implies small ratio deviation" statement quantitative through a
conservative absolute-coefficient bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, sqrt

import numpy as np

from .chern import ChernIndex, _density_tables, _ratio_rows, reference_constants
from .curvature import (
    CurvatureTensor,
    check_kahler,
    complex_hyperbolic_tensor,
    _distances,
    distance,
    reconstruct_from_sectional,
    _DIAGONAL,
    _float17,
    _largest,
    _model_table,
    _polarization_system,
    _polarization_terms,
    _random_projection,
    _require_nondegenerate,
    _require_unitary_quadruple,
    _solve_diagonal_sides,
    _stacked_direct_triple,
    _stacked_holomorphic_sides,
)
from .errors import IdentityInconsistencyError, PreconditionError
from .pinching import (
    _multistart,
    _quarter_normalization,
    berger_bound_check,
)
from .space import HermitianSpace, _orthonormal_pairs, _sample_seeds, make_space, seeded_rng

__all__ = [
    "SweepRecord",
    "ConstantChain",
    "CertificationReport",
    "perturb",
    "sweep",
    "aggregate_by_t",
    "emit_csv",
    "holomorphic_coefficient_bound",
    "proof_constants",
    "certify_constants",
    "identity_suite",
]

MAX_EXCLUDED_FRACTION = 0.05
# sweeps and certification runs take their samples this many at a time: the
# optimizer runs of a chunk share batches, its tensors are built and read for
# Chern densities in stacked passes, and memory holds one chunk's tensors
SAMPLES_PER_CHUNK = 64


@dataclass(frozen=True)
class SweepRecord:
    """One perturbation sample after certification and renormalization."""

    n: int
    t: float
    seed: int
    delta: float
    frobenius_dist: float
    h_dev: float
    ratio_devs: dict[str, float]
    ratio_dev_max: float
    converged: bool
    anomaly: bool


@dataclass(frozen=True)
class ConstantChain:
    """Explicit admissible constants for the defect-to-ratio implication."""

    epsilon: float
    n: int
    eta: float
    delta_1: float
    delta: float
    epsilon_1: float


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of sampling delta-pinched tensors; retries is always 0 (kept in the CLI payload)."""

    samples: int
    violations: int
    max_ratio_dev: float
    max_defect: float
    retries: int


def _sample_seed(seed: int, t_index: int, sample: int) -> int:
    """The seed of sample `sample` at t index `t_index`: SeedSequence([seed
    mod 2^64, t_index, sample]).generate_state(1)[0], a uint32. The batch of
    one of space._sample_seeds, which sweeps and certification runs call once
    for their whole grid."""
    return _sample_seeds([(int(seed), t_index, sample)])[0]


def perturb(space: HermitianSpace, t: float, seed: int) -> CurvatureTensor:
    """Model tensor R0 plus t times a seeded random unit-norm Kahler direction S.

    R0 and S (`random_kahler`'s entries; its certificate, which nothing here
    reads, is not computed) are Kahler, so R0 + tS is built directly and
    given `check_kahler`'s certificate at the default tolerance, not projected
    again. t = 0 gives R0 itself. PreconditionError when t overflows: t is
    rejected when 4 max|R0 + tS| is not finite, so that every sum of up to
    four entries, the symmetry residuals of its certificate among them,
    stays finite. Otherwise the batch of one of _perturbations.
    """
    if t == 0:
        return complex_hyperbolic_tensor(space)
    tensor = CurvatureTensor._shared(space, _perturbations(space, [t], [seed])[0], None)
    check_kahler(tensor)
    return tensor


def _perturbations(space: HermitianSpace, ts, seeds) -> np.ndarray:
    """perturb's entries of each (t, seed) pair, as a read-only
    (B, d, d, d, d) stack: the directions of every t != 0 are projected and
    scaled in one stacked pass, bit for bit as one at a time. Every table is
    Kahler by construction, so none is certified here.

    The pairs are checked in order, each as its perturb call checks it, so
    the first pair that fails raises what its perturb call raises.
    """
    r0 = _model_table(space.n)[0]
    live = [k for k, t in enumerate(ts) if t != 0]
    if not live:
        return _read_only(np.repeat(r0[None], len(ts), axis=0))
    projected, norms = _random_projection(space, [seeds[k] for k in live])
    # a degenerate direction or an invalid t gives non-finite rows, rejected below
    with np.errstate(all="ignore"):
        direction = projected * (1.0 / norms)[:, None, None, None, None]  # random_kahler's entries
        sizes = np.array([ts[k] for k in live], dtype=float)[:, None, None, None, None]
        entries = r0 + sizes * direction
        finite = np.isfinite(4.0 * _largest(entries)).tolist()
    for row, k in enumerate(live):
        if not 0 <= ts[k] < inf:
            raise PreconditionError(f"perturbation size must be finite and >= 0, got {ts[k]}")
        _require_nondegenerate(seeds[k], norms[row])
        if not finite[row]:
            raise PreconditionError(f"perturbation size {ts[k]:g} overflows the tensor entries")
    if len(live) < len(ts):  # R0's rows at t = 0 among the perturbed ones
        entries, perturbed = np.repeat(r0[None], len(ts), axis=0), entries
        entries[live] = perturbed
    return _read_only(entries)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=None)
def _model_ratios(n: int) -> tuple[tuple[str, ...], tuple[ChernIndex, ...], np.ndarray, np.ndarray, np.ndarray]:
    """For every ordered pair (I, J) of distinct indices: the labels "I:J", the
    density-table columns (named by the tuple of indices) of I and of J, and
    the model's gamma_I / gamma_J."""
    model = reference_constants(n)
    indices = tuple(model)
    pairs = [(a, b) for a in range(len(indices)) for b in range(len(indices)) if a != b]
    numerators = _read_only(np.array([a for a, _ in pairs], dtype=int))
    denominators = _read_only(np.array([b for _, b in pairs], dtype=int))
    ratios = _ratio_rows(np.array([list(model.values())]), indices, numerators, denominators)[0]
    labels = tuple(f"{indices[a]}:{indices[b]}" for a, b in pairs)
    return labels, indices, numerators, denominators, _read_only(ratios)


def _ratio_deviation_rows(entries: np.ndarray) -> list[dict[str, float]]:
    """|gamma_I / gamma_J - model value| of each table of a Kahler (B, d, d, d, d)
    stack for every ordered pair of distinct indices, from one stacked density
    pass; chern._ratio_rows checks each table once and raises density_ratio's errors."""
    labels, indices, numerators, denominators, model = _model_ratios(entries.shape[-1] // 2)
    table = _density_tables(entries)[0]
    deviations = np.abs(_ratio_rows(table, indices, numerators, denominators) - model)
    return [dict(zip(labels, row)) for row in deviations.tolist()]


def _perturbed_chunks(space: HermitianSpace, grid: list[tuple[float, int]]):
    """Each SAMPLES_PER_CHUNK-long chunk of (t, sample seed) pairs, the stack of
    its perturbed tensors from one stacked pass (Kahler by construction, so
    not certified), and their seeds."""
    for start in range(0, len(grid), SAMPLES_PER_CHUNK):
        chunk = grid[start : start + SAMPLES_PER_CHUNK]
        seeds = [seed for _, seed in chunk]
        yield chunk, _perturbations(space, [t for t, _ in chunk], seeds), seeds


def sweep(
    n: int,
    t_values,
    samples_per_t: int,
    seed: int,
    restarts: int | None = None,
) -> list[SweepRecord]:
    """Run the perturbation experiment; flags (and keeps) non-converged records.

    Records are computed SAMPLES_PER_CHUNK at a time, each chunk one entries
    stack, Kahler by construction and so not certified: its pinch and
    hol_extremes runs share optimizer batches, and its normalization,
    Chern-density tables and distances to R0 are stacked passes, with no
    per-record tensor or report; each record's values are bit for bit those
    of its one-tensor calls. A chunk runs each stage over all of
    its samples, so a failing sample raises at the first stage it fails. H is linear in R,
    so the holomorphic extremes of the normalized tensor are its scale times
    those of the perturbed one, where they are found. Raises if more than
    MAX_EXCLUDED_FRACTION of records failed to converge.
    """
    if samples_per_t < 1:
        raise PreconditionError("samples_per_t must be >= 1")
    t_values = [float(t) + 0.0 for t in t_values]  # + 0.0: -0.0 is the size 0.0
    for t in t_values:
        if not 0 <= t < inf:
            raise PreconditionError(f"perturbation sizes must be finite and >= 0, got {t}")
    space = make_space(n)
    ts = sorted(t_values)
    sample_seeds = _sample_seeds(
        [(int(seed), t_index, sample) for t_index in range(len(ts)) for sample in range(samples_per_t)]
    )
    grid = list(zip([t for t in ts for _ in range(samples_per_t)], sample_seeds))
    records = []
    for chunk, entries, seeds in _perturbed_chunks(space, grid):
        planes, lines = _multistart(entries, restarts, seeds, (True, False))
        scale, delta, anomaly, _ = _quarter_normalization(*planes.values.T)
        normalized = scale[:, None, None, None, None] * entries
        distances = _distances(normalized, _model_table(n)[0])
        h_devs = np.abs(scale[:, None] * lines.values + 1.0).max(axis=1)
        columns = delta, distances, h_devs, planes.converged & lines.converged, anomaly
        for (t, sample_seed), ratio_devs, (defect, dist, h_dev, converged, anomalous) in zip(
            chunk, _ratio_deviation_rows(normalized), zip(*(column.tolist() for column in columns))
        ):
            records.append(
                SweepRecord(
                    n=space.n,
                    t=t,
                    seed=sample_seed,
                    delta=defect,
                    frobenius_dist=dist,
                    h_dev=h_dev,
                    ratio_devs=ratio_devs,
                    ratio_dev_max=max(ratio_devs.values()) if ratio_devs else 0.0,
                    converged=converged,
                    anomaly=anomalous,
                )
            )
    excluded = sum(1 for r in records if not r.converged)
    if excluded > MAX_EXCLUDED_FRACTION * len(records):
        raise RuntimeError(
            f"{excluded}/{len(records)} records failed to converge "
            f"(> {MAX_EXCLUDED_FRACTION:.0%}); rerun with more restarts"
        )
    return records


def aggregate_by_t(records: list[SweepRecord]) -> list[dict]:
    """Per-t worst-case aggregates over converged records (non-converged counted).

    The max_* fields are None for a t with no converged record.
    """
    out = []
    for t in sorted({r.t for r in records}):
        bucket = [r for r in records if r.t == t]
        converged = [r for r in bucket if r.converged]
        out.append(
            {
                "t": t,
                "samples": len(bucket),
                "excluded": len(bucket) - len(converged),
                "max_delta": max((r.delta for r in converged), default=None),
                "max_frobenius_dist": max((r.frobenius_dist for r in converged), default=None),
                "max_h_dev": max((r.h_dev for r in converged), default=None),
                "max_ratio_dev": max((r.ratio_dev_max for r in converged), default=None),
            }
        )
    return out


def emit_csv(records: list[SweepRecord]) -> str:
    """CSV with one row per record, t ascending then seed ascending, 17 digits."""
    if not records:
        raise PreconditionError("no records to emit")
    if len({r.n for r in records}) != 1:
        raise PreconditionError("records mix different complex dimensions")
    header = "t,seed,delta,frobenius_dist,h_dev,ratio_dev_max,converged"
    lines = [header]
    for r in sorted(records, key=lambda r: (r.t, r.seed)):
        lines.append(
            ",".join(
                [
                    _float17(r.t),
                    str(r.seed),
                    _float17(r.delta),
                    _float17(r.frobenius_dist),
                    _float17(r.h_dev),
                    _float17(r.ratio_dev_max),
                    "true" if r.converged else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the explicit constant chain
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def holomorphic_coefficient_bound() -> tuple[float, float]:
    """Absolute-coefficient bounds (per-K, per-entry) through the two linear formulas.

    Every tensor entry is 1/24 times eight biquadratic values at combined
    basis vectors; each biquadratic at an orthonormal unit pair is a fixed
    linear combination of six holomorphic-curvature values read off the
    polarization system. Accumulating absolute coefficients with worst-case
    norm factors gives a conservative bound on how entry deviations are
    controlled by unit-vector holomorphic deviations.
    """
    a = b = 1.0 / sqrt(2.0)
    system = _polarization_system(a, b)
    inverse = np.linalg.inv(system)
    # Absolute H-coefficient mass on the right-hand sides:
    #  - first identity: H at two unit combinations (coefficient 1 each) plus
    #    2a^4 H(u) + 2b^4 H(v);
    #  - second identity: the combinations (u +- Jv)/sqrt2 need not be unit;
    #    |q|^4 = (1 +- <u, Jv>)^2 <= 4 is the worst-case normalization factor;
    #  - the Bianchi consequence is homogeneous.
    worst_q4 = 4.0
    rhs_mass = np.array(
        [
            1.0 + 1.0 + 2 * a**4 + 2 * b**4,
            worst_q4 + worst_q4 + 2 * a**4 + 2 * b**4,
            0.0,
        ]
    )
    per_k = float(np.abs(inverse[0]) @ rhs_mass)
    # 24-term formula: 8 biquadratics, each K(x +- z, y +- t) with
    # |x +- z|^2 <= 4 for unit x, z (worst case: repeated basis vectors).
    worst_pair_norm = 4.0 * 4.0
    per_entry = 8.0 * worst_pair_norm * per_k / 24.0
    return per_k, per_entry


def proof_constants(epsilon: float, n: int) -> ConstantChain:
    """Explicit admissible constants (eta, delta_1, delta, epsilon_1) for a target epsilon.

    eta bounds the holomorphic deviation forcing every entry of R - R0 below
    epsilon / (2n)^4 (hence |R - R0| < epsilon); delta_1 = eta/4 makes the
    mixed-component bound (2/3)(3/4 + delta_1) <= 1/2 + eta/6; the defect
    threshold is min(eta/3, delta_1); epsilon_1 is the largest density
    deviation keeping every reference ratio within epsilon.
    """
    if not 0 < epsilon < inf:
        raise PreconditionError(f"epsilon must be positive and finite, got {epsilon}")
    if n < 2:
        raise PreconditionError("constant chain needs complex dimension >= 2")
    _, per_entry = holomorphic_coefficient_bound()
    eta = epsilon / ((2 * n) ** 4 * per_entry)
    delta_1 = eta / 4.0
    delta = min(eta / 3.0, delta_1)
    table = reference_constants(n)
    epsilon_1 = float("inf")
    for index_i, gamma_i in table.items():
        for index_j, gamma_j in table.items():
            if index_i == index_j:
                continue
            a_abs, b_abs = abs(gamma_i), abs(gamma_j)
            # binding inequality: (a + e1)/(b - e1) <= a/b + epsilon
            epsilon_1 = min(epsilon_1, epsilon * b_abs**2 / (a_abs + b_abs + epsilon * b_abs))
    return ConstantChain(
        epsilon=float(epsilon), n=n, eta=eta, delta_1=delta_1, delta=delta, epsilon_1=epsilon_1
    )


def certify_constants(chain: ConstantChain, samples: int, seed: int) -> CertificationReport:
    """Sample delta-pinched tensors; count ratio violations.

    Absence of counterexamples, not a proof: every sampled tensor must keep
    every Chern-density ratio within epsilon of the model value. Sample s is
    perturb(space, delta/8, seed_s), R0 + tS at t = delta/8, pinched once.

    The samples are delta-pinched by proof when delta < 3/4. S is a unit-norm
    Kahler direction (random_kahler(., ., 1.0); R0 + tS is Kahler as built
    and is not projected again), so for orthonormal u, v Cauchy-Schwarz gives
    |K_S(u, v)| = |<S, u (x) v (x) u (x) v>| <= |S|_F = 1. R0's sectional
    curvatures fill [-1, -1/4], so R0 + tS has true extremes k_min >= -1 - t
    and k_max <= -1/4 + t. `pinch` reports K at real planes, or R0's closed
    form, so up to rounding its k_min is at least the true minimum and its
    k_max at most the true maximum: its defect k_min / (4 k_max) - 1, the
    reported max_defect, can only underestimate the true one (at n = 2 the
    extremes are exact, so it is the true one up to rounding), and both are at most
    (1 + t)/(1 - 4t) - 1 = 5t/(1 - 4t). At t = delta/8 that is below delta
    exactly when delta < 3/4, that is (delta = epsilon / (80 (2n)^4)) when
    epsilon < 60 (2n)^4: 15360, 77760 and 245760 at n = 2, 3, 4.

    RuntimeError names the first sample whose defect is not below delta,
    whose pinch did not converge, or whose defect is anomalous: for n >= 2 a
    Kahler tensor is at best quarter-pinched, so a defect meaningfully below
    zero means the optimizer missed an extreme. A chunk is one entries
    stack, Kahler by construction and so not certified, through stacked
    passes; the normalization and the checks run in sample order, and a
    failing sample raises at the first stage it fails. retries is always 0.
    The ratio deviations are at rounding level (max_ratio_dev 8.7e-14,
    1.1e-14 and 1.4e-13 at n = 2, 3, 4 for proof_constants(0.1, n) and 16
    samples), so a run checks the code's consistency, not the theorem.
    """
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    grid = [(chain.delta / 8.0, s) for s in _sample_seeds([(int(seed), 0, sample) for sample in range(samples)])]
    violations, max_ratio_dev, max_defect = 0, 0.0, -float("inf")
    sample = 0
    for _, entries, seeds in _perturbed_chunks(make_space(chain.n), grid):
        (planes,) = _multistart(entries, None, seeds, (True,))
        scale, defects, anomaly, rejected = _quarter_normalization(*planes.values.T, raises=False)
        failed = rejected | ~(defects < chain.delta) | ~planes.converged | anomaly
        if failed.any():
            k = int(np.argmax(failed))
            sample, defect = sample + k, float(defects[k])
            _quarter_normalization(*planes.values[k])  # normalize_quarter's error, if it rejects the sample
            if not defect < chain.delta:
                raise RuntimeError(f"sample {sample}: defect {defect:.3e} is not below delta={chain.delta:g}")
            if not planes.converged[k]:
                raise RuntimeError(f"sample {sample}: the pinch did not converge")
            raise RuntimeError(f"sample {sample}: defect {defect:.3e} is below the quarter-pinching bound")
        max_defect = max(max_defect, float(defects.max()))
        sample += len(entries)
        for ratio_devs in _ratio_deviation_rows(scale[:, None, None, None, None] * entries):
            for dev in ratio_devs.values():
                max_ratio_dev = max(max_ratio_dev, dev)
                if dev >= chain.epsilon:
                    violations += 1
    return CertificationReport(samples, violations, max_ratio_dev, max_defect, retries=0)


# ---------------------------------------------------------------------------
# algebraic identity verification
# ---------------------------------------------------------------------------


def identity_suite(n: int, samples: int, seed: int) -> dict:
    """Max residuals of every verified identity over seeded random Kahler tensors.

    Covers the Bianchi consequence, the two polarization identities (with the
    miscoefficiented printed variant of the second reported informationally,
    plus a least-squares fit of the true coefficient over the same samples),
    the six-value linear solve against direct contraction, the 24-term
    reconstruction roundtrip, and the mixed-component bound on the model
    tensor, read at its exact curvature minimum -1 (its sectional curvatures
    fill [-1, -1/4]), so the suite runs no optimizer.

    Sample s goes with tensor s % n_tensors and the s-th theta. One stacked
    pass over all tensors computes each value once per sample: the direct
    triple, and the holomorphic sides at a = b = 1/sqrt(2) and at
    (cos theta, sin theta), which the linear solve, both polarization
    identities and the coefficient fit share. Each (tensor, sample) product
    has the shape of the one-tensor identity functions', so every residual
    equals theirs bit for bit. The tensor and pair seeds come from one
    stacked _sample_seeds call. The tensors are random_kahler's entries at
    norm 1, Kahler by construction and not certified: nothing here reads a
    certificate. The samples' unitary pairs and the attainment check's
    random_orthonormal_pair(space, seed) come from one stacked draw, each
    row equal to its random_orthonormal_pair bit for bit. The roundtrips
    are public reconstruct_from_sectional calls with a biquadratic oracle.
    """
    if n < 2:
        raise PreconditionError("identity suite needs complex dimension >= 2")
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    space = make_space(n)
    n_tensors = max(1, min(10, samples // 10))
    seeds = _sample_seeds(
        [(int(seed), 1, i) for i in range(n_tensors)] + [(int(seed), 2, s) for s in range(samples)]
    )
    tensor_seeds, pair_seeds = seeds[:n_tensors], seeds[n_tensors:]
    projected, norms = _random_projection(space, tensor_seeds)
    for tensor_seed, norm in zip(tensor_seeds, norms.tolist()):
        _require_nondegenerate(tensor_seed, norm)
    entries = _read_only(projected * (1.0 / norms)[:, None, None, None, None])
    tensors = [CurvatureTensor._shared(space, table, None) for table in entries]
    model = complex_hyperbolic_tensor(space)
    us, vs = _orthonormal_pairs(space, pair_seeds + [seed], "v_perp_ju")
    attain_u, attain_v = us[samples], vs[samples]  # random_orthonormal_pair(space, seed)
    us, vs = us[:samples], vs[:samples]
    thetas = seeded_rng(seed, 23).uniform(0.1, np.pi / 2 - 0.1, samples)
    _require_unitary_quadruple(space, us, vs)  # solve_sectional_from_H's precondition

    # sample s = j * n_tensors + i at [i, j]: C-ordered (tensors, per_tensor)
    # arrays, the places past the last sample padded with a zero pair and
    # masked off. C order keeps each tensor's fit rows contiguous, as the
    # one-tensor arrays were: a BLAS dot of strided rows rounds differently
    per_tensor = -(-samples // n_tensors)
    order = np.arange(n_tensors)[:, None] + n_tensors * np.arange(per_tensor)
    valid = order < samples
    rows = np.where(valid, order, samples)
    u, v = (np.vstack([x, np.zeros((1, space.dim))])[rows] for x in (us, vs))
    theta = np.append(thetas, 0.0)[rows]
    matrices, jmat = entries.reshape(n_tensors, space.dim**2, space.dim**2), space.j_matrix
    direct = _stacked_direct_triple(matrices[:, None], jmat, u, v)
    k_uv, k_ujv, r = (direct[..., k] for k in range(3))
    # the (a, b) points on axis 1: a = b = 1/sqrt(2), then (cos theta, sin theta)
    diagonal = np.full_like(theta, _DIAGONAL)
    a, b = np.stack([diagonal, np.cos(theta)], axis=1), np.stack([diagonal, np.sin(theta)], axis=1)
    first, second = _stacked_holomorphic_sides(matrices[:, None, None], jmat, u[:, None], v[:, None], a, b)
    solved = _solve_diagonal_sides(first[:, 0], second[:, 0])
    pol, target, regressor = _polarization_terms(direct[:, None], first, second, a, b)

    def worst(residuals, where=valid):
        return float(np.max(residuals, where=where, initial=0.0))

    res_one = worst(np.abs(k_uv + k_ujv - r))
    res_solve = worst(np.abs(solved - direct), valid[..., None])
    res_first, res_second, res_second_printed = (
        worst(pol[key], valid[:, None]) for key in ("first", "second", "second_printed")
    )
    # least squares for c in H(au+bJv) + H(au-bJv) = ... + c a^2b^2 K(u,Jv) at
    # (cos theta, sin theta), summed tensor by tensor over its samples
    fit_num = fit_den = 0.0
    for i, count in enumerate(valid.sum(axis=1).tolist()):
        y, x = target[i, 1, :count], regressor[i, 1, :count]
        fit_num += float(y @ x)
        fit_den += float(x @ x)
    if fit_den == 0.0:
        raise IdentityInconsistencyError("degenerate fit: all regressors vanished")

    res_reconstruction = 0.0
    for tensor in [model] + tensors[: min(3, n_tensors)]:
        rebuilt = reconstruct_from_sectional(tensor.biquadratic, space)
        res_reconstruction = max(res_reconstruction, distance(rebuilt, tensor))

    berger_violation = berger_bound_check(model, -1.0, samples=samples, seed=seed)
    attainment_gap = abs(abs(model.evaluate(attain_u, space.j(attain_u), attain_v, space.j(attain_v))) - 0.5)

    return {
        "identity_one": float(res_one),
        "solve_vs_direct": float(res_solve),
        "polarization_first": float(res_first),
        "polarization_second": float(res_second),
        "polarization_second_printed": float(res_second_printed),
        "reconstruction_roundtrip": res_reconstruction,
        "berger_max_violation": berger_violation,
        "berger_attainment_gap": attainment_gap,
        "suspected_typo": bool(res_second_printed > 1e-6),
        "fitted_second_coefficient": fit_num / fit_den,
    }
