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
from math import inf, sqrt

import numpy as np

from .chern import chern_densities, density_ratio, reference_constants
from .curvature import (
    CurvatureTensor,
    complex_hyperbolic_tensor,
    distance,
    polarization_residuals,
    project_kahler,
    random_kahler,
    reconstruct_from_sectional,
    solve_sectional_from_H,
    _direct_triple,
    _float17,
    _holomorphic_sides,
    _polarization_system,
)
from .errors import IdentityInconsistencyError, PreconditionError
from .pinching import (
    _hol_batch,
    _pinch_batch,
    berger_bound_check,
    normalize_quarter,
)
from .space import HermitianSpace, make_space, random_orthonormal_pair, seeded_rng

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
# optimizer runs of a chunk share batches, and memory holds one chunk's tensors
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
    ss = np.random.SeedSequence([int(seed) % (1 << 64), t_index, sample])
    return int(ss.generate_state(1)[0])


def perturb(space: HermitianSpace, t: float, seed: int) -> CurvatureTensor:
    """Model tensor plus a size-t random unit-norm Kahler direction, re-projected."""
    if not 0 <= t < inf:
        raise PreconditionError(f"perturbation size must be finite and >= 0, got {t}")
    model = complex_hyperbolic_tensor(space)
    if t == 0:
        return model
    direction = random_kahler(space, seed, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return project_kahler(model.entries + t * direction.entries, space)
        except ValueError as exc:  # the entries overflowed
            raise PreconditionError(f"perturbation size {t:g} overflows the tensor entries") from exc


def _ratio_deviations(tensor: CurvatureTensor) -> dict[str, float]:
    """|gamma_I / gamma_J - model value| for every ordered pair of distinct indices."""
    model = reference_constants(tensor.space.n)
    densities = chern_densities(tensor)
    return {
        f"{a}:{b}": abs(density_ratio(densities, a, b) - density_ratio(model, a, b))
        for a in model
        for b in model
        if a != b
    }


def _pinched_chunks(space: HermitianSpace, grid: list[tuple[float, int]], restarts: int | None):
    """Each SAMPLES_PER_CHUNK-long chunk of (t, sample seed) pairs, its perturbed
    tensors and their pinch reports, the chunk's pinches sharing optimizer batches."""
    for start in range(0, len(grid), SAMPLES_PER_CHUNK):
        chunk = grid[start : start + SAMPLES_PER_CHUNK]
        tensors = [perturb(space, t, sample_seed) for t, sample_seed in chunk]
        yield chunk, tensors, _pinch_batch(tensors, restarts, [sample_seed for _, sample_seed in chunk])


def sweep(
    n: int,
    t_values,
    samples_per_t: int,
    seed: int,
    restarts: int | None = None,
) -> list[SweepRecord]:
    """Run the perturbation experiment; flags (and keeps) non-converged records.

    Records are computed SAMPLES_PER_CHUNK at a time, their optimizer runs
    sharing batches. Raises if more than MAX_EXCLUDED_FRACTION of records
    failed to converge.
    """
    if samples_per_t < 1:
        raise PreconditionError("samples_per_t must be >= 1")
    t_values = [float(t) for t in t_values]
    for t in t_values:
        if not 0 <= t < inf:
            raise PreconditionError(f"perturbation sizes must be finite and >= 0, got {t}")
    space = make_space(n)
    model = complex_hyperbolic_tensor(space)
    grid = [
        (t, _sample_seed(seed, t_index, sample))
        for t_index, t in enumerate(sorted(t_values))
        for sample in range(samples_per_t)
    ]
    records = []
    for chunk, tensors, reports in _pinched_chunks(space, grid, restarts):
        normalizations = [normalize_quarter(tensor, report) for tensor, report in zip(tensors, reports)]
        hols = _hol_batch([q.tensor for q in normalizations], restarts, [sample_seed for _, sample_seed in chunk])
        for (t, sample_seed), report, normalization, hol in zip(chunk, reports, normalizations, hols):
            normalized = normalization.tensor
            ratio_devs = _ratio_deviations(normalized)
            records.append(
                SweepRecord(
                    n=space.n,
                    t=t,
                    seed=sample_seed,
                    delta=normalization.delta,
                    frobenius_dist=distance(normalized, model),
                    h_dev=max(abs(hol.h_min + 1.0), abs(hol.h_max + 1.0)),
                    ratio_devs=ratio_devs,
                    ratio_dev_max=max(ratio_devs.values()) if ratio_devs else 0.0,
                    converged=report.converged and hol.converged,
                    anomaly=normalization.anomaly,
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
    Kahler direction (random_kahler(., ., 1.0); perturb re-projects R0 + tS,
    which is already Kahler), so for orthonormal u, v Cauchy-Schwarz gives
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
    zero means the optimizer missed an extreme. A chunk's samples share
    optimizer batches. retries is always 0.
    """
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    grid = [(chain.delta / 8.0, _sample_seed(seed, 0, sample)) for sample in range(samples)]
    chunks = _pinched_chunks(make_space(chain.n), grid, None)
    pinched = (pair for _, tensors, reports in chunks for pair in zip(tensors, reports))
    violations, max_ratio_dev, max_defect = 0, 0.0, -float("inf")
    for sample, (tensor, report) in enumerate(pinched):
        normalization = normalize_quarter(tensor, report)
        defect = normalization.delta
        if not defect < chain.delta:
            raise RuntimeError(f"sample {sample}: defect {defect:.3e} is not below delta={chain.delta:g}")
        if not report.converged:
            raise RuntimeError(f"sample {sample}: the pinch did not converge")
        if normalization.anomaly:
            raise RuntimeError(f"sample {sample}: defect {defect:.3e} is below the quarter-pinching bound")
        max_defect = max(max_defect, defect)
        for dev in _ratio_deviations(normalization.tensor).values():
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
    fill [-1, -1/4]), so the suite runs no optimizer. Sample s goes with
    tensor s % n_tensors; each identity is one batched call per tensor, the
    polarization identities one call over both (a, b) points.
    """
    if n < 2:
        raise PreconditionError("identity suite needs complex dimension >= 2")
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    space = make_space(n)
    n_tensors = max(1, min(10, samples // 10))
    tensors = [random_kahler(space, _sample_seed(seed, 1, i)) for i in range(n_tensors)]
    model = complex_hyperbolic_tensor(space)
    pairs = [
        random_orthonormal_pair(space, _sample_seed(seed, 2, s), constraint="v_perp_ju")
        for s in range(samples)
    ]
    us, vs = (np.array(vectors) for vectors in zip(*pairs))
    thetas = seeded_rng(seed, 23).uniform(0.1, np.pi / 2 - 0.1, samples)

    res_one = res_solve = res_first = res_second = res_second_printed = 0.0
    fit_num = fit_den = 0.0
    for i, tensor in enumerate(tensors):
        u, v, theta = us[i::n_tensors], vs[i::n_tensors], thetas[i::n_tensors]
        direct = np.array(_direct_triple(tensor, u, v))
        k_uv, k_ujv, r = direct
        res_one = max(res_one, np.max(np.abs(k_uv + k_ujv - r)))
        solved = np.array(solve_sectional_from_H(tensor, u, v))
        res_solve = max(res_solve, np.max(np.abs(solved - direct)))
        a, b = np.cos(theta), np.sin(theta)
        diagonal = np.full_like(a, 1.0 / sqrt(2.0))
        pol = polarization_residuals(tensor, u, v, np.stack([diagonal, a]), np.stack([diagonal, b]))
        res_first = max(res_first, np.max(pol["first"]))
        res_second = max(res_second, np.max(pol["second"]))
        res_second_printed = max(res_second_printed, np.max(pol["second_printed"]))
        # least squares for c in H(au+bJv) + H(au-bJv) = ... + c a^2b^2 K(u,Jv)
        ab2 = a * a * b * b
        target = _holomorphic_sides(tensor, u, v, a, b)[1] - 12 * ab2 * r
        regressor = ab2 * k_ujv
        fit_num += float(target @ regressor)
        fit_den += float(regressor @ regressor)
    if fit_den == 0.0:
        raise IdentityInconsistencyError("degenerate fit: all regressors vanished")

    res_reconstruction = 0.0
    for tensor in [model] + tensors[: min(3, n_tensors)]:
        rebuilt = reconstruct_from_sectional(tensor.biquadratic, space)
        res_reconstruction = max(res_reconstruction, distance(rebuilt, tensor))

    berger_violation = berger_bound_check(model, -1.0, samples=samples, seed=seed)
    u, v = random_orthonormal_pair(space, seed, constraint="v_perp_ju")
    attainment_gap = abs(abs(model.evaluate(u, space.j(u), v, space.j(v))) - 0.5)

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
