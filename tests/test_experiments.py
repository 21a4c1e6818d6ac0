import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import kahlerpinch.experiments

from kahlerpinch import DEFAULT_SYMMETRY_TOL, distance, make_space, project_kahler, random_kahler, seeded_rng
from kahlerpinch.curvature import require_certified
from kahlerpinch.errors import InvalidDimensionError, PreconditionError, ResourceLimitError
from kahlerpinch.experiments import (
    CertificationReport,
    SweepRecord,
    aggregate_by_t,
    certify_constants,
    emit_csv,
    holomorphic_coefficient_bound,
    identity_suite,
    perturb,
    proof_constants,
    sweep,
)

EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def small_sweep():
    return sweep(2, [0.0, 0.025, 0.05], samples_per_t=4, seed=19, restarts=32)


# ---------------------------------------------------------------------------
# perturbation
# ---------------------------------------------------------------------------


def test_perturb_zero_is_model_exactly(space2, r0_n2):
    tensor = perturb(space2, 0.0, seed=7)
    assert np.array_equal(tensor.entries, r0_n2.entries)


def test_perturb_distance_bound(space2, r0_n2):
    for t in (0.01, 0.1, 0.3):
        tensor = perturb(space2, t, seed=8)
        assert distance(tensor, r0_n2) <= t + 1e-12


def test_perturb_determinism(space2):
    a = perturb(space2, 0.05, seed=9)
    b = perturb(space2, 0.05, seed=9)
    assert np.array_equal(a.entries, b.entries)
    c = perturb(space2, 0.05, seed=10)
    assert not np.array_equal(a.entries, c.entries)


def test_perturb_rejects_negative(space2):
    with pytest.raises(PreconditionError):
        perturb(space2, -0.1, seed=1)


def test_perturb_rejects_overflowing_size(space1):
    with pytest.raises(PreconditionError, match="overflows"):
        perturb(space1, 1e308, seed=0)


def test_perturb_overflow_rule_boundary(space1):
    # rejected when 4 max|R0 + tS| is not finite; at n = 1, S = +-R0/2 has max|S| = 1/2
    direction = random_kahler(space1, 0, 1.0)
    edge = sys.float_info.max / 2.0
    assert np.max(np.abs(direction.entries)) == 0.5
    inside = perturb(space1, edge * (1 - 1e-9), seed=0)
    assert math.isfinite(4.0 * float(np.max(np.abs(inside.entries))))
    certificate = require_certified(inside).certificate
    assert certificate.passed and math.isfinite(certificate.max_residual)
    with pytest.raises(PreconditionError, match="overflows"):
        perturb(space1, edge * (1 + 1e-9), seed=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_perturb_is_certified_and_its_own_projection(n):
    # R0 + tS is Kahler as built: one check at the default tolerance, and the
    # projection it no longer gets would move it by rounding only
    space = make_space(n)
    for t in (0.0125, 0.1, 0.3):
        for seed in range(3):
            tensor = perturb(space, t, seed)
            assert tensor.certificate is not None and tensor.certificate.passed
            assert tensor.certificate.tolerance == DEFAULT_SYMMETRY_TOL
            projected = project_kahler(tensor)
            scale = np.max(np.abs(tensor.entries))
            assert np.max(np.abs(projected.entries - tensor.entries)) <= 8 * EPS * scale


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_perturb_adds_random_kahlers_direction_with_one_certificate(n, monkeypatch):
    # S is random_kahler's unit direction bit for bit, but its certificate,
    # which nothing reads, is not computed: R0 + tS is certified once
    from kahlerpinch import complex_hyperbolic_tensor, curvature

    space = make_space(n)
    model = complex_hyperbolic_tensor(space)  # R0 is certified once per n, before counting
    calls = []
    residuals = curvature._symmetry_residuals  # check_kahler's residual pass

    def counted(entries):
        calls.append(len(entries))
        return residuals(entries)

    for module in (curvature, kahlerpinch.experiments):
        monkeypatch.setattr(module, "_symmetry_residuals", counted, raising=False)
    for seed in range(3):
        calls.clear()
        tensor = perturb(space, 0.05, seed)
        assert calls == [1]
        direction = random_kahler(space, seed, 1.0)
        assert np.array_equal(tensor.entries, model.entries + 0.05 * direction.entries)
    # a sweep's tensors are Kahler by construction: its chunks are not certified
    calls.clear()
    sweep(n, [0.0, 0.05], samples_per_t=2, seed=3, restarts=8)
    assert calls == []


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_perturb_and_sweep_reject_a_non_finite_size(space2, t):
    # NaN used to pass the sign test and fail later as an "overflow"
    with pytest.raises(PreconditionError, match=f"must be finite and >= 0, got {t}$"):
        perturb(space2, t, seed=1)
    with pytest.raises(PreconditionError, match=f"must be finite and >= 0, got {t}$"):
        sweep(2, [0.01, t], samples_per_t=1, seed=1)


# sweep's 64-sample chunk up to n = 4, fewer where a tensor is large
STACK_SIZES = {1: 64, 2: 64, 3: 64, 4: 64, 5: 16, 6: 8}


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_perturbations_equal_one_tensor_calls(n):
    # one stacked projection pass per chunk, each tensor perturb's bit for
    # bit; t = 0 is R0's entries, and perturb shares them
    from kahlerpinch import CurvatureTensor, check_kahler, complex_hyperbolic_tensor
    from kahlerpinch.experiments import _perturbations, _perturbed_chunks

    space = make_space(n)
    model = complex_hyperbolic_tensor(space)
    grid = [(0.0 if k % 5 == 0 else 0.02 * (k % 7), 1000 + k) for k in range(STACK_SIZES[n])]
    ts, seeds = (list(column) for column in zip(*grid))
    ((_, chunked, _),) = _perturbed_chunks(space, grid)
    stacked = _perturbations(space, ts, seeds)
    assert not stacked.flags.writeable and not chunked.flags.writeable
    for entries in (stacked, chunked):
        for t, seed, table in zip(ts, seeds, entries):
            one = perturb(space, t, seed)
            assert table.tobytes() == one.entries.tobytes()
            assert one.certificate == check_kahler(CurvatureTensor(space, table), DEFAULT_SYMMETRY_TOL if t else 1e-12)
            assert (table.tobytes() == model.entries.tobytes()) == (one.entries is model.entries) == (t == 0)


def _raised(call) -> Exception:
    with pytest.raises(Exception) as info:
        call()
    return info.value


def test_stacked_perturbations_raise_as_the_first_failing_one_tensor_call(monkeypatch, space1):
    # at n = 1, t = 1e308 overflows; seed 5's direction is made degenerate here
    from kahlerpinch.errors import DegenerateSampleError
    from kahlerpinch.experiments import _perturbations

    original = kahlerpinch.experiments._random_projection

    def degenerate(space, seeds):
        projected, norms = original(space, seeds)
        zero = np.isin(seeds, [5])
        return np.where(zero.reshape(-1, 1, 1, 1, 1), 0.0, projected), np.where(zero, 0.0, norms)

    monkeypatch.setattr(kahlerpinch.experiments, "_random_projection", degenerate)
    cases = [
        # (ts, seeds, index of the first failing pair, its error)
        ([0.1, 0.0, 1e308, 0.1], [1, 2, 3, 5], 2, PreconditionError),
        ([0.1, 0.1, 1e308, np.nan], [1, 5, 3, 4], 1, DegenerateSampleError),
        ([0.0, np.nan, 0.1, 1e308], [1, 2, 5, 3], 1, PreconditionError),
        ([0.1, -1.0, 0.1], [5, 2, 3], 0, DegenerateSampleError),
    ]
    for ts, seeds, first, kind in cases:
        expected = _raised(lambda: perturb(space1, ts[first], seeds[first]))
        for k in range(first):
            perturb(space1, ts[k], seeds[k])  # the pairs before it pass
        got = _raised(lambda: _perturbations(space1, ts, seeds))
        assert type(got) is type(expected) is kind
        assert str(got) == str(expected)


@pytest.mark.parametrize("n", range(1, 7))
def test_perturbations_are_kahler_by_construction(n):
    # a sweep or certification chunk is not certified: every row must pass
    # require_certified's check (relative tolerance) as built, and perturb's
    # own certificate stays check_kahler's at the default tolerance
    from kahlerpinch import CurvatureTensor, check_kahler
    from kahlerpinch.curvature import _relative_tolerance
    from kahlerpinch.experiments import _perturbations
    from kahlerpinch.space import _sample_seeds

    space = make_space(n)
    ts = [0.0, 0.0125, 0.025, 0.05, 0.1]  # criterion 6's grid
    if n == 1:
        # up to the overflow edge: at n = 1, max|S| = 1/2, so 4 max|R0 + tS| is finite below DBL_MAX / 2
        ts += [1e3, 1e100, 1e300, sys.float_info.max / 8.0, sys.float_info.max / 2.0 * (1 - 1e-9)]
    grid = [(t, _sample_seeds([(17, t_index, sample)])[0]) for t_index, t in enumerate(ts) for sample in range(6)]
    ts, seeds = (list(column) for column in zip(*grid))
    entries = _perturbations(space, ts, seeds)
    for t, seed, table in zip(ts, seeds, entries):
        certificate = check_kahler(CurvatureTensor(space, table), _relative_tolerance(table))
        assert certificate.passed, (t, seed, certificate)
        one = perturb(space, t, seed)
        expected = check_kahler(CurvatureTensor(space, table), DEFAULT_SYMMETRY_TOL if t else 1e-12)
        assert one.certificate == (expected if expected.passed else None)
    if n == 1:
        assert perturb(space, ts[-1], seeds[-1]).certificate is None  # past the absolute tolerance


def _ratio_deviations(tensor):
    """|gamma_I / gamma_J - model value| for every ordered pair of distinct
    indices, from the tensor's own chern_densities and density_ratio."""
    from kahlerpinch import chern_densities, density_ratio, reference_constants

    densities, model = chern_densities(tensor), reference_constants(tensor.space.n)
    return {
        f"{a}:{b}": abs(density_ratio(densities, a, b) - density_ratio(model, a, b))
        for a in model
        for b in model
        if a != b
    }


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_ratio_deviations_equal_the_one_tensor_formula(n):
    # each row is the one-tensor formula, bit for bit
    from kahlerpinch.curvature import _certified_stack
    from kahlerpinch.experiments import _ratio_deviation_rows

    space = make_space(n)
    tensors = [perturb(space, 0.01 * (1 + k % 4), 2000 + k).scaled(0.75) for k in range(STACK_SIZES[n] // 2)]
    for tensor, row in zip(tensors, _ratio_deviation_rows(_certified_stack(tensors))):
        expected = _ratio_deviations(tensor)
        assert list(row) == list(expected)
        assert [v.hex() for v in row.values()] == [v.hex() for v in expected.values()]


def test_stacked_ratio_deviations_raise_density_ratios_first_error(space2):
    # a zero tensor's denominators vanish; R0 at 1e300 has densities past the double range
    from kahlerpinch import CurvatureTensor, complex_hyperbolic_tensor
    from kahlerpinch.curvature import _certified_stack
    from kahlerpinch.errors import DegenerateDenominatorError, ResourceLimitError
    from kahlerpinch.experiments import _ratio_deviation_rows

    good = perturb(space2, 0.02, 1)
    zero = CurvatureTensor(space2, np.zeros((4, 4, 4, 4)))
    huge = complex_hyperbolic_tensor(space2).scaled(1e300)
    for bad, kind in ((zero, DegenerateDenominatorError), (huge, ResourceLimitError)):
        assert type(_raised(lambda: _ratio_deviations(bad))) is kind
    for stack, first in (([good, zero, huge], zero), ([good, huge, zero], huge)):
        expected = _raised(lambda: _ratio_deviations(first))
        got = _raised(lambda: _ratio_deviation_rows(_certified_stack(stack)))
        assert type(got) is type(expected) and str(got) == str(expected)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_zero_rows_are_exactly_zero(small_sweep):
    zero_rows = [r for r in small_sweep if r.t == 0.0]
    assert zero_rows
    for r in zero_rows:
        assert r.delta == 0.0
        assert r.frobenius_dist == 0.0
        assert r.h_dev == 0.0
        assert r.ratio_dev_max == 0.0
        assert r.converged


def test_sweep_zero_rows_are_exactly_zero_without_extended_precision(monkeypatch):
    # the exact zeros must not rest on np.longdouble being x87 80-bit: here it
    # is plain double, as on aarch64 or with MSVC
    monkeypatch.setattr(np, "longdouble", np.float64)
    for r in sweep(2, [0.0], 4, 20250810):
        assert (r.delta, r.frobenius_dist, r.h_dev, r.ratio_dev_max) == (0.0, 0.0, 0.0, 0.0)
        assert r.converged


def test_sweep_aggregates_nondecreasing(small_sweep):
    aggregates = aggregate_by_t(small_sweep)
    ratio = [a["max_ratio_dev"] for a in aggregates]
    dist = [a["max_frobenius_dist"] for a in aggregates]
    assert ratio[0] == 0.0 and dist[0] == 0.0
    assert all(x <= y + 1e-15 for x, y in zip(ratio, ratio[1:]))
    assert all(x <= y + 1e-15 for x, y in zip(dist, dist[1:]))


def _record(t, converged):
    return SweepRecord(
        n=2, t=t, seed=1, delta=0.5, frobenius_dist=0.25, h_dev=0.125,
        ratio_devs={}, ratio_dev_max=0.0625, converged=converged, anomaly=False,
    )


def test_aggregates_are_none_without_converged_records():
    aggregates = aggregate_by_t([_record(0.0, True), _record(0.1, False)])
    assert aggregates[0]["max_delta"] == 0.5
    assert aggregates[1]["samples"] == 1 and aggregates[1]["excluded"] == 1
    for field in ("max_delta", "max_frobenius_dist", "max_h_dev", "max_ratio_dev"):
        assert aggregates[1][field] is None, field


def test_sweep_defect_to_distance_direction(small_sweep):
    # small holomorphic deviation never pairs with a large distance
    for r in small_sweep:
        if r.converged and r.h_dev < 0.01:
            assert r.frobenius_dist < 0.5


def test_sweep_record_fields_finite(small_sweep):
    for r in small_sweep:
        assert np.isfinite([r.t, r.delta, r.frobenius_dist, r.h_dev, r.ratio_dev_max]).all()
        assert r.delta >= -1e-6
        assert not r.anomaly


def test_sweep_rejects_bad_input():
    with pytest.raises(PreconditionError):
        sweep(2, [0.0], samples_per_t=0, seed=1)
    with pytest.raises(PreconditionError):
        sweep(2, [-0.1], samples_per_t=1, seed=1)


def test_sweep_takes_a_negative_zero_size_as_zero():
    # -0.0 passes the size check; kept, it was written "-0" to the CSV and
    # reported as -0.0 by aggregate_by_t
    negative, positive = sweep(2, [-0.0, 0.0125], 1, 1), sweep(2, [0.0, 0.0125], 1, 1)
    assert negative == positive
    assert math.copysign(1.0, negative[0].t) == 1.0
    assert math.copysign(1.0, aggregate_by_t(negative)[0]["t"]) == 1.0
    assert emit_csv(negative).split("\n")[1].startswith("0,")


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_emit_csv_header_and_zero_row(small_sweep):
    text = emit_csv(small_sweep)
    lines = text.strip().split("\n")
    assert lines[0] == "t,seed,delta,frobenius_dist,h_dev,ratio_dev_max,converged"
    assert len(lines) == 1 + len(small_sweep)
    zero_rows = [ln for ln in lines[1:] if ln.startswith("0,")]
    for row in zero_rows:
        t, seed, delta, dist, hdev, rdev, conv = row.split(",")
        assert (t, delta, dist, hdev, rdev, conv) == ("0", "0", "0", "0", "0", "true")


def test_emit_csv_sorted_and_deterministic(small_sweep):
    text = emit_csv(small_sweep)
    assert text == emit_csv(list(reversed(small_sweep)))
    rows = [ln.split(",") for ln in text.strip().split("\n")[1:]]
    keys = [(float(r[0]), int(r[1])) for r in rows]
    assert keys == sorted(keys)


def test_emit_csv_rejects_empty_and_mixed():
    with pytest.raises(PreconditionError):
        emit_csv([])
    record = SweepRecord(
        n=2, t=0.0, seed=1, delta=0.0, frobenius_dist=0.0, h_dev=0.0,
        ratio_devs={}, ratio_dev_max=0.0, converged=True, anomaly=False,
    )
    other = SweepRecord(
        n=3, t=0.0, seed=1, delta=0.0, frobenius_dist=0.0, h_dev=0.0,
        ratio_devs={}, ratio_dev_max=0.0, converged=True, anomaly=False,
    )
    with pytest.raises(PreconditionError):
        emit_csv([record, other])


# ---------------------------------------------------------------------------
# constant chain
# ---------------------------------------------------------------------------


def test_coefficient_bound_frozen_values():
    per_k, per_entry = holomorphic_coefficient_bound()
    # derived by hand: |Minv[0]| . (3, 9, 0) = 30/8 and (8 * 16 / 24) * 3.75 = 20
    assert per_k == pytest.approx(3.75, abs=1e-12)
    assert per_entry == pytest.approx(20.0, abs=1e-12)


def test_proof_constants_chain_structure():
    chain = proof_constants(0.1, 2)
    assert chain.eta == pytest.approx(0.1 / (4**4 * 20.0), rel=1e-12)
    assert chain.delta_1 == chain.eta / 4.0  # exact float equality
    assert chain.delta == min(chain.eta / 3.0, chain.delta_1)
    assert chain.delta > 0
    assert 0 < chain.epsilon_1 < 0.1
    # the mixed-component consequence really holds at delta_1
    assert (2.0 / 3.0) * (0.75 + chain.delta_1) <= 0.5 + chain.eta / 6.0 + 1e-18


def test_proof_constants_monotone_in_epsilon():
    deltas = [proof_constants(eps, 2).delta for eps in (0.01, 0.05, 0.1, 0.5)]
    assert all(x <= y for x, y in zip(deltas, deltas[1:]))


def test_proof_constants_epsilon1_satisfies_ratio_inequalities():
    from kahlerpinch.chern import reference_constants

    epsilon = 0.1
    chain = proof_constants(epsilon, 2)
    table = reference_constants(2)
    e1 = chain.epsilon_1
    for gi in table.values():
        for gj in table.values():
            if gi is gj:
                continue
            a, b = abs(gi), abs(gj)
            assert (a - e1) / (b + e1) >= a / b - epsilon - 1e-15
            assert (a + e1) / (b - e1) <= a / b + epsilon + 1e-15


def test_proof_constants_preconditions():
    with pytest.raises(PreconditionError):
        proof_constants(0.0, 2)
    with pytest.raises(PreconditionError):
        proof_constants(0.1, 1)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf])
def test_proof_constants_reject_a_non_finite_epsilon(epsilon):
    # these returned a chain of NaNs or of infs
    with pytest.raises(PreconditionError, match=f"epsilon must be positive and finite, got {epsilon}$"):
        proof_constants(epsilon, 2)


@pytest.mark.parametrize(
    "epsilon, n, name", [(1e-320, 2, "eta"), (1e-318, 4, "eta"), (1.2e-304, 2, "delta_1"), (1e-300, 6, "epsilon_1")]
)
def test_proof_constants_below_the_smallest_normal_double_raise(epsilon, n, name):
    # these returned a chain with delta = 0 (1e-320 at n = 2, 1e-318 at n = 4)
    # or with constants that had lost precision; the first one below
    # sys.float_info.min is named. 1.2e-304 at n = 2 keeps eta normal and
    # 1e-300 at n = 6 keeps eta, delta_1 and delta normal
    with pytest.raises(ResourceLimitError, match=f"^{name} = .* is below the smallest normal double$"):
        proof_constants(epsilon, n)
    chain = proof_constants(epsilon * 1e20, n)
    assert min(chain.eta, chain.delta_1, chain.delta, chain.epsilon_1) >= sys.float_info.min


def test_certification_run_small():
    chain = proof_constants(0.1, 2)
    report = certify_constants(chain, samples=4, seed=15)
    assert isinstance(report, CertificationReport)
    assert report.violations == 0
    assert report.max_defect < chain.delta
    assert report.max_ratio_dev < chain.epsilon


@pytest.mark.parametrize("epsilon, samples", [(1e-12, 3), (1e-300, 1)])
def test_certification_of_space_forms_up_to_rounding(epsilon, samples):
    # delta / 8 leaves these samples within rounding of the model: their
    # defect is 0, never meaningfully below it
    chain = proof_constants(epsilon, 2)
    report = certify_constants(chain, samples, 1)
    assert report.violations == 0
    assert 0.0 <= report.max_defect < chain.delta


def test_certification_rejects_unconverged_and_anomalous_samples(monkeypatch):
    chain = proof_constants(0.1, 2)
    with monkeypatch.context() as patch:
        patch.setattr(kahlerpinch.pinching, "MAX_ITER", 3)
        # n = 2 pinches exactly; the multistart cut short runs at n = 3
        with pytest.raises(RuntimeError, match="sample 0: the pinch did not converge"):
            certify_constants(proof_constants(0.1, 3), 1, 1)
        certify_constants(chain, 1, 1)
    # for n >= 2 a Kahler tensor is at best quarter-pinched: a defect below the
    # anomaly flag means the optimizer missed an extreme. Certification runs
    # normalize_quarter's rule on the chunk's arrays of extremes
    original = kahlerpinch.experiments._quarter_normalization

    def anomalous(k_min, k_max, raises=True):
        scale, delta, anomaly, rejected = original(k_min, k_max, raises)
        return scale, np.full_like(delta, -1e-3), np.ones_like(anomaly), rejected

    monkeypatch.setattr(kahlerpinch.experiments, "_quarter_normalization", anomalous)
    with pytest.raises(RuntimeError, match="sample 0: defect -1.000e-03 is below the quarter-pinching bound"):
        certify_constants(chain, 1, 1)


def test_certification_counts_a_violation_per_ratio_pair_and_sample():
    # an epsilon below every ratio deviation (rounding level, but not 0) makes
    # each ordered ratio pair of each sample a violation; the samples are the
    # passing chain's, which differs only in epsilon
    chain = proof_constants(0.1, 2)
    passing = certify_constants(chain, 2, 1)
    failing = certify_constants(dataclasses.replace(chain, epsilon=1e-30), 2, 1)
    pairs = len(kahlerpinch.experiments._model_ratios(2)[0])
    assert passing.violations == 0
    assert failing.violations == 2 * pairs
    assert dataclasses.replace(failing, violations=0) == passing


def test_sweep_raises_when_more_than_the_excluded_fraction_fails_to_converge(monkeypatch):
    # a multistart cut short leaves records unconverged (n = 2 pinches
    # exactly, so n = 3 with an explicit restart count; 16 restarts, so that
    # the stability test compares two of them): past MAX_EXCLUDED_FRACTION
    # the sweep raises and names their count
    from kahlerpinch import experiments, pinching

    monkeypatch.setattr(pinching, "MAX_ITER", 3)
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "MAX_EXCLUDED_FRACTION", 1.0)
        records = sweep(3, [0.05, 0.1], 2, 1, restarts=16)
    excluded = sum(not record.converged for record in records)
    assert excluded > experiments.MAX_EXCLUDED_FRACTION * len(records)
    message = rf"^{excluded}/4 records failed to converge \(> 5%\); rerun with more restarts$"
    with pytest.raises(RuntimeError, match=message):
        sweep(3, [0.05, 0.1], 2, 1, restarts=16)


def test_a_sweep_below_eleven_restarts_compares_its_best_two(monkeypatch):
    # at 8 restarts the top 10% is one restart; the stability test compares
    # the best two, so a multistart cut short is not converged there either
    from kahlerpinch import pinching

    monkeypatch.setattr(pinching, "MAX_ITER", 3)
    with pytest.raises(RuntimeError, match=r"^4/4 records failed to converge"):
        sweep(3, [0.05, 0.1], 2, 1, restarts=8)


@pytest.mark.parametrize("failing", [1, 2])
def test_sweep_keeps_its_records_up_to_the_excluded_fraction(monkeypatch, failing):
    # of 20 records, 1 unconverged (5%) is kept and flagged; 2 (10%) raise
    from kahlerpinch import experiments
    from kahlerpinch.space import _sample_seeds

    seeds = _sample_seeds([(3, t_index, sample) for t_index in range(2) for sample in range(10)])
    unconverged = seeds[5 : 5 + failing]
    original = experiments._multistart

    def edited(entries, restarts, chunk_seeds, kinds):
        found = original(entries, restarts, chunk_seeds, kinds)
        found[-1].converged[[k for k, seed in enumerate(chunk_seeds) if seed in unconverged]] = False
        return found

    monkeypatch.setattr(experiments, "_multistart", edited)
    if failing > 1:
        with pytest.raises(RuntimeError, match=r"^2/20 records failed to converge \(> 5%\)"):
            sweep(2, [0.0, 0.05], 10, 3)
        return
    records = sweep(2, [0.0, 0.05], 10, 3)
    assert [record.seed for record in records] == seeds
    assert [record.seed for record in records if not record.converged] == unconverged


# ---------------------------------------------------------------------------
# shared optimizer batches
# ---------------------------------------------------------------------------


def _canonical(value) -> str:
    """JSON of a record list or a report; floats print exactly (shortest round-trip repr)."""
    data = [dataclasses.asdict(v) for v in value] if isinstance(value, list) else dataclasses.asdict(value)
    return json.dumps(data, sort_keys=True)


def _joint_reports(tensor, restarts, seed):
    """The pinch and hol_extremes reports of one tensor from the joint pass a
    sweep chunk runs, on a chunk of one. Its plane report is pinch's, except
    that a side that the tensor's sign certificate gives to H reads the
    J-line rows (test_joint_batches_read_certified_sides_from_the_j_lines)."""
    from kahlerpinch.curvature import _certified_stack
    from kahlerpinch.pinching import _multistart, _reports

    planes, lines = _multistart(_certified_stack([tensor]), restarts, [seed], (True, False))
    return _reports(True, planes)[0], _reports(False, lines)[0]


def _sweep_one_tensor_at_a_time(n, t_values, samples_per_t, seed, restarts):
    """sweep's records composed one tensor at a time: each tensor's joint
    pinch and hol_extremes pass on its own, then the public one-tensor calls.

    H is linear in R: the normalized tensor's holomorphic extremes are
    normalization.scale times the perturbed tensor's.
    """
    from kahlerpinch import complex_hyperbolic_tensor, make_space, normalize_quarter
    from kahlerpinch.space import _sample_seeds

    space = make_space(n)
    model = complex_hyperbolic_tensor(space)
    records = []
    for t_index, t in enumerate(sorted(float(t) for t in t_values)):
        for sample in range(samples_per_t):
            sample_seed = _sample_seeds([(seed, t_index, sample)])[0]
            tensor = perturb(space, t, sample_seed)
            report, hol = _joint_reports(tensor, restarts, sample_seed)
            normalization = normalize_quarter(tensor, report)
            normalized = normalization.tensor
            h_min, h_max = normalization.scale * hol.h_min, normalization.scale * hol.h_max
            ratio_devs = _ratio_deviations(normalized)
            records.append(
                SweepRecord(
                    n=n,
                    t=t,
                    seed=sample_seed,
                    delta=normalization.delta,
                    frobenius_dist=distance(normalized, model),
                    h_dev=max(abs(h_min + 1.0), abs(h_max + 1.0)),
                    ratio_devs=ratio_devs,
                    ratio_dev_max=max(ratio_devs.values()) if ratio_devs else 0.0,
                    converged=report.converged and hol.converged,
                    anomaly=normalization.anomaly,
                )
            )
    return records


@pytest.mark.parametrize(
    "n, t_values, samples_per_t, seed, restarts",
    [
        (2, [0.1, 0.0, 0.0125, 0.025, 0.05], 3, 5, 64),
        (3, [0.0, 0.05], 3, 6, 16),
        (4, [0.0, 0.02], 3, 1, None),
    ],
)
def test_sweep_equals_one_tensor_at_a_time(n, t_values, samples_per_t, seed, restarts, monkeypatch):
    expected = _canonical(_sweep_one_tensor_at_a_time(n, t_values, samples_per_t, seed, restarts))
    assert _canonical(sweep(n, t_values, samples_per_t, seed, restarts=restarts)) == expected
    # records in chunks of four samples
    monkeypatch.setattr(kahlerpinch.experiments, "SAMPLES_PER_CHUNK", 4)
    assert _canonical(sweep(n, t_values, samples_per_t, seed, restarts=restarts)) == expected


def _certify_one_tensor_at_a_time(chain, samples, seed, restarts=None):
    """certify_constants composed sample by sample: one pinch of each at t = delta / 8."""
    from kahlerpinch import make_space, normalize_quarter, pinch
    from kahlerpinch.space import _sample_seeds

    space = make_space(chain.n)
    violations, max_ratio_dev, max_defect = 0, 0.0, -float("inf")
    for sample in range(samples):
        sample_seed = _sample_seeds([(seed, 0, sample)])[0]
        tensor = kahlerpinch.experiments.perturb(space, chain.delta / 8.0, sample_seed)
        normalization = normalize_quarter(tensor, pinch(tensor, restarts=restarts, seed=sample_seed))
        if not normalization.delta < chain.delta:
            raise RuntimeError(f"sample {sample}: defect {normalization.delta:.3e} is not below delta")
        max_defect = max(max_defect, normalization.delta)
        for dev in _ratio_deviations(normalization.tensor).values():
            max_ratio_dev = max(max_ratio_dev, dev)
            violations += dev >= chain.epsilon
    return CertificationReport(samples, violations, max_ratio_dev, max_defect, 0)


def test_certify_constants_equals_one_tensor_at_a_time(monkeypatch):
    chain = proof_constants(0.1, 2)
    expected = _canonical(_certify_one_tensor_at_a_time(chain, 5, 5))
    report = certify_constants(chain, samples=5, seed=5)
    assert report.retries == 0
    assert _canonical(report) == expected
    # chunks of two samples: three chunks, the last with one sample
    monkeypatch.setattr(kahlerpinch.experiments, "SAMPLES_PER_CHUNK", 2)
    assert _canonical(certify_constants(chain, samples=5, seed=5)) == expected
    # two samples with a 40x larger perturbation are not delta-pinched: the
    # run stops at the first of them, in whichever chunk it falls
    grown = {_sample_seed_of(5, 1), _sample_seed_of(5, 3)}
    original = kahlerpinch.experiments._perturbations

    def perturb_some_more(space, ts, seeds):
        # perturb is the batch of one of _perturbations, so both see this
        return original(space, [40.0 * t if seed in grown else t for t, seed in zip(ts, seeds)], seeds)

    monkeypatch.setattr(kahlerpinch.experiments, "_perturbations", perturb_some_more)
    with pytest.raises(RuntimeError, match=r"^sample 1: defect .* is not below delta"):
        _certify_one_tensor_at_a_time(chain, 5, 5)
    for chunk in (2, 64):
        monkeypatch.setattr(kahlerpinch.experiments, "SAMPLES_PER_CHUNK", chunk)
        with pytest.raises(RuntimeError, match=r"^sample 1: defect .* is not below delta=4\.88281e-06$"):
            certify_constants(chain, samples=5, seed=5)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_perturbation_defect_is_within_the_proved_bound(n):
    # certify_constants' proof: |K_S| <= |S|_F = 1 on orthonormal pairs, so
    # R0 + tS has defect at most (1 + t)/(1 - 4t) - 1 = 5t/(1 - 4t), and the
    # multistart estimate can only lie below the true defect
    from kahlerpinch import make_space, normalize_quarter, pinch

    space = make_space(n)
    for t in (1e-7, 1e-4, 0.01, 0.05, 0.1, 0.2):
        for seed in range(3):
            tensor = perturb(space, t, seed)
            defect = normalize_quarter(tensor, pinch(tensor, seed=seed)).delta
            assert defect <= 5 * t / (1 - 4 * t), (t, seed, defect)
    # so a chain certifies without a retry whenever delta < 3/4, that is for
    # epsilon below 60 (2n)^4
    assert proof_constants(60 * (2 * n) ** 4 * (1 - 1e-9), n).delta < 0.75 < proof_constants(
        60 * (2 * n) ** 4 * (1 + 1e-9), n
    ).delta


def _sample_seed_of(seed, sample):
    from kahlerpinch.space import _sample_seeds

    return _sample_seeds([(seed, 0, sample)])[0]


def _record_optimizer_batches(monkeypatch):
    """Patch _optimize; returns a list that collects (rows, blocks, plane blocks) per call."""
    import inspect

    from kahlerpinch import pinching

    batches = []
    optimize = pinching._optimize

    def recording(x, signs, owners, *rest):
        arguments = inspect.signature(optimize).bind(x, signs, owners, *rest).arguments
        batches.append((len(x), int(owners[-1]) + 1, arguments["planes"]))
        return optimize(x, signs, owners, *rest)

    monkeypatch.setattr(pinching, "_optimize", recording)
    return batches


def test_sweep_batches_stay_within_the_row_budget(monkeypatch):
    from kahlerpinch.pinching import BATCH_ROWS, DEFAULT_RESTARTS

    batches = _record_optimizer_batches(monkeypatch)
    # criterion 6's grid, 4 samples per t: 20 records. The default budget runs
    # no optimizer at n = 2; its first-run restart count runs as given
    sweep(2, [0.0, 0.0125, 0.025, 0.05, 0.1], samples_per_t=4, seed=20090)
    assert batches == []
    sweep(2, [0.0, 0.0125, 0.025, 0.05, 0.1], samples_per_t=4, seed=20090, restarts=DEFAULT_RESTARTS)
    per_batch = BATCH_ROWS // 128
    assert per_batch >= 2
    # one loop per batch: each tensor's plane block, then the same tensors'
    # J-line blocks, at most BATCH_ROWS // 128 tensors. Every tensor near the
    # model is certified for the minimum, so its plane block runs only its 64
    # ascending rows and its J-line block both sides' 128. planes counts the
    # preconditioned plane blocks, which lead, and all plane blocks: a t = 0
    # tensor is a space form, whose plane block keeps the plain step
    ts = [t for t in (0.0, 0.0125, 0.025, 0.05, 0.1) for _ in range(4)]
    tensors = [ts[start : start + per_batch] for start in range(0, len(ts), per_batch)]
    expected = [(2 * len(chunk), (sum(t > 0.0 for t in chunk), len(chunk))) for chunk in tensors]
    assert [(blocks, planes) for _, blocks, planes in batches] == expected
    assert all(rows == (64 + 128) * planes for rows, _, (_, planes) in batches)
    # the default budget is 64 restarts at n = 4 too, so both tensors share
    # one batch (t = 0 converges, so no rerun)
    batches.clear()
    sweep(4, [0.0], samples_per_t=2, seed=1)
    assert batches == [(384, 4, (0, 2))]


# sweep(3, [0.0, 0.02, 0.05], 2, seed) and sweep(4, [0.0, 0.02], 1, seed) for
# seeds 1-3: (t, sample seed, delta, frobenius_dist, h_dev, ratio_dev_max, the
# sum of ratio_devs, converged, anomaly) per record, recorded from the plane
# rows alone (every sign certificate cleared, so each plane block runs both
# sides) once S was read by a real product. That read moved the ratio
# deviations by up to 4.8e-14 absolute (5.6e-11 relative) from the values
# recorded before it, and no flag
_SWEEPS_WITH_PLANE_MINIMA = {
    (3, 1): [
        (0.0, 1835504127, 0.0, 0.0, 0.0, 0.0, 0.0, True, False),
        (0.0, 1501029259, 0.0, 0.0, 0.0, 0.0, 0.0, True, False),
        (0.02, 1189033389, 0.014928673964185846, 0.0588126964143216, 0.014928673964186068,
         0.00017560234780944484, 0.00023253626295161034, True, False),
        (0.02, 1639030180, 0.011450966619124037, 0.041379571221888616, 0.011450966619124259,
         0.00018673323310558487, 0.0002472744159325302, True, False),
        (0.05, 1596810411, 0.037505217794120416, 0.13281830860283392, 0.03750521779412086,
         0.0011078885440465314, 0.0014669747788544768, True, False),
        (0.05, 830043460, 0.03998781819418151, 0.15126887995753222, 0.03998781819418151,
         0.0011503430035784135, 0.0015234170286418658, True, False),
    ],
    (3, 2): [
        (0.0, 2834126987, 0.0, 0.0, 0.0, 0.0, 0.0, True, False),
        (0.0, 3720552013, 0.0, 0.0, 0.0, 0.0, 0.0, True, False),
        (0.02, 307626447, 0.01417785301408081, 0.05460463468226726, 0.014177853014081032,
         0.0001473088481080964, 0.00019506793124063337, True, False),
        (0.02, 959653083, 0.01569947715998099, 0.05134083744497649, 0.015699477159981212,
         0.00016623175519114852, 0.00022013420143891793, True, False),
        (0.05, 1340026844, 0.035794682575781334, 0.12568859451778586, 0.035794682575781334,
         0.0010539964328390994, 0.0013956979894793747, True, False),
        (0.05, 674825418, 0.03520739331741973, 0.11239452527874702, 0.035207393317419955,
         0.0002968205671720625, 0.00039305441850630285, True, False),
    ],
    (3, 3): [
        (0.0, 1576890651, 0.0, 0.0, 0.0, 0.0, 0.0, True, False),
        (0.0, 3578933982, 0.0, 0.0, 0.0, 0.0, 0.0, True, False),
        (0.02, 457190280, 0.012764989643524016, 0.04555082095729987, 0.012764989643524016,
         0.00013316692843901023, 0.0001763358184020264, True, False),
        (0.02, 3420841517, 0.013989431117028772, 0.052102478293640384, 0.013989431117028994,
         0.00011992467304189347, 0.00015881536606669744, True, False),
        (0.05, 960329833, 0.03807871686286468, 0.1397164947811788, 0.03807871686286446,
         0.0006830723894832857, 0.0009045549669043501, True, False),
        (0.05, 1760858510, 0.03749212859146822, 0.1370611309985122, 0.03749212859146844,
         0.0010197886328899841, 0.0013504411897078406, True, False),
    ],
    (4, 1): [
        (0.0, 1835504127, 0.0, 0.0, 0.0, 0.0, 0.0, True, False),
        (0.02, 1189033389, 0.014523231730681596, 0.06988357234713842, 0.014523231730681818,
         0.0006650284228584269, 0.0010462746810402032, True, False),
    ],
    (4, 2): [
        (0.0, 2834126987, 0.0, 0.0, 0.0, 0.0, 0.0, True, False),
        (0.02, 307626447, 0.011452756712057699, 0.057751959774988565, 0.011452756712057699,
         0.0009643920085835589, 0.0015172398085481643, True, False),
    ],
    (4, 3): [
        (0.0, 1576890651, 0.0, 0.0, 0.0, 0.0, 0.0, True, False),
        (0.02, 457190280, 0.011125194437186403, 0.05660684621223305, 0.011125194437186625,
         0.0010253194654126219, 0.0016130374625181985, True, False),
    ],
}


@pytest.mark.parametrize("n, seed", sorted(_SWEEPS_WITH_PLANE_MINIMA))
def test_sweep_records_keep_their_values_when_k_min_is_read_from_h(n, seed):
    # a tensor certified for the minimum takes K's minimum from H's J-line
    # rows: every record stays within 1e-12 relative of the plane rows'
    # values, with the same flags, and t = 0 rows stay exactly 0
    ts, samples = ([0.0, 0.02, 0.05], 2) if n == 3 else ([0.0, 0.02], 1)
    records = sweep(n, ts, samples, seed)
    assert len(records) == len(_SWEEPS_WITH_PLANE_MINIMA[n, seed])
    for record, expected in zip(records, _SWEEPS_WITH_PLANE_MINIMA[n, seed]):
        got = (
            record.t, record.seed, record.delta, record.frobenius_dist, record.h_dev,
            record.ratio_dev_max, sum(record.ratio_devs.values()), record.converged, record.anomaly,
        )
        assert got[:2] == expected[:2] and got[7:] == expected[7:]
        for value, want in zip(got[2:7], expected[2:7]):
            assert abs(value - want) <= 1e-12 * abs(want), (record, want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sweep_h_dev_matches_the_normalized_tensors_holomorphic_extremes(n):
    # sweep finds H on the perturbed tensor and scales it; the definition
    # reads it off the normalized tensor, which rounds differently
    from kahlerpinch import hol_extremes, normalize_quarter, pinch

    space = make_space(n)
    records = sweep(n, [0.0, 0.02, 0.05], samples_per_t=2, seed=11)
    for record in records:
        tensor = perturb(space, record.t, record.seed)
        normalized = normalize_quarter(tensor, pinch(tensor, seed=record.seed)).tensor
        hol = hol_extremes(normalized, seed=record.seed)
        assert abs(record.h_dev - max(abs(hol.h_min + 1.0), abs(hol.h_max + 1.0))) <= 1e-14
        if record.t == 0.0:
            assert record.h_dev == 0.0



def _stdout_under_one_and_two_blas_threads(*args):
    # python args... in a subprocess with OPENBLAS_NUM_THREADS=1, then =2
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, *args], capture_output=True, env=env)
        assert result.returncode == 0, result.stderr.decode()
        outputs.append(result.stdout)
    return outputs


def test_sweep_records_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS may split a large product across threads; at n = 2..5 no record
    # moves between one thread and two (at n = 6 some do: see the README)
    code = "from kahlerpinch.experiments import sweep\nfor n in (2, 3, 4, 5):\n    print(repr(sweep(n, [0.0, 0.02], 2, 5)))\n"
    outputs = _stdout_under_one_and_two_blas_threads("-c", code)
    assert outputs[0] == outputs[1] and outputs[0].count(b"SweepRecord(") == 16


@pytest.mark.parametrize("n", [2, 3, 4])
def test_identities_do_not_depend_on_the_blas_thread_count(n):
    # the identity suite's stacked pass prints the same bytes on one thread and two
    argv = ["-m", "kahlerpinch", "identities", "--n", str(n), "--samples", "50", "--seed", "1"]
    outputs = _stdout_under_one_and_two_blas_threads(*argv)
    assert outputs[0] == outputs[1] and json.loads(outputs[0])["command"] == "identities"


@pytest.mark.parametrize("n", [2, 3])
def test_certification_does_not_depend_on_the_blas_thread_count(n):
    # constant certification's stacked pass (at n = 2 the closed form, at n = 3
    # the optimizer) prints the same bytes on one thread and two
    argv = ["-m", "kahlerpinch", "constants", "--epsilon", "0.1", "--n", str(n), "--certify", "4", "--seed", "1"]
    outputs = _stdout_under_one_and_two_blas_threads(*argv)
    assert outputs[0] == outputs[1] and json.loads(outputs[0])["certification"]["samples"] == 4


def test_sweep_and_certification_build_no_per_record_objects(monkeypatch):
    # a chunk travels between the stacked layers as one certified entries
    # stack, and its records are read off arrays: no report, normalization,
    # plane or tensor object is built for a record
    from kahlerpinch import CurvatureTensor, HolReport, PinchReport, QuarterNormalization, TwoPlane

    def runs():
        sweep(2, [0.0, 0.0125, 0.025, 0.05, 0.1], samples_per_t=4, seed=3)
        sweep(3, [0.0, 0.02], samples_per_t=2, seed=5)
        certify_constants(proof_constants(0.1, 2), 6, 1)

    runs()  # the per-n caches (R0, the model's Chern ratios) build their tensors once
    built = []

    def counted(name, build):
        def counting(*args, **kwargs):
            built.append(name)
            return build(*args, **kwargs)

        return counting

    for cls in (PinchReport, HolReport, QuarterNormalization, TwoPlane, CurvatureTensor):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    shared = counted("CurvatureTensor._shared", CurvatureTensor._shared.__func__)
    monkeypatch.setattr(CurvatureTensor, "_shared", classmethod(shared))
    # the counters count: one pinch builds its report and two planes
    kahlerpinch.pinching.pinch(perturb(make_space(2), 0.02, 1))
    assert sorted(built) == ["CurvatureTensor._shared", "PinchReport", "TwoPlane", "TwoPlane"]
    built.clear()
    runs()
    assert built == []


def test_chunk_normalization_raises_as_the_first_failing_samples_normalize_quarter(monkeypatch):
    # extremes edited after the chunk's pinch: k_max = 0 is not negatively
    # curved, and k_max = -1e-310 has no scale to -1/4 in double precision.
    # sweep raises the first such sample's normalize_quarter error;
    # certification checks sample by sample, so an earlier defect above delta
    # raises first
    from kahlerpinch import normalize_quarter, pinch
    from kahlerpinch.errors import NotNegativelyCurvedError, ResourceLimitError
    from kahlerpinch.space import _sample_seeds

    original, edits = kahlerpinch.experiments._multistart, {}

    def edited(entries, restarts, seeds, kinds):
        found = original(entries, restarts, seeds, kinds)
        for k, extremes in edits.items():
            found[0].values[k] = extremes
        return found

    monkeypatch.setattr(kahlerpinch.experiments, "_multistart", edited)
    space = make_space(2)
    flat, tiny = (-1.0, 0.0), (-1.0, -1e-310)
    for first, second, kind in ((flat, tiny, NotNegativelyCurvedError), (tiny, flat, ResourceLimitError)):
        edits.clear()
        edits.update({2: first, 4: second})
        tensor = perturb(space, 0.0125, _sample_seeds([(9, 1, 0)])[0])  # sample 2: the second t, sample 0
        report = dataclasses.replace(pinch(tensor), k_min=first[0], k_max=first[1])
        expected = _raised(lambda: normalize_quarter(tensor, report))
        assert type(expected) is kind
        got = _raised(lambda: sweep(2, [0.0, 0.0125, 0.025], samples_per_t=2, seed=9))
        assert type(got) is kind and str(got) == str(expected)
    chain = proof_constants(0.1, 2)
    wide = (-10.0, -0.25)  # a defect of 9, not below delta
    for edit, kind, message in (
        ({1: wide, 3: flat}, RuntimeError, "sample 1: defect 9.000e+00 is not below delta"),
        ({1: flat, 3: wide}, NotNegativelyCurvedError, "curvature maximum must be negative, got 0"),
    ):
        edits.clear()
        edits.update(edit)
        with pytest.raises(kind, match=f"^{re.escape(message)}"):
            certify_constants(chain, 5, 5)

# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


# identity_suite(n, samples=50, seed=1) at 17 digits, as computed by the
# per-entry 24-term reconstruction and per-value H evaluations
RECORDED_IDENTITY_SUITE = {
    2: {
        "identity_one": 2.8102520310824275e-16,
        "solve_vs_direct": 2.9663771439203401e-16,
        "polarization_first": 8.8817841970012523e-16,
        "polarization_second": 7.7715611723760958e-16,
        "polarization_second_printed": 0.31211979925865702,
        "reconstruction_roundtrip": 1.3673394676605277e-16,
        "berger_max_violation": -0.015894880552516866,
        "berger_attainment_gap": 1.6653345369377348e-16,
        "suspected_typo": True,
        "fitted_second_coefficient": -7.9999999999999947,
    },
    3: {
        "identity_one": 2.0816681711721685e-16,
        "solve_vs_direct": 2.7061686225238191e-16,
        "polarization_first": 1.2212453270876722e-15,
        "polarization_second": 8.0491169285323849e-16,
        "polarization_second_printed": 0.14750185457129905,
        "reconstruction_roundtrip": 1.3937018504479046e-16,
        "berger_max_violation": -0.13777375892039118,
        "berger_attainment_gap": 3.3306690738754696e-16,
        "suspected_typo": True,
        "fitted_second_coefficient": -8.0000000000000071,
    },
}


def test_identity_suite_passes_and_flags_typo():
    results = identity_suite(2, samples=30, seed=21)
    for key in (
        "identity_one",
        "solve_vs_direct",
        "polarization_first",
        "polarization_second",
        "reconstruction_roundtrip",
    ):
        assert results[key] < 1e-9, key
    assert results["berger_max_violation"] <= 1e-9
    assert results["berger_attainment_gap"] < 1e-9
    assert results["suspected_typo"] is True
    assert results["fitted_second_coefficient"] == pytest.approx(-8.0, abs=1e-6)


def test_identity_suite_preconditions():
    with pytest.raises(PreconditionError):
        identity_suite(1, samples=10, seed=1)
    with pytest.raises(PreconditionError):
        identity_suite(2, samples=0, seed=1)


def test_identity_suite_matches_recorded_values():
    for n, recorded in RECORDED_IDENTITY_SUITE.items():
        results = identity_suite(n, samples=50, seed=1)
        assert results.keys() == recorded.keys()
        for key, value in recorded.items():
            if isinstance(value, bool):
                assert results[key] is value, key
            else:
                assert results[key] == pytest.approx(value, rel=0.0, abs=1e-12), key


def _per_sample_suite(n, samples, seed):
    # the suite's sample loop before it was batched: one call per identity and
    # sample, theta drawn one sample at a time, the fit over the same samples
    import math

    from kahlerpinch import (
        identity_one_residual,
        make_space,
        polarization_residuals,
        random_kahler,
        random_orthonormal_pair,
        seeded_rng,
        solve_sectional_from_H,
    )
    from kahlerpinch.curvature import _stacked_direct_triple, _stacked_holomorphic_sides
    from kahlerpinch.space import _sample_seeds

    space = make_space(n)
    rng = seeded_rng(seed, 23)
    n_tensors = max(1, min(10, samples // 10))
    tensors = [random_kahler(space, _sample_seeds([(seed, 1, i)])[0]) for i in range(n_tensors)]
    out = dict.fromkeys(
        ["identity_one", "solve_vs_direct", "polarization_first", "polarization_second",
         "polarization_second_printed"],
        0.0,
    )
    num = den = 0.0
    for s in range(samples):
        tensor = tensors[s % n_tensors]
        u, v = random_orthonormal_pair(space, _sample_seeds([(seed, 2, s)])[0], constraint="v_perp_ju")
        out["identity_one"] = max(out["identity_one"], abs(identity_one_residual(tensor, u, v)))
        solved = solve_sectional_from_H(tensor, u, v)
        direct = _stacked_direct_triple(tensor.matrix, space.j_matrix, u, v)
        out["solve_vs_direct"] = max(
            out["solve_vs_direct"], max(abs(x - y) for x, y in zip(solved, direct))
        )
        theta = rng.uniform(0.1, np.pi / 2 - 0.1)
        for a, b in ((1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)), (np.cos(theta), np.sin(theta))):
            pol = polarization_residuals(tensor, u, v, a, b)
            out["polarization_first"] = max(out["polarization_first"], pol["first"])
            out["polarization_second"] = max(out["polarization_second"], pol["second"])
            out["polarization_second_printed"] = max(
                out["polarization_second_printed"], pol["second_printed"]
            )
        ab2 = a * a * b * b
        sides = _stacked_holomorphic_sides(tensor.matrix, space.j_matrix, u, v, np.asarray(a), np.asarray(b))
        target = sides[1] - 12 * ab2 * direct[2]
        num += target * ab2 * direct[1]
        den += (ab2 * direct[1]) ** 2
    out["fitted_second_coefficient"] = num / den
    return out


@pytest.mark.parametrize("n, samples, seed", [(2, 50, 1), (3, 35, 4), (2, 7, 9)])
def test_identity_suite_matches_per_sample_loop(n, samples, seed):
    results = identity_suite(n, samples, seed)
    for key, value in _per_sample_suite(n, samples, seed).items():
        tol = 1e-12 if key == "fitted_second_coefficient" else 1e-14
        assert results[key] == pytest.approx(value, rel=0.0, abs=tol), key


def test_identity_suite_pairs_each_sample_with_its_tensor_and_theta(monkeypatch):
    # sample s goes with tensor s % n_tensors and with the s-th theta drawn; the
    # stacked pass reads the holomorphic sides of each sample once per (a, b)
    import math

    from kahlerpinch import experiments, make_space, random_kahler, random_orthonormal_pair, seeded_rng

    calls = []
    sides = experiments._stacked_holomorphic_sides

    def recording(matrices, j_matrix, u, v, a, b):
        # one row per (matrix, u, v, a, b) the call's batch axes broadcast to
        shape = np.broadcast_shapes(matrices.shape[:-2], u.shape[:-1], v.shape[:-1], a.shape, b.shape)
        rows = [np.broadcast_to(x, shape + x.shape[-1:]).reshape(-1, x.shape[-1]) for x in (u, v)]
        pairs = np.broadcast_to(matrices, shape + matrices.shape[-2:]).reshape((-1,) + matrices.shape[-2:])
        calls.append((pairs, *rows, *(np.broadcast_to(x, shape).ravel() for x in (a, b))))
        return sides(matrices, j_matrix, u, v, a, b)

    monkeypatch.setattr(experiments, "_stacked_holomorphic_sides", recording)
    n, samples, seed = 2, 40, 7
    experiments.identity_suite(n, samples, seed)
    seen = {}
    for matrices, u, v, a, b in calls:
        for row in range(len(u)):
            seen.setdefault((tuple(u[row]), tuple(v[row])), []).append((matrices[row], a[row], b[row]))
    space = make_space(n)
    rng = seeded_rng(seed, 23)
    n_tensors = 4
    tensors = [random_kahler(space, s) for s in experiments._sample_seeds([(seed, 1, i) for i in range(n_tensors)])]
    assert len(seen) == samples
    for s in range(samples):
        u, v = random_orthonormal_pair(space, experiments._sample_seeds([(seed, 2, s)])[0], constraint="v_perp_ju")
        theta = rng.uniform(0.1, math.pi / 2 - 0.1)
        uses = seen[(tuple(u), tuple(v))]
        assert len(uses) == 2
        for matrix, _, _ in uses:
            assert np.array_equal(matrix, tensors[s % n_tensors].matrix)
        # once at a = b = 1/sqrt(2), once at (cos theta, sin theta)
        (diagonal,) = [(a, b) for _, a, b in uses if a == b]
        (rotated,) = [(a, b) for _, a, b in uses if a != b]
        assert diagonal == (1 / math.sqrt(2), 1 / math.sqrt(2))
        assert rotated == pytest.approx((math.cos(theta), math.sin(theta)), rel=1e-15)


def _per_tensor_suite(n, samples, seed):
    # identity_suite before its stacked pass, verbatim: one call per identity
    # and tensor, which evaluates the direct triple and both (a, b) points'
    # holomorphic sides twice
    from math import sqrt

    from kahlerpinch import berger_bound_check, complex_hyperbolic_tensor, random_orthonormal_pair, seeded_rng
    from kahlerpinch.curvature import (
        _stacked_direct_triple,
        _stacked_holomorphic_sides,
        polarization_residuals,
        reconstruct_from_sectional,
        solve_sectional_from_H,
    )
    from kahlerpinch.errors import IdentityInconsistencyError
    from kahlerpinch.space import _sample_seeds

    if n < 2:
        raise PreconditionError("identity suite needs complex dimension >= 2")
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    space = make_space(n)
    n_tensors = max(1, min(10, samples // 10))
    tensors = [random_kahler(space, s) for s in _sample_seeds([(seed, 1, i) for i in range(n_tensors)])]
    model = complex_hyperbolic_tensor(space)
    pairs = [
        random_orthonormal_pair(space, pair_seed, constraint="v_perp_ju")
        for pair_seed in _sample_seeds([(seed, 2, s) for s in range(samples)])
    ]
    us, vs = (np.array(vectors) for vectors in zip(*pairs))
    thetas = seeded_rng(seed, 23).uniform(0.1, np.pi / 2 - 0.1, samples)

    res_one = res_solve = res_first = res_second = res_second_printed = 0.0
    fit_num = fit_den = 0.0
    for i, tensor in enumerate(tensors):
        u, v, theta = us[i::n_tensors], vs[i::n_tensors], thetas[i::n_tensors]
        direct = _stacked_direct_triple(tensor.matrix, space.j_matrix, u, v).T
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
        target = _stacked_holomorphic_sides(tensor.matrix, space.j_matrix, u, v, a, b)[1] - 12 * ab2 * r
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


# (3, 35, 4) splits its samples 12/12/11 across three tensors; (2, 7, 9) has one
@pytest.mark.parametrize("n, samples, seed", [(2, 50, 1), (3, 50, 1), (3, 35, 4), (2, 7, 9), (4, 20, 2)])
def test_identity_suite_equals_the_per_tensor_loop(n, samples, seed):
    results = identity_suite(n, samples, seed)
    expected = _per_tensor_suite(n, samples, seed)
    assert results.keys() == expected.keys()
    for key, value in expected.items():
        assert type(results[key]) is type(value) and results[key] == value, key


def _one_seed_pair(space, seed, constraint="none"):
    # random_orthonormal_pair before the stacked draw, verbatim: u and then w
    # read d normals at a time from seeded_rng(seed), with np.dot and
    # np.linalg.norm on 1-D vectors
    if constraint not in ("none", "v_perp_ju"):
        raise ValueError(f"unknown constraint {constraint!r}")
    if constraint == "v_perp_ju" and space.n < 2:
        raise InvalidDimensionError("constraint v_perp_ju needs complex dimension >= 2")
    rng = seeded_rng(seed)
    u = _unit_gaussian(rng, space.dim)
    ju = space.j(u)
    while True:
        w = rng.standard_normal(space.dim)
        w = w - np.dot(w, u) * u
        if constraint == "v_perp_ju":
            w = w - np.dot(w, ju) * ju
        norm = np.linalg.norm(w)
        if norm > 1e-8:
            return u, w / norm


def _unit_gaussian(rng, dim):
    while True:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            return v / norm


_PAIR_SEEDS = [*range(-40, 260), *(2**32 + k for k in range(-5, 20)), 2**63 - 1, 2**63, 2**64 - 1, -(2**63)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("constraint", ["none", "v_perp_ju"])
def test_stacked_pairs_equal_the_one_seed_draws(n, constraint):
    from kahlerpinch.space import _orthonormal_pairs, random_orthonormal_pair

    space = make_space(n)
    if constraint == "v_perp_ju" and n < 2:
        with pytest.raises(InvalidDimensionError):
            _orthonormal_pairs(space, _PAIR_SEEDS, constraint)
        return
    us, vs = _orthonormal_pairs(space, _PAIR_SEEDS, constraint)
    assert us.shape == vs.shape == (len(_PAIR_SEEDS), space.dim)
    for seed, u, v in zip(_PAIR_SEEDS, us, vs):
        expected = _one_seed_pair(space, seed, constraint)
        assert (u.tobytes(), v.tobytes()) == tuple(x.tobytes() for x in expected), seed
        single = random_orthonormal_pair(space, seed, constraint)
        assert tuple(x.tobytes() for x in single) == tuple(x.tobytes() for x in expected), seed


class _EditedNormals:
    # a generator whose normals are those of another, but where edit(position,
    # served) is not None it replaces the value at that stream position, read
    # from the values served before it
    def __init__(self, rng, edit):
        self.rng, self.edit, self.served = rng, edit, []

    def standard_normal(self, size):
        for value in self.rng.standard_normal(size):
            edited = self.edit(len(self.served), self.served)
            self.served.append(value if edited is None else edited)
        return np.array(self.served[-size:])


def _along_j_of_first_u(d, p, served):
    # the second d normals as J x, x the first d: (J x)_k = -x_{k+1} (k even), x_{k-1} (k odd)
    if not d <= p < 2 * d:
        return None
    k = p - d
    return -served[k + 1] if k % 2 == 0 else served[k - 1]


# case -> (edit(d, position, served), the normals each constraint then reads, in units of d)
_REJECTIONS = {
    # u is read from the next d normals, w from the d after them
    "zero first u": (lambda d, p, served: 0.0 if p < d else None, {"none": 3, "v_perp_ju": 3}),
    "two zero u draws": (lambda d, p, served: 0.0 if p < 2 * d else None, {"none": 4, "v_perp_ju": 4}),
    # w is the raw first u, so it is zero after its projection
    "first w along u": (
        lambda d, p, served: served[p - d] if d <= p < 2 * d else None,
        {"none": 3, "v_perp_ju": 3},
    ),
    # zero after its projection only when it is also projected off Ju
    "first w along Ju": (_along_j_of_first_u, {"none": 2, "v_perp_ju": 3}),
    "zero first u, then w along u": (
        lambda d, p, served: 0.0 if p < d else served[p - d] if 2 * d <= p < 3 * d else None,
        {"none": 4, "v_perp_ju": 4},
    ),
}


@pytest.mark.parametrize("case", list(_REJECTIONS))
@pytest.mark.parametrize(
    "n, constraint", [(1, "none"), (2, "none"), (2, "v_perp_ju"), (3, "v_perp_ju"), (4, "none"), (4, "v_perp_ju")]
)
def test_stacked_pairs_redraw_by_the_one_seed_rule(monkeypatch, case, n, constraint):
    # edited normals force the rejection path on every other seed of a batch,
    # one batch below the stacked seeding cutoff and one above it: a row's
    # first 2d normals come from the stacked draw (space._seeded_normals) and
    # its redraws from seeded_rng. Each row equals its one-seed draw and reads
    # as many normals of its own stream
    from kahlerpinch import space as space_module

    edit, blocks = _REJECTIONS[case]
    space = make_space(n)
    d = space.dim
    real_rng, real_normals = space_module.seeded_rng, space_module._seeded_normals
    for seeds in (list(range(10, 18)), list(range(10, 10 + 3 * space_module.STACKED_SEEDING_ROWS))):
        edited = set(seeds[1::2])
        streams = {}

        def edited_stream(seed, rng):
            stream = _EditedNormals(rng, lambda p, served: edit(d, p, served) if seed in edited else None)
            streams.setdefault(seed, []).append(stream)
            return stream

        def patched_rng(seed):
            return edited_stream(seed, real_rng(seed))

        def patched_normals(batch, out):
            with monkeypatch.context() as m:  # the stacked draw itself on numpy's generators
                m.setattr(space_module, "seeded_rng", real_rng)
                real_normals(batch, out)
            for seed, row in zip(batch, out):
                drawn = types.SimpleNamespace(standard_normal=lambda size, row=row.copy(): row)
                row[:] = edited_stream(seed, drawn).standard_normal(row.size)

        monkeypatch.setattr(space_module, "seeded_rng", patched_rng)
        monkeypatch.setattr(space_module, "_seeded_normals", patched_normals)
        monkeypatch.setitem(globals(), "seeded_rng", patched_rng)
        us, vs = space_module._orthonormal_pairs(space, seeds, constraint)
        for seed, u, v in zip(seeds, us, vs):
            expected_u, expected_v = _one_seed_pair(space, seed, constraint)
            assert (u.tobytes(), v.tobytes()) == (expected_u.tobytes(), expected_v.tobytes()), seed
            # the stacked draw, then a redraw's generator past those 2d normals
            *stacked, one_seed = (stream.served for stream in streams[seed])
            reads = d * (blocks[constraint] if seed in edited else 2)
            assert len(stacked) == (1 if reads == 2 * d else 2), seed
            assert len(stacked[-1]) == len(one_seed) == reads, seed
            assert all(served == one_seed[: len(served)] for served in stacked), seed


def test_identity_suite_draws_its_pairs_in_one_stacked_call(monkeypatch):
    from kahlerpinch import experiments

    calls = []
    pairs = experiments._orthonormal_pairs

    def recording(space, seeds, constraint):
        calls.append((list(seeds), constraint))
        return pairs(space, seeds, constraint)

    monkeypatch.setattr(experiments, "_orthonormal_pairs", recording)
    experiments.identity_suite(2, 40, 7)
    # the samples' pairs, then the attainment check's random_orthonormal_pair(space, 7)
    assert calls == [(experiments._sample_seeds([(7, 2, s) for s in range(40)]) + [7], "v_perp_ju")]


def test_identity_suite_seeds_in_stacked_passes(monkeypatch):
    # one SeedSequence per tensor (5, below the stacked seeding cutoff), one
    # for the stacked pair draw, the thetas and the Berger check: none per
    # sample seed or pair
    built = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    identity_suite(3, 50, 4)
    assert 0 < len(built) <= 8


def test_identity_suite_certifies_no_tensor(monkeypatch):
    # its tensors are Kahler by construction and it reads no certificate
    from kahlerpinch import curvature
    from kahlerpinch.curvature import complex_hyperbolic_tensor

    complex_hyperbolic_tensor(make_space(3))  # the model's certificate, made once per n

    def forbidden(*args, **kwargs):
        raise AssertionError("identity_suite certified a tensor")

    monkeypatch.setattr(curvature, "_symmetry_residuals", forbidden)
    identity_suite(3, 50, 1)


@pytest.mark.parametrize("n", [2, 3])
def test_identity_suite_runs_no_optimizer(monkeypatch, n):
    # the Berger check reads the model's exact curvature minimum, not a pinch
    from kahlerpinch import pinching

    def forbidden(*args, **kwargs):
        raise AssertionError("identity_suite ran the optimizer")

    monkeypatch.setattr(pinching, "_optimize", forbidden)
    results = identity_suite(n, 20, 5)
    assert results["berger_max_violation"] <= 1e-9


def test_sample_seeds_of_distinct_64_bit_seeds_differ():
    from kahlerpinch.space import _sample_seeds

    assert _sample_seeds([(2**63, 0, 0)])[0] != _sample_seeds([(0, 0, 0)])[0]
    assert _sample_seeds([(-1, 0, 0)])[0] != _sample_seeds([(2**63 - 1, 0, 0)])[0]
