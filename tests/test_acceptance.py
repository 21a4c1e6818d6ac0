"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
The sweep criterion is the long one (about two minutes); everything else is
seconds.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from kahlerpinch import (
    ChernIndex,
    berger_bound_check,
    chern_ratio,
    complex_hyperbolic_tensor,
    distance,
    enumerate_indices,
    identity_one_residual,
    make_space,
    normalize_quarter,
    pinch,
    project_kahler,
    random_kahler,
    random_orthonormal_pair,
    reconstruct_from_sectional,
    sectional,
    solve_sectional_from_H,
    space_form_ratio,
)
from kahlerpinch.experiments import aggregate_by_t, certify_constants, perturb, proof_constants, sweep

SWEEP_SEED = 20250810


def _report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {number}: {status} - {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_1_chern_ratio_n2():
    model = complex_hyperbolic_tensor(make_space(2))
    start = time.perf_counter()
    ratio = chern_ratio(model, ChernIndex((2, 0)), ChernIndex((0, 1)))
    elapsed = time.perf_counter() - start
    ok = abs(ratio - 3.0) < 1e-8 and elapsed < 1.0
    _report(1, "c1^2/c2 of the model tensor equals 3 at n=2",
            ok, f"ratio={ratio!r}, {elapsed:.3f}s")


def test_criterion_2_chern_ratio_n3():
    model = complex_hyperbolic_tensor(make_space(3))
    start = time.perf_counter()
    sixteen = chern_ratio(model, ChernIndex((3, 0, 0)), ChernIndex((0, 0, 1)))
    six = chern_ratio(model, ChernIndex((1, 1, 0)), ChernIndex((0, 0, 1)))
    elapsed = time.perf_counter() - start
    oracle = space_form_ratio(ChernIndex((1, 1, 0)), ChernIndex((0, 0, 1)))
    ok = (
        abs(sixteen - 16.0) < 1e-8
        and abs(six - oracle) < 1e-8
        and oracle == 6.0
        and elapsed < 10.0
    )
    _report(2, "c1^3/c3 = 16 and c1c2/c3 = 6 at n=3",
            ok, f"{sixteen!r}, {six!r}, {elapsed:.3f}s")


def test_criterion_3_pinching_of_model():
    start = time.perf_counter()
    ok = True
    details = []
    for n in (2, 3):
        space = make_space(n)
        model = complex_hyperbolic_tensor(space)
        report = pinch(model, restarts=64, seed=SWEEP_SEED)
        ok &= abs(report.k_min + 1.0) < 1e-6 and abs(report.k_max + 0.25) < 1e-6
        ok &= report.envelope_lo - 1e-9 <= report.k_min <= report.k_max <= report.envelope_hi + 1e-9
        ok &= abs(sectional(model, report.argmin_plane) - report.k_min) < 1e-9
        ok &= abs(sectional(model, report.argmax_plane) - report.k_max) < 1e-9
        details.append(f"n={n}: [{report.k_min:.9f}, {report.k_max:.9f}]")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _report(3, "model tensor pinches to [-1, -1/4] with envelope and witnesses",
            ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_4_identity_suite(kahler_operator):
    worst = {
        "identity_one": 0.0,
        "reconstruction": 0.0,
        "solve_vs_direct": 0.0,
        "projector": 0.0,
        "model_fixed_point": 0.0,
    }
    for n in (2, 3):
        space = make_space(n)
        model = complex_hyperbolic_tensor(space)
        proj = kahler_operator(n)
        worst["projector"] = max(
            worst["projector"],
            float(np.max(np.abs(proj @ proj - proj))),
            float(np.max(np.abs(proj - proj.T))),
        )
        worst["model_fixed_point"] = max(
            worst["model_fixed_point"], distance(project_kahler(model), model)
        )
        for s in range(100):
            tensor = random_kahler(space, seed=10_000 * n + s)
            assert tensor.certificate is not None and tensor.certificate.passed
            u, v = random_orthonormal_pair(space, 20_000 * n + s, constraint="v_perp_ju")
            worst["identity_one"] = max(
                worst["identity_one"], abs(identity_one_residual(tensor, u, v))
            )
            got = solve_sectional_from_H(tensor, u, v)
            expected = (
                tensor.biquadratic(u, v),
                tensor.biquadratic(u, space.j(v)),
                tensor.evaluate(u, space.j(u), v, space.j(v)),
            )
            worst["solve_vs_direct"] = max(
                worst["solve_vs_direct"],
                max(abs(a - b) for a, b in zip(got, expected)),
            )
            rebuilt = reconstruct_from_sectional(tensor.biquadratic, space)
            worst["reconstruction"] = max(worst["reconstruction"], distance(rebuilt, tensor))
    ok = (
        worst["identity_one"] < 1e-10
        and worst["reconstruction"] < 1e-10
        and worst["solve_vs_direct"] < 1e-9
        and worst["projector"] < 1e-10
        and worst["model_fixed_point"] < 1e-12
    )
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _report(4, "identity suite on 100 random Kahler tensors per n in {2, 3}", ok, detail)


def test_criterion_5_berger_bound():
    space = make_space(2)
    model = complex_hyperbolic_tensor(space)
    worst_violation = -np.inf
    t_grid = (0.02, 0.05, 0.08, 0.12, 0.16)
    for s in range(50):
        tensor = perturb(space, t_grid[s % len(t_grid)], seed=30_000 + s)
        report = pinch(tensor, restarts=64, seed=s)
        norm = normalize_quarter(tensor, report)
        normalized_report = pinch(norm.tensor, restarts=64, seed=s)
        violation = berger_bound_check(norm.tensor, normalized_report.k_min, samples=100, seed=s)
        worst_violation = max(worst_violation, violation)
    u, v = random_orthonormal_pair(space, 77, constraint="v_perp_ju")
    attained = abs(model.evaluate(u, space.j(u), v, space.j(v)))
    ok = worst_violation <= 1e-8 and abs(attained - 0.5) < 1e-10
    _report(5, "mixed-component bound holds on 50 normalized tensors; model attains 1/2",
            ok, f"max violation={worst_violation:.2e}, attained={attained!r}")


def test_criterion_6_theorem_trend_sweep():
    start = time.perf_counter()
    records = sweep(
        2, [0.0, 0.0125, 0.025, 0.05, 0.1], samples_per_t=200, seed=SWEEP_SEED
    )
    elapsed = time.perf_counter() - start
    aggregates = aggregate_by_t(records)
    ratio = [a["max_ratio_dev"] for a in aggregates]
    dist = [a["max_frobenius_dist"] for a in aggregates]
    ok = (
        ratio[0] == 0.0
        and dist[0] == 0.0
        and all(x <= y for x, y in zip(ratio, ratio[1:]))
        and all(x <= y for x, y in zip(dist, dist[1:]))
        and elapsed < 600.0
    )
    detail = (
        f"ratio devs {['%.3e' % r for r in ratio]}, "
        f"dists {['%.3e' % d for d in dist]}, {elapsed:.0f}s"
    )
    _report(6, "sweep maxima vanish at t=0 and are nondecreasing in t", ok, detail)


def test_criterion_7_proof_constant_certification():
    chain = proof_constants(0.1, 2)
    structure_ok = (
        chain.delta > 0
        and chain.delta_1 == chain.eta / 4.0
        and chain.delta == min(chain.eta / 3.0, chain.delta_1)
    )
    report = certify_constants(chain, samples=200, seed=SWEEP_SEED)
    ok = structure_ok and report.violations == 0
    _report(7, "explicit constants are positive and certified on 200 samples",
            ok, f"delta={chain.delta:.3e}, violations={report.violations}, "
                f"max ratio dev={report.max_ratio_dev:.2e}")


def test_criterion_8_convention_independence(unitary_pullback):
    ok = True
    details = []
    for n in (2, 3):
        space = make_space(n)
        indices = enumerate_indices(n)
        for tensor in (complex_hyperbolic_tensor(space), random_kahler(space, seed=123 + n)):
            base = {
                (a, b): chern_ratio(tensor, a, b)
                for a in indices
                for b in indices
                if a != b
            }
            worst = 0.0
            for lam in (0.5, 2.0, 10.0):
                scaled = tensor.scaled(lam)
                for (a, b), value in base.items():
                    worst = max(worst, abs(chern_ratio(scaled, a, b) - value))
            for s in range(5):
                pulled, _ = unitary_pullback(tensor, seed=500 + s)
                for (a, b), value in base.items():
                    worst = max(worst, abs(chern_ratio(pulled, a, b) - value))
            ok &= worst < 1e-10
            details.append(f"n={n}: {worst:.2e}")
    _report(8, "ratios invariant under rescaling and unitary change of frame", ok, ", ".join(details))


def test_criterion_9_cli_reproducibility(tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "kahlerpinch", *args], capture_output=True
        )

    model_path = tmp_path / "model.json"
    assert run("r0", "--n", "2", "--out", str(model_path)).returncode == 0
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"n": 2, "t_values": [0.0, 0.05], "samples_per_t": 2, "seed": 6, "restarts": 16})
    )
    commands = [
        ("validate", str(model_path)),
        ("pinch", str(model_path), "--seed", "3", "--restarts", "16"),
        ("chern", str(model_path), "--all"),
        ("identities", "--n", "2", "--samples", "10", "--seed", "5"),
        ("constants", "--epsilon", "0.1", "--n", "2"),
        ("sweep", "--config", str(config), "--out", str(tmp_path / "s.csv")),
    ]
    ok = True
    for args in commands:
        first = run(*args)
        second = run(*args)
        ok &= first.returncode == second.returncode and first.stdout == second.stdout
    _report(9, "every CLI command is byte-identical across reruns", ok)
