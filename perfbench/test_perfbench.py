"""Self-tests of the benchmark: tracer coverage, exact counts, output contract.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import is_count
from tracer import Tracer, layer_metrics
from worker import SAMPLE_PERIOD_S, SpeedSampler, import_package
from workloads import WORKLOADS, call_seed

kp = import_package()
BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK_JSON = BENCH_DIR.parent / "BENCHMARK.json"


def _chern_forms_wedges(n: int) -> int:
    # chern_forms: n - 1 matrix wedge-products of n^3 entry products, plus
    # n(n+1)/2 Newton-identity products; each complex product is 4 real wedges
    return 4 * ((n - 1) * n**3 + n * (n + 1) // 2)


def _ratio_wedges(n: int, index_i, index_j) -> int:
    return _chern_forms_wedges(n) + sum(index_i.multi_index) + sum(index_j.multi_index)


def test_install_patches_every_module_binding():
    from kahlerpinch import chern, cli, curvature, experiments, forms

    originals = {
        (experiments, "pinch"): experiments.pinch,
        (experiments, "chern_ratio"): experiments.chern_ratio,
        (experiments, "project_kahler"): experiments.project_kahler,
        (chern, "chern_forms"): chern.chern_forms,
        (chern, "wedge"): chern.wedge,
        (forms, "wedge"): forms.wedge,
        (cli, "main"): cli.main,
    }
    biquadratic = curvature.CurvatureTensor.biquadratic
    with Tracer():
        for (module, name), original in originals.items():
            assert getattr(module, name) is not original, f"{module.__name__}.{name}"
        assert chern.wedge is forms.wedge
        assert kp.sweep is experiments.sweep
        assert curvature.CurvatureTensor.biquadratic is not biquadratic
    for (module, name), original in originals.items():
        assert getattr(module, name) is original
    assert curvature.CurvatureTensor.biquadratic is biquadratic


def test_one_record_sweep_counts_and_bit_identical_outputs():
    n, seed = 2, 7
    kp.sweep(n, [0.05], 1, seed + 1)  # warm the projector and reference caches
    untraced = kp.sweep(n, [0.05], 1, seed)
    tracer = Tracer()
    with tracer:
        traced = kp.sweep(n, [0.05], 1, seed)
    assert repr(traced) == repr(untraced)

    calls = {name: f["calls"] for name, f in tracer.by_function().items()}
    indices = kp.enumerate_indices(n)
    pairs = [(a, b) for a in indices for b in indices if a != b]
    expected = {
        "experiments.sweep": 1,
        "experiments.perturb": 1,
        "curvature.random_kahler": 1,
        "curvature.project_kahler": 2,  # the random direction and the perturbed sum
        "pinching.pinch": 1,
        "pinching.curvature_operator_envelope": 1,
        "pinching.hol_extremes": 1,
        "pinching.normalize_quarter": 1,
        "chern.chern_ratio": 2 * len(pairs),  # model ratios, then the record's
        "chern.chern_forms": 2 * len(pairs),
        "chern.curvature_matrix": 2 * len(pairs),
    }
    for name, count in expected.items():
        assert calls.get(name) == count, name
    assert tracer.counts["forms.wedge"] == 2 * sum(_ratio_wedges(n, a, b) for a, b in pairs)
    assert tracer.counts["curvature.biquadratic"] == 0
    metrics = layer_metrics(tracer, 1.0)
    assert metrics["chern.chern_forms.calls_per_tensor"] == len(pairs)
    assert metrics["curvature.project_kahler.bytes_computed"] == 2 * 8 * (2 * n) ** 8


def test_reconstruction_counts_every_oracle_call():
    n = 2
    space = kp.make_space(n)
    model = kp.complex_hyperbolic_tensor(space)
    tracer = Tracer()
    with tracer:
        kp.reconstruct_from_sectional(model.biquadratic, space)
    assert tracer.counts["curvature.biquadratic"] == 8 * (2 * n) ** 4
    assert tracer.by_function()["curvature.reconstruct_from_sectional"]["calls"] == 1


@pytest.mark.parametrize("name", ["sweep-n2", "certify-n2", "identities-n3"])
def test_counts_repeat_exactly_on_one_seed(name):
    """sweep-n4 is left out: one traced call takes about 13 s."""
    workload = WORKLOADS[name]
    workload.warm_up()
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            for j in range(2):
                workload.call(call_seed(3, j))
        metrics = layer_metrics(tracer, 1.0)
        runs.append({k: v for k, v in metrics.items() if is_count(k)})
    assert runs[0] == runs[1]
    assert any(runs[0].values())


def test_speed_sampler_lands_inside_a_long_call():
    import signal
    from time import perf_counter

    previous = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        start = perf_counter()
        total = 0
        while perf_counter() - start < 5 * SAMPLE_PERIOD_S:  # one uninterrupted call
            total += 1
        end = perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.window(start, end)) >= 3
    assert sampler.window(end + 1.0, end + 2.0) == [sampler.samples[-1][1]]


def _last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    spec = json.loads(BENCHMARK_JSON.read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "sweep-n2",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = _last_json_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-n2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
