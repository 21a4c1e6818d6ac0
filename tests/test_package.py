import json
import re
import sys
from pathlib import Path

import kahlerpinch
from kahlerpinch import chern, curvature, experiments, forms, pinching, space


def test_package_exports_every_submodule_name():
    submodules = (space, forms, curvature, pinching, chern, experiments)
    expected = {name for module in submodules for name in module.__all__} | {"errors", "__version__"}
    assert set(kahlerpinch.__all__) == expected
    assert len(kahlerpinch.__all__) == len(expected)
    for name in kahlerpinch.__all__:
        assert hasattr(kahlerpinch, name), name
    for module in submodules:
        for name in module.__all__:
            assert getattr(kahlerpinch, name) is getattr(module, name)


def test_public_api_is_pinned():
    # a name leaves (or joins) the package only through an edit here
    assert sorted(kahlerpinch.__all__) == [
        "CertificationReport", "ChernIndex", "ConstantChain", "CurvatureTensor",
        "DEFAULT_RESTARTS", "DEFAULT_SYMMETRY_TOL", "HermitianSpace", "HolReport",
        "OptimizerDiagnostics", "PinchReport", "QuarterNormalization", "SweepRecord",
        "SymmetryCertificate", "TENSOR_LAYOUT", "TwoPlane", "__version__",
        "aggregate_by_t", "berger_bound_check", "certify_constants", "check_kahler",
        "chern_densities", "chern_forms", "chern_ratio", "complex_hyperbolic_tensor",
        "curvature_matrix", "curvature_operator_envelope", "density_ratio", "distance",
        "emit_csv", "enumerate_indices", "errors", "hol_extremes",
        "holomorphic_coefficient_bound", "holomorphic_sectional", "identity_one_residual",
        "identity_suite", "make_space", "normalize_quarter", "perturb", "pinch",
        "polarization_residuals", "project_kahler", "proof_constants", "random_kahler",
        "random_orthonormal_pair", "random_unitary_frame", "read_tensor",
        "reconstruct_from_sectional", "reference_constants", "sectional", "seeded_rng",
        "solve_sectional_from_H", "space_form_ratio", "sweep", "symmetry_residuals",
        "tensor_from_text", "tensor_to_text", "write_tensor",
    ]


def test_ci_workflow_runs_the_tier1_suite():
    root = Path(__file__).resolve().parent.parent
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    runs = re.findall(r"^\s*- run: (.*)$", workflow, flags=re.MULTILINE)
    assert any(
        "PYTHONPATH=src" in run and "python -m pytest -q --continue-on-collection-errors" in run for run in runs
    )
    assert 'python -m pip install -e ".[test]" "numpy==2.4.*"' in runs
    # the bit-identity tests once more on one BLAS thread
    assert any(
        run.startswith("OPENBLAS_NUM_THREADS=1 ")
        and "PYTHONPATH=src" in run
        and run.endswith("python -m pytest -q tests/test_pinching.py tests/test_experiments.py")
        for run in runs
    )
    # and the stacked tensor and Chern passes, which must equal their one-tensor calls
    assert any(
        run.startswith("OPENBLAS_NUM_THREADS=1 ")
        and "PYTHONPATH=src" in run
        and run.endswith("python -m pytest -q tests/test_chern.py tests/test_curvature.py")
        for run in runs
    )
    # the uint32 seeding lanes, _secular_top's solvers and the curvature and
    # Chern layers' complex reads with every warning an error
    assert "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -W error tests/test_space.py" in runs
    assert "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -W error tests/test_pinching.py -k secular" in runs
    assert (
        "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -W error tests/test_curvature.py tests/test_chern.py"
        in runs
    )
    # the installed console script, which the tests (python -m kahlerpinch) do not reach
    assert "kahlerpinch r0 --n 2 --out r0.json && kahlerpinch validate r0.json" in runs
    # and the console script on the n = 2 closed form, after r0.json exists
    closed_form = "kahlerpinch pinch r0.json --seed 3 && kahlerpinch constants --epsilon 0.1 --n 2 --certify 2 --seed 1"
    assert closed_form in runs
    assert runs.index(closed_form) > runs.index("kahlerpinch r0 --n 2 --out r0.json && kahlerpinch validate r0.json")
    # and on the Chern densities and ratios of that file
    chern = "kahlerpinch chern r0.json --all"
    assert chern in runs
    assert runs.index(chern) > runs.index("kahlerpinch r0 --n 2 --out r0.json && kahlerpinch validate r0.json")
    # and on a constants chain below double precision, which must exit 3 with an empty stdout
    tiny = "kahlerpinch constants --epsilon 1e-320 --n 2 > tiny.out || status=$?"
    assert tiny in workflow
    assert 'test "$status" -eq 3 && test ! -s tiny.out' in workflow.split(tiny, 1)[1].split("- ", 1)[0]
    # and on the optimizer's planes-only pinch at n = 3, whose JSON is checked
    pinch3 = "kahlerpinch r0 --n 3 --out r03.json && kahlerpinch pinch r03.json --seed 3 --restarts 16 > pinch3.json"
    assert pinch3 in workflow
    assert "sys.exit(0 if values == (-1.0, -0.25, True) else 1)" in workflow.split(pinch3, 1)[1].split("- ", 1)[0]
    # and on the identity suite's stacked pair draw
    assert "kahlerpinch identities --n 3 --samples 50 --seed 1" in runs
    # and on sweeps at n = 2 (the closed form) and then n = 3 (the optimizer)
    configs = re.findall(r"echo '(\{.*\})' > (sweep3?)\.json", workflow)
    assert [(json.loads(config)["n"], name) for config, name in configs] == [(2, "sweep"), (3, "sweep3")]
    assert 'test "$(wc -l < sweep3.csv)" -eq 3' in workflow
    assert re.search(r"python-version: \[\"3\.11\", \"3\.12\"\]", workflow)
    assert re.search(r"OPENBLAS_CORETYPE: Haswell", workflow)
    # a hung step (say, the benchmark gate) must not hold the job for GitHub's 6-hour default
    timeouts = re.findall(r"^    timeout-minutes: (\d+)\s*$", workflow, flags=re.MULTILINE)
    assert len(timeouts) == 1 and 0 < int(timeouts[0]) <= 60


def test_readme_quickstart_prints_what_its_comments_say():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quickstart", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    # each print records its text under the block line that called it
    printed = {}

    def recording_print(*args):
        printed[sys._getframe(1).f_lineno] = " ".join(map(str, args))

    exec(compile(block, "README quickstart", "exec"), {"print": recording_print})
    expected = {
        number: match.group(1)
        for number, line in enumerate(block.splitlines(), 1)
        if (match := re.fullmatch(r"print\(.*\)\s+# (.*)", line))
    }
    assert len(expected) == 2
    assert {number: printed.get(number) for number in expected} == expected
