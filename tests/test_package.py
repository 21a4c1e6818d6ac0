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
