"""Pointwise toolkit for pinched Kahler curvature tensors and Chern-form densities.

Submodules are imported lazily so the command-line entry point can apply the
thread-count override before any BLAS-backed library loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # space
    "HermitianSpace": ".space",
    "make_space": ".space",
    "random_unitary_frame": ".space",
    "random_orthonormal_pair": ".space",
    "seeded_rng": ".space",
    # forms
    "wedge": ".forms",
    "power": ".forms",
    "top_coefficient": ".forms",
    "kahler_form": ".forms",
    "basis_form": ".forms",
    "two_form": ".forms",
    # curvature
    "CurvatureTensor": ".curvature",
    "TwoPlane": ".curvature",
    "SymmetryCertificate": ".curvature",
    "complex_hyperbolic_tensor": ".curvature",
    "symmetry_residuals": ".curvature",
    "check_kahler": ".curvature",
    "project_kahler": ".curvature",
    "random_kahler": ".curvature",
    "sectional": ".curvature",
    "holomorphic_sectional": ".curvature",
    "identity_one_residual": ".curvature",
    "reconstruct_from_sectional": ".curvature",
    "solve_sectional_from_H": ".curvature",
    "polarization_residuals": ".curvature",
    "distance": ".curvature",
    "tensor_to_text": ".curvature",
    "tensor_from_text": ".curvature",
    "write_tensor": ".curvature",
    "read_tensor": ".curvature",
    # pinching
    "PinchReport": ".pinching",
    "HolReport": ".pinching",
    "OptimizerDiagnostics": ".pinching",
    "QuarterNormalization": ".pinching",
    "default_restarts": ".pinching",
    "curvature_operator_envelope": ".pinching",
    "pinch": ".pinching",
    "hol_extremes": ".pinching",
    "berger_bound_check": ".pinching",
    "normalize_quarter": ".pinching",
    # chern
    "ChernIndex": ".chern",
    "ChernDensity": ".chern",
    "canonical_frame": ".chern",
    "curvature_matrix": ".chern",
    "chern_form": ".chern",
    "chern_forms": ".chern",
    "chern_densities": ".chern",
    "chern_product": ".chern",
    "chern_ratio": ".chern",
    "density_ratio": ".chern",
    "enumerate_indices": ".chern",
    "reference_constants": ".chern",
    "space_form_ratio": ".chern",
    # experiments
    "SweepRecord": ".experiments",
    "ConstantChain": ".experiments",
    "CertificationReport": ".experiments",
    "perturb": ".experiments",
    "sweep": ".experiments",
    "aggregate_by_t": ".experiments",
    "emit_csv": ".experiments",
    "holomorphic_coefficient_bound": ".experiments",
    "proof_constants": ".experiments",
    "certify_constants": ".experiments",
    "identity_suite": ".experiments",
}

__all__ = sorted(_EXPORTS) + ["errors", "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(import_module(_EXPORTS[name], __name__), name)
    if name == "errors":
        return import_module(".errors", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
