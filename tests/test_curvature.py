import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kahlerpinch import (
    CurvatureTensor,
    TwoPlane,
    check_kahler,
    complex_hyperbolic_tensor,
    distance,
    holomorphic_sectional,
    identity_suite,
    identity_one_residual,
    make_space,
    polarization_residuals,
    project_kahler,
    random_kahler,
    random_orthonormal_pair,
    reconstruct_from_sectional,
    sectional,
    seeded_rng,
    solve_sectional_from_H,
    symmetry_residuals,
    tensor_from_text,
    tensor_to_text,
    write_tensor,
)
from kahlerpinch import curvature
from kahlerpinch.curvature import _direct_triple, _holomorphic_sides, _polarization_system
from kahlerpinch.errors import (
    DegeneratePlaneError,
    PreconditionError,
    SpaceMismatchError,
    TensorFormatError,
)


def _unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# model tensor
# ---------------------------------------------------------------------------


def test_model_tensor_holomorphic_curvature_is_minus_one(r0_n2, space2):
    rng = seeded_rng(1)
    for _ in range(20):
        u = _unit(rng, space2.dim)
        assert holomorphic_sectional(r0_n2, u) == pytest.approx(-1.0, abs=1e-12)


def test_model_tensor_totally_real_sectional(r0_n2, space2):
    for seed in range(10):
        u, v = random_orthonormal_pair(space2, seed, constraint="v_perp_ju")
        assert sectional(r0_n2, TwoPlane(u, v)) == pytest.approx(-0.25, abs=1e-12)


def test_model_tensor_mixed_component(r0_n2, space2):
    for seed in range(10):
        u, v = random_orthonormal_pair(space2, seed, constraint="v_perp_ju")
        value = r0_n2.evaluate(u, space2.j(u), v, space2.j(v))
        assert value == pytest.approx(-0.5, abs=1e-12)


def test_model_tensor_certificate_exact(r0_n2):
    res = symmetry_residuals(r0_n2)
    assert all(v == 0.0 for v in res.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_model_tensor_results_share_read_only_entries(n):
    space = make_space(n)
    first, second = complex_hyperbolic_tensor(space), complex_hyperbolic_tensor(make_space(n))
    assert first is not second
    assert np.array_equal(first.entries, second.entries)
    assert first.space == second.space == space
    for array in (first.entries, first.matrix, second.matrix, curvature._j_kron(n)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 1.0
    assert np.array_equal(first.entries, complex_hyperbolic_tensor(space).entries)
    assert np.array_equal(curvature._j_kron(n), np.kron(space.j_matrix, space.j_matrix))


def test_check_kahler_on_one_model_tensor_leaves_the_next_one_alone(space2):
    first = complex_hyperbolic_tensor(space2)
    assert check_kahler(first, 1.0).tolerance == 1.0
    assert first.certificate.tolerance == 1.0
    second = complex_hyperbolic_tensor(space2)
    assert second.certificate.passed
    assert second.certificate.tolerance == 1e-12
    first.certificate = None
    assert complex_hyperbolic_tensor(space2).certificate.tolerance == 1e-12


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def test_single_entry_tensor_fails_antisymmetry(space2):
    entries = np.zeros((4, 4, 4, 4))
    entries[0, 1, 2, 3] = 1.0
    cert = check_kahler(CurvatureTensor(space2, entries), 1e-12)
    assert not cert.passed
    assert cert.antisymmetry == pytest.approx(1.0)


def test_random_dense_tensor_fails(space2):
    rng = seeded_rng(33)
    tensor = CurvatureTensor(space2, rng.standard_normal((4, 4, 4, 4)))
    cert = check_kahler(tensor, 1e-9)
    assert not cert.passed
    # recompute the residual directly: max over both antisymmetric pairs
    e = tensor.entries
    ranges = [(i, j, k, l) for i in range(4) for j in range(4) for k in range(4) for l in range(4)]
    direct = max(
        max(abs(e[i, j, k, l] + e[j, i, k, l]), abs(e[i, j, k, l] + e[i, j, l, k]))
        for i, j, k, l in ranges
    )
    assert cert.antisymmetry == pytest.approx(direct, abs=1e-15)


def test_require_certified_tolerance_scales_with_the_entries(space2):
    from kahlerpinch import chern_densities, pinch
    from kahlerpinch.curvature import require_certified

    kahler = random_kahler(space2, seed=5)
    big = CurvatureTensor(space2, kahler.entries * 1e9)
    # the absolute default tolerance rejects the rounding of 1e9-sized entries ...
    assert not check_kahler(CurvatureTensor(space2, big.entries)).passed
    # ... on-demand certification is relative to them
    assert require_certified(big).certificate.passed
    densities, expected = chern_densities(big), chern_densities(kahler)
    for index, gamma in densities.items():
        assert gamma == pytest.approx(expected[index] * 1e9**2, rel=1e-12, abs=0.0)
    report = pinch(CurvatureTensor(space2, big.entries), restarts=8, seed=1)
    assert report.k_max == pytest.approx(1e9 * pinch(kahler, restarts=8, seed=1).k_max, rel=1e-9)
    dense = CurvatureTensor(space2, seeded_rng(33).standard_normal((4, 4, 4, 4)) * 1e9)
    for call in (require_certified, chern_densities):
        with pytest.raises(PreconditionError, match="not Kahler"):
            call(dense)


def _index_residuals(tensor):
    """The four residuals with J applied as a permutation and sign of basis indices."""
    e = tensor.entries
    d = tensor.space.dim
    perm = np.arange(d) ^ 1  # J e_{2a} = e_{2a+1}, J e_{2a+1} = -e_{2a}
    sign = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    front = sign[:, None, None, None] * sign[None, :, None, None] * e[perm][:, perm]
    back = sign[None, None, :, None] * sign[None, None, None, :] * e[:, :, perm][:, :, :, perm]
    return {
        "antisymmetry": float(
            max(np.max(np.abs(e + e.transpose(1, 0, 2, 3))), np.max(np.abs(e + e.transpose(0, 1, 3, 2))))
        ),
        "pair_exchange": float(np.max(np.abs(e - e.transpose(2, 3, 0, 1)))),
        "bianchi": float(np.max(np.abs(e + e.transpose(0, 3, 1, 2) + e.transpose(0, 2, 3, 1)))),
        "j_invariance": float(max(np.max(np.abs(front - e)), np.max(np.abs(back - e)))),
    }


def test_symmetry_residuals_match_index_formula():
    # J (x) J is a signed permutation, so the pair-matrix residuals are exact
    for n in (1, 2, 3):
        space = make_space(n)
        d = space.dim
        for seed in range(4):
            rng = seeded_rng(91, n, seed)
            raw = CurvatureTensor(space, rng.standard_normal((d,) * 4))
            nearly = CurvatureTensor(
                space, random_kahler(space, seed).entries + 1e-6 * rng.standard_normal((d,) * 4)
            )
            for tensor in (raw, nearly):
                assert symmetry_residuals(tensor) == _index_residuals(tensor)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def _constraint_matrix(space):
    """Dense linear system whose null space is the Kahler curvature subspace.

    One row per basis tuple per symmetry condition (1a), (1b), (2), (3), (4a),
    (4b); heavily redundant, which is harmless for the null space. Built from
    flat index arithmetic, independently of project_kahler.
    """
    d = space.dim
    n_entries = d**4
    idx = np.arange(n_entries)
    i, rem = np.divmod(idx, d**3)
    j, rem = np.divmod(rem, d**2)
    k, l = np.divmod(rem, d)
    perm = np.arange(d) ^ 1  # J swaps e_{2a} and e_{2a+1} ...
    sign = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)  # ... with R_{Ji,..} = s_i R_{perm i,..}

    def flat(a, b, c, e):
        return ((a * d + b) * d + c) * d + e

    ones = np.ones(n_entries)
    families = [
        [(idx, ones), (flat(j, i, k, l), ones)],
        [(idx, ones), (flat(i, j, l, k), ones)],
        [(idx, ones), (flat(k, l, i, j), -ones)],
        [(idx, ones), (flat(i, l, j, k), ones), (flat(i, k, l, j), ones)],
        [(flat(perm[i], perm[j], k, l), sign[i] * sign[j]), (idx, -ones)],
        [(flat(i, j, perm[k], perm[l]), sign[k] * sign[l]), (idx, -ones)],
    ]
    a = np.zeros((len(families) * n_entries, n_entries))
    for f, terms in enumerate(families):
        for cols, values in terms:
            np.add.at(a, (idx + f * n_entries, cols), values)
    return a


def test_projector_rank_matches_independent_nullity_oracle(kahler_operator):
    # rank-revealing SVD of the assembled constraint system against the
    # operator matrix of project_kahler on the standard basis
    for n in (1, 2, 3):
        space = make_space(n)
        a = _constraint_matrix(space)
        nullity = a.shape[1] - np.linalg.matrix_rank(a)
        proj = kahler_operator(n)
        assert nullity == np.linalg.matrix_rank(proj) == (n * (n + 1) // 2) ** 2
        assert np.trace(proj) == pytest.approx(nullity, abs=1e-8)
        assert np.max(np.abs(a @ proj)) < 1e-10


def test_projector_dimension_small_n(kahler_operator):
    assert np.linalg.matrix_rank(kahler_operator(1)) == 1
    assert np.linalg.matrix_rank(kahler_operator(3)) == 36


def test_projection_fixes_model_tensor():
    for n in (1, 2, 3, 4):
        model = complex_hyperbolic_tensor(make_space(n))
        assert distance(project_kahler(model), model) < 1e-12


def test_projection_idempotent_and_self_adjoint(space2, kahler_operator):
    for n in (1, 2, 3):
        proj = kahler_operator(n)
        assert np.max(np.abs(proj - proj.T)) < 1e-10
        assert np.max(np.abs(proj @ proj - proj)) < 1e-10
    rng = seeded_rng(9)
    raw = rng.standard_normal((4, 4, 4, 4))
    once = project_kahler(raw, space2)
    twice = project_kahler(once)
    assert distance(once, twice) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32),
    scale=st.floats(1e-3, 1e3),
)
def test_projection_is_idempotent_orthogonal_and_certified(n, seed, scale):
    space = make_space(n)
    rng = seeded_rng(seed)
    raw, other = scale * rng.standard_normal((2,) + (space.dim,) * 4)
    once = project_kahler(raw, space)
    assert once.certificate is not None and once.certificate.passed
    assert distance(project_kahler(once), once) <= 1e-12 * scale
    # the residual is orthogonal to every projected tensor
    residual = raw - once.entries
    assert abs(np.vdot(residual, project_kahler(other, space).entries)) <= 1e-10 * scale**2


def test_projection_of_a_table_near_the_double_range():
    # at n = 1, perturb accepts t up to DBL_MAX/2: the projection works at unit
    # scale, so its sums of up to eight entries cannot overflow
    import warnings

    from kahlerpinch.experiments import perturb

    tensor = perturb(make_space(1), sys.float_info.max / 2.0 * (1 - 1e-9), seed=0)
    scale = np.max(np.abs(tensor.entries))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        projected = project_kahler(tensor)
    assert curvature.require_certified(projected).certificate.passed  # relative to its scale
    assert np.max(np.abs(projected.entries - tensor.entries)) <= 8 * np.finfo(float).eps * scale


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8, 1e200])
def test_projection_keeps_its_certificate_at_any_scale(scale):
    # the projection certifies at DEFAULT_SYMMETRY_TOL times max(1, max|R|),
    # require_certified's rule; at an absolute tolerance a table at 1e8 (n = 3)
    # came back with no certificate
    from kahlerpinch import DEFAULT_SYMMETRY_TOL

    space = make_space(3)
    raw = scale * seeded_rng(3, 5).standard_normal((6, 6, 6, 6))
    projected = project_kahler(raw, space)
    certificate = projected.certificate
    assert certificate is not None and certificate.passed
    assert certificate.tolerance == DEFAULT_SYMMETRY_TOL * max(1.0, float(np.max(np.abs(projected.entries))))
    # check_kahler's default stays absolute
    if scale >= 1e8:
        assert not check_kahler(CurvatureTensor(space, projected.entries)).passed


def test_symmetry_closure_over_many_seeds():
    # certified output for every seed; split across dimensions
    for n, count in ((1, 334), (2, 333), (3, 333)):
        space = make_space(n)
        d = space.dim
        for s in range(count):
            raw = seeded_rng(n, s).standard_normal((d, d, d, d))
            tensor = CurvatureTensor(space, project_kahler(raw, space).entries)
            cert = check_kahler(tensor, 1e-10)
            assert cert.passed, f"n={n} seed={s} residual {cert.max_residual}"


def test_random_kahler_runs_without_scipy():
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from kahlerpinch import make_space, random_kahler\n"
        "assert random_kahler(make_space(2), seed=3).certificate.passed\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert result.returncode == 0, result.stderr.decode()


def test_random_kahler_contract(space2):
    tensor = random_kahler(space2, seed=4, frobenius_norm=2.5)
    assert tensor.certificate is not None and tensor.certificate.passed
    assert tensor.certificate.max_residual <= 1e-10
    assert abs(tensor.frobenius_norm() - 2.5) < 1e-12
    other = random_kahler(space2, seed=5, frobenius_norm=2.5)
    assert distance(tensor, other) > 0


@pytest.mark.parametrize("norm", [math.nan, math.inf, 0.0, -1.0])
def test_random_kahler_rejects_a_norm_that_is_not_positive_and_finite(space2, norm):
    # NaN failed no comparison and reached the scaling as a bare ValueError;
    # inf overflowed the entries first
    with pytest.raises(PreconditionError, match=f"got {norm}$"):
        random_kahler(space2, seed=4, frobenius_norm=norm)


# ---------------------------------------------------------------------------
# stacked passes: each table of a stack gets its one-tensor result bit for bit
# ---------------------------------------------------------------------------

# tensors per stack: sweep's 64-sample chunk up to n = 4, fewer where a table is large
STACK_SIZES = {1: 64, 2: 64, 3: 64, 4: 64, 5: 16, 6: 8}


def _raw_stack(n: int) -> np.ndarray:
    """Normal tables at scales 2^-40 to 2^40, one of them zero."""
    count, d = STACK_SIZES[n], 2 * n
    raw = seeded_rng(n, 29).standard_normal((count,) + (d,) * 4)
    raw *= np.ldexp(1.0, np.arange(count) % 81 - 40).reshape(-1, 1, 1, 1, 1)
    raw[count // 2] = 0.0
    return raw


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_projections_and_certificates_equal_one_tensor_calls(n):
    space = make_space(n)
    raw = _raw_stack(n)
    projected = curvature._projection(raw)
    residuals = curvature._symmetry_residuals(projected)
    certificates = curvature._certificates(projected, curvature._relative_tolerance(projected))
    absolute = curvature._certificates(projected, 1e-12)
    norms = curvature._frobenius(projected)
    for k, table in enumerate(raw):
        one = project_kahler(table, space)
        assert projected[k].tobytes() == one.entries.tobytes()
        assert certificates[k] == one.certificate
        assert _hex(residuals[k]) == _hex(symmetry_residuals(one).values())
        assert absolute[k] == check_kahler(CurvatureTensor(space, one.entries), 1e-12)
        assert norms[k].hex() == one.frobenius_norm().hex()


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_random_kahlers_and_distances_equal_one_tensor_calls(n):
    space = make_space(n)
    seeds = list(range(STACK_SIZES[n]))
    tensors = curvature._random_kahlers(space, seeds, 2.5)
    model = complex_hyperbolic_tensor(space)
    distances = curvature._distances(np.array([tensor.entries for tensor in tensors]), model.entries)
    for seed, tensor, dist in zip(seeds, tensors, distances):
        one = random_kahler(space, seed, 2.5)
        assert tensor.entries.tobytes() == one.entries.tobytes()
        assert tensor.certificate == one.certificate
        assert dist.hex() == distance(one, model).hex()


def test_stacked_random_kahlers_raise_for_the_first_degenerate_seed(monkeypatch, space2):
    # a seed whose projection is zero raises random_kahler's error, the first one in order
    from kahlerpinch.errors import DegenerateSampleError

    original = curvature._random_projection

    def degenerate(space, seeds):
        projected, norms = original(space, seeds)
        zero = np.isin(seeds, [5, 7])
        return np.where(zero.reshape(-1, 1, 1, 1, 1), 0.0, projected), np.where(zero, 0.0, norms)

    monkeypatch.setattr(curvature, "_random_projection", degenerate)
    with pytest.raises(DegenerateSampleError) as one:
        random_kahler(space2, 7)
    with pytest.raises(DegenerateSampleError) as stacked:
        curvature._random_kahlers(space2, [1, 7, 2, 5], 1.0)
    assert str(stacked.value) == str(one.value) == "seed 7 projected to zero; retry with another seed"


def test_stacked_norms_are_the_dot_of_np_linalg_norm():
    # at unit scale (max |entry| in [1/2, 1)) each norm is np.linalg.norm of the
    # flattened table bit for bit: one BLAS dot per table, not a summed reduction
    raw = _raw_stack(3)
    tables = np.ldexp(raw, -curvature._unit_exponent(raw).reshape(-1, 1, 1, 1, 1))
    assert (curvature._unit_exponent(tables) == 0).all()
    assert _hex(curvature._frobenius(tables)) == _hex(np.linalg.norm(table.ravel()) for table in tables)


# ---------------------------------------------------------------------------
# curvature evaluation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_evaluate_matches_einsum_oracle(n):
    space = make_space(n)
    d = space.dim
    rng = seeded_rng(71, n)
    raw = CurvatureTensor(space, rng.standard_normal((d,) * 4))  # no pair exchange
    for tensor in (random_kahler(space, seed=71), raw):
        tol = 1e-13 * np.max(np.abs(tensor.entries))
        x, y, z, w = (np.array([[_unit(rng, d) for _ in range(3)] for _ in range(2)]) for _ in range(4))
        values = tensor.evaluate(x, y, z, w)
        biquadratics = tensor.biquadratic(x, y)
        assert values.shape == biquadratics.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            oracle = np.einsum("ijkl,i,j,k,l", tensor.entries, x[idx], y[idx], z[idx], w[idx])
            assert abs(values[idx] - oracle) <= tol
            oracle = np.einsum("ijkl,i,j,k,l", tensor.entries, x[idx], y[idx], x[idx], y[idx])
            assert abs(biquadratics[idx] - oracle) <= tol
        single = tensor.evaluate(x[1, 2], y[1, 2], z[1, 2], w[1, 2])
        assert type(single) is float
        assert abs(single - values[1, 2]) <= tol
        assert type(tensor.biquadratic(x[1, 2], y[1, 2])) is float
        # a 1-D argument broadcasts against batched ones
        assert np.array_equal(tensor.evaluate(x[0, 0], y, z, w)[0, 0], values[0, 0])


def test_sectional_is_plane_invariant(r0_n2, space2):
    rng = seeded_rng(21)
    tensor = random_kahler(space2, seed=6)
    u, v = random_orthonormal_pair(space2, 3)
    base = sectional(tensor, TwoPlane(u, v))
    assert sectional(tensor, TwoPlane(2 * u, 3 * v)) == pytest.approx(base, rel=1e-12)
    # shear the spanning pair: same plane
    assert sectional(tensor, TwoPlane(u, v + 0.7 * u)) == pytest.approx(base, rel=1e-11)


def test_degenerate_plane_rejected():
    space = make_space(2)
    u = space.basis_vector(0)
    with pytest.raises(DegeneratePlaneError):
        TwoPlane(u, 2 * u)
    with pytest.raises(DegeneratePlaneError):
        TwoPlane(u, np.zeros(4))


@pytest.mark.parametrize("s", [1e-150, 1e-13, 1e-3, 1.0, 1e150])
def test_short_and_long_vectors_span_planes(r0_n2, space2, s):
    # degeneracy is decided on u/|u| and v/|v|, and K and H are evaluated there
    e0, e2 = space2.basis_vector(0), space2.basis_vector(2)
    assert sectional(r0_n2, TwoPlane(s * e0, s * e2)) == pytest.approx(-0.25, rel=1e-15, abs=0.0)
    assert holomorphic_sectional(r0_n2, s * e0) == pytest.approx(-1.0, rel=1e-15, abs=0.0)


def test_holomorphic_sectional_contract(r0_n2, space2):
    rng = seeded_rng(13)
    u = rng.standard_normal(space2.dim)
    assert holomorphic_sectional(r0_n2, u) == pytest.approx(-1.0, abs=1e-12)
    doubled = r0_n2.scaled(2.0)
    assert holomorphic_sectional(doubled, u) == pytest.approx(-2.0, abs=1e-12)
    tensor = random_kahler(space2, seed=14)
    unit = u / np.linalg.norm(u)
    via_plane = sectional(tensor, TwoPlane(unit, space2.j(unit)))
    assert holomorphic_sectional(tensor, u) == pytest.approx(via_plane, rel=1e-10)
    with pytest.raises(DegeneratePlaneError):
        holomorphic_sectional(r0_n2, np.zeros(space2.dim))


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def test_identity_one_on_model_tensor(r0_n2, space2):
    u, v = random_orthonormal_pair(space2, 17, constraint="v_perp_ju")
    # (-1/4) + (-1/4) - (-1/2) = 0
    assert abs(identity_one_residual(r0_n2, u, v)) < 1e-12


def test_identity_one_requires_orthonormal_quadruple(r0_n2, space2):
    u = space2.basis_vector(0)
    v = space2.basis_vector(1)  # v = Ju: not an orthonormal quadruple
    with pytest.raises(PreconditionError):
        identity_one_residual(r0_n2, u, v)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_plane_rejected(space2, bad):
    # NaN fails every comparison, so the Gram test alone would let it through
    tensor = random_kahler(space2, seed=6)
    u, v = random_orthonormal_pair(space2, 3)
    u[0] = bad
    with pytest.raises(DegeneratePlaneError):
        sectional(tensor, TwoPlane(u, v))
    with pytest.raises(DegeneratePlaneError):
        TwoPlane(v, u)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "entry",
    [
        lambda tensor, u, v: identity_one_residual(tensor, u, v),
        lambda tensor, u, v: polarization_residuals(tensor, u, v, 0.6, 0.8),
        lambda tensor, u, v: solve_sectional_from_H(tensor, u, v),
    ],
    ids=["identity_one_residual", "polarization_residuals", "solve_sectional_from_H"],
)
def test_identities_reject_non_finite_vectors(space2, entry, bad):
    tensor = random_kahler(space2, seed=6)
    u, v = random_orthonormal_pair(space2, 1, constraint="v_perp_ju")
    for vectors in ((u, v), (v, u)):
        x, y = vectors[0].copy(), vectors[1]
        x[0] = bad
        with pytest.raises(PreconditionError, match="finite"):
            entry(tensor, x, y)
    # one bad row fails a batched call
    us, vs = np.stack([u, u]), np.stack([v, v])
    us[1, 2] = bad
    with pytest.raises(PreconditionError, match="finite"):
        entry(tensor, us, vs)


def test_identity_one_on_random_kahler_tensors():
    worst = 0.0
    for n in (2, 3):
        space = make_space(n)
        for s in range(500):
            tensor = random_kahler(space, seed=1000 + s)
            u, v = random_orthonormal_pair(space, 2000 + s, constraint="v_perp_ju")
            worst = max(worst, abs(identity_one_residual(tensor, u, v)))
    assert worst < 1e-10


def test_identity_one_nonzero_for_non_kahler(space2):
    entries = np.zeros((4, 4, 4, 4))
    entries[0, 2, 0, 2] = 1.0  # K(e1, e3) only: breaks J-invariance
    tensor = CurvatureTensor(space2, entries)
    u, v = space2.basis_vector(0), space2.basis_vector(2)
    assert abs(identity_one_residual(tensor, u, v)) > 0.5


def test_reconstruction_roundtrip_model(r0_n2, space2):
    rebuilt = reconstruct_from_sectional(r0_n2.biquadratic, space2)
    assert distance(rebuilt, r0_n2) < 1e-12


def test_reconstruction_roundtrip_random():
    for n in (1, 2, 3, 4):
        space = make_space(n)
        for s in (3, 4):
            tensor = random_kahler(space, seed=s)
            rebuilt = reconstruct_from_sectional(tensor.biquadratic, space)
            assert distance(rebuilt, tensor) < 1e-10


def test_reconstruction_calls_oracle_once_per_pair():
    # d^2 vectors e_i + e_k (i <= k), e_i - e_k (i < k): one batched call, one
    # row per unordered pair
    for n, expected_pairs in ((1, 10), (2, 136), (3, 666), (4, 2080)):
        space = make_space(n)
        tensor = random_kahler(space, seed=5)
        runs = []
        for _ in range(2):
            calls = []

            def oracle(a, b):
                calls.append((np.array(a), np.array(b)))
                return tensor.biquadratic(a, b)

            rebuilt = reconstruct_from_sectional(oracle, space)
            assert distance(rebuilt, tensor) < 1e-10
            assert len(calls) == 1
            runs.append(calls[0])
        (a, b), (a_again, b_again) = runs
        d2 = space.dim**2
        assert a.shape == b.shape == (len(a), space.dim)
        assert len(a) <= d2 * (d2 + 1) // 2 == expected_pairs
        assert np.array_equal(a, a_again) and np.array_equal(b, b_again)


def _reconstruct_uncached(k_oracle, space):
    # reconstruct_from_sectional before its index tables were cached per d
    d = space.dim
    eye = np.eye(d)
    i, k = np.divmod(np.arange(d * d), d)
    low, high = np.minimum(i, k), np.maximum(i, k)
    vectors = eye[low] + np.where(i <= k, 1.0, -1.0)[:, None] * eye[high]
    plus = low * d + high
    minus = np.where(i == k, d * d, high * d + low)
    table = np.zeros((d * d + 1, d * d + 1))
    p, q = np.triu_indices(d * d)
    table[p, q] = table[q, p] = k_oracle(vectors[p], vectors[q])
    pair = (
        table[np.ix_(plus, plus)]
        + table[np.ix_(minus, minus)]
        - table[np.ix_(plus, minus)]
        - table[np.ix_(minus, plus)]
    ).reshape(d, d, d, d)
    return CurvatureTensor(space, (pair.transpose(0, 2, 1, 3) - pair.transpose(0, 2, 3, 1)) / 24.0)


def test_reconstruction_index_tables_are_cached_read_only():
    # the oracle receives cached arrays: it must not be able to write them, and
    # every entry equals the formula that built its tables per call
    from kahlerpinch.curvature import _reconstruction_tables

    for n in (1, 2, 3, 4):
        space = make_space(n)
        tables = _reconstruction_tables(space.dim)
        assert _reconstruction_tables(space.dim) is tables
        for array in tables:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = array.flat[0]
        received = []

        def oracle(a, b, tensor=random_kahler(space, seed=n)):
            received.append((a, b))
            return tensor.biquadratic(a, b)

        rebuilt = reconstruct_from_sectional(oracle, space)
        assert not any(x.flags.writeable for x in received[0])
        expected = _reconstruct_uncached(oracle, space)
        assert rebuilt.entries.tobytes() == expected.entries.tobytes()


def test_reconstruction_zero_oracle(space2):
    rebuilt = reconstruct_from_sectional(lambda a, b: 0.0, space2)
    assert rebuilt.frobenius_norm() == 0.0


def test_solve_sectional_model_triple(r0_n2, space2):
    u, v = random_orthonormal_pair(space2, 23, constraint="v_perp_ju")
    triple = solve_sectional_from_H(r0_n2, u, v)
    assert triple == pytest.approx((-0.25, -0.25, -0.5), abs=1e-12)
    doubled = r0_n2.scaled(2.0)
    scaled_triple = solve_sectional_from_H(doubled, u, v)
    assert scaled_triple == pytest.approx((-0.5, -0.5, -1.0), abs=1e-12)


def test_solve_sectional_matches_direct_contraction():
    worst = 0.0
    for n in (2, 3):
        space = make_space(n)
        for s in range(500):
            tensor = random_kahler(space, seed=5000 + s)
            u, v = random_orthonormal_pair(space, 6000 + s, constraint="v_perp_ju")
            got = solve_sectional_from_H(tensor, u, v)
            expected = (
                tensor.biquadratic(u, v),
                tensor.biquadratic(u, space.j(v)),
                tensor.evaluate(u, space.j(u), v, space.j(v)),
            )
            worst = max(worst, max(abs(a - b) for a, b in zip(got, expected)))
    assert worst < 1e-9


def test_polarization_identities_on_random_tensors(space2):
    rng = seeded_rng(31)
    worst_first = worst_second = 0.0
    printed_seen = 0.0
    for s in range(100):
        tensor = random_kahler(space2, seed=7000 + s)
        u, v = random_orthonormal_pair(space2, 8000 + s, constraint="v_perp_ju")
        theta = rng.uniform(0.1, math.pi / 2 - 0.1)
        for a, b in ((1 / math.sqrt(2), 1 / math.sqrt(2)), (math.cos(theta), math.sin(theta))):
            res = polarization_residuals(tensor, u, v, a, b)
            worst_first = max(worst_first, res["first"])
            worst_second = max(worst_second, res["second"])
            printed_seen = max(printed_seen, res["second_printed"])
    assert worst_first < 1e-10
    assert worst_second < 1e-10
    assert printed_seen > 1e-3  # the printed variant is falsified


def test_printed_variant_residual_on_model(r0_n2, space2):
    # frozen: |(-2) - (-2.4375)| = 0.4375 at a = b = 1/sqrt(2)
    u, v = random_orthonormal_pair(space2, 37, constraint="v_perp_ju")
    res = polarization_residuals(r0_n2, u, v, 1 / math.sqrt(2), 1 / math.sqrt(2))
    assert res["second_printed"] == pytest.approx(0.4375, abs=1e-12)
    assert res["second"] < 1e-12


def test_fitted_second_coefficient_is_minus_eight():
    fitted = identity_suite(2, 100, 41)["fitted_second_coefficient"]
    assert fitted == pytest.approx(-8.0, abs=1e-6)


# the per-sample identity functions before they took batch axes, kept as the
# oracle of the batched ones


def _loop_direct_triple(tensor, u, v):
    ju, jv = tensor.space.j(u), tensor.space.j(v)
    k_uv, k_ujv, r = tensor.evaluate([u, u, u], [v, jv, ju], [u, u, v], [v, jv, jv])
    return float(k_uv), float(k_ujv), float(r)


def _loop_holomorphic_sides(tensor, u, v, a, b):
    jmat = tensor.space.j_matrix
    jv = jmat @ v
    w = np.stack([u, v, a * u + b * v, a * u - b * v, a * u + b * jv, a * u - b * jv])
    h = tensor.biquadratic(w, w @ jmat.T)
    base = 2 * a**4 * h[0] + 2 * b**4 * h[1]
    return float(h[2] + h[3] - base), float(h[4] + h[5] - base)


def _loop_solve(tensor, u, v):
    a = b = 1.0 / math.sqrt(2.0)
    rhs = np.array([*_loop_holomorphic_sides(tensor, u, v, a, b), 0.0])
    return tuple(float(x) for x in np.linalg.solve(_polarization_system(a, b), rhs))


def _loop_polarization(tensor, u, v, a, b):
    first, second = _loop_holomorphic_sides(tensor, u, v, a, b)
    k_uv, k_ujv, r = _loop_direct_triple(tensor, u, v)
    ab2 = a * a * b * b
    first -= 12 * ab2 * r
    second -= 12 * ab2 * r
    return {
        "first": abs(first + 8.0 * ab2 * k_uv),
        "second": abs(second + 8.0 * ab2 * k_ujv),
        "second_printed": abs(second + 1.0 * ab2 * k_ujv),
    }


@pytest.mark.parametrize("n", [2, 3])
def test_batched_identities_match_per_sample_loop(n):
    space = make_space(n)
    samples = 12
    pairs = [random_orthonormal_pair(space, 300 + s, constraint="v_perp_ju") for s in range(samples)]
    u, v = (np.array(x) for x in zip(*pairs))
    theta = seeded_rng(n, 5).uniform(0.1, math.pi / 2 - 0.1, samples)
    a, b = np.cos(theta), np.sin(theta)
    tol = 1e-14
    for tensor in (complex_hyperbolic_tensor(space), random_kahler(space, seed=8), random_kahler(space, seed=9)):
        batched = {
            "identity_one": np.array([identity_one_residual(tensor, u, v)]),
            "direct": np.array(_direct_triple(tensor, u, v)),
            "sides": np.array(_holomorphic_sides(tensor, u, v, a, b)),
            "solve": np.array(solve_sectional_from_H(tensor, u, v)),
        }
        for key, value in polarization_residuals(tensor, u, v, a, b).items():
            batched[key] = np.array([value])
        for key, value in polarization_residuals(tensor, u, v, 1 / math.sqrt(2), 1 / math.sqrt(2)).items():
            batched[key + "_diagonal"] = np.array([value])
        for s in range(samples):
            direct = _loop_direct_triple(tensor, u[s], v[s])
            looped = {
                "identity_one": [direct[0] + direct[1] - direct[2]],
                "direct": direct,
                "sides": _loop_holomorphic_sides(tensor, u[s], v[s], a[s], b[s]),
                "solve": _loop_solve(tensor, u[s], v[s]),
            }
            for key, value in _loop_polarization(tensor, u[s], v[s], a[s], b[s]).items():
                looped[key] = [value]
            diagonal = _loop_polarization(tensor, u[s], v[s], 1 / math.sqrt(2), 1 / math.sqrt(2))
            for key, value in diagonal.items():
                looped[key + "_diagonal"] = [value]
            assert looped.keys() == batched.keys()
            for key, value in looped.items():
                assert np.max(np.abs(batched[key][:, s] - value)) <= tol, (key, s)
            # 1-D arguments still give floats, one per value
            scalar = [
                identity_one_residual(tensor, u[s], v[s]),
                *_direct_triple(tensor, u[s], v[s]),
                *_holomorphic_sides(tensor, u[s], v[s], float(a[s]), float(b[s])),
                *solve_sectional_from_H(tensor, u[s], v[s]),
                *polarization_residuals(tensor, u[s], v[s], float(a[s]), float(b[s])).values(),
            ]
            assert all(type(x) is float for x in scalar)


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_distance_axioms(space2, r0_n2):
    a = random_kahler(space2, seed=51)
    b = random_kahler(space2, seed=52)
    c = random_kahler(space2, seed=53)
    assert distance(r0_n2, r0_n2) == 0.0
    assert distance(r0_n2.scaled(2.0), r0_n2) == pytest.approx(r0_n2.frobenius_norm(), rel=1e-14)
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12
    with pytest.raises(SpaceMismatchError):
        distance(a, random_kahler(make_space(3), seed=1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_norm_and_distance_scale_exactly(n):
    # summed at unit scale: at 2^+-600 the squares of the entries would overflow
    # or vanish, and the norms are exactly 2^+-600 times those of R
    import warnings

    space = make_space(n)
    model, tensor = complex_hyperbolic_tensor(space), random_kahler(space, seed=n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (600, -600):
            factor = 2.0**k
            assert model.scaled(factor).frobenius_norm() == factor * model.frobenius_norm()
            assert tensor.scaled(factor).frobenius_norm() == factor * tensor.frobenius_norm()
            assert distance(model.scaled(factor), tensor.scaled(factor)) == factor * distance(model, tensor)
            assert distance(model.scaled(factor), model.scaled(-factor)) == 2 * factor * model.frobenius_norm()
        # decimal scales that used to overflow or vanish
        assert model.scaled(1e160).frobenius_norm() == pytest.approx(1e160 * model.frobenius_norm(), rel=1e-15)
        assert model.scaled(1e-170).frobenius_norm() == pytest.approx(1e-170 * model.frobenius_norm(), rel=1e-15)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_tensor_file_roundtrip_is_exact(space2):
    tensor = random_kahler(space2, seed=61)
    text = tensor_to_text(tensor, 1e-9)
    back, tol = tensor_from_text(text)
    assert tol == 1e-9
    assert np.array_equal(back.entries, tensor.entries)
    # serialization is deterministic
    assert tensor_to_text(back, 1e-9) == text


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=16, max_size=16),
    tol=st.floats(min_value=5e-324, max_value=sys.float_info.max),
)
@example(
    entries=[-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7e308, -1.7e308, 1.0] * 2,
    tol=1e-9,
)
def test_tensor_file_roundtrip_is_bit_exact(entries, tol):
    tensor = CurvatureTensor(make_space(1), np.reshape(entries, (2, 2, 2, 2)))
    back, back_tol = tensor_from_text(tensor_to_text(tensor, tol))
    assert np.array_equal(back.entries.view(np.uint64), tensor.entries.view(np.uint64))
    assert back_tol == tol


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_tensor_file_writers_reject_a_tolerance_the_reader_rejects(tmp_path, r0_n2, tol):
    with pytest.raises(PreconditionError, match="symmetry_tolerance"):
        tensor_to_text(r0_n2, tol)
    path = tmp_path / "r0.json"
    with pytest.raises(PreconditionError, match="symmetry_tolerance"):
        write_tensor(path, r0_n2, tol)
    assert not path.exists()


def test_model_tensor_file_rewrites_identically(r0_n2):
    # the model has entries -0.0, which the file writes as "-0"
    text = tensor_to_text(r0_n2)
    assert '"n": 2,' in text and '"format_version": 1,' in text
    back, _ = tensor_from_text(text)
    assert np.array_equal(back.entries.view(np.uint64), r0_n2.entries.view(np.uint64))
    assert tensor_to_text(back) == text


def test_tensor_file_malformed_cases(space2, r0_n2):
    text = tensor_to_text(r0_n2)
    with pytest.raises(TensorFormatError):
        tensor_from_text(text[: len(text) // 2])  # truncated
    with pytest.raises(TensorFormatError):
        tensor_from_text("[1, 2, 3]")
    import json

    obj = json.loads(text)
    obj["format_version"] = 99
    with pytest.raises(TensorFormatError):
        tensor_from_text(json.dumps(obj))
    obj = json.loads(text)
    obj["entries"] = obj["entries"][:-1]
    with pytest.raises(TensorFormatError):
        tensor_from_text(json.dumps(obj))
    obj = json.loads(text)
    obj["n"] = 0
    with pytest.raises(TensorFormatError):
        tensor_from_text(json.dumps(obj))
    obj = json.loads(text)
    obj["n"] = True
    with pytest.raises(TensorFormatError):
        tensor_from_text(json.dumps(obj))
    # right length, but entries that reshape would have flattened or coerced
    for bad in ([e] for e in obj["entries"]), (True for _ in obj["entries"]), ["1"] * 256:
        obj = json.loads(text)
        obj["entries"] = list(bad)
        with pytest.raises(TensorFormatError):
            tensor_from_text(json.dumps(obj))
    obj = json.loads(text)
    obj["entries"][0] = 10**400  # an integer no float can hold
    with pytest.raises(TensorFormatError):
        tensor_from_text(json.dumps(obj))
    for bad_tol in (True, float("nan"), float("inf"), 0, -1e-9, "1e-9", 10**400):
        obj = json.loads(text)
        obj["symmetry_tolerance"] = bad_tol
        with pytest.raises(TensorFormatError):
            tensor_from_text(json.dumps(obj))
