import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerpinch import (
    CurvatureTensor,
    TwoPlane,
    berger_bound_check,
    check_kahler,
    complex_hyperbolic_tensor,
    curvature_operator_envelope,
    hol_extremes,
    holomorphic_sectional,
    make_space,
    normalize_quarter,
    pinch,
    random_kahler,
    random_orthonormal_pair,
    sectional,
    seeded_rng,
)
from kahlerpinch.pinching import DEFAULT_RESTARTS, EXIT_REASONS
from kahlerpinch.pinching import SCALAR_SECULAR_ROWS as _SCALAR_SECULAR_ROWS
from kahlerpinch.errors import (
    InvalidDimensionError,
    NotNegativelyCurvedError,
    PreconditionError,
    ResourceLimitError,
)


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------


def test_envelope_contains_model_range(r0_n2, r0_n3):
    for tensor, n in ((r0_n2, 2), (r0_n3, 3)):
        lo, hi = curvature_operator_envelope(tensor)
        assert lo <= -1.0 <= -0.25 <= hi + 1e-12
        # derived: the Kahler-bivector eigenvalue is -(n+1)/2
        assert lo == pytest.approx(-(n + 1) / 2.0, abs=1e-12)


def test_envelope_homogeneity(r0_n2):
    lo, hi = curvature_operator_envelope(r0_n2)
    lo4, hi4 = curvature_operator_envelope(r0_n2.scaled(4.0))
    assert (lo4, hi4) == pytest.approx((4 * lo, 4 * hi), abs=1e-12)


def test_envelope_zero_tensor(space2):
    zero = CurvatureTensor(space2, np.zeros((4, 4, 4, 4)))
    assert curvature_operator_envelope(zero) == (0.0, 0.0)


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_envelopes_equal_one_tensor_calls(n):
    # _multistart reads a batch's envelopes from one stacked eigvalsh; each
    # is the tensor's own curvature_operator_envelope bit for bit
    from kahlerpinch.curvature import _certified_stack
    from kahlerpinch.pinching import _envelopes

    space = make_space(n)
    count = {5: 16, 6: 8}.get(n, 64)
    tensors = [random_kahler(space, seed=s, frobenius_norm=2.0 ** (s % 9 - 4)) for s in range(count - 1)]
    tensors.append(complex_hyperbolic_tensor(space))
    stacked = _envelopes(_certified_stack(tensors))[0].tolist()
    envelopes = [curvature_operator_envelope(tensor) for tensor in tensors]
    assert [[v.hex() for v in pair] for pair in stacked] == [[v.hex() for v in pair] for pair in envelopes]
    assert all(type(v) is float for pair in envelopes for v in pair)


def test_envelope_rayleigh_normalization(space2):
    # <Rb, b> on the bivector of an orthonormal pair must equal K(u, v)
    tensor = random_kahler(space2, seed=71)
    from itertools import combinations

    pairs = list(combinations(range(4), 2))
    matrix = np.array([[tensor.entries[i, j, k, l] for (k, l) in pairs] for (i, j) in pairs])
    for s in range(10):
        u, v = random_orthonormal_pair(space2, 900 + s)
        b = np.array([u[i] * v[j] - u[j] * v[i] for (i, j) in pairs])
        assert abs(np.linalg.norm(b) - 1.0) < 1e-12
        assert b @ matrix @ b == pytest.approx(sectional(tensor, TwoPlane(u, v)), abs=1e-11)


@pytest.mark.parametrize("n", range(1, 7))
def test_kahler_operator_spectrum_is_the_bivector_spectrum_less_its_zeros(n):
    # a Kahler R vanishes on the n^2 - n dimensions of [Lambda^{2,0}], so the
    # bivector operator's spectrum is Q's with n^2 - n zeros
    from kahlerpinch.curvature import _certified_stack
    from kahlerpinch.experiments import perturb
    from kahlerpinch.pinching import _kahler_operators

    space = make_space(n)
    tensors = [random_kahler(space, seed=s) for s in (1, 2)] + [perturb(space, 0.02, 1)]
    tensors.append(tensors[-1].scaled(-1.0))
    entries = _certified_stack(tensors)
    quads = _kahler_operators(entries)
    assert quads.shape == (4, n * n, n * n)
    i, j = np.triu_indices(2 * n, 1)
    pairs = i * 2 * n + j
    block = entries.reshape(4, 4 * n * n, 4 * n * n)[:, pairs[:, None], pairs]
    expected = np.linalg.eigvalsh(block)
    spectra = np.sort(np.concatenate([np.linalg.eigvalsh(quads), np.zeros((4, n * n - n))], axis=1), axis=1)
    scale = np.abs(expected).max(axis=1, keepdims=True)
    assert np.all(np.abs(spectra - expected) <= 1e-14 * scale)


@pytest.mark.parametrize("n", range(1, 7))
def test_kahler_bivectors_are_an_orthonormal_j_invariant_basis_led_by_the_kahler_form(n):
    from kahlerpinch.pinching import _kahler_bivectors

    # the columns are flattened antisymmetric d x d matrices of unit norm
    basis = _kahler_bivectors(n)
    d = 2 * n
    assert basis.shape == (d * d, n * n) and not basis.flags.writeable
    assert np.allclose(basis.T @ basis, np.eye(n * n), rtol=0.0, atol=1e-15)
    jmat = make_space(n).j_matrix
    for matrix in basis.T.reshape(n * n, d, d):
        assert np.array_equal(matrix.T, -matrix)
        assert np.allclose(jmat @ matrix @ jmat.T, matrix, rtol=0.0, atol=1e-15)
    # the unit Kahler form first: u ^ Ju = u Ju^T - Ju u^T, of norm sqrt(2)
    # for unit u, has w-component sqrt(2 / n)
    for u in seeded_rng(n, 5).standard_normal((5, d)):
        u /= np.linalg.norm(u)
        ju = jmat @ u
        wedge = np.outer(u, ju) - np.outer(ju, u)
        assert wedge.ravel() @ basis[:, 0] == pytest.approx(np.sqrt(2.0 / n), rel=1e-14)


def test_kahler_bivectors_at_n2_are_the_surface_basis():
    # [w | f1 f2 f3] in the coordinates b_ij (i < j), ordered 01, 02, 03, 12,
    # 13, 23, each b_ij / sqrt(2) at (i, j) and -b_ij / sqrt(2) at (j, i)
    from kahlerpinch.pinching import _kahler_bivectors

    written_out = np.array([[1, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, -1], [0, 1, 0, 0, 1, 0], [0, 0, 1, -1, 0, 0]]) / 2.0
    i, j = np.triu_indices(4, 1)
    embedded = np.zeros((4, 4, 4))
    embedded[:, i, j] = written_out
    embedded = embedded - embedded.transpose(0, 2, 1)  # 0.0, not -0.0, off the pairs
    assert _kahler_bivectors(2).tobytes() == embedded.reshape(4, 16).T.tobytes()


# ---------------------------------------------------------------------------
# pinch
# ---------------------------------------------------------------------------


def test_pinch_model_tensor(r0_n2, space2):
    report = pinch(r0_n2, restarts=64, seed=2)
    assert report.k_min == pytest.approx(-1.0, abs=1e-6)
    assert report.k_max == pytest.approx(-0.25, abs=1e-6)
    assert report.converged
    assert report.envelope_lo - 1e-9 <= report.k_min <= report.k_max <= report.envelope_hi + 1e-9
    # witnesses: max on a totally real plane, min on a holomorphic plane
    u, v = report.argmax_plane.u, report.argmax_plane.v
    assert abs(np.dot(v, space2.j(u))) < 1e-4
    u, v = report.argmin_plane.u, report.argmin_plane.v
    assert abs(np.dot(v, space2.j(u))) > 1 - 1e-4


def test_pinch_homogeneity(r0_n2):
    report = pinch(r0_n2.scaled(4.0), restarts=32, seed=2)
    assert report.k_min == pytest.approx(-4.0, abs=1e-6)
    assert report.k_max == pytest.approx(-1.0, abs=1e-6)


def test_pinch_n1_single_plane(r0_n1, space1):
    report = pinch(r0_n1, restarts=8, seed=1)
    assert report.k_min == pytest.approx(report.k_max, abs=1e-12)
    assert report.k_min == pytest.approx(-1.0, abs=1e-9)


def test_pinch_witnesses_are_checkable(space2):
    tensor = random_kahler(space2, seed=81)
    report = pinch(tensor, restarts=32, seed=5)
    assert sectional(tensor, report.argmin_plane) == pytest.approx(report.k_min, abs=1e-9)
    assert sectional(tensor, report.argmax_plane) == pytest.approx(report.k_max, abs=1e-9)


def test_pinch_envelope_sandwich(space2, space3):
    for space, seed in ((space2, 83), (space3, 84)):
        tensor = random_kahler(space, seed=seed)
        report = pinch(tensor, restarts=32, seed=7)
        assert report.envelope_lo - 1e-9 <= report.k_min
        assert report.k_max <= report.envelope_hi + 1e-9


def test_pinch_restart_monotonicity(space2):
    tensor = random_kahler(space2, seed=85)
    small = pinch(tensor, restarts=8, seed=9)
    large = pinch(tensor, restarts=32, seed=9)
    assert large.k_min <= small.k_min + 1e-12
    assert large.k_max >= small.k_max - 1e-12


def test_pinch_scale_equivariance_of_witness_planes(space2):
    tensor = random_kahler(space2, seed=86)
    base = pinch(tensor, restarts=32, seed=4)
    scaled = pinch(tensor.scaled(2.0), restarts=32, seed=4)
    assert scaled.k_min == pytest.approx(2 * base.k_min, rel=1e-8)
    assert scaled.k_max == pytest.approx(2 * base.k_max, rel=1e-8)
    # the scaled witnesses are witnesses of the unscaled problem too
    assert sectional(tensor, scaled.argmax_plane) == pytest.approx(base.k_max, abs=1e-8)
    assert sectional(tensor, scaled.argmin_plane) == pytest.approx(base.k_min, abs=1e-8)


def test_pinch_requires_restart(r0_n2):
    with pytest.raises(PreconditionError):
        pinch(r0_n2, restarts=0, seed=1)
    with pytest.raises(PreconditionError):
        hol_extremes(r0_n2, restarts=0, seed=1)


# values recorded from the earlier two-loop optimizer (separate min and max runs) of
# pinch(tensor, seed=3) and hol_extremes(tensor, seed=3) at the default
# restarts for tensor = perturb(make_space(n), t, seed=17):
# ((k_min, k_max, h_min, h_max), (pinch converged, hol converged))
RECORDED_EXTREMES = {
    (2, 0.0): (
        (-1.0, -0.25, -1.0, -1.0),
        (True, True),
    ),
    (2, 0.01): (
        (-1.0015795138456713, -0.24819598819005892, -1.0015795138456713, -0.99679062483258873),
        (True, True),
    ),
    (2, 0.1): (
        (-1.0157951384567223, -0.23193507515263187, -1.0157951384567223, -0.967906248325894),
        (True, True),
    ),
    (3, 0.0): (
        (-1.0, -0.25, -1.0, -1.0),
        (True, True),
    ),
    (3, 0.01): (
        (-1.002826181249509, -0.24907953318729009, -1.002826181249509, -0.99807651140112852),
        (True, True),
    ),
    (3, 0.1): (
        (-1.0282618124950955, -0.24077110126298157, -1.0282618124950955, -0.98076511401129096),
        (True, True),
    ),
}


def test_pinch_and_hol_match_recorded_values():
    from kahlerpinch.experiments import perturb

    for (n, t), recorded in RECORDED_EXTREMES.items():
        tensor = perturb(make_space(n), t, seed=17)
        planes = pinch(tensor, seed=3)
        hol = hol_extremes(tensor, seed=3)
        values = (planes.k_min, planes.k_max, hol.h_min, hol.h_max)
        assert values == pytest.approx(recorded[0], rel=0.0, abs=1e-12)
        assert (planes.converged, hol.converged) == recorded[1]
        if t == 0:
            assert values == (-1.0, -0.25, -1.0, -1.0)


# _optimize's models (|s0|, mu) for one block, and its planes = (preconditioned
# blocks, plane blocks): with none of either, every row retracts by the given
# retract and steps along g
_PLAIN_BLOCK = (np.ones(1), np.ones(1))
_NO_PLANES = (0, 0)


def _cycling_objective(v0=-1.0, h=0.01):
    """A pair objective whose rows cycle between their start value and a worse one.

    Every tensor block holds its descending rows, then as many ascending
    ones, as _multistart builds it. Every second evaluation moves the value h
    the wrong way for the row's sign (an uphill step the acceptance test
    still takes); the others return v0 again. The gradient is constant and
    far from the tolerance, so accepted steps never beat the best value v0
    and no other exit test can stop a row. Called as (mats, sizes, y).
    """
    calls = itertools.count()

    def objective(mats, sizes, y):
        assert all(size % 2 == 0 for size in sizes)
        signs = np.concatenate([np.repeat([-1.0, 1.0], size // 2) for size in sizes])
        worse = h if next(calls) % 2 else 0.0
        return v0 - signs * worse, np.full_like(y, 0.5)

    return objective


def test_optimizer_rows_stop_when_they_cycle_without_improving():
    # accepted uphill steps let a row cycle without ever beating its best value;
    # stagnation counted against the current value would reset on every return
    # to v0 and let such rows run to MAX_ITER. Counted against the best value,
    # every row stops after STAGNATION_LIMIT + 1 iterations and reports v0.
    from kahlerpinch import pinching
    from kahlerpinch.pinching import EXIT_REASONS, STAGNATION_LIMIT

    objective = _cycling_objective()
    x = pinching._orthonormalize_pairs(seeded_rng(4).standard_normal((8, 8)))
    signs = np.repeat([-1.0, 1.0], 4)
    vals, points, iterations, reasons = pinching._optimize(
        x.copy(), signs, np.zeros(8, dtype=int), lambda y, sizes: objective(None, sizes, y),
        pinching._orthonormalize_pairs, _PLAIN_BLOCK, _NO_PLANES,
    )
    assert reasons.tolist() == [EXIT_REASONS.index("stagnation")] * 8
    assert iterations.tolist() == [STAGNATION_LIMIT + 1] * 8
    assert vals.tolist() == [-1.0] * 8
    assert np.array_equal(points, x)


def test_optimizer_rows_stop_on_real_tensors_that_once_cycled(monkeypatch):
    # tensors whose rows once cycled to MAX_ITER (10001 objective evaluations):
    # the holomorphic run below, and both certification samples
    from kahlerpinch import pinching
    from kahlerpinch.experiments import certify_constants, perturb, proof_constants

    evaluations = []
    optimize = pinching._optimize

    def counting(x, signs, owners, objective, *rest):
        def counted(y, sizes):
            evaluations.append(len(y))
            return objective(y, sizes)

        return optimize(x, signs, owners, counted, *rest)

    monkeypatch.setattr(pinching, "_optimize", counting)
    seed = 306298193
    tensor = perturb(make_space(2), 0.025, seed)
    normalized = normalize_quarter(tensor, pinch(tensor, seed=seed)).tensor
    evaluations.clear()
    hol = hol_extremes(normalized, seed=seed)
    assert len(evaluations) < 1000
    assert hol.h_min == pytest.approx(-1.0222205595255283, rel=0.0, abs=1e-12)
    assert hol.h_max == pytest.approx(-1.011771485313103, rel=0.0, abs=1e-12)
    assert hol.converged
    for sample_seed in (721, 909):
        evaluations.clear()
        report = certify_constants(proof_constants(0.1, 2), 1, sample_seed)
        assert report.violations == 0
        assert len(evaluations) < 1000


def test_pinch_determinism(space2):
    tensor = random_kahler(space2, seed=87)
    a = pinch(tensor, restarts=16, seed=3)
    b = pinch(tensor, restarts=16, seed=3)
    assert a.k_min == b.k_min and a.k_max == b.k_max
    assert np.array_equal(a.argmin_plane.u, b.argmin_plane.u)


def test_plane_gradient_matches_finite_differences(space2):
    # central differences at step 1e-6 on the Gram-normalized pair objective
    # and on H(u) = K(u, Ju)/|u|^4, the pair objective on the row [u | Ju]
    from kahlerpinch.pinching import _pair_gradient, _pair_state

    tensor = random_kahler(space2, seed=88)
    m2 = tensor.entries.reshape(16, 16)
    jmat = space2.j_matrix
    rng = seeded_rng(88)
    u = rng.standard_normal(4)
    v = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    v -= np.dot(u, v) * u
    v /= np.linalg.norm(v)

    def pair_objective(x):
        uu, vv = x[:4], x[4:]
        return tensor.biquadratic(uu, vv) / (
            np.dot(uu, uu) * np.dot(vv, vv) - np.dot(uu, vv) ** 2
        )

    def hol_objective(x):
        return tensor.biquadratic(x, jmat @ x) / np.dot(x, x) ** 2

    def pair_gradient(x):
        vals, bflat = _pair_state([m2], [len(x)], x)
        return _pair_gradient(x, vals, bflat)

    def hol_gradient(x):
        # chain rule through u -> [u | Ju]: dH/du = g_u + J^T g_v
        rows = np.hstack([x, x @ jmat.T])
        vals, bflat = _pair_state([m2], [len(x)], rows)
        g = _pair_gradient(rows, vals, bflat)
        return g[:, :4] + g[:, 4:] @ jmat

    inputs = (
        (np.concatenate([u, v]), pair_objective, pair_gradient),
        (u, hol_objective, hol_gradient),
    )
    h = 1e-6
    for x, objective, gradient in inputs:
        grad = gradient(x[None, :])[0]
        assert grad.shape == x.shape
        for i in range(len(x)):
            e = np.zeros(len(x))
            e[i] = h
            fd = (objective(x + e) - objective(x - e)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pair_gradient_runs_along_j_line_rows(n):
    # at a row [u | Ju] the pair gradient [g_u | g_v] has g_v = J g_u, so the
    # holomorphic problem is the plane problem on these rows, and its
    # witnesses stay unit vectors
    from kahlerpinch.experiments import perturb
    from kahlerpinch.pinching import _hol_batch, _pair_objective

    space = make_space(n)
    dim, jmat = space.dim, space.j_matrix
    tensors = [perturb(space, 0.1, seed=n), random_kahler(space, seed=n)]
    u = seeded_rng(n, 5).standard_normal((16, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    rows = np.hstack([u, u @ jmat.T])
    for tensor in tensors:
        _, g = _pair_objective([tensor.matrix], [len(rows)], rows)
        if n >= 2:  # at n = 1 every unit u spans the one complex line: H is constant
            assert np.max(np.abs(g)) > 1e-3
        assert np.max(np.abs(g[:, dim:] - g[:, :dim] @ jmat.T)) < 1e-14
    for report in _hol_batch(tensors, 8, [1, 2]):
        for witness in (report.argmin_u, report.argmax_u):
            assert witness.shape == (dim,)
            assert np.linalg.norm(witness) == pytest.approx(1.0, rel=0.0, abs=1e-15)


def test_restart_start_rows_do_not_depend_on_the_restart_count():
    # restarts are consecutive rows of one stream: a restart's start row is
    # the same for any restart count, bit for bit
    from kahlerpinch.pinching import _inits

    for width, stream in ((8, ()), (4, (7,)), (16, ()), (8, (7,))):
        full = _inits(width, 2**40 + 3, 256, *stream)
        assert full.shape == (256, width)
        for restarts in (1, 8, 64, 255):
            assert _inits(width, 2**40 + 3, restarts, *stream).tobytes() == full[:restarts].tobytes()


# ---------------------------------------------------------------------------
# preconditioned plane step
# ---------------------------------------------------------------------------


def _test_planes(space):
    """Orthonormal (u, v): generic planes and c = <u, Jv> = 0 for n >= 2, and c = -1, +1."""
    planes = []
    if space.n >= 2:
        planes += [random_orthonormal_pair(space, 300 + s) for s in range(3)]
        planes.append(random_orthonormal_pair(space, 310, constraint="v_perp_ju"))
    u, _ = random_orthonormal_pair(space, 320)
    return planes + [(u, space.j(u)), (u, -space.j(u))]


def _chart_hessian(tensor, u, v):
    """Hessian of K(u + a, v + b) at orthonormal u, v over the horizontal pairs (a, b).

    Returns the matrix in an orthonormal basis of the pairs with a, b
    orthogonal to u and v, and that basis as rows [a | b]. To second order
    the Gram determinant is 1 + |a|^2 + |b|^2, so the quadratic form is
    2 (N2 - K |p|^2), N2 being the second-order part of the quartic
    R(u + a, v + b, u + a, v + b); the matrix follows by polarization.
    """
    d = len(u)
    q, _ = np.linalg.qr(np.column_stack([u, v, np.eye(d)]))
    h, zero = q[:, 2:d].T, np.zeros((d - 2, d))
    basis = np.vstack([np.hstack([h, zero]), np.hstack([zero, h])])
    k = tensor.biquadratic(u, v)

    def form(p):
        a, b = p[:d], p[d:]
        quartic = tensor.biquadratic(a, b)
        second = 0.5 * (tensor.biquadratic(u + a, v + b) + tensor.biquadratic(u - a, v - b)) - k - quartic
        return 2.0 * (second - k * (p @ p))

    return np.array([[0.25 * (form(p + r) - form(p - r)) for r in basis] for p in basis]), basis


def _closed_form_spectrum(c, dim):
    """|Hess| of K of the model over the horizontal space: the pinching module's closed form."""
    folded = abs(abs(c) - 1.0) < 1e-12
    v_dim = dim - 2 if folded else dim - 4
    block = [] if folded else [3 * c * c, abs(6 * c * c - 3), 0.0, 0.0]
    return sorted([1.5 * abs(c) * abs(1 - c)] * v_dim + [1.5 * abs(c) * abs(1 + c)] * v_dim + block)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_model_hessian_spectrum_matches_the_closed_form(n):
    space = make_space(n)
    model = complex_hyperbolic_tensor(space)
    for u, v in _test_planes(space):
        hess, basis = _chart_hessian(model, u, v)
        assert len(basis) == 2 * space.dim - 4
        spectrum = np.sort(np.abs(np.linalg.eigvalsh(hess))) if len(basis) else []
        c = float(u @ space.j(v))
        assert list(spectrum) == pytest.approx(_closed_form_spectrum(c, space.dim), abs=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_plane_direction_inverts_the_model_metric(n):
    # M = |Hess K of s0 R0| + mu I from the numeric chart Hessian: the closed-form
    # solve returns z from M z, one row per plane with its own s0 and mu
    from kahlerpinch.pinching import _plane_direction

    space = make_space(n)
    model = complex_hyperbolic_tensor(space)
    rng = seeded_rng(n, 5)
    rows, grads, expected, abs_s0, mu = [], [], [], [], []
    for i, (u, v) in enumerate(_test_planes(space)):
        s0 = (-1) ** i * rng.uniform(0.2, 3.0)
        hess, basis = _chart_hessian(model.scaled(s0), u, v)
        w, vecs = np.linalg.eigh(hess)
        mu.append((1e-3, 0.1, 1.0)[i % 3])
        metric = vecs @ np.diag(np.abs(w) + mu[-1]) @ vecs.T
        z = rng.standard_normal(len(basis))
        rows.append(np.concatenate([u, v]))
        grads.append((metric @ z) @ basis)
        expected.append(z @ basis)
        abs_s0.append(abs(s0))
    abs_s0, mu = np.array(abs_s0)[:, None], np.array(mu)[:, None]
    p = _plane_direction(np.array(rows), np.array(grads), abs_s0, mu)
    assert np.max(np.abs(p - np.array(expected))) < 1e-10
    # a lone row gets the direction it has in the batch, bit for bit
    for m in range(len(rows)):
        lone = _plane_direction(np.array(rows[m : m + 1]), np.array(grads[m : m + 1]), abs_s0[m : m + 1], mu[m : m + 1])
        assert lone.tobytes() == p[m : m + 1].tobytes()


def test_orthonormalize_pairs_completes_a_degenerate_v_deterministically():
    # v = 0 or v parallel to u leaves no direction to keep: v becomes the
    # basis vector least aligned with u, made orthogonal to u, so rows with
    # one u give one pair, bit for bit alone or in any batch
    from kahlerpinch.pinching import _orthonormalize_pairs

    u = seeded_rng(31).standard_normal((3, 6))
    x = np.concatenate([np.tile(u, (3, 1)), np.vstack([np.zeros_like(u), 2.5 * u, -1e-3 * u])], axis=1)
    out = _orthonormalize_pairs(x)
    for row in out:
        gram = np.array([[row[:6] @ row[:6], row[:6] @ row[6:]], [row[6:] @ row[:6], row[6:] @ row[6:]]])
        assert np.abs(gram - np.eye(2)).max() <= 1e-15
    for k, (direction, pair) in enumerate(zip(np.tile(u, (3, 1)), out)):
        unit = direction / np.linalg.norm(direction)
        least = np.eye(6)[np.argmin(np.abs(unit))]
        expected = least - (least @ unit) * unit
        assert np.abs(pair[6:] - expected / np.linalg.norm(expected)).max() <= 1e-15
        assert pair.tobytes() == out[k % 3].tobytes()
        assert _orthonormalize_pairs(x[k : k + 1]).tobytes() == pair.tobytes()
    assert _orthonormalize_pairs(x[::-1]).tobytes() == out[::-1].tobytes()


@pytest.mark.parametrize("n", range(1, 7))
def test_batch_rows_keep_each_plane_direction(n):
    # _plane_direction multiplies a whole batch of up to BATCH_ROWS rows at once:
    # at that size every row's direction is the one of a 2-row call, so a
    # tensor's report does not depend on which tensors share its batch
    from kahlerpinch.pinching import (
        BATCH_ROWS,
        _orthonormalize_pairs,
        _pair_objective,
        _plane_direction,
        _stacked_model_coordinates,
    )

    tensor = random_kahler(make_space(n), seed=n)
    x = _orthonormalize_pairs(seeded_rng(n, 11).standard_normal((BATCH_ROWS, 4 * n)))
    _, g = _pair_objective([tensor.matrix], [BATCH_ROWS], x)
    (s0,), (mu,) = _stacked_model_coordinates(tensor.entries[None])
    abs_s0 = np.linspace(0.5, 2.0, BATCH_ROWS)[:, None] * abs(s0)
    mu = np.full((BATCH_ROWS, 1), mu)
    p = _plane_direction(x, g, abs_s0, mu)
    for start in range(0, BATCH_ROWS, 2):
        rows = slice(start, start + 2)
        assert _plane_direction(x[rows], g[rows], abs_s0[rows], mu[rows]).tobytes() == p[rows].tobytes()


def test_model_coordinates():
    from kahlerpinch.experiments import perturb
    from kahlerpinch.pinching import _stacked_model_coordinates

    def model_coordinates(tensor):
        return tuple(float(c[0]) for c in _stacked_model_coordinates(tensor.entries[None]))

    for n in (1, 2, 3, 4):
        model = complex_hyperbolic_tensor(make_space(n))
        assert model_coordinates(model) == (1.0, 0.0)
        assert model_coordinates(model.scaled(2.0)) == (2.0, 0.0)
        tensor = perturb(make_space(n), 0.05, seed=n)
        s0, mu = model_coordinates(tensor)
        assert 0.0 < mu < 0.05
        assert np.hypot(s0, mu) == pytest.approx(tensor.frobenius_norm() / model.frobenius_norm(), rel=1e-14)
        assert model_coordinates(tensor.scaled(-3.0)) == pytest.approx((-3.0 * s0, 3.0 * mu), rel=1e-14)


# pinch(R0, restarts=8, seed=3) and hol_extremes(R0, restarts=8, seed=3) at n = 2:
# (witnesses, diagnostics). The diagnostics are the optimizer's from before plane
# rows were preconditioned. R0's extremes are attained on whole manifolds (H is
# constant, and K = -1/4 on every totally real plane), so the witness is the
# restart whose value rounds best: the witnesses were recorded again when the
# optimizer's row norms became BLAS dots, with the same diagnostics
MODEL_PINCH_N2 = (
    [
        [-0.2060897762998543, 0.8342235527962778, -0.1973564641743428, 0.4718564337944678],
        [-0.8342235527962918, -0.20608977629985833, -0.47185643379444603, -0.19735646417433264],
        [0.058782046322100476, -0.8057462158694333, 0.4526400848935138, 0.37740516714781164],
        [-0.5805174471184967, -0.10157361976363427, -0.5769468988702353, 0.5655215020166381],
    ],
    (16, 0, 0, 0, 117, 11),
)
MODEL_HOL_N2 = (
    [
        [-0.4394191239462444, -0.023439876951377545, 0.8871755307949212, -0.1388559802009604],
        [-0.44582100754067594, 0.6859660923572514, 0.42223958345247137, 0.39039452293471383],
    ],
    (16, 0, 0, 0, 0, 0),
)


def test_exact_model_keeps_the_plain_step(r0_n2, r0_n3):
    # R0 is an exact space form (mu = 0): its rows step along the gradient as
    # before, so the diagnostics are unchanged
    import dataclasses

    planes = pinch(r0_n2, restarts=8, seed=3)
    hol = hol_extremes(r0_n2, restarts=8, seed=3)
    witnesses = [planes.argmin_plane.u, planes.argmin_plane.v, planes.argmax_plane.u, planes.argmax_plane.v]
    assert np.array(witnesses) == pytest.approx(np.array(MODEL_PINCH_N2[0]), rel=0.0, abs=1e-15)
    assert dataclasses.astuple(planes.diagnostics) == MODEL_PINCH_N2[1]
    assert np.array([hol.argmin_u, hol.argmax_u]) == pytest.approx(np.array(MODEL_HOL_N2[0]), rel=0.0, abs=1e-15)
    assert dataclasses.astuple(hol.diagnostics) == MODEL_HOL_N2[1]
    assert dataclasses.astuple(pinch(r0_n3, restarts=8, seed=3).diagnostics) == (16, 0, 0, 0, 115, 11)
    assert dataclasses.astuple(hol_extremes(r0_n3, restarts=8, seed=3).diagnostics) == (16, 0, 0, 0, 0, 0)


def _near_space_forms(n):
    """Space forms up to rounding, with the seed to pinch them at: mu is tiny but not 0."""
    from kahlerpinch import project_kahler
    from kahlerpinch.experiments import perturb

    model = complex_hyperbolic_tensor(make_space(n))
    return [(project_kahler(model), 1), (model.scaled(0.1), 1), (perturb(make_space(n), 1e-16, 5), 5)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_space_forms_up_to_rounding_keep_the_plain_step(n):
    # with mu of the order eps |s0|, M^{-1} amplifies the gradient's rounding by
    # 1/mu: the preconditioned step stopped such rows by step underflow after one
    # iteration (k_min = -0.964 at n = 2) or ran them to the iteration cap
    from kahlerpinch.pinching import _stacked_model_coordinates

    for tensor, seed in _near_space_forms(n):
        (s0,), (mu,) = _stacked_model_coordinates(tensor.entries[None])
        assert mu < 1e-15 * abs(s0)
        report = pinch(tensor, restarts=DEFAULT_RESTARTS, seed=seed)
        assert report.converged
        assert report.diagnostics.step_underflow == report.diagnostics.iteration_cap == 0
        assert report.k_min / s0 == pytest.approx(-1.0, rel=0.0, abs=1e-12)
        assert report.k_max / s0 == pytest.approx(-0.25, rel=0.0, abs=1e-12)


def test_near_model_planes_converge_in_few_iterations():
    # at t = 6e-7 the plain step took 372 iterations on its longest row
    from kahlerpinch.experiments import perturb

    report = pinch(perturb(make_space(2), 6e-7, seed=5), restarts=DEFAULT_RESTARTS, seed=1)
    assert report.diagnostics.gradient_tol == 128
    assert report.diagnostics.max_row_iterations < 100
    assert report.converged


def test_tensor_orthogonal_to_the_model_stops_by_the_gradient_test(space2):
    # the curvature scale is |R| / |R0|, not |s0|, which vanishes here
    from kahlerpinch import check_kahler
    from kahlerpinch.pinching import _stacked_model_coordinates

    tensor, model = random_kahler(space2, seed=12), complex_hyperbolic_tensor(space2)
    (s0,), _ = _stacked_model_coordinates(tensor.entries[None])
    orthogonal = CurvatureTensor(space2, tensor.entries - s0 * model.entries)
    assert check_kahler(orthogonal).passed
    assert abs(_stacked_model_coordinates(orthogonal.entries[None])[0][0]) < 1e-15
    for report in (
        pinch(orthogonal, restarts=DEFAULT_RESTARTS, seed=1),
        hol_extremes(orthogonal, restarts=DEFAULT_RESTARTS, seed=1),
    ):
        assert report.diagnostics.gradient_tol == 128
        assert report.converged


@pytest.mark.parametrize("factor", [1e-6, 1e-3, 1e3, 1e6, 1e8, 1e10])
def test_extremes_scale_with_the_tensor(factor):
    # the stopping tests are relative to the tensor's curvature scale
    from kahlerpinch.experiments import perturb

    tensor, budget = perturb(make_space(2), 0.05, seed=3), DEFAULT_RESTARTS
    planes, hol = pinch(tensor, budget, seed=1), hol_extremes(tensor, budget, seed=1)
    scaled = tensor.scaled(factor)
    scaled_planes, scaled_hol = pinch(scaled, budget, seed=1), hol_extremes(scaled, budget, seed=1)
    for scaled, base in (
        (scaled_planes.k_min, planes.k_min),
        (scaled_planes.k_max, planes.k_max),
        (scaled_hol.h_min, hol.h_min),
        (scaled_hol.h_max, hol.h_max),
    ):
        assert scaled == pytest.approx(factor * base, rel=1e-12, abs=0.0)
    assert scaled_planes.diagnostics.gradient_tol == scaled_hol.diagnostics.gradient_tol == 128
    assert scaled_planes.converged and scaled_hol.converged


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_extremes_scale_by_powers_of_two_bit_for_bit(n):
    # the optimizer runs at unit curvature scale, and 2^k R has exactly 2^k
    # times the scale of R, so the unit-scale problem is the same one
    from kahlerpinch.experiments import perturb

    tensor = perturb(make_space(n), 0.05, seed=3)
    for extremes, fields in ((pinch, ("k_min", "k_max")), (hol_extremes, ("h_min", "h_max"))):
        base = extremes(tensor, seed=1)
        for k in (-1000, -540, 40, 45, 600, 1000):
            report = extremes(tensor.scaled(2.0**k), seed=1)
            assert [getattr(report, f) for f in fields] == [2.0**k * getattr(base, f) for f in fields]
            assert report.converged == base.converged


def _product_of_hyperbolic_curves():
    # K = -1 on the planes span(e0, e1) and span(e2, e3), so the envelope is
    # tight at lo = k_min = -1 and the optimizer's k_min can round just below it.
    # Q's basis has entries 1/sqrt(2), whose square rounds below 1/2, so lo is
    # -1 only up to rounding
    entries = np.zeros((4,) * 4)
    for a, b in ((0, 1), (2, 3)):
        entries[a, b, a, b] = entries[b, a, b, a] = -1.0
        entries[a, b, b, a] = entries[b, a, a, b] = 1.0
    return CurvatureTensor(make_space(2), entries)


def test_sandwich_slack_is_relative_to_the_curvature_scale():
    tensor = _product_of_hyperbolic_curves()
    base = pinch(tensor, restarts=DEFAULT_RESTARTS, seed=1)
    assert base.envelope_lo == pytest.approx(-1.0, rel=1e-15, abs=0.0)
    assert base.k_min == pytest.approx(-1.0, rel=1e-14, abs=0.0)
    assert base.converged and base.restarts == 64
    for k in (-1000, 30, 40, 1000):
        report = pinch(tensor.scaled(2.0**k), restarts=DEFAULT_RESTARTS, seed=1)
        assert report.converged and report.restarts == 64, k
        assert (report.k_min, report.k_max) == (2.0**k * base.k_min, 2.0**k * base.k_max)


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_extremes_are_invariant_under_unitary_change_of_frame(n, unitary_pullback):
    from kahlerpinch.experiments import perturb

    space = make_space(n)
    for tensor in (perturb(space, 0.05, seed=3), random_kahler(space, seed=5)):
        planes, hol = pinch(tensor, seed=1), hol_extremes(tensor, seed=1)
        scale = max(abs(planes.k_min), abs(planes.k_max))
        for frame_seed in (1, 2, 3):
            pulled, _ = unitary_pullback(tensor, frame_seed)
            moved_planes, moved_hol = pinch(pulled, seed=1), hol_extremes(pulled, seed=1)
            for moved, base in (
                (moved_planes.k_min, planes.k_min),
                (moved_planes.k_max, planes.k_max),
                (moved_hol.h_min, hol.h_min),
                (moved_hol.h_max, hol.h_max),
            ):
                assert abs(moved - base) <= 1e-10 * scale
            assert planes.converged and hol.converged
            assert moved_planes.converged and moved_hol.converged


def test_model_extremes_are_exact_without_extended_precision(monkeypatch):
    monkeypatch.setattr(np, "longdouble", np.float64)
    for n in (1, 2, 3, 4, 5, 6):
        model = complex_hyperbolic_tensor(make_space(n))
        planes, hol = pinch(model, seed=1), hol_extremes(model, seed=1)
        assert (planes.k_min, planes.k_max) == ((-1.0, -1.0) if n == 1 else (-1.0, -0.25))
        assert (hol.h_min, hol.h_max) == (-1.0, -1.0)
        assert planes.converged and hol.converged


# ---------------------------------------------------------------------------
# exact extremes at n = 2
# ---------------------------------------------------------------------------

# w = (e01 + e23)/sqrt(2) and a basis of Lambda^{1,1}_0 in the bivector
# coordinates b_ij, i < j, ordered 01, 02, 03, 12, 13, 23; written out here
# independently of pinching._kahler_bivectors
_SURFACE_BASIS = np.array(
    [[1, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, -1], [0, 1, 0, 0, 1, 0], [0, 0, 1, -1, 0, 0]]
).T / np.sqrt(2.0)


def _surface_tensor(q, r, c):
    """The n = 2 tensor with pair matrix [[q, r^T], [r, C]] on [w | Lambda^{1,1}_0],
    zero on [Lambda^{2,0}]; Kahler, as checked, exactly when tr C = q (the first
    Bianchi identity on R^4 is <R, *> = 0)."""
    quad = np.block([[np.array([[q]]), np.asarray(r)[None, :]], [np.asarray(r)[:, None], np.asarray(c)]])
    operator = _SURFACE_BASIS @ quad @ _SURFACE_BASIS.T
    entries = np.zeros((4,) * 4)
    pairs = list(zip(*np.triu_indices(4, 1)))
    for (i, j), row in zip(pairs, operator):
        for (k, l), value in zip(pairs, row):
            entries[i, j, k, l] = entries[j, i, l, k] = value
            entries[j, i, k, l] = entries[i, j, l, k] = -value
    tensor = CurvatureTensor(make_space(2), entries)
    assert check_kahler(tensor, 1e-15).passed
    return tensor


def _hard_cases():
    """(tensor, q, r, eigenvalues of C, C's eigenvectors): R0 plus a Bochner-only
    direction (r = 0), and a tensor whose r is orthogonal to C's top eigenvector."""
    frame = np.linalg.qr(seeded_rng(5).standard_normal((3, 3)))[0]
    c = np.array([-0.62, -0.48, -0.4])  # tr C = q = -3/2, as for R0
    c_mat = frame @ np.diag(c) @ frame.T
    return [
        (_surface_tensor(-1.5, r, c_mat), -1.5, r, c, frame)
        for r in (np.zeros(3), 0.01 * frame[:, 0])
    ]


def _scalar_flat():
    """random_kahler(seed 12) less its R0 part: q = 0 up to rounding."""
    from kahlerpinch.pinching import _stacked_model_coordinates

    space = make_space(2)
    tensor, model = random_kahler(space, seed=12), complex_hyperbolic_tensor(space)
    (s0,), _ = _stacked_model_coordinates(tensor.entries[None])
    orthogonal = CurvatureTensor(space, tensor.entries - s0 * model.entries)
    assert check_kahler(orthogonal).passed
    return orthogonal


def _degenerate_surfaces():
    zero = CurvatureTensor(make_space(2), np.zeros((4,) * 4))
    return [zero, _scalar_flat(), _product_of_hyperbolic_curves()] + [case[0] for case in _hard_cases()]


def _surface_oracle_tensors():
    """104 tensors at n = 2: random, near the model (t from 1e-6) and far from it,
    the model and the degenerate cases."""
    from kahlerpinch.experiments import perturb

    space = make_space(2)
    tensors = [random_kahler(space, seed) for seed in range(100, 150)]
    tensors += [perturb(space, t, seed) for t in (1e-6, 1e-4, 1e-3, 0.02, 0.1, 0.3) for seed in range(1, 9)]
    return tensors + [complex_hyperbolic_tensor(space)] + _degenerate_surfaces()


def _extremes(planes, hol):
    return planes.k_min, planes.k_max, hol.h_min, hol.h_max


def test_surface_extremes_equal_the_256_restart_optimizer():
    from kahlerpinch.pinching import _hol_batch, _pinch_batch

    tensors = _surface_oracle_tensors()
    assert len(tensors) >= 100
    seeds = [3] * len(tensors)
    exact = zip(_pinch_batch(tensors, None, seeds), _hol_batch(tensors, None, seeds))
    oracle = zip(_pinch_batch(tensors, 256, seeds), _hol_batch(tensors, 256, seeds))
    for (planes, hol), (planes_256, hol_256) in zip(exact, oracle):
        assert planes.converged and hol.converged and planes_256.converged and hol_256.converged
        assert planes.restarts == hol.restarts == 0
        assert planes.diagnostics is None and hol.diagnostics is None
        scale = max(abs(planes_256.k_min), abs(planes_256.k_max))
        for got, want in zip(_extremes(planes, hol), _extremes(planes_256, hol_256)):
            assert abs(got - want) <= 1e-13 * scale


def test_surface_extremes_of_the_zero_tensor_are_zero():
    zero = _degenerate_surfaces()[0]
    planes, hol = pinch(zero, seed=1), hol_extremes(zero, seed=1)
    assert _extremes(planes, hol) == (0.0, 0.0, 0.0, 0.0)
    assert planes.converged and hol.converged
    assert np.linalg.norm(hol.argmin_u) == pytest.approx(1.0, abs=1e-15)


def test_tensor_orthogonal_to_the_model_is_exact_at_n2():
    # twin of test_tensor_orthogonal_to_the_model_stops_by_the_gradient_test: the
    # scalar-flat case q = 0, where K is linear in s, so K's extremes are H's
    tensor = _scalar_flat()
    planes, hol = pinch(tensor, seed=1), hol_extremes(tensor, seed=1)
    planes_256, hol_256 = pinch(tensor, 256, seed=1), hol_extremes(tensor, 256, seed=1)
    scale = max(abs(planes.k_min), abs(planes.k_max))
    assert planes.k_min == pytest.approx(hol.h_min, rel=0.0, abs=1e-15 * scale)
    assert planes.k_max == pytest.approx(hol.h_max, rel=0.0, abs=1e-15 * scale)
    for got, want in zip(_extremes(planes, hol), _extremes(planes_256, hol_256)):
        assert abs(got - want) <= 1e-13 * scale
    assert planes.converged and hol.converged and planes.restarts == hol.restarts == 0


def test_surface_extremes_in_the_hard_case():
    # r orthogonal to an edge eigenvector of C: the trust-region solution is
    # completed along that eigenvector, and the interior maximum of K sits at
    # s = 0 with K = c_top / 2
    (bochner, q, _, c, _), (tilted, _, r, _, frame) = _hard_cases()
    planes, hol = pinch(bochner, seed=1), hol_extremes(bochner, seed=1)
    assert (planes.k_min, planes.k_max) == pytest.approx(((q + c[0]) / 2, c[2] / 2), rel=0.0, abs=1e-15)
    assert (hol.h_min, hol.h_max) == pytest.approx(((q + c[0]) / 2, (q + c[2]) / 2), rel=0.0, abs=1e-15)
    planes, hol = pinch(tilted, seed=1), hol_extremes(tilted, seed=1)
    along = float(r @ frame[:, 0])
    assert planes.k_max == pytest.approx(c[2] / 2, rel=0.0, abs=1e-15)
    assert hol.h_max == pytest.approx((q + c[2] + along**2 / (c[2] - c[0])) / 2, rel=0.0, abs=1e-15)
    for tensor in (bochner, tilted):
        planes, hol = pinch(tensor, seed=1), hol_extremes(tensor, seed=1)
        planes_256, hol_256 = pinch(tensor, 256, seed=1), hol_extremes(tensor, 256, seed=1)
        for got, want in zip(_extremes(planes, hol), _extremes(planes_256, hol_256)):
            assert abs(got - want) <= 1e-13
        assert planes.converged and hol.converged


def test_sandwich_slack_is_relative_to_the_curvature_scale_at_n2():
    # twin of test_sandwich_slack_is_relative_to_the_curvature_scale on the
    # exact path: K = -1 on the planes span(e0, e1) and span(e2, e3), where the
    # envelope is tight up to rounding
    tensor = _product_of_hyperbolic_curves()
    base = pinch(tensor, seed=1)
    assert base.envelope_lo == pytest.approx(-1.0, rel=1e-15, abs=0.0)
    assert base.k_min == pytest.approx(-1.0, rel=1e-15, abs=0.0)
    assert base.k_max == pytest.approx(0.0, rel=0.0, abs=1e-16)
    assert base.converged and base.restarts == 0
    for k in (-1000, 30, 40, 1000):
        report = pinch(tensor.scaled(2.0**k), seed=1)
        assert report.converged and report.restarts == 0, k
        assert (report.k_min, report.k_max) == (2.0**k * base.k_min, 2.0**k * base.k_max)


def test_space_forms_up_to_rounding_are_exact_at_n2():
    # twin of test_space_forms_up_to_rounding_keep_the_plain_step: the closed
    # form of s0 R0, with witnesses that reach it
    from kahlerpinch.pinching import _stacked_model_coordinates

    for tensor, seed in _near_space_forms(2):
        (s0,), _ = _stacked_model_coordinates(tensor.entries[None])
        planes, hol = pinch(tensor, seed=seed), hol_extremes(tensor, seed=seed)
        assert _extremes(planes, hol) == (-s0, -s0 / 4, -s0, -s0)
        assert sectional(tensor, planes.argmin_plane) == pytest.approx(-s0, rel=1e-15)
        assert sectional(tensor, planes.argmax_plane) == pytest.approx(-s0 / 4, rel=1e-15)
        assert planes.converged and hol.converged and planes.restarts == hol.restarts == 0


def test_near_model_planes_are_exact_at_n2():
    # twin of test_near_model_planes_converge_in_few_iterations
    from kahlerpinch.experiments import perturb

    tensor = perturb(make_space(2), 6e-7, seed=5)
    report, oracle = pinch(tensor, seed=1), pinch(tensor, 256, seed=1)
    assert report.converged and report.restarts == 0 and report.diagnostics is None
    assert report.k_min == pytest.approx(oracle.k_min, rel=1e-15)
    assert report.k_max == pytest.approx(oracle.k_max, rel=1e-15)


@pytest.mark.parametrize("factor", [1e-6, 1e-3, 1e3, 1e6, 1e8, 1e10])
def test_extremes_scale_with_the_tensor_at_n2(factor):
    # twin of test_extremes_scale_with_the_tensor on the exact path
    from kahlerpinch.experiments import perturb

    tensor = perturb(make_space(2), 0.05, seed=3)
    scaled = tensor.scaled(factor)
    base = _extremes(pinch(tensor, seed=1), hol_extremes(tensor, seed=1))
    planes, hol = pinch(scaled, seed=1), hol_extremes(scaled, seed=1)
    assert _extremes(planes, hol) == pytest.approx([factor * b for b in base], rel=1e-14, abs=0.0)
    assert planes.converged and hol.converged


def test_surface_witnesses_reevaluate_to_their_values():
    for tensor in _surface_oracle_tensors():
        planes, hol = pinch(tensor, seed=1), hol_extremes(tensor, seed=1)
        scale = max(abs(planes.k_min), abs(planes.k_max))
        for value, plane in ((planes.k_min, planes.argmin_plane), (planes.k_max, planes.argmax_plane)):
            assert abs(sectional(tensor, plane) - value) <= 1e-14 * scale
        for value, u in ((hol.h_min, hol.argmin_u), (hol.h_max, hol.argmax_u)):
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-15)
            assert abs(holomorphic_sectional(tensor, u) - value) <= 1e-14 * scale


@pytest.mark.parametrize("k", [-1000, 1000])
def test_surface_extremes_scale_by_powers_of_two_bit_for_bit(k):
    tensors = _mixed_batch(2)[0] + _degenerate_surfaces()
    for tensor in tensors:
        for extremes, fields in (
            (pinch, ("k_min", "k_max", "argmin_plane", "argmax_plane")),
            (hol_extremes, ("h_min", "h_max", "argmin_u", "argmax_u")),
        ):
            base, scaled = extremes(tensor, seed=1), extremes(tensor.scaled(2.0**k), seed=1)
            values, witnesses = fields[:2], fields[2:]
            assert [getattr(scaled, f) for f in values] == [2.0**k * getattr(base, f) for f in values]
            assert [_bits(getattr(scaled, f)) for f in witnesses] == [_bits(getattr(base, f)) for f in witnesses]
            assert scaled.converged == base.converged


def test_surface_extremes_are_invariant_under_unitary_change_of_frame(unitary_pullback):
    from kahlerpinch.experiments import perturb

    space = make_space(2)
    tensors = [perturb(space, 0.05, seed=3), random_kahler(space, seed=5)] + _degenerate_surfaces()[1:]
    for tensor in tensors:
        base = _extremes(pinch(tensor, seed=1), hol_extremes(tensor, seed=1))
        scale = max(abs(base[0]), abs(base[1]))
        for frame_seed in (1, 2, 3):
            pulled, _ = unitary_pullback(tensor, frame_seed)
            moved = _extremes(pinch(pulled, seed=1), hol_extremes(pulled, seed=1))
            assert max(abs(m - b) for m, b in zip(moved, base)) <= 1e-13 * scale


def test_surface_extremes_raise_no_floating_point_warning():
    import warnings

    with np.errstate(under="ignore"):  # entries of 2^-1000 R0 underflow
        tensors = [
            tensor.scaled(2.0**k)
            for tensor in _degenerate_surfaces() + [complex_hyperbolic_tensor(make_space(2))]
            for k in (-1000, 0, 1000)
        ]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for tensor in tensors:
            pinch(tensor, seed=1)
            hol_extremes(tensor, seed=1)


def test_surface_batches_equal_one_tensor_calls_bit_for_bit(monkeypatch):
    from kahlerpinch.pinching import _hol_batch, _pinch_batch

    tensors, seeds = _mixed_batch(2)
    tensors, seeds = tensors + _degenerate_surfaces(), seeds + [1] * 5
    single = [
        [_bits(pinch(t, seed=s)) for t, s in zip(tensors, seeds)],
        [_bits(hol_extremes(t, seed=s)) for t, s in zip(tensors, seeds)],
    ]
    calls = _record_blocks(monkeypatch)
    batched = [
        [_bits(r) for r in _pinch_batch(tensors, None, seeds)],
        [_bits(r) for r in _hol_batch(tensors, None, seeds)],
    ]
    assert batched == single
    assert calls == []  # no optimizer batch ran


def test_explicit_restarts_still_run_the_optimizer_at_n2():
    from kahlerpinch.experiments import perturb

    tensor = perturb(make_space(2), 0.05, seed=3)
    for report in (pinch(tensor, restarts=8, seed=1), hol_extremes(tensor, restarts=8, seed=1)):
        assert report.restarts == 8
        diagnostics = report.diagnostics
        assert diagnostics.gradient_tol + diagnostics.step_underflow + diagnostics.stagnation == 16
    # n = 1 and n >= 3 keep the default multistart
    for n in (1, 3):
        report = pinch(perturb(make_space(n), 0.05, seed=3), seed=1)
        assert report.restarts == DEFAULT_RESTARTS and report.diagnostics is not None


def test_surface_basis_splits_the_bivectors_of_a_kahler_surface():
    # _surface_rows' bivectors: [w | f1 f2 f3] of _kahler_bivectors(2) and
    # e = (e02 - e13) / sqrt(2) of [Lambda^{2,0}], as antisymmetric pair vectors
    from kahlerpinch.pinching import _kahler_bivectors

    basis = _kahler_bivectors(2)
    e20 = np.zeros((4, 4))
    e20[0, 2], e20[2, 0], e20[1, 3], e20[3, 1] = 0.5, -0.5, -0.5, 0.5
    full = np.column_stack([basis, e20.ravel()])
    assert np.allclose(full.T @ full, np.eye(5), rtol=0.0, atol=1e-15)
    jmat = make_space(2).j_matrix

    def pfaffian(b):  # b ^ b = 2 Pf(b) e0123: positive on self-dual bivectors
        return b[0, 1] * b[2, 3] - b[0, 2] * b[1, 3] + b[0, 3] * b[1, 2]

    for k, b in enumerate(full.T.reshape(5, 4, 4)):
        assert np.array_equal(b.T, -b)
        action = jmat @ b @ jmat.T
        assert np.allclose(action, b if k < 4 else -b, rtol=0.0, atol=1e-15)
        assert pfaffian(b) == pytest.approx(0.25 if k in (0, 4) else -0.25, abs=1e-15)
    # u ^ Ju has a positive w-component: s = 1 are the J-lines (u, Ju)
    for u in seeded_rng(3).standard_normal((5, 4)):
        u /= np.linalg.norm(u)
        ju = jmat @ u
        assert (np.outer(u, ju) - np.outer(ju, u)).ravel() @ basis[:, 0] > 0.0


def _secular_cases():
    """(c ascending, g) rows: random, C nearly scalar with a small r (as near
    the model), r orthogonal to the top eigenvector or zero, and a row that is
    not the hard case though its top coordinate is 0 at the lower bound 0:
    every |g_i| <= e_i but sum (g_i / e_i)^2 = 1.37 > 1, so the first step
    meets e + mu = 0 = g in the top coordinate."""
    rng = seeded_rng(21)
    c = np.sort(rng.standard_normal((40, 3)), axis=1)
    g = rng.standard_normal((40, 3)) * np.logspace(-8, 0, 40)[:, None]
    near = -0.5 + np.sort(rng.standard_normal((10, 3)), axis=1) * 1e-9
    hard = np.array([[1e-3, 2e-3, 0.0], [0.0, 0.0, 0.0], [0.3, 0.0, 0.0]])
    return (
        np.vstack([c, near, c[:3], [[-2.0, -1.0, 0.0]]]),
        np.vstack([g, rng.standard_normal((10, 3)) * 1e-9, hard, [[1.5, 0.9, 0.0]]]),
    )


def test_secular_top_solves_the_trust_region_problem():
    # the optimality conditions of max <Cy, y> + 2 <g, y> on |y| = 1:
    # (kappa - C) y = g with kappa >= c_top, which make y a global maximum
    from kahlerpinch.pinching import _secular_top

    c, g = _secular_cases()
    y = _secular_top(c, g)
    assert np.allclose(np.linalg.norm(y, axis=1), 1.0, rtol=0.0, atol=1e-15)
    kappa = np.sum(c * y * y + g * y, axis=1)
    scale = np.abs(c).max(axis=1) + np.abs(g).max(axis=1)
    assert np.all(kappa >= c[:, -1] - 1e-15 * scale)
    assert np.all(np.abs((kappa[:, None] - c) * y - g).max(axis=1) <= 1e-14 * scale)


def test_secular_top_returns_unit_rows_at_its_iteration_cap(monkeypatch):
    # rows still moving when the loop runs out keep their last mu, below the
    # root: each is still a unit vector
    from kahlerpinch import pinching

    c, g = _secular_cases()
    full = pinching._secular_top(c, g)
    monkeypatch.setattr(pinching, "SECULAR_ITERATIONS", 1)
    capped = pinching._secular_top(c, g)
    assert np.allclose(np.linalg.norm(capped, axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert not np.array_equal(capped, full)  # some rows were cut off at the cap


def _surface_coordinates(rows):
    """(s, y) of the planes [u | v], b = u ^ v = (s w + sqrt(1 - s^2) e + y)/sqrt(2)."""
    i, j = np.triu_indices(4, 1)
    u, v = rows[:, :4], rows[:, 4:]
    b = u[:, i] * v[:, j] - u[:, j] * v[:, i]
    coordinates = np.sqrt(2.0) * b @ _SURFACE_BASIS
    return coordinates[:, 0], coordinates[:, 1:]


def test_interior_candidates_are_the_top_eigenvectors_of_the_rank_one_update():
    # the interior candidate of the maximum at Q = [[-q, g^T], [g, diag(c)]] and of
    # the minimum at -Q are the top eigenvector of diag(c) + g g^T / q
    from kahlerpinch.pinching import _surface_rows

    c, g = _secular_cases()
    q = np.linspace(0.1, 3.0, len(c))
    quads = np.zeros((len(c), 4, 4))
    quads[:, 0, 0], quads[:, 0, 1:], quads[:, 1:, 0] = -q, g, g
    quads[:, 1:, 1:] = np.einsum("mi,ij->mij", c, np.eye(3))
    for side, sign in ((1, 1.0), (0, -1.0)):
        rows = _surface_rows(sign * quads).reshape(len(c), 2, 2, 8)[:, side, 1]
        _, y = _surface_coordinates(rows)
        for row, (cr, gr, qr) in enumerate(zip(c, g, q)):
            update = np.diag(cr) + np.outer(gr, gr) / qr
            top = np.linalg.eigvalsh(update)[-1]
            assert y[row] @ update @ y[row] == pytest.approx(top, rel=0.0, abs=1e-15 * (abs(top) + 1.0))
            residual = update @ y[row] - top * y[row]
            assert np.abs(residual).max() <= 1e-7 * (abs(top) + 1.0)


def test_surface_interior_candidates_have_nonnegative_s():
    # the interior candidate (s, y) and (-s, -y) have the same K, but not the
    # same plane; the candidate takes s = -<r, y>/q >= 0, so that the witness
    # planes do not depend on the sign that eigh gives an eigenvector
    from kahlerpinch.pinching import _kahler_operators, _stacked_model_coordinates, _surface_rows

    tensors = _surface_oracle_tensors()
    entries = np.array([t.entries for t in tensors])
    scales = np.hypot(*_stacked_model_coordinates(entries))
    quads = _kahler_operators(entries) / np.where(scales > 0.0, scales, 1.0)[:, None, None]  # at unit scale
    rows = _surface_rows(quads).reshape(len(tensors), 2, 2, 8)
    s, _ = _surface_coordinates(rows[:, :, 1].reshape(-1, 8))
    assert np.all(s >= -1e-15)
    assert np.sum(s > 0.1) >= 20  # interior candidates that are not H's
    h, _ = _surface_coordinates(rows[:, :, 0].reshape(-1, 8))
    assert h == pytest.approx(1.0, rel=0.0, abs=1e-15)
    for tensor in tensors:
        report = pinch(tensor, seed=1)
        for plane in (report.argmin_plane, report.argmax_plane):
            s, _ = _surface_coordinates(np.concatenate([plane.u, plane.v])[None])
            assert s[0] >= -1e-15


def test_surface_plane_rows_are_orthonormal_without_a_gram_schmidt_pass():
    # _multistart's n = 2 branch takes _surface_rows' planes as they are: u is
    # normalized and v = b^T u for a unit simple bivector b, so both rows are
    # unit and orthogonal to within a few eps
    from kahlerpinch.curvature import _certified_stack
    from kahlerpinch.experiments import perturb
    from kahlerpinch.pinching import EPS, _kahler_operators, _stacked_model_coordinates, _surface_rows

    space = make_space(2)
    tensors = _surface_oracle_tensors() + _degenerate_surfaces() + [random_kahler(space, seed=s) for s in range(40)]
    tensors += [perturb(space, t, s) for t in (1e-7, 1e-3, 0.05, 0.2) for s in range(20)]
    entries = _certified_stack(tensors)
    scales = np.hypot(*_stacked_model_coordinates(entries))
    rows = _surface_rows(_kahler_operators(entries) / np.where(scales > 0.0, scales, 1.0)[:, None, None])
    u, v = rows[:, :4], rows[:, 4:]
    for deviation in (np.sum(u * u, axis=1) - 1.0, np.sum(v * v, axis=1) - 1.0, np.sum(u * v, axis=1)):
        assert np.abs(deviation).max() <= 8 * EPS


def test_secular_top_runs_a_permuted_batch_as_its_one_row_calls():
    # each row of a permuted batch is its one-row call bit for bit, hard-case
    # rows (r orthogonal to the top eigenvector, or r = 0) included
    from kahlerpinch.pinching import _secular_top

    c, g = _secular_cases()
    order = seeded_rng(22).permutation(len(c))
    single = np.concatenate([_secular_top(c[row : row + 1], g[row : row + 1]) for row in range(len(c))])
    assert _secular_top(c[order], g[order]).tobytes() == single[order].tobytes()


def _alternating_secular_row():
    """The H-minimum row (as _surface_rows negates it) of the fourth sample of
    sweep(2, criterion 6's grid, 2, 190000571)."""
    c = np.array([[float.fromhex(x) for x in ("0x1.fba967477f6e7p-2", "0x1.00af2127fe2e4p-1", "0x1.017afb0c5365fp-1")]])
    g = np.array([[float.fromhex(x) for x in ("0x1.834d8eba59b42p-12", "-0x1.042741e100961p-9", "0x1.47ee863935410p-14")]])
    return c, g


def test_secular_top_settles_a_row_that_alternates_between_two_values(monkeypatch):
    # _alternating_secular_row: mu alternates between two values 4 ulps
    # apart, so a step eventually falls by more than 4 eps mu: the row leaves
    # at that dropped step down, keeping its mu, not at the iteration cap: its
    # result is the same for any cap past that point
    from kahlerpinch import pinching

    c, g = _alternating_secular_row()
    full = pinching._secular_top(c, g)
    for cap in (15, 16, 31):
        monkeypatch.setattr(pinching, "SECULAR_ITERATIONS", cap)
        assert pinching._secular_top(c, g).tobytes() == full.tobytes(), cap


def test_secular_rows_settle_within_twelve_steps(monkeypatch):
    # every row of criterion 6's n = 2 grid and of a 16-sample certification
    # leaves _secular_top's loop by its step test within 12 Newton steps (4 to
    # 10 over 200 sweep-n2 calls), far below the SECULAR_ITERATIONS cap: the
    # results are the same bit for bit under a cap of 12 as under 100
    from kahlerpinch import pinching
    from kahlerpinch.experiments import certify_constants, proof_constants, sweep

    def runs():
        records = [sweep(2, [0.0, 0.0125, 0.025, 0.05, 0.1], 20, seed) for seed in (1, 2, 3)]
        return repr(records), repr(certify_constants(proof_constants(0.1, 2), 16, 1))

    monkeypatch.setattr(pinching, "SECULAR_ITERATIONS", 100)
    full = runs()
    monkeypatch.setattr(pinching, "SECULAR_ITERATIONS", 12)
    assert runs() == full


def _secular_paths(monkeypatch, c, g):
    """_secular_top's bytes on (c, g), solved stacked and row by row."""
    from kahlerpinch import pinching

    results = []
    for cutoff in (0, len(c) + 1):
        monkeypatch.setattr(pinching, "SCALAR_SECULAR_ROWS", cutoff)
        results.append(pinching._secular_top(c, g).tobytes())
    monkeypatch.setattr(pinching, "SCALAR_SECULAR_ROWS", _SCALAR_SECULAR_ROWS)
    return results


def test_secular_rows_equal_the_stacked_loop_on_captured_rows(monkeypatch):
    # the sphere rows of n = 2 sweeps on criterion 6's grid (20-row calls) and
    # of one-sample certifications (2-row calls), each call and all rows as one
    # batch: the same bytes whether solved stacked or row by row
    from kahlerpinch import pinching
    from kahlerpinch.experiments import certify_constants, proof_constants, sweep

    secular, calls = pinching._secular_top, []

    def recording_secular(c, g):
        calls.append((c.copy(), g.copy()))
        return secular(c, g)

    monkeypatch.setattr(pinching, "_secular_top", recording_secular)
    for seed in (1, 2, 3):
        sweep(2, [0.0, 0.0125, 0.025, 0.05, 0.1], 2, seed)
    for seed in range(1, 9):
        certify_constants(proof_constants(0.1, 2), 1, seed)
    monkeypatch.setattr(pinching, "_secular_top", secular)
    assert sorted({len(c) for c, _ in calls}) == [2, 20]
    for c, g in calls + [(np.concatenate([c for c, _ in calls]), np.concatenate([g for _, g in calls]))]:
        stacked, rows = _secular_paths(monkeypatch, c, g)
        assert rows == stacked


def test_secular_rows_equal_the_stacked_loop_at_the_edges(monkeypatch):
    # _secular_cases (hard rows and a top coordinate at e + mu = 0 included),
    # the alternating row, and iteration caps that cut rows off: the same bytes
    # either way
    from kahlerpinch import pinching

    c, g = _secular_cases()
    stacked, rows = _secular_paths(monkeypatch, c, g)
    assert rows == stacked
    for row in range(len(c)):
        stacked, rows = _secular_paths(monkeypatch, c[row : row + 1], g[row : row + 1])
        assert rows == stacked, row
    alternating = _alternating_secular_row()
    for cap in (1, 2, 3, 15, 16, 100):
        monkeypatch.setattr(pinching, "SECULAR_ITERATIONS", cap)
        for case in ((c, g), alternating):
            stacked, rows = _secular_paths(monkeypatch, *case)
            assert rows == stacked, cap


def _record_secular_solvers(monkeypatch):
    """The list that _secular_top's solvers append to when called: "stacked"
    for _stacked_tops, "rows" for _row_tops."""
    from kahlerpinch import pinching

    paths = []
    for name, label in (("_stacked_tops", "stacked"), ("_row_tops", "rows")):

        def recording(c, g, solve=getattr(pinching, name), label=label):
            paths.append(label)
            return solve(c, g)

        monkeypatch.setattr(pinching, name, recording)
    return paths


def test_secular_batches_below_the_cutoff_are_solved_row_by_row(monkeypatch):
    # batches of 15 rows are solved row by row, of 16 and 17 rows stacked, and
    # each equals the other solver bit for bit
    from kahlerpinch import pinching

    c, g = _secular_cases()
    paths = _record_secular_solvers(monkeypatch)
    for size in (_SCALAR_SECULAR_ROWS - 1, _SCALAR_SECULAR_ROWS, _SCALAR_SECULAR_ROWS + 1):
        batch = c[-size:], g[-size:]  # the hard rows and the e + mu = 0 row among them
        expected = _secular_paths(monkeypatch, *batch)
        paths.clear()
        assert [pinching._secular_top(*batch).tobytes()] * 2 == expected
        assert paths == ["rows" if size < _SCALAR_SECULAR_ROWS else "stacked"], size


def test_secular_rows_hand_non_finite_entries_and_a_zero_divisor_to_the_stacked_loop(monkeypatch):
    # a nan entry, where max and np.max differ, an inf entry, and a finite row
    # whose squared ratios overflow, so that Python raises on the zero slope
    # that numpy divides by: the whole batch goes to the stacked loop, which
    # gives the same bytes as the stacked call
    from kahlerpinch import pinching

    c, g = (rows[:3] for rows in _secular_cases())
    near_overflow = (
        [3.1853470920081373e307, 4.578082010693289e307, 5.929770009610167e307],
        [3.395397486850791e307, 1.3862408586684342e307, -5.347802125084413e307],
    )
    paths = _record_secular_solvers(monkeypatch)
    for bad_c, bad_g in (([-2.0, -1.0, 0.0], [0.5, np.nan, 0.1]), ([-2.0, -1.0, 0.0], [0.5, np.inf, 0.1]), near_overflow):
        batch = np.vstack([c, bad_c]), np.vstack([g, bad_g])
        with np.errstate(all="ignore"):
            stacked, rows = _secular_paths(monkeypatch, *batch)
            paths.clear()
            pinching._secular_top(*batch)
        assert rows == stacked
        assert paths == ["rows", "stacked"]


def test_a_one_tensor_pinch_solves_its_secular_rows_in_python_floats(monkeypatch):
    # a one-tensor pinch or hol_extremes at n = 2 solves its 2 sphere rows in
    # Python floats and runs no stacked Newton step; a 10-tensor chunk (20
    # rows, as in a sweep on criterion 6's grid) runs the stacked loop
    from kahlerpinch import pinching
    from kahlerpinch.experiments import perturb

    space = make_space(2)
    tensors = [perturb(space, 0.05, seed) for seed in range(10)]
    paths = _record_secular_solvers(monkeypatch)
    pinch(tensors[0], seed=1)
    hol_extremes(tensors[0], seed=1)
    assert paths == ["rows", "rows"]
    paths.clear()
    pinching._pinch_batch(tensors, None, list(range(10)))
    assert paths == ["stacked"]


# ---------------------------------------------------------------------------
# live-row optimizer
# ---------------------------------------------------------------------------


def _dense_optimize(x, signs, objective, gradient, retract, grad_tol, max_iter, rejected):
    """The dense loop, which stepped, retracted and evaluated every row each iteration.

    objective(x) returns the row values and a state that gradient(x, vals,
    state) reuses; rejected[0] counts rejected steps. Kept verbatim as the
    oracle of the live-row loop, apart from that counter.
    """
    from kahlerpinch.pinching import STAGNATION_LIMIT

    rows = len(x)
    vals, state = objective(x)
    best_vals, best_x = vals.copy(), x.copy()
    step = np.full(rows, 0.05)
    have_prev = np.zeros(rows, dtype=bool)
    prev_x, prev_g = x.copy(), np.zeros_like(x)
    active = np.ones(rows, dtype=bool)
    stagnant = np.zeros(rows, dtype=int)
    for _ in range(max_iter):
        g = gradient(x, vals, state)
        gsq = np.einsum("mi,mi->m", g, g)
        active &= (gsq >= grad_tol * grad_tol) & (step >= 1e-14)
        active &= stagnant <= STAGNATION_LIMIT
        if not active.any():
            break
        s = x - prev_x
        ss = np.einsum("mi,mi->m", s, s)
        sy = signs * np.einsum("mi,mi->m", s, prev_g - g)
        bb_ok = have_prev & np.isfinite(sy) & (sy > 1e-300)
        fallback = np.where(have_prev, step * 2.0, step)
        step = np.where(bb_ok, np.maximum(ss / np.where(sy > 0, sy, 1.0), 1e-12), fallback)
        step = np.minimum(step, 2.0 / np.sqrt(np.maximum(gsq, 1e-300)))
        xc = retract(x + (signs * step)[:, None] * g)
        cand_vals, cand_state = objective(xc)
        gain = signs * (cand_vals - vals)
        accept = active & (gain > -0.1 * (1.0 + np.abs(vals)))
        improved = accept & (signs * (cand_vals - best_vals) > 1e-14 * (1.0 + np.abs(best_vals)))
        stagnant = np.where(improved, 0, stagnant + 1)
        reject = active & ~accept
        rejected[0] += int(reject.sum())
        step[reject] *= 0.5
        have_prev[reject] = False
        prev_x[accept], prev_g[accept] = x[accept], g[accept]
        have_prev[accept] = True
        x[accept] = xc[accept]
        vals[accept] = cand_vals[accept]
        state[accept] = cand_state[accept]
        record = accept & (signs * (cand_vals - best_vals) > 0)
        best_vals[record] = cand_vals[record]
        best_x[record] = xc[record]
    keep = ~(signs * (best_vals - vals) > 1e-9)
    best_vals[keep] = vals[keep]
    best_x[keep] = x[keep]
    return best_vals, best_x


def _optimizer_problem(kind, tensor, seed, restarts):
    """Start rows, signs and retraction, as pinch ("pair") and hol_extremes ("sphere") build them.

    Both problems run the pair objective; the sphere's rows are [u | Ju]
    with |u| = 1, retracted through u = (a + J^T b) normalized. Returns
    (x, signs, retract).
    """
    from kahlerpinch import pinching

    dim = tensor.space.dim
    if kind == "pair":
        x0 = pinching._inits(2 * dim, seed, restarts)
        retract = pinching._orthonormalize_pairs
    else:
        jmat = tensor.space.j_matrix

        def j_line(u):
            return np.hstack([u, u @ jmat.T])

        def retract(x):
            u = x[:, :dim] + x[:, dim:] @ jmat
            return j_line(u / np.linalg.norm(u, axis=1, keepdims=True))

        x0 = j_line(pinching._inits(dim, seed, restarts, 7))
    signs = np.repeat([-1.0, 1.0], restarts)
    return retract(np.vstack([x0, x0])), signs, retract


def _run_both_loops(kind, tensor, seed, restarts, max_iter, monkeypatch):
    """Live-row result (vals, points, iterations, reasons), dense (vals, points) and its rejections.

    The live-row loop runs under MAX_ITER = max_iter.
    """
    from kahlerpinch import pinching

    x, signs, retract = _optimizer_problem(kind, tensor, seed, restarts)
    m2 = tensor.matrix

    def fused(y, sizes):
        return pinching._pair_objective([m2], sizes, y)

    def split(y):
        return pinching._pair_state([m2], [len(y)], y)

    rejected = [0]
    dense = _dense_optimize(
        x.copy(), signs, split, pinching._pair_gradient, retract, pinching.GRAD_TOL, max_iter, rejected
    )
    monkeypatch.setattr(pinching, "MAX_ITER", max_iter)
    live = pinching._optimize(x.copy(), signs, np.zeros(len(x), dtype=int), fused, retract, _PLAIN_BLOCK, _NO_PLANES)
    return live, dense, rejected[0]


@pytest.mark.parametrize("kind", ["pair", "sphere"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_live_row_optimizer_equals_dense_loop(kind, n, monkeypatch):
    # stepping only the live rows must not change any row's arithmetic: values
    # and points equal the dense loop's bit for bit
    from kahlerpinch.experiments import perturb
    from kahlerpinch.pinching import MAX_ITER

    for tensor, seed in ((perturb(make_space(n), 0.1, seed=n), 5), (random_kahler(make_space(n), seed=n), 6)):
        (vals, points, _, _), (dense_vals, dense_points), _ = _run_both_loops(
            kind, tensor, seed, 8, MAX_ITER, monkeypatch
        )
        assert vals.tolist() == dense_vals.tolist()
        assert np.array_equal(points, dense_points)


def test_live_row_optimizer_equals_dense_loop_with_rejections_and_stagnation(monkeypatch):
    from kahlerpinch.experiments import perturb
    from kahlerpinch.pinching import EXIT_REASONS, MAX_ITER

    tensor = perturb(make_space(4), 0.1, seed=5)
    (vals, points, _, reasons), (dense_vals, dense_points), rejected = _run_both_loops(
        "pair", tensor, 5, 8, MAX_ITER, monkeypatch
    )
    assert rejected > 0
    assert np.count_nonzero(reasons == EXIT_REASONS.index("stagnation")) > 0
    assert vals.tolist() == dense_vals.tolist()
    assert np.array_equal(points, dense_points)


def test_live_row_optimizer_equals_dense_loop_at_iteration_cap(monkeypatch):
    from kahlerpinch.pinching import EXIT_REASONS

    tensor = random_kahler(make_space(3), seed=7)
    for kind, max_iter in (("pair", 9), ("sphere", 4), ("pair", 0)):
        (vals, points, iterations, reasons), (dense_vals, dense_points), _ = _run_both_loops(
            kind, tensor, 2, 8, max_iter, monkeypatch
        )
        assert vals.tolist() == dense_vals.tolist()
        assert np.array_equal(points, dense_points)
        assert np.all(reasons == EXIT_REASONS.index("iteration_cap"))
        assert np.all(iterations == max_iter)


def _dense_preconditioned_optimize(x, signs, objective, abs_s0, mu, max_iter):
    """A dense loop whose rows all take the preconditioned step on planes.

    The oracle of _optimize's preconditioned rows, written apart from
    _dense_optimize: every row steps along p = M^{-1} g (_plane_direction),
    the BB numerator is s^T M s = sign * step * <s, g_prev>, the
    displacement cap reads |p|^2, and every row retracts by
    _orthonormalize_pairs. objective(x) returns the row values and gradients;
    abs_s0 and mu are the block's model coordinates, one float each.
    """
    from kahlerpinch.pinching import GRAD_TOL, STAGNATION_LIMIT, _orthonormalize_pairs, _plane_direction

    rows = len(x)
    columns = np.full((rows, 1), abs_s0), np.full((rows, 1), mu)
    vals, g = objective(x)
    best_vals, best_x = vals.copy(), x.copy()
    step = np.full(rows, 0.05)
    have_prev = np.zeros(rows, dtype=bool)
    prev_x, prev_g = x.copy(), np.zeros_like(x)
    active = np.ones(rows, dtype=bool)
    stagnant = np.zeros(rows, dtype=int)
    for _ in range(max_iter):
        gsq = np.einsum("mi,mi->m", g, g)
        active &= (gsq > GRAD_TOL * GRAD_TOL) & (step >= 1e-14) & (stagnant <= STAGNATION_LIMIT)
        if not active.any():
            break
        p = _plane_direction(x, g, *columns)
        s = x - prev_x
        sms = signs * step * np.einsum("mi,mi->m", s, prev_g)
        sy = signs * np.einsum("mi,mi->m", s, prev_g - g)
        bb_ok = have_prev & np.isfinite(sy) & (sy > 1e-300) & (sms > 0.0)
        fallback = np.where(have_prev, step * 2.0, step)
        step = np.where(bb_ok, np.maximum(sms / np.where(sy > 0, sy, 1.0), 1e-12), fallback)
        step = np.minimum(step, 2.0 / np.sqrt(np.maximum(np.einsum("mi,mi->m", p, p), 1e-300)))
        xc = _orthonormalize_pairs(x + (signs * step)[:, None] * p)
        cand_vals, cand_g = objective(xc)
        accept = active & (signs * (cand_vals - vals) > -0.1 * (1.0 + np.abs(vals)))
        improved = accept & (signs * (cand_vals - best_vals) > 1e-14 * (1.0 + np.abs(best_vals)))
        stagnant = np.where(improved, 0, stagnant + 1)
        step[active & ~accept] *= 0.5
        have_prev[active] = accept[active]
        prev_x[accept], prev_g[accept] = x[accept], g[accept]
        x[accept], vals[accept], g[accept] = xc[accept], cand_vals[accept], cand_g[accept]
        record = accept & (signs * (cand_vals - best_vals) > 0)
        best_vals[record], best_x[record] = cand_vals[record], xc[record]
    keep = ~(signs * (best_vals - vals) > 1e-9)
    best_vals[keep], best_x[keep] = vals[keep], x[keep]
    return best_vals, best_x


@pytest.mark.parametrize("n", [3, 4])
def test_preconditioned_plane_block_equals_dense_preconditioned_loop(n):
    # one preconditioned plane block at unit curvature scale, as _multistart
    # runs it: its rows' values and points equal the dense preconditioned
    # loop's bit for bit
    from kahlerpinch import pinching
    from kahlerpinch.experiments import perturb

    tensor = perturb(make_space(n), 0.02, seed=n)
    s0, mu = pinching._stacked_model_coordinates(tensor.entries[None])
    scale = np.hypot(s0, mu)
    abs_s0, mu = np.abs(s0) / scale, mu / scale
    assert 3.0 * abs_s0[0] > mu[0] > (2 * n) ** 2 * pinching.EPS * abs_s0[0]  # neither plain case
    m2 = tensor.matrix / scale[0]
    x, signs, _ = _optimizer_problem("pair", tensor, 2, 8)
    dense_vals, dense_points = _dense_preconditioned_optimize(
        x.copy(), signs, lambda y: pinching._pair_objective([m2], [len(y)], y), abs_s0[0], mu[0],
        pinching.MAX_ITER,
    )
    vals, points, _, _ = pinching._optimize(
        x.copy(), signs, np.zeros(len(x), dtype=int), lambda y, sizes: pinching._pair_objective([m2], sizes, y),
        pinching._orthonormalize_pairs, (abs_s0, mu), (1, 1),
    )
    assert vals.tolist() == dense_vals.tolist()
    assert np.array_equal(points, dense_points)


def test_live_rows_name_the_columns_of_one_packed_state():
    # a mixed batch: a preconditioned plane block (4 rows), a plain plane
    # block (2) and a J-line block (6), planes = (1, 2)
    from kahlerpinch.pinching import _LiveRows

    w, owners, planes = 8, np.repeat([0, 1, 2], [4, 2, 6]), (1, 2)
    live = _LiveRows.zeros(len(owners), w, 3, planes)
    state = live.state
    state[:] = np.arange(state.size).reshape(state.shape)
    layout = [("prev_x", w), (None, 1), ("prev_g", w), ("x", w), ("vals", 1), ("g", w), ("best_x", w)]
    layout += [(name, 1) for name in ("best_vals", "step", "have_prev", "stagnant", "signs", "abs_s0", "mu")]
    layout += [(name, 1) for name in ("owners", "row", "gsq")]
    start = 0
    for name, width in layout:
        if name is not None:
            columns = state[:, start : start + width]
            assert np.array_equal(getattr(live, name), columns if width > 1 else columns[:, 0]), name
        start += width
    assert start == state.shape[1]
    for group, (lo, hi) in (("prev", (0, 2 * w + 1)), ("cur", (2 * w + 1, 4 * w + 2)), ("best", (4 * w + 2, 5 * w + 3))):
        assert np.array_equal(getattr(live, group), state[:, lo:hi]), group
    # a write through a view lands in the packed state
    live.g[3] = -1.0
    live.step[:] = 0.5
    assert np.all(state[3, 3 * w + 2 : 4 * w + 2] == -1.0) and np.all(state[:, 5 * w + 3] == 0.5)
    live.owners[:] = owners
    assert (live.sizes, live.pre, live.heads) == ([4, 2, 6], 4, 6)
    # after a compaction the counts are those of the rows kept
    for go in (np.arange(12) % 3 != 1, np.isin(owners, [0, 2]), owners == 2, np.arange(12) < 5):
        taken, recount = _LiveRows(state[go], w, 3, planes), np.bincount(owners[go], minlength=3)
        assert np.array_equal(taken.owners, owners[go]) and taken.sizes == recount.tolist()
        assert (taken.pre, taken.heads) == (recount[: planes[0]].sum(), recount[: planes[1]].sum())


def test_optimizer_evaluates_only_live_rows(monkeypatch):
    # every objective call after the first sees the rows still running: the
    # counts never grow (a stopped row never rejoins) and end below the start
    from kahlerpinch import pinching
    from kahlerpinch.experiments import perturb

    batches = []
    optimize = pinching._optimize

    def recording(x, signs, owners, objective, *rest):
        counts = []
        batches.append(counts)

        def counted(y, sizes):
            counts.append(len(y))
            return objective(y, sizes)

        return optimize(x, signs, owners, counted, *rest)

    monkeypatch.setattr(pinching, "_optimize", recording)
    reports = []
    for n in (2, 3):
        tensor = perturb(make_space(n), 0.05, seed=30 + n)
        reports += [pinch(tensor, restarts=16, seed=n), hol_extremes(tensor, restarts=16, seed=n)]
    assert len(batches) == len(reports)
    for counts, report in zip(batches, reports):
        assert counts[0] == 32
        assert all(later <= earlier for earlier, later in zip(counts, counts[1:]))
        assert counts[-1] < counts[0]
        # one candidate evaluation per live row and iteration
        assert report.diagnostics.row_iterations == sum(counts[1:])
        assert report.diagnostics.max_row_iterations == len(counts) - 1


def test_reports_count_optimizer_exit_reasons(space2, monkeypatch):
    from kahlerpinch import pinching

    def reasons(diagnostics):
        return (
            diagnostics.gradient_tol,
            diagnostics.step_underflow,
            diagnostics.stagnation,
            diagnostics.iteration_cap,
        )

    # rows that cycle without beating their best value all stop by stagnation,
    # after STAGNATION_LIMIT + 1 iterations each
    limit = pinching.STAGNATION_LIMIT + 1
    model = complex_hyperbolic_tensor(space2)
    with monkeypatch.context() as patch:
        patch.setattr(pinching, "_pair_objective", _cycling_objective())
        for cycled in (pinch(model, restarts=4, seed=1), hol_extremes(model, restarts=4, seed=1)):
            assert reasons(cycled.diagnostics) == (0, 0, 8, 0)
            assert cycled.diagnostics.row_iterations == 8 * limit
            assert cycled.diagnostics.max_row_iterations == limit
    # a flat objective stops every row on its first gradient
    zero = CurvatureTensor(space2, np.zeros((4, 4, 4, 4)))
    for flat in (pinch(zero, restarts=4, seed=1), hol_extremes(zero, restarts=4, seed=1)):
        assert reasons(flat.diagnostics) == (8, 0, 0, 0)
        assert flat.diagnostics.row_iterations == 0
    # a small budget stops every row at the cap
    tensor = random_kahler(space2, seed=94)
    monkeypatch.setattr(pinching, "MAX_ITER", 3)
    for capped in (pinch(tensor, restarts=6, seed=2), hol_extremes(tensor, restarts=6, seed=2)):
        assert reasons(capped.diagnostics) == (0, 0, 0, 12)
        assert capped.diagnostics.row_iterations == 36
        assert capped.diagnostics.max_row_iterations == 3


# ---------------------------------------------------------------------------
# batches of tensors
# ---------------------------------------------------------------------------


def _bits(value):
    """A report (or any field of one) with every float and array as exact bytes."""
    import dataclasses

    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, TwoPlane):
        return (_bits(value.u), _bits(value.v), _bits(value.gram_determinant))
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value))
    return value


def _mixed_batch(n):
    """The model tensor, two perturbed ones and two random Kahler tensors, with their seeds."""
    from kahlerpinch.experiments import perturb

    space = make_space(n)
    tensors = [
        complex_hyperbolic_tensor(space),
        perturb(space, 0.05, seed=40 + n),
        random_kahler(space, seed=50 + n),
        perturb(space, 0.1, seed=60 + n),
        random_kahler(space, seed=70 + n),
    ]
    return tensors, [3, 41, 0, 7, 2**40 + n]


def _joint_batch(tensors, restarts, seeds):
    """The plane and J-line reports of one joint _multistart, the pass a sweep chunk runs."""
    from kahlerpinch.curvature import _certified_stack
    from kahlerpinch.pinching import _multistart, _reports

    planes, lines = _multistart(_certified_stack(tensors), restarts, seeds, (True, False))
    return _reports(True, planes), _reports(False, lines)


def _uncertified(monkeypatch):
    """Patch _envelopes so that no tensor's sign certificate holds: every plane
    block of a joint batch then runs both sides, as a planes-only batch does."""
    from kahlerpinch import pinching

    envelopes = pinching._envelopes

    def uncertified(entries):
        found = envelopes(entries)
        return found[0], found[1], np.zeros_like(found[2]), found[3]

    monkeypatch.setattr(pinching, "_envelopes", uncertified)


def _record_blocks(monkeypatch):
    """Patch _optimize; returns a list that collects, per call, each objective call's block sizes."""
    from kahlerpinch import pinching

    calls = []
    optimize = pinching._optimize

    def recording(x, signs, owners, objective, *rest):
        sizes_seen = []
        calls.append(sizes_seen)

        def recorded(y, sizes):
            sizes_seen.append(list(sizes))
            return objective(y, sizes)

        return optimize(x, signs, owners, recorded, *rest)

    monkeypatch.setattr(pinching, "_optimize", recording)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_batched_reports_equal_one_tensor_calls_bit_for_bit(n, monkeypatch):
    # every row keeps its own tensor's GEMM block, so sharing a batch changes
    # no value, witness, converged flag or diagnostic
    from kahlerpinch.pinching import _hol_batch, _pinch_batch

    tensors, seeds = _mixed_batch(n)
    restarts = 8 if n == 4 else 16
    single = [
        [_bits(pinch(t, restarts=restarts, seed=s)) for t, s in zip(tensors, seeds)],
        [_bits(hol_extremes(t, restarts=restarts, seed=s)) for t, s in zip(tensors, seeds)],
    ]
    calls = _record_blocks(monkeypatch)
    batched = [
        [_bits(r) for r in _pinch_batch(tensors, restarts, seeds)],
        [_bits(r) for r in _hol_batch(tensors, restarts, seeds)],
    ]
    assert batched == single
    # both phases ran as one batch of five blocks
    assert [len(sizes[0]) for sizes in calls] == [5, 5]
    if n >= 2:
        # some block went down to one live row while others still ran: the
        # lone-row path ran inside a shared batch
        assert any(1 in sizes and sum(map(bool, sizes)) > 1 for call in calls for sizes in call)


def test_batched_reports_equal_one_tensor_calls_at_iteration_cap(monkeypatch):
    from kahlerpinch import pinching
    from kahlerpinch.pinching import _hol_batch, _pinch_batch

    tensors, seeds = _mixed_batch(3)
    for batch, single in ((_pinch_batch, pinch), (_hol_batch, hol_extremes)):
        for max_iter in (0, 5):
            monkeypatch.setattr(pinching, "MAX_ITER", max_iter)
            reports = batch(tensors, 6, seeds)
            expected = [single(t, restarts=6, seed=s) for t, s in zip(tensors, seeds)]
            assert [_bits(r) for r in reports] == [_bits(r) for r in expected]
            assert any(report.diagnostics.iteration_cap for report in reports)
            assert all(r.diagnostics.max_row_iterations <= max_iter for r in reports)


def test_batch_entry_points_accept_no_tensors():
    from kahlerpinch.pinching import _hol_batch, _pinch_batch

    assert _pinch_batch([], 4, []) == _hol_batch([], 4, []) == []


def test_batches_respect_the_row_budget(monkeypatch):
    # consecutive tensors fill a batch up to BATCH_ROWS rows; a tensor whose
    # rows alone exceed it runs by itself
    from kahlerpinch import pinching
    from kahlerpinch.pinching import BATCH_ROWS, _pinch_batch

    tensors = [random_kahler(make_space(2), seed=s) for s in range(11)]
    calls = _record_blocks(monkeypatch)
    monkeypatch.setattr(pinching, "MAX_ITER", 1)
    for restarts in (1, 8, 64, BATCH_ROWS // 2, BATCH_ROWS):
        calls.clear()
        _pinch_batch(tensors, restarts, list(range(11)))
        per_batch = max(1, BATCH_ROWS // (2 * restarts))
        blocks = [sizes[0] for sizes in calls]
        assert [len(b) for b in blocks] == [min(per_batch, 11 - i) for i in range(0, 11, per_batch)]
        assert all(size == 2 * restarts for b in blocks for size in b)


# ---------------------------------------------------------------------------
# restart budget
# ---------------------------------------------------------------------------

# pinch of this n = 4 tensor at 64 restarts fails the stability test
ESCALATING_SEED = 116000349


def _escalating_tensor():
    from kahlerpinch.experiments import perturb

    return perturb(make_space(4), 0.02, ESCALATING_SEED)


def test_default_budget_reruns_an_unconverged_tensor_at_256_restarts(monkeypatch):
    # the rerun is the explicit 256-restart multistart: values, witnesses,
    # diagnostics and the restart count agree bit for bit
    from kahlerpinch import pinching

    tensor, seed = _escalating_tensor(), ESCALATING_SEED
    assert not pinch(tensor, restarts=64, seed=seed).converged
    report = pinch(tensor, seed=seed)
    assert report.restarts == 256 and report.converged
    assert _bits(report) == _bits(pinch(tensor, restarts=256, seed=seed))
    # hol_extremes reruns the same way once its first run fails the stability test
    expected = hol_extremes(tensor, restarts=256, seed=seed)
    stable, calls = pinching._stable, itertools.count()
    monkeypatch.setattr(pinching, "_stable", lambda *args: next(calls) > 0 and stable(*args))
    hol = hol_extremes(tensor, seed=seed)
    assert hol.restarts == 256 and hol.converged
    assert _bits(hol) == _bits(expected)


def test_a_single_restart_is_never_stable():
    # the stability test compares at least the best two restarts, so a lone
    # restart reports its extremes as not converged
    from kahlerpinch.experiments import perturb

    tensor = perturb(make_space(3), 0.05, 1)
    assert pinch(tensor, restarts=1, seed=1).converged is False
    assert hol_extremes(tensor, restarts=1, seed=1).converged is False


def test_explicit_restarts_are_never_escalated(monkeypatch):
    from kahlerpinch import pinching

    tensor, seed = _escalating_tensor(), ESCALATING_SEED
    calls = _record_blocks(monkeypatch)
    report = pinch(tensor, restarts=64, seed=seed)
    assert report.restarts == 64 and not report.converged
    monkeypatch.setattr(pinching, "_stable", lambda *args: False)
    for report in (pinch(tensor, restarts=16, seed=seed), hol_extremes(tensor, restarts=16, seed=seed)):
        assert report.restarts == 16 and not report.converged
    # one optimizer batch per call, of the requested restarts
    assert [sizes[0] for sizes in calls] == [[128], [32], [32]]


def test_batched_reports_equal_one_tensor_calls_when_one_tensor_escalates(monkeypatch):
    # an escalating tensor amid converged ones: the first run shares batches of
    # four, the rerun runs alone, and every report equals its one-tensor call
    from kahlerpinch import pinching
    from kahlerpinch.pinching import _hol_batch, _pinch_batch

    tensors, seeds = _mixed_batch(4)
    tensors.insert(2, _escalating_tensor())
    seeds.insert(2, ESCALATING_SEED)
    single = [_bits(pinch(t, seed=s)) for t, s in zip(tensors, seeds)]
    calls = _record_blocks(monkeypatch)
    reports = _pinch_batch(tensors, None, seeds)
    assert [_bits(r) for r in reports] == single
    assert [r.restarts for r in reports] == [64, 64, 256, 64, 64, 64]
    assert [len(sizes[0]) for sizes in calls] == [4, 2, 1]
    # hol_extremes, with the escalating tensor's 64-restart runs made unstable:
    # a batched block's values equal its one-tensor run's bit for bit, so that
    # run's per-restart extremes single the tensor out
    stable, targets = pinching._stable, set()
    monkeypatch.setattr(pinching, "_stable", lambda vals, maximize: targets.add(vals.tobytes()) or True)
    hol_extremes(tensors[2], restarts=64, seed=seeds[2])
    assert len(targets) == 2
    monkeypatch.setattr(
        pinching, "_stable", lambda vals, maximize: vals.tobytes() not in targets and stable(vals, maximize)
    )
    single = [_bits(hol_extremes(t, seed=s)) for t, s in zip(tensors, seeds)]
    calls.clear()
    reports = _hol_batch(tensors, None, seeds)
    assert [_bits(r) for r in reports] == single
    assert [r.restarts for r in reports] == [64, 64, 256, 64, 64, 64]
    assert [len(sizes[0]) for sizes in calls] == [4, 2, 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("restarts", [None, 16])
def test_joint_batches_equal_the_one_kind_batches_bit_for_bit(n, restarts, monkeypatch):
    # a joint batch runs each tensor's plane and J-line blocks in one loop:
    # with no sign certificate, its plane reports are _pinch_batch's, its
    # J-line reports _hol_batch's (certified sides:
    # test_joint_batches_read_certified_sides_from_the_j_lines)
    from kahlerpinch.pinching import BATCH_ROWS, _hol_batch, _pinch_batch

    _uncertified(monkeypatch)
    tensors, seeds = _mixed_batch(n)
    expected = [_bits(r) for r in _pinch_batch(tensors, restarts, seeds)], [
        _bits(r) for r in _hol_batch(tensors, restarts, seeds)
    ]
    calls = _record_blocks(monkeypatch)
    pinches, hols = _joint_batch(tensors, restarts, seeds)
    assert ([_bits(r) for r in pinches], [_bits(r) for r in hols]) == expected
    if restarts is None and n == 2:
        assert calls == []  # the exact extremes of Kahler surfaces
    else:
        # the first batch: its tensors' plane blocks, then their J-line blocks,
        # with at most BATCH_ROWS plane rows
        rows = 2 * (restarts or DEFAULT_RESTARTS)
        assert calls[0][0] == [rows] * 2 * min(len(tensors), BATCH_ROWS // rows)


def test_surface_batches_run_one_eigenbasis_and_one_secular_loop(monkeypatch):
    # an n = 2 default joint batch solves each closed-form step once: one eigh
    # (of the C's and the rank-one updates) and one _secular_top call over the
    # 2b sphere rows, and its J-line rows are the plane pass's H candidates
    # before retraction; a J-line-only batch runs the same pass and retracts
    # the same rows
    from kahlerpinch import pinching

    tensors, seeds = _mixed_batch(2)
    expected = [[_bits(r) for r in reports] for reports in _joint_batch(tensors, None, seeds)]
    eigh, secular, surface, retract = (
        np.linalg.eigh, pinching._secular_top, pinching._surface_rows, pinching._retract_j_lines
    )
    calls = {"eigh": [], "rows": [], "surface": [], "retracted": []}

    def recording_eigh(a, *args, **kwargs):
        calls["eigh"].append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def recording_secular(c, g):
        calls["rows"].append(len(c))
        return secular(c, g)

    def recording_surface(mats):
        rows = surface(mats)
        calls["surface"].append(rows)
        return rows

    def recording_retract(x, jmat):
        calls["retracted"].append(x.copy())
        return retract(x, jmat)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(pinching, "_secular_top", recording_secular)
    monkeypatch.setattr(pinching, "_surface_rows", recording_surface)
    monkeypatch.setattr(pinching, "_retract_j_lines", recording_retract)
    joint = _joint_batch(tensors, None, seeds)
    assert [[_bits(r) for r in reports] for reports in joint] == expected
    b = len(tensors)
    # b C's, then b rank-one updates; 2b sphere rows (minimum and maximum per tensor)
    assert calls["eigh"] == [(2 * b, 3, 3)] and calls["rows"] == [2 * b]
    [both] = calls["surface"]
    assert both.shape == (4 * b, 8)
    candidates = both.reshape(b, 2, 2, 8)[:, :, 0].reshape(-1, 8)
    assert [x.tobytes() for x in calls["retracted"]] == [candidates.tobytes()]
    for kind in calls.values():
        kind.clear()
    pinching._hol_batch(tensors, None, seeds)
    assert calls["eigh"] == [(2 * b, 3, 3)] and calls["rows"] == [2 * b]
    assert [x.tobytes() for x in calls["retracted"]] == [candidates.tobytes()]


def test_joint_batches_escalate_per_tensor_and_kind(monkeypatch):
    # with a small iteration budget some first runs are unstable: each tensor
    # reruns only its unconverged kinds, and with no sign certificate every
    # report still equals its one-kind batch's (and so the explicit
    # 256-restart call)
    from kahlerpinch import pinching
    from kahlerpinch.pinching import _hol_batch, _pinch_batch

    _uncertified(monkeypatch)
    monkeypatch.setattr(pinching, "MAX_ITER", 12)
    tensors, seeds = _mixed_batch(3)
    pinches, hols = _pinch_batch(tensors, None, seeds), _hol_batch(tensors, None, seeds)
    calls = _record_blocks(monkeypatch)
    joint = _joint_batch(tensors, None, seeds)
    assert [[_bits(r) for r in reports] for reports in joint] == [[_bits(r) for r in pinches], [_bits(r) for r in hols]]
    kinds = [(p.restarts == 256) + (h.restarts == 256) for p, h in zip(pinches, hols)]
    # some tensor escalates both kinds and some tensor one kind only
    assert 2 in kinds and 1 in kinds
    # first runs of four and one tensors, then one rerun batch per escalating tensor
    first = [2 * DEFAULT_RESTARTS] * 8, [2 * DEFAULT_RESTARTS] * 2
    assert [sizes[0] for sizes in calls] == [*first, *([2 * 256] * k for k in kinds if k)]
    k = kinds.index(2)
    assert _bits(joint[0][k]) == _bits(pinch(tensors[k], restarts=256, seed=seeds[k]))
    assert _bits(joint[1][k]) == _bits(hol_extremes(tensors[k], restarts=256, seed=seeds[k]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_joint_batches_read_certified_sides_from_the_j_lines(n, monkeypatch):
    # a side that its tensor's certificate gives to H (lambda_max(Q) + margin
    # <= 0 for the minimum, lambda_min(Q) - margin >= 0 for the maximum) runs
    # no plane rows when the tensor's J-line block shares the batch: its K
    # extreme is the J-line rows' H extreme, with the witness [u | Ju]. The
    # other side and every J-line report are the one-kind batches' bit for
    # bit, and so is every report of an uncertified tensor
    from kahlerpinch.curvature import _certified_stack
    from kahlerpinch.pinching import _envelopes, _hol_batch, _pinch_batch

    tensors, seeds = _mixed_batch(n)
    certified = _envelopes(_certified_stack(tensors))[2].tolist()
    pinches, hols = _pinch_batch(tensors, 16, seeds), _hol_batch(tensors, 16, seeds)
    calls = _record_blocks(monkeypatch)
    planes, lines = _joint_batch(tensors, 16, seeds)
    assert [_bits(r) for r in lines] == [_bits(r) for r in hols]
    jmat = make_space(n).j_matrix
    for report, pinched, hol, sides in zip(planes, pinches, hols, certified):
        if not any(sides):
            assert _bits(report) == _bits(pinched)
            continue
        for side, k, witness, h, u in (
            (sides[0], "k_min", "argmin_plane", hol.h_min, hol.argmin_u),
            (sides[1], "k_max", "argmax_plane", hol.h_max, hol.argmax_u),
        ):
            if side:
                assert getattr(report, k) == h
                assert _bits(getattr(report, witness)) == _bits(TwoPlane(u, u @ jmat.T))
            else:
                assert getattr(report, k) == getattr(pinched, k)
                assert _bits(getattr(report, witness)) == _bits(getattr(pinched, witness))
        assert report.restarts == 16 and sum(getattr(report.diagnostics, r) for r in EXIT_REASONS) == 32
        assert (report.envelope_lo, report.envelope_hi) == (pinched.envelope_lo, pinched.envelope_hi)
    # the model and the perturbed tensors are certified for the minimum
    assert [certified[k][0] for k in (0, 1, 3)] == [True] * 3
    if n >= 2:
        assert not any(certified[2] + certified[4])  # random_kahler: K takes both signs
    # one batch: the plane blocks, 16 rows per side run, then the J-line blocks.
    # The perturbed tensors' preconditioned plane blocks lead; the model and
    # the random tensors keep the plain step (at n = 1 every tensor is a
    # space form, so the plane blocks keep the tensor order)
    order = [0, 1, 2, 3, 4] if n == 1 else [1, 3, 0, 2, 4]
    assert calls[0][0] == [16 * (2 - sum(certified[k])) for k in order] + [32] * len(tensors)


@pytest.mark.parametrize("n", [3, 4])
def test_only_preconditioned_plane_rows_reach_the_plane_direction(n, monkeypatch):
    # a batch's preconditioned plane blocks lead it, so _plane_direction runs
    # on that prefix alone: here only the perturbed tensor's rows, with its own
    # model coordinates. The model (a space form) and the random tensor
    # (3 |s0| <= mu) keep the plain step, and every tensor's arrays equal its
    # one-tensor run bit for bit
    from kahlerpinch import pinching
    from kahlerpinch.curvature import _certified_stack
    from kahlerpinch.experiments import perturb

    space = make_space(n)
    stack = _certified_stack([complex_hyperbolic_tensor(space), perturb(space, 0.02, 1), random_kahler(space, 2)])
    seeds = [3, 5, 7]
    s0, mu = pinching._stacked_model_coordinates(stack)
    scales = np.hypot(s0, mu)  # the unit curvature scale _optimize sees
    s0, mu = np.abs(s0) / scales, mu / scales
    assert mu[0] == 0.0 and mu[1] < 3.0 * s0[1] and 3.0 * s0[2] <= mu[2]
    alone = [pinching._multistart(stack[k : k + 1], None, seeds[k : k + 1], (True, False)) for k in range(3)]
    seen = []
    direction = pinching._plane_direction

    def spy(x, g, abs_s0, mu):
        seen.append((len(x), np.unique(np.concatenate([abs_s0, mu], axis=1), axis=0)))
        return direction(x, g, abs_s0, mu)

    monkeypatch.setattr(pinching, "_plane_direction", spy)
    joint = pinching._multistart(stack, None, seeds, (True, False))
    for k, kinds in enumerate(alone):
        for one, both in zip(kinds, joint):
            for field in one._fields:
                assert _bits(getattr(one, field)) == _bits(getattr(both, field)[k : k + 1]), (k, field)
    # the perturbed tensor's plane block: 64 restarts per side that it runs
    certified = pinching._envelopes(stack)[2][1]
    assert seen[0][0] == DEFAULT_RESTARTS * (2 - int(certified.sum()))
    assert all(np.array_equal(coordinates, [[s0[1], mu[1]]]) for _, coordinates in seen)


def test_an_uncertified_minimum_runs_its_plane_rows_and_a_certified_maximum_reads_h():
    # -R for R near the model is positively curved: lambda_max(Q) is about 2,
    # so the minimum is not certified and its descending plane rows run (K's
    # minimum, on a totally real plane, is far below H's); lambda_min(Q) is
    # about 1/2, so the maximum is H's, bit for bit
    from kahlerpinch.curvature import _certified_stack
    from kahlerpinch.experiments import perturb
    from kahlerpinch.pinching import _envelopes, _multistart

    stack = _certified_stack([perturb(make_space(3), 0.02, 1).scaled(-1.0)])
    assert _envelopes(stack)[2].tolist() == [[False, True]]
    planes, lines = _multistart(stack, None, [1], (True, False))
    (k_min, k_max), (h_min, h_max) = planes.values[0], lines.values[0]
    assert k_min == pytest.approx(0.248, abs=1e-3) and h_min == pytest.approx(0.996, abs=1e-3)
    assert k_max == h_max and planes.rows[0, 1].tobytes() == lines.rows[0, 1].tobytes()
    assert planes.converged[0] and lines.converged[0]


def test_a_zero_tensor_runs_an_empty_plane_block_in_a_joint_batch(monkeypatch):
    # Q = 0 certifies both sides with a zero margin, so the zero tensor's plane
    # block is empty and both of its extremes are read from its J-line rows,
    # first or last in the batch. That plane block keeps the plain step, so it
    # follows the perturbed tensor's preconditioned one in either tensor order
    from kahlerpinch.curvature import _certified_stack
    from kahlerpinch.experiments import perturb

    space = make_space(3)
    zero = CurvatureTensor(space, np.zeros((6,) * 4))
    calls = _record_blocks(monkeypatch)
    for tensors in ([perturb(space, 0.05, 2), zero], [zero, perturb(space, 0.05, 2)]):
        calls.clear()
        planes, lines = _joint_batch(tensors, 8, [1, 2])
        k = tensors.index(zero)
        assert (planes[k].k_min, planes[k].k_max) == (lines[k].h_min, lines[k].h_max) == (0.0, 0.0)
        assert planes[k].converged and planes[k].diagnostics.gradient_tol == 16
        assert calls[0][0] == [8, 0, 16, 16]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 4),
    t=st.floats(0.0, 0.2),
    seed=st.integers(0, 2**32 - 1),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_random_planes_stay_inside_a_certified_sides_extreme(n, t, seed, sign):
    # a certified side's K extreme is H's; K at random planes never passes it
    # by more than rounding
    from kahlerpinch.curvature import _certified_stack
    from kahlerpinch.experiments import perturb
    from kahlerpinch.pinching import _envelopes, _multistart

    space = make_space(n)
    tensor = perturb(space, t, seed).scaled(sign)
    stack = _certified_stack([tensor])
    certified = _envelopes(stack)[2][0]
    assert certified.tolist() == ([True, False] if sign > 0 else [False, True])
    planes, lines = _multistart(stack, 8, [seed], (True, False))
    k_min, k_max = planes.values[0]
    assert (k_min if sign > 0 else k_max) == (lines.values[0, 0] if sign > 0 else lines.values[0, 1])
    u, v = seeded_rng(seed, 3).standard_normal((2, 256, space.dim))
    values = np.array([sectional(tensor, TwoPlane(a, b)) for a, b in zip(u, v)])
    rounding = 1e-12 * max(abs(k_min), abs(k_max))
    assert values.min() >= k_min - rounding and values.max() <= k_max + rounding


def test_the_envelope_and_the_sign_certificates_read_one_eigvalsh_of_q(monkeypatch):
    # one (B, n^2, n^2) eigvalsh per stack and no bivector-operator one; at
    # n = 2 the closed form reads the same Q, so a default joint batch runs
    # that one eigvalsh and no other
    from kahlerpinch import pinching
    from kahlerpinch.curvature import _certified_stack

    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(np.shape(a)) or eigvalsh(a))
    for n in (2, 3):
        tensors, seeds = _mixed_batch(n)
        shapes.clear()
        pinching._envelopes(_certified_stack(tensors))
        assert shapes == [(5, n * n, n * n)]
    tensors, seeds = _mixed_batch(2)
    shapes.clear()
    _joint_batch(tensors, None, seeds)
    assert shapes == [(5, 4, 4)]


def test_default_budget_finds_the_256_restart_extremes_at_n4():
    # the guard for cutting n = 4 from 256 restarts to 64: near-model tensors
    # converge at 64 restarts and reach the 256-restart extremes
    from kahlerpinch.experiments import perturb
    from kahlerpinch.pinching import STABILITY_TOL, _hol_batch, _pinch_batch, _stacked_model_coordinates

    seeds = [1 + 1000003 * j for j in range(12)]
    tensors = [perturb(make_space(4), 0.02, s) for s in seeds]
    for batch, fields in ((_pinch_batch, ("k_min", "k_max")), (_hol_batch, ("h_min", "h_max"))):
        for tensor, cut, full in zip(tensors, batch(tensors, None, seeds), batch(tensors, 256, seeds)):
            scale = np.hypot(*_stacked_model_coordinates(tensor.entries[None]))[0]
            assert cut.converged and cut.restarts == 64
            for field in fields:
                assert abs(getattr(cut, field) - getattr(full, field)) <= STABILITY_TOL * scale


# ---------------------------------------------------------------------------
# holomorphic extremes
# ---------------------------------------------------------------------------


def test_hol_extremes_model(r0_n2):
    report = hol_extremes(r0_n2, restarts=32, seed=3)
    assert report.h_min == pytest.approx(-1.0, abs=1e-9)
    assert report.h_max == pytest.approx(-1.0, abs=1e-9)
    doubled = hol_extremes(r0_n2.scaled(2.0), restarts=32, seed=3)
    assert doubled.h_min == pytest.approx(-2.0, abs=1e-9)


def test_hol_witnesses_checkable(space2):
    tensor = random_kahler(space2, seed=91)
    report = hol_extremes(tensor, restarts=32, seed=5)
    assert holomorphic_sectional(tensor, report.argmin_u) == pytest.approx(report.h_min, abs=1e-9)
    assert holomorphic_sectional(tensor, report.argmax_u) == pytest.approx(report.h_max, abs=1e-9)


def test_hol_range_inside_sectional_range(space2, space3):
    for space, seed in ((space2, 92), (space3, 93)):
        tensor = random_kahler(space, seed=seed)
        planes = pinch(tensor, restarts=32, seed=11)
        hol = hol_extremes(tensor, restarts=32, seed=11)
        assert planes.k_min - 1e-6 <= hol.h_min <= hol.h_max <= planes.k_max + 1e-6


# ---------------------------------------------------------------------------
# mixed-component bound
# ---------------------------------------------------------------------------


def test_berger_bound_model_attains(r0_n2, space2):
    report = pinch(r0_n2, restarts=32, seed=1)
    violation = berger_bound_check(r0_n2, report.k_min, samples=200, seed=1)
    assert violation <= 1e-10
    # the bound (2/3)(1 - 1/4) = 1/2 is attained at R0(u,Ju,v,Jv)
    u, v = random_orthonormal_pair(space2, 5, constraint="v_perp_ju")
    attained = abs(r0_n2.evaluate(u, space2.j(u), v, space2.j(v)))
    assert attained == pytest.approx(0.5, abs=1e-10)


def test_berger_bound_scale_covariant(r0_n2):
    # renormalizing a scaled pinched tensor reproduces the same check
    scaled = r0_n2.scaled(4.0)
    report = pinch(scaled, restarts=32, seed=1)
    norm = normalize_quarter(scaled, report)
    report_after = pinch(norm.tensor, restarts=32, seed=1)
    violation = berger_bound_check(norm.tensor, report_after.k_min, samples=100, seed=2)
    assert violation <= 1e-10


def test_berger_bound_reports_violation_without_raising(r0_n2):
    # a curvature minimum that understates the pinching range must yield a
    # positive violation, reported rather than raised
    violation = berger_bound_check(r0_n2, -0.26, samples=100, seed=3)
    assert violation > 0


def test_berger_bound_check_matches_per_sample_loop():
    from kahlerpinch.experiments import perturb

    def per_sample(tensor, k_min, samples, seed):
        # one QR and one five-operand contraction per sample
        bound = (2.0 / 3.0) * (-k_min - 0.25)
        rng = seeded_rng(seed, 11)
        worst = -np.inf
        for _ in range(samples):
            q, r = np.linalg.qr(rng.standard_normal((tensor.space.dim, 4)))
            q = q * np.sign(np.diagonal(r))
            value = abs(np.einsum("ijkl,i,j,k,l", tensor.entries, *q.T))
            worst = max(worst, value - bound)
        return worst

    for n in (2, 3):
        tensor = perturb(make_space(n), 0.05, seed=21)
        report = pinch(tensor, restarts=8, seed=1)
        for samples, seed in ((1, 0), (60, 4), (200, 9)):
            batched = berger_bound_check(tensor, report.k_min, samples=samples, seed=seed)
            expected = per_sample(tensor, report.k_min, samples, seed)
            assert batched == pytest.approx(expected, rel=0.0, abs=1e-15)
        assert berger_bound_check(tensor, report.k_min, samples=0, seed=1) == -np.inf


def test_berger_needs_dimension_two(r0_n1):
    report = pinch(r0_n1, restarts=4, seed=1)
    with pytest.raises(InvalidDimensionError):
        berger_bound_check(r0_n1, report.k_min, samples=10, seed=1)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_quarter_model(r0_n2):
    report = pinch(r0_n2, restarts=32, seed=1)
    norm = normalize_quarter(r0_n2, report)
    assert norm.scale == 1.0
    assert norm.delta == 0.0
    assert not norm.anomaly
    assert np.array_equal(norm.tensor.entries, r0_n2.entries)


def test_normalize_quarter_scaled(r0_n2):
    scaled = r0_n2.scaled(4.0)
    report = pinch(scaled, restarts=32, seed=1)
    norm = normalize_quarter(scaled, report)
    assert norm.scale == pytest.approx(0.25, abs=1e-12)
    assert norm.delta == pytest.approx(0.0, abs=1e-9)


def test_normalize_quarter_perturbed_has_positive_defect(space2):
    from kahlerpinch.experiments import perturb

    tensor = perturb(space2, 0.1, seed=12)
    report = pinch(tensor, restarts=32, seed=3)
    norm = normalize_quarter(tensor, report)
    assert norm.delta > 0
    assert not norm.anomaly


def test_normalize_quarter_rejects_nonnegative_max(space2):
    zero = CurvatureTensor(space2, np.zeros((4, 4, 4, 4)))
    report = pinch(zero, restarts=4, seed=1)
    with pytest.raises(NotNegativelyCurvedError):
        normalize_quarter(zero, report)


def test_normalize_quarter_rejects_a_maximum_too_small_to_invert(r0_n2):
    # -1 / (4 k_max) overflows: raise before scaling, with no RuntimeWarning
    import warnings

    for factor in (2.0**-1030, 1e-310):
        tiny = r0_n2.scaled(factor)
        report = pinch(tiny, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResourceLimitError, match="curvature maximum"):
                normalize_quarter(tiny, report)
    small = r0_n2.scaled(2.0**-1000)
    norm = normalize_quarter(small, pinch(small, seed=1))
    assert (norm.scale, norm.delta) == (1.0715086071862673e301, 0.0)
