from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerpinch import (
    ChernIndex,
    CurvatureTensor,
    chern_densities,
    chern_forms,
    chern_ratio,
    complex_hyperbolic_tensor,
    curvature_matrix,
    density_ratio,
    distance,
    enumerate_indices,
    make_space,
    project_kahler,
    random_kahler,
    reference_constants,
    seeded_rng,
    space_form_ratio,
)
from kahlerpinch.curvature import _certified_stack
from kahlerpinch.errors import DegenerateDenominatorError, DegreeError, PreconditionError, ResourceLimitError
from real_forms import balanced, kahler_form, power, pp_to_real, real_chern_densities, two_form, wedge


# ---------------------------------------------------------------------------
# indices
# ---------------------------------------------------------------------------


def test_enumerate_indices_small_n():
    assert [i.multi_index for i in enumerate_indices(2)] == [(2, 0), (0, 1)]
    assert [i.multi_index for i in enumerate_indices(3)] == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]
    assert len(enumerate_indices(4)) == 5


@pytest.mark.parametrize("n", [2, 3, 4])
def test_densities_read_indices_built_once(n):
    # chern_densities reads a cached table of the indices; enumerate_indices
    # still hands each caller a list of its own
    from kahlerpinch import chern

    tensor = random_kahler(make_space(n), seed=n)
    chern._index_factors.cache_clear()
    first = chern_densities(tensor)
    indices = enumerate_indices(n)
    assert indices is not enumerate_indices(n)
    indices.reverse()
    indices.append(indices[0])
    second = chern_densities(tensor)
    assert chern._index_factors.cache_info().misses == 1
    assert list(second) == enumerate_indices(n)
    assert [v.hex() for v in second.values()] == [v.hex() for v in first.values()]


def test_chern_index_validation():
    ChernIndex((2, 0))
    with pytest.raises(DegreeError):
        ChernIndex((1, 1))  # weight 3 != 2
    with pytest.raises(DegreeError):
        ChernIndex((-1, 1))


def test_chern_index_rejects_the_empty_index():
    # it passed as an index of dimension 0, though enumerate_indices(0) raises
    with pytest.raises(DegreeError, match="at least one entry"):
        ChernIndex(())
    with pytest.raises(DegreeError):
        enumerate_indices(0)


def test_chern_index_rejects_non_integral_entries():
    assert ChernIndex((np.int64(2), 0)).multi_index == (2, 0)
    for entries in ((2.9, 0), (2.0, 0), (True, False), (2, False), ("2", "0")):
        with pytest.raises(DegreeError):
            ChernIndex(entries)


# ---------------------------------------------------------------------------
# curvature matrix
# ---------------------------------------------------------------------------


def _max_abs(form):
    return float(np.max(np.abs(form)))


def _real_omega(omega, n):
    # the (1,1) matrices Omega_ab as real-basis 2-forms over e^i, shape (n, n, 4^n)
    return pp_to_real(omega, n, 1)


def _real(forms):
    # c_0, ..., c_n, the (k, k) matrices of chern_forms, as real-basis forms, shape (n + 1, 4^n)
    n = len(forms) - 1
    return np.array([pp_to_real(form, n, k) for k, form in enumerate(forms)])


def _skew_hermitian_residual(matrix):
    # Omega_ab + conj(Omega_ba), entrywise over every form coefficient
    return _max_abs(matrix + np.conj(matrix.transpose(1, 0, 2)))


def test_curvature_matrix_skew_hermitian(r0_n2, space2):
    omega = curvature_matrix(r0_n2)
    assert omega.shape == (2, 2, 2, 2)
    assert _skew_hermitian_residual(_real_omega(omega, 2)) < 1e-12
    tensor = random_kahler(space2, seed=101)
    assert _skew_hermitian_residual(_real_omega(curvature_matrix(tensor), 2)) < 1e-12


def _three_blocks(tensor, f):
    # R(., ., f_a, f_b) + (i/2) [R(., ., f_a, Jf_b) - R(., ., Jf_a, f_b)] as (n, n, d, d)
    jf = f @ tensor.space.j_matrix.T

    def block(u, v):
        return np.einsum("ijkl,ak,bl->abij", tensor.entries, u, v)

    return block(f, f) + 0.5j * (block(f, jf) - block(jf, f))


def test_curvature_matrix_matches_einsum_contraction(unitary_pullback):
    for n in (1, 2, 3, 4):
        space = make_space(n)
        tensor = random_kahler(space, seed=40 + n)
        canonical = np.eye(space.dim)[0::2]  # f_a = e_{2a}
        expected = two_form(_three_blocks(tensor, canonical))
        assert np.max(np.abs(_real_omega(curvature_matrix(tensor), n) - expected)) <= 1e-15
        # the pullback's standard frame is the frame {f_a} of random_unitary_frame(space, 7)
        pulled, g = unitary_pullback(tensor, 7)
        expected = two_form(g.T @ _three_blocks(tensor, g.T[0::2]) @ g)
        assert np.max(np.abs(_real_omega(curvature_matrix(pulled), n) - expected)) <= 1e-15


def test_curvature_matrix_n1_proportional_to_kahler_form(r0_n1, space1):
    omega = _real_omega(curvature_matrix(r0_n1), 1)
    entry = omega[0, 0]
    # Lambda^2 of a 2-dim space is 1-dim: both parts are multiples of omega
    kf = kahler_form(space1)
    top = 0b11  # the mask of e^1 ^ e^2
    for part in (entry.real, entry.imag):
        if _max_abs(part) > 0:
            ratio = part[top] / kf[top]
            assert _max_abs(part - ratio * kf) < 1e-12


def test_curvature_matrix_zero_tensor(space2):
    zero = CurvatureTensor(space2, np.zeros((4, 4, 4, 4)))
    omega = curvature_matrix(zero)
    assert np.all(omega == 0.0)


# ---------------------------------------------------------------------------
# chern forms
# ---------------------------------------------------------------------------


def test_c0_is_one(r0_n2):
    c0 = _real(chern_forms(r0_n2)).real[0]
    assert c0[0] == 1.0 and np.all(c0[1:] == 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_newton_recursion_adds_p_k_without_a_wedge(n, monkeypatch):
    # sigma_0 ^ p_k = p_k, so Newton's recursion adds the trace p_k itself:
    # a pass makes n - 1 trace wedges and n(n - 1)/2 Newton wedges, and its
    # forms equal, as floats, those of the recursion that wedges c_0 = 1 with p_k
    from kahlerpinch import chern
    from kahlerpinch.curvature import _kahler_coordinates, _unit_exponent
    from kahlerpinch.forms import _shuffle, _wedge

    tensor = random_kahler(make_space(n), seed=n)
    wedges = []
    monkeypatch.setattr(chern, "_wedge", lambda *args: wedges.append(args) or _wedge(*args))
    _, sigmas = chern._unit_forms(_certified_stack([tensor]))
    assert len(wedges) == n - 1 + n * (n - 1) // 2
    entries = tensor.entries[None]
    unit = np.ldexp(entries, -_unit_exponent(entries).reshape(-1, 1, 1, 1, 1))
    omega = _kahler_coordinates(unit).transpose(0, 3, 4, 1, 2) * (1j / (2.0 * np.pi))
    traces, current = [omega.trace(axis1=1, axis2=2)], omega
    for p in range(1, n):
        current = _wedge(_shuffle(n, p, 1), current, omega, "zabij,zbckl->zacikjl")
        traces.append(current.trace(axis1=1, axis2=2))
    wedged = [np.ones((1, 1, 1), dtype=complex)]
    for k in range(1, n + 1):
        terms = [_wedge(_shuffle(n, k - j, j), wedged[k - j], traces[j - 1]) for j in range(1, k + 1)]
        wedged.append(sum(term * (-1) ** j for j, term in enumerate(terms)) / k)
    assert all(np.array_equal(sigma, form) for sigma, form in zip(sigmas, wedged, strict=True))


def test_chern_forms_of_model_are_multiples_of_omega_powers(r0_n3, space3):
    # U(n)-invariance: c_k(R0) = gamma_k * omega^k, checked entrywise
    forms = _real(chern_forms(r0_n3)).real
    omega = kahler_form(space3)
    for k in (1, 2, 3):
        omega_k = power(omega, k)
        # match coefficients on the first nonzero slot of omega^k
        idx = int(np.argmax(np.abs(omega_k)))
        gamma = forms[k][idx] / omega_k[idx]
        assert _max_abs(forms[k] - gamma * omega_k) < 1e-12


def test_chern_form_homogeneity(space2):
    tensor = random_kahler(space2, seed=103)
    base = _real(chern_forms(tensor)).real
    for lam in (0.5, 2.0):
        scaled = _real(chern_forms(tensor.scaled(lam))).real
        for k in (1, 2):
            assert _max_abs(scaled[k] - lam**k * base[k]) < 1e-10


def _two_form_matrix(form, dim):
    # the antisymmetric matrix C with form = sum_{i<j} C_ij e^i ^ e^j
    i, j = np.triu_indices(dim, 1)
    matrix = np.zeros((dim, dim))
    matrix[i, j] = form[(1 << i) | (1 << j)]
    return matrix - matrix.T


def _pullback_operator(g):
    # P with (g^* F) = F @ P: row m is g^* of e^{i_1} ^ ... ^ e^{i_k}, the set bits of m,
    # a wedge of the 1-forms g^* e^i = sum_j g_ij e^j
    dim = g.shape[0]
    rows = np.zeros((1 << dim, 1 << dim))
    rows[0, 0] = 1.0
    for mask in range(1, 1 << dim):
        low = (mask & -mask).bit_length() - 1
        theta = np.zeros(1 << dim)
        theta[1 << np.arange(dim)] = g[low]
        rows[mask] = wedge(theta, rows[mask ^ (1 << low)])
    return rows


def test_frame_independence(unitary_pullback):
    # naturality: the Chern forms of the pulled-back tensor are the pulled-back
    # forms, so c_1 has coefficient matrix g^T C_1 g, and densities (g has
    # determinant 1) do not move
    for n in (2, 4):
        space = make_space(n)
        tensor = random_kahler(space, seed=104)
        assert [form.shape for form in chern_forms(tensor)] == [(comb(n, k),) * 2 for k in range(n + 1)]
        base = _real(chern_forms(tensor)).real
        densities = chern_densities(tensor)
        for s in range(20):
            pulled, g = unitary_pullback(tensor, seed=200 + s)
            forms = _real(chern_forms(pulled)).real
            c1 = _two_form_matrix(base[1], space.dim)
            assert np.max(np.abs(_two_form_matrix(forms[1], space.dim) - g.T @ c1 @ g)) < 1e-10
            assert _max_abs(forms - base @ _pullback_operator(g)) < 1e-10
            for index, gamma in chern_densities(pulled).items():
                assert gamma == pytest.approx(densities[index], rel=1e-10, abs=0.0)


def test_reality_of_chern_forms(space3):
    # the imaginary residue is checked inside chern_forms at 1e-12; build a
    # few random tensors to exercise the check
    for s in range(5):
        tensor = random_kahler(space3, seed=300 + s)
        chern_forms(tensor)  # raises if the residue exceeds the threshold


def test_reality_check_rejects_an_imaginary_residue(space2):
    # R0 plus 3e-11 times a normal table: certified at 1e-9 (max residual 1.5e-10), but
    # c_1 keeps an imaginary residue of 2.8e-12, above REALITY_TOL
    from kahlerpinch import check_kahler

    entries = complex_hyperbolic_tensor(space2).entries
    tensor = CurvatureTensor(space2, entries + 3e-11 * seeded_rng(1).standard_normal(entries.shape))
    assert check_kahler(tensor).passed
    with pytest.raises(PreconditionError, match=r"c_1 has imaginary residue 2\.780e-12"):
        chern_forms(tensor)
    with pytest.raises(PreconditionError, match=r"c_1 has imaginary residue"):
        chern_densities(tensor)


def test_chern_forms_beyond_the_double_range_raise():
    # the degree-k products overflow: the forms held NaN, which passed the
    # reality check (NaN > tol is False), after a run of RuntimeWarnings
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, k in ((2, 520), (4, 260), (4, 520)):
            with pytest.raises(ResourceLimitError, match="not finite"):
                chern_forms(complex_hyperbolic_tensor(make_space(n)).scaled(2.0**k))
        # products that underflow stay finite
        forms = chern_forms(complex_hyperbolic_tensor(make_space(2)).scaled(2.0**-540))
        assert all(np.all(np.isfinite(form)) for form in forms)


# ---------------------------------------------------------------------------
# densities and ratios
# ---------------------------------------------------------------------------


def test_model_ratios_match_published_values(r0_n2, r0_n3):
    three = chern_ratio(r0_n2, ChernIndex((2, 0)), ChernIndex((0, 1)))
    assert three == pytest.approx(3.0, abs=1e-8)
    sixteen = chern_ratio(r0_n3, ChernIndex((3, 0, 0)), ChernIndex((0, 0, 1)))
    assert sixteen == pytest.approx(16.0, abs=1e-8)
    six = chern_ratio(r0_n3, ChernIndex((1, 1, 0)), ChernIndex((0, 0, 1)))
    assert six == pytest.approx(6.0, abs=1e-8)


def test_space_form_formula_is_binomial_products():
    # independent recomputation of the reference formula
    got = space_form_ratio(ChernIndex((3, 0, 0)), ChernIndex((0, 0, 1)))
    assert got == comb(4, 1) ** 3 / comb(4, 3)
    got = space_form_ratio(ChernIndex((1, 1, 0)), ChernIndex((0, 0, 1)))
    assert got == comb(4, 1) * comb(4, 2) / comb(4, 3)


def test_indices_of_another_dimension_raise_degree_error():
    two, three = ChernIndex((2, 0)), ChernIndex((0, 0, 1))
    for index_i, index_j in ((two, three), (three, two)):
        with pytest.raises(DegreeError):
            space_form_ratio(index_i, index_j)
        with pytest.raises(DegreeError):
            density_ratio(reference_constants(2), index_i, index_j)


def test_reference_constants_returns_a_fresh_table_each_call():
    first = reference_constants(2)
    expected = dict(first)
    key = next(iter(first))
    first[key] = 0.0
    del first[next(reversed(first))]
    assert reference_constants(2) == expected
    assert reference_constants(2) is not reference_constants(2)
    assert reference_constants(2)[key] != 0.0
    a, b = expected
    assert density_ratio(reference_constants(2), a, b) == pytest.approx(space_form_ratio(a, b), rel=1e-12)


def test_reference_constants_cross_check():
    for n in (1, 2, 3, 4, 5, 6):
        table = reference_constants(n)
        assert len(table) == len(enumerate_indices(n))
        assert all(abs(v) > 0 for v in table.values())
        for a in table:
            for b in table:
                assert table[a] / table[b] == pytest.approx(
                    space_form_ratio(a, b), rel=1e-8
                )


def test_balanced_algebra_sizes():
    # the oracle's map of (p, p) matrices to masks: C(2n, n) balanced masks, one
    # C(n, p) x C(n, p) block of them for each p
    for n in (1, 2, 3, 4, 5):
        algebra = balanced(n)
        assert algebra.masks.size == comb(2 * n, n)
        assert [block.shape for block in algebra.place] == [(comb(n, p),) * 2 for p in range(n + 1)]
        assert [block.shape for block in algebra.sign] == [(comb(n, p),) * 2 for p in range(n + 1)]
        places = np.concatenate([block.ravel() for block in algebra.place])
        assert np.array_equal(np.sort(places), np.arange(algebra.masks.size))


def test_densities_match_the_real_algebra_oracle():
    from kahlerpinch.experiments import perturb

    for n in (1, 2, 3, 4, 5):
        space = make_space(n)
        for tensor in (
            complex_hyperbolic_tensor(space),
            perturb(space, 0.05, 3),
            random_kahler(space, seed=5),
        ):
            oracle = real_chern_densities(tensor)
            for index, gamma in chern_densities(tensor).items():
                assert gamma == pytest.approx(oracle[index], rel=1e-12, abs=0.0), (n, index)


def test_ratios_invariant_under_unitary_pullback_n5(unitary_pullback):
    tensor = random_kahler(make_space(5), seed=17)
    base = chern_densities(tensor)
    for seed in (1, 2):
        densities = chern_densities(unitary_pullback(tensor, seed)[0])
        for i in base:
            for j in base:
                assert density_ratio(densities, i, j) == pytest.approx(
                    density_ratio(base, i, j), rel=1e-10, abs=0.0
                )


# Densities of random_kahler(make_space(n), seed) from the earlier implementation
# (sorted-combination form classes), recorded at 17 significant digits.
RECORDED_DENSITIES = {
    (3, 11): {
        (3, 0, 0): 8.949883807458337e-06,
        (1, 1, 0): 2.7703879579527274e-07,
        (0, 0, 1): -2.7531513084923541e-06,
    },
    (3, 12): {
        (3, 0, 0): 1.0056330016499596e-06,
        (1, 1, 0): 2.1365685322287545e-07,
        (0, 0, 1): 4.886128031231113e-07,
    },
    (4, 11): {
        (4, 0, 0, 0): 5.637500887012418e-08,
        (2, 1, 0, 0): 1.9508037870292615e-09,
        (1, 0, 1, 0): -2.8529072833296167e-09,
        (0, 2, 0, 0): 2.9986549157575294e-08,
        (0, 0, 0, 1): 3.2388110443670657e-09,
    },
    (4, 12): {
        (4, 0, 0, 0): 9.5326786843604444e-08,
        (2, 1, 0, 0): 2.8317973532332223e-08,
        (1, 0, 1, 0): 6.3638499591369495e-09,
        (0, 2, 0, 0): 4.4166513724932805e-08,
        (0, 0, 0, 1): 7.9020922235002556e-09,
    },
}


def test_chern_densities_match_recorded_values():
    for (n, seed), recorded in RECORDED_DENSITIES.items():
        densities = chern_densities(random_kahler(make_space(n), seed=seed))
        assert {i.multi_index for i in densities} == set(recorded)
        for index, gamma in densities.items():
            assert gamma == pytest.approx(recorded[index.multi_index], rel=1e-12, abs=0.0)


def test_reference_constants_n2_single_nontrivial_ratio():
    table = reference_constants(2)
    indices = list(table)
    ratios = {
        (str(a), str(b)): table[a] / table[b] for a in indices for b in indices if a != b
    }
    assert len(ratios) == 2  # the pair and its reciprocal
    assert sorted(ratios.values()) == pytest.approx([1 / 3, 3.0], rel=1e-10)


def test_ratio_scale_invariance(space2):
    tensor = random_kahler(space2, seed=105)
    i2, i1 = ChernIndex((0, 1)), ChernIndex((2, 0))
    base = chern_ratio(tensor, i1, i2)
    for lam in (0.5, 2.0, 10.0):
        assert abs(chern_ratio(tensor.scaled(lam), i1, i2) - base) < 1e-10


@pytest.mark.parametrize("n", [2, 4])
def test_ratio_is_exact_at_extreme_power_of_two_scales(n):
    # the densities of 2^k R0 itself overflow (k = 260, 520) or vanish (k = -300,
    # -540); chern_ratio reads them at unit scale, so the ratio is R0's bit for bit
    model = complex_hyperbolic_tensor(make_space(n))
    indices = enumerate_indices(n)
    index_i, index_j = indices[0], indices[-1]
    base = chern_ratio(model, index_i, index_j)
    densities = chern_densities(model)
    for k in (-540, -300, 260, 520):
        assert chern_ratio(model.scaled(2.0**k), index_i, index_j) == base, k
        # the densities are R0's times 2^(n k), without an overflow warning; past
        # 2^1024 some are inf, and a ratio of that table is out of range
        scaled = chern_densities(model.scaled(2.0**k))
        with np.errstate(over="ignore"):
            assert scaled == {index: np.ldexp(gamma, n * k) for index, gamma in densities.items()}, k
        assert np.isinf(list(scaled.values())).any() == (n * k > 1024), k
        if n * k > 1024:
            with pytest.raises(ResourceLimitError, match="not finite"):
                density_ratio(scaled, index_i, index_j)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 3),
    seed=st.integers(0, 2**32),
    scale=st.floats(1e-3, 1e3),
    frame_seed=st.integers(0, 2**32),
)
def test_density_ratios_invariant_under_scale_and_frame(
    unitary_pullback, n, seed, scale, frame_seed
):
    tensor = random_kahler(make_space(n), seed=seed)

    def ratios(densities):
        return {
            (i, j): density_ratio(densities, i, j) for i in densities for j in densities if i != j
        }

    base = ratios(chern_densities(tensor))
    for changed in (
        chern_densities(tensor.scaled(scale)),
        chern_densities(unitary_pullback(tensor, frame_seed)[0]),
    ):
        for key, value in ratios(changed).items():
            assert value == pytest.approx(base[key], rel=1e-10, abs=0.0)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 3), seed=st.integers(0, 2**32))
def test_ratios_are_stationary_at_the_model(n, seed):
    # the first variation of every ratio vanishes at R0 (its only U(n)-invariant
    # linear form is the scalar-curvature trace, along which ratios are constant):
    # halving t shrinks the centred difference 8x (odd part, t^3) and the
    # one-sided deviation 4x (t^2)
    space = make_space(n)
    model = complex_hyperbolic_tensor(space)
    direction = random_kahler(space, seed=seed)
    reference = reference_constants(n)
    keys = [(i, j) for i in reference for j in reference if i != j]

    def ratios(t):
        densities = chern_densities(project_kahler(model.entries + t * direction.entries, space))
        return np.array([density_ratio(densities, i, j) for i, j in keys])

    at_model = np.array([density_ratio(reference, i, j) for i, j in keys])
    centred, one_sided = [], []
    for t in (0.02, 0.01):
        plus, minus = ratios(t), ratios(-t)
        centred.append(np.max(np.abs(plus - minus)))
        one_sided.append(np.max(np.abs(plus - at_model)))
    assert np.log2(centred[0] / centred[1]) == pytest.approx(3.0, abs=0.1)
    assert np.log2(one_sided[0] / one_sided[1]) == pytest.approx(2.0, abs=0.1)


def test_ratio_of_index_with_itself(space2):
    tensor = random_kahler(space2, seed=106)
    idx = ChernIndex((2, 0))
    assert chern_ratio(tensor, idx, idx) == pytest.approx(1.0, abs=1e-14)


def test_degeneracy_test_is_scale_invariant():
    # gamma_{1,1,0} of this tensor is far below the model's at scale 1e-3; the
    # ratio is not degenerate at any scale
    tensor = random_kahler(make_space(3), seed=11)
    i, j = ChernIndex((3, 0, 0)), ChernIndex((1, 1, 0))
    base = chern_ratio(tensor, i, j)
    assert base == pytest.approx(32.3055, rel=1e-5)
    for scale in (1e-3, 1e-6):
        assert chern_ratio(tensor.scaled(scale), i, j) == pytest.approx(base, rel=1e-12, abs=0.0)
        densities = chern_densities(tensor.scaled(scale))
        assert density_ratio(densities, i, j) == pytest.approx(base, rel=1e-12, abs=0.0)


def test_density_ratio_of_an_empty_table_raises_precondition_error():
    with pytest.raises(PreconditionError, match="empty"):
        density_ratio({}, ChernIndex((2, 0)), ChernIndex((0, 1)))


def test_degenerate_denominator_is_relative_to_the_table():
    table = {ChernIndex((2, 0)): 1.0, ChernIndex((0, 1)): 1e-13}
    with pytest.raises(DegenerateDenominatorError):
        density_ratio(table, ChernIndex((2, 0)), ChernIndex((0, 1)))
    tiny = {index: gamma * 1e-200 for index, gamma in table.items()}
    with pytest.raises(DegenerateDenominatorError):
        density_ratio(tiny, ChernIndex((2, 0)), ChernIndex((0, 1)))
    table[ChernIndex((0, 1))] = 1e-11
    assert density_ratio(table, ChernIndex((2, 0)), ChernIndex((0, 1))) == pytest.approx(1e11)


def test_density_ratio_rejects_a_non_finite_table():
    # an overflowed table is not a vanished denominator
    for bad in (np.inf, -np.inf, np.nan):
        table = {ChernIndex((2, 0)): bad, ChernIndex((0, 1)): 1.0}
        for pair in [(ChernIndex((2, 0)), ChernIndex((0, 1))), (ChernIndex((0, 1)), ChernIndex((2, 0)))]:
            with pytest.raises(ResourceLimitError, match="not finite"):
                density_ratio(table, *pair)


def test_degenerate_denominator_raises(space2):
    zero = CurvatureTensor(space2, np.zeros((4, 4, 4, 4)))
    with pytest.raises(DegenerateDenominatorError):
        chern_ratio(zero, ChernIndex((2, 0)), ChernIndex((0, 1)))


def test_chern_densities_match_ratio(r0_n2):
    i1, i2 = ChernIndex((2, 0)), ChernIndex((0, 1))
    densities = chern_densities(r0_n2)
    assert densities[i1] / densities[i2] == pytest.approx(chern_ratio(r0_n2, i1, i2), rel=1e-12)


def test_continuity_near_model(space2, r0_n2):
    # fit the local Lipschitz constant on half the samples, verify on the rest
    from kahlerpinch.experiments import perturb

    table = reference_constants(2)
    samples = []
    for s in range(12):
        tensor = perturb(space2, 0.008, seed=400 + s)
        dist = distance(tensor, r0_n2)
        densities = chern_densities(tensor)
        for index in enumerate_indices(2):
            dev = abs(densities[index] - table[index])
            samples.append((dist, dev, str(index)))
    fit = max(dev / dist for dist, dev, _ in samples[: len(samples) // 2])
    print(f"fitted continuity constant near the model tensor: C = {fit:.4f}")
    for dist, dev, label in samples[len(samples) // 2 :]:
        assert dev <= 2.0 * max(fit, 1e-6) * dist, label


# ---------------------------------------------------------------------------
# stacked passes: each tensor of a stack gets its one-tensor tables bit for bit
# ---------------------------------------------------------------------------

# tensors per stack: sweep's 64-sample chunk up to n = 4, fewer where a form is large
STACK_SIZES = {1: 64, 2: 64, 3: 64, 4: 64, 5: 12, 6: 4}


def _stack_of_tensors(n):
    """Perturbed model tensors, random tensors at scales 1e-120 to 1e120, and R0."""
    from kahlerpinch.experiments import perturb

    space = make_space(n)
    count = STACK_SIZES[n]
    tensors = [perturb(space, 0.01 * (1 + k % 5), seed=k) for k in range(count // 2)]
    tensors += [random_kahler(space, seed=k, frobenius_norm=10.0 ** (k % 13 * 20 - 120)) for k in range(count // 2 - 1)]
    return tensors + [complex_hyperbolic_tensor(space)]


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_density_tables_equal_one_tensor_calls(n):
    from kahlerpinch import chern

    tensors = _stack_of_tensors(n)
    table, unit = chern._density_tables(_certified_stack(tensors))
    exponents, sigmas = chern._unit_forms(_certified_stack(tensors[:3]))
    indices = enumerate_indices(n)
    pairs = [(a, b) for a in indices for b in indices if a != b]
    for k, tensor in enumerate(tensors):
        one_table, one_unit = chern._density_tables(_certified_stack([tensor]))
        assert table[k].tobytes() == one_table[0].tobytes()
        assert unit[k].tobytes() == one_unit[0].tobytes()
        assert _hex(chern_densities(tensor).values()) == _hex(table[k])
        if k < 3:
            one_exponents, one_sigmas = chern._unit_forms(_certified_stack([tensor]))
            assert exponents[k] == one_exponents[0]
            assert [sigma[k].tobytes() for sigma in sigmas] == [sigma[0].tobytes() for sigma in one_sigmas]
        # chern_ratio reads the unit table, one pass per call: a sample of pairs at large n
        unit_densities = dict(zip(indices, unit[k].tolist()))
        for a, b in pairs[:: max(1, len(pairs) // 6)]:
            assert chern_ratio(tensor, a, b).hex() == density_ratio(unit_densities, a, b).hex()


def test_stacked_density_passes_keep_their_wedge_tables_within_the_budget(monkeypatch):
    # n = 4: Omega^2 ^ Omega takes 16 n^4 C(4, 2)^2 bytes a tensor, so 64 tensors run in groups of 14
    from kahlerpinch import chern

    sizes, original = [], chern._unit_forms
    monkeypatch.setattr(chern, "_unit_forms", lambda tensors: sizes.append(len(tensors)) or original(tensors))
    tensors = _stack_of_tensors(4)
    table = chern._density_tables(_certified_stack(tensors))[0]
    assert sizes == [14, 14, 14, 14, 8]
    assert 14 * 16 * 4**4 * comb(4, 2) ** 2 <= chern._STACK_BYTES < 15 * 16 * 4**4 * comb(4, 2) ** 2
    assert len(table) == len(tensors)


def test_stacked_reality_check_raises_for_the_first_failing_tensor(space2):
    # R0 plus 3e-11 (6e-11) times a normal table is certified, but its c_1 is not real
    from kahlerpinch import chern, check_kahler

    entries = complex_hyperbolic_tensor(space2).entries
    bad = [
        CurvatureTensor(space2, entries + size * seeded_rng(seed).standard_normal(entries.shape))
        for size, seed in ((3e-11, 1), (6e-11, 2))
    ]
    messages = []
    for tensor in bad:
        assert check_kahler(tensor).passed
        with pytest.raises(PreconditionError, match="imaginary residue") as one:
            chern_forms(tensor)
        messages.append(str(one.value))
    assert messages[0] != messages[1]
    good = random_kahler(space2, seed=3)
    for stack, first in (([good, bad[0], bad[1]], 0), ([bad[1], good, bad[0]], 1)):
        with pytest.raises(PreconditionError) as stacked:
            chern._density_tables(_certified_stack(stack))
        assert str(stacked.value) == messages[first]
