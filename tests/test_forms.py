import ast
from itertools import combinations, permutations
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest

from kahlerpinch import make_space, seeded_rng
from kahlerpinch.chern import _balanced
from kahlerpinch.errors import DegreeError, SpaceMismatchError
from kahlerpinch.forms import _shuffle, _wedge
from real_forms import basis_form, kahler_form, power, to_real, top_coefficient, wedge


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _mask(combo):
    return sum(1 << i for i in combo)


def _combos(dim, degree):
    return list(combinations(range(dim), degree))


def evaluate(form, degree, vectors):
    """Independent evaluation of the degree part of a form: sum of coefficient * minor."""
    if degree == 0:
        return float(form[0])
    v = np.column_stack(vectors)
    dim = v.shape[0]
    return sum(form[_mask(rows)] * np.linalg.det(v[list(rows), :]) for rows in _combos(dim, degree))


def wedge_eval_bruteforce(f, p, g, q, vectors):
    """Independent oracle: shuffle-free full antisymmetrization divided by p! q!."""
    total = 0.0
    for perm in permutations(range(p + q)):
        total += (
            _perm_sign(perm)
            * evaluate(f, p, [vectors[i] for i in perm[:p]])
            * evaluate(g, q, [vectors[i] for i in perm[p:]])
        )
    return total / (factorial(p) * factorial(q))


def _random_form(space, degree, rng):
    f = np.zeros(1 << space.dim)
    for combo in _combos(space.dim, degree):
        f[_mask(combo)] = rng.standard_normal()
    return f


def test_basis_duality():
    space = make_space(2)
    e12 = wedge(basis_form(space, (0,)), basis_form(space, (1,)))
    assert evaluate(e12, 2, [space.basis_vector(0), space.basis_vector(1)]) == 1.0


def test_odd_degree_square_vanishes():
    space = make_space(3)
    rng = seeded_rng(4)
    for degree in (1, 3):
        f = _random_form(space, degree, rng)
        assert np.max(np.abs(wedge(f, f))) < 1e-14


def test_graded_anticommutativity():
    space = make_space(3)
    rng = seeded_rng(5)
    for p, q in ((1, 1), (1, 2), (2, 2), (2, 3), (1, 4)):
        f = _random_form(space, p, rng)
        g = _random_form(space, q, rng)
        lhs = wedge(f, g)
        rhs = wedge(g, f) * ((-1.0) ** (p * q))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_omega_wedge_omega_against_bruteforce_oracle():
    # frozen: at n=2 the top coefficient of omega^2 is 2 (two -1 blocks)
    space = make_space(2)
    omega = kahler_form(space)
    sq = wedge(omega, omega)
    assert sq[_mask((0, 1, 2, 3))] == pytest.approx(2.0, abs=1e-14)
    basis = [space.basis_vector(i) for i in range(4)]
    for combo in _combos(4, 4):
        vectors = [basis[i] for i in combo]
        direct = wedge_eval_bruteforce(omega, 2, omega, 2, vectors)
        assert abs(evaluate(sq, 4, vectors) - direct) < 1e-13


def test_wedge_matches_bruteforce_on_random_forms():
    rng = seeded_rng(6)
    for n in (1, 2, 3):
        space = make_space(n)
        for p, q in ((1, 1), (1, 2), (2, 2)):
            if p + q > space.dim:
                continue
            f = _random_form(space, p, rng)
            g = _random_form(space, q, rng)
            product = wedge(f, g)
            basis = [space.basis_vector(i) for i in range(space.dim)]
            for combo in _combos(space.dim, p + q):
                vectors = [basis[i] for i in combo]
                direct = wedge_eval_bruteforce(f, p, g, q, vectors)
                assert abs(evaluate(product, p + q, vectors) - direct) < 1e-12 * (1 + abs(direct))
            # the product is homogeneous: nothing outside degree p + q
            off_degree = [m for m in range(1 << space.dim) if m.bit_count() != p + q]
            assert np.all(product[off_degree] == 0.0)


def test_wedge_broadcasts_over_leading_axes():
    space = make_space(2)
    rng = seeded_rng(9)
    fs = np.array([_random_form(space, 1, rng) + 1j * _random_form(space, 2, rng) for _ in range(3)])
    g = _random_form(space, 2, rng) - 2j * _random_form(space, 1, rng)
    batched = wedge(fs[:, None], np.array([g, 2 * g])[None])
    assert batched.shape == (3, 2, 1 << space.dim)
    for a in range(3):
        assert np.max(np.abs(batched[a, 0] - wedge(fs[a], g))) < 1e-14
        assert np.max(np.abs(batched[a, 1] - 2 * wedge(fs[a], g))) < 1e-14


def test_associativity_on_random_forms():
    space = make_space(3)
    rng = seeded_rng(7)
    f = _random_form(space, 1, rng)
    g = _random_form(space, 2, rng)
    h = _random_form(space, 2, rng)
    lhs = wedge(wedge(f, g), h)
    rhs = wedge(f, wedge(g, h))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_wedge_degree_overflow():
    # forms carry no degree: a product above the top degree is the zero form
    space = make_space(1)
    f = _random_form(space, 2, seeded_rng(1))
    assert np.all(wedge(f, f) == 0.0)
    with pytest.raises(SpaceMismatchError):
        wedge(f, kahler_form(make_space(2)))


def test_power_identity_and_nondegeneracy():
    for n in (1, 2, 3):
        space = make_space(n)
        omega = kahler_form(space)
        assert np.max(np.abs(power(omega, 1) - omega)) == 0.0
        assert np.max(np.abs(power(omega, n))) > 0.0
        assert np.all(power(omega, n + 1) == 0.0)
    with pytest.raises(DegreeError):
        power(omega, -1)


def test_power_zero_is_constant_one():
    space = make_space(2)
    f = power(kahler_form(space), 0)
    assert f[0] == 1.0 and np.all(f[1:] == 0.0)


def test_top_coefficient_normalization():
    for n in (1, 2, 3):
        space = make_space(n)
        omega_n = power(kahler_form(space), n)
        assert top_coefficient(omega_n) == pytest.approx(1.0, abs=1e-14)
        assert top_coefficient(np.zeros(1 << space.dim)) == 0.0
        assert top_coefficient(2.5 * omega_n) == pytest.approx(2.5, abs=1e-13)


def test_top_coefficient_wrong_degree():
    # a form of lower degree has no top-degree part
    space = make_space(2)
    assert top_coefficient(kahler_form(space)) == 0.0
    with pytest.raises(SpaceMismatchError):
        top_coefficient(np.ones(8))


def test_ratio_invariant_under_reference_rescaling():
    # densities are quotients, so replacing omega^n by c * omega^n cancels
    space = make_space(2)
    rng = seeded_rng(8)
    f = _random_form(space, space.dim, rng)
    g = _random_form(space, space.dim, rng)
    reference = power(kahler_form(space), space.n)
    for c in (0.5, 2.0, -3.0):
        scaled = c * reference
        num = f[-1] / scaled[-1]
        den = g[-1] / scaled[-1]
        assert num / den == pytest.approx(
            top_coefficient(f) / top_coefficient(g), rel=1e-12
        )


def test_kahler_form_coefficients():
    space = make_space(2)
    omega = kahler_form(space)
    assert omega[_mask((0, 1))] == -1.0
    assert omega[_mask((2, 3))] == -1.0
    assert omega[_mask((0, 2))] == 0.0


# ---------------------------------------------------------------------------
# the package's (p, p) matrix algebra, against the real algebra above
# ---------------------------------------------------------------------------


def _random_pp(n, p, rng):
    size = comb(n, p)
    return rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))


def _real(n, p, form):
    """A (p, p) matrix as a form in the real basis, through the masks of `chern`."""
    algebra = _balanced(n)
    on_masks = np.zeros(algebra.masks.size, dtype=complex)
    on_masks[algebra.place[p]] = algebra.sign[p] * form
    return on_masks @ to_real(n)


def test_matrix_wedge_matches_the_real_algebra_oracle():
    rng = seeded_rng(24)
    for n in (1, 2, 3, 4):
        for p in range(n + 1):
            for q in range(n - p + 1):
                a, b = _random_pp(n, p, rng), _random_pp(n, q, rng)
                e = _shuffle(n, p, q)
                assert e.shape == (comb(n, p + q), comb(n, p) * comb(n, q))
                product = _wedge(e, a, b)
                assert product.shape == (comb(n, p + q),) * 2
                expected = wedge(_real(n, p, a), _real(n, q, b))
                got = _real(n, p + q, product)
                assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected))), (n, p, q)


def test_matrix_wedge_is_associative_and_commutative():
    rng = seeded_rng(25)
    n = 4
    for p, q, r in ((1, 1, 1), (1, 2, 1), (2, 1, 1), (0, 2, 2), (1, 1, 2)):
        a, b, c = _random_pp(n, p, rng), _random_pp(n, q, rng), _random_pp(n, r, rng)
        ab = _wedge(_shuffle(n, p, q), a, b)
        assert np.max(np.abs(ab - _wedge(_shuffle(n, q, p), b, a))) < 1e-12
        left = _wedge(_shuffle(n, p + q, r), ab, c)
        right = _wedge(_shuffle(n, p, q + r), a, _wedge(_shuffle(n, q, r), b, c))
        assert np.max(np.abs(left - right)) < 1e-12


def test_matrix_wedge_contracts_a_matrix_product_of_forms():
    # (M Omega)_ac = sum_b M_ab ^ Omega_bc, the power step of the Chern forms
    rng = seeded_rng(26)
    n, p = 3, 2
    m = np.array([[_random_pp(n, p, rng) for _ in range(n)] for _ in range(n)])
    omega = np.array([[_random_pp(n, 1, rng) for _ in range(n)] for _ in range(n)])
    e = _shuffle(n, p, 1)
    product = _wedge(e, m, omega, "abij,bckl->acikjl")
    expected = sum(_wedge(e, m[:, b, None], omega[b]) for b in range(n))
    assert np.max(np.abs(product - expected)) < 1e-12


def test_real_algebra_oracle_imports_nothing_from_forms():
    # the densities oracle must not share product code with the package it checks
    tree = ast.parse((Path(__file__).parent / "real_forms.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("kahlerpinch.forms") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("kahlerpinch.forms")
            if node.module == "kahlerpinch":
                assert "forms" not in {alias.name for alias in node.names}
