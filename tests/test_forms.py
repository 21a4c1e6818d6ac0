from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest

from kahlerpinch import make_space, seeded_rng
from kahlerpinch.errors import DegreeError, SpaceMismatchError
from real_forms import basis_form, kahler_form, power, top_coefficient, wedge


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
