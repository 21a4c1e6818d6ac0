import numpy as np
import pytest

from kahlerpinch import make_space, random_orthonormal_pair, random_unitary_frame, seeded_rng
from kahlerpinch.errors import InvalidDimensionError


def test_j_squared_is_minus_identity_exactly():
    for n in (1, 2, 3, 4):
        space = make_space(n)
        assert np.array_equal(space.j_matrix @ space.j_matrix, -np.eye(space.dim))


def test_j_convention_on_basis():
    space = make_space(1)
    assert np.array_equal(space.j_matrix, np.array([[0.0, -1.0], [1.0, 0.0]]))
    space = make_space(3)
    for a in range(3):
        e_odd = space.basis_vector(2 * a)
        e_even = space.basis_vector(2 * a + 1)
        assert np.array_equal(space.j(e_odd), e_even)
        assert np.array_equal(space.j(e_even), -e_odd)


def test_j_is_orthogonal_on_basis_pairs():
    space = make_space(2)
    for i in range(space.dim):
        for j in range(space.dim):
            lhs = space.inner(space.j(space.basis_vector(i)), space.j(space.basis_vector(j)))
            assert abs(lhs - space.metric[i, j]) < 1e-14


def test_j_orthogonality_on_random_samples():
    space = make_space(3)
    rng = seeded_rng(12)
    for _ in range(200):
        v = rng.standard_normal(space.dim)
        w = rng.standard_normal(space.dim)
        assert abs(space.inner(space.j(v), space.j(w)) - space.inner(v, w)) < 1e-14 * (
            1 + abs(space.inner(v, w))
        )


def test_invalid_dimension_rejected():
    for bad in (0, -1, -7):
        with pytest.raises(InvalidDimensionError):
            make_space(bad)
    with pytest.raises(InvalidDimensionError):
        make_space(2.5)


def test_omega_sign_convention():
    # omega(u, v) = <u, Jv> together with J e_{2a-1} = e_{2a} forces
    # omega(e_{2a-1}, e_{2a}) = -1
    for n in (1, 2, 3):
        space = make_space(n)
        for a in range(n):
            val = space.omega(space.basis_vector(2 * a), space.basis_vector(2 * a + 1))
            assert val == -1.0


def test_omega_antisymmetry_and_j_invariance():
    space = make_space(3)
    rng = seeded_rng(77)
    for _ in range(200):
        v = rng.standard_normal(space.dim)
        w = rng.standard_normal(space.dim)
        scale = 1 + abs(space.omega(v, w))
        assert abs(space.omega(v, w) + space.omega(w, v)) < 1e-14 * scale
        assert abs(space.omega(space.j(v), space.j(w)) - space.omega(v, w)) < 1e-14 * scale


def test_unitary_frame_gram():
    for n in (1, 2, 3):
        space = make_space(n)
        frame = random_unitary_frame(space, seed=5)
        assert len(frame) == n
        cols = []
        for f in frame:
            cols.append(f)
            cols.append(space.j(f))
        gram = np.column_stack(cols).T @ np.column_stack(cols)
        assert np.max(np.abs(gram - np.eye(space.dim))) < 1e-12


def test_unitary_frame_determinism():
    space = make_space(2)
    first = random_unitary_frame(space, seed=9)
    second = random_unitary_frame(space, seed=9)
    for f, g in zip(first, second):
        assert np.array_equal(f, g)
    other = random_unitary_frame(space, seed=10)
    assert any(not np.array_equal(f, g) for f, g in zip(first, other))


def test_unitary_frame_n1_is_unit_vector():
    space = make_space(1)
    frame = random_unitary_frame(space, seed=3)
    assert len(frame) == 1
    assert abs(np.linalg.norm(frame[0]) - 1.0) < 1e-12


def test_orthonormal_pair_constrained_gram():
    space = make_space(2)
    u, v = random_orthonormal_pair(space, seed=11, constraint="v_perp_ju")
    vectors = np.column_stack([u, space.j(u), v, space.j(v)])
    assert np.max(np.abs(vectors.T @ vectors - np.eye(4))) < 1e-12


def test_orthonormal_pair_n1_forces_v_to_ju():
    space = make_space(1)
    u, v = random_orthonormal_pair(space, seed=2, constraint="none")
    assert abs(abs(np.dot(v, space.j(u))) - 1.0) < 1e-12


def test_orthonormal_pair_constraint_needs_n2():
    space = make_space(1)
    with pytest.raises(InvalidDimensionError):
        random_orthonormal_pair(space, seed=1, constraint="v_perp_ju")


def test_orthonormal_pair_determinism():
    space = make_space(3)
    u1, v1 = random_orthonormal_pair(space, seed=8, constraint="v_perp_ju")
    u2, v2 = random_orthonormal_pair(space, seed=8, constraint="v_perp_ju")
    assert np.array_equal(u1, u2) and np.array_equal(v1, v2)


def test_seed_folding_keeps_negative_seeds_apart():
    # entropy is taken modulo 2^64: -1 is 2^64 - 1, not 2^63 - 1
    assert not np.array_equal(seeded_rng(-1).random(4), seeded_rng(2**63 - 1).random(4))
    assert np.array_equal(seeded_rng(-1).random(4), seeded_rng(2**64 - 1).random(4))
    assert np.array_equal(seeded_rng(5, 7).random(4), seeded_rng(5 + 2**64, 7).random(4))


@pytest.mark.parametrize("n", range(1, 7))
def test_dots_against_one_row_are_np_dot(n):
    # space._dots with one (d,) row broadcast against every row is np.dot of each
    # row with it bit for bit, at the d^4 entries of a curvature table (16 to 20736)
    from kahlerpinch.space import _dots

    size = (2 * n) ** 4
    rng = seeded_rng(n, 3)
    rows, row = rng.standard_normal((9, size)), rng.standard_normal(size)
    assert _dots(rows, row).tobytes() == np.array([np.dot(x, row) for x in rows]).tobytes()
    assert _dots(rows, rows).tobytes() == np.array([np.dot(x, x) for x in rows]).tobytes()


# numpy's SeedSequence and PCG64 seeding are the oracle of the stacked seeding:
# seeds at every word boundary of the modulo-2^64 fold, in batches on both
# sides of the cutoff, with rows of one and of two words mixed in one batch
_SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1, -1, -(2**63)]


def _batches():
    from kahlerpinch.space import STACKED_SEEDING_ROWS

    return [1, STACKED_SEEDING_ROWS - 1, STACKED_SEEDING_ROWS, 3 * STACKED_SEEDING_ROWS]


def _numpy_sample_seed(row):
    return int(np.random.SeedSequence([part % 2**64 for part in row]).generate_state(1)[0])


@pytest.mark.parametrize("batch", _batches())
@pytest.mark.parametrize("stream", [0, 1, 2])
def test_sample_seeds_equal_numpy_seed_sequences(stream, batch):
    from kahlerpinch.space import _sample_seeds

    mixed = [(_SEED_EDGES[k % len(_SEED_EDGES)], stream, k) for k in range(batch)]
    for rows in [[(seed, stream, sample) for sample in range(batch)] for seed in _SEED_EDGES] + [mixed]:
        seeds = _sample_seeds(rows)
        assert all(type(seed) is int for seed in seeds)
        assert seeds == [_numpy_sample_seed(row) for row in rows], rows[0]


def test_sample_seeds_of_rows_past_four_words_equal_numpy():
    # the stacked hash zero-pads rows to SeedSequence's 4 pool words; a longer
    # row goes through numpy's SeedSequence
    from kahlerpinch.space import STACKED_SEEDING_ROWS, _sample_seeds

    rows = [(2**64 - 1, 2**32 + k, 1) for k in range(STACKED_SEEDING_ROWS)]
    rows[3:5] = [(1, 2, 3)] * 2
    assert _sample_seeds(rows) == [_numpy_sample_seed(row) for row in rows]


@pytest.mark.parametrize("batch", [1, len(_SEED_EDGES)])
def test_stacked_pcg64_states_equal_numpy(batch):
    from kahlerpinch.space import _pcg64_states

    seeds = _SEED_EDGES[:batch]
    for seed, (state, inc) in zip(seeds, _pcg64_states(seeds)):
        expected = np.random.PCG64(np.random.SeedSequence([seed % 2**64])).state
        assert expected["state"] == {"state": state, "inc": inc}, seed


@pytest.mark.parametrize("batch", _batches())
def test_seeded_normals_equal_each_seeds_generator(batch):
    from kahlerpinch.space import _seeded_normals

    seeds = (_SEED_EDGES + list(range(100, 100 + batch)))[:batch]
    out = np.empty((batch, 3, 5))
    _seeded_normals(seeds, out)
    for seed, row in zip(seeds, out):
        assert row.tobytes() == seeded_rng(seed).standard_normal((3, 5)).tobytes(), seed
