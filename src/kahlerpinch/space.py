"""The model Hermitian vector space (R^{2n}, J, <.,.>) and seeded sampling utilities.

Conventions fixed here and inherited by every other module:

* standard basis e_1, ..., e_{2n} (0-based in code),
* J e_{2a-1} = e_{2a} and J e_{2a} = -e_{2a-1},
* the inner product is the identity matrix in the standard basis,
* the 2-form omega(u, v) = <u, J v>, which forces omega(e_{2a-1}, e_{2a}) = -1.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDimensionError

__all__ = [
    "HermitianSpace",
    "make_space",
    "random_unitary_frame",
    "random_orthonormal_pair",
    "seeded_rng",
]


def seeded_rng(*entropy: int) -> np.random.Generator:
    """Deterministic generator keyed by a tuple of integers.

    Each integer is taken modulo 2^64, the non-negative range accepted by
    ``SeedSequence``: seeds in [0, 2^64) keep their value, and the map is
    injective on signed and on unsigned 64-bit inputs.
    """
    parts = [int(e) % (1 << 64) for e in entropy]
    return np.random.default_rng(np.random.SeedSequence(parts))


class HermitianSpace:
    """R^{2n} with the standard inner product and orthogonal complex structure J."""

    __slots__ = ("n", "dim", "j_matrix", "metric")

    def __init__(self, n: int):
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise InvalidDimensionError(f"complex dimension must be a positive integer, got {n!r}")
        self.n = int(n)
        self.dim = 2 * self.n
        j = np.zeros((self.dim, self.dim))
        for a in range(self.n):
            j[2 * a + 1, 2 * a] = 1.0   # J e_{2a-1} = e_{2a}
            j[2 * a, 2 * a + 1] = -1.0  # J e_{2a}   = -e_{2a-1}
        j.flags.writeable = False
        self.j_matrix = j
        g = np.eye(self.dim)
        g.flags.writeable = False
        self.metric = g

    def j(self, v: np.ndarray) -> np.ndarray:
        return self.j_matrix @ v

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.dot(u, v))

    def omega(self, u: np.ndarray, v: np.ndarray) -> float:
        """Kahler 2-form omega(u, v) = <u, J v>."""
        return float(u @ self.j_matrix @ v)

    def basis_vector(self, i: int) -> np.ndarray:
        e = np.zeros(self.dim)
        e[i] = 1.0
        return e

    def __eq__(self, other) -> bool:
        return isinstance(other, HermitianSpace) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("HermitianSpace", self.n))

    def __repr__(self) -> str:
        return f"HermitianSpace(n={self.n})"


def make_space(n: int) -> HermitianSpace:
    """Standard model space of complex dimension n."""
    return HermitianSpace(n)


def random_unitary_frame(space: HermitianSpace, seed: int) -> list[np.ndarray]:
    """Seeded unitary frame: n real vectors f_a with {f_1, Jf_1, ..., f_n, Jf_n} orthonormal.

    Drawn Haar-uniformly by QR of a complex Gaussian matrix (with the usual
    phase fix so the draw is well defined), then realized as real vectors via
    the identification (x + iy) . f = x f + y Jf.
    """
    n = space.n
    rng = seeded_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    q = q * (diag / np.abs(diag))
    frame = []
    for b in range(n):
        f = np.zeros(space.dim)
        f[0::2] = q[:, b].real
        f[1::2] = q[:, b].imag
        frame.append(f)
    return frame


def random_orthonormal_pair(
    space: HermitianSpace, seed: int, constraint: str = "none"
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded orthonormal pair (u, v); with constraint "v_perp_ju" the set
    {u, Ju, v, Jv} is orthonormal (needs n >= 2).

    seeded_rng(seed) draws u and then w as standard normals, d = 2n at a time.
    A draw whose norm is <= 1e-8 is drawn again: u from the next d normals, w
    from the next d after it. v is w less its components along u (then along
    Ju), normalized. This is the batch of one of the stacked draw that
    identity_suite makes for all its samples, so every seed gives the same
    bits either way.
    """
    u, v = _orthonormal_pairs(space, [seed], constraint)
    return u[0], v[0]


def _orthonormal_pairs(space: HermitianSpace, seeds, constraint: str) -> tuple[np.ndarray, np.ndarray]:
    """random_orthonormal_pair of each seed as the rows of (S, d) arrays u and v.

    Each seed keeps its own generator and draws 2d normals in one call, the
    stream values that u and w read d at a time. Every dot and norm is a
    stacked (S, 1, d) @ (S, d, 1) matmul, a BLAS ddot per row as np.dot and
    np.linalg.norm take on a 1-D vector, so each row equals its one-seed draw
    bit for bit; einsum and add.reduce sum in another order and do not. J is
    a signed permutation, so u @ J^T is exact. The rows that a norm rejects
    draw again from their own generators.
    """
    if constraint not in ("none", "v_perp_ju"):
        raise ValueError(f"unknown constraint {constraint!r}")
    if constraint == "v_perp_ju" and space.n < 2:
        raise InvalidDimensionError("constraint v_perp_ju needs complex dimension >= 2")
    d = space.dim
    rngs = [seeded_rng(seed) for seed in seeds]
    draws = np.array([rng.standard_normal(2 * d) for rng in rngs])
    u, w = draws[:, :d], draws[:, d:]
    norm = _norms(u)
    redraw = np.flatnonzero(norm <= 1e-8)
    while redraw.size:  # a rejected u takes w's d normals, and w the next d
        u[redraw] = w[redraw]
        w[redraw] = [rngs[i].standard_normal(d) for i in redraw]
        norm[redraw] = _norms(u[redraw])
        redraw = redraw[norm[redraw] <= 1e-8]
    u = u / norm[:, None]
    ju = u @ space.j_matrix.T

    def projected(w, rows):
        w = w - _dots(w, u[rows])[:, None] * u[rows]
        if constraint == "v_perp_ju":
            w = w - _dots(w, ju[rows])[:, None] * ju[rows]
        return w

    w = projected(w, slice(None))
    norm = _norms(w)
    redraw = np.flatnonzero(norm <= 1e-8)
    while redraw.size:  # a rejected w is drawn again from the next d normals
        w[redraw] = projected(np.array([rngs[i].standard_normal(d) for i in redraw]), redraw)
        norm[redraw] = _norms(w[redraw])
        redraw = redraw[norm[redraw] <= 1e-8]
    return u, w / norm[:, None]


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row dots of (S, d) arrays, each the BLAS ddot of np.dot on its 1-D rows."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """Row norms of an (S, d) array, each np.linalg.norm's of its 1-D row."""
    return np.sqrt(_dots(x, x))
