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
    {u, Ju, v, Jv} is orthonormal (needs n >= 2)."""
    if constraint not in ("none", "v_perp_ju"):
        raise ValueError(f"unknown constraint {constraint!r}")
    if constraint == "v_perp_ju" and space.n < 2:
        raise InvalidDimensionError("constraint v_perp_ju needs complex dimension >= 2")
    rng = seeded_rng(seed)
    u = _unit_gaussian(rng, space.dim)
    ju = space.j(u)
    while True:
        w = rng.standard_normal(space.dim)
        w = w - np.dot(w, u) * u
        if constraint == "v_perp_ju":
            w = w - np.dot(w, ju) * ju
        norm = np.linalg.norm(w)
        if norm > 1e-8:
            return u, w / norm


def _unit_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            return v / norm
