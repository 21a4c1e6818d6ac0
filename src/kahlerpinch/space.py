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


# Batches of at least this many rows are seeded by the stacked hash below, smaller
# ones row by row through numpy. The stacked pass costs about as much as 7 numpy
# SeedSequences (60 us against 8.5 us each, 2-core x86-64, numpy 2.4) and broke
# even at about 8 sample seeds and 10 generators; the cutoff keeps small sweep
# calls, such as 5 sizes of 2 samples (10 seeds, 8 tables), row by row.
STACKED_SEEDING_ROWS = 16

# numpy's SeedSequence hash and PCG64 seeding, which numpy keeps fixed across
# versions (NEP 19): the constants of mix_entropy and generate_state on its
# default pool of 4 uint32 words, and PCG64's 128-bit LCG multiplier
_POOL = 4
_XSHIFT = 16
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The (xor, multiply) constants of `count` successive hashmix steps as a
    (2, count, 1) uint32 array: step k xors with h_k and multiplies by
    h_{k+1}, where h_0 = init and h_{k+1} = h_k mult mod 2^32."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult % (1 << 32))
    return np.array([chain[:-1], chain[1:]], dtype=np.uint32)[..., None]


# mix_entropy's steps: one per pool word, then a round per word `src`, which
# hashes it into each other word with 3 steps; a round runs on all 4 lanes,
# with zero constants in lane src, whose result is discarded
_ENTROPY_STEPS = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL + _POOL * (_POOL - 1))
_ROUNDS = [
    np.insert(_ENTROPY_STEPS[:, _POOL + 3 * src : _POOL + 3 * src + 3], src, 0, axis=1) for src in range(_POOL)
]
# generate_state's steps, reading the pool words in turn: 8 words seed a PCG64
_STATE_STEPS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(values: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of a (k, S) uint32 array with its
    step's constants. Array products wrap mod 2^32 silently, as the C
    uint32s do (numpy's uint32 scalars would warn)."""
    values = (values ^ steps[0]) * steps[1]
    return values ^ (values >> _XSHIFT)


def _entropy_words(rows) -> np.ndarray | None:
    """The uint32 entropy words of rows of Python ints, zero-padded to 4 per row
    and transposed to (4, S); None when a row has more than 4 words.

    SeedSequence reads each int as its words, little-endian, and 0 as one word
    0; its first mixing loop hashes a missing word as a 0, so the padding
    changes nothing. Each int is taken modulo 2^64 as seeded_rng takes it.
    """
    try:
        parts = np.array(rows, dtype=np.uint64)
    except OverflowError:  # a negative int, or one past 2^64
        parts = (np.array(rows, dtype=object) % (1 << 64)).astype(np.uint64)
    low, high = parts & 0xFFFFFFFF, parts >> 32
    wide = high != 0
    ends = np.cumsum(1 + wide, axis=1)  # one past each int's last word
    if ends[:, -1].max() > _POOL:
        return None
    words = np.zeros((len(rows), _POOL), dtype=np.uint32)
    index = np.arange(len(rows))[:, None]
    words[index, ends - 1] = high  # 0 in a one-word int's own place, written again below
    words[index, ends - 1 - wide] = low
    return words.T


def _pool(words: np.ndarray) -> np.ndarray:
    """SeedSequence(row).pool of each column of (4, S) entropy words, as (4, S) uint32."""
    pool = _hashmix(words, _ENTROPY_STEPS[:, :_POOL])
    for src, steps in enumerate(_ROUNDS):
        mixed = pool * _MIX_MULT_L - _hashmix(pool[src], steps) * _MIX_MULT_R
        mixed = mixed ^ (mixed >> _XSHIFT)
        mixed[src] = pool[src]
        pool = mixed
    return pool


def _state_words(rows, count: int) -> np.ndarray | None:
    """SeedSequence(row).generate_state(count) of each row as the columns of a
    (count, S) uint32 array, from one stacked hash; None when a row has more
    than 4 words."""
    words = _entropy_words(rows)
    if words is None:
        return None
    return _hashmix(_pool(words)[np.arange(count) % _POOL], _STATE_STEPS[:, :count])


def _sample_seeds(rows) -> list[int]:
    """int(SeedSequence(row).generate_state(1)[0]) of each row of Python ints,
    each int taken modulo 2^64: one stacked hash for a batch of at least
    STACKED_SEEDING_ROWS rows of at most 4 words, else numpy's SeedSequence
    row by row."""
    words = _state_words(rows, 1) if len(rows) >= STACKED_SEEDING_ROWS else None
    if words is None:
        return [
            int(np.random.SeedSequence([int(part) % (1 << 64) for part in row]).generate_state(1)[0])
            for row in rows
        ]
    return words[0].tolist()


def _pcg64_states(seeds) -> list[tuple[int, int]]:
    """The (state, inc) of PCG64(SeedSequence([seed mod 2^64])) for each seed,
    from one stacked hash (a seed has at most 2 words).

    PCG64 reads generate_state(4, np.uint64) as the 128-bit initstate and
    initseq, high word first, and pcg64_set_seed sets inc = 2 initseq + 1
    and state = ((inc + initstate) mult + inc) mod 2^128.
    """
    words = _state_words([(int(seed),) for seed in seeds], 8).astype(np.uint64)
    states = []
    for high, low, seq_high, seq_low in (words[0::2] | words[1::2] << 32).T.tolist():
        inc = ((seq_high << 64 | seq_low) << 1 | 1) % (1 << 128)
        states.append(((((high << 64 | low) + inc) * _PCG64_MULT + inc) % (1 << 128), inc))
    return states


def _seeded_normals(seeds, out: np.ndarray) -> None:
    """Fill each out[i] with seeded_rng(seeds[i]).standard_normal(out[i].shape),
    bit for bit; each out[i] is C-contiguous.

    At least STACKED_SEEDING_ROWS seeds are seeded from one stacked hash: row
    0's own generator draws row 0, then its bit generator is set to each
    other row's PCG64 state in turn and draws that row. Fewer seeds go
    through seeded_rng one at a time.
    """
    if len(seeds) < STACKED_SEEDING_ROWS:
        for seed, row in zip(seeds, out):
            seeded_rng(seed).standard_normal(out=row)
        return
    rng = seeded_rng(seeds[0])
    rng.standard_normal(out=out[0])
    for (state, inc), row in zip(_pcg64_states(seeds[1:]), out[1:]):
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        rng.standard_normal(out=row)


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

    Each row holds the first 2d normals of seeded_rng(seed), the stream values
    that u and w read d at a time, all drawn by one _seeded_normals call.
    Every dot and norm is a stacked (S, 1, d) @ (S, d, 1) matmul, a BLAS ddot
    per row as np.dot and np.linalg.norm take on a 1-D vector, so each row
    equals its one-seed draw bit for bit; einsum and add.reduce sum in
    another order and do not. J is a signed permutation, so u @ J^T is exact.
    A row that a norm rejects draws again from a fresh seeded_rng(seed)
    advanced past those 2d normals, as one seed at a time would.
    """
    if constraint not in ("none", "v_perp_ju"):
        raise ValueError(f"unknown constraint {constraint!r}")
    if constraint == "v_perp_ju" and space.n < 2:
        raise InvalidDimensionError("constraint v_perp_ju needs complex dimension >= 2")
    d = space.dim
    draws = np.empty((len(seeds), 2 * d))
    _seeded_normals(seeds, draws)
    u, w = draws[:, :d], draws[:, d:]
    streams = {}  # a rejected row's generator, past the 2d normals drawn above

    def next_normals(rows):
        for i in rows.tolist():
            if i not in streams:
                streams[i] = seeded_rng(seeds[i])
                streams[i].standard_normal(2 * d)
        return np.array([streams[i].standard_normal(d) for i in rows.tolist()])

    norm = _norms(u)
    redraw = np.flatnonzero(norm <= 1e-8)
    while redraw.size:  # a rejected u takes w's d normals, and w the next d
        u[redraw] = w[redraw]
        w[redraw] = next_normals(redraw)
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
        w[redraw] = projected(next_normals(redraw), redraw)
        norm[redraw] = _norms(w[redraw])
        redraw = redraw[norm[redraw] <= 1e-8]
    return u, w / norm[:, None]


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row dots of an (S, d) array with an (S, d) array or one (d,) row taken
    against every row, each the BLAS ddot of np.dot on its 1-D rows."""
    return (x[:, None, :] @ y[..., :, None])[:, 0, 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """Row norms of an (S, d) array, each np.linalg.norm's of its 1-D row."""
    return np.sqrt(_dots(x, x))
