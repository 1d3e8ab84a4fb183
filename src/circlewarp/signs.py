"""Sign selection against rows of decaying kernel functionals.

Given a matrix v[k, j] whose rows decay away from the diagonal, the task is
to pick signs eps_k in {+1, -1} keeping every row sum

    max_j | sum_k eps_k * v[k, j] |

small. Independent random signs let the maximum creep up with the matrix
size; the hierarchical solver keeps it flat by optimizing small blocks
exhaustively and then re-balancing whole blocks against each other, one
merge level at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import circ_dist
from .rng import tagged_generator

__all__ = [
    "SignMatrix",
    "SignVector",
    "build_synthetic_matrix",
    "solve_iid",
    "solve_hierarchical",
    "solve_bruteforce",
    "row_discrepancy",
]

_BRUTE_LIMIT = 22
_EXHAUSTIVE_LIMIT = 12


@dataclass(frozen=True, eq=False)
class SignMatrix:
    """Dense functional matrix with labeled rows.

    values has shape (n_rows, n_cols); row k of the transpose is the effect
    vector of column k. row_ids labels rows either by an integer j or by a
    pair (degree, j). decay_cert, when present, certifies
    max |v[k, j]| * (dist(k, j) + 1) over the full matrix.
    """

    values: np.ndarray
    row_ids: tuple
    dist: str = "circular"
    decay_cert: float | None = None

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValueError("values must be a 2-d array")
        if len(self.row_ids) != arr.shape[0]:
            raise ValueError("one row id per row required")
        if self.dist not in ("circular", "linear"):
            raise ValueError("dist must be 'circular' or 'linear'")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "row_ids", tuple(self.row_ids))

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def verify_decay(self) -> float:
        """Measured constant max |v| * (dist + 1) for square integer-labeled
        matrices; the certificate stored at build time comes from this scan."""
        n = self.n_cols
        ks = np.arange(n)
        js = np.array(
            [rid[-1] if isinstance(rid, tuple) else rid for rid in self.row_ids], dtype=np.int64
        )
        cert = 0.0
        # rows in blocks of about 2**16 entries: the temporaries stay in
        # cache, and no n x n temporary is built
        rows = max(1, (1 << 16) // max(n, 1))
        for start in range(0, js.size, rows):
            j = js[start : start + rows, None]
            if self.dist == "circular":
                d = circ_dist(ks, j, n)
            else:
                d = np.abs(ks - j)
            cert = max(cert, float(np.max(np.abs(self.values[start : start + rows]) * (d + 1))))
        return cert


@dataclass(frozen=True, eq=False)
class SignVector:
    eps: np.ndarray

    def __post_init__(self):
        arr = np.array(self.eps, dtype=np.int8)
        if arr.ndim != 1 or not np.all(np.abs(arr) == 1):
            raise ValueError("signs must be a 1-d array of +-1")
        arr.setflags(write=False)
        object.__setattr__(self, "eps", arr)


def build_synthetic_matrix(
    n: int, profile: str = "exact_decay", seed: int = 0, dist: str = "circular"
) -> SignMatrix:
    """Square test matrices: magnitudes 1 / (dist(k, j) + 1), optionally with
    seeded random signs ('random_signs_decay')."""
    ks, js = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    if dist == "circular":
        d = circ_dist(ks, js, n)
    elif dist == "linear":
        d = np.abs(ks - js)
    else:
        raise ValueError("dist must be 'circular' or 'linear'")
    mags = 1.0 / (d + 1.0)
    if profile == "exact_decay":
        vals = mags
    elif profile == "random_signs_decay":
        gen = tagged_generator(seed, 0x51, n)
        signs = gen.integers(0, 2, size=(n, n)) * 2 - 1
        vals = mags * signs
    else:
        raise ValueError(f"unknown profile {profile!r}")
    # rows are indexed by j: row j holds v[k, j] over k
    rows = vals.T
    mat = SignMatrix(rows, tuple(range(n)), dist, None)
    return SignMatrix(rows, tuple(range(n)), dist, mat.verify_decay())


def row_discrepancy(v: SignMatrix, eps: SignVector) -> float:
    """max_j | sum_k eps_k v[k, j] |."""
    if eps.eps.shape[0] != v.n_cols:
        raise ValueError("sign vector length must match the column count")
    sums = v.values @ eps.eps.astype(float)
    return float(np.max(np.abs(sums))) if sums.size else 0.0


def solve_iid(v: SignMatrix, seed: int = 0) -> SignVector:
    """Independent fair signs; the baseline the hierarchical solver beats."""
    gen = tagged_generator(seed, 0x11D)
    eps = gen.integers(0, 2, size=v.n_cols) * 2 - 1
    return SignVector(eps.astype(np.int8))


# --- candidate scoring -------------------------------------------------------
#
# Block searches rank candidates by the potential
#
#     Phi(s) = max_j |s_j| / sigma + lam * sum_j (cosh(s_j / sigma) - 1),
#
# where s is the row-sum vector of the candidate and sigma = max |v| of the
# whole matrix. Dividing by sigma makes the ranking scale-free, so scaling
# the matrix scales the achieved discrepancy exactly. The cosh term spreads
# pressure over all rows instead of only the current worst one.


def _score(sums: np.ndarray, sigma: float, lam: float) -> np.ndarray:
    z = np.abs(sums) / sigma
    z = np.minimum(z, 700.0)  # overflow guard; ranking beyond is driven by max
    return z.max(axis=-1) + lam * (np.cosh(z) - 1.0).sum(axis=-1)


def _exhaustive_signs(b: int) -> np.ndarray:
    """All 2^b sign vectors of length b, lexicographic (+1 before -1)."""
    masks = np.arange(1 << b, dtype=np.uint32)
    bits = (masks[:, None] >> np.arange(b - 1, -1, -1, dtype=np.uint32)[None, :]) & 1
    return (1 - 2 * bits.astype(np.int8))


def _block_candidates(b: int, retries: int, gen) -> np.ndarray:
    if b <= _EXHAUSTIVE_LIMIT:
        return _exhaustive_signs(b)
    return (gen.integers(0, 2, size=(retries, b)) * 2 - 1).astype(np.int8)


def _best_candidate(
    cols: np.ndarray, base: np.ndarray, sigma: float, lam: float, retries: int, gen
) -> np.ndarray:
    """cols: (n_rows, b) signed column vectors; base: row sums already
    committed by earlier choices. Returns the +-1 vector minimizing the
    potential of base + cols @ eps."""
    b = cols.shape[1]
    cands = _block_candidates(b, retries, gen)
    sums = cands.astype(float) @ cols.T + base[None, :]  # (n_cand, n_rows)
    scores = _score(sums, sigma, lam)
    return cands[int(np.argmin(scores))]


def solve_hierarchical(
    v: SignMatrix,
    block: int = 8,
    retries: int = 64,
    seed: int = 0,
    lam: float = 0.5,
) -> SignVector:
    """Block-exhaustive signs, then level-by-level re-orientation of blocks.

    Level 0 partitions the columns into runs of `block` consecutive columns
    and picks each run's signs by potential (exhaustively when the run has at
    most 12 columns, otherwise `retries` seeded random candidates), scored
    against the row sums already committed by the runs to its left. Each
    merge level then groups `block` adjacent runs and re-randomizes only
    their relative orientation, i.e. one global flip per run, again scored
    against everything outside the group, until a single run remains.
    Deterministic given (seed, matrix, knobs); with the default block size
    every search is exhaustive and the seed is inert.
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    n = v.n_cols
    if n == 0:
        return SignVector(np.empty(0, dtype=np.int8))
    a = v.values
    sigma = float(np.max(np.abs(a)))
    if sigma == 0.0:
        return SignVector(np.ones(n, dtype=np.int8))
    gen = tagged_generator(seed, 0x31E7)

    eps = np.ones(n, dtype=np.int8)
    acc = np.zeros(a.shape[0])  # committed row sums
    groups = []  # (column indices, aggregated row vector)
    for lo in range(0, n, block):
        cols_idx = np.arange(lo, min(lo + block, n))
        sub = a[:, cols_idx]
        choice = _best_candidate(sub, acc, sigma, lam, retries, gen)
        eps[cols_idx] = choice
        vec = sub @ choice.astype(float)
        acc = acc + vec
        groups.append((cols_idx, vec))

    while len(groups) > 1:
        merged = []
        for lo in range(0, len(groups), block):
            chunk = groups[lo : lo + block]
            if len(chunk) == 1:
                merged.append(chunk[0])
                continue
            g = np.column_stack([vec for _, vec in chunk])
            base = acc - g.sum(axis=1)
            flips = _best_candidate(g, base, sigma, lam, retries, gen)
            for (cols_idx, _), s in zip(chunk, flips):
                if s < 0:
                    eps[cols_idx] = -eps[cols_idx]
            idx = np.concatenate([c for c, _ in chunk])
            vec = g @ flips.astype(float)
            acc = base + vec
            merged.append((idx, vec))
        groups = merged
    return SignVector(eps)


def solve_bruteforce(v: SignMatrix) -> tuple[SignVector, float]:
    """Exact minimizer of the row discrepancy, n_cols <= 22.

    Enumerates sign vectors in lexicographic order with +1 before -1 and
    keeps the first strict optimum, so ties resolve deterministically.
    """
    n = v.n_cols
    if n > _BRUTE_LIMIT:
        raise ValueError(f"brute force capped at {_BRUTE_LIMIT} columns")
    if n == 0:
        return SignVector(np.empty(0, dtype=np.int8)), 0.0
    a = v.values
    best_val = np.inf
    best = None
    chunk = 1 << min(n, 14)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    for start in range(0, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint32)
        bits = (masks[:, None] >> shifts[None, :]) & 1
        cands = (1 - 2 * bits.astype(np.int8)).astype(float)
        disc = np.max(np.abs(cands @ a.T), axis=1) if a.shape[0] else np.zeros(len(masks))
        i = int(np.argmin(disc))
        if disc[i] < best_val:
            best_val = float(disc[i])
            best = cands[i].astype(np.int8)
    return SignVector(best), best_val
