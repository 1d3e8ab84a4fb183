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
    """Dense functional matrix, finite and read-only.

    values has shape (n_rows, n_cols); row k of the transpose is the effect
    vector of column k.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValueError("values must be a 2-d array")
        # min and max carry any NaN or infinity, with no full-size temporary
        if not (np.isfinite(arr.min(initial=0.0)) and np.isfinite(arr.max(initial=0.0))):
            raise ValueError("values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]


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
    if dist not in ("circular", "linear"):
        raise ValueError("dist must be 'circular' or 'linear'")
    if profile == "random_signs_decay":
        signs = tagged_generator(seed, 0x51, n).integers(0, 2, size=(n, n))
    elif profile != "exact_decay":
        raise ValueError(f"unknown profile {profile!r}")
    # vals[k, j] = v[k, j], filled in row blocks of about 2**16 entries: the
    # temporaries stay in cache, and no n x n temporary is built
    vals = np.empty((n, n))
    ks = np.arange(n)
    rows = max(1, (1 << 16) // max(n, 1))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        j = ks[block, None]
        d = circ_dist(ks, j, n) if dist == "circular" else np.abs(ks - j)
        mags = 1.0 / (d + 1.0)
        vals[block] = mags if profile == "exact_decay" else mags * (signs[block] * 2 - 1)
    # rows are indexed by j: row j holds v[k, j] over k
    return SignMatrix(vals.T)


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
#
# An exhaustive search screens its 2^b candidates before scoring them. With
# x = s / sigma, base b and block columns c_i, e^{x_j} factors as
# e^{b_j/sigma} * prod_i e^{eps_i c_ij/sigma}. Splitting the block into a
# high and a low half gives every candidate's sum_j cosh(x_j) from two small
# matmuls, (P_hi o e^{+-b/sigma}) @ P_lo^T, in `_exhaustive_signs` order,
# instead of cosh over the (2^b x n_rows) matrix of row sums. The max term
# is read from the product itself, on the rows that can hold the maximum
# (|b_j|/sigma + r_j >= max(|b_k|/sigma - r_k), r_j = sum_i |c_ij| / sigma);
# a max over a subset of the exact values never exceeds the exact max. The
# screened value then differs from the exact score by rounding only, within
# `margin` (see _screen). Confirming keeps every candidate whose screened
# value, less its margin, is at most the exact score of the screen's
# argmin, and scores those exactly. Each dropped candidate scores strictly
# above the minimum, so the first exact argmin is the one an exact score of
# all candidates picks.
#
# The candidate product stays one BLAS call with the shapes and layouts it
# always had: BLAS output bits depend on the call, so a re-blocked product, a
# row subset of it or a contiguous copy of an operand can round differently
# and flip a near-tie. The exact scores are taken from rows of that one
# product. Screening falls back to exact scores of every candidate for
# random candidates, for b < 2, and when some |x_j| may exceed _EXP_SAFE,
# where the exponentials leave a safe range.

_EXP_SAFE = 300.0
# entries per candidate block in the exact scores
_SCORE_BLOCK = 1 << 15


def _score(sums: np.ndarray, sigma: float, lam: float) -> np.ndarray:
    z = np.abs(sums) / sigma
    z = np.minimum(z, 700.0)  # overflow guard; ranking beyond is driven by max
    return z.max(axis=-1) + lam * (np.cosh(z) - 1.0).sum(axis=-1)


def _exact_scores(prod, base, sigma, lam, idx) -> np.ndarray:
    """_score(prod[idx] + base) in cache-sized candidate blocks. Each row is
    reduced on its own, so the values equal the one-shot scores bit for bit."""
    out = np.empty(idx.size)
    step = max(1, _SCORE_BLOCK // prod.shape[1])
    for s in range(0, idx.size, step):
        out[s : s + step] = _score(prod[idx[s : s + step]] + base, sigma, lam)
    return out


def _screen(prod, cols, base, sigma, lam, zb, reach):
    """Screened potential of all 2^b exhaustive candidates, with its error
    bound against _score."""
    n_cand, n_rows = prod.shape
    b = cols.shape[1]
    h = b // 2
    hi = np.exp(_exhaustive_signs(h) @ cols[:, :h].T / sigma)
    lo = np.exp(_exhaustive_signs(b - h) @ cols[:, h:].T / sigma)
    eb = np.exp(base / sigma)
    # negating a candidate reverses its index within each half
    cosh_sum = 0.5 * ((hi * eb) @ lo.T + (hi[::-1] / eb) @ lo[::-1].T).ravel()
    rows = np.flatnonzero(zb + reach >= np.max(zb - reach))
    step = max(1, _SCORE_BLOCK // rows.size)
    if 8 * rows.size > n_rows:  # a gather costs more than scanning every row
        rows = slice(None)
        step = max(1, _SCORE_BLOCK // n_rows)
    mx = np.empty(n_cand)
    for s in range(0, n_cand, step):
        z = np.abs(prod[s : s + step, rows] + base[rows]) / sigma
        mx[s : s + step] = z.max(axis=1)
    # Every exponent |x_j| <= |b_j|/sigma + r_j <= _EXP_SAFE carries an
    # absolute error of at most (b + 2) * eps * _EXP_SAFE through its matmul,
    # its scaling and the addition of base, on both paths; the exponentials
    # and cosh add a few ulp; and summing n_rows positive terms, by pairwise
    # summation or inside a matmul, adds at most n_rows * eps, all relative
    # to sum_j cosh(x_j). The factor 8 covers both paths and the final
    # additions, which round relative to max + |lam| * sum cosh.
    rel = 8.0 * (n_rows + (b + 2) * _EXP_SAFE + 8) * np.finfo(float).eps
    value = mx + lam * (cosh_sum - n_rows)
    return value, rel * (mx + abs(lam) * cosh_sum)


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
    if b <= _EXHAUSTIVE_LIMIT and not cols.any():
        # every candidate scores the same, so the argmin is the first one,
        # all +1; random candidates would still draw from gen
        return np.ones(b, dtype=np.int8)
    cands = _block_candidates(b, retries, gen)
    prod = cands.astype(float) @ cols.T  # (n_cand, n_rows), one BLAS call
    every = np.arange(cands.shape[0])
    zb = np.abs(base) / sigma
    reach = np.abs(cols).sum(axis=1) / sigma
    if b < 2 or b > _EXHAUSTIVE_LIMIT or not np.max(zb + reach) <= _EXP_SAFE:
        return cands[int(np.argmin(_exact_scores(prod, base, sigma, lam, every)))]
    value, margin = _screen(prod, cols, base, sigma, lam, zb, reach)
    target = _exact_scores(prod, base, sigma, lam, every[[int(np.argmin(value))]])[0]
    # a NaN keeps its candidate, as an exact score of all would see it
    alive = every[~(value - margin > target)]
    return cands[alive[int(np.argmin(_exact_scores(prod, base, sigma, lam, alive)))]]


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
    against everything outside the group, until a single run remains. At
    the top merge, whose group holds every run, nothing lies outside: its
    base is exactly zero, so a flip vector and its negation score bit for
    bit the same and the first of them, whose first flip is +1, wins.
    Deterministic given (seed, matrix, knobs); with the default block size
    every search is exhaustive and the seed is inert. An exhaustive search
    over columns that are all exactly zero is skipped: every candidate ties,
    so it keeps the first, all +1. A matrix with no rows, or no nonzero
    entry, gets all +1.
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    n = v.n_cols
    if n == 0:
        return SignVector(np.empty(0, dtype=np.int8))
    a = v.values
    sigma = float(np.max(np.abs(a), initial=0.0))
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
            # the top merge holds every group, so nothing lies outside it;
            # acc - g.sum(axis=1) would leave rounding residue there
            base = np.zeros_like(acc) if len(chunk) == len(groups) else acc - g.sum(axis=1)
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
