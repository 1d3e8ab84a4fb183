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

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .grid import _whole
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
        object.__setattr__(self, "values", _frozen(np.array(self.values, dtype=float)))

    @classmethod
    def _keep(cls, arr: np.ndarray) -> SignMatrix:
        """A SignMatrix over arr itself, with no copy, for a float array
        that its caller made and hands over: the same checks, and arr is
        made read-only."""
        out = cls.__new__(cls)
        object.__setattr__(out, "values", _frozen(arr))
        return out

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr, checked to be 2-d and finite and made read-only."""
    if arr.ndim != 2:
        raise ValueError("values must be a 2-d array")
    # min and max carry any NaN or infinity, with no full-size temporary
    if not (np.isfinite(arr.min(initial=0.0)) and np.isfinite(arr.max(initial=0.0))):
        raise ValueError("values must be finite")
    arr.setflags(write=False)
    return arr


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
    n = _whole(n, 0, "n must be a nonnegative integer")
    if dist not in ("circular", "linear"):
        raise ValueError("dist must be 'circular' or 'linear'")
    if profile == "random_signs_decay":
        gen = tagged_generator(seed, 0x51, n)
    elif profile != "exact_decay":
        raise ValueError(f"unknown profile {profile!r}")
    # vals[k, j] = v[k, j]. The distance depends on j - k alone, and is the
    # same at k - j, so every row is two slices of the one row
    # r[t] = 1 / (dist(0, t) + 1): vals[k, k:] = r[:n - k] and vals[k, :k] =
    # r[k:0:-1]. Each entry is the quotient the whole-matrix formula gives,
    # and no block of distances or quotients is built
    t = np.arange(n)
    r = 1.0 / ((np.minimum(t, n - t) if dist == "circular" else t) + 1.0)
    vals = np.empty((n, n))
    for k in range(n):
        vals[k, :k] = r[k:0:-1]
        vals[k, k:] = r[: n - k]
    if profile != "exact_decay":
        # the signs are drawn in row blocks of about 2**16 entries and
        # multiplied in place: consecutive draws of (rows, n) integers are
        # bitwise the rows of one (n, n) draw
        rows = max(1, (1 << 16) // max(n, 1))
        for start in range(0, n, rows):
            draw = gen.integers(0, 2, size=(min(rows, n - start), n))
            draw *= 2
            draw -= 1
            vals[start : start + rows] *= draw
            del draw  # else it is held while the next block is drawn
    # rows are indexed by j: row j holds v[k, j] over k. The transpose is
    # kept, not copied: F-contiguous, strides (8, 8 n), the layout a copy
    # of it has, so BLAS sees the same operands
    return SignMatrix._keep(vals.T)


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
# is read from the row sums themselves, on the rows that can hold the
# maximum (|b_j|/sigma + r_j >= max(|b_k|/sigma - r_k), r_j = sum_i |c_ij| /
# sigma); a max over a subset of the rows never exceeds the max over all.
# The screened value then differs from the exact score by rounding only,
# within `margin` (see _screen). Confirming keeps every candidate whose
# screened value, less its margin, is at most the exact score of the
# screen's argmin, and scores those exactly. Each dropped candidate scores
# strictly above the minimum, so the first exact argmin is the one an exact
# score of all candidates picks: the choice depends on the exact scores
# alone.
#
# No (candidates x rows) product is held: the max term reads the rows in
# blocks, cols[rows] @ cands.T, and the exact scores take the candidates in
# blocks, cands[idx] @ cols.T, each of about _SCORE_BLOCK entries (candidate
# blocks for the max term would repack cols in every call). The margin covers
# the max term's rounding in any order, so only the exact scores' bits
# matter. The candidates' entries are +-1, so every product term is exact and
# an entry's bits depend only on the order in which BLAS sums it. Measured
# with OpenBLAS 0.3.31 (Haswell kernel) over some 3 000 shapes: a block of
# two candidates or more sums every entry left to right, as the one product
# cands @ cols.T did, except that the one product sums its last n_rows mod 8
# rows in another order once n_rows > 192 (and b >= 4). There an exact score
# may differ from the one product's in its last bits, and a near-tie within
# rounding may break the other way. No exact score differed in the 252
# searches of the two m=10 acceptance runs, 64 of them over such rows. A
# one-candidate or one-row product is a matrix-vector call, whose bits depend
# on its operands: a lone candidate is padded with itself, and one row's
# exact scores come from its whole product, n_cand numbers.
# (cols @ cands[idx].T would sum its last k mod 8 candidates in another order
# once k > 192.) Each exact score is reduced from a contiguous row, so its
# cosh sum is the same pairwise sum. Screening falls back to exact scores of
# every candidate for random candidates, for b < 2, and when some |x_j| may
# exceed _EXP_SAFE, where the exponentials leave a safe range.
#
# The screen's two halves, their product and the max term's block of rows
# are written, with out=, into one workspace per solve: an array per use and
# shape (_scratch), handed to every block search. Made afresh and freed by
# each of an n=4096 solve's 585 searches, these few hundred KB arrays had
# the allocator grow and trim the heap around every search, and the solve
# took 298 000 minor page faults; with the workspace it takes 9 700. The
# same ufuncs and products run into reused memory, so no bit moves. The
# workspace lives as long as its solve, not the module, so no buffer
# outlasts the solves of a process.

_EXP_SAFE = 300.0
# entries per block of the max term's rows and of the exact scores' candidates
_SCORE_BLOCK = 1 << 15


def _score(sums: np.ndarray, sigma: float, lam: float) -> np.ndarray:
    z = np.abs(sums) / sigma
    z = np.minimum(z, 700.0)  # overflow guard; ranking beyond is driven by max
    return z.max(axis=-1) + lam * (np.cosh(z) - 1.0).sum(axis=-1)


def _exact_scores(cols, cands, base, sigma, lam, idx) -> np.ndarray:
    """_score(cands[idx] @ cols.T + base), cands as floats, in blocks of
    about _SCORE_BLOCK entries; see the notes above on its bits."""
    n_rows = cols.shape[0]
    if n_rows == 1:  # n_cand numbers, from the one matrix-vector call
        return _score((cands @ cols.T)[idx] + base, sigma, lam)
    out = np.empty(idx.size)
    step = max(2, _SCORE_BLOCK // n_rows)
    for s in range(0, idx.size, step):
        sel = idx[s : s + step]
        # a lone candidate's product would be a matrix-vector call: pad it
        part = cands[sel if sel.size > 1 else sel.repeat(2)] @ cols.T
        out[s : s + sel.size] = _score(part + base, sigma, lam)[: sel.size]
    return out


def _scratch(work: dict, use: str, shape: tuple) -> np.ndarray:
    """The float array of work for one use at one shape: made on its first
    request, and written over by every later one."""
    arr = work.get((use, shape))
    if arr is None:
        arr = work[use, shape] = np.empty(shape)
    return arr


def _half_exp(work, use, cols, sigma) -> np.ndarray:
    """exp(_exhaustive_signs(b) @ cols.T / sigma) for the b columns of one
    half, in work's array for use."""
    out = _scratch(work, use, (1 << cols.shape[1], cols.shape[0]))
    np.matmul(_exhaustive_signs(cols.shape[1]), cols.T, out=out)
    out /= sigma
    return np.exp(out, out=out)


def _screen(cols, cands, base, sigma, lam, zb, reach, work):
    """Screened potential of all 2^b exhaustive candidates (cands, as
    floats), with its error bound against _score. Every array of n_rows
    columns is one of work's."""
    n_rows, b = cols.shape
    n_cand = cands.shape[0]
    h = b // 2
    hi = _half_exp(work, "hi", cols[:, :h], sigma)
    lo = _half_exp(work, "lo", cols[:, h:], sigma)
    eb = np.exp(base / sigma)
    # negating a candidate reverses its index within each half
    prod = np.multiply(hi, eb, out=_scratch(work, "prod", hi.shape))
    cosh_sum = prod @ lo.T
    cosh_sum += np.divide(hi[::-1], eb, out=prod) @ lo[::-1].T
    cosh_sum = 0.5 * cosh_sum.ravel()
    rows = np.flatnonzero(zb + reach >= np.max(zb - reach))
    if 8 * rows.size <= n_rows:  # a gather costs less than scanning every row
        cols, base = cols[rows], base[rows]
    mx = np.full(n_cand, -np.inf)
    step = max(1, _SCORE_BLOCK // n_cand)
    zs = _scratch(work, "z", (min(step, n_rows), n_cand))
    for s in range(0, cols.shape[0], step):
        part = cols[s : s + step]
        z = np.matmul(part, cands.T, out=zs[: part.shape[0]])
        z += base[s : s + step, None]
        np.abs(z, out=z)
        np.maximum(mx, z.max(axis=0), out=mx)
    # rounding is monotone: the max of the quotients is the quotient of the max
    mx /= sigma
    # Every exponent |x_j| <= |b_j|/sigma + r_j <= _EXP_SAFE carries an
    # absolute error of at most (b + 2) * eps * _EXP_SAFE through its matmul,
    # its scaling and the addition of base, on both paths; the exponentials
    # and cosh add a few ulp; and summing n_rows positive terms, by pairwise
    # summation or inside a matmul, adds at most n_rows * eps, all relative
    # to sum_j cosh(x_j). The factor 8 covers both paths and the final
    # additions, which round relative to max + |lam| * sum cosh. The max
    # term comes from other products than the exact scores, so it carries
    # the exponents' absolute error on both paths, which rel * 1 covers.
    rel = 8.0 * (n_rows + (b + 2) * _EXP_SAFE + 8) * np.finfo(float).eps
    value = mx + lam * (cosh_sum - n_rows)
    return value, rel * (1.0 + mx + abs(lam) * cosh_sum)


def _exhaustive_signs(b: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """The sign vectors of length b, lexicographic (+1 before -1), from
    index start up to stop (default: all 2^b of them)."""
    masks = np.arange(start, 1 << b if stop is None else stop, dtype=np.uint32)
    bits = (masks[:, None] >> np.arange(b - 1, -1, -1, dtype=np.uint32)[None, :]) & 1
    return (1 - 2 * bits.astype(np.int8))


def _block_candidates(b: int, retries: int, gen) -> np.ndarray:
    if b <= _EXHAUSTIVE_LIMIT:
        return _exhaustive_signs(b)
    return (gen.integers(0, 2, size=(retries, b)) * 2 - 1).astype(np.int8)


def _best_candidate(
    cols: np.ndarray, base: np.ndarray, sigma: float, lam: float, retries: int, gen, work: dict
) -> np.ndarray:
    """cols: (n_rows, b) signed column vectors; base: row sums already
    committed by earlier choices. Returns the +-1 vector minimizing the
    potential of base + cols @ eps. work is the solve's workspace, the dict
    of scratch arrays that _scratch fills."""
    b = cols.shape[1]
    if b <= _EXHAUSTIVE_LIMIT and not cols.any():
        # every candidate scores the same, so the argmin is the first one,
        # all +1; random candidates would still draw from gen
        return np.ones(b, dtype=np.int8)
    cands = _block_candidates(b, retries, gen)
    cf = cands.astype(float)
    every = np.arange(cands.shape[0])
    zb = np.abs(base) / sigma
    reach = np.abs(cols).sum(axis=1) / sigma
    if b < 2 or b > _EXHAUSTIVE_LIMIT or not np.max(zb + reach) <= _EXP_SAFE:
        return cands[int(np.argmin(_exact_scores(cols, cf, base, sigma, lam, every)))]
    value, margin = _screen(cols, cf, base, sigma, lam, zb, reach, work)
    target = _exact_scores(cols, cf, base, sigma, lam, every[[int(np.argmin(value))]])[0]
    # a NaN keeps its candidate, as an exact score of all would see it
    alive = every[~(value - margin > target)]
    if alive.size == 1:
        return cands[alive[0]]  # nothing to compare: no second exact score
    return cands[alive[int(np.argmin(_exact_scores(cols, cf, base, sigma, lam, alive)))]]


def _check_search(block, retries) -> tuple[int, int]:
    """block and retries as ints. A block size below 2, whose merges of one
    group never shrink the group list, and retries below 1, which leave a
    random search no candidate, raise."""
    return (
        _whole(block, 2, "block must be an integer >= 2"),
        _whole(retries, 1, "retries must be an integer >= 1"),
    )


def _check_lam(lam) -> None:
    """Reject a potential weight that is not a finite real (booleans
    included): with a NaN weight every score is NaN, and the argmin would
    keep the first candidate, all +1, without a word."""
    if isinstance(lam, bool) or not isinstance(lam, numbers.Real) or not math.isfinite(lam):
        raise ValueError("lam must be a finite real")


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
    entry, gets all +1. block must be a whole number of at least 2, retries
    one of at least 1 and lam a finite real (ValueError otherwise, booleans
    included).
    """
    block, retries = _check_search(block, retries)
    _check_lam(lam)
    n = v.n_cols
    if n == 0:
        return SignVector(np.empty(0, dtype=np.int8))
    a = v.values
    # max |a| exactly, with no n x n temporary
    sigma = float(max(a.max(initial=0.0), -a.min(initial=0.0)))
    if sigma == 0.0:
        return SignVector(np.ones(n, dtype=np.int8))
    gen = tagged_generator(seed, 0x31E7)
    work = {}  # the block searches' scratch arrays, reused by each

    eps = np.ones(n, dtype=np.int8)
    acc = np.zeros(a.shape[0])  # committed row sums
    groups = []  # (column indices, aggregated row vector)
    for lo in range(0, n, block):
        cols_idx = np.arange(lo, min(lo + block, n))
        sub = a[:, cols_idx]
        choice = _best_candidate(sub, acc, sigma, lam, retries, gen, work)
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
            flips = _best_candidate(g, base, sigma, lam, retries, gen, work)
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
    for start in range(0, 1 << n, chunk):
        cands = _exhaustive_signs(n, start, min(start + chunk, 1 << n)).astype(float)
        disc = np.max(np.abs(cands @ a.T), axis=1) if a.shape[0] else np.zeros(len(cands))
        i = int(np.argmin(disc))
        if disc[i] < best_val:
            best_val = float(disc[i])
            best = cands[i].astype(np.int8)
    return SignVector(best), best_val
