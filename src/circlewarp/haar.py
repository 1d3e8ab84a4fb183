"""Haar analysis on dyadic intervals and the adaptive confinement map.

The Haar function of a dyadic interval I takes the value |I|^(-1/2) on the
left half of I and -|I|^(-1/2) on the right half. Samples are treated as a
step function on the finest grid, so all inner products are exact finite
sums and the transform round-trips bitwise on step functions.

The confinement map aggregates local Haar energy around each dyadic point:
for d = k / 2**n with surrounding interval I = [(k-1)/2**n, (k+1)/2**n],

    q(d) = |I|^(-3/2) * sum over dyadic J inside I of <f, X_J>^2 * |J|^(1/2).

For sup-normalized f this lies in [0, 1]; it measures how much oscillation
of f lives near d at scale |I| and below, and feeds the confined midpoint
sampler. Ranks below the sampling resolution contribute nothing (their
coefficients vanish for step functions), so raw values above the resolution
are exactly 0. A rank-dependent floor 2**(-rank * floor_exponent) can be
applied where a strictly positive budget is required.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DyadicPoint, ResolutionError, SampledFunction, _array, _exponent, _real, _whole
from .rng import tagged_generator

__all__ = [
    "HaarCoeffs",
    "haar_transform",
    "haar_inverse",
    "ConfinementMap",
    "confinement_map",
    "normalize_sup",
    "rademacher",
    "perturbed_square_wave",
]

# |f| may exceed 1 by this much and still count as sup-normalized
_SUP_TOL = 1e-12
# the default floor 2**(-n * _FLOOR_EXPONENT) of a rank-n budget
_FLOOR_EXPONENT = 0.25


@dataclass(frozen=True, eq=False)
class HaarCoeffs:
    """mean = <f, 1>; detail[l][j] = <f, X_I> for I = [j/2**l, (j+1)/2**l).

    mean is a finite real, and each detail[l] a read-only copy of a 1-d
    array of 2**l finite reals; anything else raises ValueError."""

    mean: float
    detail: tuple

    def __post_init__(self):
        object.__setattr__(self, "mean", _real(self.mean, None, None, "mean must be a finite real"))
        detail = []
        for level, d in enumerate(self.detail):
            message = f"detail[{level}] must be a 1-d array of 2**{level} finite reals"
            arr = _array(d, 1, message)
            if arr.shape[0] != (1 << level):
                raise ValueError(message)
            detail.append(arr)
        object.__setattr__(self, "detail", tuple(detail))

    @property
    def levels(self) -> int:
        return len(self.detail)

    def parseval_gap(self, f: SampledFunction) -> float:
        total = self.mean**2 + sum(float(np.sum(d * d)) for d in self.detail)
        rhs = float(np.mean(f.values**2))
        return abs(total - rhs) / max(rhs, 1e-300)


def haar_transform(f: SampledFunction) -> HaarCoeffs:
    """Exact pyramid on cell means of the step interpretation of f."""
    means = f.values
    detail = []
    for level in range(f.m - 1, -1, -1):
        left = means[0::2]
        right = means[1::2]
        scale = 2.0 ** (-level / 2.0)
        detail.append((left - right) / 2.0 * scale)
        means = (left + right) / 2.0
    detail.reverse()
    return HaarCoeffs(means[0], tuple(detail))


def haar_inverse(c: HaarCoeffs, m: int) -> SampledFunction:
    """Rebuild the step function; exact round trip with haar_transform."""
    m = _exponent(m)
    if m < c.levels:
        raise ResolutionError(f"coefficients reach level {c.levels - 1}, need m >= {c.levels}")
    means = np.array([c.mean])
    for level in range(c.levels):
        scale = 2.0 ** (level / 2.0)
        d = c.detail[level] * scale
        nxt = np.empty(means.size * 2)
        nxt[0::2] = means + d
        nxt[1::2] = means - d
        means = nxt
    reps = 1 << (m - c.levels)
    return SampledFunction(m, np.repeat(means, reps))


def normalize_sup(f: SampledFunction) -> SampledFunction:
    """Affine renormalization onto [-1, 1]; constants map to the zero function."""
    lo = float(np.min(f.values))
    hi = float(np.max(f.values))
    if hi - lo == 0.0:
        return SampledFunction(f.m, np.zeros(f.size))
    vals = (2.0 * f.values - (hi + lo)) / (hi - lo)
    return SampledFunction(f.m, vals)


@dataclass(frozen=True, eq=False)
class ConfinementMap:
    """Per-dyadic-point budgets q(k / 2**n) in [0, 1].

    levels[n - 1] is the rank-n array indexed by (k - 1) // 2, a read-only
    copy of the array given, which must be 1-d, finite and in [0, 1]. When
    floor_exponent is set, lookups return max(raw, 2**(-n * floor_exponent))
    capped at 1, and ranks beyond the stored depth fall back to the floor
    alone, so the map extends to arbitrary depth.
    """

    levels: tuple
    floor_exponent: float | None = None

    def __post_init__(self):
        if self.floor_exponent is not None:  # NaN or <= 0 would lift every budget to 1
            message = "floor_exponent must be a positive finite real or None"
            object.__setattr__(self, "floor_exponent", _real(self.floor_exponent, 0.0, None, message, "()"))
        levels = []
        for i, lvl in enumerate(self.levels):
            message = f"rank {i + 1} must hold {1 << i} finite budgets in [0, 1]"
            arr = _array(lvl, 1, message)
            if arr.shape[0] != (1 << i) or not (arr.min() >= 0.0 and arr.max() <= 1.0 + 1e-12):
                raise ValueError(message)
            levels.append(arr)
        object.__setattr__(self, "levels", tuple(levels))

    @property
    def depth(self) -> int:
        return len(self.levels)

    def _floor(self, n: int) -> float:
        if self.floor_exponent is None:
            return 0.0
        return min(1.0, 2.0 ** (-n * self.floor_exponent))

    def rank_values(self, n: int) -> np.ndarray:
        """Effective budgets of the whole rank (floor applied); the rank is a
        whole number from 1 to 26, the cap of a grid exponent."""
        n = _exponent(_whole(n, 1, "rank must be >= 1"))
        if n > self.depth:
            if self.floor_exponent is None:
                raise ResolutionError(f"map holds ranks <= {self.depth}, asked for {n}")
            return np.full(1 << (n - 1), self._floor(n))
        return np.minimum(1.0, np.maximum(self.levels[n - 1], self._floor(n)))

    def value(self, k: int, n: int) -> float:
        """The budget at k / 2**n, a DyadicPoint: k odd, 0 < k < 2**n."""
        p = DyadicPoint(k, n)
        return float(self.rank_values(p.n)[(p.k - 1) // 2])

    def with_floor(self, floor_exponent: float = _FLOOR_EXPONENT) -> "ConfinementMap":
        return ConfinementMap(self.levels, floor_exponent)


def confinement_map(f: SampledFunction, depth: int | None = None) -> ConfinementMap:
    """Raw confinement budgets of f for ranks 1..depth (default: up to f.m).

    Requires sup-normalized input (|f| <= 1); renormalize with normalize_sup
    first. Values are the plain energy formula without any floor; apply
    .with_floor() before feeding samplers that need strictly positive budgets.
    """
    if f.sup_norm() > 1.0 + _SUP_TOL:
        raise ValueError("confinement_map needs |f| <= 1; apply normalize_sup first")
    depth = f.m if depth is None else _whole(depth, 1, "depth must be >= 1")

    hc = haar_transform(f)
    # cumulative energy E[l][j] = sum over dyadic J inside I_{l,j} of coef^2 |J|^(1/2)
    cum = None
    energy = []
    for level in range(f.m - 1, -1, -1):
        own = hc.detail[level] ** 2 * 2.0 ** (-level / 2.0)
        if cum is not None:
            own = own + cum[0::2] + cum[1::2]
        cum = own
        energy.append(cum)
    energy.reverse()  # energy[level l] array over j

    levels = []
    for n in range(1, depth + 1):
        level = n - 1  # surrounding interval of a rank-n point is a level-(n-1) interval
        if level < len(energy):
            q = energy[level] * 2.0 ** (1.5 * level)
            q = np.minimum(q, 1.0)  # the formula cannot exceed 1; clip rounding dust
        else:
            q = np.zeros(1 << level)
        levels.append(q)
    return ConfinementMap(tuple(levels))


def rademacher(rank: int, m: int) -> SampledFunction:
    """The square wave sign(sin(2**rank * pi * t)) as a step function.

    Value +1 on [2j * 2**-rank, (2j+1) * 2**-rank), -1 on the complementary
    cells; requires m >= rank + 2 so each wave spans at least four samples.
    """
    m = _exponent(m)
    rank = _whole(rank, 1, "rank must be >= 1")
    if m < rank + 2:
        raise ResolutionError(f"need m >= {rank + 2} to sample rank {rank}")
    i = np.arange(1 << m)
    cell = i >> (m - rank)
    vals = np.where(cell % 2 == 0, 1.0, -1.0)
    return SampledFunction(m, vals)


def perturbed_square_wave(rank: int, jitter: float, seed: int, m: int) -> SampledFunction:
    """Square wave whose piece lengths wander around 2**-rank.

    Piece lengths are 2**-rank * 2**(jitter * v) with v uniform on [-1, 1],
    so jitter = 1 spreads them over [2**-(rank+1), 2**-(rank-1)] and
    jitter = 0 reproduces the exact square wave (every piece 2**-rank, the
    final piece closing the circle exactly). The last piece is truncated at 1.
    """
    m = _exponent(m)
    rank = _whole(rank, 1, "rank must be >= 1")
    jitter = _real(jitter, 0.0, 1.0, "jitter must lie in [0, 1]")
    if m < rank + 2:
        raise ResolutionError(f"need m >= {rank + 2} to sample rank {rank}")
    base = 2.0**-rank
    gen = tagged_generator(seed, 0x5157, rank)
    # draw comfortably more pieces than can fit, then cut at total length 1
    max_pieces = int(np.ceil(2.0 ** (rank + 1) / (2.0**-1))) + 8
    v = gen.uniform(-1.0, 1.0, size=max_pieces)
    lengths = base * 2.0 ** (jitter * v)
    ends = np.cumsum(lengths)
    n_used = int(np.searchsorted(ends, 1.0)) + 1
    ends = ends[:n_used]
    ends[-1] = 1.0
    t = np.arange(1 << m) / (1 << m)
    piece = np.searchsorted(ends, t, side="right")
    vals = np.where(piece % 2 == 0, 1.0, -1.0)
    return SampledFunction(m, vals)
