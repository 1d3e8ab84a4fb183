"""Random increasing self-maps of [0, 1] built by midpoint recursion.

Two samplers share one counter-based uniform stream. The unconfined recursion
places each dyadic midpoint image uniformly inside its parent image interval;
the confined variant restricts the draw to the concentric sub-interval of
relative length q, where q is a constant or a per-point budget map. With the
shared stream the confined sampler converges bitwise to the unconfined one as
q -> 1, and deepening the recursion never perturbs shallower draws.

Confinement is what turns almost-sure regularity into every-sample
regularity: each parent/child mass ratio is forced into [(1-q)/2, (1+q)/2],
which verify_mass_ratios certifies a posteriori on any homeomorphism.
ac_diagnostics complements the certificate with difference-quotient L^p norms
per refinement level, a numerical screen for absolute continuity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .grid import DyadicPoint, PLHomeo, ResolutionError, _array, _real, _whole
from .haar import ConfinementMap
from .rng import rank_uniforms

__all__ = [
    "DFParams",
    "sample_df",
    "sample_psi_q",
    "MassRatioReport",
    "verify_mass_ratios",
    "ACReport",
    "ac_diagnostics",
    "ks_uniform_statistic",
]

_MAX_DEPTH = 24  # 2**24 + 1 breakpoints is already 128 MiB of float64
# a mass-ratio certificate passes while its worst slack is at least -_SLACK_TOL
_SLACK_TOL = 1e-12
# ac_diagnostics calls h consistent when no norm grows by more than the
# factor 1 + _GROWTH_TOL per level across the last _GROWTH_WINDOW levels.
# 0.1 sits between the noise band of certified absolutely-continuous samples
# (floored budgets from smooth inputs stay below ~1.07 per level at depth
# 12, the L^4 norm being max-dominated and noisy) and genuinely singular
# recursion samples, whose per-level growth settles near (1 + q^2/3)^(1/2),
# about 1.15 at q = 0.99, and is sustained rather than isolated.
_GROWTH_TOL = 0.1
_GROWTH_WINDOW = 3


@dataclass(frozen=True)
class DFParams:
    """Sampler configuration: recursion depth, budget, and orientation.

    When q is a budget map the recursion is applied to the inverse map by
    default (orientation "inverse"), because a budget read at d constrains
    fluctuation at the preimage of d; constant budgets default to "direct".
    """

    depth: int
    q: Union[float, ConfinementMap] = 1.0
    orientation: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "depth", _whole(self.depth, 1, "depth must be a positive integer"))
        if self.depth > _MAX_DEPTH:
            raise ResolutionError(f"depth {self.depth} exceeds supported maximum {_MAX_DEPTH}")
        if isinstance(self.q, ConfinementMap):
            if self.q.floor_exponent is None:
                raise ValueError(
                    "budget maps must carry a floor (use .with_floor()) so every value is positive"
                )
        else:
            message = "constant budget must be a real number in (0, 1]"
            object.__setattr__(self, "q", _real(self.q, 0.0, 1.0, message, "(]"))
        orientation = self.orientation
        if orientation is None:
            orientation = "direct" if self.is_constant else "inverse"
        if orientation not in ("direct", "inverse"):
            raise ValueError("orientation must be 'direct' or 'inverse'")
        object.__setattr__(self, "orientation", orientation)

    @property
    def is_constant(self) -> bool:
        return not isinstance(self.q, ConfinementMap)

    def rank_budgets(self, n: int):
        """Budget at every rank-n point, scalar for constant q."""
        return self.q if self.is_constant else self.q.rank_values(n)


def _confined(u: np.ndarray, q) -> np.ndarray:
    """The confined draw (1 - q)/2 + q*u, written over the uniforms u: a
    midpoint's place in its parent interval, for sample_psi_q and _sampler."""
    u *= q
    u += 0.5 * (1.0 - q)
    return u


def sample_df(depth: int, seed: int) -> PLHomeo:
    """Unconfined midpoint recursion down to the given rank.

    Every dyadic point of rank <= depth becomes a breakpoint whose image was
    drawn uniformly in the open image interval of its parents. The marginal
    law of the rank-1 image is exactly uniform on (0, 1).
    """
    return sample_psi_q(DFParams(depth), seed)


def sample_psi_q(params: DFParams, seed: int) -> PLHomeo:
    """Confined midpoint recursion; inverts the result under inverse orientation.

    With the rank-n budgets q (scalar or per-point vector) the draw is
    mid = lo + (hi - lo) * _confined(u, q), which degenerates to the plain
    uniform placement exactly when q == 1.
    """
    depth = params.depth
    size = 1 << depth
    y = np.zeros(size + 1)
    y[size] = 1.0
    for n in range(1, depth + 1):
        step = 1 << (depth - n)
        # the rank-n points and their left and right parents, as views of y
        lo, hi = y[: size : 2 * step], y[2 * step :: 2 * step]
        y[step :: 2 * step] = lo + (hi - lo) * _confined(rank_uniforms(seed, n), params.rank_budgets(n))
    h = PLHomeo(np.arange(size + 1) / size, y)
    return h.inverse() if params.orientation == "inverse" else h


@dataclass(frozen=True)
class MassRatioReport:
    """Outcome of the deterministic parent/child ratio certificate."""

    passed: bool
    depth: int
    checks: int
    worst_slack: float  # distance inside the bounds; negative means violated
    worst_point: DyadicPoint
    worst_ratio: float
    holder_exponents: tuple | None  # (lower, upper) for constant q < 1

    def to_json(self) -> str:
        payload = {
            "passed": self.passed,
            "depth": self.depth,
            "checks": self.checks,
            "worst_slack": self.worst_slack,
            "worst_point": {"k": self.worst_point.k, "n": self.worst_point.n},
            "worst_ratio": self.worst_ratio,
            "holder_exponents": list(self.holder_exponents) if self.holder_exponents else None,
        }
        return json.dumps(payload, sort_keys=True)


def verify_mass_ratios(h: PLHomeo, params: DFParams) -> MassRatioReport:
    """Certify every parent/child image ratio against the budget bounds.

    For each dyadic point d of rank n <= params.depth with surrounding
    interval I, the ratio |h(left half of I)| / |h(I)| must lie inside
    [(1-q(d))/2, (1+q(d))/2]. The check is exhaustive and deterministic;
    it holds for every confined sample by construction, so a failure (a
    slack below -_SLACK_TOL) indicates the homeomorphism was not produced at
    these parameters.
    Under inverse orientation the certificate applies to the inverse map.
    All ranks are checked in one pass; the worst point is the first
    minimum of the slack, in rank order and left to right within a rank.
    """
    g = h.inverse() if params.orientation == "inverse" else h
    depth = params.depth
    size = 1 << depth
    # the grid lies in [0, 1], where eval's reduction mod 1 changes nothing;
    # when g's breakpoints are the grid, as for every direct sample_psi_q
    # draw, g.y is what np.interp would return there, bit for bit
    t = np.arange(size + 1) / size
    y = g.y if np.array_equal(g.x, t) else np.interp(t, g.x, g.y)
    # rank by rank, left to right: each rank-n point and its left and right
    # neighbours at its own spacing, joined from strided views of y
    ranks = range(1, depth + 1)
    steps = [size >> n for n in ranks]
    lo = np.concatenate([y[: size : 2 * s] for s in steps])
    mid = np.concatenate([y[s :: 2 * s] for s in steps])
    hi = np.concatenate([y[2 * s :: 2 * s] for s in steps])
    ratio = (mid - lo) / (hi - lo)
    q = params.q if params.is_constant else np.concatenate([params.rank_budgets(n) for n in ranks])
    slack = np.minimum(ratio - 0.5 * (1.0 - q), 0.5 * (1.0 + q) - ratio)
    at = int(np.argmin(slack))
    # entry at is point i of rank n, whose points start at entry 2**(n-1) - 1
    n = (at + 1).bit_length()
    worst_slack = float(slack[at])
    holder = None
    if params.is_constant and q < 1.0:
        holder = (math.log2(2.0 / (1.0 + q)), math.log2(2.0 / (1.0 - q)))
    return MassRatioReport(
        passed=bool(worst_slack >= -_SLACK_TOL),
        depth=depth,
        checks=size - 1,
        worst_slack=worst_slack,
        worst_point=DyadicPoint(2 * (at + 1 - (1 << (n - 1))) + 1, n),
        worst_ratio=float(ratio[at]),
        holder_exponents=holder,
    )


def ks_uniform_statistic(samples) -> float:
    """Kolmogorov-Smirnov distance between the sample law and uniform [0, 1]."""
    s = np.sort(_array(samples, 1, "samples must be a 1-d array of finite reals"))
    if s.size == 0:
        raise ValueError("need at least one sample")
    if s[0] < 0.0 or s[-1] > 1.0:
        raise ValueError("samples must lie in [0, 1]")
    i = np.arange(1, s.size + 1, dtype=float)
    return float(np.maximum(i / s.size - s, s - (i - 1.0) / s.size).max())


@dataclass(frozen=True)
class ACReport:
    """Difference-quotient norm table and its boundedness verdict."""

    levels: tuple
    p_values: tuple
    norms: tuple  # norms[i][j] = |h'_level|_p for levels[j], p_values[i]
    worst_ratio: float
    consistent: bool


def _check_p_list(p_list) -> tuple:
    """The exponents of p_list as floats. Anything but a nonempty list of
    finite reals >= 1 raises ValueError: an empty list computes no norm and
    would pass, and an exponent below 1 is no norm."""
    message = "p_list must be a nonempty list of finite reals >= 1"
    p_values = tuple(p_list) if isinstance(p_list, Iterable) else ()
    if not p_values:
        raise ValueError(message)
    return tuple(_real(p, 1.0, None, message) for p in p_values)


def ac_diagnostics(h: PLHomeo, p_list: Sequence[float] = (1.0, 2.0, 4.0)) -> ACReport:
    """L^p norms of the level-wise difference quotients of h.

    Level ell replaces h by its piecewise-linear interpolant on the rank-ell
    grid and takes the step-function derivative h'_ell; its L^p norm is
    (2^-ell * sum slopes^p)^(1/p). The levels run from 1 to log2 of h's
    interval count. If h has an L^p derivative these norms converge, so the
    verdict is "consistent" when each norm grows by at most the factor
    1 + _GROWTH_TOL per level across the last _GROWTH_WINDOW levels. A
    verdict, not a proof: singular maps reveal themselves by sustained growth.
    """
    p_values = _check_p_list(p_list)
    level_max = _whole(
        round(math.log2(max(len(h.x) - 1, 2))), 2, "need at least two levels to form a ratio"
    )
    norms = [[] for _ in p_values]
    for ell in range(1, level_max + 1):
        grid = np.arange((1 << ell) + 1) / (1 << ell)
        slopes = np.diff(h.eval(grid)) * (1 << ell)
        for row, p in zip(norms, p_values):
            row.append(float(np.mean(slopes ** p) ** (1.0 / p)))
    lo = max(0, level_max - _GROWTH_WINDOW)
    worst = 0.0
    for row in norms:
        tail = row[lo:]
        for a, b in zip(tail, tail[1:]):
            worst = max(worst, b / a)
    return ACReport(
        levels=tuple(range(1, level_max + 1)),
        p_values=p_values,
        norms=tuple(tuple(row) for row in norms),
        worst_ratio=worst,
        consistent=bool(worst <= 1.0 + _GROWTH_TOL),
    )
