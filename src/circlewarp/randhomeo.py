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
from typing import Sequence, Union

import numpy as np

from .grid import DyadicPoint, PLHomeo, ResolutionError
from .haar import ConfinementMap
from .rng import DyadicStream

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
        if int(self.depth) != self.depth or self.depth < 1:
            raise ValueError("depth must be a positive integer")
        if self.depth > _MAX_DEPTH:
            raise ResolutionError(f"depth {self.depth} exceeds supported maximum {_MAX_DEPTH}")
        if isinstance(self.q, ConfinementMap):
            if self.q.floor_exponent is None:
                raise ValueError(
                    "budget maps must carry a floor (use .with_floor()) so every value is positive"
                )
        elif not 0.0 < float(self.q) <= 1.0:
            raise ValueError("constant budget must lie in (0, 1]")
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
        if self.is_constant:
            return float(self.q)
        return self.q.rank_values(n)


def _midpoint_fill(depth: int, seed: int, budgets) -> np.ndarray:
    """Image values on the full rank-`depth` dyadic grid.

    budgets(n) gives the rank-n confinement (scalar or per-point vector);
    the draw is mid = lo + (hi - lo) * ((1 - q)/2 + q*u), which degenerates
    to the plain uniform placement exactly when q == 1.
    """
    size = 1 << depth
    y = np.zeros(size + 1)
    y[size] = 1.0
    stream = DyadicStream(seed)
    for n in range(1, depth + 1):
        step = 1 << (depth - n)
        mids = np.arange(step, size, 2 * step)
        lo = y[mids - step]
        hi = y[mids + step]
        u = stream.rank_uniforms(n)
        q = budgets(n)
        y[mids] = lo + (hi - lo) * (0.5 * (1.0 - q) + q * u)
    return y


def sample_df(depth: int, seed: int) -> PLHomeo:
    """Unconfined midpoint recursion down to the given rank.

    Every dyadic point of rank <= depth becomes a breakpoint whose image was
    drawn uniformly in the open image interval of its parents. The marginal
    law of the rank-1 image is exactly uniform on (0, 1).
    """
    if int(depth) != depth or depth < 1:
        raise ValueError("depth must be a positive integer")
    if depth > _MAX_DEPTH:
        raise ResolutionError(f"depth {depth} exceeds supported maximum {_MAX_DEPTH}")
    size = 1 << depth
    y = _midpoint_fill(depth, seed, lambda n: 1.0)
    return PLHomeo(np.arange(size + 1) / size, y)


def sample_psi_q(params: DFParams, seed: int) -> PLHomeo:
    """Confined midpoint recursion; inverts the result under inverse orientation."""
    size = 1 << params.depth
    y = _midpoint_fill(params.depth, seed, params.rank_budgets)
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


def verify_mass_ratios(h: PLHomeo, params: DFParams, tol: float = 1e-12) -> MassRatioReport:
    """Certify every parent/child image ratio against the budget bounds.

    For each dyadic point d of rank n <= params.depth with surrounding
    interval I, the ratio |h(left half of I)| / |h(I)| must lie inside
    [(1-q(d))/2, (1+q(d))/2]. The check is exhaustive and deterministic;
    it holds for every confined sample by construction, so a failure
    indicates the homeomorphism was not produced at these parameters.
    Under inverse orientation the certificate applies to the inverse map.
    """
    g = h.inverse() if params.orientation == "inverse" else h
    depth = params.depth
    size = 1 << depth
    y = g.eval(np.arange(size + 1) / size)
    worst_slack = math.inf
    worst = (0.0, 1, 1)
    checks = 0
    for n in range(1, depth + 1):
        step = 1 << (depth - n)
        mids = np.arange(step, size, 2 * step)
        lo = y[mids - step]
        hi = y[mids + step]
        ratio = (y[mids] - lo) / (hi - lo)
        q = params.rank_budgets(n)
        slack = np.minimum(ratio - 0.5 * (1.0 - q), 0.5 * (1.0 + q) - ratio)
        checks += mids.size
        i = int(np.argmin(slack))
        if slack[i] < worst_slack:
            worst_slack = float(slack[i])
            worst = (float(ratio[i]), 2 * i + 1, n)
    holder = None
    if params.is_constant and float(params.q) < 1.0:
        q = float(params.q)
        holder = (math.log2(2.0 / (1.0 + q)), math.log2(2.0 / (1.0 - q)))
    return MassRatioReport(
        passed=bool(worst_slack >= -tol),
        depth=depth,
        checks=checks,
        worst_slack=worst_slack,
        worst_point=DyadicPoint(worst[1], worst[2]),
        worst_ratio=worst[0],
        holder_exponents=holder,
    )


def ks_uniform_statistic(samples) -> float:
    """Kolmogorov-Smirnov distance between the sample law and uniform [0, 1]."""
    s = np.sort(np.asarray(samples, dtype=float))
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
    tol: float
    worst_ratio: float
    consistent: bool


def ac_diagnostics(
    h: PLHomeo,
    p_list: Sequence[float] = (1.0, 2.0, 4.0),
    level_max: int | None = None,
    tol: float = 0.1,
    window: int = 3,
) -> ACReport:
    """L^p norms of the level-wise difference quotients of h.

    Level ell replaces h by its piecewise-linear interpolant on the rank-ell
    grid and takes the step-function derivative h'_ell; its L^p norm is
    (2^-ell * sum slopes^p)^(1/p). If h has an L^p derivative these norms
    converge, so the verdict is "consistent" when each norm grows by at most
    the factor 1 + tol per level across the last `window` levels. A verdict,
    not a proof: singular maps reveal themselves by sustained growth.

    The default tolerance 0.1 sits between the noise band of certified
    absolutely-continuous samples (floored budgets from smooth inputs stay
    below ~1.07 per level at depth 12, the L^4 norm being max-dominated and
    noisy) and genuinely singular recursion samples, whose per-level growth
    settles near (1 + q^2/3)^(1/2), about 1.15 at q = 0.99, and is sustained
    rather than isolated.
    """
    if any(p < 1.0 for p in p_list):
        raise ValueError("p values must be >= 1")
    if window < 2:
        raise ValueError("window must cover at least two levels")
    if level_max is None:
        level_max = max(1, int(round(math.log2(max(len(h.x) - 1, 2)))))
    if level_max < 2:
        raise ValueError("need at least two levels to form a ratio")
    norms = []
    for p in p_list:
        norms.append([])
    for ell in range(1, level_max + 1):
        grid = np.arange((1 << ell) + 1) / (1 << ell)
        slopes = np.diff(h.eval(grid)) * (1 << ell)
        for i, p in enumerate(p_list):
            norms[i].append(float(np.mean(slopes ** p) ** (1.0 / p)))
    lo = max(0, level_max - window)
    worst = 0.0
    for row in norms:
        tail = row[lo:]
        for a, b in zip(tail, tail[1:]):
            worst = max(worst, b / a)
    return ACReport(
        levels=tuple(range(1, level_max + 1)),
        p_values=tuple(float(p) for p in p_list),
        norms=tuple(tuple(row) for row in norms),
        tol=tol,
        worst_ratio=worst,
        consistent=bool(worst <= 1.0 + tol),
    )
