"""Derandomized construction of a warp with controlled partial-sum response.

The random object is an increasing self-map of [0, 1] drawn by midpoint
recursion with per-point budgets from the Haar profile of the target
function (see randhomeo and haar). Conditioning proceeds rank by rank: at
rank n every dyadic midpoint of the pinned rank-(n-1) grid owns a window
inside its image cell, the window is halved a few times, each halving
keeping the half that lowers the discrete Dirichlet responses of the
conditional expectation, and the point is then pinned at the window
midpoint before the next rank opens.

Two expectation engines back this up and are deliberately kept separate.

* Window comparisons and the averaging identity use a closed-form engine.
  Every rank strictly below the active one is frozen at its conditional
  center, which makes the conditional map affine in the one live
  coordinate: a grid point's value is a window mean of f between two lines
  through one origin. Its integral over a window is a difference of two
  one-line integrals. Every line of a half window integrates the same
  function of the offset from the shared origin, so the exact integral of
  each f piece is summed outward from the origin once, and a line's
  integral is a difference of two of those sums plus two partial end
  panels. The identity (upper + lower) / 2 = whole window holds by
  additivity up to roundoff.
* Deviation records and diagnostics use an honest quadrature engine that
  integrates several untouched ranks per point with Gauss-Legendre nodes
  before freezing the rest. Its working set is bounded by _BLOCK: each
  level's midpoint means are taken in _BLOCK slices, and the last level of
  the quadrature tree is never built whole but generated a block of parents
  at a time, in level order, straight into the frozen tail. A seeded
  Monte-Carlo sampler with exact grid marginals guards it; disagreement
  raises NumericalAlarm.

run constructs, then certifies. The construction is the halving loop's
assembly and solve alone (_choose), rank by rank, keeping every state; it
reads no diagnostic. The certification is a list of independent jobs, each
rank's Monte-Carlo sampler on its opening state and then the two profile
jobs of each of its states, in rank order, which puts the biggest jobs
first. _fork_map runs them on this process and one forked child (see the
_fork module); the public steps hand it the two profile jobs of one state,
behind the guard's sampler in mc_cross_check. Each job runs serially inside
one process, so the results are bitwise the serial ones, and the records
and guard reports are built from them in rank order.

A profile's two jobs are the earlier and the later half of its live half
cells in grid order (_value_profile's half), each returning the slice of
the profile below or from the first grid point of the later half; the two
slices joined are the whole profile bit for bit. Every quadrature row
stays inside the half cell it starts in, so a half cell writes only its own
range of the profile. The rows of a subset of half cells keep their order
in every np.add.at, so each grid index receives the same additions in the
same order. The sampler and the profile are pure functions of the state.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ._fork import _fork_map
from .fourier import _check_degree, _whole_degrees, sup_partial_sums
from .grid import PLHomeo, ResolutionError, SampledFunction, _readonly, _whole
from .haar import ConfinementMap, confinement_map, normalize_sup
from .rng import tagged_generator
from .signs import SignMatrix, solve_hierarchical

__all__ = [
    "NumericalAlarm",
    "DeviationRecord",
    "DerandConfig",
    "DerandState",
    "RunResult",
    "default_degrees",
    "assemble_v_matrix",
    "expected_composition",
    "mc_cross_check",
    "choose_halves",
    "advance",
    "run",
    "record_shape_check",
]


class NumericalAlarm(RuntimeError):
    """An internal cross-check failed; context carries the numbers."""

    def __init__(self, message: str, **context):
        detail = ", ".join(f"{k}={v}" for k, v in context.items())
        super().__init__(f"{message} ({detail})" if detail else message)
        self.context = dict(context)


@dataclass(frozen=True)
class DeviationRecord:
    """Sup norm of S_r applied to the change of the conditional expectation
    produced by one window halving at (rank n, halving step ell)."""

    n: int
    ell: int
    r: int
    sup_dev: float


def record_shape_check(records) -> dict:
    """Decay-of-influence diagnostic over a run's deviation records.

    Within each (n, ell) group the degrees are binned by the integer
    distance round(|n - log2 r|) and each bin keeps its largest sup_dev.
    A halving at rank n should disturb degrees near 2**n the most, so the
    bin maxima ought to fall off with distance; the report counts how many
    adjacent bin pairs are nonincreasing across all groups. Groups whose
    deviations sit below fp noise are skipped rather than counted as flat.
    A record whose sup_dev is NaN or infinite raises ValueError.
    """
    groups: dict[tuple, dict] = {}
    for rec in records:
        if not math.isfinite(rec.sup_dev):
            raise ValueError(f"deviation record is not finite: {rec}")
        b = int(round(abs(rec.n - math.log2(rec.r))))
        g = groups.setdefault((rec.n, rec.ell), {})
        g[b] = max(g.get(b, 0.0), rec.sup_dev)
    pairs = 0
    good = 0
    for g in groups.values():
        if max(g.values(), default=0.0) < 1e-13:
            continue
        bins = sorted(g)
        for a, b in zip(bins, bins[1:]):
            pairs += 1
            if g[b] <= g[a] * (1.0 + 1e-12):
                good += 1
    frac = good / pairs if pairs else 1.0
    return {"pairs": pairs, "nonincreasing": good, "fraction": frac, "passed": frac >= 0.9}


def default_degrees(n_max: int, m: int) -> tuple[int, ...]:
    """Dyadic ladder 1 .. 2**(n_max+2) plus three rounded quarter-octave
    stops per octave, all strictly below the degree limit 2**(m-1)."""
    cap = 1 << (m - 1)
    top = n_max + 2
    out = set()
    for p in range(top + 1):
        if (1 << p) < cap:
            out.add(1 << p)
        if p < top:
            for frac in (0.25, 0.5, 0.75):
                r = round(2.0 ** (p + frac))
                if 1 <= r < cap:
                    out.add(r)
    return tuple(sorted(out))


def _resolve_degrees(degrees, m: int, n_hint: int) -> tuple[int, ...]:
    if degrees is None:
        degrees = default_degrees(n_hint, m)
        if not degrees:
            raise ResolutionError(f"a 2**{m} grid resolves no degree to track")
    out = sorted(set(_whole_degrees(degrees, 1)))
    _check_degree(m, out[-1])
    return tuple(out)


@dataclass(frozen=True)
class DerandConfig:
    """The halving loop's settings, and the construction's fixed constants.

    Settings (the fields; the only names a config may set):

    * ell_max and j_tol stop the halving loop: a rank is pinned after
      ell_max halvings or once every window is below j_tol times its image
      cell. degrees=None tracks the default ladder.
    * Rows of the functional matrix whose largest entry is below row_tol are
      dropped before the sign search. Columns over constant cells (f flat on
      the cell's pinned image) are exact zeros and always shrink to their
      concentric middle half; null_tol applies to the other columns, which
      carry no signal and shrink the same way when their largest kept entry
      is below it. identity_tol bounds the averaging-identity residual.
    * mc_check turns the Monte-Carlo guard on, with mc_samples paths per
      rank (at least 2, for a standard error).

    Constants (read-only class attributes, the same for every instance):

    * solver_*: block size, retries, seed and lambda of solve_hierarchical.
    * q_floor_exponent: the budget map's floor 2**(-n * exponent).
    * mc_seed, mc_floor, mc_exceed_frac: the guard's base seed, its floor
      relative to sup |f|, and the share of points allowed past 6 SE.
    * The value-engine plan (see value_plan): Gauss-Legendre node counts
      for the live window (panels x nodes) and for each untouched rank
      below the active one, shallow up to rank shallow_rank_max and deep
      past it; ranks past the tuple are frozen at conditional centers."""

    ell_max: int = 6
    j_tol: float = 2.0**-20
    degrees: tuple | None = None
    row_tol: float = 1e-6
    null_tol: float = 1e-12
    identity_tol: float = 1e-6
    mc_check: bool = True
    mc_samples: int = 10000

    solver_block: ClassVar[int] = 8
    solver_retries: ClassVar[int] = 64
    solver_seed: ClassVar[int] = 0
    solver_lam: ClassVar[float] = 0.5
    q_floor_exponent: ClassVar[float] = 0.25
    mc_seed: ClassVar[int] = 2718
    mc_floor: ClassVar[float] = 1e-4
    mc_exceed_frac: ClassVar[float] = 0.10
    shallow_rank_max: ClassVar[int] = 3
    y_panels_shallow: ClassVar[int] = 16
    y_panels_deep: ClassVar[int] = 4
    y_nodes: ClassVar[int] = 4
    level_nodes_shallow: ClassVar[tuple] = (8, 4, 2, 2)
    level_nodes_deep: ClassVar[tuple] = (8, 2)

    def __post_init__(self):
        ell_max = _whole(self.ell_max, 0, "ell_max must be a nonnegative integer")
        object.__setattr__(self, "ell_max", ell_max)
        if not (0.0 < self.j_tol < 1.0):
            raise ValueError("j_tol must lie in (0, 1)")
        for name in ("row_tol", "null_tol", "identity_tol"):
            value = getattr(self, name)
            # a NaN fails every comparison: as row_tol it would keep no row,
            # as identity_tol it would fail every residual
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative")
        # one path has a standard error of 0, so the guard could never pass
        samples = _whole(self.mc_samples, 2, "mc_samples must be an integer of at least 2")
        object.__setattr__(self, "mc_samples", samples)
        if self.degrees is not None:
            object.__setattr__(self, "degrees", _whole_degrees(self.degrees, 1))

    def value_plan(self, rank: int) -> tuple[int, int, tuple]:
        if rank <= self.shallow_rank_max:
            return self.y_panels_shallow, self.y_nodes, self.level_nodes_shallow
        return self.y_panels_deep, self.y_nodes, self.level_nodes_deep


@dataclass(frozen=True)
class DerandState:
    """Partially pinned midpoint recursion.

    fixed_y holds the images of the rank-(n_active - 1) grid including both
    endpoints; j_lo/j_hi bound the live rank-n_active midpoints, one window
    per cell, nested inside the cell image. phase flips to "final" once
    every tracked rank is pinned, after which homeo() is available.

    Each state remembers its quadrature profile ("profile"), a pure
    function of the state, so the Monte-Carlo guard and the halving step
    that follow each other read it here rather than recomputing it. The
    memo is no constructor argument, and dataclasses.replace starts it
    empty."""

    f: SampledFunction
    q: ConfinementMap
    n_active: int
    ell: int
    fixed_y: np.ndarray
    j_lo: np.ndarray
    j_hi: np.ndarray
    phase: str = "active"
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.f, SampledFunction):
            raise TypeError("f must be a SampledFunction")
        if not isinstance(self.q, ConfinementMap):
            raise TypeError("q must be a ConfinementMap")
        if self.q.floor_exponent is None and self.q.depth < self.f.m:
            raise ValueError("budget map must carry a floor or reach the grid depth")
        message = f"active rank out of range: {self.n_active}"
        object.__setattr__(self, "n_active", _whole(self.n_active, 1, message))
        if self.n_active > self.f.m:
            raise ValueError(message)
        object.__setattr__(self, "ell", _whole(self.ell, 0, "ell must be a nonnegative integer"))
        if self.phase not in ("active", "final"):
            raise ValueError(f"unknown phase {self.phase!r}")
        y = _readonly(self.fixed_y)
        lo = _readonly(self.j_lo)
        hi = _readonly(self.j_hi)
        cells = 1 << (self.n_active - 1)
        if y.shape != (cells + 1,):
            raise ValueError(f"expected {cells + 1} pinned images, got {y.shape}")
        if y[0] != 0.0 or y[-1] != 1.0 or not np.all(np.diff(y) > 0.0):
            raise ValueError("pinned images must increase strictly from 0 to 1")
        if self.phase == "final":
            if lo.size or hi.size:
                raise ValueError("final states carry no windows")
        else:
            if lo.shape != (cells,) or hi.shape != (cells,):
                raise ValueError(f"expected {cells} windows, got {lo.shape}/{hi.shape}")
            if not np.all(lo < hi):
                raise ValueError("windows must have positive length")
            if not (np.all(lo >= y[:-1]) and np.all(hi <= y[1:])):
                raise ValueError("windows must nest inside their image cells")
        object.__setattr__(self, "fixed_y", y)
        object.__setattr__(self, "j_lo", lo)
        object.__setattr__(self, "j_hi", hi)

    @classmethod
    def initial(cls, f: SampledFunction, q: ConfinementMap) -> "DerandState":
        """Rank 1 opened: one window around 1/2, concentric in [0, 1]."""
        y = np.array([0.0, 1.0])
        return cls(f, q, 1, 0, y, *_open_windows(y, q.rank_values(1)))

    def homeo(self) -> PLHomeo:
        if self.phase != "final":
            raise ValueError("map not fully pinned yet")
        x = np.arange(self.fixed_y.size) / (self.fixed_y.size - 1)
        return PLHomeo(x, self.fixed_y)


# --- shared lookup tables ----------------------------------------------------


class _PLTable:
    """Piecewise-linear interpolant of the samples plus its antiderivative.

    Piece p covers [p, p+1] / 2**m; F is the exact integral of the
    interpolant from 0, so window means of f are quotients of F values.
    half_slopes and inv_size are exact rescalings (powers of two), so the
    lookups below round exactly as the textbook expressions in their
    docstrings do."""

    __slots__ = ("m", "size", "inv_size", "values", "slopes", "half_slopes", "cum")

    def __init__(self, f: SampledFunction):
        self.m = f.m
        self.size = 1 << f.m
        self.inv_size = 2.0**-f.m
        v = np.asarray(f.values, dtype=float)
        nxt = np.roll(v, -1)
        self.values = v
        self.slopes = (nxt - v) * self.size
        self.half_slopes = 0.5 * self.slopes
        self.cum = np.concatenate([[0.0], np.cumsum((v + nxt) * (0.5 / self.size))])

    def piece(self, u):
        p = (np.asarray(u) * self.size).astype(np.int64)
        return np.clip(p, 0, self.size - 1, out=p)

    def _offset(self, u, p):
        du = p * self.inv_size
        return np.subtract(u, du, out=du)

    def f_at(self, u):
        """values[p] + slopes[p] * (u - p / size), p = piece(u)."""
        p = self.piece(u)
        du = self._offset(u, p)
        du *= self.slopes.take(p)
        du += self.values.take(p)
        return du

    def F_at(self, u):
        """cum[p] + (values[p] + 0.5 * slopes[p] * du) * du, du = u - p / size,
        p = piece(u)."""
        p = self.piece(u)
        du = self._offset(u, p)
        out = self.half_slopes.take(p)
        out *= du
        out += self.values.take(p)
        out *= du
        out += self.cum.take(p)
        return out

    def lookup(self, u, p):
        """F and f at u on piece p, and half_slopes[p], from one offset and
        one gather of each table; f is evaluated as values[p] + 2 * (half
        slope * du), which may differ from f_at in the last bit."""
        du = self._offset(u, p)
        half = self.half_slopes.take(p)
        rise = half * du
        g = self.values.take(p)
        g += rise
        F = g * du
        F += self.cum.take(p)
        g += rise
        return F, g, half

    def mean_F(self, ulo, uhi):
        """Mean of f over [ulo, uhi]; pointwise value when the window is
        too short for the quotient to be trustworthy."""
        ulo = np.asarray(ulo, dtype=float)
        uhi = np.asarray(uhi, dtype=float)
        w = uhi - ulo
        tiny = w <= 1e-13
        out = self.F_at(uhi)
        out -= self.F_at(ulo)
        if not tiny.any():
            out /= w
            return out
        out /= np.where(tiny, 1.0, w)
        return np.where(tiny, self.f_at(0.5 * (ulo + uhi)), out)


def _q_table(q: ConfinementMap, m: int) -> np.ndarray:
    """Budget at every grid index 1 .. 2**m - 1, indexed by position."""
    out = np.zeros((1 << m) + 1)
    for rank in range(1, m + 1):
        step = 1 << (m - rank)
        out[step :: 2 * step] = q.rank_values(rank)
    return out


def _tail_table(qtab: np.ndarray, seg: int) -> np.ndarray:
    """qtab[g] * lowbit(g mod seg) / seg at every grid index g: the half
    width, per unit of its segment's span, of a point inside a seg-wide
    segment whose deeper ranks are frozen at conditional centers. The value
    engine's frozen tail and the window engine's half cells both read it.
    The factor is a power of two, so tail[g] * span rounds exactly as
    qtab[g] * span * factor does."""
    d = np.arange(qtab.size) % seg
    return qtab * ((d & -d) / seg)


def _cell_grid(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices, on the 2**m grid at active rank n, of the 2**(n-1) + 1
    pinned cell edges and of the 2**(n-1) live midpoints between them."""
    edges = np.arange((1 << (n - 1)) + 1) << (m - n + 1)
    return edges, edges[:-1] + (1 << (m - n))


def _constant_cells(state: DerandState) -> np.ndarray:
    """Per live cell, whether the samples of f at indices floor(a 2**m) ..
    ceil(b 2**m) (index 2**m wrapping to 0) are all equal, [a, b] being the
    cell's pinned image: then the interpolant is constant on [a, b], and so
    is f(warp(t)) for every t in the cell whatever the warp does there."""
    v = np.asarray(state.f.values, dtype=float)
    size = v.size
    steps = np.concatenate([[0], np.cumsum(v != np.roll(v, -1))])
    lo = np.floor(state.fixed_y[:-1] * size).astype(np.int64)
    hi = np.ceil(state.fixed_y[1:] * size).astype(np.int64)
    return steps[hi] == steps[lo]


# Work size, in array elements, of the blocks that every stage streams
# through: the value engine's children of one descent step and its
# frozen-tail means, the Monte-Carlo paths with the buffer they are summed
# in, and the sampler's draws of a rank that leaves out constant cells. Small
# enough that a block's temporaries stay in cache, and it bounds the working
# set: no stage holds (rows x nodes) of a whole quadrature level or (paths x
# grid points) of a whole batch. It cannot change a result: every row is the
# same elementwise expression whatever the block, np.add.at meets each grid
# point's terms in the same order (see _descend), consecutive draws are the
# rows of one draw, and the sampler's sums add the rows of a batch one by one
# in order, whatever the block. The window engine needs no blocks: its work
# per half window is linear in the points and in the f pieces that the
# points' lines reach.
_BLOCK = 1 << 14

# Monte-Carlo paths per batch of draws. The sampler draws a whole batch in
# stream order, so this fixes which draw feeds which path: changing it
# changes the guard's numbers, and it is no tuning knob.
_MC_BATCH = 512


# --- closed-form window engine -----------------------------------------------
#
# For a grid point t strictly inside the active cell, freezing every deeper
# rank at its conditional center makes the image of t's own rank window a
# pair of lines u(z) = origin + c * z in the live coordinate z, and the
# conditional value of f at t is (F(u_hi) - F(u_lo)) / (u_hi - u_lo), whose
# denominator is (c_hi - c_lo) * z. Its integral over a window [z1, z2] in z
# is therefore (J(c_hi) - J(c_lo)) / (c_hi - c_lo), with
#
#     J(c) = integral over [z1, z2] of (F(origin + c z) - F(origin)) / z dz
#          = integral over [c z1, c z2] of (F(origin + d) - F(origin)) / d dd.
#
# Subtracting F(origin), computed once per half window, changes nothing in
# the difference, and it keeps J finite at z1 = 0, where a window touches its
# cell edge. In the offset d = u - origin the integrand no longer depends on
# c: every line of a half window integrates the same function, only between
# its own limits (product integration against a 1/d kernel). So each half
# window integrates every f piece outward from the origin once, exactly, and
# sums the pieces outward. A line's J is the difference of two of those
# prefix sums, at the first and the last node inside its limits, plus a
# partial panel at each end, or one panel when the line crosses no node. On
# a panel the line stays in one piece of the interpolant, so the numerator is
# a quadratic in d, expanded at the panel's end nearer the origin so that
# nothing cancels, and the integral is elementary. The panel ends are the
# offsets c * z1, c * z2 and node - origin, never u - origin from a rounded
# u. A prefix difference cancels the more, the farther a window lies from
# its origin, so the rounding left in the prefix sums and in c * z1, c * z2
# is carried along (see _side_integrals). The work per half window is one
# table lookup per f piece the lines reach and at most two per line,
# whatever the number of node crossings; a flat line (c == 0) adds exactly
# zero.


def _panels(table, F0, dS, dU, u, p):
    """Integral of (F(origin + d) - F0) / d over d from dS to dS + dU, for
    panels that each stay inside piece p. dS is the panel's end nearer the
    origin, and u = origin + dS."""
    F, t, half = table.lookup(u, p)
    # with h the half slope, F(origin + d) - F0 = K + t d + h d**2 on the
    # panel, where t = f(u) - h dS and K = (F(u) - F0) - dS t; the integral
    # is dU (t + h dU / 2) + K log1p(dU / dS)
    t -= half * dS
    out = half * dU
    out *= 0.5
    out += t
    out *= dU
    F -= F0
    F -= dS * t
    # K vanishes at dS == 0, where the panel starts at the origin, so the log
    # term drops there
    ratio = np.divide(dU, dS, out=np.zeros_like(dU), where=dS != 0.0)
    out += F * np.log1p(ratio)
    return out


def _product_error(c, z: float):
    """c * z - fl(c * z), exactly: Dekker's product on Veltkamp's split,
    since NumPy has no fused multiply-add."""
    t = c * 134217729.0  # 2**27 + 1
    ch = t - (t - c)
    cl = c - ch
    t = z * 134217729.0
    zh = t - (t - z)
    zl = z - zh
    return ((ch * zh - c * z) + ch * zl + cl * zh) + cl * zl


def _side_integrals(table, origin, F0, c, z1, z2):
    """J(c) (see above) of lines that all leave the origin on one side:
    every c > 0, or every c < 0."""
    size = table.size
    side = 1 if c[0] > 0.0 else -1
    dA = c * z1
    dB = c * z2
    # the nodes strictly beyond the origin on this side, outward, as far as
    # the farthest line end, within the grid
    if side > 0:
        k0 = math.floor(origin * size) + 1
        nodes = np.arange(k0, min(math.ceil((origin + dB.max()) * size), size) + 1)
    else:
        k0 = math.ceil(origin * size) - 1
        nodes = np.arange(k0, max(math.floor((origin + dB.min()) * size), 0) - 1, -1)
    nn = nodes.size
    # segment j runs to node j from node j - 1 (from the origin when j == 0);
    # segment nn runs on past the last node, and the end pieces extend past
    # the grid
    piece = np.arange(nn + 1) * side
    piece += k0 - (side > 0)
    np.clip(piece, 0, size - 1, out=piece)
    un = nodes * table.inv_size
    # offsets of the segment ends, from the origin's 0.0 to the last node,
    # padded with a 0.0 that only lines crossing no node index
    ends = np.concatenate([[0.0], un - origin, [0.0]])
    starts_u = np.concatenate([[origin], un])
    outward = side * ends[1 : nn + 1]  # increasing
    jA = np.searchsorted(outward, side * dA, side="right")  # first node past dA
    jB = np.searchsorted(outward, side * dB, side="left")  # nodes short of dB
    crossing = jB > jA
    cross = np.flatnonzero(crossing)
    jBc = jB.take(cross)
    # dA and dB round the limits c z1 and c z2 by up to half an ulp, which
    # the integrand turns into an error larger than all the others: each
    # end panel is stretched by its limit's rounding error, so that to first
    # order a line is integrated between its exact limits
    errA = _product_error(c, z1)
    errB = _product_error(c, z2)
    # a line's first panel runs to the first node past dA, or on to dB; a
    # crossing line's last panel runs on from the last node short of dB
    first = np.where(crossing, ends.take(jA + 1) - dA, (dB - dA) + errB)
    first -= errA
    last = dB.take(cross) - ends.take(jBc)
    last += errB.take(cross)
    # one lookup for the whole segments, each line's first panel (its only
    # one if it crosses no node) and each crossing line's last panel
    L = dA.size
    panels = _panels(
        table,
        F0,
        np.concatenate([ends[:nn], dA, ends.take(jBc)]),
        np.concatenate([np.diff(ends[: nn + 1]), first, last]),
        np.concatenate([starts_u[:nn], origin + dA, starts_u.take(jBc)]),
        np.concatenate([piece[:nn], piece.take(jA), piece.take(jBc)]),
    )
    # the whole segments summed outward, and the rounding error of each
    # addition (Knuth's two-sum) summed alongside: the prefix sums grow with
    # the distance from the origin, a line's integral only with its span
    whole = panels[:nn]
    prefix = np.cumsum(whole)
    before = np.concatenate([[0.0], prefix])[:nn]
    added = prefix - before
    lost = np.cumsum((before - (prefix - added)) + (whole - added))
    a = jA.take(cross)
    b = jBc - 1
    between = (prefix.take(b) - prefix.take(a)) + (lost.take(b) - lost.take(a))
    J = panels[nn : nn + L]
    J[cross] += panels[nn + L :] + between
    return J


def _half_window_integrals(table, origin, c_hi, c_lo, z1, z2):
    """Per-point integral over [z1, z2] of the window mean of f along the
    line pair (origin, c_hi), (origin, c_lo). The lines share one origin and
    one window: origin, z1 and z2 are floats, one slope pair per point."""
    T = c_hi.size
    c = np.concatenate([c_hi, c_lo])
    J = np.zeros(2 * T)
    F0 = table.F_at(np.array([origin]))[0]
    # rising lines, then falling ones; a flat line keeps J = 0
    for lines in (np.flatnonzero(c > 0.0), np.flatnonzero(c < 0.0)):
        if lines.size:
            J[lines] = _side_integrals(table, origin, F0, c.take(lines), z1, z2)
    return (J[:T] - J[T:]) / (c_hi - c_lo)


def _window_profile(table, tail, gl, gd, gr, a, b, y1, y2):
    """Conditional expectation of f(warp(t)) for grid t inside one cell,
    the live midpoint image averaged over [y1, y2], everything deeper
    frozen at conditional centers (each point keeps its own window mean).
    tail is _tail_table(qtab, 2**(m - n)): a point strictly inside a half
    cell has lowbit(g mod 2**(m - n)) / 2**(m - n) = 2**(n - rank(g)), so
    its half width per unit span is qtab[g] * 2**(n - rank(g))."""
    span = y2 - y1
    out = np.empty(gr - gl - 1)
    mid_pos = gd - gl - 1
    out[mid_pos] = table.mean_F(np.array([y1]), np.array([y2]))[0]
    left = np.arange(gl + 1, gd)
    if left.size:
        s = (left - gl) / (gd - gl)
        width = tail[left]
        out[:mid_pos] = (
            _half_window_integrals(table, a, s + width, s - width, y1 - a, y2 - a) / span
        )
    right = np.arange(gd + 1, gr)
    if right.size:
        s = (gr - right) / (gr - gd)
        width = tail[right]
        out[mid_pos + 1 :] = (
            _half_window_integrals(table, b, width - s, -(s + width), b - y2, b - y1) / span
        )
    return out


def _fold_plan(M: int, degrees, pts: int):
    """What the _fold_degrees calls of one assembly share: the M frequencies
    k ordered by |k| (stable), the bin k mod pts of each in that order, per
    degree r the number of frequencies with |k| <= r, and pts. Degrees must
    be sorted ascending."""
    ks = (np.arange(M) + M // 2) % M - M // 2
    order = np.argsort(np.abs(ks), kind="stable")
    bounds = np.searchsorted(np.abs(ks)[order], degrees, side="right")
    return order, ks[order] % pts, bounds, pts


def _fold_degrees(profile: np.ndarray, plan) -> np.ndarray:
    """Discrete partial sums of a full-grid profile at the pts evenly spaced
    sample points, one row per degree of the plan (_fold_plan). The spectrum
    folds incrementally so the sweep costs one pass, and one batched inverse
    transform serves every row."""
    order, bins, bounds, pts = plan
    c = np.fft.fft(profile) / profile.size
    folded = np.zeros(pts, dtype=complex)
    rows = np.empty((bounds.size, pts), dtype=complex)
    prev = 0
    for row, hi in enumerate(bounds):
        if hi > prev:
            np.add.at(folded, bins[prev:hi], c[order[prev:hi]])
            prev = hi
        rows[row] = folded
    return (np.fft.ifft(rows, axis=1) * pts).real


def _assemble(state: DerandState, degrees, cfg: DerandConfig):
    """Functional matrix of one halving step: its rows of largest entry at
    least row_tol, and the averaging-identity residual. Each live cell's
    full window and its upper and lower halves are profiled here; the
    residual is measured on the same folded entries the matrix is made of,
    and unless it is finite and within identity_tol it raises
    NumericalAlarm.

    Cells flagged by _constant_cells have f flat on their image, so every
    window gives the same profile: their column is exactly zero, they add
    nothing to the residual, and no window profile or fold is computed."""
    f = state.f
    m = f.m
    n = state.n_active
    table = _PLTable(f)
    tail = _tail_table(_q_table(state.q, m), 1 << (m - n))
    pts = 1 << n
    plan = _fold_plan(1 << m, degrees, pts)
    edges, mids = _cell_grid(m, n)
    constant = _constant_cells(state)
    vals = np.zeros((len(degrees) * pts, mids.size))
    ident = 0.0
    buf = np.zeros(1 << m)
    for i in range(mids.size):
        if constant[i]:
            continue
        gl, gd, gr = edges[i], mids[i], edges[i + 1]
        a = float(state.fixed_y[i])
        b = float(state.fixed_y[i + 1])
        y1 = float(state.j_lo[i])
        y2 = float(state.j_hi[i])
        ym = 0.5 * (y1 + y2)
        g = _window_profile(table, tail, gl, gd, gr, a, b, y1, y2)
        g_up = _window_profile(table, tail, gl, gd, gr, a, b, ym, y2)
        g_dn = _window_profile(table, tail, gl, gd, gr, a, b, y1, ym)
        buf[gl + 1 : gr] = 0.5 * (g_up - g_dn)
        vals[:, i] = _fold_degrees(buf, plan).ravel()
        buf[gl + 1 : gr] = 0.5 * (g_up + g_dn) - g
        # np.maximum, unlike max, carries a NaN through to the gate
        ident = float(np.maximum(ident, np.max(np.abs(_fold_degrees(buf, plan)))))
        buf[gl + 1 : gr] = 0.0
    if not (math.isfinite(ident) and ident <= cfg.identity_tol):
        raise NumericalAlarm(
            "averaging identity residual too large",
            n=n,
            ell=state.ell,
            residual=ident,
            tol=cfg.identity_tol,
        )
    # max |v| of a row, with no |vals| temporary
    keep = np.maximum(vals.max(axis=1), -vals.min(axis=1)) >= cfg.row_tol
    return (vals if keep.all() else vals[keep]), ident


def _step_args(state: DerandState, config: DerandConfig | None, degrees):
    """The config and the degrees a public step on an active state runs
    with (see assemble_v_matrix for the default degrees)."""
    cfg = config if config is not None else DerandConfig()
    if state.phase != "active":
        raise ValueError("a final state has no live windows")
    return cfg, _resolve_degrees(degrees if degrees is not None else cfg.degrees, state.f.m, state.n_active)


def assemble_v_matrix(state: DerandState, degrees=None, config: DerandConfig | None = None) -> SignMatrix:
    """Rows are (degree, sample point) functionals, degree-major, columns
    the live midpoints; entry = the response gained by conditioning the
    midpoint into its upper window half rather than the lower one. Rows
    whose best entry is below row_tol are dropped.

    With degrees=None and config.degrees=None the default ladder is sized
    to the state's active rank, default_degrees(state.n_active, m): 8
    degrees at m=10 and rank 1, where run(f, 7) tracks 31. To step the way
    run does, pass default_degrees(n_max, m). choose_halves and advance
    take the same defaults."""
    cfg, degrees = _step_args(state, config, degrees)
    return SignMatrix._keep(_assemble(state, degrees, cfg)[0])


# --- quadrature value engine ---------------------------------------------------

@functools.cache
def _gl_nodes(k: int):
    return np.polynomial.legendre.leggauss(k)


def _composite_gl(y1, y2, panels, k):
    """Composite k-point Gauss rule on [y1, y2]; the weights sum to 1."""
    nodes, wts = _gl_nodes(k)
    edges = y1 + (y2 - y1) * np.arange(panels + 1) / panels
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    ys = (mids[:, None] + half[:, None] * nodes[None, :]).ravel()
    ws = np.tile(wts * 0.5, panels) / panels
    return ys, ws


@functools.cache
def _level_rule(k: int):
    """The k-node rule of a quadrature level on [-1, 1]: two-point Gauss on
    k / 2 panels. Piecewise-linear integrands keep kinks at every scale, so
    spreading a fixed budget over panels beats one high-order rule on the
    whole window."""
    return _composite_gl(-1.0, 1.0, k // 2, 2)


def _children(lo, hi, w, xl, mid_x, centers, hw, k, rows):
    """The next quadrature level's rows (lo, hi, w, xl) under the k-node
    rule, `rows` parent rows at a time in level order: first every child
    from its parent's lo to a node, then every child from a node to its
    parent's hi. Each child is one elementwise expression of its parent, so
    the rows do not depend on `rows`."""
    nodes, wts = _level_rule(k)
    for upper in (False, True):
        for start in range(0, lo.size, rows):
            sl = slice(start, start + rows)
            u = (centers[sl, None] + hw[sl, None] * nodes).ravel()
            cw = (w[sl, None] * wts).ravel()
            if upper:
                yield u, hi[sl].repeat(k), cw, mid_x[sl].repeat(k)
            else:
                yield lo[sl].repeat(k), u, cw, xl[sl].repeat(k)


def _cell_expectation(E, table, qtab, tail, state, i, sides, plan):
    """Add to E the quadrature of the grid points strictly inside cell i's
    half cells that sides names: 0 the left one, 1 the right one, in
    ascending order. Every row stays inside the half cell it starts in, so
    each half cell writes only its own range of E."""
    y_panels, y_nodes, level_nodes = plan
    m = table.m
    n = state.n_active
    seg = 1 << (m - n)  # segment width in grid units
    if seg < 2:
        return  # a half cell holds no grid point
    ys, ws = _composite_gl(float(state.j_lo[i]), float(state.j_hi[i]), y_panels, y_nodes)
    a = float(state.fixed_y[i])
    b = float(state.fixed_y[i + 1])
    lo = np.concatenate([ys if s else np.full(ys.size, a) for s in sides])
    hi = np.concatenate([np.full(ys.size, b) if s else ys for s in sides])
    w = np.tile(ws, len(sides))
    xl = np.repeat((2 * i + np.asarray(sides, dtype=np.int64)) * seg, ys.size)
    _descend(E, table, qtab, tail, (lo, hi, w, xl), seg, level_nodes[: m - n])


def _descend(E, table, qtab, tail, rows, seg, nodes):
    """Add to E the window means of rows (lo, hi, w, xl), whose segments
    are seg grid units wide, at their midpoints, then those of their
    descendants: under nodes[0] for the next level, and so on, the children
    of the last level being integrated over their frozen tails.

    The children stream, a block of parents at a time, each block descended
    whole before the next: no level is ever held at once. It cannot change a
    bit of E: every grid point is the midpoint of one level (or inside one
    frozen-tail segment), and all its terms come from the lower children, or
    all from the upper children, of parents that share one segment; the
    descent meets those parents in level order, as the levels built whole
    did, so np.add.at adds the same terms in the same order."""
    lo, hi, w, xl = rows
    half = seg >> 1
    mid_x = xl + half
    centers = 0.5 * (lo + hi)
    hw = 0.5 * qtab[mid_x] * (hi - lo)
    means = table.mean_F(centers - hw, centers + hw)
    np.add.at(E, mid_x, w * means)
    if half <= 1:
        return  # nothing deeper than the emitted midpoints
    k = nodes[0]
    if len(nodes) > 1:
        # about _BLOCK children per block
        for child in _children(lo, hi, w, xl, mid_x, centers, hw, k, max(1, _BLOCK // k)):
            _descend(E, table, qtab, tail, child, half, nodes[1:])
        return
    # ranks past the quadrature tuple: ancestors frozen at conditional
    # centers, each point still integrated exactly over its own window;
    # about _BLOCK frozen-tail means per block
    deltas = np.arange(1, half)
    frac = deltas / half
    parents = max(1, _BLOCK // (k * half))
    for b_lo, b_hi, b_w, b_xl in _children(lo, hi, w, xl, mid_x, centers, hw, k, parents):
        span = (b_hi - b_lo)[:, None]
        g = b_xl[:, None] + deltas
        pos = span * frac
        pos += b_lo[:, None]
        b_hw = tail.take(g)
        b_hw *= span
        ulo = pos - b_hw
        pos += b_hw
        vals = table.mean_F(ulo, pos)
        vals *= b_w[:, None]
        np.add.at(E, g.ravel(), vals.ravel())


def _value_profile(state: DerandState, cfg: DerandConfig, half: int | None = None) -> np.ndarray:
    """Quadrature profile of the state, computed afresh (_profile reads it
    from the state's memo). half 0 or 1 takes only the earlier or the later
    half of the live half cells in grid order and returns only the slice of
    the profile below, or from, the later half's first grid point; the two
    slices joined are the whole profile bit for bit (see _profile_jobs)."""
    f = state.f
    m = f.m
    n = state.n_active
    table = _PLTable(f)
    qtab = _q_table(state.q, m)
    E = np.zeros(1 << m)
    edges, mids = _cell_grid(m, n)
    E[edges[:-1]] = table.f_at(state.fixed_y[:-1])
    plan = cfg.value_plan(n)
    # _cell_expectation's segments are this wide once its quadrature levels end
    tail = _tail_table(qtab, (1 << (m - n)) >> min(len(plan[2]), m - n))
    constant = _constant_cells(state)
    for i in np.flatnonzero(constant):
        # f is flat on the cell's image: its left edge value is exact
        E[edges[i] + 1 : edges[i + 1]] = E[edges[i]]
    live = np.flatnonzero(~constant)
    E[mids[live]] = table.mean_F(state.j_lo[live], state.j_hi[live])
    # half cell u of the grid spans [u, u + 1] * 2**(m - n); cell i holds
    # 2 i and 2 i + 1
    units = (2 * live[:, None] + np.arange(2)).ravel()
    cut = live.size
    start = int(units[cut]) << (m - n) if cut else 0
    if half is not None:
        units = units[cut:] if half else units[:cut]
    if units.size:
        # one call per cell, on those of its half cells that units holds
        for cell in np.split(units, np.flatnonzero(np.diff(units >> 1)) + 1):
            _cell_expectation(E, table, qtab, tail, state, int(cell[0]) >> 1, cell & 1, plan)
    if half is None:
        return E
    return E[start:] if half else E[:start]


def _profile_jobs(state: DerandState, cfg: DerandConfig) -> list:
    """The two jobs of the state's profile for _fork_map: its earlier and
    its later half, whose results np.concatenate joins."""
    return [functools.partial(_value_profile, state, cfg, half) for half in (0, 1)]


def _profile(state: DerandState, cfg: DerandConfig) -> np.ndarray:
    """The state's quadrature profile, computed on first use and kept in
    the state's memo, which holds nothing else. The value plan is a set of
    class constants, so the profile depends on the state alone. The memo
    is valid only for that plan: a caller who varies it (on DerandConfig
    or a subclass) must pass a dataclasses.replace copy, which starts with
    an empty memo."""
    memo = state._memo
    if "profile" not in memo:
        memo["profile"] = _readonly(np.concatenate(_fork_map(_profile_jobs(state, cfg))))
    return memo["profile"]


def expected_composition(state: DerandState, config: DerandConfig | None = None) -> SampledFunction:
    """Pointwise conditional expectation of f(warp(t)) on the sample grid of
    f, from the quadrature engine. A final state has no live windows and
    raises ValueError; compose(state.f, state.homeo(), m) samples it."""
    cfg = config if config is not None else DerandConfig()
    if state.phase != "active":
        raise ValueError("a final state has no live windows")
    return SampledFunction(state.f.m, np.concatenate(_fork_map(_profile_jobs(state, cfg))))


# --- Monte-Carlo guard ---------------------------------------------------------


def _mc_profile(state: DerandState, n_samples: int, seed: int):
    """Seeded sampler of the conditioned law; grid marginals are exact, so
    this is the reference the quadrature engine must match.

    Paths are built cell by cell, on the cells _constant_cells leaves live:
    a cell's grid points depend only on its own pinned edges and draws. On a
    constant cell f(warp(t)) is f at the cell's left edge whatever the path
    does, because the interpolant's slope there is 0.0 (or du is 0 at the
    right edge), so those columns take that value in every row, and each
    constant cell's sums are made once for all its points. The draws are
    those of the whole grid, in stream order."""
    f = state.f
    m = f.m
    size = 1 << m
    n = state.n_active
    table = _PLTable(f)
    qtab = _q_table(state.q, m)
    gen = tagged_generator(seed, 0xEC, n)
    cells = state.j_lo.size
    W = size // cells  # grid points per cell, W + 1 with the right edge
    constant = _constant_cells(state)
    live = np.flatnonzero(~constant)
    k = live.size
    # a basic slice when every cell is live, so no draw is copied
    take = slice(None) if k == cells else live
    a = state.fixed_y[:-1][take]
    b = state.fixed_y[1:][take]
    j_lo = state.j_lo[take]
    j_span = (state.j_hi - state.j_lo)[take]
    # per deeper rank: midpoints step::2*step of a cell, between neighbours
    # 2*step apart, placed at lo + (hi - lo) * (0.5 * (1 - q) + q * u)
    deeper = []
    for rank in range(n + 1, m + 1):
        step = 1 << (m - rank)
        qv = qtab[step : size : 2 * step].reshape(cells, W // (2 * step))[take]
        deeper.append((step, qv, 0.5 * (1.0 - qv)))
    rows = max(1, _BLOCK // max(k * W, 1))  # paths per block
    # f at each constant cell's left edge: its value at every point
    flat = table.f_at(state.fixed_y[:-1][constant])
    # rows 1.. of buf hold one block of paths' values on the live cells;
    # row 0 the batch's running sum while the block is added, then its
    # running sum of squares
    buf = np.empty((rows + 1, k * W))
    acc = np.zeros(size)
    acc2 = np.zeros(size)
    sums = acc.reshape(cells, W)
    sums2 = acc2.reshape(cells, W)
    done = 0
    while done < n_samples:
        bsz = min(_MC_BATCH, n_samples - done)
        # the whole batch's draws in stream order, then the live cells' paths
        # built and evaluated a block at a time. Consecutive draws of a few
        # rows are bitwise the rows of one draw, so the draws of a rank that
        # leaves out constant cells are made a few rows at a time too
        u_live = gen.random((bsz, cells))[:, take]
        u_live *= j_span
        u_live += j_lo
        u_deep = []
        for step, qv, base in deeper:
            per = W // (2 * step)
            if k == cells:
                u = gen.random((bsz, cells, per))
            else:
                u = np.empty((bsz, k, per))
                chunk = max(1, _BLOCK // (cells * per))
                for c0 in range(0, bsz, chunk):
                    c1 = min(c0 + chunk, bsz)
                    u[c0:c1] = gen.random((c1 - c0, cells, per))[:, take]
            u *= qv
            u += base
            u_deep.append(u.reshape(bsz * k, per))  # contiguous: a view
        # a reduction over the rows of a C-ordered array adds them one by one
        # in row order, from +0.0, so summing (running sum, block) continues
        # the sum of the batch's rows exactly as one sum over all would
        total = np.zeros(k * W)
        total2 = np.zeros(k * W)
        for r0 in range(0, bsz, rows):
            r1 = min(r0 + rows, bsz)
            Y = np.empty((r1 - r0, k, W + 1))
            Y[:, :, 0] = a
            Y[:, :, W] = b
            Y[:, :, W // 2] = u_live[r0:r1]
            paths = Y.reshape(-1, W + 1)  # one row per (path, cell)
            for (step, _, _), u in zip(deeper, u_deep):
                lo = paths[:, 0:W:2 * step]
                mid = paths[:, 2 * step : W + 1 : 2 * step] - lo
                mid *= u[r0 * k : r1 * k]
                mid += lo
                paths[:, step : W : 2 * step] = mid
            block = buf[: r1 - r0 + 1]
            block[1:] = table.f_at(paths[:, :W]).reshape(r1 - r0, k * W)
            block[0] = total
            total = block.sum(axis=0)
            block[1:] *= block[1:]
            block[0] = total2
            total2 = block.sum(axis=0)
        sums[take] += total.reshape(k, W)
        sums2[take] += total2.reshape(k, W)
        if flat.size:
            # the same sums, made once per constant cell for all its points.
            # Accumulating the batch's rows below a row of zeros adds them
            # one by one whatever the shape, where a sum over a single
            # column would be pairwise
            col = np.empty((bsz + 1, flat.size))
            col[0] = 0.0
            col[1:] = flat
            sums[constant] += np.add.accumulate(col, axis=0)[-1][:, None]
            col *= col
            sums2[constant] += np.add.accumulate(col, axis=0)[-1][:, None]
        done += bsz
    mean = acc / n_samples
    var = np.maximum(acc2 / n_samples - mean * mean, 0.0)
    se = np.sqrt(var / max(n_samples - 1, 1))
    return mean, se


def mc_cross_check(
    state: DerandState, config: DerandConfig | None = None, seed: int | None = None
) -> dict:
    """Quadrature profile against the seeded sampler.

    Two gates. The grid-mean discrepancy must sit within three standard
    errors (plus a small relative floor). Pointwise, each value gets six
    standard errors; inputs with kinks or jumps legitimately overrun that
    in thin bands around their images, so the gate bounds the fraction of
    offending points rather than the worst one. Faults injected into the
    quadrature side at m=10 showed the guard's reach: it misses a profile
    shifted by one grid point at ranks 1-3 (1-4 on kk_example), a 10 %
    budget error at 13 of 14 ranks, and misplaced quadrature nodes.

    The quadrature side is the state's remembered profile (see _profile):
    after varying the value plan, pass a dataclasses.replace copy."""
    cfg = config if config is not None else DerandConfig()
    if state.phase != "active":
        raise ValueError("a final state has no live windows")
    seed = cfg.mc_seed if seed is None else seed
    memo = state._memo
    # the sampler first, so that a forked child runs it (see _fork_map)
    jobs = [functools.partial(_mc_profile, state, cfg.mc_samples, seed)]
    if "profile" not in memo:
        jobs += _profile_jobs(state, cfg)
    (mean, se), *halves = _fork_map(jobs)
    if halves:
        memo["profile"] = _readonly(np.concatenate(halves))
    return _mc_report(state, cfg, memo["profile"], mean, se)


def _mc_report(state: DerandState, cfg: DerandConfig, profile, mean, se) -> dict:
    """mc_cross_check's report on the state's quadrature profile against
    the sampler's mean and standard errors; raises NumericalAlarm, with the
    report as its context, unless both gates pass."""
    diff = np.abs(profile - mean)
    floor = cfg.mc_floor * max(state.f.sup_norm(), 1e-30)
    mean_gap = float(np.mean(diff))
    mean_gate = 3.0 * float(np.mean(se)) + floor
    exceed_frac = float(np.mean(diff > 6.0 * se + floor))
    report = {
        "n": state.n_active,
        "ell": state.ell,
        "samples": cfg.mc_samples,
        "mean_abs_diff": mean_gap,
        "mean_gate": mean_gate,
        "max_abs_diff": float(np.max(diff)),
        "exceed_frac": exceed_frac,
        "floor": floor,
    }
    # a NaN fails every comparison, so it raises too
    if not (math.isfinite(mean_gap) and mean_gap <= mean_gate and exceed_frac <= cfg.mc_exceed_frac):
        raise NumericalAlarm("quadrature and Monte-Carlo disagree", **report)
    return report


# --- the halving loop ----------------------------------------------------------


def _choose(state: DerandState, cfg: DerandConfig, degrees):
    """One halving's construction, assembly and solve: the halved state, the
    averaging-identity residual, and the step's silent-cell counts (constant
    cells, and null columns over the other cells)."""
    constant = _constant_cells(state)
    kept, ident = _assemble(state, degrees, cfg)
    cells = kept.shape[1]
    if kept.shape[0]:
        null_cols = constant | (np.max(np.abs(kept), axis=0) < cfg.null_tol)
    else:
        null_cols = np.ones(cells, dtype=bool)
    eps = np.ones(cells, dtype=np.int8)
    if kept.shape[0] and not null_cols.all():
        eps = solve_hierarchical(
            SignMatrix._keep(kept),
            block=cfg.solver_block,
            retries=cfg.solver_retries,
            seed=cfg.solver_seed + 131071 * state.n_active + 127 * state.ell,
            lam=cfg.solver_lam,
        ).eps
    lo = state.j_lo
    hi = state.j_hi
    mid = 0.5 * (lo + hi)
    quarter = 0.25 * (hi - lo)
    # +1 conditions into the upper half; columns without signal shrink
    # concentrically so that silence never biases the midpoint. Constant
    # cells are silent by construction, so no null_tol, not even 0, can
    # sign their exact zero columns
    new_lo = np.where(null_cols, mid - quarter, np.where(eps > 0, mid, lo))
    new_hi = np.where(null_cols, mid + quarter, np.where(eps > 0, hi, mid))
    new_state = dataclasses.replace(state, ell=state.ell + 1, j_lo=new_lo, j_hi=new_hi)
    silent = np.array([constant.sum(), (null_cols & ~constant).sum()], dtype=np.int64)
    return new_state, ident, silent


def _records(state: DerandState, before, after, degrees) -> list[DeviationRecord]:
    """The deviation records of the halving of state, from the quadrature
    profiles of the state (before) and of its halved state (after)."""
    change = SampledFunction(state.f.m, after - before)
    return [
        DeviationRecord(state.n_active, state.ell, r, sup)
        for r, sup in sup_partial_sums(change, degrees)
    ]


def _halve(state: DerandState, cfg: DerandConfig, degrees):
    """choose_halves on checked arguments: _choose, and the step's records
    from the profiles the states remember (see _profile)."""
    new_state, ident, _ = _choose(state, cfg, degrees)
    records = _records(state, _profile(state, cfg), _profile(new_state, cfg), degrees)
    return new_state, records, ident


def choose_halves(
    state: DerandState, config: DerandConfig | None = None, degrees=None
) -> tuple[DerandState, list[DeviationRecord], float]:
    """One halving of every live window, signs picked jointly from the
    functional matrix. Returns the new state, one deviation record per
    tracked degree, and the averaging-identity residual of the step."""
    cfg, degrees = _step_args(state, config, degrees)
    return _halve(state, cfg, degrees)


def _windows_converged(state: DerandState, cfg: DerandConfig) -> bool:
    widths = state.j_hi - state.j_lo
    return bool(np.all(widths < cfg.j_tol * np.diff(state.fixed_y)))


def _open_windows(y: np.ndarray, qv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A rank's opening windows: in each cell between consecutive pinned
    images y, the concentric window of relative length qv, clipped to the
    cell."""
    centers = 0.5 * (y[:-1] + y[1:])
    half = 0.5 * qv * np.diff(y)
    return np.maximum(centers - half, y[:-1]), np.minimum(centers + half, y[1:])


def _fix_and_promote(state: DerandState) -> DerandState:
    if state.n_active + 1 > state.f.m:
        raise ResolutionError("next rank would outrun the sample grid of f")
    mids = 0.5 * (state.j_lo + state.j_hi)
    y = np.empty(2 * state.fixed_y.size - 1)
    y[0::2] = state.fixed_y
    y[1::2] = mids
    n_new = state.n_active + 1
    j_lo, j_hi = _open_windows(y, state.q.rank_values(n_new))
    return dataclasses.replace(
        state, n_active=n_new, ell=0, fixed_y=y, j_lo=j_lo, j_hi=j_hi
    )


def advance(
    state: DerandState, config: DerandConfig | None = None, degrees=None
) -> tuple[DerandState, list[DeviationRecord], float]:
    """Halve until ell_max or until every window is negligibly short, pin
    the live midpoints at their window centers, open the next rank.
    Returns the new state, the deviation records of every halving, and the
    largest averaging-identity residual among them."""
    cfg, degrees = _step_args(state, config, degrees)
    records: list[DeviationRecord] = []
    ident_max = 0.0
    while state.ell < cfg.ell_max and not _windows_converged(state, cfg):
        state, recs, ident = _halve(state, cfg, degrees)
        records.extend(recs)
        ident_max = max(ident_max, ident)
    return _fix_and_promote(state), records, ident_max


@dataclass(frozen=True)
class RunResult:
    """run's output; q is the budget map the run derived and pinned with."""

    homeo: PLHomeo
    records: tuple
    identity_max: float
    manifest: dict
    q: ConfinementMap


def run(
    f: SampledFunction,
    n_max: int,
    config: DerandConfig | None = None,
    label: str | None = None,
) -> RunResult:
    """Full pipeline: normalize f if needed, derive its budget map with a
    floor, then pin ranks 1 .. n_max with the halving loop. Ranks past
    n_max stay affine, which is exactly what dropping their concentric
    windows leaves behind.

    run constructs, then certifies. The halving loop assembles and solves
    only; an averaging-identity alarm raises there, at its rank. The
    two halves of every state's quadrature profile and the Monte-Carlo
    sampler of every rank's opening state then run as independent jobs on
    this process and one forked child (_fork_map), and the deviation
    records and guard reports are built from them in rank order. So a
    Monte-Carlo alarm at rank r raises after the whole construction, not
    before rank r's halvings, with the same exception and context as
    mc_cross_check's. The first rank's sampler is job 0, which a forked
    child runs, so its draws stay out of this process's memory. The outputs
    are bitwise those of the public steps (mc_cross_check, choose_halves,
    advance) driven rank by rank."""
    cfg = config if config is not None else DerandConfig()
    n_max = _whole(n_max, 1, "n_max must be a positive integer")
    if n_max > f.m - 2:
        raise ResolutionError(f"n_max={n_max} too deep for a 2**{f.m} grid")
    f_use = normalize_sup(f) if f.sup_norm() > 1.0 + 1e-12 else f
    q = confinement_map(f_use, depth=f_use.m).with_floor(cfg.q_floor_exponent)
    degrees = _resolve_degrees(cfg.degrees, f.m, n_max)
    state = DerandState.initial(f_use, q)
    ranks = []  # each rank's states, in halving order
    ident_max = 0.0
    silent_cells = []
    for rank in range(1, n_max + 1):
        states = [state]
        silent = np.zeros(2, dtype=np.int64)
        while state.ell < cfg.ell_max and not _windows_converged(state, cfg):
            state, ident, counts = _choose(state, cfg, degrees)
            states.append(state)
            ident_max = max(ident_max, ident)
            silent += counts
        ranks.append(states)
        constant, null = (int(c) for c in silent)
        silent_cells.append({"n": rank, "constant": constant, "null_not_constant": null})
        state = _fix_and_promote(state)
    # each rank's sampler, then the two profile jobs of each of its states:
    # rank order puts the biggest jobs first
    jobs = []
    for rank, states in enumerate(ranks, 1):
        if cfg.mc_check:
            jobs.append(functools.partial(_mc_profile, states[0], cfg.mc_samples, cfg.mc_seed + 7919 * rank))
        for s in states:
            jobs += _profile_jobs(s, cfg)
    results = iter(_fork_map(jobs))
    records: list[DeviationRecord] = []
    mc_reports = []
    for states in ranks:
        sampled = next(results) if cfg.mc_check else None
        profiles = [np.concatenate((next(results), next(results))) for _ in states]
        if sampled is not None:
            mc_reports.append(_mc_report(states[0], cfg, profiles[0], *sampled))
        for s, before, after in zip(states, profiles, profiles[1:]):
            records.extend(_records(s, before, after, degrees))
    final = dataclasses.replace(state, phase="final", j_lo=np.empty(0), j_hi=np.empty(0))
    h = final.homeo()
    manifest = {
        "label": label,
        "m": f.m,
        "n_max": n_max,
        "normalized": f_use is not f,
        "sup_before": f.sup_norm(),
        "identity_max": ident_max,
        "degrees": list(degrees),
        "config": dataclasses.asdict(cfg),
        "mc_reports": mc_reports,
        "silent_cells": silent_cells,
        "breakpoints": int(h.x.size),
    }
    return RunResult(h, tuple(records), ident_max, manifest, q)
