"""Derandomized construction of a warp with controlled partial-sum response.

The random object is an increasing self-map of [0, 1] drawn by midpoint
recursion with per-point budgets from the Haar profile of the target
function (see randhomeo and haar). Conditioning proceeds rank by rank: at
rank n every dyadic midpoint of the pinned rank-(n-1) grid owns a window
inside its image cell, the window is halved a few times, each halving
keeping the half that lowers the discrete Dirichlet responses of the
conditional expectation, and the point is then pinned at the window
midpoint before the next rank opens.

Three engines, each a private module that imports neither another engine
nor this one, back it up; they share the tables of _pltable. _window, the
closed-form window engine, gives the functional matrix of a halving and its
averaging-identity residual, the only things the halving loop reads.
_quadrature, the value engine, gives the quadrature profile of a state,
which the deviation records and the Monte-Carlo guard read. _sampler, a
seeded sampler with exact grid marginals, guards the value engine. This
module is the pipeline, and it alone gates: the identity alarm and the
dropping of weak rows (_matrix), and the guard's verdict (_mc_report).

Every entry point constructs, then certifies. The construction (_halvings)
is one rank's halving loop, assembly and solve alone (_choose), keeping
every state; it reads no diagnostic. The certification (_certify) is one
list of the sampler and profile jobs that the records and guard reports
read, run on this process and one forked child (_fork_map), bitwise the
serial results. run certifies all its ranks in one list; advance certifies
its rank, choose_halves its one halving and mc_cross_check its one state.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ._fork import _fork_map
from ._quadrature import _profile_jobs
from ._sampler import _mc_profile
from ._window import _assemble
from .fourier import _check_degree, _whole_degrees, sup_partial_sums
from .grid import PLHomeo, ResolutionError, SampledFunction, _array, _handed, _whole
from .haar import _FLOOR_EXPONENT, _SUP_TOL, ConfinementMap, confinement_map, normalize_sup
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


# record_shape_check passes when at least this share of bin pairs is nonincreasing
_SHAPE_BAR = 0.9


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
    return {"pairs": pairs, "nonincreasing": good, "fraction": frac, "passed": frac >= _SHAPE_BAR}


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
    """How much work a run does, and the fixed constants derand reads (no
    engine reads a config: the value plan is _quadrature's).

    Settings (the fields; the only names a config may set):

    * ell_max caps a rank's halvings. degrees=None tracks the default
      ladder.
    * mc_check turns the Monte-Carlo guard on, with mc_samples paths per
      rank (at least 2, for a standard error).

    Constants (read-only class attributes, the same for every instance):

    * j_tol: a rank is also pinned once every window is below j_tol times
      its image cell.
    * row_tol: rows of the functional matrix whose largest entry is below
      it are dropped before the sign search. Columns over constant cells (f
      flat on the cell's pinned image, that is on the image ranges of both
      its half cells; see _pltable._flat_half_cells) are exact zeros and
      always shrink to their concentric middle half; null_tol applies to the
      other columns, which carry no signal and shrink the same way when
      their largest kept entry is below it.
    * identity_tol bounds the averaging-identity residual.
    * solver_*: the default block size, retries, seed and lambda of
      solve_hierarchical, read off its signature.
    * q_floor_exponent: the budget map's floor 2**(-n * exponent).
    * mc_seed, mc_floor, mc_exceed_frac: the guard's base seed, its floor
      relative to sup |f|, and the share of points allowed past 6 SE."""

    ell_max: int = 6
    degrees: tuple | None = None
    mc_check: bool = True
    mc_samples: int = 10000

    j_tol: ClassVar[float] = 2.0**-20
    row_tol: ClassVar[float] = 1e-6
    null_tol: ClassVar[float] = 1e-12
    identity_tol: ClassVar[float] = 1e-6
    # unannotated, so no field: the defaults of solve_hierarchical's signature
    solver_block, solver_retries, solver_seed, solver_lam = solve_hierarchical.__defaults__
    q_floor_exponent: ClassVar[float] = _FLOOR_EXPONENT
    mc_seed: ClassVar[int] = 2718
    mc_floor: ClassVar[float] = 1e-4
    mc_exceed_frac: ClassVar[float] = 0.10

    def __post_init__(self):
        ell_max = _whole(self.ell_max, 0, "ell_max must be a nonnegative integer")
        object.__setattr__(self, "ell_max", ell_max)
        if type(self.mc_check) is not bool:  # "false" would run the guard, None skip it
            raise ValueError("mc_check must be true or false")
        # one path has a standard error of 0, so the guard could never pass
        samples = _whole(self.mc_samples, 2, "mc_samples must be an integer of at least 2")
        object.__setattr__(self, "mc_samples", samples)
        if self.degrees is not None:
            object.__setattr__(self, "degrees", _whole_degrees(self.degrees, 1))


# the constants a run's manifest reports beside the settings
_THRESHOLDS = ("j_tol", "row_tol", "null_tol", "identity_tol")


@dataclass(frozen=True)
class DerandState:
    """Partially pinned midpoint recursion.

    fixed_y holds the images of the rank-(n_active - 1) grid including both
    endpoints; j_lo/j_hi bound the live rank-n_active midpoints, one window
    per cell, nested inside the cell image. phase flips to "final" once
    every tracked rank is pinned, after which homeo() is available.

    Each state that _certify profiles remembers its quadrature profile
    ("profile"), a pure function of the state (no config reaches the value
    engine), so the public steps that follow each other (the guard, then a
    halving) read it here rather than recomputing it. The memo is no
    constructor argument, and dataclasses.replace starts it empty."""

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
        y = _array(self.fixed_y, 1, "pinned images must be a 1-d array of finite reals")
        lo = _array(self.j_lo, 1, "windows must be 1-d arrays of finite reals")
        hi = _array(self.j_hi, 1, "windows must be 1-d arrays of finite reals")
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


def _matrix(state: DerandState, degrees, cfg: DerandConfig):
    """_window._assemble's matrix, residual and constant-cell mask, gated:
    unless the residual is finite and within identity_tol it raises
    NumericalAlarm, and the rows whose largest entry is below row_tol go."""
    vals, ident, constant = _assemble(state, degrees)
    if not (math.isfinite(ident) and ident <= cfg.identity_tol):
        context = {"n": state.n_active, "ell": state.ell, "residual": ident, "tol": cfg.identity_tol}
        raise NumericalAlarm("averaging identity residual too large", **context)
    # max |v| of a row, with no |vals| temporary
    keep = np.maximum(vals.max(axis=1), -vals.min(axis=1)) >= cfg.row_tol
    return (vals if keep.all() else vals[keep]), ident, constant


def _config(state: DerandState, config: DerandConfig | None) -> DerandConfig:
    """The config a public call on an active state runs with."""
    if state.phase != "active":
        raise ValueError("a final state has no live windows")
    return config if config is not None else DerandConfig()


def _step_args(state: DerandState, config: DerandConfig | None, degrees):
    """The config and the degrees a public step on an active state runs
    with (see assemble_v_matrix for the default degrees)."""
    cfg = _config(state, config)
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
    return SignMatrix._keep(_matrix(state, degrees, cfg)[0])


def expected_composition(state: DerandState, config: DerandConfig | None = None) -> SampledFunction:
    """Pointwise conditional expectation of f(warp(t)) on the sample grid of
    f, from the quadrature engine. A final state has no live windows and
    raises ValueError; compose(state.f, state.homeo(), m) samples it.
    It neither reads nor fills the state's memo. config only checks the
    phase, as every step's does: the profile depends on the state alone."""
    _config(state, config)
    return SampledFunction(state.f.m, np.concatenate(_fork_map(_profile_jobs(state))))


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

    The quadrature side is the state's remembered profile (see _certify):
    after patching _quadrature's plan, pass a dataclasses.replace copy."""
    cfg = _config(state, config)
    seed = cfg.mc_seed if seed is None else seed
    return _certify([[state]], cfg, None, [seed])[1][0]


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
    kept, ident, constant = _matrix(state, degrees, cfg)
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


def _halvings(state: DerandState, cfg: DerandConfig, degrees):
    """One rank's construction: _choose until ell_max or until every window
    is negligibly short. Returns the rank's states in halving order, the
    largest averaging-identity residual, and the summed silent-cell counts."""
    states = [state]
    ident_max = 0.0
    silent = np.zeros(2, dtype=np.int64)
    while state.ell < cfg.ell_max and not _windows_converged(state, cfg):
        state, ident, counts = _choose(state, cfg, degrees)
        states.append(state)
        ident_max = max(ident_max, ident)
        silent += counts
    return states, ident_max, silent


def _certify(ranks, cfg: DerandConfig, degrees, seeds=None):
    """The deviation records and Monte-Carlo reports of a construction, in
    rank order. ranks holds each rank's states in halving order, and seeds,
    unless None, each rank's guard seed; the guard checks the rank's
    opening state.

    One _fork_map call runs every job: per rank, its sampler, then the two
    profile jobs of each state that a record or the report reads and that
    does not yet remember its profile. Rank order puts the biggest jobs
    first. Each profile's halves are joined into its state's memo, which
    holds nothing else. No config reaches the profile jobs, which depend
    on the state alone; a caller who varies _quadrature's value plan must
    pass dataclasses.replace copies, which start with an empty memo. A
    failing guard raises NumericalAlarm (see _mc_report)."""
    if seeds is None:
        seeds = [None] * len(ranks)
    jobs = []
    fresh = []  # per rank, the states whose profile jobs are listed
    for states, seed in zip(ranks, seeds):
        if seed is not None:
            jobs.append(functools.partial(_mc_profile, states[0], cfg.mc_samples, seed))
        # the records read every state of a halved rank, the report its first
        read = states if len(states) > 1 else states[: seed is not None]
        fresh.append([s for s in read if "profile" not in s._memo])
        for s in fresh[-1]:
            jobs += _profile_jobs(s)
    results = iter(_fork_map(jobs))
    records: list[DeviationRecord] = []
    reports = []
    for states, seed, todo in zip(ranks, seeds, fresh):
        sampled = None if seed is None else next(results)
        for s in todo:
            s._memo["profile"] = _handed(np.concatenate((next(results), next(results))))
        if sampled is not None:
            reports.append(_mc_report(states[0], cfg, states[0]._memo["profile"], *sampled))
        for s, new in zip(states, states[1:]):
            records.extend(_records(s, s._memo["profile"], new._memo["profile"], degrees))
    return records, reports


def choose_halves(
    state: DerandState, config: DerandConfig | None = None, degrees=None
) -> tuple[DerandState, list[DeviationRecord], float]:
    """One halving of every live window, signs picked jointly from the
    functional matrix. Returns the new state, one deviation record per
    tracked degree, and the averaging-identity residual of the step."""
    cfg, degrees = _step_args(state, config, degrees)
    new_state, ident, _ = _choose(state, cfg, degrees)
    return new_state, _certify([[state, new_state]], cfg, degrees)[0], ident


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
    states, ident_max, _ = _halvings(state, cfg, degrees)
    return _fix_and_promote(states[-1]), _certify([states], cfg, degrees)[0], ident_max


def _check_n_max(n_max, m: int) -> int:
    """n_max as an int, if run can pin ranks 1 .. n_max on a 2**m grid;
    else ValueError (ResolutionError when the grid is too coarse)."""
    n_max = _whole(n_max, 1, "n_max must be a positive integer")
    if n_max > m - 2:
        raise ResolutionError(f"n_max={n_max} too deep for a 2**{m} grid")
    return n_max


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

    run constructs every rank, then certifies them all in one _certify call
    (see the module docstring). An averaging-identity alarm raises in the
    construction, at its rank; a Monte-Carlo alarm at rank r raises after
    the whole construction, with the same exception and context as
    mc_cross_check's. The first rank's sampler is job 0, which a forked
    child runs, so its draws stay out of this process's memory. The public
    steps (mc_cross_check, choose_halves, advance) run the same two phases,
    so driven rank by rank they give bitwise run's outputs."""
    cfg = config if config is not None else DerandConfig()
    n_max = _check_n_max(n_max, f.m)
    f_use = normalize_sup(f) if f.sup_norm() > 1.0 + _SUP_TOL else f
    q = confinement_map(f_use, depth=f_use.m).with_floor(cfg.q_floor_exponent)
    degrees = _resolve_degrees(cfg.degrees, f.m, n_max)
    state = DerandState.initial(f_use, q)
    ranks = []  # each rank's states, in halving order
    ident_max = 0.0
    silent_cells = []
    for rank in range(1, n_max + 1):
        states, ident, silent = _halvings(state, cfg, degrees)
        ranks.append(states)
        ident_max = max(ident_max, ident)
        constant, null = (int(c) for c in silent)
        silent_cells.append({"n": rank, "constant": constant, "null_not_constant": null})
        state = _fix_and_promote(states[-1])
    seeds = [cfg.mc_seed + 7919 * rank for rank in range(1, n_max + 1)] if cfg.mc_check else None
    records, mc_reports = _certify(ranks, cfg, degrees, seeds)
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
        "config": {**dataclasses.asdict(cfg), **{name: getattr(cfg, name) for name in _THRESHOLDS}},
        "mc_reports": mc_reports,
        "silent_cells": silent_cells,
        "breakpoints": int(h.x.size),
    }
    return RunResult(h, tuple(records), ident_max, manifest, q)
