"""The warp workloads: the derandomized pipeline `derand.run` on one
acceptance-style corpus.

Untraced, a full workload calls `run` once. Traced, the same pipeline is
driven rank by rank through the public calls `mc_cross_check`,
`choose_halves` and `advance`, and every halving state is probed with
`assemble_v_matrix`, `expected_composition` and `solve_hierarchical`
(seeded as `run` seeds it), so each layer's share of a rank is timed from
outside the package. The probes repeat work the pipeline does internally;
their results are discarded.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from circlewarp import (
    CorpusSpec,
    DerandConfig,
    DerandState,
    DFParams,
    assemble_v_matrix,
    advance,
    choose_halves,
    compose,
    confinement_map,
    default_degrees,
    expected_composition,
    homeo_to_json,
    mc_cross_check,
    run,
    solve_hierarchical,
    sup_partial_sums,
    verify_mass_ratios,
)

import pins
from harness import DEFAULT_SEED, sha256


@dataclass(frozen=True)
class Spec:
    kind: str
    params: dict
    m: int
    n_max: int
    seeded: bool  # whether --seed picks the corpus's jitter seed
    halvings: int | None  # stop after this many halvings; None runs to the end

    def corpus(self, seed: int) -> CorpusSpec:
        params = dict(self.params, seed=seed) if self.seeded else self.params
        return CorpusSpec(self.kind, params, self.m)


SPECS = {
    # rank-1 opening of the m=12 acceptance run: MC guard and first halving
    "warp-m12-open": Spec(
        "perturbed_square", {"rank": 5, "jitter": 0.5}, 12, 7, seeded=True, halvings=1
    ),
    # the whole pipeline on a 4x coarser grid; kk_example takes no seed
    "warp-m10": Spec("kk_example", {"k_max": 4}, 10, 7, seeded=False, halvings=None),
}


@dataclass
class Outcome:
    state: DerandState  # final state, or the state after the last halving
    records: tuple
    identity_max: float
    mc_reports: list


def setup(name: str, seed: int, tr):
    with tr.time("corpus.build_s"):
        return SPECS[name].corpus(seed).build()


def _converged(state: DerandState, cfg: DerandConfig) -> bool:
    widths = state.j_hi - state.j_lo
    return bool(np.all(widths < cfg.j_tol * np.diff(state.fixed_y)))


def _probe_halving(state, rank, degrees, cfg, tr):
    """Time the window engine and the sign solver on one halving state and
    count what the matrix keeps, as `choose_halves` is about to see it."""
    with tr.time(f"derand.window_s.r{rank}"):
        v = assemble_v_matrix(state, degrees, cfg)
    kept = v.n_rows
    if kept:
        null = np.max(np.abs(v.values), axis=0) < cfg.null_tol
    else:
        null = np.ones(v.n_cols, dtype=bool)
    tr.add(f"derand.halvings.r{rank}", 1)
    tr.add(f"derand.rows_kept.r{rank}", kept)
    tr.add(f"derand.rows_total.r{rank}", len(degrees) << rank)
    tr.add(f"derand.null_cols.r{rank}", int(null.sum()))
    if kept and not null.all():
        with tr.time(f"signs.solve_s.r{rank}"):
            solve_hierarchical(
                v,
                block=cfg.solver_block,
                retries=cfg.solver_retries,
                seed=cfg.solver_seed + 131071 * rank + 127 * state.ell,
                lam=cfg.solver_lam,
            )


def drive(spec: Spec, f, tr, probes: bool) -> Outcome:
    """The pipeline of `run` through public calls, one rank at a time."""
    cfg = DerandConfig()
    if f.sup_norm() > 1.0 + 1e-12:
        raise ValueError("corpus is not sup-normalized; run() would rescale it")
    with tr.time("haar.confinement_map_s"):
        q = confinement_map(f, depth=f.m).with_floor(cfg.q_floor_exponent)
    degrees = cfg.degrees or default_degrees(spec.n_max, f.m)
    state = DerandState.initial(f, q)
    records = []
    ident_max = 0.0
    mc_reports = []
    done = 0
    for rank in range(1, spec.n_max + 1):
        with tr.time(f"derand.mc_guard_s.r{rank}"):
            mc_reports.append(mc_cross_check(state, cfg, seed=cfg.mc_seed + 7919 * rank))
        if probes:
            with tr.time(f"derand.value_s.r{rank}"):
                expected_composition(state, config=cfg)
        while state.ell < cfg.ell_max and not _converged(state, cfg):
            if probes:
                _probe_halving(state, rank, degrees, cfg, tr)
            with tr.time(f"derand.advance_s.r{rank}"):
                state, recs, ident = choose_halves(state, cfg, degrees)
            records.extend(recs)
            ident_max = max(ident_max, ident)
            if probes:
                with tr.time(f"derand.value_s.r{rank}"):
                    expected_composition(state, config=cfg)
            done += 1
            if done == spec.halvings:
                return Outcome(state, tuple(records), ident_max, mc_reports)
        with tr.time(f"derand.advance_s.r{rank}"):
            state, recs, _ = advance(state, cfg, degrees)
        if recs:
            raise RuntimeError("advance halved a state the driver had finished")
    final = dataclasses.replace(state, phase="final", j_lo=np.empty(0), j_hi=np.empty(0))
    return Outcome(final, tuple(records), ident_max, mc_reports)


def untraced(name: str, f, seed: int, tr) -> Outcome:
    spec = SPECS[name]
    if spec.halvings is not None:
        return drive(spec, f, tr, probes=False)
    cfg = DerandConfig()
    res = run(f, spec.n_max, cfg)
    x = res.homeo.x
    if not np.array_equal(x, np.arange(x.size) / (x.size - 1)):
        raise RuntimeError("run() returned breakpoints off the dyadic grid")
    q = confinement_map(f, depth=f.m).with_floor(cfg.q_floor_exponent)
    final = DerandState(f, q, spec.n_max + 1, 0, res.homeo.y, np.empty(0), np.empty(0), "final")
    return Outcome(final, res.records, res.identity_max, res.manifest["mc_reports"])


def traced(name: str, f, seed: int, tr) -> Outcome:
    out = drive(SPECS[name], f, tr, probes=True)
    # kept rows as a share of all (degree, sample point) rows of the rank
    for key in [k for k in tr.values if k.startswith("derand.rows_total.")]:
        rank = key.rsplit(".", 1)[1]
        total = tr.values.pop(key)
        tr.values[f"derand.rows_kept_frac.{rank}"] = tr.values[f"derand.rows_kept.{rank}"] / total
    return out


def _records_text(records) -> str:
    return "".join(f"{r.n},{r.ell},{r.r},{r.sup_dev!r}\n" for r in records)


def _window_digest(state: DerandState) -> str:
    return sha256(state.fixed_y.tobytes() + state.j_lo.tobytes() + state.j_hi.tobytes())


def check(name: str, f, seed: int, out: Outcome, checks) -> None:
    spec = SPECS[name]
    cfg = DerandConfig()
    pinned = seed == DEFAULT_SEED or not spec.seeded
    pin = pins.WARP[name]
    checks.check(
        f"{name} identity residual",
        out.identity_max <= cfg.identity_tol,
        f"{out.identity_max:.3e} <= {cfg.identity_tol:g}",
    )
    ranks = spec.n_max if spec.halvings is None else 1
    quiet = len(out.mc_reports) == ranks and all(
        r["mean_abs_diff"] <= r["mean_gate"] and r["exceed_frac"] <= cfg.mc_exceed_frac
        for r in out.mc_reports
    )
    checks.check(f"{name} MC guard silent", quiet, f"{len(out.mc_reports)} reports")
    if spec.halvings is not None:
        _check_open(name, out, checks, pinned, pin)
        return
    h = out.state.homeo()
    cert = verify_mass_ratios(h, DFParams(depth=7, q=out.state.q, orientation="direct"))
    checks.check(f"{name} depth-7 mass-ratio certificate", cert.passed)
    warped = max(s for _, s in sup_partial_sums(compose(f, h, 16), range(1, 513)))
    checks.check(f"{name} warped sup finite", bool(np.isfinite(warped)), repr(warped))
    if pinned:
        checks.close(f"{name} warped sup r<=512 at m=16", warped, pin["warped_sup"], 1e-6)
        checks.equal(f"{name} homeo_to_json sha256", sha256(homeo_to_json(h)), pin["homeo_sha256"])


def _check_open(name, out, checks, pinned, pin):
    """One halving of the rank-1 window: each new window is the upper half,
    the lower half or the concentric middle half of the opening window."""
    spec = SPECS[name]
    cfg = DerandConfig()
    f = out.state.f
    opening = DerandState.initial(f, out.state.q)
    lo, hi = opening.j_lo, opening.j_hi
    mid = 0.5 * (lo + hi)
    quarter = 0.25 * (hi - lo)
    new_lo, new_hi = out.state.j_lo, out.state.j_hi
    halved = (
        ((new_lo == mid) & (new_hi == hi))
        | ((new_lo == lo) & (new_hi == mid))
        | ((new_lo == mid - quarter) & (new_hi == mid + quarter))
    )
    checks.check(f"{name} windows halved", out.state.ell == 1 and bool(np.all(halved)))
    degrees = cfg.degrees or default_degrees(spec.n_max, f.m)
    finite = all(np.isfinite(r.sup_dev) for r in out.records)
    checks.check(
        f"{name} one deviation record per degree",
        len(out.records) == len(degrees) and finite,
        f"{len(out.records)} records",
    )
    if pinned:
        checks.equal(f"{name} window sha256", _window_digest(out.state), pin["window_sha256"])
        checks.equal(
            f"{name} records sha256", sha256(_records_text(out.records)), pin["records_sha256"]
        )
