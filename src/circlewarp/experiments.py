"""Named experiments over the library, driven by a single config object.

Each experiment produces deterministic tables (CSV), a JSON report with
explicit pass/fail thresholds, and optionally a plot. Every output
directory additionally receives an echo of the resolved configuration and
a provenance stamp (package and NumPy versions, usable CPU count), so a
result file can always be traced back to the exact invocation that
produced it. run_experiment is the one writer of
experiment files, and every write goes through a temp-file-plus-rename so
readers never observe partial output.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from ._fork import _usable_cpus
from .corpus import CorpusSpec, oscillation, tapered_oscillation
from .derand import (
    _SHAPE_BAR,
    DerandConfig,
    _check_n_max,
    _resolve_degrees,
    record_shape_check,
    run as derand_run,
)
from .fourier import (
    _check_degree,
    _whole_degrees,
    a_norm,
    circ_dist,
    kernel_block_matrix,
    sup_partial_sums,
)
from .grid import ResolutionError, _exponent, _whole, compose, homeo_to_json, identity_homeo
from .haar import confinement_map
from .plotting import _atomic_open, _atomic_write, emit_plot
from .randhomeo import (
    _GROWTH_TOL,
    _SLACK_TOL,
    DFParams,
    _check_p_list,
    ac_diagnostics,
    ks_uniform_statistic,
    sample_df,
    sample_psi_q,
    verify_mass_ratios,
)
from .signs import (
    _EXHAUSTIVE_LIMIT,
    _check_search,
    build_synthetic_matrix,
    row_discrepancy,
    solve_hierarchical,
    solve_iid,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "EXPERIMENTS",
    "run_experiment",
    "load_config",
]

_FORMATS = ("csv", "json", "svg")


def _canon_format(name: str) -> str:
    # the config grammar spells the plot format "svg-plot"
    if name == "svg-plot":
        return "svg"
    if name in _FORMATS:
        return name
    raise ValueError(f"unknown format {name!r}; valid: csv, json, svg-plot")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment invocation: what to run, on what, where to put it."""

    experiment: str
    corpus: CorpusSpec | None = None
    solver: Mapping = field(default_factory=dict)
    derand: DerandConfig | None = None
    seeds: tuple = ()
    output_dir: str = ""
    formats: tuple = _FORMATS
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if not (isinstance(self.experiment, str) and self.experiment in EXPERIMENTS):
            valid = ", ".join(sorted(EXPERIMENTS))
            raise ValueError(
                f"unknown experiment {self.experiment!r}; valid experiments: {valid}"
            )
        # each section's type before it is read, so that the error names
        # what the section takes; a string of seeds would be read letter by
        # letter
        for name in ("solver", "params"):
            if not isinstance(getattr(self, name), Mapping):
                raise ValueError(f"{name} must be a JSON object")
        if not isinstance(self.seeds, (list, tuple, range)):
            raise ValueError("seeds must be a list of whole numbers")
        object.__setattr__(self, "solver", dict(self.solver))
        object.__setattr__(self, "params", dict(self.params))
        seeds = tuple(_whole(s, None, "seeds must be whole numbers") for s in self.seeds)
        object.__setattr__(self, "seeds", seeds)
        if not isinstance(self.output_dir, str):
            raise ValueError("output_dir must be a string")
        if not isinstance(self.formats, (list, tuple)):  # not a string, read letter by letter
            raise ValueError("formats must be a list of names: csv, json, svg-plot")
        object.__setattr__(
            self, "formats", tuple(dict.fromkeys(_canon_format(f) for f in self.formats))
        )
        for key in self.solver:
            if key not in _SOLVER:
                raise ValueError(f"unknown solver option {key!r}")
        reads = EXPERIMENTS[self.experiment].sections
        present = {
            "corpus": self.corpus is not None,
            "solver": bool(self.solver),
            "derand": self.derand is not None,
            "seeds": bool(self.seeds),
        }
        unread = [name for name, here in present.items() if here and name not in reads]
        if unread:
            raise ValueError(
                f"sections {self.experiment} does not read: {', '.join(unread)}; "
                f"valid: {', '.join(reads) or 'none'}"
            )
        if self.corpus is not None:  # its parameters are checked where it is built
            try:
                self.corpus.build()
            except ValueError as exc:
                raise ValueError(f"corpus {self.corpus.kind}: {exc}") from None
        known = EXPERIMENTS[self.experiment].params
        unknown = [key for key in self.params if key not in known]
        if unknown:
            raise ValueError(
                f"unknown params for {self.experiment}: {', '.join(map(str, unknown))}; "
                f"valid: {', '.join(known)}"
            )
        for key, value in self.params.items():
            if not isinstance(known[key], tuple):  # a count, not a tuple of values
                self.params[key] = _whole(value, 0, f"params {key} must be a nonnegative integer")
                continue
            message = f"params {key} must be a nonempty list of {_LISTS[key]}"
            if not (isinstance(value, (list, tuple)) and value):
                raise ValueError(message)
            if key in ("n_list", "N_list"):  # matrix or frequency sizes
                sizes = [_whole(size, 1, message) for size in value]
                if (self.experiment, key) in _TRENDS and len(set(sizes)) < 2:
                    raise ValueError(f"params {key} must be a list of at least two distinct {_LISTS[key]}")
                self.params[key] = sizes
        # the block sizes, retries and weight solve_hierarchical would reject
        block, retries, seed, lam = _solver_args(self)
        _check_search(block, retries, lam)
        if "blocks" in self.params:
            self.params["blocks"] = [_check_search(K, retries, lam)[0] for K in self.params["blocks"]]
        _whole(seed, None, "solver seed must be an integer")
        # the checks the experiment's counts meet when it runs, so that a
        # count it cannot take is a config error before any work is done
        check = EXPERIMENTS[self.experiment].check
        if check is not None:
            try:
                check(self, _params(self))
            except ValueError as exc:
                raise ValueError(f"params of {self.experiment}: {exc}") from None

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "corpus": None
            if self.corpus is None
            else {"kind": self.corpus.kind, "params": self.corpus.params, "m": self.corpus.m},
            "solver": self.solver,
            "derand": None if self.derand is None else dataclasses.asdict(self.derand),
            "seeds": list(self.seeds),
            "output_dir": self.output_dir,
            "formats": list(self.formats),
            "params": self.params,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from a JSON file; absent keys take defaults."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "experiment" not in raw:
        raise ValueError("config is missing the 'experiment' key")
    kwargs = dict(raw)
    if kwargs.get("corpus") is not None:
        c = kwargs["corpus"]
        if not isinstance(c, dict) or "kind" not in c:
            raise ValueError("corpus must be a JSON object with a 'kind' key")
        unknown = [key for key in c if key not in ("kind", "params", "m")]
        if unknown:
            raise ValueError(
                f"unknown corpus keys: {', '.join(map(str, unknown))}; valid: kind, params, m"
            )
        params = c.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("corpus params must deserialize to a mapping")
        m = {"m": c["m"]} if "m" in c else {}
        kwargs["corpus"] = CorpusSpec(c["kind"], params, **m)
    if kwargs.get("derand") is not None:
        d = kwargs["derand"]
        if not isinstance(d, dict):
            raise ValueError("derand must be a JSON object")
        valid = [f.name for f in dataclasses.fields(DerandConfig)]
        unknown = [key for key in d if key not in valid]
        if unknown:
            raise ValueError(
                f"unknown derand keys: {', '.join(map(str, unknown))}; valid: {', '.join(valid)}"
            )
        kwargs["derand"] = DerandConfig(**d)
    return ExperimentConfig(**kwargs)


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one experiment: per-threshold verdicts plus file inventory."""

    experiment: str
    passed: bool
    checks: tuple  # of (name, value, bound, ok)
    outputs: tuple  # file paths written
    runtime_s: float
    notes: tuple = ()  # lines of text about how the values were obtained

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "passed": self.passed,
            "checks": [
                {"name": n, "value": v, "bound": b, "passed": ok}
                for (n, v, b, ok) in self.checks
            ],
            "outputs": list(self.outputs),
            "runtime_s": self.runtime_s,
            "notes": list(self.notes),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_csv(path: str, header, rows) -> str:
    """Stream header and rows into path, one line at a time, through
    _atomic_open; returns path. A float is written to 12 significant
    digits, any other cell as str writes it, so a whole number such as a
    seed of 10**12 is read back exactly."""
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{c:.12g}" if isinstance(c, float) else str(c) for c in row) + "\n")
    return path


# solve_hierarchical's settings that a config's solver section may override,
# with the defaults of its signature
_SOLVER = {
    name: p.default
    for name, p in inspect.signature(solve_hierarchical).parameters.items()
    if p.default is not p.empty
}


def _solver_args(cfg: ExperimentConfig) -> tuple:
    s = {**_SOLVER, **cfg.solver}
    return s["block"], s["retries"], s["seed"], s["lam"]


# a report check is (name, value, bound, passed), its verdict read off the
# bound it reports
def _at_most(name: str, value, bound) -> tuple:
    return name, value, bound, value <= bound


def _at_least(name: str, value, bound) -> tuple:
    return name, value, bound, value >= bound


# --- the experiments -------------------------------------------------------------
#
# Each experiment returns (checks, files, plot_src, plot_kind, notes). `files`
# maps an output file name to (header, rows) for a .csv table or to the text of
# a .json file, in writing order; run_experiment writes the entries whose suffix
# the config's formats select. `notes` are lines of text for the report.


def _exp_kernel_decay(cfg):
    n_list = tuple(_params(cfg)["n_list"])
    files = {}
    summary = []
    worst_c = 0.0
    worst_gap = 0.0
    for n in n_list:
        mat = kernel_block_matrix(n)
        kk, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        weighted = np.abs(mat) * (circ_dist(kk, jj, n) + 1.0)
        c = float(np.max(weighted))
        gap = float(np.max(np.abs(mat.sum(axis=0) - 1.0)))
        worst_c = max(worst_c, c)
        worst_gap = max(worst_gap, gap)
        summary.append((n, c, gap))
        header = ("k", "j", "integral", "weighted")
        files[f"kernel_decay_n{n}.csv"] = (header, _entry_rows(mat, weighted))
    files["kernel_decay_summary.csv"] = (("n", "decay_constant", "row_sum_gap"), summary)
    checks = (
        _at_most("decay_constant_max", worst_c, 4.0),
        _at_most("row_sum_gap_max", worst_gap, 1e-8),
    )
    return checks, files, "kernel_decay_summary.csv", "line", ()


def _entry_rows(mat, weighted):
    """(k, j, mat[k, j], weighted[k, j]) for every entry, row-major, as
    Python numbers made one matrix row at a time while the table is
    written: no list of n * n tuples is held."""
    for k in range(mat.shape[0]):
        for j, (v, w) in enumerate(zip(mat[k].tolist(), weighted[k].tolist())):
            yield k, j, v, w


def _exp_signs_trend(cfg):
    p = _params(cfg)
    n_list = tuple(p["n_list"])
    blocks = tuple(p["blocks"])
    seeds = cfg.seeds or tuple(range(5))
    block0, retries, _, lam = _solver_args(cfg)
    rows = []
    best = {}
    # with every block search exhaustive the solver draws no random
    # candidate, so one solve serves every seed
    inert = [K for K in blocks if K <= _EXHAUSTIVE_LIMIT]
    for n in n_list:
        V = build_synthetic_matrix(n, "exact_decay")
        for K in blocks:
            d = None
            for seed in seeds:
                if d is None or K not in inert:
                    d = row_discrepancy(V, solve_hierarchical(V, K, retries, seed, lam))
                rows.append((int(n), "hierarchical", int(K), int(seed), d))
                key = (n, K)
                best[key] = min(best.get(key, math.inf), d)
    k_ref = block0 if block0 in blocks else blocks[0]
    lo, hi = min(n_list), max(n_list)
    ratio = best[(hi, k_ref)] / best[(lo, k_ref)]
    ratio_all = max(best[(n, k_ref)] for n in n_list) / best[(lo, k_ref)]
    checks = (
        _at_most("largest_vs_smallest_ratio", ratio, 1.5),
        _at_most("all_sizes_ratio", ratio_all, 1.5),
    )
    files = {"signs_trend.csv": (("n", "solver", "K", "seed", "discrepancy"), rows)}
    notes = tuple(
        f"K={K}: every block search is exhaustive, so the seeds are inert; "
        "one solve per n serves every seed row"
        for K in dict.fromkeys(inert)
    )
    return checks, files, "signs_trend.csv", "line", notes


def _exp_iid_vs_hierarchical(cfg):
    n_list = tuple(_params(cfg)["n_list"])
    seeds = cfg.seeds or tuple(range(200))
    block, retries, hseed, lam = _solver_args(cfg)
    rows = []
    medians = []
    for n in n_list:
        V = build_synthetic_matrix(n, "exact_decay")
        eps = np.stack([solve_iid(V, s).eps for s in seeds]).T.astype(float)
        disc = np.max(np.abs(V.values @ eps), axis=0)
        for s, d in zip(seeds, disc):
            rows.append((int(n), "iid", 0, int(s), float(d)))
        medians.append(float(np.median(disc)))
        dh = row_discrepancy(V, solve_hierarchical(V, block, retries, hseed, lam))
        rows.append((int(n), "hierarchical", int(block), int(hseed), dh))
    increasing = all(a < b for a, b in zip(medians, medians[1:]))
    span = medians[-1] - medians[0]
    checks = (
        _at_least("iid_median_strictly_increasing", float(increasing), 1.0),
        ("iid_median_span", span, 0.0, span > 0.0),  # strictly: a flat trend fails
    )
    files = {"iid_vs_hierarchical.csv": (("n", "solver", "K", "seed", "discrepancy"), rows)}
    return checks, files, "iid_vs_hierarchical.csv", "line", ()


def _exp_df_stats(cfg):
    p = _params(cfg)
    seeds = cfg.seeds or tuple(range(10000))
    phi = np.array([sample_df(1, s).y[1] for s in seeds])
    ks = ks_uniform_statistic(phi)
    mean_gap = abs(float(np.mean(phi)) - 0.5)
    # q -> 1 collapses the confinement to the whole parent interval, so the
    # psi sampler must reproduce plain midpoint placement on the same seeds
    couple_gap = 0.0
    depth = p["coupling_depth"]
    for s in seeds[: p["coupling_seeds"]]:
        a = sample_psi_q(DFParams(depth, 1.0), s)
        b = sample_df(depth, s)
        couple_gap = max(couple_gap, float(np.max(np.abs(a.y - b.y))))
    checks = (
        _at_most("ks_uniform", ks, 0.02),
        _at_most("mean_gap", mean_gap, 0.01),
        _at_most("coupling_gap", couple_gap, 0.0),
    )
    files = {
        "df_stats.csv": (
            ("seed", "phi_half"),
            [(int(s), float(v)) for s, v in zip(seeds, phi)],
        )
    }
    return checks, files, None, None, ()


def _exp_psi_q_certificates(cfg):
    p = _params(cfg)
    q_list = tuple(p["q_list"])
    depth = p["depth"]
    seeds = cfg.seeds or tuple(range(1000))
    rows = []
    all_ok = True
    slack_min = math.inf
    for q in q_list:
        params = DFParams(depth, q)
        for s in seeds:
            rep = verify_mass_ratios(sample_psi_q(params, s), params)
            all_ok = all_ok and rep.passed
            slack_min = min(slack_min, rep.worst_slack)
            rows.append((params.q, int(s), rep.worst_slack, int(rep.passed)))
    # a certificate passes down to verify_mass_ratios' tolerance
    checks = (
        _at_least("all_certified", float(all_ok), 1.0),
        _at_least("worst_slack_min", slack_min, -_SLACK_TOL),
    )
    files = {"psi_q_certificates.csv": (("q", "seed", "worst_slack", "passed"), rows)}
    return checks, files, "psi_q_certificates.csv", "line", ()


def _exp_anorm_growth(cfg):
    p = _params(cfg)
    n_list = tuple(p["N_list"])
    m = p["m"]
    rows = []
    abrupt = []
    tapered = []
    for N in n_list:
        a = a_norm(oscillation(N, m=m))
        t = a_norm(tapered_oscillation(N, m=m))
        abrupt.append(a)
        tapered.append(t)
        rows.append((int(N), a, t))
    increasing = all(x < y for x, y in zip(abrupt, abrupt[1:]))
    t_ratio = max(tapered) / tapered[0]
    checks = (
        _at_least("abrupt_strictly_increasing", float(increasing), 1.0),
        _at_most("tapered_max_over_first", t_ratio, 2.0),
    )
    files = {"anorm_growth.csv": (("N", "abrupt_anorm", "tapered_anorm"), rows)}
    return checks, files, "anorm_growth.csv", "line", ()


def _derand_corpus(cfg):
    """derand-full's corpus: the config's, else the m=12 perturbed square."""
    return cfg.corpus or CorpusSpec("perturbed_square", {"rank": 5, "jitter": 0.5, "seed": 1}, 12)


def _check_anorm_growth(cfg, p):
    # the count convention puts N sign changes on [0, 1/2], which the 2**m
    # grid resolves with at least two points per half cycle: 4 N <= 2**m
    m = _exponent(p["m"])
    top = max(p["N_list"])
    if 4 * top > 1 << m:
        raise ResolutionError(f"N={top} needs a grid finer than 2**{m} (N <= 2**(m-2))")


def _check_ac_diagnostics(cfg, p):
    # a growth ratio needs two levels, and a sample has depth of them
    if DFParams(p["depth"]).depth < 2:
        raise ValueError("depth must be at least 2, for two levels")
    _check_p_list(p["p_list"])


def _check_derand_full(cfg, p):
    m = _derand_corpus(cfg).m
    n_max = _check_n_max(p["n_max"], m)
    # run's degrees: the derand section's, else the default ladder
    _resolve_degrees((cfg.derand or DerandConfig()).degrees, m, n_max)
    # compose reads compose_m, and sup_partial_sums the degrees 1 .. r_max,
    # which are there, positive and resolved if r_max is
    _check_degree(_exponent(p["compose_m"]), *_whole_degrees((p["r_max"],), 1))


def _exp_derand_full(cfg):
    spec = _derand_corpus(cfg)
    f = spec.build()
    p = _params(cfg)
    n_max, compose_m, r_max = p["n_max"], p["compose_m"], p["r_max"]
    dcfg = cfg.derand or DerandConfig()
    res = derand_run(f, n_max, dcfg, label=spec.label())
    shape = record_shape_check(res.records)
    h = res.homeo
    cert = verify_mass_ratios(h, DFParams(depth=n_max, q=res.q, orientation="direct"))
    degrees = range(1, r_max + 1)
    sup_warp = max(s for _, s in sup_partial_sums(compose(f, h, compose_m), degrees))
    base = compose(f, identity_homeo(), compose_m)
    sup_base = max(s for _, s in sup_partial_sums(base, degrees))
    sup_f = f.sup_norm()

    manifest = dict(res.manifest)
    manifest["shape_check"] = shape
    manifest["certificate"] = json.loads(cert.to_json())
    manifest["sup_warped"] = sup_warp
    manifest["sup_baseline"] = sup_base
    files = {
        "manifest.json": json.dumps(manifest, sort_keys=True, indent=2, default=float) + "\n",
        "homeo.json": homeo_to_json(h) + "\n",
        "deviations.csv": (
            ("n", "ell", "r", "sup_dev"),
            [(rec.n, rec.ell, rec.r, rec.sup_dev) for rec in res.records],
        ),
    }
    checks = [
        _at_most("identity_max", res.identity_max, dcfg.identity_tol),
        _at_least("shape_fraction", shape["fraction"], _SHAPE_BAR),
        _at_least("certificate", float(cert.passed), 1.0),
        _at_most("sup_vs_3norm", sup_warp, 3.0 * sup_f),
    ]
    if spec.kind == "kk_example":
        checks.append(_at_most("sup_vs_baseline", sup_warp, sup_base))
    return tuple(checks), files, "deviations.csv", "heatmap", ()


def _exp_ac_diagnostics(cfg):
    spec = cfg.corpus or CorpusSpec("tapered_oscillation", {"n_cycles": 8}, 14)
    f = spec.build()
    p = _params(cfg)
    depth = p["depth"]
    seeds = cfg.seeds or tuple(range(8))
    q = confinement_map(f, depth=depth).with_floor()
    params = DFParams(depth, q)
    rows = []
    all_ok = True
    worst = 0.0
    for s in seeds:
        h = sample_psi_q(params, s)
        rep = ac_diagnostics(h, p["p_list"])
        all_ok = all_ok and rep.consistent
        worst = max(worst, rep.worst_ratio)
        for i, pv in enumerate(rep.p_values):
            for j, lev in enumerate(rep.levels):
                rows.append((int(s), pv, int(lev), rep.norms[i][j]))
    checks = (
        _at_least("all_consistent", float(all_ok), 1.0),
        _at_most("worst_growth_ratio", worst, 1.0 + _GROWTH_TOL),
    )
    files = {"ac_diagnostics.csv": (("seed", "p", "level", "norm"), rows)}
    return checks, files, None, None, ()


class _Experiment(NamedTuple):
    """An experiment's function, the config sections it reads, its `params`
    keys with their defaults, and the check, on the config and its params,
    that raises ValueError for counts the experiment cannot take.
    ExperimentConfig rejects any other section unless it is empty, any
    other params key, and any config the check rejects."""

    run: Callable
    sections: tuple
    params: dict
    check: Callable | None = None


EXPERIMENTS = {
    "kernel-decay": _Experiment(_exp_kernel_decay, (), {"n_list": (8, 16, 64, 256)}),
    "signs-trend": _Experiment(
        _exp_signs_trend,
        ("solver", "seeds"),
        {"n_list": (64, 128, 256, 512, 1024, 2048, 4096), "blocks": (8,)},
    ),
    "iid-vs-hierarchical": _Experiment(
        _exp_iid_vs_hierarchical, ("solver", "seeds"), {"n_list": (64, 512, 4096)}
    ),
    "df-stats": _Experiment(
        _exp_df_stats,
        ("seeds",),
        {"coupling_depth": 6, "coupling_seeds": 32},
        lambda cfg, p: DFParams(p["coupling_depth"]),
    ),
    "psi-q-certificates": _Experiment(
        _exp_psi_q_certificates,
        ("seeds",),
        {"q_list": (0.25, 0.5, 0.75, 0.9), "depth": 10},
        lambda cfg, p: [DFParams(p["depth"], q) for q in p["q_list"]],
    ),
    "anorm-growth": _Experiment(
        _exp_anorm_growth,
        (),
        {"N_list": (16, 32, 64, 128, 256, 512), "m": 14},
        _check_anorm_growth,
    ),
    "derand-full": _Experiment(
        _exp_derand_full,
        ("corpus", "derand"),
        {"n_max": 7, "compose_m": 16, "r_max": 512},
        _check_derand_full,
    ),
    "ac-diagnostics": _Experiment(
        _exp_ac_diagnostics,
        ("corpus", "seeds"),
        {"depth": 12, "p_list": (1.0, 2.0, 4.0)},
        _check_ac_diagnostics,
    ),
}


# what each list-valued params key holds; every such list must be nonempty
_LISTS = {
    "n_list": "positive integers",
    "N_list": "positive integers",
    "blocks": "block sizes",
    "q_list": "budgets in (0, 1]",
    "p_list": "finite reals >= 1",
}

# the size lists whose experiments check a trend across the sizes, which
# one size cannot show: their checks would pass without one, or fail late
_TRENDS = {("signs-trend", "n_list"), ("iid-vs-hierarchical", "n_list"), ("anorm-growth", "N_list")}


def _params(cfg: ExperimentConfig) -> dict:
    return {**EXPERIMENTS[cfg.experiment].params, **cfg.params}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Dispatch to the named experiment and write its outputs.

    The experiment's tables (.csv) and JSON files (.json) are written when
    their format is selected, in the order the experiment lists them. The
    output directory always receives config_echo.json and version.txt; the
    plot and the JSON report follow the formats selection.
    """
    out = cfg.output_dir or os.environ.get("CIRCLEWARP_OUT", "") or "."
    os.makedirs(out, exist_ok=True)
    t0 = time.perf_counter()
    checks, files, plot_src, plot_kind, notes = EXPERIMENTS[cfg.experiment].run(cfg)
    outputs = []
    for name, content in files.items():
        if os.path.splitext(name)[1][1:] not in cfg.formats:
            continue
        path = os.path.join(out, name)
        if isinstance(content, str):
            outputs.append(_atomic_write(path, content))
        else:
            outputs.append(_write_csv(path, *content))
    outputs.append(_atomic_write(os.path.join(out, "config_echo.json"), cfg.to_json()))
    outputs.append(_atomic_write(os.path.join(out, "version.txt"), _provenance()))
    if "svg" in cfg.formats and plot_src is not None and "csv" in cfg.formats:
        outputs.append(emit_plot(os.path.join(out, plot_src), plot_kind))
    report = ExperimentReport(
        experiment=cfg.experiment,
        passed=all(ok for (_, _, _, ok) in checks),
        checks=tuple(checks),
        outputs=tuple(outputs),
        runtime_s=time.perf_counter() - t0,
        notes=tuple(notes),
    )
    if "json" in cfg.formats:
        _atomic_write(os.path.join(out, "report.json"), report.to_json())
    return report


def _provenance() -> str:
    """version.txt: the package version, the NumPy version and the number
    of CPUs this process may run on."""
    try:
        from importlib.metadata import version

        tool = version("circlewarp")
    except Exception:
        tool = "0.1.0+local"
    return f"circlewarp {tool}\nnumpy {np.__version__}\nnproc {_usable_cpus()}\n"
