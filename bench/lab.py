"""The lab workload: the acceptance gate's kernels without derand runs.

Solver, sweeps, samplers, certificates and two CLI experiments, with the
gate's own inputs at the default seed. Any other seed moves the
perturbed_square jitter seed and every random draw (solver seeds, i.i.d.
signs, sampler seeds) to a disjoint range, and only the invariant checks
apply.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from circlewarp import (
    CorpusSpec,
    DFParams,
    ExperimentConfig,
    a_norm,
    ac_diagnostics,
    build_synthetic_matrix,
    compose,
    confinement_map,
    identity_homeo,
    kernel_block_matrix,
    ks_uniform_statistic,
    oscillation,
    row_discrepancy,
    run_experiment,
    sample_df,
    sample_psi_q,
    solve_hierarchical,
    solve_iid,
    sup_partial_sums,
    tapered_oscillation,
    verify_mass_ratios,
)
from circlewarp.fourier import circ_dist

import pins
from harness import DEFAULT_SEED, sha256

HERE = Path(__file__).resolve().parent
SIZES = (64, 512, 4096)
ANORM_SIZES = (16, 32, 64, 128, 256, 512)


def _draw_base(seed: int) -> int:
    """First draw index of a seed; the default seed keeps the gate's draws."""
    return (seed - DEFAULT_SEED) * 100_000


def setup(name: str, seed: int, tr):
    with tr.time("corpus.build_s"):
        corpora = {
            "perturbed_square": CorpusSpec(
                "perturbed_square", {"rank": 5, "jitter": 0.5, "seed": seed}, 12
            ).build(),
            "kk_example": CorpusSpec("kk_example", {"k_max": 4}, 12).build(),
        }
        taper = tapered_oscillation(8, m=14)
    with tr.time("haar.confinement_map_s"):
        budget = confinement_map(taper, depth=12).with_floor()
    return corpora, budget


def untraced(name: str, inputs, seed: int, tr) -> dict:
    """One pass over the lab; returns every value the checks look at."""
    corpora, budget = inputs
    base = _draw_base(seed)
    out = {}

    mats = {n: build_synthetic_matrix(n, "exact_decay") for n in SIZES[:-1]}
    with tr.time("signs.build_s.n4096"):
        mats[4096] = build_synthetic_matrix(4096, "exact_decay")
    for n in SIZES:
        with tr.time(f"signs.solve_s.n{n}"):
            eps = solve_hierarchical(mats[n], 8, 64, base, 0.5)
        out[f"disc.n{n}"] = row_discrepancy(mats[n], eps)
    medians = []
    for n in SIZES:
        with tr.time(f"signs.iid_s.n{n}"):
            v = mats[n]
            eps = np.stack([solve_iid(v, s).eps for s in range(base, base + 200)]).T
            sums = v.values @ eps.astype(float)
            medians.append(float(np.median(np.max(np.abs(sums), axis=0))))
    out["iid_medians"] = medians
    del mats, eps, sums

    for key, f in corpora.items():
        with tr.time("grid.compose_s.m16"):
            g = compose(f, identity_homeo(), 16)
        with tr.time("fourier.sweep_s.m16"):
            out[f"base_sup.{key}"] = max(s for _, s in sup_partial_sums(g, range(1, 513)))
        out[f"compose_exact.{key}"] = bool(np.array_equal(g.values[:: 1 << (16 - f.m)], f.values))

    waves = [oscillation(n, m=14) for n in ANORM_SIZES]
    tapered = [tapered_oscillation(n, m=14) for n in ANORM_SIZES]
    with tr.time("fourier.a_norm_s"):
        out["anorm_abrupt"] = [a_norm(w) for w in waves]
        out["anorm_tapered"] = [a_norm(w) for w in tapered]

    worst_c = worst_gap = 0.0
    for n in (8, 16, 64, 256):
        with tr.time("fourier.kernel_block_s"):
            mat = kernel_block_matrix(n)
        kk, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        worst_c = max(worst_c, float(np.max(np.abs(mat) * (circ_dist(kk, jj, n) + 1.0))))
        worst_gap = max(worst_gap, float(np.max(np.abs(mat.sum(axis=0) - 1.0))))
    out["kernel_c"], out["kernel_gap"] = worst_c, worst_gap

    bad = 0
    with tr.time("randhomeo.certs_s"):
        for q in (0.25, 0.5, 0.75, 0.9):
            params = DFParams(10, q)
            for s in range(base, base + 250):
                if not verify_mass_ratios(sample_psi_q(params, s), params).passed:
                    bad += 1
    out["certs_bad"] = bad

    params = DFParams(12, budget)
    worst, consistent = 0.0, True
    with tr.time("randhomeo.ac_diag_s"):
        for s in range(base, base + 8):
            rep = ac_diagnostics(sample_psi_q(params, s), (1.0, 2.0, 4.0))
            consistent = consistent and rep.consistent
            worst = max(worst, rep.worst_ratio)
    out["ac_worst"], out["ac_consistent"] = worst, consistent

    with tr.time("randhomeo.sample_df_s"):
        phi = np.array([sample_df(1, s).y[1] for s in range(base, base + 10_000)])
        out["ks"] = ks_uniform_statistic(phi)
        out["coupled"] = all(
            np.array_equal(sample_psi_q(DFParams(d, 1.0), s).y, sample_df(d, s).y)
            for d in (1, 4, 7)
            for s in range(base, base + 12)
        )

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        written = 0
        for exp, seeds in (("kernel-decay", ()), ("df-stats", range(base, base + 10_000))):
            cfg = ExperimentConfig(exp, seeds=tuple(seeds), output_dir=str(Path(tmp) / exp))
            with tr.time(f"experiments.{exp}_s"):
                report = run_experiment(cfg)
            out[f"{exp}.passed"] = report.passed
            tables = {}
            for path in map(Path, report.outputs):
                if path.suffix in (".csv", ".svg"):
                    data = path.read_bytes()
                    written += len(data)
                    if path.suffix == ".csv":
                        tables[path.name] = sha256(data)
            out[f"{exp}.tables"] = tables
        tr.add("experiments.bytes_written", written)
    return out


# the lab makes no probes: tracing only records its spans
traced = untraced


def check(name: str, inputs, seed: int, out: dict, checks) -> None:
    corpora = inputs[0]
    pinned = seed == DEFAULT_SEED
    pin = pins.LAB

    ratio = out["disc.n4096"] / out["disc.n64"]
    checks.check("AC-1 discrepancy ratio n=4096/n=64", ratio <= 1.5, f"{ratio:.4f} <= 1.5")
    m = out["iid_medians"]
    checks.check("AC-2 i.i.d. medians increase", m[0] < m[1] < m[2], repr(m))
    for key in corpora:
        checks.check(f"AC-3c {key} identity compose is exact", out[f"compose_exact.{key}"])
        sup = out[f"base_sup.{key}"]
        checks.check(f"AC-3c {key} baseline sup finite", bool(np.isfinite(sup)), repr(sup))
    ab, tp = out["anorm_abrupt"], out["anorm_tapered"]
    t_ratio = max(tp) / tp[0]
    checks.check("AC-5 abrupt a_norm increases", all(x < y for x, y in zip(ab, ab[1:])))
    checks.check("AC-5 tapered a_norm ratio", t_ratio <= 2.0, f"{t_ratio:.4f} <= 2")
    checks.check("AC-6 decay constant", out["kernel_c"] <= 4.0, f"{out['kernel_c']:.4f} <= 4")
    checks.check("AC-6 row sums", out["kernel_gap"] <= 1e-8, f"{out['kernel_gap']:.2e} <= 1e-8")
    checks.check("AC-4 sampled certificates", out["certs_bad"] == 0, f"{out['certs_bad']} bad")
    checks.check("AC-9 KS statistic", out["ks"] <= 0.02, f"{out['ks']:.4f} <= 0.02")
    checks.check("AC-9 q=1 coupling", out["coupled"])
    for exp in ("kernel-decay", "df-stats"):
        checks.check(f"experiment {exp} report passes", out[f"{exp}.passed"])
    if not pinned:
        return
    # the growth bar of AC-4 is calibrated on the gate's eight draws, so it
    # is a pin rather than an invariant
    checks.check(
        "AC-4 growth diagnostics", out["ac_consistent"] and out["ac_worst"] <= 1.1
    )
    checks.close("AC-4 worst growth ratio", out["ac_worst"], pin["ac_worst"], 1e-9)
    for n in SIZES:
        checks.close(f"AC-1 discrepancy n={n}", out[f"disc.n{n}"], pin[f"disc.n{n}"], 1e-9)
    for n, got, want in zip(SIZES, m, pin["iid_medians"]):
        checks.close(f"AC-2 i.i.d. median n={n}", got, want, 1e-9)
    for key in corpora:
        checks.close(f"AC-3c {key} baseline sup", out[f"base_sup.{key}"], pin[f"base_sup.{key}"], 1e-6)
    checks.close("AC-5 abrupt a_norm n=16", ab[0], pin["anorm_first"], 1e-5)
    checks.close("AC-5 abrupt a_norm n=512", ab[-1], pin["anorm_last"], 1e-5)
    checks.close("AC-5 tapered ratio", t_ratio, pin["anorm_taper_ratio"], 1e-6)
    checks.close("AC-6 decay constant", out["kernel_c"], pin["kernel_c"], 1e-9)
    checks.close("AC-9 KS statistic", out["ks"], pin["ks"], 1e-9)
    for exp in ("kernel-decay", "df-stats"):
        checks.equal(f"experiment {exp} tables sha256", out[f"{exp}.tables"], pin[f"{exp}.tables"])
