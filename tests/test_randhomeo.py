"""Random homeomorphism samplers, certificates, and AC diagnostics."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlewarp import (
    DFParams,
    DyadicPoint,
    PLHomeo,
    ResolutionError,
    ac_diagnostics,
    confinement_map,
    ks_uniform_statistic,
    sample_df,
    sample_psi_q,
    verify_mass_ratios,
)
from circlewarp.corpus import tapered_oscillation


# --- DFParams validation ------------------------------------------------


def test_params_rejects_bad_depth():
    with pytest.raises(ValueError):
        DFParams(0)
    with pytest.raises(ResolutionError):
        DFParams(25)


def test_params_rejects_bad_budget():
    with pytest.raises(ValueError):
        DFParams(4, q=0.0)
    with pytest.raises(ValueError):
        DFParams(4, q=1.5)


def test_params_requires_floored_budget_map():
    q = confinement_map(tapered_oscillation(4, m=10), depth=6)
    with pytest.raises(ValueError):
        DFParams(6, q=q)
    DFParams(6, q=q.with_floor())  # floored map is accepted


def test_params_default_orientation():
    assert DFParams(4, q=0.5).orientation == "direct"
    q = confinement_map(tapered_oscillation(4, m=10), depth=4).with_floor()
    assert DFParams(4, q=q).orientation == "inverse"
    with pytest.raises(ValueError):
        DFParams(4, q=0.5, orientation="sideways")


# --- Unconfined sampler -------------------------------------------------


def test_sample_df_rejects_bad_depth():
    with pytest.raises(ValueError):
        sample_df(0, seed=1)
    with pytest.raises(ResolutionError):
        sample_df(30, seed=1)


def test_sample_df_strictly_increasing():
    for seed in range(5):
        h = sample_df(8, seed)
        assert h.y[0] == 0.0 and h.y[-1] == 1.0
        assert np.all(np.diff(h.y) > 0)


def test_sample_df_seed_determinism():
    a = sample_df(9, 123)
    b = sample_df(9, 123)
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, sample_df(9, 124).y)


def test_deepening_preserves_shallow_draws():
    # counter-based stream: rank-n draws do not depend on the total depth
    shallow = sample_df(4, 77)
    deep = sample_df(8, 77)
    assert np.array_equal(shallow.y, deep.y[::16])


def test_depth_one_image_law():
    # midpoint image is uniform on (0, 1): mean 1/2 and small KS distance
    vals = np.array([sample_df(1, s).y[1] for s in range(10000)])
    assert abs(vals.mean() - 0.5) <= 0.01
    assert ks_uniform_statistic(vals) <= 0.02


# --- Confined sampler ---------------------------------------------------


def test_full_budget_matches_unconfined_bitwise():
    for seed in (0, 1, 42):
        a = sample_psi_q(DFParams(8, q=1.0), seed)
        b = sample_df(8, seed)
        assert np.array_equal(a.y, b.y)


def test_constant_budget_ratio_bounds_every_sample():
    for q in (0.3, 0.7):
        params = DFParams(8, q=q)
        for seed in range(5):
            h = sample_psi_q(params, seed)
            rep = verify_mass_ratios(h, params)
            assert rep.passed
            assert rep.worst_slack >= 0.0
            lo, hi = 0.5 * (1 - q), 0.5 * (1 + q)
            assert lo <= rep.worst_ratio <= hi


def test_half_budget_interval_mass_floor_exhaustive():
    # (1 - q)/2 = 0.25 at q = 0.5, so every rank-r image mass is >= 0.25^r
    for seed in (0, 5):
        h = sample_psi_q(DFParams(10, q=0.5), seed)
        for r in range(1, 11):
            grid = np.arange((1 << r) + 1) / (1 << r)
            masses = np.diff(h.eval(grid))
            assert np.all(masses >= 0.25 ** r * (1.0 - 1e-12))


def test_inverse_orientation_structure():
    # the recursion builds the inverse map, so inverting the sample
    # recovers dyadic breakpoints on the x axis bitwise
    h = sample_psi_q(DFParams(6, q=0.5, orientation="inverse"), 3)
    g = h.inverse()
    assert np.array_equal(g.x, np.arange(65) / 64)


def test_confined_seed_determinism():
    params = DFParams(7, q=0.4)
    assert np.array_equal(sample_psi_q(params, 9).y, sample_psi_q(params, 9).y)


@settings(max_examples=40, deadline=None)
@given(
    depth=st.integers(min_value=1, max_value=6),
    q=st.floats(min_value=0.05, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_every_sample_passes_certificate(depth, q, seed):
    params = DFParams(depth, q=q)
    h = sample_psi_q(params, seed)
    assert np.all(np.diff(h.y) > 0)
    assert verify_mass_ratios(h, params).passed


# --- Mass-ratio certificate ---------------------------------------------


def test_certificate_counts_every_midpoint():
    params = DFParams(5, q=0.6)
    rep = verify_mass_ratios(sample_psi_q(params, 2), params)
    assert rep.checks == (1 << 5) - 1
    assert rep.depth == 5


def test_certificate_flags_hand_built_violation():
    # midpoint at 0.99 of its parent breaks the q = 0.5 bound [0.25, 0.75]
    bad = PLHomeo(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.99, 1.0]))
    rep = verify_mass_ratios(bad, DFParams(1, q=0.5))
    assert not rep.passed
    assert rep.worst_point == DyadicPoint(1, 1)
    assert rep.worst_ratio == pytest.approx(0.99, abs=1e-12)
    assert rep.worst_slack < 0


def test_certificate_reports_holder_exponents():
    # lower bound (1-q)/2 = 1/4 per halving forces |psi(I)| >= |I|^2 at q = 0.5
    params = DFParams(4, q=0.5)
    rep = verify_mass_ratios(sample_psi_q(params, 0), params)
    lo, hi = rep.holder_exponents
    assert lo == pytest.approx(math.log2(4.0 / 3.0), abs=1e-15)
    assert hi == pytest.approx(2.0, abs=1e-15)


def test_certificate_no_exponents_for_budget_map():
    f = tapered_oscillation(4, m=10)
    params = DFParams(6, q=confinement_map(f, depth=6).with_floor())
    rep = verify_mass_ratios(sample_psi_q(params, 1), params)
    assert rep.passed
    assert rep.holder_exponents is None


def test_certificate_json_round_trip():
    params = DFParams(4, q=0.5)
    rep = verify_mass_ratios(sample_psi_q(params, 0), params)
    payload = json.loads(rep.to_json())
    assert payload["passed"] is True
    assert payload["checks"] == rep.checks
    assert payload["worst_point"] == {"k": rep.worst_point.k, "n": rep.worst_point.n}


# --- KS statistic -------------------------------------------------------


def test_ks_statistic_known_values():
    assert ks_uniform_statistic([0.5]) == pytest.approx(0.5, abs=1e-15)
    assert ks_uniform_statistic([0.25, 0.75]) == pytest.approx(0.25, abs=1e-15)


def test_ks_statistic_rejects_bad_input():
    with pytest.raises(ValueError):
        ks_uniform_statistic([])
    with pytest.raises(ValueError):
        ks_uniform_statistic([-0.1, 0.5])


# --- AC diagnostics -----------------------------------------------------


def test_ac_identity_all_norms_one():
    grid = np.arange(257) / 256
    rep = ac_diagnostics(PLHomeo(grid, grid.copy()))
    assert all(v == pytest.approx(1.0, abs=1e-12) for row in rep.norms for v in row)
    assert rep.consistent
    assert rep.worst_ratio == pytest.approx(1.0, abs=1e-12)


def test_ac_flags_singular_sample():
    # at q = 0.99 the difference-quotient norms keep growing with the level
    for seed in (0, 1, 2):
        h = sample_psi_q(DFParams(12, q=0.99), seed)
        rep = ac_diagnostics(h)
        assert not rep.consistent
        assert rep.worst_ratio > 1.1


def test_ac_accepts_adaptive_budget_sample():
    f = tapered_oscillation(8, m=14)
    params = DFParams(12, q=confinement_map(f, depth=12).with_floor())
    h = sample_psi_q(params, 0)
    rep = ac_diagnostics(h, (1.0, 2.0, 4.0))
    assert rep.consistent
    assert verify_mass_ratios(h, params).passed


def test_ac_rejects_bad_arguments():
    grid = np.arange(17) / 16
    ident = PLHomeo(grid, grid.copy())
    with pytest.raises(ValueError):
        ac_diagnostics(ident, p_list=(0.5,))
    with pytest.raises(ValueError):
        ac_diagnostics(ident, window=1)
