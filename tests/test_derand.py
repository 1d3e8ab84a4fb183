"""Derandomization loop: expectation engines, halving choices, full runs."""

import dataclasses
import hashlib
import math
import os
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from circlewarp import (
    DFParams,
    DerandConfig,
    DerandState,
    DeviationRecord,
    NumericalAlarm,
    ResolutionError,
    SampledFunction,
    advance,
    assemble_v_matrix,
    choose_halves,
    confinement_map,
    default_degrees,
    expected_composition,
    homeo_to_json,
    mc_cross_check,
    normalize_sup,
    record_shape_check,
    run,
    solve_bruteforce,
    verify_mass_ratios,
)
from circlewarp import _fork, derand
from circlewarp.corpus import CorpusSpec, tapered_oscillation
from circlewarp.experiments import _write_csv
from circlewarp.rng import tagged_generator

DEGREES = (1, 2, 4, 8, 16)


def taper_state():
    f = tapered_oscillation(4, m=8)
    q = confinement_map(f, depth=8).with_floor()
    return DerandState.initial(f, q)


# --- config and state validation -----------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        DerandConfig(ell_max=-1)
    with pytest.raises(ValueError):
        DerandConfig(j_tol=1.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("name", ["row_tol", "null_tol", "identity_tol"])
def test_config_rejects_tolerances_that_are_not_finite(name, bad):
    # a NaN row_tol would keep no row and steer nothing; a NaN identity_tol
    # would fail a residual of 1e-15
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
        DerandConfig(**{name: bad})


@pytest.mark.parametrize("degrees", [(1.5,), (4, 2.5), (), (2, 0)])
def test_config_rejects_degrees_that_are_not_positive_integers(degrees):
    # int(1.5) is 1: a fractional degree would be tracked as another one
    with pytest.raises(ValueError, match="degrees must be a nonempty tuple of positive integers"):
        DerandConfig(degrees=degrees)


def test_config_keeps_whole_float_degrees():
    assert DerandConfig(degrees=[4.0, 1]).degrees == (4, 1)
    assert DerandConfig(degrees=(np.int64(2), np.float64(8.0))).degrees == (2, 8)


BAD_DEGREES = [(2.9, 4), (1.5, 3), (True, 4), (False,), ("2",), "24", 4, (2, float("nan"))]


def degree_steps():
    """Each public step, and DerandConfig, as a call on one degree argument."""
    state = taper_state()
    cfg = DerandConfig(mc_check=False, ell_max=1)
    return {
        "config": lambda d: DerandConfig(degrees=d),
        "assemble_v_matrix": lambda d: assemble_v_matrix(state, d, cfg),
        "choose_halves": lambda d: choose_halves(state, cfg, d),
        "advance": lambda d: advance(state, cfg, d),
    }


@pytest.mark.parametrize("degrees", BAD_DEGREES, ids=repr)
@pytest.mark.parametrize("step", ["config", "assemble_v_matrix", "choose_halves", "advance"])
def test_steps_reject_degrees_that_are_not_positive_integers(step, degrees):
    # int() would track 2.9 as 2, 1.5 as 1 and True as 1 without a word
    with pytest.raises(ValueError, match="degrees must be a nonempty tuple of positive integers"):
        degree_steps()[step](degrees)


@pytest.mark.parametrize("step", ["assemble_v_matrix", "choose_halves", "advance"])
def test_steps_take_whole_float_degrees(step):
    call = degree_steps()[step]
    got, want = call((4, 2.0)), call([2, 4])
    if step == "assemble_v_matrix":
        assert np.array_equal(got.values, want.values)
    else:
        assert np.array_equal(got[0].j_lo, want[0].j_lo) and got[1] == want[1]


def test_config_rejects_a_boolean_ell_max():
    with pytest.raises(ValueError, match="ell_max must be a nonnegative integer"):
        DerandConfig(ell_max=True)


SETTINGS = [
    "ell_max", "j_tol", "degrees", "row_tol", "null_tol", "identity_tol", "mc_check", "mc_samples",
]
CONSTANTS = {
    "solver_block": 8,
    "solver_retries": 64,
    "solver_seed": 0,
    "solver_lam": 0.5,
    "q_floor_exponent": 0.25,
    "mc_seed": 2718,
    "mc_floor": 1e-4,
    "mc_exceed_frac": 0.10,
    "shallow_rank_max": 3,
    "y_panels_shallow": 16,
    "y_panels_deep": 4,
    "y_nodes": 4,
    "level_nodes_shallow": (8, 4, 2, 2),
    "level_nodes_deep": (8, 2),
}


def test_config_needs_two_mc_samples():
    # one path has a standard error of 0, so a guard on it could never pass
    with pytest.raises(ValueError, match="mc_samples must be an integer of at least 2"):
        DerandConfig(mc_samples=1)
    assert DerandConfig(mc_samples=2).mc_samples == 2


def test_config_fields_are_the_settings():
    assert [f.name for f in dataclasses.fields(DerandConfig)] == SETTINGS
    assert list(dataclasses.asdict(DerandConfig())) == SETTINGS


@pytest.mark.parametrize("name", sorted(CONSTANTS))
def test_config_constants_are_pinned_and_not_settable(name):
    value = getattr(DerandConfig(), name)
    assert type(value) is type(CONSTANTS[name]) and value == CONSTANTS[name]
    with pytest.raises(TypeError):
        DerandConfig(**{name: CONSTANTS[name]})


def test_initial_state_window_concentric():
    s = taper_state()
    assert s.n_active == 1 and s.ell == 0 and s.phase == "active"
    assert np.array_equal(s.fixed_y, [0.0, 1.0])
    q1 = s.q.value(1, 1)
    assert s.j_lo[0] + s.j_hi[0] == pytest.approx(1.0, abs=1e-15)
    assert s.j_hi[0] - s.j_lo[0] == pytest.approx(q1, abs=1e-15)


def test_state_validation():
    f = tapered_oscillation(4, m=8)
    q = confinement_map(f, depth=8).with_floor()
    with pytest.raises(ValueError):  # pinned images must increase
        DerandState(f, q, 2, 0, np.array([0.0, 0.7, 0.4]), np.array([0.1, 0.5]), np.array([0.2, 0.6]))
    with pytest.raises(ValueError):  # window outside its cell
        DerandState(f, q, 1, 0, np.array([0.0, 1.0]), np.array([0.2]), np.array([1.3]))
    with pytest.raises(ValueError):  # final states carry no windows
        DerandState(f, q, 1, 0, np.array([0.0, 1.0]), np.array([0.2]), np.array([0.8]), phase="final")
    with pytest.raises(ValueError):  # budget map must floor or reach the grid
        DerandState(f, confinement_map(f, depth=4), 1, 0, np.array([0.0, 1.0]), np.array([0.2]), np.array([0.8]))
    with pytest.raises(ValueError):  # homeo only once fully pinned
        taper_state().homeo()


# --- degree ladder --------------------------------------------------------


def test_default_degrees_ladder():
    got = default_degrees(3, 10)
    assert got == (1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 13, 16, 19, 23, 27, 32)
    assert all(a < b for a, b in zip(got, got[1:]))


def test_degree_cap_enforced():
    s = taper_state()
    with pytest.raises(ResolutionError):
        assemble_v_matrix(s, degrees=(128,))  # 2**(m-1) on an m=8 grid
    with pytest.raises(ValueError):
        assemble_v_matrix(s, degrees=(0, 4))


# --- expectation engine ---------------------------------------------------


def test_expected_composition_refuses_a_final_state():
    f = tapered_oscillation(4, m=8)
    q = confinement_map(f, depth=8).with_floor()
    fixed = np.array([0.0, 0.2, 0.45, 0.8, 1.0])
    s = DerandState(f, q, 3, 0, fixed, np.empty(0), np.empty(0), phase="final")
    with pytest.raises(ValueError, match="a final state has no live windows"):
        expected_composition(s)


def test_expected_composition_constant_function():
    c = SampledFunction(8, np.ones(256))
    q = confinement_map(c, depth=8).with_floor()
    prof = expected_composition(DerandState.initial(c, q))
    assert np.max(np.abs(prof.values - 1.0)) < 1e-12


def test_expected_composition_linear_midpoint():
    # one live coordinate, f(t) = t below the wrap: E f(warp(1/2)) = (a+b)/2
    size = 256
    f = SampledFunction(8, np.arange(size) / size)
    q = confinement_map(f, depth=8).with_floor()
    a, b = 0.3, 0.6
    s = DerandState(f, q, 1, 0, np.array([0.0, 1.0]), np.array([a]), np.array([b]))
    prof = expected_composition(s)
    assert prof.values[size // 2] == pytest.approx(0.5 * (a + b), abs=1e-12)


def test_mc_guard_agrees_on_corpus_function():
    rep = mc_cross_check(taper_state(), DerandConfig(mc_samples=2000))
    assert rep["mean_abs_diff"] <= rep["mean_gate"]
    assert rep["exceed_frac"] <= 0.10
    assert rep["samples"] == 2000


# --- functional matrix ----------------------------------------------------


def test_matrix_constant_function_is_zero():
    c = SampledFunction(8, np.full(256, 0.7))
    q = confinement_map(c, depth=8).with_floor()
    s = DerandState.initial(c, q)
    m = assemble_v_matrix(s, DEGREES, DerandConfig(mc_check=False, row_tol=0.0))
    assert m.values.shape == (len(DEGREES) * 2, 1)
    assert np.max(np.abs(m.values)) < 1e-8


def test_matrix_entries_vanish_as_windows_shrink():
    # the first halving can sharpen the up/down contrast, but from ell = 1
    # on the entries track the window width and fall geometrically
    cfg = DerandConfig(mc_check=False, row_tol=0.0)
    s = taper_state()
    tops = []
    for _ in range(7):
        m = assemble_v_matrix(s, DEGREES, cfg)
        tops.append(float(np.max(np.abs(m.values))))
        s, _, _ = choose_halves(s, cfg, DEGREES)
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(tops[1:], tops[2:]))
    assert tops[-1] < 0.1 * tops[0]


def test_matrix_keeps_every_degree_point_row_at_zero_row_tol():
    m = assemble_v_matrix(taper_state(), DEGREES, DerandConfig(mc_check=False, row_tol=0.0))
    assert m.values.shape == (len(DEGREES) * 2, 1)


def test_averaging_identity_within_tolerance():
    _, _, ident = choose_halves(taper_state(), DerandConfig(mc_check=False), DEGREES)
    assert 0.0 <= ident <= 1e-6


def test_averaging_identity_alarm_carries_context():
    cfg = DerandConfig(mc_check=False, identity_tol=0.0)
    with pytest.raises(NumericalAlarm) as exc:
        assemble_v_matrix(taper_state(), DEGREES, cfg)
    assert set(exc.value.context) == {"n", "ell", "residual", "tol"}


@pytest.mark.parametrize("call", [0, 1], ids=["full-window", "upper-half"])
def test_averaging_identity_alarm_catches_one_nan(call, monkeypatch):
    # max(0.0, nan) is 0.0 and nan > tol is False: a gate built on them
    # passes a NaN in one window profile as a residual of 0.0
    inner = derand._window_profile
    calls = []

    def poisoned(*args):
        out = inner(*args)
        if len(calls) == call:
            out[out.size // 2] = np.nan
        calls.append(1)
        return out

    monkeypatch.setattr(derand, "_window_profile", poisoned)
    with pytest.raises(NumericalAlarm, match="averaging identity") as exc:
        assemble_v_matrix(taper_state(), DEGREES, DerandConfig(mc_check=False))
    assert np.isnan(exc.value.context["residual"])


def test_mc_guard_alarm_catches_one_nan(monkeypatch):
    inner = derand._value_profile

    def poisoned(state, cfg, half=None):
        out = inner(state, cfg, half)
        if not half:  # the whole profile, or its earlier slice
            out[7] = np.nan
        return out

    monkeypatch.setattr(derand, "_value_profile", poisoned)
    with pytest.raises(NumericalAlarm, match="Monte-Carlo") as exc:
        mc_cross_check(taper_state(), DerandConfig(mc_samples=200))
    assert np.isnan(exc.value.context["mean_abs_diff"])


def test_matrix_rejects_final_state():
    f = tapered_oscillation(4, m=8)
    q = confinement_map(f, depth=8).with_floor()
    s = DerandState(f, q, 1, 0, np.array([0.0, 1.0]), np.empty(0), np.empty(0), phase="final")
    with pytest.raises(ValueError):
        assemble_v_matrix(s, DEGREES)


# --- halving choices ------------------------------------------------------


def test_constant_function_halving_is_silent():
    c = SampledFunction(8, np.full(256, 0.7))
    q = confinement_map(c, depth=8).with_floor()
    s0 = DerandState.initial(c, q)
    s1, records, ident = choose_halves(s0, DerandConfig(mc_check=False), DEGREES)
    assert ident == 0.0
    assert all(rec.sup_dev < 1e-10 for rec in records)
    # no signal: the window shrinks concentrically instead of taking a side
    assert 0.5 * (s1.j_lo[0] + s1.j_hi[0]) == 0.5 * (s0.j_lo[0] + s0.j_hi[0])


def test_single_point_choice_matches_bruteforce():
    cfg = DerandConfig(mc_check=False)
    s0 = taper_state()
    eps, _ = solve_bruteforce(assemble_v_matrix(s0, DEGREES, cfg))
    s1, _, _ = choose_halves(s0, cfg, DEGREES)
    mid = 0.5 * (s0.j_lo[0] + s0.j_hi[0])
    if eps.eps[0] > 0:
        assert s1.j_lo[0] == mid and s1.j_hi[0] == s0.j_hi[0]
    else:
        assert s1.j_lo[0] == s0.j_lo[0] and s1.j_hi[0] == mid


def test_windows_halve_exactly_and_nest():
    cfg = DerandConfig(mc_check=False)
    s0 = taper_state()
    s1, records, _ = choose_halves(s0, cfg, DEGREES)
    assert s1.ell == s0.ell + 1
    np.testing.assert_allclose(s1.j_hi - s1.j_lo, 0.5 * (s0.j_hi - s0.j_lo), rtol=1e-12)
    assert np.all(s1.j_lo >= s0.j_lo) and np.all(s1.j_hi <= s0.j_hi)
    assert [(rec.n, rec.ell) for rec in records] == [(1, 0)] * len(DEGREES)
    assert [rec.r for rec in records] == list(DEGREES)
    assert all(rec.sup_dev >= 0.0 for rec in records)


# --- rank promotion -------------------------------------------------------


def test_advance_pins_and_promotes():
    cfg = DerandConfig(mc_check=False, ell_max=3)
    s0 = taper_state()
    s1, records, ident = advance(s0, cfg, DEGREES)
    assert s1.n_active == 2 and s1.ell == 0 and s1.phase == "active"
    assert s1.fixed_y.shape == (3,)
    # the pinned midpoint stays inside the original rank-1 window
    assert s0.j_lo[0] <= s1.fixed_y[1] <= s0.j_hi[0]
    assert np.all(s1.j_lo >= s1.fixed_y[:-1]) and np.all(s1.j_hi <= s1.fixed_y[1:])
    assert ident <= 1e-6
    assert {rec.ell for rec in records} == {0, 1, 2}


def test_advance_rejects_final_state():
    f = tapered_oscillation(4, m=8)
    q = confinement_map(f, depth=8).with_floor()
    s = DerandState(f, q, 1, 0, np.array([0.0, 1.0]), np.empty(0), np.empty(0), phase="final")
    with pytest.raises(ValueError):
        advance(s)


def test_mc_guard_rejects_final_state():
    f = tapered_oscillation(4, m=8)
    q = confinement_map(f, depth=8).with_floor()
    s = DerandState(f, q, 1, 0, np.array([0.0, 1.0]), np.empty(0), np.empty(0), phase="final")
    with pytest.raises(ValueError, match="final state"):
        mc_cross_check(s)


# --- full runs ------------------------------------------------------------


def test_run_constant_function_gives_identity():
    res = run(SampledFunction(8, np.ones(256)), 3, DerandConfig(mc_check=False))
    assert np.array_equal(res.homeo.x, np.arange(9) / 8)
    assert np.array_equal(res.homeo.y, np.arange(9) / 8)
    assert max((rec.sup_dev for rec in res.records), default=0.0) < 1e-10


def test_run_is_deterministic():
    f = tapered_oscillation(4, m=8)
    cfg = DerandConfig(mc_check=False, ell_max=3, degrees=DEGREES)
    a = run(f, 2, cfg)
    b = run(f, 2, cfg)
    assert np.array_equal(a.homeo.y, b.homeo.y)
    assert a.records == b.records
    assert a.identity_max == b.identity_max


def test_run_output_carries_certificate():
    f = tapered_oscillation(4, m=8)
    cfg = DerandConfig(mc_check=False, ell_max=3, degrees=DEGREES)
    res = run(f, 3, cfg)
    q = confinement_map(f, depth=8).with_floor(cfg.q_floor_exponent)
    rep = verify_mass_ratios(res.homeo, DFParams(3, q=q, orientation="direct"))
    assert rep.passed


def test_run_returns_the_budget_map_it_pinned_with():
    f = tapered_oscillation(4, m=8)
    res = run(f, 1, DerandConfig(mc_check=False, ell_max=2, degrees=DEGREES))
    q = confinement_map(f, depth=8).with_floor(DerandConfig.q_floor_exponent)
    assert res.q.floor_exponent == q.floor_exponent
    assert len(res.q.levels) == len(q.levels)
    assert all(np.array_equal(a, b) for a, b in zip(res.q.levels, q.levels))
    # an oversized input is normalized first, and its budget map is the
    # normalized input's
    big = SampledFunction(8, 3.0 * f.values)
    res = run(big, 1, DerandConfig(mc_check=False, ell_max=2, degrees=DEGREES))
    q = confinement_map(normalize_sup(big), depth=8).with_floor(DerandConfig.q_floor_exponent)
    assert res.manifest["normalized"] is True
    assert all(np.array_equal(a, b) for a, b in zip(res.q.levels, q.levels))


def test_run_manifest_and_alarm_guard():
    f = tapered_oscillation(4, m=8)
    res = run(f, 2, DerandConfig(ell_max=2, degrees=DEGREES, mc_samples=2000), label="smoke")
    assert res.manifest["label"] == "smoke"
    assert res.manifest["n_max"] == 2
    assert res.manifest["normalized"] is False
    assert len(res.manifest["mc_reports"]) == 2
    assert res.manifest["breakpoints"] == res.homeo.x.size


def test_run_normalizes_oversized_input():
    f = SampledFunction(8, 3.0 * tapered_oscillation(4, m=8).values)
    res = run(f, 1, DerandConfig(mc_check=False, ell_max=2, degrees=DEGREES))
    assert res.manifest["normalized"] is True
    assert res.manifest["sup_before"] == pytest.approx(3.0, rel=1e-12)


def test_run_depth_guard():
    with pytest.raises(ResolutionError):
        run(tapered_oscillation(4, m=8), 7)
    with pytest.raises(ValueError):
        run(tapered_oscillation(4, m=8), 0)
    # a bool is no rank count, as DerandConfig's ell_max is no halving count
    with pytest.raises(ValueError, match="n_max must be a positive integer"):
        run(tapered_oscillation(4, m=8), True)


@pytest.mark.parametrize("step", [choose_halves, assemble_v_matrix, advance])
def test_one_bit_grid_resolves_no_default_degree(step):
    # a 2-sample grid has degree limit 2**0 = 1, so the default ladder is
    # empty although the caller passed no degrees
    f = SampledFunction(1, np.array([0.0, 0.5]))
    state = DerandState.initial(f, confinement_map(f, depth=1).with_floor())
    with pytest.raises(ResolutionError, match=r"2\*\*1 grid resolves no degree"):
        step(state)


# --- records and reports ----------------------------------------------------


def test_deviation_table_format(tmp_path):
    # the rows derand-full writes to deviations.csv
    records = [DeviationRecord(2, 1, 8, 0.125), DeviationRecord(3, 0, 16, 1.0 / 3.0)]
    rows = [(rec.n, rec.ell, rec.r, rec.sup_dev) for rec in records]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    _write_csv(str(p1), ("n", "ell", "r", "sup_dev"), rows)
    _write_csv(str(p2), ("n", "ell", "r", "sup_dev"), rows)
    text = p1.read_text()
    assert text.splitlines()[0] == "n,ell,r,sup_dev"
    assert text.splitlines()[1] == "2,1,8,0.125"
    assert text.splitlines()[2] == "3,0,16,0.333333333333"
    assert p1.read_bytes() == p2.read_bytes()


def test_shape_check_counts_bin_pairs():
    falling = [
        DeviationRecord(3, 0, 8, 1.0),
        DeviationRecord(3, 0, 4, 0.5),
        DeviationRecord(3, 0, 2, 0.25),
    ]
    rep = record_shape_check(falling)
    assert rep == {"pairs": 2, "nonincreasing": 2, "fraction": 1.0, "passed": True}

    rising = [DeviationRecord(3, 0, 8, 0.1), DeviationRecord(3, 0, 2, 0.5)]
    rep = record_shape_check(rising)
    assert rep["pairs"] == 1 and rep["nonincreasing"] == 0 and not rep["passed"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_shape_check_rejects_non_finite_records(bad):
    # max(0.0, nan) is 0.0, so a NaN would read as a flat-zero bin and the
    # report would say 0.5 instead of failing
    records = [
        DeviationRecord(3, 0, 8, bad),
        DeviationRecord(3, 0, 2, 0.5),
        DeviationRecord(3, 0, 1, 0.25),
    ]
    with pytest.raises(ValueError, match="not finite"):
        record_shape_check(records)


def test_shape_check_skips_noise_groups():
    quiet = [DeviationRecord(2, 0, 4, 1e-15), DeviationRecord(2, 0, 1, 5e-14)]
    rep = record_shape_check(quiet)
    assert rep == {"pairs": 0, "nonincreasing": 0, "fraction": 1.0, "passed": True}


# --- block invariance, profile reuse, window-engine oracle ---------------------


@pytest.fixture(scope="module")
def rank_states():
    """Opening states of ranks 1 .. 3 of the m=8 taper run, cheaply halved."""
    cfg = DerandConfig(mc_check=False, ell_max=2, degrees=DEGREES)
    states = {1: taper_state()}
    for rank in (2, 3):
        states[rank], _, _ = advance(states[rank - 1], cfg, DEGREES)
    return states


def rank_table(m):
    """Rank of every grid index 0 .. 2**m (0 at the ends), set rank by rank."""
    out = np.zeros((1 << m) + 1, dtype=np.int64)
    for rank in range(1, m + 1):
        step = 1 << (m - rank)
        out[step :: 2 * step] = rank
    return out


def window_lines(state):
    """(side, origin, c_hi, c_lo, z1, z2) of every half window, built the
    way the window engine frames each cell: live midpoint at origin + z,
    every deeper point frozen at its conditional center. The points of a
    half window share the float origin and bounds z1, z2; c_hi and c_lo
    hold one slope per point."""
    m, n = state.f.m, state.n_active
    qtab = derand._q_table(state.q, m)
    ranktab = rank_table(m)
    for i in range(state.j_lo.size):
        gl = i << (m - n + 1)
        gr = gl + (1 << (m - n + 1))
        gd = (gl + gr) >> 1
        a, b = float(state.fixed_y[i]), float(state.fixed_y[i + 1])
        y1, y2 = float(state.j_lo[i]), float(state.j_hi[i])
        left = np.arange(gl + 1, gd)
        s = (left - gl) / (gd - gl)
        width = qtab[left] * np.exp2(n - ranktab[left])
        yield "left", a, s + width, s - width, y1 - a, y2 - a
        right = np.arange(gd + 1, gr)
        s = (gr - right) / (gr - gd)
        width = qtab[right] * np.exp2(n - ranktab[right])
        yield "right", b, width - s, -(s + width), b - y2, b - y1


@pytest.mark.parametrize("m", [6, 8, 10, 12])
def test_tail_table_is_the_half_cell_width(m):
    # the window engine reads a point's half width per unit span from the
    # frozen-tail table: qtab[g] * 2**(n - rank(g)) inside a half cell
    f = CorpusSpec("perturbed_square", {"rank": 4, "jitter": 0.5, "seed": 1}, m).build()
    qtab = derand._q_table(confinement_map(f, depth=m).with_floor(), m)
    rank = rank_table(m)
    for n in range(1, m):
        half = 1 << (m - n)
        g = np.arange(1 << m)
        g = g[g % half != 0]  # strictly inside a half cell
        tail = derand._tail_table(qtab, half)
        assert np.array_equal(tail[g], qtab[g] * 2.0 ** (n - rank[g])), (m, n)


def mc_profile_reference(state, n_samples, seed, batch=512):
    """The sampler as first written: fancy-index gathers of whole batches
    and the interpolant in its textbook form."""
    f = state.f
    m = f.m
    size = 1 << m
    n = state.n_active
    v = np.asarray(f.values, dtype=float)
    slopes = (np.roll(v, -1) - v) * size
    qtab = derand._q_table(state.q, m)
    gen = tagged_generator(seed, 0xEC, n)
    coarse = np.arange(state.fixed_y.size) << (m - n + 1)
    d_idx = coarse[:-1] + (1 << (m - n))
    acc = np.zeros(size)
    acc2 = np.zeros(size)
    done = 0
    while done < n_samples:
        bsz = min(batch, n_samples - done)
        Y = np.empty((bsz, size + 1))
        Y[:, coarse] = state.fixed_y[None, :]
        u = gen.random((bsz, d_idx.size))
        Y[:, d_idx] = state.j_lo[None, :] + (state.j_hi - state.j_lo)[None, :] * u
        for rank in range(n + 1, m + 1):
            step = 1 << (m - rank)
            mids = np.arange(step, size, 2 * step)
            qv = qtab[mids][None, :]
            lo = Y[:, mids - step]
            hi = Y[:, mids + step]
            u = gen.random((bsz, mids.size))
            Y[:, mids] = lo + (hi - lo) * (0.5 * (1.0 - qv) + qv * u)
        y = Y[:, :size].ravel()
        p = np.clip((y * size).astype(np.int64), 0, size - 1)
        vals = (v[p] + slopes[p] * (y - p / size)).reshape(bsz, size)
        acc += vals.sum(axis=0)
        acc2 += (vals * vals).sum(axis=0)
        done += bsz
    mean = acc / n_samples
    var = np.maximum(acc2 / n_samples - mean * mean, 0.0)
    se = np.sqrt(var / max(n_samples - 1, 1))
    return mean, se


def assert_point_slices_are_bitwise(table, origin, c_hi, c_lo, z1, z2):
    """The window engine on a slice of a half window's points is bit for bit
    the same slice of the engine on all of them."""
    whole = derand._half_window_integrals(table, origin, c_hi, c_lo, z1, z2)
    for sl in (slice(None, None, 3), slice(c_hi.size // 2, None), slice(0, 1)):
        part = derand._half_window_integrals(table, origin, c_hi[sl], c_lo[sl], z1, z2)
        assert np.array_equal(part, whole[sl])
    return whole


@pytest.mark.parametrize("rank", [1, 3])
def test_engines_are_block_invariant(rank_states, rank, monkeypatch):
    state = rank_states[rank]
    cfg = DerandConfig()
    table = derand._PLTable(state.f)
    sides = set()
    for side, *lines in window_lines(state):
        sides.add(side)
        assert_point_slices_are_bitwise(table, *lines)
    assert sides == {"left", "right"}

    prof = derand._value_profile(state, cfg)
    mc = derand._mc_profile(state, 1100, 5)
    ref = mc_profile_reference(state, 1100, 5)
    monkeypatch.setattr(derand, "_BLOCK", 64)
    assert np.array_equal(derand._value_profile(state, cfg), prof)
    mc_small = derand._mc_profile(state, 1100, 5)
    for got in (mc, mc_small):
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def test_run_profiles_each_state_once(monkeypatch):
    # run hands its profiles and samplers to the job pool, and a job may run
    # in the forked child, where no recorder in this process sees it: the
    # jobs are counted as they are handed over
    cfg = DerandConfig(ell_max=2, degrees=DEGREES, mc_samples=2000)
    handed = []
    inner = derand._fork_map

    def recorder(jobs):
        handed.extend(jobs)
        return inner(jobs)

    monkeypatch.setattr(derand, "_fork_map", recorder)
    res = run(tapered_oscillation(4, m=8), 4, cfg)
    halves = [job.args for job in handed if job.func is derand._value_profile]
    sampled = [job.args[0] for job in handed if job.func is derand._mc_profile]
    assert len(halves) + len(sampled) == len(handed)
    # two jobs per state, its earlier and its later half, one after the other
    assert [args[2] for args in halves] == [0, 1] * (len(halves) // 2)
    assert all(a[0] is b[0] for a, b in zip(halves[::2], halves[1::2], strict=True))
    profiled = [args[0] for args in halves[::2]]
    keys = [
        (s.n_active, s.ell, s.fixed_y.tobytes(), s.j_lo.tobytes(), s.j_hi.tobytes()) for s in profiled
    ]
    assert len(set(keys)) == len(keys)
    # one opening profile per rank plus one per halving
    assert len(keys) == 4 + len(res.records) // len(DEGREES)
    openings = [s for s in profiled if s.ell == 0]
    assert [s.n_active for s in openings] == [1, 2, 3, 4]
    assert all(a is b for a, b in zip(sampled, openings, strict=True))
    # fresh copies, so the expected reports profile each opening anew
    expected = [
        mc_cross_check(dataclasses.replace(s), cfg, seed=cfg.mc_seed + 7919 * s.n_active)
        for s in openings
    ]
    assert res.manifest["mc_reports"] == expected


def pl_antiderivative(values):
    """Integral from 0 of the periodic piecewise-linear interpolant of the
    samples; outside [0, 1] the end pieces extend linearly."""
    size = values.size
    nxt = np.roll(values, -1)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (values + nxt) / size)])

    def F(u):
        k = min(max(int(np.floor(u * size)), 0), size - 1)
        du = u - k / size
        f_u = values[k] + (nxt[k] - values[k]) * size * du
        return cum[k] + 0.5 * (values[k] + f_u) * du

    return F


def crossings(size, origin, c, z1, z2):
    """z in (z1, z2) where origin + c z lands on an f node."""
    if c == 0.0:
        return []
    ua, ub = sorted((origin + c * z1, origin + c * z2))
    nodes = np.arange(np.floor(ua * size) + 1, np.ceil(ub * size))
    zs = (nodes / size - origin) / c
    return [z for z in zs if z1 < z < z2]


def quadrature_cases(state):
    """(label, origin, c_hi, c_lo, z1, z2) of every half window of state,
    and of the same state with its edge windows opened (z1 = 0), the first
    half window carrying one more point whose lower line is flat (c_lo = 0)."""
    lines = list(window_lines(state))
    side, O, c_hi, c_lo, z1, z2 = lines[0]
    flat = (side + "-flat", O, np.append(c_hi, c_hi[0]), np.append(c_lo, 0.0), z1, z2)
    for case in [flat] + lines[1:]:
        yield "halved", *case
    for case in window_lines(edge_window_state(state)):
        yield "edge", *case


@pytest.fixture(scope="module")
def late_states(rank_states):
    """rank_states after five halvings: windows 1/32 as wide as the opening
    ones, many of them far from their origin compared with their width,
    which is where a difference of two prefix sums cancels the most."""
    cfg = DerandConfig(mc_check=False, degrees=DEGREES)
    out = {}
    for rank, state in rank_states.items():
        for _ in range(5):
            state, _, _ = choose_halves(state, cfg, DEGREES)
        out[rank] = state
    return out


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_window_engine_matches_adaptive_quadrature(rank_states, late_states, rank):
    """At the rank's opening, and five halvings on, where windows lie at
    least 16 of their widths from their origin."""
    quad = pytest.importorskip("scipy.integrate").quad
    for state, far_at_least in ((rank_states[rank], 0.0), (late_states[rank], 16.0)):
        table = derand._PLTable(state.f)
        F = pl_antiderivative(np.asarray(state.f.values, dtype=float))
        size = table.size
        checked = {"halved": 0, "edge": 0}
        flat = at_origin = 0
        far = 0.0
        for kind, side, O, c_hi, c_lo, a, b in quadrature_cases(state):
            got = derand._half_window_integrals(table, O, c_hi, c_lo, a, b)
            at_origin += a == 0.0
            far = max(far, a / (b - a))
            # every 4th point, and the last one (the flat line of its window)
            for t in sorted(set(range(0, c_hi.size, 4)) | {c_hi.size - 1}):
                ch, cl = c_hi[t], c_lo[t]
                flat += cl == 0.0

                def mean_along(z):
                    return (F(O + ch * z) - F(O + cl * z)) / ((ch - cl) * z)

                kinks = sorted(set(crossings(size, O, ch, a, b) + crossings(size, O, cl, a, b)))
                want, err = quad(
                    mean_along, a, b, points=kinks or None, limit=4 * len(kinks) + 100,
                    epsabs=1e-13, epsrel=1e-13,
                )
                assert err < 1e-11
                # compare window means: the integrals shrink with the window
                assert abs(got[t] - want) / (b - a) <= 1e-10, (state.ell, kind, side, t)
                checked[kind] += 1
        assert min(checked.values()) >= 16
        assert flat == 1
        # the first cell's left half and the last cell's right half start at z1 = 0
        assert at_origin == 2
        assert far >= far_at_least


# --- the window kernel against its first, lexsort form ------------------------


def textbook_F(table, u, p):
    du = u - p * table.inv_size
    return (table.half_slopes[p] * du + table.values[p]) * du + table.cum[p]


def textbook_f(table, u, p):
    du = u - p * table.inv_size
    return du * table.slopes[p] + table.values[p]


def half_window_reference(table, origin, c_hi, c_lo, z1, z2):
    """The window kernel as first written, on all points of a half window
    at once: per-point arrays for origin and bounds, the crossings of both
    lines of each point merged into one flat array ordered by np.lexsort on
    (point, z), each panel's piece read at its midpoint, and separate F and
    f lookups. It integrates the quotient (F(u_hi) - F(u_lo)) / (u_hi -
    u_lo) panel by panel, where the window engine integrates each line on
    its own, so the two round differently."""
    size = table.size
    T = c_hi.size
    origin, z1, z2 = (np.full(T, x) for x in (origin, z1, z2))

    def crossing_counts(c):
        ua = origin + c * z1
        ub = origin + c * z2
        first = np.floor(np.minimum(ua, ub) * size).astype(np.int64) + 1
        last = np.ceil(np.maximum(ua, ub) * size).astype(np.int64) - 1
        return np.where(c != 0.0, np.maximum(last - first + 1, 0), 0), first

    cnt1, first1 = crossing_counts(c_hi)
    cnt2, first2 = crossing_counts(c_lo)
    counts = 2 + cnt1 + cnt2
    cum = np.concatenate([[0], np.cumsum(counts)])
    z_flat = np.empty(int(cum[-1]))
    pos0 = cum[:-1]
    z_flat[pos0] = z1
    z_flat[pos0 + 1] = z2
    for cnt, first, c, offs in ((cnt1, first1, c_hi, pos0 + 2), (cnt2, first2, c_lo, pos0 + 2 + cnt1)):
        starts = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        rr = np.arange(int(cnt.sum())) - np.repeat(starts, cnt)
        nodes = np.repeat(first, cnt) + rr
        zc = (nodes / size - np.repeat(origin, cnt)) / np.repeat(c, cnt)
        zc = np.clip(zc, np.repeat(z1, cnt), np.repeat(z2, cnt))
        z_flat[np.repeat(offs, cnt) + rr] = zc
    t_id = np.repeat(np.arange(T), counts)
    order = np.lexsort((z_flat, t_id))
    zs = z_flat[order]
    ts = t_id[order]
    W = zs[1:] - zs[:-1]
    keep = (ts[:-1] == ts[1:]) & (W > 0.0)
    pt = ts[:-1][keep]
    zA = zs[:-1][keep]
    W = W[keep]
    O = origin[pt]
    ch = c_hi[pt]
    cl = c_lo[pt]
    zm = zA + 0.5 * W
    p1 = table.piece(O + ch * zm)
    p2 = table.piece(O + cl * zm)
    u1 = O + ch * zA
    u2 = O + cl * zA
    n0 = textbook_F(table, u1, p1) - textbook_F(table, u2, p2)
    n1 = textbook_f(table, u1, p1) * ch - textbook_f(table, u2, p2) * cl
    n2 = 0.5 * (table.slopes[p1] * ch * ch - table.slopes[p2] * cl * cl)
    panel = W * (n1 - n2 * zA + 0.5 * n2 * W)
    inner = zA > 0.0
    if np.any(inner):
        K = n0[inner] - zA[inner] * (n1[inner] - zA[inner] * n2[inner])
        panel[inner] += K * np.log1p(W[inner] / zA[inner])
    return np.bincount(pt, weights=panel, minlength=T) / (c_hi - c_lo)


def edge_window_state(state):
    """state with its first window opened down to its cell's left edge and
    its last up to its cell's right edge: those half windows start at
    z1 = 0, where some panels have zA == 0 and others not."""
    lo = state.j_lo.copy()
    hi = state.j_hi.copy()
    lo[0] = state.fixed_y[0]
    hi[-1] = state.fixed_y[-1]
    return dataclasses.replace(state, j_lo=lo, j_hi=hi)


# Largest error of the window engine against the lexsort form, relative to
# the window width, on these states: 9.4e-15 (6.0e-14 with a panel sweep of
# each line). The engine divides a difference of two line integrals, each a
# difference of prefix sums, by c_hi - c_lo, so the two kernels agree to
# rounding, not bit for bit.
LEXSORT_RTOL = 2e-13


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edge", [False, True], ids=["halved", "edge"])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_window_kernel_matches_the_lexsort_form(rank_states, rank, edge):
    state = edge_window_state(rank_states[rank]) if edge else rank_states[rank]
    table = derand._PLTable(state.f)
    sides = set()
    at_origin = 0
    for side, *lines in window_lines(state):
        sides.add(side)
        at_origin += lines[3] == 0.0
        want = half_window_reference(table, *lines)
        got = assert_point_slices_are_bitwise(table, *lines)
        assert np.max(np.abs(got - want)) <= LEXSORT_RTOL * (lines[4] - lines[3])
    assert sides == {"left", "right"}
    # the first cell's left half and the last cell's right half
    assert at_origin == (2 if edge else 0)


def test_product_error_is_exact():
    # the window engine stretches each end panel by c * z - fl(c * z)
    rng = np.random.default_rng(3)
    c = rng.uniform(-1.0, 1.0, 2000)
    c[:3] = (0.0, 1.0, -2.0**-40)
    for z in (0.7599328720569611, 1.0 / 3.0, 2.0**-30, 0.0):
        err = derand._product_error(c, z)
        for ci, ei in zip(c, err):
            assert Fraction(ci) * Fraction(z) == Fraction(ci * z) + Fraction(ei)


def node_crossings(size, origin, c, z1, z2):
    """Per line, the f nodes strictly inside its span origin + c [z1, z2]."""
    ua, ub = origin + c * z1, origin + c * z2
    inside = np.ceil(np.maximum(ua, ub) * size) - np.floor(np.minimum(ua, ub) * size) - 1
    return np.where(c != 0.0, np.maximum(inside, 0), 0).astype(np.int64)


@pytest.mark.parametrize("rank", [1, 3])
def test_window_profile_cost_ignores_node_crossings(rank_states, rank, monkeypatch):
    """A window profile looks up at most 4 table elements per point and per
    f piece under its cell's image, however many f nodes its lines cross.
    One lookup per panel between crossings, as a panel sweep of each line
    takes, is far past that bound on these states."""
    state = rank_states[rank]
    m, n = state.f.m, state.n_active
    size = 1 << m
    table = derand._PLTable(state.f)
    tail = derand._tail_table(derand._q_table(state.q, m), 1 << (m - n))
    edges, mids = derand._cell_grid(m, n)
    looked_up = []
    inner = derand._PLTable.lookup

    def recorder(self, u, p):
        looked_up.append(np.size(u))
        return inner(self, u, p)

    monkeypatch.setattr(derand._PLTable, "lookup", recorder)
    lines = list(window_lines(state))
    swept = []
    for i in range(mids.size):
        a, b = float(state.fixed_y[i]), float(state.fixed_y[i + 1])
        looked_up.clear()
        derand._window_profile(
            table, tail, edges[i], mids[i], edges[i + 1], a, b,
            float(state.j_lo[i]), float(state.j_hi[i]),
        )
        points = edges[i + 1] - edges[i] - 1
        pieces = math.ceil(b * size) - math.floor(a * size)
        bound = 4 * (points + pieces)
        assert 0 < sum(looked_up) <= bound
        panels = sum(
            c.size + node_crossings(size, O, c, z1, z2).sum()
            for _, O, c_hi, c_lo, z1, z2 in lines[2 * i : 2 * i + 2]
            for c in (c_hi, c_lo)
        )
        swept.append(panels > bound)
    assert all(swept)


@pytest.mark.filterwarnings("error")
def test_mean_F_is_bitwise_the_textbook_quotient():
    f = tapered_oscillation(4, m=8)
    table = derand._PLTable(f)
    rng = np.random.default_rng(11)
    ulo = rng.random(4000)
    uhi = ulo + rng.random(4000) * 0.01
    # every third window is tiny: zero width, or under the 1e-13 cutoff
    uhi[::6] = ulo[::6]
    uhi[3::6] = ulo[3::6] + 5e-14
    for lo, hi in ((ulo, uhi), (ulo[1::3], uhi[1::3])):
        w = hi - lo
        tiny = w <= 1e-13
        num = textbook_F(table, hi, table.piece(hi)) - textbook_F(table, lo, table.piece(lo))
        mid = 0.5 * (lo + hi)
        want = np.where(tiny, textbook_f(table, mid, table.piece(mid)), num / np.where(tiny, 1.0, w))
        assert np.array_equal(table.mean_F(lo, hi), want)
    assert np.any(uhi - ulo <= 1e-13) and not np.any(uhi[1::3] - ulo[1::3] <= 1e-13)


# --- constant image cells and the kept half-window ------------------------------


@pytest.fixture(scope="module")
def kk_openings():
    """Opening states of ranks 1 .. 4 of the m=8 kk_example, each rank below
    halved in full by advance."""
    f = CorpusSpec("kk_example", {"k_max": 4}, 8).build()
    cfg = DerandConfig(mc_check=False)
    states = {1: DerandState.initial(f, confinement_map(f, depth=8).with_floor())}
    for rank in (2, 3, 4):
        states[rank], _, _ = advance(states[rank - 1], cfg, DEGREES)
    return states


@pytest.fixture
def kk_states(kk_openings):
    """kk_openings, copied so that each test starts from states that
    remember no profile."""
    return {rank: dataclasses.replace(s) for rank, s in kk_openings.items()}


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_constant_cells_leave_the_value_profile_bitwise(kk_states, rank, monkeypatch):
    state = kk_states[rank]
    constant = derand._constant_cells(state)
    assert constant.any() and not constant.all()
    prof = derand._value_profile(state, DerandConfig())
    monkeypatch.setattr(derand, "_constant_cells", lambda s: np.zeros(s.j_lo.size, dtype=bool))
    assert np.array_equal(derand._value_profile(state, DerandConfig()), prof)


def flat_state(values, fixed_y):
    """A rank-(len(fixed_y)-1) state on the given samples, each window the
    middle half of its cell."""
    f = SampledFunction(int(np.log2(len(values))), np.asarray(values, dtype=float))
    q = confinement_map(f, depth=f.m).with_floor()
    y = np.asarray(fixed_y, dtype=float)
    width = np.diff(y)
    n = int(np.log2(y.size - 1)) + 1
    return DerandState(f, q, n, 0, y, y[:-1] + 0.25 * width, y[1:] - 0.25 * width)


def test_constant_cell_profile_is_exactly_the_constant(monkeypatch):
    c = 0.3
    size = 256
    x = np.arange(size) / size
    values = np.where(x <= 0.5, c, np.sin(6.0 * np.pi * x) * 0.4 + c)
    state = flat_state(values, [0.0, 0.5, 1.0])
    assert derand._constant_cells(state).tolist() == [True, False]
    cell = slice(1, size // 2)  # grid points gl+1 .. gr-1 of cell 0
    prof = derand._value_profile(state, DerandConfig())
    assert np.all(prof[cell] == c)
    monkeypatch.setattr(derand, "_constant_cells", lambda s: np.zeros(s.j_lo.size, dtype=bool))
    full = derand._value_profile(state, DerandConfig())
    assert np.max(np.abs(full[cell] - c)) <= 1e-12
    assert np.array_equal(full[size // 2 :], prof[size // 2 :])


@pytest.mark.parametrize(
    "odd, expected",
    [
        (None, [True, True]),
        (20, [False, False]),  # at ceil(b 2**m) of cell 0; inside cell 1
        (21, [True, False]),
        (19, [False, False]),  # at floor(a 2**m) of cell 1; inside cell 0
        (0, [False, False]),  # index 2**m of cell 1 wraps to 0
        (63, [True, False]),
    ],
)
def test_constant_cell_mask_edges(odd, expected):
    # m=6: cell 0 is [0, 0.3] -> samples 0 .. 20, cell 1 is [0.3, 1] -> 19 .. 64
    values = np.full(64, 0.25)
    if odd is not None:
        values[odd] = -0.25
    state = flat_state(values, [0.0, 0.3, 1.0])
    assert derand._constant_cells(state).tolist() == expected


@pytest.mark.parametrize("rank", [2, 3])
def test_advance_equals_repeated_choose_halves(kk_states, rank):
    # advance reads each state's remembered profile; the reference computes
    # every profile from scratch (each step gets a copy with an empty memo),
    # so the two agree only if what a state remembers is what it would
    # compute
    cfg = DerandConfig(mc_check=False)
    state = kk_states[rank]
    promoted, records, ident_max = advance(state, cfg, DEGREES)
    ref_records = []
    ref_ident = 0.0
    s = state
    while s.ell < cfg.ell_max and not derand._windows_converged(s, cfg):
        s, recs, ident = choose_halves(dataclasses.replace(s), cfg, DEGREES)
        ref_records.extend(recs)
        ref_ident = max(ref_ident, ident)
    ref = derand._fix_and_promote(s)
    assert s.ell == cfg.ell_max
    for name in ("fixed_y", "j_lo", "j_hi"):
        assert np.array_equal(getattr(promoted, name), getattr(ref, name))
    assert records == ref_records
    assert ident_max == ref_ident


def test_kk_null_columns_are_its_constant_cells():
    res = run(CorpusSpec("kk_example", {"k_max": 4}, 8).build(), 6, DerandConfig(mc_check=False))
    silent = res.manifest["silent_cells"]
    assert [entry["n"] for entry in silent] == [1, 2, 3, 4, 5, 6]
    # six halvings per rank; at rank n all but one of the 2**(n-1) cells are flat
    assert [entry["constant"] for entry in silent] == [0, 6, 18, 42, 90, 186]
    assert all(set(entry) == {"n", "constant", "null_not_constant"} for entry in silent)
    assert all(entry["null_not_constant"] == 0 for entry in silent)


def count_window_profiles(monkeypatch):
    """Patch the window engine to log the pinned image (a, b) of every cell
    it profiles; returns the log."""
    calls = []
    inner = derand._window_profile

    def recorder(table, tail, gl, gd, gr, a, b, y1, y2):
        calls.append((a, b))
        return inner(table, tail, gl, gd, gr, a, b, y1, y2)

    monkeypatch.setattr(derand, "_window_profile", recorder)
    return calls


def wrap_state():
    """A rank-3 state on m=6 samples whose cells 1 and 3 are constant; cell
    3 ends at y=1, so its samples run to index 2**m, which wraps to 0."""
    values = np.full(64, 0.25)
    values[1:12] += 0.5 * np.sin(np.arange(1, 12))
    values[30:43] -= 0.5 * np.cos(np.arange(30, 43))
    return flat_state(values, [0.0, 0.2, 0.45, 0.7, 1.0])


def mc_state(name, kk_states):
    """States with constant cells for the sampler: kk_states at ranks 2 .. 4
    (some cells constant), a constant f (every cell) and wrap_state."""
    if name == "constant":
        c = SampledFunction(8, np.full(256, 0.7))
        return DerandState.initial(c, confinement_map(c, depth=8).with_floor())
    if name == "wrap":
        return wrap_state()
    return kk_states[int(name[-1])]


@pytest.mark.parametrize("block", [derand._BLOCK, 64])
@pytest.mark.parametrize("name", ["kk-r2", "kk-r3", "kk-r4", "constant", "wrap"])
def test_mc_guard_on_constant_cells_is_bitwise_the_reference(name, block, kk_states, monkeypatch):
    state = mc_state(name, kk_states)
    constant = derand._constant_cells(state)
    assert constant.any()
    assert constant.all() == (name == "constant")
    if name == "wrap":
        assert constant.tolist() == [False, True, False, True]
    monkeypatch.setattr(derand, "_BLOCK", block)
    got = derand._mc_profile(state, 1100, 5)
    ref = mc_profile_reference(state, 1100, 5)
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def top_rank_state():
    """A state at active rank m on m=4 samples, every cell live: a half cell
    is one grid unit wide and holds no grid point."""
    return flat_state(np.sin(np.arange(16.0)), np.linspace(0.0, 1.0, 9))


@pytest.mark.parametrize("name", ["kk-r2", "kk-r4", "constant", "wrap", "top-rank"])
def test_profile_jobs_join_to_the_serial_profile(name, kk_states, monkeypatch):
    # the kk states keep one live cell, so the cut falls inside it, at its
    # midpoint; a constant f leaves no live half cell, wrap_state's live
    # cells 0 and 2 split at cell 2's left edge, and at the top rank the
    # eight live cells split at the fifth
    state = top_rank_state() if name == "top-rank" else mc_state(name, kk_states)
    cfg = DerandConfig()
    live = np.flatnonzero(~derand._constant_cells(state))
    if name.startswith("kk"):
        assert live.size == 1
        cut = derand._cell_grid(state.f.m, state.n_active)[1][live[0]]
    else:
        cut = {"constant": 0, "wrap": 32, "top-rank": 8}[name]
    serial = derand._value_profile(state, cfg)
    halves = [job() for job in derand._profile_jobs(state, cfg)]
    assert [h.size for h in halves] == [cut, (1 << state.f.m) - cut]
    assert np.array_equal(np.concatenate(halves), serial)
    forks = count_forks(monkeypatch, True)
    assert np.array_equal(derand.expected_composition(state, cfg).values, serial)
    assert len(forks) == 1


@pytest.mark.parametrize("name", ["kk-r3", "wrap"])
def test_mc_guard_builds_no_path_inside_constant_cells(name, kk_states, monkeypatch):
    state = mc_state(name, kk_states)
    points = []
    inner = derand._PLTable.f_at

    def recorder(self, u):
        points.append(np.array(u, dtype=float).ravel())
        return inner(self, u)

    monkeypatch.setattr(derand._PLTable, "f_at", recorder)
    derand._mc_profile(state, 600, 5)
    u = np.concatenate(points)
    y = state.fixed_y
    constant = derand._constant_cells(state)
    for i in range(constant.size):
        inside = np.count_nonzero((u > y[i]) & (u < y[i + 1]))
        if constant[i]:
            assert inside == 0, i
        else:
            # every path visits each of the cell's W - 1 interior points
            assert inside == 600 * (state.f.values.size // constant.size - 1)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_window_engine_skips_constant_cells(kk_states, rank, monkeypatch):
    state = kk_states[rank]
    constant = derand._constant_cells(state)
    calls = count_window_profiles(monkeypatch)
    assemble_v_matrix(state, DEGREES, DerandConfig())
    images = list(zip(state.fixed_y[:-1], state.fixed_y[1:]))
    flat = {images[i] for i in np.flatnonzero(constant)}
    assert not flat & set(calls)
    # full, upper and lower window for every other cell
    assert len(calls) == 3 * int((~constant).sum())


def test_constant_cell_columns_are_exact_zeros(kk_states):
    state = kk_states[3]
    constant = derand._constant_cells(state)
    assert constant.any() and not constant.all()
    v = assemble_v_matrix(state, DEGREES, DerandConfig(row_tol=0.0))
    assert v.n_rows == len(DEGREES) << state.n_active
    assert np.all(v.values[:, constant] == 0.0)
    assert np.all(np.max(np.abs(v.values[:, ~constant]), axis=0) > 1e-6)


def test_constant_cells_shrink_concentrically_at_zero_null_tol(kk_states):
    # null_tol = 0 signs every column with any signal, yet cannot sign an
    # exact zero column over a constant cell
    state = kk_states[3]
    constant = derand._constant_cells(state)
    s1, _, _ = choose_halves(state, DerandConfig(mc_check=False, null_tol=0.0), DEGREES)
    mid = 0.5 * (state.j_lo + state.j_hi)
    quarter = 0.25 * (state.j_hi - state.j_lo)
    assert np.array_equal(s1.j_lo[constant], (mid - quarter)[constant])
    assert np.array_equal(s1.j_hi[constant], (mid + quarter)[constant])
    concentric = (s1.j_lo == mid - quarter) & (s1.j_hi == mid + quarter)
    assert not concentric[~constant].any()


def test_run_constant_function_skips_the_window_engine(monkeypatch):
    calls = count_window_profiles(monkeypatch)
    res = run(SampledFunction(8, np.full(256, 0.7)), 5)
    assert calls == []
    grid = np.arange(33) / 32
    assert np.array_equal(res.homeo.x, grid) and np.array_equal(res.homeo.y, grid)
    assert res.identity_max == 0.0
    assert [entry["constant"] for entry in res.manifest["silent_cells"]] == [6, 12, 24, 48, 96]


def test_constant_cells_move_only_their_own_windows(monkeypatch):
    # today's halving against the one that ran the window engine on
    # constant cells too (the mask forced all-False; the value engine is
    # bitwise either way): the two agree bit for bit until a column over a
    # constant cell would have been signed on rounding noise, and there
    # only such cells differ, each shrunk to its concentric middle half.
    # Each step is choose_halves; the unmasked one runs on a copy with an
    # empty memo, so it recomputes the state's profile instead of reading
    # the masked step's, and the profiles compared are the ones each new
    # state remembers.
    f = CorpusSpec("perturbed_square", {"rank": 5, "jitter": 0.5, "seed": 1}, 8).build()
    cfg = DerandConfig(mc_check=False)
    degrees = default_degrees(6, 8)
    state = DerandState.initial(f, confinement_map(f, depth=8).with_floor(cfg.q_floor_exponent))
    mask = derand._constant_cells
    while True:
        if state.ell == cfg.ell_max or derand._windows_converged(state, cfg):
            assert state.n_active < 6, "no divergence through rank 6"
            state = derand._fix_and_promote(state)
            continue
        new, new_records, _ = choose_halves(state, cfg, degrees)
        with monkeypatch.context() as mp:
            mp.setattr(derand, "_constant_cells", lambda s: np.zeros(s.j_lo.size, dtype=bool))
            old, old_records, _ = choose_halves(dataclasses.replace(state), cfg, degrees)
        differs = (new.j_lo != old.j_lo) | (new.j_hi != old.j_hi)
        if not differs.any():
            assert np.array_equal(derand._profile(new, cfg), derand._profile(old, cfg))
            assert new_records == old_records
            state = new
            continue
        assert (state.n_active, state.ell) == (6, 2)
        constant = mask(state)
        assert np.all(constant[differs])
        mid = 0.5 * (state.j_lo + state.j_hi)
        quarter = 0.25 * (state.j_hi - state.j_lo)
        assert np.array_equal(new.j_lo[differs], (mid - quarter)[differs])
        assert np.array_equal(new.j_hi[differs], (mid + quarter)[differs])
        break


# --- the public steps are the pipeline ---------------------------------------


def square_m8():
    return CorpusSpec("perturbed_square", {"rank": 5, "jitter": 0.5, "seed": 1}, 8).build()


def count_engine_calls(mp):
    """Patch both engines to count their calls; returns the live counts."""
    counts = {"value": 0, "window": 0}
    value, window = derand._value_profile, derand._window_profile

    def value_counted(*args, **kw):
        counts["value"] += 1
        return value(*args, **kw)

    def window_counted(*args):
        counts["window"] += 1
        return window(*args)

    mp.setattr(derand, "_value_profile", value_counted)
    mp.setattr(derand, "_window_profile", window_counted)
    return counts


@pytest.fixture(scope="module")
def square_run():
    """run(f, 6) on the m=8 perturbed_square, and its _value_profile calls,
    two per profile."""
    with pytest.MonkeyPatch.context() as mp:
        counts = count_engine_calls(mp)
        # every job of run's pool in this process, where the counters are
        mp.setattr(_fork, "_can_fork", lambda: False)
        res = run(square_m8(), 6)
    return res, counts["value"]


def test_public_steps_profile_each_state_once(square_run, monkeypatch):
    f = square_m8()
    cfg = DerandConfig()
    degrees = default_degrees(6, f.m)
    opening = DerandState.initial(f, confinement_map(f, depth=f.m).with_floor(cfg.q_floor_exponent))
    counts = count_engine_calls(monkeypatch)
    # every profile job in this process, where the counters are
    monkeypatch.setattr(_fork, "_can_fork", lambda: False)
    # the guard's profile of the opening state serves the halving too; a
    # profile is two jobs, its earlier and its later half
    mc_cross_check(opening, cfg)
    choose_halves(opening, cfg, degrees)
    assert counts["value"] == 2 * 2
    rank3 = opening
    for _ in range(2):
        rank3, _, _ = advance(rank3, cfg, degrees)
    counts.update(value=0, window=0)
    advance(dataclasses.replace(rank3), cfg, degrees)
    by_advance = dict(counts)
    assert by_advance == {"value": 2 * 7, "window": 72}
    counts.update(value=0, window=0)
    state = dataclasses.replace(rank3)
    while state.ell < cfg.ell_max and not derand._windows_converged(state, cfg):
        state, _, _ = choose_halves(state, cfg, degrees)
    assert counts == by_advance
    # one profile per opening state and per halving: 6 ranks x (1 + 6)
    assert square_run[1] == 2 * 42


def test_public_steps_reproduce_run(square_run):
    # the pipeline of run, driven one public step at a time
    res = square_run[0]
    f = square_m8()
    cfg = DerandConfig()
    degrees = default_degrees(6, f.m)
    state = DerandState.initial(f, confinement_map(f, depth=f.m).with_floor(cfg.q_floor_exponent))
    records = []
    ident_max = 0.0
    reports = []
    for rank in range(1, 7):
        reports.append(mc_cross_check(state, cfg, seed=cfg.mc_seed + 7919 * rank))
        while state.ell < cfg.ell_max and not derand._windows_converged(state, cfg):
            state, recs, ident = choose_halves(state, cfg, degrees)
            records.extend(recs)
            ident_max = max(ident_max, ident)
        state, recs, _ = advance(state, cfg, degrees)
        assert recs == []
    assert np.array_equal(state.fixed_y, res.homeo.y)
    assert tuple(records) == res.records
    assert ident_max == res.identity_max
    assert reports == res.manifest["mc_reports"]


def test_state_memo_starts_empty():
    state = taper_state()
    built = DerandState(
        state.f, state.q, 1, 0, state.fixed_y, state.j_lo, state.j_hi, "active"
    )
    assert built._memo == {}
    choose_halves(built, DerandConfig(), DEGREES)
    assert set(built._memo) == {"profile"}
    assert dataclasses.replace(built)._memo == {}
    assert dataclasses.replace(built, ell=1)._memo == {}
    memo = next(fd for fd in dataclasses.fields(DerandState) if fd.name == "_memo")
    assert not memo.init and not memo.repr and not memo.compare
    assert "_memo" not in repr(built)


def fold_degrees_reference(profile, degrees, pts):
    """The fold as first written: frequency order rebuilt on every call and
    one inverse transform per degree."""
    M = profile.size
    c = np.fft.fft(profile) / M
    ks = (np.arange(M) + M // 2) % M - M // 2
    order = np.argsort(np.abs(ks), kind="stable")
    sorted_abs = np.abs(ks)[order]
    folded = np.zeros(pts, dtype=complex)
    out = np.empty((len(degrees), pts))
    prev = 0
    for row, r in enumerate(degrees):
        hi = int(np.searchsorted(sorted_abs, r, side="right"))
        if hi > prev:
            sel = order[prev:hi]
            np.add.at(folded, ks[sel] % pts, c[sel])
            prev = hi
        out[row] = (np.fft.ifft(folded) * pts).real
    return out


@pytest.mark.parametrize("m", [8, 10, 12])
def test_fold_plan_is_bitwise_the_per_degree_loop(m):
    rng = np.random.default_rng(m)
    degrees = default_degrees(7, m)
    for n in range(1, m):
        pts = 1 << n
        plan = derand._fold_plan(1 << m, degrees, pts)
        for profile in (rng.standard_normal(1 << m), np.repeat(rng.standard_normal(pts), 1 << (m - n))):
            got = derand._fold_degrees(profile, plan)
            assert np.array_equal(got, fold_degrees_reference(profile, degrees, pts)), (m, n)


# --- two processes --------------------------------------------------------------


M10_CORPORA = {
    "kk_example": {"k_max": 4},
    "perturbed_square": {"rank": 5, "jitter": 0.5, "seed": 1},
}


@pytest.fixture(scope="module")
def m10_states():
    """Opening states of ranks 1 .. 7 of both m=10 acceptance corpora, each
    rank below halved once."""
    cfg = DerandConfig(mc_check=False, ell_max=1)
    degrees = default_degrees(7, 10)
    states = {}
    for name, params in M10_CORPORA.items():
        f = CorpusSpec(name, params, 10).build()
        q = confinement_map(f, depth=10).with_floor(cfg.q_floor_exponent)
        states[name, 1] = DerandState.initial(f, q)
        for rank in range(2, 8):
            states[name, rank], _, _ = advance(states[name, rank - 1], cfg, degrees)
    return states


def count_forks(monkeypatch, can_fork):
    """Set what the CPU predicate answers, and log every fork the job pool
    makes; returns the log."""
    calls = []
    inner = _fork._fork_call

    def counted(child, parent):
        calls.append(1)
        return inner(child, parent)

    monkeypatch.setattr(_fork, "_can_fork", lambda: can_fork)
    monkeypatch.setattr(_fork, "_fork_call", counted)
    return calls


# sha256 of the serial profile's bytes: ranks 1-3 run the shallow value plan
# and were recorded before the last quadrature level streamed into the
# frozen tail, when that level was built whole; rank 4 runs the deep plan and
# was recorded before the level rules were served by _composite_gl
M10_PROFILE_PINS = {
    ("kk_example", 1): "7b2681c663407729bda106852f0d8900aebe9669ba9116a634d4e4fa70555c4f",
    ("kk_example", 2): "87365439bb09147363bfd976a3f4a81e0c74ef3580bb030403768a061f23a0a8",
    ("kk_example", 3): "e53d2a25058cca809214922da9adf9776ba32f7c724fcc4687788bdcd276c4af",
    ("kk_example", 4): "2364161409cccc70972a791f55c1490341528b7689d2becd45c4068055c77efb",
    ("perturbed_square", 1): "5389c6c1922917b325cb8abc22717b6cbecc91b5414919051b7e85bc5237152d",
    ("perturbed_square", 2): "d90d2a7967a0a1056ed2e101b8b7c4faaf91872527d24cc886aee1d1fae4ff96",
    ("perturbed_square", 3): "46e306bd74c15d84e231bc45ebc04a3d74c27535d15bff860e86bab6afb609f7",
    ("perturbed_square", 4): "42ed186f8837c23bd7dec55a88554e8a383d2a1d4c8b320676dacc244386e2b7",
}


@pytest.mark.parametrize("key", sorted(M10_PROFILE_PINS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_value_profile_is_pinned(m10_states, key):
    profile = derand._value_profile(m10_states[key], DerandConfig())
    assert hashlib.sha256(profile.tobytes()).hexdigest() == M10_PROFILE_PINS[key]


def traced_peak(fn):
    """fn's result and the peak of the memory it allocates, traced."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - start


@pytest.mark.parametrize("name", list(M10_CORPORA))
def test_value_profile_working_set_is_bounded(m10_states, name):
    # a rank-1 profile walks 2**18 last-level rows per cell; built whole they
    # and their concatenation copies peaked at 14.0-14.7 MB whatever m is.
    # With only the last level streamed, the levels above it peaked at
    # 5.3 MB at m=10; the descent streams every level: 2.4 MB
    state = m10_states[name, 1]
    derand._value_profile(state, DerandConfig())  # warm the caches
    _, peak = traced_peak(lambda: derand._value_profile(state, DerandConfig()))
    assert peak <= 4e6


@pytest.fixture(scope="module")
def m12_open_state():
    """The opening state of the m=12 perturbed_square acceptance corpus."""
    f = CorpusSpec("perturbed_square", M10_CORPORA["perturbed_square"], 12).build()
    q = confinement_map(f, depth=12).with_floor(DerandConfig().q_floor_exponent)
    return DerandState.initial(f, q)


def sampler_state(key, m10_states, m12_open_state):
    name, m, rank = key
    return m12_open_state if m == 12 else m10_states[name, rank]


# sha256 of the sampler's mean and standard error at 1100 samples (two full
# batches and a partial one), recorded while each batch held its
# (paths x grid points) values whole
MC_PROFILE_PINS = {
    ("kk_example", 10, 1): (
        "e8b77be18f1e3004a873234d1fa50f181f5fca45897812b03ac5cb9674877cfa",
        "c2ce734c5b0190398988335222784b4479c1575258990989741c6b02304de7bd",
    ),
    ("kk_example", 10, 4): (
        "0a4e1858c52a0e4d5f0c9e263466623e2129136c4e76ac8184351996ea1da63c",
        "e028e583748c87a0b2e624c5b34d27d76fa726e5debda9c9129cc47569ca0bb8",
    ),
    ("kk_example", 10, 7): (
        "e2f8da84da5120723766b2d420a3cfd6b2fb6f44c1c1d5ab081d0e9ce7d65c2e",
        "e742b6fb41278c150a0499a9492f74518f0de9606d7d0e47041105109ba5ce26",
    ),
    ("perturbed_square", 12, 1): (
        "f913483cc32a81939389c8b22d425f376e1eab1ca2e7de5a7b22d9a90f82541e",
        "f42b9244711942e72bb375949e58d4bcf3e3c666635066ee6e7b10f68b11f614",
    ),
}


@pytest.mark.parametrize("key", sorted(MC_PROFILE_PINS), ids=lambda k: f"{k[0]}-m{k[1]}-{k[2]}")
def test_mc_profile_is_pinned(m10_states, m12_open_state, key):
    state = sampler_state(key, m10_states, m12_open_state)
    mean, se = derand._mc_profile(state, 1100, DerandConfig().mc_seed)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (mean, se))
    assert got == MC_PROFILE_PINS[key]


@pytest.mark.parametrize(
    "key, bound",
    [(("kk_example", 10, 4), 3e6), (("perturbed_square", 12, 1), 24e6)],
    ids=["kk_example-m10-4", "perturbed_square-m12-1"],
)
def test_mc_profile_working_set_is_bounded(m10_states, m12_open_state, key, bound):
    # a batch's (512 x 2**m) values, with their squares, and the whole draw
    # of each deeper rank before its live cells were taken, peaked at 9.2 MB
    # and 50.8 MB here; one block of live paths in a small buffer, and the
    # draws of a rank with constant cells a few rows at a time, leave 1.3 MB
    # and 17.8 MB, most of it the live cells' draws of one batch
    state = sampler_state(key, m10_states, m12_open_state)
    _, peak = traced_peak(lambda: derand._mc_profile(state, 1100, DerandConfig().mc_seed))
    assert peak <= bound


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("name", list(M10_CORPORA))
def test_forked_diagnostics_are_bitwise_serial(m10_states, name, rank, monkeypatch):
    state = m10_states[name, rank]
    cfg = DerandConfig()
    got = {}
    for can_fork in (True, False):
        forks = count_forks(monkeypatch, can_fork)
        profile = derand.expected_composition(state, cfg).values
        # a copy remembers no profile, so the guard computes it beside the sampler
        report = mc_cross_check(dataclasses.replace(state), cfg, cfg.mc_seed + 7919 * rank)
        # the profile's two jobs fork once, and the guard's three once
        assert len(forks) == (2 if can_fork else 0)
        got[can_fork] = profile, report
    assert np.array_equal(got[True][0], got[False][0])
    assert got[True][1] == got[False][1]


class ShareFailed(Exception):
    pass


@pytest.mark.parametrize("share", ["child", "parent"])
@pytest.mark.parametrize("site", ["profile", "guard"])
def test_a_failed_share_raises_here_and_leaves_no_child(site, share, monkeypatch, capfd):
    # at rank 1 the child profiles the left half cell, job 0, and the parent
    # the right one; the guard samples in the child and profiles here. The
    # share that does not fail stalls in the child, which must be killed,
    # not awaited
    forks = count_forks(monkeypatch, True)

    def fail(*args, **kw):
        raise ShareFailed(share)

    def stall(*args, **kw):
        time.sleep(60)

    if site == "profile":
        inner = derand._cell_expectation

        def cell(E, table, qtab, tail, state, i, sides, plan):
            if list(sides) == ([0] if share == "child" else [1]):
                fail()
            if share == "parent":
                stall()
            return inner(E, table, qtab, tail, state, i, sides, plan)

        monkeypatch.setattr(derand, "_cell_expectation", cell)
        call = lambda: derand.expected_composition(taper_state())
    else:
        monkeypatch.setattr(derand, "_mc_profile", fail if share == "child" else stall)
        if share == "parent":
            monkeypatch.setattr(derand, "_value_profile", fail)
        call = lambda: mc_cross_check(taper_state(), DerandConfig())
    start = time.monotonic()
    with pytest.raises(ShareFailed, match=share):
        call()
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert capfd.readouterr() == ("", "")


def test_a_failed_fork_runs_both_shares_here(m10_states, monkeypatch):
    # a fork refused for want of processes or memory leaves both shares to
    # this process, bitwise as the serial path, and closes the pipe it made
    state = m10_states["perturbed_square", 1]
    cfg = DerandConfig()
    seed = cfg.mc_seed + 7919

    def both():
        return (
            derand.expected_composition(state, cfg).values,
            mc_cross_check(dataclasses.replace(state), cfg, seed),
        )

    monkeypatch.setattr(_fork, "_can_fork", lambda: False)
    want = both()
    forks = count_forks(monkeypatch, True)
    refused = []

    def no_fork():
        refused.append(1)
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    fds = len(os.listdir("/proc/self/fd"))
    got = both()
    assert len(forks) == len(refused) == 2
    assert len(os.listdir("/proc/self/fd")) == fds
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]


@pytest.mark.parametrize("name", list(M10_CORPORA))
def test_run_pool_is_bitwise_serial(name, monkeypatch):
    # run's certification jobs shared with a forked child, against every job
    # run in this process
    f = CorpusSpec(name, M10_CORPORA[name], 8).build()
    got = {}
    for can_fork in (True, False):
        pools = count_forks(monkeypatch, can_fork)
        res = run(f, 6)
        assert len(pools) == (1 if can_fork else 0)
        got[can_fork] = homeo_to_json(res.homeo), res.records, res.manifest
    assert got[True] == got[False]
    assert len(got[True][2]["mc_reports"]) == 6


@pytest.mark.parametrize(
    "name, digest",
    [
        # the warp-m10 bench pin
        ("kk_example", "c8e4ceaa1a8004bb1e0c79498d3505536941449fb06839c6301e5e6c9abdcb0a"),
        # recorded from a default run(f, 7)
        ("perturbed_square", "9613ef44beb5891378d423d18c12774463bb128fcf9568b6e275f2e0ed64fde9"),
    ],
)
def test_homeomorphism_ignores_the_diagnostics(name, digest, monkeypatch):
    # the halving choice reads neither the quadrature profile nor the guard:
    # a profile of zeros and no guard leave the default run's homeomorphism
    # each profile job returns its slice; here the later slice is all of it
    monkeypatch.setattr(derand, "_value_profile", lambda state, cfg, half: np.zeros(half << state.f.m))
    res = run(CorpusSpec(name, M10_CORPORA[name], 10).build(), 7, DerandConfig(mc_check=False))
    assert hashlib.sha256(homeo_to_json(res.homeo).encode()).hexdigest() == digest
