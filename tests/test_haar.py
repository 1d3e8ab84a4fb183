"""Haar pyramid, confinement budgets, square-wave generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlewarp import (
    SampledFunction,
    confinement_map,
    haar_inverse,
    haar_transform,
    normalize_sup,
    perturbed_square_wave,
    rademacher,
)


def test_transform_constant():
    c = haar_transform(SampledFunction(5, np.full(32, 2.5)))
    assert c.mean == 2.5
    assert all(np.max(np.abs(d)) == 0.0 for d in c.detail)


def test_transform_unit_step():
    f = SampledFunction(4, np.where(np.arange(16) < 8, 1.0, -1.0))
    c = haar_transform(f)
    assert c.mean == 0.0
    assert c.detail[0][0] == pytest.approx(1.0, abs=1e-15)
    assert all(np.max(np.abs(c.detail[l])) == 0.0 for l in range(1, c.levels))


def test_square_wave_coefficients_sit_on_one_level():
    # coefficient |J|**(1/2) exactly on the level where |J| = 2**(1-n)
    for n in (2, 3, 4):
        c = haar_transform(rademacher(n, m=8))
        assert c.mean == 0.0
        for level, d in enumerate(c.detail):
            interval_len = 2.0 ** -level
            if interval_len == 2.0 ** (1 - n):
                assert np.allclose(np.abs(d), np.sqrt(interval_len), atol=1e-14)
            else:
                assert np.max(np.abs(d)) < 1e-14


def test_inverse_of_zero_details():
    c = haar_transform(SampledFunction(3, np.ones(8)))
    g = haar_inverse(c, 5)
    assert np.array_equal(g.values, np.ones(32))


def test_single_coarse_coefficient_gives_step():
    base = haar_transform(SampledFunction(1, np.array([1.0, -1.0])))
    g = haar_inverse(base, 4)
    assert np.array_equal(g.values[:8], np.ones(8))
    assert np.array_equal(g.values[8:], -np.ones(8))


@pytest.mark.parametrize("m", [40, 64])
def test_inverse_reads_the_exponent_before_shifting(m):
    # 1 << (m - levels) repeats were built, or crashed the interpreter at
    # 64, before any check
    c = haar_transform(SampledFunction(5, np.arange(32.0)))
    with pytest.raises(ValueError, match=f"grid exponent out of range: {m}"):
        haar_inverse(c, m)


def test_round_trip_exact():
    gen = np.random.default_rng(6)
    f = SampledFunction(6, gen.standard_normal(64))
    back = haar_inverse(haar_transform(f), 6)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_parseval_exact_for_step_functions(seed):
    f = SampledFunction(5, np.random.default_rng(seed).uniform(-1, 1, 32))
    assert haar_transform(f).parseval_gap(f) < 1e-12


def test_budgets_constant_function_floors():
    q = confinement_map(SampledFunction(6, np.zeros(64))).with_floor()
    for n in (1, 2, 3):
        assert np.allclose(q.rank_values(n), 2.0 ** (-n * 0.25))


def test_square_wave_budget_at_half():
    for n in (3, 4, 5, 6):
        q = confinement_map(rademacher(n, m=10))
        assert q.value(1, 1) == pytest.approx(2.0 ** (-(n - 1) / 2.0), abs=1e-12)


def test_square_wave_budget_saturates_at_own_rank():
    for n in (3, 4, 5):
        q = confinement_map(rademacher(n, m=10), depth=n + 2)
        assert np.allclose(q.rank_values(n), 1.0, atol=1e-12)
        assert np.max(q.rank_values(n + 1)) < 1e-12
        assert np.max(q.rank_values(n + 2)) < 1e-12


def test_square_wave_budget_monotone_up_to_own_rank():
    n = 6
    q = confinement_map(rademacher(n, m=10), depth=n)
    prev = 0.0
    for r in range(1, n + 1):
        cur = float(np.min(q.rank_values(r)))
        assert cur >= prev - 1e-15
        prev = cur


@pytest.mark.parametrize(
    "k, n, message",
    [
        (-1, 2, "need 0 < k < 2\\*\\*2, got k=-1"),
        (5, 2, "need 0 < k < 2\\*\\*2, got k=5"),
        (2, 2, "k must be odd, got 2"),
        (True, 1, "need 0 < k < 2\\*\\*1, got k=True"),
        (1, 0, "rank must be >= 1, got 0"),
    ],
)
def test_value_reads_a_dyadic_point(k, n, message):
    # -1 wrapped to the last budget of the rank, 5 raised IndexError and
    # True was read as 1
    q = confinement_map(rademacher(1, 4)).with_floor()
    with pytest.raises(ValueError, match=message):
        q.value(k, n)
    assert q.value(1.0, 2) == q.value(1, 2)


def test_budgets_demand_normalized_input():
    with pytest.raises(ValueError):
        confinement_map(SampledFunction(4, np.full(16, 3.0)))


def test_budgets_are_nonnegative_and_clamped():
    gen = np.random.default_rng(11)
    f = normalize_sup(SampledFunction(8, gen.standard_normal(256)))
    q = confinement_map(f)
    for n in range(1, 9):
        vals = q.rank_values(n)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_floor_extends_past_stored_depth():
    q = confinement_map(rademacher(2, m=8), depth=3).with_floor(0.25)
    assert np.allclose(q.rank_values(7), 2.0 ** (-7 * 0.25))


def test_normalize_sup_affine_onto_unit_band():
    f = SampledFunction(4, np.linspace(3.0, 7.0, 16))
    g = normalize_sup(f)
    assert g.values.min() == pytest.approx(-1.0)
    assert g.values.max() == pytest.approx(1.0)
    assert normalize_sup(SampledFunction(3, np.full(8, 4.2))).sup_norm() == 0.0


def test_square_wave_pattern():
    f = rademacher(1, m=6)
    assert np.all(f.values[:32] == 1.0) and np.all(f.values[32:] == -1.0)
    assert rademacher(3, m=8)(0.3) == np.sign(np.sin(8 * np.pi * 0.3))
    for n in (1, 2, 5):
        assert float(np.mean(rademacher(n, m=9).values)) == 0.0


def test_square_wave_needs_headroom():
    with pytest.raises(ValueError):
        rademacher(5, m=6)


def test_jitter_zero_reproduces_square_wave():
    f = perturbed_square_wave(3, 0.0, seed=9, m=10)
    assert np.array_equal(f.values, rademacher(3, m=10).values)


def test_jittered_wave_deterministic():
    a = perturbed_square_wave(4, 0.5, seed=21, m=12)
    b = perturbed_square_wave(4, 0.5, seed=21, m=12)
    assert np.array_equal(a.values, b.values)
    c = perturbed_square_wave(4, 0.5, seed=22, m=12)
    assert not np.array_equal(a.values, c.values)


def test_jittered_budgets_track_square_wave():
    # jitter moves every Haar coefficient by less than a factor 4
    for rank, seed in ((3, 3), (4, 3), (4, 17)):
        qa = confinement_map(normalize_sup(rademacher(rank, m=12)), depth=rank)
        qb = confinement_map(
            normalize_sup(perturbed_square_wave(rank, 0.5, seed=seed, m=12)), depth=rank
        )
        for n in range(1, rank + 1):
            va, vb = qa.rank_values(n), qb.rank_values(n)
            live = (va > 0) & (vb > 0)
            ratio = np.maximum(va[live] / vb[live], vb[live] / va[live])
            assert np.max(ratio) < 4.0
