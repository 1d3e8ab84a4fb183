"""Core types: sampled functions, dyadic points, PL homeomorphisms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlewarp import (
    DFParams,
    DyadicPoint,
    PLHomeo,
    SampledFunction,
    compose,
    homeo_from_json,
    homeo_to_json,
    identity_homeo,
    sample_psi_q,
)

BENT = PLHomeo.from_breakpoints([(0, 0), (0.5, 0.25), (1, 1)])


def test_eval_identity_is_identity():
    assert identity_homeo().eval(0.3) == 0.3


def test_eval_linear_pieces():
    assert BENT.eval(0.25) == pytest.approx(0.125, abs=1e-15)
    assert BENT.eval(0.75) == pytest.approx(0.625, abs=1e-15)


def test_eval_fixes_endpoints():
    assert BENT.eval(0.0) == 0.0
    assert BENT.eval(1.0) == 1.0


def test_eval_reduces_argument_mod_one():
    assert BENT.eval(1.25) == BENT.eval(0.25)
    assert BENT.eval(-0.75) == BENT.eval(0.25)


def test_eval_rejects_nan():
    with pytest.raises(ValueError):
        BENT.eval(float("nan"))


def test_invert_identity():
    ident = identity_homeo()
    inv = ident.inverse()
    assert np.array_equal(inv.x, ident.x) and np.array_equal(inv.y, ident.y)


def test_invert_swaps_coordinates():
    inv = BENT.inverse()
    assert np.array_equal(inv.x, [0.0, 0.25, 1.0])
    assert np.array_equal(inv.y, [0.0, 0.5, 1.0])


def test_double_invert_is_exact():
    back = BENT.inverse().inverse()
    assert np.array_equal(back.x, BENT.x) and np.array_equal(back.y, BENT.y)


def test_invert_round_trip_on_confined_sample():
    h = sample_psi_q(DFParams(depth=8, q=0.5), seed=11)
    hi = h.inverse()
    # exact at breakpoints, interpolation-free elsewhere up to float rounding
    assert max(abs(hi.eval(h.eval(t)) - t) for t in h.x) == 0.0
    dense = np.linspace(0.0, 1.0, 1017)
    err = np.max(np.abs(hi(h(dense)) - dense))
    assert err < 1e-12


def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        PLHomeo(np.array([0.0, 0.5, 0.5, 1.0]), np.array([0.0, 0.2, 0.8, 1.0]))
    with pytest.raises(ValueError):
        PLHomeo(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.0, 1.0]))


def test_breakpoints_must_fix_endpoints():
    with pytest.raises(ValueError):
        PLHomeo(np.array([0.0, 1.0]), np.array([0.1, 1.0]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=6, unique=True), st.data())
def test_monotone_on_random_maps(interior, data):
    xs = np.array([0.0] + sorted(interior) + [1.0])
    ys_inner = sorted(data.draw(st.lists(
        st.floats(0.001, 0.999), min_size=len(interior), max_size=len(interior), unique=True)))
    ys = np.array([0.0] + ys_inner + [1.0])
    h = PLHomeo(xs, ys)
    t = data.draw(st.floats(0.0, 1.0, exclude_max=True))
    t2 = data.draw(st.floats(0.0, 1.0))
    lo, hi = min(t, t2), max(t, t2)
    if lo < hi:
        assert h.eval(lo) < h.eval(hi)


def test_compose_with_identity_is_bitwise():
    f = SampledFunction.from_callable(8, lambda t: np.sin(2 * np.pi * t))
    g = compose(f, identity_homeo(), m_out=8)
    assert np.array_equal(g.values, f.values)


def test_compose_constant_stays_constant():
    f = SampledFunction(6, np.ones(64))
    g = compose(f, BENT)
    assert np.array_equal(g.values, np.ones(g.size))


def test_compose_tracks_warp_of_linear_ramp():
    m = 10
    f = SampledFunction.from_callable(m, lambda t: t)
    g = compose(f, BENT, m_out=m)
    t = g.grid()
    err = np.max(np.abs(g.values - BENT(t)))
    assert err <= 2.0 ** -m


def test_compose_default_grid_is_finer():
    f = SampledFunction(6, np.zeros(64))
    assert compose(f, BENT).m == 10


def test_sampled_function_validates_shape_and_finiteness():
    with pytest.raises(ValueError):
        SampledFunction(3, np.zeros(7))
    with pytest.raises(ValueError):
        SampledFunction(2, np.array([0.0, np.inf, 0.0, 0.0]))


def test_sampled_function_wraps_periodically():
    f = SampledFunction(2, np.array([1.0, 2.0, 3.0, 4.0]))
    # between the last node and 1 the values interpolate back to f(0)
    assert f(7 / 8) == pytest.approx(2.5)
    assert f(1.0) == pytest.approx(1.0)


def test_dyadic_point_validation_and_value():
    d = DyadicPoint(3, 3)
    assert d.value == 0.375
    assert d.rank == 3
    assert d.parent_interval() == (0.25, 0.5)
    with pytest.raises(ValueError):
        DyadicPoint(2, 3)  # not in lowest terms
    with pytest.raises(ValueError):
        DyadicPoint(9, 3)  # outside (0, 1)


def test_dyadic_point_from_index_reduces():
    d = DyadicPoint.from_index(4, 4)
    assert (d.k, d.n) == (1, 2)


def test_homeo_json_round_trip_is_bitwise():
    h = sample_psi_q(DFParams(depth=6, q=0.7), seed=5)
    g = homeo_from_json(homeo_to_json(h))
    assert np.array_equal(g.x, h.x) and np.array_equal(g.y, h.y)
