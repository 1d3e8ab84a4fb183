"""Kernel, coefficients, partial sums, A-norm, block integrals."""

import numpy as np
import pytest

from circlewarp import (
    ResolutionError,
    SampledFunction,
    a_norm,
    coeffs,
    dirichlet_kernel,
    oscillation,
    partial_sum,
    rademacher,
    sup_partial_sums,
)
from circlewarp.fourier import (
    circ_dist,
    coeffs_naive,
    kernel_block_integral,
    kernel_block_matrix,
)


def test_kernel_at_zero_counts_terms():
    for n in (0, 1, 5, 16):
        assert dirichlet_kernel(n, 0.0) == 2 * n + 1


def test_kernel_at_half():
    assert dirichlet_kernel(1, 0.5) == pytest.approx(-1.0, abs=1e-12)


def test_kernel_matches_exponential_sum():
    n, t = 7, 0.234
    direct = sum(np.exp(2j * np.pi * k * t) for k in range(-n, n + 1)).real
    assert dirichlet_kernel(n, t) == pytest.approx(direct, abs=1e-10)


def test_kernel_unit_mass_by_grid_quadrature():
    m = 14
    t = np.arange(1 << m) / (1 << m)
    integral = float(np.mean(dirichlet_kernel(16, t)))
    assert integral == pytest.approx(1.0, abs=1e-9)


def test_coeffs_constant():
    c = coeffs(SampledFunction(6, np.ones(64)))
    assert c.coeff(0) == pytest.approx(1.0, abs=1e-14)
    assert all(abs(c.coeff(k)) < 1e-14 for k in range(1, 32) for k in (k, -k))


def test_coeffs_pure_cosine():
    f = SampledFunction.from_callable(8, lambda t: np.cos(2 * np.pi * t))
    c = coeffs(f)
    assert c.coeff(1) == pytest.approx(0.5, abs=1e-12)
    assert c.coeff(-1) == pytest.approx(0.5, abs=1e-12)
    rest = max(abs(c.coeff(k)) for k in range(2, 100))
    assert rest < 1e-12


def test_fft_matches_naive_summation():
    f = rademacher(3, m=8)
    fast = coeffs(f)
    slow = coeffs_naive(f)
    for k in range(-100, 101):
        assert abs(fast.coeff(k) - slow.coeff(k)) < 1e-12


def test_coeffs_conjugate_symmetry_and_parseval():
    f = rademacher(2, m=10)
    c = coeffs(f)
    assert c.conjugate_symmetry_gap() < 1e-12
    assert c.parseval_gap(f) < 1e-10


def test_coeffs_linear():
    f = SampledFunction.from_callable(8, lambda t: np.sin(2 * np.pi * 3 * t))
    g = rademacher(2, m=8)
    mix = SampledFunction(8, 2.0 * f.values - 0.5 * g.values)
    cm, cf, cg = coeffs(mix), coeffs(f), coeffs(g)
    worst = max(
        abs(cm.coeff(k) - 2.0 * cf.coeff(k) + 0.5 * cg.coeff(k)) for k in range(-128, 128)
    )
    assert worst < 1e-12


def test_partial_sum_fixes_low_degrees():
    f = SampledFunction.from_callable(9, lambda t: np.cos(2 * np.pi * t))
    for n in (1, 2, 7):
        s = partial_sum(f, n)
        assert np.max(np.abs(s.values - f.values)) < 1e-12


def test_partial_sum_full_band_reproduces_samples():
    f = rademacher(2, m=8)
    s = partial_sum(f, (1 << 7) - 1)
    # a step function is not band-limited; full-band projection returns the
    # grid samples themselves up to the one-sided jump nodes
    assert np.max(np.abs(s.values - f.values)) < 1e-9


def test_partial_sum_rejects_degrees_beyond_grid():
    f = SampledFunction(6, np.zeros(64))
    with pytest.raises(ResolutionError):
        partial_sum(f, 32)


def test_one_point_grid_refuses_every_degree():
    # 2**0 samples resolve no degree; the cap used to be a negative shift
    f = SampledFunction(0, [1.0])
    with pytest.raises(ResolutionError, match="finer than 2\\*\\*0"):
        sup_partial_sums(f, [1])
    with pytest.raises(ResolutionError):
        partial_sum(f, 0)
    assert sup_partial_sums(SampledFunction(1, [1.0, 0.0]), [0]) == [(0, 0.5)]


def test_one_point_grid_coefficients():
    # the only frequency of 2**0 samples is 0
    c = coeffs(SampledFunction(0, [1.0]))
    assert c.coeff(0) == 1.0
    assert c.conjugate_symmetry_gap() == 0.0


def test_partial_sum_idempotent():
    f = oscillation(16, 0.5, m=12)
    s1 = partial_sum(f, 40)
    s2 = partial_sum(s1, 40)
    assert np.max(np.abs(s2.values - s1.values)) < 1e-12


def test_sup_partial_sums_is_sup_of_partial_sum():
    # both calls share one synthesis, so the sups agree exactly, in
    # ascending degree order whatever the order asked for
    f = oscillation(8, 0.5, m=10)
    degs = [17, 1, 0, 255, 64, 17, 3]
    want = [(r, float(np.max(np.abs(partial_sum(f, r).values)))) for r in sorted(set(degs))]
    assert sup_partial_sums(f, degs) == want


def test_abrupt_cutoff_overshoots_its_sup():
    f = oscillation(64, 0.5, m=14)
    table = sup_partial_sums(f, list(range(16, 513, 16)))
    peak = max(s for _, s in table)
    assert peak > 1.05 * f.sup_norm()


def test_sup_partial_sums_constant():
    f = SampledFunction(8, np.ones(256))
    assert all(s == pytest.approx(1.0, abs=1e-12) for _, s in sup_partial_sums(f, [1, 2, 4]))


def test_sup_partial_sums_cosine():
    f = SampledFunction.from_callable(8, lambda t: np.cos(2 * np.pi * t))
    for _, s in sup_partial_sums(f, [1, 2, 4]):
        assert s == pytest.approx(1.0, abs=1e-12)


def test_a_norm_cosine_and_zero():
    f = SampledFunction.from_callable(8, lambda t: np.cos(2 * np.pi * t))
    assert a_norm(f) == pytest.approx(1.0, abs=1e-12)
    assert a_norm(SampledFunction(4, np.zeros(16))) == 0.0


def test_block_integral_whole_circle():
    assert kernel_block_integral(1, 0, 0) == pytest.approx(1.0, abs=1e-10)


def test_block_integrals_partition_unity():
    for n in (8, 16, 64):
        mat = kernel_block_matrix(n)
        rows = mat.sum(axis=1)
        assert np.max(np.abs(rows - 1.0)) < 1e-9


def test_block_matrix_agrees_with_scalar_integral():
    n = 8
    mat = kernel_block_matrix(n)
    for j in (0, 3):
        for k in range(n):
            assert mat[k, j] == pytest.approx(kernel_block_integral(n, k, j), abs=1e-10)


def test_block_integral_decay_constant():
    worst = 0.0
    for n in (8, 16, 64):
        mat = kernel_block_matrix(n)
        k = np.arange(n)
        dist = circ_dist(k[None, :], k[:, None], n)
        worst = max(worst, float(np.max(np.abs(mat) * (dist + 1.0))))
    assert worst <= 4.0


def test_circ_dist_wraps():
    assert circ_dist(0, 7, 8) == 1
    assert circ_dist(2, 6, 8) == 4
    assert circ_dist(5, 5, 8) == 0
