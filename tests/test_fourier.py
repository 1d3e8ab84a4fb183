"""Kernel, coefficients, partial sums, A-norm, block integrals."""

import os
import tracemalloc

import numpy as np
import pytest

from circlewarp import (
    CorpusSpec,
    ResolutionError,
    SampledFunction,
    a_norm,
    coeffs,
    compose,
    default_degrees,
    dirichlet_kernel,
    fourier,
    identity_homeo,
    oscillation,
    partial_sum,
    rademacher,
    sup_partial_sums,
)
from circlewarp import _fork
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


@pytest.mark.parametrize(
    "degrees", [[-1], [2.5], [True], [3, False], [], "12", 4, [float("nan")]], ids=repr
)
def test_sup_partial_sums_rejects_degrees_that_are_not_whole(degrees):
    # int() would read 2.5 as 2 and True as 1; -1 used to give (-1, 0.0)
    f = oscillation(4, 0.5, m=8)
    with pytest.raises(ValueError, match="degrees must be a nonempty tuple of nonnegative integers"):
        sup_partial_sums(f, degrees)


@pytest.mark.parametrize("n", [2.5, -1, True])
def test_partial_sum_rejects_a_degree_that_is_not_whole(n):
    with pytest.raises(ValueError, match="nonnegative integers"):
        partial_sum(oscillation(4, 0.5, m=8), n)


def test_whole_float_degrees_are_their_integers():
    f = oscillation(4, 0.5, m=8)
    assert sup_partial_sums(f, [2.0, np.int64(5)]) == sup_partial_sums(f, [2, 5])
    assert np.array_equal(partial_sum(f, 3.0).values, partial_sum(f, 3).values)


M16_CORPORA = {
    "perturbed_square": {"rank": 5, "jitter": 0.5, "seed": 1},
    "kk_example": {"k_max": 4},
}


@pytest.fixture(scope="module")
def m16_functions():
    """The two m=12 acceptance corpora sampled at m=16, as the r <= 512
    sweeps of the acceptance gate read them."""
    return {
        name: compose(CorpusSpec(name, params, 12).build(), identity_homeo(), 16)
        for name, params in M16_CORPORA.items()
    }


def count_sweep_forks(monkeypatch, can_fork):
    calls = []
    inner = _fork._fork_call

    def counted(child, parent):
        calls.append(1)
        return inner(child, parent)

    monkeypatch.setattr(_fork, "_can_fork", lambda: can_fork)
    monkeypatch.setattr(_fork, "_fork_call", counted)
    return calls


@pytest.mark.parametrize("name", list(M16_CORPORA))
def test_forked_sweep_is_bitwise_serial(m16_functions, name, monkeypatch):
    # every sup comes from the same _synthesis call in either process;
    # 37 degrees up to 505 stand in for r <= 512, with the floor lowered
    g = m16_functions[name]
    degrees = range(1, 513, 14)
    serial_forks = count_sweep_forks(monkeypatch, False)
    serial = sup_partial_sums(g, degrees)
    assert serial_forks == []
    assert serial == [(r, float(np.max(np.abs(partial_sum(g, r).values)))) for r in degrees]
    monkeypatch.setattr(fourier, "_SWEEP_FORK_MIN", 1)
    forks = count_sweep_forks(monkeypatch, True)
    assert sup_partial_sums(g, degrees) == serial
    assert len(forks) == 1
    # a refused fork leaves both shares here and closes the pipe it made
    refused = []

    def no_fork():
        refused.append(1)
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    fds = len(os.listdir("/proc/self/fd"))
    assert sup_partial_sums(g, degrees) == serial
    assert (len(forks), len(refused)) == (2, 1)
    assert len(os.listdir("/proc/self/fd")) == fds


def test_sweep_fork_floor(m16_functions, monkeypatch):
    # each share of r <= 32 at m=16 holds 16 * 2**16 = 2**20 points, the
    # floor; derand's per-halving records at m=12 (31 degrees, a share of
    # 15 * 2**12 points) and a sweep of one degree stay serial
    forks = count_sweep_forks(monkeypatch, True)
    g = m16_functions["kk_example"]
    sup_partial_sums(g, range(1, 33))
    assert len(forks) == 1
    sup_partial_sums(g, range(1, 32))
    sup_partial_sums(g, [512])
    sup_partial_sums(CorpusSpec("kk_example", {"k_max": 4}, 12).build(), default_degrees(7, 12))
    assert len(forks) == 1


# lengths 1, 3, 4, 5 and 9 fill whole four-row blocks and leave remainders
# of one to three rows; degree 0 keeps only the mean, and a repeated or
# unsorted degree is swept once, in ascending order
BLOCK_DEGREES = [[0], [9, 0, 2], [3, 3, 1, 0, 2], [0, 5, 1, 7, 2], [31, 0, 8, 8, 1, 30, 2, 17, 4, 5]]


@pytest.mark.parametrize("can_fork", [True, False], ids=["forked", "serial"])
@pytest.mark.parametrize("degrees", BLOCK_DEGREES, ids=lambda d: f"{len(set(d))}deg")
@pytest.mark.parametrize("m", [12, 16])
def test_sweep_blocks_are_bitwise_partial_sums(m16_functions, m, degrees, can_fork, monkeypatch):
    # each sup is bitwise the sup of a partial sum made on its own, whatever
    # block, row and process computed it; the floor is lowered so that
    # every sweep of two or more degrees forks where it may
    if m == 16:
        g = m16_functions["perturbed_square"]
    else:
        g = CorpusSpec("perturbed_square", M16_CORPORA["perturbed_square"], 12).build()
    scale = 1 if m == 12 else 16
    degs = [d * scale for d in degrees]
    want = [(r, float(np.max(np.abs(partial_sum(g, r).values)))) for r in sorted(set(degs))]
    forks = count_sweep_forks(monkeypatch, can_fork)
    monkeypatch.setattr(fourier, "_SWEEP_FORK_MIN", 1)
    assert sup_partial_sums(g, degs) == want
    assert len(forks) == int(can_fork and len(want) > 1)


def test_sweep_working_set_is_bounded(m16_functions, monkeypatch):
    # a serial r <= 512 sweep at m=16 holds its block of four complex rows,
    # 4.19 MB. Beside it the full 2**16-point spectrum and an |x| row per
    # sup peaked at 5.8 MB; the band |k| <= 512 and |x| written over each
    # row's imaginary part leave 4.25 MB
    g = m16_functions["perturbed_square"]
    count_sweep_forks(monkeypatch, False)
    sup_partial_sums(g, range(1, 9))  # warm the FFT plan caches
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        sup_partial_sums(g, range(1, 513))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 4.6e6


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
