"""Decay matrices and the three sign solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlewarp import (
    SignMatrix,
    SignVector,
    build_synthetic_matrix,
    row_discrepancy,
    solve_bruteforce,
    solve_hierarchical,
    solve_iid,
)

V2 = SignMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]), row_ids=(0, 1))


def test_synthetic_exact_decay_small_cases():
    v = build_synthetic_matrix(2, "exact_decay")
    assert np.allclose(v.values, [[1.0, 0.5], [0.5, 1.0]])
    v4 = build_synthetic_matrix(4, "exact_decay")
    assert np.allclose(v4.values[0], [1.0, 0.5, 1.0 / 3.0, 0.5])


def test_synthetic_matrices_certify_unit_decay():
    for profile in ("exact_decay", "random_signs_decay"):
        v = build_synthetic_matrix(12, profile, seed=4)
        assert v.decay_cert == pytest.approx(1.0)


def verify_decay_by_rows(v):
    """The certificate scan one row at a time."""
    n = v.n_cols
    ks = np.arange(n)
    cert = 0.0
    for r, rid in enumerate(v.row_ids):
        j = rid[-1] if isinstance(rid, tuple) else rid
        d = np.minimum(np.abs(ks - j), n - np.abs(ks - j)) if v.dist == "circular" else np.abs(ks - j)
        cert = max(cert, float(np.max(np.abs(v.values[r]) * (d + 1))))
    return cert


@pytest.mark.parametrize("dist", ["circular", "linear"])
def test_verify_decay_matches_row_scan(dist):
    # 200 rows of 1024 columns: three row blocks of 2**16 entries and a partial one
    rng = np.random.default_rng(3)
    n = 1024
    rows = 200
    js = rng.integers(0, n, size=rows)
    ids = tuple((int(r % 7) + 1, int(j)) if r % 2 else int(j) for r, j in enumerate(js))
    v = SignMatrix(rng.standard_normal((rows, n)) / (1.0 + rng.integers(0, n, size=(rows, n))), ids, dist)
    assert v.verify_decay() == verify_decay_by_rows(v)
    square = build_synthetic_matrix(96, "random_signs_decay", seed=2, dist=dist)
    assert square.decay_cert == verify_decay_by_rows(square) == pytest.approx(1.0)


def test_iid_reproducible_and_valid():
    v = build_synthetic_matrix(16, "exact_decay")
    a = solve_iid(v, seed=5)
    b = solve_iid(v, seed=5)
    assert np.array_equal(a.eps, b.eps)
    assert set(np.unique(a.eps)) <= {-1, 1}
    single = solve_iid(build_synthetic_matrix(1, "exact_decay"), seed=0)
    assert single.eps.shape == (1,) and abs(single.eps[0]) == 1


def test_hierarchical_zero_matrix():
    v = SignMatrix(np.zeros((1, 8)), row_ids=(0,))
    eps = solve_hierarchical(v)
    assert row_discrepancy(v, eps) == 0.0


def test_hierarchical_single_block_matches_bruteforce():
    v = build_synthetic_matrix(8, "exact_decay")
    _, opt = solve_bruteforce(v)
    got = row_discrepancy(v, solve_hierarchical(v, block=8))
    assert got == pytest.approx(opt, abs=1e-12)


def test_hierarchical_within_factor_two_of_optimum():
    for n in (4, 8, 12, 16):
        v = build_synthetic_matrix(n, "exact_decay")
        _, opt = solve_bruteforce(v)
        got = row_discrepancy(v, solve_hierarchical(v))
        assert opt - 1e-12 <= got <= 2.0 * opt + 1e-12


def test_bruteforce_single_column():
    v = SignMatrix(np.array([[0.3], [-0.7]]), row_ids=(0, 1))
    eps, opt = solve_bruteforce(v)
    assert opt == pytest.approx(0.7)
    assert abs(eps.eps[0]) == 1


def test_bruteforce_two_columns():
    eps, opt = solve_bruteforce(V2)
    assert opt == pytest.approx(0.5)
    assert np.array_equal(eps.eps, [1, -1])


def test_bruteforce_sixteen_column_fixture():
    # frozen regression values; enumeration order makes them bitwise stable
    v = build_synthetic_matrix(16, "exact_decay")
    eps, opt = solve_bruteforce(v)
    assert opt == 0.38015873015873025
    assert np.array_equal(eps.eps, np.tile([1, -1], 8))


def test_bruteforce_rejects_wide_matrices():
    with pytest.raises(ValueError):
        solve_bruteforce(build_synthetic_matrix(23, "exact_decay"))


def test_row_discrepancy_basics():
    assert row_discrepancy(SignMatrix(np.zeros((1, 4)), row_ids=(0,)),
                           SignVector(np.ones(4, dtype=np.int8))) == 0.0
    assert row_discrepancy(V2, SignVector(np.array([1, -1], dtype=np.int8))) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        row_discrepancy(V2, SignVector(np.ones(3, dtype=np.int8)))


def test_row_discrepancy_matches_direct_sum():
    gen = np.random.default_rng(2)
    v = build_synthetic_matrix(10, "random_signs_decay", seed=8)
    eps = SignVector((gen.integers(0, 2, 10) * 2 - 1).astype(np.int8))
    direct = max(abs(sum(eps.eps[k] * v.values[j, k] for k in range(10))) for j in range(10))
    assert row_discrepancy(v, eps) == pytest.approx(direct, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**6))
def test_sign_flip_symmetry(n, seed):
    v = build_synthetic_matrix(n, "random_signs_decay", seed=seed)
    eps = solve_iid(v, seed=seed)
    flipped = SignVector(-eps.eps)
    assert row_discrepancy(v, eps) == row_discrepancy(v, flipped)


def test_scale_equivariance():
    v = build_synthetic_matrix(10, "exact_decay")
    scaled = SignMatrix(3.0 * v.values, row_ids=v.row_ids)
    eps_v, opt_v = solve_bruteforce(v)
    eps_s, opt_s = solve_bruteforce(scaled)
    assert opt_s == pytest.approx(3.0 * opt_v, rel=1e-12)
    assert np.array_equal(eps_v.eps, eps_s.eps)
    h_v = row_discrepancy(v, solve_hierarchical(v))
    h_s = row_discrepancy(scaled, solve_hierarchical(scaled))
    assert h_s == pytest.approx(3.0 * h_v, rel=1e-12)


def test_sign_vector_validation():
    with pytest.raises(ValueError):
        SignVector(np.array([1, 0, -1], dtype=np.int8))
