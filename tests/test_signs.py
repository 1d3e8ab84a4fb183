"""Decay matrices and the three sign solvers."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from circlewarp import signs

V2 = SignMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))


def test_synthetic_exact_decay_small_cases():
    v = build_synthetic_matrix(2, "exact_decay")
    assert np.allclose(v.values, [[1.0, 0.5], [0.5, 1.0]])
    v4 = build_synthetic_matrix(4, "exact_decay")
    assert np.allclose(v4.values[0], [1.0, 0.5, 1.0 / 3.0, 0.5])


def test_synthetic_matrices_certify_unit_decay():
    # |v[k, j]| * (dist(k, j) + 1) is 1 at every entry, one row at a time;
    # n = 1000 fills fifteen row blocks of 65 rows and a partial one
    cases = [(12, "exact_decay"), (12, "random_signs_decay"), (1000, "random_signs_decay")]
    for dist in ("circular", "linear"):
        for n, profile in cases:
            v = build_synthetic_matrix(n, profile, seed=4, dist=dist)
            assert v.values.shape == (n, n)
            ks = np.arange(n)
            for j in range(n):
                d = np.abs(ks - j)
                if dist == "circular":
                    d = np.minimum(d, n - d)
                assert np.allclose(np.abs(v.values[j]) * (d + 1), 1.0, rtol=1e-15, atol=0.0)


def test_iid_reproducible_and_valid():
    v = build_synthetic_matrix(16, "exact_decay")
    a = solve_iid(v, seed=5)
    b = solve_iid(v, seed=5)
    assert np.array_equal(a.eps, b.eps)
    assert set(np.unique(a.eps)) <= {-1, 1}
    single = solve_iid(build_synthetic_matrix(1, "exact_decay"), seed=0)
    assert single.eps.shape == (1,) and abs(single.eps[0]) == 1


def test_hierarchical_zero_matrix():
    v = SignMatrix(np.zeros((1, 8)))
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sign_matrix_rejects_non_finite_values(bad):
    values = np.ones((2, 3))
    values[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        SignMatrix(values)


def test_hierarchical_no_rows():
    eps = solve_hierarchical(SignMatrix(np.zeros((0, 5))))
    assert np.array_equal(eps.eps, np.ones(5, dtype=np.int8))


def test_bruteforce_single_column():
    v = SignMatrix(np.array([[0.3], [-0.7]]))
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
    assert row_discrepancy(SignMatrix(np.zeros((1, 4))),
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
    scaled = SignMatrix(3.0 * v.values)
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


# --- the screened block search ------------------------------------------------


def best_candidate_reference(cols, base, sigma, lam, retries, gen):
    """The block search before screening: every candidate scored at once."""
    b = cols.shape[1]
    if b <= 12:
        masks = np.arange(1 << b, dtype=np.uint32)
        bits = (masks[:, None] >> np.arange(b - 1, -1, -1, dtype=np.uint32)[None, :]) & 1
        cands = 1 - 2 * bits.astype(np.int8)
    else:
        cands = (gen.integers(0, 2, size=(retries, b)) * 2 - 1).astype(np.int8)
    sums = cands.astype(float) @ cols.T + base[None, :]
    z = np.minimum(np.abs(sums) / sigma, 700.0)
    scores = z.max(axis=-1) + lam * (np.cosh(z) - 1.0).sum(axis=-1)
    return cands[int(np.argmin(scores))]


def screen_cases():
    """A frozen draw of 1200 block searches: b = 1..12 crossed with five column
    kinds and four base kinds, five times over, plus one random-candidate
    search (b = 14)."""
    rng = np.random.default_rng(20261018)
    for case in range(1200):
        b = case % 12 + 1
        col_kind = case // 12 % 5
        base_kind = case // 60 % 4
        n_rows = int(rng.integers(1, 121))
        if col_kind == 3:  # dyadic entries: exact row sums, exact score ties
            cols = rng.integers(-4, 5, size=(n_rows, b)) / 8.0
        else:
            cols = rng.standard_normal((n_rows, b)) * float(rng.choice([1e-3, 0.3, 1.0]))
        sigma = max(float(np.max(np.abs(cols))), 0.125) * float(rng.choice([1.0, 2.0, 4.0]))
        if col_kind == 1:  # a null column
            cols[:, rng.integers(0, b)] = 0.0
        elif col_kind == 2 and b > 1:  # duplicated columns, one negated
            cols[:, 1] = cols[:, 0]
            if b > 3:
                cols[:, 3] = -cols[:, 2]
        elif col_kind == 4:  # a column at rounding level
            cols[:, rng.integers(0, b)] = 1e-13 * sigma * rng.standard_normal(n_rows)
        if base_kind == 0:
            base = np.zeros(n_rows)
        elif base_kind == 1:
            base = rng.standard_normal(n_rows) * sigma * float(rng.choice([0.5, 3.0, 20.0]))
        elif base_kind == 2:
            base = rng.integers(-16, 17, size=n_rows) / 8.0 * sigma
        else:  # beyond the exponentials' safe range
            base = rng.standard_normal(n_rows) * sigma
            base[rng.integers(0, n_rows)] = 400.0 * sigma
        lam = float(rng.choice([0.5, 0.5, 0.25, 2.0]))
        yield cols, base, sigma, lam, 0
    cols = rng.standard_normal((50, 14))
    yield cols, rng.standard_normal(50), float(np.max(np.abs(cols))), 0.5, 5


def test_screened_search_equals_scoring_every_candidate(monkeypatch):
    screened = []
    screen = signs._screen
    monkeypatch.setattr(signs, "_screen", lambda *a: screened.append(1) or screen(*a))
    for i, (cols, base, sigma, lam, seed) in enumerate(screen_cases()):
        want = best_candidate_reference(cols, base, sigma, lam, 64, np.random.default_rng(seed))
        got = signs._best_candidate(cols, base, sigma, lam, 64, np.random.default_rng(seed))
        assert np.array_equal(got, want), f"case {i}"
    # the screen itself ran, not only the fallback
    assert len(screened) > 500


def test_screen_keeps_few_candidates(monkeypatch):
    # a loose bound keeps the answer right but leaves the screen idle: the max
    # term read from four fixed rows keeps up to 21 candidates of 256 here
    kept = []
    exact = signs._exact_scores
    monkeypatch.setattr(
        signs, "_exact_scores", lambda p, b, s, l, idx: kept.append(idx.size) or exact(p, b, s, l, idx)
    )
    solve_hierarchical(build_synthetic_matrix(512, "random_signs_decay"))
    assert len(kept) == 2 * 73  # each search: the screen's argmin, then its survivors
    assert max(kept) <= 4


@pytest.mark.parametrize("n_rows", [1, 3, 255, 4097])
def test_blocked_exact_scores_are_bitwise_one_shot(n_rows):
    rng = np.random.default_rng(n_rows)
    n_cand = 257
    prod = rng.standard_normal((n_cand, n_rows)) * 3.0
    prod[0, 0] = 1e4  # past the overflow guard
    base = rng.standard_normal(n_rows)
    want = signs._score(prod + base, 1.5, 0.5)
    every = np.arange(n_cand)
    assert np.array_equal(signs._exact_scores(prod, base, 1.5, 0.5, every), want)
    odd = every[1::2]
    assert np.array_equal(signs._exact_scores(prod, base, 1.5, 0.5, odd), want[odd])


def zero_block_matrix():
    """200 columns of random decay with exact zeros: columns 0 .. 63 (eight
    level-0 blocks at block 8, hence one whole merge chunk), 72 .. 79 (one
    block), and 100, 130 and 131 (mixed blocks)."""
    v = build_synthetic_matrix(200, "random_signs_decay", seed=4).values.copy()
    for cols in (slice(0, 64), slice(72, 80), [100, 130, 131]):
        v[:, cols] = 0.0
    return SignMatrix(v)


@pytest.mark.parametrize("block, seed", [(8, 0), (4, 0), (16, 3)])
def test_zero_blocks_skip_the_search_bitwise(block, seed, monkeypatch):
    # the skip keeps what a full search picks; past 12 columns the search
    # draws random candidates, so there it must not skip, or the generator
    # would fall out of step
    v = zero_block_matrix()
    searches = []
    cands = signs._block_candidates
    monkeypatch.setattr(signs, "_block_candidates", lambda b, r, g: searches.append(b) or cands(b, r, g))
    got = solve_hierarchical(v, block=block, seed=seed).eps
    calls = []
    monkeypatch.setattr(signs, "_best_candidate", lambda *a: calls.append(1) or best_candidate_reference(*a))
    assert np.array_equal(got, solve_hierarchical(v, block=block, seed=seed).eps)
    # block 8: 9 of 25 level-0 blocks are zero, then the first of 3 merge
    # chunks; block 4: 18 of 50 blocks, then 4 of 13 chunks and 1 of 3
    skipped = {4: 18 + 4 + 1, 8: 9 + 1, 16: 0}[block]
    assert len(calls) - len(searches) == skipped
    if block == 16:
        assert len(calls) == 13 + 1


# sha256 of the int8 sign vectors of solve_hierarchical with its defaults,
# recorded before the block search was screened; the n=64 exact_decay
# circular vector was recorded again once the top merge scored against an
# exact zero base: it is the negation of the vector recorded before, and
# equals the linear one
SIGN_PINS = {
    (64, "exact_decay", "circular"): "aefd6168b636ab121e9fdd8e449d248ccbc36a7f2d75d4bcc8a42ca74a8d4ca7",
    (64, "exact_decay", "linear"): "aefd6168b636ab121e9fdd8e449d248ccbc36a7f2d75d4bcc8a42ca74a8d4ca7",
    (64, "random_signs_decay", "circular"): "96054c5b66efc292570cfa9495d4a62cc36956163f20aadde1afbef49874e970",
    (512, "exact_decay", "circular"): "6d801beebaf927e0c5a3cbb993bfd60507d29cc1cfc734c9d51ff63451fa553f",
    (512, "exact_decay", "linear"): "6d801beebaf927e0c5a3cbb993bfd60507d29cc1cfc734c9d51ff63451fa553f",
    (512, "random_signs_decay", "circular"): "4100a484095f64f9ba87e0fb64a41682e5d788b785d834ec781389ea506a2644",
}


@pytest.mark.parametrize("key", sorted(SIGN_PINS), ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
def test_hierarchical_sign_vectors_pinned(key):
    n, profile, dist = key
    eps = solve_hierarchical(build_synthetic_matrix(n, profile, seed=0, dist=dist)).eps
    assert hashlib.sha256(eps.tobytes()).hexdigest() == SIGN_PINS[key]


def test_top_merge_breaks_the_global_flip_tie_by_rule():
    # every row sum lies inside the top merge, so a flip vector and its
    # negation tie exactly, and the first candidate, +1 first, must win
    # rather than whichever rounding residue favours
    v = build_synthetic_matrix(64, "exact_decay", seed=0, dist="circular")
    eps = solve_hierarchical(v).eps
    old = "e4ab2d30633c6bde4e1b5eddbbd378990c0ff673d095136e14a896d63ee8910a"
    assert eps[0] == 1
    assert hashlib.sha256((-eps).tobytes()).hexdigest() == old
    assert row_discrepancy(v, SignVector(eps)) == 0.3858354347180841


@settings(max_examples=40, deadline=None)
@given(
    st.integers(9, 64),
    st.sampled_from(["exact_decay", "random_signs_decay"]),
    st.integers(0, 10**6),
    st.sampled_from(["circular", "linear"]),
)
@example(64, "exact_decay", 0, "circular")
def test_single_merge_keeps_the_first_sign_positive(n, profile, seed, dist):
    # 9 .. 64 columns at block 8: 2 .. 8 level-0 blocks, then the top merge
    # alone. Block 0 and the top merge both search against an exact zero
    # base, so each keeps the first of a tied candidate pair, whose first
    # sign is +1
    calls = []
    search = signs._best_candidate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signs, "_best_candidate", lambda *a: calls.append(a[0].shape[1]) or search(*a))
        eps = solve_hierarchical(build_synthetic_matrix(n, profile, seed=seed, dist=dist)).eps
    blocks = -(-n // 8)
    assert len(calls) == blocks + 1 and calls[-1] == blocks
    assert eps[0] == 1
