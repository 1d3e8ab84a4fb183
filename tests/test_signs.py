"""Decay matrices and the three sign solvers."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
from circlewarp.rng import tagged_generator

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
    for n, profile in cases:
        v = build_synthetic_matrix(n, profile, seed=4)
        assert v.values.shape == (n, n)
        ks = np.arange(n)
        for j in range(n):
            d = np.abs(ks - j)
            d = np.minimum(d, n - d)
            assert np.allclose(np.abs(v.values[j]) * (d + 1), 1.0, rtol=1e-15, atol=0.0)


def reference_matrix(n, profile, seed):
    """The synthetic matrix filled in one piece, and its transpose copied:
    the layout every solve of a built matrix has had."""
    ks = np.arange(n)
    d = np.abs(ks[:, None] - ks[None, :])
    d = np.minimum(d, n - d)
    vals = 1.0 / (d + 1.0)
    if profile == "random_signs_decay":
        vals = vals * (tagged_generator(seed, 0x51, n).integers(0, 2, size=(n, n)) * 2 - 1)
    return np.array(vals.T)


# the ids keep the distance, circular, that every built matrix has
@pytest.mark.parametrize("profile", ["exact_decay", "random_signs_decay"], ids=lambda p: f"{p}-circular")
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000])
def test_built_matrix_keeps_the_copied_layout(n, profile):
    # the builder keeps the array it filled, with the values and strides
    # of a copy of its transpose, so BLAS sees the same operands. Its rows
    # are shifted slices of one row; at n = 1000 the signs come in fifteen
    # row blocks of 65 rows and a partial one
    got = build_synthetic_matrix(n, profile, seed=6).values
    want = reference_matrix(n, profile, 6)
    assert np.array_equal(got, want)
    assert got.strides == want.strides == (8, 8 * n)
    assert not got.flags.writeable


def test_public_sign_matrix_copies_its_values():
    arr = np.ones((2, 3))
    v = SignMatrix(arr)
    arr[0, 0] = 5.0
    assert v.values[0, 0] == 1.0 and arr.flags.writeable
    assert not v.values.flags.writeable


def test_build_and_solve_hold_no_second_matrix():
    # one n x n float array is the built matrix itself; at n = 1024 the
    # solver's own working set (the solve's workspace: the screen's two
    # halves and their product, 16 x n each, and a block of about 2**15 of
    # the max term's products; the exact scores' candidate blocks, and one
    # row vector per block) takes about 0.3 of that. A bound of 1/2 fails on
    # any n x n temporary, and on the 256 x n candidate product every block
    # search held before its products were blocked (0.54 and 0.48 of n x n
    # then). The build fills shifted slices of one row and multiplies the
    # random signs in place, a block of int64 draws at a time: 1.003 and
    # 1.07 of n x n. Blocks of the distances and signs with their
    # temporaries took it to 1.19, and one n x n int64 draw to 2.19
    n = 1024
    size = n * n * 8
    for profile in ("exact_decay", "random_signs_decay"):
        tracemalloc.start()
        try:
            v = build_synthetic_matrix(n, profile)
            _, build_peak = tracemalloc.get_traced_memory()
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            solve_hierarchical(v)
            _, solve_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert build_peak <= 1.1 * size, profile
        assert solve_peak - start < 0.5 * size, profile


@pytest.mark.parametrize(
    "block, retries, message",
    [
        (1, 64, "block must be an integer >= 2"),
        (True, 64, "block must be an integer >= 2"),
        (0, 64, "block must be an integer >= 2"),
        (13, 0, "retries must be an integer >= 1"),
        (8, 0, "retries must be an integer >= 1"),
        (8, True, "retries must be an integer >= 1"),
    ],
)
def test_hierarchical_rejects_blocks_and_retries_up_front(block, retries, message):
    # block 1 merges chunks of one group, which never shrink the group list,
    # so the solve never returned; retries 0 left a random search (block
    # > 12) no candidate to take the argmin of
    with pytest.raises(ValueError, match=message):
        solve_hierarchical(build_synthetic_matrix(16, "exact_decay"), block, retries)


def test_hierarchical_reads_a_whole_float_block_as_its_int():
    v = build_synthetic_matrix(16, "random_signs_decay", seed=3)
    want = solve_hierarchical(v, 2, 64, 5).eps
    assert np.array_equal(solve_hierarchical(v, 2.0, 64.0, 5.0).eps, want)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf"), True, "0.5"])
def test_hierarchical_rejects_a_weight_that_is_not_a_finite_real(lam):
    # with lam NaN every score was NaN and the argmin kept the first
    # candidate: all +1, discrepancy 7.147 at n=64 against 0.386 at lam 0.5
    with pytest.raises(ValueError, match="lam must be a finite real"):
        solve_hierarchical(build_synthetic_matrix(64, "exact_decay"), lam=lam)


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


def best_candidate_reference(cols, base, sigma, lam, retries, gen, work=None):
    """The block search before screening: every candidate scored at once.
    work, the solve's workspace, is not used."""
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
        got = signs._best_candidate(cols, base, sigma, lam, 64, np.random.default_rng(seed), {})
        assert np.array_equal(got, want), f"case {i}"
    # the screen itself ran, not only the fallback
    assert len(screened) > 500


def lab_scale_cases():
    """Searches over as many rows as the lab's n=4096 solve: n_rows of
    1023, 1025 and 4097 crossed with b = 2, 7 (halves of two shapes), 8 and
    12, with random columns and committed row sums inside the exponentials'
    safe range."""
    rng = np.random.default_rng(20261019)
    for n_rows in (1023, 1025, 4097):
        for b in (2, 7, 8, 12):
            cols = rng.standard_normal((n_rows, b)) * float(rng.choice([0.05, 0.3, 1.0]))
            sigma = float(np.max(np.abs(cols)))
            base = rng.standard_normal(n_rows) * sigma * float(rng.choice([0.5, 3.0]))
            yield cols, base, sigma, float(rng.choice([0.5, 2.0])), 0


def exact_scores(cols, base, sigma, lam, cands):
    """_score of every candidate's exact row sums, from blocks of 64
    candidates: one product of all 4096 candidates over 4097 rows would
    hold 134 MB."""
    return np.concatenate(
        [signs._score(cands[s : s + 64] @ cols.T + base, sigma, lam) for s in range(0, len(cands), 64)]
    )


def test_screen_bound_and_choice_at_the_lab_scale():
    # the confirmation step keeps a candidate unless its screened value,
    # less its margin, exceeds the exact score of another: that is sound
    # only while every screened value lies within its margin of the exact
    # score
    for i, (cols, base, sigma, lam, seed) in enumerate(lab_scale_cases()):
        cands = signs._exhaustive_signs(cols.shape[1]).astype(float)
        zb = np.abs(base) / sigma
        reach = np.abs(cols).sum(axis=1) / sigma
        assert np.max(zb + reach) <= signs._EXP_SAFE, f"case {i}"
        value, margin = signs._screen(cols, cands, base, sigma, lam, zb, reach, {})
        exact = exact_scores(cols, base, sigma, lam, cands)
        assert np.all(np.abs(value - exact) <= margin), f"case {i}"
        got = signs._best_candidate(cols, base, sigma, lam, 64, np.random.default_rng(seed), {})
        assert np.array_equal(got, cands[int(np.argmin(exact))]), f"case {i}"


def test_one_workspace_serves_every_shape():
    # a solve hands one workspace to all its block searches; here it serves
    # searches whose shapes change from case to case, and a buffer reused at
    # a wrong shape or holding the previous search's values would move a
    # choice
    work = {}
    for i, (cols, base, sigma, lam, seed) in enumerate([*screen_cases(), *lab_scale_cases()]):
        fresh = signs._best_candidate(cols, base, sigma, lam, 64, np.random.default_rng(seed), {})
        shared = signs._best_candidate(cols, base, sigma, lam, 64, np.random.default_rng(seed), work)
        assert np.array_equal(shared, fresh), f"case {i}"
    assert len({shape for _, shape in work}) > 10


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor fault counts as Linux reports them")
def test_solve_makes_few_page_faults():
    # each block search made its screen's (16 x n) arrays afresh, and the
    # allocator grew and trimmed the heap around them: an n=2048 solve made
    # 51 600-67 700 minor faults (298 000 at n=4096). With the solve's
    # workspace it makes about 3 500. n=1024 showed no churn either way
    code = (
        "import resource\n"
        "from circlewarp import build_synthetic_matrix, solve_hierarchical\n"
        "v = build_synthetic_matrix(2048, 'exact_decay')\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "solve_hierarchical(v)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    package_root = str(Path(signs.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_root + os.pathsep + inherited if inherited else package_root)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) <= 20_000


def test_screen_keeps_few_candidates(monkeypatch):
    # a loose bound keeps the answer right but leaves the screen idle: the max
    # term read from four fixed rows keeps up to 21 candidates of 256 here
    kept = []
    exact = signs._exact_scores
    monkeypatch.setattr(
        signs,
        "_exact_scores",
        lambda c, k, b, s, l, idx: kept.append(idx.size) or exact(c, k, b, s, l, idx),
    )
    solve_hierarchical(build_synthetic_matrix(512, "random_signs_decay"))
    # each of the 73 searches scores the screen's argmin; the 2 searches
    # whose screen leaves more than that one alive score their survivors
    assert len(kept) == 73 + 2
    assert max(kept) <= 4


@pytest.mark.parametrize("n_rows", [1, 3, 255, 4097])
def test_blocked_exact_scores_are_bitwise_one_shot(n_rows):
    # entries in eighths make every partial sum of a product exact, so this
    # sees the blocks, the padding of a lone candidate and the reduction of
    # each score, whatever order BLAS sums a product in
    rng = np.random.default_rng(n_rows)
    cands = signs._exhaustive_signs(8).astype(float)
    cols = rng.integers(-8, 9, size=(n_rows, 8)) / 8.0
    cols[0] = 1e3  # past the overflow guard unless a candidate's signs balance
    base = rng.standard_normal(n_rows)
    want = signs._score(cands @ cols.T + base, 1.5, 0.5)
    every = np.arange(cands.shape[0])
    for idx in (every, every[1::2], every[[77]], every[[255, 3]]):
        assert np.array_equal(signs._exact_scores(cols, cands, base, 1.5, 0.5, idx), want[idx])


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


@pytest.mark.parametrize("block", range(2, 13))
def test_signal_only_searches_keep_the_reference_signs(block, monkeypatch):
    # random decay with about a third of its columns exactly zero, and the
    # first block wholly zero, so that merges hold zero columns too; the
    # reference scores all 2^b candidates of every search
    rng = np.random.default_rng(100 + block)
    n = block * block + 3  # a merge level above the level-0 blocks
    v = build_synthetic_matrix(n, "random_signs_decay", seed=block).values.copy()
    zero = rng.random(n) < 0.35
    zero[:block] = True
    v[:, zero] = 0.0
    v = SignMatrix(v)
    widths = []
    search = signs._best_candidate
    monkeypatch.setattr(signs, "_best_candidate", lambda *a: widths.append(a[0].any(axis=0)) or search(*a))
    got = solve_hierarchical(v, block=block).eps
    assert any(w.any() and not w.all() for w in widths)  # mixed searches ran
    monkeypatch.setattr(signs, "_best_candidate", best_candidate_reference)
    assert np.array_equal(got, solve_hierarchical(v, block=block).eps)


def test_a_mixed_block_is_screened_on_its_signal_columns(monkeypatch):
    widths = []
    screen = signs._screen
    monkeypatch.setattr(signs, "_screen", lambda cols, *a: widths.append(cols.shape[1]) or screen(cols, *a))
    rng = np.random.default_rng(7)
    cols = rng.standard_normal((40, 8))
    cols[:, [1, 4, 5]] = 0.0
    base = rng.standard_normal(40)
    sigma = float(np.max(np.abs(cols)))
    got = signs._best_candidate(cols, base, sigma, 0.5, 64, None, {})
    assert widths == [5]
    assert got[[1, 4, 5]].tolist() == [1, 1, 1]
    assert np.array_equal(got, best_candidate_reference(cols, base, sigma, 0.5, 64, None))


# sha256 of the int8 sign vectors of solve_hierarchical with its defaults,
# recorded before the block search was screened; the n=64 exact_decay
# vector was recorded again once the top merge scored against an exact
# zero base: it is the negation of the vector recorded before. The ids keep
# the distance, circular, that every built matrix has
SIGN_PINS = {
    (64, "exact_decay"): "aefd6168b636ab121e9fdd8e449d248ccbc36a7f2d75d4bcc8a42ca74a8d4ca7",
    (64, "random_signs_decay"): "96054c5b66efc292570cfa9495d4a62cc36956163f20aadde1afbef49874e970",
    (512, "exact_decay"): "6d801beebaf927e0c5a3cbb993bfd60507d29cc1cfc734c9d51ff63451fa553f",
    (512, "random_signs_decay"): "4100a484095f64f9ba87e0fb64a41682e5d788b785d834ec781389ea506a2644",
}


@pytest.mark.parametrize("key", sorted(SIGN_PINS), ids=lambda k: f"{k[0]}-{k[1]}-circular")
def test_hierarchical_sign_vectors_pinned(key):
    n, profile = key
    eps = solve_hierarchical(build_synthetic_matrix(n, profile, seed=0)).eps
    assert hashlib.sha256(eps.tobytes()).hexdigest() == SIGN_PINS[key]


# sha256 of int8 sign vectors recorded while every block search still
# made one (candidates x rows) product: the lab's n=4096 solve, and random
# signs at block 8 (exhaustive searches) and 16 (random candidates) with a
# seeded solve. The two n=1003 vectors, whose last run is short at every
# level, were recorded while the solver still held index arrays per run
BLOCKED_SIGN_PINS = {
    (4096, "exact_decay", 0, 8, 0): "2134e98b94458d808326b641b3790aafc307071f70e86189a2be4f0ef5511c37",
    (1024, "random_signs_decay", 3, 8, 5): "0f995c6baa25b1375a2c06f525af82582d844e807cd3ab1cb40962181c879907",
    (1024, "random_signs_decay", 3, 16, 5): "bf684c4d6e3160698c5d2d5f2f330b7cb78ff80a7f646050a97693724837d9c7",
    (1003, "exact_decay", 0, 8, 0): "9666f3cbefe30613a08ad33fdc1ed06e6ecbde73fb7ba742a201a05c9ccf85d6",
    (1003, "random_signs_decay", 3, 16, 5): "7dbb67d31b1abac707229dd52d03aab257c3e7c179a584629e6f55596ccf9b75",
}


@pytest.mark.parametrize("key", sorted(BLOCKED_SIGN_PINS), ids=lambda k: f"{k[0]}-{k[1]}-b{k[3]}")
def test_blocked_searches_keep_the_pinned_signs(key):
    n, profile, seed, block, solve_seed = key
    v = build_synthetic_matrix(n, profile, seed=seed)
    eps = solve_hierarchical(v, block, 64, solve_seed, 0.5).eps
    assert hashlib.sha256(eps.tobytes()).hexdigest() == BLOCKED_SIGN_PINS[key]


def test_top_merge_breaks_the_global_flip_tie_by_rule():
    # every row sum lies inside the top merge, so a flip vector and its
    # negation tie exactly, and the first candidate, +1 first, must win
    # rather than whichever rounding residue favours
    v = build_synthetic_matrix(64, "exact_decay", seed=0)
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
)
@example(64, "exact_decay", 0)
def test_single_merge_keeps_the_first_sign_positive(n, profile, seed):
    # 9 .. 64 columns at block 8: 2 .. 8 level-0 blocks, then the top merge
    # alone. Block 0 and the top merge both search against an exact zero
    # base, so each keeps the first of a tied candidate pair, whose first
    # sign is +1
    calls = []
    search = signs._best_candidate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signs, "_best_candidate", lambda *a: calls.append(a[0].shape[1]) or search(*a))
        eps = solve_hierarchical(build_synthetic_matrix(n, profile, seed=seed)).eps
    blocks = -(-n // 8)
    assert len(calls) == blocks + 1 and calls[-1] == blocks
    assert eps[0] == 1
