"""Counter-based streams: keyed draws without a Philox built per draw."""

import threading

import numpy as np
import pytest

from circlewarp import rng


def reference(key, size):
    return np.random.Generator(np.random.Philox(key=key)).random(size)


@pytest.mark.parametrize("key", [0, 2**64 - 1])
def test_keyed_draws_are_a_fresh_philox(key):
    for size in range(1, (1 << 11) + 1):
        assert np.array_equal(rng._keyed_random(key, size), reference(key, size))


def test_seeks_are_slices_of_one_long_draw():
    # Generator.random takes one 64-bit Philox output per double, and Philox
    # makes four outputs per counter step: a seek sets the counter to
    # start // 4 and discards start % 4 draws, so a change to either count
    # in NumPy shows here
    key = rng._mix(7, 11)
    starts = (0, 1, 3, 4, 5, 4097, 990_000)
    whole = reference(key, max(starts) + 4096)
    for start in starts:
        for size in range(1, 4097):
            got = rng._keyed_random(key, size, start)
            assert np.array_equal(got, whole[start : start + size]), (start, size)


def test_interleaved_streams_are_independent():
    seeds = (3, 2**40 + 7)
    for n in range(1, 12):
        for seed in seeds:
            want = reference(rng._mix(rng._RANK_SALT, seed, n), 1 << (n - 1)) + 2.0**-54
            assert np.array_equal(rng.rank_uniforms(seed, n), want)
    # a draw of one key leaves no trace in the next draw of another
    for size in (1, 3, 4, 5, 1000):
        for key in (11, 2**63 + 5, 11):
            assert np.array_equal(rng._keyed_random(key, size), reference(key, size))


def test_threads_draw_from_their_own_generator():
    keys = range(8)
    want = {k: reference(k, 257) for k in keys}
    bad = []

    def draw():
        for _ in range(200):
            for k in keys:
                if not np.array_equal(rng._keyed_random(k, 257), want[k]):
                    bad.append(k)

    threads = [threading.Thread(target=draw) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert bad == []
