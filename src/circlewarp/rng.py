"""Counter-based random streams indexed by dyadic position.

Every random draw in this package is addressed, not sequential: the uniform
attached to the dyadic point k / 2**n under a given seed is a fixed function
of (seed, n, k). Deepening a construction by more ranks therefore never
perturbs the draws of shallower ranks, and two samplers sharing a seed see
identical uniforms at identical points. Philox supplies the counter-based
generator; one key per (seed, rank) yields the whole rank's uniforms in a
single vectorized call.
"""

from __future__ import annotations

import threading

import numpy as np

from .grid import _exponent, _whole

__all__ = ["rank_uniforms", "tagged_generator"]

# Fixed 64-bit salts separating the package's independent stream families.
_RANK_SALT = 0x9E3779B97F4A7C15
_TAG_SALT = 0xD1B54A32D192ED03


def _mix(*parts: int) -> int:
    """splitmix64-style fold of integers into one 64-bit key."""
    h = 0x243F6A8885A308D3
    for p in parts:
        h = (h + (p & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
        h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        h = h ^ (h >> 31)
    return h


# One Philox generator per thread, rewound to a key before each keyed draw.
_local = threading.local()


def _keyed_random(key: int, size: int, start: int = 0) -> np.ndarray:
    """The doubles at positions start .. start + size - 1 of the stream of
    Generator(Philox(key=key)).random, bit for bit, from this thread's
    generator: constructing a Philox first draws a SeedSequence from OS
    entropy that a key makes unused, which costs several times the draw of
    a small rank. Generator.random takes one 64-bit Philox output per double
    and Philox makes four outputs per counter step, so position p is reached
    by setting the counter to p // 4 with an empty buffer (the next step
    fills the buffer with outputs 4 (p // 4) .. 4 (p // 4) + 3) and
    discarding p % 4 draws."""
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox(key=0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([start >> 2, 0, 0, 0], np.uint64),
            "key": np.array([key, 0], np.uint64),
        },
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    if start & 3:
        gen.random(start & 3)
    return gen.random(size)


def _tag_key(seed: int, *tags: int) -> int:
    """The Philox key of tagged_generator(seed, *tags)."""
    return _mix(_TAG_SALT, _whole(seed, None, "seed must be an integer"), *tags)


def tagged_generator(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic generator for an auxiliary purpose (Monte Carlo etc.)."""
    return np.random.Generator(np.random.Philox(key=_tag_key(seed, *tags)))


def rank_uniforms(seed: int, n: int) -> np.ndarray:
    """All 2**(n-1) uniforms of rank n under seed; entry (k - 1) // 2 is the
    draw attached to the point k / 2**n (k odd). All values lie in the open
    interval (0, 1): the generator's grid of 2**-53 multiples of [0, 1) is
    shifted by 2**-54, which keeps exactness while forbidding the endpoints.
    The rank is a whole number from 1 to 26, the cap of a grid exponent.
    """
    n = _exponent(_whole(n, 1, "rank must be >= 1"))
    key = _mix(_RANK_SALT, _whole(seed, None, "seed must be an integer"), n)
    return _keyed_random(key, 1 << (n - 1)) + 2.0**-54
