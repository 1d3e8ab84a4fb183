"""Counter-based random streams indexed by dyadic position.

Every random draw in this package is addressed, not sequential: the uniform
attached to the dyadic point k / 2**n under a given seed is a fixed function
of (seed, n, k). Deepening a construction by more ranks therefore never
perturbs the draws of shallower ranks, and two samplers sharing a seed see
identical uniforms at identical points. Philox supplies the counter-based
generator; one keyed generator per (seed, rank) yields the whole rank's
uniforms in a single vectorized call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DyadicStream", "tagged_generator"]

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


def tagged_generator(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic generator for an auxiliary purpose (Monte Carlo etc.)."""
    key = _mix(_TAG_SALT, seed, *tags)
    return np.random.Generator(np.random.Philox(key=key))


class DyadicStream:
    """Per-dyadic-point uniforms under one seed.

    rank_uniforms(n)[(k - 1) // 2] is the draw attached to the point
    k / 2**n (k odd). All values lie in the open interval (0, 1): the
    generator's grid of 2**-53 multiples of [0, 1) is shifted by 2**-54,
    which keeps exactness while forbidding the endpoints.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._cache: dict[int, np.ndarray] = {}

    def rank_uniforms(self, n: int) -> np.ndarray:
        """All 2**(n-1) uniforms of rank n, indexed by (k - 1) // 2."""
        got = self._cache.get(n)
        if got is None:
            key = _mix(_RANK_SALT, self.seed, n)
            g = np.random.Generator(np.random.Philox(key=key))
            got = g.random(1 << (n - 1)) + 2.0**-54
            got.setflags(write=False)
            self._cache[n] = got
        return got
