"""Named test functions for the convergence experiments.

Four families: an oscillating wave cut off abruptly at the end of its support,
the same wave with a raised-cosine taper, a train of disjoint resonant sine
packets at rapidly shrinking scales, and a lacunary sum of modulated Fejer-type
blocks whose partial sums grow with the block count.  Step-function inputs
(Rademacher and its jittered perturbation) are re-exported from the Haar module
so every generator is reachable through one registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .grid import ResolutionError, SampledFunction, _exponent, _real, _whole
from .haar import _SUP_TOL, perturbed_square_wave, rademacher


def _grid(m: int) -> np.ndarray:
    return np.arange(1 << m, dtype=float) / float(1 << m)


def oscillation(n_cycles: int, gamma: float = 0.5, m: int = 14) -> SampledFunction:
    """Wave with an abrupt end: sin of a ramped phase on [0, gamma], zero after.

    The ramp runs linearly from 0 at t=0 to 1 at t=gamma and the phase is
    n_cycles*pi*ramp, so the wave changes sign n_cycles times across its
    support and lands on a zero at gamma.
    """
    m = _exponent(m)
    n_cycles = _whole(n_cycles, 1, "n_cycles must be a positive integer")
    gamma = _real(gamma, 0.0, 1.0, "gamma must lie strictly inside (0, 1)", "()")
    t = _grid(m)
    inside = t <= gamma
    ramp = t[inside] / gamma
    values = np.zeros(1 << m)
    values[inside] = np.sin(math.pi * n_cycles * ramp)
    return SampledFunction(m, values)


def _taper_envelope(s: np.ndarray) -> np.ndarray:
    # Identity on the first two thirds (so the tapered wave agrees with the
    # abrupt one there), raised-cosine roll-off to 0 over the final third.
    env = np.ones_like(s)
    tail = s > 2.0 / 3.0
    env[tail] = 0.5 * (1.0 + np.cos(3.0 * math.pi * (s[tail] - 2.0 / 3.0)))
    return env


def tapered_oscillation(n_cycles: int, gamma: float = 0.5, m: int = 14) -> SampledFunction:
    """Same wave as :func:`oscillation` but eased to zero at the cutoff.

    The envelope is 1 on [0, 2*gamma/3] and rolls off smoothly over the final
    third, so the product vanishes at both ends of the support: gently at
    gamma through the envelope, and at 0 because the phase starts at zero.
    Its spectral sums stay bounded where the abrupt version's grow.
    """
    m = _exponent(m)
    raw = oscillation(n_cycles, gamma, m)
    t = _grid(m)
    inside = t <= gamma
    values = raw.values.copy()
    values[inside] *= _taper_envelope(t[inside] / gamma)
    return SampledFunction(m, values)


def _packet_scales(k_max: int, decay) -> np.ndarray:
    if decay is None:
        scales = [math.factorial(k) ** -3.0 for k in range(1, k_max + 1)]
    else:
        scales = [_real(a, 0.0, 1.0, "packet scales must lie in (0, 1]", "(]") for a in decay]
        if len(scales) != k_max:
            raise ValueError(f"decay sequence must supply {k_max} scales, got {len(scales)}")
    a = np.asarray(scales, dtype=float)
    for k in range(2, k_max + 1):
        # disjointness: packet k ends strictly before packet k-1 begins
        if not k * a[k - 1] < a[k - 2]:
            raise ValueError(
                f"packet intervals overlap: {k}*a_{k} = {k * a[k - 1]:.6g} "
                f"is not below a_{k - 1} = {a[k - 2]:.6g}"
            )
    return a


def resonant_packets(k_max: int = 6, m: int = 14, decay=None) -> SampledFunction:
    """Disjoint sine packets at cascading scales, resonant at one degree each.

    Packet k (k >= 2) lives on [a_k, k*a_k] and swings through k half-sine
    arches; the function is exactly zero between packets.  The scale sequence
    a_k defaults to (k!)^-3 and may be overridden by an explicit sequence
    a_1..a_{k_max}; overlapping intervals are rejected.
    Packet 1 is degenerate (its interval is a point), so k_max=1 yields the
    zero function.
    """
    m = _exponent(m)
    k_max = _whole(k_max, 1, "k_max must be a positive integer")
    a = _packet_scales(k_max, decay)
    t = _grid(m)
    values = np.zeros(1 << m)
    for k in range(2, k_max + 1):
        lo = a[k - 1]
        width = (k - 1) * a[k - 1]
        mask = (t >= lo) & (t <= lo + width)
        values[mask] = np.sin(k * math.pi * (t[mask] - lo) / width)
    return SampledFunction(m, values)


def fejer_blocks(block_count: int, m: int = 14) -> SampledFunction:
    """Lacunary sum of modulated Fejer-type polynomials, normalized to sup 1.

    Block j carries the frequency band (2^{j+2}, 2^{j+3}) with weight
    2^{j-block_count}: a sine polynomial with logarithmically large partial
    sums, shifted to its band center.  Cutting the series inside a band
    exposes that logarithm, so sup_r |S_r f| grows with block_count even
    though the function itself stays bounded by 1.
    """
    m = _exponent(m)
    block_count = _whole(block_count, 0, "block_count must be a nonnegative integer")
    size = 1 << m
    if block_count and 1 << (block_count + 3) > size // 2:
        raise ResolutionError(
            f"block {block_count} needs frequencies up to {(1 << (block_count + 3)) - 1}, "
            f"beyond the grid Nyquist limit {size // 2 - 1}"
        )
    spectrum = np.zeros(size, dtype=complex)
    for j in range(1, block_count + 1):
        half_len = 1 << (j + 1)
        center = 3 * half_len
        weight = 2.0 ** (j - block_count)
        k = np.arange(1, half_len)
        amp = weight / (2.0 * k)
        for freq, sign in ((center - k, 1.0), (center + k, -1.0)):
            spectrum[freq] += sign * amp
            spectrum[-freq] += sign * amp
    values = np.fft.ifft(spectrum).real * size
    peak = np.abs(values).max()
    if peak > 0.0:
        values /= peak
    return SampledFunction(m, values)


_GENERATORS: dict[str, Callable[..., SampledFunction]] = {
    "oscillation": oscillation,
    "tapered_oscillation": tapered_oscillation,
    "kk_example": resonant_packets,
    "fejer_blocks": fejer_blocks,
    "rademacher": rademacher,
    "perturbed_square": perturbed_square_wave,
}


@dataclass(frozen=True)
class CorpusSpec:
    """Named generator plus its parameters; the unit every experiment logs."""

    kind: str
    params: Mapping = field(default_factory=dict)
    m: int = 14

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _GENERATORS):
            valid = ", ".join(sorted(_GENERATORS))
            raise ValueError(f"unknown corpus kind {self.kind!r}; valid kinds: {valid}")
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "m", _exponent(self.m))

    def build(self) -> SampledFunction:
        try:
            f = _GENERATORS[self.kind](m=self.m, **self.params)
        except TypeError as exc:
            raise ValueError(f"bad parameters for corpus kind {self.kind!r}: {exc}") from None
        sup = f.sup_norm()
        if sup > 1.0 + _SUP_TOL:
            raise ValueError(f"corpus output exceeds unit sup norm: {sup!r}")
        return f

    def label(self) -> str:
        """Stable short identifier used in manifests and file names."""
        if not self.params:
            return f"{self.kind}_m{self.m}"
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.kind}({inner})_m{self.m}"
