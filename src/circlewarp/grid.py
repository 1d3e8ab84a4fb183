"""Core types: dyadic-grid sampled functions and piecewise-linear circle maps.

Everything lives on the circle of circumference 1, represented as [0, 1] with
the endpoints identified. A sampled function holds its values on the uniform
grid i / 2**m and is read as piecewise linear between nodes, wrapping around
at 1. Homeomorphisms are strictly increasing piecewise-linear maps of [0, 1]
onto itself fixing both endpoints, so they extend to circle maps fixing 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ResolutionError",
    "SampledFunction",
    "DyadicPoint",
    "PLHomeo",
    "compose",
    "identity_homeo",
    "homeo_to_json",
    "homeo_from_json",
]


class ResolutionError(ValueError):
    """Raised when a grid is too coarse for the requested operation."""


def _readonly(a, dtype=float):
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _reduce_mod1(t):
    """Map arguments outside [0, 1] into [0, 1), keeping interior points
    (including 1.0 itself) untouched."""
    t = np.asarray(t, dtype=float)
    if np.any(np.isnan(t)):
        raise ValueError("NaN argument on the circle")
    out = np.where((t < 0.0) | (t > 1.0), t - np.floor(t), t)
    return out


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """A 1-periodic real function sampled on the grid i / 2**m.

    Parameters
    ----------
    m : int
        Grid exponent; the grid has 2**m nodes.
    values : array_like
        2**m real samples, values[i] = f(i / 2**m).
    """

    m: int
    values: np.ndarray

    def __post_init__(self):
        if not (0 <= int(self.m) <= 26):
            raise ValueError(f"grid exponent out of range: {self.m}")
        vals = _readonly(self.values)
        if vals.ndim != 1 or vals.shape[0] != (1 << self.m):
            raise ValueError(
                f"expected 2**{self.m} = {1 << self.m} samples, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return 1 << self.m

    def eval(self, t):
        """Piecewise-linear periodic evaluation."""
        t = _reduce_mod1(t)
        xp = np.arange(self.size + 1) / self.size
        fp = np.concatenate([self.values, self.values[:1]])
        return np.interp(t, xp, fp)

    __call__ = eval

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @classmethod
    def from_callable(cls, m: int, fn) -> "SampledFunction":
        t = np.arange(1 << m) / (1 << m)
        return cls(m, np.asarray(fn(t), dtype=float))


@dataclass(frozen=True)
class DyadicPoint:
    """The dyadic rational k / 2**n in lowest terms (k odd, 0 < k < 2**n)."""

    k: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"rank must be >= 1, got {self.n}")
        if not (0 < self.k < (1 << self.n)):
            raise ValueError(f"need 0 < k < 2**{self.n}, got k={self.k}")
        if self.k % 2 == 0:
            raise ValueError(f"k must be odd, got {self.k} (reduce the fraction)")


@dataclass(frozen=True, eq=False)
class PLHomeo:
    """Increasing piecewise-linear homeomorphism of [0, 1] fixing 0 and 1.

    Stored as parallel breakpoint arrays x, y with x[0] = y[0] = 0,
    x[-1] = y[-1] = 1 and both strictly increasing.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _readonly(self.x)
        y = _readonly(self.y)
        if x.ndim != 1 or x.shape != y.shape or x.shape[0] < 2:
            raise ValueError("breakpoints must be two equal-length 1-d arrays")
        if not (x[0] == 0.0 and y[0] == 0.0 and x[-1] == 1.0 and y[-1] == 1.0):
            raise ValueError("breakpoints must start at (0,0) and end at (1,1)")
        if not (np.all(np.diff(x) > 0.0) and np.all(np.diff(y) > 0.0)):
            raise ValueError("breakpoints must be strictly increasing in both coordinates")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def eval(self, t):
        t = _reduce_mod1(t)
        return np.interp(t, self.x, self.y)

    __call__ = eval

    def inverse(self) -> "PLHomeo":
        """Swap coordinates. Exact: inverse().inverse() is the same breakpoint list."""
        return PLHomeo(self.y, self.x)


def identity_homeo() -> PLHomeo:
    return PLHomeo(np.array([0.0, 1.0]), np.array([0.0, 1.0]))


def compose(f: SampledFunction, h: PLHomeo, m_out: int | None = None) -> SampledFunction:
    """Sample f(h(t)) on the grid of exponent m_out (default: f.m + 4).

    The output node at i / 2**m_out carries the piecewise-linear value of f
    at h(i / 2**m_out).
    """
    if m_out is None:
        m_out = f.m + 4
    t = np.arange(1 << m_out) / (1 << m_out)
    return SampledFunction(m_out, f.eval(h.eval(t)))


# --- JSON wire format -------------------------------------------------------
#
# Floats go through Python's shortest round-trip repr, so loading returns
# bitwise-identical values.


def homeo_to_json(h: PLHomeo) -> str:
    pts = [[float(a), float(b)] for a, b in zip(h.x, h.y)]
    return json.dumps({"breakpoints": pts})


def homeo_from_json(text: str) -> PLHomeo:
    obj = json.loads(text)
    pts = np.asarray(obj["breakpoints"], dtype=float)
    return PLHomeo(pts[:, 0], pts[:, 1])
