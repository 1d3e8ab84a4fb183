"""Core types: dyadic-grid sampled functions and piecewise-linear circle maps.

Everything lives on the circle of circumference 1, represented as [0, 1] with
the endpoints identified. A sampled function holds its values on the uniform
grid i / 2**m and is read as piecewise linear between nodes, wrapping around
at 1. Homeomorphisms are strictly increasing piecewise-linear maps of [0, 1]
onto itself fixing both endpoints, so they extend to circle maps fixing 0.
"""

from __future__ import annotations

import json
import math
import numbers
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


def _whole(value, low: int | None, message: str) -> int:
    """value as an int if it is a whole number, at least low unless low is
    None, and no bool; else ValueError(message). 3.0 reads as 3, where int()
    alone would also read 2.5 as 2 and True as 1 without a word. A plain
    int at least low is returned at once."""
    if type(value) is int and (low is None or value >= low):
        return value
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        if not _real(value, None, None, message).is_integer():
            raise ValueError(message)
    if low is not None and value < low:
        raise ValueError(message)
    return int(value)


def _real(value, low: float | None, high: float | None, message: str, ends: str = "[]") -> float:
    """value as a float if it is a finite real, no bool, from low to high:
    ends marks each end closed, "[" or "]", or open, "(" or ")"; a None end
    is no bound. Else ValueError(message): True is a slip, "0.5" is text,
    and a NaN fails every comparison. A plain float is not converted."""
    if type(value) is not float:
        # what is no real number, or an int past the floats, fails as a NaN
        try:
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            value = float(value) if real else math.nan
        except OverflowError:
            value = math.nan
    above = low is None or (value > low if ends[0] == "(" else value >= low)
    below = high is None or (value < high if ends[1] == ")" else value <= high)
    if not (math.isfinite(value) and above and below):
        raise ValueError(message)
    return value


def _array(a, ndim: int | None, message: str, dtype=float, copy: bool = True) -> np.ndarray:
    """a as a read-only array of dtype (float, or complex where the caller
    asks): a copy, or with copy False the array a itself, which its caller
    has just made and hands over. Unless the dtype NumPy infers for a is
    integer or floating (or complex, for complex), a has ndim axes (any for
    None) and every value is finite, ValueError(message): True, "0.5" and a
    NaN are no samples."""
    try:
        arr = np.asarray(a)
    except ValueError:  # a ragged nesting of lists
        raise ValueError(message) from None
    kinds = "iufc" if dtype is complex else "iuf"
    if arr.dtype.kind not in kinds or (ndim is not None and arr.ndim != ndim):
        raise ValueError(message)
    arr = np.array(arr, dtype=dtype) if copy else arr
    if arr.dtype.kind in "fc":
        flat = arr.ravel("K")  # a view of a contiguous array: no temporary
        # sum |x|**2 is finite only if every x is; only when it is not (a
        # NaN, an infinity or an overflow) is each x tested
        if not (math.isfinite(np.vdot(flat, flat).real) or np.isfinite(arr).all()):
            raise ValueError(message)
    return _handed(arr)


def _handed(arr: np.ndarray) -> np.ndarray:
    """arr itself, made read-only with no check: an array its caller has
    just made and hands over, which a later gate judges if at all."""
    arr.setflags(write=False)
    return arr


def _exponent(m) -> int:
    """m as a grid exponent: a whole number from 0 to 26, else
    ValueError. Read before any 1 << m, so that 6.0 reads as 6."""
    message = f"grid exponent out of range: {m}"
    m = _whole(m, 0, message)
    if m > 26:
        raise ValueError(message)
    return m


def _reduce_mod1(t):
    """Finite real arguments, of any shape, with those outside [0, 1] mapped
    into [0, 1) and interior points (including 1.0 itself) untouched."""
    t = _array(t, None, "circle arguments must be finite reals")
    return np.where((t < 0.0) | (t > 1.0), t - np.floor(t), t)


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
        object.__setattr__(self, "m", _exponent(self.m))
        vals = _array(self.values, 1, "samples must be a 1-d array of finite reals")
        if vals.shape[0] != (1 << self.m):
            raise ValueError(
                f"expected 2**{self.m} = {1 << self.m} samples, got shape {vals.shape}"
            )
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
        m = _exponent(m)
        t = np.arange(1 << m) / (1 << m)
        return cls(m, fn(t))


@dataclass(frozen=True)
class DyadicPoint:
    """The dyadic rational k / 2**n in lowest terms (k odd, 0 < k < 2**n)."""

    k: int
    n: int

    def __post_init__(self):
        n = _whole(self.n, 1, f"rank must be >= 1, got {self.n}")
        k = _whole(self.k, 1, f"need 0 < k < 2**{n}, got k={self.k}")
        if k >= 1 << n:
            raise ValueError(f"need 0 < k < 2**{n}, got k={k}")
        if k % 2 == 0:
            raise ValueError(f"k must be odd, got {k} (reduce the fraction)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)


@dataclass(frozen=True, eq=False)
class PLHomeo:
    """Increasing piecewise-linear homeomorphism of [0, 1] fixing 0 and 1.

    Stored as parallel breakpoint arrays x, y with x[0] = y[0] = 0,
    x[-1] = y[-1] = 1 and both strictly increasing.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        message = "breakpoints must be two equal-length 1-d arrays of finite reals"
        x = _array(self.x, 1, message)
        y = _array(self.y, 1, message)
        if x.shape != y.shape or x.shape[0] < 2:
            raise ValueError(message)
        if not (x[0] == 0.0 and y[0] == 0.0 and x[-1] == 1.0 and y[-1] == 1.0):
            raise ValueError("breakpoints must start at (0,0) and end at (1,1)")
        # no NaN is left to compare false; count_nonzero costs half of all()
        if np.count_nonzero(x[1:] <= x[:-1]) or np.count_nonzero(y[1:] <= y[:-1]):
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
    m_out = _exponent(f.m + 4 if m_out is None else _whole(m_out, 0, "m_out must be a nonnegative integer"))
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
    message = "breakpoints must be a list of [x, y] pairs of finite reals"
    pts = _array(json.loads(text)["breakpoints"], 2, message)
    if pts.shape[1] != 2:
        raise ValueError(message)
    return PLHomeo(pts[:, 0], pts[:, 1])
