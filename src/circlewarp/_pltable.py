"""The piecewise-linear table of a sampled function that the derand engines
read: values, slopes and the exact antiderivative per grid piece, with the
lookups of f, of F and of window means of f that the window engine, the
value engine and the Monte-Carlo sampler share.

Its own module, so that compiling derand, the package's largest module,
holds less at once: without cached bytecode every process compiles the
package at import, and derand's compile sets the import's peak memory.
"""

from __future__ import annotations

import numpy as np

from .grid import SampledFunction


class _PLTable:
    """Piecewise-linear interpolant of the samples plus its antiderivative.

    Piece p covers [p, p+1] / 2**m; F is the exact integral of the
    interpolant from 0, so window means of f are quotients of F values.
    half_slopes and inv_size are exact rescalings (powers of two), so the
    lookups below round exactly as the textbook expressions in their
    docstrings do."""

    __slots__ = ("m", "size", "inv_size", "values", "slopes", "half_slopes", "cum")

    def __init__(self, f: SampledFunction):
        self.m = f.m
        self.size = 1 << f.m
        self.inv_size = 2.0**-f.m
        v = np.asarray(f.values, dtype=float)
        nxt = np.roll(v, -1)
        self.values = v
        self.slopes = (nxt - v) * self.size
        self.half_slopes = 0.5 * self.slopes
        self.cum = np.concatenate([[0.0], np.cumsum((v + nxt) * (0.5 / self.size))])

    def piece(self, u, ws=None):
        u = np.asarray(u)
        scaled = np.multiply(u, self.size, out=_scratch(ws, "offset", u.shape))
        p = _scratch(ws, "piece", u.shape, np.int64)
        np.copyto(p, scaled, casting="unsafe")
        return np.clip(p, 0, self.size - 1, out=p)

    def _offset(self, u, p, ws=None):
        du = np.multiply(p, self.inv_size, out=_scratch(ws, "offset", p.shape))
        return np.subtract(u, du, out=du)

    def f_at(self, u):
        """values[p] + slopes[p] * (u - p / size), p = piece(u)."""
        p = self.piece(u)
        du = self._offset(u, p)
        du *= self.slopes.take(p)
        du += self.values.take(p)
        return du

    def F_at(self, u, ws=None):
        """cum[p] + (values[p] + 0.5 * slopes[p] * du) * du, du = u - p / size,
        p = piece(u). With a workspace ws its temporaries are ws's buffers
        and F is written over u, a float array of the caller's."""
        p = self.piece(u, ws)
        du = self._offset(u, p, ws)
        out = np.empty(p.shape) if ws is None else u
        self.half_slopes.take(p, out=out, mode="clip")
        out *= du
        gathered = self.values.take(p, out=_scratch(ws, "gather", p.shape), mode="clip")
        out += gathered
        out *= du
        out += self.cum.take(p, out=gathered, mode="clip")
        return out

    def lookup(self, u, p):
        """F and f at u on piece p, and half_slopes[p], from one offset and
        one gather of each table; f is evaluated as values[p] + 2 * (half
        slope * du), which may differ from f_at in the last bit."""
        du = self._offset(u, p)
        half = self.half_slopes.take(p)
        rise = half * du
        g = self.values.take(p)
        g += rise
        F = g * du
        # du is dead once F holds g * du
        F += self.cum.take(p, out=du, mode="clip")
        g += rise
        return F, g, half

    def mean_F(self, ulo, uhi, ws=None):
        """Mean of f over [ulo, uhi]; pointwise value when the window is
        too short for the quotient to be trustworthy. With a workspace ws
        its temporaries are ws's buffers, and ulo and uhi, float arrays of
        the caller's, are overwritten: the means are returned in uhi."""
        ulo = np.asarray(ulo, dtype=float)
        uhi = np.asarray(uhi, dtype=float)
        w = np.subtract(uhi, ulo, out=_scratch(ws, "width", uhi.shape))
        tiny = np.less_equal(w, 1e-13, out=_scratch(ws, "tiny", w.shape, bool))
        mid = self.f_at(0.5 * (ulo + uhi)) if tiny.any() else None
        out = self.F_at(uhi, ws)
        out -= self.F_at(ulo, ws)
        if mid is None:
            out /= w
            return out
        out /= np.where(tiny, 1.0, w)
        return np.where(tiny, mid, out)


def _scratch(ws, name, shape, dtype=float):
    """Buffer `name` of the workspace ws (a derand._Workspace) as shape, or
    a fresh array without one."""
    return np.empty(shape, dtype) if ws is None else ws.view(name, shape, dtype)
