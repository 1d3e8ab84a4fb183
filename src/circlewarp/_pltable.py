"""What the derand engines (_window, _quadrature, _sampler) share, as they
read nothing of each other or of derand: the piecewise-linear table of a
sampled function with its lookups of f, of F and of window means of f, the
budget and frozen-tail tables, the cell grid, the flatness masks, the work
block _BLOCK and the buffers one value-profile job reuses (_Workspace). A
state here is anything with the fields of a derand.DerandState.
"""

from __future__ import annotations

import math

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
    """Buffer `name` of the workspace ws (a _Workspace) as shape, or a fresh
    array without one."""
    return np.empty(shape, dtype) if ws is None else ws.view(name, shape, dtype)


# Work size, in array elements, of the blocks that every stage streams
# through: the value engine's children of one descent step and its
# frozen-tail means (in the _BLOCK-element buffers of one _Workspace per
# profile job), and the Monte-Carlo paths with the buffer they are summed
# in; the sampler's draws come in blocks of 16 * _BLOCK, each block of paths
# seeking its draws in its live cell's Philox stream. Small enough that a
# block's temporaries stay in cache, and it bounds the working set: no stage
# holds (rows x nodes) of a whole quadrature level or (paths x grid points)
# of a whole cell. It cannot change a result: every row is the same elementwise expression
# whatever the block or the buffer it is written into, np.add.at meets each
# grid point's terms in the same order (see _descend), a draw is the same at
# its stream position whatever call reads it, and the sampler's sums add a
# cell's rows one by one in order, whatever the block. The window engine
# needs no blocks: its work per half window is linear in the points and in
# the f pieces that the points' lines reach.
_BLOCK = 1 << 14


class _Workspace:
    """Named flat buffers that the blocks of one value-profile job reuse,
    so that its frozen tail and its level means allocate nothing per block:
    view(name, shape) is the start of buffer `name` as that shape. A buffer
    holds _BLOCK elements and grows only for a larger block. The views are
    kept, since most blocks of a job share their shape."""

    __slots__ = ("_bufs", "_views")

    def __init__(self):
        self._bufs = {}
        self._views = {}

    def view(self, name, shape, dtype=float):
        out = self._views.get((name, shape))
        if out is None:
            size = math.prod(shape)
            buf = self._bufs.get(name)
            if buf is None or buf.size < size:
                buf = self._bufs[name] = np.empty(max(size, _BLOCK), dtype)
                self._views = {key: v for key, v in self._views.items() if key[0] != name}
            out = self._views[name, shape] = buf[:size].reshape(shape)
        return out


def _q_table(q, m: int) -> np.ndarray:
    """Budget at every grid index 1 .. 2**m - 1, indexed by position."""
    out = np.zeros((1 << m) + 1)
    for rank in range(1, m + 1):
        step = 1 << (m - rank)
        out[step :: 2 * step] = q.rank_values(rank)
    return out


def _tail_table(qtab: np.ndarray, seg: int) -> np.ndarray:
    """qtab[g] * lowbit(g mod seg) / seg at every grid index g: the half
    width, per unit of its segment's span, of a point inside a seg-wide
    segment whose deeper ranks are frozen at conditional centers. The value
    engine's frozen tail and the window engine's half cells both read it.
    The factor is a power of two, so tail[g] * span rounds exactly as
    qtab[g] * span * factor does."""
    d = np.arange(qtab.size) % seg
    return qtab * ((d & -d) / seg)


def _cell_grid(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices, on the 2**m grid at active rank n, of the 2**(n-1) + 1
    pinned cell edges and of the 2**(n-1) live midpoints between them."""
    edges = np.arange((1 << (n - 1)) + 1) << (m - n + 1)
    return edges, edges[:-1] + (1 << (m - n))


def _flat_half_cells(state) -> np.ndarray:
    """Per live cell (rows) and half cell (columns: 0 left, 1 right),
    whether the samples of f at indices floor(lo 2**m) .. ceil(hi 2**m)
    (index 2**m wrapping to 0) are all equal, [lo, hi] being the range that
    the half cell's images can reach: [a, j_hi] for the left half and
    [j_lo, b] for the right, [a, b] the cell's pinned image. Then the
    interpolant is constant on [lo, hi], and so is f(warp(t)) for every t
    in the half cell whatever the warp does there. One cumulative count of
    the sample changes answers every range."""
    v = np.asarray(state.f.values, dtype=float)
    size = v.size
    steps = np.concatenate([[0], np.cumsum(v != np.roll(v, -1))])
    lo = np.stack([state.fixed_y[:-1], state.j_lo], axis=1)
    hi = np.stack([state.j_hi, state.fixed_y[1:]], axis=1)
    return steps[np.ceil(hi * size).astype(np.int64)] == steps[np.floor(lo * size).astype(np.int64)]


def _constant_cells(state) -> np.ndarray:
    """Per live cell, whether f is flat on its whole pinned image [a, b]:
    both its half cells are flat (_flat_half_cells), since their ranges
    [a, j_hi] and [j_lo, b] overlap on the window and cover [a, b]."""
    return _flat_half_cells(state).all(axis=1)
