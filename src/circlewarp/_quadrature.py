"""The quadrature value engine: the conditional expectation of f(warp(t))
at every grid point of a state (its profile), which the deviation records
and the Monte-Carlo guard read. It integrates several untouched ranks per
point with Gauss-Legendre nodes before freezing the rest (the value plan,
_plan); it reads no config. Its working set is bounded by _BLOCK: each
level's midpoint means are taken in _BLOCK slices, and the last level of
the quadrature tree is never built whole but generated a block of parents
at a time, in level order, straight into the frozen tail.

A profile's two jobs (_profile_jobs) split the half cells left to
integrate, and their slices joined are the whole profile bit for bit: every
quadrature row stays inside the half cell it starts in, and each grid index
receives the same additions in the same order. The profile is a pure
function of the state.
"""

from __future__ import annotations

import functools

import numpy as np

from ._pltable import _BLOCK, _PLTable, _Workspace, _cell_grid, _flat_half_cells, _q_table, _tail_table

# The two Gauss-Legendre rules the value plan reads, as the exact doubles of
# numpy.polynomial.legendre.leggauss(k): 4 nodes on the live window and the
# 2-point level panels. Written out, they keep numpy.polynomial (about 1 MB
# of resident memory) out of the process; the closed forms would differ from
# leggauss by 1-5 ulp at k = 4, and so move every profile.
_GL_RULES = {
    2: (("-0x1.279a74590331cp-1", "0x1.279a74590331cp-1"), ("0x1p+0", "0x1p+0")),
    4: (
        ("-0x1.b8e6dbcf63985p-1", "-0x1.5c23fd9dd3dfcp-2", "0x1.5c23fd9dd3dfcp-2", "0x1.b8e6dbcf63985p-1"),
        ("0x1.64340f7e7b666p-2", "0x1.4de5f840c24cdp-1", "0x1.4de5f840c24cdp-1", "0x1.64340f7e7b666p-2"),
    ),
}

_SHALLOW_RANK_MAX = 3  # the value plan, read through _plan
_Y_PANELS_SHALLOW = 16
_Y_PANELS_DEEP = 4
_Y_NODES = 4
_LEVEL_NODES_SHALLOW = (8, 4, 2, 2)
_LEVEL_NODES_DEEP = (8, 2)


def _plan(rank: int) -> tuple[int, int, tuple]:
    """The value plan at an active rank: live-window panels, nodes per panel
    and the levels' node counts (2-point panels); deeper ranks are frozen."""
    if rank <= _SHALLOW_RANK_MAX:
        return _Y_PANELS_SHALLOW, _Y_NODES, _LEVEL_NODES_SHALLOW
    return _Y_PANELS_DEEP, _Y_NODES, _LEVEL_NODES_DEEP


@functools.cache
def _gl_nodes(k: int):
    """Nodes and weights of the k-point Gauss-Legendre rule on [-1, 1], for
    the node counts that _GL_RULES holds."""
    if k not in _GL_RULES:
        raise ValueError(f"no {k}-point Gauss-Legendre rule: the value plan reads only {sorted(_GL_RULES)}")
    return tuple(np.array([float.fromhex(v) for v in half]) for half in _GL_RULES[k])


def _composite_gl(y1, y2, panels, k):
    """Composite k-point Gauss rule on [y1, y2]; the weights sum to 1."""
    nodes, wts = _gl_nodes(k)
    edges = y1 + (y2 - y1) * np.arange(panels + 1) / panels
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    ys = (mids[:, None] + half[:, None] * nodes[None, :]).ravel()
    ws = np.tile(wts * 0.5, panels) / panels
    return ys, ws


@functools.cache
def _level_rule(k: int):
    """The k-node rule of a quadrature level on [-1, 1]: two-point Gauss on
    k / 2 panels. Piecewise-linear integrands keep kinks at every scale, so
    spreading a fixed budget over panels beats one high-order rule on the
    whole window."""
    return _composite_gl(-1.0, 1.0, k // 2, 2)


def _children(lo, hi, w, xl, mid_x, centers, hw, k, rows):
    """The next quadrature level's rows (lo, hi, w, xl) under the k-node
    rule, `rows` parent rows at a time in level order: first every child
    from its parent's lo to a node, then every child from a node to its
    parent's hi. Each child is one elementwise expression of its parent, so
    the rows do not depend on `rows`."""
    nodes, wts = _level_rule(k)
    for upper in (False, True):
        for start in range(0, lo.size, rows):
            sl = slice(start, start + rows)
            u = (centers[sl, None] + hw[sl, None] * nodes).ravel()
            cw = (w[sl, None] * wts).ravel()
            if upper:
                yield u, hi[sl].repeat(k), cw, mid_x[sl].repeat(k)
            else:
                yield lo[sl].repeat(k), u, cw, xl[sl].repeat(k)


def _cell_expectation(E, table, qtab, tail, state, i, sides, plan, ws):
    """Add to E the quadrature of the grid points strictly inside cell i's
    half cells that sides names: 0 the left one, 1 the right one, in
    ascending order. Every row stays inside the half cell it starts in, so
    each half cell writes only its own range of E. ws is the job's
    _Workspace."""
    y_panels, y_nodes, level_nodes = plan
    m = table.m
    n = state.n_active
    seg = 1 << (m - n)  # segment width in grid units
    if seg < 2:
        return  # a half cell holds no grid point
    ys, y_wts = _composite_gl(float(state.j_lo[i]), float(state.j_hi[i]), y_panels, y_nodes)
    a = float(state.fixed_y[i])
    b = float(state.fixed_y[i + 1])
    lo = np.concatenate([ys if s else np.full(ys.size, a) for s in sides])
    hi = np.concatenate([np.full(ys.size, b) if s else ys for s in sides])
    w = np.tile(y_wts, len(sides))
    xl = np.repeat((2 * i + np.asarray(sides, dtype=np.int64)) * seg, ys.size)
    _descend(E, table, qtab, tail, (lo, hi, w, xl), seg, level_nodes[: m - n], ws)


def _descend(E, table, qtab, tail, rows, seg, nodes, ws):
    """Add to E the window means of rows (lo, hi, w, xl), whose segments
    are seg grid units wide, at their midpoints, then those of their
    descendants: under nodes[0] for the next level, and so on, the children
    of the last level being integrated over their frozen tails.

    The children stream, a block of parents at a time, each block descended
    whole before the next: no level is ever held at once. It cannot change a
    bit of E: every grid point is the midpoint of one level (or inside one
    frozen-tail segment), and all its terms come from the lower children, or
    all from the upper children, of parents that share one segment; the
    descent meets those parents in level order, as the levels built whole
    did, so np.add.at adds the same terms in the same order.

    Every temporary of the window means, the levels' and the frozen tail's,
    is a buffer of the workspace ws, written with the same ufuncs in the
    same order as fresh arrays would be: no level holds its means while its
    children descend, and a frozen-tail block allocates nothing that is as
    large as the block."""
    lo, hi, w, xl = rows
    half = seg >> 1
    mid_x = xl + half
    centers = 0.5 * (lo + hi)
    hw = 0.5 * qtab[mid_x] * (hi - lo)
    ulo = np.subtract(centers, hw, out=ws.view("lower", hw.shape))
    means = table.mean_F(ulo, np.add(centers, hw, out=ws.view("pos", hw.shape)), ws)
    means *= w  # w * means, bit for bit
    np.add.at(E, mid_x, means)
    if half <= 1:
        return  # nothing deeper than the emitted midpoints
    k = nodes[0]
    if len(nodes) > 1:
        # about _BLOCK children per block
        for child in _children(lo, hi, w, xl, mid_x, centers, hw, k, max(1, _BLOCK // k)):
            _descend(E, table, qtab, tail, child, half, nodes[1:], ws)
        return
    # ranks past the quadrature tuple: ancestors frozen at conditional
    # centers, each point still integrated exactly over its own window;
    # about _BLOCK frozen-tail means per block
    deltas = np.arange(1, half)
    frac = deltas / half
    parents = max(1, _BLOCK // (k * half))
    for b_lo, b_hi, b_w, b_xl in _children(lo, hi, w, xl, mid_x, centers, hw, k, parents):
        shape = (b_lo.size, deltas.size)
        span = (b_hi - b_lo)[:, None]
        g = np.add(b_xl[:, None], deltas, out=ws.view("index", shape, np.int64))
        pos = np.multiply(span, frac, out=ws.view("pos", shape))
        pos += b_lo[:, None]
        # the half widths are dead once the window ends are formed, and
        # mean_F writes the window widths over them
        b_hw = tail.take(g, out=ws.view("width", shape), mode="clip")
        b_hw *= span
        ulo = np.subtract(pos, b_hw, out=ws.view("lower", shape))
        pos += b_hw
        vals = table.mean_F(ulo, pos, ws)
        vals *= b_w[:, None]
        np.add.at(E, g.ravel(), vals.ravel())


def _value_profile(state, half: int | None = None) -> np.ndarray:
    """Quadrature profile of the state, computed afresh (_certify keeps it
    in the state's memo).

    A half cell that _flat_half_cells marks flat takes f at the left end of
    its range, a, or j_lo, at every grid point inside it: the interpolant's
    slope there is 0.0, so that value is the exact constant, and no
    quadrature runs on it. Its cell's live midpoint keeps its window mean,
    unless the whole cell is constant, both halves flat, where the midpoint
    takes f at a too. half 0 or 1 takes only the earlier or the later half
    of the half cells that still need quadrature, in grid order, and returns
    only the slice of the profile below, or from, the later half's first
    grid point; the two slices joined are the whole profile bit for bit
    (see _profile_jobs). A job that integrates no half cell builds no
    budget table and no workspace."""
    f = state.f
    m = f.m
    n = state.n_active
    seg = 1 << (m - n)  # half-cell width in grid units
    table = _PLTable(f)
    E = np.zeros(1 << m)
    edges, mids = _cell_grid(m, n)
    E[edges[:-1]] = table.f_at(state.fixed_y[:-1])
    flat = _flat_half_cells(state)
    constant = flat.all(axis=1)
    live = np.flatnonzero(~constant)
    E[mids[live]] = table.mean_F(state.j_lo[live], state.j_hi[live])
    E[mids[constant]] = E[edges[:-1][constant]]
    # half cell u of the grid spans [u, u + 1] * seg: cell i holds 2 i and
    # 2 i + 1, and row u of `inside` is its grid points past the first
    inside = E.reshape(-1, seg)[:, 1:]
    fill = np.flatnonzero(flat)
    ends = np.stack([state.fixed_y[:-1], state.j_lo], axis=1).ravel()
    inside[fill] = table.f_at(ends[fill])[:, None]
    units = np.flatnonzero(~flat)
    cut = units.size // 2
    start = int(units[cut]) * seg if units.size else 0
    if half is not None:
        units = units[cut:] if half else units[:cut]
    if units.size:
        plan = _plan(n)
        qtab = _q_table(state.q, m)
        # _cell_expectation's segments are this wide once its quadrature levels end
        tail = _tail_table(qtab, seg >> min(len(plan[2]), m - n))
        ws = _Workspace()
        # one call per cell, on those of its half cells that units holds
        for cell in np.split(units, np.flatnonzero(np.diff(units >> 1)) + 1):
            _cell_expectation(E, table, qtab, tail, state, int(cell[0]) >> 1, cell & 1, plan, ws)
    if half is None:
        return E
    return E[start:] if half else E[:start]


def _profile_jobs(state) -> list:
    """The two jobs of the state's profile for _fork_map: its earlier and
    its later half, whose results np.concatenate joins. The jobs split the
    half cells that still need quadrature, not the flat ones that are only
    filled, so a job may have nothing to integrate."""
    return [functools.partial(_value_profile, state, half) for half in (0, 1)]
