"""The closed-form window engine: a halving's functional matrix, from exact
window means of f, and its averaging-identity residual; (upper + lower) / 2
= whole window holds by additivity up to roundoff. derand does the gating.

For a grid point t strictly inside the active cell, freezing every deeper
rank at its conditional center makes the image of t's own rank window a
pair of lines u(z) = origin + c * z in the live coordinate z, and the
conditional value of f at t is (F(u_hi) - F(u_lo)) / (u_hi - u_lo), whose
denominator is (c_hi - c_lo) * z. Its integral over a window [z1, z2] in z
is therefore (J(c_hi) - J(c_lo)) / (c_hi - c_lo), with

    J(c) = integral over [z1, z2] of (F(origin + c z) - F(origin)) / z dz
         = integral over [c z1, c z2] of (F(origin + d) - F(origin)) / d dd.

Subtracting F(origin), computed once per half window, changes nothing in
the difference, and it keeps J finite at z1 = 0, where a window touches its
cell edge. In the offset d = u - origin the integrand no longer depends on
c: every line of a half window integrates the same function, only between
its own limits (product integration against a 1/d kernel). So each half
window integrates every f piece outward from the origin once, exactly, and
sums the pieces outward. A line's J is the difference of two of those
prefix sums, at the first and the last node inside its limits, plus a
partial panel at each end, or one panel when the line crosses no node. On
a panel the line stays in one piece of the interpolant, so the numerator is
a quadratic in d, expanded at the panel's end nearer the origin so that
nothing cancels, and the integral is elementary. The panel ends are the
offsets c * z1, c * z2 and node - origin, never u - origin from a rounded
u. A prefix difference cancels the more, the farther a window lies from
its origin, so the rounding left in the prefix sums and in c * z1, c * z2
is carried along (see _side_integrals). The work per half window is one
table lookup per f piece the lines reach and at most two per line,
whatever the number of node crossings; a flat line (c == 0) adds exactly
zero.
"""

from __future__ import annotations

import math

import numpy as np

from ._pltable import _PLTable, _cell_grid, _constant_cells, _q_table, _tail_table


def _panels(table, F0, dS, dU, u, p):
    """Integral of (F(origin + d) - F0) / d over d from dS to dS + dU, for
    panels that each stay inside piece p. dS is the panel's end nearer the
    origin, and u = origin + dS."""
    F, t, half = table.lookup(u, p)
    # with h the half slope, F(origin + d) - F0 = K + t d + h d**2 on the
    # panel, where t = f(u) - h dS and K = (F(u) - F0) - dS t; the integral
    # is dU (t + h dU / 2) + K log1p(dU / dS). Each temporary is written over
    # one that is dead, in the same ufuncs and order as fresh arrays.
    scratch = half * dS
    t -= scratch
    out = np.multiply(half, dU, out=half)
    out *= 0.5
    out += t
    out *= dU
    F -= F0
    F -= np.multiply(dS, t, out=scratch)
    # K vanishes at dS == 0, where the panel starts at the origin, so the log
    # term drops there
    t.fill(0.0)
    ratio = np.divide(dU, dS, out=t, where=dS != 0.0)
    ratio = np.log1p(ratio, out=ratio)
    ratio *= F  # F * log1p(ratio), bit for bit
    out += ratio
    return out


def _product_error(c, z: float):
    """c * z - fl(c * z), exactly: Dekker's product on Veltkamp's split,
    since NumPy has no fused multiply-add."""
    t = c * 134217729.0  # 2**27 + 1
    ch = t - (t - c)
    cl = c - ch
    t = z * 134217729.0
    zh = t - (t - z)
    zl = z - zh
    return ((ch * zh - c * z) + ch * zl + cl * zh) + cl * zl


def _side_integrals(table, origin, F0, c, z1, z2):
    """J(c) (see above) of lines that all leave the origin on one side:
    every c > 0, or every c < 0."""
    size = table.size
    side = 1 if c[0] > 0.0 else -1
    dA = c * z1
    dB = c * z2
    # the nodes strictly beyond the origin on this side, outward, as far as
    # the farthest line end, within the grid
    if side > 0:
        k0 = math.floor(origin * size) + 1
        nodes = np.arange(k0, min(math.ceil((origin + dB.max()) * size), size) + 1)
    else:
        k0 = math.ceil(origin * size) - 1
        nodes = np.arange(k0, max(math.floor((origin + dB.min()) * size), 0) - 1, -1)
    nn = nodes.size
    # segment j runs to node j from node j - 1 (from the origin when j == 0);
    # segment nn runs on past the last node, and the end pieces extend past
    # the grid
    piece = np.arange(nn + 1) * side
    piece += k0 - (side > 0)
    np.clip(piece, 0, size - 1, out=piece)
    un = nodes * table.inv_size
    # offsets of the segment ends, from the origin's 0.0 to the last node,
    # padded with a 0.0 that only lines crossing no node index
    ends = np.concatenate([[0.0], un - origin, [0.0]])
    starts_u = np.concatenate([[origin], un])
    outward = side * ends[1 : nn + 1]  # increasing
    jA = np.searchsorted(outward, side * dA, side="right")  # first node past dA
    jB = np.searchsorted(outward, side * dB, side="left")  # nodes short of dB
    crossing = jB > jA
    cross = np.flatnonzero(crossing)
    jBc = jB.take(cross)
    # dA and dB round the limits c z1 and c z2 by up to half an ulp, which
    # the integrand turns into an error larger than all the others: each
    # end panel is stretched by its limit's rounding error, so that to first
    # order a line is integrated between its exact limits
    errA = _product_error(c, z1)
    errB = _product_error(c, z2)
    # a line's first panel runs to the first node past dA, or on to dB; a
    # crossing line's last panel runs on from the last node short of dB
    first = np.where(crossing, ends.take(jA + 1) - dA, (dB - dA) + errB)
    first -= errA
    last = dB.take(cross) - ends.take(jBc)
    last += errB.take(cross)
    # the whole segments summed outward, and the rounding error of each
    # addition (Knuth's two-sum) summed alongside: the prefix sums grow with
    # the distance from the origin, a line's integral only with its span
    whole = _panels(table, F0, ends[:nn], np.diff(ends[: nn + 1]), starts_u[:nn], piece[:nn])
    prefix = np.cumsum(whole)
    before = np.concatenate([[0.0], prefix])[:nn]
    added = prefix - before
    lost = np.cumsum((before - (prefix - added)) + (whole - added))
    a = jA.take(cross)
    b = jBc - 1
    between = (prefix.take(b) - prefix.take(a)) + (lost.take(b) - lost.take(a))
    # each line's first panel (its only one if it crosses no node), then
    # each crossing line's last panel: one lookup per kind of panel, so that
    # no temporary spans all three
    J = _panels(table, F0, dA, first, origin + dA, piece.take(jA))
    J[cross] += _panels(table, F0, ends.take(jBc), last, starts_u.take(jBc), piece.take(jBc)) + between
    return J


def _half_window_integrals(table, origin, c_hi, c_lo, z1, z2):
    """Per-point integral over [z1, z2] of the window mean of f along the
    line pair (origin, c_hi), (origin, c_lo). The lines share one origin and
    one window: origin, z1 and z2 are floats, one slope pair per point."""
    T = c_hi.size
    c = np.concatenate([c_hi, c_lo])
    J = np.zeros(2 * T)
    F0 = table.F_at(np.array([origin]))[0]
    # rising lines, then falling ones; a flat line keeps J = 0
    for lines in (np.flatnonzero(c > 0.0), np.flatnonzero(c < 0.0)):
        if lines.size:
            J[lines] = _side_integrals(table, origin, F0, c.take(lines), z1, z2)
    return (J[:T] - J[T:]) / (c_hi - c_lo)


def _window_profile(table, tail, gl, gd, gr, a, b, y1, y2):
    """Conditional expectation of f(warp(t)) for grid t inside one cell,
    the live midpoint image averaged over [y1, y2], everything deeper
    frozen at conditional centers (each point keeps its own window mean).
    tail is _tail_table(qtab, 2**(m - n)): a point strictly inside a half
    cell has lowbit(g mod 2**(m - n)) / 2**(m - n) = 2**(n - rank(g)), so
    its half width per unit span is qtab[g] * 2**(n - rank(g))."""
    span = y2 - y1
    out = np.empty(gr - gl - 1)
    mid_pos = gd - gl - 1
    out[mid_pos] = table.mean_F(np.array([y1]), np.array([y2]))[0]
    left = np.arange(gl + 1, gd)
    if left.size:
        s = (left - gl) / (gd - gl)
        width = tail[left]
        out[:mid_pos] = (
            _half_window_integrals(table, a, s + width, s - width, y1 - a, y2 - a) / span
        )
    right = np.arange(gd + 1, gr)
    if right.size:
        s = (gr - right) / (gr - gd)
        width = tail[right]
        out[mid_pos + 1 :] = (
            _half_window_integrals(table, b, width - s, -(s + width), b - y2, b - y1) / span
        )
    return out


def _fold_plan(M: int, degrees, pts: int):
    """What the _fold_degrees calls of one assembly share: the M frequencies
    k ordered by |k| (stable), the bin k mod pts of each in that order, per
    degree r the number of frequencies with |k| <= r, and pts. Degrees must
    be sorted ascending."""
    ks = (np.arange(M) + M // 2) % M - M // 2
    order = np.argsort(np.abs(ks), kind="stable")
    bounds = np.searchsorted(np.abs(ks)[order], degrees, side="right")
    return order, ks[order] % pts, bounds, pts


def _fold_degrees(profile: np.ndarray, plan) -> np.ndarray:
    """Discrete partial sums of a full-grid profile at the pts evenly spaced
    sample points, one row per degree of the plan (_fold_plan). The spectrum
    folds incrementally so the sweep costs one pass, and one batched inverse
    transform serves every row."""
    order, bins, bounds, pts = plan
    c = np.fft.fft(profile) / profile.size
    folded = np.zeros(pts, dtype=complex)
    rows = np.empty((bounds.size, pts), dtype=complex)
    prev = 0
    for row, hi in enumerate(bounds):
        if hi > prev:
            np.add.at(folded, bins[prev:hi], c[order[prev:hi]])
            prev = hi
        rows[row] = folded
    return (np.fft.ifft(rows, axis=1) * pts).real


def _assemble(state, degrees):
    """Functional matrix of one halving step, every row of it, and the
    averaging-identity residual. Each live cell's full window and its upper
    and lower halves are profiled here; the residual is measured on the
    same folded entries the matrix is made of.

    Cells flagged by _constant_cells have f flat on their image, so every
    window gives the same profile: their column is exactly zero, they add
    nothing to the residual, and no window profile or fold is computed;
    the mask is returned with the matrix and the residual."""
    f = state.f
    m = f.m
    n = state.n_active
    table = _PLTable(f)
    tail = _tail_table(_q_table(state.q, m), 1 << (m - n))
    pts = 1 << n
    plan = _fold_plan(1 << m, degrees, pts)
    edges, mids = _cell_grid(m, n)
    constant = _constant_cells(state)
    vals = np.zeros((len(degrees) * pts, mids.size))
    ident = 0.0
    buf = np.zeros(1 << m)
    for i in range(mids.size):
        if constant[i]:
            continue
        gl, gd, gr = edges[i], mids[i], edges[i + 1]
        a = float(state.fixed_y[i])
        b = float(state.fixed_y[i + 1])
        y1 = float(state.j_lo[i])
        y2 = float(state.j_hi[i])
        ym = 0.5 * (y1 + y2)
        g = _window_profile(table, tail, gl, gd, gr, a, b, y1, y2)
        g_up = _window_profile(table, tail, gl, gd, gr, a, b, ym, y2)
        g_dn = _window_profile(table, tail, gl, gd, gr, a, b, y1, ym)
        buf[gl + 1 : gr] = 0.5 * (g_up - g_dn)
        vals[:, i] = _fold_degrees(buf, plan).ravel()
        buf[gl + 1 : gr] = 0.5 * (g_up + g_dn) - g
        # np.maximum, unlike max, carries a NaN through to the gate
        ident = float(np.maximum(ident, np.max(np.abs(_fold_degrees(buf, plan)))))
        buf[gl + 1 : gr] = 0.0
    return vals, ident, constant
