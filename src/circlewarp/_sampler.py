"""The seeded Monte-Carlo sampler of the conditioned law, a pure function of
the state, the path count and the seed. derand's guard (mc_cross_check)
holds the value engine's profile against it; the sampler gates nothing.

Each live cell c of rank n draws from its own counter-based stream, the one
of tagged_generator(seed, 0xEC, n, c): path p's W - 1 draws sit at positions
p * (W - 1) onward, the live rank's draw first, then each deeper rank's in
midpoint order. A cell's draws depend only on (seed, n, c, p), so a constant
cell draws nothing and no block size moves a draw."""

from __future__ import annotations

import numpy as np

from ._pltable import _BLOCK, _PLTable, _constant_cells, _q_table
from .randhomeo import _confined
from .rng import _keyed_random, _tag_key


def _mc_profile(state, n_samples: int, seed: int):
    """Seeded sampler of the conditioned law; grid marginals are exact, so
    this is the reference the quadrature engine must match.

    Paths are built one live cell at a time (see _constant_cells): a cell's
    grid points depend only on its own pinned edges and draws. A block of
    paths reads the cell's draws from their positions in its stream
    (rng._keyed_random), so no cell's draws are held whole. On a constant
    cell f(warp(t)) is f at the cell's left edge whatever the path does,
    because the interpolant's slope there is 0.0 (or du is 0 at the right
    edge), so those columns take that value in every row, and each constant
    cell's sums are made once for all its points."""
    f = state.f
    m = f.m
    size = 1 << m
    n = state.n_active
    table = _PLTable(f)
    qtab = _q_table(state.q, m)
    cells = state.j_lo.size
    W = size // cells  # grid points per cell, W + 1 with the right edge
    constant = _constant_cells(state)
    # a deeper rank's midpoints step::2*step of a cell lie between neighbours
    # 2*step apart, at lo + (hi - lo) * _confined(u, q); mids holds them in
    # draw order, rank by rank
    steps = [1 << (m - rank) for rank in range(n + 1, m + 1)]
    mids = np.array([j for step in steps for j in range(step, W, 2 * step)], dtype=np.int64)
    rows = max(1, _BLOCK // W)  # paths per block
    span = max(1, (_BLOCK << 4) // (W - 1))  # paths per draw block
    acc = np.zeros(size)
    acc2 = np.zeros(size)
    sums = acc.reshape(cells, W)
    sums2 = acc2.reshape(cells, W)
    # rows 1.. of buf hold one block of paths' values on the cell; row 0 the
    # running sum while the block is added, then the running sum of squares
    buf = np.empty((rows + 1, W))
    Y = np.empty((rows, W + 1))
    for c in np.flatnonzero(~constant).tolist():
        key = _tag_key(seed, 0xEC, n, c)
        width, j_lo = state.j_hi[c] - state.j_lo[c], state.j_lo[c]
        # the live draw's budget 1.0 leaves it as drawn (u * 1.0 + 0.0), so
        # the draw block is confined whole: a confined view of its deeper
        # columns alone runs at half the speed
        budgets = np.concatenate(([1.0], qtab[c * W + mids]))
        Y[:, 0] = state.fixed_y[c]
        Y[:, W] = state.fixed_y[c + 1]
        # a reduction over the rows of a C-ordered array adds them one by one
        # in row order, from +0.0, so summing (running sum, block) continues
        # the sum of the cell's rows exactly as one sum over all would
        total = np.zeros(W)
        total2 = np.zeros(W)
        for d0 in range(0, n_samples, span):
            d1 = min(d0 + span, n_samples)
            u = _keyed_random(key, (d1 - d0) * (W - 1), d0 * (W - 1)).reshape(d1 - d0, W - 1)
            _confined(u, budgets)
            u[:, 0] *= width  # the live point, at j_lo + width * u in its window
            u[:, 0] += j_lo
            for r0 in range(0, d1 - d0, rows):
                r1 = min(r0 + rows, d1 - d0)
                paths = Y[: r1 - r0]
                paths[:, W // 2] = u[r0:r1, 0]
                at = 1
                for step in steps:
                    lo = paths[:, 0:W:2 * step]
                    mid = paths[:, 2 * step : W + 1 : 2 * step] - lo
                    mid *= u[r0:r1, at : at + mid.shape[1]]
                    mid += lo
                    paths[:, step : W : 2 * step] = mid
                    at += mid.shape[1]
                block = buf[: r1 - r0 + 1]
                block[1:] = table.f_at(paths[:, :W])
                block[0] = total
                total = block.sum(axis=0)
                block[1:] *= block[1:]
                block[0] = total2
                total2 = block.sum(axis=0)
            del u  # freed before the next draw block is read
        sums[c] = total
        sums2[c] = total2
    # f at each constant cell's left edge: its value at every point
    flat = table.f_at(state.fixed_y[:-1][constant])
    if flat.size:
        # the same sums, made once per constant cell for all its points.
        # Accumulating rows adds them one by one whatever the shape, where a
        # sum over a single column would be pairwise; row 0 of col carries
        # the running sum and the running sum of squares from block to block
        col = np.zeros((max(1, _BLOCK // flat.size) + 1, 2, flat.size))
        for d0 in range(0, n_samples, col.shape[0] - 1):
            r = min(col.shape[0] - 1, n_samples - d0)
            col[1 : r + 1] = flat, flat * flat
            col[0] = np.add.accumulate(col[: r + 1], axis=0)[-1]
        sums[constant] = col[0, 0][:, None]
        sums2[constant] = col[0, 1][:, None]
    mean = acc / n_samples
    var = np.maximum(acc2 / n_samples - mean * mean, 0.0)
    se = np.sqrt(var / max(n_samples - 1, 1))
    return mean, se
