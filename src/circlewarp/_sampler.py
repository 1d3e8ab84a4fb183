"""The seeded Monte-Carlo sampler of the conditioned law, a pure function of
the state, the path count and the seed. derand's guard (mc_cross_check)
holds the value engine's profile against it; the sampler gates nothing."""

from __future__ import annotations

import numpy as np

from ._pltable import _BLOCK, _PLTable, _constant_cells, _q_table
from .randhomeo import _confined
from .rng import _keyed_random, _tag_key

# Monte-Carlo paths per batch. A batch's draws are laid out in stream order
# rank by rank (see _mc_profile), so this fixes which draw feeds which path:
# changing it changes the guard's numbers, and it is no tuning knob.
_MC_BATCH = 512


def _mc_profile(state, n_samples: int, seed: int):
    """Seeded sampler of the conditioned law; grid marginals are exact, so
    this is the reference the quadrature engine must match.

    Paths are built cell by cell, on the cells _constant_cells leaves live:
    a cell's grid points depend only on its own pinned edges and draws. On a
    constant cell f(warp(t)) is f at the cell's left edge whatever the path
    does, because the interpolant's slope there is 0.0 (or du is 0 at the
    right edge), so those columns take that value in every row, and each
    constant cell's sums are made once for all its points. The draws are
    laid out as if each batch drew the whole grid in stream order: first
    the live rank's draw of every path, then each deeper rank's draws of
    every path. A block of paths reads its draws of each rank from their
    positions in the stream (rng._keyed_random), so no batch's draws are
    held whole."""
    f = state.f
    m = f.m
    size = 1 << m
    n = state.n_active
    table = _PLTable(f)
    qtab = _q_table(state.q, m)
    key = _tag_key(seed, 0xEC, n)  # the stream of tagged_generator(seed, 0xEC, n)
    cells = state.j_lo.size
    W = size // cells  # grid points per cell, W + 1 with the right edge
    constant = _constant_cells(state)
    live = np.flatnonzero(~constant)
    k = live.size
    # a basic slice when every cell is live, so no draw is copied
    take = slice(None) if k == cells else live

    def live_cells(u):
        # the live cells (axis 1) of a block of draws: the draws themselves
        # when every cell is live, else a C-ordered copy (u[:, live] would
        # be strided, and each later reshape would copy it again)
        return u if k == cells else u.take(live, axis=1)

    a = state.fixed_y[:-1][take]
    b = state.fixed_y[1:][take]
    # per rank, the live one first: its draws per cell and its budgets. The
    # live point lies at j_lo + width * u in its window (budgets None), and a
    # deeper rank's midpoints step::2*step of a cell between neighbours
    # 2*step apart, at lo + (hi - lo) * _confined(u, q)
    width, j_lo = (state.j_hi - state.j_lo)[take, None], state.j_lo[take, None]
    plan = [(1, None)]
    steps = []
    for rank in range(n + 1, m + 1):
        step = 1 << (m - rank)
        plan.append((W // (2 * step), qtab[step : size : 2 * step].reshape(cells, W // (2 * step))[take]))
        steps.append(step)
    rows = max(1, _BLOCK // max(k * W, 1))  # paths per block
    # stream positions per path, constant cells included
    per_path = cells * sum(per for per, _ in plan)
    span = max(1, (_BLOCK << 4) // per_path)  # paths per draw block
    # f at each constant cell's left edge: its value at every point
    flat = table.f_at(state.fixed_y[:-1][constant])
    # rows 1.. of buf hold one block of paths' values on the live cells;
    # row 0 the batch's running sum while the block is added, then its
    # running sum of squares
    buf = np.empty((rows + 1, k * W))
    acc = np.zeros(size)
    acc2 = np.zeros(size)
    sums = acc.reshape(cells, W)
    sums2 = acc2.reshape(cells, W)
    done = 0
    while done < n_samples:
        bsz = min(_MC_BATCH, n_samples - done)
        # a reduction over the rows of a C-ordered array adds them one by one
        # in row order, from +0.0, so summing (running sum, block) continues
        # the sum of the batch's rows exactly as one sum over all would
        total = np.zeros(k * W)
        total2 = np.zeros(k * W)
        # each block of paths reads its draws of each rank from their
        # positions; no constant cell's draw is used, so a state without a
        # live cell draws nothing
        for d0 in range(0, bsz if k else 0, span):
            d1 = min(d0 + span, bsz)
            at = done * per_path
            draws = []
            for per, qv in plan:
                u = _keyed_random(key, (d1 - d0) * cells * per, at + d0 * cells * per)
                u = live_cells(u.reshape(d1 - d0, cells, per))
                u = u * width + j_lo if qv is None else _confined(u, qv)
                draws.append(u.reshape(-1, per))  # one row per (path, live cell)
                at += bsz * cells * per
            for r0 in range(0, d1 - d0, rows):
                r1 = min(r0 + rows, d1 - d0)
                Y = np.empty((r1 - r0, k, W + 1))
                Y[:, :, 0] = a
                Y[:, :, W] = b
                paths = Y.reshape(-1, W + 1)  # one row per (path, cell)
                paths[:, W // 2] = draws[0][r0 * k : r1 * k, 0]
                for step, u in zip(steps, draws[1:]):
                    lo = paths[:, 0:W:2 * step]
                    mid = paths[:, 2 * step : W + 1 : 2 * step] - lo
                    mid *= u[r0 * k : r1 * k]
                    mid += lo
                    paths[:, step : W : 2 * step] = mid
                block = buf[: r1 - r0 + 1]
                block[1:] = table.f_at(paths[:, :W]).reshape(r1 - r0, k * W)
                block[0] = total
                total = block.sum(axis=0)
                block[1:] *= block[1:]
                block[0] = total2
                total2 = block.sum(axis=0)
        sums[take] += total.reshape(k, W)
        sums2[take] += total2.reshape(k, W)
        if flat.size:
            # the same sums, made once per constant cell for all its points.
            # Accumulating the batch's rows below a row of zeros adds them
            # one by one whatever the shape, where a sum over a single
            # column would be pairwise
            col = np.empty((bsz + 1, flat.size))
            col[0] = 0.0
            col[1:] = flat
            sums[constant] += np.add.accumulate(col, axis=0)[-1][:, None]
            col *= col
            sums2[constant] += np.add.accumulate(col, axis=0)[-1][:, None]
        done += bsz
    mean = acc / n_samples
    var = np.maximum(acc2 / n_samples - mean * mean, 0.0)
    se = np.sqrt(var / max(n_samples - 1, 1))
    return mean, se
