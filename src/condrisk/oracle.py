"""Brute-force grid verifiers for tiny instances.

These searches share no code with the Newton machinery: they enumerate
allocations on regular grids and exploit only monotonicity and the additive
structure of conditional expectations over atoms, so that the product grid
can be scanned exactly in polynomial time.  They exist to produce ground
truth for the solvers, not to scale.
"""

from __future__ import annotations

import math

import numpy as np

from .primal import RiskSpec
from .prob_space import DensityVector

_CHUNK = 512


class EmptyFeasibleGridError(ValueError):
    """No grid point satisfied the utility constraint."""


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """The multiples of step in [lo, hi]: the bounds set only the extent."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"grid step must be finite and positive, not "
                         f"{step!r}")
    return step * np.arange(math.ceil(lo / step - 1e-9),
                            math.floor(hi / step + 1e-9) + 1)


def _check_tiny(spec: RiskSpec):
    if spec.space.natoms > 3 or spec.nagents > 2:
        raise ValueError("grid oracle supports at most 3 atoms and 2 agents")
    h = spec.clusters.ngroups
    if h not in (1, spec.nagents):
        raise ValueError("grid oracle supports full sharing or no sharing only")


@np.errstate(over="ignore")
def grid_min_rho(spec: RiskSpec, lo: float, hi: float,
                 step: float = 1e-3) -> np.ndarray:
    """Exhaustive-grid value of the shortfall risk, one entry per block.

    For full sharing the product grid over (total, per-atom splits) is scanned
    by maximizing the block utility atom by atom for each candidate total; for
    no sharing the grid runs over the per-agent constants.  The bounds must
    bracket the optimal total and every optimal component.  A utility that
    overflows to -inf marks its point infeasible."""
    _check_tiny(spec)
    agg = spec.aggregator
    w_all = spec.sigma.conditional_weights()
    bthr = spec.block_threshold()
    grid = _grid(lo, hi, step)
    out = np.empty(spec.sigma.nblocks)

    for m, blk in enumerate(spec.sigma.blocks):
        idx = np.asarray(blk, dtype=np.intp)
        w = w_all[idx]
        xb = spec.x[:, idx]
        bval = bthr[m]
        if spec.nagents == 1:
            util = np.zeros(grid.size)
            for om in range(idx.size):
                util += w[om] * agg.value((xb[0, om] + grid)[None, :])
            feas = util >= bval
            if not feas.any():
                raise EmptyFeasibleGridError(f"block {m}: no feasible total")
            out[m] = grid[feas].min()
        elif spec.clusters.ngroups == 1:
            out[m] = _full_sharing_block(agg, xb, w, bval, grid, step, m)
        else:
            out[m] = _no_sharing_block(agg, xb, w, bval, grid, m)
    return out


def _full_sharing_block(agg, xb, w, bval, grid, step, m):
    nd = grid.size
    util = np.zeros(nd)
    for start in range(0, nd, _CHUNK):
        d = grid[start:start + _CHUNK]
        acc = np.zeros(d.size)
        for om in range(w.size):
            pts = np.empty((2, d.size, grid.size))
            pts[0] = xb[0, om] + grid[None, :]
            pts[1] = xb[1, om] + d[:, None] - grid[None, :]
            vals = agg.value(pts.reshape(2, -1)).reshape(d.size, grid.size)
            acc += w[om] * vals.max(axis=1)
        util[start:start + d.size] = acc
    feas = util >= bval
    if not feas.any():
        raise EmptyFeasibleGridError(f"block {m}: no feasible total")
    return grid[feas].min()


def _no_sharing_block(agg, xb, w, bval, grid, m):
    best = np.inf
    for start in range(0, grid.size, _CHUNK):
        c1 = grid[start:start + _CHUNK]
        util = np.zeros((c1.size, grid.size))
        for om in range(w.size):
            pts = np.empty((2, c1.size, grid.size))
            pts[0] = (xb[0, om] + c1)[:, None]
            pts[1] = (xb[1, om] + grid)[None, :]
            util += w[om] * agg.value(pts.reshape(2, -1)).reshape(c1.size,
                                                                  grid.size)
        total = c1[:, None] + grid[None, :]
        feas = util >= bval
        if feas.any():
            best = min(best, float(total[feas].min()))
    if not np.isfinite(best):
        raise EmptyFeasibleGridError(f"block {m}: no feasible constants")
    return best


def _min_feasible_z2(agg, grid, t):
    """For every z1 on the grid, the smallest grid z2 with U(z1, z2) >= t.

    Uses only monotonicity of the aggregator in z2; returns (indices, ok)
    where ok marks the z1 for which some feasible z2 exists.
    """
    z = grid.size
    top = agg.value(np.stack([grid, np.full(z, grid[-1])]))
    ok = top >= t
    lo = np.zeros(z, dtype=np.intp)
    hi = np.full(z, z - 1, dtype=np.intp)
    span = z
    while span > 1:
        mid = (lo + hi) // 2
        u = agg.value(np.stack([grid, grid[mid]]))
        go_up = u < t
        lo = np.where(go_up, mid + 1, lo)
        hi = np.where(go_up, hi, mid)
        span = (span + 1) // 2
    return hi, ok


def _best_on_level(agg, qcol, grid, t):
    """Exact grid maximum of -q.z subject to atom utility >= t.

    The objective decreases in every coordinate (densities are nonnegative),
    so for each z1 the optimal z2 sits at the lowest feasible grid point.
    Returns (value, attained utility), value -inf when infeasible.
    """
    if qcol.size == 1:
        u = agg.value(grid[None, :])
        feas = u >= t
        if not feas.any():
            return -np.inf, np.nan
        i = int(np.argmax(feas))  # u increasing: first feasible = cheapest
        return float(-qcol[0] * grid[i]), float(u[i])
    idx, ok = _min_feasible_z2(agg, grid, t)
    if not ok.any():
        return -np.inf, np.nan
    v = np.where(ok, -(qcol[0] * grid + qcol[1] * grid[idx]), -np.inf)
    i = int(np.argmax(v))
    u = float(agg.value(np.stack([grid[i:i + 1], grid[idx[i]:idx[i] + 1]]))[0])
    return float(v[i]), u


@np.errstate(over="ignore")
def grid_max_alpha1(q: DensityVector, spec: RiskSpec, bounds: tuple,
                    step: float = 1e-3) -> np.ndarray:
    """Exhaustive-grid value of the dual penalty, one entry per block.

    Maximizes the density-weighted cost of acceptable positions over the
    z-grid.  Atoms couple only through the scalar utility constraint, so the
    search splits the required utility across atoms and refines the split
    coarse-to-fine; each candidate split is scored by an exact scan of its
    per-atom constrained maxima, so every reported value is attained by an
    explicit grid point.  A ValueError refuses a search whose utility
    overflows at the grid's lower corner: the split needs a finite floor."""
    _check_tiny(spec)
    grid = _grid(float(bounds[0]), float(bounds[1]), step)
    agg = spec.aggregator
    w_all = spec.sigma.conditional_weights()
    bthr = spec.block_threshold()
    n = spec.nagents
    u_floor = float(agg.value(np.full((n, 1), grid[0]))[0])
    u_ceil = float(agg.value(np.full((n, 1), grid[-1]))[0])
    if not math.isfinite(u_floor):
        raise ValueError(f"utility {u_floor} at the grid's lower corner "
                         f"{float(grid[0])}: the split needs a finite floor")
    out = np.empty(spec.sigma.nblocks)

    for m, blk in enumerate(spec.sigma.blocks):
        idx = np.asarray(blk, dtype=np.intp)
        w = w_all[idx]
        qb = q.q[:, idx]
        bval = bthr[m]
        if u_ceil < bval:
            raise EmptyFeasibleGridError(f"block {m}: no feasible grid point")
        out[m] = (_best_on_level(agg, qb[:, 0], grid, bval)[0] if idx.size == 1
                  else _tune_budgets(agg, qb, w, bval, grid, u_floor, u_ceil))
        if not np.isfinite(out[m]):
            raise EmptyFeasibleGridError(f"block {m}: no feasible grid point")
    return out


def _tune_budgets(agg, qb, w, bval, grid, u_floor, u_ceil):
    """Coarse-to-fine search over per-atom utility budgets averaging bval.

    The per-atom constrained maxima are concave in the budget, so shrinking
    the budget window around the incumbent split converges; all candidate
    scores are exact feasible grid values.  The round count adapts to the
    utility range so the final window resolves below the grid scale.  -inf
    where no split is feasible.
    """
    el = w.size
    npts = 33 if el == 2 else 17
    shrink = (npts - 1) / 2.5
    span = max(u_ceil - u_floor, 1e-12)
    rounds = int(np.clip(np.ceil(np.log(span / 1e-6) / np.log(shrink)) + 1,
                         5, 60))

    def g_atom(om, t):
        # every grid point clears a floor-level budget
        return _best_on_level(agg, qb[:, om], grid, max(t, u_floor))[0]

    best = -np.inf
    centers = np.full(el - 1, 0.5 * (u_floor + u_ceil))
    half = np.full(el - 1, 0.5 * (u_ceil - u_floor))
    for _ in range(rounds):
        axes = [np.clip(np.linspace(c - hw, c + hw, npts), u_floor, u_ceil)
                for c, hw in zip(centers, half)]
        if el == 2:
            t_last = (bval - w[0] * axes[0]) / w[1]
            tot = np.array([
                -np.inf if t_last[i] > u_ceil else
                w[0] * g_atom(0, float(axes[0][i]))
                + w[1] * g_atom(1, float(t_last[i]))
                for i in range(npts)])
            i = int(np.argmax(tot))
            cand, arg = float(tot[i]), np.array([axes[0][i]])
        else:
            g1 = [g_atom(0, float(t)) for t in axes[0]]
            g2 = [g_atom(1, float(t)) for t in axes[1]]
            tot = np.full((npts, npts), -np.inf)
            for i in range(npts):
                for j in range(npts):
                    t_last = (bval - w[0] * axes[0][i]
                              - w[1] * axes[1][j]) / w[2]
                    if t_last > u_ceil:
                        continue
                    tot[i, j] = (w[0] * g1[i] + w[1] * g2[j]
                                 + w[2] * g_atom(2, float(t_last)))
            i, j = np.unravel_index(int(np.argmax(tot)), tot.shape)
            cand, arg = float(tot[i, j]), np.array([axes[0][i], axes[1][j]])
        if np.isfinite(cand) and cand >= best:
            best, centers = cand, arg
        half = np.maximum(half * (2.5 / (npts - 1)), 1e-9)
    return best
