"""Shortfall risk of a system of agents given partial information.

The risk of a position matrix X is the least total capital, measurable with
respect to the information partition, that can be distributed across agents
(scenario by scenario, subject to cluster constraints on who may share with
whom) so that the conditional expected aggregated utility of the padded
positions clears a threshold B on every block.

Each block of the information partition yields an independent equality-
constrained concave program; one damped Newton iteration on the KKT systems
steps all blocks of a solve together, each from a start sized for that
block's own threshold and positions.  A block Newton does not solve goes to
one of two scalar root-find fallbacks, for a single agent or a single atom,
or is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .preferences import (Aggregator, InversionError, bracketed_root,
                          utility_level_roots)
from .prob_space import ScenarioSpace, SigmaPartition, is_measurable

DEFAULT_KKT_TOL = 1e-9
DEFAULT_MAX_ITER = 200


class ConvergenceError(RuntimeError):
    """Newton and fallback both failed to reach the KKT tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class ClusterConstraint:
    """Partition of agent indices into risk-sharing groups.

    One group of all agents is full sharing (only the total allocation per
    scenario is pinned); N singleton groups is no sharing (every agent's
    allocation must itself be measurable w.r.t. the information partition).
    """

    groups: tuple

    def __post_init__(self):
        groups = tuple(tuple(sorted(int(i) for i in g)) for g in self.groups)
        groups = tuple(sorted(groups, key=lambda g: g[0] if g else -1))
        object.__setattr__(self, "groups", groups)
        flat = [i for g in groups for i in g]
        if any(len(g) == 0 for g in groups):
            raise ValueError("cluster groups must be nonempty")
        if sorted(flat) != list(range(len(flat))):
            raise ValueError("groups must partition the agent indices")

    @property
    def nagents(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def ngroups(self) -> int:
        return len(self.groups)

    @classmethod
    def full_sharing(cls, n: int) -> "ClusterConstraint":
        return cls((tuple(range(n)),))

    @classmethod
    def no_sharing(cls, n: int) -> "ClusterConstraint":
        return cls(tuple((i,) for i in range(n)))


@dataclass(frozen=True, eq=False)
class RiskSpec:
    """Full problem statement: space, information partition, positions,
    aggregator, threshold, cluster constraint and solver tolerances."""

    space: ScenarioSpace
    sigma: SigmaPartition
    x: np.ndarray
    aggregator: Aggregator
    b: np.ndarray
    clusters: ClusterConstraint
    kkt_tol: float = DEFAULT_KKT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        if not (math.isfinite(self.kkt_tol) and self.kkt_tol > 0.0):
            raise ValueError(f"kkt_tol must be finite and positive, not "
                             f"{self.kkt_tol!r}")
        if (not isinstance(self.max_iter, (int, np.integer))
                or self.max_iter < 0):
            raise ValueError(f"max_iter must be an integer >= 0, not "
                             f"{self.max_iter!r}")
        x = np.atleast_2d(np.array(self.x, dtype=float))
        b = np.array(self.b, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "b", b)
        self.space.check_values(x, "positions")
        self.space.check_values(b, "threshold")
        if self.sigma.space != self.space:
            raise ValueError("partition does not belong to the given space")
        n = x.shape[0]
        if self.aggregator.nagents != n:
            raise ValueError("aggregator has wrong number of agents")
        if self.clusters.nagents != n:
            raise ValueError("cluster constraint has wrong number of agents")
        if not is_measurable(b, self.sigma):
            raise ValueError("threshold must be measurable w.r.t. the partition")
        if b.max() >= self.aggregator.sup - 1e-9:
            raise ValueError(
                f"threshold max {float(b.max())} must stay below the "
                f"aggregator supremum {float(self.aggregator.sup)} "
                "by at least 1e-9"
            )
        x.setflags(write=False)
        b.setflags(write=False)

    @property
    def nagents(self) -> int:
        return self.x.shape[0]

    def with_x(self, x) -> "RiskSpec":
        return replace(self, x=np.atleast_2d(np.asarray(x, dtype=float)))

    def with_b(self, b) -> "RiskSpec":
        return replace(self, b=np.asarray(b, dtype=float))

    def block_threshold(self) -> np.ndarray:
        """Per-block threshold, read off the first atom of each block."""
        return np.array([self.b[blk[0]] for blk in self.sigma.blocks])


@dataclass(frozen=True, eq=False)
class PrimalSolution:
    """Optimal allocation, risk per atom, and per block the utility
    multiplier, the final optimality residual and the number of Newton
    steps; ``iterations`` is 0 for a block that a fallback solved."""

    y_hat: np.ndarray
    rho: np.ndarray
    mu: np.ndarray
    kkt_residual: np.ndarray
    iterations: np.ndarray

    @property
    def converged(self) -> bool:
        return bool(np.all(np.isfinite(self.kkt_residual)))


def _start_level(agg, bval: float) -> float:
    """The scalar s with U(s 1) >= bval + min(1e-6, (sup - bval)/2): the
    root of U(s 1) at that slack target, moved onto its feasible side."""
    target = bval + min(1e-6, (agg.sup - bval) / 2.0)
    ones = np.ones(agg.nagents)

    def f(s):
        with np.errstate(over="ignore", invalid="ignore"):
            return float(agg.value(s * ones)) - target

    s = bracketed_root(f, 1e12, 1e-9)
    # land strictly on the feasible side of the slack target, by steps of
    # at least one ulp (far out 1e-9 is less than one)
    for _ in range(64):
        if not f(s) < 0.0:
            return s
        s = max(s + 1e-9, float(np.nextafter(s, np.inf)))
    raise ConvergenceError(f"no feasible start near {s!r}")


def feasible_start(spec: RiskSpec) -> np.ndarray:
    """Allocation, constant per agent on each block, satisfying the utility
    constraint with positive slack on every block.

    Block m gets the scalar s_m of _start_level for its threshold b_m, one
    root find per distinct threshold, and agent i the constant s_m - min
    over the block's atoms of x_i: the tightest constant that keeps every
    atom of the block at z >= s_m.  Each block so starts near its own
    solution, whatever the thresholds and positions of the others.
    """
    bthr = spec.block_threshold().tolist()
    level = {bval: _start_level(spec.aggregator, bval) for bval in set(bthr)}
    start = np.empty_like(spec.x)
    for blk, bval in zip(spec.sigma.blocks, bthr):
        idx = list(blk)
        start[:, idx] = (level[bval] - spec.x[:, idx].min(axis=1))[:, None]
    return start


@dataclass(frozen=True, eq=False)
class _Blocks:
    """Blocks side by side: block m owns the columns start[m]:start[m + 1]
    of the positions x and conditional weights w, and has threshold b[m]."""

    x: np.ndarray
    w: np.ndarray
    b: np.ndarray
    start: np.ndarray

    @classmethod
    def from_spec(cls, spec: RiskSpec):
        """The blocks of a problem, and the atom of each of their columns."""
        cols = np.concatenate(spec.sigma.blocks).astype(np.intp)
        start = np.cumsum([0] + [len(blk) for blk in spec.sigma.blocks])
        return cls(spec.x[:, cols], spec.sigma.conditional_weights()[cols],
                   spec.block_threshold(), start), cols

    @classmethod
    def single(cls, xb, w, bval) -> "_Blocks":
        return cls(xb, w, np.array([bval], float), np.array([0, xb.shape[1]]))

    @cached_property
    def of(self) -> np.ndarray:  # block of each column
        return np.repeat(np.arange(self.b.size), np.diff(self.start))

    def take(self, keep):
        """The blocks flagged in keep, and the flags of their columns."""
        cols = keep[self.of]
        start = np.concatenate(([0], np.cumsum(np.diff(self.start)[keep])))
        return _Blocks(self.x[:, cols], self.w[cols], self.b[keep], start), cols


@lru_cache(maxsize=16)
def _membership(groups):
    """Agent-to-cluster matrix E (agents x clusters) and each agent's cluster."""
    member = np.empty(sum(len(g) for g in groups), dtype=np.intp)
    for m, g in enumerate(groups):
        member[list(g)] = m
    return np.eye(len(groups))[member], member


def _residual(agg, groups, blocks, y, d, lam, mu):
    """KKT residuals of all blocks, (r_y, r_d, r_c, r_u, grad, norm): of
    stationarity in y and d, of the cluster budgets d and of the utility
    constraint, and the Euclidean norm of all four per block."""
    e, member = _membership(groups)
    first, of = blocks.start[:-1], blocks.of
    with np.errstate(over="ignore", invalid="ignore"):
        z = blocks.x + y
        grad = agg.grad(z)
        r_y = -lam[member] - (mu[of] * blocks.w) * grad
        r_d = 1.0 + np.add.reduceat(lam, first, axis=1)
        r_c = e.T @ y - d[:, of]
        r_u = np.add.reduceat(blocks.w * agg.value(z), first) - blocks.b
        sq = np.add.reduceat((r_y ** 2).sum(axis=0) + (r_c ** 2).sum(axis=0),
                             first) + (r_d ** 2).sum(axis=0) + r_u ** 2
    return r_y, r_d, r_c, r_u, grad, np.sqrt(sq)


def _optimality(groups, blocks, mu, r):
    """(opt, largest KKT residual entry) per block.  The scale-free opt
    covers within-cluster marginal-utility spread (relative), the
    per-cluster multiplier condition, cluster-sum feasibility and the
    activity of the utility constraint, scaled by mu: unlike the KKT
    residual it does not vanish on atoms of low probability."""
    r_y, r_d, r_c, r_u, grad, _ = r
    e, member = _membership(groups)
    first = blocks.start[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = (e.T @ grad) / e.sum(axis=0)[:, None]
        own = mean[member]
        spread = np.max(np.abs(grad - own) / np.maximum(1.0, np.abs(own)), 0)
        level = mu * np.add.reduceat(blocks.w * mean, first, axis=1)
        rc = np.abs(r_c).max(axis=0)
        opt = np.maximum.reduce([
            np.maximum.reduceat(np.maximum(spread, rc), first),
            np.abs(r_u) * np.clip(np.abs(mu), 1.0, 1e5),
            np.abs(level - 1.0).max(axis=0)])
        rmax = np.maximum.reduce([
            np.maximum.reduceat(np.maximum(np.abs(r_y).max(axis=0), rc), first),
            np.abs(r_d).max(axis=0), np.abs(r_u)])
    return opt, rmax


def _solve_stack(a, b):
    """(solutions, solved flags) of a stack of linear systems; a singular
    system, one whose LU factorization has a zero pivot, gets NaN."""
    try:
        return np.linalg.solve(a, b), np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        ok = np.linalg.slogdet(a)[0] != 0.0
    out = np.full(b.shape, np.nan)
    out[ok] = np.linalg.solve(a[ok], b[ok])
    return out, ok


def _newton_step(agg, groups, blocks, y, mu, r):
    """Newton step of every block's KKT system, (dy, dd, dlam, dmu, flags
    of the blocks whose systems are not singular), by elimination.  Per
    atom, the saddle system [[-mu w H, -E], [E^T, 0]] in (dy, dlam), with E
    the agent-to-cluster membership, is solved for the residual and for a
    unit change of each cluster budget d and of mu.  The conditions that
    couple the atoms of a block, sum dlam = -r_d and sum w grad^T dy =
    -r_u, then leave an (h + 1) x (h + 1) system in (dd, dmu) per block."""
    r_y, r_d, r_c, r_u, grad, _ = r
    (n, k), (e, _) = y.shape, _membership(groups)
    h, first, of = e.shape[1], blocks.start[:-1], blocks.of
    with np.errstate(over="ignore", invalid="ignore"):
        wg = (blocks.w * grad).T
        kkt = np.zeros((k, n + h, n + h))
        kkt[:, :n, :n] = -(mu[of] * blocks.w)[:, None, None] * agg.hessian(
            blocks.x + y)
        kkt[:, :n, n:], kkt[:, n:, :n] = -e, e.T
        rhs = np.zeros((k, n + h, h + 2))
        rhs[:, :, 0] = -np.concatenate([r_y, r_c]).T
        rhs[:, n:, 1:h + 1] = np.eye(h)
        rhs[:, :n, h + 1] = wg
        sol, solved = _solve_stack(kkt, rhs)
        rows = np.concatenate([sol[:, n:], np.einsum("ki,kij->kj", wg,
                                                     sol[:, :n])[:, None]], 1)
        rows = np.add.reduceat(rows, first, axis=0)
        v, ok = _solve_stack(rows[:, :, 1:], -rows[:, :, :1] - np.concatenate(
            [r_d, r_u[None]]).T[:, :, None])
        v = v[:, :, 0]
        step = sol[:, :, 0] + np.einsum("kij,kj->ki", sol[:, :, 1:], v[of])
    ok &= np.logical_and.reduceat(solved, first)
    return step[:, :n].T, v[:, :h].T, step[:, n:].T, v[:, h], ok


def _newton(agg, groups, blocks, y0, kkt_tol, max_iter):
    """Damped Newton on the KKT systems of all blocks at once.  Each block
    keeps its own step cap, line search, convergence test and iteration
    limit, so its iterates are those of a solve on its own; it leaves the
    batch when it converges or its system is singular or its line search
    fails.  Returns per block (y, d, lam, mu, residual, iterations), or
    (None, residual) where the caller decides on a fallback."""
    e, _ = _membership(groups)
    y, of, first = np.array(y0, dtype=float), blocks.of, blocks.start[:-1]
    # consistent multiplier warm start from the stationarity conditions;
    # where marginal utilities underflowed at the start, a flat multiplier
    # guess and the damped iteration (or a fallback) take over
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mean = (e.T @ agg.grad(blocks.x + y)) / e.sum(axis=0)[:, None]
        denom = np.add.reduceat(blocks.w * mean, first, axis=1)
        flat = ~np.isfinite(denom) | (denom <= 1e-290)
        lam = np.where(flat[:, of], -blocks.w, -blocks.w * mean / denom[:, of])
        mu = np.where(flat, 1.0, 1.0 / denom).mean(axis=0)
    d = (e.T @ y)[:, first]
    opt, res = np.empty(mu.size), np.empty(mu.size)
    iters, active = np.zeros(mu.size, dtype=int), np.ones(mu.size, dtype=bool)
    for it in range(max_iter + 1):
        sub, cols = blocks.take(active)
        state = y[:, cols], d[:, active], lam[:, cols], mu[active]
        r = _residual(agg, groups, sub, *state)
        opt[active], rmax = _optimality(groups, sub, state[3], r)
        res[active], iters[active] = np.maximum(opt[active], rmax), it
        going = ~(res[active] <= kkt_tol)
        if it == max_iter or not going.any():
            break
        dy, dd, dlam, dmu, solved = _newton_step(agg, groups, sub, state[0],
                                                 state[3], r)
        # cap the allocation move (keeps utilities in range) and keep the
        # utility multiplier positive; both inactive near the solution
        with np.errstate(divide="ignore", invalid="ignore"):
            ymax = np.maximum.reduceat(np.abs(dy).max(axis=0), sub.start[:-1])
            t = np.where(ymax > 20.0, 20.0 / ymax, 1.0)
            cap = (dmu < 0.0) & (state[3] + t * dmu <= 0.0)
            t = np.where(cap, np.minimum(t, -0.95 * state[3] / dmu), t)
        found = ~(going & solved)
        for _ in range(50):  # Armijo backtracking on each block's norm
            tc = t[sub.of]
            cand = (state[0] + tc * dy, state[1] + t * dd,
                    state[2] + tc * dlam, state[3] + t * dmu)
            norm = _residual(agg, groups, sub, *cand)[-1]
            found |= norm <= (1.0 - 1e-4 * t) * r[-1]
            if found.all():
                break
            t = np.where(found, t, 0.5 * t)
        moved = going & solved & found
        y[:, cols] = np.where(moved[sub.of], cand[0], state[0])
        d[:, active] = np.where(moved, cand[1], state[1])
        lam[:, cols] = np.where(moved[sub.of], cand[2], state[2])
        mu[active] = np.where(moved, cand[3], state[3])
        active[active] = moved
    return [(y[:, a:b], d[:, m], lam[:, a:b], mu[m], opt[m], iters[m])
            if res[m] <= kkt_tol else (None, float(res[m]))
            for m, (a, b) in enumerate(zip(first, blocks.start[1:]))]


def _block_residual(agg, groups, one, y, d, lam, mu):
    """max(opt, largest KKT residual entry) of a solution of one block."""
    mu = np.array([mu], dtype=float)
    r = _residual(agg, groups, one, y, np.reshape(d, (-1, 1)), lam, mu)
    return float(np.maximum(*_optimality(groups, one, mu, r))[0])


def _scalar_block(agg, groups, xb, w, bval):
    """Fallback for single-agent blocks: the allocation is constant on the
    block, so the active constraint pins it through one scalar root find."""
    def util(d):
        with np.errstate(over="ignore", invalid="ignore"):
            val = float(w @ agg.value(xb + d))
        return np.clip(val, -1e15, 1e15) - bval

    d = bracketed_root(util, 1e12, 1e-13)
    y = np.full_like(xb, d)
    grad = agg.grad(xb + y)
    mu = 1.0 / float(w @ grad[0])
    return y, np.array([d]), (-mu * w * grad[0])[None, :], mu


def _single_atom_block(agg, groups, xb, w, bval):
    """Fallback for one-atom blocks, valid for any aggregator.

    With a single atom every cluster multiplier equals -1, so all marginal
    utilities coincide at the reciprocal of the utility multiplier; a
    Newton root find on its logarithm pins the active constraint.
    """
    z, logmu = utility_level_roots(agg, np.ones((agg.nagents, 1)),
                                   np.ones(1), np.array([0, 1]),
                                   np.array([bval]))
    mu = float(np.exp(logmu[0]))
    y = z - xb
    d = np.array([y[list(g), 0].sum() for g in groups])
    return y, d, np.full((len(groups), 1), -1.0), mu


def _fallback(agg, groups, xb, w, bval, kkt_tol, best):
    """Solves of a block on which Newton stalled at residual best, for the
    two structures that reduce to one scalar root, each polished by
    Newton."""
    (n, el), one = xb.shape, _Blocks.single(xb, w, bval)
    for applies, solve in ((n == 1, _scalar_block),
                           (el == 1, _single_atom_block)):
        if not applies:
            continue
        try:
            attempt = solve(agg, groups, xb, w, bval)
        except InversionError:
            continue
        res = _block_residual(agg, groups, one, *attempt)
        polish = _newton(agg, groups, one, attempt[0], kkt_tol, 20)[0]
        if polish[0] is not None:
            return (*polish[:5], 0)
        if res <= 10.0 * kkt_tol:
            return (*attempt, res, 0)
        best = min(best, res, polish[1])
    raise ConvergenceError(
        f"block solve stalled at residual {best:.3e} "
        f"(tolerance {kkt_tol:.1e})", residual=best
    )


def solve_rho(spec: RiskSpec, start: np.ndarray | None = None) -> PrimalSolution:
    """Minimal total allocation meeting the conditional utility constraint.

    Returns the blockwise unique optimal allocation, the risk value per atom
    (constant on each block), the utility-constraint multiplier and the final
    KKT residual per block.  The blocks are independent programs; one
    batched Newton steps them together, and a block it does not solve goes
    through the fallbacks alone.
    """
    start = feasible_start(spec) if start is None else np.asarray(start, float)
    groups, agg = spec.clusters.groups, spec.aggregator
    blocks, cols = _Blocks.from_spec(spec)
    results = _newton(agg, groups, blocks, start[:, cols], spec.kkt_tol,
                      spec.max_iter)
    for m, out in enumerate(results):
        if out[0] is None:
            own = slice(blocks.start[m], blocks.start[m + 1])
            results[m] = _fallback(agg, groups, blocks.x[:, own], blocks.w[own],
                                   blocks.b[m], spec.kkt_tol, out[1])
    y_hat = np.empty_like(spec.x)
    y_hat[:, cols] = np.concatenate([out[0] for out in results], axis=1)
    _, d, _, mu, resid, iters = zip(*results)
    return PrimalSolution(
        y_hat=y_hat, rho=spec.sigma.expand([np.sum(dm) for dm in d]),
        mu=np.array(mu, dtype=float), kkt_residual=np.array(resid, dtype=float),
        iterations=np.array(iters, dtype=int))


@dataclass(frozen=True)
class AxiomReport:
    """Worst-case residuals of the risk-measure axioms on a pair of specs."""

    monotonicity_gap: float
    convexity_gap: float
    additivity_err: float
    locality_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return (self.monotonicity_gap <= self.tol
                and self.convexity_gap <= self.tol
                and self.additivity_err <= self.tol
                and self.locality_err <= self.tol)


def check_axioms(spec: RiskSpec, spec2: RiskSpec,
                 lambda_g: np.ndarray) -> AxiomReport:
    """Verify monotonicity, conditional convexity, conditional cash
    additivity and the local property by solving the required instances.

    ``spec2`` must differ from ``spec`` only in the position matrix;
    ``lambda_g`` is a partition-measurable mixing weight in [0, 1].
    """
    lam = spec.space.check_values(lambda_g, "lambda_g")
    if not is_measurable(lam, spec.sigma):
        raise ValueError("mixing weight must be partition-measurable")
    if lam.min() < -1e-12 or lam.max() > 1.0 + 1e-12:
        raise ValueError("mixing weight must lie in [0, 1]")
    tol = 5.0 * spec.kkt_tol

    x, z = spec.x, spec2.x
    rho_x = solve_rho(spec).rho
    rho_z = solve_rho(spec2).rho

    # monotonicity, on the comparable envelope pair
    rho_lo = solve_rho(spec.with_x(np.minimum(x, z))).rho
    rho_hi = solve_rho(spec.with_x(np.maximum(x, z))).rho
    mono_gap = float(np.max(rho_hi - rho_lo))

    # conditional convexity with the supplied measurable weight
    xmix = lam[None, :] * x + (1.0 - lam[None, :]) * z
    rho_mix = solve_rho(spec.with_x(xmix)).rho
    conv_gap = float(np.max(rho_mix - (lam * rho_x + (1.0 - lam) * rho_z)))

    # conditional cash additivity with a measurable vector shift
    n = spec.nagents
    y_g = np.stack([(1.0 + j / max(n, 1)) * lam for j in range(n)])
    rho_shift = solve_rho(spec.with_x(x + y_g)).rho
    add_err = float(np.max(np.abs(rho_shift - (rho_x - y_g.sum(axis=0)))))

    # local property on a union of partition blocks
    mask = np.zeros(spec.space.natoms)
    for m, blk in enumerate(spec.sigma.blocks):
        if m % 2 == 0:
            mask[list(blk)] = 1.0
    x_loc = mask[None, :] * x + (1.0 - mask[None, :]) * z
    rho_loc = solve_rho(spec.with_x(x_loc)).rho
    loc_err = float(np.max(np.abs(rho_loc - (mask * rho_x + (1.0 - mask) * rho_z))))

    return AxiomReport(monotonicity_gap=mono_gap, convexity_gap=conv_gap,
                       additivity_err=add_err, locality_err=loc_err, tol=tol)
