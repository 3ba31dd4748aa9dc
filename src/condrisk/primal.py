"""Shortfall risk of a system of agents given partial information.

The risk of a position matrix X is the least total capital, measurable with
respect to the information partition, that can be distributed across agents
(scenario by scenario, subject to cluster constraints on who may share with
whom) so that the conditional expected aggregated utility of the padded
positions clears a threshold B on every block.

Each block of the information partition yields an independent equality-
constrained concave program.  One damped Newton iteration on the KKT
systems steps all blocks of a solve together, by O(N) steps on the
aggregator's diagonal-plus-rank-one Hessian, and certifies them.  Each
block starts from its own KKT point: for exponential agents without an
interdependence term its explicit solution, for any cluster structure;
otherwise, for all blocks in one root find, the agents of each cluster
sharing its risk, with one marginal utility of their own utilities where
the cluster's summed position is least, and the utility constraint
active.  Where the start is the solution, as for a single agent or on one
atom of a separable aggregator, Newton only certifies it.  A block Newton
does not certify is refused.  The solution carries the gradient of its
last KKT residual, from which the dual optimizer is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .preferences import Aggregator, increasing_roots, stable_sum
from .prob_space import ScenarioSpace, SigmaPartition, is_measurable

DEFAULT_KKT_TOL = 1e-9
DEFAULT_MAX_ITER = 200


class ConvergenceError(RuntimeError):
    """A block solve failed to reach the KKT tolerance."""

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
        return self.b[self.sigma.first]

    @cached_property
    def _blocks(self):
        """The blocks of the problem, and the atom of each of their
        columns: made once, as x and b are write-protected, and
        write-protected themselves."""
        g = self.sigma
        arrays = (self.x[:, g.order], g.conditional_weights()[g.order],
                  self.block_threshold(), np.append(g.cuts, g.order.size))
        for arr in arrays:
            arr.setflags(write=False)
        return _Blocks(*arrays), g.order


@dataclass(frozen=True, eq=False)
class PrimalSolution:
    """Optimal allocation, risk per atom, per block the utility
    multiplier, the final optimality residual (at most kkt_tol) and the
    number of Newton steps, 0 for a block certified at its start, as every
    closed-form and every single-agent block is, and grad U(X + y_hat), as
    the last KKT residual of each block evaluated it."""

    y_hat: np.ndarray
    rho: np.ndarray
    mu: np.ndarray
    kkt_residual: np.ndarray
    iterations: np.ndarray
    grad: np.ndarray


def feasible_start(spec: RiskSpec) -> np.ndarray:
    """Allocation, with cluster sums constant on each block, with the
    utility constraint active up to the root tolerance on every block: the
    start of the primal Newton.

    The agents of a cluster c share the risk of its summed position X_c.
    On block m agent j of c sits at zhat_j(t_m) + (X_c - min X_c)/|c|, the
    minimum taken over the block's atoms, for zhat_j(t) = (u_j')^{-1}(e^-t),
    the inverse marginal of its own utility: where X_c is least every agent
    of the cluster has marginal utility e^-t_m, as at the block's KKT point
    all agents of a cluster have one, and elsewhere they carry equal parts
    of the cluster's excess.  So y = z - x has the cluster sums
    sum_j zhat_j(t_m) - min X_c, constant on the block.  A single-agent
    cluster, as every cluster under no sharing, keeps its own x - min x.
    t_m is the root of E_w[U(z(t))] = b_m, one root find for all blocks, so
    each block starts from its own root whatever the thresholds and
    positions of the others.  For a single agent, and on one atom of a
    separable aggregator, the start is the block's solution.
    """
    blocks, cols = spec._blocks
    start = np.empty_like(spec.x)
    start[:, cols] = _block_starts(spec.aggregator, spec.clusters.groups,
                                   blocks)
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
    def join(cls, parts) -> "_Blocks":
        """The blocks of several problems side by side, in order."""
        sizes = [n for p in parts for n in np.diff(p.start)]
        return cls(np.concatenate([p.x for p in parts], axis=1),
                   np.concatenate([p.w for p in parts]),
                   np.concatenate([p.b for p in parts]),
                   np.cumsum([0] + sizes))

    @cached_property
    def of(self) -> np.ndarray:  # block of each column
        return np.repeat(np.arange(self.b.size), np.diff(self.start))

    def take(self, keep):
        """The blocks flagged in keep, and the flags of their columns; self
        and a slice of all columns, with no copy, if keep flags them all."""
        if keep.all():
            return self, slice(None)
        cols = keep[self.of]
        start = np.concatenate(([0], np.cumsum(np.diff(self.start)[keep])))
        return _Blocks(self.x[:, cols], self.w[cols], self.b[keep], start), cols


def _block_starts(agg, groups, blocks) -> np.ndarray:
    """The start of feasible_start, for blocks side by side, by
    increasing_roots from t = 0.  Along the curve zhat(t) the slope of
    E_w[U] is E_w[grad U(z)^T dzhat/dt], with dzhat_i/dt =
    -e^-t / u_i''(zhat_i), u_i'' from the inverse marginal."""
    first, of = blocks.start[:-1], blocks.of
    member, _, _, sizes = _membership(groups)
    low = np.minimum.reduceat(blocks.x, first, axis=1)
    total = _cluster_sum(groups, blocks.x)
    share = ((total - np.minimum.reduceat(total, first, axis=1)[:, of])
             / sizes[:, None])[member]
    ones = np.ones_like(low)

    def state(t):
        zhat, d2 = agg.inverse_marginals(np.exp(-t) * ones)
        value, grad, _, _ = agg.terms(share + zhat[:, of])
        return (np.add.reduceat(blocks.w * value, first) - blocks.b,
                (zhat, d2, grad))

    def slope(t, payload):
        _, d2, grad = payload
        dz = -np.exp(-t) / d2
        return np.add.reduceat(
            blocks.w * stable_sum(grad * dz[:, of]), first)

    _, (zhat, _, _) = increasing_roots(state, slope,
                                       np.zeros(blocks.b.size))
    # y = zhat + share - x, written so that the share of a single agent,
    # its own x - low, cancels exactly
    return (zhat - low)[:, of] + (share - (blocks.x - low[:, of]))


@lru_cache(maxsize=16)
def _membership(groups):
    """Each agent's cluster, the agents in cluster order (a slice if that is
    their order), the first of each cluster in it, and the cluster sizes."""
    order = np.concatenate(groups).astype(np.intp)
    sizes = np.array([len(g) for g in groups])
    member = np.empty_like(order)
    member[order] = np.repeat(np.arange(len(groups)), sizes)
    if np.array_equal(order, np.arange(order.size)):
        order = slice(None)
    return member, order, np.cumsum(sizes) - sizes, sizes


def _cluster_sum(groups, x):
    """E^T x for the agent-to-cluster membership E: the sums of x over the
    agents of each cluster, by stable_sum's rule."""
    _, order, cut, _ = _membership(groups)
    return np.add.reduceat(x[order], cut, axis=0)


def _residual(agg, groups, blocks, y, d, lam, mu, terms=None):
    """KKT residuals of all blocks, (r_y, r_d, r_c, r_u, grad, d2, v2,
    norm): of stationarity in y and d, of the cluster budgets d and of the
    utility constraint, the gradient and Hessian pair of U from its one
    pass at x + y, agg.terms there unless given, and the Euclidean norm of
    all four residuals per block."""
    member = _membership(groups)[0]
    first, of = blocks.start[:-1], blocks.of
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value, grad, d2, v2 = (agg.terms(blocks.x + y) if terms is None
                               else terms)
        r_y = -lam[member] - (mu[of] * blocks.w) * grad
        r_d = 1.0 + np.add.reduceat(lam, first, axis=1)
        r_c = _cluster_sum(groups, y) - d[:, of]
        r_u = np.add.reduceat(blocks.w * value, first) - blocks.b
        sq = np.add.reduceat(stable_sum(r_y ** 2) + stable_sum(r_c ** 2),
                             first) + stable_sum(r_d ** 2) + r_u ** 2
    return r_y, r_d, r_c, r_u, grad, d2, v2, np.sqrt(sq)


def _optimality(groups, blocks, mu, r):
    """(opt, largest KKT residual entry) per block.  The scale-free opt
    covers within-cluster marginal-utility spread (relative), the
    per-cluster multiplier condition, cluster-sum feasibility and the
    activity of the utility constraint, scaled by mu: unlike the KKT
    residual it does not vanish on atoms of low probability."""
    r_y, r_d, r_c, r_u, grad = r[:5]
    member, _, _, sizes = _membership(groups)
    first = blocks.start[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _cluster_sum(groups, grad) / sizes[:, None]
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
    atom, A dy - E dlam = w grad dmu - r_y and E^T dy = dd - r_c, for the
    cluster membership E and A = -mu w H = P + g beta beta^T with P
    diagonal, are solved by Sherman-Morrison on A and on S = E^T A^-1 E,
    diagonal plus rank one as the clusters are disjoint.  Summed over a
    block's atoms, sum dlam = -r_d and sum w grad^T dy = -r_u leave an
    (h + 1) x (h + 1) system in (dd, dmu) per block, with grad and H =
    diag(d2) + v2 beta beta^T taken from r.  A zero or non-finite entry of
    P makes its block singular."""
    r_y, r_d, r_c, r_u, grad, d2, v2, _ = r
    (n, k), h, member = y.shape, len(groups), _membership(groups)[0]
    first, of = blocks.start[:-1], blocks.of
    beta = np.zeros((n, 1)) if agg.separable else agg.lam.weights[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nmw = -mu[of] * blocks.w
        p, g = nmw * d2, nmw * v2
        ip = 1.0 / p
        flat = ~np.isfinite(ip * p)
        ip[flat] = 1.0
        # A^-1 x = x / P - c q q^T x for q = P^-1 beta, and S^-1 x =
        # x / D + tau t t^T x for D = E^T P^-1 E (dg) and t = E^T q / D
        q = beta * ip
        c = g / (1.0 + g * stable_sum(beta * q))
        cq = c * q
        dg, s = _cluster_sum(groups, ip), _cluster_sum(groups, q)
        t = s / dg
        tt = t * (c / (1.0 - c * stable_sum(s * t)))
        # right-hand sides: the residual, a unit dd of each cluster, a unit dmu
        wg = blocks.w * grad
        ry, rc = np.zeros((n, h + 2, k)), np.zeros((h, h + 2, k))
        ry[:, 0], ry[:, -1] = -r_y, wg
        rc[:, 0], rc[:, 1:-1] = -r_c, np.eye(h)[:, :, None]
        ay = ip[:, None] * ry - cq[:, None] * stable_sum(q[:, None] * ry)
        x = rc - _cluster_sum(groups, ay)
        dlam = x / dg[:, None] + tt[:, None] * stable_sum(t[:, None] * x)
        dy = (ay + ip[:, None] * dlam[member]
              - cq[:, None] * stable_sum(s[:, None] * dlam))
        rows = np.concatenate([dlam, stable_sum(wg[:, None] * dy)[None]])
        rows = np.add.reduceat(rows.transpose(2, 0, 1), first, axis=0)
        v, ok = _solve_stack(rows[:, :, 1:], -rows[:, :, :1] - np.concatenate(
            [r_d, r_u[None]]).T[:, :, None])
        vk = v[of, :, 0].T[:, None]
        dy = dy[:, 0] + stable_sum(dy[:, 1:].transpose(1, 0, 2) * vk)
        dlam = dlam[:, 0] + stable_sum(dlam[:, 1:].transpose(1, 0, 2) * vk)
    ok &= ~np.logical_or.reduceat(flat.any(axis=0), first)
    return dy, v[:, :h, 0].T, dlam, v[:, h, 0], ok


def _kkt_start(agg, groups, blocks, y=None):
    """The KKT start (y, d, lam, mu, terms) of all blocks at the allocation
    y, by default feasible_start's: the cluster budgets d of y, the
    multipliers consistent with stationarity, lam = -w mean / E_w[mean] for
    each cluster's mean marginal utility and mu the mean over its clusters
    of 1 / E_w[mean], and agg.terms at x + y, which the first KKT residual
    reuses.  Where E_w[mean] is 0 or not finite, so are the multipliers."""
    if y is None:
        y = _block_starts(agg, groups, blocks)
    sizes = _membership(groups)[3]
    of, first = blocks.of, blocks.start[:-1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms = agg.terms(blocks.x + y)
        mean = _cluster_sum(groups, terms[1]) / sizes[:, None]
        denom = np.add.reduceat(blocks.w * mean, first, axis=1)
        lam = -blocks.w * mean / denom[:, of]
        mu = (1.0 / denom).mean(axis=0)
    return y, _cluster_sum(groups, y)[:, first], lam, mu, terms


def _newton(agg, groups, blocks, start, kkt_tol, max_iter):
    """Damped Newton on the KKT systems of all blocks at once, from the
    KKT start (y, d, lam, mu), followed by agg.terms at x + y where the
    start evaluated it, as _kkt_start's does.  Each block takes the full
    Newton step, halved only by its own Armijo search on its residual norm
    (the infeasible-start Newton method, Boyd & Vandenberghe, Convex
    Optimization, 10.3), and keeps its own convergence test and iteration
    limit, so its iterates are those of a solve on its own.  A block leaves
    the batch when it converges, its system is singular or its line search
    fails, as it does at a start or a step that is not finite.  Returns y,
    grad U(x + y) from each block's last residual, and per block (rho, mu,
    residual, iterations, largest residual): a block is certified where its
    largest residual is at most kkt_tol, in 0 steps at a start that
    passes."""
    y, d, lam, mu = (np.array(a, dtype=float) for a in start[:4])
    grad_u = np.empty_like(y)
    opt, res = np.empty(mu.size), np.empty(mu.size)
    iters, active = np.zeros(mu.size, dtype=int), np.ones(mu.size, dtype=bool)
    r = None
    for it in range(max_iter + 1):
        sub, cols = blocks.take(active)
        state = y[:, cols], d[:, active], lam[:, cols], mu[active]
        if r is None:
            r = _residual(agg, groups, sub, *state, *start[4:])
        grad_u[:, cols] = r[4]
        opt[active], rmax = _optimality(groups, sub, state[3], r)
        res[active], iters[active] = np.maximum(opt[active], rmax), it
        going = ~(res[active] <= kkt_tol)
        if it == max_iter or not going.any():
            break
        dy, dd, dlam, dmu, solved = _newton_step(agg, groups, sub, state[0],
                                                 state[3], r)
        t = np.ones(dmu.size)
        found = ~(going & solved)
        for _ in range(50):  # Armijo backtracking on each block's norm
            tc = t[sub.of]
            cand = (state[0] + tc * dy, state[1] + t * dd,
                    state[2] + tc * dlam, state[3] + t * dmu)
            trial = _residual(agg, groups, sub, *cand)
            found |= trial[-1] <= (1.0 - 1e-4 * t) * r[-1]
            if found.all():
                break
            t = np.where(found, t, 0.5 * t)
        moved = going & solved & found
        y[:, cols] = np.where(moved[sub.of], cand[0], state[0])
        d[:, active] = np.where(moved, cand[1], state[1])
        lam[:, cols] = np.where(moved[sub.of], cand[2], state[2])
        mu[active] = np.where(moved, cand[3], state[3])
        active[active] = moved
        # the blocks still active moved to their last trial point: its
        # residuals, gradient and Hessian open the next iteration
        r_y, r_d, r_c, r_u, grad, d2, v2, norm = trial
        keep = moved[sub.of]
        r = (r_y[:, keep], r_d[:, moved], r_c[:, keep], r_u[moved],
             grad[:, keep], d2[:, keep], v2[keep], norm[moved])
    # rho_m = sum_c d_c, each block's sum taken over contiguous memory, by
    # the pairwise rule of np.sum, whatever the number of clusters
    rho = np.ascontiguousarray(d.T).sum(axis=1)
    return y, grad_u, rho, mu, opt, iters, res


def _exponential_blocks(agg, groups, blocks):
    """The KKT point (y, d, lam, mu) of all blocks in closed form, for
    exponential agents, raw or shifted, without an interdependence term.

    With u_j(z) = s_j - exp(-alpha_j z), s_j = 1 for a shifted agent and 0
    otherwise, and on cluster c beta_c = sum 1/alpha_j, a_j =
    (1/alpha_j) log(1/alpha_j), A_c = sum a_j and X_c = sum x_j, the KKT
    conditions of block m give mu_m = beta/(k - b_m) for beta = sum_c
    beta_c and the number k of shifted agents, d_c = beta_c (log mu_m +
    log E_w[exp(-(X_c + A_c)/beta_c)]), lam_c = -mu_m w exp(-(d_c + X_c +
    A_c)/beta_c) and z_j = (d_c + X_c + A_c)/(alpha_j beta_c) - a_j.
    """
    alphas, k = agg.exponential_form
    member = _membership(groups)[0]
    first, of = blocks.start[:-1], blocks.of
    # a point that is not finite fails Newton's test and is refused
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a_j = np.log(1.0 / alphas) / alphas
        beta = _cluster_sum(groups, 1.0 / alphas)[:, None]
        # -(X_c + A_c)/beta_c
        s = -_cluster_sum(groups, blocks.x + a_j[:, None]) / beta
        top = np.maximum.reduceat(s, first, axis=1)
        lse = top + np.log(np.add.reduceat(
            blocks.w * np.exp(s - top[:, of]), first, axis=1))
        mu = beta.sum() / (k - blocks.b)
        level = np.log(mu) + lse  # d_c/beta_c
        lam = -blocks.w * np.exp(s - lse[:, of])
        y = ((level[:, of] - s)[member] / alphas[:, None] - a_j[:, None]
             - blocks.x)
        d = beta * level
    return y, d, lam, mu


def _batch(specs):
    """The blocks of all specs side by side and each spec's part of them,
    once the specs are found to share what one solve needs."""
    agg, groups = specs[0].aggregator, specs[0].clusters.groups
    kkt_tol, max_iter = specs[0].kkt_tol, specs[0].max_iter
    for spec in specs[1:]:
        if (spec.aggregator is not agg or spec.clusters.groups != groups
                or spec.kkt_tol != kkt_tol or spec.max_iter != max_iter):
            raise ValueError("a batch of solves must share the aggregator, "
                             "the cluster groups, kkt_tol and max_iter")
    parts = [spec._blocks for spec in specs]
    return _Blocks.join([p for p, _ in parts]), parts


def _finish(specs, blocks, parts, start):
    """One PrimalSolution per spec, once the batched Newton has certified
    every block from the KKT start; the first block it does not certify
    raises ConvergenceError."""
    agg, groups = specs[0].aggregator, specs[0].clusters.groups
    kkt_tol, max_iter = specs[0].kkt_tol, specs[0].max_iter
    y, grad, rho, mu, resid, iters, res = _newton(agg, groups, blocks, start,
                                                  kkt_tol, max_iter)
    refused = np.flatnonzero(~(res <= kkt_tol))
    if refused.size:
        worst = float(res[refused[0]])
        raise ConvergenceError(f"block solve stalled at residual {worst:.3e} "
                               f"(tolerance {kkt_tol:.1e})", residual=worst)
    sols, m, k = [], 0, 0
    for spec, (part, cols) in zip(specs, parts):
        own, cut = slice(m, m + part.b.size), k + cols.size
        y_hat, grad_hat = np.empty_like(spec.x), np.empty_like(spec.x)
        y_hat[:, cols], grad_hat[:, cols] = y[:, k:cut], grad[:, k:cut]
        sols.append(PrimalSolution(
            y_hat=y_hat, rho=spec.sigma.expand(rho[own]), mu=mu[own],
            kkt_residual=resid[own], iterations=iters[own], grad=grad_hat))
        m, k = own.stop, cut
    return sols


def solve_batch(specs) -> list[PrimalSolution]:
    """solve_rho of several problems at once, one PrimalSolution each.

    The blocks of all specs go side by side into one batched Newton, which
    steps each block on its own, so every block takes the iterates of a
    solve of its problem alone and the results equal those of solve_rho
    spec by spec.  For exponential agents without an interdependence term
    each block starts at its closed-form solution, which Newton certifies
    in 0 steps, or else polishes from there.  Otherwise each block starts at
    its point of feasible_start, all blocks in one root find; for a single
    agent that is its solution, which Newton only certifies.  A block
    Newton does not certify raises ConvergenceError.  All specs must share
    the aggregator object, the cluster groups and the solver tolerances.
    """
    blocks, parts = _batch(specs)
    agg, groups = specs[0].aggregator, specs[0].clusters.groups
    start = (_kkt_start(agg, groups, blocks) if agg.exponential_form is None
             else _exponential_blocks(agg, groups, blocks))
    return _finish(specs, blocks, parts, start)


def _solve_newton(specs, starts=None) -> list[PrimalSolution]:
    """solve_batch without the closed form: every block starts at the
    allocation of ``starts`` (one per spec), or else of feasible_start,
    with multipliers from stationarity, whatever the aggregator.  Tests
    drive Newton on exponential agents through it, hold it to the closed
    forms and force its paths by their starts."""
    blocks, parts = _batch(specs)
    agg, groups = specs[0].aggregator, specs[0].clusters.groups
    y0 = None if starts is None else np.concatenate(
        [np.asarray(start, float)[:, cols]
         for start, (_, cols) in zip(starts, parts)], axis=1)
    return _finish(specs, blocks, parts, _kkt_start(agg, groups, blocks, y0))


def solve_rho(spec: RiskSpec) -> PrimalSolution:
    """Minimal total allocation meeting the conditional utility constraint.

    Returns the blockwise unique optimal allocation, the risk value per atom
    (constant on each block), the utility-constraint multiplier and the final
    KKT residual per block.  The blocks are independent programs, which
    one batched Newton steps together, each from its own KKT start: the
    closed form for exponential agents without an interdependence term,
    else its point of feasible_start.  A block it does not certify raises
    ConvergenceError.  This is solve_batch of one spec.
    """
    return solve_batch([spec])[0]


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

    ``spec2`` must differ from ``spec`` only in the position matrix, and
    share its aggregator object as a batch does; a ValueError names the
    first other field that differs.  ``lambda_g`` is a
    partition-measurable mixing weight in [0, 1].
    """
    for name in ("space", "sigma", "aggregator", "b", "clusters", "kkt_tol",
                 "max_iter"):
        mine, theirs = getattr(spec, name), getattr(spec2, name)
        if theirs is not mine and (name == "aggregator"
                                   or not np.all(theirs == mine)):
            raise ValueError(f"spec2 differs from spec in {name}; it may "
                             "differ only in x")
    lam = spec.space.check_values(lambda_g, "lambda_g")
    if not is_measurable(lam, spec.sigma):
        raise ValueError("mixing weight must be partition-measurable")
    if lam.min() < -1e-12 or lam.max() > 1.0 + 1e-12:
        raise ValueError("mixing weight must lie in [0, 1]")
    tol = 5.0 * spec.kkt_tol

    # the seven instances are independent: one batch solves them all
    x, z = spec.x, spec2.x
    n = spec.nagents
    xmix = lam[None, :] * x + (1.0 - lam[None, :]) * z
    y_g = np.stack([(1.0 + j / max(n, 1)) * lam for j in range(n)])
    mask = (spec.sigma.block_index % 2 == 0).astype(float)
    x_loc = mask[None, :] * x + (1.0 - mask[None, :]) * z
    rho_x, rho_z, rho_lo, rho_hi, rho_mix, rho_shift, rho_loc = (
        sol.rho for sol in solve_batch([spec] + [spec.with_x(v) for v in (
            z, np.minimum(x, z), np.maximum(x, z), xmix, x + y_g, x_loc)]))

    # monotonicity, on the comparable envelope pair
    mono_gap = float(np.max(rho_hi - rho_lo))
    # conditional convexity with the supplied measurable weight
    conv_gap = float(np.max(rho_mix - (lam * rho_x + (1.0 - lam) * rho_z)))
    # conditional cash additivity with a measurable vector shift
    add_err = float(np.max(np.abs(rho_shift - (rho_x - y_g.sum(axis=0)))))
    # local property on a union of partition blocks
    loc_err = float(np.max(np.abs(rho_loc - (mask * rho_x + (1.0 - mask) * rho_z))))

    return AxiomReport(monotonicity_gap=mono_gap, convexity_gap=conv_gap,
                       additivity_err=add_err, locality_err=loc_err, tol=tol)
