"""Shortfall risk of a system of agents given partial information.

The risk of a position matrix X is the least total capital, measurable with
respect to the information partition, that can be distributed across agents
(scenario by scenario, subject to cluster constraints on who may share with
whom) so that the conditional expected aggregated utility of the padded
positions clears a threshold B on every block.

Each block of the information partition yields an independent equality-
constrained concave program; the solver is a damped Newton iteration on the
KKT system, with a globally convergent profile/bisection fallback for
separable aggregators.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .preferences import (Aggregator, InversionError, invert_gradient,
                          multiplier_root)
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
    y_hat: np.ndarray
    rho: np.ndarray
    mu: np.ndarray
    kkt_residual: np.ndarray
    iterations: np.ndarray

    @property
    def converged(self) -> bool:
        return bool(np.all(np.isfinite(self.kkt_residual)))


def feasible_start(spec: RiskSpec) -> np.ndarray:
    """Constant-per-agent allocation satisfying the utility constraint with
    positive slack on every block.

    Shifts every agent by its sup-norm plus a common scalar chosen so the
    aggregated utility of the constant vector clears the largest threshold.
    """
    agg = spec.aggregator
    bmax = float(spec.b.max())
    slack = min(1e-6, (agg.sup - bmax) / 2.0)
    target = bmax + slack
    ones = np.ones(spec.nagents)

    def f(s):
        return float(agg.value(s * ones)) - target

    lo, hi = 0.0, 1.0
    if f(0.0) >= 0.0:
        while f(lo) >= 0.0 and lo > -1e12:
            hi = lo
            lo = 2.0 * lo - 1.0
    else:
        while f(hi) < 0.0 and hi < 1e12:
            lo = hi
            hi = 2.0 * hi + 1.0
    s = brentq(f, lo, hi, xtol=1e-9)
    # land strictly on the feasible side of the slack target
    while f(s) < 0.0:
        s += 1e-9
    shift = np.max(np.abs(spec.x), axis=1) + s
    return np.tile(shift[:, None], (1, spec.space.natoms))


def _block_data(spec: RiskSpec):
    """Per-block views: atom indices, conditional weights, positions, threshold."""
    w_all = spec.sigma.conditional_weights()
    bthr = spec.block_threshold()
    out = []
    for m, blk in enumerate(spec.sigma.blocks):
        idx = np.asarray(blk, dtype=np.intp)
        out.append((idx, w_all[idx], spec.x[:, idx], bthr[m]))
    return out


def _member_of(groups, n):
    member = np.empty(n, dtype=np.intp)
    for m, g in enumerate(groups):
        member[list(g)] = m
    return member


def _kkt_residual(agg, groups, xb, w, bval, y, d, lam, mu):
    with np.errstate(over="ignore", invalid="ignore"):
        z = xb + y
        grad = agg.grad(z)
        uval = agg.value(z)
        member = _member_of(groups, y.shape[0])
        r_y = -lam[member, :] - mu * w[None, :] * grad
        r_d = 1.0 + lam.sum(axis=1)
        r_c = np.stack([y[list(g), :].sum(axis=0) - d[m]
                        for m, g in enumerate(groups)])
        r_u = float(w @ uval) - bval
    return r_y, r_d, r_c, r_u, grad, uval


def _pack(r_y, r_d, r_c, r_u):
    return np.concatenate([r_y.ravel(), r_d, r_c.ravel(), [r_u]])


def _opt_residual(groups, w, grad, mu, r_c, r_u):
    """Scale-free optimality measure of a candidate block solution.

    Covers within-cluster marginal-utility spread (relative), the
    per-cluster multiplier condition, cluster-sum feasibility and the
    activity of the utility constraint.  Unlike the raw KKT residual this
    does not vanish on low-probability atoms merely because their weight is
    small; the activity term is scaled by the multiplier because the risk
    value responds to threshold perturbations at rate mu.
    """
    mu_cap = min(max(abs(mu), 1.0), 1e5)
    worst = max(float(np.max(np.abs(r_c))), abs(r_u) * mu_cap)
    for g in groups:
        rows = grad[list(g), :]
        mean = rows.mean(axis=0)
        spread = np.max(np.abs(rows - mean[None, :])
                        / np.maximum(1.0, np.abs(mean))[None, :])
        worst = max(worst, float(spread),
                    abs(mu * float(w @ mean) - 1.0))
    return worst


def _kkt_jacobian(agg, groups, xb, w, y, mu, grad):
    n, el = y.shape
    h = len(groups)
    ny, nd = n * el, h
    size = ny + nd + h * el + 1
    jac = np.zeros((size, size))
    hess = agg.hessian(xb + y)  # (el, n, n)
    member = _member_of(groups, n)
    ar = np.arange(el)

    for i in range(n):
        ri = i * el + ar
        for i2 in range(n):
            jac[ri, i2 * el + ar] = -mu * w * hess[:, i, i2]
        li = ny + nd + member[i] * el + ar
        jac[ri, li] = -1.0
        jac[li, ri] = 1.0
        jac[ri, size - 1] = -w * grad[i]
        jac[size - 1, ri] = w * grad[i]
    for m in range(h):
        lm = ny + nd + m * el + ar
        jac[lm, ny + m] = -1.0
        jac[ny + m, lm] = 1.0
    return jac


def _newton_block(agg, groups, xb, w, bval, y0, kkt_tol, max_iter):
    """Damped Newton on the KKT system of one block's program."""
    n, el = xb.shape
    h = len(groups)
    y = y0.copy()
    d = np.array([y[list(g), :].sum(axis=0)[0] for g in groups])
    # consistent multiplier warm start from the stationarity conditions;
    # if marginal utilities underflowed at the start, fall back to a flat
    # multiplier guess and let the damped iteration (or a fallback) work
    with np.errstate(over="ignore", invalid="ignore"):
        grad0 = agg.grad(xb + y)
    lam = np.empty((h, el))
    mus = []
    for m, g in enumerate(groups):
        a = grad0[list(g), :].mean(axis=0)
        denom = float(w @ a)
        if not np.isfinite(denom) or denom <= 1e-290:
            lam[m] = -w
            mus.append(1.0)
        else:
            lam[m] = -w * a / denom
            mus.append(1.0 / denom)
    mu = float(np.mean(mus))

    r = _kkt_residual(agg, groups, xb, w, bval, y, d, lam, mu)
    rvec = _pack(*r[:4])
    norm = np.linalg.norm(rvec)
    for it in range(max_iter):
        opt = _opt_residual(groups, w, r[4], mu, r[2], r[3])
        if opt <= kkt_tol and np.max(np.abs(rvec)) <= kkt_tol:
            return y, d, lam, mu, opt, it
        jac = _kkt_jacobian(agg, groups, xb, w, y, mu, r[4])
        try:
            step = np.linalg.solve(jac, -rvec)
        except np.linalg.LinAlgError:
            try:
                jac = jac + 1e-10 * np.eye(jac.shape[0])
                step = np.linalg.solve(jac, -rvec)
            except np.linalg.LinAlgError:
                break  # degenerate curvature; caller decides on fallback
        dy = step[: n * el].reshape(n, el)
        dd = step[n * el: n * el + h]
        dl = step[n * el + h: n * el + h + h * el].reshape(h, el)
        dm = step[-1]
        t = 1.0
        # cap the allocation move (keeps utilities in range) and keep the
        # utility multiplier positive; both inactive near the solution
        ymax = float(np.max(np.abs(dy)))
        if ymax > 20.0:
            t = 20.0 / ymax
        if dm < 0.0 and mu + t * dm <= 0.0:
            t = min(t, -0.95 * mu / dm)
        for _ in range(50):
            cand = (y + t * dy, d + t * dd, lam + t * dl, mu + t * dm)
            rc = _kkt_residual(agg, groups, xb, w, bval, *cand)
            cnorm = np.linalg.norm(_pack(*rc[:4]))
            if cnorm <= (1.0 - 1e-4 * t) * norm:
                y, d, lam, mu = cand
                r, rvec, norm = rc, _pack(*rc[:4]), cnorm
                break
            t *= 0.5
        else:
            break  # no progress; caller decides on fallback
    r = _kkt_residual(agg, groups, xb, w, bval, y, d, lam, mu)
    res = max(_opt_residual(groups, w, r[4], mu, r[2], r[3]),
              float(np.max(np.abs(_pack(*r[:4])))))
    if res <= kkt_tol:
        return y, d, lam, mu, res, max_iter
    return None, res


def _scalar_block(agg, xb, w, bval, kkt_tol):
    """Fallback for single-agent blocks: the allocation is constant on the
    block, so the active constraint pins it through one scalar root find."""
    def util(d):
        with np.errstate(over="ignore", invalid="ignore"):
            val = float(w @ agg.value(xb + d))
        return np.clip(val, -1e15, 1e15) - bval

    lo, hi = -1.0, 1.0
    while util(lo) > 0.0 and lo > -1e12:
        lo = 2.0 * lo - 1.0
    while util(hi) < 0.0 and hi < 1e12:
        hi = 2.0 * hi + 1.0
    d = brentq(util, lo, hi, xtol=1e-13)
    y = np.full_like(xb, d)
    grad = agg.grad(xb + y)
    mu = 1.0 / float(w @ grad[0])
    lam = (-mu * w * grad[0])[None, :]
    r = _kkt_residual(agg, ((0,),), xb, w, bval, y, np.array([d]), lam, mu)
    res = max(_opt_residual(((0,),), w, r[4], mu, r[2], r[3]),
              float(np.max(np.abs(_pack(*r[:4])))))
    return y, np.array([d]), lam, mu, res, 0


def _constants_block(agg, xb, w, bval, kkt_tol):
    """Fallback for all-singleton clusters: every agent's allocation is a
    single constant on the block, so the program reduces to N constants.

    The optimum equalizes the expected marginal utilities across agents; a
    scalar root find on that common level wraps a small log-space Newton
    for the constants (well conditioned even when marginals are tiny).
    """
    n = xb.shape[0]

    def constants_for(logtheta, c0):
        c = c0.copy()
        for _ in range(100):
            with np.errstate(over="ignore", invalid="ignore"):
                grad = agg.grad(xb + c[:, None])
                mg = grad @ w
                f = np.log(mg) - logtheta
            if not np.all(np.isfinite(f)):
                return None
            if np.max(np.abs(f)) <= 1e-13:
                return c
            hess = agg.hessian(xb + c[:, None])   # (L, n, n)
            jac = np.tensordot(w, hess, axes=(0, 0)) / mg[:, None]
            try:
                step = np.linalg.solve(jac, -f)
            except np.linalg.LinAlgError:
                return None
            t, base = 1.0, np.max(np.abs(f))
            for _ in range(60):
                cand = c + t * step
                with np.errstate(over="ignore", invalid="ignore"):
                    fc = np.log(agg.grad(xb + cand[:, None]) @ w) - logtheta
                if np.all(np.isfinite(fc)) and np.max(np.abs(fc)) < base:
                    c = cand
                    break
                t *= 0.5
            else:
                return None
        return c

    def util_at(logtheta, c0):
        c = constants_for(logtheta, c0)
        if c is None:
            return None, None
        with np.errstate(over="ignore", invalid="ignore"):
            val = float(np.clip(w @ agg.value(xb + c[:, None]), -1e15, 1e15))
        return val, c

    c_guess = np.zeros(n)
    lo, hi = -2.0, 2.0
    val, c_lo = util_at(lo, c_guess)
    while val is not None and val < bval and lo > -600.0:
        lo *= 2.0
        val, c_lo = util_at(lo, c_lo if c_lo is not None else c_guess)
    val, c_hi = util_at(hi, c_guess)
    while val is not None and val > bval and hi < 600.0:
        hi *= 2.0
        val, c_hi = util_at(hi, c_hi if c_hi is not None else c_guess)

    warm = {"c": c_guess}

    def f_root(logtheta):
        val, c = util_at(logtheta, warm["c"])
        if c is not None:
            warm["c"] = c
        return (val if val is not None else np.nan) - bval

    try:
        logtheta = brentq(f_root, lo, hi, xtol=1e-14)
    except ValueError:
        return None, np.inf
    c = constants_for(logtheta, warm["c"])
    if c is None:
        return None, np.inf
    theta = float(np.exp(logtheta))
    y = np.tile(c[:, None], (1, xb.shape[1]))
    mu = 1.0 / theta
    grad = agg.grad(xb + y)
    lam = -mu * w[None, :] * grad
    groups = tuple((j,) for j in range(n))
    r = _kkt_residual(agg, groups, xb, w, bval, y, c.copy(), lam, mu)
    res = max(_opt_residual(groups, w, r[4], mu, r[2], r[3]),
              float(np.max(np.abs(_pack(*r[:4])))))
    return y, c.copy(), lam, mu, res, 0


def _single_atom_block(agg, groups, xb, w, bval, kkt_tol):
    """Fallback for one-atom blocks, valid for any aggregator.

    With a single atom every cluster multiplier equals -1, so all marginal
    utilities coincide at the reciprocal of the utility multiplier; a scalar
    root find on that multiplier pins the active constraint.
    """
    def state(logmu):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            target = np.full((agg.nagents, 1), np.exp(-logmu))
            z = invert_gradient(agg, target)
            val = float(np.clip(agg.value(z)[0], -1e15, 1e15))
        return val, z

    logmu, (_, z) = multiplier_root(state, bval)
    mu = float(np.exp(logmu))
    y = z - xb
    d = np.array([y[list(g), 0].sum() for g in groups])
    lam = np.full((len(groups), 1), -1.0)
    r = _kkt_residual(agg, groups, xb, w, bval, y, d, lam, mu)
    res = max(_opt_residual(groups, w, r[4], mu, r[2], r[3]),
              float(np.max(np.abs(_pack(*r[:4])))))
    return y, d, lam, mu, res, 0


def _cluster_inverse_marginal(utils, group, theta):
    """Sum over a cluster of the points with marginal utility theta."""
    return sum(float(utils[i].inverse_deriv(theta)) for i in group)


def _theta_from_budget(utils, group, s):
    """Common within-cluster marginal utility given the cluster budget s
    (allocation plus positions summed over the cluster, one atom)."""
    from .preferences import ExponentialUtility

    if all(isinstance(utils[i], ExponentialUtility) for i in group):
        beta = sum(1.0 / utils[i].alpha for i in group)
        c = sum(np.log(utils[i].alpha) / utils[i].alpha for i in group)
        return float(np.exp((c - s) / beta))

    def f(logth):
        return _cluster_inverse_marginal(utils, group, np.exp(logth)) - s

    lo, hi = -1.0, 1.0
    while f(lo) < 0.0 and lo > -700:
        lo *= 2.0
    while f(hi) > 0.0 and hi < 700:
        hi *= 2.0
    return float(np.exp(brentq(f, lo, hi, xtol=1e-14)))


def _profile_block(agg, groups, xb, w, bval, kkt_tol):
    """Globally convergent solve for separable aggregators.

    The optimum is characterized by a common marginal utility per cluster
    and atom; bisecting on the scalar utility multiplier, with the cluster
    budgets recovered by inner root finds, pins the active constraint.
    """
    utils = agg.utilities
    n, el = xb.shape
    sx = [xb[list(g), :].sum(axis=0) for g in groups]

    def block_state(dvec):
        theta = np.empty((len(groups), el))
        for m, g in enumerate(groups):
            for om in range(el):
                theta[m, om] = _theta_from_budget(utils, g, dvec[m] + sx[m][om])
        return theta

    def d_for_mu(mu, m):
        g = groups[m]

        def f(dm):
            th = np.array([_theta_from_budget(utils, g, dm + s) for s in sx[m]])
            return float(w @ th) - 1.0 / mu

        lo, hi = -1.0, 1.0
        while f(lo) < 0.0 and lo > -1e9:
            lo = 2.0 * lo - 1.0
        while f(hi) > 0.0 and hi < 1e9:
            hi = 2.0 * hi + 1.0
        return brentq(f, lo, hi, xtol=1e-13)

    def util_of_mu(logmu):
        mu = np.exp(logmu)
        dvec = np.array([d_for_mu(mu, m) for m in range(len(groups))])
        theta = block_state(dvec)
        total = np.zeros(el)
        for m, g in enumerate(groups):
            for i in g:
                total += utils[i].value(utils[i].inverse_deriv(theta[m]))
        return float(w @ total) - bval, dvec, theta

    lo, hi = 0.0, 0.0
    while util_of_mu(lo)[0] > 0.0 and lo > -500:
        lo -= 2.0
    while util_of_mu(hi)[0] < 0.0 and hi < 500:
        hi += 2.0
    logmu = brentq(lambda t: util_of_mu(t)[0], lo, hi, xtol=1e-14)
    _, dvec, theta = util_of_mu(logmu)
    mu = float(np.exp(logmu))

    y = np.empty((n, el))
    for m, g in enumerate(groups):
        for i in g:
            y[i] = utils[i].inverse_deriv(theta[m]) - xb[i]
    lam = np.empty((len(groups), el))
    for m in range(len(groups)):
        lam[m] = -mu * w * theta[m]
    r = _kkt_residual(agg, groups, xb, w, bval, y, dvec, lam, mu)
    res = max(_opt_residual(groups, w, r[4], mu, r[2], r[3]),
              float(np.max(np.abs(_pack(*r[:4])))))
    return y, dvec, lam, mu, res, 0


def _continuation_block(agg, groups, xb, w, bval, y0, kkt_tol, max_iter):
    """Homotopy in the threshold: walk the utility level geometrically from
    the start's comfortable level toward the target, warm-starting Newton at
    each step.  Handles thresholds close to the aggregator supremum."""
    with np.errstate(over="ignore", invalid="ignore"):
        level0 = float(w @ agg.value(xb + y0)) - 1e-3
    gap_target = agg.sup - bval
    gap0 = agg.sup - min(level0, bval)
    y = y0
    steps = np.geomspace(gap0, gap_target, num=24)[1:]
    for gap in steps:
        out = _newton_block(agg, groups, xb, w, agg.sup - gap, y,
                            max(kkt_tol, 1e-10), max_iter)
        if out[0] is None:
            return None, out[1]
        y = out[0]
    return _newton_block(agg, groups, xb, w, bval, y, kkt_tol, max_iter)


def _solve_block(agg, groups, xb, w, bval, y0, kkt_tol, max_iter):
    out = _newton_block(agg, groups, xb, w, bval, y0, kkt_tol, max_iter)
    if out[0] is not None:
        return out
    best = out[1]
    fallbacks = []
    if xb.shape[0] == 1:
        fallbacks.append(lambda: _scalar_block(agg, xb, w, bval, kkt_tol))
    elif len(groups) == xb.shape[0]:
        fallbacks.append(lambda: _constants_block(agg, xb, w, bval, kkt_tol))
    if xb.shape[1] == 1:
        fallbacks.append(lambda: _single_atom_block(agg, groups, xb, w, bval,
                                                    kkt_tol))
    if agg.separable:
        fallbacks.append(lambda: _profile_block(agg, groups, xb, w, bval,
                                                kkt_tol))
    for fallback in fallbacks:
        try:
            attempt = fallback()
        except InversionError:
            continue
        if attempt[0] is None:
            best = min(best, attempt[1])
            continue
        y, d, lam, mu, res, _ = attempt
        polish = _newton_block(agg, groups, xb, w, bval, y, kkt_tol, 20)
        if polish[0] is not None:
            return polish
        if res <= 10.0 * kkt_tol:
            return y, d, lam, mu, res, 0
        best = min(best, res, polish[1])
    cont = _continuation_block(agg, groups, xb, w, bval, y0, kkt_tol,
                               max_iter)
    if cont[0] is not None:
        return cont
    best = min(best, cont[1])
    raise ConvergenceError(
        f"block solve stalled at residual {best:.3e} "
        f"(tolerance {kkt_tol:.1e})", residual=best
    )


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get("CONDRISK_THREADS", "1")))
    except ValueError:
        return 1


def solve_rho(spec: RiskSpec, start: np.ndarray | None = None) -> PrimalSolution:
    """Minimal total allocation meeting the conditional utility constraint.

    Returns the blockwise unique optimal allocation, the risk value per atom
    (constant on each block), the utility-constraint multiplier and the final
    KKT residual per block.  Blocks are solved independently and assembled in
    canonical block order regardless of execution order.
    """
    start = feasible_start(spec) if start is None else np.asarray(start, float)
    groups = spec.clusters.groups
    blocks = _block_data(spec)
    agg = spec.aggregator

    def run(args):
        idx, w, xb, bval = args
        return _solve_block(agg, groups, xb, w, bval, start[:, idx],
                            spec.kkt_tol, spec.max_iter)

    nthreads = _thread_count()
    if nthreads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            results = list(pool.map(run, blocks))
    else:
        results = [run(blk) for blk in blocks]

    k = spec.space.natoms
    y_hat = np.empty((spec.nagents, k))
    rho = np.empty(k)
    mus = np.empty(len(blocks))
    resid = np.empty(len(blocks))
    iters = np.empty(len(blocks), dtype=int)
    for m, ((idx, w, xb, bval), (y, d, lam, mu, res, it)) in enumerate(
            zip(blocks, results)):
        y_hat[:, idx] = y
        rho[idx] = float(np.sum(d))
        mus[m] = mu
        resid[m] = res
        iters[m] = it
    return PrimalSolution(y_hat=y_hat, rho=rho, mu=mus,
                          kkt_residual=resid, iterations=iters)


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
