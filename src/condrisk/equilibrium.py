"""Risk-transfer equilibrium verification.

A triple (allocation, measure vector, per-agent budgets) is an equilibrium
for a total budget when the allocation is cluster-feasible, exhausts the
budget, and jointly maximizes conditional expected aggregated utility among
all allocations whose measure-weighted value stays within the budget.  The
optimal primal allocation together with the extracted dual optimizer and the
fair per-agent allocations form such a triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import extract_dual_optimizer, in_q1
from .preferences import gradient_path, multiplier_newton, xlogx
from .primal import PrimalSolution, RiskSpec, _Blocks, solve_rho
from .prob_space import (DensityVector, cond_exp, cond_exp_under_density,
                         is_measurable)


@dataclass(frozen=True, eq=False)
class EquilibriumTriple:
    """Candidate equilibrium: allocation rows, dual densities, per-agent
    budget rows (partition-measurable) and the total budget."""

    y: np.ndarray
    q: DensityVector
    alpha: np.ndarray
    budget_a: np.ndarray

    def __post_init__(self):
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        alpha = np.atleast_2d(np.asarray(self.alpha, dtype=float))
        budget = np.asarray(self.budget_a, dtype=float)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "budget_a", budget)
        g = self.q.sigma
        for j in range(alpha.shape[0]):
            if not is_measurable(alpha[j], g, 1e-7):
                raise ValueError(f"budget row {j} is not partition-measurable")
        if np.max(np.abs(alpha.sum(axis=0) - budget)) > 1e-7:
            raise ValueError("per-agent budgets do not sum to the total")


def _pi_exponential(q: DensityVector, budget: np.ndarray,
                    spec: RiskSpec) -> np.ndarray:
    """pi per block for exponential agents, raw or shifted, without an
    interdependence term, in closed form.

    grad U(z) = mu q gives z_j = -log(mu q_j/alpha_j)/alpha_j, so with
    r_j = q_j/alpha_j and 0 log 0 = 0 the budget
    E_w[sum_j q_j (z_j - x_j)] = a fixes

        log mu = -(a + E_w[sum_j q_j x_j] + E_w[sum_j r_j log r_j])
                 / E_w[sum_j r_j],

    and the utility is then pi = k - mu E_w[sum_j r_j] for the number k of
    shifted agents.
    """
    alphas, k = spec.aggregator.exponential_form
    blocks, cols = _Blocks.from_spec(spec)
    first = blocks.start[:-1]
    qc = q.q[:, cols]
    r = qc / alphas[:, None]
    mass = np.add.reduceat(blocks.w * r.sum(axis=0), first)
    logmu = -(budget + np.add.reduceat(blocks.w * (qc * blocks.x).sum(axis=0),
                                       first)
              + np.add.reduceat(blocks.w * xlogx(r).sum(axis=0), first)) / mass
    return k - np.exp(logmu) * mass


def _pi_newton(q: DensityVector, budget: np.ndarray,
               spec: RiskSpec) -> np.ndarray:
    """pi per block for any aggregator: grad U(z) = mu q, with the budget
    E_w[sum_j q_j (z_j - x_j)] = a pinning mu for all blocks at once by one
    Newton root find on t = log mu.  The cost falls with t at the slope
    exp(-t) E_w[g^T (-H)^{-1} g] for g = mu q."""
    blocks, cols = _Blocks.from_spec(spec)
    first = blocks.start[:-1]
    qc = q.q[:, cols]

    def state(t):
        z, value, slope = gradient_path(spec.aggregator, qc, -t[blocks.of])
        cost = np.add.reduceat(blocks.w * (qc * (z - blocks.x)).sum(axis=0),
                               first)
        return (cost, -np.exp(-t) * np.add.reduceat(blocks.w * slope, first),
                value)

    _, value = multiplier_newton(state, budget, np.zeros(budget.size),
                                 increasing=False)
    return np.add.reduceat(blocks.w * value, first)


def pi_problem(q: DensityVector, budget_a: np.ndarray,
               spec: RiskSpec) -> np.ndarray:
    """Best conditional expected utility within a measure-weighted budget.

    Maximizes E[U(X+Y)|g] over allocations with total q-value equal to the
    budget on each block (the constraint binds by strict monotonicity).
    The optimum has grad U(X+Y) proportional to the densities; the scalar
    multiplier is pinned by the budget, in closed form for exponential
    agents.
    """
    if not in_q1(q, spec):
        raise ValueError("measure vector is not admissible")
    budget_a = spec.space.check_values(budget_a, "budget")
    if not is_measurable(budget_a, spec.sigma):
        raise ValueError("budget must be partition-measurable")
    budget = np.array([budget_a[blk[0]] for blk in spec.sigma.blocks])
    solve = (_pi_newton if spec.aggregator.exponential_form is None
             else _pi_exponential)
    return spec.sigma.expand(solve(q, budget, spec))


@dataclass(frozen=True)
class MsorteReport:
    """Blockwise residuals of the equilibrium conditions."""

    cluster_feasibility: float
    budget_match: float
    constraint_activity: float
    value_match: float
    alpha_match: float
    per_agent_optimality: float
    tol: float

    @property
    def passed(self) -> bool:
        return (self.cluster_feasibility <= self.tol
                and self.budget_match <= self.tol
                and self.constraint_activity <= self.tol
                and self.value_match <= self.tol
                and self.alpha_match <= self.tol)


def verify_msorte(t: EquilibriumTriple, spec: RiskSpec,
                  tol: float = 1e-6) -> MsorteReport:
    """Check all equilibrium conditions of a candidate triple.

    Feasibility: cluster sums measurable and total equal to the budget.
    Optimality: the utility constraint is active, the measure-weighted value
    of the allocation exhausts the budget, and the budget-constrained
    utility maximum is attained by the allocation.  For separable
    aggregators a per-agent optimality diagnostic (marginal utility
    proportional to the agent's density on each block) is also reported.
    """
    g = spec.sigma
    y = t.y
    cluster_res = 0.0
    for group in spec.clusters.groups:
        s = y[list(group), :].sum(axis=0)
        cluster_res = max(cluster_res,
                          float(np.max(np.abs(s - cond_exp(s, g)))))
    budget_res = float(np.max(np.abs(y.sum(axis=0) - t.budget_a)))

    util = cond_exp(spec.aggregator.value(spec.x + y), g)
    activity_res = float(np.max(np.abs(util - spec.b)))

    qval = np.zeros(spec.space.natoms)
    for j in range(spec.nagents):
        qval += cond_exp_under_density(t.q.row(j), y[j], g)
    value_budget_res = float(np.max(np.abs(qval - t.budget_a)))

    pi = pi_problem(t.q, t.budget_a, spec)
    value_res = float(np.max(np.abs(pi - util)))

    alpha_res = 0.0
    for j in range(spec.nagents):
        aj = cond_exp_under_density(t.q.row(j), y[j], g)
        alpha_res = max(alpha_res, float(np.max(np.abs(aj - t.alpha[j]))))

    per_agent = np.nan
    if spec.aggregator.separable:
        per_agent = 0.0
        for j, u in enumerate(spec.aggregator.utilities):
            ratio = u.deriv(spec.x[j] + y[j]) / np.maximum(t.q.row(j), 1e-300)
            spread = np.abs(ratio - cond_exp(ratio, g)) / np.abs(ratio)
            per_agent = max(per_agent, float(spread.max()))

    return MsorteReport(cluster_feasibility=cluster_res,
                        budget_match=max(budget_res, value_budget_res),
                        constraint_activity=activity_res,
                        value_match=value_res,
                        alpha_match=alpha_res,
                        per_agent_optimality=per_agent,
                        tol=tol)


def build_equilibrium(spec: RiskSpec,
                      sol: PrimalSolution | None = None) -> EquilibriumTriple:
    """Equilibrium triple from the primal optimum and dual optimizer:
    the fair per-agent allocations split the total risk as budgets."""
    sol = solve_rho(spec) if sol is None else sol
    q = extract_dual_optimizer(sol, spec)
    alpha = np.vstack([cond_exp_under_density(q.row(j), sol.y_hat[j], spec.sigma)
                       for j in range(spec.nagents)])
    return EquilibriumTriple(y=sol.y_hat, q=q, alpha=alpha, budget_a=sol.rho)
