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
from .preferences import invert_gradient, multiplier_root
from .primal import PrimalSolution, RiskSpec, _block_data, solve_rho
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


def pi_problem(q: DensityVector, budget_a: np.ndarray,
               spec: RiskSpec) -> np.ndarray:
    """Best conditional expected utility within a measure-weighted budget.

    Maximizes E[U(X+Y)|g] over allocations with total q-value equal to the
    budget on each block (the constraint binds by strict monotonicity).
    The optimum has grad U(X+Y) proportional to the densities; the scalar
    multiplier is pinned by the budget.
    """
    if not in_q1(q, spec):
        raise ValueError("measure vector is not admissible")
    budget_a = spec.space.check_values(budget_a, "budget")
    if not is_measurable(budget_a, spec.sigma):
        raise ValueError("budget must be partition-measurable")
    agg = spec.aggregator
    out = np.empty(spec.sigma.nblocks)
    for m, (idx, w, xb, _) in enumerate(_block_data(spec)):
        qb = q.q[:, idx]
        a_blk = float(budget_a[idx[0]])
        zero = qb <= 0.0
        if np.any(zero) and not agg.separable:
            raise NotImplementedError(
                "vanishing densities with an interdependence term")
        qpos = np.where(zero, 1.0, qb)

        def value_at(logmu):
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                z = invert_gradient(agg, np.exp(logmu) * qpos)
                y = z - xb
                cost = (w[None, :] * np.where(zero, 0.0, qb * y)).sum()
            return float(np.clip(cost, -1e15, 1e15)), y, z

        _, (_, y, z) = multiplier_root(value_at, a_blk, increasing=False)
        if np.any(zero):
            vals = np.stack([u.value(z[j])
                             for j, u in enumerate(agg.utilities)])
            sup_u = np.array([u.sup for u in agg.utilities])
            total = np.where(zero, sup_u[:, None], vals).sum(axis=0)
            out[m] = float(w @ total)
        else:
            out[m] = float(w @ agg.value(xb + y))
    return spec.sigma.expand(out)


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
