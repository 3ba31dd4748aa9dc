"""Risk-transfer equilibrium verification.

A triple (allocation, measure vector, per-agent budgets) is an equilibrium
for a total budget when the allocation is cluster-feasible, exhausts the
budget, and jointly maximizes conditional expected aggregated utility among
all allocations whose measure-weighted value stays within the budget.  The
optimal primal allocation together with the extracted dual optimizer and the
fair per-agent allocations form such a triple.  The budget-constrained
maximum, pi_problem, is the penalty's program of the dual side with the
budget pinned in place of the utility level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import extract_dual_optimizer, in_q1
from .preferences import path_at_level
from .primal import PrimalSolution, RiskSpec, _cluster_sum, solve_rho
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
        g, shape = self.q.sigma, self.q.q.shape
        if (y.shape, alpha.shape, budget.shape) != (shape, shape, shape[1:]):
            raise ValueError(f"allocation {y.shape}, budget rows "
                             f"{alpha.shape} and total {budget.shape} must "
                             f"have the shapes {shape}, {shape} and "
                             f"{shape[1:]} of the densities")
        spread = g._spread(g.space.check_values(alpha, "budget rows"))
        bad = np.flatnonzero(~(spread.max(axis=1) <= 1e-7))
        if bad.size:
            raise ValueError(f"budget row {bad[0]} is not "
                             "partition-measurable")
        if np.max(np.abs(alpha.sum(axis=0) - budget)) > 1e-7:
            raise ValueError("per-agent budgets do not sum to the total")


def pi_problem(q: DensityVector, budget_a: np.ndarray,
               spec: RiskSpec) -> np.ndarray:
    """Best conditional expected utility within a measure-weighted budget.

    Maximizes E[U(X+Y)|g] over allocations with total q-value equal to the
    budget on each block (the constraint binds by strict monotonicity).
    The optimum has grad U(X+Y) proportional to the densities, with one
    multiplier per block pinned by the budget: preferences.path_at_level
    at E_w[q^T (X+Y)] = a + E_w[q^T X].
    """
    if not in_q1(q, spec):
        raise ValueError("measure vector is not admissible")
    budget_a = spec.space.check_values(budget_a, "budget")
    if budget_a.ndim != 1:
        raise ValueError(f"budget of shape {budget_a.shape} is not one row")
    if not is_measurable(budget_a, spec.sigma):
        raise ValueError("budget must be partition-measurable")
    blocks, cols = spec._blocks
    qc = q.q[:, cols]
    level = budget_a[spec.sigma.first] + np.add.reduceat(
        blocks.w * (qc * blocks.x).sum(axis=0), blocks.start[:-1])
    return spec.sigma.expand(path_at_level(
        spec.aggregator, qc, blocks.w, blocks.start, level, cost=True)[0])


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
    proportional to the agent's density on each block) is also reported;
    atoms where a marginal utility underflows to 0 do not enter it.
    """
    g, y = spec.sigma, t.y
    if t.q.sigma is not g and t.q.sigma != g:
        raise ValueError("the triple's densities are normalized against a "
                         "different partition than the spec's")
    if t.q.nagents != spec.nagents:
        raise ValueError(f"the triple has {t.q.nagents} agents, the spec "
                         f"{spec.nagents}")
    s = _cluster_sum(spec.clusters.groups, y)
    cluster_res = float(np.max(np.abs(s - cond_exp(s, g))))
    budget_res = float(np.max(np.abs(y.sum(axis=0) - t.budget_a)))

    util = cond_exp(spec.aggregator.value(spec.x + y), g)
    activity_res = float(np.max(np.abs(util - spec.b)))

    # the fair allocations of the allocation under the densities
    fair = cond_exp_under_density(t.q.q, y, g)
    value_budget_res = float(np.max(np.abs(fair.sum(axis=0) - t.budget_a)))

    pi = pi_problem(t.q, t.budget_a, spec)
    value_res = float(np.max(np.abs(pi - util)))

    alpha_res = float(np.max(np.abs(fair - t.alpha)))

    per_agent = np.nan
    if spec.aggregator.separable:
        ratio = (spec.aggregator.grad(spec.x + y)
                 / np.maximum(t.q.q, 1e-300))
        # where a marginal utility underflows to 0 the atom shows nothing of
        # the ratio: it is left out of its block's mean and of the maximum
        seen = ratio > 0.0
        mean = cond_exp(ratio, g) / np.maximum(1.0 - cond_exp(~seen, g),
                                               1e-300)
        per_agent = float(np.max(np.abs(ratio - mean)
                                 / np.where(seen, ratio, np.inf)))

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
    alpha = cond_exp_under_density(q.q, sol.y_hat, spec.sigma)
    return EquilibriumTriple(y=sol.y_hat, q=q, alpha=alpha, budget_a=sol.rho)
