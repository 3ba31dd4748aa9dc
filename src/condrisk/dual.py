"""Dual side of the shortfall risk measure.

The dual representation evaluates candidate measure vectors (given by
densities with blockwise conditional mean one) through a penalty: the
largest density-weighted amount extractable from acceptable positions.
Membership in the admissible dual set additionally requires a fairness
inequality against every feasible allocation, which on finite spaces
reduces to equality of densities within each risk-sharing cluster.

The penalty is a concave program whose optimum lies on the gradient path
grad U(z) = q/mu, with one multiplier mu per block pinned by the active
utility constraint: preferences.path_at_level, in closed form for
exponential agents and by one root find on log mu for all blocks
otherwise.  Where a primal solution is at hand, that root find is warmed
at its point: log mu for its multipliers, and beta^T (X + Y_hat) for the
first gradient inversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .preferences import path_at_level, stable_sum
from .primal import PrimalSolution, RiskSpec, _cluster_sum, _membership
from .prob_space import DensityVector, cond_exp

FAIRNESS_TOL = 1e-8


class PenaltyDivergenceError(RuntimeError):
    """The dual penalty is unbounded on some blocks.

    Carries the offending block indices and the finite shortfall part on
    the remaining blocks; signals that the candidate densities are not in
    the admissible dual set.
    """

    def __init__(self, blocks, partial):
        self.blocks = tuple(sorted(int(m) for m in blocks))
        super().__init__(f"penalty diverges on blocks {list(self.blocks)}: "
                         "densities differ within a risk-sharing cluster")
        self.partial = partial


class DualGapError(RuntimeError):
    """An extracted dual optimizer failed to close the duality gap."""


def _check_density(q: DensityVector, spec: RiskSpec) -> None:
    if q.sigma != spec.sigma:
        raise ValueError("densities are normalized against a different partition")
    if q.nagents != spec.nagents:
        raise ValueError("density vector has wrong number of agents")


def fairness_blocks(q: DensityVector, spec: RiskSpec,
                    tol: float = FAIRNESS_TOL) -> np.ndarray:
    """Per-block fairness flags via the within-cluster swap family.

    A swap allocation moves mass between two agents of one cluster on a
    single atom; it is feasible with zero total, so fairness forces the two
    densities to agree on that atom.  Blockwise-constant allocations are
    covered already by the normalization invariant.
    """
    _check_density(q, spec)
    groups = spec.clusters.groups
    lead = np.array([group[0] for group in groups])[_membership(groups)[0]]
    # the largest gap of any agent's density to its cluster's first on
    # each atom, then on each block
    spread = np.abs(q.q - q.q[lead]).max(axis=0)
    return ~(np.maximum.reduceat(spread[spec.sigma.order], spec.sigma.cuts)
             > tol)


def in_q1(q: DensityVector, spec: RiskSpec) -> bool:
    """Admissibility of a candidate dual vector: finite penalty plus the
    fairness inequality against all feasible allocations."""
    return bool(fairness_blocks(q, spec).all())


@lru_cache(maxsize=1)
def _alpha1_blocks(q: DensityVector, spec: RiskSpec,
                   sol: PrimalSolution | None) -> np.ndarray:
    """Shortfall part of the penalty, per block: -E_w[q^T z] at the z with
    grad U(z) = q/mu and E_w[U(z)] = b, by preferences.path_at_level,
    warmed at the primal point of sol when given: its root find starts at
    log mu for the multipliers of sol, and its first gradient inversion at
    s = beta^T (X + Y_hat).  At the dual optimizer extracted from sol, q =
    mu grad U(X + Y_hat), so that start is the root up to the solver's
    tolerance; for any other q the root is settled at round-off as from 0.

    The last result is kept for the same three objects: a dual optimizer
    is checked for its gap and then reported with the same q, spec and
    sol.  All three hash by identity, every array they hold is a
    write-protected private copy and every utility kind is a frozen
    dataclass, so identity implies equal inputs.
    """
    _check_density(q, spec)
    blocks, cols = spec._blocks
    warm = None
    if sol is not None and sol.mu.shape == blocks.b.shape:
        usable = np.isfinite(sol.mu) & (sol.mu > 0.0)
        warm = (np.log(np.where(usable, sol.mu, 1.0)),
                blocks.x + sol.y_hat[:, cols])
    out = -path_at_level(spec.aggregator, q.q[:, cols], blocks.w,
                         blocks.start, blocks.b, warm=warm)[1]
    out.setflags(write=False)
    return out


def penalty_alpha1(q: DensityVector, spec: RiskSpec) -> np.ndarray:
    """Dual penalty per atom (constant on blocks).

    On blocks where the fairness condition fails, the penalty of the dual
    representation is unbounded (feasible allocations form a cone), which is
    reported as a divergence rather than a value.
    """
    return _penalty(q, spec, None)


def _penalty(q: DensityVector, spec: RiskSpec,
             sol: PrimalSolution | None) -> np.ndarray:
    """penalty_alpha1, its Newton started at the multipliers of sol."""
    ok = fairness_blocks(q, spec)
    vals = _alpha1_blocks(q, spec, sol)
    if not ok.all():
        partial = np.where(ok, vals, np.inf)
        raise PenaltyDivergenceError(np.flatnonzero(~ok), spec.sigma.expand(partial))
    return spec.sigma.expand(vals)


def _dual_terms(q: DensityVector, spec: RiskSpec,
                sol: PrimalSolution | None):
    """(penalty, dual objective) per atom: the objective is the
    density-weighted cost of the positions minus the penalty."""
    alpha1 = _penalty(q, spec, sol)
    cost = stable_sum(cond_exp(q.q * -spec.x, spec.sigma))
    return alpha1, cost - alpha1


def dual_value(q: DensityVector, spec: RiskSpec) -> np.ndarray:
    """Dual objective per atom: density-weighted cost of the positions
    minus the penalty."""
    return _dual_terms(q, spec, None)[1]


def extract_dual_optimizer(sol: PrimalSolution, spec: RiskSpec,
                           check_gap: bool = True) -> DensityVector:
    """Dual optimizer from the primal KKT point: densities proportional to
    the marginal utilities at the optimum, sol.grad, normalized blockwise.

    Marginal utilities are averaged within each cluster before normalizing
    (they agree at the exact optimum; averaging removes solver noise), so
    the result always satisfies the fairness condition.
    """
    groups = spec.clusters.groups
    member, _, _, sizes = _membership(groups)
    q = (_cluster_sum(groups, sol.grad) / sizes[:, None])[member]
    q = q / cond_exp(q, spec.sigma)
    dens = DensityVector(q, spec.sigma)
    if check_gap:
        gap = np.abs(sol.rho - _dual_terms(dens, spec, sol)[1])
        if gap.max() > 5.0 * spec.kkt_tol:
            raise DualGapError(
                f"duality gap {gap.max():.3e} exceeds 5*kkt_tol; "
                "solver accuracy insufficient")
    return dens


@dataclass(frozen=True, eq=False)
class DualReport:
    """Penalty, dual objective and duality gap for one candidate vector."""

    alpha1: np.ndarray
    dual_value: np.ndarray
    gap: np.ndarray
    in_q1: bool


def dual_report(sol: PrimalSolution, q: DensityVector,
                spec: RiskSpec) -> DualReport:
    admissible = in_q1(q, spec)
    if not admissible:
        k = spec.space.natoms
        return DualReport(alpha1=np.full(k, np.inf),
                          dual_value=np.full(k, -np.inf),
                          gap=np.full(k, np.inf), in_q1=False)
    alpha1, value = _dual_terms(q, spec, sol)
    return DualReport(alpha1=alpha1, dual_value=value,
                      gap=sol.rho - value, in_q1=True)
