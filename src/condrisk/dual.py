"""Dual side of the shortfall risk measure.

The dual representation evaluates candidate measure vectors (given by
densities with blockwise conditional mean one) through a penalty: the
largest density-weighted amount extractable from acceptable positions.
Membership in the admissible dual set additionally requires a fairness
inequality against every feasible allocation, which on finite spaces
reduces to equality of densities within each risk-sharing cluster.

All programs here are equality-constrained concave problems whose optima
are characterized by a gradient proportionality.  For exponential agents
the multiplier has a closed form; otherwise one root find on the log
multipliers of all blocks, preferences.increasing_roots, pins them to the
active constraints.  Where a primal solution is at hand, that root find
starts at its multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .preferences import (InversionError, stable_sum, utility_level_roots,
                          xlogx)
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
        super().__init__(f"penalty diverges on blocks {sorted(blocks)}: "
                         "densities differ within a risk-sharing cluster")
        self.blocks = tuple(sorted(blocks))
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


def _alpha1_exponential(q: DensityVector, spec: RiskSpec) -> np.ndarray:
    """Penalty per block for exponential agents, raw or shifted, without
    an interdependence term, in closed form.

    grad U(z) = q/mu gives u_j(z_j) = s_j - q_j/(mu alpha_j), with s_j = 1
    for a shifted agent and 0 otherwise, so E_w[U] = b fixes
    mu = E_w[sum_j q_j/alpha_j] / (k - b) for the number k of shifted
    agents.  The penalty E_w[sum_j q_j (-z_j)] is then
    E_w[sum_j (q_j/alpha_j) log(q_j/(mu alpha_j))] with 0 log 0 = 0: a zero
    density leaves its agent at the supremum at no cost.
    """
    alphas, k = spec.aggregator.exponential_form
    blocks, cols = spec._blocks
    first = blocks.start[:-1]
    r = q.q[:, cols] / alphas[:, None]
    mass = np.add.reduceat(blocks.w * r.sum(axis=0), first)
    slack = k - blocks.b
    if not np.all(slack > 0.0):
        raise InversionError(f"utility level {blocks.b.max()!r} is not below "
                             f"the supremum {float(k)!r}")
    return (np.add.reduceat(blocks.w * xlogx(r).sum(axis=0), first)
            - mass * np.log(mass / slack))


def _alpha1_newton(q: DensityVector, spec: RiskSpec,
                   sol: PrimalSolution | None = None) -> np.ndarray:
    """Penalty per block for any aggregator: the z with grad U(z) = q/mu
    and E_w[U(z)] = b, mu pinned for all blocks at once by
    utility_level_roots on log mu, gives the penalty E_w[sum_j q_j (-z_j)].

    The root find starts at log mu = 0, or at the log of the multipliers of
    the primal solution sol when one is given.  At the dual optimizer
    extracted from sol, q = mu grad U(X + Y_hat) on every block, so that
    start is the root up to the solver's tolerance; for any other q it is
    only a start, and the root is settled at round-off as from 0.
    """
    blocks, cols = spec._blocks
    qc = q.q[:, cols]
    t0 = None
    if sol is not None and sol.mu.shape == blocks.b.shape:
        usable = np.isfinite(sol.mu) & (sol.mu > 0.0)
        t0 = np.log(np.where(usable, sol.mu, 1.0))
    z, _ = utility_level_roots(spec.aggregator, qc, blocks.w, blocks.start,
                               blocks.b, t0)
    return -np.add.reduceat(blocks.w * (qc * z).sum(axis=0),
                            blocks.start[:-1])


@lru_cache(maxsize=1)
def _alpha1_blocks(q: DensityVector, spec: RiskSpec,
                   sol: PrimalSolution | None) -> np.ndarray:
    """Shortfall part of the penalty, per block, by direct maximization:
    in closed form for exponential agents, by Newton otherwise, started at
    the multipliers of sol when given.

    The last result is kept for the same three objects: a dual optimizer
    is checked for its gap and then reported with the same q, spec and
    sol.  All three hash by identity, every array they hold is a
    write-protected private copy and every utility kind is a frozen
    dataclass, so identity implies equal inputs.
    """
    _check_density(q, spec)
    out = (_alpha1_exponential(q, spec)
           if spec.aggregator.exponential_form is not None
           else _alpha1_newton(q, spec, sol))
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
    the marginal utilities at the optimum, normalized blockwise.

    Marginal utilities are averaged within each cluster before normalizing
    (they agree at the exact optimum; averaging removes solver noise), so
    the result always satisfies the fairness condition.
    """
    groups = spec.clusters.groups
    member, _, _, sizes = _membership(groups)
    grads = spec.aggregator.grad(spec.x + sol.y_hat)
    q = (_cluster_sum(groups, grads) / sizes[:, None])[member]
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
