"""Consistency of exponential optima across nested information partitions.

For partitions h coarser than g and a threshold measurable at the coarse
level, the optimal allocations, dual densities and fair allocations computed
through g and then re-hedged at h relate to the direct h-computations by
exact log/exp identities.  ``run_consistency`` reports, for each of the
four identities, the largest absolute violation found, including the
intermediate identities used to derive it.

The four identities query the optimal objects (rho, y, q, a) of five
(positions, partition) instances: x at g and at h, zero at h, and the
re-hedges of the g-optimal allocation and fair allocation at h.  A check
computes all five once, in two batches: the three direct instances first,
then the two re-hedges, whose positions come from the first batch.
Instances with equal positions and partition are computed once.

The identities are asserted for the exponential closed forms.  A solver
mode computes the same objects through ``solve_batch`` and
``extract_dual_optimizer`` at the given solver tolerances and checks them at
a relaxed tolerance, separating formula identity from solver accuracy.
Newton steps every block on its own, so batching keeps each block's
iterates and the results equal those of one ``solve_rho`` per instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dual import extract_dual_optimizer
from .exponential import (ExpConstants, _log_cond_exp_exp, _y_from_rho,
                          q_hat_closed, rho_closed)
from .preferences import Aggregator
from .primal import (DEFAULT_KKT_TOL, DEFAULT_MAX_ITER, ClusterConstraint,
                     RiskSpec, solve_batch)
from .prob_space import (SigmaPartition, coarsens, cond_exp,
                         cond_exp_under_density, is_measurable)

# the report tolerances: the closed forms satisfy the identities to
# round-off, the solver only to its KKT tolerance
CLOSED_TOL = 1e-9
SOLVER_TOL = 1e-6


def _check_chain(b_h: np.ndarray, g: SigmaPartition, h: SigmaPartition):
    if not coarsens(h, g):
        raise ValueError("h must be coarser than g")
    if not is_measurable(np.asarray(b_h, dtype=float), h):
        raise ValueError(
            "threshold must be measurable at the coarse level; the "
            "consistency identities are only asserted under this hypothesis")


class _Optimum(NamedTuple):
    """The optimal objects of one (positions, partition) instance, those of
    all agents as one (N, K) matrix."""
    rho: np.ndarray
    y: np.ndarray
    q: np.ndarray
    a: np.ndarray


def _optima(pairs, b: np.ndarray, c: ExpConstants,
            solver) -> list[_Optimum]:
    """The optimal objects of each (positions, partition) pair.  With
    ``solver`` None they come from the exponential closed forms, one risk
    evaluation per pair; otherwise from one batch solve of all pairs and one
    ``extract_dual_optimizer`` call per pair, at the solver's (aggregator,
    KKT tolerance, iteration cap).  Either way the fair allocation is the
    conditional expectation of y under q."""
    if solver is None:
        found = []
        for x, part in pairs:
            rho = rho_closed(x, b, part, c)
            found.append((rho, _y_from_rho(x, rho, c),
                          q_hat_closed(x, part, c).q))
    else:
        agg, kkt_tol, max_iter = solver
        clusters = ClusterConstraint.full_sharing(c.nagents)
        specs = [RiskSpec(space=part.space, sigma=part, x=x, aggregator=agg,
                          b=b, clusters=clusters, kkt_tol=kkt_tol,
                          max_iter=max_iter) for x, part in pairs]
        found = [(sol.rho, sol.y_hat, extract_dual_optimizer(sol, spec).q)
                 for spec, sol in zip(specs, solve_batch(specs))]
    return [_Optimum(rho, y, q, cond_exp_under_density(q, y, part))
            for (rho, y, q), (_, part) in zip(found, pairs)]


def _instances(x, b_h, g, h, c: ExpConstants, use_solver: bool,
               kkt_tol: float = DEFAULT_KKT_TOL,
               max_iter: int = DEFAULT_MAX_ITER) -> dict[str, _Optimum]:
    """The optimal objects of the five instances the identities query, by
    name: ``xg`` and ``xh`` (x at g and at h), ``0h`` (zero at h), and the
    re-hedges ``yh`` and ``ah`` (-y and -a of ``xg``, at h).  They are
    computed in two batches, the re-hedges second; instances with equal
    positions and partition are computed once."""
    _check_chain(b_h, g, h)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    b = np.asarray(b_h, dtype=float)
    solver = ((Aggregator.exponential(c.alphas), kkt_tol, max_iter)
              if use_solver else None)
    named, memo = {}, {}

    def add(batch):
        keys = {name: (pos.tobytes(), part.blocks)
                for name, (pos, part) in batch.items()}
        new = {key: batch[name] for name, key in keys.items()
               if key not in memo}
        if new:
            memo.update(zip(new, _optima(list(new.values()), b, c, solver)))
        named.update((name, memo[key]) for name, key in keys.items())

    add({"xg": (x, g), "xh": (x, h), "0h": (np.zeros_like(x), h)})
    add({"yh": (-named["xg"].y, h), "ah": (-named["xg"].a, h)})
    return named


def _y_error(o: dict[str, _Optimum], c: ExpConstants) -> float:
    """Allocation identity: re-hedging the g-optimal allocation at h adds
    the h-optimum of zero to the direct h-optimum, agent by agent."""
    err = np.max(np.abs(o["yh"].y - (o["xh"].y + o["0h"].y)))
    # intermediate: the g- and h-optima differ by the scaled risk spread
    scale = 1.0 / (c.beta * c.alphas)
    spread = o["xg"].rho - o["xh"].rho
    err2 = np.max(np.abs(o["xg"].y - (o["xh"].y
                                      + scale[:, None] * spread[None, :])))
    return float(max(err, err2))


def _q_error(o: dict[str, _Optimum], x, g: SigmaPartition,
             h: SigmaPartition, c: ExpConstants) -> float:
    """Density chain rule: the g-density times the density of the re-hedged
    problem at h equals the direct h-density, for both the allocation and
    the fair-allocation re-hedges."""
    q_g, q_h, q_reh_a = o["xg"].q, o["xh"].q, o["ah"].q
    err = max(np.max(np.abs(q_g * o["yh"].q - q_h)),
              np.max(np.abs(q_g * q_reh_a - q_h)))
    # intermediate: the fair-allocation re-hedge density is the ratio of
    # conditional exponential moments at the two levels
    s = -np.atleast_2d(np.asarray(x, dtype=float)).sum(axis=0) / c.beta
    ratio = np.exp(_log_cond_exp_exp(s, g) - _log_cond_exp_exp(s, h))
    err2 = np.max(np.abs(q_reh_a - ratio[None, :]))
    return float(max(err, err2))


def _a_error(o: dict[str, _Optimum], h: SigmaPartition,
             c: ExpConstants) -> float:
    """Fair-allocation identity, with its four-term decomposition checked
    term by term as a diagnostic."""
    a_g, a_h, a_0, lhs = o["xg"].a, o["xh"].a, o["0h"].a, o["ah"].a
    err = np.max(np.abs(lhs - (a_h + a_0)))

    # decomposition of the re-hedged fair allocation, simplified forms,
    # for all agents at once
    q_reh = o["ah"].q
    rho_h, rho_h0 = o["xh"].rho, o["0h"].rho
    scale = (1.0 / (c.beta * c.alphas))[:, None]
    moment = cond_exp(o["xg"].rho * o["xh"].q, h)
    term_e = cond_exp(a_g * q_reh, h)
    e_simpl = a_h + scale * moment - scale * rho_h
    term_f = cond_exp(scale * (-a_g.sum(axis=0)) * q_reh, h)
    f_simpl = -scale * moment
    term_g = cond_exp(scale * o["ah"].rho * q_reh, h)
    g_simpl = scale * (rho_h0 + rho_h)
    term_h = (scale * c.a_total - c.a_j[:, None]) * cond_exp(q_reh, h)
    h_simpl = a_0 - scale * rho_h0
    return float(max(err,
                     np.max(np.abs(term_e - e_simpl)),
                     np.max(np.abs(term_f - f_simpl)),
                     np.max(np.abs(term_g - g_simpl)),
                     np.max(np.abs(term_h - h_simpl)),
                     np.max(np.abs(term_e + term_f + term_g + term_h - lhs))))


def _rho_error(o: dict[str, _Optimum]) -> float:
    """Risk recursion: hedging the negated g-optimal allocation at h costs
    the h-risk of zero plus the direct h-risk."""
    lhs = o["yh"].rho
    rhs = o["0h"].rho + o["xh"].rho
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class ConsistencyReport:
    max_abs_err_y: float
    max_abs_err_q: float
    max_abs_err_a: float
    max_abs_err_rho_recursion: float
    tol: float

    @property
    def passed(self) -> bool:
        errs = (self.max_abs_err_y, self.max_abs_err_q, self.max_abs_err_a,
                self.max_abs_err_rho_recursion)
        return all(np.isfinite(e) and e <= self.tol for e in errs)


def run_consistency(x, b_h, g: SigmaPartition, h: SigmaPartition,
                    c: ExpConstants, use_solver: bool = False,
                    kkt_tol: float = DEFAULT_KKT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> ConsistencyReport:
    """All four identity checks on one computation of the five instances,
    reported against CLOSED_TOL for the closed forms and SOLVER_TOL in
    solver mode.  ``kkt_tol`` and ``max_iter`` are the solver tolerances
    of solver mode."""
    o = _instances(x, b_h, g, h, c, use_solver, kkt_tol, max_iter)
    return ConsistencyReport(
        max_abs_err_y=_y_error(o, c),
        max_abs_err_q=_q_error(o, x, g, h, c),
        max_abs_err_a=_a_error(o, h, c),
        max_abs_err_rho_recursion=_rho_error(o),
        tol=SOLVER_TOL if use_solver else CLOSED_TOL)
