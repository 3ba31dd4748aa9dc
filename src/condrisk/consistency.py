"""Consistency of exponential optima across nested information partitions.

For partitions h coarser than g and a threshold measurable at the coarse
level, the optimal allocations, dual densities and fair allocations computed
through g and then re-hedged at h relate to the direct h-computations by
exact log/exp identities.  Each verifier returns the largest absolute
violation found, including the intermediate identities used to derive it.

The four identities query five (positions, partition) instances, most of
them several times.  One ``_Forms`` object per check computes each
instance once and memoizes its optimal objects (rho, y, q, a), the
objects of all agents as one (N, K) matrix;
``run_consistency`` shares one such object among all four identities.  The
identities are asserted for the exponential closed forms; a solver mode
computes the same objects through ``solve_batch`` and
``extract_dual_optimizer`` at the given solver tolerances and checks them at
a relaxed tolerance, separating formula identity from solver accuracy.

Solver mode solves the instances in two batches, one batched Newton each:
(x, g), (x, h) and (0, h) first, then the re-hedged (-y_g, h) and
(-a_g, h), whose positions come from the first.  Newton steps every block
on its own, so batching keeps each block's iterates and the results equal
those of one ``solve_rho`` per instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import extract_dual_optimizer
from .exponential import (ExpConstants, q_hat_closed, rho_closed,
                          y_hat_closed)
from .preferences import Aggregator
from .primal import (DEFAULT_KKT_TOL, DEFAULT_MAX_ITER, ClusterConstraint,
                     PrimalSolution, RiskSpec, solve_batch)
from .prob_space import (SigmaPartition, coarsens, cond_exp,
                         cond_exp_under_density, is_measurable)


def _check_chain(b_h: np.ndarray, g: SigmaPartition, h: SigmaPartition):
    if not coarsens(h, g):
        raise ValueError("h must be coarser than g")
    if not is_measurable(np.asarray(b_h, dtype=float), h):
        raise ValueError(
            "threshold must be measurable at the coarse level; the "
            "consistency identities are only asserted under this hypothesis")


@dataclass
class _Entry:
    """The optimal objects of one (positions, partition) instance; the
    density and the fair allocation are filled in on first use."""
    x: np.ndarray
    part: SigmaPartition
    rho: np.ndarray
    y: np.ndarray
    spec: RiskSpec | None = None
    sol: PrimalSolution | None = None
    q: np.ndarray | None = None
    a: np.ndarray | None = None


class _Forms:
    """Optimal objects (rho, y, q, a) of the five instances the identities
    query, each computed once and shared by the identities of one check.
    The instances are named by their positions and partition: ``xg`` and
    ``xh`` (x at g and at h), ``0h`` (zero at h), and the re-hedges ``yh``
    and ``ah`` (-y and -a of ``xg``, at h).

    The closed-form backend takes rho, y and q from the exponential closed
    forms; the solver backend takes them from one solve and one
    ``extract_dual_optimizer`` call per instance, at the given KKT
    tolerance and iteration cap, and solves the instances of one ``solve``
    call in one batch.  Both compute the fair allocation the same way, as
    the conditional expectation of y under q.
    """

    def __init__(self, x, b_h, g, h, c: ExpConstants, use_solver: bool,
                 kkt_tol: float, max_iter: int):
        self.x, self.b, self.g, self.h, self.c = x, b_h, g, h, c
        self.solver = ((Aggregator.exponential(c.alphas), kkt_tol, max_iter)
                       if use_solver else None)
        self._memo, self._keys = {}, {}

    def _instance(self, name):
        """The positions and the partition of an instance."""
        if name == "xg":
            return self.x, self.g
        if name == "0h":
            return np.zeros_like(self.x), self.h
        if name in ("yh", "ah"):
            return -(self.y if name == "yh" else self.a)("xg"), self.h
        return self.x, self.h

    def solve(self, *names):
        """Fill the memo entries of the named instances that are missing;
        the solver backend solves them in one batch.  Instances with equal
        positions and partition share one entry."""
        todo = {}
        for name in names:
            if name not in self._keys:
                x, part = self._instance(name)
                key = self._keys[name] = (x.tobytes(), part.blocks)
                if key not in self._memo:
                    todo[key] = (x, part)
        if self.solver is None:
            for key, (x, part) in todo.items():
                self._memo[key] = _Entry(x, part,
                                         rho_closed(x, self.b, part, self.c),
                                         y_hat_closed(x, self.b, part, self.c))
        elif todo:
            agg, kkt_tol, max_iter = self.solver
            clusters = ClusterConstraint.full_sharing(self.c.nagents)
            specs = [RiskSpec(space=part.space, sigma=part, x=x,
                              aggregator=agg, b=self.b, clusters=clusters,
                              kkt_tol=kkt_tol, max_iter=max_iter)
                     for x, part in todo.values()]
            for (key, (x, part)), spec, sol in zip(todo.items(), specs,
                                                   solve_batch(specs)):
                self._memo[key] = _Entry(x, part, sol.rho, sol.y_hat, spec,
                                         sol)

    def _entry(self, name) -> _Entry:
        if name not in self._keys:
            self.solve(name)
        return self._memo[self._keys[name]]

    def rho(self, name):
        return self._entry(name).rho

    def y(self, name):
        return self._entry(name).y

    def q(self, name):
        e = self._entry(name)
        if e.q is None:
            e.q = (q_hat_closed(e.x, e.part, self.c) if self.solver is None
                   else extract_dual_optimizer(e.sol, e.spec)).q
        return e.q

    def a(self, name):
        e = self._entry(name)
        if e.a is None:
            e.a = cond_exp_under_density(self.q(name), e.y, e.part)
        return e.a


def _prepare(x, b_h, g, h, c, use_solver, kkt_tol=DEFAULT_KKT_TOL,
             max_iter=DEFAULT_MAX_ITER) -> _Forms:
    """The memo of one check, with the instances at x and at zero that
    every identity needs filled in one batch."""
    _check_chain(b_h, g, h)
    f = _Forms(np.atleast_2d(np.asarray(x, dtype=float)),
               np.asarray(b_h, dtype=float), g, h, c, use_solver, kkt_tol,
               max_iter)
    f.solve("xg", "xh", "0h")
    return f


def _y_error(f: _Forms) -> float:
    err = np.max(np.abs(f.y("yh") - (f.y("xh") + f.y("0h"))))
    # intermediate: the g- and h-optima differ by the scaled risk spread
    scale = 1.0 / (f.c.beta * f.c.alphas)
    spread = f.rho("xg") - f.rho("xh")
    err2 = np.max(np.abs(f.y("xg") - (f.y("xh")
                                      + scale[:, None] * spread[None, :])))
    return float(max(err, err2))


def _q_error(f: _Forms) -> float:
    q_g, q_h, q_reh_a = f.q("xg"), f.q("xh"), f.q("ah")
    err = max(np.max(np.abs(q_g * f.q("yh") - q_h)),
              np.max(np.abs(q_g * q_reh_a - q_h)))
    # intermediate: the fair-allocation re-hedge density is the ratio of
    # conditional exponential moments at the two levels
    s = np.exp(-f.x.sum(axis=0) / f.c.beta)
    ratio = cond_exp(s, f.g) / cond_exp(s, f.h)
    err2 = np.max(np.abs(q_reh_a - ratio[None, :]))
    return float(max(err, err2))


def _a_error(f: _Forms) -> float:
    c, h = f.c, f.h
    a_g, a_h, a_0, lhs = f.a("xg"), f.a("xh"), f.a("0h"), f.a("ah")
    err = np.max(np.abs(lhs - (a_h + a_0)))

    # decomposition of the re-hedged fair allocation, simplified forms,
    # for all agents at once
    q_reh = f.q("ah")
    rho_h, rho_h0 = f.rho("xh"), f.rho("0h")
    scale = (1.0 / (c.beta * c.alphas))[:, None]
    moment = cond_exp(f.rho("xg") * f.q("xh"), h)
    term_e = cond_exp(a_g * q_reh, h)
    e_simpl = a_h + scale * moment - scale * rho_h
    term_f = cond_exp(scale * (-a_g.sum(axis=0)) * q_reh, h)
    f_simpl = -scale * moment
    term_g = cond_exp(scale * f.rho("ah") * q_reh, h)
    g_simpl = scale * (rho_h0 + rho_h)
    term_h = (scale * c.a_total - c.a_j[:, None]) * cond_exp(q_reh, h)
    h_simpl = a_0 - scale * rho_h0
    return float(max(err,
                     np.max(np.abs(term_e - e_simpl)),
                     np.max(np.abs(term_f - f_simpl)),
                     np.max(np.abs(term_g - g_simpl)),
                     np.max(np.abs(term_h - h_simpl)),
                     np.max(np.abs(term_e + term_f + term_g + term_h - lhs))))


def _rho_error(f: _Forms) -> float:
    lhs = f.rho("yh")
    rhs = f.rho("0h") + f.rho("xh")
    return float(np.max(np.abs(lhs - rhs)))


def verify_y_consistency(x, b_h, g: SigmaPartition, h: SigmaPartition,
                         c: ExpConstants, use_solver: bool = False) -> float:
    """Allocation identity: re-hedging the g-optimal allocation at h adds
    the h-optimum of zero to the direct h-optimum, agent by agent."""
    return _y_error(_prepare(x, b_h, g, h, c, use_solver))


def verify_q_consistency(x, b_h, g: SigmaPartition, h: SigmaPartition,
                         c: ExpConstants, use_solver: bool = False) -> float:
    """Density chain rule: the g-density times the density of the re-hedged
    problem at h equals the direct h-density, for both the allocation and
    the fair-allocation re-hedges."""
    return _q_error(_prepare(x, b_h, g, h, c, use_solver))


def verify_a_consistency(x, b_h, g: SigmaPartition, h: SigmaPartition,
                         c: ExpConstants, use_solver: bool = False) -> float:
    """Fair-allocation identity, with its four-term decomposition checked
    term by term as a diagnostic."""
    return _a_error(_prepare(x, b_h, g, h, c, use_solver))


def verify_rho_recursion(x, b_h, g: SigmaPartition, h: SigmaPartition,
                         c: ExpConstants, use_solver: bool = False) -> float:
    """Risk recursion: hedging the negated g-optimal allocation at h costs
    the h-risk of zero plus the direct h-risk."""
    return _rho_error(_prepare(x, b_h, g, h, c, use_solver))


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
                    tol: float | None = None,
                    kkt_tol: float = DEFAULT_KKT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> ConsistencyReport:
    """All four identity checks on one shared memo; closed forms at 1e-9,
    solver mode at 1e-6.  ``kkt_tol`` and ``max_iter`` are the solver
    tolerances of solver mode."""
    if tol is None:
        tol = 1e-6 if use_solver else 1e-9
    f = _prepare(x, b_h, g, h, c, use_solver, kkt_tol, max_iter)
    # the two re-hedged instances, in a second batch
    f.solve("yh", "ah")
    return ConsistencyReport(
        max_abs_err_y=_y_error(f),
        max_abs_err_q=_q_error(f),
        max_abs_err_a=_a_error(f),
        max_abs_err_rho_recursion=_rho_error(f),
        tol=tol)
