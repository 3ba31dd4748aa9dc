"""Consistency of exponential optima across nested information partitions.

For partitions h coarser than g and a threshold measurable at the coarse
level, the optimal allocations, dual densities and fair allocations computed
through g and then re-hedged at h relate to the direct h-computations by
exact log/exp identities.  Each verifier returns the largest absolute
violation found, including the intermediate identities used to derive it.

The four identities query five (positions, partition) instances, most of
them several times.  One ``_Forms`` object per check computes each distinct
instance once and memoizes its optimal objects (rho, y, q, a);
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
from .prob_space import (DensityVector, SigmaPartition, coarsens, cond_exp,
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
    rho: np.ndarray
    y: np.ndarray
    spec: RiskSpec | None = None
    sol: PrimalSolution | None = None
    dens: DensityVector | None = None
    a: np.ndarray | None = None


class _Forms:
    """Optimal objects (rho, y, q, a) per partition, memoized per
    (positions, partition) and shared by the identities of one check.

    The closed-form backend takes rho, y and q from the exponential closed
    forms; the solver backend takes them from one solve and one
    ``extract_dual_optimizer`` call per distinct instance, at the given
    KKT tolerance and iteration cap, and solves the instances of one
    ``solve`` call in one batch.  Both compute the fair allocation the
    same way, as the conditional expectation of y under q.
    """

    def __init__(self, b_h, c: ExpConstants, use_solver: bool,
                 kkt_tol: float, max_iter: int):
        self.b = np.asarray(b_h, dtype=float)
        self.c = c
        self.solver = ((Aggregator.exponential(c.alphas), kkt_tol, max_iter)
                       if use_solver else None)
        self._memo = {}

    def solve(self, pairs):
        """Fill the memo entries of the (positions, partition) pairs that
        are missing; the solver backend solves them in one batch."""
        todo = {}
        for x, part in pairs:
            key = (x.tobytes(), part.blocks)
            if key not in self._memo:
                todo[key] = (x, part)
        if self.solver is None:
            for key, (x, part) in todo.items():
                self._memo[key] = _Entry(rho_closed(x, self.b, part, self.c),
                                         y_hat_closed(x, self.b, part, self.c))
        elif todo:
            agg, kkt_tol, max_iter = self.solver
            clusters = ClusterConstraint.full_sharing(self.c.nagents)
            specs = [RiskSpec(space=part.space, sigma=part, x=x,
                              aggregator=agg, b=self.b, clusters=clusters,
                              kkt_tol=kkt_tol, max_iter=max_iter)
                     for x, part in todo.values()]
            for key, spec, sol in zip(todo, specs, solve_batch(specs)):
                self._memo[key] = _Entry(sol.rho, sol.y_hat, spec, sol)

    def _entry(self, x, part) -> _Entry:
        self.solve([(x, part)])
        return self._memo[(x.tobytes(), part.blocks)]

    def _density(self, x, part) -> DensityVector:
        e = self._entry(x, part)
        if e.dens is None:
            e.dens = (q_hat_closed(x, part, self.c) if self.solver is None
                      else extract_dual_optimizer(e.sol, e.spec))
        return e.dens

    def rho(self, x, part):
        return self._entry(x, part).rho

    def y(self, x, part):
        return self._entry(x, part).y

    def q(self, x, part):
        return self._density(x, part).q

    def a(self, x, part):
        e = self._entry(x, part)
        if e.a is None:
            q = self._density(x, part)
            e.a = np.vstack([cond_exp_under_density(q.row(j), e.y[j], part)
                             for j in range(self.c.nagents)])
        return e.a


def _prepare(x, b_h, g, h, c, use_solver, kkt_tol=DEFAULT_KKT_TOL,
             max_iter=DEFAULT_MAX_ITER):
    """The memo of one check and the positions, with the instances at x
    and at zero that every identity needs filled in one batch."""
    _check_chain(b_h, g, h)
    f = _Forms(b_h, c, use_solver, kkt_tol, max_iter)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    f.solve([(x, g), (x, h), (np.zeros_like(x), h)])
    return f, x


def _y_error(f: _Forms, x, g, h) -> float:
    y_g = f.y(x, g)
    lhs = f.y(-y_g, h)
    rhs = f.y(x, h) + f.y(np.zeros_like(x), h)
    err = np.max(np.abs(lhs - rhs))
    # intermediate: the g- and h-optima differ by the scaled risk spread
    scale = 1.0 / (f.c.beta * f.c.alphas)
    spread = f.rho(x, g) - f.rho(x, h)
    err2 = np.max(np.abs(y_g - (f.y(x, h) + scale[:, None] * spread[None, :])))
    return float(max(err, err2))


def _q_error(f: _Forms, x, g, h) -> float:
    q_g = f.q(x, g)
    q_h = f.q(x, h)
    q_reh_y = f.q(-f.y(x, g), h)
    q_reh_a = f.q(-f.a(x, g), h)
    err = max(np.max(np.abs(q_g * q_reh_y - q_h)),
              np.max(np.abs(q_g * q_reh_a - q_h)))
    # intermediate: the fair-allocation re-hedge density is the ratio of
    # conditional exponential moments at the two levels
    s = np.exp(-x.sum(axis=0) / f.c.beta)
    ratio = cond_exp(s, g) / cond_exp(s, h)
    err2 = np.max(np.abs(q_reh_a - ratio[None, :]))
    return float(max(err, err2))


def _a_error(f: _Forms, x, g, h) -> float:
    c = f.c
    a_g = f.a(x, g)
    a_h = f.a(x, h)
    a_0 = f.a(np.zeros_like(x), h)
    lhs = f.a(-a_g, h)
    err = np.max(np.abs(lhs - (a_h + a_0)))

    # decomposition of the re-hedged fair allocation, simplified forms
    q_reh = f.q(-a_g, h)
    rho_g = f.rho(x, g)
    rho_h = f.rho(x, h)
    rho_h0 = f.rho(np.zeros_like(x), h)
    q_hx = f.q(x, h)
    scale = 1.0 / (c.beta * c.alphas)
    for k in range(c.nagents):
        term_e = cond_exp(a_g[k] * q_reh[k], h)
        e_simpl = (a_h[k] + scale[k] * cond_exp(rho_g * q_hx[k], h)
                   - scale[k] * rho_h)
        term_f = cond_exp(scale[k] * (-a_g.sum(axis=0)) * q_reh[k], h)
        f_simpl = -scale[k] * cond_exp(rho_g * q_hx[k], h)
        term_g = cond_exp(scale[k] * f.rho(-a_g, h) * q_reh[k], h)
        g_simpl = scale[k] * (rho_h0 + rho_h)
        term_h = (scale[k] * c.a_total - c.a_j[k]) * cond_exp(q_reh[k], h)
        h_simpl = a_0[k] - scale[k] * rho_h0
        err = max(err,
                  np.max(np.abs(term_e - e_simpl)),
                  np.max(np.abs(term_f - f_simpl)),
                  np.max(np.abs(term_g - g_simpl)),
                  np.max(np.abs(term_h - h_simpl)),
                  np.max(np.abs(term_e + term_f + term_g + term_h - lhs[k])))
    return float(err)


def _rho_error(f: _Forms, x, g, h) -> float:
    lhs = f.rho(-f.y(x, g), h)
    rhs = f.rho(np.zeros_like(x), h) + f.rho(x, h)
    return float(np.max(np.abs(lhs - rhs)))


def verify_y_consistency(x, b_h, g: SigmaPartition, h: SigmaPartition,
                         c: ExpConstants, use_solver: bool = False) -> float:
    """Allocation identity: re-hedging the g-optimal allocation at h adds
    the h-optimum of zero to the direct h-optimum, agent by agent."""
    f, x = _prepare(x, b_h, g, h, c, use_solver)
    return _y_error(f, x, g, h)


def verify_q_consistency(x, b_h, g: SigmaPartition, h: SigmaPartition,
                         c: ExpConstants, use_solver: bool = False) -> float:
    """Density chain rule: the g-density times the density of the re-hedged
    problem at h equals the direct h-density, for both the allocation and
    the fair-allocation re-hedges."""
    f, x = _prepare(x, b_h, g, h, c, use_solver)
    return _q_error(f, x, g, h)


def verify_a_consistency(x, b_h, g: SigmaPartition, h: SigmaPartition,
                         c: ExpConstants, use_solver: bool = False) -> float:
    """Fair-allocation identity, with its four-term decomposition checked
    term by term as a diagnostic."""
    f, x = _prepare(x, b_h, g, h, c, use_solver)
    return _a_error(f, x, g, h)


def verify_rho_recursion(x, b_h, g: SigmaPartition, h: SigmaPartition,
                         c: ExpConstants, use_solver: bool = False) -> float:
    """Risk recursion: hedging the negated g-optimal allocation at h costs
    the h-risk of zero plus the direct h-risk."""
    f, x = _prepare(x, b_h, g, h, c, use_solver)
    return _rho_error(f, x, g, h)


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
    f, x = _prepare(x, b_h, g, h, c, use_solver, kkt_tol, max_iter)
    # the two re-hedged instances, in a second batch
    f.solve([(-f.y(x, g), h), (-f.a(x, g), h)])
    return ConsistencyReport(
        max_abs_err_y=_y_error(f, x, g, h),
        max_abs_err_q=_q_error(f, x, g, h),
        max_abs_err_a=_a_error(f, x, g, h),
        max_abs_err_rho_recursion=_rho_error(f, x, g, h),
        tol=tol)
