"""Closed forms for exponential agents with full sharing.

With u_j(x) = -exp(-alpha_j x), no interdependence term and a single
risk-sharing group, the conditional shortfall risk, its optimal allocation,
the optimal dual densities, the fair per-agent allocations and the dual
penalty all have explicit log/exp expressions.  These are the reference
values the numerical solvers are validated against.

The primal solver has its own closed form for exponential agents, raw or
shifted, in any cluster structure, and starts its Newton there, which
certifies that point or polishes it.  This module neither calls the solver
for these formulas nor is called by it, so checking one against the other
compares two independent computations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prob_space import (DensityVector, SigmaPartition,
                         cond_exp_under_density, cond_relative_entropy,
                         is_measurable)


@dataclass(frozen=True, eq=False)
class ExpConstants:
    """Derived constants of an exponential agent family.

    beta is the sum of risk-tolerance reciprocals 1/alpha_j; a_j is
    (1/alpha_j) log(1/alpha_j) and a_total their sum, both accumulated
    left-to-right in agent order so results are bit-stable.
    """

    alphas: np.ndarray
    beta: float
    a_j: np.ndarray
    a_total: float

    @property
    def nagents(self) -> int:
        return self.alphas.size


def exp_constants(alphas) -> ExpConstants:
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.size < 1:
        raise ValueError("alphas must be a nonempty vector")
    if np.any(alphas <= 0.0):
        raise ValueError("alphas must be positive")
    # running sums add left to right, one agent at a time
    beta = float(np.add.accumulate(1.0 / alphas)[-1])
    a_j = np.log(1.0 / alphas) / alphas
    a_total = float(np.add.accumulate(a_j)[-1])
    return ExpConstants(alphas=alphas, beta=beta, a_j=a_j, a_total=a_total)


def _check_threshold(b: np.ndarray, g: SigmaPartition) -> np.ndarray:
    b = g.space.check_values(b, "threshold")
    if not is_measurable(b, g):
        raise ValueError("threshold must be measurable w.r.t. the partition")
    if b.max() >= 0.0:
        raise ValueError("threshold must be strictly negative everywhere")
    return b


def _log_cond_exp_exp(s: np.ndarray, g: SigmaPartition) -> np.ndarray:
    """log E[exp(s) | g] per atom, stabilized by a blockwise shift, of s
    and of every row of an (N, K) array."""
    top = g.expand(np.maximum.reduceat(s[..., g.order], g.cuts, axis=-1))
    return top + g.expand(np.log(g._means(np.exp(s - top))))


def rho_closed(x: np.ndarray, b: np.ndarray, g: SigmaPartition,
               c: ExpConstants) -> np.ndarray:
    """Risk value: beta log((-beta/B) E[exp(-Xbar/beta)|g]) - A, per atom."""
    x = np.atleast_2d(g.space.check_values(x, "positions"))
    b = _check_threshold(b, g)
    xbar = x.sum(axis=0)
    lse = _log_cond_exp_exp(-xbar / c.beta, g)
    return c.beta * (np.log(c.beta) - np.log(-b) + lse) - c.a_total


def y_hat_closed(x: np.ndarray, b: np.ndarray, g: SigmaPartition,
                 c: ExpConstants) -> np.ndarray:
    """Optimal allocation; its rows sum to the risk value on every atom."""
    x = np.atleast_2d(g.space.check_values(x, "positions"))
    return _y_from_rho(x, rho_closed(x, b, g, c), c)


def _y_from_rho(x: np.ndarray, rho: np.ndarray,
                c: ExpConstants) -> np.ndarray:
    """The optimal allocation of (N, K) positions x whose risk value is
    rho, for callers that have rho already."""
    scale = 1.0 / (c.beta * c.alphas)
    return (-x + scale[:, None] * (x.sum(axis=0) + rho + c.a_total)[None, :]
            - c.a_j[:, None])


def q_hat_closed(x: np.ndarray, g: SigmaPartition,
                 c: ExpConstants) -> DensityVector:
    """Optimal dual densities: exp(-Xbar/beta) normalized blockwise,
    identical across agents."""
    x = np.atleast_2d(g.space.check_values(x, "positions"))
    xbar = x.sum(axis=0)
    s = -xbar / c.beta
    row = np.exp(s - _log_cond_exp_exp(s, g))
    return DensityVector(np.tile(row, (c.nagents, 1)), g)


def a_hat_closed(x: np.ndarray, b: np.ndarray, g: SigmaPartition,
                 c: ExpConstants) -> np.ndarray:
    """Fair per-agent allocations E_{Q^j}[Yhat^j | g]; rows are
    g-measurable and sum to the risk value blockwise."""
    y = y_hat_closed(x, b, g, c)
    q = q_hat_closed(x, g, c)
    return cond_exp_under_density(q.q, y, g)


def alpha1_entropic(q_hat: DensityVector, b: np.ndarray, g: SigmaPartition,
                    c: ExpConstants) -> np.ndarray:
    """Dual penalty of the optimal densities:
    A + beta * E[q log q | g] + beta log(-B/beta)."""
    b = _check_threshold(b, g)
    if q_hat.nagents > 1:
        spread = np.max(np.abs(q_hat.q - q_hat.q[0][None, :]))
        if spread > 1e-9:
            raise ValueError("density rows must be identical across agents")
    ent = cond_relative_entropy(q_hat.row(0), g)
    return c.a_total + c.beta * ent + c.beta * np.log(-b / c.beta)
