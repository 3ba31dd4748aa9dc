"""Agent preferences: univariate utilities, the multivariate aggregator
(sum of agent utilities plus an optional concave interdependence term),
analytic derivatives, gradient inversion, the one safeguarded Newton the
solvers use for every scalar root, and the dual side's gradient path
grad U(z) = q exp(-t), on which the penalty pins E_w[U(z)] and pi_problem
E_w[q^T z].

All utilities are strictly increasing and strictly concave on the real
line, with derivative decreasing from +infinity to 0 (so marginal-utility
inversion is well defined everywhere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class InversionError(RuntimeError):
    """Gradient inversion left a non-finite point or missed its target,
    or a root find found no sign change, failed at its start, stopped on a
    jump rather than a root or did not converge."""


def stable_sum(x):
    """Sum over the first axis, entry by entry: unlike BLAS or x.sum(axis=0),
    pairwise on a single column, it rounds a column the same whatever the
    other columns, so a batch of solves gives the solves one by one."""
    return np.add.reduceat(x, [0], axis=0)[0]


class UnivariateUtility:
    """Interface for a single agent's utility.

    Subclasses provide ``terms(x)``, the triple (u(x), u'(x), u''(x)) from
    one evaluation of what the three share, ``inverse_deriv(m)``, the pair
    (x, u''(x)) at the point x where the marginal utility is m > 0, with
    u''(x) from its own closed form in m, both vectorized over numpy
    arrays, and ``sup``, the supremum of the utility over the reals.
    """

    sup: float

    def terms(self, x):
        raise NotImplementedError

    def inverse_deriv(self, m):
        raise NotImplementedError


@dataclass(frozen=True)
class ExponentialUtility(UnivariateUtility):
    """u(x) = -exp(-alpha x), or 1 - exp(-alpha x) when shifted."""

    alpha: float
    shifted: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, not "
                             f"{self.alpha!r}")
        if not isinstance(self.shifted, bool):
            raise ValueError(f"shifted must be a bool, not {self.shifted!r}")

    @property
    def sup(self) -> float:
        return 1.0 if self.shifted else 0.0

    def terms(self, x):
        e = np.exp(-self.alpha * np.asarray(x, dtype=float))
        d = self.alpha * e
        return (1.0 - e if self.shifted else -e), d, -self.alpha * d

    def inverse_deriv(self, m):
        m = np.asarray(m, dtype=float)
        return -np.log(m / self.alpha) / self.alpha, -self.alpha * m


def _negative_branch(p, m):
    """The power kinds below 0, u(x) = 1 - (1-x)^p: the base 1 - x =
    (m/p)^(1/(p-1)) where u'(x) = m, and u''(x) = -p(p-1)(1-x)^(p-2) =
    -(p-1) m/(1-x) there."""
    base = (m / p) ** (1.0 / (p - 1.0))
    return base, -(p - 1.0) * m / base


def _branches(x):
    """x as an array, the mask of x >= 0 and 1 - min(x, 0): the power
    kinds' branch and the base of their power below 0."""
    x = np.asarray(x, dtype=float)
    return x, x >= 0.0, 1.0 - np.minimum(x, 0.0)


@dataclass(frozen=True)
class RationalPowerUtility(UnivariateUtility):
    """u(x) = p x/(x+1) for x >= 0 and 1 - (1-x)^p for x < 0, p > 1."""

    p: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 1):
            raise ValueError(f"p must be finite and exceed 1, not {self.p!r}")

    @property
    def sup(self) -> float:
        return self.p

    def terms(self, x):
        x, pos, base = _branches(x)
        xp = np.maximum(x, 0.0)
        xq = xp + 1.0
        return (np.where(pos, self.p * xp / xq, 1.0 - base ** self.p),
                np.where(pos, self.p / xq ** 2,
                         self.p * base ** (self.p - 1.0)),
                np.where(pos, -2.0 * self.p / xq ** 3,
                         -self.p * (self.p - 1.0) * base ** (self.p - 2.0)))

    def inverse_deriv(self, m):
        # derivative is p at 0; values below p come from the x >= 0 branch,
        # where x + 1 = sqrt(p/m) and u'' = -2p/(x+1)^3 = -2m/(x+1)
        m = np.asarray(m, dtype=float)
        tiny = np.maximum(m, 1e-300)
        root = np.sqrt(self.p / tiny)
        base, d2 = _negative_branch(self.p, m)
        pos = m <= self.p
        return (np.where(pos, root - 1.0, 1.0 - base),
                np.where(pos, -2.0 * tiny / root, d2))


@dataclass(frozen=True)
class ArctanPowerUtility(UnivariateUtility):
    """u(x) = p arctan(x) for x >= 0 and 1 - (1-x)^p for x < 0, p > 1."""

    p: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 1):
            raise ValueError(f"p must be finite and exceed 1, not {self.p!r}")

    @property
    def sup(self) -> float:
        return self.p * np.pi / 2.0

    def terms(self, x):
        x, pos, base = _branches(x)
        xq = 1.0 + x ** 2
        return (np.where(pos, self.p * np.arctan(x), 1.0 - base ** self.p),
                np.where(pos, self.p / xq, self.p * base ** (self.p - 1.0)),
                np.where(pos, -2.0 * self.p * x / xq ** 2,
                         -self.p * (self.p - 1.0) * base ** (self.p - 2.0)))

    def inverse_deriv(self, m):
        # on x >= 0, 1 + x^2 = p/m and u'' = -2p x/(1 + x^2)^2 = -2x m^2/p
        m = np.asarray(m, dtype=float)
        x = np.sqrt(np.maximum(self.p / np.maximum(m, 1e-300) - 1.0, 0.0))
        base, d2 = _negative_branch(self.p, m)
        pos = m <= self.p
        return (np.where(pos, x, 1.0 - base),
                np.where(pos, -2.0 * x * (m * m) / self.p, d2))


@dataclass(frozen=True)
class LambdaAggregator:
    """Concave, nondecreasing, bounded-above interdependence term.

    Either identically zero or the composite u(sum_j beta_j x_j) for a
    bounded-above utility u and nonnegative weights beta.
    """

    u: UnivariateUtility | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if (self.u is None) != (self.weights is None):
            raise ValueError("composite form needs both u and weights")
        if self.weights is not None:
            w = np.array(self.weights, dtype=float)
            if not (np.all(np.isfinite(w)) and np.all(w >= 0.0)):
                raise ValueError(f"lambda weights must be finite and "
                                 f"nonnegative, not {w.tolist()!r}")
            if not np.isfinite(self.u.sup):
                raise ValueError("composite outer utility must be bounded above")
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)

    @property
    def is_zero(self) -> bool:
        return self.u is None

    @property
    def sup(self) -> float:
        return 0.0 if self.is_zero else float(self.u.sup)

    def level(self, x):
        """beta^T x for x of shape (N,) or (N, K); returns scalar or (K,)."""
        return stable_sum((self.weights * np.asarray(x, dtype=float).T).T)

    @classmethod
    def zero(cls) -> "LambdaAggregator":
        return cls()

    @classmethod
    def composite(cls, u: UnivariateUtility, weights) -> "LambdaAggregator":
        return cls(u, np.asarray(weights, dtype=float))


@dataclass(frozen=True)
class Aggregator:
    """Multivariate utility U(z) = sum_j u_j(z_j) + v(beta^T z): the agent
    utilities plus the lambda term, v = 0 without one."""

    utilities: tuple
    lam: LambdaAggregator = field(default_factory=LambdaAggregator.zero)

    def __post_init__(self):
        object.__setattr__(self, "utilities", tuple(self.utilities))
        if len(self.utilities) < 1:
            raise ValueError("need at least one agent utility")
        shape = (self.nagents,)
        if not self.lam.is_zero and self.lam.weights.shape != shape:
            raise ValueError(f"lambda weights must have shape {shape}, one "
                             f"per agent, not {self.lam.weights.shape}")
        # closed forms, and a vectorized fast path, for exponential agents
        # without interdependence term
        exp_form = None
        if self.lam.is_zero and all(isinstance(u, ExponentialUtility)
                                    for u in self.utilities):
            exp_form = (np.array([u.alpha for u in self.utilities],
                                 dtype=float),
                        sum(u.shifted for u in self.utilities))
        object.__setattr__(self, "_exp_form", exp_form)

    @property
    def nagents(self) -> int:
        return len(self.utilities)

    @property
    def sup(self) -> float:
        """sup over the reals; each term attains its sup in the same limit."""
        return sum(u.sup for u in self.utilities) + self.lam.sup

    @property
    def raw_exponential_alphas(self) -> np.ndarray | None:
        """Exponent vector when every agent is raw exponential and the
        interdependence term vanishes; None otherwise."""
        form = self._exp_form
        return form[0] if form is not None and not form[1] else None

    @property
    def exponential_form(self) -> tuple | None:
        """(exponents, number of shifted agents) when every agent is
        exponential, raw or shifted, and the interdependence term vanishes;
        None otherwise."""
        return self._exp_form

    @property
    def separable(self) -> bool:
        return self.lam.is_zero

    def terms(self, z):
        """(U(z), grad U(z), u'', v'') for z of shape (N,) or (N, K), in one
        pass over the agents: the Hessian of U is diag(u'') + v'' beta
        beta^T, with u_j''(z_j) per agent and v''(beta^T z), 0 where U is
        separable, per column.  value and grad are views of it."""
        z = np.asarray(z, dtype=float)
        if self._exp_form is not None:
            alphas, k = self._exp_form
            a = alphas if z.ndim == 1 else alphas[:, None]
            e = np.exp(-a * z)
            d = a * e
            return k - stable_sum(e), d, -a * d, np.zeros(z.shape[1:])
        u, du, d2u = zip(*(f.terms(z[j])
                           for j, f in enumerate(self.utilities)))
        value, grad, d2 = sum(u), np.stack(du), np.stack(d2u)
        if self.separable:
            return value, grad, d2, np.zeros(z.shape[1:])
        v, dv, d2v = self.lam.u.terms(self.lam.level(z))
        grad = grad + np.multiply.outer(self.lam.weights, dv)
        return value + v, grad, d2, d2v

    def value(self, z):
        return self.terms(z)[0]

    def grad(self, z):
        return self.terms(z)[1]

    def inverse_marginals(self, m):
        """(z, d2) with z_j = (u_j')^{-1}(m_j) per agent, the point where
        the marginal utility of agent j's own utility is m_j, without the
        interdependence term, and d2_j = u_j''(z_j) there."""
        z, d2 = zip(*(u.inverse_deriv(m[j])
                      for j, u in enumerate(self.utilities)))
        return np.stack(z), np.stack(d2)

    @classmethod
    def exponential(cls, alphas, shifted: bool = False) -> "Aggregator":
        return cls(tuple(ExponentialUtility(a, shifted) for a in alphas))


_BRACKET_REACH = 2.0
_BRACKET_LIMIT = 1e12
_BRACKET_MAX_ITER = 100
# a Newton step below this, relative to 1 + |s|, leaves s at round-off
# where Newton converges quadratically, and within this of its root where
# each step only halves the last, as on the s-equation near its pole
_BRACKET_STEP_TOL = 1e-12
# |f| at a bracket shrunk to a point, relative to the largest |f| met,
# above which the sign change is a jump, not a root
_BRACKET_JUMP = 1e-8
_EPS = float(np.finfo(float).eps)
# Where the interdependence term swamps every agent's own marginal by many
# orders of magnitude, t pins little more than beta^T z and z can miss it.
_INVERT_GRAD_TOL = 1e-9


def increasing_roots(state, slope, s, lo=None):
    """Roots of increasing functions, one per entry of the start s, all
    at once; returns (roots, payload of state at the roots).

    state(s) returns (f(s), payload): function i evaluated at s[i] for
    every i at once, and whatever the caller needs at s; slope(s, payload)
    returns the derivatives of f there.  Each root is found by Newton's
    method from its start, safeguarded as follows:

    - it keeps the bracket of the points where f was below and above 0,
      or is known to be below: lo, where given, lies below every root and
      is never evaluated;
    - a Newton step that leaves a closed bracket, does not halve the
      previous step inside it (a steep power-like f makes Newton converge
      only linearly) or comes from a slope that is not finite and positive
      (so a zero, infinite or wrong slope only slows it down) is replaced
      by bisection;
    - towards an open side the step is capped at a reach that starts at 2
      and doubles with each capped step, within |s| <= 1e12;
    - where state raises InversionError, or a value is not finite, each
      root that stepped there goes half way back to its last good point.

    A root is done once s is at round-off: f is 0, its bracket has shrunk
    to a point, the next Newton step is below round-off, or the Newton
    step that led to s was below 1e-12 (1 + |s|), so that quadratic
    convergence leaves s at round-off.  Where f reaches round-off before s
    does, the Newton steps stop halving, and bisection shrinks the bracket
    to a point.  Every root is evaluated at every step, done or not, so the
    payload returned is the state at the roots.  Raises InversionError when
    f changes sign nowhere within |s| <= 1e12 where state succeeds, when
    the bracket shrinks to a point where |f| exceeds 1e-8 of the largest
    |f| the root met (a jump), when state fails at the start, and after 100
    steps without convergence.
    """
    s = np.array(s, dtype=float)
    lo = np.full(s.shape, -np.inf) if lo is None else np.array(lo, float)
    hi = np.full(s.shape, np.inf)
    good = s  # the last point with a finite value
    last = np.full(s.shape, np.inf)  # the step that led to s
    newton_last = last  # that step where it was Newton's, else inf
    reach = np.full(s.shape, _BRACKET_REACH)
    fmax = np.zeros(s.shape)  # the largest |f| met
    done = np.zeros(s.shape, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for it in range(_BRACKET_MAX_ITER):
            try:
                f, payload = state(s)
                deriv = slope(s, payload)
            except InversionError:
                f = deriv = np.full(s.shape, np.nan)
            failed = ~(np.isfinite(f) | done)
            if failed.any():
                if it == 0:
                    raise InversionError(f"root find failed at its start "
                                         f"s = {s[failed].tolist()}")
                f = np.where(failed, np.nan, f)  # no sign and no size
            scale = 1.0 + np.abs(s)
            # a slope that is not finite and positive gives no Newton step
            newton = np.where((deriv > 0.0) & (deriv < np.inf),
                              s - f / deriv, np.nan)
            step = np.abs(newton - s)
            fmax = np.fmax(fmax, np.abs(f))
            collapsed = hi - lo <= 2.0 * _EPS * scale
            if collapsed.any():
                jump = collapsed & ~done & (np.abs(f) > _BRACKET_JUMP * fmax)
                if jump.any():
                    raise InversionError(
                        f"root find stopped at |f| = "
                        f"{float(np.max(np.abs(f[jump]))):.3e}: the "
                        "function jumps there")
            done |= ~failed & ((f == 0.0) | collapsed
                               | (step <= 4.0 * _EPS * scale)
                               | (newton_last <= _BRACKET_STEP_TOL * scale))
            if done.all():
                return s, payload
            lo = np.where(f < 0.0, s, lo)
            hi = np.where(f > 0.0, s, hi)
            closed = hi - lo < np.inf
            # in a closed bracket Newton's step where it stays inside and
            # halves the previous step, else bisection; towards an open
            # side Newton's step within reach, else the reach
            bisect = closed & ~((newton > lo) & (newton < hi)
                                & (step <= 0.5 * last))
            capped = ~(closed | (step <= reach))
            nxt = np.where(bisect, 0.5 * (lo + hi), np.where(
                capped, s + np.copysign(reach, -f), newton))
            nxt = np.minimum(np.maximum(nxt, -_BRACKET_LIMIT), _BRACKET_LIMIT)
            reach = np.where(capped, 2.0 * reach, reach)
            if failed.any():
                nxt = np.where(failed, good + 0.5 * (s - good), nxt)
                reach = np.where(failed, 0.5 * np.abs(s - good), reach)
                good = np.where(failed, good, s)
            else:
                good = s
            nxt = np.where(done, s, nxt)
            stuck = (nxt == s) & ~done
            if stuck.any():
                raise InversionError(
                    f"no sign change for {int(stuck.sum())} of {s.size} "
                    f"roots within |s| <= {_BRACKET_LIMIT:g} where the state "
                    "is finite")
            last = np.abs(nxt - s)
            newton_last = np.where(bisect | capped | failed, np.inf, last)
            s = nxt
    raise InversionError(f"{int((~done).sum())} of {s.size} roots "
                         f"unconverged after {_BRACKET_MAX_ITER} steps")


def invert_gradient(a: Aggregator, target: np.ndarray) -> np.ndarray:
    """Solve grad U(z) = target columnwise; target must be positive.

    Separable aggregators invert each marginal in closed form.  For
    U(z) = sum_j u_j(z_j) + v(s) with s = beta^T z, a column of
    grad U(z) = t is one equation in s: with
    z_j(s) = (u_j')^{-1}(t_j - beta_j v'(s)),

        phi(s) = s - sum_j beta_j z_j(s) = 0.

    phi is -infinity at s = (v')^{-1}(min_j t_j / beta_j), strictly
    increasing above it with phi' = v''(s) sum_j beta_j^2 / u_j''(z_j) + 1
    > 1, and positive far out, so each column has exactly one root.  All
    columns are solved at once by increasing_roots, each from 1 above the
    lower end of its bracket: the larger of that pole and beta^T z for z
    without the interdependence term, below which phi < 0.  u_j''(z_j)
    comes with z_j from the inverse marginal.  A last Newton
    step on the full system, solved by Sherman-Morrison with the
    diagonal-plus-rank-one Hessian, restores beta^T z = s where a marginal
    u_j' is swamped by beta_j v'(s) and z_j(s) is known only to a few
    digits.

    Raises InversionError when a root find fails, when a column ends
    non-finite, or when grad U(z) misses the target by more than 1e-9 in
    log terms.
    """
    target = np.asarray(target, dtype=float)
    z, _ = _inverse(a, target.reshape(target.shape[0], -1))
    return z.reshape(target.shape)


def _inverse(a: Aggregator, t: np.ndarray, hint=None):
    """invert_gradient for t of shape (N, K), its s-equation started at the
    hint where one is given, and a.terms(z), the pass that checks z, or
    None for the unchecked closed form of a separable U."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if a.separable or not np.any(a.lam.weights > 0.0):
            return a.inverse_marginals(t)[0], None
        z = _invert_composite(a, t, hint)
        terms = a.terms(z)
        resid = np.max(np.abs(np.log(terms[1] / t)), axis=0)
    bad = ~(resid <= _INVERT_GRAD_TOL)
    if np.any(bad):
        raise InversionError(
            f"gradient inversion failed on {int(bad.sum())} of {bad.size} "
            "columns (non-finite or log-gradient residual above "
            f"{_INVERT_GRAD_TOL:.0e})")
    return z, terms


def _invert_composite(a: Aggregator, t: np.ndarray, hint=None):
    """z with grad U(z) = t, column by column, by the s-reduction: from the
    hint s = beta^T z of each column where it lies above the lower end of
    its bracket, else cold from 1 above it."""
    v, beta = a.lam.u, a.lam.weights
    act = np.flatnonzero(beta > 0.0)
    bact = beta[act][:, None]

    def state(s):
        _, dv, d2v = v.terms(s)
        r = t - beta[:, None] * dv
        z, d2 = a.inverse_marginals(r)
        inside = np.all(r[act] > 0.0, axis=0)
        return (np.where(inside, s - (bact * z[act]).sum(axis=0), -np.inf),
                (z, d2v, d2))

    def slope(s, payload):
        _, d2v, d2 = payload
        return d2v * (bact ** 2 / d2[act]).sum(axis=0) + 1.0

    # Each z_j(s) exceeds z0_j, its value without the interdependence term,
    # so phi < 0 up to max(s_lo, beta^T z0): the root lies above it, and
    # near the pole s_lo phi is lost to round-off.
    z0 = a.inverse_marginals(t)[0]
    lo = np.maximum(v.inverse_deriv(np.min(t[act] / bact, axis=0))[0],
                    (bact * z0[act]).sum(axis=0))
    s0 = lo + 1.0 if hint is None else np.where(hint > lo, hint, lo + 1.0)
    s, (z, _, d2) = increasing_roots(state, slope, s0, lo)

    # The last step, taken on the full system at z(s): it moves s by the
    # Newton step on phi and each z_j in proportion to beta_j / u_j''.
    phi = s - (bact * z[act]).sum(axis=0)
    v2 = v.terms(a.lam.level(z))[2]
    q = bact / d2[act]
    z[act] += q * (phi * v2 / (1.0 + v2 * (bact * q).sum(axis=0)))
    return z


def gradient_path(a: Aggregator, q: np.ndarray, t: np.ndarray, hint=None):
    """(z, U(z), slope) columnwise along grad U(z) = g = q exp(-t), with t
    one entry per column, from one aggregator pass at z; the gradient
    inversion starts its s-equation at the hint s = beta^T z, one entry per
    column, where one is given.

    dz/dt = (-H)^{-1} g for the Hessian H of U at z, so U(z) changes with
    t at the slope g^T (-H)^{-1} g, which Sherman-Morrison gives on the
    diagonal-plus-rank-one Hessian.  A zero entry of q (separable
    aggregators only) leaves its agent at the supremum: z_j is +infinity,
    reported as 0, u_j(z_j) is the agent's supremum, and the entry adds
    nothing to the slope.
    """
    zero = q <= 0.0
    vanish = bool(zero.any())
    if vanish and not a.separable:
        raise NotImplementedError(
            "vanishing densities with an interdependence term")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = q * np.exp(-t)
        z, terms = _inverse(a, np.where(zero, 1.0, g) if vanish else g, hint)
        if vanish:
            # each agent on its own, at its supremum where its q_j is 0
            own, _, d2 = (np.stack(part) for part in zip(
                *(u.terms(z[j]) for j, u in enumerate(a.utilities))))
            sup = np.array([[u.sup] for u in a.utilities])
            value, z = (np.where(zero, sup, own).sum(axis=0),
                        np.where(zero, 0.0, z))
        else:
            value, _, d2, v2 = a.terms(z) if terms is None else terms
        slope = -(g * g / d2).sum(axis=0)
        if not a.separable:
            beta = a.lam.weights[:, None]
            bg = (beta * g / d2).sum(axis=0)
            bb = (beta * beta / d2).sum(axis=0)
            slope = slope + v2 * bg * bg / (1.0 + v2 * bb)
    return z, value, slope


def path_at_level(a: Aggregator, q: np.ndarray, w: np.ndarray,
                  start: np.ndarray, level: np.ndarray, cost: bool = False,
                  warm=None):
    """(E_w[U(z)], E_w[q^T z]) per block m at the point z of the gradient
    path grad U(z) = q exp(-t_m), on the columns start[m]:start[m + 1] of
    block m, where E_w[U(z)], or E_w[q^T z] when cost is true, equals
    level_m: the penalty's program and pi_problem's.

    Both means increase with t: E_w[U] at the slope E_w[g^T (-H)^{-1} g] of
    gradient_path, E_w[q^T z] at exp(t) times that.  Exponential agents
    without an interdependence term have a closed form; every other
    aggregator finds t by increasing_roots.  warm, where given, is a point
    (t0, z0) near the path, t0 one entry per block and z0 one column per
    column of q: the primal point (log mu, X + Y_hat), where the dual
    optimizer q = mu grad U(X + Y_hat) puts the penalty's root.  The root
    find then starts at t0, and the gradient inversion of its first state
    at s = beta^T z0.  A utility level at or above the supremum of U raises
    InversionError.
    """
    level = np.asarray(level, dtype=float)
    if not cost and np.any(level >= a.sup):
        raise InversionError(f"utility level {float(level.max())!r} is not "
                             f"below the supremum {float(a.sup)!r}")
    if a.exponential_form is not None:
        return _closed_path(a, q, w, start, level, cost)
    return _path_roots(a, q, w, start, level, cost, warm)


def _closed_path(a, q, w, start, level, cost):
    """path_at_level for exponential agents, raw or shifted: with
    r = q/alpha, agent j sits at z_j = (t - log r_j)/alpha_j with utility
    s_j - r_j exp(-t), s_j = 1 if it is shifted and 0 if not.  So for k
    shifted agents, mass = E_w[sum_j r_j] and ent = E_w[sum_j r_j log r_j]
    with 0 log 0 = 0 (a zero density leaves its agent at the supremum),

        E_w[U] = k - exp(-t) mass,    E_w[q^T z] = t mass - ent.
    """
    alphas, k = a.exponential_form
    r = q / alphas[:, None]
    mass = np.add.reduceat(w * r.sum(axis=0), start[:-1])
    ent = np.add.reduceat(w * xlogx(r).sum(axis=0), start[:-1])
    t = (level + ent) / mass if cost else np.log(mass / (k - level))
    return k - np.exp(-t) * mass, t * mass - ent


def _path_roots(a, q, w, start, level, cost, warm):
    """path_at_level for any aggregator: increasing_roots on t for every
    block at once, each state's gradient inversion started at the last
    state's s = beta^T z.  The root find runs from the warm point, or cold
    from t = 0 with no hint when warm is None or the root find from it
    fails: a start far from the roots may lie where grad U cannot be
    inverted to round-off."""
    first = start[:-1]
    of = np.repeat(np.arange(level.size), np.diff(start))
    hint = None

    def state(t):
        nonlocal hint
        z, value, slope = gradient_path(a, q, t[of], hint)
        if not a.separable:
            hint = a.lam.level(z)
        means = (np.add.reduceat(w * value, first),
                 np.add.reduceat(w * (q * z).sum(axis=0), first))
        slope = np.add.reduceat(w * slope, first)
        f = means[cost] - level
        # within an ulp of the level, the mean meets it to round-off
        return (np.where(np.abs(f) <= _EPS * np.abs(level), 0.0, f),
                (means, np.exp(t) * slope if cost else slope))

    def root(t):
        return increasing_roots(state, lambda _, payload: payload[1], t)[1][0]

    if warm is not None:
        t0, z0 = warm
        if not a.separable:
            hint = a.lam.level(z0)
        try:
            return root(t0)
        except InversionError:
            hint = None
    return root(np.zeros(level.size))


def xlogx(r: np.ndarray) -> np.ndarray:
    """r log r elementwise for r >= 0, with 0 log 0 = 0."""
    pos = r > 0.0
    return np.where(pos, r * np.log(np.where(pos, r, 1.0)), 0.0)
