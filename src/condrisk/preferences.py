"""Agent preferences: univariate utilities, the multivariate aggregator
(sum of agent utilities plus an optional concave interdependence term),
analytic derivatives, the exponential convex conjugate, and linear growth
bounds used by the solvers.

All utilities are strictly increasing and strictly concave on the real
line, with derivative decreasing from +infinity to 0 (so marginal-utility
inversion is well defined everywhere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class GrowthBoundError(RuntimeError):
    """A candidate linear upper bound failed grid certification."""


class InversionError(RuntimeError):
    """Gradient inversion did not converge or left a non-finite point, or a
    root find along its multiplier found no root, failed to converge or
    stopped on a jump rather than a root."""


class UnivariateUtility:
    """Interface for a single agent's utility.

    Subclasses provide ``value``, ``deriv`` and ``deriv2`` (vectorized over
    numpy arrays), ``sup`` (the supremum of the utility over the reals) and
    ``inverse_deriv`` mapping a positive marginal utility back to the point
    attaining it.
    """

    sup: float

    def value(self, x):
        raise NotImplementedError

    def deriv(self, x):
        raise NotImplementedError

    def deriv2(self, x):
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

    @property
    def sup(self) -> float:
        return 1.0 if self.shifted else 0.0

    def value(self, x):
        e = -np.exp(-self.alpha * np.asarray(x, dtype=float))
        return 1.0 + e if self.shifted else e

    def deriv(self, x):
        return self.alpha * np.exp(-self.alpha * np.asarray(x, dtype=float))

    def deriv2(self, x):
        return -self.alpha ** 2 * np.exp(-self.alpha * np.asarray(x, dtype=float))

    def inverse_deriv(self, m):
        return -np.log(np.asarray(m, dtype=float) / self.alpha) / self.alpha


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

    def value(self, x):
        x = np.asarray(x, dtype=float)
        xp, xn = np.maximum(x, 0.0), np.minimum(x, 0.0)
        pos = self.p * xp / (xp + 1.0)
        neg = 1.0 - (1.0 - xn) ** self.p
        return np.where(x >= 0.0, pos, neg)

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        xp, xn = np.maximum(x, 0.0), np.minimum(x, 0.0)
        pos = self.p / (xp + 1.0) ** 2
        neg = self.p * (1.0 - xn) ** (self.p - 1.0)
        return np.where(x >= 0.0, pos, neg)

    def deriv2(self, x):
        x = np.asarray(x, dtype=float)
        xp, xn = np.maximum(x, 0.0), np.minimum(x, 0.0)
        pos = -2.0 * self.p / (xp + 1.0) ** 3
        neg = -self.p * (self.p - 1.0) * (1.0 - xn) ** (self.p - 2.0)
        return np.where(x >= 0.0, pos, neg)

    def inverse_deriv(self, m):
        m = np.asarray(m, dtype=float)
        # derivative is p at 0; values below p come from the x >= 0 branch
        pos = np.sqrt(self.p / np.maximum(m, 1e-300)) - 1.0
        neg = 1.0 - (m / self.p) ** (1.0 / (self.p - 1.0))
        return np.where(m <= self.p, pos, neg)


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

    def value(self, x):
        x = np.asarray(x, dtype=float)
        xn = np.minimum(x, 0.0)
        return np.where(x >= 0.0, self.p * np.arctan(x),
                        1.0 - (1.0 - xn) ** self.p)

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        xn = np.minimum(x, 0.0)
        return np.where(x >= 0.0, self.p / (1.0 + x ** 2),
                        self.p * (1.0 - xn) ** (self.p - 1.0))

    def deriv2(self, x):
        x = np.asarray(x, dtype=float)
        xn = np.minimum(x, 0.0)
        pos = -2.0 * self.p * x / (1.0 + x ** 2) ** 2
        neg = -self.p * (self.p - 1.0) * (1.0 - xn) ** (self.p - 2.0)
        return np.where(x >= 0.0, pos, neg)

    def inverse_deriv(self, m):
        m = np.asarray(m, dtype=float)
        pos = np.sqrt(np.maximum(self.p / np.maximum(m, 1e-300) - 1.0, 0.0))
        neg = 1.0 - (m / self.p) ** (1.0 / (self.p - 1.0))
        return np.where(m <= self.p, pos, neg)


class CustomUtility(UnivariateUtility):
    """Extension point: wrap user-supplied value/derivative callables.

    A randomized midpoint test rejects candidates that are not strictly
    concave or not strictly increasing; ``deriv2`` falls back to central
    differences when no second derivative is given.
    """

    def __init__(self, value_fn, deriv_fn, deriv2_fn=None, sup=np.inf,
                 selftest_points: int = 64, seed: int = 0):
        self._value = value_fn
        self._deriv = deriv_fn
        self._deriv2 = deriv2_fn
        self.sup = float(sup)
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-5.0, 5.0, size=selftest_points)
        ys = rng.uniform(-5.0, 5.0, size=selftest_points)
        keep = np.abs(xs - ys) > 1e-6
        xs, ys = xs[keep], ys[keep]
        mid = self.value((xs + ys) / 2.0)
        if np.any(mid <= (self.value(xs) + self.value(ys)) / 2.0):
            raise ValueError("custom utility failed the strict concavity test")
        if np.any(np.asarray(self.deriv(xs)) <= 0.0):
            raise ValueError("custom utility is not strictly increasing")

    def value(self, x):
        return np.asarray(self._value(np.asarray(x, dtype=float)), dtype=float)

    def deriv(self, x):
        return np.asarray(self._deriv(np.asarray(x, dtype=float)), dtype=float)

    def deriv2(self, x, h: float = 1e-6):
        if self._deriv2 is not None:
            return np.asarray(self._deriv2(np.asarray(x, dtype=float)), dtype=float)
        x = np.asarray(x, dtype=float)
        return (self.deriv(x + h) - self.deriv(x - h)) / (2.0 * h)

    def inverse_deriv(self, m):
        m = np.asarray(m, dtype=float)
        out = np.empty_like(m, dtype=float)
        for idx, target in np.ndenumerate(m):
            lo, hi = -1.0, 1.0
            while self.deriv(hi) > target:
                hi *= 2.0
                if hi > 1e12:
                    break
            while self.deriv(lo) < target:
                lo *= 2.0
                if lo < -1e12:
                    break
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if self.deriv(mid) > target:
                    lo = mid
                else:
                    hi = mid
            out[idx] = 0.5 * (lo + hi)
        return out


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

    def value(self, x):
        """x has shape (N,) or (N, K); returns scalar or (K,)."""
        if self.is_zero:
            x = np.asarray(x, dtype=float)
            return 0.0 if x.ndim == 1 else np.zeros(x.shape[1])
        s = np.tensordot(self.weights, np.asarray(x, dtype=float), axes=(0, 0))
        return self.u.value(s)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        if self.is_zero:
            return np.zeros_like(x)
        s = np.tensordot(self.weights, x, axes=(0, 0))
        d = self.u.deriv(s)
        return np.multiply.outer(self.weights, d) if x.ndim == 2 else d * self.weights

    def hessian(self, x):
        """Full Hessian contribution: rank-one u''(s) beta beta^T."""
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        if self.is_zero:
            shape = (n, n) if x.ndim == 1 else (x.shape[1], n, n)
            return np.zeros(shape)
        s = np.tensordot(self.weights, x, axes=(0, 0))
        d2 = self.u.deriv2(s)
        bbt = np.outer(self.weights, self.weights)
        if x.ndim == 1:
            return d2 * bbt
        return d2[:, None, None] * bbt[None, :, :]

    @classmethod
    def zero(cls) -> "LambdaAggregator":
        return cls()

    @classmethod
    def composite(cls, u: UnivariateUtility, weights) -> "LambdaAggregator":
        return cls(u, np.asarray(weights, dtype=float))


@dataclass(frozen=True)
class Aggregator:
    """Multivariate utility: sum of agent utilities plus the lambda term."""

    utilities: tuple
    lam: LambdaAggregator = field(default_factory=LambdaAggregator.zero)

    def __post_init__(self):
        object.__setattr__(self, "utilities", tuple(self.utilities))
        if len(self.utilities) < 1:
            raise ValueError("need at least one agent utility")
        if not self.lam.is_zero and self.lam.weights.size != self.nagents:
            raise ValueError("lambda weights must have one entry per agent")
        # closed forms for exponential agents without interdependence term,
        # and a vectorized fast path when none of them is shifted
        exp_form = exp_alphas = None
        if self.lam.is_zero and all(isinstance(u, ExponentialUtility)
                                    for u in self.utilities):
            alphas = np.array([u.alpha for u in self.utilities], dtype=float)
            shifted = sum(u.shifted for u in self.utilities)
            exp_form = (alphas, shifted)
            exp_alphas = None if shifted else alphas
        object.__setattr__(self, "_exp_form", exp_form)
        object.__setattr__(self, "_exp_alphas", exp_alphas)

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
        return self._exp_alphas

    @property
    def exponential_form(self) -> tuple | None:
        """(exponents, number of shifted agents) when every agent is
        exponential, raw or shifted, and the interdependence term vanishes;
        None otherwise."""
        return self._exp_form

    @property
    def separable(self) -> bool:
        return self.lam.is_zero

    def value(self, x):
        """U(x) for x of shape (N,) or (N, K)."""
        x = np.asarray(x, dtype=float)
        if self._exp_alphas is not None:
            a = self._exp_alphas if x.ndim == 1 else self._exp_alphas[:, None]
            return -np.exp(-a * x).sum(axis=0)
        parts = sum(u.value(x[j]) for j, u in enumerate(self.utilities))
        return parts + self.lam.value(x)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        if self._exp_alphas is not None:
            a = self._exp_alphas if x.ndim == 1 else self._exp_alphas[:, None]
            return a * np.exp(-a * x)
        g = np.stack([u.deriv(x[j]) for j, u in enumerate(self.utilities)])
        return g + self.lam.grad(x)

    def hessian(self, x):
        """Hessian of U; shape (N, N) for a point, (K, N, N) columnwise."""
        x = np.asarray(x, dtype=float)
        if self._exp_alphas is not None:
            a = self._exp_alphas if x.ndim == 1 else self._exp_alphas[:, None]
            d2 = -a * a * np.exp(-a * x)
        else:
            d2 = np.stack([u.deriv2(x[j]) for j, u in enumerate(self.utilities)])
        if x.ndim == 1:
            return np.diag(d2) + self.lam.hessian(x)
        k = x.shape[1]
        h = np.zeros((k, self.nagents, self.nagents))
        idx = np.arange(self.nagents)
        h[:, idx, idx] = d2.T
        return h + self.lam.hessian(x)

    @classmethod
    def exponential(cls, alphas, shifted: bool = False) -> "Aggregator":
        return cls(tuple(ExponentialUtility(a, shifted) for a in alphas))


_INVERT_MAX_ITER = 100
_INVERT_STEP_TOL = 1e-12
# Where the interdependence term swamps every agent's own marginal by many
# orders of magnitude, t pins little more than beta^T z and z can miss it.
_INVERT_GRAD_TOL = 1e-9
# |f| at an accepted multiplier root, relative to max(1, |level|)
_ROOT_FTOL = 1e-9


def invert_gradient(a: Aggregator, target: np.ndarray) -> np.ndarray:
    """Solve grad U(z) = target columnwise; target must be positive.

    Separable aggregators invert each marginal in closed form.  For
    U(z) = sum_j u_j(z_j) + v(s) with s = beta^T z, a column of
    grad U(z) = t is one equation in s: with
    z_j(s) = (u_j')^{-1}(t_j - beta_j v'(s)),

        phi(s) = sum_j beta_j z_j(s) - s = 0.

    phi is +infinity at s = (v')^{-1}(min_j t_j / beta_j), strictly
    decreasing above it with phi' = -v''(s) sum_j beta_j^2 / u_j''(z_j) - 1
    < -1, and negative far out, so each column has exactly one root.  All
    columns are solved at once by Newton's method safeguarded by bisection
    on a bracket; a column is frozen once its step falls below 1e-12
    relative.  A last Newton step on the full system, solved by
    Sherman-Morrison with the diagonal-plus-rank-one Hessian, restores
    beta^T z = s where a marginal u_j' is swamped by beta_j v'(s) and
    z_j(s) is known only to a few digits.

    Raises InversionError when a column ends unconverged or non-finite, or
    when grad U(z) misses the target by more than 1e-9 in log terms.
    """
    target = np.asarray(target, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if a.separable or not np.any(a.lam.weights > 0.0):
            return _inverse_marginals(a, target)
        t = target.reshape(target.shape[0], -1)
        z, converged = _invert_composite(a, t)
        resid = np.max(np.abs(np.log(a.grad(z) / t)), axis=0)
    bad = ~converged | ~(resid <= _INVERT_GRAD_TOL)
    if np.any(bad):
        raise InversionError(
            f"gradient inversion failed on {int(bad.sum())} of {bad.size} "
            "columns (unconverged, non-finite or log-gradient residual "
            f"above {_INVERT_GRAD_TOL:.0e})")
    return z.reshape(target.shape)


def _inverse_marginals(a: Aggregator, m: np.ndarray) -> np.ndarray:
    return np.stack([u.inverse_deriv(m[j]) for j, u in enumerate(a.utilities)])


def _invert_composite(a: Aggregator, t: np.ndarray):
    """(z, converged flag per column) for grad U(z) = t by the s-reduction."""
    v, beta = a.lam.u, a.lam.weights
    act = np.flatnonzero(beta > 0.0)
    bact = beta[act][:, None]

    def state(s):
        r = t - beta[:, None] * v.deriv(s)
        z = _inverse_marginals(a, r)
        inside = np.all(r[act] > 0.0, axis=0)
        return z, np.where(inside, (bact * z[act]).sum(axis=0) - s, np.inf)

    def curvature(z):
        return np.stack([a.utilities[j].deriv2(z[j]) for j in act])

    # Each z_j(s) exceeds z0_j, its value without the interdependence term,
    # so phi > 0 up to max(s_lo, beta^T z0); step right until phi < 0.
    z0 = _inverse_marginals(a, t)
    lo = np.maximum(v.inverse_deriv(np.min(t[act] / bact, axis=0)),
                    (bact * z0[act]).sum(axis=0))
    width = np.ones(t.shape[1])
    s = lo + width
    z, phi = state(s)
    for _ in range(64):
        up = ~(phi < 0.0)
        if not up.any():
            break
        lo = np.where(up, s, lo)
        width = np.where(up, 2.0 * width, width)
        s = np.where(up, lo + width, s)
        z, phi = state(s)
    hi = s.copy()
    active = phi < 0.0  # columns without a bracket never converge
    done = np.zeros_like(active)
    last = np.full(t.shape[1], np.inf)

    for _ in range(_INVERT_MAX_ITER):
        slope = -v.deriv2(s) * (bact ** 2 / curvature(z)).sum(axis=0) - 1.0
        newton = s - phi / slope
        tol = _INVERT_STEP_TOL * (1.0 + np.abs(s))
        small = np.abs(newton - s) <= tol
        # bisect when Newton leaves the bracket or does not halve the step
        # (a steep power-like phi makes Newton converge only linearly)
        keep = small | ((newton > lo) & (newton < hi)
                        & (np.abs(newton - s) <= 0.5 * last))
        step = np.where(keep, newton, 0.5 * (lo + hi))
        done |= active & (np.abs(step - s) <= tol)
        active &= ~done
        if not active.any():
            break
        last = np.where(active, np.abs(step - s), last)
        s = np.where(active, step, s)
        z, phi = state(s)
        lo = np.where(active & (phi > 0.0), s, lo)
        hi = np.where(active & (phi < 0.0), s, hi)

    # The last step, taken on the full system at z(s): it moves s by the
    # Newton step on phi and each z_j in proportion to beta_j / u_j''.
    q = bact / curvature(z)
    v2 = v.deriv2(s)
    z[act] -= q * (phi * v2 / (1.0 + v2 * (bact * q).sum(axis=0)))
    return z, done


_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100


def brent(f, lo: float, hi: float, xtol: float) -> float:
    """Root of f on the bracket [lo, hi] by Brent's method (Brent 1973,
    *Algorithms for Minimization Without Derivatives*, ch. 4).

    A step-for-step port of scipy.optimize.brentq with its defaults,
    rtol = 4 eps and maxiter = 100: it evaluates f at the same points and
    returns the same root.  Raises ValueError when f(lo) and f(hi) have the
    same sign or f returns NaN, and RuntimeError when it does not converge.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"f({x!r}) is NaN; the root find cannot go on")
        return fx

    xpre, xcur = float(lo), float(hi)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre > 0.0) == (fcur > 0.0):
        raise ValueError(f"f({xpre!r}) and f({xcur!r}) have the same sign")
    # xcur is the best point so far, xblk the other end of the bracket and
    # xpre the previous best; scur is the last step and spre the one before
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre > 0.0) != (fcur > 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:  # C gives inf or nan: bisect
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"no convergence after {_BRENT_MAXITER} iterations, "
                       f"last point {xcur!r}")


def bracketed_root(f, limit: float, xtol: float) -> float:
    """Root of an increasing f: the bracket starts at [-2, 2], each end
    doubles outwards until f changes sign across the bracket or the end
    passes +-limit, and brent with xtol then pins the root.  Raises
    ValueError, as brent does, when no sign change was found."""
    lo, hi = -2.0, 2.0
    while f(lo) > 0.0 and lo > -limit:
        lo *= 2.0
    while f(hi) < 0.0 and hi < limit:
        hi *= 2.0
    return brent(f, lo, hi, xtol)


_ROOT_REACH = 2.0
_ROOT_LIMIT = 600.0
_ROOT_MAX_ITER = 100
_ROOT_STEP_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


def multiplier_newton(state, level, t, increasing: bool = True):
    """Roots t_m of value_m(t_m) = level_m for monotone functions of log
    multipliers, all m at once; returns (t, payload of state at t).

    state(t) returns (value, slope, payload): per root the value and its
    derivative at t_m, and whatever the caller needs at t.  Each root is
    found by Newton's method from t_m, safeguarded as follows:

    - it keeps the bracket of the points where its value was below and
      above its level;
    - a Newton step that leaves a closed bracket, or does not halve the
      previous step inside it, is replaced by bisection;
    - towards an open side the step is capped at a reach that starts at 2
      and doubles with each capped step, within |t| <= 600;
    - where state raises InversionError, or a value is not finite, each
      root that stepped there goes half way back to its last good point.

    A root is done when |value - level| <= 1e-9 max(1, |level|) and the
    Newton step that led to it was below 1e-9 (1 + |t|), so that quadratic
    convergence leaves t at round-off, or the next step would not halve it,
    so that the value is at round-off.  Raises InversionError when the
    level is out of reach within |t| <= 600, when the bracket shrinks to a
    point with |value - level| above that tolerance (a jump), when state
    fails at the start, and after 100 steps without convergence.
    """
    sign = 1.0 if increasing else -1.0
    level = sign * np.asarray(level, dtype=float)
    t = np.array(t, dtype=float)
    tol = _ROOT_FTOL * np.maximum(1.0, np.abs(level))
    lo, hi = np.full(t.shape, -np.inf), np.full(t.shape, np.inf)
    good = np.full(t.shape, np.nan)  # the last point with a finite value
    last = np.full(t.shape, np.inf)  # the step that led to t
    newton_last = np.zeros(t.shape, dtype=bool)
    reach = np.full(t.shape, _ROOT_REACH)
    done = np.zeros(t.shape, dtype=bool)
    for _ in range(_ROOT_MAX_ITER):
        try:
            value, slope, payload = state(t)
            with np.errstate(invalid="ignore", divide="ignore"):
                f = sign * np.asarray(value, dtype=float) - level
                newton = t - f / (sign * np.asarray(slope, dtype=float))
        except InversionError:
            f = newton = np.full(t.shape, np.nan)
        failed = ~np.isfinite(f) & ~done
        if np.any(failed & np.isnan(good)):
            raise InversionError(
                "multiplier root find failed at its start t = "
                f"{t[failed & np.isnan(good)].tolist()}")
        with np.errstate(invalid="ignore"):
            step, scale = np.abs(newton - t), 1.0 + np.abs(t)
            collapsed = hi - lo <= 2.0 * _EPS * scale
            # t is at round-off: its bracket is a point, the next step is
            # below round-off, the Newton step to t was small enough for
            # quadratic convergence, or the next one would not halve it
            settled = (collapsed | (step <= 4.0 * _EPS * scale)
                       | (newton_last & ((last <= _ROOT_STEP_TOL * scale)
                                         | ~(step <= 0.5 * last))))
            done |= ~failed & (np.abs(f) <= tol) & settled
        if done.all():
            return t, payload
        act = ~done & ~failed
        jump = act & collapsed
        if jump.any():
            raise InversionError(
                "multiplier root find stopped at |f| = "
                f"{float(np.max(np.abs(f[jump]))):.3e}: the function jumps "
                "there")
        lo = np.where(act & (f < 0.0), t, lo)
        hi = np.where(act & (f > 0.0), t, hi)
        good = np.where(act, t, good)
        closed = np.isfinite(lo) & np.isfinite(hi)
        with np.errstate(invalid="ignore"):
            inside = (newton > lo) & (newton < hi)
            # towards the open side: Newton within reach, else the reach
            towards = np.where(f < 0.0, 1.0, -1.0)
            want = np.where(inside, newton - t, towards * np.inf)
            capped = ~(np.abs(want) <= reach)
            keep = np.where(closed, inside & (step <= 0.5 * last), ~capped)
            # a root that is done keeps an open bracket, -inf + inf
            nxt = np.where(closed, np.where(keep, newton, 0.5 * (lo + hi)),
                           t + np.clip(want, -reach, reach))
        nxt = np.clip(nxt, -_ROOT_LIMIT, _ROOT_LIMIT)
        stuck = act & ~closed & (nxt == t)
        if stuck.any():
            raise InversionError(
                f"no multiplier within |log mu| <= {_ROOT_LIMIT:g} reaches "
                f"the level {(sign * level[stuck]).tolist()}")
        reach = np.where(act & ~closed & capped, 2.0 * reach, reach)
        back = good + 0.5 * (t - good)
        reach = np.where(failed, 0.5 * np.abs(t - good), reach)
        nxt = np.where(failed, back, np.where(act, nxt, t))
        last = np.where(failed, np.abs(back - good),
                        np.where(act, np.abs(nxt - t), last))
        newton_last = np.where(act, keep, newton_last & ~failed)
        t = nxt
    raise InversionError(f"multiplier root find did not converge in "
                         f"{_ROOT_MAX_ITER} steps")


def gradient_path(a: Aggregator, q: np.ndarray, t: np.ndarray):
    """(z, U(z), slope) columnwise along grad U(z) = g = q exp(-t), with t
    one entry per column.

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
        z = invert_gradient(a, np.where(zero, 1.0, g) if vanish else g)
        d = -np.stack([u.deriv2(z[j]) for j, u in enumerate(a.utilities)])
        slope = (g * g / d).sum(axis=0)
        if not a.separable:
            beta = a.lam.weights[:, None]
            c = -a.lam.u.deriv2((beta * z).sum(axis=0))
            bg, bb = (beta * g / d).sum(axis=0), (beta * beta / d).sum(axis=0)
            slope = slope - c * bg * bg / (1.0 + c * bb)
        if vanish:
            sup = np.array([[u.sup] for u in a.utilities])
            own = np.stack([u.value(z[j]) for j, u in enumerate(a.utilities)])
            value = np.where(zero, sup, own).sum(axis=0)
            z = np.where(zero, 0.0, z)
        else:
            value = a.value(z)
    return z, value, slope


def utility_level_roots(a: Aggregator, q: np.ndarray, w: np.ndarray,
                        start: np.ndarray, level: np.ndarray, t0=None):
    """The point z with grad U(z) = q / mu_m on the columns
    start[m]:start[m + 1] of block m and E_w[U(z)] = level_m there, for
    every block at once by multiplier_newton on t = log mu from t0, or
    from 0 when t0 is None; returns (z, t).  Where the root find from t0
    fails, it is made again from 0: a start far from the roots may lie
    where grad U cannot be inverted to round-off.  A level at or above
    the supremum of U has no such point and raises InversionError."""
    level = np.asarray(level, dtype=float)
    if np.any(level >= a.sup):
        raise InversionError(f"utility level {level.max()!r} is not below "
                             f"the supremum {a.sup!r}")
    first = start[:-1]
    of = np.repeat(np.arange(level.size), np.diff(start))

    def state(t):
        z, value, slope = gradient_path(a, q, t[of])
        return (np.add.reduceat(w * value, first),
                np.add.reduceat(w * slope, first), z)

    if t0 is not None:
        try:
            t, z = multiplier_newton(state, level, t0)
            return z, t
        except InversionError:
            pass
    t, z = multiplier_newton(state, level, np.zeros(level.size))
    return z, t


def agg_value(a: Aggregator, x) -> float:
    return float(a.value(np.asarray(x, dtype=float)))


def agg_grad(a: Aggregator, x) -> np.ndarray:
    return a.grad(np.asarray(x, dtype=float))


def xlogx(r: np.ndarray) -> np.ndarray:
    """r log r elementwise for r >= 0, with 0 log 0 = 0."""
    pos = r > 0.0
    return np.where(pos, r * np.log(np.where(pos, r, 1.0)), 0.0)


def conjugate_V(alphas, y) -> float:
    """Convex conjugate of the raw exponential aggregator at y > 0:
    sum_j (y_j/alpha_j) (log(y_j/alpha_j) - 1), extended by 0 at y_j = 0."""
    alphas = np.asarray(alphas, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise ValueError("conjugate argument must be nonnegative")
    r = y / alphas
    return float((xlogx(r) - r).sum())


def growth_bound(a: Aggregator, candidate=None, grid_half_width: float = 10.0,
                 grid_points: int = 41) -> tuple:
    """Linear upper bound U(x) <= a_coef * sum_j x_j + b_coef.

    The slope is the largest marginal utility at zero; each agent's offset is
    the maximum of u_j(x) - a_coef*x (attained where the derivative equals the
    slope), and the lambda term contributes its supremum.  The bound is then
    certified on a grid; certification failure signals a wrong candidate.
    """
    slopes = np.array([float(u.deriv(0.0)) for u in a.utilities])
    a_coef = float(slopes.max())
    if candidate is None:
        b_coef = a.lam.sup
        for u in a.utilities:
            xstar = float(u.inverse_deriv(a_coef))
            b_coef += float(u.value(xstar)) - a_coef * xstar
    else:
        a_coef, b_coef = float(candidate[0]), float(candidate[1])

    axis = np.linspace(-grid_half_width, grid_half_width, grid_points)
    if a.nagents <= 3:
        grids = np.meshgrid(*([axis] * a.nagents), indexing="ij")
        pts = np.stack([g.ravel() for g in grids])
    else:
        rng = np.random.default_rng(12345)
        pts = rng.uniform(-grid_half_width, grid_half_width,
                          size=(a.nagents, grid_points ** 3))
    vals = a.value(pts)
    bound = a_coef * pts.sum(axis=0) + b_coef
    slack = bound - vals
    if np.min(slack) < -1e-9:
        at = pts[:, int(np.argmin(slack))]
        raise GrowthBoundError(
            f"bound {a_coef!r}, {b_coef!r} violated at x={at.tolist()}"
        )
    return a_coef, b_coef
