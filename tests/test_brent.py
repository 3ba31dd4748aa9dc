"""The in-package Brent root finder against scipy.optimize.brentq.

``preferences.brent`` is a step-for-step port of scipy's brentq, so on every
function it must evaluate the same points in the same order and return the
same root, or raise the same kind of error.  scipy is a test dependency only.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from condrisk.preferences import brent

XTOLS = (1e-9, 1e-13, 1e-14)   # the package's call sites use these
NFUNCTIONS = 5000


def _function(seed):
    """(f, lo, hi) of one seeded test function.

    The families cover smooth roots, flat and steep ones, kinks, jumps,
    plateaus, values small enough that products of two of them underflow,
    brackets without a sign change, roots on a bracket end and NaN values.
    """
    rng = np.random.default_rng(seed)
    r = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]))
    scale = 10.0 ** rng.uniform(-200.0, 200.0)
    k = 10.0 ** rng.uniform(-2.0, 2.0)
    p = rng.uniform(0.1, 4.0)
    kind = seed % 8
    if kind == 0:
        c = rng.uniform(0.0, 3.0)

        def f(x):
            return scale * ((x - r) ** 3 + c * (x - r))
    elif kind == 1:
        off = rng.uniform(-0.5, 0.5)

        def f(x):
            return scale * (math.tanh(k * (x - r)) + off)
    elif kind == 2:
        def f(x):
            return math.exp(min(k * x, 700.0)) - math.exp(min(k * r, 700.0))
    elif kind == 3:
        def f(x):
            d = x - r
            return scale * math.copysign(abs(d) ** p, d)
    elif kind == 4:
        def f(x):  # a jump at r
            return scale * (1.0 if x > r else -0.5)
    elif kind == 5:
        def f(x):  # decreasing, with a wiggle
            return -scale * (x - r) * (1.5 + math.sin(k * x))
    elif kind == 6:
        def f(x):  # flat through the root
            d = x - r
            return scale * d * d * d * d * d + 1e-300 * d
    else:
        nan_at = r + rng.uniform(-1.0, 1.0)

        def f(x):  # NaN on one side of nan_at
            return math.nan if x > nan_at else scale * (x - r)

    width = rng.uniform(1e-6, 10.0)
    if rng.random() < 0.1:   # too wide to close by 100 bisections
        width = 10.0 ** rng.uniform(1.0, 40.0)
    u = rng.random()
    if u < 0.1:      # same sign at both ends (or a root just outside)
        lo, hi = r + width, r + 2.0 * width
    elif u < 0.15:   # the root on a bracket end
        lo, hi = r, r + width
    else:
        lo, hi = r - width * rng.random(), r + width * rng.random()
    if rng.random() < 0.5:
        lo, hi = hi, lo
    return f, lo, hi


def _run(solver, f, lo, hi, xtol):
    """(root or error type, list of evaluation points)."""
    points = []

    def logged(x):
        points.append(x)
        return f(x)

    try:
        return solver(logged, lo, hi, xtol=xtol), points
    except (ValueError, RuntimeError) as exc:
        return type(exc), points


def _same(a, b):
    """Equal roots, to the sign of a zero, or the same error type."""
    if isinstance(a, float):
        return (isinstance(b, float) and a == b
                and math.copysign(1.0, a) == math.copysign(1.0, b))
    return a is b


@pytest.mark.parametrize("xtol", XTOLS)
def test_brent_replays_brentq(xtol):
    outcomes = set()
    for seed in range(NFUNCTIONS):
        f, lo, hi = _function(seed)
        got, got_points = _run(brent, f, lo, hi, xtol)
        want, want_points = _run(brentq, f, lo, hi, xtol)
        assert _same(got, want), (seed, got, want)
        assert got_points == want_points, seed
        assert all(type(x) is float for x in got_points), seed
        outcomes.add(got if isinstance(got, type) else float)
    # every outcome occurred: a root, a same-sign or NaN ValueError, and a
    # RuntimeError from the jump on a wide bracket
    assert outcomes == {float, ValueError, RuntimeError}


# Kinked or jumping lines f(x) = right (x - r) + jump for x > r and
# left (x - r) - jump otherwise, on which a step lands exactly on one of
# the method's thresholds (found by search; random functions almost never
# tie): (r, right, left, jump, lo, hi, xtol).
TIES = [
    (-1.2706838100524518, 940.6552091367595, 0.22310972108492125, 0.0,
     -1.2706838100524445, -1.2706838100524684, 1e-14),
    (0.53125, 4.0, 2.0, 1.0, -0.28125, 1.0, 0.125),
    (0.0, 1.0, 8.0, 0.0, 3.0, -7.5, 1.0),
    (-0.03125, 2.0, 2.0, 1.0, -0.125, 0.0, 0.125),
]


@pytest.mark.parametrize("r, right, left, jump, lo, hi, xtol", TIES)
def test_brent_replays_brentq_on_ties(r, right, left, jump, lo, hi, xtol):
    def f(x):
        return right * (x - r) + jump if x > r else left * (x - r) - jump

    got, got_points = _run(brent, f, lo, hi, xtol)
    want, want_points = _run(brentq, f, lo, hi, xtol)
    assert _same(got, want) and got_points == want_points


def test_same_sign_bracket_raises():
    with pytest.raises(ValueError):
        brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)


def test_nan_value_raises():
    with pytest.raises(ValueError):
        brent(lambda x: math.nan if x > 0.5 else x - 2.0, 0.0, 4.0, 1e-12)


def test_no_convergence_raises():
    # a jump gives bisection only, and 100 halvings do not close a bracket
    # 1e300 wide to 1e-12
    with pytest.raises(RuntimeError):
        brent(lambda x: 1.0 if x > 0.3 else -1.0, -1e300, 1e300, 1e-12)
