import warnings

import numpy as np
import pytest

from condrisk import (Aggregator, ArctanPowerUtility, ExponentialUtility,
                      InversionError, LambdaAggregator, RationalPowerUtility)
from condrisk import preferences
from condrisk.preferences import (increasing_roots, invert_gradient,
                                  path_at_level)
from conftest import conjugate_V

ALL_KINDS = [
    ExponentialUtility(1.0),
    ExponentialUtility(2.5, shifted=True),
    RationalPowerUtility(2.0),
    RationalPowerUtility(1.5),
    ArctanPowerUtility(2.0),
    ArctanPowerUtility(3.5),
]


def value(u, x):
    return u.terms(x)[0]


def deriv(u, x):
    return u.terms(x)[1]


@pytest.mark.parametrize("u", ALL_KINDS)
class TestUnivariate:
    def test_derivative_matches_differences(self, u):
        xs = np.linspace(-4.0, 4.0, 41)
        num = (value(u, xs + 1e-6) - value(u, xs - 1e-6)) / 2e-6
        np.testing.assert_allclose(deriv(u, xs), num, rtol=1e-5, atol=1e-7)

    def test_second_derivative_matches_differences(self, u):
        # skip the kink at zero where one-sided curvature differs
        xs = np.concatenate([np.linspace(-4, -0.2, 15),
                             np.linspace(0.2, 4, 15)])
        num = (deriv(u, xs + 1e-6) - deriv(u, xs - 1e-6)) / 2e-6
        np.testing.assert_allclose(u.terms(xs)[2], num, rtol=1e-4,
                                   atol=1e-6)

    def test_inverse_deriv_roundtrip(self, u):
        xs = np.linspace(-3.0, 5.0, 30)
        m = deriv(u, xs)
        np.testing.assert_allclose(u.inverse_deriv(m)[0], xs, rtol=1e-9,
                                   atol=1e-9)

    def test_inverse_curvature_matches_terms(self, u):
        # the curvature of the inverse marginal comes from its own closed
        # form in m, on both branches of the power kinds
        m = np.geomspace(1e-6, 1e6, 121)
        x, d2 = u.inverse_deriv(m)
        assert np.any(x < 0.0) and np.any(x > 0.0)
        np.testing.assert_allclose(d2, u.terms(x)[2], rtol=1e-12, atol=0)

    def test_strictly_increasing_and_concave(self, u):
        rng = np.random.default_rng(2)
        a = rng.uniform(-5, 5, size=64)
        b = rng.uniform(-5, 5, size=64)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keep = hi - lo > 1e-3
        lo, hi = lo[keep], hi[keep]
        assert np.all(value(u, hi) > value(u, lo))
        mid = value(u, (lo + hi) / 2)
        assert np.all(mid > (value(u, lo) + value(u, hi)) / 2)

    def test_bounded_above_by_sup(self, u):
        xs = np.linspace(-5, 60, 200)
        assert np.all(value(u, xs) <= u.sup + 1e-12)


class TestAggValue:
    def test_two_unit_agents_at_origin(self):
        a = Aggregator.exponential([1.0, 1.0])
        assert a.value([0.0, 0.0]) == pytest.approx(-2.0)

    def test_mixed_exponents(self):
        a = Aggregator.exponential([1.0, 2.0])
        got = a.value([1.0, 0.5])
        assert got == pytest.approx(-2.0 * np.exp(-1.0), abs=1e-12)
        assert got == pytest.approx(-0.7357589, abs=1e-7)

    def test_shifted_composite_vanishes_at_origin(self):
        lam = LambdaAggregator.composite(ExponentialUtility(1.0, shifted=True),
                                         [1.0, 1.0])
        a = Aggregator((ExponentialUtility(1.0, shifted=True),
                        ExponentialUtility(1.0, shifted=True)), lam)
        assert a.value([0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)


class TestAggGrad:
    def test_unit_exponentials_at_origin(self):
        a = Aggregator.exponential([1.0, 1.0])
        np.testing.assert_allclose(a.grad([0.0, 0.0]), [1.0, 1.0])

    def test_scaled_exponentials_at_origin(self):
        a = Aggregator.exponential([2.0, 3.0])
        np.testing.assert_allclose(a.grad([0.0, 0.0]), [2.0, 3.0])

    @pytest.mark.parametrize("lam", [
        LambdaAggregator.zero(),
        LambdaAggregator.composite(ArctanPowerUtility(2.0), [0.5, 1.5, 0.0]),
    ])
    def test_matches_central_differences(self, lam):
        a = Aggregator((ExponentialUtility(0.7), RationalPowerUtility(2.0),
                        ArctanPowerUtility(2.5)), lam)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=3)
            g = a.grad(x)
            for j in range(3):
                step = np.zeros(3)
                step[j] = 1e-6
                num = (a.value(x + step) - a.value(x - step)) / 2e-6
                assert g[j] == pytest.approx(num, rel=1e-6, abs=1e-8)
        assert np.all(a.grad(rng.uniform(-3, 3, size=3)) > 0)

    def test_hessian_matches_differences(self):
        # the pair (u'', v'') is the Hessian diag(u'') + v'' beta beta^T
        lam = LambdaAggregator.composite(ExponentialUtility(1.0, shifted=True),
                                         [1.0, 0.5])
        a = Aggregator((ExponentialUtility(1.2), ExponentialUtility(0.8)), lam)
        x = np.array([0.3, -0.7])
        _, _, d2, v2 = a.terms(x)
        h = np.diag(d2) + v2 * np.outer(lam.weights, lam.weights)
        for j in range(2):
            step = np.zeros(2)
            step[j] = 1e-6
            num = (a.grad(x + step) - a.grad(x - step)) / 2e-6
            np.testing.assert_allclose(h[:, j], num, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("make, name", [
    (lambda v: ExponentialUtility(v), "alpha"),
    (lambda v: ExponentialUtility(v, shifted=True), "alpha"),
    (lambda v: RationalPowerUtility(v), "p"),
    (lambda v: ArctanPowerUtility(v), "p"),
    (lambda v: LambdaAggregator.composite(ExponentialUtility(1.0, True),
                                          [v, 0.5]), "weights"),
], ids=["exponential", "shifted", "rational_power", "arctan_power",
        "lambda_weights"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
def test_constructors_reject_bad_parameters(make, name, value):
    # NaN fails no comparison: each check must ask for a finite value
    with pytest.raises(ValueError, match=name):
        make(value)


def test_shifted_must_be_a_bool():
    # a truthy non-bool would give the closed forms a shift other than 1
    for flag in (2, 1, 0, "yes", None, np.True_):
        with pytest.raises(ValueError, match="shifted must be a bool"):
            ExponentialUtility(1.0, shifted=flag)
    assert ExponentialUtility(1.0, shifted=True).sup == 1.0


def test_lambda_weights_need_one_entry_per_agent():
    # weights of another shape would broadcast, or fail only when evaluated
    agents = tuple(ExponentialUtility(1.0) for _ in range(4))
    for w in (np.ones((2, 2)), np.ones((4, 1)), np.ones(3)):
        lam = LambdaAggregator.composite(ExponentialUtility(1.0, True), w)
        with pytest.raises(ValueError, match=r"shape \(4,\)"):
            Aggregator(agents, lam)
    Aggregator(agents, LambdaAggregator.composite(
        ExponentialUtility(1.0, True), np.ones(4)))


class TestAggregatorProperties:
    def test_strict_monotonicity_and_concavity(self):
        a = Aggregator.exponential([1.0, 2.0, 0.5])
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.uniform(-4, 4, size=3)
            bump = rng.uniform(0.01, 1.0) * np.eye(3)[rng.integers(0, 3)]
            assert a.value(x + bump) > a.value(x)
            y = rng.uniform(-4, 4, size=3)
            if np.abs(x - y).max() > 1e-6:
                assert a.value((x + y) / 2) > (a.value(x) + a.value(y)) / 2

    def test_sup_bounds_values(self):
        lam = LambdaAggregator.composite(RationalPowerUtility(2.0), [1.0, 1.0])
        a = Aggregator((ExponentialUtility(1.0, shifted=True),
                        ArctanPowerUtility(2.0)), lam)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-10, 50, size=(2, 4000))
        assert np.all(a.value(pts) <= a.sup + 1e-12)

    def test_lambda_weights_are_a_private_copy(self):
        w = np.array([1.0, 2.0])
        lam = LambdaAggregator.composite(RationalPowerUtility(2.0), w)
        w[0] = 5.0
        np.testing.assert_array_equal(lam.weights, [1.0, 2.0])
        assert not lam.weights.flags.writeable

    @pytest.mark.parametrize("shifted", [(True, True), (True, False, True)],
                             ids=["shifted", "mixed"])
    def test_exponential_fast_path_matches_the_agents(self, shifted):
        # every agent exponential, raw or shifted: terms takes all
        # exponents at once, and agrees with the agents one by one to a few
        # ulp of the terms summed
        rng = np.random.default_rng(8)
        agents = tuple(ExponentialUtility(a, s) for a, s in
                       zip(rng.uniform(0.3, 3.0, len(shifted)), shifted))
        a = Aggregator(agents)
        assert a.exponential_form[1] == sum(shifted)
        assert a.raw_exponential_alphas is None
        eps = np.finfo(float).eps
        for x in (rng.uniform(-3.0, 3.0, len(agents)),
                  rng.uniform(-3.0, 3.0, (len(agents), 7))):
            own, du, d2u = (np.stack(part) for part in zip(
                *(u.terms(x[j]) for j, u in enumerate(agents))))
            size = np.abs(own).sum(axis=0) + sum(shifted)
            value, grad, d2, v2 = a.terms(x)
            assert np.all(np.abs(value - own.sum(axis=0)) <= 4.0 * eps * size)
            np.testing.assert_allclose(grad, du, rtol=4.0 * eps, atol=0.0)
            np.testing.assert_allclose(d2, d2u, rtol=4.0 * eps, atol=0.0)
            assert np.all(v2 == 0.0) and v2.shape == x.shape[1:]

    @pytest.mark.parametrize("agg", [
        Aggregator((ExponentialUtility(1.0), RationalPowerUtility(2.0))),
        Aggregator((ExponentialUtility(1.0), ExponentialUtility(2.0)),
                   LambdaAggregator.composite(ExponentialUtility(1.0, True),
                                              [1.0, 0.5])),
    ], ids=["other_agent", "lambda_term"])
    def test_no_exponential_form_unless_separable_exponential(self, agg):
        # a non-exponential agent or an interdependence term leaves the
        # aggregator on the per-agent path, with no closed forms
        assert agg.exponential_form is None
        assert agg.raw_exponential_alphas is None

    def test_raw_exponential_form(self):
        a = Aggregator.exponential([0.5, 1.5])
        alphas, k = a.exponential_form
        np.testing.assert_array_equal(alphas, [0.5, 1.5])
        assert k == 0
        assert a.raw_exponential_alphas is alphas

    def test_first_order_concavity_inequality(self):
        a = Aggregator.exponential([0.5, 1.5])
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.uniform(-3, 3, size=2)
            y = rng.uniform(-3, 3, size=2)
            bound = a.value(x) + a.grad(x) @ (y - x)
            assert a.value(y) <= bound + 1e-12


class TestConjugate:
    def test_single_agent_unit(self):
        assert conjugate_V([1.0], [1.0]) == pytest.approx(-1.0)

    def test_two_agents_unit(self):
        assert conjugate_V([1.0, 1.0], [1.0, 1.0]) == pytest.approx(-2.0)

    def test_fenchel_inequality(self):
        alphas = np.array([1.0, 2.0, 0.7])
        a = Aggregator.exponential(alphas)
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.uniform(-5, 5, size=3)
            y = rng.uniform(1e-3, 5, size=3)
            assert a.value(x) - conjugate_V(alphas, y) <= x @ y + 1e-10

    def test_fenchel_tight_at_gradient(self):
        alphas = np.array([1.0, 2.0])
        a = Aggregator.exponential(alphas)
        x = np.array([0.4, -0.3])
        y = a.grad(x)
        gap = x @ y - (a.value(x) - conjugate_V(alphas, y))
        assert gap == pytest.approx(0.0, abs=1e-12)


def batch(f, slope):
    """A state of scalar functions, one root per entry: f(s) with the
    point itself as payload, and the slope read off the point."""
    return (lambda s: (f(s), s.copy()), lambda s, at: slope(at))


class TestIncreasingRoots:
    def test_finds_root_and_returns_state(self):
        root, at = increasing_roots(*batch(lambda s: np.tanh(s) - 0.5,
                                           lambda s: 1.0 - np.tanh(s) ** 2),
                                    [0.0])
        assert root[0] == pytest.approx(np.arctanh(0.5), abs=1e-13)
        np.testing.assert_array_equal(at, root)

    def test_roots_of_a_batch(self):
        # a root on either side of the start, and one far out; the slope
        # reads the payload that state left at its point, and the payload
        # returned is the state at the roots
        c = np.array([8.0, -27.0, 1e27])
        root, sq = increasing_roots(lambda s: (s ** 3 - c, s * s),
                                    lambda s, sq: 3.0 * sq, np.zeros(3))
        np.testing.assert_allclose(root, [2.0, -3.0, 1e9], rtol=1e-13)
        np.testing.assert_array_equal(sq, root * root)

    def test_roots_on_their_own_paths(self):
        # one root per entry, each on its own path; a non-finite value of
        # the second only sends that one back
        def f(s):
            with np.errstate(over="ignore"):
                return np.array([np.tanh(s[0]) - 0.5,
                                 (np.exp(s[1]) if s[1] <= 4.6 else np.inf)
                                 - np.exp(4.5),
                                 2.0 - np.exp(-s[2])])

        def slope(s):
            return np.array([1.0 - np.tanh(s[0]) ** 2, np.exp(s[1]),
                             np.exp(-s[2])])

        root, at = increasing_roots(*batch(f, slope), [0.0, 4.0, 3.0])
        np.testing.assert_allclose(root, [np.arctanh(0.5), 4.5, -np.log(2.0)],
                                   rtol=0, atol=1e-13)
        np.testing.assert_array_equal(at, root)

    def test_decreasing_function_passed_negated(self):
        # a cost -3 s that falls to the budget 6 at s = -2: the root of
        # the budget minus the cost, which increases
        root, _ = increasing_roots(*batch(lambda s: 6.0 + 3.0 * s,
                                          lambda s: np.full_like(s, 3.0)),
                                   [0.0])
        assert root[0] == pytest.approx(-2.0, abs=1e-13)

    @pytest.mark.parametrize("slope", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    def test_slope_that_is_not_finite_and_positive_bisects(self, slope):
        # a line, and inverse marginals m = e^-s from 0 with their roots on
        # both sides and far apart
        m = np.array([0.5, 2.0, 1e-3, 40.0])

        def f(s):
            return np.concatenate(([s[0] - 0.3], m - np.exp(-s[1:])))

        root, _ = increasing_roots(*batch(f, lambda s: np.full_like(s, slope)),
                                   np.zeros(5))
        np.testing.assert_allclose(root, np.concatenate(([0.3], -np.log(m))),
                                   rtol=0, atol=1e-12)

    def test_root_done_at_its_start_warns_nothing(self):
        # the first root is done at its first evaluation and keeps an open
        # bracket while the second goes on stepping
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            root, _ = increasing_roots(
                *batch(lambda s: np.exp(s) - [1.0, np.exp(3.0)], np.exp),
                [0.0, 0.0])
        np.testing.assert_allclose(root, [0.0, 3.0], rtol=0, atol=1e-13)

    def test_inversion_error_at_a_far_point(self):
        # from s = 4 Newton on exp(s) = exp(4.5) steps to 4.65, where the
        # state fails; the root finder steps half way back and goes on
        failures = []

        def state(s):
            if s[0] > 4.6:
                failures.append(s[0])
                raise InversionError("beyond range")
            return np.exp(s) - np.exp(4.5), s.copy()

        root, at = increasing_roots(state, lambda s, at: np.exp(at), [4.0])
        assert failures
        assert root[0] == pytest.approx(4.5, abs=1e-13)
        np.testing.assert_array_equal(at, root)

    def test_known_lower_end_is_never_evaluated(self):
        # log(s / 1e-3) has no value at or below 0; from s = 1 Newton
        # overshoots to -5.9, and the lower end 0 keeps every point above it
        def state(s):
            assert np.all(s > 0.0)
            return np.log(s / 1e-3), s.copy()

        root, _ = increasing_roots(state, lambda s, at: 1.0 / at, [1.0],
                                   [0.0])
        assert root[0] == pytest.approx(1e-3, rel=1e-13)

    def test_jump_raises(self):
        with pytest.raises(InversionError, match="jumps"):
            increasing_roots(*batch(lambda s: np.where(s > 0.3, 1.0, -1.0),
                                    np.zeros_like), [0.0])

    def test_root_beyond_the_limit_raises(self):
        # the root s = 1e13 lies beyond |s| <= 1e12
        with pytest.raises(InversionError, match="no sign change"):
            increasing_roots(*batch(lambda s: s / 1e13 - 1.0,
                                    lambda s: np.full_like(s, 1e-13)), [0.0])

    def test_marginal_out_of_range_raises(self):
        # m - (1 + e^-s) for m = 1/2 stays below -1/2: no root at all
        with pytest.raises(InversionError, match="no sign change"):
            increasing_roots(*batch(lambda s: -0.5 - np.exp(-s),
                                    lambda s: np.exp(-s)), [0.0])

    def test_root_beyond_a_finite_state_raises(self):
        # the root s = 1000 lies beyond s = 700, past which the value is
        # not finite, as exp(s) of a log multiplier overflows past 709
        def f(s):
            return np.where(s <= 700.0, s / 1000.0 - 1.0, np.nan)

        with pytest.raises(InversionError, match="no sign change"):
            increasing_roots(*batch(f, lambda s: np.full_like(s, 1e-3)),
                             [0.0])

    def test_nan_value_raises(self):
        with pytest.raises(InversionError, match="at its start"):
            increasing_roots(lambda s: (np.full_like(s, np.nan), None),
                             lambda s, _: np.ones_like(s), [0.0])

    def test_failure_at_the_start_raises(self):
        def state(s):
            raise InversionError("fails everywhere")

        with pytest.raises(InversionError, match="at its start"):
            increasing_roots(state, lambda s, _: np.ones_like(s), [0.0, 1.0])

    def test_failure_at_every_later_point_raises(self):
        calls = []

        def state(s):
            calls.append(s[0])
            if len(calls) > 1:
                raise InversionError("fails mid-solve")
            return np.array([-1.0]), None

        with pytest.raises(InversionError, match="unconverged"):
            increasing_roots(state, lambda s, _: np.ones_like(s), [0.0])

    def test_unconverged_root_raises(self, monkeypatch):
        monkeypatch.setattr(preferences, "_BRACKET_MAX_ITER", 1)
        with pytest.raises(InversionError, match="unconverged"):
            increasing_roots(lambda s: (s ** 3 - 5.0, None),
                             lambda s, _: 3.0 * s ** 2, [1.0])


def composite_aggregator(rng):
    """Four mixed agents and a shifted exponential interdependence term."""
    p = rng.uniform(1.5, 3.0, size=3)
    agents = (ExponentialUtility(rng.uniform(0.5, 2.0), shifted=True),
              RationalPowerUtility(p[0]), ArctanPowerUtility(p[1]),
              RationalPowerUtility(p[2]))
    lam = LambdaAggregator.composite(
        ExponentialUtility(rng.uniform(0.5, 1.5), shifted=True),
        rng.uniform(0.2, 1.0, size=4))
    return Aggregator(agents, lam)


class TestInvertGradient:
    @pytest.mark.parametrize("spread", [1.0, 3.0, 6.0])
    def test_composite_roundtrip(self, spread):
        # at spread 6 the interdependence term swamps some marginals by
        # ten orders of magnitude; the gradient must still round-trip
        rng = np.random.default_rng(int(spread))
        for _ in range(10):
            a = composite_aggregator(rng)
            z = rng.uniform(-spread, spread, size=(4, 32))
            t = a.grad(z)
            back = invert_gradient(a, t)
            assert np.max(np.abs(np.log(a.grad(back)) - np.log(t))) <= 1e-10

    def test_composite_point_keeps_shape(self):
        a = composite_aggregator(np.random.default_rng(9))
        z = np.array([0.3, -0.4, 1.2, 0.0])
        back = invert_gradient(a, a.grad(z))
        assert back.shape == (4,)
        np.testing.assert_allclose(back, z, atol=1e-12)

    def test_separable_is_closed_form(self):
        a = Aggregator((ExponentialUtility(1.5), RationalPowerUtility(2.0)))
        z = np.array([[0.5, -1.0, 2.0], [-0.3, 0.7, 4.0]])
        np.testing.assert_allclose(invert_gradient(a, a.grad(z)), z,
                                   atol=1e-12)

    def test_unconverged_columns_raise(self, monkeypatch):
        a = composite_aggregator(np.random.default_rng(10))
        t = a.grad(np.random.default_rng(11).uniform(-2, 2, size=(4, 5)))
        monkeypatch.setattr(preferences, "_BRACKET_MAX_ITER", 1)
        with pytest.raises(InversionError, match="unconverged"):
            invert_gradient(a, t)

    def test_non_finite_target_raises(self):
        a = composite_aggregator(np.random.default_rng(12))
        t = np.ones((4, 3))
        t[1, 2] = np.inf
        with pytest.raises(InversionError):
            invert_gradient(a, t)

    def test_error_is_a_runtime_error(self):
        assert issubclass(InversionError, RuntimeError)


class TestPathAtLevel:
    AGG = Aggregator((RationalPowerUtility(2.0), ArctanPowerUtility(1.5)))

    def test_level_met_blockwise(self):
        rng = np.random.default_rng(40)
        q = rng.uniform(0.2, 2.0, size=(2, 5))
        w = np.array([0.5, 0.5, 0.2, 0.3, 0.5])
        start = np.array([0, 2, 5])
        level = np.array([-1.0, 0.5])
        util, cost = path_at_level(self.AGG, q, w, start, level)
        np.testing.assert_allclose(util, level, rtol=0, atol=1e-12)
        # pinning E_w[q^T z] at the cost found there comes back to the
        # same point of the path
        back = path_at_level(self.AGG, q, w, start, cost, cost=True)
        np.testing.assert_allclose(back[0], level, rtol=0, atol=1e-12)
        np.testing.assert_allclose(back[1], cost, rtol=1e-12, atol=1e-12)

    def test_start_that_fails_is_made_again_from_zero(self, monkeypatch):
        q, w = np.ones((2, 4)), np.full(4, 0.25)
        start, level = np.array([0, 2, 4]), np.array([-1.0, 0.5])
        cold = path_at_level(self.AGG, q, w, start, level)
        inner, refused = preferences._inverse, []

        def bounded(agg, target, hint=None):
            if np.max(target) > 1e6:
                refused.append(float(np.max(target)))
                raise InversionError("target beyond range")
            return inner(agg, target, hint)

        monkeypatch.setattr(preferences, "_inverse", bounded)
        warm = path_at_level(self.AGG, q, w, start, level,
                             warm=(np.array([-30.0, 0.0]), np.zeros((2, 4))))
        assert refused, "the warm start at t = -30 never failed"
        for got, want in zip(warm, cold):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8,
                                     1e-9])
    @pytest.mark.parametrize("agents", ["one", "two"])
    def test_level_met_near_the_supremum(self, agents, gap):
        # a root accepted at |f| <= 1e-9 max(1, |level|) would miss a level
        # 1e-9 below the supremum by most of the distance to it
        us = (RationalPowerUtility(2.0),)
        if agents == "two":
            us += (ArctanPowerUtility(1.5),)
        a = Aggregator(us)
        w = np.array([0.2, 0.3, 0.5])
        level = np.array([a.sup - gap])
        util, _ = path_at_level(a, np.ones((len(us), 3)), w,
                                np.array([0, 3]), level)
        assert abs(util[0] - level[0]) <= 1e-3 * gap

    @pytest.mark.parametrize("above", [0.0, 1e-12, 1.0])
    def test_level_at_or_above_supremum_raises(self, above):
        level = np.array([-1.0, self.AGG.sup + above])
        with pytest.raises(InversionError, match="supremum") as err:
            path_at_level(self.AGG, np.ones((2, 2)), np.ones(2),
                          np.array([0, 1, 2]), level)
        assert "np." not in str(err.value)

    def test_inversion_failure_mid_solve_raises(self, monkeypatch):
        a = composite_aggregator(np.random.default_rng(41))
        inner, calls = preferences._inverse, []

        def failing(agg, target, hint=None):
            calls.append(1)
            if len(calls) > 2:
                raise InversionError("gradient inversion failed")
            return inner(agg, target, hint)

        monkeypatch.setattr(preferences, "_inverse", failing)
        with pytest.raises(InversionError):
            path_at_level(a, np.ones((4, 3)), np.full(3, 1.0 / 3.0),
                          np.array([0, 3]), np.array([-1.0]))
        assert len(calls) > 2
