import warnings

import numpy as np
import pytest

from condrisk import (Aggregator, ArctanPowerUtility, CustomUtility,
                      ExponentialUtility, GrowthBoundError, InversionError,
                      LambdaAggregator, RationalPowerUtility, agg_grad,
                      agg_value, conjugate_V, growth_bound)
from condrisk import preferences
from condrisk.preferences import (invert_gradient, multiplier_newton,
                                  utility_level_roots)

ALL_KINDS = [
    ExponentialUtility(1.0),
    ExponentialUtility(2.5, shifted=True),
    RationalPowerUtility(2.0),
    RationalPowerUtility(1.5),
    ArctanPowerUtility(2.0),
    ArctanPowerUtility(3.5),
]


@pytest.mark.parametrize("u", ALL_KINDS)
class TestUnivariate:
    def test_derivative_matches_differences(self, u):
        xs = np.linspace(-4.0, 4.0, 41)
        num = (u.value(xs + 1e-6) - u.value(xs - 1e-6)) / 2e-6
        np.testing.assert_allclose(u.deriv(xs), num, rtol=1e-5, atol=1e-7)

    def test_second_derivative_matches_differences(self, u):
        # skip the kink at zero where one-sided curvature differs
        xs = np.concatenate([np.linspace(-4, -0.2, 15),
                             np.linspace(0.2, 4, 15)])
        num = (u.deriv(xs + 1e-6) - u.deriv(xs - 1e-6)) / 2e-6
        np.testing.assert_allclose(u.deriv2(xs), num, rtol=1e-4, atol=1e-6)

    def test_inverse_deriv_roundtrip(self, u):
        xs = np.linspace(-3.0, 5.0, 30)
        m = u.deriv(xs)
        np.testing.assert_allclose(u.inverse_deriv(m), xs, rtol=1e-9,
                                   atol=1e-9)

    def test_strictly_increasing_and_concave(self, u):
        rng = np.random.default_rng(2)
        a = rng.uniform(-5, 5, size=64)
        b = rng.uniform(-5, 5, size=64)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keep = hi - lo > 1e-3
        lo, hi = lo[keep], hi[keep]
        assert np.all(u.value(hi) > u.value(lo))
        mid = u.value((lo + hi) / 2)
        assert np.all(mid > (u.value(lo) + u.value(hi)) / 2)

    def test_bounded_above_by_sup(self, u):
        xs = np.linspace(-5, 60, 200)
        assert np.all(u.value(xs) <= u.sup + 1e-12)


class TestAggValue:
    def test_two_unit_agents_at_origin(self):
        a = Aggregator.exponential([1.0, 1.0])
        assert agg_value(a, [0.0, 0.0]) == pytest.approx(-2.0)

    def test_mixed_exponents(self):
        a = Aggregator.exponential([1.0, 2.0])
        got = agg_value(a, [1.0, 0.5])
        assert got == pytest.approx(-2.0 * np.exp(-1.0), abs=1e-12)
        assert got == pytest.approx(-0.7357589, abs=1e-7)

    def test_shifted_composite_vanishes_at_origin(self):
        lam = LambdaAggregator.composite(ExponentialUtility(1.0, shifted=True),
                                         [1.0, 1.0])
        a = Aggregator((ExponentialUtility(1.0, shifted=True),
                        ExponentialUtility(1.0, shifted=True)), lam)
        assert agg_value(a, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)


class TestAggGrad:
    def test_unit_exponentials_at_origin(self):
        a = Aggregator.exponential([1.0, 1.0])
        np.testing.assert_allclose(agg_grad(a, [0.0, 0.0]), [1.0, 1.0])

    def test_scaled_exponentials_at_origin(self):
        a = Aggregator.exponential([2.0, 3.0])
        np.testing.assert_allclose(agg_grad(a, [0.0, 0.0]), [2.0, 3.0])

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
            g = agg_grad(a, x)
            for j in range(3):
                step = np.zeros(3)
                step[j] = 1e-6
                num = (agg_value(a, x + step) - agg_value(a, x - step)) / 2e-6
                assert g[j] == pytest.approx(num, rel=1e-6, abs=1e-8)
        assert np.all(agg_grad(a, rng.uniform(-3, 3, size=3)) > 0)

    def test_hessian_matches_differences(self):
        lam = LambdaAggregator.composite(ExponentialUtility(1.0, shifted=True),
                                         [1.0, 0.5])
        a = Aggregator((ExponentialUtility(1.2), ExponentialUtility(0.8)), lam)
        x = np.array([0.3, -0.7])
        h = a.hessian(x)
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


class TestAggregatorProperties:
    def test_strict_monotonicity_and_concavity(self):
        a = Aggregator.exponential([1.0, 2.0, 0.5])
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.uniform(-4, 4, size=3)
            bump = rng.uniform(0.01, 1.0) * np.eye(3)[rng.integers(0, 3)]
            assert agg_value(a, x + bump) > agg_value(a, x)
            y = rng.uniform(-4, 4, size=3)
            if np.abs(x - y).max() > 1e-6:
                assert agg_value(a, (x + y) / 2) > (agg_value(a, x)
                                                    + agg_value(a, y)) / 2

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

    def test_first_order_concavity_inequality(self):
        a = Aggregator.exponential([0.5, 1.5])
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.uniform(-3, 3, size=2)
            y = rng.uniform(-3, 3, size=2)
            bound = agg_value(a, x) + agg_grad(a, x) @ (y - x)
            assert agg_value(a, y) <= bound + 1e-12


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
            assert agg_value(a, x) - conjugate_V(alphas, y) <= x @ y + 1e-10

    def test_fenchel_tight_at_gradient(self):
        alphas = np.array([1.0, 2.0])
        a = Aggregator.exponential(alphas)
        x = np.array([0.4, -0.3])
        y = agg_grad(a, x)
        gap = x @ y - (agg_value(a, x) - conjugate_V(alphas, y))
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            conjugate_V([1.0], [-0.5])


class TestGrowthBound:
    def test_raw_exponential_candidate(self):
        a = Aggregator.exponential([1.0, 1.0])
        acoef, bcoef = growth_bound(a, candidate=(1.0, 0.0))
        assert (acoef, bcoef) == (1.0, 0.0)

    def test_shifted_exponential_standard_inequality(self):
        a = Aggregator((ExponentialUtility(1.0, shifted=True),))
        growth_bound(a, candidate=(1.0, 0.0))  # 1 - e^{-x} <= x

    def test_wrong_candidate_fails(self):
        a = Aggregator((ExponentialUtility(1.0, shifted=True),))
        with pytest.raises(GrowthBoundError):
            growth_bound(a, candidate=(0.0, 0.0))

    @pytest.mark.parametrize("agg", [
        Aggregator.exponential([1.0, 2.0]),
        Aggregator((RationalPowerUtility(2.0), ArctanPowerUtility(2.0))),
        Aggregator((ExponentialUtility(0.5), ExponentialUtility(2.0)),
                   LambdaAggregator.composite(ExponentialUtility(1.0, shifted=True),
                                              [1.0, 1.0])),
    ])
    def test_derived_bound_certifies(self, agg):
        acoef, bcoef = growth_bound(agg)
        assert acoef > 0
        rng = np.random.default_rng(8)
        pts = rng.uniform(-30, 30, size=(agg.nagents, 2000))
        slack = acoef * pts.sum(axis=0) + bcoef - agg.value(pts)
        assert slack.min() >= -1e-9


class TestCustomUtility:
    def test_accepts_concave_increasing(self):
        u = CustomUtility(lambda x: -np.exp(-x), lambda x: np.exp(-x),
                          sup=0.0)
        assert u.value(0.0) == pytest.approx(-1.0)
        assert u.inverse_deriv(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-9)

    def test_rejects_convex(self):
        with pytest.raises(ValueError):
            CustomUtility(lambda x: x ** 2, lambda x: 2 * x)

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            CustomUtility(lambda x: -x - 0.001 * x ** 2 * np.sign(x) * x,
                          lambda x: -np.ones_like(x))


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
        monkeypatch.setattr(preferences, "_INVERT_MAX_ITER", 1)
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


def scalar(value, slope, payload="z"):
    """A one-root state from scalar value and slope functions of t."""
    return lambda t: (np.array([value(t[0])]), np.array([slope(t[0])]),
                      payload)


class TestMultiplierNewton:
    def test_finds_root_and_returns_state(self):
        root, payload = multiplier_newton(
            scalar(np.tanh, lambda t: 1.0 - np.tanh(t) ** 2), [0.5], [0.0])
        assert root[0] == pytest.approx(np.arctanh(0.5), abs=1e-13)
        assert payload == "z"

    def test_decreasing(self):
        root, _ = multiplier_newton(scalar(lambda t: -3.0 * t,
                                           lambda t: -3.0),
                                    [6.0], [0.0], increasing=False)
        assert root[0] == pytest.approx(-2.0, abs=1e-13)

    def test_jump_raises(self):
        with pytest.raises(InversionError, match="jumps"):
            multiplier_newton(scalar(lambda t: 1.0 if t > 0.3 else -1.0,
                                     lambda t: 0.0), [0.0], [0.0])

    def test_inversion_error_at_a_far_point(self):
        # from t = 4 Newton on exp(t) = exp(4.5) steps to 4.65, where the
        # state fails; the root finder steps half way back and goes on
        failures = []

        def state(t):
            if t[0] > 4.6:
                failures.append(t[0])
                raise InversionError("beyond range")
            return np.exp(t), np.exp(t), "z"

        root, payload = multiplier_newton(state, [np.exp(4.5)], [4.0])
        assert failures and payload == "z"
        assert root[0] == pytest.approx(4.5, abs=1e-13)

    def test_roots_of_a_batch(self):
        # one root per entry, each on its own path; a non-finite value of
        # the second only sends that one back
        levels = np.array([0.5, np.exp(4.5), -2.0])

        def state(t):
            with np.errstate(over="ignore"):
                value = np.array([np.tanh(t[0]),
                                  np.exp(t[1]) if t[1] <= 4.6 else np.inf,
                                  -np.exp(-t[2])])
            slope = np.array([1.0 - np.tanh(t[0]) ** 2, np.exp(t[1]),
                              np.exp(-t[2])])
            return value, slope, t.copy()

        root, at = multiplier_newton(state, levels, [0.0, 4.0, 3.0])
        np.testing.assert_allclose(root, [np.arctanh(0.5), 4.5, -np.log(2.0)],
                                   rtol=0, atol=1e-13)
        np.testing.assert_array_equal(at, root)

    def test_root_done_at_its_start_warns_nothing(self):
        # the first root is done at its first evaluation and keeps an open
        # bracket while the second goes on stepping
        def state(t):
            return np.exp(t), np.exp(t), t.copy()

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            root, _ = multiplier_newton(state, [1.0, np.exp(3.0)], [0.0, 0.0])
        np.testing.assert_allclose(root, [0.0, 3.0], rtol=0, atol=1e-13)

    def test_level_out_of_reach_raises(self):
        # the root t = 1000 lies beyond |log mu| <= 600
        with pytest.raises(InversionError, match="reaches"):
            multiplier_newton(scalar(lambda t: t / 1000.0, lambda t: 1e-3),
                              [1.0], [0.0])

    def test_failure_at_every_point_raises(self):
        calls = []

        def state(t):
            calls.append(t[0])
            if len(calls) > 1:
                raise InversionError("fails mid-solve")
            return np.array([-1.0]), np.array([1.0]), "z"

        with pytest.raises(InversionError, match="did not converge"):
            multiplier_newton(state, [0.0], [0.0])


class TestUtilityLevelRoots:
    AGG = Aggregator((RationalPowerUtility(2.0), ArctanPowerUtility(1.5)))

    def test_level_met_blockwise(self):
        rng = np.random.default_rng(40)
        q = rng.uniform(0.2, 2.0, size=(2, 5))
        w = np.array([0.5, 0.5, 0.2, 0.3, 0.5])
        start = np.array([0, 2, 5])
        level = np.array([-1.0, 0.5])
        z, t = utility_level_roots(self.AGG, q, w, start, level)
        np.testing.assert_allclose(self.AGG.grad(z),
                                   q / np.exp(np.repeat(t, [2, 3])),
                                   rtol=1e-12)
        util = np.add.reduceat(w * self.AGG.value(z), start[:-1])
        np.testing.assert_allclose(util, level, rtol=0, atol=1e-12)

    def test_start_that_fails_is_made_again_from_zero(self, monkeypatch):
        q, w = np.ones((2, 4)), np.full(4, 0.25)
        start, level = np.array([0, 2, 4]), np.array([-1.0, 0.5])
        cold = utility_level_roots(self.AGG, q, w, start, level)
        inner = preferences.invert_gradient

        def bounded(agg, target):
            if np.max(target) > 1e6:
                raise InversionError("target beyond range")
            return inner(agg, target)

        monkeypatch.setattr(preferences, "invert_gradient", bounded)
        z, t = utility_level_roots(self.AGG, q, w, start, level,
                                   np.array([-30.0, 0.0]))
        np.testing.assert_allclose(t, cold[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(z, cold[0], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("above", [0.0, 1e-12, 1.0])
    def test_level_at_or_above_supremum_raises(self, above):
        level = np.array([-1.0, self.AGG.sup + above])
        with pytest.raises(InversionError, match="supremum"):
            utility_level_roots(self.AGG, np.ones((2, 2)), np.ones(2),
                                np.array([0, 1, 2]), level)

    def test_inversion_failure_mid_solve_raises(self, monkeypatch):
        a = composite_aggregator(np.random.default_rng(41))
        inner, calls = preferences.invert_gradient, []

        def failing(agg, target):
            calls.append(1)
            if len(calls) > 2:
                raise InversionError("gradient inversion failed")
            return inner(agg, target)

        monkeypatch.setattr(preferences, "invert_gradient", failing)
        with pytest.raises(InversionError):
            utility_level_roots(a, np.ones((4, 3)), np.full(3, 1.0 / 3.0),
                                np.array([0, 3]), np.array([-1.0]))
        assert len(calls) > 2