from decimal import Decimal, localcontext

import numpy as np
import pytest

from condrisk import (a_hat_closed, alpha1_entropic, cond_exp,
                      cond_exp_under_density, exp_constants, q_hat_closed,
                      rho_closed, y_hat_closed)
from condrisk.exponential import _log_cond_exp_exp
from condrisk.prob_space import DensityVector, ScenarioSpace, SigmaPartition
from conftest import CANONICAL, random_exponential_instance, random_partition


def trivial(k=2):
    space = ScenarioSpace.uniform(k)
    return space, SigmaPartition.trivial(space)


class TestConstants:
    def test_single_unit_agent(self):
        c = exp_constants([1.0])
        assert c.beta == 1.0 and c.a_total == 0.0

    def test_two_unit_agents(self):
        c = exp_constants([1.0, 1.0])
        assert c.beta == 2.0 and c.a_total == 0.0

    def test_mixed(self):
        c = exp_constants([1.0, 2.0])
        assert c.beta == pytest.approx(1.5)
        assert c.a_j[1] == pytest.approx(-0.346573590279972655, abs=1e-15)
        assert c.a_total == pytest.approx(-0.346573590279972655, abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            exp_constants([1.0, 0.0])


class TestRhoClosed:
    def test_zero_positions_threshold_minus_beta(self):
        space, g = trivial()
        c = exp_constants([1.0, 1.0])
        out = rho_closed(np.zeros((2, 2)), np.full(2, -2.0), g, c)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_log_scaling(self):
        space, g = trivial()
        c = exp_constants([1.0])
        out = rho_closed(np.zeros((1, 2)), np.full(2, -np.e), g, c)
        np.testing.assert_allclose(out, -1.0, atol=1e-14)

    def test_canonical(self):
        space, g = trivial()
        c = exp_constants([1.0, 1.0])
        out = rho_closed(np.array([[1.0, -1.0], [0.0, 0.0]]),
                         np.full(2, -2.0), g, c)
        np.testing.assert_allclose(out, CANONICAL["rho"], atol=1e-15)
        np.testing.assert_allclose(out, 2 * np.log(np.cosh(0.5)), atol=1e-14)

    def test_rejects_nonnegative_threshold(self):
        space, g = trivial()
        c = exp_constants([1.0, 1.0])
        with pytest.raises(ValueError):
            rho_closed(np.zeros((2, 2)), np.array([-1.0, 0.0]), g, c)

    def test_cash_additivity_exact(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            spec, c = random_exponential_instance(rng, kmax=16, nmax=4)
            shift = rng.uniform(-2, 2, size=(spec.nagents, 1))
            base = rho_closed(spec.x, spec.b, spec.sigma, c)
            moved = rho_closed(spec.x + shift, spec.b, spec.sigma, c)
            np.testing.assert_allclose(moved, base - shift.sum(), atol=1e-12)

    def test_stable_for_large_positions(self):
        space, g = trivial()
        c = exp_constants([1.0, 1.0])
        x = np.array([[400.0, -400.0], [0.0, 0.0]])
        out = rho_closed(x, np.full(2, -2.0), g, c)
        assert np.all(np.isfinite(out))
        # blockwise max dominates: rho ~ 400 - beta log 2 + beta log(beta/-B)
        assert out[0] == pytest.approx(400 + 2 * np.log(0.5), abs=1e-9)


class TestYHat:
    def test_zero_instance(self):
        space, g = trivial()
        c = exp_constants([1.0, 1.0])
        y = y_hat_closed(np.zeros((2, 2)), np.full(2, -2.0), g, c)
        np.testing.assert_allclose(y, 0.0, atol=1e-15)

    def test_canonical_values(self):
        space, g = trivial()
        c = exp_constants([1.0, 1.0])
        y = y_hat_closed(np.array([[1.0, -1.0], [0.0, 0.0]]),
                         np.full(2, -2.0), g, c)
        np.testing.assert_allclose(y, CANONICAL["y"], atol=1e-15)

    def test_row_sum_identity_random(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            spec, c = random_exponential_instance(rng, kmax=16, nmax=5)
            y = y_hat_closed(spec.x, spec.b, spec.sigma, c)
            rho = rho_closed(spec.x, spec.b, spec.sigma, c)
            np.testing.assert_allclose(y.sum(axis=0), rho, atol=1e-12)


class TestQHat:
    def test_zero_positions_give_reference(self):
        space, g = trivial()
        c = exp_constants([1.0, 1.0])
        q = q_hat_closed(np.zeros((2, 2)), g, c)
        np.testing.assert_allclose(q.q, 1.0, atol=1e-15)

    def test_canonical(self):
        space, g = trivial()
        c = exp_constants([1.0, 1.0])
        q = q_hat_closed(np.array([[1.0, -1.0], [0.0, 0.0]]), g, c)
        np.testing.assert_allclose(q.q, np.tile(CANONICAL["q"], (2, 1)),
                                   atol=1e-15)

    def test_blockwise_mean_one_random(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            spec, c = random_exponential_instance(rng, kmax=24, nmax=4)
            q = q_hat_closed(spec.x, spec.sigma, c)
            means = spec.sigma.blockwise_mean(q.q)
            np.testing.assert_allclose(means, 1.0, atol=1e-12)
            assert np.max(np.abs(q.q - q.q[0][None, :])) == 0.0


class TestAHat:
    def test_zero_instance(self):
        space, g = trivial()
        c = exp_constants([1.0, 1.0])
        a = a_hat_closed(np.zeros((2, 2)), np.full(2, -2.0), g, c)
        np.testing.assert_allclose(a, 0.0, atol=1e-15)

    def test_canonical_values(self):
        space, g = trivial()
        c = exp_constants([1.0, 1.0])
        a = a_hat_closed(np.array([[1.0, -1.0], [0.0, 0.0]]),
                         np.full(2, -2.0), g, c)
        np.testing.assert_allclose(a[:, 0], CANONICAL["a"], atol=1e-15)
        np.testing.assert_allclose(a.sum(axis=0), CANONICAL["rho"],
                                   atol=1e-15)

    def test_sum_identity_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            spec, c = random_exponential_instance(rng, kmax=16, nmax=5)
            a = a_hat_closed(spec.x, spec.b, spec.sigma, c)
            rho = rho_closed(spec.x, spec.b, spec.sigma, c)
            np.testing.assert_allclose(a.sum(axis=0), rho, atol=1e-12)
            for j in range(spec.nagents):
                np.testing.assert_allclose(a[j], cond_exp(a[j], spec.sigma),
                                           atol=1e-12)


class TestEntropicPenalty:
    def test_reference_measure(self):
        space, g = trivial()
        c = exp_constants([1.0])
        q = DensityVector(np.ones((1, 2)), g)
        out = alpha1_entropic(q, np.full(2, -np.e), g, c)
        np.testing.assert_allclose(out, 1.0, atol=1e-14)

    def test_canonical(self):
        space, g = trivial()
        c = exp_constants([1.0, 1.0])
        q = q_hat_closed(np.array([[1.0, -1.0], [0.0, 0.0]]), g, c)
        out = alpha1_entropic(q, np.full(2, -2.0), g, c)
        np.testing.assert_allclose(out, CANONICAL["alpha1"], atol=1e-15)

    def test_duality_chain_closes_random(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            spec, c = random_exponential_instance(rng, kmax=16, nmax=4)
            q = q_hat_closed(spec.x, spec.sigma, c)
            rho = rho_closed(spec.x, spec.b, spec.sigma, c)
            pen = alpha1_entropic(q, spec.b, spec.sigma, c)
            cost = np.zeros(spec.space.natoms)
            for j in range(spec.nagents):
                cost += cond_exp_under_density(q.row(j), -spec.x[j],
                                               spec.sigma)
            np.testing.assert_allclose(rho, cost - pen, atol=1e-10)

    def test_rejects_mismatched_rows(self):
        space, g = trivial()
        c = exp_constants([1.0, 1.0])
        q = DensityVector(np.array([[1.5, 0.5], [0.5, 1.5]]), g)
        with pytest.raises(ValueError):
            alpha1_entropic(q, np.full(2, -2.0), g, c)


class TestLogCondExpExp:
    """The blockwise log-sum-exp behind the closed forms, against
    log E[exp(s) | g] in 60-digit decimal arithmetic."""

    @staticmethod
    def reference(s, g):
        with localcontext() as ctx:
            ctx.prec = 60
            p = [Decimal(float(v)) for v in g.space.prob]
            out = np.empty(s.size)
            for blk in g.blocks:
                mass = sum(p[i] for i in blk)
                mean = sum(p[i] * Decimal(float(s[i])).exp()
                           for i in blk) / mass
                out[list(blk)] = float(mean.ln())
        return out

    def test_finite_and_exact_for_spreads_up_to_700(self):
        rng = np.random.default_rng(71)
        worst = 0.0
        for _ in range(60):
            k = int(rng.integers(1, 33))
            space = ScenarioSpace(tuple(f"w{i}" for i in range(k)),
                                  rng.dirichlet(np.ones(k)))
            g = random_partition(rng, space)
            # within a block s spreads over up to +-700 around a centre
            # that can take exp(s) past the float range on either side
            half = 10.0 ** rng.uniform(0.0, np.log10(700.0))
            centre = g.expand(rng.uniform(-500.0, 500.0, g.nblocks))
            s = centre + rng.uniform(-half, half, k)
            got = _log_cond_exp_exp(s, g)
            assert np.all(np.isfinite(got))
            ref = self.reference(s, g)
            worst = max(worst, float(np.max(np.abs(got - ref)
                                            / np.maximum(1.0, np.abs(ref)))))
            # a matrix of such rows gives its rows bit for bit
            rows = np.stack([s, -s, s[::-1].copy()])
            np.testing.assert_array_equal(
                _log_cond_exp_exp(rows, g),
                np.stack([_log_cond_exp_exp(r, g) for r in rows]))
        assert worst <= 4 * np.finfo(float).eps
