from dataclasses import replace

import numpy as np
import pytest

from condrisk import (Aggregator, ArctanPowerUtility, ClusterConstraint,
                      ConvergenceError, ExponentialUtility,
                      LambdaAggregator, RationalPowerUtility, RiskSpec,
                      ScenarioSpace, SigmaPartition, check_axioms, cond_exp,
                      exp_constants, feasible_start, grid_min_rho,
                      is_measurable, rho_closed, solve_rho, y_hat_closed)
from condrisk import extract_dual_optimizer, preferences, primal
from conftest import (CANONICAL, CurvedExponential, make_canonical_spec,
                      random_exponential_instance)


def newton_rho(spec, start=None):
    """solve_rho through the batched Newton, from start if given, even where
    the closed form of exponential agents applies."""
    return primal._solve_newton([spec], None if start is None else [start])[0]


class TestRiskSpecInvariants:
    def test_rejects_unmeasurable_threshold(self, canonical_spec):
        space = canonical_spec.space
        with pytest.raises(ValueError):
            RiskSpec(space=space, sigma=canonical_spec.sigma,
                     x=canonical_spec.x, aggregator=canonical_spec.aggregator,
                     b=np.array([-2.0, -1.0]),
                     clusters=canonical_spec.clusters)

    def test_rejects_threshold_at_sup(self, canonical_spec):
        with pytest.raises(ValueError):
            canonical_spec.with_b(np.zeros(2))

    def test_rejects_wrong_cluster_size(self, canonical_spec):
        with pytest.raises(ValueError):
            RiskSpec(space=canonical_spec.space, sigma=canonical_spec.sigma,
                     x=canonical_spec.x, aggregator=canonical_spec.aggregator,
                     b=canonical_spec.b,
                     clusters=ClusterConstraint.full_sharing(3))


    @pytest.mark.parametrize("field, value", [
        ("kkt_tol", np.inf), ("kkt_tol", np.nan), ("kkt_tol", -1.0),
        ("kkt_tol", 0.0), ("max_iter", -1), ("max_iter", 200.0),
    ])
    def test_rejects_bad_tolerances(self, canonical_spec, field, value):
        with pytest.raises(ValueError, match=field):
            replace(canonical_spec, **{field: value})


class TestFeasibleStart:
    def test_zero_position_activity(self):
        # both agents at marginal utility 1, where -2 e^-z meets -2
        space = ScenarioSpace.uniform(2)
        spec = RiskSpec(space=space, sigma=SigmaPartition.trivial(space),
                        x=np.zeros((2, 2)),
                        aggregator=Aggregator.exponential([1.0, 1.0]),
                        b=np.full(2, -2.0),
                        clusters=ClusterConstraint.full_sharing(2))
        m = feasible_start(spec)
        util = cond_exp(spec.aggregator.value(spec.x + m), spec.sigma)
        np.testing.assert_allclose(util, spec.b, rtol=1e-12)
        np.testing.assert_allclose(m, 0.0, atol=1e-12)
        assert np.all(m[:, 0] == m[:, 1])  # constant per agent

    def test_translation_property(self, canonical_spec):
        # a constant shift of each agent's positions on the block leaves
        # the start's marginal utilities, and moves its start against it
        shift = np.array([0.7, -1.3])
        moved = canonical_spec.with_x(canonical_spec.x + shift[:, None])
        m0 = feasible_start(canonical_spec)
        m = feasible_start(moved)
        np.testing.assert_allclose(m, m0 - shift[:, None], atol=1e-12)
        for spec, start in ((canonical_spec, m0), (moved, m)):
            grad = spec.aggregator.grad(spec.x + start)
            # where the cluster's total position is least, its agents
            # share one marginal
            low = np.argmin(spec.x.sum(axis=0))
            assert grad[0, low] == pytest.approx(grad[1, low], rel=1e-12)

    @staticmethod
    def start_and_roots(monkeypatch, spec):
        """feasible_start(spec) and the roots t of its one root find."""
        roots, inner = [], primal.increasing_roots

        def recorded(*args):
            out = inner(*args)
            roots.append(out[0])
            return out

        with monkeypatch.context() as patch:
            patch.setattr(primal, "increasing_roots", recorded)
            start = feasible_start(spec)
        assert len(roots) == 1
        return start, roots[0]

    @staticmethod
    def wide_specs():
        rng = np.random.default_rng(29)
        spec = TestOnePassPerPoint.wide_spec(rng)
        groups = (((0, 1), (2, 3)), ((0, 2, 3), (1,)), ((0, 1, 2, 3),),
                  ((0,), (1,), (2,), (3,)))
        return [replace(spec, clusters=ClusterConstraint(g)) for g in groups]

    def test_singleton_clusters_keep_their_own_formula(self, monkeypatch):
        # an agent alone in its cluster starts at zhat(t) - min over the
        # block of its own x, bit for bit
        for spec in self.wide_specs():
            start, t = self.start_and_roots(monkeypatch, spec)
            blocks, cols = spec._blocks
            first, of = blocks.start[:-1], blocks.of
            zhat = spec.aggregator.inverse_marginals(
                np.exp(-t) * np.ones((spec.nagents, t.size)))[0]
            own = (zhat - np.minimum.reduceat(blocks.x, first, axis=1))[:, of]
            for group in spec.clusters.groups:
                if len(group) == 1:
                    np.testing.assert_array_equal(start[group[0], cols],
                                                  own[group[0]])

    def test_cluster_sums_constant_and_constraint_active(self):
        for spec in self.wide_specs():
            start = feasible_start(spec)
            for group in spec.clusters.groups:
                total = start[list(group)].sum(axis=0)
                for blk in spec.sigma.blocks:
                    part = total[list(blk)]
                    assert np.ptp(part) <= 8 * np.finfo(float).eps * max(
                        1.0, np.abs(part).max())
            util = cond_exp(spec.aggregator.value(spec.x + start), spec.sigma)
            np.testing.assert_allclose(util, spec.b, rtol=1e-12, atol=1e-12)

    def test_least_total_position_has_the_root_marginal(self, monkeypatch):
        # where a cluster's total position is least on a block, each of its
        # agents has the marginal utility e^-t of its own utility, t the
        # block's root
        for spec in self.wide_specs():
            start, t = self.start_and_roots(monkeypatch, spec)
            z = spec.x + start
            for m, blk in enumerate(spec.sigma.blocks):
                blk = list(blk)
                for group in spec.clusters.groups:
                    low = blk[np.argmin(spec.x[list(group)][:, blk]
                                        .sum(axis=0))]
                    for j in group:
                        own = spec.aggregator.utilities[j].terms(z[j, low])[1]
                        assert own == pytest.approx(np.exp(-t[m]),
                                                    rel=1e-12)

    def test_threshold_near_supremum(self):
        space = ScenarioSpace.uniform(2)
        agg = Aggregator.exponential([1.0])
        for b_val in (-1.0, -1e-4, -2e-9):
            spec = RiskSpec(space=space, sigma=SigmaPartition.trivial(space),
                            x=np.zeros((1, 2)), aggregator=agg,
                            b=np.full(2, b_val),
                            clusters=ClusterConstraint.full_sharing(1))
            m = feasible_start(spec)
            util = float(cond_exp(agg.value(m), spec.sigma)[0])
            assert util == pytest.approx(b_val, rel=1e-12)
        # the start grows as the threshold rises toward the supremum
        starts = []
        for b_val in (-1.0, -1e-2, -1e-4):
            spec = RiskSpec(space=space, sigma=SigmaPartition.trivial(space),
                            x=np.zeros((1, 2)), aggregator=agg,
                            b=np.full(2, b_val),
                            clusters=ClusterConstraint.full_sharing(1))
            starts.append(feasible_start(spec)[0, 0])
        assert starts[0] < starts[1] < starts[2]

    def test_start_far_out(self):
        # the start sits near 2e7, where one ulp of it is 3.7e-9 and its
        # root, t = 33.8, moves it by 1e6 per unit
        space = ScenarioSpace.uniform(2)
        spec = RiskSpec(space=space, sigma=SigmaPartition.trivial(space),
                        x=np.zeros((1, 2)),
                        aggregator=Aggregator.exponential([1e-6]),
                        b=np.full(2, -2e-9),
                        clusters=ClusterConstraint.full_sharing(1))
        m = feasible_start(spec)
        assert float(cond_exp(spec.aggregator.value(m), spec.sigma)[0]) \
            == pytest.approx(-2e-9, rel=1e-12)
        closed = rho_closed(spec.x, spec.b, spec.sigma, exp_constants([1e-6]))
        np.testing.assert_allclose(solve_rho(spec).rho, closed, rtol=1e-6)


class TestSolveRho:
    def test_single_agent_zero(self):
        space = ScenarioSpace.uniform(2)
        spec = RiskSpec(space=space, sigma=SigmaPartition.trivial(space),
                        x=np.zeros((1, 2)),
                        aggregator=Aggregator.exponential([1.0]),
                        b=np.full(2, -1.0),
                        clusters=ClusterConstraint.full_sharing(1))
        sol = solve_rho(spec)
        np.testing.assert_allclose(sol.rho, 0.0, atol=1e-10)
        np.testing.assert_allclose(sol.y_hat, 0.0, atol=1e-10)

    def test_canonical_value_and_allocation(self, canonical_spec):
        sol = solve_rho(canonical_spec)
        np.testing.assert_allclose(sol.rho, CANONICAL["rho"], atol=1e-10)
        np.testing.assert_allclose(sol.y_hat, CANONICAL["y"], atol=1e-9)
        np.testing.assert_allclose(sol.y_hat.sum(axis=0), sol.rho, atol=1e-12)

    def test_constraint_active_blockwise(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            spec, _ = random_exponential_instance(rng, kmax=16, nmax=4)
            sol = solve_rho(spec)
            util = cond_exp(spec.aggregator.value(spec.x + sol.y_hat),
                            spec.sigma)
            np.testing.assert_allclose(util, spec.b, atol=5 * spec.kkt_tol)

    def test_marginal_utilities_equal_within_clusters(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            spec, _ = random_exponential_instance(rng, kmax=12, nmax=5,
                                                  clusters=2)
            sol = solve_rho(spec)
            grads = spec.aggregator.grad(spec.x + sol.y_hat)
            for group in spec.clusters.groups:
                rows = grads[list(group), :]
                assert np.max(np.abs(rows - rows[0])) <= 1e-7

    def test_cluster_sums_measurable(self):
        rng = np.random.default_rng(12)
        spec, _ = random_exponential_instance(rng, kmax=12, nmax=5, clusters=2)
        sol = solve_rho(spec)
        for group in spec.clusters.groups:
            s = sol.y_hat[list(group), :].sum(axis=0)
            assert is_measurable(s, spec.sigma, tol=1e-8)
        np.testing.assert_allclose(sol.y_hat.sum(axis=0), sol.rho, atol=1e-8)

    def test_uniqueness_across_starts(self):
        rng = np.random.default_rng(13)
        spec, _ = random_exponential_instance(rng, kmax=10, nmax=3)
        sol_a = newton_rho(spec)
        jitter = rng.uniform(0.2, 1.0, size=(spec.nagents, 1))
        sol_b = newton_rho(spec, start=feasible_start(spec) + jitter)
        assert np.max(np.abs(sol_a.y_hat - sol_b.y_hat)) <= 1e-7

    def test_block_decomposition_under_atom_permutation(self):
        rng = np.random.default_rng(14)
        spec, _ = random_exponential_instance(rng, kmax=12, nmax=3)
        k = spec.space.natoms
        perm = rng.permutation(k)
        inv = np.argsort(perm)
        space_p = ScenarioSpace(tuple(spec.space.atom_labels[i] for i in perm),
                                spec.space.prob[perm])
        blocks_p = tuple(tuple(int(inv[i]) for i in blk)
                         for blk in spec.sigma.blocks)
        spec_p = RiskSpec(space=space_p,
                          sigma=SigmaPartition(space_p, blocks_p),
                          x=spec.x[:, perm], aggregator=spec.aggregator,
                          b=spec.b[perm], clusters=spec.clusters)
        sol = solve_rho(spec)
        sol_p = solve_rho(spec_p)
        np.testing.assert_allclose(sol_p.rho[inv], sol.rho, atol=1e-12)
        np.testing.assert_allclose(sol_p.y_hat[:, inv], sol.y_hat, atol=1e-10)

    def test_oracle_equivalence_tiny_instances(self):
        step = 1e-3
        cases = []
        cases.append((make_canonical_spec(), -1.0, 1.0))
        space3 = ScenarioSpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
        g3 = SigmaPartition(space3, ((0, 1), (2,)))
        cases.append((RiskSpec(
            space=space3, sigma=g3,
            x=np.array([[0.5, -0.5, 1.0], [-0.2, 0.1, 0.4]]),
            aggregator=Aggregator.exponential([1.0, 2.0]),
            b=g3.expand(np.array([-1.5, -2.5])),
            clusters=ClusterConstraint.full_sharing(2)), -2.0, 2.0))
        cases.append((RiskSpec(
            space=space3, sigma=g3,
            x=np.array([[0.5, -0.5, 1.0], [-0.2, 0.1, 0.4]]),
            aggregator=Aggregator.exponential([1.0, 2.0]),
            b=g3.expand(np.array([-1.5, -2.5])),
            clusters=ClusterConstraint.no_sharing(2)), -2.0, 2.0))
        for spec, lo, hi in cases:
            sol = solve_rho(spec)
            oracle = grid_min_rho(spec, lo, hi, step)
            per_block = np.array([sol.rho[blk[0]]
                                  for blk in spec.sigma.blocks])
            np.testing.assert_allclose(oracle, per_block, atol=2 * step)

    def test_nonexponential_kinds_against_oracle(self):
        space = ScenarioSpace.uniform(2)
        g = SigmaPartition.trivial(space)
        agg = Aggregator((RationalPowerUtility(2.0), ArctanPowerUtility(2.0)))
        spec = RiskSpec(space=space, sigma=g,
                        x=np.array([[1.0, -1.0], [0.0, 0.5]]),
                        aggregator=agg, b=np.full(2, -0.5),
                        clusters=ClusterConstraint.full_sharing(2))
        sol = solve_rho(spec)
        oracle = grid_min_rho(spec, -3.0, 2.0, 1e-3)
        assert sol.rho[0] == pytest.approx(oracle[0], abs=2e-3)

    def test_lambda_term_against_oracle(self):
        space = ScenarioSpace.uniform(2)
        g = SigmaPartition.trivial(space)
        lam = LambdaAggregator.composite(ExponentialUtility(1.0, shifted=True),
                                         [0.5, 0.5])
        agg = Aggregator((ExponentialUtility(1.0), ExponentialUtility(2.0)),
                         lam)
        spec = RiskSpec(space=space, sigma=g,
                        x=np.array([[1.0, -1.0], [0.0, 0.0]]),
                        aggregator=agg, b=np.full(2, -1.0),
                        clusters=ClusterConstraint.full_sharing(2))
        sol = solve_rho(spec)
        oracle = grid_min_rho(spec, -2.0, 1.0, 1e-3)
        assert sol.rho[0] == pytest.approx(oracle[0], abs=2e-3)


def dense_kkt_step(agg, groups, xb, w, bval, y, d, lam, mu):
    """Newton step of one block from its dense KKT Jacobian, in the
    unknowns (y, d, lam, mu): the reference for the structured step."""
    n, el = y.shape
    h = len(groups)
    member = np.empty(n, dtype=int)
    for m, g in enumerate(groups):
        member[list(g)] = m
    z = xb + y
    _, grad, d2, v2 = agg.terms(z)
    beta = np.zeros(n) if agg.separable else agg.lam.weights
    hess = (d2.T[:, :, None] * np.eye(n)
            + np.multiply.outer(v2, np.outer(beta, beta)))
    r_y = -lam[member] - mu * w * grad
    r_d = 1.0 + lam.sum(axis=1)
    r_c = np.stack([y[list(g)].sum(axis=0) - d[m] for m, g in enumerate(groups)])
    r_u = w @ agg.value(z) - bval
    ny = n * el
    size = ny + h + h * el + 1
    jac = np.zeros((size, size))
    ar = np.arange(el)
    for i in range(n):
        ri = i * el + ar
        for i2 in range(n):
            jac[ri, i2 * el + ar] = -mu * w * hess[:, i, i2]
        li = ny + h + member[i] * el + ar
        jac[ri, li] = -1.0
        jac[li, ri] = 1.0
        jac[ri, -1] = -w * grad[i]
        jac[-1, ri] = w * grad[i]
    for m in range(h):
        lm = ny + h + m * el + ar
        jac[lm, ny + m] = -1.0
        jac[ny + m, lm] = 1.0
    rvec = np.concatenate([r_y.ravel(), r_d, r_c.ravel(), [r_u]])
    return np.linalg.solve(jac, -rvec)


class TestBatchedNewton:
    AGGREGATORS = {
        "exponential": Aggregator.exponential([0.5, 1.0, 2.0]),
        "composite": Aggregator(
            (ExponentialUtility(1.0), RationalPowerUtility(2.0),
             ArctanPowerUtility(3.0)),
            LambdaAggregator.composite(ExponentialUtility(0.8, shifted=True),
                                       [0.5, 1.0, 0.3])),
    }
    GROUPS = {"full": ((0, 1, 2),), "partial": ((0, 2), (1,)),
              "none": ((0,), (1,), (2,))}

    @pytest.mark.parametrize("kind", sorted(AGGREGATORS))
    @pytest.mark.parametrize("sharing", sorted(GROUPS))
    def test_step_equals_dense_kkt_step(self, kind, sharing):
        agg, groups = self.AGGREGATORS[kind], self.GROUPS[sharing]
        h = len(groups)
        rng = np.random.default_rng(16)
        sizes = np.array([1, 3, 5])
        for _ in range(5):
            start = np.concatenate(([0], np.cumsum(sizes)))
            k = start[-1]
            w = np.concatenate([rng.dirichlet(np.ones(s)) for s in sizes])
            blocks = primal._Blocks(rng.uniform(-1.0, 1.0, (3, k)), w,
                                    rng.uniform(-4.0, -1.0, sizes.size),
                                    start)
            y = rng.uniform(-1.0, 1.0, (3, k))
            d = rng.uniform(-2.0, 2.0, (h, sizes.size))
            lam = -rng.uniform(0.1, 1.0, (h, k))
            mu = rng.uniform(0.5, 2.0, sizes.size)
            r = primal._residual(agg, groups, blocks, y, d, lam, mu)
            dy, dd, dlam, dmu, ok = primal._newton_step(agg, groups, blocks,
                                                        y, mu, r)
            assert ok.all()
            for m in range(sizes.size):
                cols = slice(start[m], start[m + 1])
                dense = dense_kkt_step(agg, groups, blocks.x[:, cols],
                                       w[cols], blocks.b[m], y[:, cols],
                                       d[:, m], lam[:, cols], mu[m])
                step = np.concatenate([dy[:, cols].ravel(), dd[:, m],
                                       dlam[:, cols].ravel(), [dmu[m]]])
                assert (np.max(np.abs(step - dense))
                        <= 1e-10 * np.max(np.abs(dense)))

    @staticmethod
    def four_block_spec(b_blocks):
        """One agent, four blocks: the instance of the batching and
        locality tests."""
        probs = np.array([6.6, 3.9, 7.7, 9.4, 28, 0.9, 18.9, 6.9, 17.6])
        space = ScenarioSpace(tuple(f"w{i}" for i in range(9)),
                              probs / probs.sum())
        g = SigmaPartition(space, ((0, 2, 5, 6), (1,), (3,), (4, 7, 8)))
        return RiskSpec(space=space, sigma=g,
                        x=np.array([[1.7, -0.5, 1.4, 1.3, 2.6, -2.3, 1.4,
                                     2.6, 2.8]]),
                        aggregator=Aggregator.exponential([1.7]),
                        b=g.expand(np.array(b_blocks)),
                        clusters=ClusterConstraint.full_sharing(1))

    def test_blocks_solve_as_if_alone(self):
        # one agent, four blocks, each started 2 above its own start: a
        # fast block, a slow one near the supremum and two in between, all
        # stepped by Newton (from its root a single agent takes no step)
        spec = self.four_block_spec([-4.9, -0.05, -0.19, -0.31])
        g, space = spec.sigma, spec.space
        start = feasible_start(spec) + 2.0
        sol = newton_rho(spec, start=start)
        assert 0 < sol.iterations[0] < 50 < sol.iterations[1]
        assert np.all(sol.iterations[2:] > 0)
        for m, blk in enumerate(g.blocks):
            idx = list(blk)
            sub = ScenarioSpace(tuple(space.atom_labels[i] for i in idx),
                                space.prob[idx] / space.prob[idx].sum())
            alone = newton_rho(RiskSpec(
                space=sub, sigma=SigmaPartition.trivial(sub),
                x=spec.x[:, idx], aggregator=spec.aggregator, b=spec.b[idx],
                clusters=spec.clusters), start=start[:, idx])
            assert alone.iterations[0] == sol.iterations[m]
            np.testing.assert_allclose(alone.y_hat, sol.y_hat[:, idx],
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(alone.rho[0], sol.rho[idx[0]],
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(alone.mu[0], sol.mu[m], rtol=1e-12)

    def test_start_is_local_to_each_block(self):
        # the local property reaches the solver: raising one block's
        # threshold toward the supremum leaves every other block's start,
        # Newton path and solution exactly as they were
        spec = self.four_block_spec([-4.9, -0.05, -0.19, -0.31])
        spec_r = self.four_block_spec([-4.9, -1e-3, -0.19, -0.31])
        sol = newton_rho(spec, start=feasible_start(spec))
        sol_r = newton_rho(spec_r, start=feasible_start(spec_r))
        for m, blk in enumerate(spec.sigma.blocks):
            if m == 1:
                continue
            idx = list(blk)
            np.testing.assert_array_equal(feasible_start(spec_r)[:, idx],
                                          feasible_start(spec)[:, idx])
            assert sol_r.iterations[m] == sol.iterations[m]
            np.testing.assert_allclose(sol_r.y_hat[:, idx], sol.y_hat[:, idx],
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(sol_r.mu[m], sol.mu[m], rtol=1e-12)

    def test_singular_systems_leave_the_others_solved(self):
        a = np.array([np.eye(2), np.zeros((2, 2)), [[1.0, 2.0], [2.0, 4.0]]])
        sol, ok = primal._solve_stack(a, np.ones((3, 2, 1)))
        assert ok.tolist() == [True, False, False]
        np.testing.assert_array_equal(sol[0], 1.0)
        assert np.isnan(sol[1:]).all()
        # agents of zero curvature make a block's system singular, but on
        # one atom the start is the solution, found by bisection where the
        # slope of the root find is infinite, and Newton only certifies it
        flat = CurvedExponential(np.zeros_like)
        space = ScenarioSpace.uniform(1)
        spec = RiskSpec(space=space, sigma=SigmaPartition.trivial(space),
                        x=np.array([[1.0], [-0.5]]),
                        aggregator=Aggregator((flat, flat)),
                        b=np.full(1, -2.0),
                        clusters=ClusterConstraint.full_sharing(2))
        sol = solve_rho(spec)
        assert sol.iterations[0] == 0
        closed = rho_closed(spec.x, spec.b, spec.sigma,
                            exp_constants([1.0, 1.0]))
        np.testing.assert_allclose(sol.rho, closed, rtol=1e-10, atol=1e-10)

    def test_zero_curvature_flags_its_block_alone(self):
        # an agent whose curvature vanishes far out, in a two-agent
        # cluster: on the one atom where it is far out, its block's system
        # is singular, and Newton gives that block up at its start while
        # the other blocks of the batch take the iterates they take without
        # it
        kinked = CurvedExponential(
            lambda x: np.where(x > 50.0, 0.0, -np.exp(-x)))
        agg = Aggregator((kinked, ExponentialUtility(2.0),
                          ExponentialUtility(0.5)))
        groups = ((0, 1), (2,))
        rng = np.random.default_rng(17)
        sizes = np.array([3, 2, 4])
        start = np.concatenate(([0], np.cumsum(sizes)))
        x = rng.uniform(-1.0, 1.0, (3, start[-1]))
        # far out even with half of it shared with agent 1
        x[0, start[1]] = 200.0
        blocks = primal._Blocks(x, np.concatenate(
            [rng.dirichlet(np.ones(s)) for s in sizes]),
            np.array([-3.0, -2.0, -4.0]), start)
        y0 = primal._block_starts(agg, groups, blocks)
        h = len(groups)
        d = primal._cluster_sum(groups, y0)[:, start[:-1]]
        lam, mu = -np.tile(blocks.w, (h, 1)), np.ones(sizes.size)
        r = primal._residual(agg, groups, blocks, y0, d, lam, mu)
        ok = primal._newton_step(agg, groups, blocks, y0, mu, r)[-1]
        assert ok.tolist() == [True, False, True]
        start = primal._kkt_start(agg, groups, blocks, y0)
        y, grad, *out = primal._newton(agg, groups, blocks, start, 1e-9, 50)
        iters, res = out[3:]
        assert iters[1] == 0 and res[1] > 1e-9
        keep = np.array([True, False, True])
        sub, cols = blocks.take(keep)
        y_alone, grad_alone, *alone = primal._newton(
            agg, groups, sub, primal._kkt_start(agg, groups, sub, y0[:, cols]),
            1e-9, 50)
        assert np.all(alone[3] > 0) and np.all(alone[4] <= 1e-9)
        np.testing.assert_array_equal(y[:, cols], y_alone)
        np.testing.assert_array_equal(grad[:, cols], grad_alone)
        for got, want in zip(out, alone):
            np.testing.assert_array_equal(got[keep], want)

    def test_iterations_count_newton_steps(self, canonical_spec):
        # two equal agents sharing fully start at their solution, so the
        # second is made twice as risk averse
        assert newton_rho(canonical_spec).iterations[0] == 0
        spec2 = replace(canonical_spec,
                        aggregator=Aggregator.exponential([1.0, 2.0]))
        steps = int(newton_rho(spec2).iterations[0])
        assert steps > 0
        # converged on the check after the last step the limit allows
        capped = newton_rho(replace(spec2, max_iter=steps))
        assert capped.iterations[0] == steps
        # a block that Newton may not step is refused unless its start is
        # certified, which two unequal agents on two atoms are not
        with pytest.raises(ConvergenceError):
            newton_rho(replace(spec2, max_iter=0))
        # on one atom the start is the solution: 0 steps
        space = ScenarioSpace.uniform(1)
        spec = RiskSpec(space=space, sigma=SigmaPartition.trivial(space),
                        x=np.array([[0.5], [-0.3]]),
                        aggregator=Aggregator.exponential([1.0, 2.0]),
                        b=np.full(1, -1.5),
                        clusters=ClusterConstraint.full_sharing(2),
                        max_iter=0)
        at_start = newton_rho(spec)
        assert at_start.iterations[0] == 0
        closed = rho_closed(spec.x, spec.b, spec.sigma,
                            exp_constants([1.0, 2.0]))
        np.testing.assert_allclose(at_start.rho, closed, rtol=1e-10,
                                   atol=1e-10)


class TestOnePassPerPoint:
    """The aggregator is evaluated once per point: each KKT residual and
    each state of the dual penalty's root find makes one Aggregator.terms
    call, but the first residual, which takes the KKT start's, and the
    Newton step none, as it takes the gradient and the Hessian from the
    residuals at its point.  No two calls are at the same point, in the
    solve and the dual extraction together: the extraction reads grad U at
    X + Y_hat from the solve's last residual."""

    @staticmethod
    def wide_spec(rng, k=20):
        # as the wide_block workload: four agents of the three kinds, an
        # interdependence term, two blocks and two clusters
        space = ScenarioSpace(tuple(f"w{i}" for i in range(k)),
                              rng.dirichlet(np.ones(k) * 2.0))
        sigma = SigmaPartition(space, (tuple(range(8)), tuple(range(8, k))))
        agg = Aggregator(
            (ExponentialUtility(1.2, shifted=True), RationalPowerUtility(2.0),
             ArctanPowerUtility(2.5), RationalPowerUtility(1.8)),
            LambdaAggregator.composite(ExponentialUtility(0.9, shifted=True),
                                       [0.3, 0.7, 0.5, 0.9]))
        return RiskSpec(space=space, sigma=sigma,
                        x=rng.normal(0.0, 1.0, (4, k)), aggregator=agg,
                        b=sigma.expand(np.array([1.0, 3.0])),
                        clusters=ClusterConstraint(((0, 1), (2, 3))))

    def test_one_terms_call_per_residual_and_path_state(self, monkeypatch):
        spec = self.wide_spec(np.random.default_rng(23))
        calls, log = [], []
        terms = Aggregator.terms

        def counted(self, z):
            calls.append(np.array(z, dtype=float))
            return terms(self, z)

        monkeypatch.setattr(Aggregator, "terms", counted)
        for module, name in ((primal, "_residual"), (primal, "_newton_step"),
                             (preferences, "gradient_path")):
            def traced(*args, inner=getattr(module, name), name=name):
                before = len(calls)
                out = inner(*args)
                log.append((name, len(calls) - before))
                return out
            monkeypatch.setattr(module, name, traced)
        sol = solve_rho(spec)
        solved = len(calls)
        extract_dual_optimizer(sol, spec)
        assert sol.iterations.max() > 0
        made = {name: [n for m, n in log if m == name]
                for name in ("_residual", "_newton_step", "gradient_path")}
        assert all(made.values())
        assert set(made["_newton_step"]) == {0}
        assert made["_residual"][0] == 0 and set(made["_residual"][1:]) == {1}
        assert set(made["gradient_path"]) == {1}
        assert 0 < solved < len(calls)
        assert len({(z.shape, z.tobytes()) for z in calls}) == len(calls)


def assert_same_solution(got, want):
    for field in ("y_hat", "rho", "mu", "kkt_residual", "iterations"):
        np.testing.assert_array_equal(getattr(got, field),
                                      getattr(want, field), err_msg=field)


class TestSolveBatch:
    @staticmethod
    def random_specs(rng, agg, groups, count):
        """Specs on their own spaces and partitions, of 1 to 4 blocks,
        sharing one aggregator and cluster structure."""
        specs = []
        for _ in range(count):
            k = int(rng.integers(1, 9))
            space = ScenarioSpace(tuple(f"w{i}" for i in range(k)),
                                  rng.dirichlet(np.ones(k)))
            nb = int(rng.integers(1, min(k, 4) + 1))
            cuts = np.sort(rng.choice(np.arange(1, k), nb - 1, replace=False))
            g = SigmaPartition(space, tuple(
                tuple(int(i) for i in blk)
                for blk in np.split(rng.permutation(k), cuts)))
            specs.append(RiskSpec(
                space=space, sigma=g,
                x=rng.uniform(-2.0, 2.0, (agg.nagents, k)), aggregator=agg,
                b=g.expand(rng.uniform(-4.0, -1.0, nb)),
                clusters=ClusterConstraint(groups)))
        return specs

    @pytest.mark.parametrize("kind", sorted(TestBatchedNewton.AGGREGATORS))
    @pytest.mark.parametrize("sharing", sorted(TestBatchedNewton.GROUPS))
    def test_batch_equals_one_by_one(self, kind, sharing):
        rng = np.random.default_rng(50)
        specs = self.random_specs(rng, TestBatchedNewton.AGGREGATORS[kind],
                                  TestBatchedNewton.GROUPS[sharing], 5)
        assert len({spec.sigma.nblocks for spec in specs}) > 1
        batch = primal.solve_batch(specs)
        assert len(batch) == len(specs)
        for got, spec in zip(batch, specs):
            assert_same_solution(got, solve_rho(spec))

    def test_sums_do_not_depend_on_batch_width(self):
        # a column's utility, gradient and KKT residuals come out the same
        # to the last bit in a batch of any width as alone, as the batch
        # equality above needs: sums over agents and clusters are taken
        # column by column, not by BLAS, whose rounding varies with width
        rng = np.random.default_rng(51)
        composite = TestBatchedNewton.AGGREGATORS["composite"]
        nine = Aggregator.exponential(np.linspace(0.5, 2.0, 9))
        for agg in (composite, nine):
            n = agg.nagents
            groups = ((0, 1), tuple(range(2, n)))
            for k in range(1, 41):
                x, y = rng.uniform(-2.0, 2.0, (2, n, k))
                d = rng.uniform(-2.0, 2.0, (2, k))
                lam = -rng.uniform(0.1, 1.0, (2, k))
                mu = rng.uniform(0.5, 2.0, k)
                blocks = primal._Blocks(x, np.ones(k),
                                        rng.uniform(-4.0, -1.0, k),
                                        np.arange(k + 1))
                wide = (agg.value(x), agg.grad(x),
                        *primal._residual(agg, groups, blocks, y, d, lam, mu))
                for j in range(k):
                    one = primal._Blocks(x[:, [j]], np.ones(1),
                                         blocks.b[[j]], np.arange(2))
                    alone = (agg.value(x[:, [j]]), agg.grad(x[:, [j]]),
                             *primal._residual(agg, groups, one, y[:, [j]],
                                               d[:, [j]], lam[:, [j]],
                                               mu[[j]]))
                    for got, want in zip(alone, wide):
                        np.testing.assert_array_equal(got[..., 0],
                                                      want[..., j])

    def test_stalled_block_refuses_its_batch(self):
        # each block started 3 above its own start: Newton stalls on the
        # one-atom block near the supremum, and the batch that holds it is
        # refused with that block's residual, as the block is alone
        spec = TestBatchedNewton.four_block_spec([-4.9, -0.05, -0.19, -0.31])
        start = feasible_start(spec) + 3.0
        other = replace(spec, x=spec.x - 1.0,
                        sigma=SigmaPartition.trivial(spec.space),
                        b=np.full(spec.space.natoms, -2.0))
        sub = ScenarioSpace.uniform(1)
        stalled = RiskSpec(space=sub, sigma=SigmaPartition.trivial(sub),
                           x=spec.x[:, [1]], aggregator=spec.aggregator,
                           b=spec.b[[1]], clusters=spec.clusters)
        with pytest.raises(ConvergenceError) as alone:
            newton_rho(stalled, start=start[:, [1]])
        with pytest.raises(ConvergenceError) as batch:
            primal._solve_newton([other, spec], [feasible_start(other), start])
        assert batch.value.residual == alone.value.residual > spec.kkt_tol
        # from its own start every block converges
        for sol in (newton_rho(spec), newton_rho(other)):
            assert np.all(sol.kkt_residual <= spec.kkt_tol)

    def test_rejects_what_a_batch_cannot_share(self, canonical_spec):
        same = canonical_spec.with_x(canonical_spec.x + 1.0)
        assert len(primal.solve_batch([canonical_spec, same])) == 2
        for other in (
                replace(canonical_spec,
                        aggregator=Aggregator.exponential([1.0, 1.0])),
                replace(canonical_spec,
                        clusters=ClusterConstraint.no_sharing(2)),
                replace(canonical_spec, kkt_tol=1e-8),
                replace(canonical_spec, max_iter=100)):
            with pytest.raises(ValueError, match="batch"):
                primal.solve_batch([canonical_spec, other])


def assert_same_point(got, want):
    """rho to 1e-8 and y_hat to 1e-6, relative to max(1, |value|): the
    Newton stopping test at kkt_tol pins the split of a cluster's total
    less tightly than rho."""
    np.testing.assert_allclose(got.rho, want.rho, rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(got.y_hat, want.y_hat, rtol=1e-6, atol=1e-6)


def assert_newton_steps(sol, spec):
    """Several agents take Newton steps on blocks of several atoms; a
    single agent starts each block at its solution, where Newton only
    certifies it, as it may several agents on one atom."""
    if spec.nagents == 1:
        assert np.all(sol.iterations == 0)
    else:
        wide = np.diff(np.append(spec.sigma.cuts, spec.space.natoms)) > 1
        assert sol.iterations[wide].sum() > 0 or not wide.any()


class TestPrimalNewtonAgainstClosedForms:
    """The batched Newton, which serves every aggregator without a closed
    form, driven on exponential agents through the private entry and held
    to the closed forms: those of the exponential module for full sharing,
    the primal one for raw and shifted agents in clusters."""

    def test_full_sharing(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            spec, c = random_exponential_instance(rng, kmax=16, nmax=4)
            sol = newton_rho(spec)
            assert_newton_steps(sol, spec)
            np.testing.assert_allclose(
                sol.rho, rho_closed(spec.x, spec.b, spec.sigma, c),
                rtol=1e-8, atol=1e-8)
            np.testing.assert_allclose(
                sol.y_hat, y_hat_closed(spec.x, spec.b, spec.sigma, c),
                rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("shifted", [False, True], ids=["raw", "shifted"])
    def test_two_clusters(self, shifted):
        rng = np.random.default_rng(62 + shifted)
        two = 0
        for _ in range(30):
            spec, _ = random_exponential_instance(rng, kmax=16, nmax=4,
                                                  clusters=2, shifted=shifted)
            two += spec.clusters.ngroups == 2
            closed, newton = solve_rho(spec), newton_rho(spec)
            assert np.all(closed.iterations == 0)
            assert_newton_steps(newton, spec)
            assert_same_point(newton, closed)
            np.testing.assert_allclose(newton.mu, closed.mu, rtol=1e-8)
        assert two > 0


class TestClosedFormRouting:
    """solve_batch starts every exponential block at its closed form, which
    Newton certifies in 0 steps, or else polishes from there; no block
    needs the start of feasible_start."""

    def test_no_start_level_or_newton_step(self, monkeypatch):
        rng = np.random.default_rng(64)
        specs = [random_exponential_instance(rng, kmax=16, nmax=4,
                                             clusters=clusters,
                                             shifted=shifted)[0]
                 for shifted in (False, True) for clusters in ("full", 2)]
        want = [newton_rho(spec) for spec in specs]

        def refuse(*args):
            raise AssertionError("no start is needed")

        monkeypatch.setattr(primal, "_block_starts", refuse)
        for spec, newton in zip(specs, want):
            sol = solve_rho(spec)
            assert np.all(sol.iterations == 0)
            assert np.all(sol.kkt_residual <= spec.kkt_tol)
            assert_same_point(sol, newton)

    def test_perturbed_blocks_take_newton_steps(self, monkeypatch):
        # with the closed-form allocation of every third block of a batch
        # moved by 1e-3, Newton steps those blocks back to the solution,
        # and certifies the others at their start, bit for bit
        rng = np.random.default_rng(65)
        specs = TestSolveBatch.random_specs(
            rng, TestBatchedNewton.AGGREGATORS["exponential"],
            TestBatchedNewton.GROUPS["partial"], 4)
        closed = primal.solve_batch(specs)
        real = primal._exponential_blocks

        def shift(agg, groups, blocks):
            y, d, lam, mu = real(agg, groups, blocks)
            return y + 1e-3 * (blocks.of % 3 == 1), d, lam, mu

        monkeypatch.setattr(primal, "_exponential_blocks", shift)
        batch = primal.solve_batch(specs)
        tol, m = 5.0 * specs[0].kkt_tol, 0
        for spec, got, want in zip(specs, batch, closed):
            assert np.all(want.iterations == 0)
            for j, blk in enumerate(spec.sigma.blocks):
                cols = list(blk)
                pairs = [(got.rho[cols], want.rho[cols]),
                         (got.y_hat[:, cols], want.y_hat[:, cols]),
                         (got.mu[j], want.mu[j])]
                if (m + j) % 3 == 1:
                    assert got.iterations[j] >= 1
                    for a, b in pairs:
                        np.testing.assert_allclose(a, b, rtol=tol)
                else:
                    assert got.iterations[j] == 0
                    assert got.kkt_residual[j] == want.kkt_residual[j]
                    for a, b in pairs:
                        np.testing.assert_array_equal(a, b)
            m += spec.sigma.nblocks
        assert m > 4  # so at least blocks 1 and 4 were moved

    def test_block_the_certificate_refuses(self):
        # at a utility level near -1e6 the closed-form point misses kkt_tol
        # by round-off alone (ROADMAP item 3); Newton refuses the block
        # from there, as it does from feasible_start
        space = ScenarioSpace.uniform(2)
        spec = RiskSpec(space=space, sigma=SigmaPartition.trivial(space),
                        x=np.array([[3.0, -500.0]]),
                        aggregator=Aggregator.exponential([100.0]),
                        b=np.full(2, -1e6),
                        clusters=ClusterConstraint.full_sharing(1))
        agg, groups = spec.aggregator, spec.clusters.groups
        blocks, _ = spec._blocks
        point = primal._exponential_blocks(agg, groups, blocks)
        at_point = primal._newton(agg, groups, blocks, point, spec.kkt_tol, 0)
        assert at_point[-1][0] > spec.kkt_tol
        with pytest.raises(ConvergenceError) as polished:
            solve_rho(spec)
        assert polished.value.residual > spec.kkt_tol
        with pytest.raises(ConvergenceError) as newton:
            newton_rho(spec)
        assert newton.value.residual > spec.kkt_tol

    @pytest.mark.parametrize("shifted", [False, True], ids=["raw", "shifted"])
    def test_threshold_near_the_supremum(self, shifted, canonical_spec):
        # a RuntimeWarning fails this test, as it fails the suite
        agg = Aggregator.exponential([1.0, 2.0], shifted)
        spec = replace(canonical_spec, aggregator=agg)
        for gap in (1e-9, 5e-10):
            with pytest.raises(ValueError, match="supremum"):
                spec.with_b(np.full(2, agg.sup - gap))
        for gap in (1.5e-9, 1e-6):
            sol = solve_rho(spec.with_b(np.full(2, agg.sup - gap)))
            assert np.all(sol.iterations == 0)
            assert np.all(sol.kkt_residual <= spec.kkt_tol)


class TestAxioms:
    def test_cash_additivity_exact_shift(self, canonical_spec):
        sol = solve_rho(canonical_spec)
        shifted = solve_rho(canonical_spec.with_x(canonical_spec.x + 0.7))
        np.testing.assert_allclose(shifted.rho, sol.rho - 2 * 0.7, atol=5e-9)

    def test_monotonicity_unit_shift(self, canonical_spec):
        sol = solve_rho(canonical_spec)
        up = solve_rho(canonical_spec.with_x(canonical_spec.x + 1.0))
        np.testing.assert_allclose(up.rho, sol.rho - 2.0, atol=5e-9)

    def test_degenerate_mixture_is_equality(self, canonical_spec):
        spec2 = canonical_spec.with_x(canonical_spec.x * 0.3 - 0.2)
        rho_x = solve_rho(canonical_spec).rho
        mix = solve_rho(canonical_spec.with_x(
            1.0 * canonical_spec.x + 0.0 * spec2.x)).rho
        np.testing.assert_allclose(mix, rho_x, atol=1e-12)

    @pytest.mark.parametrize("clusters", ["full", "none", 2])
    def test_axiom_report_random_instances(self, clusters):
        rng = np.random.default_rng(15)
        spec, _ = random_exponential_instance(rng, kmax=10, nmax=4,
                                              clusters=clusters)
        spec2 = spec.with_x(rng.uniform(-3, 3, size=spec.x.shape))
        lam = spec.sigma.expand(rng.uniform(0.0, 1.0,
                                            size=spec.sigma.nblocks))
        rep = check_axioms(spec, spec2, lam)
        assert rep.passed, rep

    def test_rejects_unmeasurable_weight(self, canonical_spec):
        spec2 = canonical_spec.with_x(canonical_spec.x * 0.5)
        with pytest.raises(ValueError):
            check_axioms(canonical_spec, spec2, np.array([0.2, 0.8]))

    @pytest.mark.parametrize("field", ["space", "sigma", "aggregator", "b",
                                       "clusters", "kkt_tol", "max_iter"])
    def test_spec2_may_differ_only_in_x(self, canonical_spec, field):
        # every instance is solved with spec's fields, so a spec2 that
        # differs in another one would make the report wrong without a sign
        spec2 = canonical_spec.with_x(0.5 * canonical_spec.x)
        space = ScenarioSpace(spec2.space.atom_labels, [0.4, 0.6])
        spec2 = {
            "space": lambda: replace(spec2, space=space,
                                     sigma=SigmaPartition.trivial(space)),
            "sigma": lambda: replace(
                spec2, sigma=SigmaPartition.discrete(spec2.space)),
            "aggregator": lambda: replace(
                spec2, aggregator=Aggregator.exponential([1.0, 2.0])),
            "b": lambda: spec2.with_b(np.full(2, -1.5)),
            "clusters": lambda: replace(
                spec2, clusters=ClusterConstraint.no_sharing(2)),
            "kkt_tol": lambda: replace(spec2, kkt_tol=1e-8),
            "max_iter": lambda: replace(spec2, max_iter=50),
        }[field]()
        with pytest.raises(ValueError, match=f"differs from spec in {field};"):
            check_axioms(canonical_spec, spec2, np.full(2, 0.5))


class TestScalarRoots:
    """Single-agent blocks at extreme thresholds, whose starts are their
    solutions: each a scalar root of the bracketed Newton in preferences.
    A RuntimeWarning fails these tests, as it fails the suite."""

    @pytest.mark.parametrize("alpha", [1e-6, 1.0, 100.0])
    @pytest.mark.parametrize("b", [-1e6, -1.0, -1e-8])
    def test_one_exponential_agent_far_out(self, alpha, b):
        space = ScenarioSpace.uniform(2)
        spec = RiskSpec(space=space, sigma=SigmaPartition.trivial(space),
                        x=np.array([[3.0, -500.0]]),
                        aggregator=Aggregator.exponential([alpha]),
                        b=np.full(2, b),
                        clusters=ClusterConstraint.full_sharing(1))
        for solve in (solve_rho, newton_rho):
            if b == -1e6 and alpha >= 1.0:
                # the utility residual is held to kkt_tol in absolute
                # terms, out of reach at |U| near 1e6 (ROADMAP item 3); a
                # point that misses it is refused, not reported
                with pytest.raises(ConvergenceError):
                    solve(spec)
                continue
            closed = rho_closed(spec.x, spec.b, spec.sigma,
                                exp_constants([alpha]))
            np.testing.assert_allclose(solve(spec).rho, closed, rtol=1e-9)

    @pytest.mark.parametrize("u", [RationalPowerUtility(2.0),
                                   ArctanPowerUtility(1.5)])
    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1.5e-9])
    def test_one_power_agent_near_the_supremum(self, u, gap):
        # at sup - 1.5e-9 the start of the rational agent is near 2.67e9
        agg = Aggregator((u,))
        space = ScenarioSpace.uniform(2)
        spec = RiskSpec(space=space, sigma=SigmaPartition.trivial(space),
                        x=np.array([[0.3, -0.2]]), aggregator=agg,
                        b=np.full(2, agg.sup - gap),
                        clusters=ClusterConstraint.full_sharing(1))
        start = feasible_start(spec)
        util = cond_exp(agg.value(spec.x + start), spec.sigma)
        np.testing.assert_allclose(util, spec.b, rtol=1e-12)
        sol = solve_rho(spec)
        assert np.all(sol.iterations == 0)
        assert np.all(sol.kkt_residual <= spec.kkt_tol)

    @pytest.mark.parametrize("u", [RationalPowerUtility(2.0),
                                   ArctanPowerUtility(1.5)])
    def test_one_agent_blocks_start_at_their_root(self, u):
        # every block of a single agent starts at its root, so Newton only
        # certifies it; a batch equals its specs solved one by one, to the
        # last bit
        agg = Aggregator((u,))
        rng = np.random.default_rng(66)
        gaps = np.array([1.5e-9, 1e-8, 1e-6, 1e-3, 0.5, 2.0, 5.0])
        specs = []
        for k, nb in ((40, 25), (24, 9), (12, 12)):
            space = ScenarioSpace(tuple(f"w{i}" for i in range(k)),
                                  rng.dirichlet(np.ones(k)))
            cuts = np.sort(rng.choice(np.arange(1, k), nb - 1, replace=False))
            g = SigmaPartition(space, tuple(
                tuple(int(i) for i in blk)
                for blk in np.split(rng.permutation(k), cuts)))
            specs.append(RiskSpec(
                space=space, sigma=g, x=rng.uniform(-2.0, 2.0, (1, k)),
                aggregator=agg, b=g.expand(agg.sup - rng.choice(gaps, nb)),
                clusters=ClusterConstraint.full_sharing(1)))

        batch = primal.solve_batch(specs)
        for got, spec in zip(batch, specs):
            assert np.all(got.iterations == 0)
            assert np.all(got.kkt_residual <= spec.kkt_tol)
            assert_same_solution(got, solve_rho(spec))
        assert max(spec.b.max() for spec in specs) == agg.sup - 1.5e-9


class TestSeveralAgentsNearTheSupremum:
    """Two power agents, alone or with a shifted exponential one, and with
    or without an interdependence term, from 1e-1 to 1e-5 below the
    supremum: every block, of one, two or three atoms, starts where its
    agents share one marginal utility and certifies at kkt_tol."""

    AGENTS = {
        "two": (RationalPowerUtility(2.0), ArctanPowerUtility(1.5)),
        "three": (RationalPowerUtility(2.0),
                  ExponentialUtility(1.0, shifted=True),
                  ArctanPowerUtility(1.5)),
    }
    PROBS = np.array([0.1, 0.2, 0.15, 0.25, 0.2, 0.1])

    @pytest.mark.parametrize("gap", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    @pytest.mark.parametrize("sharing", ["full", "none"])
    @pytest.mark.parametrize("composite", [False, True],
                             ids=["separable", "composite"])
    @pytest.mark.parametrize("agents", sorted(AGENTS))
    def test_every_block_certifies(self, agents, composite, sharing, gap):
        us = self.AGENTS[agents]
        n = len(us)
        lam = (LambdaAggregator.composite(ExponentialUtility(1.0, shifted=True),
                                          np.linspace(0.3, 0.8, n))
               if composite else LambdaAggregator.zero())
        agg = Aggregator(us, lam)
        space = ScenarioSpace(tuple(f"w{i}" for i in range(6)), self.PROBS)
        g = SigmaPartition(space, ((0,), (1, 2), (3, 4, 5)))
        clusters = (ClusterConstraint.full_sharing(n) if sharing == "full"
                    else ClusterConstraint.no_sharing(n))
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = rng.uniform(-1.0, 1.0, (3, 6))[:n]
            spec = RiskSpec(space=space, sigma=g, x=x, aggregator=agg,
                            b=np.full(6, agg.sup - gap), clusters=clusters)
            sol = solve_rho(spec)
            assert np.all(sol.kkt_residual <= spec.kkt_tol)
