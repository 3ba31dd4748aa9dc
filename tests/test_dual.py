from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from condrisk import (Aggregator, ArctanPowerUtility, ClusterConstraint,
                      DensityVector, ExponentialUtility, InversionError,
                      LambdaAggregator, PenaltyDivergenceError,
                      RationalPowerUtility, RiskSpec, ScenarioSpace,
                      SigmaPartition, cond_exp, conjugate_V, dual_report,
                      dual_value, extract_dual_optimizer, in_q1,
                      parse_scenario, penalty_alpha1, q_hat_closed,
                      rho_with_measure, solve_rho)
from condrisk import dual, equilibrium, pi_problem, preferences
from conftest import (CANONICAL, make_canonical_spec,
                      random_exponential_instance, random_partition)


def canonical_q(spec):
    return DensityVector(np.tile(CANONICAL["q"], (2, 1)), spec.sigma)


def random_admissible_q(rng, spec):
    """Random member of the admissible dual set: one positive row per
    cluster, normalized blockwise, shared inside each cluster."""
    row_by_cluster = {}
    q = np.empty((spec.nagents, spec.space.natoms))
    for group in spec.clusters.groups:
        row = rng.uniform(0.05, 2.0, size=spec.space.natoms)
        row = row / cond_exp(row, spec.sigma)
        for j in group:
            q[j] = row
    return DensityVector(q, spec.sigma)


class TestPenalty:
    def test_reference_measure_single_agent(self):
        space = ScenarioSpace.uniform(3)
        g = SigmaPartition.trivial(space)
        spec = RiskSpec(space=space, sigma=g, x=np.zeros((1, 3)),
                        aggregator=Aggregator.exponential([1.0]),
                        b=np.full(3, -np.e),
                        clusters=ClusterConstraint.full_sharing(1))
        q = DensityVector(np.ones((1, 3)), g)
        np.testing.assert_allclose(penalty_alpha1(q, spec), 1.0, atol=1e-10)

    def test_canonical(self, canonical_spec):
        q = canonical_q(canonical_spec)
        out = penalty_alpha1(q, canonical_spec)
        np.testing.assert_allclose(out, CANONICAL["alpha1"], atol=1e-10)

    def test_divergence_for_unequal_rows_full_sharing(self, canonical_spec):
        q = DensityVector(np.array([[1.5, 0.5], [0.5, 1.5]]),
                          canonical_spec.sigma)
        with pytest.raises(PenaltyDivergenceError) as err:
            penalty_alpha1(q, canonical_spec)
        assert err.value.blocks == (0,)

    def test_zero_density_entry_matches_entropic_formula(self):
        # one agent, density (2, 0): the penalty stays finite and the
        # entropy formula extends with 0 log 0 = 0
        space = ScenarioSpace.uniform(2)
        g = SigmaPartition.trivial(space)
        spec = RiskSpec(space=space, sigma=g, x=np.zeros((1, 2)),
                        aggregator=Aggregator.exponential([1.0]),
                        b=np.full(2, -np.e),
                        clusters=ClusterConstraint.full_sharing(1))
        q = DensityVector(np.array([[2.0, 0.0]]), g)
        out = penalty_alpha1(q, spec)
        np.testing.assert_allclose(out, 1.0 + np.log(2.0), atol=1e-10)

    def test_conjugate_route_upper_bound(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            spec, c = random_exponential_instance(rng, kmax=8, nmax=3)
            q = q_hat_closed(spec.x, spec.sigma, c)
            pen = penalty_alpha1(q, spec)
            bthr = spec.block_threshold()
            w = spec.sigma.conditional_weights()
            for lam in (0.3, 1.0, 2.7, -c.beta / bthr.min()):
                for m, blk in enumerate(spec.sigma.blocks):
                    idx = list(blk)
                    vexp = sum(w[i] / w[idx].sum()
                               * conjugate_V(c.alphas, q.q[:, i] / lam)
                               for i in idx)
                    bound = lam * vexp - lam * bthr[m]
                    assert pen[idx[0]] <= bound + 1e-8

    def test_conjugate_bound_tight_at_optimal_scale(self):
        spec = make_canonical_spec()
        q = canonical_q(spec)
        lam = 2.0 / 2.0  # beta / (-B)
        vexp = 0.5 * (conjugate_V([1, 1], np.array(CANONICAL["q"]) / lam) * 2
                      + conjugate_V([1, 1],
                                    np.array(CANONICAL["q"])[::-1] / lam) * 0)
        # with identical rows the expectation is over the two atoms
        v1 = conjugate_V([1.0, 1.0], np.full(2, CANONICAL["q"][0]) / lam)
        v2 = conjugate_V([1.0, 1.0], np.full(2, CANONICAL["q"][1]) / lam)
        bound = lam * 0.5 * (v1 + v2) + lam * 2.0
        got = penalty_alpha1(q, spec)[0]
        assert got == pytest.approx(bound, abs=1e-10)


class TestMembership:
    def test_identical_rows_full_sharing(self, canonical_spec):
        assert in_q1(canonical_q(canonical_spec), canonical_spec)

    def test_one_atom_difference_rejected(self, canonical_spec):
        q = np.tile(CANONICAL["q"], (2, 1))
        q[1, 0] += 2e-8 * 2  # symmetric renormalization keeps mean 1
        q[1, 1] -= 2e-8 * 2
        dens = DensityVector(q, canonical_spec.sigma)
        assert not in_q1(dens, canonical_spec)

    def test_no_sharing_accepts_any_normalized(self, canonical_spec):
        spec = RiskSpec(space=canonical_spec.space,
                        sigma=canonical_spec.sigma, x=canonical_spec.x,
                        aggregator=canonical_spec.aggregator,
                        b=canonical_spec.b,
                        clusters=ClusterConstraint.no_sharing(2))
        q = DensityVector(np.array([[1.5, 0.5], [0.5, 1.5]]), spec.sigma)
        assert in_q1(q, spec)

    def test_fairness_inequality_on_random_feasible_allocations(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            spec, _ = random_exponential_instance(rng, kmax=8, nmax=4,
                                                  clusters=2)
            q = random_admissible_q(rng, spec)
            assert in_q1(q, spec)
            # sample feasible allocations: arbitrary within-cluster splits
            # around measurable cluster totals
            for _ in range(20):
                y = np.zeros((spec.nagents, spec.space.natoms))
                for group in spec.clusters.groups:
                    total = spec.sigma.expand(
                        rng.uniform(-2, 2, size=spec.sigma.nblocks))
                    split = rng.uniform(-3, 3,
                                        size=(len(group), spec.space.natoms))
                    split[-1] = total - split[:-1].sum(axis=0)
                    for jj, j in enumerate(group):
                        y[j] = split[jj]
                lhs = np.zeros(spec.space.natoms)
                for j in range(spec.nagents):
                    lhs += cond_exp(q.row(j) * y[j], spec.sigma)
                assert np.all(lhs <= y.sum(axis=0) + 1e-8)


class TestDualValue:
    def test_canonical_chain(self, canonical_spec):
        q = canonical_q(canonical_spec)
        out = dual_value(q, canonical_spec)
        np.testing.assert_allclose(out, CANONICAL["cost"] - CANONICAL["alpha1"],
                                   atol=1e-10)
        np.testing.assert_allclose(out, CANONICAL["rho"], atol=1e-10)

    def test_reference_measure_weakly_dominated(self, canonical_spec):
        q = DensityVector(np.ones((2, 2)), canonical_spec.sigma)
        assert dual_value(q, canonical_spec)[0] <= CANONICAL["rho"] + 5e-9

    def test_zero_instance(self):
        space = ScenarioSpace.uniform(2)
        g = SigmaPartition.trivial(space)
        spec = RiskSpec(space=space, sigma=g, x=np.zeros((2, 2)),
                        aggregator=Aggregator.exponential([1.0, 1.0]),
                        b=np.full(2, -2.0),
                        clusters=ClusterConstraint.full_sharing(2))
        q = DensityVector(np.ones((2, 2)), g)
        np.testing.assert_allclose(dual_value(q, spec), 0.0, atol=1e-10)

    def test_weak_duality_random(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            spec, _ = random_exponential_instance(rng, kmax=8, nmax=3)
            sol = solve_rho(spec)
            for _ in range(10):
                q = random_admissible_q(rng, spec)
                assert np.all(dual_value(q, spec) <= sol.rho + 5e-9)


class TestExtraction:
    def test_canonical(self, canonical_spec):
        sol = solve_rho(canonical_spec)
        q = extract_dual_optimizer(sol, canonical_spec)
        np.testing.assert_allclose(q.q, np.tile(CANONICAL["q"], (2, 1)),
                                   atol=1e-9)

    def test_zero_positions_give_reference(self):
        space = ScenarioSpace.uniform(3)
        g = SigmaPartition(space, ((0, 1), (2,)))
        spec = RiskSpec(space=space, sigma=g, x=np.zeros((2, 3)),
                        aggregator=Aggregator.exponential([1.0, 2.0]),
                        b=g.expand(np.array([-2.0, -1.0])),
                        clusters=ClusterConstraint.full_sharing(2))
        q = extract_dual_optimizer(solve_rho(spec), spec)
        np.testing.assert_allclose(q.q, 1.0, atol=1e-9)

    def test_no_sharing_rows_differ(self):
        spec_base = make_canonical_spec()
        spec = RiskSpec(space=spec_base.space, sigma=spec_base.sigma,
                        x=spec_base.x, aggregator=spec_base.aggregator,
                        b=spec_base.b,
                        clusters=ClusterConstraint.no_sharing(2))
        sol = solve_rho(spec)
        q = extract_dual_optimizer(sol, spec)
        assert np.abs(q.q[0] - q.q[1]).max() > 1e-3
        rep = dual_report(sol, q, spec)
        assert rep.in_q1 and np.abs(rep.gap).max() <= 5 * spec.kkt_tol

    def test_matches_closed_form_on_random(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            spec, c = random_exponential_instance(rng, kmax=16, nmax=4)
            q = extract_dual_optimizer(solve_rho(spec), spec)
            q_c = q_hat_closed(spec.x, spec.sigma, c)
            assert np.max(np.abs(q.q - q_c.q)) <= 1e-6


class TestRhoWithMeasure:
    def test_optimal_measure_recovers_rho(self, canonical_spec):
        sol = solve_rho(canonical_spec)
        q = extract_dual_optimizer(sol, canonical_spec)
        np.testing.assert_allclose(rho_with_measure(q, canonical_spec),
                                   CANONICAL["rho"], atol=1e-9)

    def test_zero_instance_reference_measure(self):
        space = ScenarioSpace.uniform(2)
        g = SigmaPartition.trivial(space)
        spec = RiskSpec(space=space, sigma=g, x=np.zeros((2, 2)),
                        aggregator=Aggregator.exponential([1.0, 1.0]),
                        b=np.full(2, -2.0),
                        clusters=ClusterConstraint.full_sharing(2))
        q = DensityVector(np.ones((2, 2)), g)
        np.testing.assert_allclose(rho_with_measure(q, spec), 0.0, atol=1e-10)

    def test_dominated_by_rho_with_equality_at_optimum(self):
        # the risk equals the maximum of the fixed-measure risks over the
        # admissible set, so any admissible measure gives a lower bound
        rng = np.random.default_rng(34)
        for _ in range(10):
            spec, _ = random_exponential_instance(rng, kmax=8, nmax=3)
            sol = solve_rho(spec)
            q = random_admissible_q(rng, spec)
            assert np.all(rho_with_measure(q, spec) <= sol.rho + 5e-9)
            q_opt = extract_dual_optimizer(sol, spec)
            np.testing.assert_allclose(rho_with_measure(q_opt, spec), sol.rho,
                                       atol=5e-9)


class TestFairnessAtOptimum:
    def test_fair_value_equals_rho(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            spec, _ = random_exponential_instance(rng, kmax=12, nmax=4)
            sol = solve_rho(spec)
            q = extract_dual_optimizer(sol, spec)
            fair = np.zeros(spec.space.natoms)
            for j in range(spec.nagents):
                fair += cond_exp(q.row(j) * sol.y_hat[j], spec.sigma)
            np.testing.assert_allclose(fair, sol.rho, atol=5e-9)
            np.testing.assert_allclose(sol.y_hat.sum(axis=0), sol.rho,
                                       atol=5e-9)


class TestPenaltyMemo:
    @pytest.fixture
    def solves(self, monkeypatch):
        """Counts the penalty computations, one per (q, spec) pair, in
        closed form or by Newton."""
        calls = []
        for name in ("_alpha1_exponential", "_alpha1_newton"):
            inner = getattr(dual, name)

            def counted(*args, inner=inner):
                calls.append(1)
                return inner(*args)

            monkeypatch.setattr(dual, name, counted)
        return calls

    def test_report_reuses_the_gap_check_solve(self, solves):
        path = (Path(__file__).resolve().parents[1] / "scenarios"
                / "composite.json")
        spec = parse_scenario(str(path)).spec
        sol = solve_rho(spec)
        q = extract_dual_optimizer(sol, spec)
        after_extract = len(solves)
        rep = dual_report(sol, q, spec)
        assert len(solves) == after_extract == 1
        # a copy of q misses; from the same primal start it gives the same
        # bits, and from the cold start the same root
        copy = DensityVector(q.q.copy(), q.sigma)
        fresh = dual._penalty(copy, spec, sol)
        np.testing.assert_array_equal(rep.alpha1, fresh)
        assert len(solves) == 2
        assert_same_root(penalty_alpha1(copy, spec), fresh)

    def test_rho_with_measure_solves_each_block_once(self, solves):
        rng = np.random.default_rng(36)
        spec, _ = random_exponential_instance(rng, kmax=12, nmax=3)
        q = random_admissible_q(rng, spec)
        value = rho_with_measure(q, spec)
        assert spec.sigma.nblocks > 1
        assert len(solves) == 1
        np.testing.assert_array_equal(value, dual_value(q, spec))

    def test_other_spec_misses(self, canonical_spec, solves):
        q = canonical_q(canonical_spec)
        first = penalty_alpha1(q, canonical_spec)
        lower = canonical_spec.with_b(canonical_spec.b - 0.5)
        second = penalty_alpha1(q, lower)
        assert len(solves) == 2
        assert not np.allclose(first, second)
        np.testing.assert_array_equal(
            second, penalty_alpha1(canonical_q(lower), lower))

    def test_fairness_still_checked_on_a_hit(self, canonical_spec):
        q = DensityVector(np.array([[1.5, 0.5], [0.5, 1.5]]),
                          canonical_spec.sigma)
        for _ in range(2):
            with pytest.raises(PenaltyDivergenceError):
                penalty_alpha1(q, canonical_spec)

    def test_inputs_are_private_copies(self, canonical_spec, solves):
        raw = np.tile(CANONICAL["q"], (2, 1))
        q = DensityVector(raw, canonical_spec.sigma)
        first = penalty_alpha1(q, canonical_spec)
        raw[:] = 1.0  # the caller's array changes; q must not
        assert not q.q.flags.writeable
        np.testing.assert_array_equal(
            penalty_alpha1(q, canonical_spec), first)
        assert len(solves) == 1
        np.testing.assert_array_equal(
            first, penalty_alpha1(canonical_q(canonical_spec), canonical_spec))


def random_composite_instance(rng):
    """Four agents in two clusters under a composite aggregator, as in
    scenarios/composite.json, on a random space of at most three blocks."""
    k = int(rng.integers(3, 13))
    space = ScenarioSpace(tuple(f"w{i}" for i in range(k)),
                          rng.dirichlet(np.ones(k) * 2.0))
    g = random_partition(rng, space, max_blocks=3)
    p = rng.uniform(1.5, 3.0, size=3)
    lam = LambdaAggregator.composite(
        ExponentialUtility(rng.uniform(0.5, 1.5), shifted=True),
        rng.uniform(0.2, 1.0, size=4))
    agg = Aggregator((ExponentialUtility(rng.uniform(0.5, 2.0), shifted=True),
                      RationalPowerUtility(p[0]), ArctanPowerUtility(p[1]),
                      RationalPowerUtility(p[2])), lam)
    b = g.expand(rng.uniform(-2.0, 0.5 * agg.sup, size=g.nblocks))
    return RiskSpec(space=space, sigma=g, x=rng.normal(size=(4, k)),
                    aggregator=agg, b=b,
                    clusters=ClusterConstraint(((0, 1), (2, 3))))


def assert_same_root(got, want):
    """Penalties agree to 1e-12 relative to max(1, |want|)."""
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert err.max() <= 1e-12, err.max()


class TestPrimalStart:
    """The penalty Newton started at the multipliers of a primal solution
    finds the root of the cold start at 0, from near or far."""

    COMPOSITE = (Path(__file__).resolve().parents[1] / "scenarios"
                 / "composite.json")

    def instances(self):
        yield parse_scenario(str(self.COMPOSITE)).spec
        rng = np.random.default_rng(61)
        for _ in range(20):
            yield random_composite_instance(rng)

    def test_extracted_optimizer_matches_the_cold_start(self):
        for spec in self.instances():
            sol = solve_rho(spec)
            q = extract_dual_optimizer(sol, spec)
            assert_same_root(dual._alpha1_newton(q, spec, sol),
                             dual._alpha1_newton(q, spec))

    @pytest.mark.parametrize("shift", [-8.0, 8.0])
    def test_far_start_reaches_the_same_root(self, shift):
        for spec in self.instances():
            sol = solve_rho(spec)
            q = extract_dual_optimizer(sol, spec)
            far = replace(sol, mu=sol.mu * np.exp(shift))
            assert_same_root(dual._alpha1_newton(q, spec, far),
                             dual._alpha1_newton(q, spec))

    def test_other_admissible_q_gets_its_cold_penalty(self):
        rng = np.random.default_rng(62)
        for spec in self.instances():
            sol = solve_rho(spec)
            q = random_admissible_q(rng, spec)
            assert_same_root(dual._alpha1_newton(q, spec, sol),
                             dual._alpha1_newton(q, spec))

    def test_gap_check_evaluates_at_most_two_states(self, monkeypatch):
        spec = parse_scenario(str(self.COMPOSITE)).spec
        sol = solve_rho(spec)
        inner, calls = preferences.gradient_path, []

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(preferences, "gradient_path", counted)
        q = extract_dual_optimizer(sol, spec)
        assert 1 <= len(calls) <= 2
        warm = len(calls)
        penalty_alpha1(q, spec)
        assert len(calls) - warm > 2


def exponential_instance_with_zeros(rng, shifted):
    """Random exponential instance, raw or with some shifted agents, and a
    random admissible q with about 30% zero densities (at least one
    positive entry per block)."""
    spec, _ = random_exponential_instance(rng, kmax=16, nmax=4,
                                          clusters=int(rng.integers(1, 3)))
    if shifted:
        flags = rng.random(spec.nagents) < 0.6
        agg = Aggregator(tuple(ExponentialUtility(u.alpha, bool(f)) for u, f
                               in zip(spec.aggregator.utilities, flags)))
        spec = replace(spec, aggregator=agg, b=spec.b + flags.sum())
    q = np.empty((spec.nagents, spec.space.natoms))
    for group in spec.clusters.groups:
        row = rng.uniform(0.05, 2.0, size=spec.space.natoms)
        row[rng.random(row.size) < 0.3] = 0.0
        for blk in spec.sigma.blocks:
            if not row[list(blk)].any():
                row[blk[0]] = 1.0
        q[list(group)] = row / cond_exp(row, spec.sigma)
    return spec, DensityVector(q, spec.sigma)


class TestNewtonAgainstClosedForms:
    """The batched Newton on log mu, which serves every aggregator without
    a closed form, checked against the exponential closed forms to 1e-12
    relative to max(1, |value|): a value near 0 is a difference of terms of
    order one."""

    @pytest.mark.parametrize("shifted", [False, True], ids=["raw", "shifted"])
    def test_penalty_and_pi(self, shifted):
        rng = np.random.default_rng(37 + shifted)
        zeros = 0
        for _ in range(60):
            spec, q = exponential_instance_with_zeros(rng, shifted)
            assert spec.aggregator.exponential_form is not None
            zeros += int((q.q == 0.0).sum())
            np.testing.assert_allclose(dual._alpha1_newton(q, spec),
                                       dual._alpha1_exponential(q, spec),
                                       rtol=1e-12, atol=1e-12)
            budget = rng.uniform(-3.0, 3.0, size=spec.sigma.nblocks)
            np.testing.assert_allclose(
                equilibrium._pi_newton(q, budget, spec),
                equilibrium._pi_exponential(q, budget, spec),
                rtol=1e-12, atol=1e-12)
        assert zeros > 0


class TestNewtonRefusals:
    COMPOSITE = (Path(__file__).resolve().parents[1] / "scenarios"
                 / "composite.json")

    def test_inversion_failure_mid_solve(self, monkeypatch):
        spec = parse_scenario(str(self.COMPOSITE)).spec
        q = DensityVector(np.ones((spec.nagents, spec.space.natoms)),
                          spec.sigma)
        inner, calls = preferences.invert_gradient, []

        def failing(agg, target):
            calls.append(1)
            if len(calls) > 1:
                raise InversionError("gradient inversion failed")
            return inner(agg, target)

        monkeypatch.setattr(preferences, "invert_gradient", failing)
        with pytest.raises(InversionError):
            dual._alpha1_newton(q, spec)
        calls.clear()
        with pytest.raises(InversionError):
            pi_problem(q, np.zeros(spec.space.natoms), spec)

    def test_threshold_at_supremum(self, canonical_spec):
        # RiskSpec refuses such a threshold, so set it past the check
        q = canonical_q(canonical_spec)
        for above in (0.0, 1.0):
            spec = make_canonical_spec()
            object.__setattr__(spec, "b", np.full(2, above))
            for solve in (dual._alpha1_exponential, dual._alpha1_newton):
                with pytest.raises(InversionError, match="supremum"):
                    solve(q, spec)
