from pathlib import Path

import numpy as np
import pytest

from condrisk import (Aggregator, ClusterConstraint, DensityVector, RiskSpec,
                      ScenarioSpace, SigmaPartition, build_equilibrium,
                      parse_scenario, pi_problem, solve_rho, verify_msorte)
from condrisk.equilibrium import EquilibriumTriple
from conftest import CANONICAL, random_exponential_instance

ROOT = Path(__file__).resolve().parents[1]


class TestPiProblem:
    def test_optimal_budget_recovers_threshold(self, canonical_spec):
        triple = build_equilibrium(canonical_spec)
        pi = pi_problem(triple.q, triple.budget_a, canonical_spec)
        np.testing.assert_allclose(pi, -2.0, atol=1e-6)

    def test_larger_budget_strictly_better(self, canonical_spec):
        triple = build_equilibrium(canonical_spec)
        pi = pi_problem(triple.q, triple.budget_a, canonical_spec)
        pi_up = pi_problem(triple.q, triple.budget_a + 1.0, canonical_spec)
        assert np.all(pi_up > pi + 1e-3)

    def test_symmetric_zero_instance(self):
        space = ScenarioSpace.uniform(2)
        g = SigmaPartition.trivial(space)
        spec = RiskSpec(space=space, sigma=g, x=np.zeros((2, 2)),
                        aggregator=Aggregator.exponential([1.0, 1.0]),
                        b=np.full(2, -2.0),
                        clusters=ClusterConstraint.full_sharing(2))
        q = DensityVector(np.ones((2, 2)), g)
        pi = pi_problem(q, np.zeros(2), spec)
        np.testing.assert_allclose(pi, -2.0, atol=1e-10)

    def test_rejects_inadmissible_measure(self, canonical_spec):
        q = DensityVector(np.array([[1.5, 0.5], [0.5, 1.5]]),
                          canonical_spec.sigma)
        with pytest.raises(ValueError):
            pi_problem(q, np.zeros(2), canonical_spec)

    def test_rejects_a_budget_matrix(self, canonical_spec):
        triple = build_equilibrium(canonical_spec)
        with pytest.raises(ValueError, match="shape"):
            pi_problem(triple.q, triple.budget_a[None, :], canonical_spec)

    def test_rejects_unmeasurable_budget(self, canonical_spec):
        triple = build_equilibrium(canonical_spec)
        with pytest.raises(ValueError):
            pi_problem(triple.q, np.array([0.1, 0.2]), canonical_spec)


class TestVerify:
    def test_canonical_triple_passes(self, canonical_spec):
        rep = verify_msorte(build_equilibrium(canonical_spec), canonical_spec)
        assert rep.passed, rep
        assert rep.value_match <= 1e-6

    def test_budgets_are_fair_allocations(self, canonical_spec):
        triple = build_equilibrium(canonical_spec)
        np.testing.assert_allclose(triple.alpha[:, 0], CANONICAL["a"],
                                   atol=1e-9)
        np.testing.assert_allclose(triple.budget_a, CANONICAL["rho"],
                                   atol=1e-9)

    def test_perturbed_allocation_fails(self, canonical_spec):
        triple = build_equilibrium(canonical_spec)
        y_bad = triple.y.copy()
        y_bad[0, 0] += 0.1
        y_bad[1, 0] -= 0.1  # keep the cluster sum measurable
        bad = EquilibriumTriple(y=y_bad, q=triple.q, alpha=triple.alpha,
                                budget_a=triple.budget_a)
        rep = verify_msorte(bad, canonical_spec)
        assert not rep.passed
        assert rep.constraint_activity > 1e-4 or rep.value_match > 1e-4

    def test_symmetric_trivial_equilibrium(self):
        # zero positions, reference densities, zero budgets, threshold -N
        space = ScenarioSpace.uniform(2)
        g = SigmaPartition.trivial(space)
        spec = RiskSpec(space=space, sigma=g, x=np.zeros((2, 2)),
                        aggregator=Aggregator.exponential([1.0, 1.0]),
                        b=np.full(2, -2.0),
                        clusters=ClusterConstraint.full_sharing(2))
        triple = EquilibriumTriple(y=np.zeros((2, 2)),
                                   q=DensityVector(np.ones((2, 2)), g),
                                   alpha=np.zeros((2, 2)),
                                   budget_a=np.zeros(2))
        rep = verify_msorte(triple, spec)
        assert rep.passed, rep

    def test_underflowed_marginal_leaves_the_diagnostic_finite(self):
        # at x = 800 the marginal utility e^-800 underflows to 0, and so
        # does the density: that atom shows nothing of the ratio
        space = ScenarioSpace.uniform(2)
        spec = RiskSpec(space=space, sigma=SigmaPartition.trivial(space),
                        x=np.array([[800.0, 0.0], [800.0, 0.0]]),
                        aggregator=Aggregator.exponential([1.0, 1.0]),
                        b=np.full(2, -1.0),
                        clusters=ClusterConstraint.no_sharing(2))
        rep = verify_msorte(build_equilibrium(spec), spec)
        assert rep.passed, rep
        assert rep.per_agent_optimality == 0.0

    def test_one_aggregator_pass_at_the_allocation(self, monkeypatch):
        # U and grad U at X + Y come from one Aggregator.terms call
        spec = parse_scenario(ROOT / "scenarios" / "canonical.json").spec
        triple = build_equilibrium(spec)
        points = []
        terms = Aggregator.terms

        def counting(self, z):
            points.append(np.array(z, dtype=float))
            return terms(self, z)

        monkeypatch.setattr(Aggregator, "terms", counting)
        rep = verify_msorte(triple, spec)
        assert rep.passed, rep
        at_xy = [z for z in points
                 if z.shape == spec.x.shape and np.all(z == spec.x + triple.y)]
        assert len(at_xy) == 1

    def test_triple_invariants(self, canonical_spec):
        g = canonical_spec.sigma
        with pytest.raises(ValueError):
            EquilibriumTriple(y=np.zeros((2, 2)),
                              q=DensityVector(np.ones((2, 2)), g),
                              alpha=np.array([[0.1, 0.2], [0.0, 0.0]]),
                              budget_a=np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            EquilibriumTriple(y=np.zeros((2, 2)),
                              q=DensityVector(np.ones((2, 2)), g),
                              alpha=np.zeros((2, 2)),
                              budget_a=np.array([0.5, 0.5]))

    def test_rows_must_match_the_densities(self, canonical_spec):
        # a (1, K) budget row summing the agents' rows, a y with one row
        # too few or a (1, K) total would broadcast against the (N, K)
        # densities and the (K,) totals
        t = build_equilibrium(canonical_spec)
        for y, alpha, total in (
                (t.y, t.alpha.sum(axis=0, keepdims=True), t.budget_a),
                (t.y[:1], t.alpha, t.budget_a),
                (t.y.T[:, :1], t.alpha, t.budget_a),
                (t.y, t.alpha, t.budget_a[None, :])):
            with pytest.raises(ValueError, match="shape"):
                EquilibriumTriple(y=y, q=t.q, alpha=alpha, budget_a=total)

    def test_unmeasurable_budget_row_is_named(self):
        space = ScenarioSpace.uniform(4)
        g = SigmaPartition(space, ((0, 1), (2, 3)))
        alpha = np.zeros((3, 4))
        alpha[2] = [0.0, 0.0, 1.0, 2.0]
        alpha[1] = -alpha[2]
        with pytest.raises(ValueError, match="budget row 1 "):
            EquilibriumTriple(y=np.zeros((3, 4)),
                              q=DensityVector(np.ones((3, 4)), g),
                              alpha=alpha, budget_a=np.zeros(4))

    def test_verify_refuses_a_triple_of_another_problem(self,
                                                         canonical_spec):
        triple = build_equilibrium(canonical_spec)
        g = SigmaPartition.discrete(canonical_spec.space)
        other_partition = EquilibriumTriple(
            y=triple.y, q=DensityVector(np.ones((2, 2)), g),
            alpha=triple.y, budget_a=triple.budget_a)
        with pytest.raises(ValueError, match="partition"):
            verify_msorte(other_partition, canonical_spec)
        one_agent = EquilibriumTriple(
            y=triple.y.sum(axis=0), q=DensityVector(np.ones(2),
                                                    canonical_spec.sigma),
            alpha=triple.budget_a, budget_a=triple.budget_a)
        with pytest.raises(ValueError, match="agents"):
            verify_msorte(one_agent, canonical_spec)

    def test_random_instances_close(self):
        rng = np.random.default_rng(50)
        for _ in range(15):
            spec, _ = random_exponential_instance(rng, kmax=12, nmax=4)
            rep = verify_msorte(build_equilibrium(spec), spec)
            assert rep.passed, rep

    def test_budget_consistency_with_rho(self):
        rng = np.random.default_rng(51)
        spec, _ = random_exponential_instance(rng, kmax=10, nmax=3)
        sol = solve_rho(spec)
        triple = build_equilibrium(spec, sol)
        np.testing.assert_allclose(triple.alpha.sum(axis=0), sol.rho,
                                   atol=5 * spec.kkt_tol)

    def test_static_reduction_trivial_partition(self):
        # with the trivial partition the verification reproduces the
        # one-shot static equilibrium: budgets are plain numbers
        rng = np.random.default_rng(52)
        space = ScenarioSpace(tuple("abc"), rng.dirichlet(np.ones(3)))
        g = SigmaPartition.trivial(space)
        spec = RiskSpec(space=space, sigma=g,
                        x=rng.uniform(-2, 2, size=(3, 3)),
                        aggregator=Aggregator.exponential([1.0, 2.0, 0.5]),
                        b=np.full(3, -2.0),
                        clusters=ClusterConstraint.full_sharing(3))
        triple = build_equilibrium(spec)
        rep = verify_msorte(triple, spec)
        assert rep.passed
        for row in triple.alpha:
            assert np.ptp(row) <= 1e-10  # deterministic per-agent budget
