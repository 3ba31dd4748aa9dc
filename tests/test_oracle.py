import numpy as np
import pytest

from condrisk import (Aggregator, ClusterConstraint, DensityVector,
                      EmptyFeasibleGridError, RiskSpec, ScenarioSpace,
                      SigmaPartition, grid_max_alpha1, grid_min_rho)
from conftest import CANONICAL, make_canonical_spec


def single_agent_spec(b_value, k=2):
    space = ScenarioSpace.uniform(k)
    g = SigmaPartition.trivial(space)
    return RiskSpec(space=space, sigma=g, x=np.zeros((1, k)),
                    aggregator=Aggregator.exponential([1.0]),
                    b=np.full(k, b_value),
                    clusters=ClusterConstraint.full_sharing(1))


class TestGridMinRho:
    def test_single_agent_zero_positions(self):
        spec = single_agent_spec(-1.0)
        got = grid_min_rho(spec, -1.0, 1.0, 1e-3)
        assert got[0] == pytest.approx(0.0, abs=1e-3)

    def test_canonical_instance(self):
        got = grid_min_rho(make_canonical_spec(), -1.0, 1.0, 1e-3)
        assert got[0] == pytest.approx(CANONICAL["rho"], abs=2e-3)

    def test_monotone_in_threshold(self):
        lo = grid_min_rho(single_agent_spec(-1.5), -2.0, 2.0, 1e-3)[0]
        hi = grid_min_rho(single_agent_spec(-0.5), -2.0, 2.0, 1e-3)[0]
        assert hi > lo

    def test_no_sharing_layout(self):
        spec = make_canonical_spec()
        spec_ns = RiskSpec(space=spec.space, sigma=spec.sigma, x=spec.x,
                           aggregator=spec.aggregator, b=spec.b,
                           clusters=ClusterConstraint.no_sharing(2))
        full = grid_min_rho(spec, -1.0, 1.5, 1e-3)[0]
        none = grid_min_rho(spec_ns, -1.0, 1.5, 1e-3)[0]
        assert none >= full - 1e-3  # sharing can only help

    def test_empty_feasible_grid(self):
        with pytest.raises(EmptyFeasibleGridError):
            grid_min_rho(single_agent_spec(-0.2), -3.0, -2.0, 1e-2)

    def test_rejects_large_instances(self):
        space = ScenarioSpace.uniform(4)
        spec = RiskSpec(space=space, sigma=SigmaPartition.trivial(space),
                        x=np.zeros((1, 4)),
                        aggregator=Aggregator.exponential([1.0]),
                        b=np.full(4, -1.0),
                        clusters=ClusterConstraint.full_sharing(1))
        with pytest.raises(ValueError):
            grid_min_rho(spec, -1.0, 1.0, 1e-2)


class TestGridMaxAlpha1:
    def test_reference_measure_single_agent(self):
        spec = single_agent_spec(-np.e)
        q = DensityVector(np.ones((1, 2)), spec.sigma)
        got = grid_max_alpha1(q, spec, (-4.0, 4.0), 1e-3)
        assert got[0] == pytest.approx(1.0, abs=2e-3)

    def test_canonical_optimal_densities(self):
        spec = make_canonical_spec()
        q = DensityVector(np.tile(CANONICAL["q"], (2, 1)), spec.sigma)
        got = grid_max_alpha1(q, spec, (-4.0, 4.0), 1e-3)
        assert got[0] == pytest.approx(CANONICAL["alpha1"], abs=2e-3)

    def test_widening_bounds_grow_monotonically(self):
        # densities unequal across agents within the sharing cluster: the
        # penalty of the dual representation diverges, and the grid value
        # can only grow as the search box widens
        spec = make_canonical_spec()
        q = DensityVector(np.array([[1.5, 0.5], [0.5, 1.5]]), spec.sigma)
        vals = [grid_max_alpha1(q, spec, (-w, w), 2e-3)[0]
                for w in (1.0, 2.0, 3.0)]
        assert vals[0] <= vals[1] + 1e-12
        assert vals[1] <= vals[2] + 1e-12

    def test_infeasible_bounds(self):
        spec = single_agent_spec(-0.5)
        q = DensityVector(np.ones((1, 2)), spec.sigma)
        with pytest.raises(EmptyFeasibleGridError):
            grid_max_alpha1(q, spec, (-3.0, 0.1), 1e-2)  # utility cap below b


@pytest.mark.parametrize("step", [0.0, -0.01, np.inf, np.nan])
def test_rejects_a_step_not_finite_and_positive(step):
    spec = make_canonical_spec()
    q = DensityVector(np.tile(CANONICAL["q"], (2, 1)), spec.sigma)
    with pytest.raises(ValueError, match="grid step"):
        grid_min_rho(spec, -1.0, 1.0, step)
    with pytest.raises(ValueError, match="grid step"):
        grid_max_alpha1(q, spec, (-4.0, 4.0), step)
