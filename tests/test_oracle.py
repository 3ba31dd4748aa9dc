import json
from pathlib import Path

import numpy as np
import pytest

from condrisk import (Aggregator, ClusterConstraint, DensityVector,
                      EmptyFeasibleGridError, RiskSpec, ScenarioSpace,
                      SigmaPartition, extract_dual_optimizer, grid_max_alpha1,
                      grid_min_rho, parse_scenario, solve_rho)
from condrisk import cli
from conftest import CANONICAL, make_canonical_spec

CANONICAL_FILE = (Path(__file__).resolve().parents[1] / "scenarios"
                  / "canonical.json")


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


def oracle_report(argv, capsys):
    assert cli.main(["oracle", str(CANONICAL_FILE)] + argv) == 0
    return capsys.readouterr().out


def test_grids_lie_on_multiples_of_the_step():
    spec = make_canonical_spec()
    got = grid_min_rho(spec, -1.234, 1.0, 1e-2)[0]
    assert got == 1e-2 * round(got / 1e-2)
    assert got == grid_min_rho(spec, -2.0, 3.0, 1e-2)[0]


def test_oracle_report_does_not_follow_the_solver_start(monkeypatch, capsys):
    # the start sizes the grids only, so a small move of it leaves every
    # grid point, and the report, as it was
    before = oracle_report(["--step", "1e-2"], capsys)
    start = cli.feasible_start
    monkeypatch.setattr(cli, "feasible_start", lambda spec: start(spec) + 1e-3)
    assert oracle_report(["--step", "1e-2"], capsys) == before
    assert json.loads(before)["pass"] is True


class TestExtremeRiskAversion:
    """canonical.json with agents[1].alpha = 1e200: exp(-alpha z) overflows
    on every grid point below 0."""

    @pytest.fixture
    def doc(self, tmp_path):
        doc = json.loads(CANONICAL_FILE.read_text())
        doc["agents"][1]["alpha"] = 1e200
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(doc))
        return path

    def test_rho_grid_counts_an_overflow_as_infeasible(self, doc):
        spec = parse_scenario(doc).spec
        got = grid_min_rho(spec, -4.0, 4.0, 1e-2)[0]
        assert abs(got - solve_rho(spec).rho[0]) <= 2e-2

    def test_budget_split_is_refused_without_a_finite_floor(self, doc):
        spec = parse_scenario(doc).spec
        q = extract_dual_optimizer(solve_rho(spec), spec)
        with pytest.raises(ValueError, match="lower corner"):
            grid_max_alpha1(q, spec, (-4.0, 4.0), 1e-2)

    def test_command_exits_2_without_a_warning(self, doc, capsys):
        assert cli.main(["oracle", str(doc)]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("invariant violation: utility -inf")
