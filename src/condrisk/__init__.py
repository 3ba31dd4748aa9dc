"""Conditional shortfall systemic risk measures on finite scenario spaces.

Computes the least total capital, measurable with respect to an information
partition, that secures a system of agents against a conditional expected
utility threshold; together with the optimal scenario-dependent allocations,
the dual measure vectors and penalties, exponential closed forms, time
consistency across nested partitions, and risk-transfer equilibria.
"""

from .consistency import ConsistencyReport, run_consistency
from .dual import (DualGapError, DualReport, PenaltyDivergenceError,
                   dual_report, dual_value, extract_dual_optimizer, in_q1,
                   penalty_alpha1)
from .equilibrium import (EquilibriumTriple, MsorteReport, build_equilibrium,
                          pi_problem, verify_msorte)
from .exponential import (ExpConstants, a_hat_closed, alpha1_entropic,
                          exp_constants, q_hat_closed, rho_closed,
                          y_hat_closed)
from .oracle import EmptyFeasibleGridError, grid_max_alpha1, grid_min_rho
from .preferences import (Aggregator, ArctanPowerUtility, ExponentialUtility,
                          InversionError, LambdaAggregator,
                          RationalPowerUtility)
from .primal import (AxiomReport, ClusterConstraint, ConvergenceError,
                     PrimalSolution, RiskSpec, check_axioms, feasible_start,
                     solve_rho)
from .prob_space import (DensityVector, ScenarioSpace, SigmaPartition,
                         coarsens, cond_exp, cond_exp_under_density,
                         cond_relative_entropy, is_measurable)
from .scenario import Scenario, ScenarioError, parse_scenario

__all__ = [
    "Aggregator", "ArctanPowerUtility", "AxiomReport", "ClusterConstraint",
    "ConsistencyReport", "ConvergenceError", "DensityVector", "DualGapError",
    "DualReport", "EmptyFeasibleGridError", "EquilibriumTriple",
    "ExpConstants", "ExponentialUtility", "InversionError", "LambdaAggregator",
    "MsorteReport", "PenaltyDivergenceError", "PrimalSolution",
    "RationalPowerUtility", "RiskSpec", "Scenario", "ScenarioError",
    "ScenarioSpace", "SigmaPartition", "a_hat_closed", "alpha1_entropic",
    "build_equilibrium", "check_axioms", "coarsens", "cond_exp",
    "cond_exp_under_density", "cond_relative_entropy", "dual_report",
    "dual_value", "exp_constants", "extract_dual_optimizer", "feasible_start",
    "grid_max_alpha1", "grid_min_rho", "in_q1", "is_measurable",
    "parse_scenario", "penalty_alpha1", "pi_problem", "q_hat_closed",
    "rho_closed", "run_consistency", "solve_rho", "verify_msorte",
    "y_hat_closed",
]

__version__ = "0.1.0"
