"""Batch command line front end.

One subcommand per verification cluster; each reads a scenario file, runs
the computation and emits a deterministic JSON report (stable key order,
numbers as 12-significant-digit decimal strings).

Exit codes: 0 success (the report carries a pass field), 1 scenario format
error, 2 domain invariant violation or a usage error (among them an --out
path whose directory does not exist, found before the scenario is read,
and an --out path that cannot be written), 3 convergence failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .consistency import run_consistency
from .dual import DualGapError, dual_report, extract_dual_optimizer
from .equilibrium import build_equilibrium, pi_problem, verify_msorte
from .exponential import (a_hat_closed, alpha1_entropic, exp_constants,
                          q_hat_closed, rho_closed, y_hat_closed)
from .oracle import grid_max_alpha1, grid_min_rho
from .preferences import InversionError
from .primal import ConvergenceError, check_axioms, feasible_start, solve_rho
from .scenario import Scenario, ScenarioError, parse_scenario


def _fmt(x) -> str:
    return "%.12g" % float(x)


def _per_block(values: np.ndarray, sigma) -> dict:
    return {f"block{m}": _fmt(v) for m, v in enumerate(values[sigma.first])}


def _matrix(values: np.ndarray) -> list:
    return [[_fmt(v) for v in row] for row in np.atleast_2d(values)]


def cmd_risk(sc: Scenario, args) -> dict:
    spec = sc.spec
    sol = solve_rho(spec)
    # deterministic companion instance and mixing weight for the axiom suite
    spec2 = spec.with_x(-0.5 * spec.x + 0.1)
    lam = np.where(spec.sigma.block_index % 2 == 0, 0.3, 0.7)
    axioms = check_axioms(spec, spec2, lam)
    ok = bool(np.max(sol.kkt_residual) <= spec.kkt_tol and axioms.passed)
    return {
        "command": "risk",
        "pass": ok,
        "rho": _per_block(sol.rho, spec.sigma),
        "y_hat": _matrix(sol.y_hat),
        "kkt_residual": [_fmt(r) for r in sol.kkt_residual],
        "axioms": {
            "monotonicity_gap": _fmt(axioms.monotonicity_gap),
            "convexity_gap": _fmt(axioms.convexity_gap),
            "additivity_err": _fmt(axioms.additivity_err),
            "locality_err": _fmt(axioms.locality_err),
            "passed": axioms.passed,
        },
    }


def cmd_dual(sc: Scenario, args) -> dict:
    spec = sc.spec
    sol = solve_rho(spec)
    q = extract_dual_optimizer(sol, spec)
    rep = dual_report(sol, q, spec)
    ok = bool(rep.in_q1 and np.max(np.abs(rep.gap)) <= 5.0 * spec.kkt_tol)
    return {
        "command": "dual",
        "pass": ok,
        "in_q1": rep.in_q1,
        "alpha1": _per_block(rep.alpha1, spec.sigma),
        "dual_value": _per_block(rep.dual_value, spec.sigma),
        "gap": _per_block(rep.gap, spec.sigma),
        # the risk under the fixed measure q is its dual value, here the
        # one solved from the primal start
        "rho_with_measure": _per_block(rep.dual_value, spec.sigma),
        "q": _matrix(q.q),
    }


def cmd_expcheck(sc: Scenario, args) -> dict:
    spec = sc.spec
    alphas = spec.aggregator.raw_exponential_alphas
    if alphas is None or spec.clusters.ngroups != 1:
        raise ValueError("expcheck requires raw exponential agents with "
                         "full sharing")
    c = exp_constants(alphas)
    sol = solve_rho(spec)
    q = extract_dual_optimizer(sol, spec)
    rho_c = rho_closed(spec.x, spec.b, spec.sigma, c)
    y_c = y_hat_closed(spec.x, spec.b, spec.sigma, c)
    q_c = q_hat_closed(spec.x, spec.sigma, c)
    a_c = a_hat_closed(spec.x, spec.b, spec.sigma, c)
    alpha_ent = alpha1_entropic(q_c, spec.b, spec.sigma, c)
    rep = dual_report(sol, q, spec)
    d_rho = float(np.max(np.abs(sol.rho - rho_c)
                         / np.maximum(1.0, np.abs(rho_c))))
    d_y = float(np.max(np.abs(sol.y_hat - y_c)))
    d_q = float(np.max(np.abs(q.q - q_c.q)))
    d_alpha = float(np.max(np.abs(rep.alpha1 - alpha_ent)))
    d_asum = float(np.max(np.abs(a_c.sum(axis=0) - rho_c)))
    ok = bool(d_rho <= 1e-6 and d_q <= 1e-6 and d_alpha <= 1e-8
              and d_asum <= 1e-12)
    return {
        "command": "expcheck",
        "pass": ok,
        "rho_closed": _per_block(rho_c, spec.sigma),
        "deltas": {
            "rho_max_rel": _fmt(d_rho),
            "y_max_abs": _fmt(d_y),
            "q_max_abs": _fmt(d_q),
            "alpha1_entropic_vs_direct": _fmt(d_alpha),
            "fair_allocation_sum": _fmt(d_asum),
        },
    }


def cmd_consistency(sc: Scenario, args) -> dict:
    spec = sc.spec
    if sc.sigma_h is None:
        raise ValueError("consistency requires the sigma_h field")
    alphas = spec.aggregator.raw_exponential_alphas
    if alphas is None or spec.clusters.ngroups != 1:
        raise ValueError("consistency requires raw exponential agents with "
                         "full sharing")
    c = exp_constants(alphas)
    closed = run_consistency(spec.x, spec.b, spec.sigma, sc.sigma_h, c)
    solver = run_consistency(spec.x, spec.b, spec.sigma, sc.sigma_h, c,
                             use_solver=True, kkt_tol=spec.kkt_tol,
                             max_iter=spec.max_iter)

    def block(rep):
        return {
            "max_abs_err_y": _fmt(rep.max_abs_err_y),
            "max_abs_err_q": _fmt(rep.max_abs_err_q),
            "max_abs_err_a": _fmt(rep.max_abs_err_a),
            "max_abs_err_rho_recursion": _fmt(rep.max_abs_err_rho_recursion),
            "tol": _fmt(rep.tol),
            "passed": rep.passed,
        }

    return {
        "command": "consistency",
        "pass": bool(closed.passed and solver.passed),
        "closed_form": block(closed),
        "solver": block(solver),
    }


def cmd_msorte(sc: Scenario, args) -> dict:
    spec = sc.spec
    triple = build_equilibrium(spec)
    # --tol sets the KKT tolerance of the solves, not this bound
    rep = verify_msorte(triple, spec, tol=1e-6)
    pi = pi_problem(triple.q, triple.budget_a, spec)
    return {
        "command": "msorte",
        "pass": rep.passed,
        "residuals": {
            "cluster_feasibility": _fmt(rep.cluster_feasibility),
            "budget_match": _fmt(rep.budget_match),
            "constraint_activity": _fmt(rep.constraint_activity),
            "value_match": _fmt(rep.value_match),
            "alpha_match": _fmt(rep.alpha_match),
            "per_agent_optimality": _fmt(rep.per_agent_optimality),
        },
        "budget": _per_block(triple.budget_a, spec.sigma),
        "pi_value": _per_block(pi, spec.sigma),
        "fair_allocations": _matrix(triple.alpha),
    }


def cmd_oracle(sc: Scenario, args) -> dict:
    spec = sc.spec
    step = 1e-3 if args.step is None else args.step
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"--step must be finite and positive, not {step!r}")
    base = float(np.abs(spec.x).sum(axis=0).max())
    start = feasible_start(spec)
    width = 2.0 * base + float(np.abs(start.sum(axis=0)).max()) + 2.0
    sol = solve_rho(spec)
    rho_oracle = grid_min_rho(spec, -width, width, step)
    q = extract_dual_optimizer(sol, spec)
    alpha_oracle = grid_max_alpha1(q, spec, (-width - 8.0, width + 8.0), step)
    rep = dual_report(sol, q, spec)
    first = spec.sigma.first
    d_rho = float(np.max(np.abs(rho_oracle - sol.rho[first])))
    d_alpha = float(np.max(np.abs(alpha_oracle - rep.alpha1[first])))
    ok = bool(d_rho <= 2.0 * step and d_alpha <= 2.0 * step)
    return {
        "command": "oracle",
        "pass": ok,
        "step": _fmt(step),
        "rho_oracle": {f"block{m}": _fmt(v) for m, v in enumerate(rho_oracle)},
        "rho_solver": _per_block(sol.rho, spec.sigma),
        "alpha1_oracle": {f"block{m}": _fmt(v)
                          for m, v in enumerate(alpha_oracle)},
        "alpha1_solver": _per_block(rep.alpha1, spec.sigma),
        "max_dev_rho": _fmt(d_rho),
        "max_dev_alpha1": _fmt(d_alpha),
    }


_COMMANDS = {
    "risk": cmd_risk,
    "dual": cmd_dual,
    "expcheck": cmd_expcheck,
    "consistency": cmd_consistency,
    "msorte": cmd_msorte,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="condrisk",
        description="Conditional shortfall systemic risk computations on "
                    "finite scenario spaces")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("file", help="scenario JSON file")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the KKT tolerance")
    parser.add_argument("--step", type=float, default=None,
                        help="grid step for the oracle command")
    parser.add_argument("--out", default=None,
                        help="write the report to this path instead of stdout")
    args = parser.parse_args(argv)
    folder = os.path.dirname(args.out or "") or "."
    if not os.path.isdir(folder):
        parser.error(f"--out {args.out}: directory {folder} does not exist")

    try:
        sc = parse_scenario(args.file)
        if args.tol is not None:
            sc = Scenario(spec=replace(sc.spec, kkt_tol=args.tol),
                          sigma_h=sc.sigma_h)
        report = _COMMANDS[args.command](sc, args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, DualGapError, InversionError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except NotImplementedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2

    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write the report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
