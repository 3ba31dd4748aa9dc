"""Scenario generators and per-instance pipelines of the benchmark workloads.

Each workload is a generator, which turns a seeded random stream and the
instance's position in the run into a scenario document (the JSON format
``condrisk.parse_scenario`` reads), and a pipeline, which pushes one
scenario file through the same public calls as the command line subcommands
and then applies the workload's correctness gates.  A pipeline returns the
values the gates looked at.  A result the package returned as good that
fails a gate raises ``GateError``; a verification report of the package
that says a check failed raises ``NotCertified``.  Every public call runs
inside ``tracer.span`` so that a traced run can attribute time to the
package modules.
"""

from __future__ import annotations

import math

import numpy as np

from condrisk import (build_equilibrium, dual_report, exp_constants,
                      extract_dual_optimizer, parse_scenario, pi_problem,
                      rho_closed, run_consistency, solve_rho,
                      verify_msorte)

# Relative agreement the expcheck subcommand demands of the solver against
# the exponential closed form.
CLOSED_FORM_RTOL = 1e-6
# Tolerance the msorte subcommand passes to verify_msorte by default.
MSORTE_TOL = 1e-6


# What the package raises when it declines to certify: ConvergenceError,
# DualGapError, PenaltyDivergenceError and NotImplementedError are
# RuntimeErrors; ScenarioError, domain invariant violations and
# numpy.linalg.LinAlgError are ValueErrors.
PROGRAM_ERRORS = (RuntimeError, ValueError, ArithmeticError)


class GateError(AssertionError):
    """The benchmark found a result wrong that the package returned as good."""


class NotCertified(RuntimeError):
    """A verification report of the package says that a check failed: the
    package declined to certify the instance rather than return a wrong
    result, as the command line does with ``"pass": false``."""


def _labels(k):
    return [f"w{i}" for i in range(k)]


def _probs(rng, k):
    return [float(p) for p in rng.dirichlet(np.full(k, 2.0))]


def _cut(rng, k, lo, hi):
    """Contiguous blocks of lo..hi atoms covering 0..k-1 (k >= lo,
    hi >= 2 * lo - 1)."""
    blocks, start = [], 0
    while k - start > hi:
        size = int(rng.integers(lo, min(hi, k - start - lo) + 1))
        blocks.append(list(range(start, start + size)))
        start += size
    blocks.append(list(range(start, k)))
    return blocks


def _split(rng, atoms, pieces):
    """Cut a list of atoms into pieces contiguous nonempty runs."""
    cuts = sorted(int(c) for c in rng.choice(
        np.arange(1, len(atoms)), pieces - 1, replace=False))
    bounds = [0] + cuts + [len(atoms)]
    return [atoms[a:b] for a, b in zip(bounds, bounds[1:])]


def _expand(blocks, per_block, k):
    out = [0.0] * k
    for blk, v in zip(blocks, per_block):
        for i in blk:
            out[i] = float(v)
    return out


# The generators cycle the size parameters that set an instance's cost
# (atoms, agents, blocks, sharing) with the instance index, and draw the rest
# from the seeded stream, so that every run sees nearly the same mix of sizes
# and seeds differ only in positions, probabilities and thresholds.  The
# wide_block and nested_certify generators take their scalar parameters
# (thresholds, risk aversions, powers, weights) from ``u``, the instance's
# point of a randomly shifted lattice (``lattice_point``): the seed sets the
# shift, and over a run's instances each parameter covers its range evenly.
# Their cost per instance varies several-fold with these parameters, so
# independent draws would make a run's latency percentiles depend on the
# seed more than on the program.

# Steps of the lattice: fractional parts of square roots of primes.
LATTICE_STEPS = np.sqrt([2.0, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]) % 1.0


def lattice_point(shift, i):
    """Point i of the lattice shifted by ``shift`` (in [0, 1)^d)."""
    return (shift + i * LATTICE_STEPS[:len(shift)]) % 1.0


def _between(lo, hi, u):
    return lo + (hi - lo) * u


# many_blocks: why -- 128 atoms in about 25 small independent blocks, so the
# per-block Newton solve in primal dominates.  Per-block parallelism, batched
# Newton or faster Jacobian assembly shows here.  A quarter of the thresholds
# sit close to the supremum (the fragile regime the solver notes describe).
def gen_many_blocks(rng, i, u):
    k = 128
    n = 3 + i % 3
    blocks = _cut(rng, k, 2, 8)
    near_sup = rng.random(len(blocks)) < 0.25
    b_blocks = np.where(near_sup, rng.uniform(-0.1, -0.005, len(blocks)),
                        rng.uniform(-5.0, -0.1, len(blocks)))
    if i // 3 % 2 == 0:
        clusters = [list(range(n))]
    else:
        perm = [int(j) for j in rng.permutation(n)]
        cut = int(rng.integers(1, n))
        clusters = [sorted(perm[:cut]), sorted(perm[cut:])]
    return {
        "atoms": {"labels": _labels(k), "probs": _probs(rng, k)},
        "sigma_g": blocks,
        "agents": [{"kind": "exponential", "alpha": float(a)}
                   for a in rng.uniform(0.3, 2.0, n)],
        "x": rng.uniform(-2.0, 2.0, (n, k)).tolist(),
        "b": _expand(blocks, b_blocks, k),
        "clusters": clusters,
    }


# wide_block: why -- one or two blocks of 16-32 atoms with a non-separable
# aggregator, so there is nothing to split across blocks: time goes to the
# dense KKT solve and to the per-column Newton in invert_gradient behind the
# dual side.  A per-block optimisation should leave this workload unchanged.
def gen_wide_block(rng, i, u):
    k = 16 + 7 * i % 17
    if i % 2 == 0:
        blocks = [list(range(k))]
    else:
        cut = int(rng.integers(k // 3, 2 * k // 3 + 1))
        blocks = [list(range(cut)), list(range(cut, k))]
    p = _between(1.5, 3.0, u[0:3])
    agents = [
        {"kind": "exponential", "alpha": float(_between(0.5, 2.0, u[3])),
         "shifted": True},
        {"kind": "rational_power", "p": float(p[0])},
        {"kind": "arctan_power", "p": float(p[1])},
        {"kind": "rational_power", "p": float(p[2])},
    ]
    lam = {"kind": "composite",
           "u": {"kind": "exponential",
                 "alpha": float(_between(0.5, 1.5, u[4])), "shifted": True},
           "weights": [float(w) for w in _between(0.2, 1.0, u[5:9])]}
    # the aggregator is 0 at the origin and its supremum is sup_total
    sup_total = 1.0 + p[0] + p[1] * math.pi / 2.0 + p[2] + 1.0
    b_blocks = _between(-2.0, 0.5 * sup_total, u[9:9 + len(blocks)])
    return {
        "atoms": {"labels": _labels(k), "probs": _probs(rng, k)},
        "sigma_g": blocks,
        "agents": agents,
        "lambda": lam,
        "x": rng.normal(0.0, 1.0, (4, k)).tolist(),
        "b": _expand(blocks, b_blocks, k),
        "clusters": [[0, 1], [2, 3]],
    }


# nested_certify: why -- a coarse partition H with a finer G inside it, and
# the consistency identities checked in closed form and through the solver,
# plus the equilibrium triple.  The solver side re-solves many related
# instances, so caching, memoization and warm starts show here only.
def gen_nested_certify(rng, i, u):
    k = 8 + 7 * i % 25
    n = 2 + i % 3
    h_blocks = _split(rng, list(range(k)), 2 + i // 3 % 2)
    g_blocks = []
    for blk, v in zip(h_blocks, u[0:3]):
        pieces = 1 + int(v * min(3, len(blk)))
        g_blocks.extend(_split(rng, blk, pieces))
    b_blocks = _between(-5.0, -0.1, u[3:3 + len(h_blocks)])
    return {
        "atoms": {"labels": _labels(k), "probs": _probs(rng, k)},
        "sigma_g": g_blocks,
        "sigma_h": h_blocks,
        "agents": [{"kind": "exponential", "alpha": float(a)}
                   for a in _between(0.3, 3.0, u[6:6 + n])],
        "x": rng.uniform(-3.0, 3.0, (n, k)).tolist(),
        "b": _expand(h_blocks, b_blocks, k),
        "clusters": [list(range(n))],
    }


def _gate(ok, what):
    if not ok:
        raise GateError(what)


def _primal_gate(sol, spec):
    res = float(np.max(sol.kkt_residual))
    _gate(res <= spec.kkt_tol,
          f"KKT residual {res:.3e} above tolerance {spec.kkt_tol:.1e}")


def _dual_steps(path, tr):
    """parse -> solve_rho -> extract_dual_optimizer -> dual_report, as the
    ``dual`` subcommand runs them, with its gates: KKT residual, in_q1 and
    the duality gap."""
    with tr.span("scenario.parse"):
        spec = parse_scenario(path).spec
    with tr.span("primal.solve_rho"):
        sol = solve_rho(spec)
    with tr.span("dual.extract"):
        q = extract_dual_optimizer(sol, spec)
    with tr.span("dual.report"):
        rep = dual_report(sol, q, spec)
    _primal_gate(sol, spec)
    _gate(rep.in_q1, "extracted dual optimizer is not admissible")
    gap = float(np.max(np.abs(rep.gap)))
    _gate(gap <= 5.0 * spec.kkt_tol,
          f"duality gap {gap:.3e} above 5*kkt_tol")
    return spec, sol, gap


def run_many_blocks(path, tr):
    spec, sol, gap = _dual_steps(path, tr)
    if spec.clusters.ngroups == 1:
        # full sharing of raw exponential agents: the expcheck closed form
        alphas = spec.aggregator.raw_exponential_alphas
        with tr.span("exponential.closed_form"):
            rho_c = rho_closed(spec.x, spec.b, spec.sigma,
                               exp_constants(alphas))
        rel = float(np.max(np.abs(sol.rho - rho_c)
                           / np.maximum(1.0, np.abs(rho_c))))
        _gate(rel <= CLOSED_FORM_RTOL,
              f"rho differs from the closed form by {rel:.3e} relative")
    return spec, sol, gap


def run_nested_certify(path, tr):
    """The ``consistency`` and ``msorte`` subcommands on one scenario; the
    primal solve that build_equilibrium would make is made explicitly so its
    time and counts are visible."""
    with tr.span("scenario.parse"):
        sc = parse_scenario(path)
    spec = sc.spec
    c = exp_constants(spec.aggregator.raw_exponential_alphas)
    with tr.span("consistency.closed"):
        closed = run_consistency(spec.x, spec.b, spec.sigma, sc.sigma_h, c)
    with tr.span("consistency.solver"):
        solver = run_consistency(spec.x, spec.b, spec.sigma, sc.sigma_h, c,
                                 use_solver=True)
    with tr.span("primal.solve_rho"):
        sol = solve_rho(spec)
    with tr.span("equilibrium.build"):
        triple = build_equilibrium(spec, sol)
    with tr.span("equilibrium.verify"):
        rep = verify_msorte(triple, spec, tol=MSORTE_TOL)
    with tr.span("equilibrium.pi_problem"):
        pi_problem(triple.q, triple.budget_a, spec)
    _primal_gate(sol, spec)
    for report, what in ((closed, "closed-form consistency"),
                         (solver, "solver consistency"),
                         (rep, "equilibrium verification")):
        if not report.passed:
            raise NotCertified(f"{what} failed: {report}")
    return spec, sol, None


WORKLOADS = {
    "many_blocks": (gen_many_blocks, run_many_blocks),
    "wide_block": (gen_wide_block, _dual_steps),
    "nested_certify": (gen_nested_certify, run_nested_certify),
}
