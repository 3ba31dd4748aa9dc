import numpy as np
import pytest

from condrisk import (ScenarioSpace, SigmaPartition, exp_constants,
                      run_consistency)
from conftest import random_chain


def four_atom_chain():
    space = ScenarioSpace.uniform(4)
    h = SigmaPartition.trivial(space)
    g = SigmaPartition(space, ((0, 1), (2, 3)))
    return space, g, h


class TestClosedForm:
    def test_degenerate_chain(self):
        space, g, _ = four_atom_chain()
        c = exp_constants([1.0, 1.0])
        rng = np.random.default_rng(40)
        x = rng.uniform(-2, 2, size=(2, 4))
        b = g.expand(np.array([-2.0, -1.0]))
        rep = run_consistency(x, b, g, g, c)
        assert rep.passed
        assert max(rep.max_abs_err_y, rep.max_abs_err_q, rep.max_abs_err_a,
                   rep.max_abs_err_rho_recursion) <= 1e-12

    def test_zero_positions(self):
        space, g, h = four_atom_chain()
        c = exp_constants([1.0, 1.0])
        rep = run_consistency(np.zeros((2, 4)), np.full(4, -2.0), g, h, c)
        assert rep.passed

    def test_reference_instance(self):
        space, g, h = four_atom_chain()
        c = exp_constants([1.0, 1.0])
        rng = np.random.default_rng(41)
        x = rng.uniform(-2, 2, size=(2, 4))
        rep = run_consistency(x, np.full(4, -2.0), g, h, c)
        assert rep.passed
        assert rep.max_abs_err_y <= 1e-10

    def test_discrete_fine_partition(self):
        space, _, h = four_atom_chain()
        g = SigmaPartition.discrete(space)
        c = exp_constants([1.0, 0.5])
        rng = np.random.default_rng(42)
        x = rng.uniform(-2, 2, size=(2, 4))
        rep = run_consistency(x, np.full(4, -1.5), g, h, c)
        assert rep.passed

    def test_single_agent_entropic_recursion(self):
        space = ScenarioSpace.uniform(4)
        h = SigmaPartition.trivial(space)
        g = SigmaPartition(space, ((0, 1), (2, 3)))
        c = exp_constants([2.0])
        rng = np.random.default_rng(43)
        x = rng.uniform(-2, 2, size=(1, 4))
        rep = run_consistency(x, np.full(4, -0.5), g, h, c)
        assert rep.max_abs_err_a <= 1e-10

    def test_random_chains(self):
        rng = np.random.default_rng(44)
        for _ in range(40):
            space, g, h, x, b, c = random_chain(rng, kmax=64)
            rep = run_consistency(x, b, g, h, c)
            assert rep.passed, rep


class TestHypotheses:
    def test_requires_nested_partitions(self):
        space = ScenarioSpace.uniform(4)
        g = SigmaPartition(space, ((0, 1), (2, 3)))
        crossing = SigmaPartition(space, ((0, 2), (1, 3)))
        c = exp_constants([1.0])
        with pytest.raises(ValueError):
            run_consistency(np.zeros((1, 4)), np.full(4, -1.0), g,
                            crossing, c)

    def test_flags_threshold_not_coarse_measurable(self):
        space, g, h = four_atom_chain()
        c = exp_constants([1.0, 1.0])
        b_fine = g.expand(np.array([-2.0, -3.0]))  # g- but not h-measurable
        with pytest.raises(ValueError, match="coarse"):
            run_consistency(np.zeros((2, 4)), b_fine, g, h, c)


class TestSolverMode:
    def test_reference_instance(self):
        space, g, h = four_atom_chain()
        c = exp_constants([1.0, 1.0])
        rng = np.random.default_rng(45)
        x = rng.uniform(-2, 2, size=(2, 4))
        rep = run_consistency(x, np.full(4, -2.0), g, h, c, use_solver=True)
        assert rep.passed
        assert rep.tol == 1e-6

    def test_random_chains(self):
        rng = np.random.default_rng(46)
        for _ in range(5):
            space, g, h, x, b, c = random_chain(rng, kmax=16)
            rep = run_consistency(x, b, g, h, c, use_solver=True)
            assert rep.passed, rep

    def test_rho_recursion_through_solver(self):
        space, g, h = four_atom_chain()
        c = exp_constants([0.7, 1.3])
        rng = np.random.default_rng(47)
        x = rng.uniform(-2, 2, size=(2, 4))
        rep = run_consistency(x, np.full(4, -1.0), g, h, c, use_solver=True)
        assert rep.max_abs_err_rho_recursion <= 1e-6


class TestSharedMemo:
    """run_consistency computes every distinct (positions, partition) pair
    once for all four identities."""

    @staticmethod
    def chains():
        """A generic chain, the degenerate chain h = g and zero positions,
        each with the most distinct pairs its five instances can have: at
        h = g, x at g and at h coincide; at zero positions, x and zero at
        h."""
        space, g, h = four_atom_chain()
        c = exp_constants([1.0, 0.5])
        x = np.random.default_rng(48).uniform(-2, 2, size=(2, 4))
        b = np.full(4, -2.0)
        return {"generic": ((x, b, g, h, c), 5),
                "h = g": ((x, b, g, g, c), 4),
                "zero positions": ((np.zeros_like(x), b, g, h, c), 4)}

    @staticmethod
    def _record(monkeypatch, module, name, key):
        real, keys = getattr(module, name), []

        def wrapper(*args):
            keys.append(key(*args))
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)
        return keys

    @pytest.mark.parametrize("case", ["generic", "h = g", "zero positions"])
    def test_solver_mode_one_solve_per_pair(self, monkeypatch, case):
        import condrisk.consistency as cons
        args, most = self.chains()[case]
        batches = self._record(monkeypatch, cons, "solve_batch",
                               lambda specs: [(spec.x.tobytes(),
                                               spec.sigma.blocks)
                                              for spec in specs])
        extracts = self._record(monkeypatch, cons, "extract_dual_optimizer",
                                lambda sol, spec: (spec.x.tobytes(),
                                                   spec.sigma.blocks))
        run_consistency(*args, use_solver=True)
        solves = [pair for batch in batches for pair in batch]
        assert len(batches) <= 2
        assert len(solves) == len(set(solves)) <= most
        assert sorted(extracts) == sorted(solves)

    @pytest.mark.parametrize("case", ["generic", "h = g", "zero positions"])
    def test_closed_form_one_evaluation_per_pair(self, monkeypatch, case):
        import condrisk.consistency as cons
        import condrisk.exponential as expo
        args, most = self.chains()[case]

        def pair(x, *rest):
            return x.tobytes(), rest[-2].blocks

        # rho_closed in both modules: y_hat_closed would evaluate it again
        rhos = self._record(monkeypatch, cons, "rho_closed", pair)
        inner = self._record(monkeypatch, expo, "rho_closed", pair)
        ys = self._record(monkeypatch, cons, "_y_from_rho",
                          lambda x, rho, c: x.tobytes())
        qs = self._record(monkeypatch, cons, "q_hat_closed", pair)
        run_consistency(*args)
        assert not inner
        assert len(rhos) == len(set(rhos)) <= most
        assert sorted(ys) == sorted(x for x, _ in rhos)
        assert sorted(qs) == sorted(rhos)
