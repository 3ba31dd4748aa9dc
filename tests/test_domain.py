"""The solver on its random domain (ROADMAP item 10): every instance of a
seeded draw is certified or refused with a typed error.

An instance is certified when solve_rho returns, which it does only for
blocks within kkt_tol, and extract_dual_optimizer closes the duality gap.
The refusals allowed are ConvergenceError, InversionError and DualGapError;
any other exception, and any RuntimeWarning, fails the test.
"""

import collections
import warnings

import numpy as np
import pytest

from condrisk import (ConvergenceError, DualGapError, InversionError,
                      extract_dual_optimizer, solve_rho)
from conftest import random_domain_instance

SEED = 0
COUNT = 100


def test_every_instance_certifies_or_refuses_typed():
    outcomes = collections.Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for i in range(COUNT):
            spec, _ = random_domain_instance(np.random.default_rng([SEED, i]))
            try:
                sol = solve_rho(spec)
                assert np.all(sol.kkt_residual <= spec.kkt_tol)
                extract_dual_optimizer(sol, spec)
                outcomes["certified"] += 1
            except (ConvergenceError, InversionError, DualGapError) as err:
                outcomes[type(err).__name__] += 1
    assert sum(outcomes.values()) == COUNT
    # the draw reaches both outcomes
    assert outcomes["certified"] and len(outcomes) > 1


# (seed, instance, whether the dual closes its gap): near-supremum
# composite blocks that the full Newton step, cut back only by the Armijo
# search, certifies, and that stalled when the step was capped at 20 and
# the multiplier held positive; the duality gap of #757 is the round-off
# floor of ROADMAP item 3
CERTIFIED = ((1, 757, False), (1, 775, True), (2, 832, True))


@pytest.mark.parametrize("seed, i, dual", CERTIFIED)
def test_full_newton_step_certifies(seed, i, dual):
    spec, _ = random_domain_instance(np.random.default_rng([seed, i]))
    sol = solve_rho(spec)
    assert np.all(sol.kkt_residual <= spec.kkt_tol)
    if dual:
        extract_dual_optimizer(sol, spec)
