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
