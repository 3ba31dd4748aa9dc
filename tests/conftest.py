"""Shared builders for randomized instances and the canonical example."""

from dataclasses import replace

import numpy as np
import pytest

from condrisk import (Aggregator, ArctanPowerUtility, ClusterConstraint,
                      ExponentialUtility, LambdaAggregator,
                      RationalPowerUtility, RiskSpec, ScenarioSpace,
                      SigmaPartition, exp_constants)
from condrisk.preferences import UnivariateUtility, xlogx

# Canonical two-atom instance, values frozen from 40-digit arithmetic:
# two unit-exponent agents, full sharing, uniform atoms, positions
# X1=(1,-1), X2=(0,0), threshold -2.
CANONICAL = {
    "rho": 0.240229013916555049,
    "q": (0.537882842739990241, 1.46211715726000976),
    "y": ((-0.379885493041722475, 0.620114506958277525),
          (0.620114506958277525, -0.379885493041722475)),
    "entropy": 0.110944071671727355,
    "alpha1": 0.221888143343454709,
    "cost": 0.462117157260009759,   # density-weighted -X, equals tanh(1/2)
    "a": (0.351173085588282404, -0.110944071671727355),
}


def make_canonical_spec():
    space = ScenarioSpace.uniform(2)
    g = SigmaPartition.trivial(space)
    return RiskSpec(
        space=space,
        sigma=g,
        x=np.array([[1.0, -1.0], [0.0, 0.0]]),
        aggregator=Aggregator.exponential([1.0, 1.0]),
        b=np.array([-2.0, -2.0]),
        clusters=ClusterConstraint.full_sharing(2),
    )


@pytest.fixture
def canonical_spec():
    return make_canonical_spec()


class CurvedExponential(UnivariateUtility):
    """u(x) = -exp(-x) with its exact inverse marginal -log(m), but with
    the second derivative deriv2(x) given, also at the inverse marginal: a
    curvature that vanishes where the exponential's does not makes a
    block's Newton system singular."""

    sup = 0.0

    def __init__(self, deriv2):
        self._deriv2 = deriv2

    def terms(self, x):
        x = np.asarray(x, dtype=float)
        e = np.exp(-x)
        return -e, e, self._deriv2(x)

    def inverse_deriv(self, m):
        x = -np.log(np.asarray(m, dtype=float))
        return x, self._deriv2(x)


def conjugate_V(alphas, y) -> float:
    """Reference convex conjugate of the raw exponential aggregator at
    y >= 0: sum_j (y_j/alpha_j) (log(y_j/alpha_j) - 1), with 0 log 0 = 0."""
    r = np.asarray(y, dtype=float) / np.asarray(alphas, dtype=float)
    return float((xlogx(r) - r).sum())


def random_domain_utility(rng):
    """One of the four kinds with equal odds: raw or shifted exponential
    with alpha ~ U(0.2, 3), rational_power or arctan_power with p ~
    U(1.2, 3)."""
    kind = int(rng.integers(4))
    if kind < 2:
        return ExponentialUtility(float(rng.uniform(0.2, 3.0)), kind == 1)
    power = RationalPowerUtility if kind == 2 else ArctanPowerUtility
    return power(float(rng.uniform(1.2, 3.0)))


THRESHOLD_MODES = ("near_sup", "far", "mid")


def random_domain_instance(rng):
    """A draw from the random domain of the solver (ROADMAP item 10),
    returned with its regime: K ~ U{1..19} atoms with Dirichlet(1)
    probabilities; blocks cut from a random permutation of the atoms at
    U{0..K-1} points; n ~ U{1..4} agents of random_domain_utility; with
    probability 0.4 a composite term of one such utility with weights
    U(0.1, 1); positions N(0, s^2) with s = 10^U(-2, 2.5); thresholds, per
    block, in one mode per instance with equal odds: sup - 10^U(-9, 0)
    (near_sup), -10^U(-2, 4) (far) or sup - 10^U(-3, 1) (mid); full or no
    sharing with equal odds."""
    k = int(rng.integers(1, 20))
    space = ScenarioSpace(tuple(f"w{i}" for i in range(k)),
                          rng.dirichlet(np.ones(k)))
    cuts = np.sort(rng.choice(np.arange(1, k), int(rng.integers(k)),
                              replace=False))
    sigma = SigmaPartition(space, tuple(
        tuple(int(i) for i in blk)
        for blk in np.split(rng.permutation(k), cuts)))
    n = int(rng.integers(1, 5))
    utilities = tuple(random_domain_utility(rng) for _ in range(n))
    lam = LambdaAggregator.zero()
    if rng.random() < 0.4:
        lam = LambdaAggregator.composite(random_domain_utility(rng),
                                         rng.uniform(0.1, 1.0, n))
    agg = Aggregator(utilities, lam)
    scale = 10.0 ** rng.uniform(-2.0, 2.5)
    x = rng.normal(0.0, scale, (n, k))
    mode = THRESHOLD_MODES[int(rng.integers(3))]
    lo, hi = {"near_sup": (-9.0, 0.0), "far": (-2.0, 4.0),
              "mid": (-3.0, 1.0)}[mode]
    gap = 10.0 ** rng.uniform(lo, hi, sigma.nblocks)
    b = -gap if mode == "far" else agg.sup - gap
    full = bool(rng.random() < 0.5)
    clusters = (ClusterConstraint.full_sharing(n) if full
                else ClusterConstraint.no_sharing(n))
    exp = [isinstance(u, ExponentialUtility) for u in utilities]
    agents = ("exponential" if all(exp) else "power" if not any(exp)
              else "mixed")
    regime = {"aggregator": "separable" if lam.is_zero else "composite",
              "agents": agents,
              "scale": "s>=10" if scale >= 10.0 else "s<10",
              "threshold": mode, "sharing": "full" if full else "none"}
    return RiskSpec(space=space, sigma=sigma, x=x, aggregator=agg,
                    b=sigma.expand(b), clusters=clusters), regime


def random_partition(rng, space, max_blocks=None):
    k = space.natoms
    nb = int(rng.integers(1, (max_blocks or k) + 1))
    assign = rng.integers(0, nb, size=k)
    blocks = {}
    for i, a in enumerate(assign):
        blocks.setdefault(int(a), []).append(i)
    return SigmaPartition(space, tuple(tuple(v) for v in blocks.values()))


def random_exponential_instance(rng, kmax=32, nmax=5, clusters="full",
                                shifted=False):
    """Random space, partition, exponential agents, measurable threshold.
    With shifted, about 60% of the agents are shifted and the threshold is
    raised by their number; the constants are those of the exponents."""
    k = int(rng.integers(2, kmax + 1))
    n = int(rng.integers(1, nmax + 1))
    space = ScenarioSpace(tuple(f"w{i}" for i in range(k)),
                          rng.dirichlet(np.ones(k) * 2.0))
    g = random_partition(rng, space)
    alphas = rng.uniform(0.3, 3.0, size=n)
    x = rng.uniform(-3.0, 3.0, size=(n, k))
    b = g.expand(rng.uniform(-5.0, -0.1, size=g.nblocks))
    if clusters == "full":
        cl = ClusterConstraint.full_sharing(n)
    elif clusters == "none":
        cl = ClusterConstraint.no_sharing(n)
    else:
        groups = {}
        for j in range(n):
            groups.setdefault(int(rng.integers(0, clusters)), []).append(j)
        cl = ClusterConstraint(tuple(tuple(v) for v in groups.values()))
    spec = RiskSpec(space=space, sigma=g, x=x,
                    aggregator=Aggregator.exponential(alphas), b=b,
                    clusters=cl)
    if shifted:
        flags = rng.random(n) < 0.6
        agg = Aggregator(tuple(ExponentialUtility(a, bool(f))
                               for a, f in zip(alphas, flags)))
        spec = replace(spec, aggregator=agg, b=spec.b + flags.sum())
    return spec, exp_constants(alphas)


def random_chain(rng, kmax=64, nmax=4):
    """Random space with nested partitions (coarse, fine) and a threshold
    measurable at the coarse level."""
    k = int(rng.integers(2, kmax + 1))
    space = ScenarioSpace(tuple(f"w{i}" for i in range(k)),
                          rng.dirichlet(np.ones(k)))
    h = random_partition(rng, space, max_blocks=max(1, k // 2))
    gblocks = []
    for blk in h.blocks:
        ng = int(rng.integers(1, min(3, len(blk)) + 1))
        asg = rng.integers(0, ng, size=len(blk))
        sub = {}
        for i, a in zip(blk, asg):
            sub.setdefault(int(a), []).append(i)
        gblocks.extend(tuple(v) for v in sub.values())
    g = SigmaPartition(space, tuple(gblocks))
    n = int(rng.integers(1, nmax + 1))
    c = exp_constants(rng.uniform(0.3, 3.0, size=n))
    x = rng.uniform(-3.0, 3.0, size=(n, k))
    b = h.expand(rng.uniform(-5.0, -0.1, size=h.nblocks))
    return space, g, h, x, b, c
