"""Finite probability spaces, sub-sigma-algebras as atom partitions, and
conditional expectations under the reference measure and under densities.

Random variables are plain 1-D numpy arrays of length K (one entry per
atom); random vectors are (N, K) arrays (agent by atom).  A sub-sigma-algebra
is represented by the unique partition of atoms that generates it: a variable
is measurable iff it is constant on every block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .preferences import xlogx

PROB_SUM_TOL = 1e-12
MEASURABLE_TOL = 1e-10
DENSITY_NORM_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Raised when an array does not match the atom count of its space."""


@dataclass(frozen=True, eq=False)
class ScenarioSpace:
    """Finite sample space with strictly positive atom probabilities."""

    atom_labels: tuple
    prob: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, ScenarioSpace):
            return NotImplemented
        return self is other or (self.atom_labels == other.atom_labels
                                 and np.array_equal(self.prob, other.prob))

    def __hash__(self):
        return hash((self.atom_labels, self.prob.tobytes()))

    def __post_init__(self):
        labels = tuple(str(s) for s in self.atom_labels)
        prob = np.array(self.prob, dtype=float)
        object.__setattr__(self, "atom_labels", labels)
        object.__setattr__(self, "prob", prob)
        if prob.ndim != 1 or prob.size < 1:
            raise ValueError("prob must be a nonempty 1-D vector")
        if len(labels) != prob.size:
            raise ValueError("number of labels must match number of atoms")
        if len(set(labels)) != len(labels):
            raise ValueError("atom labels must be unique")
        if not np.all(np.isfinite(prob)):
            bad = {labels[i]: float(prob[i])
                   for i in np.flatnonzero(~np.isfinite(prob))}
            raise ValueError(f"non-finite atom probabilities {bad}")
        if np.any(prob <= 0.0):
            raise ValueError("every atom must have strictly positive probability")
        if abs(prob.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {float(prob.sum())!r}, "
                             "not 1")
        prob.setflags(write=False)

    @property
    def natoms(self) -> int:
        return self.prob.size

    @classmethod
    def uniform(cls, k: int) -> "ScenarioSpace":
        return cls(tuple(f"w{i}" for i in range(k)), np.full(k, 1.0 / k))

    def check_values(self, x: np.ndarray, name: str = "values") -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.natoms,):
            raise DimensionMismatchError(
                f"{name} has shape {x.shape}, space has {self.natoms} atoms")
        if not np.isfinite(x).all():
            raise ValueError(f"{name} contains non-finite entries")
        return x


@dataclass(frozen=True, eq=False)
class SigmaPartition:
    """Partition of atom indices generating a sub-sigma-algebra.

    Blocks are canonicalized (each sorted ascending, blocks ordered by their
    smallest element) so that structural equality is partition equality.

    The block layout is computed once, read-only: ``order`` lists the atoms
    block by block, block m taking ``order[cuts[m]:cuts[m + 1]]`` (the last
    block runs to the end), ``first`` is the first atom of each block and
    ``block_index`` the block of each atom.  Every conditional expectation
    is one segment sum over ``order`` on the last axis of a (..., K) array,
    so a matrix is reduced exactly as its rows one by one.
    """

    space: ScenarioSpace
    blocks: tuple

    def __eq__(self, other):
        if not isinstance(other, SigmaPartition):
            return NotImplemented
        return self is other or (self.space == other.space
                                 and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.space, self.blocks))

    def __post_init__(self):
        k = self.space.natoms
        blocks = tuple(tuple(sorted(int(i) for i in b)) for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0] if b else -1))
        object.__setattr__(self, "blocks", blocks)
        seen = [idx for b in blocks for idx in b]
        if any(len(b) == 0 for b in blocks):
            raise ValueError("partition blocks must be nonempty")
        if sorted(seen) != list(range(k)):
            raise ValueError("blocks must partition the atom indices exactly")
        sizes = np.array([len(b) for b in blocks])
        order = np.array(seen, dtype=np.intp)
        index = np.empty(k, dtype=np.intp)
        index[order] = np.repeat(np.arange(len(blocks)), sizes)
        cuts = np.cumsum(sizes) - sizes
        prob = self.space.prob
        bprob = np.bincount(index, weights=prob, minlength=len(blocks))
        for name, arr in (("order", order), ("cuts", cuts),
                          ("block_index", index), ("first", order[cuts]),
                          ("_bprob", bprob), ("_prob", prob[order]),
                          ("_weights", prob / bprob[index])):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    @classmethod
    def trivial(cls, space: ScenarioSpace) -> "SigmaPartition":
        return cls(space, (tuple(range(space.natoms)),))

    @classmethod
    def discrete(cls, space: ScenarioSpace) -> "SigmaPartition":
        return cls(space, tuple((i,) for i in range(space.natoms)))

    def conditional_weights(self) -> np.ndarray:
        """Per-atom conditional probability within its block, shape (K,),
        read-only."""
        return self._weights

    def _means(self, x: np.ndarray) -> np.ndarray:
        """blockwise_mean of a checked array."""
        return (np.add.reduceat(x[..., self.order] * self._prob, self.cuts,
                                axis=-1) / self._bprob)

    def _spread(self, x: np.ndarray) -> np.ndarray:
        """max - min of a checked array on each block, shape (..., nblocks)."""
        x = x[..., self.order]
        return (np.maximum.reduceat(x, self.cuts, axis=-1)
                - np.minimum.reduceat(x, self.cuts, axis=-1))

    def blockwise_mean(self, x: np.ndarray) -> np.ndarray:
        """Conditional expectation values per block, shape (..., nblocks)."""
        return self._means(self.space.check_values(x))

    def expand(self, per_block: np.ndarray) -> np.ndarray:
        """Replicate per-block values back onto atoms, shape (..., K)."""
        per_block = np.asarray(per_block, dtype=float)
        return per_block[..., self.block_index]


def cond_exp(x: np.ndarray, g: SigmaPartition) -> np.ndarray:
    """E[x | g]: blockwise probability-weighted mean, replicated per block,
    of x and of every row of an (N, K) array."""
    return g.expand(g.blockwise_mean(x))


def cond_exp_under_density(q: np.ndarray, x: np.ndarray,
                           g: SigmaPartition) -> np.ndarray:
    """Conditional expectation of x under the measure with density q, for
    a density row and x of shape (K,), or row by row for (N, K) arrays.

    Identical to ``cond_exp(q * x, g)``; every row of q must have
    blockwise conditional mean 1 so the result is a genuine conditional
    expectation, and x must have the shape of q.
    """
    q = g.space.check_values(q, "density")
    x = g.space.check_values(x)
    if x.shape != q.shape:
        raise DimensionMismatchError(
            f"values of shape {x.shape} do not match densities of shape "
            f"{q.shape}")
    dev = np.abs(g._means(q) - 1.0).reshape(-1, g.nblocks).max(axis=1)
    if not dev.max() <= 1e-8:
        raise ValueError(f"density row {int(np.argmax(dev))} is not "
                         "normalized blockwise to mean 1")
    return g.expand(g._means(q * x))


def is_measurable(x: np.ndarray, g: SigmaPartition,
                  tol: float = MEASURABLE_TOL) -> bool:
    """True iff x is constant on every block of g, within tol: its spread
    max - min on each block (0 on a constant block) is at most tol."""
    return bool(g._spread(g.space.check_values(x)).max() <= tol)


def coarsens(h: SigmaPartition, g: SigmaPartition) -> bool:
    """True iff h is coarser than g (every block of g lies in a block of h)."""
    if h.space is not g.space and h.space != g.space:
        raise ValueError("partitions live on different spaces")
    return not g._spread(h.block_index).any()


def cond_relative_entropy(q_row: np.ndarray, g: SigmaPartition) -> np.ndarray:
    """Blockwise relative entropy E[q log q | g] of a normalized density row.

    Uses the convention 0*log(0) = 0; the result is g-measurable and
    nonnegative, vanishing exactly where q_row is identically 1 on a block.
    """
    q_row = g.space.check_values(q_row, "density")
    if np.any(q_row < -1e-12):
        raise ValueError("density row has negative entries")
    return cond_exp(xlogx(np.maximum(q_row, 0.0)), g)


@dataclass(frozen=True, eq=False)
class DensityVector:
    """N density rows (one candidate measure per agent) normalized against
    a partition: each row has blockwise conditional mean 1 under the atom
    probabilities, and all entries are nonnegative."""

    q: np.ndarray
    sigma: SigmaPartition

    def __post_init__(self):
        q = np.atleast_2d(np.array(self.q, dtype=float))
        object.__setattr__(self, "q", q)
        self.sigma.space.check_values(q, "densities")
        if (q < -1e-12).any():
            raise ValueError("densities must be nonnegative")
        worst = np.abs(self.sigma._means(q) - 1.0).max()
        if worst > DENSITY_NORM_TOL:
            raise ValueError(
                f"density rows deviate from blockwise mean 1 by {worst:.3e}"
            )
        q.setflags(write=False)

    @property
    def nagents(self) -> int:
        return self.q.shape[0]

    def row(self, j: int) -> np.ndarray:
        return self.q[j]
