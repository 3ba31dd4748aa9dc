import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condrisk import (DensityVector, ScenarioSpace, SigmaPartition, coarsens,
                      cond_exp, cond_exp_under_density, cond_relative_entropy,
                      is_measurable)
from conftest import CANONICAL


def space(probs):
    return ScenarioSpace(tuple(f"w{i}" for i in range(len(probs))),
                         np.asarray(probs, dtype=float))


class TestScenarioSpace:
    def test_rejects_zero_probability_atom(self):
        with pytest.raises(ValueError):
            space([1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_probability(self, bad):
        # NaN fails no comparison, and a partition of this space would
        # then not equal itself
        with pytest.raises(ValueError, match=r"non-finite .*'a'"):
            ScenarioSpace(("a", "b"), [bad, 1.0])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            space([0.5, 0.6])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            ScenarioSpace(("a", "a"), np.array([0.5, 0.5]))

    def test_sum_tolerance(self):
        space([0.5, 0.5 + 5e-13])  # inside the stated tolerance


class TestSigmaPartition:
    def test_canonical_ordering(self):
        sp = space([0.25, 0.25, 0.25, 0.25])
        g = SigmaPartition(sp, ((3, 2), (1, 0)))
        assert g.blocks == ((0, 1), (2, 3))
        assert g == SigmaPartition(sp, ((0, 1), (2, 3)))

    def test_rejects_overlap_and_gap(self):
        sp = space([0.5, 0.5])
        with pytest.raises(ValueError):
            SigmaPartition(sp, ((0,), (0, 1)))
        with pytest.raises(ValueError):
            SigmaPartition(sp, ((0,),))

    def test_coarsens(self):
        sp = space([0.25, 0.25, 0.25, 0.25])
        triv = SigmaPartition.trivial(sp)
        g = SigmaPartition(sp, ((0,), (1,), (2, 3)))
        h = SigmaPartition(sp, ((0, 1), (2, 3)))
        crossing = SigmaPartition(sp, ((0, 2), (1, 3)))
        assert coarsens(triv, g)
        assert coarsens(h, g)
        assert not coarsens(crossing, h)


class TestCondExp:
    def test_weighted_mean_trivial(self):
        sp = space([0.25, 0.75])
        g = SigmaPartition.trivial(sp)
        assert cond_exp(np.array([1.0, 3.0]), g) == pytest.approx([2.5, 2.5])

    def test_identity_on_finest(self):
        sp = space([0.25, 0.75])
        g = SigmaPartition.discrete(sp)
        np.testing.assert_allclose(cond_exp(np.array([1.0, 3.0]), g), [1, 3])

    def test_block_means(self):
        sp = space([0.25] * 4)
        g = SigmaPartition(sp, ((0, 1), (2, 3)))
        np.testing.assert_allclose(
            cond_exp(np.array([1.0, 3.0, 5.0, 7.0]), g), [2, 2, 6, 6])

    def test_dimension_mismatch(self):
        sp = space([0.5, 0.5])
        with pytest.raises(ValueError):
            cond_exp(np.array([1.0, 2.0, 3.0]), SigmaPartition.trivial(sp))

    def test_scalar_is_a_dimension_mismatch(self):
        g = SigmaPartition.trivial(space([0.5, 0.5]))
        for scalar in (3.0, np.float64(3.0), np.array(3.0)):
            with pytest.raises(ValueError, match=r"shape \(\)"):
                cond_exp(scalar, g)


class TestCondExpUnderDensity:
    def test_reference_density_reduces_to_cond_exp(self):
        sp = space([0.3, 0.2, 0.5])
        g = SigmaPartition(sp, ((0, 1), (2,)))
        x = np.array([1.0, -2.0, 4.0])
        np.testing.assert_allclose(
            cond_exp_under_density(np.ones(3), x, g), cond_exp(x, g))

    def test_canonical_density(self):
        sp = space([0.5, 0.5])
        g = SigmaPartition.trivial(sp)
        q = np.array(CANONICAL["q"])
        out = cond_exp_under_density(q, np.array([-1.0, 1.0]), g)
        np.testing.assert_allclose(out, CANONICAL["cost"], atol=1e-15)

    def test_constant_passthrough(self):
        sp = space([0.5, 0.5])
        g = SigmaPartition.trivial(sp)
        q = np.array(CANONICAL["q"])
        np.testing.assert_allclose(
            cond_exp_under_density(q, np.full(2, 3.25), g), 3.25, atol=1e-12)

    def test_rejects_unnormalized_density(self):
        sp = space([0.5, 0.5])
        g = SigmaPartition.trivial(sp)
        with pytest.raises(ValueError):
            cond_exp_under_density(np.array([1.0, 1.1]), np.ones(2), g)


class TestWholeMatrices:
    """cond_exp, blockwise_mean and cond_exp_under_density reduce an (N, K)
    matrix exactly as its rows one by one, on partitions whose blocks are
    given in shuffled order."""

    @staticmethod
    def draws(seed, count=60):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            k, n = int(rng.integers(1, 65)), int(rng.integers(1, 6))
            sp = space(rng.dirichlet(np.ones(k)))
            cuts = np.sort(rng.choice(np.arange(1, k), int(rng.integers(
                0, k)), replace=False))
            blocks = [tuple(int(i) for i in b)
                      for b in np.split(rng.permutation(k), cuts)]
            rng.shuffle(blocks)
            g = SigmaPartition(sp, tuple(blocks))
            x = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
            raw = rng.uniform(0.05, 3.0, size=(n, k))
            yield g, x, raw / cond_exp(raw, g)

    @staticmethod
    def loop_means(x, g):
        """Blockwise means of each row by a float loop over each block."""
        p = g.space.prob
        out = np.empty((x.shape[0], g.nblocks))
        for r, row in enumerate(x):
            for m, blk in enumerate(g.blocks):
                num = mass = 0.0
                for i in blk:
                    num += p[i] * row[i]
                    mass += p[i]
                out[r, m] = num / mass
        return out

    def test_rows_one_by_one_bit_for_bit(self):
        for g, x, q in self.draws(81):
            np.testing.assert_array_equal(
                g.blockwise_mean(x), np.stack([g.blockwise_mean(r)
                                               for r in x]))
            np.testing.assert_array_equal(
                cond_exp(x, g), np.stack([cond_exp(r, g) for r in x]))
            np.testing.assert_array_equal(
                cond_exp_under_density(q, x, g),
                np.stack([cond_exp_under_density(qr, r, g)
                          for qr, r in zip(q, x)]))

    def test_equal_a_per_block_loop(self):
        for g, x, q in self.draws(82):
            for got, v in ((g.blockwise_mean(x), x),
                           (cond_exp(x, g)[:, g.first], x),
                           (cond_exp_under_density(q, x, g)[:, g.first],
                            q * x)):
                scale = self.loop_means(np.abs(v), g)
                assert np.all(np.abs(got - self.loop_means(v, g))
                              <= 1e-15 * scale)

    def test_one_unnormalized_row_is_refused(self):
        for g, x, q in self.draws(83, count=20):
            j = x.shape[0] - 1
            q = q.copy()
            q[j] *= 1.0 + 2e-8
            with pytest.raises(ValueError, match=f"density row {j} "):
                cond_exp_under_density(q, x, g)

    def test_shape_mismatch_raises(self):
        for g, x, q in self.draws(84, count=20):
            for qq, xx in ((q, x[:1]), (q[:1], x), (q[0], x), (q, x[0]),
                           (q, np.concatenate([x, x]))):
                if qq.shape != xx.shape:
                    with pytest.raises(ValueError, match="shape"):
                        cond_exp_under_density(qq, xx, g)


class TestMeasurable:
    def test_examples(self):
        sp = space([0.25] * 4)
        g = SigmaPartition(sp, ((0, 1), (2, 3)))
        assert is_measurable(np.array([2.0, 2.0, 6.0, 6.0]), g)
        sp2 = space([0.5, 0.5])
        assert not is_measurable(np.array([1.0, 2.0]),
                                 SigmaPartition.trivial(sp2))
        assert is_measurable(np.array([1.0, 2.0]),
                             SigmaPartition.discrete(sp2))

    def test_constant_blocks_of_large_magnitude(self):
        # a blockwise mean rounds, so x minus its mean can exceed tol on an
        # exactly constant x of large magnitude; the spread max - min
        # cannot
        rng = np.random.default_rng(7)
        sp = space(rng.dirichlet(np.ones(128)))
        cuts = np.sort(rng.choice(np.arange(1, 128), 24, replace=False))
        g = SigmaPartition(sp, tuple(tuple(int(i) for i in blk) for blk
                                     in np.split(rng.permutation(128), cuts)))
        for _ in range(200):
            level = rng.choice([-1.0, 1.0], 25) * 10.0 ** rng.uniform(0, 8, 25)
            x = g.expand(level)
            assert is_measurable(x, g)
            assert is_measurable(np.stack([x, -x]), g)
        # and it is no looser: one atom off by twice the tolerance
        x = g.expand(np.ones(25))
        x[g.blocks[3][1]] += 2e-10
        assert not is_measurable(x, g)
        assert not is_measurable(np.stack([g.expand(np.ones(25)), x]), g)


class TestCondRelativeEntropy:
    def test_reference_measure_has_zero_entropy(self):
        sp = space([0.3, 0.7])
        g = SigmaPartition.trivial(sp)
        np.testing.assert_allclose(
            cond_relative_entropy(np.ones(2), g), 0.0, atol=1e-15)

    def test_canonical_value(self):
        sp = space([0.5, 0.5])
        g = SigmaPartition.trivial(sp)
        out = cond_relative_entropy(np.array(CANONICAL["q"]), g)
        np.testing.assert_allclose(out, CANONICAL["entropy"], atol=1e-15)

    def test_degenerate_density(self):
        sp = space([0.5, 0.5])
        g = SigmaPartition.trivial(sp)
        out = cond_relative_entropy(np.array([2.0, 0.0]), g)
        np.testing.assert_allclose(out, np.log(2.0), atol=1e-15)

    def test_rejects_negative(self):
        sp = space([0.5, 0.5])
        with pytest.raises(ValueError):
            cond_relative_entropy(np.array([2.1, -0.1]),
                                  SigmaPartition.trivial(sp))

    def test_nonnegative_with_equality_iff_flat(self):
        rng = np.random.default_rng(0)
        sp = space(rng.dirichlet(np.ones(6)))
        g = SigmaPartition(sp, ((0, 1, 2), (3, 4, 5)))
        row = rng.uniform(0.2, 2.0, size=6)
        row = row / cond_exp(row, g)
        ent = cond_relative_entropy(row, g)
        assert np.all(ent >= -1e-15)
        flat = np.ones(6)
        assert np.max(cond_relative_entropy(flat, g)) < 1e-15


@st.composite
def random_setup(draw):
    k = draw(st.integers(min_value=1, max_value=12))
    raw = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                        min_size=k, max_size=k))
    p = np.asarray(raw) / np.sum(raw)
    # nested assignment: coarse blocks, then a refinement of each
    coarse = draw(st.lists(st.integers(min_value=0, max_value=2),
                           min_size=k, max_size=k))
    fine = draw(st.lists(st.integers(min_value=0, max_value=1),
                         min_size=k, max_size=k))
    x = draw(st.lists(st.floats(min_value=-50, max_value=50),
                      min_size=k, max_size=k))
    return p, coarse, fine, np.asarray(x)


def _blocks_from(assign_pairs, k):
    groups = {}
    for i in range(k):
        groups.setdefault(assign_pairs[i], []).append(i)
    return tuple(tuple(v) for v in groups.values())


@given(random_setup())
@settings(max_examples=200, deadline=None)
def test_tower_property(setup):
    p, coarse, fine, x = setup
    k = p.size
    sp = ScenarioSpace(tuple(f"w{i}" for i in range(k)), p)
    h = SigmaPartition(sp, _blocks_from([c for c in coarse], k))
    g = SigmaPartition(sp, _blocks_from(list(zip(coarse, fine)), k))
    assert coarsens(h, g)
    inner = cond_exp(cond_exp(x, g), h)
    direct = cond_exp(x, h)
    np.testing.assert_allclose(inner, direct, atol=1e-12 * max(1, np.abs(x).max()))


@given(random_setup())
@settings(max_examples=100, deadline=None)
def test_projection_and_idempotence(setup):
    p, coarse, _, x = setup
    k = p.size
    sp = ScenarioSpace(tuple(f"w{i}" for i in range(k)), p)
    g = SigmaPartition(sp, _blocks_from([c for c in coarse], k))
    y = cond_exp(x, g)
    assert is_measurable(y, g, tol=1e-9 * max(1.0, np.abs(x).max()))
    np.testing.assert_allclose(cond_exp(y, g), y, atol=1e-12 * max(1, np.abs(x).max()))


def test_density_vector_normalization_invariant():
    rng = np.random.default_rng(1)
    sp = space(rng.dirichlet(np.ones(5)))
    g = SigmaPartition(sp, ((0, 1), (2, 3, 4)))
    raw = rng.uniform(0.1, 3.0, size=(3, 5))
    q = DensityVector(raw / cond_exp(raw, g), g)
    for j in range(3):
        out = cond_exp_under_density(q.row(j), np.ones(5), g)
        np.testing.assert_allclose(out, 1.0, atol=1e-10)


def test_density_vector_rejects_bad_normalization():
    sp = space([0.5, 0.5])
    g = SigmaPartition.trivial(sp)
    with pytest.raises(ValueError):
        DensityVector(np.array([[1.0, 1.01]]), g)
    with pytest.raises(ValueError):
        DensityVector(np.array([[2.5, -0.5]]), g)
