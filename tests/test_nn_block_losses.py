"""The fused column-blocked losses against their per-column composition.

``F.block_cross_entropy`` and ``F.block_masked_mass`` are single autograd
nodes with hand-written backwards; :mod:`block_loss_oracle` composes the
same quantities column by column from the generic tape operators.  Values
and gradients must agree to 1e-12 over random block layouts, both must
match central finite differences, and training with either must end at the
same weights.  The zero-out node takes code intervals; the oracle expands
them into dense masks, and the node must equal the fused dense-mask node
bit for bit.
"""

import numpy as np
import pytest

from repro.baselines import NaruEstimator
from repro.core import DuetConfig, DuetModel, DuetTrainer
from repro.data import make_census
from repro.nn import Tensor
from repro.nn import functional as F
from repro.workload import make_inworkload

import block_loss_oracle as oracle

TOLERANCE = 1e-12


def random_layout(rng, num_columns, tiled=True, widths=(1, 2, 3, 5, 8)):
    """``(total_width, blocks)``; untiled layouts get gaps and shuffled order."""
    sizes = rng.choice(widths, size=num_columns)
    blocks, offset = [], 0
    for size in sizes:
        if not tiled:
            offset += int(rng.integers(0, 3))
        blocks.append((offset, offset + int(size)))
        offset += int(size)
    if not tiled:
        order = rng.permutation(num_columns)
        blocks = [blocks[index] for index in order]
    return offset + (0 if tiled else int(rng.integers(0, 3))), blocks


def value_and_grad(function, logits_array, *args):
    logits = Tensor(logits_array.copy(), requires_grad=True)
    out = function(logits, *args)
    # a random cotangent so every output element's backward is exercised
    cotangent = np.random.default_rng(99).normal(size=out.shape)
    (out * Tensor(cotangent)).sum().backward()
    return out.numpy().copy(), logits.grad


def finite_difference(function, logits_array, args, cotangent, epsilon=1e-6):
    gradient = np.zeros_like(logits_array)
    for index in np.ndindex(logits_array.shape):
        shifted = logits_array.copy()
        shifted[index] += epsilon
        upper = (function(Tensor(shifted), *args).numpy() * cotangent).sum()
        shifted[index] -= 2 * epsilon
        lower = (function(Tensor(shifted), *args).numpy() * cotangent).sum()
        gradient[index] = (upper - lower) / (2 * epsilon)
    return gradient


# ----------------------------------------------------------------------
# block_cross_entropy
# ----------------------------------------------------------------------
class TestBlockCrossEntropy:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("tiled", [True, False])
    def test_matches_oracle_on_random_layouts(self, seed, tiled):
        rng = np.random.default_rng(seed)
        batch = int(rng.integers(1, 9))
        width, blocks = random_layout(rng, int(rng.integers(1, 7)), tiled=tiled)
        logits = rng.normal(scale=3.0, size=(batch, width))
        targets = np.stack([rng.integers(0, end - start, size=batch)
                            for start, end in blocks], axis=1)
        value, grad = value_and_grad(F.block_cross_entropy, logits, blocks, targets)
        expected, expected_grad = value_and_grad(oracle.block_cross_entropy,
                                                 logits, blocks, targets)
        np.testing.assert_allclose(value, expected, rtol=0, atol=TOLERANCE)
        np.testing.assert_allclose(grad, expected_grad, rtol=0, atol=TOLERANCE)

    @pytest.mark.parametrize("widths", [(1,), (2,), (1, 2), (2, 1, 2)])
    def test_width_one_and_two_blocks(self, widths):
        rng = np.random.default_rng(3)
        width, blocks = random_layout(rng, 4, widths=widths)
        logits = rng.normal(size=(5, width))
        targets = np.stack([rng.integers(0, end - start, size=5)
                            for start, end in blocks], axis=1)
        value, grad = value_and_grad(F.block_cross_entropy, logits, blocks, targets)
        expected, expected_grad = value_and_grad(oracle.block_cross_entropy,
                                                 logits, blocks, targets)
        np.testing.assert_allclose(value, expected, rtol=0, atol=TOLERANCE)
        np.testing.assert_allclose(grad, expected_grad, rtol=0, atol=TOLERANCE)
        # a width-1 block is a certain outcome: zero loss, zero gradient
        for (start, end) in blocks:
            if end - start == 1:
                assert np.all(grad[:, start:end] == 0.0)

    def test_single_column_equals_cross_entropy(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(6, 7))
        targets = rng.integers(0, 7, size=(6, 1))
        value, grad = value_and_grad(F.block_cross_entropy, logits, [(0, 7)], targets)
        expected, expected_grad = value_and_grad(
            lambda t, y: F.cross_entropy(t, y), logits, targets[:, 0])
        np.testing.assert_allclose(value, expected, rtol=0, atol=TOLERANCE)
        np.testing.assert_allclose(grad, expected_grad, rtol=0, atol=TOLERANCE)

    def test_repeated_targets(self):
        rng = np.random.default_rng(5)
        width, blocks = random_layout(rng, 3)
        logits = rng.normal(size=(8, width))
        targets = np.zeros((8, 3), dtype=np.int64)  # every row picks class 0
        value, grad = value_and_grad(F.block_cross_entropy, logits, blocks, targets)
        expected, expected_grad = value_and_grad(oracle.block_cross_entropy,
                                                 logits, blocks, targets)
        np.testing.assert_allclose(value, expected, rtol=0, atol=TOLERANCE)
        np.testing.assert_allclose(grad, expected_grad, rtol=0, atol=TOLERANCE)

    @pytest.mark.parametrize("tiled", [True, False])
    def test_finite_differences(self, tiled):
        rng = np.random.default_rng(6)
        width, blocks = random_layout(rng, 3, tiled=tiled)
        logits = rng.normal(size=(3, width))
        targets = np.stack([rng.integers(0, end - start, size=3)
                            for start, end in blocks], axis=1)
        cotangent = np.random.default_rng(99).normal(size=())
        _, grad = value_and_grad(F.block_cross_entropy, logits, blocks, targets)
        numeric = finite_difference(F.block_cross_entropy, logits,
                                    (blocks, targets), cotangent)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-7)

    def test_large_logits_stay_finite(self):
        logits = np.array([[1000.0, -1000.0, 0.0, 800.0, 801.0]])
        value, grad = value_and_grad(F.block_cross_entropy, logits,
                                     [(0, 3), (3, 5)], np.array([[1, 0]]))
        assert np.isfinite(value) and np.all(np.isfinite(grad))

    def test_rejects_targets_outside_their_block(self):
        logits = Tensor(np.zeros((2, 5)), requires_grad=True)
        with pytest.raises(IndexError):
            F.block_cross_entropy(logits, [(0, 2), (2, 5)], np.array([[0, 3], [1, 0]]))
        with pytest.raises(ValueError):
            F.block_cross_entropy(logits, [(0, 2), (2, 5)], np.array([0, 1]))


# ----------------------------------------------------------------------
# block_masked_mass
# ----------------------------------------------------------------------
class TestBlockMaskedMass:
    """The node over code intervals against the dense-mask references: the
    fused dense node bit for bit, the per-column graph within 1e-12."""

    @staticmethod
    def _check(logits, blocks, intervals):
        value, grad = value_and_grad(F.block_masked_mass, logits, blocks, intervals)
        masks = oracle.dense_masks(blocks, intervals)
        fused, fused_grad = value_and_grad(oracle.fused_dense_masked_mass,
                                           logits, blocks, masks)
        np.testing.assert_array_equal(value, fused)
        np.testing.assert_array_equal(grad, fused_grad)
        expected, expected_grad = value_and_grad(oracle.block_masked_mass,
                                                 logits, blocks, masks)
        np.testing.assert_allclose(value, expected, rtol=0, atol=TOLERANCE)
        np.testing.assert_allclose(grad, expected_grad, rtol=0, atol=TOLERANCE)
        return value, grad

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("tiled", [True, False])
    def test_matches_oracle_on_random_layouts(self, seed, tiled):
        rng = np.random.default_rng(100 + seed)
        batch = int(rng.integers(1, 9))
        width, blocks = random_layout(rng, int(rng.integers(1, 7)), tiled=tiled)
        logits = rng.normal(scale=3.0, size=(batch, width))
        low, high = oracle.random_intervals(rng, batch, blocks)
        if all(mask is None for mask in oracle.dense_masks(blocks, (low, high))):
            low[0, 0] = 1  # keep a graph to differentiate
        self._check(logits, blocks, (low, high))

    @pytest.mark.parametrize("widths", [(1,), (2,), (1, 2)])
    def test_width_one_and_two_blocks(self, widths):
        rng = np.random.default_rng(7)
        width, blocks = random_layout(rng, 5, widths=widths)
        logits = rng.normal(size=(4, width))
        self._check(logits, blocks, oracle.random_intervals(
            rng, 4, blocks, unconstrained_share=0.0))

    def test_single_column(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(5, 6))
        self._check(logits, [(0, 6)], oracle.random_intervals(
            rng, 5, [(0, 6)], unconstrained_share=0.0))

    def test_all_unconstrained_gives_exactly_one(self):
        logits = Tensor(np.random.default_rng(9).normal(size=(4, 7)),
                        requires_grad=True)
        full = (np.zeros((4, 2), dtype=np.int64), np.tile([2, 3], (4, 1)))
        mass = F.block_masked_mass(logits, [(0, 3), (3, 7)], full)
        assert np.array_equal(mass.numpy(), np.ones(4))
        assert not mass.requires_grad

    def test_zero_mass_mask_has_a_finite_gradient(self):
        rng = np.random.default_rng(10)
        blocks = [(0, 3), (3, 7), (7, 9)]
        logits = rng.normal(size=(4, 9))
        low = np.zeros((4, 3), dtype=np.int64)
        high = np.tile([2, 3, 1], (4, 1))
        low[1, 0], high[1, 0] = 2, 1   # row 1: an empty interval on column 0
        low[2, 2], high[2, 2] = 2, 1   # row 2: an empty interval on column 2
        low[0, 1] = high[0, 1] = 2     # row 0: a single code on column 1
        high[3, 1] = 2                 # row 3: all codes of column 1 but one
        # row 3 leaves columns 0 and 2 unconstrained, which rows 1 and 2 constrain
        value, grad = self._check(logits, blocks, (low, high))
        assert value[1] == 0.0 and value[2] == 0.0
        assert np.all(np.isfinite(grad))

    @pytest.mark.parametrize("tiled", [True, False])
    def test_finite_differences(self, tiled):
        rng = np.random.default_rng(11)
        width, blocks = random_layout(rng, 3, tiled=tiled)
        logits = rng.normal(size=(3, width))
        low, high = oracle.random_intervals(rng, 3, blocks, unconstrained_share=0.2)
        low[:, 0], high[:, 0] = 1, blocks[0][1] - blocks[0][0] - 1
        cotangent = np.random.default_rng(99).normal(size=3)
        _, grad = value_and_grad(F.block_masked_mass, logits, blocks, (low, high))
        numeric = finite_difference(F.block_masked_mass, logits,
                                    (blocks, (low, high)), cotangent)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-8)


# ----------------------------------------------------------------------
# Training with the fused nodes ends where the per-column composition does
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_census():
    table = make_census(scale=0.04, seed=3)
    queries = make_inworkload(table, num_queries=60, seed=3)
    queries.label(table)
    return table, queries


def _max_parameter_difference(left, right):
    return max(float(np.abs(a.data - b.data).max())
               for a, b in zip(left.parameters(), right.parameters()))


def _oracle_losses(monkeypatch):
    monkeypatch.setattr(F, "block_cross_entropy", oracle.block_cross_entropy)
    monkeypatch.setattr(F, "block_masked_mass",
                        lambda logits, blocks, intervals: oracle.block_masked_mass(
                            logits, blocks, oracle.dense_masks(blocks, intervals)))


def test_hybrid_epoch_matches_the_oracle_trainer(small_census, monkeypatch):
    table, queries = small_census
    config = DuetConfig(hidden_sizes=(32, 32), epochs=1, batch_size=128,
                        query_batch_size=32, seed=5)
    removed = table.code_matrix()[:64]

    def train():
        model = DuetModel(table, config)
        trainer = DuetTrainer(model, table, queries, config, negative_codes=removed)
        assert trainer.hybrid
        trainer.train()
        trainer.finetune_on_queries(queries, steps=3)
        return model

    fused = train()
    with monkeypatch.context() as patch:
        _oracle_losses(patch)
        reference = train()
    assert _max_parameter_difference(fused, reference) <= 1e-12


def test_naru_epoch_matches_the_oracle_trainer(small_census, monkeypatch):
    table, _ = small_census

    def train():
        estimator = NaruEstimator(table, hidden_sizes=(32, 32), batch_size=128, seed=2)
        estimator.fit_epoch()
        return estimator.model

    fused = train()
    with monkeypatch.context() as patch:
        _oracle_losses(patch)
        reference = train()
    assert _max_parameter_difference(fused, reference) <= 1e-12
