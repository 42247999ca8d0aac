"""Tests for the Duet model, MPSNs, estimator (Algorithm 3) and trainer."""

import numpy as np
import pytest

from repro.core import (
    DuetConfig,
    DuetEstimator,
    DuetModel,
    DuetTrainer,
    MPSNConfig,
    MergedMLPInference,
    build_mpsn,
)
from repro.core.mpsn import MLPMPSN, RecursiveMPSN, RNNMPSN
from repro.data import Table
from repro.nn import Tensor
from repro.workload import (
    Query,
    Workload,
    cardinality,
    make_inworkload,
    make_multi_predicate_workload,
    make_random_workload,
)


@pytest.fixture(scope="module")
def toy_table():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 8, size=400)
    b = (a // 2 + rng.integers(0, 2, size=400)) % 4    # correlated with a
    c = rng.integers(0, 6, size=400)
    return Table("toy", [
        Table.from_dict("x", {"a": a}).column("a"),
        Table.from_dict("x", {"b": b}).column("b"),
        Table.from_dict("x", {"c": c}).column("c"),
    ])


@pytest.fixture(scope="module")
def small_config():
    return DuetConfig(hidden_sizes=(32, 32), epochs=2, batch_size=64,
                      expand_coefficient=2, seed=0)


@pytest.fixture(scope="module")
def trained_model(toy_table, small_config):
    model = DuetModel(toy_table, small_config)
    workload = make_inworkload(toy_table, num_queries=100, seed=42)
    trainer = DuetTrainer(model, toy_table, workload, small_config)
    trainer.train(epochs=2)
    return model


class TestDuetModel:
    def test_input_output_widths(self, toy_table, small_config):
        model = DuetModel(toy_table, small_config)
        expected_input = sum(encoder.predicate_width for encoder in model.codec.encoders)
        assert model.input_width == expected_input
        assert model.made.total_output == sum(toy_table.cardinalities)

    def test_forward_shape(self, toy_table, small_config):
        model = DuetModel(toy_table, small_config)
        values = np.full((5, 3, 1), -1, dtype=np.int64)
        ops = np.full((5, 3, 1), -1, dtype=np.int64)
        outputs = model.forward(values, ops)
        assert outputs.shape == (5, model.made.total_output)

    def test_two_dimensional_input_accepted(self, toy_table, small_config):
        model = DuetModel(toy_table, small_config)
        values = np.full((4, 3), -1, dtype=np.int64)
        ops = np.full((4, 3), -1, dtype=np.int64)
        assert model.forward(values, ops).shape[0] == 4

    def test_column_distribution_sums_to_one(self, toy_table, small_config):
        model = DuetModel(toy_table, small_config)
        values = np.full((3, 3, 1), -1, dtype=np.int64)
        ops = np.full((3, 3, 1), -1, dtype=np.int64)
        outputs = model.forward(values, ops)
        for column_index in range(3):
            distribution = model.column_distribution(outputs, column_index).numpy()
            np.testing.assert_allclose(distribution.sum(axis=1), np.ones(3), atol=1e-9)

    def test_selectivity_of_unconstrained_query_is_one(self, toy_table, small_config):
        model = DuetModel(toy_table, small_config)
        values = np.full((2, 3, 1), -1, dtype=np.int64)
        ops = np.full((2, 3, 1), -1, dtype=np.int64)
        outputs = model.forward(values, ops)
        full = (np.zeros((2, 3), dtype=np.int64),
                np.tile([column.num_distinct - 1 for column in toy_table.columns], (2, 1)))
        selectivity = model.selectivity_from_outputs(outputs, full).numpy()
        np.testing.assert_array_equal(selectivity, np.ones(2))

    def test_selectivity_in_unit_interval(self, trained_model, toy_table):
        codec = trained_model.codec
        queries = [Query.from_triples([("a", ">=", 4)]),
                   Query.from_triples([("b", "=", 1), ("c", "<=", 3)])]
        values, ops, intervals = codec.translate_batch(queries)
        outputs = trained_model.forward(values, ops)
        selectivity = trained_model.selectivity_from_outputs(outputs, intervals).numpy()
        assert (selectivity >= 0).all() and (selectivity <= 1.0 + 1e-9).all()

    def test_embedding_columns_created_for_large_domains(self, small_config):
        rng = np.random.default_rng(1)
        table = Table.from_dict("big", {
            "large": rng.integers(0, 900, size=500),
            "small": rng.integers(0, 4, size=500),
        })
        config = DuetConfig(hidden_sizes=(16,), embedding_threshold=100, embedding_dim=8)
        model = DuetModel(table, config)
        assert len(model._embedding_columns) == 1
        values = np.full((2, 2, 1), -1, dtype=np.int64)
        ops = np.full((2, 2, 1), -1, dtype=np.int64)
        values[0, 0, 0] = 123
        ops[0, 0, 0] = 0
        assert model.forward(values, ops).shape[0] == 2

    def test_parameter_count_positive(self, toy_table, small_config):
        model = DuetModel(toy_table, small_config)
        assert model.num_parameters() > 0
        assert model.size_bytes() == model.num_parameters() * 4


class TestMPSN:
    def _encodings(self, batch=6, slots=2, width=9, seed=0):
        rng = np.random.default_rng(seed)
        encodings = Tensor(rng.normal(size=(batch, slots, width)))
        presence = np.ones((batch, slots))
        presence[:, 1] = rng.integers(0, 2, size=batch)
        return encodings, presence

    @pytest.mark.parametrize("kind", ["mlp", "rnn", "recursive"])
    def test_output_shape(self, kind):
        config = MPSNConfig(kind=kind, hidden_size=16, num_layers=2)
        mpsn = build_mpsn(9, 9, config, rng=np.random.default_rng(0))
        encodings, presence = self._encodings()
        assert mpsn(encodings, presence).shape == (6, 9)

    def test_factory_types(self):
        assert isinstance(build_mpsn(4, 4, MPSNConfig(kind="mlp")), MLPMPSN)
        assert isinstance(build_mpsn(4, 4, MPSNConfig(kind="rnn")), RNNMPSN)
        assert isinstance(build_mpsn(4, 4, MPSNConfig(kind="recursive")), RecursiveMPSN)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            MPSNConfig(kind="transformer")

    def test_mlp_is_order_invariant(self):
        """The paper prefers the MLP MPSN because summing is order-irrelevant."""
        config = MPSNConfig(kind="mlp", hidden_size=16, num_layers=2)
        mpsn = build_mpsn(9, 9, config, rng=np.random.default_rng(0))
        encodings, _ = self._encodings(slots=2)
        presence = np.ones((6, 2))
        forward = mpsn(encodings, presence).numpy()
        swapped = Tensor(encodings.numpy()[:, ::-1, :].copy())
        backward = mpsn(swapped, presence).numpy()
        np.testing.assert_allclose(forward, backward, atol=1e-10)

    def test_absent_slots_do_not_change_output(self):
        config = MPSNConfig(kind="mlp", hidden_size=16, num_layers=2)
        mpsn = build_mpsn(9, 9, config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        base = rng.normal(size=(4, 2, 9))
        modified = base.copy()
        modified[:, 1, :] = rng.normal(size=(4, 9))  # garbage in the absent slot
        presence = np.zeros((4, 2))
        presence[:, 0] = 1
        out_base = mpsn(Tensor(base), presence).numpy()
        out_modified = mpsn(Tensor(modified), presence).numpy()
        np.testing.assert_allclose(out_base, out_modified)

    def test_gradients_flow_through_mpsn(self):
        config = MPSNConfig(kind="mlp", hidden_size=8, num_layers=1)
        mpsn = build_mpsn(5, 5, config, rng=np.random.default_rng(0))
        encodings = Tensor(np.random.default_rng(2).normal(size=(3, 2, 5)))
        presence = np.ones((3, 2))
        mpsn(encodings, presence).sum().backward()
        assert all(parameter.grad is not None for parameter in mpsn.parameters())

    def test_merged_inference_matches_per_column(self):
        """The block-diagonal merged MLP must equal the per-column MPSNs."""
        config = MPSNConfig(kind="mlp", hidden_size=12, num_layers=2)
        rng = np.random.default_rng(3)
        widths = [7, 9, 5]
        mpsns = [build_mpsn(width, width, config, rng=rng) for width in widths]
        merged = MergedMLPInference(mpsns)
        batch, slots = 8, 2
        encodings = [rng.normal(size=(batch, slots, width)) for width in widths]
        presence = [np.ones((batch, slots)) for _ in widths]
        presence[1][:, 1] = 0
        merged_outputs = merged.forward(encodings, presence)
        for mpsn, encoding, pres, merged_output in zip(mpsns, encodings, presence,
                                                       merged_outputs):
            direct = mpsn(Tensor(encoding), pres).numpy()
            np.testing.assert_allclose(merged_output, direct, atol=1e-9)

    def test_merged_requires_mlp(self):
        config = MPSNConfig(kind="rnn")
        with pytest.raises(TypeError):
            MergedMLPInference([build_mpsn(4, 4, config)])

    def test_merged_requires_nonempty(self):
        with pytest.raises(ValueError):
            MergedMLPInference([])


class TestDuetEstimator:
    def test_estimates_are_deterministic(self, trained_model, toy_table):
        estimator = DuetEstimator(trained_model)
        query = Query.from_triples([("a", ">=", 3), ("b", "=", 1)])
        first = estimator.estimate(query)
        second = estimator.estimate(query)
        assert first == second
        assert estimator.is_deterministic

    def test_estimates_within_table_bounds(self, trained_model, toy_table):
        estimator = DuetEstimator(trained_model)
        workload = make_random_workload(toy_table, num_queries=50, seed=3)
        estimates = estimator.estimate_batch(workload.queries)
        assert (estimates >= 0).all()
        assert (estimates <= toy_table.num_rows).all()

    def test_unsatisfiable_query_estimates_near_zero(self, trained_model, toy_table):
        estimator = DuetEstimator(trained_model)
        # b = 99 does not exist in the domain.
        estimate = estimator.estimate(Query.from_triples([("a", "=", 2), ("b", "=", 99)]))
        assert estimate == pytest.approx(0.0, abs=1e-6)

    def test_breakdown_reports_phases(self, trained_model, toy_table):
        estimator = DuetEstimator(trained_model)
        workload = make_random_workload(toy_table, num_queries=10, seed=4)
        stages = ["translate", "encode", "forward", "mask"]
        # The tape and a compiled runner report the same breakdown.
        for run in (estimator.estimate_batch_with_breakdown,
                    estimator.timed_batch_runner()):
            estimates, breakdown = run(workload.queries)
            assert estimates.shape == (10,)
            # One stage-name list, in execution order, on both paths.
            assert list(breakdown) == stages
            assert all(seconds >= 0 for seconds in breakdown.values())
            # The paper's two-phase split is derived from the four stages.
            assert breakdown.encoding == breakdown["translate"] + breakdown["encode"]
            assert breakdown.inference == breakdown["forward"] + breakdown["mask"]
            empty_estimates, empty = run([])
            assert empty_estimates.shape == (0,)
            assert list(empty.items()) == [(stage, 0.0) for stage in stages]

    def test_trained_model_beats_untrained_on_qerror(self, toy_table, small_config,
                                                     trained_model):
        workload = make_random_workload(toy_table, num_queries=100, seed=8)
        truth = np.maximum(workload.cardinalities, 1)

        def median_qerror(model):
            estimates = np.maximum(DuetEstimator(model).estimate_batch(workload.queries), 1)
            qerrors = np.maximum(estimates / truth, truth / estimates)
            return float(np.median(qerrors))

        untrained = median_qerror(DuetModel(toy_table, small_config))
        trained = median_qerror(trained_model)
        assert trained < untrained

    def test_single_column_accuracy_after_training(self, trained_model, toy_table):
        """Single-column range queries should be close to exact after training."""
        estimator = DuetEstimator(trained_model)
        column = toy_table.column("a")
        query = Query.from_triples([("a", "<=", column.value_of(4))])
        truth = cardinality(toy_table, query)
        estimate = estimator.estimate(query)
        qerror = max(estimate, truth) / max(min(estimate, truth), 1)
        assert qerror < 2.0


class TestDuetTrainer:
    def test_data_only_training_reduces_loss(self, toy_table):
        config = DuetConfig(hidden_sizes=(32,), epochs=3, batch_size=64,
                            expand_coefficient=2, lambda_query=0.0, seed=1)
        model = DuetModel(toy_table, config)
        trainer = DuetTrainer(model, toy_table, config=config)
        assert not trainer.hybrid
        history = trainer.train(epochs=3)
        assert history.data_losses[-1] < history.data_losses[0]
        assert all(stats.query_loss == 0.0 for stats in history.epochs)

    def test_hybrid_training_tracks_query_loss(self, toy_table, small_config):
        model = DuetModel(toy_table, small_config)
        workload = make_inworkload(toy_table, num_queries=80, seed=42)
        trainer = DuetTrainer(model, toy_table, workload, small_config)
        assert trainer.hybrid
        history = trainer.train(epochs=2)
        assert all(stats.query_loss > 0 for stats in history.epochs)
        assert all(stats.raw_qerror >= 1.0 for stats in history.epochs)

    def test_query_batch_keeps_rows_aligned(self, toy_table, small_config):
        """A sampled query batch slices code arrays, zero-out intervals and
        labels by the same rows: the translation of the picked queries."""
        model = DuetModel(toy_table, small_config)
        workload = make_inworkload(toy_table, num_queries=80, seed=42)
        trainer = DuetTrainer(model, toy_table, workload, small_config)
        state = trainer._rng.bit_generator.state
        values, ops, (low, high), cards = trainer._query_batch()
        trainer._rng.bit_generator.state = state
        picked = trainer._rng.choice(len(workload), size=len(cards), replace=False)
        expected = model.codec.translate_batch([workload.queries[i] for i in picked])
        np.testing.assert_array_equal(values, expected[0])
        np.testing.assert_array_equal(ops, expected[1])
        np.testing.assert_array_equal(low, expected[2][0])
        np.testing.assert_array_equal(high, expected[2][1])
        np.testing.assert_array_equal(cards, np.asarray(workload.cardinalities)[picked])

    def test_history_throughput_and_best_epoch(self, toy_table, small_config):
        model = DuetModel(toy_table, small_config)
        trainer = DuetTrainer(model, toy_table, config=small_config)
        evaluations = iter([5.0, 2.0, 3.0])
        history = trainer.train(epochs=3, evaluation_fn=lambda _model: next(evaluations))
        assert history.mean_throughput > 0
        assert history.best_epoch() == 1

    def test_best_epoch_requires_evaluations(self, toy_table, small_config):
        model = DuetModel(toy_table, small_config)
        trainer = DuetTrainer(model, toy_table, config=small_config)
        history = trainer.train(epochs=1)
        with pytest.raises(ValueError):
            history.best_epoch()

    def test_unlabeled_workload_is_labeled_automatically(self, toy_table, small_config):
        model = DuetModel(toy_table, small_config)
        workload = Workload("w", make_inworkload(toy_table, num_queries=20,
                                                 seed=1, label=False).queries)
        trainer = DuetTrainer(model, toy_table, workload, small_config)
        assert trainer.workload.is_labeled

    def test_finetune_on_queries_reduces_query_loss(self, toy_table, small_config):
        model = DuetModel(toy_table, small_config)
        workload = make_inworkload(toy_table, num_queries=60, seed=13)
        trainer = DuetTrainer(model, toy_table, config=small_config)
        trainer.train(epochs=1)
        losses = trainer.finetune_on_queries(workload, steps=30)
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_multi_predicate_training_and_estimation(self, toy_table):
        config = DuetConfig(hidden_sizes=(32,), epochs=1, batch_size=64,
                            expand_coefficient=2, multi_predicate=True,
                            max_predicates_per_column=2,
                            mpsn=MPSNConfig(kind="mlp", hidden_size=16), seed=2)
        model = DuetModel(toy_table, config)
        workload = make_multi_predicate_workload(toy_table, num_queries=40, seed=3)
        trainer = DuetTrainer(model, toy_table, workload, config)
        history = trainer.train(epochs=1)
        assert history.data_losses[0] > 0
        estimator = DuetEstimator(model)
        query = Query.from_triples([("a", ">=", 2), ("a", "<=", 5), ("b", "=", 1)])
        estimate = estimator.estimate(query)
        assert 0 <= estimate <= toy_table.num_rows
