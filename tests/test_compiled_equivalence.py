"""Compiled-vs-tape equivalence: the lowered plans must reproduce the
autograd path across every model configuration, within float64 round-off.

The tape path is the equivalence oracle (acceptance bound: 1e-6 relative in
float64; measured agreement is ~1e-15).  float32 plans get a looser, still
tight, bound.  A plan only comes from ``DuetEstimator.timed_batch_runner``;
the serving layer builds exactly one per start and per model swap, at
``ServingConfig.inference_dtype``.
"""

import numpy as np
import pytest

from repro.core import (
    CompiledDuetModel,
    DuetConfig,
    DuetEstimator,
    DuetModel,
    MPSNConfig,
    MergedMLPInference,
    ServingConfig,
    build_mpsn,
)
from repro.data import ColumnStore, make_census
from repro.nn import PlanOptions, Tensor
from repro.serving import EstimationService, ModelRegistry
from repro.workload import make_multi_predicate_workload, make_random_workload

RELATIVE_TOLERANCE = 1e-6  # acceptance bound; observed agreement is ~1e-15


@pytest.fixture(scope="module")
def table():
    return make_census(scale=0.04, seed=0)


def _workload(table, config, num_queries=80, seed=3):
    if config.multi_predicate:
        return make_multi_predicate_workload(table, num_queries=num_queries, seed=seed)
    return make_random_workload(table, num_queries=num_queries, seed=seed)


CONFIGS = {
    "plain": DuetConfig(hidden_sizes=(48, 48), seed=0),
    "residual": DuetConfig(hidden_sizes=(48, 48), residual=True, seed=0),
    "onehot": DuetConfig(hidden_sizes=(32,), value_encoding="onehot", seed=0),
    "embedding": DuetConfig(hidden_sizes=(48,), embedding_threshold=8,
                            embedding_dim=8, seed=0),
    "mpsn-mlp": DuetConfig(hidden_sizes=(48,), multi_predicate=True,
                           max_predicates_per_column=2,
                           mpsn=MPSNConfig(kind="mlp", hidden_size=16), seed=0),
    "mpsn-rnn": DuetConfig(hidden_sizes=(48,), multi_predicate=True,
                           max_predicates_per_column=2,
                           mpsn=MPSNConfig(kind="rnn", hidden_size=16), seed=0),
    "mpsn-recursive": DuetConfig(hidden_sizes=(48,), multi_predicate=True,
                                 max_predicates_per_column=2,
                                 mpsn=MPSNConfig(kind="recursive", hidden_size=16),
                                 seed=0),
    "embedding+mpsn": DuetConfig(hidden_sizes=(48,), multi_predicate=True,
                                 max_predicates_per_column=2,
                                 embedding_threshold=8, embedding_dim=8,
                                 mpsn=MPSNConfig(kind="mlp", hidden_size=16), seed=0),
}


def _tape_and_plan(estimator, queries, dtype="float64"):
    tape, _ = estimator.estimate_batch_with_breakdown(queries)
    compiled, _ = estimator.timed_batch_runner(PlanOptions(dtype))(queries)
    return tape, compiled


class TestCompiledEquivalence:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_float64_matches_tape(self, table, name):
        config = CONFIGS[name]
        estimator = DuetEstimator(DuetModel(table, config))
        tape, compiled = _tape_and_plan(estimator, _workload(table, config).queries)
        np.testing.assert_allclose(compiled, tape, rtol=RELATIVE_TOLERANCE,
                                   atol=RELATIVE_TOLERANCE)

    @pytest.mark.parametrize("name", ["plain", "residual", "embedding", "mpsn-mlp"])
    def test_float32_within_single_precision(self, table, name):
        config = CONFIGS[name]
        estimator = DuetEstimator(DuetModel(table, config))
        tape, compiled = _tape_and_plan(estimator, _workload(table, config).queries,
                                        dtype="float32")
        # float32 resolution, far below the model's own estimation error:
        # relative to the estimate itself, with a one-row absolute floor.
        np.testing.assert_allclose(compiled, tape, rtol=5e-4, atol=5e-4)

    def test_empty_batch_matches_tape(self, table):
        estimator = DuetEstimator(DuetModel(table, CONFIGS["plain"]))
        tape, compiled = _tape_and_plan(estimator, [])
        assert tape.shape == compiled.shape == (0,)

    def test_compiled_is_deterministic(self, table):
        estimator = DuetEstimator(DuetModel(table, CONFIGS["plain"]))
        runner = estimator.timed_batch_runner()
        queries = _workload(table, CONFIGS["plain"]).queries
        first, _ = runner(queries)
        second, _ = runner(queries)
        np.testing.assert_array_equal(first, second)

    def test_stale_plan_refreshes_on_recompile(self, table):
        """A runner's plan snapshots the weights; a new runner picks up the
        weights trained since."""
        model = DuetModel(table, CONFIGS["plain"])
        estimator = DuetEstimator(model)
        runner = estimator.timed_batch_runner()
        queries = _workload(table, CONFIGS["plain"], num_queries=16).queries
        before, _ = runner(queries)
        for parameter in model.parameters():
            parameter.data += 0.05  # stand-in for a training step
        stale, _ = runner(queries)
        np.testing.assert_array_equal(stale, before)  # still the old snapshot
        tape, refreshed = _tape_and_plan(estimator, queries)
        assert not np.allclose(refreshed, before)
        np.testing.assert_allclose(refreshed, tape, rtol=RELATIVE_TOLERANCE,
                                   atol=RELATIVE_TOLERANCE)


class TestMergedMPSNPlan:
    def test_merged_plan_obeys_dtype_option(self):
        config = MPSNConfig(kind="mlp", hidden_size=12, num_layers=2)
        rng = np.random.default_rng(3)
        mpsns = [build_mpsn(width, width, config, rng=rng) for width in (7, 5)]
        merged = MergedMLPInference(mpsns, PlanOptions(dtype="float32"))
        assert merged.plan.dtype is np.float32
        encodings = [rng.normal(size=(4, 2, width)) for width in (7, 5)]
        presence = [np.ones((4, 2)) for _ in range(2)]
        outputs = merged.forward(encodings, presence)
        for mpsn, encoding, output in zip(mpsns, encodings, outputs):
            direct = mpsn(Tensor(encoding), np.ones((4, 2))).numpy()
            np.testing.assert_allclose(output, direct, rtol=1e-3, atol=1e-3)


class TestRegistryCompileOptions:
    def test_save_without_options_stays_uncompiled(self, tmp_path, table):
        """A registry reload carries no plan: its estimates are the tape's,
        bit-for-bit with the original model."""
        model = DuetModel(table, CONFIGS["plain"])
        registry = ModelRegistry(tmp_path)
        registry.save(model, dataset="census")
        reloaded = registry.load_estimator("census")
        queries = _workload(table, CONFIGS["plain"]).queries
        np.testing.assert_array_equal(reloaded.estimate_batch(queries),
                                      DuetEstimator(model).estimate_batch(queries))


class TestServingCompiledRunner:
    def test_service_runs_compiled_without_mutating_estimator(self, table):
        model = DuetModel(table, CONFIGS["plain"])
        estimator = DuetEstimator(model)
        queries = _workload(table, CONFIGS["plain"], num_queries=30).queries
        tape = estimator.estimate_batch(queries)
        with EstimationService(estimator, ServingConfig(cache_capacity=0)) as service:
            served = service.estimate_batch(queries)
        # The estimator's own path is still the tape, bit-for-bit.
        np.testing.assert_array_equal(estimator.estimate_batch(queries), tape)
        np.testing.assert_allclose(served, tape, rtol=1e-9, atol=1e-9)

    def test_service_float32_dtype(self, table):
        model = DuetModel(table, CONFIGS["plain"])
        estimator = DuetEstimator(model)
        queries = _workload(table, CONFIGS["plain"], num_queries=30).queries
        config = ServingConfig(cache_capacity=0, inference_dtype="float32")
        with EstimationService(estimator, config) as service:
            served = service.estimate_batch(queries)
        np.testing.assert_allclose(served, estimator.estimate_batch(queries),
                                   rtol=5e-4, atol=5e-4)

    def test_invalid_inference_dtype_rejected(self):
        with pytest.raises(ValueError):
            ServingConfig(inference_dtype="float16")
        with pytest.raises(ValueError):
            ServingConfig(inference_dtype=None)


SERVICE_CONFIG = DuetConfig(hidden_sizes=(32,), seed=0)


class TestServicePlanLifecycle:
    @pytest.fixture()
    def store(self):
        return ColumnStore.from_table(make_census(scale=0.02, seed=0))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_one_plan_per_start_and_per_swap(self, tmp_path, monkeypatch,
                                             store, dtype):
        builds = []
        build = CompiledDuetModel.__init__

        def counting_build(plan, *args, **kwargs):
            builds.append(plan)
            build(plan, *args, **kwargs)

        monkeypatch.setattr(CompiledDuetModel, "__init__", counting_build)
        base = store.snapshot()
        registry = ModelRegistry(tmp_path)
        registry.save(DuetModel(base, SERVICE_CONFIG), "census")
        config = ServingConfig(cache_capacity=0, inference_dtype=dtype)

        def served_plan():
            plan = service._timed_runner.compiled
            assert np.dtype(plan.dtype) == np.dtype(config.inference_dtype)
            return plan

        with EstimationService.from_registry(registry, "census", config=config,
                                             store=store) as service:
            assert len(builds) == 1 and served_plan() is builds[-1]
            service.swap_model(DuetModel(base, SERVICE_CONFIG))
            assert len(builds) == 2 and served_plan() is builds[-1]
            rng = np.random.default_rng(1)
            store.append({name: base.column(name).distinct_values[
                rng.integers(0, base.column(name).num_distinct, size=40)]
                for name in base.column_names})
            assert service.refresh(epochs=1) is not None
            assert len(builds) == 3 and served_plan() is builds[-1]

    def test_in_flight_runner_survives_domain_growing_swap(self, store):
        """A batch that picked up its runner before a swap to a model with a
        grown domain still translates and scales with its own model."""
        base = store.snapshot()
        queries = make_random_workload(base, num_queries=20, seed=5,
                                       label=False).queries
        estimator = DuetEstimator(DuetModel(base, SERVICE_CONFIG))
        with EstimationService(estimator, ServingConfig(cache_capacity=0),
                               store=store) as service:
            in_flight = service._timed_runner
            before, _ = in_flight(queries)
            first = base.column_names[0]
            store.append({name: [base.column(name).distinct_values.max() + 1
                                 if name == first
                                 else base.column(name).distinct_values[0]]
                          for name in base.column_names})
            grown = store.snapshot()
            assert (grown.column(first).num_distinct
                    == base.column(first).num_distinct + 1)
            service.swap_model(DuetModel(grown, SERVICE_CONFIG))
            after, _ = in_flight(queries)
            served = service.estimate_batch(queries)
        np.testing.assert_array_equal(after, before)
        assert served.shape == (20,)
