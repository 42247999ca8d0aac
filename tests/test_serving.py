"""Tests of the online estimation service (:mod:`repro.serving`).

Covers the satellite checklist: cache-key canonicalisation (predicate order,
operator aliases), micro-batch coalescing under concurrent threads, and the
registry save -> load -> identical-estimates round trip, plus service-level
end-to-end behaviour and stats.
"""

import itertools
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import (
    CardinalityEstimator,
    DuetConfig,
    DuetEstimator,
    DuetModel,
    MPSNConfig,
    ServingConfig,
)
from repro.data import Table, make_census
from repro.eval import evaluate_service, run_load_test
from repro.obs import parse_exposition
from repro.serving import (
    EstimateCache,
    EstimationService,
    MicroBatcher,
    ModelRegistry,
    QueryKeyEncoder,
    TableSchema,
)
from repro.workload import Query, make_random_workload


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(0)
    return Table.from_dict("tiny", {
        "age": rng.integers(18, 66, size=400),
        "city": rng.choice(["ams", "ber", "cdg", "dus"], size=400),
        "score": rng.integers(0, 10, size=400),
    })


@pytest.fixture(scope="module")
def estimator(table) -> DuetEstimator:
    # Untrained weights are fine: the serving layer only needs a
    # deterministic model, not an accurate one.
    return DuetEstimator(DuetModel(table, DuetConfig(hidden_sizes=(16, 16), seed=0)))


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
class TestQueryKeyEncoder:
    def test_predicate_order_is_canonicalised(self, table):
        keys = QueryKeyEncoder(table)
        forward = Query.from_triples([("age", ">=", 30), ("score", "<=", 5)])
        backward = Query.from_triples([("score", "<=", 5), ("age", ">=", 30)])
        assert keys.key(forward) == keys.key(backward)

    def test_operator_aliases_share_a_key(self, table):
        keys = QueryKeyEncoder(table)
        # On an integer-coded domain, "> 29" and ">= 30" select the same codes.
        strict = Query.from_triples([("age", ">", 29)])
        inclusive = Query.from_triples([("age", ">=", 30)])
        assert keys.key(strict) == keys.key(inclusive)
        below = Query.from_triples([("age", "<", 30)])
        at_most = Query.from_triples([("age", "<=", 29)])
        assert keys.key(below) == keys.key(at_most)
        # Every empty interval is one key: the estimate is 0 either way.
        absent = Query.from_triples([("age", "=", 99)])
        above_max = Query.from_triples([("age", ">", 99)])
        assert keys.key(absent) == keys.key(above_max)

    def test_distinct_queries_get_distinct_keys(self, table):
        keys = QueryKeyEncoder(table)
        assert (keys.key(Query.from_triples([("age", ">=", 30)]))
                != keys.key(Query.from_triples([("age", ">=", 31)])))
        assert (keys.key(Query.from_triples([("age", "=", 30)]))
                != keys.key(Query.from_triples([("score", "=", 3)])))

    def test_unconstraining_predicates_are_dropped(self, table):
        keys = QueryKeyEncoder(table)
        lowest = int(table.column("age").distinct_values.min())
        padded = Query.from_triples([("age", ">=", lowest), ("score", "=", 3)])
        bare = Query.from_triples([("score", "=", 3)])
        assert keys.key(padded) == keys.key(bare)

    def test_same_column_intervals_intersect(self):
        """Equal keys must mean equal uncached estimates.

        Predicates on one column intersect in the zero-out mask, but a
        multi-predicate model also sees each of them, in order, so the key
        keeps them apart.  Single-predicate rewrites (column order, operator
        spelling) still share a key.
        """
        census = make_census(scale=0.05)
        a, b = census.columns[1], census.columns[6]
        v1, v2, v3, v4 = (a.distinct_values[i] for i in (1, 2, 3, 4))
        m = b.distinct_values[7]
        queries = [Query.from_triples(triples) for triples in (
            [(a.name, ">=", v1), (a.name, ">=", v3), (b.name, "<=", m)],
            [(a.name, ">=", v3), (b.name, "<=", m)],
            [(b.name, "<=", m), (a.name, ">", v2)],
            [(a.name, ">=", v1), (a.name, "<=", v4), (b.name, "<=", m)],
            [(a.name, "<=", v4), (a.name, ">=", v1), (b.name, "<=", m)],
        )]
        keys = QueryKeyEncoder(census)
        # Redundant and reordered same-column predicates get their own keys;
        # column order and "> v2" vs ">= v3" do not matter.
        assert len({keys.key(query) for query in queries}) == 4
        assert keys.key(queries[1]) == keys.key(queries[2])
        for kind in ("mlp", "rnn"):
            estimator = DuetEstimator(DuetModel(census, DuetConfig(
                hidden_sizes=(32, 32), multi_predicate=True,
                max_predicates_per_column=2, mpsn=MPSNConfig(kind=kind))))
            uncached = [float(estimator.estimate_batch([query])[0])
                        for query in queries]
            for first, second in itertools.combinations(range(len(queries)), 2):
                if keys.key(queries[first]) == keys.key(queries[second]):
                    assert uncached[first] == uncached[second]
            with EstimationService(estimator,
                                   ServingConfig(micro_batching=False)) as service:
                served = [service.estimate(query) for query in queries]
            np.testing.assert_allclose(served, uncached, rtol=1e-12)


    def test_shared_encoder_under_threads(self, table, monkeypatch):
        """Client threads share one encoder's interval memo; concurrent
        misses and memo resets must never change a key."""
        monkeypatch.setattr("repro.workload.query._MEMO_LIMIT", 8)
        queries = make_random_workload(table, num_queries=60, seed=3).queries
        expected = [QueryKeyEncoder(table).key(query) for query in queries]
        shared = QueryKeyEncoder(table)
        mismatches = []

        def client(worker):
            for round_ in range(20):
                for index in range(worker + round_, len(queries), 3):
                    if shared.key(queries[index]) != expected[index]:
                        mismatches.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(worker,))
                       for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(LIVENESS_SECONDS)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert mismatches == []


class TestEstimateCache:
    def test_lru_eviction(self):
        cache = EstimateCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        assert cache.get("a") == 1.0       # refreshes "a"; "b" is now LRU
        cache.put("c", 3.0)                 # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1.0 and cache.get("c") == 3.0
        assert len(cache) == 2 and "b" not in cache

    def test_zero_capacity_disables_caching(self):
        cache = EstimateCache(capacity=0)
        cache.put("a", 1.0)
        assert cache.get("a") is None
        assert len(cache) == 0


# ----------------------------------------------------------------------
# Micro-batching
# ----------------------------------------------------------------------
#: liveness bound of every blocking wait below: a wait that runs out means a
#: hung scheduler, never a slow one (no assertion depends on timing)
LIVENESS_SECONDS = 10.0


def _age_query(value: int) -> Query:
    return Query.from_triples([("age", "=", value)])


class _GatedRunner:
    """Batch runner whose passes block on a gate; records every batch.

    Each pass answers a query with its own ``age`` value, so every future
    can be checked against the request that created it.
    """

    def __init__(self) -> None:
        self.batches: list[list[float]] = []
        self.gate = threading.Event()
        self._entered = threading.Semaphore(0)

    def __call__(self, queries):
        values = [float(query.predicates[0].value) for query in queries]
        self.batches.append(values)
        self._entered.release()
        assert self.gate.wait(LIVENESS_SECONDS), "gate never opened"
        return values

    def wait_for_pass(self) -> None:
        assert self._entered.acquire(timeout=LIVENESS_SECONDS), "no pass started"


class TestMicroBatcher:
    def test_lone_request_runs_at_once_as_a_batch_of_one(self):
        runner = _GatedRunner()
        with MicroBatcher(runner, max_batch_size=16) as batcher:
            future = batcher.submit(_age_query(7))
            # The pass starts with nothing else pending: no batch window is
            # waited out for company that never comes.
            runner.wait_for_pass()
            assert runner.batches == [[7.0]]
            runner.gate.set()
            assert future.result(timeout=LIVENESS_SECONDS) == 7.0
        assert runner.batches == [[7.0]]

    @staticmethod
    def _coalesce(pending: int, cap: int):
        """Queue ``pending`` requests behind a blocked pass, then release it.

        Returns every future's answer keyed by its query value, and the
        batches the runner saw.
        """
        runner = _GatedRunner()
        with MicroBatcher(runner, max_batch_size=cap) as batcher:
            first = batcher.submit(_age_query(0))
            runner.wait_for_pass()
            # Submit from several threads while the first pass is blocked:
            # every request is queued before that pass returns.
            futures = {0: first}

            def client(worker):
                for value in range(1 + worker, pending + 1, 4):
                    futures[value] = batcher.submit(_age_query(value))

            threads = [threading.Thread(target=client, args=(worker,))
                       for worker in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(LIVENESS_SECONDS)
                assert not thread.is_alive()
            runner.gate.set()
            results = {value: future.result(timeout=LIVENESS_SECONDS)
                       for value, future in futures.items()}
        return results, runner.batches

    def test_coalesces_concurrent_requests(self):
        cap = 4
        for pending in (3, cap, 10):
            results, batches = self._coalesce(pending, cap)
            # Every request got its own answer back, in spite of coalescing.
            assert results == {value: float(value) for value in range(pending + 1)}
            # The requests queued during the first pass came back as passes
            # of min(pending, cap), then the rest: coalescing happened and
            # the cap was respected.
            full, rest = divmod(pending, cap)
            assert [len(batch) for batch in batches] \
                == [1] + [cap] * full + ([rest] if rest else [])
            assert sorted(value for batch in batches[1:] for value in batch) \
                == [float(value) for value in range(1, pending + 1)]

    def test_many_clients_each_get_their_own_answer(self):
        # More client threads than cores and a tiny switch interval, so
        # submits interleave with the scheduler's drain at every bytecode.
        cap, clients, per_client = 8, 8, 40
        batches = []

        def runner(queries):
            batches.append(len(queries))
            return [float(query.predicates[0].value) for query in queries]

        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with MicroBatcher(runner, max_batch_size=cap) as batcher:
                def client(worker):
                    for value in range(worker, clients * per_client, clients):
                        results[value] = batcher.estimate(_age_query(value))

                threads = [threading.Thread(target=client, args=(worker,))
                           for worker in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(LIVENESS_SECONDS)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        total = clients * per_client
        assert results == {value: float(value) for value in range(total)}
        assert sum(batches) == total and max(batches) <= cap

    def test_close_resolves_queued_requests(self):
        runner = _GatedRunner()
        batcher = MicroBatcher(runner, max_batch_size=2)
        futures = [batcher.submit(_age_query(0))]
        runner.wait_for_pass()
        futures += [batcher.submit(_age_query(value)) for value in range(1, 6)]
        closer = threading.Thread(target=batcher.close)
        closer.start()
        # Keep submitting until close() refuses: the refusal proves its
        # shutdown sentinel is queued behind every request accepted so far.
        deadline = time.monotonic() + LIVENESS_SECONDS
        while True:
            try:
                futures.append(batcher.submit(_age_query(len(futures))))
            except RuntimeError:
                break
            assert time.monotonic() < deadline, "close() never took effect"
            time.sleep(0.001)
        runner.gate.set()
        closer.join(LIVENESS_SECONDS)
        assert not closer.is_alive()
        assert [future.result(timeout=0) for future in futures] \
            == [float(value) for value in range(len(futures))]

    def test_runner_errors_propagate_to_futures(self):
        def runner(queries):
            raise RuntimeError("model exploded")

        with MicroBatcher(runner, max_batch_size=4) as batcher:
            future = batcher.submit(_age_query(1))
            with pytest.raises(RuntimeError, match="model exploded"):
                future.result(timeout=5)

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(lambda queries: [0.0] * len(queries))
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(Query.from_triples([("age", "=", 1)]))

    def test_shape_mismatch_is_reported(self):
        with MicroBatcher(lambda queries: [1.0, 2.0, 3.0],
                          max_batch_size=1) as batcher:
            future = batcher.submit(Query.from_triples([("age", "=", 1)]))
            with pytest.raises(ValueError, match="runner returned shape"):
                future.result(timeout=5)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_save_load_identical_estimates(self, tmp_path, table, estimator):
        registry = ModelRegistry(tmp_path)
        registry.save(estimator.model, dataset="tiny")
        reloaded = registry.load_estimator("tiny")
        workload = make_random_workload(table, num_queries=60, seed=5)
        assert np.array_equal(estimator.estimate_batch(workload.queries),
                              reloaded.estimate_batch(workload.queries))

    def test_schema_table_refuses_data_access(self, tmp_path, table, estimator):
        registry = ModelRegistry(tmp_path)
        registry.save(estimator.model, dataset="tiny")
        reloaded = registry.load_estimator("tiny")
        workload = make_random_workload(table, num_queries=5, seed=59, label=False)
        # Ground truth against the schema-only table must fail loudly at
        # every entry point, not crash with a broadcast error or mislabel.
        with pytest.raises(ValueError, match="schema-only stand-in"):
            workload.label(reloaded.table)
        with pytest.raises(RuntimeError, match="carries no tuples"):
            reloaded.table.code_matrix()
        with pytest.raises(RuntimeError, match="carries no tuples"):
            reloaded.table.sample_rows(3)

    def test_schema_table_preserves_domains_and_row_count(self, tmp_path, table):
        schema = TableSchema.from_table(table)
        path = schema.save(tmp_path / "schema")
        assert path.exists() and path.name.endswith(".npz")
        rebuilt = TableSchema.load(path).to_table()
        assert rebuilt.num_rows == table.num_rows
        assert rebuilt.column_names == table.column_names
        for original, restored in zip(table.columns, rebuilt.columns):
            assert np.array_equal(original.distinct_values, restored.distinct_values)

    def test_versioning_and_manifest(self, tmp_path, estimator):
        registry = ModelRegistry(tmp_path)
        first = registry.save(estimator.model, dataset="tiny",
                              metadata={"note": "first"})
        second = registry.save(estimator.model, dataset="tiny")
        assert (first.version, second.version) == ("v1", "v2")
        assert registry.versions("tiny") == ["v1", "v2"]
        assert registry.latest_version("tiny") == "v2"
        assert registry.entry("tiny", "v1").metadata == {"note": "first"}
        assert "tiny" in registry and "other" not in registry
        pinned = registry.save(estimator.model, dataset="tiny", version="golden")
        assert registry.latest_version("tiny") == "golden"
        assert pinned.num_parameters == estimator.model.num_parameters()

    def test_config_from_dict_ignores_legacy_mpsn_merged(self):
        """Entries saved while MPSNConfig still had ``merged`` keep loading."""
        from repro.serving.registry import _config_from_dict, _config_to_dict

        config = DuetConfig(hidden_sizes=(8,), multi_predicate=True,
                            mpsn=MPSNConfig(kind="mlp", hidden_size=4))
        payload = _config_to_dict(config)
        payload["mpsn"]["merged"] = True
        assert _config_from_dict(payload) == config

    def test_unknown_entries_raise(self, tmp_path, estimator):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(KeyError):
            registry.latest_version("tiny")
        registry.save(estimator.model, dataset="tiny")
        with pytest.raises(KeyError):
            registry.entry("tiny", "v9")


# ----------------------------------------------------------------------
# Service end-to-end
# ----------------------------------------------------------------------
class TestEstimationService:
    def test_concurrent_estimates_match_the_estimator(self, table, estimator):
        workload = make_random_workload(table, num_queries=64, seed=11)
        expected = estimator.estimate_batch(workload.queries)
        with EstimationService(estimator, ServingConfig()) as service:
            results = np.empty(len(workload))

            def client(indices):
                for index in indices:
                    results[index] = service.estimate(workload.queries[index])

            threads = [threading.Thread(target=client,
                                        args=(range(start, len(workload), 4),))
                       for start in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        # Micro-batches group queries differently than the reference batch,
        # which perturbs BLAS summation order: equality up to float noise.
        np.testing.assert_allclose(results, expected, rtol=1e-9)

    def test_cache_hits_skip_the_model(self, table, estimator):
        query = Query.from_triples([("age", ">=", 30)])
        with EstimationService(estimator, ServingConfig()) as service:
            first = service.estimate(query)
            passes_after_first = service.snapshot().num_batches
            second = service.estimate(query)
            snapshot = service.snapshot()
        assert first == second
        assert snapshot.num_batches == passes_after_first  # no extra forward pass
        assert snapshot.cache_hits == 1 and snapshot.cache_misses == 1

    def test_naive_mode_runs_one_pass_per_request(self, table, estimator):
        workload = make_random_workload(table, num_queries=10, seed=23)
        with EstimationService(
                estimator,
                ServingConfig(micro_batching=False, cache_capacity=0)) as service:
            for query in workload.queries:
                service.estimate(query)
            snapshot = service.snapshot()
        assert snapshot.num_batches == len(workload)
        assert snapshot.mean_batch_size == 1.0

    def test_estimate_batch_uses_cache(self, table, estimator):
        workload = make_random_workload(table, num_queries=20, seed=29)
        with EstimationService(estimator, ServingConfig()) as service:
            first = service.estimate_batch(workload.queries)
            passes = service.snapshot().num_batches
            second = service.estimate_batch(workload.queries)
            assert service.snapshot().num_batches == passes  # all cached
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("micro_batching", [True, False])
    def test_failed_passes_are_counted(self, table, micro_batching):
        failure = RuntimeError("model exploded")

        class ExplodingEstimator(CardinalityEstimator):
            def estimate(self, query):
                raise failure

        def batch_errors(service):
            parsed = parse_exposition(service.metrics.exposition())
            return parsed[("repro_request_errors_total", (("stage", "batch"),))]

        config = ServingConfig(micro_batching=micro_batching)
        with EstimationService(ExplodingEstimator(table), config) as service:
            assert batch_errors(service) == 0.0
            for value in range(3):
                with pytest.raises(RuntimeError) as raised:
                    service.estimate(_age_query(value))
                # Each caller sees the runner's own error, not a wrapper.
                assert raised.value is failure
            assert batch_errors(service) == 3.0
            assert service.snapshot().num_batches == 0

    @pytest.mark.parametrize("batched", [False, True])
    def test_key_failures_are_counted(self, table, estimator, batched):
        def errors(service, stage):
            parsed = parse_exposition(service.metrics.exposition())
            return parsed[("repro_request_errors_total", (("stage", stage),))]

        unknown = Query.from_triples([("age", ">=", 30), ("height", "<", 2)])
        with EstimationService(estimator) as service:
            assert errors(service, "key") == 0.0
            with pytest.raises(KeyError, match="no column 'height'"):
                if batched:
                    service.estimate_batch([_age_query(30), unknown])
                else:
                    service.estimate(unknown)
            assert errors(service, "key") == 1.0
            assert errors(service, "batch") == 0.0
            assert service.snapshot().num_batches == 0

    def test_wrong_estimate_count_is_a_counted_failure(self, table):
        class ShortEstimator(CardinalityEstimator):
            def estimate(self, query):
                return 1.0

            def estimate_batch(self, queries):
                return np.ones(len(queries) + 1)

        with EstimationService(ShortEstimator(table)) as service:
            with pytest.raises(ValueError, match="runner returned shape"):
                service.estimate(_age_query(1))
            parsed = parse_exposition(service.metrics.exposition())
        assert parsed[("repro_request_errors_total", (("stage", "batch"),))] == 1.0

    def test_evaluate_service_reports_load_and_accuracy(self, table, estimator):
        workload = make_random_workload(table, num_queries=30, seed=41)
        with EstimationService(estimator, ServingConfig()) as service:
            result = evaluate_service(service, workload, concurrency=4,
                                      num_requests=200, table=table)
        assert result.report.num_requests == 200
        assert result.report.errors == 0
        assert result.report.qps > 0
        assert result.summary.count == len(workload)
        assert result.report.p50_ms <= result.report.p99_ms
        row = result.as_table_row()
        assert row[0] == estimator.name

    def test_evaluate_service_rejects_schema_only_labeling(self, tmp_path, table,
                                                           estimator):
        registry = ModelRegistry(tmp_path)
        registry.save(estimator.model, dataset="tiny")
        unlabeled = make_random_workload(table, num_queries=10, seed=53, label=False)
        with EstimationService.from_registry(registry, "tiny") as service:
            # The service's own table is a data-less schema stand-in: asking
            # it to label ground truth must fail loudly, not mislabel.
            with pytest.raises(ValueError, match="schema stand-in"):
                evaluate_service(service, unlabeled, concurrency=2, num_requests=20)
            # Passing the data table (or a labelled workload) works.
            result = evaluate_service(service, unlabeled, concurrency=2,
                                      num_requests=20, table=table)
        assert result.summary.count == len(unlabeled)

    def test_from_registry_round_trip(self, tmp_path, table, estimator):
        registry = ModelRegistry(tmp_path)
        registry.save(estimator.model, dataset="tiny")
        workload = make_random_workload(table, num_queries=25, seed=47)
        with EstimationService.from_registry(registry, "tiny") as service:
            report = run_load_test(service, workload, concurrency=4,
                                   num_requests=100, seed=1)
            served = service.estimate_batch(workload.queries)
        assert report.errors == 0
        # Some entries were cached during the load test under different
        # batch compositions, so compare up to float noise here; the strict
        # bit-for-bit check lives in TestModelRegistry.
        np.testing.assert_allclose(served, estimator.estimate_batch(workload.queries),
                                   rtol=1e-9)


# ----------------------------------------------------------------------
# Registry retention
# ----------------------------------------------------------------------
class TestRegistryPrune:
    def test_prunes_to_newest_versions(self, tmp_path, estimator):
        registry = ModelRegistry(tmp_path)
        for _ in range(5):
            registry.save(estimator.model, dataset="tiny")
        removed = registry.prune("tiny", keep=2)
        assert removed == ["v3", "v2", "v1"]
        assert registry.versions("tiny") == ["v4", "v5"]
        assert registry.latest_version("tiny") == "v5"
        for version in removed:
            assert not (tmp_path / "tiny" / version).exists()
        # Survivors still load bit-for-bit.
        registry.load_estimator("tiny", "v4")

    def test_never_deletes_latest_even_with_keep_one(self, tmp_path, estimator):
        registry = ModelRegistry(tmp_path)
        registry.save(estimator.model, dataset="tiny")
        registry.save(estimator.model, dataset="tiny")
        registry.prune("tiny", keep=1)
        assert registry.versions("tiny") == ["v2"]
        assert registry.latest_version("tiny") == "v2"

    def test_protect_keeps_the_served_version(self, tmp_path, estimator):
        registry = ModelRegistry(tmp_path)
        for _ in range(4):
            registry.save(estimator.model, dataset="tiny")
        removed = registry.prune("tiny", keep=1, protect=("v2",))
        assert "v2" not in removed
        assert registry.versions("tiny") == ["v2", "v4"]
        # Unknown protected names are ignored rather than invented.
        assert registry.prune("tiny", keep=1, protect=("v99",)) == ["v2"]

    def test_prune_is_a_noop_when_nothing_to_remove(self, tmp_path, estimator):
        registry = ModelRegistry(tmp_path)
        registry.save(estimator.model, dataset="tiny")
        assert registry.prune("tiny", keep=3) == []
        assert registry.prune("unknown-dataset", keep=1) == []

    def test_prune_rejects_keep_below_one(self, tmp_path, estimator):
        registry = ModelRegistry(tmp_path)
        registry.save(estimator.model, dataset="tiny")
        with pytest.raises(ValueError, match="at least one"):
            registry.prune("tiny", keep=0)

    def test_prune_refuses_inconsistent_manifest(self, tmp_path, estimator):
        registry = ModelRegistry(tmp_path)
        registry.save(estimator.model, dataset="tiny")
        latest = registry.save(estimator.model, dataset="tiny")
        latest.model_path.unlink()  # manifest now lies about v2
        with pytest.raises(RuntimeError, match="refusing to prune"):
            registry.prune("tiny", keep=1)
        # Nothing was deleted by the aborted prune.
        assert registry.versions("tiny") == ["v1", "v2"]
        assert (tmp_path / "tiny" / "v1").exists()
