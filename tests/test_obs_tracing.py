"""Tests of request tracing (:mod:`repro.obs.tracing`) and its serving wiring.

The acceptance bar from the observability issue lives here: a traced
cache-miss request through the full service (cache -> batcher -> compiled
plan) must yield a span tree with at least four distinct stages whose
top-level spans sum to within 20% of the recorded request latency.
"""

import threading

import numpy as np
import pytest

from repro.baselines import IndependenceEstimator
from repro.core import (
    DuetConfig,
    DuetEstimator,
    DuetModel,
    ObsConfig,
    ServingConfig,
)
from repro.data import Table, make_census
from repro.obs import Span, Trace, Tracer
from repro.serving import EstimationService
from repro.workload import Query


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(0)
    return Table.from_dict("tiny", {
        "age": rng.integers(18, 66, size=400),
        "city": rng.choice(["ams", "ber", "cdg", "dus"], size=400),
        "score": rng.integers(0, 10, size=400),
    })


def make_service(table, **config_kwargs) -> EstimationService:
    # Untrained weights are fine: tracing measures the path, not accuracy.
    estimator = DuetEstimator(
        DuetModel(table, DuetConfig(hidden_sizes=(16, 16), seed=0)))
    return EstimationService(estimator, config=ServingConfig(**config_kwargs))


# ----------------------------------------------------------------------
# Tracer / Trace primitives
# ----------------------------------------------------------------------
class TestTracer:
    def test_rate_zero_samples_nothing(self):
        tracer = Tracer(sample_rate=0.0)
        assert not tracer.enabled
        assert all(tracer.maybe_trace() is None for _ in range(100))
        assert tracer.traces_started == 0

    def test_rate_one_samples_everything(self):
        tracer = Tracer(sample_rate=1.0)
        traces = [tracer.maybe_trace(detail=index) for index in range(10)]
        assert all(isinstance(trace, Trace) for trace in traces)
        assert tracer.traces_started == 10

    def test_fractional_rate_is_roughly_respected(self):
        tracer = Tracer(sample_rate=0.25, seed=7)
        sampled = sum(tracer.maybe_trace() is not None for _ in range(4000))
        assert 800 <= sampled <= 1200  # ~1000 expected, generous band

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(sample_rate=0.5, keep_slowest=0)

    def test_slowest_keeps_the_worst_n_in_order(self):
        tracer = Tracer(sample_rate=1.0, keep_slowest=3)
        for duration in (0.5, 0.1, 0.9, 0.3, 0.7):
            trace = tracer.maybe_trace()
            trace.root.duration = duration  # bypass the wall clock
            tracer._record(trace)
        durations = [trace.duration for trace in tracer.slowest()]
        assert durations == [0.9, 0.7, 0.5]
        assert [trace.duration for trace in tracer.slowest(2)] == [0.9, 0.7]
        tracer.clear()
        assert tracer.slowest() == []

    def test_recording_is_thread_safe(self):
        tracer = Tracer(sample_rate=1.0, keep_slowest=16)
        barrier = threading.Barrier(4)

        def record_many() -> None:
            barrier.wait()
            for _ in range(200):
                tracer.maybe_trace().finish()

        threads = [threading.Thread(target=record_many) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert tracer.traces_started == 800
        assert len(tracer.slowest()) == 16


class TestTraceTree:
    def test_batch_span_expands_breakdown_with_wait(self):
        tracer = Tracer(sample_rate=1.0)
        trace = tracer.maybe_trace()
        trace.attach_breakdown(
            {"translate": 0.010, "encode": 0.005, "forward": 0.010,
             "mask": 0.005},
            batch_size=4)
        batch = trace.add_batch_span(0.050)
        names = [span.name for span in batch.children]
        assert names == ["wait", "translate", "encode", "forward", "mask"]
        wait = batch.children[0]
        assert wait.duration == pytest.approx(0.020)  # 0.050 - staged 0.030
        assert sum(span.duration for span in batch.children) == (
            pytest.approx(batch.duration))
        assert trace.batch_size == 4

    def test_batch_span_without_breakdown_stays_flat(self):
        trace = Tracer(sample_rate=1.0).maybe_trace()
        batch = trace.add_batch_span(0.01)
        assert batch.children == []

    def test_format_tree_renders_every_span(self):
        trace = Tracer(sample_rate=1.0).maybe_trace(detail="age = 3")
        trace.add("cache_lookup", 0.001)
        trace.attach_breakdown({"translate": 0.002, "encode": 0.001,
                                "forward": 0.002, "mask": 0.001},
                               batch_size=2)
        trace.add_batch_span(0.01)
        trace.finish(cache_hit=False)
        rendered = trace.format_tree()
        for name in ("cache_lookup", "batch", "wait", "translate",
                     "encode", "forward", "mask"):
            assert name in rendered
        assert "age = 3" in rendered and "(batch of 2)" in rendered

    def test_span_walk_covers_descendants(self):
        root = Span("request")
        child = root.child("batch", duration=0.01)
        child.child("forward", duration=0.005)
        assert [span.name for span in root.walk()] == [
            "request", "batch", "forward"]


# ----------------------------------------------------------------------
# End-to-end: traced requests through the service
# ----------------------------------------------------------------------
class TestServiceTracing:
    def test_cache_miss_trace_has_stages_that_sum_to_latency(self, table):
        with make_service(table, inference_dtype="float32",
                          obs=ObsConfig(trace_sample_rate=1.0)) as service:
            service.estimate(Query.from_triples([("age", ">=", 30)]))
            traces = [trace for trace in service.tracer.slowest()
                      if not trace.cache_hit]
            assert traces
            trace = traces[0]
            # The acceptance bar: >= 4 distinct stages on a miss...
            assert len(trace.stage_names()) >= 4
            assert {"cache_lookup", "batch"} <= trace.stage_names()
            # ...and the top-level spans account for the recorded latency.
            accounted = sum(span.duration for span in trace.root.children)
            assert accounted == pytest.approx(trace.duration,
                                              rel=0.20)

    def test_cache_hit_trace_is_marked_and_shallow(self, table):
        with make_service(table, obs=ObsConfig(trace_sample_rate=1.0)
                          ) as service:
            query = Query.from_triples([("score", "<=", 5)])
            service.estimate(query)
            service.estimate(query)  # second time is a cache hit
            hits = [trace for trace in service.tracer.slowest()
                    if trace.cache_hit]
            assert hits
            assert hits[0].stage_names() == {"cache_lookup"}

    def test_unbatched_path_still_attributes_stages(self, table):
        with make_service(table, micro_batching=False, cache_capacity=0,
                          inference_dtype="float32",
                          obs=ObsConfig(trace_sample_rate=1.0)) as service:
            service.estimate(Query.from_triples([("age", ">=", 30)]))
            trace = service.tracer.slowest(1)[0]
            assert {"translate", "encode", "forward", "mask"} <= (
                trace.stage_names())
            assert trace.batch_size == 1

    def test_compiled_miss_batch_children_are_the_breakdown_stages(
            self, table):
        with make_service(table, cache_capacity=0, inference_dtype="float32",
                          obs=ObsConfig(trace_sample_rate=1.0)) as service:
            service.estimate(Query.from_triples([("age", ">=", 30)]))
            trace = service.tracer.slowest(1)[0]
            batch = next(span for span in trace.root.children
                         if span.name == "batch")
            names = [span.name for span in batch.children
                     if span.name != "wait"]
            assert names == ["translate", "encode", "forward", "mask"]

    @pytest.mark.parametrize("micro_batching", [True, False],
                             ids=["batched", "unbatched"])
    def test_baseline_trace_has_no_wait_span(self, micro_batching):
        """A runner without a stage breakdown must not book its whole pass
        as batcher queue wait: the ``batch`` span stays flat."""
        census = make_census(scale=0.05, seed=0)
        config = ServingConfig(cache_capacity=0, micro_batching=micro_batching,
                               obs=ObsConfig(trace_sample_rate=1.0))
        with EstimationService(IndependenceEstimator(census),
                               config=config) as service:
            service.estimate(Query.from_triples([("age", ">=", 30)]))
            trace = service.tracer.slowest(1)[0]
            batch = next(span for span in trace.root.children
                         if span.name == "batch")
            assert batch.children == []
            assert "wait" not in trace.stage_names()
            assert trace.batch_size == 1

    def test_rate_zero_leaves_no_traces(self, table):
        with make_service(table) as service:  # ObsConfig() defaults: off
            assert service.tracer.sample_rate == 0.0
            service.estimate(Query.from_triples([("age", ">=", 30)]))
            assert service.tracer.slowest() == []
            assert service.tracer.traces_started == 0

    def test_sample_rate_is_tunable_on_a_live_service(self, table):
        with make_service(table, cache_capacity=0) as service:
            service.estimate(Query.from_triples([("age", ">=", 30)]))
            assert service.tracer.slowest() == []
            service.tracer.sample_rate = 1.0  # flip tracing on in flight
            service.estimate(Query.from_triples([("age", ">=", 31)]))
            assert len(service.tracer.slowest()) == 1

    def test_traced_and_untraced_estimates_agree(self, table):
        query = Query.from_triples([("age", ">=", 30), ("score", "<=", 5)])
        with make_service(table, cache_capacity=0) as plain:
            expected = plain.estimate(query)
        with make_service(table, cache_capacity=0,
                          obs=ObsConfig(trace_sample_rate=1.0,
                                        profile_plan_stages=True)) as traced:
            assert traced.estimate(query) == pytest.approx(expected)


# ----------------------------------------------------------------------
# Plan profiling through the service
# ----------------------------------------------------------------------
class TestPlanProfiling:
    def test_profile_report_accumulates_per_stage(self, table):
        with make_service(table, inference_dtype="float32", cache_capacity=0,
                          obs=ObsConfig(profile_plan_stages=True)) as service:
            for value in (30, 40, 50):
                service.estimate(Query.from_triples([("age", ">=", value)]))
            report = service.profile_report()
            assert report is not None
            assert report["made_stages"]
            for stage in report["made_stages"]:
                assert stage["calls"] > 0 and stage["seconds"] >= 0.0

    def test_profiling_off_reports_nothing(self, table):
        with make_service(table, inference_dtype="float32",
                          cache_capacity=0) as service:
            service.estimate(Query.from_triples([("age", ">=", 30)]))
            report = service.profile_report()
            assert report is None or all(
                stage["calls"] == 0 for stage in report["made_stages"])


# ----------------------------------------------------------------------
# ObsConfig validation
# ----------------------------------------------------------------------
class TestObsConfig:
    def test_defaults_are_all_off(self):
        config = ObsConfig()
        assert config.trace_sample_rate == 0.0
        assert not config.profile_plan_stages

    def test_validation(self):
        with pytest.raises(ValueError):
            ObsConfig(trace_sample_rate=2.0)
        with pytest.raises(ValueError):
            ObsConfig(trace_keep_slowest=0)
        with pytest.raises(ValueError):
            ObsConfig(export_interval_seconds=0.0)
