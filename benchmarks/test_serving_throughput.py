"""Serving throughput: the online estimation service under concurrent load.

Not a paper table — this benchmark covers the serving subsystem
(:mod:`repro.serving`): 8 worker threads replay >= 2,000 single-query
requests against one trained Duet model in three configurations and the
report compares them, every forward pass running through the service's
compiled plan:

* ``naive``         — one forward pass per request, no cache;
* ``micro-batched`` — concurrent requests coalesced into vectorised passes;
* ``batched+cache`` — micro-batching plus the canonical-key estimate LRU.

Asserted shape: micro-batching yields higher QPS than the naive loop (it
amortises per-pass overhead across coalesced requests), the cache
short-circuits the model entirely on repeated queries (far fewer forward
passes than requests), and a registry save/load round-trip reproduces the
original estimator bit-for-bit on a held-out workload.  The plan's
forward-pass margin over the tape is benchmarked in
``test_inference_compiled.py``.
"""

import numpy as np
import pytest

from conftest import run_once

from repro.core import ServingConfig
from repro.eval import format_serving_table, run_load_test, train_duet
from repro.serving import EstimationService, ModelRegistry
from repro.workload import make_random_workload

CONCURRENCY = 8
NUM_REQUESTS = 2_000


@pytest.fixture(scope="module")
def served_model(scale):
    table = scale.dataset("census")
    # A production-sized network: with the vectorised query translation the
    # per-request Python cost is small, so a tiny model would leave nothing
    # for micro-batching to amortise and the naive-vs-batched margin would
    # ride on scheduler noise instead of forward-pass work.
    trained = train_duet(table, config=scale.duet_config(
        epochs=1, hidden_sizes=(256, 256)))
    workload = make_random_workload(table, num_queries=250, seed=31)
    return table, trained, workload


def _drive(trained, workload, config, mode):
    with EstimationService(trained.estimator, config) as service:
        return run_load_test(service, workload, concurrency=CONCURRENCY,
                             num_requests=NUM_REQUESTS, mode=mode, seed=0)


def test_serving_throughput(benchmark, served_model):
    _, trained, workload = served_model

    naive = _drive(trained, workload,
                   ServingConfig(micro_batching=False, cache_capacity=0), "naive")
    batched = run_once(
        benchmark, _drive, trained, workload,
        ServingConfig(micro_batching=True, cache_capacity=0), "micro-batched")
    cached = _drive(trained, workload, ServingConfig(), "batched+cache")

    print()
    print(format_serving_table([naive, batched, cached],
                               title=f"serving throughput ({CONCURRENCY} threads, "
                                     f"{NUM_REQUESTS} requests)"))

    for report in (naive, batched, cached):
        assert report.num_requests >= 2_000
        assert report.concurrency == CONCURRENCY
        assert report.errors == 0
        assert report.qps > 0

    # Micro-batching coalesces concurrent requests: far fewer forward passes
    # than requests, and measurably higher sustained QPS than the naive loop.
    assert batched.mean_batch_size > 1.5
    assert batched.forward_passes < NUM_REQUESTS / 2
    assert naive.forward_passes == NUM_REQUESTS
    assert batched.qps > 1.1 * naive.qps

    # The cache short-circuits the model entirely on repeated queries: the
    # request stream has at most 250 distinct queries, so nearly all of the
    # 2,000 requests are answered without a forward pass.
    assert cached.cache_hit_rate > 0.5
    assert cached.forward_passes < batched.forward_passes
    assert cached.qps > batched.qps


def test_registry_roundtrip_bit_for_bit(tmp_path, served_model):
    table, trained, _ = served_model
    registry = ModelRegistry(tmp_path / "registry")
    entry = registry.save(trained.model, dataset=table.name)
    assert entry.model_path.exists() and entry.schema_path.exists()

    reloaded = registry.load_estimator(table.name)
    held_out = make_random_workload(table, num_queries=300, seed=77)
    original = trained.estimator.estimate_batch(held_out.queries)
    served = reloaded.estimate_batch(held_out.queries)
    assert np.array_equal(original, served)
    # The reloaded schema table carries the real row count without the data.
    assert reloaded.table.num_rows == table.num_rows
    assert reloaded.table.num_rows > 0
