"""Slow soak test of the autonomous lifecycle (opt-in via --run-slow).

Exercises the full async path the unit tests drive synchronously: a running
scheduler daemon, concurrent load from run_soak, timed appends (skewed then
domain-growing) and timed deletes (staleness refresh, then
compaction-triggering churn), and the acceptance bar — zero failed requests
while the controller refreshes, compacts, and cold-trains on its own.
"""

import numpy as np
import pytest

from repro.core import (
    DuetConfig,
    DuetModel,
    DuetTrainer,
    LifecyclePolicy,
)
from repro.data import ColumnStore, Table
from repro.eval import run_soak
from repro.lifecycle import FaultInjector, FaultSpec, RefreshScheduler
from repro.serving import EstimationService, ModelRegistry
from repro.workload import make_random_workload

pytestmark = pytest.mark.slow

CONFIG = DuetConfig(hidden_sizes=(24, 24), epochs=2, batch_size=128,
                    expand_coefficient=1, lambda_query=0.0, seed=0)


def _skewed_batch(store, fraction, seed):
    rng = np.random.default_rng(seed)
    snapshot = store.snapshot()
    count = int(snapshot.num_rows * fraction)
    batch = {}
    for name in snapshot.column_names:
        column = snapshot.column(name)
        start = (3 * column.num_distinct) // 4
        batch[name] = column.distinct_values[
            rng.integers(start, column.num_distinct, size=count)]
    return batch


def _delete_fraction(store, fraction, seed):
    """Tombstone a random ``fraction`` of the current live rows."""
    rng = np.random.default_rng(seed)
    live = store.num_rows
    count = min(int(live * fraction), max(live - 1, 0))
    if count == 0:
        return store.snapshot()
    return store.delete(rng.choice(live, size=count, replace=False))


def test_soak_with_running_scheduler(tmp_path):
    rng = np.random.default_rng(0)
    store = ColumnStore.from_table(Table.from_dict("soak", {
        "age": rng.integers(18, 60, size=600),
        "city": rng.choice(["ams", "ber", "cdg", "dus", "lis"], size=600),
        "score": rng.integers(0, 12, size=600),
    }))
    base = store.snapshot()
    model = DuetModel(base, CONFIG)
    DuetTrainer(model, base, config=CONFIG).train()
    registry = ModelRegistry(tmp_path / "registry")
    registry.save(model, dataset="soak")

    policy = LifecyclePolicy(poll_interval_seconds=0.1, max_stale_rows=None,
                             max_stale_fraction=0.2, probe_sample_rate=0.2,
                             debounce_polls=1, cooldown_seconds=0.5,
                             refresh_epochs=1, cold_train_epochs=1,
                             keep_model_versions=2)
    with EstimationService.from_registry(
            registry, "soak", store=store) as service:
        workload = make_random_workload(base, num_queries=150, seed=11,
                                        label=False)
        with RefreshScheduler(service, policy) as scheduler:
            scheduler.monitor.seed_probes(workload.queries[:32])
            report = run_soak(
                service, workload, duration_seconds=8.0, concurrency=4,
                appends=[
                    (0.5, lambda: store.append(_skewed_batch(store, 0.5, 7))),
                    (3.0, lambda: store.append(
                        {"age": np.arange(200, 450), "city": ["new"] * 250,
                         "score": np.arange(100, 350)})),
                ],
                scheduler=scheduler, seed=0)
            assert scheduler.quiesce(timeout=120.0)
            # The soak report is cut at the load deadline; the escalation
            # may land during quiesce, so count swaps from the event log.
            swaps = [event for event in scheduler.events.events("cold_train")
                     if event.details.get("status") == "swapped"]

        assert report.errors == 0
        assert report.appends_applied == 2
        assert report.num_requests > 0
        assert report.refreshes >= 1            # skewed append absorbed
        assert len(swaps) >= 1                  # domain growth escalated
        assert service.staleness() == 0
        # Retention held: at most keep_model_versions survive.
        assert len(registry.versions("soak")) <= 2
        assert service.model_version in registry.versions("soak")


def test_churn_soak_with_timed_deletes(tmp_path):
    """Delete-heavy churn under live traffic: the controller must refresh
    on delete staleness, compact once the tombstone fraction crosses the
    policy threshold, cold-train on the compacted view, and never fail a
    request while doing any of it."""
    rng = np.random.default_rng(1)
    store = ColumnStore.from_table(Table.from_dict("churn", {
        "age": rng.integers(18, 60, size=800),
        "city": rng.choice(["ams", "ber", "cdg", "dus", "lis"], size=800),
        "score": rng.integers(0, 12, size=800),
    }))
    base = store.snapshot()
    model = DuetModel(base, CONFIG)
    DuetTrainer(model, base, config=CONFIG).train()
    registry = ModelRegistry(tmp_path / "registry")
    registry.save(model, dataset="churn")

    policy = LifecyclePolicy(poll_interval_seconds=0.1, max_stale_rows=None,
                             max_stale_fraction=0.15, probe_sample_rate=0.2,
                             debounce_polls=1, cooldown_seconds=0.5,
                             refresh_epochs=1, cold_train_epochs=1,
                             keep_model_versions=2,
                             compact_tombstone_fraction=0.35)
    with EstimationService.from_registry(
            registry, "churn", store=store) as service:
        workload = make_random_workload(base, num_queries=150, seed=5,
                                        label=False)
        with RefreshScheduler(service, policy) as scheduler:
            scheduler.monitor.seed_probes(workload.queries[:32])
            report = run_soak(
                service, workload, duration_seconds=8.0, concurrency=4,
                appends=[
                    (1.0, lambda: store.append(_skewed_batch(store, 0.2, 3))),
                ],
                deletes=[
                    # First wave drives a delete-staleness refresh; the
                    # second pushes the tombstone fraction past 0.35 and
                    # must end in compaction + cold train.
                    (0.5, lambda: _delete_fraction(store, 0.2, 7)),
                    (3.5, lambda: _delete_fraction(store, 0.35, 8)),
                ],
                scheduler=scheduler, seed=0)
            assert scheduler.quiesce(timeout=120.0)
            swaps = [event for event in scheduler.events.events("cold_train")
                     if event.details.get("status") == "swapped"]

    assert report.errors == 0
    assert report.appends_applied == 1
    assert report.deletes_applied == 2 and report.delete_errors == 0
    assert report.num_requests > 0
    assert report.refreshes + len(swaps) >= 1   # churn absorbed autonomously
    assert scheduler.events.count("compaction") >= 1
    assert len(swaps) >= 1                      # compaction escalated
    assert store.tombstone_fraction == 0.0      # dead rows reclaimed
    assert service.staleness() == 0


def test_chaos_soak_with_fault_injection(tmp_path):
    """Chaos mode: a seeded fault plan hits the trainer, the registry, and
    the store while traffic and mutations run.  The acceptance bar stays
    the same as every other soak — zero failed estimate requests — plus:
    faults demonstrably fired, and the registry state left behind passes a
    cold-start recover()."""
    rng = np.random.default_rng(2)
    store = ColumnStore.from_table(Table.from_dict("chaos", {
        "age": rng.integers(18, 60, size=600),
        "city": rng.choice(["ams", "ber", "cdg", "dus", "lis"], size=600),
        "score": rng.integers(0, 12, size=600),
    }))
    base = store.snapshot()
    model = DuetModel(base, CONFIG)
    DuetTrainer(model, base, config=CONFIG).train()
    registry = ModelRegistry(tmp_path / "registry")
    registry.save(model, dataset="chaos")

    policy = LifecyclePolicy(poll_interval_seconds=0.1, max_stale_rows=None,
                             max_stale_fraction=0.2, probe_sample_rate=0.2,
                             debounce_polls=1, cooldown_seconds=0.3,
                             refresh_epochs=1, cold_train_epochs=1,
                             keep_model_versions=2,
                             failure_backoff_seconds=0.2,
                             failure_backoff_max_seconds=0.5,
                             breaker_failure_threshold=None)
    faults = FaultInjector([
        FaultSpec(site="trainer.step", kind="raise"),
        FaultSpec(site="registry.save", kind="io_error"),
        FaultSpec(site="trainer.step", kind="stall", stall_seconds=0.02,
                  times=3, after=50),
    ], seed=3)
    with EstimationService.from_registry(
            registry, "chaos", store=store) as service:
        workload = make_random_workload(base, num_queries=150, seed=7,
                                        label=False)
        with RefreshScheduler(service, policy) as scheduler:
            scheduler.monitor.seed_probes(workload.queries[:32])
            report = run_soak(
                service, workload, duration_seconds=8.0, concurrency=4,
                appends=[
                    (0.5, lambda: store.append(_skewed_batch(store, 0.3, 9))),
                    (3.0, lambda: store.append(_skewed_batch(store, 0.3, 10))),
                ],
                scheduler=scheduler, faults=faults, seed=0)
            assert scheduler.quiesce(timeout=120.0)

        # Chaos must not reach the serving path.
        assert report.errors == 0
        assert report.num_requests > 0
        # The plan demonstrably fired and landed in the report.
        assert report.fault_counts == faults.counts()
        assert sum(report.fault_counts.values()) >= 1
        # run_soak disarmed the seams on the way out.
        assert store.fault_hook is None and registry.fault_hook is None
        # Despite injected tune failures, the controller eventually
        # recovered: the service still serves and registry state is sane.
        assert ModelRegistry(registry.root).recover().clean
        assert registry.load_estimator("chaos") is not None
        assert service.model_version in registry.versions("chaos")
