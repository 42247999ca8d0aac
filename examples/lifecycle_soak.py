"""Lifecycle soak: the store drifts, the controller keeps the model fresh.

The end-to-end demonstration of :mod:`repro.lifecycle`.  A Duet model is
trained on a census base table and served; then worker threads hammer the
service with queries while the data mutates underneath it — first two
skewed appends (upper tails only), then an append that *grows* several
column domains.  Nobody calls ``refresh()``: the
:class:`~repro.lifecycle.RefreshScheduler` watches staleness and observed
Q-Error drift on its own, fine-tunes when thresholds trip, escalates the
domain-growing append to a background cold train, swaps models atomically,
and prunes superseded versions — all while every ``estimate()`` keeps
succeeding.

Run with::

    python examples/lifecycle_soak.py

``--chaos`` turns the soak into a fault-injected run: a seeded
:class:`~repro.lifecycle.FaultInjector` plan fails a training loop, a
registry save, and stalls some optimiser steps while the same traffic and
mutations run.  The acceptance bar is identical — zero failed requests —
and the run ends with a cold-start ``ModelRegistry.recover()`` pass over
whatever the faults left on disk.

The whole run is observable through one :class:`~repro.obs.MetricsRegistry`
shared by the service and the scheduler: a
:class:`~repro.obs.MetricsExporter` appends a JSON snapshot of every metric
(request totals, tombstone fraction, breaker state, canary ratio, …) to
``--metrics-out`` throughout the soak, and the script ends by reading the
timeline back to show the breaker/store trajectory.
"""

from __future__ import annotations

import argparse
import tempfile

import numpy as np

from repro.core import (
    DuetConfig,
    DuetModel,
    DuetTrainer,
    LifecyclePolicy,
)
from repro.data import ColumnStore, make_census
from repro.eval import format_table, qerror, run_soak, summarize_qerrors
from repro.lifecycle import FaultInjector, FaultSpec, RefreshScheduler
from repro.obs import MetricsExporter
from repro.serving import EstimationService, ModelRegistry
from repro.workload import make_random_workload, true_cardinalities


def skewed_batch(store: ColumnStore, fraction: float, seed: int) -> dict:
    """Rows drawn only from the top quartile of every domain."""
    rng = np.random.default_rng(seed)
    snapshot = store.snapshot()
    count = int(snapshot.num_rows * fraction)
    batch = {}
    for name in snapshot.column_names:
        column = snapshot.column(name)
        start = (3 * column.num_distinct) // 4
        codes = rng.integers(start, column.num_distinct, size=count)
        batch[name] = column.distinct_values[codes]
    return batch


def growing_batch(store: ColumnStore, count: int, seed: int) -> dict:
    """Rows whose values lie outside every current domain."""
    rng = np.random.default_rng(seed)
    snapshot = store.snapshot()
    batch = {}
    for name in snapshot.column_names:
        column = snapshot.column(name)
        ceiling = int(np.asarray(column.distinct_values, dtype=np.int64).max())
        batch[name] = rng.integers(ceiling + 10, ceiling + 40, size=count)
    return batch


def chaos_plan() -> FaultInjector:
    """The example's seeded fault plan for ``--chaos``."""
    return FaultInjector([
        FaultSpec(site="trainer.step", kind="raise"),
        FaultSpec(site="registry.save", kind="io_error"),
        FaultSpec(site="trainer.step", kind="stall", stall_seconds=0.02,
                  times=5, after=100),
    ], seed=3)


def main(chaos: bool = False,
         metrics_out: str = "soak_metrics.jsonl") -> None:
    store = ColumnStore.from_table(make_census(scale=0.05, seed=0))
    base = store.snapshot()
    print(f"store {store.name!r}: {base.num_rows} rows, "
          f"{base.num_columns} columns, data_version {base.data_version}")

    config = DuetConfig(hidden_sizes=(48, 48), epochs=4, batch_size=128,
                        expand_coefficient=2, lambda_query=0.0, seed=0)
    model = DuetModel(base, config)
    DuetTrainer(model, base, config=config).train()

    registry = ModelRegistry(tempfile.mkdtemp(prefix="duet-registry-"))
    registry.save(model, dataset="census")

    policy = LifecyclePolicy(
        poll_interval_seconds=0.2,
        max_stale_rows=None, max_stale_fraction=0.25,
        probe_sample_rate=0.25, min_probe_queries=16,
        qerror_median_threshold=None, qerror_drift_factor=3.0,
        debounce_polls=2, cooldown_seconds=1.0,
        refresh_epochs=2, cold_train_epochs=3,
        keep_model_versions=2,
        # chaos runs retry quickly so the injected failures are absorbed
        # within the soak window instead of parking the tune path
        failure_backoff_seconds=0.25 if chaos else 2.0,
        failure_backoff_max_seconds=1.0 if chaos else 60.0,
        breaker_failure_threshold=None if chaos else 5)
    faults = chaos_plan() if chaos else None

    with EstimationService.from_registry(
            registry, "census", store=store) as service:
        workload = make_random_workload(base, num_queries=300, seed=1234,
                                        label=False)
        with RefreshScheduler(service, policy) as scheduler:
            scheduler.monitor.seed_probes(workload.queries[:64])
            # One registry serves both planes, so one exporter snapshots
            # serving counters and lifecycle gauges side by side.
            exporter = MetricsExporter(service.metrics, metrics_out,
                                       interval_seconds=1.0)
            print(f"scheduler running: {policy.max_stale_fraction:.0%} "
                  f"staleness threshold, {policy.qerror_drift_factor}x drift "
                  f"factor, debounce {policy.debounce_polls} polls")
            print(f"metrics timeline -> {metrics_out}\n")
            report = run_soak(
                service, workload, duration_seconds=12.0, concurrency=4,
                appends=[
                    (1.0, lambda: store.append(skewed_batch(store, 0.4, 7))),
                    (3.0, lambda: store.append(skewed_batch(store, 0.4, 8))),
                    (7.0, lambda: store.append(
                        growing_batch(store, int(store.num_rows * 0.3), 9))),
                ],
                scheduler=scheduler, faults=faults, exporter=exporter, seed=0)
            scheduler.quiesce(timeout=120.0)
            exporter.write_snapshot()  # one post-quiesce data point

            print(report)
            if faults is not None:
                fired = ", ".join(f"{site} x{count}" for site, count
                                  in sorted(report.fault_counts.items()))
                print(f"faults injected: {fired or 'none'}")
            print(f"after quiesce: staleness {service.staleness()} rows, "
                  f"serving {service.model_version}\n")
            print("lifecycle events (idle polls elided):")
            for event in scheduler.events.events():
                if (event.kind == "decision" and event.details["action"]
                        in ("hold", "cold_train_pending")):
                    continue
                print(f"  {event}")

        final = store.snapshot()
        probe = make_random_workload(final, num_queries=200, seed=77,
                                     label=False)
        truth = true_cardinalities(final, probe.queries)
        summary = summarize_qerrors(
            qerror(service.estimate_batch(probe.queries), truth))
        print()
        print(format_table(
            ["served model", "median", "75th", "99th", "max"],
            [[f"{service.model_version} (autonomous)", summary.median,
              summary.percentile_75, summary.percentile_99, summary.maximum]],
            title="Q-Error against final ground truth"))
        print(f"\nversions retained: {registry.versions('census')} "
              f"(policy keeps {policy.keep_model_versions}), "
              f"store versions tracked: {store.tracked_versions}")

        records = MetricsExporter.read_timeline(metrics_out)
        requests = MetricsExporter.series(records, "repro_batches_total")
        tombstones = MetricsExporter.series(records,
                                            "repro_store_tombstone_fraction")
        breaker = MetricsExporter.series(records,
                                         "repro_lifecycle_breaker_state")
        print(f"\nexported timeline: {len(records)} snapshots in {metrics_out}")
        t0 = records[0]["t"]
        for (t, passes), (_, dead), (_, state) in zip(requests, tombstones,
                                                      breaker):
            print(f"  t+{t - t0:5.1f}s  forward_passes={passes:7.0f}  "
                  f"tombstone_fraction={dead:.3f}  breaker={state:.0f}")
    if chaos:
        # Cold-start recovery over whatever the fault plan left on disk.
        recovery = ModelRegistry(registry.root).recover()
        quarantined = [f"{q.dataset}/{q.version} ({q.reason})"
                       for q in recovery.quarantined]
        print(f"\nrecover(): checked {recovery.checked} entries, "
              f"quarantined {quarantined or 'nothing'}, "
              f"manifest_rebuilt={recovery.manifest_rebuilt}")
        print("Chaos run complete: injected trainer/registry faults were "
              "absorbed by backoff and retries — still zero failed requests.")
    else:
        print("\nNo refresh() was ever called by hand: the controller noticed "
              "the drift, fine-tuned twice, cold-trained through the domain "
              "growth, and pruned superseded versions — with zero failed "
              "requests.")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chaos", action="store_true",
                        help="inject a seeded fault plan into the soak")
    parser.add_argument("--metrics-out", default="soak_metrics.jsonl",
                        help="JSONL file the metrics exporter appends "
                             "snapshots to (default: %(default)s)")
    arguments = parser.parse_args()
    main(chaos=arguments.chaos, metrics_out=arguments.metrics_out)
