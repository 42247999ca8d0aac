"""Data churn: deletes, tombstones, and compaction through the lifecycle.

The delete-side twin of ``examples/data_drift.py``: there the data *grows*;
here it *shrinks and shifts*.  A Duet model is trained on a census base
table and served; then a skewed delete tombstones most of the lower tail of
one column, so the live distribution no longer matches what the model
learnt.  The lifecycle controller notices (deletes count as staleness just
like appends), refreshes automatically — fine-tuning with *negative replay*
over the tombstoned rows — and recovers the probe accuracy.  A second,
heavier delete wave then pushes the store's tombstone fraction past the
policy threshold: the controller compacts the chunks (physically dropping
the dead rows) and escalates to a background cold train that swaps in a
model trained on the clean live view, all without failing a request.

Run with::

    python examples/data_churn.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.core import DuetConfig, DuetModel, DuetTrainer, LifecyclePolicy
from repro.data import ColumnStore, make_census
from repro.eval import format_table, qerror, summarize_qerrors
from repro.lifecycle import RefreshScheduler
from repro.serving import EstimationService, ModelRegistry
from repro.workload import make_random_workload, true_cardinalities


def skewed_delete(store: ColumnStore, column: str, fraction: float,
                  seed: int):
    """Tombstone ``fraction`` of the rows holding the lower half of a column."""
    rng = np.random.default_rng(seed)
    snapshot = store.snapshot()
    target = snapshot.column(column)
    values = target.distinct_values[target.codes]
    lower_half = values < np.median(target.distinct_values)
    victims = np.flatnonzero(lower_half)
    picked = victims[rng.random(victims.size) < fraction]
    return store.delete(picked)


def main() -> None:
    store = ColumnStore.from_table(make_census(scale=0.08, seed=0))
    base = store.snapshot()
    print(f"store {store.name!r}: {base.num_rows} rows, "
          f"{base.num_columns} columns, data_version {base.data_version}\n")

    config = DuetConfig(hidden_sizes=(64, 64), epochs=6, batch_size=128,
                        expand_coefficient=2, lambda_query=0.0, seed=0)
    model = DuetModel(base, config)
    DuetTrainer(model, base, config=config).train()

    registry = ModelRegistry(tempfile.mkdtemp(prefix="duet-registry-"))
    registry.save(model, dataset="census")

    policy = LifecyclePolicy(max_stale_fraction=0.1, debounce_polls=1,
                             cooldown_seconds=0.0, refresh_epochs=4,
                             cold_train_epochs=6, tune_yield_seconds=0.0,
                             compact_tombstone_fraction=0.52)
    with EstimationService.from_registry(
            registry, "census", store=store) as service:
        scheduler = RefreshScheduler(service, policy)

        # --- Wave 1: a skewed delete the refresh path absorbs -----------
        new_snapshot = skewed_delete(store, column="age", fraction=0.9,
                                     seed=7)
        print(f"deleted {base.num_rows - new_snapshot.num_rows} skewed rows "
              f"-> data_version {new_snapshot.data_version}, staleness "
              f"{service.staleness()} rows, tombstone fraction "
              f"{store.tombstone_fraction:.2f}")

        workload = make_random_workload(new_snapshot, num_queries=300,
                                        seed=1234, label=False)
        truth = true_cardinalities(new_snapshot, workload.queries)
        stale = summarize_qerrors(
            qerror(service.estimate_batch(workload.queries), truth))

        event = scheduler.poll_once()
        print(f"scheduler poll: {event} -> model {service.model_version}, "
              f"staleness {service.staleness()} rows\n")
        refreshed = summarize_qerrors(
            qerror(service.estimate_batch(workload.queries), truth))

        print(format_table(
            ["served model", "median", "75th", "99th", "max"],
            [["stale (trained pre-delete)", stale.median, stale.percentile_75,
              stale.percentile_99, stale.maximum],
             ["refreshed (negative replay)", refreshed.median,
              refreshed.percentile_75, refreshed.percentile_99,
              refreshed.maximum]],
            title="Q-Error against post-delete ground truth"))

        # --- Wave 2: churn past the compaction threshold ----------------
        skewed_delete(store, column="age", fraction=0.9, seed=8)
        print(f"\nsecond delete wave: tombstone fraction now "
              f"{store.tombstone_fraction:.2f} "
              f"({store.physical_rows - store.num_rows} dead of "
              f"{store.physical_rows} physical rows)")
        event = scheduler.poll_once()
        print(f"scheduler poll: {event}")
        scheduler.quiesce(timeout=600.0)
        cold = scheduler.events.last("cold_train")
        print(f"cold train: {cold} -> model {service.model_version}, "
              f"tombstone fraction {store.tombstone_fraction:.2f}, "
              f"{store.num_rows} live rows (physical {store.physical_rows})")

        final = store.snapshot()
        final_workload = make_random_workload(final, num_queries=300,
                                              seed=4321, label=False)
        final_truth = true_cardinalities(final, final_workload.queries)
        cold_summary = summarize_qerrors(qerror(
            service.estimate_batch(final_workload.queries), final_truth))
        print(f"post-compaction cold-trained model: median Q-Error "
              f"{cold_summary.median:.3f} (99th {cold_summary.percentile_99:.2f})")

    print("\nDeletes count as staleness, so the controller refreshes on "
          "them exactly like on appends — negative replay pushes the "
          "tombstoned rows' likelihood back down.  Once the dead-row "
          "fraction crosses the policy threshold, compaction reclaims the "
          "space and a background cold train resets the model on the clean "
          "live view, swapping atomically under live traffic.")


if __name__ == "__main__":
    main()
