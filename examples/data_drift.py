"""Data drift: why a mutable store plus incremental fine-tuning matters.

The data-side twin of ``examples/workload_drift.py``: there the *queries*
drift; here the *data* drifts.  A Duet model is trained on a census base
table and served; then a heavily skewed batch of rows is appended (only the
upper tail of several domains).  The served model still reflects the old
distribution, so its Q-Error against the post-append ground truth degrades —
and ``EstimationService.refresh()`` recovers it by fine-tuning on just the
appended rows (plus a replay sample), re-registering the model under a new
version, and hot-swapping the serving plan.

Run with::

    python examples/data_drift.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.core import DuetConfig, DuetModel, DuetTrainer
from repro.data import ColumnStore, make_census
from repro.eval import format_table, qerror, summarize_qerrors
from repro.serving import EstimationService, ModelRegistry
from repro.workload import make_random_workload, true_cardinalities


def skewed_append(store: ColumnStore, fraction: float, seed: int):
    """Append rows drawn only from the top quartile of every domain."""
    rng = np.random.default_rng(seed)
    snapshot = store.snapshot()
    count = int(snapshot.num_rows * fraction)
    batch = {}
    for name in snapshot.column_names:
        column = snapshot.column(name)
        start = (3 * column.num_distinct) // 4
        codes = rng.integers(start, column.num_distinct, size=count)
        batch[name] = column.distinct_values[codes]
    return store.append(batch)


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

    with EstimationService.from_registry(
            registry, "census", store=store) as service:
        # The data drifts: a skewed append concentrated in the upper tails.
        new_snapshot = skewed_append(store, fraction=1.5, seed=7)
        print(f"appended {new_snapshot.num_rows - base.num_rows} skewed rows "
              f"-> data_version {new_snapshot.data_version}, "
              f"service staleness {service.staleness()} rows")

        workload = make_random_workload(new_snapshot, num_queries=300,
                                        seed=1234, label=False)
        truth = true_cardinalities(new_snapshot, workload.queries)

        stale = summarize_qerrors(
            qerror(service.estimate_batch(workload.queries), truth))

        entry = service.refresh(epochs=4)
        print(f"refresh(): fine-tuned on the delta, registered "
              f"{entry.version} (data_version {entry.data_version}), "
              f"staleness now {service.staleness()} rows\n")

        refreshed = summarize_qerrors(
            qerror(service.estimate_batch(workload.queries), truth))

    print(format_table(
        ["served model", "median", "75th", "99th", "max"],
        [["stale (trained on base)", stale.median, stale.percentile_75,
          stale.percentile_99, stale.maximum],
         ["refreshed (fine-tuned on delta)", refreshed.median,
          refreshed.percentile_75, refreshed.percentile_99,
          refreshed.maximum]],
        title="Q-Error against post-append ground truth"))
    print("\nThe stale model still assumes the pre-append distribution; one "
          "incremental refresh() — a fraction of a cold train — absorbs the "
          "appended data, swaps the serving plan, and drops the stale cache.")


if __name__ == "__main__":
    main()
