"""The benchmark's four workloads, each a closed loop over the public API.

Every caller is a query optimizer's planning thread: it waits for each answer
before it asks the next question.  A workload has four steps:

* ``prepare(seed)`` makes the inputs on the benchmark's side (tables,
  queries, ground-truth labels); it is outside every timing;
* ``setup(inputs, workdir)`` is the program's set-up (table generation,
  training or model construction, registry round trip, service start, cache
  warm-up); ``setup_s`` times it;
* ``run(instance, inputs, seconds)`` is the timed window;
* ``check(instance, inputs, window)`` compares the answers with a reference
  after the window and computes Q-Error.

BLAS threading is left at the library default: which code owns BLAS threads
is an open question of the program, and the benchmark must be able to show
the effect of settling it.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import (
    DuetConfig,
    DuetEstimator,
    DuetModel,
    DuetTrainer,
    LifecyclePolicy,
    dmv_config,
)
from repro.data import ColumnStore, make_census, make_dmv
from repro.eval import qerror
from repro.lifecycle import RefreshScheduler
from repro.serving import EstimationService, ModelRegistry
from repro.workload import (
    WorkloadConfig,
    WorkloadGenerator,
    make_inworkload,
    true_cardinalities,
)

#: census stand-in at its default scale (9,768 rows, 14 columns, NDV 2-123)
CENSUS_SCALE = 0.2
#: the served census model: a 256x256 MADE trained for one epoch, one
#: virtual tuple per row, with the hybrid loss on 500 In-Q queries (cost, not
#: accuracy, is what is measured, and set-up runs several times per run)
CENSUS_CONFIG = dict(hidden_sizes=(256, 256), epochs=1, expand_coefficient=1)
CENSUS_TRAIN_QUERIES = 500
#: closed-loop client threads: one per core of the 2-core host it targets
CLIENTS = 2
#: In-Q style locality: pool size and Zipf exponent of the repeated queries
POOL_SIZE = 200
ZIPF_EXPONENT = 1.0
#: answers per run that carry ground-truth labels for Q-Error
LABELED = 2000
#: queries per reference batch of the correctness check (bounds its memory)
REFERENCE_CHUNK = 256
#: dmv-batch: queries per estimate_batch() call, and every how many calls
#: one is re-checked on the tape path
DMV_BATCH = 64
DMV_CHECK_EVERY = 8
#: census-churn: write cycles per window (one per sub-window), the rows they
#: touch, and the reader's pool.  Each swap flushes the cache, and the reader
#: then misses once per pool query; a small pool keeps that miss storm short
#: next to the cycle, so the reader's figures follow the read path and the
#: writer's interference instead of how much of a cycle the storm fills.
CHURN_CYCLES = 4
CHURN_POOL = 32
CHURN_APPEND_FRACTION = 0.01
CHURN_DELETE_FRACTION = 0.005
CHURN_PROBES = 64


@dataclass
class Window:
    """What one timed window produced."""

    started: float
    stopped: float
    starts: np.ndarray             # start time of each served operation
    latencies: np.ndarray          # seconds per served operation
    answers: np.ndarray            # estimates, NaN where the call raised
    served: np.ndarray             # indices of the operations that ran
    errors: int
    hits: int = 0
    requests: int = 0
    exhausted: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        return self.stopped - self.started


@dataclass
class Check:
    attempted: int
    failed: int
    qerrors: np.ndarray
    notes: dict = field(default_factory=dict)


def rand_q(table, count: int, seed: int):
    """Up to ``count`` distinct tuple-anchored Rand-Q queries (the paper's
    testing protocol); exact repeats are dropped so a stream stays unseen."""
    config = WorkloadConfig(num_queries=count, seed=seed)
    queries = WorkloadGenerator(table, config).generate("rand-q", label=False).queries
    return list(dict.fromkeys(queries))


def stratified_pool(table, count: int, seed: int):
    """Rand-Q queries whose predicate counts cycle through 1..columns by rank.

    A hit costs in proportion to the query's predicates (the cache key is
    built predicate by predicate), and the few top-ranked queries of a Zipf
    stream take most requests.  Giving rank ``r`` exactly ``1 + r % columns``
    predicates keeps the mix of costs, and with it the figures, the same for
    every seed; only columns, operators and literals vary.
    """
    generator = WorkloadGenerator(table, WorkloadConfig(num_queries=count, seed=seed))
    return [generator.generate_query(num_predicates=1 + rank % table.num_columns)
            for rank in range(count)]


def zipf_sequence(count: int, pool: int, seed: int) -> np.ndarray:
    ranks = np.arange(1, pool + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_EXPONENT
    return np.random.default_rng(seed).choice(pool, size=count, p=weights / weights.sum())


def closed_loop(call, clients: int, seconds: float, limit: int,
                keep_going=None) -> Window:
    """``clients`` threads call ``call(i)`` for i = 0, 1, ... until the deadline.

    Each thread takes the next index, calls, and records the latency and the
    answer; it stops at the deadline (or when ``keep_going`` returns false
    past it) or when the ``limit`` inputs are used up.
    """
    counter = itertools.count()
    starts = np.full(limit, np.nan)
    latencies = np.full(limit, np.nan)
    answers = np.full(limit, np.nan)
    errors = [0]
    exhausted = threading.Event()
    started = time.perf_counter()
    deadline = started + seconds

    def client() -> None:
        while True:
            now = time.perf_counter()
            if now >= deadline and (keep_going is None or not keep_going()):
                return
            index = next(counter)
            if index >= limit:
                exhausted.set()
                return
            begun = time.perf_counter()
            try:
                answers[index] = call(index)
            except Exception:  # noqa: BLE001 — a failed call is counted, not fatal
                errors[0] += 1
            latencies[index] = time.perf_counter() - begun
            starts[index] = begun
            # Hand the interpreter lock over between calls, as a planner
            # does when it returns to its own work.  Without it, which client
            # waits is decided by the interpreter's 5 ms switch interval, and
            # the tail percentile measures that quantum, not the service.
            time.sleep(0)

    threads = [threading.Thread(target=client, name=f"bench-client-{n}")
               for n in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stopped = time.perf_counter()
    served = np.flatnonzero(~np.isnan(latencies))
    return Window(started, stopped, starts[served], latencies[served], answers, served,
                  errors[0], exhausted=exhausted.is_set())


def _hit_counts(service) -> tuple[int, int]:
    snapshot = service.snapshot()
    return snapshot.cache_hits, snapshot.requests


def count_wrong(service, answers: np.ndarray, reference: np.ndarray) -> int:
    """Answers (of calls that returned) off the reference beyond the serving
    plan's precision.

    The tolerance is the square root of the plan dtype's machine epsilon
    (1.5e-8 for float64, 3.5e-4 for float32): far above the summation-order
    noise of a different batch grouping, far below any real defect.  Calls
    that raised hold NaN and are counted by ``Window.errors`` instead.
    """
    plan = getattr(service._timed_runner, "compiled", None)
    dtype = plan.dtype if plan is not None else np.float64
    tolerance = float(np.sqrt(np.finfo(dtype).eps))
    off = ~np.isclose(answers, reference, rtol=tolerance, atol=tolerance)
    return int(np.count_nonzero(off & ~np.isnan(answers)))


def reference_estimates(estimator, queries) -> np.ndarray:
    """``estimator.estimate_batch`` in bounded chunks."""
    chunks = [estimator.estimate_batch(queries[start:start + REFERENCE_CHUNK])
              for start in range(0, len(queries), REFERENCE_CHUNK)]
    return np.concatenate(chunks) if chunks else np.zeros(0)


def _train_census(table, seed: int) -> DuetModel:
    config = DuetConfig(seed=seed, **CENSUS_CONFIG)
    model = DuetModel(table, config)
    queries = make_inworkload(table, num_queries=CENSUS_TRAIN_QUERIES, seed=seed)
    DuetTrainer(model, table, queries).train()
    return model


def _census_service(seed: int, workdir, store: ColumnStore | None = None
                    ) -> EstimationService:
    """Train, register, and serve the census model from the registry."""
    if store is None:
        table = make_census(scale=CENSUS_SCALE, seed=seed)
    else:
        table = store.snapshot()
    model = _train_census(table, seed)
    registry = ModelRegistry(workdir / "registry")
    registry.save(model, "census")
    return EstimationService.from_registry(registry, "census", store=store)


# ----------------------------------------------------------------------
# census-miss
# ----------------------------------------------------------------------

class CensusMiss:
    name = "census-miss"
    clients = CLIENTS
    per_call = 1  # estimates one operation answers
    subwindows = 5  # ~1100 calls each at 10 s: enough for a p99 tail
    queries_per_second = 2400  # input head-room; the window ends early past it

    def prepare(self, seed: int, seconds: float) -> dict:
        table = make_census(scale=CENSUS_SCALE, seed=seed)
        count = int(self.queries_per_second * seconds) + LABELED
        queries = rand_q(table, count, seed + 1)
        warmup = rand_q(table, 64, seed + 2)
        labels = true_cardinalities(table, queries[:LABELED])
        return {"seed": seed, "queries": queries, "warmup": warmup,
                "labels": labels}

    def setup(self, inputs: dict, workdir) -> EstimationService:
        service = _census_service(inputs["seed"], workdir)
        for query in inputs["warmup"]:
            service.estimate(query)
        return service

    def run(self, service, inputs: dict, seconds: float) -> Window:
        queries = inputs["queries"]
        hits, requests = _hit_counts(service)
        window = closed_loop(lambda index: service.estimate(queries[index]),
                             self.clients, seconds, len(queries))
        after_hits, after_requests = _hit_counts(service)
        window.hits, window.requests = after_hits - hits, after_requests - requests
        return window

    def check(self, service, inputs: dict, window: Window) -> Check:
        served = window.served
        queries = inputs["queries"]
        reference = reference_estimates(service.estimator, [queries[i] for i in served])
        answers = window.answers[served]
        wrong = count_wrong(service, answers, reference)
        labeled = served[served < LABELED]
        qerrors = qerror(window.answers[labeled], inputs["labels"][labeled])
        return Check(attempted=len(served),
                     failed=wrong + window.errors, qerrors=qerrors)

    def service(self, instance) -> EstimationService:
        return instance

    def close(self, service) -> None:
        service.close()


# ----------------------------------------------------------------------
# census-hot
# ----------------------------------------------------------------------

class CensusHot(CensusMiss):
    name = "census-hot"
    requests_per_second = 60000  # input head-room; the window ends early past it

    def prepare(self, seed: int, seconds: float) -> dict:
        table = make_census(scale=CENSUS_SCALE, seed=seed)
        pool = stratified_pool(table, POOL_SIZE, seed + 1)
        order = zipf_sequence(int(self.requests_per_second * seconds), POOL_SIZE,
                              seed + 3)
        return {"seed": seed, "pool": pool, "order": order, "warmup": pool,
                "labels": true_cardinalities(table, pool)}

    def run(self, service, inputs: dict, seconds: float) -> Window:
        pool, order = inputs["pool"], inputs["order"]
        hits, requests = _hit_counts(service)
        window = closed_loop(lambda index: service.estimate(pool[order[index]]),
                             self.clients, seconds, len(order))
        after_hits, after_requests = _hit_counts(service)
        window.hits, window.requests = after_hits - hits, after_requests - requests
        return window

    def check(self, service, inputs: dict, window: Window) -> Check:
        pool, order = inputs["pool"], inputs["order"]
        reference = service.estimator.estimate_batch(pool)
        served = window.served
        answers = window.answers[served]
        wrong = count_wrong(service, answers, reference[order[served]])
        # One Q-Error per distinct pool query: the answer it was served.
        seen = np.full(POOL_SIZE, np.nan)
        seen[order[served]] = answers
        asked = ~np.isnan(seen)
        qerrors = qerror(seen[asked], inputs["labels"][asked])
        return Check(attempted=len(served),
                     failed=wrong + window.errors, qerrors=qerrors)


# ----------------------------------------------------------------------
# dmv-batch
# ----------------------------------------------------------------------

class DmvBatch:
    name = "dmv-batch"
    clients = 1
    per_call = DMV_BATCH
    subwindows = 2  # ~140 calls each at 10 s: enough for a p93 tail
    calls_per_second = 60  # input head-room; the window ends early past it
    labeled_calls = 8

    def prepare(self, seed: int, seconds: float) -> dict:
        table = make_dmv(seed=seed)
        calls = int(self.calls_per_second * seconds)
        queries = rand_q(table, calls * DMV_BATCH, seed + 1)
        warmup = rand_q(table, DMV_BATCH, seed + 2)
        labels = true_cardinalities(table, queries[:self.labeled_calls * DMV_BATCH])
        return {"seed": seed, "queries": queries, "calls": calls, "warmup": warmup,
                "labels": labels}

    def setup(self, inputs: dict, workdir) -> EstimationService:
        # Untrained weights from the paper's DMV architecture: estimation
        # cost does not depend on the weights.
        table = make_dmv(seed=inputs["seed"])
        model = DuetModel(table, dmv_config(seed=inputs["seed"]))
        service = EstimationService(DuetEstimator(model))
        service.estimate_batch(inputs["warmup"])
        return service

    def _batch(self, inputs: dict, call: int):
        return inputs["queries"][call * DMV_BATCH:(call + 1) * DMV_BATCH]

    def run(self, service, inputs: dict, seconds: float) -> Window:
        answers: dict[int, np.ndarray] = {}

        def call(index: int) -> float:
            estimates = service.estimate_batch(self._batch(inputs, index))
            answers[index] = estimates
            return float(estimates.sum())

        hits, requests = _hit_counts(service)
        window = closed_loop(call, self.clients, seconds, inputs["calls"])
        after_hits, after_requests = _hit_counts(service)
        window.hits, window.requests = after_hits - hits, after_requests - requests
        window.extra["batches"] = answers
        return window

    def check(self, service, inputs: dict, window: Window) -> Check:
        batches = window.extra["batches"]
        wrong = 0
        checked = [call for call in window.served
                   if call % DMV_CHECK_EVERY == 0 and call in batches]
        for call in checked:
            tape = service.estimator.estimate_batch(self._batch(inputs, call))
            wrong += int(count_wrong(service, batches[call], tape) > 0)
        labeled = [call for call in window.served
                   if call < self.labeled_calls and call in batches]
        answers = np.concatenate([batches[call] for call in labeled]) if labeled \
            else np.zeros(0)
        truth = inputs["labels"][:len(answers)]
        return Check(attempted=len(window.served),
                     failed=wrong + window.errors, qerrors=qerror(answers, truth),
                     notes={"tape_checked_calls": len(checked)})

    def service(self, instance) -> EstimationService:
        return instance

    def close(self, service) -> None:
        service.close()


# ----------------------------------------------------------------------
# census-churn
# ----------------------------------------------------------------------

@dataclass
class ChurnInstance:
    store: ColumnStore
    service: EstimationService
    scheduler: RefreshScheduler


class CensusChurn:
    name = "census-churn"
    clients = 1
    per_call = 1
    subwindows = CHURN_CYCLES  # one write cycle each
    requests_per_second = 60000  # input head-room; the window ends early past it

    def prepare(self, seed: int, seconds: float) -> dict:
        table = make_census(scale=CENSUS_SCALE, seed=seed)
        pool = stratified_pool(table, CHURN_POOL, seed + 1)
        order = zipf_sequence(int(self.requests_per_second * seconds), CHURN_POOL, seed + 3)
        return {"seed": seed, "pool": pool, "order": order,
                "probes": make_inworkload(table, num_queries=CHURN_PROBES,
                                          seed=seed + 4, label=False).queries,
                "evaluation": rand_q(table, LABELED, seed + 5)}

    def setup(self, inputs: dict, workdir) -> ChurnInstance:
        seed = inputs["seed"]
        store = ColumnStore.from_table(make_census(scale=CENSUS_SCALE, seed=seed))
        service = _census_service(seed, workdir, store=store)
        # No daemon thread and no time-based cooldown: the writer drives
        # poll_once() itself, and every cycle's churn crosses the staleness
        # trigger, so the number of tunes per run repeats.  The canary still
        # shadow-evaluates every candidate, but with a margin wide enough that
        # each one swaps in: whether a one-epoch fine-tune beats its incumbent
        # depends on the seed, and each swap flushes the cache the reader
        # uses, so the read path would otherwise change with the seed.
        # Compaction is off because it escalates to a background cold train
        # with a timing of its own.
        policy = LifecyclePolicy(max_stale_fraction=CHURN_DELETE_FRACTION,
                                 debounce_polls=1, cooldown_seconds=0.0,
                                 compact_tombstone_fraction=None,
                                 canary_margin=1e6)
        scheduler = RefreshScheduler(service, policy, seed=seed)
        scheduler.monitor.seed_probes(inputs["probes"])
        scheduler.monitor.rebase()
        for query in inputs["pool"]:
            service.estimate(query)
        return ChurnInstance(store, service, scheduler)

    def _mutate(self, store: ColumnStore, rng: np.random.Generator, cycle: int) -> None:
        """One skewed append (upper quartile of every domain) and one skewed
        delete (lower half of a rotating column)."""
        snapshot = store.snapshot()
        count = max(1, int(snapshot.num_rows * CHURN_APPEND_FRACTION))
        batch = {}
        for name in snapshot.column_names:
            column = snapshot.column(name)
            codes = rng.integers((3 * column.num_distinct) // 4, column.num_distinct,
                                 size=count)
            batch[name] = column.distinct_values[codes]
        snapshot = store.append(batch)
        column = snapshot.column(cycle % snapshot.num_columns)
        lower = np.flatnonzero(column.codes < column.num_distinct // 2)
        victims = rng.choice(lower, size=min(lower.size, max(1, int(
            snapshot.num_rows * CHURN_DELETE_FRACTION))), replace=False)
        store.delete(np.sort(victims))

    def run(self, instance: ChurnInstance, inputs: dict, seconds: float) -> Window:
        service, scheduler = instance.service, instance.scheduler
        pool, order = inputs["pool"], inputs["order"]
        rng = np.random.default_rng(inputs["seed"] + 6)
        # The writer makes the epoch odd while it mutates and tunes, even
        # once the tuned model serves; readers record it around each call.
        epoch = [0]
        models = [service.estimator.model]
        epochs = np.full(len(order), -1, dtype=np.int64)
        refresh_seconds: list[float] = []
        writer_done = threading.Event()
        swaps_before = service.snapshot().model_swaps
        started = time.perf_counter()

        def writer() -> None:
            try:
                for cycle in range(CHURN_CYCLES):
                    due = started + cycle * seconds / CHURN_CYCLES
                    time.sleep(max(0.0, due - time.perf_counter()))
                    epoch[0] += 1
                    self._mutate(instance.store, rng, cycle)
                    swaps = service.snapshot().model_swaps
                    begun = time.perf_counter()
                    scheduler.poll_once()
                    if service.snapshot().model_swaps != swaps:
                        refresh_seconds.append(time.perf_counter() - begun)
                    models.append(service.estimator.model)
                    epoch[0] += 1
            finally:
                writer_done.set()

        def read(index: int) -> float:
            before = epoch[0]
            answer = service.estimate(pool[order[index]])
            if epoch[0] == before and before % 2 == 0:
                epochs[index] = before // 2
            return answer

        thread = threading.Thread(target=writer, name="bench-writer")
        hits, requests = _hit_counts(service)
        thread.start()
        try:
            window = closed_loop(read, self.clients, seconds, len(order),
                                 keep_going=lambda: not writer_done.is_set())
        finally:
            thread.join()
        after_hits, after_requests = _hit_counts(service)
        window.hits, window.requests = after_hits - hits, after_requests - requests
        window.extra.update(models=models, epochs=epochs,
                            refresh_seconds=refresh_seconds,
                            tunes=service.snapshot().model_swaps - swaps_before)
        return window

    def check(self, instance: ChurnInstance, inputs: dict, window: Window) -> Check:
        pool, order = inputs["pool"], inputs["order"]
        models, epochs = window.extra["models"], window.extra["epochs"]
        served = window.served
        wrong = checked = 0
        for number, model in enumerate(models):
            answered = served[epochs[served] == number]
            if not answered.size:
                continue
            reference = DuetEstimator(model).estimate_batch(pool)
            checked += answered.size
            wrong += count_wrong(instance.service, window.answers[answered],
                                 reference[order[answered]])
        evaluation = inputs["evaluation"]
        truth = true_cardinalities(instance.store.snapshot(), evaluation)
        qerrors = qerror(instance.service.estimate_batch(evaluation), truth)
        return Check(attempted=len(served),
                     failed=wrong + window.errors, qerrors=qerrors,
                     notes={"checked_answers": checked})

    def service(self, instance: ChurnInstance) -> EstimationService:
        return instance.service

    def close(self, instance: ChurnInstance) -> None:
        instance.service.close()


WORKLOADS = {workload.name: workload for workload in
             (CensusMiss(), CensusHot(), DmvBatch(), CensusChurn())}
