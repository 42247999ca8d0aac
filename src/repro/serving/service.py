"""Online estimation service: the frontend tying registry, cache, batcher and
stats together.

One :class:`EstimationService` wraps one :class:`~repro.core.CardinalityEstimator`
(usually a :class:`~repro.core.DuetEstimator` reloaded from a
:class:`~repro.serving.ModelRegistry`) and answers concurrent single-query
``estimate()`` calls:

1. the query is canonicalised into a cache key; a hit returns immediately
   without touching the model,
2. on a miss the query is handed to the :class:`~repro.serving.MicroBatcher`,
   which coalesces concurrent misses into one vectorised forward pass,
3. the result is cached and the request latency recorded.

The service is thread-safe and meant to be shared across worker threads —
the usage pattern of a query optimizer asking for cardinalities while
planning many queries at once.

When the underlying data is mutable (a :class:`~repro.data.ColumnStore`),
the service also owns the staleness side of the lifecycle: it knows which
``data_version`` the served model was trained on, reports how many rows have
been appended since (:meth:`EstimationService.staleness`), and can
:meth:`~EstimationService.refresh` itself — incremental fine-tune on the
delta, re-register the model, hot-swap the compiled plan, and flush the
estimate cache, all while the old plan keeps serving traffic.
"""

from __future__ import annotations

import threading
import time
from typing import Sequence

import numpy as np

from ..core.config import ServingConfig
from ..core.interface import CardinalityEstimator
from ..core.trainer import DuetTrainer
from ..data.store import ColumnStore
from ..nn import PlanOptions
from ..obs import MetricsRegistry, Trace, Tracer
from ..workload.query import Query
from .batcher import MicroBatcher
from .cache import EstimateCache, QueryKeyEncoder
from .registry import ModelRegistry, RegistryEntry
from .stats import ServiceStats, StatsSnapshot

__all__ = ["EstimationService"]


class EstimationService:
    """Concurrent, cached, micro-batched frontend over one estimator."""

    def __init__(self, estimator: CardinalityEstimator,
                 config: ServingConfig | None = None,
                 *,
                 store: ColumnStore | None = None,
                 registry: ModelRegistry | None = None,
                 dataset: str | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.estimator = estimator
        self.config = config or ServingConfig()
        # Data lifecycle wiring: the live store (for staleness/refresh), the
        # registry to re-register refreshed models into, and the dataset name
        # the registry files them under.  A Snapshot-backed estimator brings
        # its own store; everything else defaults to static-data behaviour.
        self.store = store if store is not None else getattr(estimator.table,
                                                             "store", None)
        self.registry = registry
        self.dataset = dataset or estimator.table.name
        self.model_version: str | None = getattr(estimator, "model_version", None)
        self.data_version: int | None = getattr(estimator, "data_version", None)
        if self.data_version is None:
            self.data_version = getattr(estimator.table, "data_version", None)
        self._keys = QueryKeyEncoder(estimator.table, namespace=self._namespace())
        self.cache = EstimateCache(self.config.cache_capacity)
        #: one registry per service unless the caller passes a shared one
        #: (the lifecycle scheduler shares it, so serving and lifecycle
        #: metrics land in one exposition)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = ServiceStats(latency_window=self.config.latency_window,
                                  metrics=self.metrics)
        obs = self.config.obs
        #: span sampler; ``trace_sample_rate == 0`` keeps the request path
        #: allocation-free (raise ``tracer.sample_rate`` at runtime to dial
        #: tracing up on a live service)
        self.tracer = Tracer(sample_rate=obs.trace_sample_rate,
                             keep_slowest=obs.trace_keep_slowest)
        self.metrics.gauge("repro_cache_entries",
                           "Live entries of the estimate LRU cache.",
                           fn=lambda: len(self.cache))
        self.metrics.gauge("repro_plan_buffer_bytes",
                           "Reusable buffer footprint of the serving plan "
                           "(0 for estimators without one).",
                           fn=self._plan_buffer_bytes)
        self._timed_runner = self._build_runner()
        self._refresh_lock = threading.Lock()
        self._observers: tuple = ()
        self._observer_lock = threading.Lock()
        self._batcher: MicroBatcher | None = None
        if self.config.micro_batching:
            self._batcher = MicroBatcher(self._run_batch,
                                         max_batch_size=self.config.max_batch_size)

    def _namespace(self) -> tuple:
        """Cache-key scope: estimates are only valid for this identity."""
        return (self.dataset, self.model_version, self.data_version)

    def _build_runner(self):
        """The batch runner for the current model weights.

        A Duet estimator gets one fresh plan at ``config.inference_dtype``;
        each start and each model swap builds exactly one.  All passes
        funnel through the single batcher thread, so plan buffers are
        reused batch after batch.
        """
        estimator = self.estimator
        factory = getattr(estimator, "timed_batch_runner", None)
        if factory is None:
            # Other estimators have no stage breakdown; the trace's batch
            # span stays flat rather than booking the pass as queue wait.
            return lambda queries: (estimator.estimate_batch(queries), None)
        runner = factory(PlanOptions(self.config.inference_dtype))
        if self.config.obs.profile_plan_stages:
            runner.compiled.enable_profiling(True)
        return runner

    def _plan_buffer_bytes(self) -> int:
        compiled = getattr(self._timed_runner, "compiled", None)
        return compiled.buffer_bytes if compiled is not None else 0

    def profile_report(self) -> dict | None:
        """Per-stage attribution of the serving plan's time.

        ``{"made_stages": [...]}`` (plus ``"mpsn_stages"`` when the model
        has a merged MPSN), one entry per plan stage.  ``None`` for an
        estimator without a plan; all-zero counters until
        ``ObsConfig.profile_plan_stages`` enables the hooks.  The per-batch
        translate/encode/forward/mask split lives in the batch runner's
        :class:`~repro.core.EstimationBreakdown`, not here.
        """
        compiled = getattr(self._timed_runner, "compiled", None)
        return compiled.profile_report() if compiled is not None else None

    @classmethod
    def from_registry(cls, registry: ModelRegistry | str, dataset: str,
                      version: str | None = None,
                      config: ServingConfig | None = None,
                      store: ColumnStore | None = None) -> "EstimationService":
        """Start a service from a saved model: registry path + dataset name.

        Passing the live ``store`` the dataset is ingested into arms the
        staleness/refresh lifecycle; the registry is kept attached so
        :meth:`refresh` re-registers fine-tuned models under new versions.
        """
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        return cls(registry.load_estimator(dataset, version), config,
                   store=store, registry=registry, dataset=dataset)

    # ------------------------------------------------------------------
    # Observers (lifecycle taps on the served query stream)
    # ------------------------------------------------------------------
    def add_observer(self, observer) -> None:
        """Register a callable invoked with every served :class:`Query`.

        The lifecycle layer uses this to sample the live query stream into
        its drift probe set without the service knowing about monitors.
        Observers run on the caller's thread and must be cheap; an observer
        exception is swallowed (monitoring must never fail serving).
        """
        with self._observer_lock:
            self._observers = (*self._observers, observer)

    def remove_observer(self, observer) -> None:
        with self._observer_lock:
            # Equality, not identity: bound methods (monitor.observe) are
            # fresh objects on every attribute access but compare equal.
            self._observers = tuple(existing for existing in self._observers
                                    if existing != observer)

    def _notify_observers(self, query: Query) -> None:
        for observer in self._observers:  # tuple read is atomic, no lock
            try:
                observer(query)
            except Exception:  # noqa: BLE001 — monitoring must not fail serving
                pass

    # ------------------------------------------------------------------
    # Request paths
    # ------------------------------------------------------------------
    def estimate(self, query: Query) -> float:
        """Answer one query: cache, then (micro-batched) forward pass."""
        started = time.perf_counter()
        # With sampling at 0 this is one attribute read and one compare.
        trace: Trace | None = self.tracer.maybe_trace(detail=query)
        if self._observers:
            self._notify_observers(query)
        # Capture the key encoder once: a concurrent hot-swap replaces
        # self._keys (new namespace) and flushes the cache, and re-checking
        # identity before the put keeps this request from re-inserting an
        # estimate under the superseded namespace after the flush.
        keys = self._keys
        key = self._key(keys, query)
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                self.stats.record_request(time.perf_counter() - started, cache_hit=True)
                if trace is not None:
                    trace.add("cache_lookup", trace.elapsed())
                    trace.finish(cache_hit=True)
                return cached
        if trace is not None:
            # Key encoding + the missed probe, measured from the trace start.
            trace.add("cache_lookup", trace.elapsed())
        if self._batcher is not None:
            if trace is not None:
                batch_started = time.perf_counter()
                estimate = self._batcher.submit(
                    query, on_batch=trace.attach_breakdown).result()
                trace.add_batch_span(time.perf_counter() - batch_started)
            else:
                estimate = self._batcher.submit(query).result()
        else:
            batch_started = time.perf_counter()
            estimates, breakdown = self._run_batch([query])
            estimate = float(np.asarray(estimates)[0])
            if trace is not None:
                trace.attach_breakdown(breakdown, 1)
                trace.add_batch_span(time.perf_counter() - batch_started)
        if key is not None and self._keys is keys:
            self.cache.put(key, estimate)
        self.stats.record_request(time.perf_counter() - started, cache_hit=False)
        if trace is not None:
            trace.finish(cache_hit=False)
        return estimate

    def estimate_batch(self, queries: Sequence[Query]) -> np.ndarray:
        """Vectorised offline path: answer a whole batch through the cache.

        Cached queries are served from the cache; the rest go through one
        forward pass.  Useful for accuracy evaluation of a running service.
        """
        queries = list(queries)
        started = time.perf_counter()
        if self._observers:
            for query in queries:
                self._notify_observers(query)
        estimates = np.empty(len(queries), dtype=np.float64)
        missing: list[int] = []
        encoder = self._keys  # captured once; see estimate() for why
        keys: list = [None] * len(queries)
        for index, query in enumerate(queries):
            key = self._key(encoder, query)
            keys[index] = key
            cached = self.cache.get(key) if key is not None else None
            if cached is None:
                missing.append(index)
            else:
                estimates[index] = cached
        if missing:
            estimates_missing, _ = self._run_batch(
                [queries[index] for index in missing])
            computed = np.asarray(estimates_missing, dtype=np.float64)
            for position, index in enumerate(missing):
                estimates[index] = computed[position]
                if keys[index] is not None and self._keys is encoder:
                    self.cache.put(keys[index], float(computed[position]))
        per_query = (time.perf_counter() - started) / max(len(queries), 1)
        missed = set(missing)
        for index in range(len(queries)):
            self.stats.record_request(per_query, cache_hit=index not in missed)
        return estimates

    def _key(self, encoder: QueryKeyEncoder, query: Query):
        """Cache key of ``query``, ``None`` with the cache off.  A key that
        cannot be built (an unknown column) is counted under
        ``repro_request_errors_total{stage="key"}`` and re-raised."""
        if not self.config.cache_capacity:
            return None
        try:
            return encoder.key(query)
        except Exception:
            self.stats.record_error("key")
            raise

    def probe_batch(self, queries: Sequence[Query]) -> np.ndarray:
        """Forward pass outside the request path: no cache, no counters.

        The drift monitor measures probe accuracy through this so that
        monitoring traffic neither skews the operator-facing request/latency
        statistics nor evicts organic entries from the estimate cache.
        Runs whatever plan currently serves (safe concurrently with the
        batcher: compiled plans serialise on their own lock).
        """
        estimates, _ = self._timed_runner(list(queries))
        return np.asarray(estimates, dtype=np.float64)

    def _run_batch(self, queries: Sequence[Query]):
        """One forward pass; returns ``(estimates, breakdown)``.

        The breakdown rides through the micro-batcher's ``extra`` channel to
        traced requests (see :meth:`MicroBatcher.submit`).  A pass that
        raises, or returns other than one estimate per query, is counted
        under ``repro_request_errors_total{stage="batch"}`` and re-raised.
        """
        try:
            estimates, breakdown = self._timed_runner(queries)
            estimates = np.asarray(estimates, dtype=np.float64)
            if estimates.shape != (len(queries),):
                raise ValueError(f"runner returned shape {estimates.shape} "
                                 f"for a batch of {len(queries)}")
        except Exception:
            self.stats.record_error("batch")
            raise
        self.stats.record_batch(len(queries))
        return estimates, breakdown

    # ------------------------------------------------------------------
    # Data lifecycle: staleness and refresh
    # ------------------------------------------------------------------
    def staleness(self) -> int:
        """Rows churned in the store since the served model was trained.

        Churn counts both appends *and* deletes — a model is equally stale
        whichever way the live set moved, so a pure-delete workload drives
        staleness (and with it the refresh triggers) exactly like an append
        burst.  ``0`` for a service without a live store (static data can't
        go stale).  A model with no recorded ``data_version`` is counted as
        trained on the empty store: every current row is stale.
        """
        if self.store is None:
            return 0
        return self.store.rows_since(self.data_version or 0)

    def refresh(self, *, epochs: int = 1,
                replay_fraction: float | None = None,
                version: str | None = None,
                throttle=None, gate=None) -> RegistryEntry | None:
        """Absorb churned data: fine-tune, re-register, hot-swap, invalidate.

        Runs :meth:`DuetTrainer.fine_tune` over the delta between the served
        model's ``data_version`` and the store's current snapshot — appended
        rows trained on directly, removed rows replayed as negatives.  The
        fine-tune happens on a parameter *clone*, so concurrent traffic —
        compiled or tape path — keeps reading the untouched original until
        the single attribute swap at the end; then one serving plan is
        built from the tuned weights, the estimate cache is re-keyed
        and flushed, and — when a registry is attached — the refreshed
        model is registered under a new version carrying the new
        ``data_version``.

        ``epochs`` is the fine-tune's budget over the appended rows (plus
        replay); the lifecycle scheduler passes
        :attr:`~repro.core.config.LifecyclePolicy.refresh_epochs`.

        ``throttle`` is passed through to the fine-tuning loop (called after
        every optimiser step); the lifecycle scheduler uses it to make the
        tune yield to serving threads in bounded batch slices.

        ``gate`` is the canary hook: a callable receiving the fine-tuned
        candidate model *before* it is registered or installed.  Returning
        falsy rejects the candidate — nothing is saved, nothing swaps, the
        incumbent keeps serving, and ``refresh`` returns ``None``.  The
        lifecycle scheduler passes a shadow evaluation over the drift
        monitor's probe set here.

        Returns the new :class:`RegistryEntry` (``None`` when nothing
        churned, when the gate rejected the candidate, or when no registry
        is attached).  Raises
        :class:`~repro.data.DomainGrowthError` when an append grew a
        column's domain — that case needs a cold train, which no amount of
        fine-tuning can replace.
        """
        if self.store is None:
            raise RuntimeError(
                "refresh() needs a live ColumnStore; construct the service "
                "with store=... (or an estimator over a Snapshot)")
        model = getattr(self.estimator, "model", None)
        if model is None:
            raise RuntimeError(
                f"estimator {self.estimator.name!r} has no trainable model; "
                f"refresh() supports Duet estimators")
        # Fast path: nothing churned (appended *or* deleted) since the
        # served data_version — skip the snapshot/delta materialisation, the
        # pointless fine-tune, and (crucially) the cache flush that would
        # evict perfectly valid entries.  Raced mutations are caught again
        # under the lock below.
        if self.staleness() == 0:
            return None
        with self._refresh_lock:
            snapshot = self.store.snapshot()
            delta = self.store.delta(self.data_version or 0)
            if delta.churned_rows == 0 and not delta.domains_grew:
                return None
            # Tune a clone so in-flight requests keep reading the original
            # weights; clone() raises the typed DomainGrowthError when the
            # append grew a domain.
            tuned = model.clone(snapshot)
            DuetTrainer.fine_tune(
                snapshot, tuned, delta,
                epochs=epochs,
                replay_fraction=(replay_fraction if replay_fraction is not None
                                 else self.config.replay_fraction),
                throttle=throttle)
            if gate is not None and not gate(tuned):
                return None
            entry = None
            if self.registry is not None:
                entry = self.registry.save(
                    tuned, self.dataset, version=version,
                    metadata={"fine_tuned_from": self.model_version,
                              "base_data_version": delta.base_version},
                    data_version=snapshot.data_version)
            try:
                self._install(tuned, snapshot.data_version,
                              entry.version if entry is not None else None)
            except Exception:
                # A registered-but-never-installed version must not become
                # the manifest's protected "latest" — roll the save back.
                if entry is not None:
                    self.registry.discard(entry.dataset, entry.version)
                raise
            return entry

    def swap_model(self, model, *, data_version: int | None = None,
                   model_version: str | None = None) -> None:
        """Atomically make ``model`` the served model.

        The cold-train escalation path: a model trained out-of-band (its
        table may carry *grown* domains the old model could not absorb) is
        swapped in exactly like a refresh result — tape path flipped by one
        attribute assignment, one plan built, cache re-keyed and
        flushed — while concurrent requests keep reading the old model
        until the swap completes.  ``data_version`` defaults to the model
        table's own version when it is a snapshot.
        """
        with self._refresh_lock:
            if data_version is None:
                data_version = getattr(model.table, "data_version", None)
            self._install(model, data_version, model_version)

    def _install(self, model, data_version: int | None,
                 model_version: str | None) -> None:
        """Hot-swap tail shared by refresh() and swap_model().

        Caller holds ``_refresh_lock``.  One attribute assignment flips the
        tape path to the new weights; one plan is then built from them, and
        the cache is re-keyed before dropping the stale entries.  A batch
        already holding the old runner finishes on the old model.
        """
        self.estimator.model = model
        self.estimator.table = model.table
        self.estimator.data_version = data_version
        if model_version is not None:
            self.estimator.model_version = model_version
            self.model_version = model_version
        self.data_version = data_version
        self._timed_runner = self._build_runner()
        self._keys = QueryKeyEncoder(model.table, namespace=self._namespace())
        self.cache.clear()
        self.stats.record_swap()

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def snapshot(self) -> StatsSnapshot:
        return self.stats.snapshot()

    @property
    def table(self):
        return self.estimator.table

    def close(self) -> None:
        if self._batcher is not None:
            self._batcher.close()

    def __enter__(self) -> "EstimationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
