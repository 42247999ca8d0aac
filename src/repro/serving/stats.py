"""Thread-safe service statistics: QPS, latency percentiles, cache and batch
occupancy counters, failed passes.

Every ``estimate()`` call records one latency sample plus whether it was a
cache hit; the batch runner records the size of every forward pass and
counts every pass that raised.  The
counters live in a :class:`~repro.obs.MetricsRegistry` (the service's one
observable surface — text exposition, JSON snapshots, the file exporter all
read the same cells), while exact percentiles come from a fixed-size NumPy
ring buffer of the most recent latencies.  :meth:`ServiceStats.snapshot`
copies the ring under the lock (one ``memcpy``) and computes percentiles
*outside* it, so a snapshot never stalls concurrent recorders the way the
old copy-the-whole-deque-under-lock implementation did.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..obs import DEFAULT_LATENCY_BUCKETS, MetricsRegistry

__all__ = ["ServiceStats", "StatsSnapshot"]

#: batch occupancy buckets: powers of two up to the common max batch sizes
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(frozen=True)
class StatsSnapshot:
    """Point-in-time view of a service's performance counters."""

    requests: int
    elapsed_seconds: float
    qps: float
    mean_ms: float
    p50_ms: float
    p90_ms: float
    p99_ms: float
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    num_batches: int
    batched_requests: int
    mean_batch_size: float
    #: hot-swaps of the served model (refreshes + cold-train escalations)
    model_swaps: int = 0

    def as_table_row(self) -> list:
        """Row for :func:`repro.eval.reporting.format_table` serving reports."""
        return [self.requests, self.qps, self.p50_ms, self.p90_ms, self.p99_ms,
                self.cache_hit_rate, self.mean_batch_size]

    def __str__(self) -> str:
        return (f"requests={self.requests} qps={self.qps:.0f} "
                f"p50={self.p50_ms:.3f}ms p90={self.p90_ms:.3f}ms "
                f"p99={self.p99_ms:.3f}ms hit_rate={self.cache_hit_rate:.2f} "
                f"batch_occupancy={self.mean_batch_size:.1f}")


class _LatencyRing:
    """Fixed-capacity ring of the most recent latency samples (seconds).

    ``append`` is two array writes under the caller's lock; ``copy`` hands
    back a dense snapshot of the filled region so percentile math runs on a
    private array, outside any lock.
    """

    __slots__ = ("_samples", "_position", "_filled")

    def __init__(self, capacity: int) -> None:
        self._samples = np.zeros(capacity, dtype=np.float64)
        self._position = 0
        self._filled = 0

    def append(self, value: float) -> None:
        samples = self._samples
        samples[self._position] = value
        self._position = (self._position + 1) % samples.shape[0]
        if self._filled < samples.shape[0]:
            self._filled += 1

    def copy(self) -> np.ndarray:
        return self._samples[:self._filled].copy()

    def clear(self) -> None:
        self._position = 0
        self._filled = 0


class ServiceStats:
    """Accumulates request/batch observations from concurrent threads.

    All counters are registry instruments (shared with whatever lifecycle
    controller or exporter watches the same :class:`MetricsRegistry`);
    the ring buffer backing the percentiles is the only private state.
    The public recording/snapshot API is unchanged from the pre-registry
    implementation.
    """

    def __init__(self, latency_window: int = 65536,
                 metrics: MetricsRegistry | None = None) -> None:
        if latency_window <= 0:
            raise ValueError("latency_window must be positive")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        requests = self.metrics.counter(
            "repro_requests_total",
            "Requests served, split by estimate-cache outcome.",
            labels=("cache",))
        # Bind label cells once; the increment path is then one small lock.
        self._hits_cell = requests.labels(cache="hit")
        self._misses_cell = requests.labels(cache="miss")
        self._latency = self.metrics.histogram(
            "repro_request_latency_seconds",
            "End-to-end estimate() latency.",
            buckets=DEFAULT_LATENCY_BUCKETS).labels()
        self._batches = self.metrics.counter(
            "repro_batches_total", "Forward passes run.").labels()
        self._batched = self.metrics.counter(
            "repro_batched_requests_total",
            "Requests served through forward passes (batch occupancy "
            "numerator).").labels()
        self._batch_size = self.metrics.histogram(
            "repro_batch_size", "Micro-batch occupancy per forward pass.",
            buckets=BATCH_SIZE_BUCKETS).labels()
        self._errors = self.metrics.counter(
            "repro_request_errors_total",
            "Failed request-path work, by stage (key: a cache key that "
            "could not be built; batch: a forward pass that raised, every "
            "request it served got the error).",
            labels=("stage",))
        for stage in ("key", "batch"):  # exported as 0 until one fails
            self._errors.labels(stage=stage)
        self._swaps = self.metrics.counter(
            "repro_model_swaps_total",
            "Hot-swaps of the served model (refreshes + cold trains).").labels()
        self._ring = _LatencyRing(latency_window)
        # The histogram cell's lock doubles as the ring/clock guard: one
        # lock acquisition covers both the bucket update and the ring write.
        self._lock = self._latency._lock
        self._started = time.perf_counter()

    # ------------------------------------------------------------------
    def record_request(self, latency_seconds: float, cache_hit: bool) -> None:
        if cache_hit:
            self._hits_cell.inc()
        else:
            self._misses_cell.inc()
        self._latency.observe(latency_seconds)
        with self._lock:
            self._ring.append(latency_seconds)

    def record_batch(self, batch_size: int) -> None:
        self._batches.inc()
        self._batched.inc(batch_size)
        self._batch_size.observe(batch_size)

    def record_error(self, stage: str) -> None:
        """Count one failure of request-path work at ``stage``."""
        self._errors.labels(stage=stage).inc()

    def record_swap(self) -> None:
        """Count one hot-swap of the served model."""
        self._swaps.inc()

    def reset(self) -> None:
        """Zero every counter and restart the QPS clock.

        Registry cells are zeroed *in place*, so instruments bound by other
        components (exporter, scheduler) stay valid.
        """
        for name in ("repro_requests_total", "repro_request_latency_seconds",
                     "repro_batches_total", "repro_batched_requests_total",
                     "repro_batch_size", "repro_request_errors_total",
                     "repro_model_swaps_total"):
            self.metrics.get(name)._reset()
        with self._lock:
            self._ring.clear()
            self._started = time.perf_counter()

    # ------------------------------------------------------------------
    def snapshot(self) -> StatsSnapshot:
        with self._lock:
            elapsed = max(time.perf_counter() - self._started, 1e-9)
            window = self._ring.copy()
        # Percentile math happens on the private copy, outside the lock —
        # concurrent record_request() calls are never blocked by it.
        if window.size:
            window *= 1e3
            mean_ms = float(window.mean())
            p50_ms, p90_ms, p99_ms = (
                float(value) for value in np.percentile(window, [50, 90, 99]))
        else:
            mean_ms = p50_ms = p90_ms = p99_ms = 0.0
        hits = int(self._hits_cell.value)
        misses = int(self._misses_cell.value)
        lookups = hits + misses
        num_batches = int(self._batches.value)
        batched_requests = int(self._batched.value)
        return StatsSnapshot(
            requests=lookups,
            elapsed_seconds=elapsed,
            qps=lookups / elapsed,
            mean_ms=mean_ms,
            p50_ms=p50_ms,
            p90_ms=p90_ms,
            p99_ms=p99_ms,
            cache_hits=hits,
            cache_misses=misses,
            cache_hit_rate=hits / lookups if lookups else 0.0,
            num_batches=num_batches,
            batched_requests=batched_requests,
            mean_batch_size=(batched_requests / num_batches
                             if num_batches else 0.0),
            model_swaps=int(self._swaps.value),
        )
