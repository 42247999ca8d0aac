"""Micro-batching scheduler: coalesce concurrent requests into one forward pass.

Duet's estimator is vectorised — one forward pass over a batch of queries
costs barely more than over a single query — but online clients submit one
query at a time.  The :class:`MicroBatcher` bridges the two with in-flight
coalescing: a single scheduler thread blocks for the first queued request,
drains whatever else is already queued (up to ``max_batch_size`` queries)
without waiting for more, runs one batched forward pass, and resolves each
request's future.  Requests that arrive while a pass is in flight form the
next batch, so batches grow with load; an idle service answers a lone
request after one pass.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Callable, Sequence

import numpy as np

from ..workload.query import Query

__all__ = ["MicroBatcher"]

#: sentinel enqueued by :meth:`MicroBatcher.close` to wake the scheduler
_SHUTDOWN = object()


class _Request:
    __slots__ = ("query", "future", "on_batch")

    def __init__(self, query: Query, on_batch=None) -> None:
        self.query = query
        self.on_batch = on_batch
        self.future: "Future[float]" = Future()


class MicroBatcher:
    """Coalesces single-query requests into batched ``runner`` calls.

    ``runner`` receives a list of queries and must return one estimate per
    query (anything :func:`numpy.asarray` accepts).  It may instead return
    an ``(estimates, extra)`` tuple; the ``extra`` payload (the serving
    runner's per-stage timing breakdown) is handed to each request's
    ``on_batch`` callback.  Exceptions raised by the runner propagate to
    every future of the affected batch.

    A batch never waits for company: it holds the first queued request plus
    whatever else was already queued, at most ``max_batch_size`` queries.
    Pass counts and occupancy are recorded by the runner's owner
    (:class:`~repro.serving.ServiceStats`), not here.
    """

    def __init__(self, runner: Callable[[Sequence[Query]], np.ndarray],
                 max_batch_size: int = 64) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self._runner = runner
        self.max_batch_size = max_batch_size
        self._queue: "queue.Queue" = queue.Queue()
        # Serialises submit() against close() so no request can be enqueued
        # after the shutdown sentinel (it would never be resolved).
        self._lifecycle = threading.Lock()
        self._closed = False
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-microbatcher", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(self, query: Query, on_batch=None) -> "Future[float]":
        """Enqueue one query; the future resolves to its estimate.

        ``on_batch(extra, batch_size)`` — when given — is invoked on the
        scheduler thread after the forward pass that served this request,
        strictly before the future resolves; the tracer attaches the pass's
        stage breakdown to a sampled request through it.  Callbacks must be
        cheap and must not raise (exceptions are swallowed: telemetry never
        fails serving).
        """
        request = _Request(query, on_batch)
        with self._lifecycle:
            if self._closed:
                raise RuntimeError("cannot submit to a closed MicroBatcher")
            self._queue.put(request)
        return request.future

    def estimate(self, query: Query) -> float:
        """Convenience blocking wrapper around :meth:`submit`."""
        return self.submit(query).result()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the scheduler after draining already-queued requests."""
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            self._queue.put(_SHUTDOWN)
        self._thread.join()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            first = self._queue.get()
            if first is _SHUTDOWN:
                return
            batch = [first]
            shutdown = False
            # Take only what is already queued: arrivals during the pass
            # below form the next batch.
            while len(batch) < self.max_batch_size:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _SHUTDOWN:
                    shutdown = True
                    break
                batch.append(item)
            self._run_batch(batch)
            if shutdown:
                return

    def _run_batch(self, batch: list[_Request]) -> None:
        queries = [request.query for request in batch]
        try:
            result = self._runner(queries)
            extra = None
            if isinstance(result, tuple):
                result, extra = result
            estimates = np.asarray(result, dtype=np.float64)
            if estimates.shape != (len(batch),):
                raise ValueError(
                    f"runner returned shape {estimates.shape} for a batch of {len(batch)}")
        except BaseException as error:  # noqa: BLE001 — forwarded to callers
            for request in batch:
                request.future.set_exception(error)
            return
        for request, estimate in zip(batch, estimates):
            if request.on_batch is not None:
                try:
                    request.on_batch(extra, len(batch))
                except Exception:  # noqa: BLE001 — telemetry never fails serving
                    pass
            request.future.set_result(float(estimate))
