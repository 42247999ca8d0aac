"""Request tracing: sampled span trees over the serving hot path.

A :class:`Tracer` decides per request whether to record a trace
(``sample_rate``); the untraced path costs one attribute read and one
float compare — no allocation, no lock.  A sampled request carries a
:class:`Trace` through the service: the cache probe, the micro-batch
hand-off, and the per-stage breakdown of the forward pass that served it
become :class:`Span` nodes of one tree.  Finished traces feed a bounded
slowest-N reservoir, so "show me the worst requests and where they spent
their time" is one :meth:`Tracer.slowest` call on a live service.

Spans inside a micro-batch are *attributed*: the batch runner measures
each stage once per forward pass and every traced request of that batch
receives the same durations (stages are shared work — that is the point
of batching).  Spans are named after the runner's breakdown keys — for
Duet the :class:`~repro.core.EstimationBreakdown` stages ``translate``,
``encode``, ``forward`` and ``mask`` — so stage durations sum to the pass
cost, and the gap to the enclosing ``batch`` span is the time the request
spent queued behind the batcher (materialised as a ``wait`` span).  A
runner that returns no breakdown leaves the ``batch`` span flat.
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading
import time

__all__ = ["Span", "Trace", "Tracer"]


class Span:
    """One named, timed node of a trace tree (durations in seconds)."""

    __slots__ = ("name", "start", "duration", "children")

    def __init__(self, name: str, start: float = 0.0,
                 duration: float = 0.0) -> None:
        self.name = name
        self.start = start          # offset from the trace start
        self.duration = duration
        self.children: list[Span] = []

    def child(self, name: str, start: float = 0.0,
              duration: float = 0.0) -> "Span":
        span = Span(name, start, duration)
        self.children.append(span)
        return span

    def walk(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def tree_lines(self, indent: int = 0) -> list[str]:
        lines = [f"{'  ' * indent}{self.name:<14} "
                 f"{1e3 * self.duration:8.3f} ms"]
        for child in self.children:
            lines.extend(child.tree_lines(indent + 1))
        return lines

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {1e3 * self.duration:.3f}ms, "
                f"{len(self.children)} children)")


class Trace:
    """One sampled request's span tree, rooted at the request itself."""

    __slots__ = ("root", "detail", "cache_hit", "_tracer", "_started",
                 "_breakdown", "batch_size")

    def __init__(self, tracer: "Tracer", name: str, detail=None) -> None:
        self.root = Span(name)
        self.detail = detail
        self.cache_hit = False
        self.batch_size = 0
        self._tracer = tracer
        self._started = time.perf_counter()
        self._breakdown: dict | None = None

    @property
    def duration(self) -> float:
        return self.root.duration

    def elapsed(self) -> float:
        return time.perf_counter() - self._started

    # ------------------------------------------------------------------
    def add(self, name: str, duration: float) -> Span:
        """Record a just-finished stage of ``duration`` seconds."""
        start = max(self.elapsed() - duration, 0.0)
        return self.root.child(name, start, duration)

    def attach_breakdown(self, breakdown, batch_size: int = 1) -> None:
        """Stash the forward pass's stage breakdown (batcher-thread safe).

        Called from whichever thread ran the forward pass, strictly before
        the request's future resolves — the future hand-off orders this
        write before :meth:`add_batch_span` reads it.
        """
        self._breakdown = dict(breakdown) if breakdown is not None else None
        self.batch_size = batch_size

    def add_batch_span(self, duration: float) -> Span:
        """Record the submit-to-result window, expanded into stage spans."""
        batch = self.add("batch", duration)
        breakdown = self._breakdown
        if not breakdown:
            return batch
        # Time queued behind the batcher before the runner's stages ran.
        wait = duration - sum(breakdown.values())
        offset = batch.start
        if wait > 0:
            batch.child("wait", offset, wait)
            offset += wait
        for name, stage_seconds in breakdown.items():
            batch.child(name, offset, stage_seconds)
            offset += stage_seconds
        return batch

    def finish(self, cache_hit: bool = False) -> None:
        """Close the root span and hand the trace to the tracer."""
        self.cache_hit = cache_hit
        self.root.duration = self.elapsed()
        self._tracer._record(self)

    # ------------------------------------------------------------------
    def stage_names(self) -> set[str]:
        return {span.name for span in self.root.walk()} - {self.root.name}

    def format_tree(self) -> str:
        header = f"trace {1e3 * self.duration:.3f} ms"
        if self.detail is not None:
            header += f"  {self.detail}"
        if self.batch_size:
            header += f"  (batch of {self.batch_size})"
        return "\n".join([header] + [line for child in self.root.children
                                     for line in child.tree_lines(1)])


class Tracer:
    """Samples requests into traces and retains the slowest N of them."""

    def __init__(self, sample_rate: float = 0.0, keep_slowest: int = 32,
                 seed: int | None = None) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        if keep_slowest <= 0:
            raise ValueError("keep_slowest must be positive")
        self.sample_rate = sample_rate
        self.keep_slowest = keep_slowest
        self._random = (random.Random(seed).random if seed is not None
                        else random.random)
        self._lock = threading.Lock()
        self._heap: list[tuple[float, int, Trace]] = []
        self._seq = itertools.count()
        self._traces_started = 0

    @property
    def enabled(self) -> bool:
        return self.sample_rate > 0.0

    @property
    def traces_started(self) -> int:
        return self._traces_started

    # ------------------------------------------------------------------
    def maybe_trace(self, detail=None, name: str = "request") -> Trace | None:
        """A new :class:`Trace` for this request, or ``None`` when unsampled.

        The ``None`` path is the hot one: with ``sample_rate == 0`` it is a
        single comparison — no RNG draw, no allocation.
        """
        rate = self.sample_rate
        if rate <= 0.0:
            return None
        if rate < 1.0 and self._random() >= rate:
            return None
        with self._lock:
            self._traces_started += 1
        return Trace(self, name, detail)

    def _record(self, trace: Trace) -> None:
        with self._lock:
            heapq.heappush(self._heap,
                           (trace.duration, next(self._seq), trace))
            while len(self._heap) > self.keep_slowest:
                heapq.heappop(self._heap)

    # ------------------------------------------------------------------
    def slowest(self, n: int | None = None) -> list[Trace]:
        """The retained traces, slowest first (up to ``n`` of them)."""
        with self._lock:
            ranked = sorted(self._heap, key=lambda item: -item[0])
        traces = [trace for _, _, trace in ranked]
        return traces if n is None else traces[:n]

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()
