"""Span recording around the public functions of each ``repro`` layer.

The traced run installs thin wrappers, from the benchmark's side, around the
layer boundaries of the library (nothing under ``src/`` is changed).  Each
wrapper records one span: ``(id, name, start, end, parent, request, thread,
note)``.  Spans live in memory and are written out when the run ends.

``parent`` is the innermost span open on the same thread; ``request`` is the
id of the root span of that thread's current call chain.  The micro-batcher
runs forward passes on its own thread, so a batched request is linked to the
pass that served it through the batcher's ``on_batch`` hook: the link holds
the request's root span, the moment its submit returned, and the pass span.

A span's self time is its duration minus the durations of its children
(children on one thread nest, so their intervals never overlap).
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

def _batch_size(args, kwargs, result):
    return len(args[1]) if len(args) > 1 else len(kwargs.get("queries", ()))


def _returned_value(args, kwargs, result):
    return result is not None


def _canary_passed(args, kwargs, result):
    return bool(result.passed)


# Span name -> (module, qualified attribute, note extractor or None).  The
# note keeps one small fact about the call that the analysis needs: a batch
# size, whether a probe hit, whether a refresh swapped.
TRACED = {
    "service.estimate": ("repro.serving.service", "EstimationService.estimate", None),
    "service.estimate_batch": ("repro.serving.service",
                               "EstimationService.estimate_batch", _batch_size),
    "service.run_batch": ("repro.serving.service", "EstimationService._run_batch",
                          _batch_size),
    "service.probe_batch": ("repro.serving.service", "EstimationService.probe_batch",
                            _batch_size),
    "service.refresh": ("repro.serving.service", "EstimationService.refresh",
                        _returned_value),
    "cache.key": ("repro.serving.cache", "QueryKeyEncoder.key", None),
    "cache.get": ("repro.serving.cache", "EstimateCache.get", _returned_value),
    "cache.put": ("repro.serving.cache", "EstimateCache.put", None),
    "encoding.translate": ("repro.core.encoding", "QueryCodec.translate_batch",
                           _batch_size),
    "compiled.build": ("repro.core.compiled", "CompiledDuetModel.__init__", None),
    "compiled.encode": ("repro.core.compiled", "CompiledDuetModel.encode", None),
    "compiled.forward": ("repro.core.compiled", "CompiledDuetModel.logits", None),
    "compiled.mask": ("repro.core.compiled",
                      "CompiledDuetModel.selectivity_from_logits", None),
    "store.append": ("repro.data.store", "ColumnStore.append", None),
    "store.delete": ("repro.data.store", "ColumnStore.delete", None),
    "store.snapshot": ("repro.data.store", "ColumnStore.snapshot", None),
    "store.delta": ("repro.data.store", "ColumnStore.delta", None),
    "executor.label": ("repro.workload.executor", "true_cardinalities", None),
    "executor.label_delta": ("repro.workload.executor", "true_cardinalities_delta",
                             None),
    "trainer.train": ("repro.core.trainer", "DuetTrainer.train", None),
    "trainer.fine_tune": ("repro.core.trainer", "DuetTrainer.fine_tune", None),
    "trainer.step": ("repro.nn.optim", "Adam.step", None),
    "registry.save": ("repro.serving.registry", "ModelRegistry.save", None),
    "shadow.evaluate": ("repro.lifecycle.shadow", "ShadowEvaluator.evaluate",
                        _canary_passed),
    "lifecycle.poll": ("repro.lifecycle.scheduler", "RefreshScheduler.poll_once",
                       None),
}

#: spans a client thread opens for one request; the roots of the ranking
REQUEST_ROOTS = ("service.estimate", "service.estimate_batch")


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.links: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        span = [span_id, name, time.perf_counter(), 0.0,
                parent[0] if parent else None,
                parent[5] if parent else span_id,
                threading.get_ident(), None]
        stack.append(span)
        return span

    def end(self, span: list, note=None) -> None:
        span[3] = time.perf_counter()
        span[7] = note
        stack = self._stack()
        stack.pop()
        if not stack:
            self._local.last_root = span[0]
        self.spans.append(span)

    def _wrap(self, name: str, function, note_of):
        recorder = self

        def traced(*args, **kwargs):
            span = recorder.begin(name)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                recorder.end(span, "error")
                raise
            recorder.end(span, None if note_of is None
                         else note_of(args, kwargs, result))
            return result

        traced.__wrapped__ = function
        return traced

    def _wrap_submit(self, function):
        """``MicroBatcher.submit``: enqueue span plus a link to the pass."""
        recorder = self

        def submit(batcher, query, on_batch=None):
            span = recorder.begin("batcher.submit")
            link = [span[5], 0.0, None, 0]

            def served(extra, size):
                # Runs on the batcher thread right after the pass returned.
                link[2] = getattr(recorder._local, "last_root", None)
                link[3] = size
                if on_batch is not None:
                    on_batch(extra, size)

            try:
                future = function(batcher, query, served)
            finally:
                recorder.end(span)
            link[1] = span[3]
            recorder.links.append(link)
            return _TracedFuture(recorder, future)

        submit.__wrapped__ = function
        return submit

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self) -> "SpanRecorder":
        # Import every subpackage first, so each ``from ... import`` binding
        # of a module-level function exists when the wrappers replace it.
        importlib.import_module("repro")
        for name, (module_name, qualified, note_of) in TRACED.items():
            owner, attribute = _resolve(module_name, qualified)
            raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
                owner, attribute)
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__, note_of))
            else:
                replacement = self._wrap(name, raw, note_of)
            self._replace(owner, attribute, raw, replacement)
        owner, _ = _resolve("repro.serving.batcher", "MicroBatcher.submit")
        raw = owner.__dict__["submit"]
        self._replace(owner, "submit", raw, self._wrap_submit(raw))
        return self

    def _replace(self, owner, attribute: str, raw, replacement) -> None:
        if isinstance(owner, type):
            setattr(owner, attribute, replacement)
            self._restore.append((owner, attribute, raw))
            return
        # A module-level function is also bound by name in every module that
        # imported it with ``from ... import``; rebind each of those names.
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attribute, None) is raw):
                setattr(module, attribute, replacement)
                self._restore.append((module, attribute, raw))

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._restore):
            setattr(owner, attribute, raw)
        self._restore.clear()

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def write(self, path) -> None:
        """Write every span and batcher link as JSON lines."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span[0], "name": span[1], "start": span[2],
                    "end": span[3], "parent": span[4], "request": span[5],
                    "thread": span[6], "note": span[7]}) + "\n")
            for request, queued, pass_id, size in self.links:
                handle.write(json.dumps({
                    "link": request, "queued": queued, "pass": pass_id,
                    "batch_size": size}) + "\n")


class _TracedFuture:
    """Future proxy whose ``result()`` is the request's ``batcher.wait`` span."""

    __slots__ = ("_recorder", "_future")

    def __init__(self, recorder: SpanRecorder, future) -> None:
        self._recorder = recorder
        self._future = future

    def result(self, timeout=None):
        span = self._recorder.begin("batcher.wait")
        failed = True
        try:
            value = self._future.result(timeout)
            failed = False
            return value
        finally:
            self._recorder.end(span, failed)

    def __getattr__(self, name):
        return getattr(self._future, name)


def _resolve(module_name: str, qualified: str):
    module = importlib.import_module(module_name)
    owner_name, _, attribute = qualified.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, attribute


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

class SpanAnalysis:
    """Self times, per-layer means and the per-request latency ranking."""

    def __init__(self, recorder: SpanRecorder, window: tuple[float, float]) -> None:
        self.window = window
        self.spans = {span[0]: span for span in recorder.spans}
        child_time: dict[int, float] = defaultdict(float)
        for span in recorder.spans:
            if span[4] is not None:
                child_time[span[4]] += span[3] - span[2]
        self.self_time = {span_id: span[3] - span[2] - child_time[span_id]
                          for span_id, span in self.spans.items()}
        self.by_name: dict[str, list[list]] = defaultdict(list)
        for span in recorder.spans:
            self.by_name[span[1]].append(span)
        self.links = recorder.links
        start, stop = window
        self.roots = [span for span in recorder.spans
                      if span[1] in REQUEST_ROOTS and span[4] is None
                      and start <= span[2] < stop]

    def in_window(self, name: str) -> list[list]:
        start, stop = self.window
        return [span for span in self.by_name[name] if start <= span[2] < stop]

    def mean_duration(self, name: str, scale: float, spans=None) -> float:
        spans = self.by_name[name] if spans is None else spans
        if not spans:
            return 0.0
        return float(np.mean([span[3] - span[2] for span in spans])) * scale

    def median_duration(self, name: str, scale: float) -> float:
        spans = self.by_name[name]
        if not spans:
            return 0.0
        return float(np.median([span[3] - span[2] for span in spans])) * scale

    def count(self, name: str, note) -> int:
        """Spans of ``name`` in the window whose note equals ``note``."""
        return sum(1 for span in self.in_window(name) if span[7] == note)

    # ------------------------------------------------------------------
    def request_contributions(self) -> tuple[dict[str, float], int]:
        """Seconds each layer adds to the requests of the window.

        Same-thread spans contribute their self time.  A request's
        ``batcher.wait`` is split into queue wait (submit returned -> pass
        started), the whole pass it rode (every request of a batch waits for
        all of it, split by the pass's own layers), and hand-off (pass ended
        -> ``result()`` returned).
        """
        totals: dict[str, float] = defaultdict(float)
        by_request: dict[int, list[list]] = defaultdict(list)
        for span in self.spans.values():
            by_request[span[5]].append(span)
        links = {link[0]: link for link in self.links if link[2] is not None}
        for root in self.roots:
            for span in by_request[root[0]]:
                if span[1] == "batcher.wait":
                    link = links.get(root[0])
                    if link is None:
                        totals["batcher.wait"] += span[3] - span[2]
                        continue
                    pass_span = self.spans[link[2]]
                    totals["batcher.queue_wait"] += max(pass_span[2] - link[1], 0.0)
                    totals["batcher.handoff"] += max(span[3] - pass_span[3], 0.0)
                    for inner in by_request[pass_span[0]]:
                        totals[inner[1]] += self.self_time[inner[0]]
                else:
                    totals[span[1]] += self.self_time[span[0]]
        return dict(totals), len(self.roots)

    def ranking(self) -> list[dict]:
        """Layers by mean microseconds added per request, largest first."""
        totals, calls = self.request_contributions()
        whole = sum(totals.values())
        rows = [{"layer": name, "us_per_request": seconds / max(calls, 1) * 1e6,
                 "share": seconds / whole if whole else 0.0}
                for name, seconds in totals.items()]
        return sorted(rows, key=lambda row: -row["us_per_request"])

    def writer_ranking(self, roots: tuple[str, ...]) -> list[dict]:
        """Self time by layer under the given non-request roots (per window)."""
        start, stop = self.window
        root_ids = {span[0] for span in self.spans.values()
                    if span[1] in roots and span[4] is None
                    and start <= span[2] < stop}
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans.values():
            if span[5] in root_ids:
                totals[span[1]] += self.self_time[span[0]]
        whole = sum(totals.values())
        return sorted(({"layer": name, "seconds": seconds,
                        "share": seconds / whole if whole else 0.0}
                       for name, seconds in totals.items()),
                      key=lambda row: -row["seconds"])

    def uncovered_share(self) -> float:
        """Share of request wall time that no child span covers."""
        whole = sum(span[3] - span[2] for span in self.roots)
        bare = sum(self.self_time[span[0]] for span in self.roots)
        return bare / whole if whole else 0.0
