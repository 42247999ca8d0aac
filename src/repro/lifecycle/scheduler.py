"""The refresh scheduler: a daemon-thread policy loop over one service.

This is the autonomous half of the paper's operational claim.  PR 3 made
models *refreshable* (``EstimationService.refresh()``); this loop makes them
*refreshed*: it periodically asks the :class:`DriftMonitor` for a
:class:`~repro.lifecycle.RefreshDecision` and acts on it, with the guard
rails a production control plane needs:

* **debounce** — a positive decision must hold for ``debounce_polls``
  consecutive evaluations before a tune starts, so an append burst is
  absorbed by one tune at the end instead of one per batch;
* **cooldown** — at least ``cooldown_seconds`` between controller-initiated
  tunes, bounding training cost under sustained churn;
* **backpressure** — at most one tune is ever in flight (fine-tune *or*
  cold train), and the tuning loop yields to serving threads in bounded
  batch slices (:attr:`LifecyclePolicy.tune_slice_batches` /
  :attr:`~LifecyclePolicy.tune_yield_seconds`);
* **escalation** — a refresh failing with
  :class:`~repro.data.DomainGrowthError` launches a background cold train
  (:mod:`repro.lifecycle.coldtrain`) that swaps atomically when ready, so
  domain growth degrades to eventual freshness instead of an exception;
* **retention** — after every successful tune the
  :class:`~repro.lifecycle.RetentionPolicy` prunes superseded registry
  versions and trims unreachable store version metadata;
* **compaction** — when deletes push the store's tombstone fraction past
  :attr:`LifecyclePolicy.compact_tombstone_fraction`, the
  :class:`~repro.lifecycle.CompactionPolicy` rewrites the chunks to drop
  dead rows and escalates to the same background cold-train/swap path
  (deltas cannot span a compaction, and a clean retrain erases the
  approximation negative-replay fine-tuning accumulates);
* **canary gating** — every candidate the loop produces (fine-tune or cold
  train) is shadow-evaluated by the :class:`~repro.lifecycle.ShadowEvaluator`
  against the drift probe set before it may swap in; a candidate whose probe
  median Q-Error is worse than ``canary_margin`` times the incumbent's is
  rejected (``canary_reject`` event) and the incumbent keeps serving.  A
  rejected cold train is not rerun on the same data: until the store's
  ``data_version`` moves, an escalation records a ``cold_train_skipped``
  decision instead of training again;
* **failure backoff & circuit breaker** — a failed refresh / cold train /
  compaction parks the tune path for an exponentially growing
  ``failure_backoff_seconds`` window instead of consuming the success
  cooldown; ``breaker_failure_threshold`` *consecutive* failures open a
  circuit breaker that refuses all tuning until ``breaker_cooldown_seconds``
  pass, then half-opens for a single trial (success closes it, failure
  re-opens).  Every transition is a ``breaker`` event.

Every step is recorded in the :class:`~repro.lifecycle.EventLog`; nothing
the loop does can raise into (or block) the serving path.
"""

from __future__ import annotations

import threading
import time

from ..core.config import LifecyclePolicy
from ..data.store import DomainGrowthError
from ..obs import MetricsRegistry
from .coldtrain import ColdTrainResult, start_cold_train
from .compaction import CompactionPolicy
from .events import EventLog, LifecycleEvent
from .monitor import DriftMonitor, RefreshDecision
from .retention import RetentionPolicy
from .shadow import ShadowEvaluator

__all__ = ["RefreshScheduler"]

#: numeric encoding of the circuit-breaker state for the exported gauge
BREAKER_STATE_LEVELS = {"closed": 0, "half_open": 1, "open": 2}

#: tune/compaction duration buckets (seconds) — training runs, not requests
TUNE_SECONDS_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
                        60.0, 300.0)


class RefreshScheduler:
    """Background control plane keeping one service's model fresh."""

    def __init__(self, service, policy: LifecyclePolicy | None = None,
                 monitor: DriftMonitor | None = None,
                 events: EventLog | None = None,
                 retention: RetentionPolicy | None = None,
                 compaction: CompactionPolicy | None = None,
                 seed: int = 0,
                 metrics: MetricsRegistry | None = None) -> None:
        self.service = service
        self.policy = policy or (monitor.policy if monitor is not None
                                 else LifecyclePolicy())
        self.monitor = monitor or DriftMonitor(service, self.policy, seed=seed)
        # Default to the service's registry so serving and lifecycle land in
        # one exposition; a service without one gets a private registry.
        self.metrics = (metrics if metrics is not None
                        else getattr(service, "metrics", None) or MetricsRegistry())
        self.events = events or EventLog(metrics=self.metrics)
        self.retention = retention or RetentionPolicy(self.policy)
        self.compaction = compaction or CompactionPolicy(self.policy)
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        # Backpressure: holders of this lock are "the one tune in flight".
        self._tune_lock = threading.Lock()
        self._cold_train: ColdTrainResult | None = None
        #: store data_version a cold train was last canary-rejected at; a
        #: retrain on the same data would repeat the same verdict
        self._rejected_cold_train_version: int | None = None
        # Serialises cold-train finalisation between the loop thread and
        # quiesce() callers, so the outcome is folded in exactly once.
        self._finalise_lock = threading.Lock()
        self._consecutive_hits = 0
        self._last_tune_at: float | None = None
        self.shadow = ShadowEvaluator(self.monitor, self.policy)
        # Chaos seam: tests/soak drivers install a FaultInjector here; the
        # throttle closure fires it at site "trainer.step".
        self.fault_injector = None
        self._consecutive_failures = 0
        self._backoff_until: float | None = None
        self._breaker_state = "closed"  # closed | open | half_open
        self._breaker_opened_at: float | None = None
        self._register_instruments()

    def _register_instruments(self) -> None:
        """Register the control plane's metrics (idempotent on a shared registry)."""
        metrics = self.metrics
        self._poll_seconds = metrics.histogram(
            "repro_lifecycle_poll_seconds",
            "Duration of one scheduler policy evaluation.").labels()
        self._tune_seconds = metrics.histogram(
            "repro_lifecycle_tune_seconds",
            "Duration of tune-path actions, by stage.",
            labels=("stage",), buckets=TUNE_SECONDS_BUCKETS)
        self._breaker_gauge = metrics.gauge(
            "repro_lifecycle_breaker_state",
            "Circuit breaker over the tune path "
            "(0=closed, 1=half_open, 2=open).").labels()
        self._breaker_gauge.set(BREAKER_STATE_LEVELS[self._breaker_state])
        self._canary_gauge = metrics.gauge(
            "repro_canary_last_ratio",
            "Last canary verdict's candidate/incumbent probe median "
            "Q-Error ratio (<= margin passes; 0 until a canary runs).").labels()
        metrics.gauge(
            "repro_store_physical_rows",
            "Physical rows in the live store (incl. tombstoned).",
            fn=lambda: self._store_stat("physical_rows"))
        metrics.gauge(
            "repro_store_live_rows",
            "Live (non-tombstoned) rows in the store.",
            fn=lambda: self._store_stat("num_rows"))
        metrics.gauge(
            "repro_store_tombstone_fraction",
            "Dead-row fraction of the store (compaction trigger input).",
            fn=lambda: self._store_stat("tombstone_fraction"))
        metrics.gauge(
            "repro_store_data_version",
            "Current data version of the live store.",
            fn=lambda: self._store_stat("data_version"))
        metrics.gauge(
            "repro_registry_model_versions",
            "Model versions the registry currently retains for this dataset.",
            fn=self._registry_versions)

    def _store_stat(self, attribute: str) -> float:
        store = getattr(self.service, "store", None)
        if store is None:
            return 0.0
        return float(getattr(store, attribute))

    def _registry_versions(self) -> float:
        registry = getattr(self.service, "registry", None)
        if registry is None:
            return 0.0
        return float(len(registry.versions(self.service.dataset)))

    # ------------------------------------------------------------------
    # Daemon lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "RefreshScheduler":
        """Attach the monitor and start the policy loop; returns ``self``."""
        if self.running:
            return self
        self.monitor.attach()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-lifecycle-scheduler")
        self._thread.start()
        return self

    def stop(self, timeout: float | None = 10.0) -> None:
        """Stop the loop (an in-flight background cold train keeps running)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        self.monitor.detach()

    def __enter__(self) -> "RefreshScheduler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.policy.poll_interval_seconds):
            try:
                self.poll_once()
            except Exception as error:  # noqa: BLE001 — the loop must survive
                self.events.record("error", stage="poll", error=repr(error))

    # ------------------------------------------------------------------
    # One policy evaluation (also the synchronous test surface)
    # ------------------------------------------------------------------
    def poll_once(self) -> LifecycleEvent:
        """Evaluate the policy once and act on it; returns the decision event."""
        poll_started = time.perf_counter()
        try:
            pending = self._finalise_cold_train()
            if pending is not None:
                return pending
            self._breaker_poll()
            compacted = self._maybe_compact()
            if compacted is not None:
                return compacted
            decision = self.monitor.decide()
            action = self._action_for(decision)
            event = self.events.record(
                "decision", action=action, reasons=list(decision.reasons),
                stale_rows=decision.metrics.stale_rows,
                stale_fraction=round(decision.metrics.stale_fraction, 4),
                median_qerror=decision.metrics.median_qerror,
                probe_size=decision.metrics.probe_size)
            if action == "tune":
                self._execute(decision)
            return event
        finally:
            self._poll_seconds.observe(time.perf_counter() - poll_started)

    def _action_for(self, decision: RefreshDecision) -> str:
        if not decision:
            self._consecutive_hits = 0
            return "hold"
        self._consecutive_hits += 1
        if self._consecutive_hits < self.policy.debounce_polls:
            return "debounce"
        if self._breaker_state == "open":
            return "breaker_open"
        if self._in_backoff():
            return "backoff"
        if self._in_cooldown():
            return "cooldown"
        return "tune"

    def _in_cooldown(self) -> bool:
        return (self._last_tune_at is not None
                and time.monotonic() - self._last_tune_at
                < self.policy.cooldown_seconds)

    # ------------------------------------------------------------------
    # Failure accounting: backoff + circuit breaker
    # ------------------------------------------------------------------
    @property
    def breaker_state(self) -> str:
        """Circuit-breaker state: ``closed`` | ``open`` | ``half_open``."""
        return self._breaker_state

    def _in_backoff(self) -> bool:
        return (self._backoff_until is not None
                and time.monotonic() < self._backoff_until)

    def _breaker_poll(self) -> None:
        """Half-open an expired breaker so the next decision may trial-tune."""
        if (self._breaker_state == "open"
                and self._breaker_opened_at is not None
                and time.monotonic() - self._breaker_opened_at
                >= self.policy.breaker_cooldown_seconds):
            self._breaker_state = "half_open"
            self._breaker_gauge.set(BREAKER_STATE_LEVELS["half_open"])
            self.events.record("breaker", state="half_open",
                               consecutive_failures=self._consecutive_failures)

    def _note_failure(self, stage: str) -> None:
        """Fold one tune-path failure into backoff and breaker state.

        Failures deliberately do *not* touch ``_last_tune_at``: the success
        cooldown spaces out training *cost*, while this path spaces out
        *retries* — a failed tune that consumed the cooldown would delay the
        recovery it never earned.
        """
        policy = self.policy
        self._consecutive_failures += 1
        if policy.failure_backoff_seconds > 0:
            delay = min(policy.failure_backoff_seconds
                        * 2 ** (self._consecutive_failures - 1),
                        policy.failure_backoff_max_seconds)
            self._backoff_until = time.monotonic() + delay
        threshold = policy.breaker_failure_threshold
        opens = (self._breaker_state == "half_open"
                 or (self._breaker_state == "closed" and threshold is not None
                     and self._consecutive_failures >= threshold))
        if opens:
            self._breaker_state = "open"
            self._breaker_opened_at = time.monotonic()
            self._breaker_gauge.set(BREAKER_STATE_LEVELS["open"])
            self.events.record(
                "breaker", state="open", stage=stage,
                consecutive_failures=self._consecutive_failures,
                cooldown_seconds=self.policy.breaker_cooldown_seconds)

    def _note_success(self) -> None:
        """A tune landed: clear failure state, close the breaker, start cooldown."""
        if self._breaker_state != "closed":
            self._breaker_state = "closed"
            self._breaker_opened_at = None
            self._breaker_gauge.set(BREAKER_STATE_LEVELS["closed"])
            self.events.record("breaker", state="closed")
        self._consecutive_failures = 0
        self._backoff_until = None
        self._last_tune_at = time.monotonic()

    # ------------------------------------------------------------------
    # Acting on a decision
    # ------------------------------------------------------------------
    def _execute(self, decision: RefreshDecision) -> None:
        if not self._tune_lock.acquire(blocking=False):
            return  # another tune is in flight; the next poll re-evaluates
        started = time.perf_counter()
        try:
            swaps_before = self.service.snapshot().model_swaps
            rejected: list = []
            try:
                entry = self.service.refresh(
                    epochs=self.policy.refresh_epochs,
                    throttle=self._make_throttle(),
                    gate=self._canary_gate("refresh", rejected))
            except DomainGrowthError as error:
                if not self.policy.cold_train_on_growth:
                    self.events.record("error", stage="refresh",
                                       error=repr(error))
                    self._note_failure("refresh")
                    return
                if self._cold_train_rejected_here():
                    self._record_cold_train_skip("refresh")
                    return
                self._cold_train = start_cold_train(
                    self.service, epochs=self.policy.cold_train_epochs,
                    throttle=self._make_throttle(),
                    gate=self._canary_gate("cold_train"))
                self.events.record("cold_train", status="started",
                                   grown_columns=list(error.columns))
                return
            except Exception as error:  # noqa: BLE001 — log, keep serving
                self.events.record("error", stage="refresh", error=repr(error))
                self._note_failure("refresh")
                return
            if rejected:
                # Canary turned the candidate away: not a fault (backoff
                # would punish a control plane doing its job), but the tune
                # burned real cycles, so the success cooldown still applies.
                self._last_tune_at = time.monotonic()
                return
            # refresh() returns None both for "tuned, no registry" and for
            # "nothing to do" (the triggers can fire on pure accuracy decay
            # with zero staleness); only a real swap earns a refresh event,
            # a rebased baseline, and a retention sweep.
            if (entry is None
                    and self.service.snapshot().model_swaps == swaps_before):
                self.events.record("decision", action="refresh_noop",
                                   reasons=list(decision.reasons))
                self._last_tune_at = time.monotonic()
                return
            self.events.record(
                "refresh", reasons=list(decision.reasons),
                version=entry.version if entry is not None
                else self.service.model_version,
                data_version=self.service.data_version,
                seconds=round(time.perf_counter() - started, 3))
            self._after_tune()
            self._note_success()
        finally:
            self._tune_seconds.observe(time.perf_counter() - started,
                                       stage="refresh")
            self._consecutive_hits = 0
            self._tune_lock.release()

    def _maybe_compact(self) -> LifecycleEvent | None:
        """Compact a tombstone-heavy store and escalate; ``None`` when idle.

        Compaction is cheap but the cold train it escalates to is not, so
        the check respects the tune cooldown, the failure backoff/breaker,
        and the at-most-one-tune rule (the tombstone fraction persists, so a
        skipped opportunity simply fires on a later poll).  Like every
        scheduler action it is error-contained: a failure is logged, feeds
        the failure backoff, and serving continues against the uncompacted
        store.
        """
        if not self.compaction.should_compact(getattr(self.service, "store",
                                                      None)):
            return None
        if self._breaker_state == "open" or self._in_backoff():
            return None
        if self._in_cooldown():
            return None
        if not self._tune_lock.acquire(blocking=False):
            return None
        compact_started = time.perf_counter()
        try:
            rejected_here = self._cold_train_rejected_here()
            report = self.compaction.compact(self.service)
            event = self.events.record(
                "compaction",
                tombstone_fraction=round(report.tombstone_fraction, 4),
                dropped_rows=report.dropped_rows,
                data_version=report.data_version)
            self._last_tune_at = time.monotonic()
            if rejected_here:
                # Compaction keeps the live rows bit-for-bit, so the verdict
                # on them carries over to the version the rewrite published.
                self._rejected_cold_train_version = report.data_version
                self._record_cold_train_skip("compaction")
                return event
            # The served model's delta base predates the new chunk layout:
            # fine-tuning can no longer see what changed, so go straight to
            # the background cold-train/swap path.
            self._cold_train = start_cold_train(
                self.service, epochs=self.policy.cold_train_epochs,
                throttle=self._make_throttle(),
                gate=self._canary_gate("cold_train"))
            self.events.record("cold_train", status="started",
                               reason="compaction")
            return event
        except Exception as error:  # noqa: BLE001 — log, keep serving
            self._note_failure("compaction")
            return self.events.record("error", stage="compaction",
                                      error=repr(error))
        finally:
            self._tune_seconds.observe(time.perf_counter() - compact_started,
                                       stage="compaction")
            self._tune_lock.release()

    def _finalise_cold_train(self) -> LifecycleEvent | None:
        """Bookkeeping for an in-flight escalation; ``None`` when idle.

        While a cold train runs, polling reports instead of tuning (the
        at-most-one-tune rule); once it lands, record the outcome, rebase
        the drift baseline onto the new model, and run retention.
        """
        with self._finalise_lock:
            pending = self._cold_train
            if pending is None:
                return None
            if not pending.done:
                return self.events.record("decision", action="cold_train_pending")
            self._cold_train = None
        if pending.error is not None:
            self._note_failure("cold_train")
            return self.events.record("error", stage="cold_train",
                                      error=repr(pending.error))
        if pending.rejected:
            # The canary already recorded its canary_reject; the incumbent
            # keeps serving, and the wasted training cost starts a cooldown.
            self._last_tune_at = time.monotonic()
            self._rejected_cold_train_version = pending.data_version
            return self.events.record("cold_train", status="rejected",
                                      data_version=pending.data_version)
        event = self.events.record(
            "cold_train", status="swapped",
            version=pending.entry.version if pending.entry is not None
            else self.service.model_version,
            data_version=pending.data_version)
        self._after_tune()
        self._note_success()
        return event

    def _cold_train_rejected_here(self) -> bool:
        """Whether a cold train was already canary-rejected on the store's data."""
        return self._store_stat("data_version") == self._rejected_cold_train_version

    def _record_cold_train_skip(self, trigger: str) -> LifecycleEvent:
        return self.events.record(
            "decision", action="cold_train_skipped", trigger=trigger,
            data_version=self._rejected_cold_train_version)

    def _after_tune(self) -> None:
        """Post-tune hygiene: rebase drift baseline, apply retention."""
        try:
            baseline = self.monitor.rebase()
        except Exception as error:  # noqa: BLE001 — log, keep serving
            self.events.record("error", stage="rebase", error=repr(error))
            baseline = None
        report = self.retention.apply(self.service)
        self.events.record(
            "retention",
            pruned_model_versions=list(report.pruned_model_versions),
            trimmed_store_versions=report.trimmed_store_versions,
            baseline_qerror=baseline)

    def _canary_gate(self, stage: str, rejected: list | None = None):
        """Build the shadow-evaluation gate for one tune attempt.

        Returns ``None`` when canary gating is disabled
        (``canary_margin=None``).  The gate records a ``canary_pass`` /
        ``canary_reject`` event per verdict and appends reject reports to
        ``rejected`` (the caller's box for telling a rejection apart from a
        no-op).  An evaluation *error* fails open — a broken canary must not
        be able to park refreshes forever — but is logged.
        """
        shadow = getattr(self, "shadow", None)
        if shadow is None or not shadow.enabled:
            return None

        def gate(candidate) -> bool:
            try:
                report = shadow.evaluate(candidate)
            except Exception as error:  # noqa: BLE001 — fail open
                self.events.record("error", stage=f"canary_{stage}",
                                   error=repr(error))
                return True
            self.events.record(
                "canary_pass" if report.passed else "canary_reject",
                stage=stage, reason=report.reason,
                candidate_median=report.candidate_median,
                incumbent_median=report.incumbent_median,
                margin=report.margin, probe_size=report.probe_size)
            if (report.candidate_median is not None
                    and report.incumbent_median):
                self._canary_gauge.set(report.candidate_median
                                       / report.incumbent_median)
            if not report.passed and rejected is not None:
                rejected.append(report)
            return report.passed

        return gate

    def _make_throttle(self):
        """Backpressure hook for the tuning loop: yield every K steps.

        Doubles as the trainer's fault seam: an installed
        :class:`~repro.lifecycle.FaultInjector` fires at ``trainer.step``
        on every optimiser step, inside the training loop but outside the
        serving path.
        """
        policy = self.policy
        injector = getattr(self, "fault_injector", None)
        if policy.tune_yield_seconds <= 0 and injector is None:
            return None
        steps = 0

        def throttle() -> None:
            nonlocal steps
            steps += 1
            if injector is not None:
                injector.fire("trainer.step", step=steps)
            if (policy.tune_yield_seconds > 0
                    and steps % policy.tune_slice_batches == 0):
                time.sleep(policy.tune_yield_seconds)

        return throttle

    # ------------------------------------------------------------------
    # Introspection / synchronisation
    # ------------------------------------------------------------------
    @property
    def cold_train_in_flight(self) -> bool:
        return self._cold_train is not None and not self._cold_train.done

    def quiesce(self, timeout: float | None = None) -> bool:
        """Wait for any in-flight cold train and fold its result in.

        Returns ``True`` when no escalation is pending afterwards.  Used by
        tests and soak drivers that need a deterministic "controller is
        idle" point.
        """
        pending = self._cold_train
        if pending is None:
            return True
        if not pending.wait(timeout):
            return False
        self._finalise_cold_train()
        return True
