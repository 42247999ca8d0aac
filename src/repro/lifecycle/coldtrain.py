"""Cold-train escalation: when fine-tuning cannot absorb a change, retrain.

An append that grows a column's domain changes the model's encoding and
output shapes, so :meth:`EstimationService.refresh` raises a typed
:class:`~repro.data.DomainGrowthError` instead of fine-tuning.  Before the
lifecycle controller existed that error stopped the story; this module makes
domain growth degrade to *eventual freshness*: a brand-new
:class:`~repro.core.DuetModel` is trained on the offending snapshot (same
architecture config as the served model), registered under a new version,
and atomically swapped into the service — while the old model keeps serving
every request until the very last step.
"""

from __future__ import annotations

import threading

from ..core.model import DuetModel
from ..core.trainer import DuetTrainer

__all__ = ["ColdTrainResult", "cold_train_and_swap", "start_cold_train"]


class ColdTrainResult:
    """Outcome handle of one cold train (synchronous or background).

    ``wait()`` joins a background run; ``entry`` is the registry entry of
    the new model (``None`` when no registry is attached), ``error`` the
    exception that aborted the run (``None`` on success), ``rejected``
    whether the canary gate turned the trained candidate away (the model
    was neither registered nor swapped; the incumbent keeps serving).
    """

    def __init__(self) -> None:
        self.entry = None
        self.model: DuetModel | None = None
        self.data_version: int | None = None
        self.error: Exception | None = None
        self.rejected = False
        self._done = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def ok(self) -> bool:
        return self.done and self.error is None and not self.rejected

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)


def cold_train_and_swap(service, *, epochs: int | None = None,
                        training_workload=None, config=None,
                        throttle=None, version: str | None = None,
                        result: ColdTrainResult | None = None,
                        gate=None) -> ColdTrainResult:
    """Train a fresh model on the store's current snapshot and swap it in.

    Runs synchronously on the calling thread (the scheduler calls it from a
    background thread via :func:`start_cold_train`).  The served model is
    untouched until the final :meth:`~EstimationService.swap_model`, so
    serving never sees a half-trained model; a failure leaves the service
    exactly as it was and is reported on the returned result instead of
    raised, matching the controller's never-crash-serving contract.

    ``gate`` is the canary hook: called with the trained candidate before
    it is registered or swapped; returning falsy marks the result
    ``rejected`` and leaves service and registry untouched.  When the swap
    itself fails after registration, the just-saved version is discarded
    again so a never-served model cannot become the registry's protected
    "latest".
    """
    result = result or ColdTrainResult()
    try:
        if service.store is None:
            raise RuntimeError("cold_train_and_swap needs a service with a "
                               "live ColumnStore")
        snapshot = service.store.snapshot()
        served = getattr(service.estimator, "model", None)
        if config is None:
            if served is None:
                raise RuntimeError(
                    f"estimator {service.estimator.name!r} has no model to "
                    f"take an architecture config from; pass config=...")
            config = served.config
        model = DuetModel(snapshot, config)
        trainer = DuetTrainer(model, snapshot, training_workload, config,
                              throttle=throttle)
        trainer.train(epochs)
        result.model = model
        result.data_version = snapshot.data_version
        if gate is not None and not gate(model):
            result.rejected = True
            return result
        entry = None
        if service.registry is not None:
            entry = service.registry.save(
                model, service.dataset, version=version,
                metadata={"cold_trained": True,
                          "escalated_from": service.model_version},
                data_version=snapshot.data_version)
        try:
            service.swap_model(model, data_version=snapshot.data_version,
                               model_version=entry.version if entry else None)
        except Exception:
            if entry is not None:
                service.registry.discard(entry.dataset, entry.version)
            raise
        result.entry = entry
    except Exception as error:  # noqa: BLE001 — reported, never raised into serving
        result.error = error
    finally:
        result._done.set()
    return result


def start_cold_train(service, *, epochs: int | None = None,
                     training_workload=None, config=None, throttle=None,
                     version: str | None = None, gate=None) -> ColdTrainResult:
    """Run :func:`cold_train_and_swap` on a daemon thread; returns its handle."""
    result = ColdTrainResult()
    thread = threading.Thread(
        target=cold_train_and_swap,
        kwargs=dict(service=service, epochs=epochs,
                    training_workload=training_workload, config=config,
                    throttle=throttle, version=version, result=result,
                    gate=gate),
        name="repro-cold-train", daemon=True)
    result._thread = thread
    thread.start()
    return result
