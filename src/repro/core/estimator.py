"""Algorithm 3: sampling-free cardinality estimation with a single forward pass.

Two execution paths share the same query translation and zero-out (one
``(low, high)`` code interval per query and column):

* the **tape path** (:meth:`DuetEstimator.estimate_batch_with_breakdown`)
  runs through the autograd :class:`~repro.nn.Tensor` graph —
  differentiable, used for training, the Fig. 6 phase split and as the
  equivalence oracle;
* the **compiled path** (:meth:`DuetEstimator.timed_batch_runner`) runs a
  freshly lowered :class:`~repro.core.compiled.CompiledDuetModel` — masks
  folded, buffers reused, fused masked selectivity, optional ``float32`` —
  and is the one the serving layer drives.  It is the only way to get a
  plan.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from ..nn import PlanOptions, no_grad
from ..workload.query import Query
from .compiled import CompiledDuetModel
from .interface import CardinalityEstimator
from .model import DuetModel

__all__ = ["DuetEstimator", "EstimationBreakdown"]


class EstimationBreakdown(dict):
    """Per-stage wall-clock cost of one batch estimation (seconds).

    Keys, in execution order: ``translate`` (query predicates into
    code-space arrays), ``encode`` (code arrays into the MADE input matrix),
    ``forward`` (the network forward pass) and ``mask`` (zero-out and
    product over the output blocks).  The batch runner is the only place
    the request path is timed; the request tracer renders these keys as
    spans under the same names.

    The paper's two-phase split (Figures 6 and 7) is derived here, once:
    :attr:`encoding` is ``translate + encode`` and :attr:`inference` is
    ``forward + mask``.
    """

    @property
    def encoding(self) -> float:
        return self["translate"] + self["encode"]

    @property
    def inference(self) -> float:
        return self["forward"] + self["mask"]


class DuetEstimator(CardinalityEstimator):
    """The paper's estimator: deterministic, O(1) forward passes per query."""

    name = "duet"

    def __init__(self, model: DuetModel) -> None:
        super().__init__(model.table)
        self.model = model
        #: registry version this estimator was loaded from (set by
        #: ModelRegistry.load_estimator; None for ad-hoc estimators)
        self.model_version: str | None = None
        #: store version of the data the model was trained on; picked up
        #: from a Snapshot table when available, else set by the registry
        self.data_version: int | None = getattr(model.table, "data_version", None)

    def timed_batch_runner(self, options: PlanOptions | None = None
                           ) -> Callable[[Sequence[Query]],
                                         tuple[np.ndarray, EstimationBreakdown]]:
        """A compiled ``queries -> (estimates, breakdown)`` runner.

        Builds one fresh plan from the current weights (a snapshot: training
        afterwards does not change it; build a new runner to pick the new
        weights up).  The runner translates queries and scales selectivities
        with the model its plan was built from, so a runner still in flight
        when the estimator's model is swapped keeps answering for its own
        model.  The estimator's tape path is left as it is.
        """
        compiled = CompiledDuetModel(self.model, options)

        def runner(queries):
            return self._run_batch(list(queries), compiled)

        # Expose the plan so callers can reach through for per-stage plan
        # profiling without widening the queries -> (estimates, breakdown)
        # runner contract.
        runner.compiled = compiled
        return runner

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(self, query: Query) -> float:
        return float(self.estimate_batch([query])[0])

    def estimate_batch(self, queries: Sequence[Query]) -> np.ndarray:
        estimates, _ = self.estimate_batch_with_breakdown(queries)
        return estimates

    def estimate_batch_with_breakdown(
        self, queries: Sequence[Query]
    ) -> tuple[np.ndarray, EstimationBreakdown]:
        """Estimate a batch on the tape and report its :class:`EstimationBreakdown`."""
        return self._run_batch(list(queries), None)

    def _run_batch(self, queries: list[Query],
                   compiled: CompiledDuetModel | None
                   ) -> tuple[np.ndarray, EstimationBreakdown]:
        # A plan answers for the model it was built from, whatever
        # self.model has been swapped to since.
        model = compiled.model if compiled is not None else self.model
        if not queries:
            return (np.zeros(0, dtype=np.float64),
                    EstimationBreakdown(translate=0.0, encode=0.0,
                                        forward=0.0, mask=0.0))
        start = time.perf_counter()
        values, ops, intervals = model.codec.translate_batch(queries)
        after_translate = time.perf_counter()
        if compiled is not None:
            with compiled.lock:
                encoded = compiled.encode(values, ops)
                after_encoding = time.perf_counter()
                logits = compiled.logits(encoded)
                after_forward = time.perf_counter()
                selectivity = compiled.selectivity_from_logits(logits, intervals)
                after_mask = time.perf_counter()
        else:
            model.eval()
            with no_grad():
                encoded = model.encode_batch(values, ops)
                after_encoding = time.perf_counter()
                outputs = model.made(encoded)
                after_forward = time.perf_counter()
                selectivity = model.selectivity_from_outputs(outputs, intervals).numpy()
                after_mask = time.perf_counter()
        selectivity = np.clip(selectivity, 0.0, 1.0)
        estimates = selectivity * model.table.num_rows
        breakdown = EstimationBreakdown(
            translate=after_translate - start,
            encode=after_encoding - after_translate,
            forward=after_forward - after_encoding,
            mask=after_mask - after_forward,
        )
        return estimates, breakdown

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        return self.model.size_bytes()

    @property
    def is_deterministic(self) -> bool:
        return True
