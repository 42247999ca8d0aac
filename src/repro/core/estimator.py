"""Algorithm 3: sampling-free cardinality estimation with a single forward pass.

Two execution paths share the same query translation and zero-out masks:

* the **tape path** runs through the autograd :class:`~repro.nn.Tensor`
  graph — differentiable, used for training and as the equivalence oracle;
* the **compiled path** (:meth:`DuetEstimator.compile`) runs a lowered
  :class:`~repro.core.compiled.CompiledDuetModel` — masks folded, buffers
  reused, fused masked selectivity, optional ``float32`` — and is the one
  the serving layer drives.
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
        self._compiled: CompiledDuetModel | None = None
        self._use_compiled = False
        #: registry version this estimator was loaded from (set by
        #: ModelRegistry.load_estimator; None for ad-hoc estimators)
        self.model_version: str | None = None
        #: store version of the data the model was trained on; picked up
        #: from a Snapshot table when available, else set by the registry
        self.data_version: int | None = getattr(model.table, "data_version", None)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, options: PlanOptions | None = None) -> "DuetEstimator":
        """Lower the model into a grad-free plan and make it the default path.

        Weights are snapshotted at compile time — call ``compile()`` again
        after further training to refresh the plan.  Returns ``self`` so
        ``DuetEstimator(model).compile()`` reads naturally.
        """
        self._compiled = CompiledDuetModel(self.model, options)
        self._use_compiled = True
        return self

    @property
    def compiled(self) -> bool:
        """Whether estimates run through the compiled plan by default."""
        return self._use_compiled and self._compiled is not None

    @property
    def compile_options(self) -> PlanOptions | None:
        """Options of the active compiled plan (``None`` when uncompiled).

        Guarded by :attr:`compiled`, not just plan presence: an explicit
        ``estimate_batch_with_breakdown(..., compiled=True)`` caches a plan
        without flipping the default path, and must not make this estimator
        look compiled to callers that persist or branch on the options.
        """
        return self._compiled.options if self.compiled else None

    def timed_batch_runner(self, options: PlanOptions | None = None
                           ) -> Callable[[Sequence[Query]],
                                         tuple[np.ndarray, EstimationBreakdown]]:
        """A compiled ``queries -> (estimates, breakdown)`` runner.

        Reuses this estimator's existing plan when its options match (plans
        serialise on their own lock, so sharing is safe); otherwise builds a
        private plan — either way the estimator's own default path is not
        flipped, so the tape stays available as the equivalence oracle.
        """
        options = options or PlanOptions()
        if self._compiled is not None and self._compiled.options == options:
            compiled = self._compiled
        else:
            compiled = CompiledDuetModel(self.model, options)

        def runner(queries):
            return self._run_batch(list(queries), compiled)

        # Expose the plan so callers can reach through for per-stage plan
        # profiling without widening the queries -> (estimates, breakdown)
        # runner contract.
        runner.compiled = compiled
        return runner

    def tape_batch_runner(self) -> Callable[[Sequence[Query]],
                                            tuple[np.ndarray, EstimationBreakdown]]:
        """A ``queries -> (estimates, breakdown)`` runner pinned to the tape.

        For callers (``ServingConfig(compiled=False)``) that need the
        autograd path regardless of how this estimator was compiled — e.g.
        bit-exact reproducibility with an uncompiled reference.
        """
        return lambda queries: self._run_batch(list(queries), None)

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(self, query: Query) -> float:
        return float(self.estimate_batch([query])[0])

    def estimate_batch(self, queries: Sequence[Query]) -> np.ndarray:
        estimates, _ = self.estimate_batch_with_breakdown(queries)
        return estimates

    def estimate_batch_with_breakdown(
        self, queries: Sequence[Query], compiled: bool | None = None
    ) -> tuple[np.ndarray, EstimationBreakdown]:
        """Estimate a batch and report its per-stage :class:`EstimationBreakdown`.

        ``compiled`` forces a path: ``True`` uses the lowered plan (compiling
        with default options on first use), ``False`` the tape path, ``None``
        (default) whatever :meth:`compile` selected.
        """
        queries = list(queries)
        use_compiled = self.compiled if compiled is None else compiled
        if use_compiled and self._compiled is None:
            self._compiled = CompiledDuetModel(self.model)
        plan = self._compiled if use_compiled else None
        return self._run_batch(queries, plan)

    def _run_batch(self, queries: list[Query],
                   compiled: CompiledDuetModel | None
                   ) -> tuple[np.ndarray, EstimationBreakdown]:
        if not queries:
            return (np.zeros(0, dtype=np.float64),
                    EstimationBreakdown(translate=0.0, encode=0.0,
                                        forward=0.0, mask=0.0))
        start = time.perf_counter()
        values, ops, masks = self.model.codec.translate_batch(queries)
        after_translate = time.perf_counter()
        if compiled is not None:
            with compiled.lock:
                encoded = compiled.encode(values, ops)
                after_encoding = time.perf_counter()
                logits = compiled.logits(encoded)
                after_forward = time.perf_counter()
                selectivity = compiled.selectivity_from_logits(logits, masks)
                after_mask = time.perf_counter()
        else:
            self.model.eval()
            with no_grad():
                encoded = self.model.encode_batch(values, ops)
                after_encoding = time.perf_counter()
                outputs = self.model.made(encoded)
                after_forward = time.perf_counter()
                selectivity = self.model.selectivity_from_outputs(outputs, masks).numpy()
                after_mask = time.perf_counter()
        selectivity = np.clip(selectivity, 0.0, 1.0)
        estimates = selectivity * self.table.num_rows
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
