"""MSCN-style query-driven estimator (Kipf et al., the paper's "MSCN" baseline).

MSCN treats cardinality estimation as regression from a featurised query to
its (log-)cardinality.  For single-table selection queries its set
convolution reduces to: embed every predicate with a shared MLP, average the
embeddings, and regress with a second MLP.  The model is trained purely on
labelled queries, which is why it suffers from workload drift — the property
Duet's Rand-Q experiments expose.

The predicted target is the normalised log-cardinality
``log(card + 1) / log(|T| + 1)`` squashed through a sigmoid, the standard
MSCN trick that keeps the regression target in ``[0, 1]``.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor
from ..nn import functional as F
from ..data.table import Table
from ..workload.query import Query
from ..workload.workload import Workload
from .base import CardinalityEstimator

__all__ = ["MSCNEstimator"]


class _MSCNNetwork(nn.Module):
    """Shared predicate MLP + aggregation + output MLP."""

    def __init__(self, feature_width: int, hidden_size: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.predicate_mlp = nn.Sequential(
            nn.Linear(feature_width, hidden_size, rng=rng), nn.ReLU(),
            nn.Linear(hidden_size, hidden_size, rng=rng), nn.ReLU(),
        )
        self.output_mlp = nn.Sequential(
            nn.Linear(hidden_size, hidden_size, rng=rng), nn.ReLU(),
            nn.Linear(hidden_size, 1, rng=rng),
        )

    def forward(self, features: Tensor, presence: np.ndarray) -> Tensor:
        """``features``: (batch, slots, width); ``presence``: (batch, slots)."""
        embedded = self.predicate_mlp(features)
        presence = np.asarray(presence, dtype=np.float64)
        weighted = embedded * Tensor(presence[..., None])
        counts = np.maximum(presence.sum(axis=1, keepdims=True), 1.0)
        pooled = weighted.sum(axis=1) / Tensor(counts)
        return self.output_mlp(pooled).sigmoid()


class MSCNEstimator(CardinalityEstimator):
    """Query-driven regression baseline."""

    name = "mscn"

    def __init__(self, table: Table, hidden_size: int = 64, learning_rate: float = 1e-3,
                 epochs: int = 30, batch_size: int = 128, seed: int = 0) -> None:
        super().__init__(table)
        self.hidden_size = hidden_size
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self._rng = np.random.default_rng(seed)
        # Feature: column one-hot + operator one-hot (5) + normalised literal code.
        self.feature_width = table.num_columns + 5 + 1
        self.network = _MSCNNetwork(self.feature_width, hidden_size, rng=self._rng)
        self._log_scale = float(np.log(table.num_rows + 1.0))
        self.training_losses: list[float] = []

    # ------------------------------------------------------------------
    def featurize(self, queries: list[Query]) -> tuple[np.ndarray, np.ndarray]:
        """Featurise queries into ``(batch, slots, width)`` + presence mask."""
        max_slots = max((query.num_predicates for query in queries), default=1)
        features = np.zeros((len(queries), max_slots, self.feature_width))
        presence = np.zeros((len(queries), max_slots))
        for query_index, query in enumerate(queries):
            for slot, predicate in enumerate(query.predicates):
                column_index = self.table.column_index(predicate.column)
                column = self.table.column(column_index)
                low, high = predicate.code_interval(column)
                code = low if low <= high else 0
                normalised = code / max(column.num_distinct - 1, 1)
                features[query_index, slot, column_index] = 1.0
                features[query_index, slot,
                         self.table.num_columns + predicate.operator.index] = 1.0
                features[query_index, slot, -1] = normalised
                presence[query_index, slot] = 1.0
        return features, presence

    def _targets(self, cardinalities: np.ndarray) -> np.ndarray:
        return np.log(np.maximum(cardinalities, 0) + 1.0) / self._log_scale

    # ------------------------------------------------------------------
    def fit(self, workload: Workload) -> "MSCNEstimator":
        """Train on a labelled workload."""
        if not workload.is_labeled:
            workload.label(self.table)
        features, presence = self.featurize(workload.queries)
        targets = self._targets(np.asarray(workload.cardinalities, dtype=np.float64))
        optimizer = nn.Adam(self.network.parameters(), lr=self.learning_rate)
        num_queries = features.shape[0]
        for _ in range(self.epochs):
            order = self._rng.permutation(num_queries)
            epoch_losses = []
            for start in range(0, num_queries, self.batch_size):
                picked = order[start:start + self.batch_size]
                prediction = self.network(Tensor(features[picked]), presence[picked])
                loss = F.mse_loss(prediction.reshape(-1), targets[picked])
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
            self.training_losses.append(float(np.mean(epoch_losses)))
        return self

    # ------------------------------------------------------------------
    def estimate(self, query: Query) -> float:
        return float(self.estimate_batch([query])[0])

    def estimate_batch(self, queries) -> np.ndarray:
        queries = list(queries)
        features, presence = self.featurize(queries)
        with nn.no_grad():
            prediction = self.network(Tensor(features), presence).numpy().reshape(-1)
        cardinalities = np.exp(prediction * self._log_scale) - 1.0
        return np.clip(cardinalities, 0.0, self.table.num_rows)

    def size_bytes(self) -> int:
        return self.network.size_bytes()
