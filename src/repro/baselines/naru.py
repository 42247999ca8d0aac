"""Naru: deep autoregressive cardinality estimation with progressive sampling.

Naru (Yang et al., VLDB 2020) learns the joint tuple distribution with a
MADE over the *values* of the table (equivalently: it only ever sees
equality information) and answers range queries at inference time with
*progressive sampling*: ``s`` sample paths walk the columns in order, each
constrained column costs one forward pass over all ``s`` paths, the
per-column masses are multiplied, and the mean over paths is the estimate.

This is the O(n)-forward-pass, randomised procedure whose cost, long-tail
behaviour and instability the Duet paper analyses (Problems 1, 2, 4);
implementing it faithfully is what makes the comparison benchmarks
meaningful.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from .. import nn
from ..nn import Tensor
from ..nn import functional as F
from ..data.table import Table
from ..workload.query import Query
from .base import CardinalityEstimator

__all__ = ["NaruModel", "NaruEstimator"]


class _ValueEncoder:
    """Binary value encoding (+ presence bit) of one column, as in Naru."""

    def __init__(self, num_distinct: int) -> None:
        self.num_distinct = num_distinct
        self.bit_width = max(1, int(np.ceil(np.log2(num_distinct)))) if num_distinct > 1 else 1
        self.width = self.bit_width + 1
        codes = np.arange(num_distinct)
        self.bit_matrix = ((codes[:, None] >> np.arange(self.bit_width)) & 1).astype(np.float64)

    def encode(self, codes: np.ndarray) -> np.ndarray:
        """``codes`` with ``-1`` for wildcard -> ``(batch, width)`` features."""
        codes = np.asarray(codes, dtype=np.int64)
        present = codes >= 0
        clipped = np.where(present, codes, 0)
        bits = self.bit_matrix[clipped] * present[:, None]
        return np.concatenate([present[:, None].astype(np.float64), bits], axis=1)

    def encode_soft(self, distribution: np.ndarray) -> np.ndarray:
        """Expected encoding under a distribution over codes (used by UAE)."""
        bits = distribution @ self.bit_matrix
        presence = np.ones((distribution.shape[0], 1))
        return np.concatenate([presence, bits], axis=1)


class NaruModel(nn.Module):
    """MADE over tuple values: outputs ``P(C_i | x_<i)`` for every column."""

    def __init__(self, table: Table, hidden_sizes: Sequence[int] = (128, 128),
                 residual: bool = False, seed: int = 0) -> None:
        super().__init__()
        self.table = table
        self.encoders = [_ValueEncoder(column.num_distinct) for column in table.columns]
        input_bins = [encoder.width for encoder in self.encoders]
        output_bins = [column.num_distinct for column in table.columns]
        self.made = nn.MADE(input_bins=input_bins, output_bins=output_bins,
                            hidden_sizes=list(hidden_sizes), residual=residual, seed=seed)

    # ------------------------------------------------------------------
    def encode(self, codes: np.ndarray) -> np.ndarray:
        """Encode a ``(batch, num_columns)`` code matrix (``-1`` = wildcard)."""
        blocks = [encoder.encode(codes[:, index])
                  for index, encoder in enumerate(self.encoders)]
        return np.concatenate(blocks, axis=1)

    def forward(self, codes: np.ndarray) -> Tensor:
        return self.made(Tensor(self.encode(codes)))

    def forward_encoded(self, encoded: Tensor) -> Tensor:
        return self.made(encoded)

    def column_logits(self, outputs: Tensor, column_index: int) -> Tensor:
        return self.made.column_logits(outputs, column_index)


class NaruEstimator(CardinalityEstimator):
    """Naru baseline: data-driven training + progressive-sampling inference."""

    name = "naru"

    def __init__(self, table: Table, hidden_sizes: Sequence[int] = (128, 128),
                 residual: bool = False, num_samples: int = 200,
                 learning_rate: float = 2e-3, batch_size: int = 256,
                 wildcard_dropout: float = 0.25, seed: int = 0) -> None:
        super().__init__(table)
        self.model = NaruModel(table, hidden_sizes=hidden_sizes, residual=residual, seed=seed)
        self.num_samples = num_samples
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.wildcard_dropout = wildcard_dropout
        self._rng = np.random.default_rng(seed)
        self._codes = table.code_matrix()
        self.optimizer = nn.Adam(self.model.parameters(), lr=learning_rate)
        self.training_losses: list[float] = []

    # ------------------------------------------------------------------
    # Training (maximum likelihood on tuples, with wildcard dropout)
    # ------------------------------------------------------------------
    def _data_loss(self, batch_codes: np.ndarray) -> Tensor:
        inputs = batch_codes.copy()
        if self.wildcard_dropout > 0:
            dropout_mask = self._rng.uniform(size=inputs.shape) < self.wildcard_dropout
            inputs[dropout_mask] = -1
        outputs = self.model.forward(inputs)
        return F.block_cross_entropy(outputs, self.model.made.output_block_slices(),
                                     batch_codes)

    def fit_epoch(self) -> float:
        """One pass over the table; returns the mean per-batch loss."""
        order = self._rng.permutation(self.table.num_rows)
        losses = []
        for start in range(0, self.table.num_rows, self.batch_size):
            batch = self._codes[order[start:start + self.batch_size]]
            loss = self._data_loss(batch)
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.step()
            losses.append(loss.item())
        mean_loss = float(np.mean(losses))
        self.training_losses.append(mean_loss)
        return mean_loss

    def fit(self, epochs: int = 5) -> "NaruEstimator":
        for _ in range(epochs):
            self.fit_epoch()
        return self

    # ------------------------------------------------------------------
    # Progressive-sampling inference
    # ------------------------------------------------------------------
    def _query_masks(self, query: Query) -> dict[int, np.ndarray]:
        masks: dict[int, np.ndarray] = {}
        for predicate in query.predicates:
            column_index = self.table.column_index(predicate.column)
            column = self.table.column(column_index)
            mask = predicate.valid_value_mask(column).astype(np.float64)
            masks[column_index] = masks.get(column_index, 1.0) * mask
        return masks

    def estimate(self, query: Query) -> float:
        estimate, _ = self.estimate_with_breakdown(query)
        return estimate

    def estimate_with_breakdown(self, query: Query) -> tuple[float, dict[str, float]]:
        """Progressive sampling with a per-phase wall-clock breakdown.

        The breakdown keys (``encoding``, ``inference``, ``sampling``) match
        the stacked bars of the paper's Figure 6.
        """
        query.validate(self.table)
        timings = {"encoding": 0.0, "inference": 0.0, "sampling": 0.0}

        start = time.perf_counter()
        masks = self._query_masks(query)
        timings["encoding"] += time.perf_counter() - start

        sample_codes = np.full((self.num_samples, self.table.num_columns), -1, dtype=np.int64)
        probabilities = np.ones(self.num_samples)
        with nn.no_grad():
            for column_index in range(self.table.num_columns):
                if column_index not in masks:
                    continue  # wildcard skipping: unconstrained columns are skipped
                start = time.perf_counter()
                outputs = self.model.forward(sample_codes)
                logits = self.model.column_logits(outputs, column_index)
                distribution = F.softmax(logits, axis=-1).numpy()
                timings["inference"] += time.perf_counter() - start

                start = time.perf_counter()
                masked = distribution * masks[column_index][None, :]
                masses = masked.sum(axis=1)
                probabilities *= masses
                normalised = np.where(masses[:, None] > 0,
                                      masked / np.maximum(masses[:, None], 1e-12),
                                      masks[column_index][None, :] /
                                      max(masks[column_index].sum(), 1.0))
                cumulative = np.cumsum(normalised, axis=1)
                draws = self._rng.uniform(size=(self.num_samples, 1))
                sampled = (draws < cumulative).argmax(axis=1)
                sample_codes[:, column_index] = sampled
                timings["sampling"] += time.perf_counter() - start

        selectivity = float(np.clip(probabilities.mean(), 0.0, 1.0))
        return selectivity * self.table.num_rows, timings

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        return self.model.size_bytes()

    @property
    def is_deterministic(self) -> bool:
        return False
