"""Predicate encoding for Duet (§IV-C "Encoding" and §IV-F of the paper).

Each column owns one *predicate block* in the model input.  A block encodes
up to ``P`` predicates on that column, each predicate being:

* a one-hot vector over the five operators ``=, >, <, >=, <=`` plus one
  leading *presence* bit (all zeros = wildcard, i.e. the column is not
  constrained — the paper's wildcard-skipping), and
* an encoding of the predicate literal's dictionary code — ``binary``
  (``ceil(log2(NDV))`` bits, the paper default), ``onehot`` (NDV bits), or
  ``embedding`` for very large domains (the value part is then looked up in
  a learned embedding owned by the model).

Queries are first translated into *canonical code-space predicates*: each
predicate's inclusive code interval, read from the table's
:class:`~repro.workload.CodeIntervals` memo, becomes one ``(operator, code)``
pair, so that training (Algorithm 1 samples directly in code space) and
inference see exactly the same representation.  Algorithm 3's zero-out reads
the same intervals, intersected per query and column, as one ``(low, high)``
pair of ``(batch, num_columns)`` arrays.
"""

from __future__ import annotations

import numpy as np

from ..data.store import DomainGrowthError
from ..data.table import Table
from ..workload.predicates import Operator
from ..workload.query import CodeIntervals, Query
from .config import DuetConfig

__all__ = [
    "NUM_OPERATORS",
    "OPERATOR_FEATURE_WIDTH",
    "binary_width",
    "resolve_value_strategy",
    "ColumnPredicateEncoder",
    "QueryCodec",
]

#: number of predicate operators supported (=, >, <, >=, <=)
NUM_OPERATORS = 5
#: presence bit + operator one-hot
OPERATOR_FEATURE_WIDTH = 1 + NUM_OPERATORS

_OP_EQ = Operator.EQ.index
_OP_GE = Operator.GE.index
_OP_LE = Operator.LE.index


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Boolean array marking the first element of each run of equal values."""
    starts = np.empty(sorted_values.size, dtype=bool)
    starts[0] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=starts[1:])
    return starts


def binary_width(num_distinct: int) -> int:
    """Number of bits of the binary code encoding for a domain of ``num_distinct``."""
    if num_distinct <= 1:
        return 1
    return int(np.ceil(np.log2(num_distinct)))


def resolve_value_strategy(num_distinct: int, config: DuetConfig) -> str:
    """Pick the literal encoding for a column.

    Follows the paper: the configured strategy is used except for very large
    domains, which fall back to a learned embedding.
    """
    if config.value_encoding == "embedding":
        return "embedding"
    if num_distinct > config.embedding_threshold:
        return "embedding"
    return config.value_encoding


class ColumnPredicateEncoder:
    """Encodes the predicates of one column into its fixed-width block."""

    def __init__(self, column_index: int, num_distinct: int, config: DuetConfig) -> None:
        self.column_index = column_index
        self.num_distinct = num_distinct
        self.strategy = resolve_value_strategy(num_distinct, config)
        if self.strategy == "binary":
            self.value_width = binary_width(num_distinct)
        elif self.strategy == "onehot":
            self.value_width = num_distinct
        else:  # embedding — the value part is produced by the model
            self.value_width = config.embedding_dim
        #: width of one encoded predicate (operator features + value features)
        self.predicate_width = OPERATOR_FEATURE_WIDTH + self.value_width

    # ------------------------------------------------------------------
    @property
    def needs_embedding(self) -> bool:
        return self.strategy == "embedding"

    # ------------------------------------------------------------------
    def encode_operator_features(self, ops: np.ndarray) -> np.ndarray:
        """Presence bit + operator one-hot; ``op == -1`` means wildcard."""
        ops = np.asarray(ops, dtype=np.int64)
        features = np.zeros(ops.shape + (OPERATOR_FEATURE_WIDTH,), dtype=np.float64)
        present = ops >= 0
        features[..., 0] = present
        clipped = np.where(present, ops, 0)
        one_hot = np.eye(NUM_OPERATORS)[clipped] * present[..., None]
        features[..., 1:] = one_hot
        return features

    def encode_value_features(self, codes: np.ndarray) -> np.ndarray:
        """Literal encoding for non-embedding strategies; ``code == -1`` -> zeros."""
        if self.needs_embedding:
            raise RuntimeError("embedding columns are encoded by the model, "
                               "not by the static encoder")
        codes = np.asarray(codes, dtype=np.int64)
        present = codes >= 0
        clipped = np.where(present, codes, 0)
        if self.strategy == "binary":
            bits = ((clipped[..., None] >> np.arange(self.value_width)) & 1)
            return bits.astype(np.float64) * present[..., None]
        one_hot = np.eye(self.num_distinct)[clipped]
        return one_hot * present[..., None]

    def encode(self, codes: np.ndarray, ops: np.ndarray) -> np.ndarray:
        """Full per-predicate encoding ``(..., predicate_width)`` (non-embedding)."""
        operator_features = self.encode_operator_features(ops)
        value_features = self.encode_value_features(codes)
        return np.concatenate([operator_features, value_features], axis=-1)


class QueryCodec:
    """Translates :class:`Query` objects into code-space arrays and intervals."""

    def __init__(self, table: Table, config: DuetConfig) -> None:
        self.table = table
        self.config = config
        self.max_predicates = (config.max_predicates_per_column
                               if config.multi_predicate else 1)
        self.encoders = [
            ColumnPredicateEncoder(index, column.num_distinct, config)
            for index, column in enumerate(table.columns)
        ]
        self._last = np.array([column.num_distinct - 1 for column in table.columns],
                              dtype=np.int64)
        self.intervals = CodeIntervals(table)

    # ------------------------------------------------------------------
    def ensure_compatible(self, table: Table) -> None:
        """Check that ``table``'s domains match the ones this codec encodes.

        The model's predicate encodings and output bins are sized to each
        column's NDV and code order, so a table is only interchangeable when
        every column carries the *identical* sorted distinct values.  Raises
        a typed :class:`~repro.data.DomainGrowthError` naming the offending
        columns otherwise — the caller must cold-train a new model.
        """
        if table.column_names != self.table.column_names:
            raise DomainGrowthError(
                f"table {table.name!r} has columns {table.column_names} but the "
                f"codec encodes {self.table.column_names}",
                columns=tuple(set(table.column_names)
                              ^ set(self.table.column_names)))
        changed = [
            ours.name
            for ours, theirs in zip(self.table.columns, table.columns)
            if ours.num_distinct != theirs.num_distinct
            or not np.array_equal(ours.distinct_values, theirs.distinct_values)
        ]
        if changed:
            raise DomainGrowthError(
                f"columns {changed} of table {table.name!r} have different "
                f"domains than the ones this model was trained on; domain "
                f"growth changes the encoding and output shapes — train a new "
                f"model (DuetTrainer) instead of rebinding/fine-tuning",
                columns=tuple(changed))

    def rebind(self, table: Table) -> None:
        """Re-point the codec at a new snapshot with identical domains.

        This is the *re-encode* path for data change without domain growth:
        predicate translation only depends on the sorted distinct values, so
        after the compatibility check the swap is free (the interval memo
        stays valid for the same reason).  Grown domains raise
        :class:`~repro.data.DomainGrowthError` instead.
        """
        self.ensure_compatible(table)
        self.table = table
        self.intervals.table = table

    # ------------------------------------------------------------------
    def translate_batch(self, queries: list[Query]
                        ) -> tuple[np.ndarray, np.ndarray,
                                   tuple[np.ndarray, np.ndarray]]:
        """One-pass batched translation: ``(values, ops, intervals)``.

        Every predicate's code interval is read from the
        :class:`~repro.workload.CodeIntervals` memo (computed once per
        distinct predicate); the canonical code arrays and the zero-out
        intervals are both derived from those rows.  A one-sided interval
        becomes ``<= high`` or ``>= low``, a single code ``= code``, an empty
        one an equality on the nearest code (its interval then zeroes the
        estimate).

        ``intervals = (low, high)`` are ``(batch, num_columns)`` arrays: the
        inclusive code interval each query allows on each column, i.e. the
        intersection of its predicates there.  An unconstrained cell is the
        full domain ``[0, NDV - 1]``; an unsatisfiable one has ``low > high``.
        """
        batch = len(queries)
        num_columns = self.table.num_columns
        shape = (batch, num_columns, self.max_predicates)
        values = np.full(shape, -1, dtype=np.int64)
        ops = np.full(shape, -1, dtype=np.int64)
        interval_low = np.zeros((batch, num_columns), dtype=np.int64)
        interval_high = np.repeat(self._last[None, :], batch, axis=0)
        intervals = (interval_low, interval_high)

        # Queries outer, predicates inner: the order slot assignment relies on.
        rows_of = self.intervals.rows
        flat = [(query_index, *row) for query_index, query in enumerate(queries)
                for row in rows_of(query)]
        if not flat:
            return values, ops, intervals
        qi, ci, low, high = np.array(flat, dtype=np.int64).T

        # Canonical (operator, code) pairs.  Later assignments override
        # earlier ones: GE default, then low == 0, low == high, unsatisfiable.
        canonical_op = np.full(qi.size, _OP_GE, dtype=np.int64)
        canonical_code = low.copy()
        is_low_zero = low == 0
        canonical_op[is_low_zero] = _OP_LE
        canonical_code[is_low_zero] = high[is_low_zero]
        canonical_op[low == high] = _OP_EQ
        unsat = low > high
        canonical_op[unsat] = _OP_EQ
        canonical_code[unsat] = np.clip(low[unsat], 0, self._last[ci[unsat]])

        # Slot assignment: occurrence index within each (query, column) pair,
        # in predicate order (stable sort preserves it).
        order = np.argsort(qi * num_columns + ci, kind="stable")
        rows, cols = qi[order], ci[order]
        group_first = np.flatnonzero(_run_starts(rows * num_columns + cols))
        group_sizes = np.diff(np.append(group_first, order.size))
        slots = np.arange(order.size) - np.repeat(group_first, group_sizes)
        if (slots >= self.max_predicates).any():
            raise ValueError(
                f"query has {int(group_sizes.max())} predicates on column "
                f"{self.table.column(int(cols[np.argmax(slots)])).name!r} but "
                f"the model was configured for at most {self.max_predicates}; "
                f"enable multi_predicate / raise max_predicates_per_column")

        # One interval per (query, column): the intersection of its
        # predicates' intervals over the groups sorted above.
        group_rows, group_cols = rows[group_first], cols[group_first]
        interval_low[group_rows, group_cols] = np.maximum.reduceat(low[order],
                                                                   group_first)
        interval_high[group_rows, group_cols] = np.minimum.reduceat(high[order],
                                                                    group_first)
        values[rows, cols, slots] = canonical_code[order]
        ops[rows, cols, slots] = canonical_op[order]
        return values, ops, intervals

    # ------------------------------------------------------------------
    def queries_to_code_arrays(self, queries: list[Query]
                               ) -> tuple[np.ndarray, np.ndarray]:
        """Batch of queries -> ``(values, ops)`` arrays.

        Both arrays have shape ``(batch, num_columns, max_predicates)`` and
        use ``-1`` for "no predicate in this slot".
        """
        values, ops, _ = self.translate_batch(queries)
        return values, ops
