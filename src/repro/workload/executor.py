"""Exact ground-truth query execution.

Every experiment needs true cardinalities as labels (for training the
query-driven and hybrid methods) and as the reference of the Q-Error metric.
This executor computes them exactly with vectorised NumPy scans over the
dictionary-encoded code matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..data.store import TableDelta
from ..data.table import Table
from .query import CodeIntervals, Query

__all__ = ["execute", "cardinality", "selectivity", "true_cardinalities",
           "true_cardinalities_delta"]


def _require_data(table: Table) -> None:
    """Refuse tables that do not carry their tuples (schema-only stand-ins)."""
    if table.columns[0].num_rows != table.num_rows:
        raise ValueError(
            f"table {table.name!r} reports {table.num_rows} rows but its columns "
            f"carry {table.columns[0].num_rows} tuples (a schema-only stand-in?); "
            f"ground truth needs the data table")


def execute(table: Table, query: Query) -> np.ndarray:
    """Return the boolean row mask of tuples satisfying ``query``."""
    _require_data(table)
    query.validate(table)
    mask = np.ones(table.num_rows, dtype=bool)
    for predicate in query.predicates:
        column = table.column(predicate.column)
        mask &= predicate.evaluate_codes(column, column.codes)
        if not mask.any():
            break
    return mask


def cardinality(table: Table, query: Query) -> int:
    """Exact number of tuples satisfying ``query``."""
    return int(execute(table, query).sum())


def selectivity(table: Table, query: Query) -> float:
    """Exact selectivity ``cardinality / num_rows``."""
    return cardinality(table, query) / max(table.num_rows, 1)


def true_cardinalities(table: Table, queries: Sequence[Query],
                       chunk_size: int = 32) -> np.ndarray:
    """Exact cardinalities of a batch of queries.

    Queries are labelled in chunks of ``chunk_size``: every query's
    predicates are first intersected into one inclusive code interval per
    constrained column (conjunctions of interval predicates stay intervals),
    then, per chunk, each constrained column's code array is scanned **once**
    against all the chunk's intervals instead of once per query.  Queries
    with an unsatisfiable interval are answered 0 without touching the data,
    and predicates covering a column's whole domain are dropped.  The chunk
    size keeps the per-chunk boolean row masks cache-resident — larger is
    not faster.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    _require_data(table)
    queries = list(queries)
    num_queries = len(queries)
    intervals, unsatisfiable = _interval_index(table, queries)
    counts = np.full(num_queries, table.num_rows, dtype=np.int64)

    # Columns constraining many queries go first so the first column can
    # seed the chunk mask directly instead of AND-ing into an all-ones one.
    column_order = sorted(intervals, key=lambda index: -len(intervals[index]))
    # One uint32 cast per column per call (shared by all chunks) halves the
    # memory traffic of the scans and enables the single-comparison trick.
    codes_by_column = {index: table.column(index).codes.astype(np.uint32)
                       for index in column_order}

    for start in range(0, num_queries, chunk_size):
        stop = min(start + chunk_size, num_queries)
        mask: np.ndarray | None = None
        for column_index in column_order:
            per_query = intervals[column_index]
            rows = np.array([index - start for index in range(start, stop)
                             if index in per_query and not unsatisfiable[index]],
                            dtype=np.int64)
            if not rows.size:
                continue
            codes = codes_by_column[column_index]
            lows = np.array([per_query[start + row][0] for row in rows],
                            dtype=np.uint32)
            spans = np.array([per_query[start + row][1] - per_query[start + row][0]
                              for row in rows], dtype=np.uint32)
            # One pass over this column's codes for the whole chunk; the
            # unsigned subtraction folds ``low <= code <= high`` into a
            # single comparison (out-of-range wraps around to a huge value).
            satisfied = (codes[None, :] - lows[:, None]) <= spans[:, None]
            if mask is None:
                if rows.size == stop - start:
                    mask = satisfied
                else:
                    mask = np.ones((stop - start, table.num_rows), dtype=bool)
                    mask[rows] &= satisfied
            elif rows.size == stop - start:
                mask &= satisfied
            else:
                mask[rows] &= satisfied
        if mask is not None:
            counts[start:stop] = mask.sum(axis=1)
    counts[unsatisfiable] = 0
    return counts


def true_cardinalities_delta(delta: TableDelta, queries: Sequence[Query],
                             base_counts: np.ndarray,
                             chunk_size: int = 32) -> np.ndarray:
    """Relabel a workload after a mutation by scanning only the changed rows.

    ``base_counts`` must be the exact counts of ``queries`` on the delta's
    base snapshot (``true_cardinalities(base_snapshot, queries)``).  The new
    live view is ``(base \\ removed) ∪ appended`` with the three sets
    pairwise disjoint, counts are additive over disjoint row sets, and
    predicates compare *raw* values (dictionary growth re-codes rows but
    never changes which rows satisfy a predicate) — so labeling the appended
    rows and the removed rows with the same vectorised kernel and computing
    ``base + appended - removed`` matches a full rescan of the new live view
    bit-for-bit, at the cost of scanning only the churned rows.

    The one case that breaks value semantics is a dtype *promotion* (e.g. a
    numeric column turned into strings by a later append): string comparison
    orders differently, so base counts are no longer reusable and this
    function refuses with a :class:`ValueError`.
    """
    queries = list(queries)
    base_counts = np.asarray(base_counts, dtype=np.int64)
    if base_counts.shape != (len(queries),):
        raise ValueError(
            f"base_counts has shape {base_counts.shape} but {len(queries)} "
            f"queries were given")
    if delta.promoted_columns:
        raise ValueError(
            f"columns {list(delta.promoted_columns)} changed dtype between the "
            f"base and new snapshots; base counts are not reusable — relabel "
            f"with true_cardinalities on the new snapshot")
    counts = base_counts.copy()
    if delta.appended_rows:
        counts += true_cardinalities(delta.appended, queries,
                                     chunk_size=chunk_size)
    if delta.removed_rows:
        counts -= true_cardinalities(delta.removed, queries,
                                     chunk_size=chunk_size)
    return counts


def _interval_index(table: Table, queries: Sequence[Query]
                    ) -> tuple[dict[int, dict[int, tuple[int, int]]], np.ndarray]:
    """Intersect each query's :class:`CodeIntervals` rows per column.

    Returns ``(intervals, unsatisfiable)`` where ``intervals[column][query]``
    is the inclusive code interval query ``query`` places on ``column``
    (predicates covering the whole domain constrain nothing and are absent)
    and ``unsatisfiable`` flags queries whose interval on some column is
    empty (cardinality 0 by construction).
    """
    rows_of = CodeIntervals(table).rows
    intervals: dict[int, dict[int, tuple[int, int]]] = {}
    unsatisfiable = np.zeros(len(queries), dtype=bool)
    for query_index, query in enumerate(queries):
        query.validate(table)
        per_column: dict[int, tuple[int, int]] = {}
        for column_index, low, high in rows_of(query):
            previous = per_column.get(column_index)
            if previous is not None:
                low, high = max(previous[0], low), min(previous[1], high)
            per_column[column_index] = (low, high)
        for column_index, (low, high) in per_column.items():
            if low > high:
                unsatisfiable[query_index] = True
            else:
                intervals.setdefault(column_index, {})[query_index] = (low, high)
    return intervals, unsatisfiable
