"""Estimate cache: canonical query keys plus a thread-safe LRU store.

Online workloads repeat themselves (the paper's In-Q workloads model exactly
that locality), so the serving layer memoises estimates.  The cache key is
*canonical*: every predicate is translated into the inclusive code interval
it selects on its column (the table's :class:`~repro.workload.CodeIntervals`
memo, the same rows Duet's code arrays and zero-out intervals are built from),
predicates covering a whole domain are dropped, and the rows are sorted by
column while keeping predicate order within a column.  Two queries therefore
share a key exactly when the model sees the same input — regardless of the
order of their columns or of operator spelling (on an integer-coded domain
``x > 3`` and ``x >= 4`` select the same interval).  Predicates on one column
are *not* intersected into one interval: a multi-predicate model sees each
of them, and its estimate can depend on their number and order.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from operator import itemgetter
from typing import Hashable

from ..data.table import Table
from ..workload.query import CodeIntervals, Query

__all__ = ["QueryKeyEncoder", "EstimateCache"]


class QueryKeyEncoder:
    """Maps queries onto canonical, hashable cache keys for one table.

    ``namespace`` scopes every key to the serving identity producing the
    estimates — the service passes ``(dataset, model_version, data_version)``
    — so entries cached under one model can never be served after a hot-swap
    to another (the swap also flushes, but the key guards against any path
    that misses the flush, e.g. an external shared cache).
    """

    def __init__(self, table: Table, namespace: tuple | None = None) -> None:
        self.table = table
        self.namespace = namespace
        self._intervals = CodeIntervals(table)

    def key(self, query: Query) -> tuple:
        """Canonical key: the query's ``(column, low, high)`` interval rows.

        Rows are sorted by column (stably, so predicates on one column stay
        in query order) and empty intervals are normalised to ``(1, 0)``.
        Two queries share a key exactly when they give the estimator the same
        input (and, with a namespace attached, are answered by the same model
        over the same data version).
        """
        rows = [(column_index, 1, 0) if low > high else (column_index, low, high)
                for column_index, low, high in self._intervals.rows(query)]
        rows.sort(key=itemgetter(0))
        if self.namespace is None:
            return tuple(rows)
        return (self.namespace, tuple(rows))


class EstimateCache:
    """A thread-safe LRU cache of ``key -> estimate``.

    ``capacity == 0`` disables the cache (every lookup misses, inserts are
    dropped), which lets the service keep one code path for both modes.
    Hit/miss accounting lives in :class:`~repro.serving.ServiceStats`, the
    single authoritative counter set the service reports from.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, float]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> float | None:
        """Cached estimate for ``key``, or ``None`` on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
            return None

    def put(self, key: Hashable, value: float) -> None:
        """Insert (or refresh) an estimate, evicting the LRU entry if full."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = float(value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries
