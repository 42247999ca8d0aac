"""Query model: a conjunction of predicates over one table, and its one
translation into dictionary-code space.

:class:`CodeIntervals` is the single predicate→interval translation.  It
memoises, per table, the inclusive code interval each predicate selects
(:meth:`Predicate.code_interval`); the serving cache key, the model's code
arrays and zero-out intervals, and the ground-truth executor's labels are all
derived from its per-predicate rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..data.table import Table
from .predicates import Operator, Predicate

__all__ = ["Query", "CodeIntervals"]

#: memo size past which a translator starts over (bounds a long-lived
#: service's footprint)
_MEMO_LIMIT = 262144
_MISS = object()


@dataclass(frozen=True)
class Query:
    """A conjunctive selection query.

    Multiple predicates on the same column are allowed (e.g.
    ``age >= 20 AND age <= 30``); that is the case Duet's MPSN component
    (§IV-F of the paper) exists to handle.
    """

    predicates: tuple[Predicate, ...]

    def __init__(self, predicates: Iterable[Predicate]) -> None:
        object.__setattr__(self, "predicates", tuple(predicates))

    # ------------------------------------------------------------------
    @classmethod
    def from_triples(cls, triples: Sequence[tuple[str, str, object]]) -> "Query":
        """Build a query from ``(column, operator, value)`` triples."""
        return cls(Predicate(column, Operator.from_string(op), value)
                   for column, op, value in triples)

    # ------------------------------------------------------------------
    @property
    def num_predicates(self) -> int:
        return len(self.predicates)

    @property
    def columns(self) -> list[str]:
        """Names of the constrained columns, in predicate order, deduplicated."""
        seen: list[str] = []
        for predicate in self.predicates:
            if predicate.column not in seen:
                seen.append(predicate.column)
        return seen

    def predicates_on(self, column: str) -> list[Predicate]:
        """All predicates constraining ``column``."""
        return [predicate for predicate in self.predicates if predicate.column == column]

    def max_predicates_per_column(self) -> int:
        if not self.predicates:
            return 0
        return max(len(self.predicates_on(column)) for column in self.columns)

    # ------------------------------------------------------------------
    def validate(self, table: Table) -> None:
        """Raise if the query references columns the table does not have."""
        known = set(table.column_names)
        unknown = [predicate.column for predicate in self.predicates
                   if predicate.column not in known]
        if unknown:
            raise KeyError(f"query references unknown columns {sorted(set(unknown))} "
                           f"of table {table.name!r}")
        if not self.predicates:
            raise ValueError("a query must contain at least one predicate")

    def __str__(self) -> str:
        if not self.predicates:
            return "TRUE"
        return " AND ".join(str(predicate) for predicate in self.predicates)

    def __len__(self) -> int:
        return len(self.predicates)


class CodeIntervals:
    """Per-table memo ``Predicate -> (column_index, low, high)``.

    ``[low, high]`` is the inclusive code interval the predicate selects on
    its column (empty when ``low > high``).  A predicate whose interval
    covers the column's whole domain constrains nothing and yields no row.
    Codes depend only on each column's sorted distinct values, so the memo
    stays valid when :attr:`table` is re-pointed at a snapshot with
    identical domains.  Concurrent misses at worst translate a predicate
    twice, so no lock is needed.
    """

    def __init__(self, table: Table) -> None:
        self.table = table
        self._memo: dict[Predicate, tuple[int, int, int] | None] = {}

    def rows(self, query: Query) -> list[tuple[int, int, int]]:
        """Rows of the predicates of ``query`` that constrain their column,
        in predicate order.  Raises :class:`KeyError` on an unknown column."""
        memo = self._memo
        rows = []
        for predicate in query.predicates:
            row = memo.get(predicate, _MISS)
            if row is _MISS:
                row = self._translate(predicate)
            if row is not None:
                rows.append(row)
        return rows

    def _translate(self, predicate: Predicate) -> tuple[int, int, int] | None:
        column_index = self.table.column_index(predicate.column)
        column = self.table.column(column_index)
        low, high = predicate.code_interval(column)
        row = (None if low == 0 and high == column.num_distinct - 1
               else (column_index, low, high))
        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.clear()
        self._memo[predicate] = row
        return row
