"""Scalar reference translation of queries into code space.

The test oracle for :meth:`repro.core.QueryCodec.translate_batch`: one
predicate at a time, straight from :meth:`Predicate.code_interval`, with no
memo and no vectorisation.
"""

from dataclasses import dataclass

import numpy as np

from repro.workload import Operator

_OP_EQ = Operator.EQ.index
_OP_GE = Operator.GE.index
_OP_LE = Operator.LE.index


@dataclass(frozen=True)
class CanonicalPredicate:
    """A predicate expressed in code space: ``(operator index, literal code)``."""

    op_index: int
    code: int


def canonicalize(codec, predicate):
    """Map one raw-value predicate to code space.

    Returns ``None`` when the predicate does not constrain the column at
    all (its code interval covers the whole domain).  Empty predicates
    are kept (the zero-out mask then produces a zero factor).
    """
    column = codec.table.column(predicate.column)
    low, high = predicate.code_interval(column)
    last = column.num_distinct - 1
    if low > high:
        # Unsatisfiable predicate: keep an equality on the nearest code so
        # the model still sees a constraint; the mask makes the factor 0.
        return CanonicalPredicate(_OP_EQ, int(np.clip(low, 0, last)))
    if low == 0 and high == last:
        return None
    if low == high:
        return CanonicalPredicate(_OP_EQ, low)
    if low == 0:
        return CanonicalPredicate(_OP_LE, high)
    if high == last:
        return CanonicalPredicate(_OP_GE, low)
    # Two-sided intervals only arise from multiple predicates per column,
    # each of which is canonicalised separately, so this branch is not
    # reachable from a single predicate; guard anyway.
    return CanonicalPredicate(_OP_GE, low)


def canonical_predicates(codec, query):
    """Canonical predicates of a query, grouped by column index."""
    grouped = {}
    for predicate in query.predicates:
        column_index = codec.table.column_index(predicate.column)
        canonical = canonicalize(codec, predicate)
        if canonical is None:
            continue
        grouped.setdefault(column_index, []).append(canonical)
    for column_index, predicates in grouped.items():
        if len(predicates) > codec.max_predicates:
            raise ValueError(
                f"query has {len(predicates)} predicates on column "
                f"{codec.table.column(column_index).name!r} but the model was "
                f"configured for at most {codec.max_predicates}; "
                f"enable multi_predicate / raise max_predicates_per_column")
    return grouped
