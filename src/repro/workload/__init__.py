"""Query and workload substrate: predicates, queries, ground truth, generators."""

from .executor import (
    cardinality,
    execute,
    selectivity,
    true_cardinalities,
    true_cardinalities_delta,
)
from .generator import (
    WorkloadConfig,
    WorkloadGenerator,
    make_inworkload,
    make_multi_predicate_workload,
    make_random_workload,
)
from .predicates import Operator, Predicate
from .query import CodeIntervals, Query
from .workload import Workload

__all__ = [
    "Operator",
    "Predicate",
    "Query",
    "CodeIntervals",
    "Workload",
    "execute",
    "cardinality",
    "selectivity",
    "true_cardinalities",
    "true_cardinalities_delta",
    "WorkloadConfig",
    "WorkloadGenerator",
    "make_random_workload",
    "make_inworkload",
    "make_multi_predicate_workload",
]
