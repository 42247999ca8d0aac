"""Common interface implemented by every cardinality estimator in this repo.

Duet, the learned baselines (Naru, UAE, MSCN, DeepDB) and the traditional
baselines (Sampling, Indep, MHist) all implement :class:`CardinalityEstimator`
so the evaluation harness and the benchmark scripts can treat them uniformly.
"""

from __future__ import annotations

import abc
import functools
from typing import Sequence

import numpy as np

from ..data.table import Table
from ..workload.query import Query

__all__ = ["CardinalityEstimator"]


def _clamped_estimate(method):
    """Wrap an ``estimate`` implementation so it never returns below 0."""

    @functools.wraps(method)
    def wrapper(self, query):
        return max(float(method(self, query)), 0.0)

    wrapper.__clamped__ = True
    return wrapper


def _clamped_estimate_batch(method):
    """Wrap an ``estimate_batch`` implementation so it never returns below 0."""

    @functools.wraps(method)
    def wrapper(self, queries):
        estimates = np.asarray(method(self, queries), dtype=np.float64)
        return np.maximum(estimates, 0.0)

    wrapper.__clamped__ = True
    return wrapper


class CardinalityEstimator(abc.ABC):
    """Abstract base class of all estimators.

    Subclasses estimate the cardinality of conjunctive selection queries on
    the single table they were built/trained on.
    """

    #: human-readable name used in result tables
    name: str = "estimator"

    def __init__(self, table: Table) -> None:
        self.table = table

    def __init_subclass__(cls, **kwargs) -> None:
        """Enforce the "never below 0" contract on every concrete estimator.

        Any ``estimate``/``estimate_batch`` override a subclass defines is
        wrapped to clamp its result at 0, so no estimator (present or
        future) can leak a negative cardinality to callers.
        """
        super().__init_subclass__(**kwargs)
        wrappers = {"estimate": _clamped_estimate,
                    "estimate_batch": _clamped_estimate_batch}
        for name, wrap in wrappers.items():
            method = cls.__dict__.get(name)
            if (method is not None and callable(method)
                    and not getattr(method, "__isabstractmethod__", False)
                    and not getattr(method, "__clamped__", False)):
                setattr(cls, name, wrap(method))

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def estimate(self, query: Query) -> float:
        """Estimated number of qualifying tuples (never below 0)."""

    def estimate_batch(self, queries: Sequence[Query]) -> np.ndarray:
        """Estimate a batch of queries; subclasses may vectorise this."""
        return np.maximum(
            np.array([self.estimate(query) for query in queries], dtype=np.float64),
            0.0)

    # ------------------------------------------------------------------
    def estimate_selectivity(self, query: Query) -> float:
        """Estimated selectivity in [0, 1]."""
        return self.estimate(query) / max(self.table.num_rows, 1)

    def size_bytes(self) -> int:
        """Approximate size of the estimator's state (paper's Size column)."""
        return 0

    @property
    def is_deterministic(self) -> bool:
        """Whether repeated estimations of the same query give the same answer.

        Duet is deterministic by construction (no sampling at inference);
        Naru/UAE are not (Problem 4 in the paper).
        """
        return True
