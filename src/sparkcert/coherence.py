"""Pairwise column coherences, mutual coherence, and the coherence index.

The coherence index of a matrix is the smallest count p such that the p
largest pairwise coherences sum to at least 1. It drives a sharper spark
lower bound than mutual coherence alone. The computed sums are tested
against 1 less the rounding they may carry, so the index never exceeds
the one exact arithmetic would give.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import NotUnderdetermined, TooFewColumns
from .matrix import DenseMatrix


@dataclass(frozen=True, eq=False)
class CoherenceProfile:
    """Sorted pairwise coherences of a matrix plus derived summaries.

    coherences holds all cols*(cols-1)/2 off-diagonal Gram magnitudes in
    non-increasing order; prefix_sums[i] is the running sum of the first
    i+1 of them. Both are the matrix's read-only cached arrays, so
    profiles do not compare by value. mutual_coherence is coherences[0];
    coherence_index is the smallest p with prefix_sums[p-1] >= 1 -
    index_slack - p * coherence_rounding(rows), or None when even the full
    sum falls short (only possible when the whole matrix is close to
    orthogonal).
    """

    pair_count: int
    coherences: np.ndarray
    prefix_sums: np.ndarray
    mutual_coherence: float
    coherence_index: int | None


def pairwise_coherences(matrix: DenseMatrix) -> np.ndarray:
    """Off-diagonal coherences |a_k . a_j| / (|a_k| |a_j|), non-increasing; read-only, cached."""
    if matrix.cols < 2:
        raise TooFewColumns(f"need at least 2 columns, got {matrix.cols}")
    return matrix.sorted_coherences[0]


def smallest_qualifying_prefix(
    prefix_sums: np.ndarray, slack: float, rounding: float
) -> int | None:
    """Smallest p (1-based) with prefix_sums[p-1] + p * rounding >= 1 - slack, else None.

    One bisection finds p, as the key never decreases: prefix_sums is a
    sequential cumsum of non-negative terms (a rounded addition of one
    never lowers a sum), p * rounding grows with p, and rounding is monotone.
    """
    n = len(prefix_sums)
    i = bisect.bisect_left(
        range(1, n + 1), 1.0 - slack, key=lambda p: prefix_sums[p - 1] + p * rounding
    )
    return i + 1 if i < n else None


def coherence_rounding(rows: int) -> float:
    """Bound on how far a computed coherence can fall below the exact one.

    Each coherence is a length-rows dot product of computed unit columns,
    which is off by at most about (rows + 8) * eps, and a prefix sum adds
    up to 2 * eps per term; twice (rows + 8) * eps covers both. Without it
    a duplicated column can read 1 - eps and leave the index undefined.
    """
    return 2.0 * (rows + 8) * float(np.finfo(np.float64).eps)


def coherence_profile(
    matrix: DenseMatrix,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> CoherenceProfile:
    """The coherence profile; only the index (it depends on index_slack) is new work."""
    vals = pairwise_coherences(matrix)
    prefix = matrix.sorted_coherences[1]
    return CoherenceProfile(
        pair_count=int(vals.size),
        coherences=vals,
        prefix_sums=prefix,
        mutual_coherence=float(vals[0]),
        coherence_index=smallest_qualifying_prefix(
            prefix, tolerances.index_slack, coherence_rounding(matrix.rows)
        ),
    )


def top_coherence_sum(matrix: DenseMatrix) -> float:
    """Sum of the largest `rows` pairwise coherences of a wide matrix.

    With more columns than rows that sum always reaches 1, which is what
    makes the coherence index well defined. Requires rows < cols.
    """
    if matrix.rows >= matrix.cols:
        raise NotUnderdetermined(
            f"matrix must have rows < cols, got {matrix.rows}x{matrix.cols}"
        )
    prefix = matrix.sorted_coherences[1]
    return float(prefix[min(matrix.rows, prefix.size) - 1])
