"""Pairwise column coherences, mutual coherence, and the coherence index.

The coherence index of a matrix is the smallest count p such that the p
largest pairwise coherences sum to at least 1. It drives a sharper spark
lower bound than mutual coherence alone. The computed sums are tested
against 1 less the rounding they may carry, so the index never exceeds
the one exact arithmetic would give. When no prefix sum reaches 1 the
index is math.inf.

Only the head of the sorted coherences is ever read: the mutual
coherence is the first entry, the index and the subset search's size
skip test prefix sums against 1 less a slack >= 0, top_coherence_sum
reads the first `rows`, and a report shows the first
TOP_COHERENCES_SHOWN. So the matrix keeps the K = min(pairs, max(rows,
TOP_COHERENCES_SHOWN)) largest, found by a partition rather than a sort
of every pair (DenseMatrix.sorted_coherences). Once their sum plus its
rounding allowance reaches 1, p = K passes every prefix test, so no
test needs a later entry; when it falls short, every pair is kept.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import NotUnderdetermined, TooFewColumns
from .matrix import DenseMatrix, coherence_rounding


@dataclass(frozen=True, eq=False)
class CoherenceProfile:
    """Sorted pairwise coherences of a matrix plus derived summaries.

    pair_count is cols*(cols-1)/2, the number of off-diagonal pairs.
    coherences holds the largest of their Gram magnitudes in
    non-increasing order: the K that DenseMatrix.sorted_coherences keeps,
    or every pair when those K and their rounding allowance sum to less
    than 1; prefix_sums[i] is the running sum of the first i+1 of them.
    Both are the matrix's read-only cached arrays, so profiles do not
    compare by value. mutual_coherence is coherences[0]; coherence_index
    is the smallest p with prefix_sums[p-1] >= 1 - index_slack - p *
    coherence_rounding(rows), or math.inf when even the full sum falls
    short (only possible when the whole matrix is close to orthogonal).
    """

    pair_count: int
    coherences: np.ndarray
    prefix_sums: np.ndarray
    mutual_coherence: float
    coherence_index: int | float


def pairwise_coherences(matrix: DenseMatrix) -> np.ndarray:
    """The largest off-diagonal coherences |a_k . a_j| / (|a_k| |a_j|), non-increasing.

    The K that DenseMatrix.sorted_coherences keeps, not every pair; a
    read-only cached array.
    """
    if matrix.cols < 2:
        raise TooFewColumns(f"need at least 2 columns, got {matrix.cols}")
    return matrix.sorted_coherences[0]


def smallest_qualifying_prefix(
    prefix_sums: np.ndarray, slack: float, rounding: float
) -> int | float:
    """Smallest p (1-based) with prefix_sums[p-1] + p * rounding >= 1 - slack, else math.inf.

    One bisection finds p, as the key never decreases: prefix_sums is a
    sequential cumsum of non-negative terms (a rounded addition of one
    never lowers a sum), p * rounding grows with p, and rounding is monotone.
    """
    n = len(prefix_sums)
    i = bisect.bisect_left(
        range(1, n + 1), 1.0 - slack, key=lambda p: prefix_sums[p - 1] + p * rounding
    )
    return i + 1 if i < n else math.inf


def coherence_profile(
    matrix: DenseMatrix,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> CoherenceProfile:
    """The coherence profile; only the index (it depends on index_slack) is new work."""
    vals = pairwise_coherences(matrix)
    prefix = matrix.sorted_coherences[1]
    return CoherenceProfile(
        pair_count=matrix.cols * (matrix.cols - 1) // 2,
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
