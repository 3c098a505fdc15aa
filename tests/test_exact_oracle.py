"""exact_spark against an exact spark over the rationals.

Every float64 is a dyadic rational, so scaling a column by a power of two
makes it integral without changing which column subsets are dependent.
Fraction-free (Bareiss) elimination on Python ints then gives exact
ranks. The oracle uses the standard library only; the matrices are
dyadic, with planted integer dependencies, or generic random ones, so
the float rank rule has a wide margin and must agree with it. The two
coherence lower bounds are claims about the exact matrix, so neither
may exceed the spark over Q, whatever the rank rule says.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from sparkcert import (
    SparkValue,
    build_matrix,
    coherence_index_lower_bound,
    exact_spark,
    mutual_coherence_lower_bound,
)


def _integral_columns(data: np.ndarray) -> list[list[int]]:
    """Each column times the power of two that clears its denominators."""
    columns = []
    for column in data.T.tolist():
        ratios = [value.as_integer_ratio() for value in column]
        scale = max(den for _, den in ratios)
        columns.append([num * (scale // den) for num, den in ratios])
    return columns


def _rank(columns: list[list[int]]) -> int:
    """Exact rank of integer columns by Bareiss elimination.

    After each pivot, every entry left below the pivot rows is a minor of
    the input, so each division is exact; the test asserts that it is.
    """
    m = [list(row) for row in zip(*columns)]
    rank, previous = 0, 1
    for c in range(len(columns)):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            for j in range(c + 1, len(columns)):
                quotient, remainder = divmod(m[r][j] * m[rank][c] - m[r][c] * m[rank][j], previous)
                assert remainder == 0
                m[r][j] = quotient
            m[r][c] = 0
        previous = m[rank][c]
        rank += 1
    return rank


def exact_spark_over_q(data: np.ndarray) -> tuple[int | None, tuple[int, ...] | None]:
    """(spark, first dependent subset in lexicographic order), or (None, None) if infinite.

    Every subset of an independent set is independent, so when all
    subsets of top = min(rows, cols) columns are, no smaller one needs a
    look: the spark is infinite at top = cols, else top + 1, where every
    subset is dependent.
    """
    columns = _integral_columns(data)
    cols = len(columns)
    top = min(data.shape[0], cols)
    if all(_rank([columns[j] for j in subset]) == top
           for subset in combinations(range(cols), top)):
        return (None, None) if top == cols else (top + 1, tuple(range(top + 1)))
    for size in range(1, cols + 1):
        for subset in combinations(range(cols), size):
            if _rank([columns[j] for j in subset]) < size:
                return size, subset
    raise AssertionError("the full set is dependent, so some subset is")


def _dyadic(rows: int, cols: int, seed: int, support: tuple[int, ...] = ()) -> np.ndarray:
    """Multiples of 1/256; the last support column is an integer mix of the others."""
    rng = np.random.default_rng(seed)
    data = np.round(rng.standard_normal((rows, cols)) * 256.0) / 256.0
    if support:
        weights = rng.choice([-2.0, -1.0, 1.0, 2.0], size=len(support) - 1)
        data[:, support[-1]] = data[:, list(support[:-1])] @ weights
    return data


def _check(data: np.ndarray) -> str:
    """Check exact_spark and both lower bounds against the oracle; return settled_by."""
    spark, witness = exact_spark_over_q(data)
    matrix = build_matrix(data)
    result = exact_spark(matrix)
    expected = SparkValue("infinite") if spark is None else SparkValue("finite", spark)
    assert (result.spark, result.witness) == (expected, witness)
    exact = math.inf if spark is None else spark
    assert coherence_index_lower_bound(matrix) <= exact
    assert (mutual_coherence_lower_bound(matrix) or 0.0) <= exact
    return result.settled_by


def test_bareiss_rank_of_known_matrices():
    assert _rank([[1, 0, 0], [0, 1, 0]]) == 2
    assert _rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert _rank([[0, 0], [0, 0]]) == 0
    # a zero pivot column is skipped and later columns still divide exactly
    assert _rank([[0, 0, 0], [1, 2, 3], [4, 5, 6], [7, 8, 10]]) == 3
    assert _integral_columns(np.array([[0.5, 3.0], [0.25, -1.0]])) == [[2, 1], [3, -1]]


@pytest.mark.parametrize(
    "rows, cols, support",
    [
        (5, 6, (1, 3, 4)),
        (6, 7, (0, 2, 5, 6)),
        (7, 8, (2, 7)),
        (9, 10, (0, 1, 4, 8, 9)),
        (8, 8, (1, 2, 6)),
        (10, 8, (0, 3, 5, 7)),
        (13, 14, (2, 9, 11)),
        (16, 14, (0, 5, 6, 13)),
        (5, 6, (0, 1, 2, 3, 4, 5)),
    ],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_proofs_match_the_exact_spark(rows, cols, support, seed):
    # rows >= cols - 1 with one planted dependency: the null-vector proof
    # settles it, |W| < cols included
    assert _check(_dyadic(rows, cols, seed, support)) == "null_vector"


@pytest.mark.parametrize("rows, cols", [(5, 6), (9, 10), (6, 6), (9, 7)])
@pytest.mark.parametrize("seed", [0, 1])
def test_generic_near_square_matches_the_exact_spark(rows, cols, seed):
    # no plant: spark cols when rows = cols - 1, infinite when rows >= cols
    expected = "null_vector" if rows < cols else "full_rank"
    assert _check(_dyadic(rows, cols, seed)) == expected


@pytest.mark.parametrize(
    "rows, cols, support",
    [
        (3, 8, ()),
        (4, 9, ()),
        (4, 10, (1, 5, 8)),
        (5, 10, (0, 2, 3, 7)),
        (5, 9, (4, 6)),
        (8, 10, ()),
        (10, 12, ()),
        (12, 14, ()),
        (8, 10, (0, 4, 9)),
        (10, 12, (1, 2, 7, 11)),
        (12, 14, (3, 6, 13)),
    ],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_wide_scan_matches_the_exact_spark(rows, cols, support, seed):
    # dyadic and random matrices settle by the size proof, spark rows + 1,
    # near-square ones too; a planted dependency fails it and leaves the
    # answer to the scan
    if support:
        assert _check(_dyadic(rows, cols, seed, support)) == "search"
    else:
        assert _check(_dyadic(rows, cols, seed)) == "size_proof"
        assert _check(np.random.default_rng(seed).standard_normal((rows, cols))) == "size_proof"
