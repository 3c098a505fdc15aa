"""Spark lower bounds, the exact exhaustive spark search, and its report.

The spark of a matrix is the smallest number of columns that are linearly
dependent, taken as infinite when every column subset is independent.
Two cheap lower bounds come from the coherence profile; the exact value
comes from a budgeted exhaustive subset search.

The search tests sizes 1, 2, ... and, within a size, subsets in
lexicographic order, through the batched Cholesky-then-SVD kernel in the
kernels module. With one worker a size is one kernel run from its first
subset; with more, it is cut into PARALLEL_CHUNK-sized runs that threads
scan concurrently, each starting from its chunk's first subset by
unranking.
Either way the witness and the subset count are those of the serial
order.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .coherence import coherence_profile
from .config import DEFAULT_TOLERANCES, ToleranceConfig, default_search_budget
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    NotSquare,
    NotUnitDiagonal,
    TooFewColumns,
)
from .kernels import scan_chunk, unrank_combination
from .matrix import DenseMatrix, column_submatrix, unit_columns, unit_gram

UNIT_DIAGONAL_TOL = 1e-12

# Subsets handed to one kernel call when the scan is threaded; small
# enough to balance load, large enough to amortize dispatch.
PARALLEL_CHUNK = 4096


@dataclass(frozen=True)
class SparkValue:
    """Exact spark: either a finite positive integer or infinite."""

    kind: str  # "finite" | "infinite"
    value: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("finite", "infinite"):
            raise ValueError(f"kind must be 'finite' or 'infinite', got {self.kind!r}")
        if self.kind == "finite":
            if self.value is None or self.value < 1:
                raise ValueError(f"finite spark needs a positive value, got {self.value!r}")
        elif self.value is not None:
            raise ValueError("infinite spark carries no value")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"


SPARK_INFINITE = SparkValue(kind="infinite")


@dataclass(frozen=True)
class SparkSearchResult:
    """Outcome of the exhaustive search.

    witness lists the columns of the first (smallest size, lexicographic)
    dependent subset when spark is finite; subsets_examined counts the
    subsets inspected up to and including the witness, independent of how
    the scan was partitioned across workers.
    """

    spark: SparkValue
    witness: tuple[int, ...] | None
    subsets_examined: int


@dataclass(frozen=True)
class SparkReport:
    """Both lower bounds plus (optionally) the exact search outcome.

    mutual_coherence_bound is 1 + 1/(mutual coherence), or None when
    the mutual coherence is 0;
    coherence_index_bound is 1 + coherence_index, or math.inf when no
    coherence prefix sum reaches 1 (then the spark is provably infinite);
    exact is None when the search was skipped or aborted, with
    search_budget_hit flagging the aborted case; trivial_upper is rows+1
    for wide matrices, None otherwise.
    """

    mutual_coherence_bound: float | None
    coherence_index_bound: int | float
    exact: SparkValue | None
    witness: tuple[int, ...] | None
    trivial_upper: int | None
    search_budget_hit: bool
    subsets_examined: int | None


def mutual_coherence_lower_bound(matrix: DenseMatrix) -> float | None:
    """Classic lower bound 1 + 1/(mutual coherence); None when it is zero."""
    coherence = coherence_profile(matrix).mutual_coherence
    if coherence == 0.0:
        return None
    return 1.0 + 1.0 / coherence


def coherence_index_lower_bound(
    matrix: DenseMatrix,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> int | float:
    """Improved spark lower bound 1 + coherence_index; inf when the index is absent.

    When the full coherence sum stays below 1 every unit-diagonal Gram
    minor is strictly diagonally dominant, hence positive definite, so all
    columns are independent and the spark is infinite.
    """
    index = coherence_profile(matrix, tolerances).coherence_index
    if index is None:
        return math.inf
    return 1 + index


def _scan_size_parallel(
    data: np.ndarray,
    gram: np.ndarray,
    size: int,
    count: int,
    tol_factor: float,
    workers: int,
) -> tuple[int, tuple[int, ...] | None]:
    """Scan the first `count` size-subsets as PARALLEL_CHUNK-sized jobs.

    Returns (hit rank, witness) as scan_chunk does for one run. Results are
    read in submission order, so the first hit seen is the
    lexicographically smallest one. At most 2 * workers jobs are in
    flight, so no job past that window has been submitted when a hit is
    seen; queued jobs are then cancelled and only running ones waited for.
    """
    cols = data.shape[1]
    starts = iter(range(0, count, PARALLEL_CHUNK))

    def job(start: int) -> tuple[int, int, tuple[int, ...] | None]:
        chunk = min(PARALLEL_CHUNK, count - start)
        idx = unrank_combination(cols, size, start)
        pos, hit = scan_chunk(data, gram, idx, chunk, tol_factor)
        return start, pos, hit

    with ThreadPoolExecutor(max_workers=workers) as pool:
        in_flight = deque(pool.submit(job, start) for start in islice(starts, 2 * workers))
        while in_flight:
            start, pos, hit = in_flight.popleft().result()
            if pos >= 0:
                for future in in_flight:
                    future.cancel()
                return start + pos, hit
            following = next(starts, None)
            if following is not None:
                in_flight.append(pool.submit(job, following))
    return -1, None


def exact_spark(
    matrix: DenseMatrix,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
    budget: int | None = None,
    workers: int = 1,
) -> SparkSearchResult:
    """Exhaustive minimal dependent-subset search over sizes 1, 2, ...

    Within a size, subsets are tested in lexicographic order and the first
    dependent one wins, so the result is deterministic and the witness is
    minimal. Raises BudgetExceeded once `budget` subsets were examined
    without settling the answer. Returns an infinite spark when all
    columns are independent.
    """
    if budget is None:
        budget = default_search_budget()
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # Rank is invariant under positive column scaling, and the cutoff is
    # relative to the largest singular value: on raw columns a short
    # column next to a long one would count as zero.
    data = unit_columns(matrix)
    gram = unit_gram(data)
    cols = matrix.cols
    examined = 0
    for size in range(1, cols + 1):
        total = math.comb(cols, size)
        allowed = min(total, budget - examined)
        if allowed < 1:
            raise BudgetExceeded(examined)
        if workers == 1 or allowed < 2 * PARALLEL_CHUNK:
            hit_rank, witness = scan_chunk(
                data, gram, tuple(range(size)), allowed, tolerances.rank_tol_factor
            )
        else:
            hit_rank, witness = _scan_size_parallel(
                data, gram, size, allowed, tolerances.rank_tol_factor, workers
            )
        if witness is not None:
            return SparkSearchResult(
                spark=SparkValue(kind="finite", value=size),
                witness=witness,
                subsets_examined=examined + hit_rank + 1,
            )
        examined += allowed
        if allowed < total:
            raise BudgetExceeded(examined)
    return SparkSearchResult(spark=SPARK_INFINITE, witness=None, subsets_examined=examined)


def analyze_spark(
    matrix: DenseMatrix,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
    compute_exact: bool = False,
    budget: int | None = None,
    workers: int = 1,
) -> SparkReport:
    """Assemble the full spark report for a matrix with at least two columns."""
    if matrix.cols < 2:
        raise TooFewColumns(f"need at least 2 columns, got {matrix.cols}")
    exact: SparkValue | None = None
    witness: tuple[int, ...] | None = None
    budget_hit = False
    subsets_examined: int | None = None
    if compute_exact:
        try:
            result = exact_spark(matrix, tolerances, budget, workers)
            exact = result.spark
            witness = result.witness
            subsets_examined = result.subsets_examined
        except BudgetExceeded as exc:
            budget_hit = True
            subsets_examined = exc.subsets_examined
    trivial_upper = matrix.rows + 1 if matrix.rows < matrix.cols else None
    return SparkReport(
        mutual_coherence_bound=mutual_coherence_lower_bound(matrix),
        coherence_index_bound=coherence_index_lower_bound(matrix, tolerances),
        exact=exact,
        witness=witness,
        trivial_upper=trivial_upper,
        search_budget_hit=budget_hit,
        subsets_examined=subsets_examined,
    )


def is_diagonally_dominant(g_minor: np.ndarray) -> bool:
    """Strict row diagonal dominance of a unit-diagonal symmetric minor.

    Such a minor is positive definite by the Gershgorin disk theorem, so
    the columns behind it are linearly independent.
    """
    g = np.asarray(g_minor, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {g.shape}")
    if g.shape[0] == 0:
        raise NotSquare("expected a nonempty matrix")
    diag = np.diag(g)
    if np.any(np.abs(diag - 1.0) > UNIT_DIAGONAL_TOL):
        raise NotUnitDiagonal("diagonal entries must all equal 1 within 1e-12")
    off = np.abs(g) - np.diag(np.abs(diag))
    row_sums = off.sum(axis=1)
    return bool(np.all(row_sums < diag))


def gram_minor(matrix: DenseMatrix, indices: tuple[int, ...]) -> np.ndarray:
    """Unit-diagonal Gram minor of the selected columns, for dominance tests."""
    if len(indices) < 1:
        raise DimensionMismatch("at least one column index is required")
    column_submatrix(matrix, indices)  # validates ordering and range
    return unit_gram(unit_columns(matrix, list(indices)))
