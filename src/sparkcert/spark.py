"""Spark lower bounds, the exact exhaustive spark search, and its report.

The spark of a matrix is the smallest number of columns that are linearly
dependent, taken as infinite when every column subset is independent.
Two cheap lower bounds come from the coherence profile; the exact value
comes from a budgeted exhaustive subset search.

The search tests sizes 1, 2, ... and, within a size, subsets in
lexicographic order, through the batched Cholesky-then-SVD kernel in the
kernels module: each size is one kernel run from its first subset, on one
thread, so the witness is the first dependent subset in that order.

Before that scan, when rows >= cols - 1, one SVD of the unit columns A
can settle the search outright. The scan calls a size-k subset S
dependent when sigma_k(A_S) <= tol * sigma_1(A_S) * max(rows, k), on
computed singular values (the kernel's Cholesky only ever says
"independent", and never against the SVD). Write s_1 >= ... >= s_cols
for the computed singular values of A, padded with zeros when rows <
cols, dim = max(rows, cols), and e = SVD_ERROR * eps * dim * s_1 for the
SVD's error: a computed SVD of A, or of any column subset A_S, is the
exact SVD of a matrix within e of it in the 2-norm (see SVD_ERROR), so
each computed singular value is within e of the exact one. Then
c = tol * (s_1 + 2e) * dim is at least the cutoff of any subset, because
its computed sigma_1(A_S) is at most sigma_1(A_S) + e <= sigma_1(A) + e
<= s_1 + 2e (a column subset has no larger sigma_1) and max(rows, k) <=
dim.

(a) Full rank. If rows >= cols and s_cols > c + 2e, no subset is
dependent and the spark is infinite. Proof: for a size-k subset,
interlacing gives sigma_k(A_S) >= sigma_cols(A) >= s_cols - e, so its
computed sigma_k is at least s_cols - 2e > c, above its cutoff.

(b) Nullity one. Let x be the exact right singular vector of sigma_cols
and x^ the computed one (the last row of V^T), and suppose low = s_{cols-1}
- e and gap = s_{cols-1} - s_cols - 2e are positive: low is at most
sigma_{cols-1}, and gap at most the separation s_{cols-1} - sigma_cols
between the computed SVD and the exact one. Set
delta = sqrt(2) * ((c + e) / low + e / gap). Every unit vector v
supported on a subset the scan calls dependent lies within delta of +x^
or -x^. Proof: such a subset S of size k <= rows has exact sigma_k(A_S)
<= c + e (its computed one is at most its cutoff), and one of size k >
rows has a null vector; either way some unit v on S has |A v| <= c + e.
Split v = a x + w with w orthogonal to x. As A x and A w are
orthogonal, |A w| <= |A v|, and w lies in the span of the other right
singular vectors, so |w| <= (c + e) / sigma_{cols-1}, and with the sign
of x chosen so that a >= 0, |v - x| <= sqrt(2) |w|. By Wedin's sin-theta
theorem the computed x^ spans a line at an angle theta from x with
sin(theta) <= e / gap, so |x^ - x| <= sqrt(2) e / gap for the right sign.
So if j is outside S, |x^_j| = |x^_j - v_j| <= delta: every dependent
subset contains W = {j : |x^_j| > 2 * delta} (the factor 2 leaves room
for the rounding of x^ and delta). If W is not empty and the kernel
calls W itself dependent, W is the only dependent subset of its size and
none is smaller, so the scan would return spark |W| with witness W;
that is the answer, after one subset examined. Otherwise the scan runs.

Both proofs only ever skip a scan whose answer they have proven; a
tolerance coarse enough to defeat their margins sends the search to the
scan. The scan itself starts at the first size the coherence profile
cannot prove independent (_first_unproven_size), and subsets_examined
counts only the subsets scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import coherence_profile, coherence_rounding
from .config import DEFAULT_TOLERANCES, ToleranceConfig, default_search_budget
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    NotSquare,
    NotUnitDiagonal,
    TooFewColumns,
)
from .kernels import scan_chunk
from .matrix import DenseMatrix, column_submatrix, unit_columns, unit_gram

UNIT_DIAGONAL_TOL = 1e-12

EPS = float(np.finfo(np.float64).eps)

# LAPACK bounds the error of a computed SVD as p(m, n) * eps * sigma_1, the
# computed factors being the exact SVD of a matrix that close (LAPACK
# Users' Guide, 3rd ed., sec. 4.9), with p a modestly growing function of
# the dimensions that the guide's own error estimates take as 1. The
# proofs here take p = SVD_ERROR * max(rows, cols): linear growth with a
# factor 64 to spare. The matrices they settle clear their margins by
# many orders of magnitude more; a thinner margin goes to the scan.
SVD_ERROR = 64

# What settled an exact search: the subset scan, or one of the two proofs
# from a single SVD described in the module docstring.
SETTLED_BY_SEARCH = "search"
SETTLED_BY_FULL_RANK = "full_rank"
SETTLED_BY_NULL_VECTOR = "null_vector"
SETTLED_BY = (SETTLED_BY_SEARCH, SETTLED_BY_FULL_RANK, SETTLED_BY_NULL_VECTOR)


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
    subsets scanned up to and including the witness (sizes the coherence
    profile proves independent are not scanned; a proof from one SVD scans
    0 or 1). settled_by is one of SETTLED_BY: "search" for the scan,
    "full_rank" or "null_vector" for the proofs.
    """

    spark: SparkValue
    witness: tuple[int, ...] | None
    subsets_examined: int
    settled_by: str


@dataclass(frozen=True)
class SparkReport:
    """Both lower bounds plus (optionally) the exact search outcome.

    mutual_coherence_bound is 1 + 1/(mutual coherence), or None when
    the mutual coherence is 0;
    coherence_index_bound is 1 + coherence_index, or math.inf when no
    coherence prefix sum reaches 1 (then the spark is provably infinite);
    exact is None when the search was skipped or aborted, with
    search_budget_hit flagging the aborted case; trivial_upper is rows+1
    for wide matrices, None otherwise; settled_by is the search's
    SparkSearchResult.settled_by, None when no search settled.
    """

    mutual_coherence_bound: float | None
    coherence_index_bound: int | float
    exact: SparkValue | None
    witness: tuple[int, ...] | None
    trivial_upper: int | None
    search_budget_hit: bool
    subsets_examined: int | None
    settled_by: str | None


def mutual_coherence_lower_bound(matrix: DenseMatrix) -> float | None:
    """Classic lower bound 1 + 1/(mutual coherence); None when it is zero.

    The bound takes the largest mutual coherence the computed one can stand
    for, mu + coherence_rounding(rows), at most 1, so rounding cannot lift
    it above the spark (a duplicated column read as 1 - eps gives 2).
    """
    coherence = coherence_profile(matrix).mutual_coherence
    if coherence == 0.0:
        return None
    return 1.0 + 1.0 / min(1.0, coherence + coherence_rounding(matrix.rows))


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


def _first_unproven_size(matrix: DenseMatrix, tol_factor: float) -> int:
    """The smallest subset size the coherence profile cannot prove independent.

    A size-k Gram minor of the unit columns has off-diagonal row sums of at
    most the k - 1 largest coherences, each allowed coherence_rounding, so
    by Gershgorin its eigenvalues lie within 1 -+ (1 - m) for the margin
    m = 1 - prefix_sums[k-2] - (k-1) * r, and sigma_min / sigma_max of the
    subset is at least sqrt(m / (2 - m)). Size k is proven independent when
    half of that ratio (the slack of kernels.PROVEN_RATIO) clears the SVD
    cutoff ratio tol_factor * max(rows, k) plus the SVD's own error
    (SVD_ERROR), so a coarse tolerance proves nothing. Returns cols + 1
    when every size is proven.
    """
    rows, cols = matrix.shape
    prefix = matrix.sorted_coherences[1]
    rounding = coherence_rounding(rows)
    size = 1
    while size <= cols:
        margin = 1.0 - (prefix[size - 2] if size > 1 else 0.0) - (size - 1) * rounding
        if not margin > 0.0:
            break
        ratio = math.sqrt(margin / (2.0 - margin))
        if not 0.5 * ratio > (tol_factor + SVD_ERROR * EPS) * max(rows, size):
            break
        size += 1
    return size


def _settle_by_svd(
    data: np.ndarray, gram: np.ndarray, tol_factor: float
) -> SparkSearchResult | None:
    """Proofs (a) and (b) of the module docstring, or None when neither applies.

    `data` holds the unit columns and `gram` their unit Gram matrix, as
    scan_chunk takes them.
    """
    rows, cols = data.shape
    if rows < cols - 1:
        return None
    dim = max(rows, cols)
    _, computed, vt = np.linalg.svd(data, full_matrices=rows < cols)
    s = np.zeros(cols)
    s[: computed.size] = computed
    err = SVD_ERROR * EPS * dim * s[0]
    cutoff = tol_factor * (s[0] + 2.0 * err) * dim
    if rows >= cols and s[-1] > cutoff + 2.0 * err:
        return SparkSearchResult(
            spark=SPARK_INFINITE, witness=None, subsets_examined=0,
            settled_by=SETTLED_BY_FULL_RANK,
        )
    low = s[-2] - err if cols > 1 else 0.0
    gap = low - s[-1] - err
    if not gap > 0.0:
        return None
    delta = math.sqrt(2.0) * ((cutoff + err) / low + err / gap)
    support = tuple(int(j) for j in np.flatnonzero(np.abs(vt[-1]) > 2.0 * delta))
    # W is the first and only subset of its own columns
    if support and scan_chunk(
        data[:, support], gram[np.ix_(support, support)], len(support), 1, tol_factor
    )[1] is not None:
        return SparkSearchResult(
            spark=SparkValue(kind="finite", value=len(support)),
            witness=support,
            subsets_examined=1,
            settled_by=SETTLED_BY_NULL_VECTOR,
        )
    return None


def _scan(
    data: np.ndarray,
    gram: np.ndarray,
    tol_factor: float,
    budget: int,
    first_size: int = 1,
) -> SparkSearchResult:
    """The subset scan over sizes first_size, first_size + 1, ...

    Sizes below first_size are taken as proven independent and not
    counted. Raises BudgetExceeded once `budget` subsets were scanned
    without settling the answer.
    """
    cols = data.shape[1]
    examined = 0
    for size in range(first_size, cols + 1):
        total = math.comb(cols, size)
        allowed = min(total, budget - examined)
        if allowed < 1:
            raise BudgetExceeded(examined)
        hit_rank, witness = scan_chunk(data, gram, size, allowed, tol_factor)
        if witness is not None:
            return SparkSearchResult(
                spark=SparkValue(kind="finite", value=size),
                witness=witness,
                subsets_examined=examined + hit_rank + 1,
                settled_by=SETTLED_BY_SEARCH,
            )
        examined += allowed
        if allowed < total:
            raise BudgetExceeded(examined)
    return SparkSearchResult(
        spark=SPARK_INFINITE, witness=None, subsets_examined=examined,
        settled_by=SETTLED_BY_SEARCH,
    )


def exact_spark(
    matrix: DenseMatrix,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
    budget: int | None = None,
    workers: int = 1,
) -> SparkSearchResult:
    """Minimal dependent-subset search: a proof from one SVD, else the scan.

    When rows >= cols - 1 one SVD may settle the answer (module
    docstring). Otherwise sizes from _first_unproven_size on are scanned,
    and within a size, subsets in lexicographic order; the first dependent
    one wins, so the result is deterministic and the witness is minimal.
    Either way spark and witness are those of a scan from size 1. Raises
    BudgetExceeded once `budget` subsets were scanned without settling the
    answer. Returns an infinite spark when all columns are independent.
    The search runs on one thread: `workers` must be >= 1 and is otherwise
    ignored, kept so that existing callers stay valid.
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
    tol_factor = tolerances.rank_tol_factor
    proven = _settle_by_svd(data, gram, tol_factor)
    if proven is not None:
        return proven
    return _scan(data, gram, tol_factor, budget, _first_unproven_size(matrix, tol_factor))


def analyze_spark(
    matrix: DenseMatrix,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
    compute_exact: bool = False,
    budget: int | None = None,
) -> SparkReport:
    """Assemble the full spark report for a matrix with at least two columns."""
    if matrix.cols < 2:
        raise TooFewColumns(f"need at least 2 columns, got {matrix.cols}")
    exact: SparkValue | None = None
    witness: tuple[int, ...] | None = None
    budget_hit = False
    subsets_examined: int | None = None
    settled_by: str | None = None
    if compute_exact:
        try:
            result = exact_spark(matrix, tolerances, budget)
            exact = result.spark
            witness = result.witness
            subsets_examined = result.subsets_examined
            settled_by = result.settled_by
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
        settled_by=settled_by,
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
