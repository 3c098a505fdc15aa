"""Spark lower bounds, the exact exhaustive spark search, and its report.

The spark of a matrix is the smallest number of columns that are linearly
dependent, taken as infinite when every column subset is independent.
Two cheap lower bounds come from the coherence profile; the exact value
comes from a budgeted exhaustive subset search. An exact spark, like the
coherence index and its bound, is a positive int, or math.inf when it is
infinite, so the three compare directly; None means not computed.

The search tests sizes 1, 2, ... and, within a size, subsets in
lexicographic order, through the batched Cholesky-then-SVD kernel in the
kernels module, so the witness is the first dependent subset in that
order. The kernel calls a size-k subset S of the unit columns A
dependent when the computed singular values of A_S have s_k <= tol * s_1
* max(rows, k): the rule at tol.

Margin lemma. Let D = max(rows, k), s = SVD_ERROR * eps * D and m(tol, D)
= (1 + 8 eps) * (tol * (1 + 2s) + 2s / D). If the kernel at tolerance m
calls S independent, every subset T of S is independent at tol. Proof:
the computed singular values of A_S and of A_T lie within e = s * s_1 of
the exact ones (SVD_ERROR). By interlacing, sigma_min(A_T) >= sigma_k(A_S)
and sigma_1(A_T) <= sigma_1(A_S), so T's cutoff is at most tol * (s_1 +
2e) * D. If the SVD decided S, T's computed smallest singular value is at
least s_k - 2e > m * s_1 * D - 2e, above that cutoff (1 + 8 eps covers
the rounding). If a Cholesky pass decided S, sigma_k(A_S) >= ~2 * m * D
* sigma_1(A_S): the kernel at tolerance m sets its Cholesky shift so that
a pass proves twice its SVD cutoff ratio m * D (kernels module), so the
same holds with that factor 2 to spare.

The lemma settles the search from the top, before the upward scan. All
three proofs run at the one margin m(tol, rows), and exact_spark tries
them by shape:

- Full rank, when rows >= cols. If the kernel at the margin calls the
  whole set independent, so is every subset at tol: the spark is
  infinite, with 0 subsets examined.
- Size proof, when _first_unproven_size <= rows < cols - 1 (a larger
  first unproven size means the coherence profile proves size rows
  already). If the kernel at the margin calls every size-rows subset
  independent, every subset of at most rows columns lies in one of them
  and is independent at tol, so the scan from size 1 would find nothing
  below size rows + 1. The first subset of that size, (0, ..., rows),
  has only rows singular values, is dependent under the rule and is the
  witness. If a subset fails, the scan runs from _first_unproven_size as
  it would have, and the probe's subsets count toward the budget and
  toward subsets_examined.
- Null vector, when rows >= cols - 1 and full rank did not settle it:
  the kernel scans the cols subsets of size cols - 1 at the margin, for
  which max(rows, cols - 1) = rows. Let W hold the columns left out by
  the subsets that pass before the first that fails. For j in W, every
  subset without j is independent, so every dependent subset contains
  W. If the kernel calls W dependent, none is smaller and W is the only
  one of its size: the spark is |W| with witness W, counted as 1 subset
  examined. When W holds all rows + 1 = cols columns, the kernel is not
  asked: like (0, ..., rows) in the size proof, W has only rows singular
  values and is dependent under the rule. The subsets leave out first
  the columns heaviest in the last right singular vector of A, a guess
  at W that the proof does not rest on.

A failed size probe costs at most what the scan spends on one size. Let
k = rows. If the spark s is at most k, with witness W, the first size-k
subset that holds W is W plus the smallest k - s columns outside it. It
fails at the margin (by the lemma), and it comes no later among the
size-k subsets than W among the size-s ones: adding the smallest column
p missing from W drops p's term from the lexicographic rank and leaves
the other terms as they were. If the spark exceeds k, the scan examines
all of size k. So probe plus scan cost at most twice the scan. A
tolerance coarse enough to defeat the margin leaves the search to the
scan. The scan starts at the first size the coherence profile cannot
prove independent: 1 + the coherence index at the rank rule's slack
(_first_unproven_size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import coherence_profile, coherence_rounding, smallest_qualifying_prefix
from .config import EPS, search_budget
from .errors import BudgetExceeded, NotSquare, NotUnitDiagonal
from .kernels import scan_chunk
from .matrix import DenseMatrix, column_submatrix, unit_columns, unit_gram

UNIT_DIAGONAL_TOL = 1e-12

# LAPACK bounds the error of a computed SVD as p(m, n) * eps * sigma_1, the
# computed factors being the exact SVD of a matrix that close (LAPACK
# Users' Guide, 3rd ed., sec. 4.9), with p a modestly growing function of
# the dimensions that the guide's own error estimates take as 1. The
# margin lemma takes p = SVD_ERROR * max(rows, k) for a size-k subset, with
# its computed sigma_1 for the exact one: linear growth with a factor 64
# to spare; a thinner margin goes to the scan.
SVD_ERROR = 64

# What settled an exact search: the subset scan, or one of the proofs from
# the top described in the module docstring.
SETTLED_BY_SEARCH = "search"
SETTLED_BY_FULL_RANK = "full_rank"
SETTLED_BY_NULL_VECTOR = "null_vector"
SETTLED_BY_SIZE_PROOF = "size_proof"
SETTLED_BY = (
    SETTLED_BY_SEARCH, SETTLED_BY_FULL_RANK, SETTLED_BY_NULL_VECTOR, SETTLED_BY_SIZE_PROOF
)


@dataclass(frozen=True)
class SparkSearchResult:
    """Outcome of the exhaustive search.

    witness lists the columns of the first (smallest size, lexicographic)
    dependent subset when spark is finite. subsets_examined counts the
    subsets the kernel tested at the rule or at the margin: the size
    proof's probe, up to and including the first subset that fails, plus
    the scan's, up to and including the witness. Sizes the coherence
    profile proves independent are not scanned, and the proofs for rows
    >= cols - 1 count 0 (full rank, or its failed check) and 1 (null
    vector). settled_by is one of SETTLED_BY: "search" for the scan,
    "size_proof" for a scan resumed above a passing probe, "full_rank" or
    "null_vector" for the proofs.
    """

    spark: int | float
    witness: tuple[int, ...] | None
    subsets_examined: int
    settled_by: str


@dataclass(frozen=True)
class SparkReport:
    """Both lower bounds plus (optionally) the exact search outcome.

    mutual_coherence_bound is 1 + 1/(mutual coherence), or None when
    the mutual coherence is 0: there is no bound then, not an infinite
    one, and schema v3 writes it as null and the text report as n/a;
    coherence_index_bound is 1 + coherence_index, or math.inf when no
    coherence prefix sum reaches 1 (then the spark is provably infinite);
    exact is the spark, math.inf when every column subset is independent,
    or None when the search was skipped or aborted, with
    search_budget_hit flagging the aborted case; trivial_upper is rows+1
    for wide matrices, None otherwise; settled_by is the search's
    SparkSearchResult.settled_by, None when no search settled.
    """

    mutual_coherence_bound: float | None
    coherence_index_bound: int | float
    exact: int | float | None
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


def coherence_index_lower_bound(matrix: DenseMatrix) -> int | float:
    """Improved spark lower bound 1 + coherence_index; math.inf with an infinite index.

    The index is taken at the matrix's index_slack.

    When the full coherence sum stays below 1 every unit-diagonal Gram
    minor is strictly diagonally dominant, hence positive definite, so all
    columns are independent and the spark is infinite.
    """
    return 1 + coherence_profile(matrix).coherence_index


def _first_unproven_size(matrix: DenseMatrix, tol_factor: float) -> int:
    """The smallest subset size the coherence profile cannot prove independent.

    A size-k Gram minor of the unit columns has off-diagonal row sums of at
    most the p = k - 1 largest coherences, each allowed coherence_rounding
    r, so by Gershgorin its eigenvalues lie within 1 -+ (1 - m) for the
    margin m = 1 - prefix_sums[p-1] - p * r, and sigma_min / sigma_max of
    the subset is at least sqrt(m / (2 - m)). Size k is proven independent
    when half of that ratio (the factor 2 a Cholesky pass in the kernel
    keeps too) clears rho, the SVD cutoff ratio tol_factor * rows plus the
    SVD's own error (SVD_ERROR), so a coarse tolerance proves nothing.
    That is m > 8 rho^2 / (1 + 4 rho^2): the first unproven size is 1 +
    the coherence index at that slack, 1 when rho >= 1/2 (the slack
    reaches 1), and cols + 1 when no p <= cols - 1 qualifies.

    rho takes rows where the rule takes max(rows, k), as no size above
    rows + 1 is reached: a tall matrix has k <= cols <= rows, and for a
    wide one the rows largest coherences plus rows * r reach 1
    (top_coherence_sum), so p = rows qualifies at any slack.
    """
    rows, cols = matrix.shape
    rho = (tol_factor + SVD_ERROR * EPS) * rows
    if not rho < 0.5:
        return 1
    slack = 8.0 * rho * rho / (1.0 + 4.0 * rho * rho)
    index = smallest_qualifying_prefix(
        matrix.sorted_coherences[1][: cols - 1], slack, coherence_rounding(rows)
    )
    return min(index, cols) + 1


def _margin(tol_factor: float, dim: int) -> float:
    """m(tol, D) of the margin lemma (module docstring), for D = dim."""
    s = SVD_ERROR * EPS * dim
    return (1.0 + 8.0 * EPS) * (tol_factor * (1.0 + 2.0 * s) + 2.0 * s / dim)


def _scan(
    data: np.ndarray,
    tol_factor: float,
    budget: int,
    first_size: int = 1,
    examined: int = 0,
) -> SparkSearchResult:
    """The subset scan over sizes first_size, first_size + 1, ...

    Sizes below first_size are taken as proven independent and not
    counted; `examined` subsets already spent count toward `budget` and
    the result. Raises BudgetExceeded once `budget` subsets were scanned
    without settling the answer.
    """
    cols = data.shape[1]
    for size in range(first_size, cols + 1):
        total = math.comb(cols, size)
        allowed = min(total, budget - examined)
        if allowed < 1:
            raise BudgetExceeded(examined)
        hit_rank, witness = scan_chunk(data, size, allowed, tol_factor)
        if witness is not None:
            return SparkSearchResult(
                spark=size,
                witness=witness,
                subsets_examined=examined + hit_rank + 1,
                settled_by=SETTLED_BY_SEARCH,
            )
        examined += allowed
        if allowed < total:
            raise BudgetExceeded(examined)
    return SparkSearchResult(
        spark=math.inf, witness=None, subsets_examined=examined,
        settled_by=SETTLED_BY_SEARCH,
    )


def exact_spark(
    matrix: DenseMatrix,
    *,
    budget: int | None = None,
    workers: int = 1,
) -> SparkSearchResult:
    """Minimal dependent-subset search: a proof from the top, else the scan.

    The rank rule is the one at the matrix's rank_tol_factor. A proof from
    the top, chosen by shape, may settle the answer: full rank, the size
    proof or the null vector, all at the one margin of the module
    docstring's lemma. Otherwise sizes from _first_unproven_size on are
    scanned, and within a size, subsets in lexicographic order; the first
    dependent one wins, so the result is deterministic and the witness is
    minimal. Either way spark and witness are those of a scan from size 1.
    Raises BudgetExceeded once `budget` subsets were examined without
    settling the answer. The spark is math.inf when all columns are
    independent. The search runs on one thread: `workers` must be >= 1 and
    is otherwise ignored.
    """
    budget = search_budget(budget)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # Rank is invariant under positive column scaling, and the cutoff is
    # relative to the largest singular value: on raw columns a short
    # column next to a long one would count as zero.
    data = unit_columns(matrix)
    rows, cols = data.shape
    tol_factor = matrix.tolerances.rank_tol_factor
    margin = _margin(tol_factor, rows)
    if rows >= cols and scan_chunk(data, cols, 1, margin)[0] < 0:
        return SparkSearchResult(math.inf, None, 0, SETTLED_BY_FULL_RANK)
    first_size = _first_unproven_size(matrix, tol_factor)
    examined = 0
    if first_size <= rows < cols - 1:
        total = math.comb(cols, rows)
        failed, _ = scan_chunk(data, rows, min(total, budget), margin)
        if failed < 0 and budget <= total:
            raise BudgetExceeded(budget)
        if failed < 0:
            # the scan resumes at size rows + 1, where a subset has only rows
            # singular values: the first is dependent under the rule
            return SparkSearchResult(
                rows + 1, tuple(range(rows + 1)), total + 1, SETTLED_BY_SIZE_PROOF
            )
        examined = failed + 1
    elif 2 <= cols <= rows + 1:
        # the i-th subset of size cols - 1 leaves out order[cols - 1 - i]
        vt = np.linalg.svd(data, full_matrices=rows < cols)[2]
        order = np.argsort(np.abs(vt[-1]), kind="stable")
        failed, _ = scan_chunk(data[:, order], cols - 1, cols, margin)
        passed = cols if failed < 0 else failed
        support = tuple(sorted(int(j) for j in order[cols - passed:]))
        # W is the first and only subset of its own columns; all rows + 1
        # of them have only rows singular values, so they are dependent
        if support and (
            len(support) > rows
            or scan_chunk(data[:, support], len(support), 1, tol_factor)[1] is not None
        ):
            return SparkSearchResult(len(support), support, 1, SETTLED_BY_NULL_VECTOR)
    return _scan(data, tol_factor, budget, first_size, examined)


def analyze_spark(
    matrix: DenseMatrix,
    *,
    compute_exact: bool = False,
    budget: int | None = None,
) -> SparkReport:
    """Assemble the full spark report for a matrix with at least two columns, at its tolerances.

    The bounds come first: they raise TooFewColumns for fewer columns
    before any search runs.
    """
    mutual_coherence_bound = mutual_coherence_lower_bound(matrix)
    coherence_index_bound = coherence_index_lower_bound(matrix)
    exact: int | float | None = None
    witness: tuple[int, ...] | None = None
    budget_hit = False
    subsets_examined: int | None = None
    settled_by: str | None = None
    if compute_exact:
        try:
            result = exact_spark(matrix, budget=budget)
            exact = result.spark
            witness = result.witness
            subsets_examined = result.subsets_examined
            settled_by = result.settled_by
        except BudgetExceeded as exc:
            budget_hit = True
            subsets_examined = exc.subsets_examined
    trivial_upper = matrix.rows + 1 if matrix.rows < matrix.cols else None
    return SparkReport(
        mutual_coherence_bound=mutual_coherence_bound,
        coherence_index_bound=coherence_index_bound,
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
    column_submatrix(matrix, indices)  # validates emptiness, ordering and range
    return unit_gram(unit_columns(matrix, list(indices)))
