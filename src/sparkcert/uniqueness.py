"""Sparsest-solution uniqueness certificates and a brute-force oracle.

A candidate solution x of A x = b is certifiably the unique sparsest
solution when its support size stays strictly below half of (a lower
bound on) 1 + spark(A). Three criteria apply, strongest first: the exact
spark, the coherence-index bound, and the mutual-coherence bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig, search_budget
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    NonFiniteEntry,
    NormOverflow,
    NoSolutionWithinKmax,
)
from .matrix import DenseMatrix, euclidean_norm
from .spark import coherence_index_lower_bound, mutual_coherence_lower_bound

CRITERION_SPARK = "spark"
CRITERION_INDEX = "coherence_index"
CRITERION_COHERENCE = "mutual_coherence"
CRITERIA = frozenset((CRITERION_SPARK, CRITERION_INDEX, CRITERION_COHERENCE))


class Verdict(str, Enum):
    UNIQUE_BY_SPARK = "unique_by_spark"
    UNIQUE_BY_INDEX = "unique_by_coherence_index"
    UNIQUE_BY_COHERENCE = "unique_by_mutual_coherence"
    INCONCLUSIVE = "inconclusive"
    NOT_A_SOLUTION = "not_a_solution"


@dataclass(frozen=True)
class UniquenessCertificate:
    """Certificate for one candidate solution.

    spark_threshold is spark/2 when the exact spark is known and finite,
    None otherwise (with an infinite exact spark the criterion passes
    outright and the threshold stays None); index_threshold is
    (1 + coherence_index)/2, math.inf with an infinite index;
    coherence_threshold is half of spark.mutual_coherence_lower_bound,
    which raises the mutual coherence by coherence_rounding(rows) (to at
    most 1) so that rounding cannot lift it above the spark, or None when
    the mutual coherence is 0. spark_threshold and coherence_threshold
    keep None, not math.inf, because schema v3 writes them as null and the
    text report as n/a.
    criteria_passed names every criterion whose strict inequality held;
    verdict reports the strongest of them.
    """

    l0: int
    residual: float
    spark_threshold: float | None
    index_threshold: float
    coherence_threshold: float | None
    criteria_passed: frozenset[str]
    verdict: Verdict


def l0_norm(x: np.ndarray, tolerances: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Number of entries with magnitude above zero_entry_tol."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEntry("vector contains NaN or infinity")
    return int(np.count_nonzero(np.abs(arr) > tolerances.zero_entry_tol))


def _vector(name: str, value: np.ndarray, length: int) -> np.ndarray:
    """`value` as a float64 vector; raises unless it is 1-D of `length`, and finite."""
    v = np.asarray(value, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != length:
        raise DimensionMismatch(f"{name} must be a vector of length {length}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteEntry(f"{name} contains NaN or infinity")
    return v


def certify(
    matrix: DenseMatrix,
    x: np.ndarray,
    b: np.ndarray,
    *,
    exact: int | float | None = None,
) -> UniquenessCertificate:
    """Certify whether x is the unique sparsest solution of A x = b.

    One table lists the criteria, strongest first: spark (threshold
    spark/2), coherence index ((1 + index)/2) and mutual coherence (half
    its bound). A criterion passes when l0 < threshold; an absent
    threshold passes nothing. Pass the exact spark (when known: an int, or
    math.inf) to unlock the strongest criterion; an infinite one passes
    outright. The verdict is the first criterion passed, else
    INCONCLUSIVE, or NOT_A_SOLUTION with nothing passed when the residual
    exceeds residual_tol. Every tolerance is the matrix's. Raises
    NormOverflow when A x - b leaves the float64 range.
    """
    xv = _vector("x", x, matrix.cols)
    bv = _vector("b", b, matrix.rows)

    sparsity = l0_norm(xv, matrix.tolerances)
    # finite inputs can still overflow the product; an overflowed residual
    # says nothing about whether x solves the system, so it is no verdict
    with np.errstate(over="ignore", invalid="ignore"):
        difference = matrix.data @ xv - bv
    if not np.all(np.isfinite(difference)):
        raise NormOverflow("residual A x - b has an entry beyond the float64 range")
    residual = euclidean_norm(difference)

    # full column rank (an infinite spark) allows at most one solution at all
    spark_threshold = None if exact is None else exact / 2.0
    index_threshold = coherence_index_lower_bound(matrix) / 2.0
    coherence_bound = mutual_coherence_lower_bound(matrix)
    coherence_threshold = None if coherence_bound is None else coherence_bound / 2.0
    table = (
        (CRITERION_SPARK, Verdict.UNIQUE_BY_SPARK, spark_threshold),
        (CRITERION_INDEX, Verdict.UNIQUE_BY_INDEX, index_threshold),
        (CRITERION_COHERENCE, Verdict.UNIQUE_BY_COHERENCE, coherence_threshold),
    )

    if residual > matrix.tolerances.residual_tol:
        passed, verdict = [], Verdict.NOT_A_SOLUTION
    else:
        passed = [row for row in table if row[2] is not None and sparsity < row[2]]
        verdict = passed[0][1] if passed else Verdict.INCONCLUSIVE
    return UniquenessCertificate(
        l0=sparsity,
        residual=residual,
        spark_threshold=None if spark_threshold == math.inf else spark_threshold,
        index_threshold=index_threshold,
        coherence_threshold=coherence_threshold,
        criteria_passed=frozenset(name for name, _, _ in passed),
        verdict=verdict,
    )


@dataclass(frozen=True)
class OracleSolution:
    """One sparsest solution: its support columns and their coefficients."""

    support: tuple[int, ...]
    coefficients: tuple[float, ...]

    def to_vector(self, cols: int) -> np.ndarray:
        x = np.zeros(cols, dtype=np.float64)
        for j, c in zip(self.support, self.coefficients):
            x[j] = c
        return x


@dataclass(frozen=True)
class OracleResult:
    """All solutions found at the minimal support size."""

    sparsity: int
    solutions: tuple[OracleSolution, ...]
    supports_examined: int


def _fits(residual: np.ndarray, matrix: DenseMatrix) -> bool:
    """Whether |residual| <= the matrix's residual_tol; one beyond the float64 range is not."""
    try:
        return euclidean_norm(residual) <= matrix.tolerances.residual_tol
    except NormOverflow:
        return False


def sparsest_oracle(
    matrix: DenseMatrix,
    b: np.ndarray,
    k_max: int,
    *,
    budget: int | None = None,
) -> OracleResult:
    """Brute-force minimal-support solutions of A x = b, for validation.

    Enumerates supports by size 0, 1, ..., k_max; a support is accepted
    when its least-squares fit, refined once if it misses, has residual
    <= residual_tol (one that overflows is rejected) and every coefficient
    exceeds zero_entry_tol in magnitude, so the reported sparsity is
    exactly the support size. Stops at the first size with any accepted
    support and returns all accepted supports of that size. Both
    tolerances are the matrix's. Raises BudgetExceeded once `budget`
    supports were examined without one.
    """
    budget = search_budget(budget)
    bv = _vector("b", b, matrix.rows)
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    k_max = min(k_max, matrix.cols)

    examined = 0
    for size in range(k_max + 1):
        found: list[OracleSolution] = []
        if size == 0:
            examined += 1
            if _fits(bv, matrix):
                found.append(OracleSolution(support=(), coefficients=()))
        else:
            for support in combinations(range(matrix.cols), size):
                if examined >= budget:
                    raise BudgetExceeded(examined)
                examined += 1
                sub = matrix.data[:, support]
                coef, *_ = np.linalg.lstsq(sub, bv, rcond=None)
                # an overflowing residual only shows that this is no solution
                with np.errstate(over="ignore", invalid="ignore"):
                    residual = sub @ coef - bv
                    if np.all(np.isfinite(residual)) and not _fits(residual, matrix):
                        # lstsq can miss an exact fit by a few ulps of b, more
                        # than residual_tol when b is large: refine once
                        coef = coef - np.linalg.lstsq(sub, residual, rcond=None)[0]
                        residual = sub @ coef - bv
                if not _fits(residual, matrix):
                    continue
                if np.any(np.abs(coef) <= matrix.tolerances.zero_entry_tol):
                    continue
                found.append(
                    OracleSolution(
                        support=tuple(int(j) for j in support),
                        coefficients=tuple(float(c) for c in coef),
                    )
                )
        if found:
            return OracleResult(
                sparsity=size,
                solutions=tuple(found),
                supports_examined=examined,
            )
    raise NoSolutionWithinKmax(
        f"no solution with support size <= {k_max} at residual_tol "
        f"{matrix.tolerances.residual_tol}"
    )
