"""Validated dense matrix wrapper and basic linear-algebra helpers.

All downstream analysis assumes a finite float64 matrix with no zero
columns; DenseMatrix enforces that once, at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, EPS, ToleranceConfig
from .errors import DimensionMismatch, IndexOutOfRange, NonFiniteEntry, NormOverflow, ZeroColumn

# How many of the largest coherences a report shows; the coherence pass
# keeps at least this many.
TOP_COHERENCES_SHOWN = 10


def coherence_rounding(rows: int) -> float:
    """Bound on how far a computed coherence can fall below the exact one.

    Each coherence is a length-rows dot product of computed unit columns,
    which is off by at most about (rows + 8) * eps, and a prefix sum adds
    up to 2 * eps per term; twice (rows + 8) * eps covers both. Without it
    a duplicated column can read 1 - eps and leave the index undefined.
    """
    return 2.0 * (rows + 8) * EPS


def euclidean_norm(values: np.ndarray) -> float:
    """Euclidean norm of a vector: euclidean_norms of it as one column."""
    return euclidean_norms(np.asarray(values, dtype=np.float64).reshape(-1, 1))[0]


def euclidean_norms(arr: np.ndarray) -> tuple[float, ...]:
    """Euclidean norm of each column of a 2-D array, from a correctly rounded sum of squares.

    Naive accumulation can be off by 1 ulp, enough to flip borderline
    coherence sums. Each column is scaled by an exact power of two 2**-e
    that takes its largest magnitude into [0.5, 1), which changes no bit
    while no square leaves the float64 range. Its n rounded squares s_i
    then lie in [0, 1), and its norm is ldexp(sqrt(S'), e), where S' is
    the sum S = sum(s_i) correctly rounded, the value math.fsum gives.
    Raises NormOverflow when an entry or a norm lies beyond that range.

    S' is decided for all columns at once by an error-free split against
    a power of two (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31(1), 2008). Let
    sigma = 2**k >= n, v = 2**(k - 52) and u = 2**-53.

    - As s_i < 1 <= sigma, fl(sigma + s_i) lies in [sigma, 2 sigma], where
      the floats are the multiples of v. So q_i = fl(sigma + s_i) - sigma
      is exact (Sterbenz) and is s_i rounded to a multiple of v, at most
      1; r_i = s_i - q_i is exact, with |r_i| <= v / 2.
    - Every partial sum of the q_i is a multiple of v no larger than
      n <= 2**52 v, hence a float: numpy sums them exactly, in any order,
      to Q.
    - numpy's sum R' of the r_i, in any order, is within
      gamma(n - 1) * sum |r_i| <= 2 (n - 1) u * n v / 2 < E = n**2 * 2**(k - 105)
      of their exact sum R, where S = Q + R.
    - c = fl(Q + R') and d = Q + R' - c are exact by Knuth's TwoSum, so
      |S - c| <= |d| + E.
    - S rounds to c when it lies within half the gap to c's neighbour on
      either side; g = c - pred(c), exact by Sterbenz, is the narrower
      gap (it is half the other one when c is a power of two). fl(g / 2)
      is g / 2 or, for a subnormal c, 0; as rounding is monotone,
      fl(|d| + E) < fl(g / 2) implies |d| + E < g / 2, and then S' = c.

    A column that fails the test takes math.fsum: a column of zeros
    (c = g = 0), or a tie such as (0.5, 2**-28, 2**-28), whose squares
    sum to 0.25 + 2**-55, the midpoint above 0.25.
    """
    y, exponents = _scaled_by_peak(arr, axis=0)
    squares = np.multiply(y, y, out=y)
    rows = squares.shape[0]
    k = (rows - 1).bit_length()
    sigma = math.ldexp(1.0, k)
    part = squares + sigma
    part -= sigma
    high = part.sum(axis=0)
    np.subtract(squares, part, out=part)
    low = part.sum(axis=0)
    total = high + low
    back = total - high
    error = (high - (total - back)) + (low - back)
    bound = math.ldexp(rows * rows, k - 105)
    settled = np.abs(error) + bound < (total - np.nextafter(total, 0.0)) / 2
    for j in np.flatnonzero(~settled).tolist():
        total[j] = math.fsum(squares[:, j].tolist())
    with np.errstate(over="ignore"):
        norms = np.ldexp(np.sqrt(total), exponents)
    if np.isinf(norms).any():
        raise NormOverflow("Euclidean norm exceeds the float64 range")
    return tuple(norms.tolist())


def _scaled_by_peak(arr: np.ndarray, axis: int | None) -> tuple[np.ndarray, np.ndarray]:
    """(arr * 2**-e, e) that take the largest magnitude (per column for axis=0) into [0.5, 1).

    Raises NormOverflow for an entry that is not finite.
    """
    peak = np.max(np.abs(arr), axis=axis, initial=0.0)
    if not np.all(np.isfinite(peak)):
        raise NormOverflow("vector has an entry beyond the float64 range")
    exponents = np.frexp(peak)[1]
    return np.ldexp(arr, -exponents), exponents


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """A finite float64 matrix with rows >= 1, cols >= 1, and no zero columns.

    data is C-contiguous and marked read-only; column_norms[j] is the exact
    rounded Euclidean norm of column j. As data cannot change, the sorted
    coherences are cached on the instance (sorted_coherences).
    """

    data: np.ndarray
    column_norms: tuple[float, ...] = field(repr=False)

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def cols(self) -> int:
        return int(self.data.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def column(self, j: int) -> np.ndarray:
        column_submatrix(self, [j])  # validates the index
        return self.data[:, j]

    @cached_property
    def sorted_coherences(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (coherences, prefix_sums), computed once, on first use.

        coherences holds the K largest |Gram| entries above the diagonal in
        non-increasing order, K = min(pairs, max(rows, TOP_COHERENCES_SHOWN))
        of the pairs = cols * (cols - 1) / 2; prefix_sums holds their
        running sums. Both are bit for bit the first K entries of the
        arrays a sort of every pair would give. When the K kept sums fall
        short, prefix_sums[K-1] + K * coherence_rounding(rows) < 1 (a tall
        matrix close to orthogonal), every pair is kept.

        No reader needs more. Every prefix test is prefix_sums[p-1] +
        p * coherence_rounding(rows) >= 1 - slack with slack >= 0, which
        p = K passes once the kept sums reach 1, so the smallest passing p
        is among the kept ones. The sum of the `rows` largest coherences of
        a wide matrix is prefix_sums[rows-1], and a report shows the first
        TOP_COHERENCES_SHOWN.

        The pass selects from the whole product U^T U, where each pair
        appears twice: numpy forms a.T @ a exactly symmetric (BLAS syrk and
        a mirrored triangle, or without BLAS a loop that forms both halves
        with the same products in the same order), so each pair's two
        entries are one value, the one unit_gram's (g + g.T) / 2 gives.
        With the diagonal set below every coherence, the 2K largest entries
        sorted are each kept value twice, and every other one is kept. A
        product that was not symmetric could only make the kept prefix sums
        larger and the mutual coherence no smaller: with the entries sorted
        as w_1 >= w_2 >= ..., the p-th kept sum w_1 + w_3 + ... + w_(2p-1)
        is at least half of w_1 + ... + w_2p, hence at least the sum of the
        p largest means of a pair's two entries. So every bound would stay
        a lower bound.
        """
        unit = unit_columns(self)
        flat = (unit.T @ unit).reshape(-1)
        del unit
        np.abs(flat, out=flat)
        # Rounding can push a coherence a few ulps past 1 (e.g. duplicated
        # columns); clamp so downstream thresholds see exact 1.
        np.minimum(flat, 1.0, out=flat)
        flat[:: self.cols + 1] = -1.0
        pairs = self.cols * (self.cols - 1) // 2
        keep = min(pairs, max(self.rows, TOP_COHERENCES_SHOWN))
        tail = flat
        if keep < pairs:
            # the 2 * keep largest go to the tail, in no particular order
            flat.partition(flat.size - 2 * keep)
            tail = flat[flat.size - 2 * keep :]
        top = _leading_pairs(tail, keep)
        prefix = np.cumsum(top)
        if keep < pairs and prefix[-1] + keep * coherence_rounding(self.rows) < 1.0:
            top = _leading_pairs(flat, pairs)
            prefix = np.cumsum(top)
        top.setflags(write=False)
        prefix.setflags(write=False)
        return top, prefix


def _leading_pairs(entries: np.ndarray, count: int) -> np.ndarray:
    """The `count` largest pair values, non-increasing, from entries that hold each twice.

    Sorts `entries` in place and copies every other one of its 2 * count
    largest into a fresh array.
    """
    entries.sort()
    return entries[::-1][: 2 * count : 2].copy()


def check_matrix_shape(arr: np.ndarray) -> np.ndarray:
    """arr itself, once it is 2-D with at least one row and one column.

    Raises DimensionMismatch otherwise.
    """
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionMismatch(f"matrix must be at least 1x1, got shape {arr.shape}")
    return arr


def build_matrix(
    values: Sequence[Sequence[float]] | np.ndarray,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> DenseMatrix:
    """Validate a 2-D array of numbers and wrap it as a DenseMatrix.

    Raises DimensionMismatch for non-2-D or empty input, NonFiniteEntry if
    any entry is NaN or infinite, and ZeroColumn (with the 0-based column
    index) if any column norm is <= zero_column_tol. Raises NormOverflow
    when a column norm lies beyond the float64 range.
    """
    arr = check_matrix_shape(np.array(values, dtype=np.float64, order="C"))
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise NonFiniteEntry(f"entry ({bad[0]}, {bad[1]}) is not finite")
    norms = euclidean_norms(arr)
    for j, norm in enumerate(norms):
        if norm <= tolerances.zero_column_tol:
            raise ZeroColumn(j)
    arr.setflags(write=False)
    return DenseMatrix(data=arr, column_norms=norms)


def unit_columns(matrix: DenseMatrix, indices: Sequence[int] | slice = slice(None)) -> np.ndarray:
    """The columns selected by `indices` (a list or a slice), each divided by its norm."""
    norms = np.asarray(matrix.column_norms, dtype=np.float64)
    return matrix.data[:, indices] / norms[indices]


def normalize_columns(matrix: DenseMatrix) -> DenseMatrix:
    """Return a copy with every column scaled to unit Euclidean norm."""
    return build_matrix(unit_columns(matrix))


def unit_gram(unit: np.ndarray) -> np.ndarray:
    """Gram matrix of unit-norm columns, symmetrized exactly, with a diagonal of exact 1s."""
    g = unit.T @ unit
    g = (g + g.T) / 2.0
    np.fill_diagonal(g, 1.0)
    return g


def gram_matrix(matrix: DenseMatrix) -> np.ndarray:
    """Gram matrix of the column-normalized input, symmetrized exactly.

    Entry (k, j) is the cosine of the angle between columns k and j; the
    diagonal is forced to exactly 1.
    """
    return unit_gram(unit_columns(matrix))


def numerical_rank(
    arr: np.ndarray,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> int:
    """Number of singular values above rank_tol_factor * sigma_max * max(shape).

    The SVD runs on the matrix scaled by a power of two, which keeps
    sigma_max finite and the rank unchanged. A 2-D array with no entries
    has rank 0; any other shape check_matrix_shape rejects. Raises
    NonFiniteEntry for a NaN or infinite entry.
    """
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 2 and a.size == 0:
        return 0
    check_matrix_shape(a)
    if not np.all(np.isfinite(a)):
        raise NonFiniteEntry("matrix has an entry that is not finite")
    s = np.linalg.svd(_scaled_by_peak(a, axis=None)[0], compute_uv=False)
    return int(singular_rank(s, tolerances.rank_tol_factor, max(a.shape)))


def singular_rank(s: np.ndarray, tol_factor: float, dim: int) -> np.ndarray:
    """Count of singular values above tol_factor * sigma_max * dim, along the last axis.

    `s` holds singular values in non-increasing order, one set per row
    when stacked; the rank rule of numerical_rank and of the subset scan.
    A cutoff that overflows is infinite: no singular value exceeds it.
    """
    with np.errstate(over="ignore"):
        return np.count_nonzero(s > tol_factor * s[..., :1] * dim, axis=-1)


def column_submatrix(matrix: DenseMatrix, indices: Sequence[int]) -> np.ndarray:
    """Columns of the matrix selected by strictly increasing 0-based indices."""
    idx = list(indices)
    if not idx:
        raise DimensionMismatch("at least one column index is required")
    prev = -1
    for j in idx:
        if not 0 <= j < matrix.cols:
            raise IndexOutOfRange(f"column index {j} outside [0, {matrix.cols})")
        if j <= prev:
            raise DimensionMismatch("column indices must be strictly increasing")
        prev = j
    return np.ascontiguousarray(matrix.data[:, idx])
