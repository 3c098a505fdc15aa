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

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import DimensionMismatch, IndexOutOfRange, NonFiniteEntry, NormOverflow, ZeroColumn


def euclidean_norm(values: np.ndarray) -> float:
    """Euclidean norm from a correctly rounded sum of squares, safe from overflow.

    Naive accumulation can be off by 1 ulp, enough to flip borderline
    coherence sums. Scaling by an exact power of two first changes no bit
    while no square leaves the float64 range. Raises NormOverflow when an
    entry or the norm lies beyond that range.
    """
    v = np.asarray(values, dtype=np.float64)
    peak = float(np.max(np.abs(v), initial=0.0))
    if not math.isfinite(peak):
        raise NormOverflow("vector has an entry beyond the float64 range")
    exponent = math.frexp(peak)[1]
    y = np.ldexp(v, -exponent)
    try:
        return math.ldexp(math.sqrt(math.fsum((y * y).tolist())), exponent)
    except OverflowError:
        raise NormOverflow("Euclidean norm exceeds the float64 range") from None


def euclidean_norms(arr: np.ndarray) -> tuple[float, ...]:
    """euclidean_norm of each column of a 2-D array, in one vectorized pass.

    The steps per column are those of euclidean_norm, so every norm has
    the same bits; only the final sum, root and scaling run per column.
    """
    peak = np.max(np.abs(arr), axis=0, initial=0.0)
    if not np.all(np.isfinite(peak)):
        raise NormOverflow("vector has an entry beyond the float64 range")
    exponents = np.frexp(peak)[1]
    y = np.ldexp(arr, -exponents)
    try:
        return tuple(
            math.ldexp(math.sqrt(math.fsum(squares)), exponent)
            for squares, exponent in zip((y * y).T.tolist(), exponents.tolist())
        )
    except OverflowError:
        raise NormOverflow("Euclidean norm exceeds the float64 range") from None


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
        if not 0 <= j < self.cols:
            raise IndexOutOfRange(f"column index {j} outside [0, {self.cols})")
        return self.data[:, j]

    @cached_property
    def sorted_coherences(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (coherences, prefix_sums), computed once, on first use.

        coherences holds every |Gram| entry above the diagonal in
        non-increasing order; prefix_sums holds their running sums.
        """
        g = gram_matrix(self)
        vals = np.abs(g[np.triu_indices(self.cols, k=1)])
        # Rounding can push a coherence a few ulps past 1 (e.g. duplicated
        # columns); clamp so downstream thresholds see exact 1.
        np.minimum(vals, 1.0, out=vals)
        vals = -np.sort(-vals)  # a fresh array: no writable base behind it
        prefix = np.cumsum(vals)
        vals.setflags(write=False)
        prefix.setflags(write=False)
        return vals, prefix


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
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionMismatch(f"matrix must be at least 1x1, got shape {arr.shape}")
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
    scaled = unit_columns(matrix)
    scaled.setflags(write=False)
    return DenseMatrix(data=scaled, column_norms=euclidean_norms(scaled))


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
    """Number of singular values above rank_tol_factor * sigma_max * max(shape)."""
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got ndim={a.ndim}")
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(singular_rank(s, tolerances.rank_tol_factor, max(a.shape)))


def singular_rank(s: np.ndarray, tol_factor: float, dim: int) -> np.ndarray:
    """Count of singular values above tol_factor * sigma_max * dim, along the last axis.

    `s` holds singular values in non-increasing order, one set per row
    when stacked; the rank rule of numerical_rank and of the subset scan.
    """
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
