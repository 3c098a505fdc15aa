"""Exception types raised across the package.

Everything derives from SparkCertError so the CLI can map any library
failure to a one-line diagnostic and a nonzero exit code.
"""

from __future__ import annotations


class SparkCertError(Exception):
    """Base class for all errors raised by sparkcert."""


class DimensionMismatch(SparkCertError):
    """Shapes or lengths of inputs do not agree."""


class NonFiniteEntry(SparkCertError):
    """An input contains NaN or infinity."""


class ZeroColumn(SparkCertError):
    """A matrix column has (numerically) zero Euclidean norm.

    Every operation here assumes no zero columns; this error signals the
    assumption is violated at construction time.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"column {index} has norm below the zero-column tolerance")


class NormOverflow(SparkCertError):
    """A Euclidean norm (of a column or a residual) lies beyond the float64 range."""


class IndexOutOfRange(SparkCertError):
    """A column index is outside [0, cols)."""


class TooFewColumns(SparkCertError):
    """Pairwise-coherence quantities need at least two columns."""


class NotUnderdetermined(SparkCertError):
    """An operation requiring rows < cols was called on a tall or square matrix."""


class NotSquare(SparkCertError):
    """A square matrix was expected."""


class NotUnitDiagonal(SparkCertError):
    """A Gram minor must have all diagonal entries equal to 1 (within 1e-12)."""


class BudgetExceeded(SparkCertError):
    """A combinatorial search was aborted after exhausting its subset budget."""

    def __init__(self, subsets_examined: int):
        self.subsets_examined = subsets_examined
        super().__init__(f"search budget exhausted after {subsets_examined} subsets")


class NoSolutionWithinKmax(SparkCertError):
    """The sparse-solution search found nothing up to the requested support size."""


class InvalidN(SparkCertError):
    """Generator parameter n is out of range."""


class MatrixParseError(SparkCertError):
    """Base class for matrix/vector file format errors."""


class RaggedRows(MatrixParseError):
    """A CSV row has a different number of fields than the first row."""

    def __init__(self, line: int):
        self.line = line
        super().__init__(f"line {line}: row length differs from the first row")


class UnparseableNumber(MatrixParseError):
    """A field could not be parsed as a decimal number."""

    def __init__(self, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, field {col}: not a number")


class UnsupportedHeader(MatrixParseError):
    """Matrix Market input is not in array/real/general format."""


class TruncatedData(MatrixParseError):
    """Matrix Market input ended early or carried the wrong entry count."""


class ReportParseError(SparkCertError):
    """A serialized analysis report could not be decoded."""


class CliUsageError(SparkCertError):
    """Bad command-line arguments."""
