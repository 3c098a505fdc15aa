"""Matrix and vector file formats: a CSV dialect and Matrix Market array.

CSV: one matrix row per line, comma-separated decimal numbers, uniform
width, '#' comment lines, trailing blank lines allowed. Vectors use the
same dialect with one number per line. Matrix Market support is limited
to the dense "array real general" variant with column-major entries.
All error positions are reported 1-based.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator, Sequence
from itertools import islice

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import (
    MatrixParseError,
    NonFiniteEntry,
    RaggedRows,
    TruncatedData,
    UnparseableNumber,
    UnsupportedHeader,
)
from .matrix import DenseMatrix, build_matrix

_MM_HEADER = re.compile(
    r"^%%MatrixMarket\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s*$", re.IGNORECASE
)


def _decode(text: str | bytes) -> str:
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MatrixParseError(f"input is not valid UTF-8 (byte {exc.start})") from None
    return text


def _lines(text: str, comment: str) -> Iterator[tuple[int, str]]:
    """(1-based number, stripped line) of each line before the trailing blank ones.

    Lines that start with `comment` once stripped are dropped.
    """
    body = text.rstrip()
    for number, line in enumerate(body.split("\n") if body else (), 1):
        line = line.strip()
        if not line.startswith(comment):
            yield number, line


def _floats(tokens: Sequence[str], position: Callable[[int], tuple[int, int]]) -> np.ndarray:
    """float() of each stripped token, as an array.

    Raises UnparseableNumber at position(i), the (line, field) of the
    first token that float() rejects. Tokens are stripped because float()
    does not strip the separators \\x1c-\\x1f, as str.strip() does.
    """
    try:
        return np.fromiter(map(float, map(str.strip, tokens)), np.float64, len(tokens))
    except ValueError:
        for i, token in enumerate(tokens):
            try:
                float(token.strip())
            except ValueError:
                raise UnparseableNumber(*position(i)) from None
        raise


def parse_csv(
    text: str | bytes,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> DenseMatrix:
    """Parse the CSV dialect into a validated DenseMatrix."""
    rows: list[np.ndarray] = []
    for lineno, line in _lines(_decode(text), "#"):
        fields = line.split(",")
        if rows and len(fields) != len(rows[0]):
            raise RaggedRows(lineno)
        rows.append(_floats(fields, lambda c: (lineno, c + 1)))
    if not rows:
        raise TruncatedData("no matrix rows found")
    return build_matrix(rows, tolerances)


def parse_vector(text: str | bytes) -> np.ndarray:
    """Parse a one-number-per-line vector file."""
    text = _decode(text)
    entries = [line for _, line in _lines(text, "#")]
    if not entries:
        raise TruncatedData("no vector entries found")
    arr = _floats(entries, lambda t: (next(islice(_lines(text, "#"), t, None))[0], 1))
    if not np.all(np.isfinite(arr)):
        bad = int(np.argwhere(~np.isfinite(arr))[0][0])
        raise NonFiniteEntry(f"vector entry {bad} is not finite")
    return arr


def parse_matrix_market(
    text: str | bytes,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> DenseMatrix:
    """Parse a Matrix Market "array real general" file into a DenseMatrix."""
    text = _decode(text)
    header = _MM_HEADER.match(text.partition("\n")[0])
    if header is None:
        raise UnsupportedHeader(
            "line 1: expected '%%MatrixMarket matrix array real general'"
        )
    obj, layout, field, symmetry = (s.lower() for s in header.groups())
    if obj != "matrix":
        raise UnsupportedHeader(f"unsupported object {obj!r}; only 'matrix'")
    if layout != "array":
        raise UnsupportedHeader(
            f"unsupported format {layout!r}; only dense 'array' (no 'coordinate')"
        )
    if field != "real":
        raise UnsupportedHeader(f"unsupported field {field!r}; only 'real'")
    if symmetry != "general":
        raise UnsupportedHeader(f"unsupported symmetry {symmetry!r}; only 'general'")

    def body() -> Iterator[tuple[int, str]]:
        # the header starts with '%', so it is dropped as a comment line
        return ((lineno, line) for lineno, line in _lines(text, "%") if line)

    lines = body()
    size_lineno, size_line = next(lines, (0, ""))
    if not size_line:
        raise TruncatedData("missing size line")
    parts = size_line.split()
    if len(parts) != 2:
        raise MatrixParseError(
            f"line {size_lineno}: expected 'rows cols', got {size_line!r}"
        )
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise MatrixParseError(
            f"line {size_lineno}: expected integer dimensions, got {size_line!r}"
        ) from None
    if rows < 1 or cols < 1:
        raise MatrixParseError(f"line {size_lineno}: dimensions must be positive")

    # Keep the entries alone: a (number, line) pair per entry nearly
    # doubles the peak memory of a parse. Numbers are looked up on error.
    entries = [line for _, line in lines]
    needed = rows * cols
    if len(entries) != needed:
        raise TruncatedData(
            f"expected {needed} entries for a {rows}x{cols} matrix, found {len(entries)}"
        )
    values = _floats(entries, lambda t: (next(islice(body(), t + 1, None))[0], 1))
    # column-major entry order
    return build_matrix(values.reshape(cols, rows).T, tolerances)


def sniff_format(text: str | bytes) -> str:
    """Guess 'mm' when the first non-blank line is a Matrix Market header, else 'csv'."""
    head = _decode(text).lstrip()[:14].lower()
    return "mm" if head.startswith("%%matrixmarket") else "csv"


def parse_matrix_auto(
    text: str | bytes,
    fmt: str | None = None,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> DenseMatrix:
    """Parse with an explicit format ('csv' or 'mm') or by sniffing the header."""
    chosen = fmt if fmt is not None else sniff_format(text)
    if chosen == "csv":
        return parse_csv(text, tolerances)
    if chosen == "mm":
        return parse_matrix_market(text, tolerances)
    raise MatrixParseError(f"unknown format {chosen!r}; expected 'csv' or 'mm'")


def format_float(value: float) -> str:
    """Render a double with 17 significant digits so parsing returns it exactly."""
    out = "%.17g" % value
    if "e" not in out and "." not in out and "inf" not in out and "nan" not in out:
        out += ".0"
    return out


def write_csv(data: np.ndarray) -> str:
    """Serialize a 2-D array in the CSV dialect."""
    arr = np.asarray(data, dtype=np.float64)
    lines = [",".join(format_float(v) for v in row) for row in arr]
    return "\n".join(lines) + "\n"


def write_matrix_market(data: np.ndarray) -> str:
    """Serialize a 2-D array as Matrix Market array/real/general."""
    arr = np.asarray(data, dtype=np.float64)
    rows, cols = arr.shape
    out = ["%%MatrixMarket matrix array real general", f"{rows} {cols}"]
    for j in range(cols):
        for i in range(rows):
            out.append(format_float(arr[i, j]))
    return "\n".join(out) + "\n"


def write_vector(values: np.ndarray) -> str:
    """Serialize a 1-D array one number per line."""
    arr = np.asarray(values, dtype=np.float64)
    return "\n".join(format_float(v) for v in arr) + "\n"
