"""Matrix and vector file formats: a CSV dialect and Matrix Market array.

CSV: one matrix row per line, comma-separated decimal numbers, uniform
width, '#' comment lines, trailing blank lines allowed. Vectors use the
same dialect with one number per line. Matrix Market support is limited
to the dense "array real general" variant with column-major entries.
All error positions are reported 1-based.
"""

from __future__ import annotations

import re

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


def _is_comment(line: str) -> bool:
    return line.lstrip().startswith("#")


def _parse_number(token: str, line: int, col: int) -> float:
    token = token.strip()
    if not token:
        raise UnparseableNumber(line, col)
    try:
        return float(token)
    except ValueError:
        raise UnparseableNumber(line, col) from None


def parse_csv(
    text: str | bytes,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> DenseMatrix:
    """Parse the CSV dialect into a validated DenseMatrix."""
    lines = _decode(text).split("\n")
    numbered = [(i + 1, line) for i, line in enumerate(lines)]
    while numbered and numbered[-1][1].strip() == "":
        numbered.pop()
    rows: list[list[float]] = []
    width: int | None = None
    for lineno, line in numbered:
        if _is_comment(line):
            continue
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise RaggedRows(lineno)
        rows.append(
            [_parse_number(f, lineno, c + 1) for c, f in enumerate(fields)]
        )
    if not rows:
        raise TruncatedData("no matrix rows found")
    return build_matrix(rows, tolerances)


def parse_vector(text: str | bytes) -> np.ndarray:
    """Parse a one-number-per-line vector file."""
    lines = _decode(text).split("\n")
    numbered = [(i + 1, line) for i, line in enumerate(lines)]
    while numbered and numbered[-1][1].strip() == "":
        numbered.pop()
    values: list[float] = []
    for lineno, line in numbered:
        if _is_comment(line):
            continue
        values.append(_parse_number(line, lineno, 1))
    if not values:
        raise TruncatedData("no vector entries found")
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        bad = int(np.argwhere(~np.isfinite(arr))[0][0])
        raise NonFiniteEntry(f"vector entry {bad} is not finite")
    return arr


def parse_matrix_market(
    text: str | bytes,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> DenseMatrix:
    """Parse a Matrix Market "array real general" file into a DenseMatrix."""
    lines = _decode(text).split("\n")
    if not lines:
        raise TruncatedData("empty input")
    header = _MM_HEADER.match(lines[0])
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

    body = [
        (i + 1, line.strip())
        for i, line in enumerate(lines)
        if i > 0 and line.strip() != "" and not line.lstrip().startswith("%")
    ]
    if not body:
        raise TruncatedData("missing size line")
    size_lineno, size_line = body[0]
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

    entries = body[1:]
    needed = rows * cols
    if len(entries) != needed:
        raise TruncatedData(
            f"expected {needed} entries for a {rows}x{cols} matrix, found {len(entries)}"
        )
    data = np.empty((rows, cols), dtype=np.float64)
    for t, (lineno, token) in enumerate(entries):
        # column-major entry order
        data[t % rows, t // rows] = _parse_number(token, lineno, 1)
    return build_matrix(data, tolerances)


def sniff_format(text: str | bytes) -> str:
    """Guess 'mm' when the first non-blank line is a Matrix Market header, else 'csv'."""
    for line in _decode(text).split("\n"):
        if line.strip() == "":
            continue
        return "mm" if line.lstrip().lower().startswith("%%matrixmarket") else "csv"
    return "csv"


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
