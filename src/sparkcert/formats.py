"""Matrix and vector file formats: a CSV dialect and Matrix Market array.

CSV: one matrix row per line, comma-separated decimal numbers, uniform
width, '#' comment lines, trailing blank lines allowed. Vectors use the
same dialect with one number per line. Matrix Market support is limited
to the dense "array real general" variant with column-major entries.
All error positions are reported 1-based.

The parsers take str or bytes. decode_text is the one decoder of bytes,
for the parsers and the CLI's file and stdin reader alike: strict UTF-8
with universal newlines, as open() decodes a file, less one leading
byte-order mark (U+FEFF), which some editors write before the first line.

Numbers follow float() syntax once str.strip() has removed the whitespace
around them. Input is converted by one call to numpy's C reader, which
accepts a subset of that syntax and gives identical values: CSV with no
blank line among its rows, and vectors and Matrix Market bodies (the
lines after the size line, whatever comment and blank lines come before
it) whose lines hold no ',', '#', '%' or '\\r' and are not blank. Those
entries go to the reader as one comma-joined line, which it reads with
no per-line cost. A field with a non-ASCII character other than the
whitespace around it, such as a Unicode digit, goes to float(), as does
everything else, including every error.

The writers render each double as format_float does: "%.17g", with ".0"
appended to the finite integral values below 1e17, which "%.17g" writes
with neither '.' nor 'e', so the parsers return identical bits. A write of
fewer than RENDER_CHUNK entries calls format_float on each entry and joins
the results. A larger write goes to sparkcert._render, RENDER_CHUNK
entries at a time, which gives the same bytes by numpy arithmetic with no
rounding of its own: a non-integral entry with |x| >= 1e-4 takes its 17
digits from an error-free two-product with an exact power of ten, rounded
half to even, an integral one below 1e17 its int64 digits and ".0", and
every other entry format_float. A writer rejects with DimensionMismatch
the shapes its parser rejects.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator, Sequence
from itertools import islice

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import (
    DimensionMismatch,
    MatrixParseError,
    NonFiniteEntry,
    RaggedRows,
    TruncatedData,
    UnparseableNumber,
    UnsupportedHeader,
)
from .matrix import DenseMatrix, build_matrix, check_matrix_shape

_MM_HEADER = re.compile(
    r"^%%MatrixMarket\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s*$", re.IGNORECASE
)
# A line that is neither blank nor a comment: its first character that
# str.strip() keeps (exactly what \s matches) is not '%'. Each search is
# linear, as [^\S\n]* stops at the end of its line.
_MM_CONTENT_LINE = re.compile(r"^[^\S\n]*[^%\s]", re.MULTILINE)


def decode_text(text: str | bytes) -> str:
    """Bytes decoded as open() decodes a file: strict UTF-8, universal newlines.

    One leading byte-order mark is dropped after decoding, so the byte
    offset of invalid UTF-8 still counts from the first byte. A str is
    returned as it is.
    """
    if isinstance(text, str):
        return text
    try:
        decoded = text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"not valid UTF-8 (byte {exc.start})") from None
    if decoded.startswith("\ufeff"):
        decoded = decoded[1:]
    # one memchr-speed scan; each replace below scans the whole text
    if "\r" not in decoded:
        return decoded
    return decoded.replace("\r\n", "\n").replace("\r", "\n")


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
    """float() of each token, as an array.

    Raises UnparseableNumber at position(i), the (line, field) of the
    first token that float() rejects. Callers pass tokens stripped by
    str.strip(), because float() does not strip the separators \\x1c-\\x1f.
    """
    try:
        return np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        for i, token in enumerate(tokens):
            try:
                float(token)
            except ValueError:
                raise UnparseableNumber(*position(i)) from None
        raise


def _c_reader(lines: list[str], shape: tuple[int, int]) -> np.ndarray | None:
    """numpy's C reader on comma-separated lines, or None where it declines.

    It accepts a subset of float() syntax and gives the same bits, and
    strips around each field what str.strip() strips, so an empty or
    all-whitespace field raises. It reads a field only up to its first
    non-ASCII character and declines unless whitespace follows, so a
    field that float() reads differently never passes. The shape check
    catches a line that it splits at '\\r' and a blank line, which it
    skips. Lines that are all empty are declined without a call, because
    the reader warns on input with no data.
    """
    if not any(lines):
        return None
    try:
        values = np.loadtxt(
            lines, np.float64, delimiter=",", comments=None, quotechar=None, ndmin=2
        )
    except ValueError:
        return None
    return values if values.shape == shape else None


def _one_per_line(text: str, start: int, count: int) -> np.ndarray | None:
    """The `count` numbers of text[start:], one per line; None where the C reader declines.

    The lines go to the reader joined with ',' into one line, the one copy
    alive while it runs. They may hold no ',', '#', '%' or '\\r'; a blank
    or whitespace-only line, a trailing one too, becomes a field that the
    reader rejects, like a field with a non-ASCII character other than
    the whitespace around it.
    """
    stop = len(text) - text.endswith("\n")
    if start >= stop or any(text.find(c, start, stop) >= 0 for c in ",#%\r"):
        return None
    values = _c_reader([text[start:stop].replace("\n", ",")], (1, count))
    return None if values is None else values[0]


def parse_csv(
    text: str | bytes,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> DenseMatrix:
    """Parse the CSV dialect into a validated DenseMatrix."""
    text = decode_text(text)
    numbered = list(_lines(text, "#"))
    if not numbered:
        raise TruncatedData("no matrix rows found")
    lines = [line for _, line in numbered]
    values = _c_reader(lines, (len(lines), lines[0].count(",") + 1))
    if values is not None:
        return build_matrix(values, tolerances)
    # float() of each field: the only path that reports errors
    rows: list[np.ndarray] = []
    for lineno, line in numbered:
        fields = line.split(",")
        if rows and len(fields) != len(rows[0]):
            raise RaggedRows(lineno)
        rows.append(_floats([f.strip() for f in fields], lambda c: (lineno, c + 1)))
    return build_matrix(rows, tolerances)


def parse_vector(text: str | bytes) -> np.ndarray:
    """Parse a one-number-per-line vector file."""
    text = decode_text(text)
    arr = _one_per_line(text, 0, text.count("\n") + 1 - text.endswith("\n"))
    if arr is None:
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
    text = decode_text(text)
    end = text.find("\n")
    header = _MM_HEADER.match(text, 0, len(text) if end < 0 else end)
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

    # the size line: the first line after the header that is neither blank
    # nor a comment
    found = _MM_CONTENT_LINE.search(text, end + 1)
    if found is None:
        raise TruncatedData("missing size line")
    size_lineno = text.count("\n", 0, found.start()) + 1
    start = text.find("\n", found.start()) + 1 or len(text)
    size_line = text[found.start() : start].strip()
    parts = size_line.split()
    if len(parts) != 2:
        raise MatrixParseError(f"line {size_lineno}: expected 'rows cols', got {size_line!r}")
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise MatrixParseError(
            f"line {size_lineno}: expected integer dimensions, got {size_line!r}"
        ) from None
    if rows < 1 or cols < 1:
        raise MatrixParseError(f"line {size_lineno}: dimensions must be positive")

    needed = rows * cols
    values = _one_per_line(text, start, needed)
    if values is None:
        # float() of each line after the size line that is neither blank nor
        # a comment; line numbers are worked out again only for an error message
        body = text[start:]
        entries = [line for line in map(str.strip, body.split("\n")) if line and line[0] != "%"]
        if len(entries) != needed:
            # a product of over 600 digits may pass Python's int-to-str
            # digit limit (640 at its lowest), so it is named by its factors
            expected = needed if needed.bit_length() <= 2000 else f"{rows}*{cols}"
            raise TruncatedData(
                f"expected {expected} entries for a {rows}x{cols} matrix, found {len(entries)}"
            )
        numbers = (size_lineno + n for n, line in _lines(body, "%") if line)
        values = _floats(entries, lambda t: (next(islice(numbers, t, None)), 1))
    # column-major entry order
    return build_matrix(values.reshape(cols, rows).T, tolerances)


def sniff_format(text: str | bytes) -> str:
    """Guess 'mm' when the first non-blank line is a Matrix Market header, else 'csv'."""
    head = decode_text(text).lstrip()[:14].lower()
    return "mm" if head.startswith("%%matrixmarket") else "csv"


def parse_matrix_auto(
    text: str | bytes,
    fmt: str | None = None,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> DenseMatrix:
    """Parse with an explicit format ('csv' or 'mm') or by sniffing the header."""
    if fmt not in (None, "csv", "mm"):
        raise MatrixParseError(f"unknown format {fmt!r}; expected 'csv' or 'mm'")
    text = decode_text(text)
    if (fmt or sniff_format(text)) == "mm":
        return parse_matrix_market(text, tolerances)
    return parse_csv(text, tolerances)


def format_float(value: float) -> str:
    """Render a double with 17 significant digits so parsing returns it exactly."""
    out = "%.17g" % value
    if "e" not in out and "." not in out and "inf" not in out and "nan" not in out:
        out += ".0"
    return out


# Writes of at least this many entries go through _render, this many
# entries at a time, and smaller ones call format_float on each entry. On
# 2 vCPUs, 160x800 wrote fastest in chunks of 16,384, against 4,096 to
# 65,536 or all at once, and a chunk's temporaries peak at 3.5 MB. A 6x12
# `sparkcert gen` sent through _render took 13-25 ms more CPU and 0.6-0.9
# MB more peak RSS, mostly to import it.
RENDER_CHUNK = 16384


def _format_lines(arr: np.ndarray, sep: str) -> str:
    """Each row of a 2-D array as format_float of its entries joined by sep, one line each.

    Below RENDER_CHUNK entries format_float renders each entry itself.
    """
    if arr.size >= RENDER_CHUNK:
        from ._render import render

        seps = np.full(arr.shape, ord(sep), np.uint8)
        seps[:, -1] = ord("\n")
        values, seps = arr.ravel(), seps.ravel()
        return "".join(
            render(values[i : i + RENDER_CHUNK], seps[i : i + RENDER_CHUNK])
            for i in range(0, values.size, RENDER_CHUNK)
        )
    return "".join([sep.join(map(format_float, row)) + "\n" for row in arr.tolist()])


def write_csv(data: np.ndarray) -> str:
    """Serialize a 2-D array in the CSV dialect.

    Raises DimensionMismatch unless it has at least one row and one column.
    """
    arr = check_matrix_shape(np.asarray(data, dtype=np.float64))
    return _format_lines(arr, ",")


def write_matrix_market(data: np.ndarray) -> str:
    """Serialize a 2-D array as Matrix Market array/real/general.

    Raises DimensionMismatch unless it has at least one row and one column.
    """
    arr = check_matrix_shape(np.asarray(data, dtype=np.float64))
    rows, cols = arr.shape
    # column-major entry order: one line of text per column
    return f"%%MatrixMarket matrix array real general\n{rows} {cols}\n" + _format_lines(arr.T, "\n")


def write_vector(values: np.ndarray) -> str:
    """Serialize a 1-D array one number per line.

    Raises DimensionMismatch unless it has at least one entry.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionMismatch(f"expected a non-empty 1-D array, got shape {arr.shape}")
    return _format_lines(arr.reshape(1, -1), "\n")
