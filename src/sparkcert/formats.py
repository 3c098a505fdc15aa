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
around them, and every path gives the bits of float() of each field.
There are two reader paths, and RENDER_CHUNK entries is the gate between
them, counted without splitting the text: for CSV, the first line's
width times the line count; for Matrix Market, the size line; for a
vector, the line count.

- At or above it, sparkcert._read converts the input in numpy, with no
  rounding of its own. It converts a plain field itself: -?[0-9]*[.]?[0-9]*
  with at most 24 bytes after the sign, a significand M below 10^19 and
  at most 22 digits after the point. For M <= 2^53 the quotient of two
  exact doubles M / 10^f is correctly rounded; above it, the exact
  residual of a Dekker two-product decides one step of at most an ulp.
  Every other field goes to float(): one with an exponent or a '+', a
  longer one, and the rare one that the residual leaves open (a tie, a
  power of two, a step of two). It takes only a clean layout (ASCII, no
  whitespace, comment or blank line, rectangular CSV rows, one entry per
  Matrix Market body line) and declines every other input, at once where
  the text ends with ',' or a blank line. It also declines an input where
  over 1 in 16 of the first 1,024 fields go to float(), as numpy's C
  reader converts such fields faster.
- Below it, and wherever sparkcert._read declines, one call to numpy's
  C reader converts the input. It accepts a subset of float() syntax and
  gives identical values: CSV with no blank line among its rows, and
  vectors and Matrix Market bodies (the lines after the size line,
  whatever comment and blank lines come before it) whose lines hold no
  ',', '#', '%' or '\\r' and are not blank. Those entries go to the
  reader as one comma-joined line, which it reads with no per-line cost.
  A field with a non-ASCII character other than the whitespace around
  it, such as a Unicode digit, goes to float(), as does everything else.

So every error, and its position, comes from the second path.

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

# Writes of at least this many entries go through sparkcert._render, this
# many entries at a time, and inputs of at least this many entries through
# sparkcert._read; smaller ones never import either module. On 2 vCPUs,
# 160x800 wrote fastest in chunks of 16,384, against 4,096 to 65,536 or
# all at once, and a chunk's temporaries peak at 3.5 MB. A 6x12 `sparkcert
# gen` sent through _render took 13-25 ms more CPU and 0.6-0.9 MB more
# peak RSS, mostly to import it. The reader shares the gate without a
# measured crossover of its own: the inputs measured have under 700 or
# 128,000 entries, so any gate between those reads them alike, and one
# gate keeps small commands free of both imports.
RENDER_CHUNK = 16384


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


def _read_large(text: str, start: int, width: int, count: int) -> np.ndarray | None:
    """sparkcert._read of `count` fields, `width` to a line, from text[start:].

    None below RENDER_CHUNK entries, where the module is not imported,
    and wherever it declines.
    """
    if count < RENDER_CHUNK:
        return None
    from ._read import read

    return read(text, start, width, count)


def parse_csv(
    text: str | bytes,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> DenseMatrix:
    """Parse the CSV dialect into a validated DenseMatrix."""
    text = decode_text(text)
    # the entry count: the first line's width times the line count
    end = text.find("\n")
    cols = text.count(",", 0, len(text) if end < 0 else end) + 1
    rows = text.count("\n") + (not text.endswith("\n"))
    values = _read_large(text, 0, cols, rows * cols)
    if values is not None:
        return build_matrix(values.reshape(rows, cols), tolerances)
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
    count = text.count("\n") + 1 - text.endswith("\n")
    arr = _read_large(text, 0, 1, count)
    if arr is None:
        arr = _one_per_line(text, 0, count)
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
    values = _read_large(text, start, 1, needed)
    if values is None:
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
