import copy
import dataclasses
import json
import math
import pathlib
import sys
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparkcert import (
    DimensionMismatch,
    MatrixParseError,
    NonFiniteEntry,
    RaggedRows,
    ReportParseError,
    SparkCertError,
    ToleranceConfig,
    TruncatedData,
    UnparseableNumber,
    UnsupportedHeader,
    ZeroColumn,
    analyze_spark,
    build_matrix,
    build_report,
    certify,
    parse_csv,
    parse_matrix_auto,
    parse_matrix_market,
    parse_vector,
    random_matrix,
    report_from_json,
    report_to_json,
    render_text,
    spiked_identity,
    write_csv,
    write_matrix_market,
    write_vector,
)
from sparkcert import cli
from sparkcert.formats import RENDER_CHUNK, _c_reader, decode_text, format_float, sniff_format


def test_parse_csv_identity():
    m = parse_csv("1,0\n0,1\n")
    assert np.array_equal(m.data, np.eye(2))


def test_parse_csv_comments_and_trailing_blank():
    m = parse_csv("# header comment\n1,0\n# interior comment\n0,1\n\n\n")
    assert np.array_equal(m.data, np.eye(2))


def test_parse_csv_ragged():
    with pytest.raises(RaggedRows) as exc:
        parse_csv("1,0\n0\n")
    assert exc.value.line == 2


def test_parse_csv_bad_number():
    with pytest.raises(UnparseableNumber) as exc:
        parse_csv("1,0\n0,x\n")
    assert (exc.value.line, exc.value.col) == (2, 2)


def test_parse_csv_empty():
    with pytest.raises(TruncatedData):
        parse_csv("\n\n")


def test_parse_csv_propagates_validation():
    with pytest.raises(ZeroColumn):
        parse_csv("1,0\n0,0\n")


def test_parse_csv_bytes_input():
    m = parse_csv(b"2,0\n0,3\n")
    assert m.data[0, 0] == 2.0


def test_parsers_reject_invalid_utf8():
    for parse in (parse_csv, parse_matrix_market, parse_vector):
        with pytest.raises(MatrixParseError):
            parse(b"1,2\n\xff,3\n")


def test_parsers_drop_one_leading_byte_order_mark():
    bom = b"\xef\xbb\xbf"
    csv = b"1,2,0\n3,4,1\n"
    mm = b"%%MatrixMarket matrix array real general\n2 3\n1\n3\n2\n4\n0\n1\n"
    for parse, raw in (
        (parse_csv, csv), (parse_matrix_auto, csv),
        (parse_matrix_market, mm), (parse_matrix_auto, mm),
    ):
        assert parse(bom + raw).data.tobytes() == parse(raw).data.tobytes()
    assert parse_vector(bom + b"1\n-2\n").tobytes() == parse_vector(b"1\n-2\n").tobytes()
    # a second mark is a character of the first field
    with pytest.raises(UnparseableNumber, match=r"^line 1, field 1: not a number$"):
        parse_csv(bom + bom + csv)
    # invalid UTF-8 offsets count from the first byte, the mark's included
    for parse in (parse_csv, parse_vector, parse_matrix_market, parse_matrix_auto):
        with pytest.raises(MatrixParseError, match=r"^not valid UTF-8 \(byte 5\)$"):
            parse(bom + b"1,\xff\n")


_LINE_ENDS = st.lists(
    st.sampled_from(["1", ",", " ", "\n", "\r", "\r\n", "\u00e9", "\u2028"])
).map("".join)


@given(text=st.one_of(st.text(), _LINE_ENDS))
def test_decode_text_is_a_decode_with_universal_newlines(text):
    raw = text.encode()
    expected = text.replace("\r\n", "\n").replace("\r", "\n")
    # one leading byte-order mark is dropped, a second one kept
    assert decode_text(b"\xef\xbb\xbf" + raw) == expected
    if not text.startswith("\ufeff"):
        assert decode_text(raw) == expected


def test_parse_vector_basic():
    v = parse_vector("1\n-2.5\n# note\n0\n\n")
    assert np.array_equal(v, [1.0, -2.5, 0.0])


def test_parse_vector_errors():
    with pytest.raises(UnparseableNumber):
        parse_vector("1\nzzz\n")
    with pytest.raises(TruncatedData):
        parse_vector("# only a comment\n")
    with pytest.raises(NonFiniteEntry):
        parse_vector("1\ninf\n")


def test_parse_matrix_market_identity():
    text = "%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n"
    m = parse_matrix_market(text)
    assert np.array_equal(m.data, np.eye(2))


def test_parse_matrix_market_column_major():
    text = "%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n6\n"
    m = parse_matrix_market(text)
    assert np.array_equal(m.data, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])


def test_parse_matrix_market_comments():
    text = (
        "%%MatrixMarket matrix array real general\n"
        "% a comment\n2 2\n% another\n1\n0\n0\n1\n"
    )
    m = parse_matrix_market(text)
    assert np.array_equal(m.data, np.eye(2))


def test_parse_matrix_market_rejects_coordinate():
    with pytest.raises(UnsupportedHeader):
        parse_matrix_market("%%MatrixMarket matrix coordinate real general\n2 2 2\n")


def test_parse_matrix_market_rejects_complex_and_symmetric():
    with pytest.raises(UnsupportedHeader):
        parse_matrix_market("%%MatrixMarket matrix array complex general\n")
    with pytest.raises(UnsupportedHeader):
        parse_matrix_market("%%MatrixMarket matrix array real symmetric\n")


def test_parse_matrix_market_truncated():
    with pytest.raises(TruncatedData):
        parse_matrix_market("%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n")
    with pytest.raises(TruncatedData):
        parse_matrix_market("%%MatrixMarket matrix array real general\n")
    # bodies of four lines or fields, with three entries
    for body in ("1\n\n0\n0\n", "1\n \t\n0\n0\n", "1,2\n0\n0\n", "1\n0\n0\n\n"):
        with pytest.raises(TruncatedData):
            parse_matrix_market("%%MatrixMarket matrix array real general\n2 2\n" + body)


@pytest.mark.parametrize("lead", ["", "% c\n\n", " \t\n%%x\n  % c\n"],
                         ids=["size-line-2", "comment-blank", "blank-comments"])
@pytest.mark.parametrize("rest, message", [
    ("", "missing size line"),
    ("7 x\n1\n", "line {size}: expected integer dimensions, got '7 x'"),
    ("0 3\n", "line {size}: dimensions must be positive"),
    ("1 2 3\n1\n", "line {size}: expected 'rows cols', got '1 2 3'"),
    ("2 1\n1\n", "expected 2 entries for a 2x1 matrix, found 1"),
    ("2 1\n% c\n1\nx\n", "line {entry}, field 1: not a number"),
], ids=["missing", "not-integer", "zero", "three-fields", "short", "bad-entry"])
def test_parse_matrix_market_errors_name_their_lines(lead, rest, message):
    # a bad size line or entry after comment and blank lines names its line
    size = 2 + lead.count("\n")
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix_market(_MM_HEADER + lead + rest)
    assert str(exc.value) == message.format(size=size, entry=size + 3)


def test_parse_matrix_market_case_insensitive_header():
    text = "%%matrixmarket MATRIX Array Real GENERAL\n1 2\n1\n1\n"
    m = parse_matrix_market(text)
    assert m.shape == (1, 2)


def test_sniff_and_auto():
    csv_text = "1,0\n0,1\n"
    mm_text = "%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n"
    assert sniff_format(csv_text) == "csv"
    assert sniff_format(mm_text) == "mm"
    assert np.array_equal(parse_matrix_auto(csv_text).data, np.eye(2))
    assert np.array_equal(parse_matrix_auto(mm_text).data, np.eye(2))
    assert np.array_equal(parse_matrix_auto(mm_text, fmt="mm").data, np.eye(2))


def test_write_csv_round_trip():
    m = random_matrix(3, 5, seed=11)
    again = parse_csv(write_csv(m.data))
    assert np.array_equal(again.data, m.data)


def test_write_matrix_market_round_trip():
    m = random_matrix(4, 3, seed=12)
    again = parse_matrix_market(write_matrix_market(m.data))
    assert np.array_equal(again.data, m.data)


def _extreme_grid():
    data = random_matrix(7, 9, seed=13).data * np.array([1e-300, 1e300, 1e-310, 1, 2, 3, 4, 5, 6])
    data[0, 3] = -0.0
    return data


def test_write_csv_grid_skips_per_token_float(monkeypatch):
    # a written grid goes through numpy's reader, with the same bits, also
    # after a comment line that is not ASCII
    data = _extreme_grid()
    tolerances = ToleranceConfig(zero_column_tol=0.0)

    def per_token(*args):
        raise AssertionError("float() path used")

    monkeypatch.setattr("sparkcert.formats._floats", per_token)
    for lead in ("", "# café\n"):
        text = lead + write_csv(data)
        assert parse_csv(text, tolerances).data.tobytes() == data.tobytes()
        assert parse_matrix_auto(text.encode(), None, tolerances).data.tobytes() == data.tobytes()


def test_write_matrix_market_skips_per_token_float(monkeypatch):
    # so do written Matrix Market entries and vectors, as one joined line,
    # whatever comment and blank lines come before the size line
    # (scipy.io.mmwrite writes a '%' line), ASCII or not; a blank line of
    # a million spaces must not make the size line's search backtrack
    data = _extreme_grid()
    header, rest = write_matrix_market(data).split("\n", 1)
    tolerances = ToleranceConfig(zero_column_tol=0.0)

    def per_token(*args):
        raise AssertionError("float() path used")

    monkeypatch.setattr("sparkcert.formats._floats", per_token)
    for lead in ("", "%\n", "% c\n\n \t\n%%x\n", " " * 10**6 + "\n", "% café\n"):
        text = header + "\n" + lead + rest
        assert parse_matrix_market(text, tolerances).data.tobytes() == data.tobytes()
        assert parse_matrix_auto(text.encode(), None, tolerances).data.tobytes() == data.tobytes()
    column = data[:, 3]
    assert parse_vector(write_vector(column)).tobytes() == column.tobytes()


def test_c_reader_takes_only_fields_that_float_reads_alike():
    # numpy's reader reads a field only up to its first non-ASCII character
    # and declines it unless whitespace follows, so whatever it takes,
    # float() of the stripped field reads with the same bits: checked with
    # every whitespace and decimal-digit character before, after and inside
    # a number, alone and between two fields
    chars = [
        c for c in map(chr, range(sys.maxunicode + 1))
        if c.isspace() or unicodedata.category(c) == "Nd"
    ]
    for c in chars:
        for field in (c + "1.5", "1.5" + c, "1" + c + "5"):
            for lines, shape, k in (([field], (1, 1), 0), (["0," + field + ",2"], (1, 3), 1)):
                values = _c_reader(lines, shape)
                if values is not None:
                    want = np.float64(float(field.strip()))
                    assert values[0, k].tobytes() == want.tobytes(), repr(field)


def test_parse_matrix_market_comment_and_crlf_keep_bits():
    data = _extreme_grid()
    text = write_matrix_market(data)
    lines = text.split("\n")
    lines.insert(12, "% note")
    noted = "\n".join(lines)
    tolerances = ToleranceConfig(zero_column_tol=0.0)
    for variant in (noted, text.replace("\n", "\r\n"), noted.replace("\n", "\r\n")):
        assert parse_matrix_market(variant, tolerances).data.tobytes() == data.tobytes()


def test_write_vector_round_trip():
    v = np.array([0.1, -2.0, 1e-17, 3.0])
    assert np.array_equal(parse_vector(write_vector(v)), v)


def test_format_float_exact():
    for value in (0.1, 1 / 3, 2.25, 1e-300, -4.9e17, 123456789.123456789):
        assert float(format_float(value)) == value
    assert format_float(2.0) == "2.0"
    assert json.loads(format_float(0.1)) == 0.1


# where "%.17g" and "%.1f" meet: signed zeros, integers around 2**53 and
# below, at and above 1e17, subnormals, extremes and non-finite values
_WRITER_EDGES = (
    0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 7.0, 0.5,
    2.0**53, math.nextafter(2.0**53, 0.0), math.nextafter(2.0**53, math.inf), -(2.0**53),
    1e16, -1e16, 1e17, -1e17, math.nextafter(1e17, 0.0), math.nextafter(1e17, math.inf),
    99999999999999984.0, -99999999999999984.0,
    5e-324, -5e-324, 2.2250738585072014e-308 / 3.0, 1e300, -1e300, 1e-300, -1e-300,
    math.inf, -math.inf, math.nan,
)


@st.composite
def _writer_arrays(draw):
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from([(1, n), (n, 1), (n, n), (n,)]))
    entry = st.one_of(st.sampled_from(_WRITER_EDGES), st.floats(width=64))
    size = math.prod(shape)
    return np.array(draw(st.lists(entry, min_size=size, max_size=size)), np.float64).reshape(shape)


def _joined(lines):
    return "".join(line + "\n" for line in lines)


@settings(max_examples=300, deadline=None)
@given(arr=_writer_arrays())
@example(arr=np.array([_WRITER_EDGES]))
@example(arr=np.array(_WRITER_EDGES))
def test_writers_match_a_per_entry_format_float_join(arr):
    # each writer renders a line with one % operation; the bytes are those
    # of format_float applied to every entry
    if arr.ndim == 1:
        assert write_vector(arr) == _joined(format_float(v) for v in arr)
        return
    assert write_csv(arr) == _joined(",".join(format_float(v) for v in row) for row in arr)
    rows, cols = arr.shape
    header = ["%%MatrixMarket matrix array real general", f"{rows} {cols}"]
    assert write_matrix_market(arr) == _joined(header + [format_float(v) for v in arr.T.ravel()])


def _render_cases():
    """Two arrays of three chunks and a quarter, for the writers' numpy path."""
    powers = [float(f"1e{exp}") for exp in range(-4, 18)]
    chosen = [
        # every decimal exponent of the fixed-point range
        *(float(f"{digits}e{exp}") for exp in range(-4, 16)
          for digits in ("1.2345678901234567", "9.8765432109876543", "1.5", "7")),
        # integers of 1 to 17 digits, 2**53 and its neighbours, 1e17 - 16
        *(float(10 ** (d - 1) + 10 ** d // 3) for d in range(1, 18)),
        2.0**53, math.nextafter(2.0**53, 0.0), math.nextafter(2.0**53, math.inf), 1e17 - 16,
        # where a floating log10 misjudges the exponent
        *(math.nextafter(p, toward) for p in powers for toward in (0.0, math.inf)),
        *powers,
        # 17th-digit ties, rounded half to even: ...62 and ...88
        123456789012345.625, 123456789012345.875,
    ]
    chosen += [-v for v in chosen]
    # entries that go to format_float itself
    other = [9.9e-5, -1e-300, 5e-324, -2.2250738585072014e-308 / 3.0, 1e17, -3e300,
             0.0, -0.0, math.inf, -math.inf, math.nan]
    # random bit patterns with the binary exponent drawn from 2^-14 to 2^56,
    # past both ends of the fixed-point range
    rng = np.random.default_rng(37)
    n = 3 * RENDER_CHUNK + RENDER_CHUNK // 4
    bits = rng.integers(0, 2**63, size=(2, n), dtype=np.uint64) & np.uint64(2**52 - 1)
    bits |= (rng.integers(1023 - 14, 1023 + 57, size=(2, n), dtype=np.uint64) << np.uint64(52))
    bits |= rng.integers(0, 2, size=(2, n), dtype=np.uint64) << np.uint64(63)
    arrays = bits.view(np.float64)
    arrays[0, : len(chosen)] = chosen
    edges = [0, n - 1, *(i * RENDER_CHUNK + d for i in (1, 2, 3) for d in (-1, 0))]
    for row in arrays:
        row[edges] = rng.choice(other, len(edges))
    return arrays


def test_writers_render_large_arrays_as_a_per_entry_format_float_join(monkeypatch):
    # a write of RENDER_CHUNK entries or more goes through _render, a chunk
    # at a time, and a smaller one through one % operation per line; both
    # give the bytes of format_float of each entry
    from sparkcert import _render

    render, chunks = _render.render, []

    def counted(values, seps):
        chunks.append(values.size)
        return render(values, seps)

    monkeypatch.setattr(_render, "render", counted)
    assert format_float(123456789012345.625) == "123456789012345.62"
    assert format_float(123456789012345.875) == "123456789012345.88"
    header = ["%%MatrixMarket matrix array real general"]
    # lines are compared as lists, which pytest reports by the first one
    # that differs, with no diff of megabytes of text
    arrays = _render_cases()
    for values in arrays:
        text = [format_float(v) for v in values.tolist()]
        rows = values.reshape(-1, 64)
        csv = [",".join(text[i : i + 64]) for i in range(0, len(text), 64)]
        assert write_csv(rows).split("\n") == [*csv, ""]
        # column-major: the matrix whose columns run through values in order
        columns = values.reshape(64, -1).T
        assert write_matrix_market(columns).split("\n") == [*header, f"{len(rows)} 64", *text, ""]
        assert write_vector(values).split("\n") == [*text, ""]
    assert chunks == ([RENDER_CHUNK] * 3 + [RENDER_CHUNK // 4]) * 2 * 3
    for size in (RENDER_CHUNK - 1, RENDER_CHUNK):
        values = arrays[0, :size]
        text = [format_float(v) for v in values.tolist()]
        chunks.clear()
        assert write_csv(values.reshape(1, -1)) == ",".join(text) + "\n"
        assert write_matrix_market(values.reshape(-1, 1)).split("\n") == [*header, f"{size} 1", *text, ""]
        assert write_vector(values).split("\n") == [*text, ""]
        assert chunks == ([RENDER_CHUNK] * 3 if size == RENDER_CHUNK else [])


@pytest.mark.parametrize("write", [write_csv, write_matrix_market], ids=["csv", "mm"])
@pytest.mark.parametrize("shape", [(3,), (0, 3), (2, 0), (1, 1, 1), ()])
def test_matrix_writers_reject_shapes_their_readers_reject(write, shape):
    with pytest.raises(DimensionMismatch):
        write(np.ones(shape))


@pytest.mark.parametrize("shape", [(2, 2), (1, 3), (0,), ()])
def test_write_vector_rejects_shapes_its_reader_rejects(shape):
    with pytest.raises(DimensionMismatch):
        write_vector(np.ones(shape))


def _full_report(with_certificate=True, seed=None):
    m = spiked_identity(6)
    spark_report = analyze_spark(m, compute_exact=True)
    cert = None
    if with_certificate:
        x = np.zeros(7)
        x[1] = 3.0
        cert = certify(m, x, m.data @ x, exact=spark_report.exact)
    return build_report(m, "unit-test", spark_report, certificate=cert, seed=seed)


def test_report_json_round_trip_full():
    report = _full_report(seed=99)
    text = report_to_json(report)
    parsed = report_from_json(text)
    assert parsed == report
    assert report_to_json(parsed) == text


def test_report_json_round_trip_without_certificate():
    report = _full_report(with_certificate=False)
    assert report_from_json(report_to_json(report)) == report


def test_report_json_round_trip_infinite_values():
    m = build_matrix(np.eye(4))
    report = build_report(m, "identity", analyze_spark(m, compute_exact=True))
    assert report.spark.coherence_index_bound == math.inf
    parsed = report_from_json(report_to_json(report))
    assert parsed == report
    assert parsed.spark.exact == math.inf
    assert parsed.coherence.coherence_index == math.inf


GOLDEN = pathlib.Path(__file__).parent / "golden"


def _spark_number(value) -> bool:
    """A plain int >= 1 (not a float, not a bool), or math.inf."""
    return (type(value) is int and value >= 1) or (type(value) is float and value == math.inf)


def test_report_from_json_gives_spark_and_index_as_numbers():
    m = build_matrix(np.eye(4))
    texts = [path.read_text() for path in sorted(GOLDEN.glob("*.json"))]
    texts.append(report_to_json(build_report(m, "identity", analyze_spark(m, compute_exact=True))))
    assert len(texts) == 6
    for text in texts:
        report = report_from_json(text)
        assert _spark_number(report.coherence.coherence_index)
        exact = report.spark.exact
        assert exact is None if report.spark.search_budget_hit else _spark_number(exact)


@pytest.mark.parametrize("exact", [
    {"kind": "finite"},
    {"kind": "finite", "value": 0},
    {"kind": "finite", "value": -3},
    {"kind": "finite", "value": 2.0},
    {"kind": "finite", "value": True},
    {"kind": "finite", "value": "6"},
    {"kind": "infinite", "value": 3},
    {"kind": "bogus"},
    {"value": 6},
    "infinity",
    5,
    [],
])
def test_report_from_json_rejects_malformed_exact_spark(exact):
    tree = json.loads((GOLDEN / "null_vector.json").read_text())
    tree["spark"]["exact"] = exact
    with pytest.raises(ReportParseError, match="exact: expected"):
        report_from_json(json.dumps(tree))


def test_report_json_round_trip_integer_tolerances():
    tolerances = ToleranceConfig(zero_column_tol=0, residual_tol=1, index_slack=0)
    m = build_matrix(spiked_identity(4).data, tolerances)
    report = build_report(m, "ints", analyze_spark(m, compute_exact=True))
    text = report_to_json(report)
    assert '"zero_column_tol": 0.0' in text
    assert '"residual_tol": 1.0' in text
    assert report_to_json(report_from_json(text)) == text


def test_report_states_the_tolerances_of_its_matrix():
    # the index, its bound, the certificate's threshold and the stated
    # tolerances all come from the one config the matrix was built at
    m = random_matrix(6, 12, seed=7, tolerances=ToleranceConfig(index_slack=0.5))
    spark_report = analyze_spark(m, compute_exact=True)
    x = np.zeros(12)
    x[3] = 1.0
    cert = certify(m, x, m.data @ x, exact=spark_report.exact)
    report = build_report(m, "m.csv", spark_report, certificate=cert)
    text = report_to_json(report)
    tree = json.loads(text)
    assert tree["tolerances"]["index_slack"] == 0.5
    # at index_slack 0 the index is 2
    assert tree["coherence"]["coherence_index"] == 1
    assert analyze_spark(build_matrix(m.data)).coherence_index_bound == 3
    assert tree["spark"]["coherence_index_bound"] == 1 + tree["coherence"]["coherence_index"]
    assert cert.index_threshold == spark_report.coherence_index_bound / 2
    assert report_from_json(text) == report


def test_report_from_json_rejects_an_index_bound_off_the_index():
    tree = json.loads((GOLDEN / "null_vector.json").read_text())
    assert (tree["coherence"]["coherence_index"], tree["spark"]["coherence_index_bound"]) == (2, 3)
    for index, bound in ((2, 4), (2, 2), (2, "infinity"), ("infinity", 3)):
        bad = copy.deepcopy(tree)
        bad["coherence"]["coherence_index"] = index
        bad["spark"]["coherence_index_bound"] = bound
        with pytest.raises(ReportParseError, match="coherence_index_bound: expected 1 "):
            report_from_json(json.dumps(bad))
    # an infinite index has an infinite bound
    tree["coherence"]["coherence_index"] = tree["spark"]["coherence_index_bound"] = "infinity"
    assert report_from_json(json.dumps(tree)).spark.coherence_index_bound == math.inf


def test_tolerances_must_be_finite_and_non_negative():
    # every report embeds its tolerances, and its JSON has no spelling for
    # an infinite one: they are rejected as a negative one is
    for field in dataclasses.fields(ToleranceConfig):
        for value in (math.inf, -math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match=f"{field.name} must be finite and >= 0"):
                ToleranceConfig(**{field.name: value})
    # the largest finite ones still make a report that round-trips; under
    # the infinite rank cutoff every column is dependent, and no step warns
    # of the overflow
    huge = sys.float_info.max
    tolerances = ToleranceConfig(
        residual_tol=huge, zero_entry_tol=huge, index_slack=huge, rank_tol_factor=huge
    )
    m = build_matrix(spiked_identity(4).data, tolerances)
    spark_report = analyze_spark(m, compute_exact=True)
    assert (spark_report.exact, spark_report.witness) == (1, (0,))
    cert = certify(m, np.ones(5), np.zeros(4), exact=spark_report.exact)
    report = build_report(m, "huge", spark_report, certificate=cert)
    text = report_to_json(report)
    assert report_from_json(text) == report
    assert '"residual_tol": 1.7976931348623157e+308' in text


def test_report_json_round_trip_settled_by():
    planted = random_matrix(4, 9, seed=0).data.copy()
    planted[:, 8] = planted[:, 1] - planted[:, 5]
    cases = {
        "null_vector": spiked_identity(5),
        "full_rank": build_matrix(np.eye(4)),
        "size_proof": random_matrix(4, 9, seed=0),
        "search": build_matrix(planted),
    }
    for settled_by, m in cases.items():
        spark_report = analyze_spark(m, compute_exact=True)
        assert spark_report.settled_by == settled_by
        assert f"settled by: {settled_by}\n" in render_text(build_report(m, "m", spark_report))
        # null beside an exact spark too: the decoder checks no other field
        for spk in (spark_report, dataclasses.replace(spark_report, settled_by=None)):
            report = build_report(m, "m", spk)
            text = report_to_json(report)
            assert report_from_json(text) == report
            assert report_to_json(report_from_json(text)) == text
    report = build_report(cases["search"], "m", analyze_spark(cases["search"]))
    assert report.spark.settled_by is None
    assert '"settled_by": null' in report_to_json(report)
    assert "settled by" not in render_text(report)


def test_report_json_is_valid_json():
    tree = json.loads(report_to_json(_full_report()))
    assert tree["schema_version"] == 3
    assert tree["spark"]["exact"]["kind"] == "finite"
    assert tree["spark"]["settled_by"] == "null_vector"
    assert tree["coherence"]["mutual_coherence"] == 0.8


def test_report_json_17_digit_floats():
    text = report_to_json(_full_report())
    # 0.1-style doubles keep their full 17-digit spelling
    assert "0.80000000000000004" in text


def test_report_parse_rejects_bad_input():
    with pytest.raises(ReportParseError):
        report_from_json("not json at all")
    with pytest.raises(ReportParseError):
        report_from_json('{"schema_version": 4}')
    # no report holds a version that equals 3 but is not the int 3
    for version in ("3.0", "true", '"3"'):
        with pytest.raises(ReportParseError, match="unsupported schema_version"):
            report_from_json(report_to_json(_full_report()).replace(
                '"schema_version": 3', f'"schema_version": {version}'
            ))
    # version 3 added settled_by "size_proof": versions 1 and 2 are rejected
    for old in (1, 2):
        with pytest.raises(ReportParseError, match=f"unsupported schema_version {old}"):
            report_from_json(report_to_json(_full_report()).replace(
                '"schema_version": 3', f'"schema_version": {old}'
            ))
    with pytest.raises(ReportParseError):
        report_from_json("[1, 2, 3]")
    # the schema's only infinity is the string "infinity"
    good = report_to_json(_full_report())
    field = '"mutual_coherence": 0.80000000000000004'
    assert field in good
    for token in ("NaN", "Infinity", "-Infinity", "1e999"):
        with pytest.raises(ReportParseError):
            report_from_json(good.replace(field, f'"mutual_coherence": {token}'))
    # values of the wrong type
    tree = json.loads(good)
    for section, key, value in (
        ("spark", "search_budget_hit", "junk"),
        ("spark", "settled_by", "guess"),
        ("matrix", "source", 5),
        ("spark", "witness", {}),
        ("coherence", "top_coherences", {}),
        ("tool", "name", [1]),
        # and values no report holds
        ("matrix", "rows", 0),
        ("matrix", "cols", -4),
        ("spark", "subsets_examined", -7),
        ("certificate", "l0", -1),
        ("spark", "witness", [5, 1, 1]),
        ("spark", "witness", [1, 1]),
        ("spark", "witness", [-1, 2]),
        ("spark", "witness", [0, 1.0]),
        ("coherence", "coherence_index", 0),
        ("spark", "coherence_index_bound", 1),
        ("spark", "trivial_upper", 1),
        # a witness must hold exactly the finite exact spark's many columns
        ("spark", "witness", [0, 1]),
        ("spark", "witness", list(range(8))),
        ("spark", "witness", []),
        # and name columns of the matrix: the spiked 6x7 has columns 0 to 6
        ("spark", "witness", [*range(6), 7]),
    ):
        bad = copy.deepcopy(tree)
        bad[section][key] = value
        with pytest.raises(ReportParseError, match=f"{key}: expected"):
            report_from_json(json.dumps(bad))
    # and a witness beside no finite exact spark
    for exact in ({"kind": "infinite"}, None):
        bad = copy.deepcopy(tree)
        bad["spark"]["exact"] = exact
        with pytest.raises(ReportParseError, match="witness: expected"):
            report_from_json(json.dumps(bad))


_MM_HEADER = "%%MatrixMarket matrix array real general\n"


def _cli_inputs(monkeypatch, capsys, *argv):
    """The inputs one sparkcert.cli.main call parsed, in the order it read them."""
    parsed = []
    read = cli._parse_input

    def recording(path, parse):
        parsed.append(read(path, parse))
        return parsed[-1]

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse_input", recording)
        cli.main(list(argv))
    capsys.readouterr()
    return parsed


@pytest.mark.parametrize("eol", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_bytes_parse_as_a_file_does(eol, tmp_path, monkeypatch, capsys):
    # universal newlines: a lone '\r' and '\r\n' end a line, as '\n' does
    csv = f"# A{eol}1,2,3{eol}4,5,6.5{eol}".encode()
    mm = f"{_MM_HEADER.strip()}{eol}2 3{eol}1{eol}4{eol}2{eol}5{eol}3{eol}6.5{eol}".encode()
    x = f"1{eol}-2{eol}0.5{eol}".encode()
    b = f"3{eol}-0.5{eol}".encode()
    for name, raw in (("m.csv", csv), ("m.mtx", mm), ("x.txt", x), ("b.txt", b)):
        (tmp_path / name).write_bytes(raw)
    xp, bp = str(tmp_path / "x.txt"), str(tmp_path / "b.txt")
    for name, raw, parsers in (
        ("m.csv", csv, (parse_csv, parse_matrix_auto)),
        ("m.mtx", mm, (parse_matrix_market, parse_matrix_auto)),
    ):
        path = str(tmp_path / name)
        (matrix,) = _cli_inputs(monkeypatch, capsys, "analyze", path, "--json")
        assert matrix.data.shape == (2, 3)
        for parse in parsers:
            assert parse(raw).data.tobytes() == matrix.data.tobytes()
        _, xv, bv = _cli_inputs(monkeypatch, capsys, "certify", path, "--x", xp, "--b", bp, "--json")
        assert (parse_vector(x).tobytes(), parse_vector(b).tobytes()) == (xv.tobytes(), bv.tobytes())
        assert xv.shape == (3,)
    # a byte that is not UTF-8: the library names its offset, the CLI the file too
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1,\xff\n")
    for parse in (parse_csv, parse_vector, parse_matrix_market, parse_matrix_auto):
        with pytest.raises(MatrixParseError, match=r"^not valid UTF-8 \(byte 2\)$"):
            parse(bad.read_bytes())
    for argv in (("analyze", str(bad)), ("certify", path, "--x", str(bad), "--b", bp)):
        assert cli.main(list(argv)) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: MatrixParseError: {bad}: not valid UTF-8 (byte 2)\n"
        )


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=80),
        st.text(max_size=80),
        st.tuples(
            st.sampled_from(["", _MM_HEADER, _MM_HEADER + "2 2\n", _MM_HEADER + "1 3\n"]),
            st.text(alphabet="0123456789.,-+eE \n#%naif", max_size=80),
        ).map("".join),
    )
)
@example(b"1,2\n\xff,3\n")
@example("1.5e308\n1.5e308\n")
@example(_MM_HEADER + "2 1\n1.5e308\n1.5e308\n")
@example(_MM_HEADER + "99999999999 99999999999\n1\n")
@example(_MM_HEADER + "9" * 5000 + " 2\n1\n")
@example(_MM_HEADER + "1" + "0" * 2200 + " 1" + "0" * 2200 + "\n1\n")
@example("1e999\n")
def test_parsers_raise_only_library_errors(raw):
    for parse in (parse_csv, parse_matrix_market, parse_vector):
        try:
            parse(raw)
        except SparkCertError:
            pass


_GOOD_TOKEN = st.one_of(
    st.floats(min_value=1e-3, max_value=1e6).map(repr),
    st.floats(min_value=-1e6, max_value=-1e-3).map(repr),
    st.sampled_from(["1e3", "+2", ".5", "5.", "-7", "2E-2", " 3 ", "\t4"]),
    # float() syntax that numpy's reader does not share
    st.sampled_from(["1_000", "\u0661\u0662", "\x1c5", "5\x1f", " 3"]),
)
_BAD_TOKEN = st.sampled_from(
    ["x", "1..2", "--1", "1e", "e5", "0x1A", "1 2", "", " ", "\t",
     "1\r2", "#1", '"1"', "1\x0b2", "1_"]
)
# Matrix Market's own bad lines, each in place of a CSV bad token: a ','
# or a '%' mid-line, and a whitespace-only line (not an entry)
_MM_TOKEN = {"1..2": "1,2", "--1": "1 %c", "e5": " \x1f\t"}
# (token, whether float() accepts it); one cell in six is bad
_CELL = st.tuples(st.integers(0, 5), _GOOD_TOKEN, _BAD_TOKEN).map(
    lambda t: (t[1], True) if t[0] else (t[2], False)
)


def _expect(parse, text, error, values):
    if error is None:
        result = parse(text)
        got = getattr(result, "data", result)
        want = np.asarray(values, dtype=np.float64)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        return
    kind, line, col = error
    with pytest.raises(kind) as exc:
        parse(text)
    if kind is RaggedRows:
        assert exc.value.line == line
    if kind is UnparseableNumber:
        assert (exc.value.line, exc.value.col) == (line, col)


def _file_lines(width):
    row = st.lists(_CELL, min_size=width, max_size=width) | st.lists(_CELL, min_size=1, max_size=5)
    # None is a comment line; a row of one blank cell is a blank line
    return st.lists(st.none() | row, min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.integers(min_value=1, max_value=4).flatmap(_file_lines),
    trailing=st.sampled_from(["", "\n", "\n\n \n"]),
    lead=st.lists(st.sampled_from(["% c", "", " \t", "%"]), max_size=2),
    size_pick=st.sampled_from([0, 0, 0, 1]),
    divisor_pick=st.integers(min_value=0, max_value=11),
)
# a blank line and a comment: numpy's reader must not see a CSV with no data
@example(lines=[[("", False)], None], trailing="", lead=[], size_pick=0, divisor_pick=0)
def test_parsers_report_first_error_in_file_order(lines, trailing, lead, size_pick, divisor_pick):
    # CSV and vector read the same text, up to its trailing blank lines
    text_lines = ["  # note" if cells is None else ",".join(t for t, _ in cells) for cells in lines]
    while text_lines and not text_lines[-1].strip():
        text_lines.pop()
    # a row whose first cell starts with '#' is a comment line too
    rows = [
        (n, cells) for n, (cells, line) in enumerate(zip(lines, text_lines), 1)
        if not line.strip().startswith("#")
    ]
    csv_error = vector_error = None if rows else (TruncatedData, None, None)
    for n, cells in rows:
        bad = [c for c, (_, ok) in enumerate(cells, 1) if not ok]
        if csv_error is None and len(cells) != len(rows[0][1]):
            csv_error = (RaggedRows, n, None)
        if csv_error is None and bad:
            csv_error = (UnparseableNumber, n, bad[0])
        if vector_error is None and (len(cells) != 1 or bad):
            vector_error = (UnparseableNumber, n, 1)
    values = [[float(t.strip()) for t, ok in cells if ok] for _, cells in rows]
    text = "\n".join(text_lines) + trailing
    _expect(parse_csv, text, csv_error, values)
    _expect(parse_vector, text, vector_error, [v for row in values for v in row])

    # Matrix Market: the header, comment and blank lines, the size line,
    # then one cell per line; blank lines are skipped wherever they are. Its
    # lines can hold what a CSV cell cannot: a ',' or a '%' after the first
    # character.
    mm_lines, entries = [], []
    for cells in lines:
        for token, ok in [("% note", True)] if cells is None else cells:
            token = _MM_TOKEN.get(token, token)
            mm_lines.append(token)
            if cells is not None and token.strip():
                entries.append((len(lead) + len(mm_lines) + 2, token, ok))
    n = len(entries)
    # the size is the entry count, or the count of a reader that skipped no
    # line and split lines at ',', or n + 1 where that count is n too
    fields = len(mm_lines) + sum(token.count(",") for token in mm_lines)
    size = max((n, max(fields, n + 1))[size_pick], 1)
    divisors = [d for d in range(1, size + 1) if size % d == 0]
    r = divisors[divisor_pick % len(divisors)]
    c = size // r
    bad = [line for line, _, ok in entries if not ok]
    mm_error = (
        (TruncatedData, None, None) if r * c != n
        else (UnparseableNumber, bad[0], 1) if bad
        else None
    )
    mm_values = None
    if mm_error is None:
        mm_values = np.array([float(t.strip()) for _, t, _ in entries]).reshape(c, r).T
    mm_text = "\n".join([_MM_HEADER.strip(), *lead, f"{r} {c}", *mm_lines]) + trailing
    _expect(parse_matrix_market, mm_text, mm_error, mm_values)


_IDENTITY = build_matrix(np.eye(3))
_REPORT_TREES = [
    json.loads(report_to_json(report))
    for report in (
        _full_report(seed=3),
        _full_report(with_certificate=False),
        build_report(_IDENTITY, "id", analyze_spark(_IDENTITY)),
    )
]


def _paths(tree, prefix=()):
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


_JUNK = st.sampled_from(
    [math.nan, math.inf, -math.inf, "junk", "infinity", [], [1.5, "x"], {}, {"kind": "finite"},
     None, True, -1, 10**400, 1e300]
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_report_parse_raises_only_report_errors(data):
    tree = copy.deepcopy(data.draw(st.sampled_from(_REPORT_TREES)))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        *path, key = data.draw(st.sampled_from(list(_paths(tree))))
        container = tree
        for step in path:
            container = container[step]
        if isinstance(container, dict) and data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = copy.deepcopy(data.draw(_JUNK))
    # json.dumps spells nan and inf as the bare NaN and Infinity tokens
    try:
        report = report_from_json(json.dumps(tree))
    except ReportParseError:
        return
    # whatever parses must serialize and render again
    report_to_json(report)
    render_text(report)



def test_render_text_mentions_key_facts():
    out = render_text(_full_report())
    assert "6 x 7" in out
    assert "mutual coherence: 0.80000000000000004" in out
    assert "coherence index: 2" in out
    assert "exact spark: 7" in out
    assert "verdict: unique_by_spark" in out


def test_render_text_infinite_spark():
    m = build_matrix(np.eye(3))
    out = render_text(build_report(m, "id", analyze_spark(m, compute_exact=True)))
    assert "exact spark: infinity" in out
    assert "coherence index: infinity" in out
