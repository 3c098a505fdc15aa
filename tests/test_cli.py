import functools
import io
import json
import pathlib
import sys

import numpy as np
import pytest

import sparkcert.cli
import sparkcert.coherence
import sparkcert.matrix
import sparkcert.spark
from sparkcert import (
    DenseMatrix,
    parse_csv,
    parse_matrix_market,
    random_matrix,
    report_from_json,
    spiked_identity,
)
from sparkcert.cli import main
from sparkcert.formats import write_csv, write_matrix_market, write_vector


def _stdin(monkeypatch, data):
    """Give stdin the bytes of `data` (str is UTF-8 encoded).

    The text layer is the one Python puts on stdin in the C locale, which
    turns a byte that is not UTF-8 into a lone surrogate.
    """
    raw = data.encode() if isinstance(data, str) else data
    stream = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stream)
    return stream


def run(capsys, *argv):
    """(exit code, or ("SystemExit", code) for --help, stdout, stderr) of one main call."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_spiked_csv(capsys, tmp_path):
    out_file = tmp_path / "m.csv"
    code, out, err = run(capsys, "gen", "example31", "--n", "4", "-o", str(out_file))
    assert code == 0
    m = parse_csv(out_file.read_text())
    assert m.shape == (4, 5)
    assert np.array_equal(m.data, spiked_identity(4).data)


def test_gen_spiked_stdout_mm(capsys):
    code, out, err = run(capsys, "gen", "example31", "--n", "3", "--format", "mm")
    assert code == 0
    m = parse_matrix_market(out)
    assert np.array_equal(m.data, spiked_identity(3).data)


def test_gen_random_deterministic(capsys):
    code1, out1, _ = run(capsys, "gen", "random", "--n", "3", "--m", "5", "--seed", "42")
    code2, out2, _ = run(capsys, "gen", "random", "--n", "3", "--m", "5", "--seed", "42")
    assert code1 == code2 == 0
    assert out1 == out2
    assert parse_csv(out1).shape == (3, 5)


def test_gen_rejects_small_n(capsys):
    code, out, err = run(capsys, "gen", "example31", "--n", "1")
    assert code == 1
    assert "InvalidN" in err


def test_analyze_text_output(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(write_csv(spiked_identity(5).data))
    code, out, err = run(capsys, "analyze", str(path), "--exact")
    assert code == 0
    assert "exact spark: 6" in out
    assert "spark lower bound (coherence index): 3" in out


def test_analyze_json_output(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(write_csv(spiked_identity(10).data))
    code, out, err = run(capsys, "analyze", str(path), "--exact", "--json")
    assert code == 0
    report = report_from_json(out)
    assert report.spark.exact == 11
    assert report.spark.coherence_index_bound == 3
    assert report.spark.mutual_coherence_bound == pytest.approx(2.25, abs=1e-12)
    assert report.matrix.source == str(path)


def test_analyze_ragged_csv_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0\n0\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "RaggedRows" in err


def test_analyze_invalid_utf8_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1,2\n\xff,3\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: MatrixParseError:")


@pytest.mark.parametrize(
    "data, message",
    [
        (b"1,\xff\n", "error: MatrixParseError: {}: not valid UTF-8 (byte 2)\n"),
        # universal newlines: a lone '\r' and '\r\n' end a line, as '\n' does
        (b"1,0\r0,0\r\n",
         "error: ZeroColumn: {}: column 1 has norm below the zero-column tolerance\n"),
    ],
    ids=["invalid-utf8", "carriage-returns"],
)
def test_stdin_is_decoded_as_a_file_is(capsys, tmp_path, monkeypatch, data, message):
    path = tmp_path / "m.csv"
    path.write_bytes(data)
    assert run(capsys, "analyze", str(path)) == (1, "", message.format(path))
    _stdin(monkeypatch, data)
    assert run(capsys, "analyze", "-") == (1, "", message.format("<stdin>"))


def test_analyze_missing_file_exits_1(capsys):
    code, out, err = run(capsys, "analyze", "/definitely/not/here.csv")
    assert code == 1
    assert err.startswith("error:")


def test_analyze_tiny_budget_exits_2(capsys, tmp_path):
    # 4 x 9: rows < cols - 1, so the search is a scan of 211 subsets
    path = tmp_path / "m.csv"
    path.write_text(write_csv(random_matrix(4, 9, seed=0).data))
    code, out, err = run(capsys, "analyze", str(path), "--exact", "--budget", "10")
    assert code == 2
    assert "search budget exhausted" in out


def test_analyze_usage_error_exits_1(capsys):
    code, out, err = run(capsys, "analyze")
    assert code == 1


def test_analyze_stdin_matches_file(capsys, tmp_path, monkeypatch):
    text = write_csv(spiked_identity(4).data)
    _stdin(monkeypatch, text)
    code, out, err = run(capsys, "analyze", "-", "--exact", "--json")
    assert code == 0
    report = report_from_json(out)
    assert report.matrix.source == "<stdin>"
    assert report.spark.exact == 5


def test_csv_and_mm_reports_identical_via_stdin(capsys, monkeypatch):
    m = spiked_identity(6)
    _stdin(monkeypatch, write_csv(m.data))
    code1, out_csv, _ = run(capsys, "analyze", "-", "--exact", "--json", "--format", "csv")
    _stdin(monkeypatch, write_matrix_market(m.data))
    code2, out_mm, _ = run(capsys, "analyze", "-", "--exact", "--json", "--format", "mm")
    assert code1 == code2 == 0
    assert out_csv == out_mm


def test_certify_unique(capsys, tmp_path):
    m = spiked_identity(5)
    x = np.zeros(6)
    x[2] = 1.0
    b = m.data @ x
    mp = tmp_path / "m.csv"
    xp = tmp_path / "x.txt"
    bp = tmp_path / "b.txt"
    mp.write_text(write_csv(m.data))
    xp.write_text("\n".join(str(v) for v in x) + "\n")
    bp.write_text("\n".join(str(v) for v in b) + "\n")
    code, out, err = run(
        capsys, "certify", str(mp), "--x", str(xp), "--b", str(bp), "--exact", "--json"
    )
    assert code == 0
    report = report_from_json(out)
    assert report.certificate is not None
    assert report.certificate.verdict.value == "unique_by_spark"


def test_certify_not_a_solution_exits_3(capsys, tmp_path):
    m = spiked_identity(5)
    mp = tmp_path / "m.csv"
    xp = tmp_path / "x.txt"
    bp = tmp_path / "b.txt"
    mp.write_text(write_csv(m.data))
    xp.write_text("1\n0\n0\n0\n0\n0\n")
    bp.write_text("0\n0\n0\n0\n1\n")
    code, out, err = run(capsys, "certify", str(mp), "--x", str(xp), "--b", str(bp))
    assert code == 3
    assert "not_a_solution" in out


def test_certify_residual_of_huge_entries_is_finite(capsys, tmp_path):
    # the residual (1e200, 0) has a square that overflows unless scaled first
    mp = tmp_path / "m.csv"
    xp = tmp_path / "x.txt"
    bp = tmp_path / "b.txt"
    mp.write_text("1e200,1e200,0\n0,1e200,1e200\n")
    xp.write_text("1\n0\n0\n")
    bp.write_text("0\n0\n")
    code, out, err = run(capsys, "certify", str(mp), "--x", str(xp), "--b", str(bp), "--json")
    assert code == 3
    report = report_from_json(out)
    assert report.certificate.verdict.value == "not_a_solution"
    assert report.certificate.residual == 1e200
    assert report.spark.coherence_index_bound == 3


def test_certify_overflowing_residual_exits_1(capsys, tmp_path):
    # every entry is finite, but A x overflows: no verdict and no warning
    mp = tmp_path / "m.csv"
    xp = tmp_path / "x.txt"
    bp = tmp_path / "b.txt"
    mp.write_text("1,0,1\n0,1,1\n")
    xp.write_text("1e308\n1e308\n1e308\n")
    bp.write_text("1\n0\n")
    code, out, err = run(capsys, "certify", str(mp), "--x", str(xp), "--b", str(bp))
    assert (code, out) == (1, "")
    assert err == "error: NormOverflow: residual A x - b has an entry beyond the float64 range\n"


def test_one_coherence_pass_per_command(capsys, tmp_path, monkeypatch):
    # the coherence pass makes the one Gram product of the whole matrix that
    # a command needs; a gram_matrix call anywhere would be a second
    calls = []
    real_gram = sparkcert.matrix.gram_matrix
    real_pass = DenseMatrix.sorted_coherences.func

    def counting_gram(matrix):
        calls.append("gram_matrix")
        return real_gram(matrix)

    def counting_pass(matrix):
        calls.append("sorted_coherences")
        return real_pass(matrix)

    # patch every module that holds a reference, so no call goes uncounted
    for module in (sparkcert.matrix, sparkcert.coherence, sparkcert.spark):
        if hasattr(module, "gram_matrix"):
            monkeypatch.setattr(module, "gram_matrix", counting_gram)
    counted_pass = functools.cached_property(counting_pass)
    counted_pass.__set_name__(DenseMatrix, "sorted_coherences")
    monkeypatch.setattr(DenseMatrix, "sorted_coherences", counted_pass)
    m = random_matrix(6, 12, seed=7)
    x = np.zeros(12)
    x[[2, 9]] = (1.5, -0.5)
    mp = tmp_path / "m.csv"
    xp = tmp_path / "x.txt"
    bp = tmp_path / "b.txt"
    mp.write_text(write_csv(m.data))
    xp.write_text(write_vector(x))
    bp.write_text(write_vector(m.data @ x))
    code, out, err = run(
        capsys, "certify", str(mp), "--x", str(xp), "--b", str(bp), "--exact", "--json"
    )
    assert code == 0
    assert calls == ["sorted_coherences"]
    calls.clear()
    code, out, err = run(capsys, "analyze", str(mp), "--json")
    assert code == 0
    assert calls == ["sorted_coherences"]


def test_certify_budget_exits_2(capsys, tmp_path):
    m = random_matrix(4, 9, seed=0)
    mp = tmp_path / "m.csv"
    xp = tmp_path / "x.txt"
    bp = tmp_path / "b.txt"
    mp.write_text(write_csv(m.data))
    xp.write_text("\n".join(["0"] * 9) + "\n")
    bp.write_text("\n".join(["0"] * 4) + "\n")
    code, out, err = run(
        capsys, "certify", str(mp), "--x", str(xp), "--b", str(bp),
        "--exact", "--budget", "3",
    )
    # no certificate, so no report: analyze prints one with exit 2
    assert (code, out) == (2, "")
    assert err == "error: search budget exhausted after 3 subsets\n"


@pytest.mark.parametrize("raw", ["junk", "0", "-5"])
def test_bad_budget_variable_is_a_usage_error(capsys, tmp_path, monkeypatch, raw):
    monkeypatch.setenv("SPARK_CERT_BUDGET", raw)
    mp = tmp_path / "m.csv"
    xp = tmp_path / "x.txt"
    bp = tmp_path / "b.txt"
    mp.write_text(write_csv(random_matrix(4, 9, seed=0).data))
    xp.write_text("\n".join(["0"] * 9) + "\n")
    bp.write_text("\n".join(["0"] * 4) + "\n")
    for argv in (
        ("analyze", str(mp), "--exact"),
        ("certify", str(mp), "--x", str(xp), "--b", str(bp), "--exact"),
        ("bench", "example31", "--n-list", "2"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: SPARK_CERT_BUDGET must be")
        assert err.count("\n") == 1
    # --budget wins over the variable, and without --exact none is needed
    assert run(capsys, "analyze", str(mp), "--exact", "--budget", "500")[0] == 0
    assert run(capsys, "analyze", str(mp))[0] == 0


def test_gen_random_rejects_negative_seed(capsys):
    code, out, err = run(capsys, "gen", "random", "--n", "3", "--m", "5", "--seed", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert "expected a non-negative integer, got -1" in err
    assert err.count("\n") == 1


def test_bench_table(capsys):
    code, out, err = run(capsys, "bench", "example31", "--n-list", "2,5")
    assert code == 0
    rows = [
        line.split()
        for line in out.splitlines()
        if line and not line.startswith("#") and not line.lstrip().startswith("n ")
    ]
    assert [r[0] for r in rows] == ["2", "5"]
    for r in rows:
        n = int(r[0])
        assert int(r[3]) == n + 1
        assert int(r[4]) == 3
        assert float(r[5]) == pytest.approx(2.25, abs=1e-12)
        assert r[8] == "null_vector"


def test_bench_bad_n_list(capsys):
    code, out, err = run(capsys, "bench", "example31", "--n-list", "2,zebra")
    assert code == 1
    assert "--n-list" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_pipe_gen_to_analyze(capsys, monkeypatch):
    code, gen_out, _ = run(capsys, "gen", "example31", "--n", "10")
    assert code == 0
    _stdin(monkeypatch, gen_out)
    code, out, err = run(capsys, "analyze", "-", "--exact", "--json")
    assert code == 0
    tree = json.loads(out)
    assert tree["spark"]["coherence_index_bound"] == 3
    assert tree["spark"]["mutual_coherence_bound"] == pytest.approx(2.25, abs=1e-12)
    assert tree["spark"]["exact"] == {"kind": "finite", "value": 11}
    assert tree["spark"]["settled_by"] == "null_vector"


GOLDEN = pathlib.Path(__file__).parent / "golden"
# 5x7 with entries in {0, 1, -1} and column norms 1 or 2: the unit columns
# and their Gram entries are exact in binary, so the report bytes do not
# depend on the BLAS
WIDE = ("0,1,1,1,1,1,0", "0,1,1,-1,-1,0,1", "0,-1,1,-1,0,-1,-1", "0,-1,0,0,1,1,1",
        "1,0,1,-1,1,1,-1")


@pytest.mark.parametrize(
    "name, rows, extra, exit_code",
    [
        ("full_rank", ("1,0,0", "0,1,0", "0,0,1"), (), 0),
        ("null_vector", None, (), 0),  # the input is gen example31 --n 5
        ("size_proof", WIDE, (), 0),
        # column 6 set to column 5: the probe fails and the scan finds the pair
        ("search", tuple(row[: row.rindex(",")] + "," + row.split(",")[5] for row in WIDE),
         (), 0),
        ("budget_hit", WIDE, ("--budget", "3"), 2),
    ],
)
def test_exact_report_bytes_for_each_settle_path(capsys, monkeypatch, name, rows, extra,
                                                 exit_code):
    if rows is None:
        text = run(capsys, "gen", "example31", "--n", "5")[1]
    else:
        text = "".join(row + "\n" for row in rows)
    _stdin(monkeypatch, text)
    code, out, _ = run(capsys, "analyze", "-", "--exact", "--json", *extra)
    assert code == exit_code
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_main_builds_the_parser_once(capsys, tmp_path, monkeypatch):
    builds = []
    real_init = sparkcert.cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(sparkcert.cli._Parser, "__init__", counting_init)
    sparkcert.cli.build_parser.cache_clear()
    mp = tmp_path / "m.csv"
    xp = tmp_path / "x.txt"
    bp = tmp_path / "b.txt"
    mp.write_text(write_csv(spiked_identity(4).data))
    xp.write_text(write_vector(np.eye(5)[1]))
    bp.write_text(write_vector(np.eye(4)[1]))
    codes = [
        run(capsys, *argv)[0]
        for argv in (
            ("analyze", str(mp)),
            ("analyze", str(mp), "--exact", "--json"),
            ("certify", str(mp), "--x", str(xp), "--b", str(bp), "--exact"),
            ("gen", "example31", "--n", "3"),
            ("analyze",),
            ("--help",),
            ("gen", "random", "--help"),
        )
    ]
    assert codes == [0, 0, 0, 0, 1, ("SystemExit", 0), ("SystemExit", 0)]
    # every parser, top-level and sub-parser, has its own prog and was built once
    assert builds.count("sparkcert") == 1
    assert len(builds) == len(set(builds))


def test_reused_parser_matches_a_fresh_one(capsys, tmp_path, monkeypatch):
    m = spiked_identity(5)
    x = np.eye(6)[2]
    mp = tmp_path / "m.csv"
    rp = tmp_path / "r.csv"
    xp = tmp_path / "x.txt"
    bp = tmp_path / "b.txt"
    gp = tmp_path / "g.csv"
    mp.write_text(write_csv(m.data))
    rp.write_text(write_csv(random_matrix(4, 9, seed=0).data))
    xp.write_text(write_vector(x))
    bp.write_text(write_vector(m.data @ x))
    certify_argv = ("certify", str(mp), "--x", str(xp), "--b", str(bp), "--json")
    steps = (
        (None, ("analyze", str(rp), "--exact", "--budget", "5", "--json")),
        (None, ("analyze", str(rp), "--json")),
        (None, certify_argv + ("--exact",)),
        (None, certify_argv),
        (None, ("gen", "random", "--n", "3", "--m", "5", "--seed", "4", "-o", str(gp))),
        (None, ("gen", "example31", "--n", "3")),
        ("40", ("--help",)),
        ("150", ("--help",)),
    )

    def run_steps(fresh):
        results = []
        for columns, argv in steps:
            if columns is None:
                monkeypatch.delenv("COLUMNS", raising=False)
            else:
                monkeypatch.setenv("COLUMNS", columns)
            if fresh:
                sparkcert.cli.build_parser.cache_clear()
            gp.unlink(missing_ok=True)
            result = run(capsys, *argv)
            results.append(result + (gp.read_text() if gp.exists() else None,))
        return results

    sparkcert.cli.build_parser.cache_clear()
    reused = run_steps(fresh=False)
    assert reused == run_steps(fresh=True)

    budget_hit, bounds_only, with_exact, without_exact, to_file, to_stdout, narrow, wide = (
        reused
    )
    assert budget_hit[0] == 2
    assert json.loads(budget_hit[1])["spark"]["search_budget_hit"] is True
    assert bounds_only[0] == 0
    spark = json.loads(bounds_only[1])["spark"]
    assert (spark["exact"], spark["search_budget_hit"], spark["subsets_examined"]) == (
        None,
        False,
        None,
    )
    assert json.loads(with_exact[1])["certificate"]["verdict"] == "unique_by_spark"
    assert json.loads(without_exact[1])["spark"]["exact"] is None
    assert to_file[:3] == (0, "", "") and parse_csv(to_file[3]).shape == (3, 5)
    assert to_stdout[0] == 0 and parse_csv(to_stdout[1]).shape == (3, 4)
    assert narrow[0] == wide[0] == ("SystemExit", 0)
    # help is wrapped to COLUMNS when it is printed, not when the parser is built
    assert len(narrow[1].splitlines()) > len(wide[1].splitlines())


def _write_inputs(tmp_path, files):
    """Write each name -> text pair under tmp_path; return the paths as strings."""
    paths = {}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    return paths


@pytest.mark.parametrize(
    "matrix, x, b, named, message",
    [
        ("m.csv", "bad.txt", "b.txt", "bad.txt",
         "UnparseableNumber: {}: line 1, field 1: not a number"),
        ("m.csv", "x.txt", "bad.txt", "bad.txt",
         "UnparseableNumber: {}: line 1, field 1: not a number"),
        ("m.csv", "x.txt", "nan.txt", "nan.txt",
         "NonFiniteEntry: {}: vector entry 0 is not finite"),
        ("ragged.csv", "bad.txt", "b.txt", "ragged.csv",
         "RaggedRows: {}: line 2: row length differs from the first row"),
    ],
    ids=["bad-x", "bad-b", "nan-in-b", "bad-matrix-and-x"],
)
def test_input_errors_name_their_file(capsys, tmp_path, matrix, x, b, named, message):
    paths = _write_inputs(tmp_path, {
        "m.csv": "1,0,1\n0,1,1\n", "ragged.csv": "1,0,1\n0,1\n", "x.txt": "1\n0\n0\n",
        "b.txt": "1\n0\n", "bad.txt": "one\n0\n", "nan.txt": "nan\n0\n",
    })
    code, out, err = run(capsys, "certify", paths[matrix], "--x", paths[x], "--b", paths[b])
    assert (code, out) == (1, "")
    assert err == f"error: {message.format(paths[named])}\n"


def test_stdin_input_errors_name_stdin(capsys, monkeypatch):
    _stdin(monkeypatch, "1,0\n0\n")
    code, out, err = run(capsys, "analyze", "-")
    assert (code, out) == (1, "")
    assert err == "error: RaggedRows: <stdin>: line 2: row length differs from the first row\n"


@pytest.mark.parametrize(
    "matrix, x, b",
    [("-", "-", "b.txt"), ("-", "x.txt", "-"), ("m.csv", "-", "-")],
    ids=["matrix-and-x", "matrix-and-b", "x-and-b"],
)
def test_two_stdin_inputs_are_a_usage_error(capsys, tmp_path, monkeypatch, matrix, x, b):
    paths = _write_inputs(tmp_path, {"m.csv": "1,0,1\n0,1,1\n", "x.txt": "1\n0\n0\n",
                                     "b.txt": "1\n0\n"})
    paths["-"] = "-"
    stdin = _stdin(monkeypatch, "1,0,1\n0,1,1\n1\n0\n0\n")
    code, out, err = run(capsys, "certify", paths[matrix], "--x", paths[x], "--b", paths[b])
    assert (code, out) == (1, "")
    assert err == "error: at most one input may be - (stdin)\n"
    # refused before any input was read
    assert stdin.buffer.tell() == 0


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "mm"])
def test_certify_report_is_the_analyze_report_plus_a_certificate(capsys, tmp_path, exact, fmt):
    m = random_matrix(6, 12, seed=7)
    x = np.zeros(12)
    x[[2, 9]] = (1.5, -0.5)
    write = write_matrix_market if fmt == "mm" else write_csv
    paths = _write_inputs(tmp_path, {f"m.{fmt}": write(m.data), "x.txt": write_vector(x),
                                     "b.txt": write_vector(m.data @ x)})
    flags = ["--json", "--exact"] if exact else ["--json"]
    code_a, analyzed, _ = run(capsys, "analyze", paths[f"m.{fmt}"], *flags)
    code_c, certified, _ = run(capsys, "certify", paths[f"m.{fmt}"], "--x", paths["x.txt"],
                               "--b", paths["b.txt"], *flags)
    assert code_a == code_c == 0
    head_a, key, tail_a = analyzed.partition('\n  "certificate": ')
    head_c, key_c, tail_c = certified.partition('\n  "certificate": ')
    assert key == key_c != ""
    assert head_a == head_c
    assert tail_a == "null\n}\n"
    certificate = json.loads(certified)["certificate"]
    assert certificate["verdict"] == ("unique_by_spark" if exact else "inconclusive")


def test_certify_reads_its_vectors_before_the_search(capsys, tmp_path):
    # a budget of 1 would stop the search with exit 2; the bad x is found first
    paths = _write_inputs(tmp_path, {"m.csv": write_csv(random_matrix(4, 9, seed=0).data),
                                     "x.txt": "zz\n", "b.txt": "0\n0\n0\n0\n"})
    code, out, err = run(capsys, "certify", paths["m.csv"], "--x", paths["x.txt"],
                         "--b", paths["b.txt"], "--exact", "--budget", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: UnparseableNumber: ")

