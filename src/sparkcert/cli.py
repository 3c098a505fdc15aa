"""Command-line interface.

Subcommands: analyze (bounds and optional exact spark for a matrix file),
certify (uniqueness certificate for a candidate solution), gen (matrix
generators), bench (bound-vs-exact table for the spiked identity family).
Exit codes: 0 success, 1 input error, 2 search budget exceeded,
3 certified NOT_A_SOLUTION.

In-process use: main(argv) may be called any number of times in one
process. The parser is built on the first call and reused, because
parse_args fills a fresh namespace and leaves the parser unchanged.

One parser block and one command function serve analyze and certify:
certify takes analyze's flags plus --x and --b, and its report is
analyze's report plus the certificate. Every input file is read by one
helper, so an input error names its file (<stdin> for -), and at most
one input may be -.

Each command imports the modules it runs when it starts: gen loads
formats and generators, analyze formats, spark and report, certify those
and uniqueness, bench generators, spark and report. At module level this
file loads only argparse and the package's version, config and errors,
so --version, --help and usage errors never import numpy.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from collections.abc import Sequence

from ._version import __version__
from .config import DEFAULT_SEARCH_BUDGET
from .errors import BudgetExceeded, CliUsageError, SparkCertError

SPIKED_FAMILY = "example31"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: ANN201 - argparse signature
        raise CliUsageError(message)


def _int_at_least(minimum: int, kind: str):
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def _add_common_search_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=_positive_int,
        default=DEFAULT_SEARCH_BUDGET,
        help="max subsets examined by exhaustive searches (default %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="accepted for compatibility and ignored: the subset scan runs on "
        "one thread (must be >= 1; default 1)",
    )


def _add_gen_output(parser: argparse.ArgumentParser) -> None:
    """Output flags of a gen family."""
    parser.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    parser.add_argument(
        "--format",
        dest="matrix_format",
        choices=("csv", "mm"),
        default="csv",
        help="output format (default csv)",
    )
    parser.set_defaults(func=_cmd_gen)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on the first call; every call returns it, so do not change it."""
    # --help shows the module docstring up to its note for in-process
    # callers; under python -OO there is no docstring and no description
    description = __doc__ and __doc__.partition("\n\nIn-process use:")[0]
    parser = _Parser(prog="sparkcert", description=description)
    parser.add_argument("--version", action="version", version=f"sparkcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # certify is analyze plus a candidate (--x, --b) and a certificate
    for name, summary, metavar, kind, exact_help in (
        ("analyze", "coherence bounds and optional exact spark for a matrix file",
         None, "input", "also run the exhaustive spark search"),
        ("certify", "uniqueness certificate for a candidate solution of A x = b",
         "matrixfile", "matrix",
         "compute the exact spark first to unlock the strongest criterion"),
    ):
        p_analysis = sub.add_parser(name, help=summary)
        p_analysis.add_argument("file", metavar=metavar, help="matrix file path, or - for stdin")
        if name == "certify":
            p_analysis.add_argument("--x", required=True, help="candidate solution vector file")
            p_analysis.add_argument("--b", required=True, help="right-hand-side vector file")
        p_analysis.add_argument(
            "--format", choices=("csv", "mm"), default=None, help=f"{kind} format (default: sniff)"
        )
        p_analysis.add_argument("--exact", action="store_true", help=exact_help)
        _add_common_search_flags(p_analysis)
        output = p_analysis.add_mutually_exclusive_group()
        output.add_argument("--json", action="store_true", help="emit the JSON report")
        output.add_argument("--text", action="store_true", help="emit the text report (default)")
        p_analysis.set_defaults(func=_cmd_analyze, x=None, b=None)

    p_gen = sub.add_parser("gen", help="write a generated matrix")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)

    p_spiked = gen_sub.add_parser(
        SPIKED_FAMILY, help="n x (n+1) identity-plus-spike benchmark matrix"
    )
    p_spiked.add_argument("--n", type=_positive_int, required=True, help="row count (>= 2)")
    _add_gen_output(p_spiked)

    p_random = gen_sub.add_parser("random", help="seeded standard-normal matrix")
    p_random.add_argument("--n", type=_positive_int, required=True, help="row count")
    p_random.add_argument("--m", type=_positive_int, required=True, help="column count")
    p_random.add_argument(
        "--seed", type=_non_negative_int, required=True, help="RNG seed (>= 0)"
    )
    _add_gen_output(p_random)

    p_bench = sub.add_parser(
        "bench", help="bounds-vs-exact table for the benchmark family"
    )
    bench_sub = p_bench.add_subparsers(dest="family", required=True)
    p_bench_spiked = bench_sub.add_parser(
        SPIKED_FAMILY, help="run the identity-plus-spike family"
    )
    p_bench_spiked.add_argument(
        "--n-list",
        default="2,5,10,17",
        help="comma-separated row counts (default %(default)s)",
    )
    _add_common_search_flags(p_bench_spiked)
    p_bench_spiked.set_defaults(func=_cmd_bench_spiked)

    return parser


def _source(path: str) -> str:
    """The label an input file goes by in reports and errors."""
    return "<stdin>" if path == "-" else path


def _parse_input(path: str, parse):
    """Read the file at `path` (- for stdin) and parse it; every input error names the file."""
    from .formats import decode_text

    try:
        # the bytes are freed once decoded, before the parse starts
        if path == "-":
            text = decode_text(sys.stdin.buffer.read())
        else:
            with open(path, "rb") as handle:
                text = decode_text(handle.read())
        return parse(text)
    except SparkCertError as exc:
        exc.args = (f"{_source(path)}: {exc}",)
        raise


def _write_output(path: str | None, content: str) -> None:
    if path is None:
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)


def _cmd_analyze(args: argparse.Namespace) -> int:
    """analyze, or certify when a candidate (--x, --b) was given."""
    from .formats import parse_matrix_auto, parse_vector
    from .report import build_report, render_text, report_to_json
    from .spark import analyze_spark

    if [args.file, args.x, args.b].count("-") > 1:
        raise CliUsageError("at most one input may be - (stdin)")
    matrix = _parse_input(args.file, lambda text: parse_matrix_auto(text, args.format))
    candidate = args.x is not None
    if candidate:
        x = _parse_input(args.x, parse_vector)
        b = _parse_input(args.b, parse_vector)
    spark_report = analyze_spark(matrix, compute_exact=args.exact, budget=args.budget)
    certificate = None
    if candidate:
        from .uniqueness import Verdict, certify

        if spark_report.search_budget_hit:
            raise BudgetExceeded(spark_report.subsets_examined)
        certificate = certify(matrix, x, b, exact=spark_report.exact)
    report = build_report(matrix, _source(args.file), spark_report, certificate=certificate)
    sys.stdout.write(report_to_json(report) if args.json else render_text(report))
    if candidate:
        return 3 if certificate.verdict is Verdict.NOT_A_SOLUTION else 0
    return 2 if spark_report.search_budget_hit else 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from .formats import write_csv, write_matrix_market
    from .generators import random_matrix, spiked_identity

    if args.family == SPIKED_FAMILY:
        matrix = spiked_identity(args.n)
    else:
        matrix = random_matrix(args.n, args.m, args.seed)
    write = write_matrix_market if args.matrix_format == "mm" else write_csv
    _write_output(args.output, write(matrix.data))
    return 0


def _parse_n_list(raw: str) -> list[int]:
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            n = int(token)
        except ValueError:
            raise CliUsageError(f"--n-list: {token!r} is not an integer") from None
        if n < 2:
            raise CliUsageError(f"--n-list: entries must be >= 2, got {n}")
        values.append(n)
    if not values:
        raise CliUsageError("--n-list: no entries")
    return values


def _cmd_bench_spiked(args: argparse.Namespace) -> int:
    from .generators import spiked_identity
    from .report import show_number
    from .spark import analyze_spark

    ns = _parse_n_list(args.n_list)
    # (title, width) of each column, for the header and every row
    columns = (
        ("n", 4), ("rows", 5), ("cols", 5), ("exact_spark", 12), ("index_bound", 12),
        ("coherence_bound", 16), ("subsets", 10), ("seconds", 8), ("settled_by", 11),
    )
    print(" ".join(f"{title:>{width}}" for title, width in columns))
    for n in ns:
        matrix = spiked_identity(n)
        start = time.perf_counter()
        report = analyze_spark(matrix, compute_exact=True, budget=args.budget)
        elapsed = time.perf_counter() - start
        if report.search_budget_hit:
            raise BudgetExceeded(report.subsets_examined)
        cells = (
            n, matrix.rows, matrix.cols, show_number(report.exact),
            show_number(report.coherence_index_bound), show_number(report.mutual_coherence_bound),
            report.subsets_examined, f"{elapsed:.3f}", report.settled_by,
        )
        print(" ".join(f"{cell:>{width}}" for cell, (_, width) in zip(cells, columns)))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CliUsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SparkCertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
