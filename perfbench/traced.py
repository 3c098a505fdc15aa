"""Each workload step as direct calls to sparkcert's public functions.

Every call into a layer sits in a span named ``<layer>.<function>``
under one ``op.<command>`` span per step, so the trace gives each layer's
time and self time. Besides what the CLI runs for a step, an analyze or
certify step also calls ``build_matrix``, ``gram_matrix``,
``pairwise_coherences``, ``coherence_profile``, ``render_text`` and
``report_from_json`` once each, so that every layer has its own span. The
step returns the text the CLI would print and its exit code.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import sparkcert as sc

from tracing import Tracer
from workloads import WRITERS, Step

PARSERS = {
    "csv": ("formats.parse_csv", sc.parse_csv),
    "mm": ("formats.parse_matrix_market", sc.parse_matrix_market),
}


@dataclass
class Counts:
    """Work counts of one pass over the op cycle; they must repeat exactly.

    gathered_bytes is computed, not measured: subsets x rows x size x 8.
    """

    input_bytes: int = 0
    pairs: int = 0
    subsets: int = 0
    gathered_bytes: int = 0


def gathered_bytes(rows: int, cols: int, subsets: int) -> int:
    """Bytes of column data gathered for `subsets` subsets scanned size by size."""
    total, size = 0, 1
    while subsets > 0 and size <= cols:
        scanned = min(subsets, math.comb(cols, size))
        total += scanned * rows * size * 8
        subsets -= scanned
        size += 1
    return total


def run_step(step: Step, workdir: str, workers: int, tracer: Tracer, op: str,
             counts: Counts) -> tuple[int, str]:
    with tracer.span(f"op.{step.command}", op):
        if step.command == "gen":
            return 0, _gen(step, tracer, op)
        return _analyze_or_certify(step, workdir, workers, tracer, op, counts)


def _gen(step: Step, tracer: Tracer, op: str) -> str:
    family, flags = step.gen[0], dict(zip(step.gen[1::2], step.gen[2::2]))
    if family != "random":
        raise ValueError(f"unsupported gen family {family!r}")
    with tracer.span("generators.random_matrix", op):
        matrix = sc.random_matrix(int(flags["--n"]), int(flags["--m"]), int(flags["--seed"]))
    name, writer = WRITERS[flags.get("--format", "csv")]
    with tracer.span(name, op):
        return writer(matrix.data)


def _read(workdir: str, path: str, counts: Counts) -> str:
    with open(os.path.join(workdir, path), encoding="utf-8") as handle:
        text = handle.read()
    counts.input_bytes += len(text.encode("utf-8"))
    return text


def _analyze_or_certify(step: Step, workdir: str, workers: int, tracer: Tracer, op: str,
                        counts: Counts) -> tuple[int, str]:
    name, parse = PARSERS["mm" if step.path.endswith(".mm") else "csv"]
    text = _read(workdir, step.path, counts)
    with tracer.span(name, op):
        matrix = parse(text)
    if step.command == "certify":
        x_text, b_text = _read(workdir, step.x_path, counts), _read(workdir, step.b_path, counts)
        with tracer.span("formats.parse_vector", op):
            x, b = sc.parse_vector(x_text), sc.parse_vector(b_text)
    with tracer.span("matrix.build_matrix", op):
        sc.build_matrix(matrix.data)
    with tracer.span("matrix.gram_matrix", op):
        sc.gram_matrix(matrix)
    with tracer.span("coherence.pairwise_coherences", op):
        sc.pairwise_coherences(matrix)
    with tracer.span("coherence.coherence_profile", op):
        counts.pairs += sc.coherence_profile(matrix).pair_count
    with tracer.span("spark.analyze_spark", op):
        spark_report = sc.analyze_spark(matrix)
    if step.exact:
        spark_report = _exact(matrix, spark_report, step.budget, workers, tracer, op, counts)
    certificate = None
    if step.command == "certify":
        if spark_report.search_budget_hit:
            return 2, ""
        with tracer.span("uniqueness.certify", op):
            certificate = sc.certify(matrix, x, b, exact=spark_report.exact)
    with tracer.span("report.build_report", op):
        report = sc.build_report(matrix, step.path, spark_report, certificate=certificate)
    with tracer.span("report.report_to_json", op):
        as_json = sc.report_to_json(report)
    with tracer.span("report.render_text", op):
        as_text = sc.render_text(report)
    with tracer.span("report.report_from_json", op):
        sc.report_from_json(as_json)
    return (2 if spark_report.search_budget_hit else 0), (as_text if step.text else as_json)


def _exact(matrix, spark_report, budget, workers, tracer, op, counts):
    with tracer.span("spark.exact_spark", op):
        try:
            result = sc.exact_spark(matrix, budget=budget, workers=workers)
        except sc.BudgetExceeded as exc:
            result = None
            examined = exc.subsets_examined
    if result is None:
        update = dict(search_budget_hit=True, subsets_examined=examined)
    else:
        examined = result.subsets_examined
        update = dict(exact=result.spark, witness=result.witness, subsets_examined=examined)
    counts.subsets += examined
    counts.gathered_bytes += gathered_bytes(matrix.rows, matrix.cols, examined)
    return dataclasses.replace(spark_report, **update)
