"""Analysis report assembly, JSON round-trip, and text rendering.

Reports serialize to portable JSON: every double is rendered with 17
significant digits so parsing returns the identical bits, and infinities
appear as the string "infinity" rather than a bare non-standard token.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from ._version import __version__
from .coherence import coherence_profile, top_coherence_sum
from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import ReportParseError
from .formats import format_float
from .matrix import DenseMatrix
from .spark import SparkReport, SparkValue
from .uniqueness import CRITERIA, UniquenessCertificate, Verdict

SCHEMA_VERSION = 1
TOOL_NAME = "sparkcert"
TOP_COHERENCES_SHOWN = 10

INFINITY_TOKEN = "infinity"


@dataclass(frozen=True)
class MatrixMeta:
    rows: int
    cols: int
    source: str


@dataclass(frozen=True)
class CoherenceSummary:
    """Coherence facts carried by a report.

    top_coherence_sum is the sum of the largest `rows` coherences, present
    only for wide matrices (where it is provably >= 1).
    """

    mutual_coherence: float
    coherence_index: int | None
    top_coherences: tuple[float, ...]
    top_coherence_sum: float | None


@dataclass(frozen=True)
class AnalysisReport:
    matrix: MatrixMeta
    seed: int | None
    tolerances: ToleranceConfig
    coherence: CoherenceSummary
    spark: SparkReport
    certificate: UniquenessCertificate | None
    tool_name: str = TOOL_NAME
    tool_version: str = __version__


def build_report(
    matrix: DenseMatrix,
    source: str,
    spark_report: SparkReport,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
    certificate: UniquenessCertificate | None = None,
    seed: int | None = None,
) -> AnalysisReport:
    """Assemble the full report for an analyzed matrix."""
    profile = coherence_profile(matrix, tolerances)
    wide_sum = top_coherence_sum(matrix) if matrix.rows < matrix.cols else None
    summary = CoherenceSummary(
        mutual_coherence=profile.mutual_coherence,
        coherence_index=profile.coherence_index,
        top_coherences=tuple(profile.coherences[:TOP_COHERENCES_SHOWN].tolist()),
        top_coherence_sum=wide_sum,
    )
    return AnalysisReport(
        matrix=MatrixMeta(rows=matrix.rows, cols=matrix.cols, source=source),
        seed=seed,
        tolerances=tolerances,
        coherence=summary,
        spark=spark_report,
        certificate=certificate,
    )


def _emit(value: Any, indent: int) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("non-finite float reached the emitter unmapped")
        return format_float(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}  {_emit(v, indent + 1)}" for v in value)
        return "[\n" + inner + f"\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(k)}: {_emit(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + inner + f"\n{pad}}}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _maybe_infinite(value: int | float) -> int | float | str:
    if isinstance(value, float) and math.isinf(value):
        return INFINITY_TOKEN
    return value


def _spark_value_tree(value: SparkValue | None) -> dict[str, Any] | None:
    if value is None:
        return None
    if value.is_finite:
        return {"kind": "finite", "value": value.value}
    return {"kind": "infinite"}


def _certificate_tree(cert: UniquenessCertificate | None) -> dict[str, Any] | None:
    if cert is None:
        return None
    return {
        "l0": cert.l0,
        "residual": cert.residual,
        "spark_threshold": cert.spark_threshold,
        "index_threshold": _maybe_infinite(cert.index_threshold),
        "coherence_threshold": cert.coherence_threshold,
        "criteria_passed": sorted(cert.criteria_passed),
        "verdict": cert.verdict.value,
    }


def report_to_json(report: AnalysisReport) -> str:
    """Serialize to the versioned JSON schema; inverse of report_from_json."""
    tol = report.tolerances
    coh = report.coherence
    spk = report.spark
    tree: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": report.tool_name, "version": report.tool_version},
        "matrix": {
            "rows": report.matrix.rows,
            "cols": report.matrix.cols,
            "source": report.matrix.source,
        },
        "seed": report.seed,
        "tolerances": {
            "zero_column_tol": tol.zero_column_tol,
            "zero_entry_tol": tol.zero_entry_tol,
            "residual_tol": tol.residual_tol,
            "rank_tol_factor": tol.rank_tol_factor,
            "index_slack": tol.index_slack,
        },
        "coherence": {
            "mutual_coherence": coh.mutual_coherence,
            "coherence_index": (
                INFINITY_TOKEN if coh.coherence_index is None else coh.coherence_index
            ),
            "top_coherences": list(coh.top_coherences),
            "top_coherence_sum": coh.top_coherence_sum,
        },
        "spark": {
            "mutual_coherence_bound": spk.mutual_coherence_bound,
            "coherence_index_bound": _maybe_infinite(spk.coherence_index_bound),
            "exact": _spark_value_tree(spk.exact),
            "witness": None if spk.witness is None else list(spk.witness),
            "trivial_upper": spk.trivial_upper,
            "search_budget_hit": spk.search_budget_hit,
            "subsets_examined": spk.subsets_examined,
        },
        "certificate": _certificate_tree(report.certificate),
    }
    return _emit(tree, 0) + "\n"


def _req(tree: dict[str, Any], key: str) -> Any:
    if key not in tree:
        raise ReportParseError(f"missing key {key!r}")
    return tree[key]


def _as_float(value: Any, key: str) -> float:
    # math.isfinite raises OverflowError for an int beyond the float range
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ReportParseError(f"{key}: expected a finite number")
    return float(value)


def _as_opt_float(value: Any, key: str) -> float | None:
    return None if value is None else _as_float(value, key)


def _as_int(value: Any, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ReportParseError(f"{key}: expected an integer")
    return value


def _as_float_or_infinity(value: Any, key: str) -> float:
    if value == INFINITY_TOKEN:
        return math.inf
    return _as_float(value, key)


def _parse_spark_value(tree: Any) -> SparkValue | None:
    if tree is None:
        return None
    kind = _req(tree, "kind")
    if kind == "finite":
        return SparkValue(kind="finite", value=_as_int(_req(tree, "value"), "exact.value"))
    if kind == "infinite":
        return SparkValue(kind="infinite")
    raise ReportParseError(f"exact.kind: unknown kind {kind!r}")


def _reject_constant(token: str) -> Any:
    raise ReportParseError(f"invalid JSON: bare {token} (infinity is spelled {INFINITY_TOKEN!r})")


def report_from_json(text: str) -> AnalysisReport:
    """Parse report JSON back into an AnalysisReport, bit-exact for doubles."""
    try:
        tree = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        raise ReportParseError(f"invalid JSON: {exc}") from None
    if not isinstance(tree, dict):
        raise ReportParseError("top level must be an object")
    version = _req(tree, "schema_version")
    if version != SCHEMA_VERSION:
        raise ReportParseError(f"unsupported schema_version {version!r}")
    try:
        tool = _req(tree, "tool")
        m = _req(tree, "matrix")
        tol = _req(tree, "tolerances")
        coh = _req(tree, "coherence")
        spk = _req(tree, "spark")

        raw_index = _req(coh, "coherence_index")
        coherence_index = None if raw_index == INFINITY_TOKEN else _as_int(
            raw_index, "coherence_index"
        )

        raw_bound = _req(spk, "coherence_index_bound")
        index_bound: int | float
        if raw_bound == INFINITY_TOKEN:
            index_bound = math.inf
        else:
            index_bound = _as_int(raw_bound, "coherence_index_bound")

        raw_witness = _req(spk, "witness")
        witness = (
            None
            if raw_witness is None
            else tuple(_as_int(w, "witness") for w in raw_witness)
        )

        cert_tree = _req(tree, "certificate")
        certificate = None
        if cert_tree is not None:
            criteria = _req(cert_tree, "criteria_passed")
            if not isinstance(criteria, list) or not CRITERIA.issuperset(criteria):
                raise ReportParseError(f"criteria_passed: expected a list from {sorted(CRITERIA)}")
            certificate = UniquenessCertificate(
                l0=_as_int(_req(cert_tree, "l0"), "l0"),
                residual=_as_float(_req(cert_tree, "residual"), "residual"),
                spark_threshold=_as_opt_float(
                    _req(cert_tree, "spark_threshold"), "spark_threshold"
                ),
                index_threshold=_as_float_or_infinity(
                    _req(cert_tree, "index_threshold"), "index_threshold"
                ),
                coherence_threshold=_as_opt_float(
                    _req(cert_tree, "coherence_threshold"), "coherence_threshold"
                ),
                criteria_passed=frozenset(criteria),
                verdict=Verdict(_req(cert_tree, "verdict")),
            )

        raw_trivial = _req(spk, "trivial_upper")
        raw_examined = _req(spk, "subsets_examined")
        raw_seed = _req(tree, "seed")
        raw_wide_sum = _req(coh, "top_coherence_sum")
        return AnalysisReport(
            matrix=MatrixMeta(
                rows=_as_int(_req(m, "rows"), "rows"),
                cols=_as_int(_req(m, "cols"), "cols"),
                source=str(_req(m, "source")),
            ),
            seed=None if raw_seed is None else _as_int(raw_seed, "seed"),
            tolerances=ToleranceConfig(
                zero_column_tol=_as_float(_req(tol, "zero_column_tol"), "zero_column_tol"),
                zero_entry_tol=_as_float(_req(tol, "zero_entry_tol"), "zero_entry_tol"),
                residual_tol=_as_float(_req(tol, "residual_tol"), "residual_tol"),
                rank_tol_factor=_as_float(_req(tol, "rank_tol_factor"), "rank_tol_factor"),
                index_slack=_as_float(_req(tol, "index_slack"), "index_slack"),
            ),
            coherence=CoherenceSummary(
                mutual_coherence=_as_float(
                    _req(coh, "mutual_coherence"), "mutual_coherence"
                ),
                coherence_index=coherence_index,
                top_coherences=tuple(
                    _as_float(v, "top_coherences") for v in _req(coh, "top_coherences")
                ),
                top_coherence_sum=(
                    None if raw_wide_sum is None else _as_float(raw_wide_sum, "top_coherence_sum")
                ),
            ),
            spark=SparkReport(
                mutual_coherence_bound=_as_opt_float(
                    _req(spk, "mutual_coherence_bound"), "mutual_coherence_bound"
                ),
                coherence_index_bound=index_bound,
                exact=_parse_spark_value(_req(spk, "exact")),
                witness=witness,
                trivial_upper=(
                    None if raw_trivial is None else _as_int(raw_trivial, "trivial_upper")
                ),
                search_budget_hit=bool(_req(spk, "search_budget_hit")),
                subsets_examined=(
                    None if raw_examined is None else _as_int(raw_examined, "subsets_examined")
                ),
            ),
            certificate=certificate,
            tool_name=str(_req(tool, "name")),
            tool_version=str(_req(tool, "version")),
        )
    except ReportParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ReportParseError(f"malformed report: {exc}") from None


def show_number(value: int | float | None, missing: str = "n/a") -> str:
    if value is None:
        return missing
    if isinstance(value, float) and math.isinf(value):
        return INFINITY_TOKEN
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def render_text(report: AnalysisReport) -> str:
    """Human-readable rendering of a report."""
    coh = report.coherence
    spk = report.spark
    lines = [
        f"matrix: {report.matrix.rows} x {report.matrix.cols} "
        f"(source: {report.matrix.source})",
        f"mutual coherence: {show_number(coh.mutual_coherence)}",
        f"coherence index: {show_number(coh.coherence_index, missing=INFINITY_TOKEN)}",
        "top coherences: " + ", ".join(format_float(v) for v in coh.top_coherences),
    ]
    if coh.top_coherence_sum is not None:
        lines.append(f"top-{report.matrix.rows} coherence sum: "
                     f"{show_number(coh.top_coherence_sum)}")
    lines.append(
        f"spark lower bound (mutual coherence): {show_number(spk.mutual_coherence_bound)}"
    )
    lines.append(
        f"spark lower bound (coherence index): {show_number(spk.coherence_index_bound)}"
    )
    if spk.exact is not None:
        shown = str(spk.exact.value) if spk.exact.is_finite else INFINITY_TOKEN
        lines.append(f"exact spark: {shown}")
        if spk.witness is not None:
            lines.append(
                "dependent columns: " + " ".join(str(i) for i in spk.witness)
            )
    elif spk.search_budget_hit:
        lines.append("exact spark: not settled (search budget exhausted)")
    if spk.subsets_examined is not None:
        lines.append(f"subsets examined: {spk.subsets_examined}")
    if spk.trivial_upper is not None:
        lines.append(f"trivial upper bound: {spk.trivial_upper}")
    cert = report.certificate
    if cert is not None:
        lines.append(f"candidate support size: {cert.l0}")
        lines.append(f"candidate residual: {format_float(cert.residual)}")
        lines.append(f"threshold (exact spark): {show_number(cert.spark_threshold)}")
        lines.append(f"threshold (coherence index): {show_number(cert.index_threshold)}")
        lines.append(
            f"threshold (mutual coherence): {show_number(cert.coherence_threshold)}"
        )
        lines.append("criteria passed: " + (", ".join(sorted(cert.criteria_passed)) or "none"))
        lines.append(f"verdict: {cert.verdict.value}")
    return "\n".join(lines) + "\n"
