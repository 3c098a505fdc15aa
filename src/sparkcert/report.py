"""Analysis report assembly, JSON round-trip, and text rendering.

Reports serialize to portable JSON: every double is rendered with 17
significant digits so parsing returns the identical bits, and infinities
appear as the string "infinity" rather than a bare non-standard token.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import cache, partial
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Any

from ._version import __version__
from .coherence import coherence_profile, top_coherence_sum
from .config import ToleranceConfig
from .errors import ReportParseError
from .formats import format_float
from .matrix import TOP_COHERENCES_SHOWN, DenseMatrix
from .spark import SETTLED_BY, SparkReport

if TYPE_CHECKING:
    from .uniqueness import UniquenessCertificate

# 2: the spark section gained settled_by, subsets_examined stopped counting
# the sizes the coherence profile proves independent, and the mutual
# coherence bound allows for the rounding of the mutual coherence.
# 3: settled_by gained "size_proof", and subsets_examined counts the size
# proof's probe beside the scan.
SCHEMA_VERSION = 3
TOOL_NAME = "sparkcert"

INFINITY_TOKEN = "infinity"


@dataclass(frozen=True)
class MatrixMeta:
    rows: int
    cols: int
    source: str


@dataclass(frozen=True)
class CoherenceSummary:
    """Coherence facts carried by a report.

    coherence_index is the profile's, math.inf when no prefix sum reaches
    1; top_coherence_sum is the sum of the largest `rows` coherences,
    present only for wide matrices (where it is provably >= 1).
    """

    mutual_coherence: float
    coherence_index: int | float
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
    *,
    certificate: UniquenessCertificate | None = None,
    seed: int | None = None,
) -> AnalysisReport:
    """Assemble the full report for an analyzed matrix, stating its tolerances."""
    profile = coherence_profile(matrix)
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
        tolerances=matrix.tolerances,
        coherence=summary,
        spark=spark_report,
        certificate=certificate,
    )


def _emit(value: Any, indent: int) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        # what json.dumps gives a str with its default arguments
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("non-finite float reached the emitter unmapped")
        return format_float(value)
    if isinstance(value, (list, tuple)):
        items = [_emit(v, indent + 1) for v in value]
        brackets = "[]"
    elif isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_emit(v, indent + 1)}" for k, v in value.items()]
        brackets = "{}"
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    if not items:
        return brackets
    pad = "\n" + "  " * indent
    return f"{brackets[0]}{pad}  " + f",{pad}  ".join(items) + f"{pad}{brackets[1]}"


# Each report field has a codec: an (encode, decode) pair. encode maps the
# field's value to its JSON value; decode(value, key) maps it back, raising
# ReportParseError that names `key` when the value has the wrong type.
Codec = tuple[Callable[[Any], Any], Callable[[Any, str], Any]]


def _same(value: Any) -> Any:
    return value


def _checked(
    expected: str, accept: Callable[[Any], bool], convert: Callable[[Any], Any] = _same
) -> Callable[[Any, str], Any]:
    """A decoder that converts the values `accept` passes and rejects the rest."""

    def decode(value: Any, key: str) -> Any:
        if not accept(value):
            raise ReportParseError(f"{key}: expected {expected}")
        return convert(value)

    return decode


def _is_int(value: Any) -> bool:
    # bool is a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _int_from(low: int) -> Codec:
    """An integer of at least `low`."""
    return (_same, _checked(f"an integer >= {low}", lambda v: _is_int(v) and v >= low))


_INT: Codec = (_same, _checked("an integer", _is_int))
_COUNT = _int_from(0)
_WITNESS: Codec = (list, _checked(
    "a strictly increasing list of column indices >= 0",
    lambda v: isinstance(v, list) and all(_is_int(j) and j >= 0 for j in v)
    and all(a < b for a, b in zip(v, v[1:])),
    tuple,
))
# float() on the way out too, so an integer-valued field (a tolerance of 0)
# is written as 0.0, as report_from_json reads it back; math.isfinite
# raises OverflowError for an int beyond the float range
_FLOAT: Codec = (float, _checked(
    "a finite number",
    lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v),
    float,
))
_STR: Codec = (_same, _checked("a string", lambda v: isinstance(v, str)))
_BOOL: Codec = (_same, _checked("true or false", lambda v: isinstance(v, bool)))


def _or(codec: Codec, token: Any, special: Any) -> Codec:
    """The codec, with the JSON value `token` standing for `special`."""
    encode, decode = codec
    return (
        lambda value: token if value == special else encode(value),
        lambda value, key: special if value == token else decode(value, key),
    )


def _optional(codec: Codec) -> Codec:
    return _or(codec, None, None)


def _list_of(codec: Codec) -> Codec:
    """A tuple, as a JSON list of the codec's values."""
    encode, decode = codec
    check = _checked("a list", lambda v: isinstance(v, list))
    return (
        lambda value: [encode(item) for item in value],
        lambda value, key: tuple(decode(item, key) for item in check(value, key)),
    )


def _req(tree: Any, key: str) -> Any:
    if not isinstance(tree, dict):
        raise ReportParseError(f"expected an object holding {key!r}")
    if key not in tree:
        raise ReportParseError(f"missing key {key!r}")
    return tree[key]


def _encode_fields(fields: dict[str, Codec], obj: Any) -> dict[str, Any]:
    return {name: encode(getattr(obj, name)) for name, (encode, _) in fields.items()}


def _decode_fields(fields: dict[str, Codec], tree: Any) -> dict[str, Any]:
    return {name: decode(_req(tree, name), name) for name, (_, decode) in fields.items()}


def _record(cls: type, fields: dict[str, Codec]) -> Codec:
    """A dataclass, as a JSON object keyed by its field names."""
    return partial(_encode_fields, fields), lambda tree, key: cls(**_decode_fields(fields, tree))


def _check_witness(spark: SparkReport, matrix: MatrixMeta) -> None:
    """A witness holds exactly spark many columns, each a column of the matrix."""
    if spark.witness is None:
        return
    # no length equals None (no exact spark) or math.inf
    if len(spark.witness) != spark.exact:
        raise ReportParseError("witness: expected as many columns as a finite exact spark")
    # the witness is strictly increasing, so its last column is its largest
    if spark.witness[-1] >= matrix.cols:
        raise ReportParseError(f"witness: expected column indices below cols = {matrix.cols}")


def _check_index_bound(spark: SparkReport, coherence: CoherenceSummary) -> None:
    """The coherence-index bound is 1 + the coherence index, infinite with an infinite index."""
    if spark.coherence_index_bound != 1 + coherence.coherence_index:
        raise ReportParseError("coherence_index_bound: expected 1 + coherence.coherence_index")


def _finite_spark_tree(value: Any) -> bool:
    return (isinstance(value, dict) and value.get("kind") == "finite"
            and _is_int(value.get("value")) and value["value"] >= 1)


def _on_first_use(build: Callable[[], Codec]) -> Codec:
    """The codec `build()` returns, built when a value first passes through it."""
    build = cache(build)
    return lambda value: build()[0](value), lambda value, key: build()[1](value, key)


def _certificate_codec() -> Codec:
    # uniqueness loads only once a report holds a certificate
    from .uniqueness import CRITERIA, UniquenessCertificate, Verdict

    return _record(UniquenessCertificate, {
        "l0": _COUNT,
        "residual": _FLOAT,
        "spark_threshold": _optional(_FLOAT),
        "index_threshold": _or(_FLOAT, INFINITY_TOKEN, math.inf),
        "coherence_threshold": _optional(_FLOAT),
        "criteria_passed": (sorted, _checked(
            f"a list from {sorted(CRITERIA)}",
            lambda v: isinstance(v, list) and CRITERIA.issuperset(v),
            frozenset,
        )),
        "verdict": (attrgetter("value"), lambda value, key: Verdict(value)),
    })


# An exact spark n is {"kind": "finite", "value": n}; math.inf is
# {"kind": "infinite"}, nothing more.
_EXACT_SPARK = _or((lambda n: {"kind": "finite", "value": n}, _checked(
    '{"kind": "finite", "value": an integer >= 1} or {"kind": "infinite"}',
    _finite_spark_tree,
    itemgetter("value"),
)), {"kind": "infinite"}, math.inf)


# The report after "tool", in schema order: the AnalysisReport fields
# except the tool's, each section keyed by its dataclass's field names.
_SECTIONS: dict[str, Codec] = {
    "matrix": _record(MatrixMeta, {"rows": _int_from(1), "cols": _int_from(1), "source": _STR}),
    "seed": _optional(_INT),
    "tolerances": _record(ToleranceConfig, {f.name: _FLOAT for f in fields(ToleranceConfig)}),
    "coherence": _record(CoherenceSummary, {
        "mutual_coherence": _FLOAT,
        "coherence_index": _or(_int_from(1), INFINITY_TOKEN, math.inf),
        "top_coherences": _list_of(_FLOAT),
        "top_coherence_sum": _optional(_FLOAT),
    }),
    "spark": _record(SparkReport, {
        "mutual_coherence_bound": _optional(_FLOAT),
        "coherence_index_bound": _or(_int_from(2), INFINITY_TOKEN, math.inf),
        "exact": _optional(_EXACT_SPARK),
        "witness": _optional(_WITNESS),
        "trivial_upper": _optional(_int_from(2)),
        "search_budget_hit": _BOOL,
        "subsets_examined": _optional(_COUNT),
        "settled_by": _optional((_same, _checked(
            f"one of {list(SETTLED_BY)}", lambda v: v in SETTLED_BY
        ))),
    }),
    "certificate": _optional(_on_first_use(_certificate_codec)),
}


def report_to_json(report: AnalysisReport) -> str:
    """Serialize to the versioned JSON schema; inverse of report_from_json."""
    tree = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": report.tool_name, "version": report.tool_version},
        **_encode_fields(_SECTIONS, report),
    }
    return _emit(tree, 0) + "\n"


def _reject_constant(token: str) -> Any:
    raise ReportParseError(f"invalid JSON: bare {token} (infinity is spelled {INFINITY_TOKEN!r})")


def report_from_json(text: str) -> AnalysisReport:
    """Parse report JSON back into an AnalysisReport, bit-exact for doubles."""
    try:
        tree = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        raise ReportParseError(f"invalid JSON: {exc}") from None
    version = _req(tree, "schema_version")
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise ReportParseError(f"unsupported schema_version {version!r}")
    try:
        tool = _req(tree, "tool")
        sections = _decode_fields(_SECTIONS, tree)
        _check_witness(sections["spark"], sections["matrix"])
        _check_index_bound(sections["spark"], sections["coherence"])
        return AnalysisReport(
            **sections,
            tool_name=_STR[1](_req(tool, "name"), "tool.name"),
            tool_version=_STR[1](_req(tool, "version"), "tool.version"),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ReportParseError(f"malformed report: {exc}") from None


def show_number(value: int | float | None) -> str:
    if value is None:
        return "n/a"
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
        f"coherence index: {show_number(coh.coherence_index)}",
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
        lines.append(f"exact spark: {show_number(spk.exact)}")
        if spk.witness is not None:
            lines.append(
                "dependent columns: " + " ".join(str(i) for i in spk.witness)
            )
    elif spk.search_budget_hit:
        lines.append("exact spark: not settled (search budget exhausted)")
    if spk.subsets_examined is not None:
        lines.append(f"subsets examined: {spk.subsets_examined}")
    if spk.settled_by is not None:
        lines.append(f"settled by: {spk.settled_by}")
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
