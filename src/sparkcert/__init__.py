"""Coherence-based spark bounds and sparse-solution uniqueness certificates.

The library analyzes a dense real matrix in three layers: the coherence
profile (pairwise column coherences, the mutual coherence, and the
coherence index), spark lower bounds derived from that profile together
with an exact exhaustive spark search, and uniqueness certificates that
decide when a candidate solution of A x = b is provably the sparsest one.

Names resolve on first use (PEP 562): `import sparkcert` loads only the
version, and the first read of `sparkcert.certify`, or of the submodule
`sparkcert.uniqueness`, imports that module and keeps the value here.
"""

import importlib

from ._version import __version__

# Every submodule, with the public names it defines.
_EXPORTS = {
    "cli": (),
    "coherence": (
        "CoherenceProfile", "coherence_profile", "pairwise_coherences", "top_coherence_sum",
    ),
    "config": ("ToleranceConfig",),
    "errors": (
        "BudgetExceeded", "CliUsageError", "DimensionMismatch", "IndexOutOfRange", "InvalidN",
        "MatrixParseError", "NoSolutionWithinKmax", "NonFiniteEntry", "NormOverflow",
        "NotSquare", "NotUnderdetermined", "NotUnitDiagonal", "RaggedRows", "ReportParseError",
        "SparkCertError", "TooFewColumns", "TruncatedData", "UnparseableNumber",
        "UnsupportedHeader", "ZeroColumn",
    ),
    "formats": (
        "parse_csv", "parse_matrix_auto", "parse_matrix_market", "parse_vector", "write_csv",
        "write_matrix_market", "write_vector",
    ),
    "generators": ("random_matrix", "spiked_identity"),
    "kernels": (),
    "matrix": (
        "DenseMatrix", "build_matrix", "column_submatrix", "gram_matrix", "normalize_columns",
        "numerical_rank",
    ),
    "report": (
        "AnalysisReport", "CoherenceSummary", "MatrixMeta", "build_report", "render_text",
        "report_from_json", "report_to_json",
    ),
    "spark": (
        "SparkReport", "SparkSearchResult", "analyze_spark", "coherence_index_lower_bound",
        "exact_spark", "gram_minor", "is_diagonally_dominant", "mutual_coherence_lower_bound",
    ),
    "uniqueness": (
        "OracleResult", "OracleSolution", "UniquenessCertificate", "Verdict", "certify",
        "l0_norm", "sparsest_oracle",
    ),
}
# the module each name lives in; a submodule's name maps to itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = ["__version__", *sorted(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
