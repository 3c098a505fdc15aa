"""Tolerances and resource limits shared by the numeric routines.

Nothing here reads the environment: the search budget comes only
through `budget=` arguments (or the CLI's --budget), and search_budget
states what `budget=None` means (DEFAULT_SEARCH_BUDGET) and which
budgets are valid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

# The float64 machine epsilon, 2**-52: a Python float is a C double.
EPS = sys.float_info.epsilon

DEFAULT_ZERO_COLUMN_TOL = 1e-12
DEFAULT_ZERO_ENTRY_TOL = 1e-9
DEFAULT_RESIDUAL_TOL = 1e-9
# Multiplied by sigma_max * max(rows, columns) of the matrix under test to
# get the rank cutoff; in the exact search that is max(rows, size) for each
# column subset. The default matches numpy.linalg.matrix_rank's choice.
DEFAULT_RANK_TOL_FACTOR = EPS
DEFAULT_INDEX_SLACK = 0.0
DEFAULT_SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric knobs for construction, rank tests, and certification.

    A matrix is built at one config (build_matrix, the parsers,
    random_matrix) and keeps it as DenseMatrix.tolerances; every
    analysis of the matrix reads that one.

    zero_column_tol: columns with norm <= this are rejected at build time.
        The default is absolute, so a rejection depends on the scale of
        the data; it stays, as every report embeds it. Pass 0 for scale
        invariance (only exactly zero columns are rejected).
    zero_entry_tol: entries with |x| <= this count as zero for the l0 norm.
    residual_tol: max ||A x - b||_2 for x to count as a solution.
    rank_tol_factor: scale factor for the singular-value rank cutoff.
    index_slack: additive slack when testing coherence prefix sums >= 1.
    """

    zero_column_tol: float = DEFAULT_ZERO_COLUMN_TOL
    zero_entry_tol: float = DEFAULT_ZERO_ENTRY_TOL
    residual_tol: float = DEFAULT_RESIDUAL_TOL
    rank_tol_factor: float = DEFAULT_RANK_TOL_FACTOR
    index_slack: float = DEFAULT_INDEX_SLACK

    def __post_init__(self) -> None:
        # a report embeds every tolerance, and its JSON holds finite numbers
        for field in fields(self):
            value = getattr(self, field.name)
            if not (0.0 <= value < math.inf):
                raise ValueError(f"{field.name} must be finite and >= 0, got {value!r}")


DEFAULT_TOLERANCES = ToleranceConfig()


def search_budget(budget: int | None) -> int:
    """The budget of a search: DEFAULT_SEARCH_BUDGET for None; raises ValueError below 1."""
    if budget is None:
        return DEFAULT_SEARCH_BUDGET
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    return budget
