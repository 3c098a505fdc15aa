"""Independent reference answers and the checks that compare sparkcert to them.

The references use plain numpy and itertools, not sparkcert's own search,
coherence or report code. The one exception is ``sparsest_oracle``, the
package's brute-force solver, which checks certificate verdicts on small
systems. Every check returns a list of problems; an empty list means the
answer agrees with the reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(np.float64).eps)
# A coherence prefix sum this close to 1 may round either way, so both
# neighbouring values of the coherence index are accepted.
INDEX_SLACK = 1e-9
REL_TOL = 1e-9
# The reference refuses an instance whose rank decisions sit closer than
# this factor to the cutoff: another correct SVD could then decide otherwise.
DECISION_MARGIN = 2.0
# Whole-matrix singular-value margin that proves a tall matrix's spark infinite.
FULL_RANK_MARGIN = 1e3
SVD_BATCH = 8192


class BorderlineInstance(Exception):
    """A generated instance is too close to the rank cutoff to check."""


def parse_csv_text(text: str) -> np.ndarray:
    rows = [
        [float(tok) for tok in line.split(",")]
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    return np.array(rows, dtype=np.float64)


def parse_mm_text(text: str) -> np.ndarray:
    lines = [
        line for line in text.splitlines() if line.strip() and not line.startswith("%")
    ]
    rows, cols = (int(tok) for tok in lines[0].split())
    values = np.array([float(tok) for tok in lines[1:]], dtype=np.float64)
    if values.size != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {values.size}")
    return values.reshape(cols, rows).T.copy()


def parse_matrix_text(text: str) -> np.ndarray:
    if text.lstrip().lower().startswith("%%matrixmarket"):
        return parse_mm_text(text)
    return parse_csv_text(text)


@dataclass(frozen=True)
class SparkRef:
    """Exact spark (None when infinite) and the first dependent subset."""

    spark: int | None
    witness: tuple[int, ...] | None


def reference_spark(data: np.ndarray) -> SparkRef:
    """Brute-force spark: itertools subsets in order, SVD rank with sparkcert's cutoff.

    The cutoff is eps * sigma_max * max(rows, size). A matrix with at
    least as many rows as columns whose smallest singular value clears
    the whole-matrix cutoff by FULL_RANK_MARGIN has infinite spark:
    dropping columns never lowers sigma_min or raises sigma_max
    (interlacing), so every subset clears its own, smaller cutoff.
    """
    rows, cols = data.shape
    if rows >= cols:
        s = np.linalg.svd(data, compute_uv=False)
        if s[-1] > FULL_RANK_MARGIN * EPS * s[0] * rows:
            return SparkRef(None, None)
    for size in range(1, cols + 1):
        combos = itertools.combinations(range(cols), size)
        while True:
            idx = np.array(list(itertools.islice(combos, SVD_BATCH)), dtype=np.int64)
            if idx.size == 0:
                break
            if size > rows:
                # more columns than rows: the first subset is dependent outright
                return SparkRef(size, tuple(int(i) for i in idx[0]))
            subs = data[:, idx].transpose(1, 0, 2)
            s = np.linalg.svd(subs, compute_uv=False)
            cutoff = EPS * s[:, 0] * max(rows, size)
            ratio = s[:, -1] / cutoff
            dependent = np.flatnonzero(ratio <= 1.0)
            decided = ratio if dependent.size == 0 else ratio[: dependent[0] + 1]
            near = (decided > 1.0 / DECISION_MARGIN) & (decided < DECISION_MARGIN)
            if near.any():
                raise BorderlineInstance(
                    f"subset {tuple(idx[np.flatnonzero(near)[0]])} has "
                    f"sigma_min/cutoff near 1"
                )
            if dependent.size:
                return SparkRef(size, tuple(int(i) for i in idx[dependent[0]]))
    return SparkRef(None, None)


@dataclass(frozen=True)
class BoundsRef:
    """Coherence facts recomputed with plain numpy.

    index_choices holds every coherence index consistent with rounding
    (None stands for "no prefix sum reaches 1"); top_sum is the sum of the
    `rows` largest coherences of a wide matrix, else None.
    """

    mutual_coherence: float
    index_choices: frozenset
    top_sum: float | None
    pairs: int


def reference_bounds(data: np.ndarray) -> BoundsRef:
    rows, cols = data.shape
    unit = data / np.linalg.norm(data, axis=0)
    vals = np.abs(unit.T @ unit)[np.triu_indices(cols, k=1)]
    vals = np.sort(np.minimum(vals, 1.0))[::-1]
    prefix = np.cumsum(vals)
    choices = set()
    for p in range(1, len(prefix) + 1):
        reaches = prefix[p - 1] >= 1.0 - INDEX_SLACK
        below_before = p == 1 or prefix[p - 2] < 1.0 + INDEX_SLACK
        if reaches and below_before:
            choices.add(p)
        if prefix[p - 1] >= 1.0 + INDEX_SLACK:
            break
    if prefix[-1] < 1.0 + INDEX_SLACK:
        choices.add(None)
    top_sum = float(prefix[min(rows, len(prefix)) - 1]) if rows < cols else None
    return BoundsRef(float(vals[0]), frozenset(choices), top_sum, int(vals.size))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def _index_value(raw) -> int | None:
    return None if raw == "infinity" else raw


def check_bounds(tree: dict, ref: BoundsRef) -> list[str]:
    """Compare a report's coherence facts and both lower bounds to the reference."""
    problems = []
    coh, spk = tree["coherence"], tree["spark"]
    mu = coh["mutual_coherence"]
    if not _close(mu, ref.mutual_coherence):
        problems.append(f"mutual coherence {mu!r} != reference {ref.mutual_coherence!r}")
    index = _index_value(coh["coherence_index"])
    if index not in ref.index_choices:
        problems.append(f"coherence index {index} not in {sorted(ref.index_choices, key=str)}")
    mcb = spk["mutual_coherence_bound"]
    want = None if ref.mutual_coherence == 0.0 else 1.0 + 1.0 / ref.mutual_coherence
    if (mcb is None) != (want is None) or (want is not None and not _close(mcb, want)):
        problems.append(f"mutual-coherence bound {mcb!r} != reference {want!r}")
    cib = _index_value(spk["coherence_index_bound"])
    if cib != (None if index is None else 1 + index):
        problems.append(f"coherence-index bound {cib!r} != 1 + index {index!r}")
    tsum = coh.get("top_coherence_sum")
    if (tsum is None) != (ref.top_sum is None) or (
        ref.top_sum is not None and not _close(tsum, ref.top_sum)
    ):
        problems.append(f"top coherence sum {tsum!r} != reference {ref.top_sum!r}")
    return problems


def check_spark(spk: dict, ref: SparkRef) -> tuple[list[str], bool]:
    """Compare an exact-search outcome to the reference; also return whether it settled.

    A search that stopped at its budget is correct but unsettled, as long
    as it claims no spark. subsets_examined is not compared.
    """
    problems = []
    exact = spk["exact"]
    cib = _index_value(spk["coherence_index_bound"])
    if ref.spark is not None and (cib is None or cib > ref.spark):
        problems.append(f"coherence-index bound {cib!r} exceeds the spark {ref.spark}")
    if spk["search_budget_hit"]:
        if exact is not None:
            problems.append("budget hit but an exact spark was reported")
        return problems, False
    if exact is None:
        problems.append("no exact spark and no budget hit")
        return problems, False
    value = exact.get("value") if exact["kind"] == "finite" else None
    witness = None if spk["witness"] is None else tuple(spk["witness"])
    if value != ref.spark:
        problems.append(f"spark {value} != reference {ref.spark}")
    if witness != ref.witness:
        problems.append(f"witness {witness} != reference {ref.witness}")
    return problems, True


def expected_verdicts(l0: int, spark: SparkRef | None, bounds: BoundsRef) -> frozenset:
    """Verdicts sparkcert's criteria allow for a true solution with support size l0.

    spark is None when the exact search was not run.
    """
    if spark is not None and (spark.spark is None or l0 < spark.spark / 2.0):
        return frozenset({"unique_by_spark"})
    allowed = set()
    for index in bounds.index_choices:
        if index is None or l0 < (1 + index) / 2.0:
            allowed.add("unique_by_coherence_index")
        elif bounds.mutual_coherence > 0 and l0 < (1 + 1 / bounds.mutual_coherence) / 2.0:
            allowed.add("unique_by_mutual_coherence")
        else:
            allowed.add("inconclusive")
    return frozenset(allowed)


def check_certificate(
    cert: dict, l0: int, allowed: frozenset, oracle=None, support: tuple[int, ...] = ()
) -> list[str]:
    """Check a certificate against the expected verdicts and, if given, the oracle.

    A UNIQUE verdict is wrong whenever the oracle finds another solution at
    least as sparse as the candidate.
    """
    problems = []
    verdict = cert["verdict"]
    if cert["l0"] != l0:
        problems.append(f"l0 {cert['l0']} != {l0}")
    if verdict not in allowed:
        problems.append(f"verdict {verdict} not in {sorted(allowed)}")
    if oracle is not None and verdict.startswith("unique"):
        supports = [sol.support for sol in oracle.solutions]
        if oracle.sparsity < l0 or supports != [tuple(support)]:
            problems.append(
                f"verdict {verdict} but the oracle finds supports {supports} "
                f"of size {oracle.sparsity}"
            )
    return problems


_TEXT_KEYS = {
    "mutual coherence": ("coherence", "mutual_coherence", float),
    "coherence index": ("coherence", "coherence_index", int),
    "spark lower bound (mutual coherence)": ("spark", "mutual_coherence_bound", float),
    "spark lower bound (coherence index)": ("spark", "coherence_index_bound", int),
    "candidate support size": ("certificate", "l0", int),
    "verdict": ("certificate", "verdict", str),
}


def text_report_tree(text: str) -> dict:
    """The fields of a text report that the checks read, shaped like the JSON report."""
    tree: dict = {
        "coherence": {"top_coherence_sum": None},
        "spark": {"exact": None, "witness": None, "search_budget_hit": False},
        "certificate": {},
    }
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key.startswith("top-") and key.endswith("coherence sum"):
            tree["coherence"]["top_coherence_sum"] = float(value)
        elif key == "exact spark":
            if value.startswith("not settled"):
                tree["spark"]["search_budget_hit"] = True
            elif value == "infinity":
                tree["spark"]["exact"] = {"kind": "infinite"}
            else:
                tree["spark"]["exact"] = {"kind": "finite", "value": int(value)}
        elif key == "dependent columns":
            tree["spark"]["witness"] = [int(tok) for tok in value.split()]
        elif key in _TEXT_KEYS:
            block, field, cast = _TEXT_KEYS[key]
            tree[block][field] = value if value in ("infinity", "n/a") else cast(value)
    if tree["spark"].get("mutual_coherence_bound") == "n/a":
        tree["spark"]["mutual_coherence_bound"] = None
    return tree
