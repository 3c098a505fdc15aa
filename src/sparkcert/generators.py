"""Deterministic matrix generators used by the CLI and the test suites."""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import InvalidN
from .matrix import DenseMatrix, build_matrix, euclidean_norm, euclidean_norms


def spiked_identity(n: int) -> DenseMatrix:
    """The n x (n+1) benchmark family: identity plus one unit spike column.

    The first n columns are the identity; the last column carries 0.8 in
    row 0 and 0.6/sqrt(n-1) in every other row, so it has exactly unit
    norm. Its spark is n+1 (every proper column subset is independent)
    while the bound from the largest coherence alone stays at 2.25, which
    makes the family a sharp separator between the two lower bounds.
    """
    if n < 2:
        raise InvalidN(f"n must be >= 2, got {n}")
    data = np.zeros((n, n + 1), dtype=np.float64)
    data[:n, :n] = np.eye(n, dtype=np.float64)
    data[0, n] = 0.8
    data[1:, n] = 0.6 / math.sqrt(n - 1)
    return build_matrix(data)


def random_matrix(
    rows: int,
    cols: int,
    seed: int,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> DenseMatrix:
    """Standard-normal matrix from the PCG64 stream for `seed`.

    The generator algorithm is fixed (numpy PCG64 + standard_normal with
    float64 output), so identical seeds give identical matrices on every
    platform. Columns that land below the zero-column tolerance are
    redrawn from the same stream; with normal entries this is a
    probability-zero event in practice but keeps the contract total.
    """
    if rows < 1 or cols < 1:
        raise InvalidN(f"rows and cols must be >= 1, got {rows}x{cols}")
    rng = np.random.Generator(np.random.PCG64(seed))
    data = rng.standard_normal((rows, cols))
    for j, norm in enumerate(euclidean_norms(data)):
        while norm <= tolerances.zero_column_tol:
            data[:, j] = rng.standard_normal(rows)
            norm = euclidean_norm(data[:, j])
    return build_matrix(data, tolerances)
