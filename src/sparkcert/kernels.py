"""The subset-scan kernel behind the exhaustive spark search.

`scan_chunk` walks the first subsets of one size in lexicographic order
and reports the first rank-deficient one. It works in batches of
consecutive subsets, so Python-level work is done per batch rather than
per subset, and each batch is decided in two steps:

1. Cholesky first. The batch's unit-diagonal Gram minors G_S are gathered
   from the unit Gram matrix, which each call builds from `data`, and one
   stacked `np.linalg.cholesky` runs on G_S - delta*I, delta =
   CHOLESKY_SHIFT * size. If it succeeds, every subset in the batch is
   independent and the batch is done. If it fails, the batch is split in
   halves and the Cholesky retried on each, left half first, down to
   spans of CHOLESKY_LEAF subsets.
2. SVD on what is left. Only the spans that still fail have their columns
   gathered into one (span, rows, size) array, and one stacked
   `np.linalg.svd` decides every subset of the span: it is rank deficient
   when fewer than `size` of its singular values exceed tol_factor *
   sigma_max * max(rows, size).

A pass can never contradict the SVD. A Cholesky that succeeds on
G_S - delta*I proves lambda_min(G_S) >= delta up to O((rows + size) *
size * eps), by its backward stability (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 10), and lambda_max(G_S) <= trace = size, so
sigma_min / sigma_max of the unit columns is at least about
sqrt(CHOLESKY_SHIFT) = 1e-4. The SVD cutoff is tol_factor * max(rows,
size) times sigma_max, eps * dim at the default tolerance, so the SVD
would call every subset of a passing span independent too. A tolerance
coarse enough that tol_factor * dim >= PROVEN_RATIO (5e-5) sends every
batch to the SVD whole. Spans are tried left to right, so the first
dependent subset found is the first in the batch. The decisions, witness
and subset counts are therefore those of the SVD alone.

A batch is capped at GATHER_BYTES of gathered data, max(rows, size) *
size floats per subset, which bounds both its columns and its Gram
minors. Larger batches run no faster, because the small factorizations
dominate, but each one adds its gather buffer and temporaries to the
process's peak resident set. Decisions do not depend on the batching.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import chain, combinations, islice

import numpy as np

from .matrix import singular_rank, unit_gram

# Bytes per batch of the larger of its two gathers: rows x size columns
# for the stacked SVD, size x size Gram minors for the Cholesky.
GATHER_BYTES = 64 * 1024

# The Cholesky runs on G_S - CHOLESKY_SHIFT * size * I. A pass proves
# lambda_min(G_S) >= 1e-8 * size (less rounding of O((rows + size) * size
# * eps), far smaller for any matrix that fits in memory) against
# lambda_max <= trace = size: sigma_min / sigma_max >= sqrt(1e-8) = 1e-4.
CHOLESKY_SHIFT = 1e-8

# The ratio a pass proves, with a factor 2 for rounding in the
# factorization and in the SVD's own singular values; the filter runs only
# while the SVD cutoff ratio tol_factor * dim stays below it.
PROVEN_RATIO = 0.5 * math.sqrt(CHOLESKY_SHIFT)

# A batch whose Cholesky fails is split in halves down to spans of this
# many subsets; only spans that still fail reach the stacked SVD.
CHOLESKY_LEAF = 8


def scan_chunk(
    data: np.ndarray,
    size: int,
    count: int,
    tol_factor: float,
) -> tuple[int, tuple[int, ...] | None]:
    """Test the first `count` subsets of `size` columns, in lexicographic order.

    `data` holds unit-norm columns. A subset is rank deficient when fewer
    than `size` of its singular values exceed tol_factor * sigma_max *
    max(rows, size); a batch whose shifted Gram minors all pass a Cholesky
    holds none (see the module docstring). The minors come from the unit
    Gram matrix of `data`, built on each call that runs the Cholesky
    filter, so they cannot fall out of step with the columns. Returns
    (position, indices) of the first rank-deficient subset, or (-1, None)
    if there is none in the run. `count` must not run past the last
    subset.
    """
    rows, cols = data.shape
    dim = max(rows, size)
    prove = tol_factor * dim < PROVEN_RATIO
    shift = CHOLESKY_SHIFT * size
    per_batch = max(1, GATHER_BYTES // (dim * size * data.itemsize))
    gram = unit_gram(data) if prove else None
    subsets = combinations(range(cols), size)
    done = 0
    while done < count:
        batch = min(per_batch, count - done)
        flat = np.fromiter(
            chain.from_iterable(islice(subsets, batch)), dtype=np.intp, count=batch * size
        )
        idx = flat.reshape(batch, size)
        if prove:
            minors = gram[idx[:, :, None], idx[:, None, :]]
            minors.reshape(batch, size * size)[:, :: size + 1] -= shift
            spans = _unsettled(minors, 0, batch)
        else:
            spans = ((0, batch),)
        for lo, hi in spans:
            s = np.linalg.svd(np.moveaxis(data[:, idx[lo:hi]], 0, 1), compute_uv=False)
            dependent = singular_rank(s, tol_factor, dim) < size
            if dependent.any():
                first = lo + int(np.argmax(dependent))
                return done + first, tuple(int(i) for i in idx[first])
        done += batch
    return -1, None


def _unsettled(minors: np.ndarray, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """The spans of minors[lo:hi] the Cholesky cannot settle, left to right.

    A span whose stacked Cholesky passes holds no dependent subset. One
    that fails is split in halves, left half first, down to CHOLESKY_LEAF
    subsets; a leaf that still fails is yielded for the SVD. The spans come
    lazily and in order, so the first dependent subset in the first span
    that holds one is the first in the batch.
    """
    try:
        np.linalg.cholesky(minors[lo:hi])
    except np.linalg.LinAlgError:
        if hi - lo <= CHOLESKY_LEAF:
            yield lo, hi
        else:
            mid = (lo + hi) // 2
            yield from _unsettled(minors, lo, mid)
            yield from _unsettled(minors, mid, hi)
