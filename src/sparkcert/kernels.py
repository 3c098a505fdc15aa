"""The subset-scan kernel behind the exhaustive spark search.

`scan_chunk` walks a run of fixed-size column subsets in lexicographic
order and reports the first rank-deficient one. It works in batches of
consecutive subsets, so Python-level work is done per batch rather than
per subset, and each batch is decided in one of two ways:

1. Cholesky first. The batch's unit-diagonal Gram minors G_S are gathered
   from the unit Gram matrix and one stacked `np.linalg.cholesky` runs on
   G_S - delta*I, delta = CHOLESKY_SHIFT * size. If it succeeds, every
   subset in the batch is independent and the batch is done.
2. SVD otherwise. If any minor fails, the batch's columns are gathered
   into one (batch, rows, size) array and one stacked `np.linalg.svd`
   decides every subset: it is rank deficient when fewer than `size` of
   its singular values exceed tol_factor * sigma_max * max(rows, size).

A pass can never contradict the SVD. A Cholesky that succeeds on
G_S - delta*I proves lambda_min(G_S) >= delta up to O((rows + size) *
size * eps), by its backward stability (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 10), and lambda_max(G_S) <= trace = size, so
sigma_min / sigma_max of the unit columns is at least about
sqrt(CHOLESKY_SHIFT) = 1e-4. The SVD cutoff is tol_factor * max(rows,
size) times sigma_max, eps * dim at the default tolerance, so the SVD
would call every subset of the batch independent too. A tolerance coarse
enough that tol_factor * dim >= PROVEN_RATIO (5e-5) sends every batch to
the SVD. The decisions, witness and subset counts are therefore those of
the SVD alone.

The LAPACK work runs inside the stacked numpy calls, which release the
GIL, so the chunked scan in the spark module can thread over the kernel.
A batch is capped at GATHER_BYTES of gathered column data. Larger
batches run no faster, because the small factorizations dominate, but
each one adds its gather buffer and temporaries to the process's peak
resident set.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import chain, combinations, islice

import numpy as np

# Bytes of column data gathered per stacked SVD call; the Cholesky of the
# same batch gathers size x size minors, no larger when size <= rows.
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


def unrank_combination(cols: int, size: int, rank: int) -> tuple[int, ...]:
    """The rank-th (0-based) size-subset of {0..cols-1} in lexicographic order."""
    if not 0 <= rank < math.comb(cols, size):
        raise ValueError(f"rank {rank} outside [0, C({cols},{size}))")
    idx = []
    x = 0
    for j in range(size):
        while math.comb(cols - 1 - x, size - 1 - j) <= rank:
            rank -= math.comb(cols - 1 - x, size - 1 - j)
            x += 1
        idx.append(x)
        x += 1
    return tuple(idx)


def _subsets_from(start: tuple[int, ...], cols: int) -> Iterator[tuple[int, ...]]:
    """`start` and every later subset of the same size, in lexicographic order.

    After `start` come the subsets that keep start[:p] and raise position
    p, for p from the last position down to the first; those are exactly
    start[:p] followed by each (size-p)-subset of {start[p]+1..cols-1}.
    """
    size = len(start)
    return chain(
        (start,),
        *(
            map(start[:p].__add__, combinations(range(start[p] + 1, cols), size - p))
            for p in reversed(range(size))
        ),
    )


def scan_chunk(
    data: np.ndarray,
    gram: np.ndarray,
    start: Sequence[int],
    count: int,
    tol_factor: float,
) -> tuple[int, tuple[int, ...] | None]:
    """Test `count` subsets from `start` on, in lexicographic order.

    `data` holds unit-norm columns and `gram` is their unit Gram matrix
    (`matrix.unit_gram(data)`). A subset is rank deficient when fewer than
    `size` of its singular values exceed tol_factor * sigma_max *
    max(rows, size); a batch whose shifted Gram minors all pass a Cholesky
    holds none (see the module docstring). Returns (position, indices) of
    the first rank-deficient subset, or (-1, None) if there is none in the
    run. `count` must not run past the last subset.
    """
    rows, cols = data.shape
    size = len(start)
    dim = max(rows, size)
    prove = tol_factor * dim < PROVEN_RATIO
    shift = CHOLESKY_SHIFT * size
    per_batch = max(1, GATHER_BYTES // (rows * size * data.itemsize))
    subsets = _subsets_from(tuple(int(i) for i in start), cols)
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
            try:
                np.linalg.cholesky(minors)
            except np.linalg.LinAlgError:
                pass
            else:
                done += batch
                continue
        s = np.linalg.svd(np.moveaxis(data[:, idx], 0, 1), compute_uv=False)
        cutoff = tol_factor * s[:, :1] * dim
        dependent = np.count_nonzero(s > cutoff, axis=1) < size
        if dependent.any():
            first = int(np.argmax(dependent))
            return done + first, tuple(int(i) for i in idx[first])
        done += batch
    return -1, None
