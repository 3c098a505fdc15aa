"""The subset-scan kernel behind the exhaustive spark search.

`scan_chunk` walks a run of fixed-size column subsets in lexicographic
order and reports the first rank-deficient one. It works in batches: it
gathers consecutive subsets into one (batch, rows, size) array and
computes their singular values with one stacked `np.linalg.svd` call, so
Python-level work is done per batch rather than per subset. The LAPACK
work runs inside that one numpy call, which releases the GIL, so the
chunked scan in the spark module can thread over the kernel.

A batch is capped at GATHER_BYTES of gathered column data. Larger
batches run no faster, because the small SVDs dominate, but each one
adds its gather buffer and temporaries to the process's peak resident
set.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import chain, combinations, islice

import numpy as np

# Bytes of column data gathered per stacked SVD call.
GATHER_BYTES = 64 * 1024


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
    data: np.ndarray, start: Sequence[int], count: int, tol_factor: float
) -> tuple[int, tuple[int, ...] | None]:
    """Test `count` subsets from `start` on, in lexicographic order.

    A subset is rank deficient when fewer than `size` of its singular
    values exceed tol_factor * sigma_max * max(rows, size). Returns
    (position, indices) of the first rank-deficient subset, or (-1, None)
    if there is none in the run. `count` must not run past the last subset.
    """
    rows, cols = data.shape
    size = len(start)
    dim = max(rows, size)
    per_batch = max(1, GATHER_BYTES // (rows * size * data.itemsize))
    subsets = _subsets_from(tuple(int(i) for i in start), cols)
    done = 0
    while done < count:
        batch = min(per_batch, count - done)
        flat = np.fromiter(
            chain.from_iterable(islice(subsets, batch)), dtype=np.intp, count=batch * size
        )
        idx = flat.reshape(batch, size)
        s = np.linalg.svd(np.moveaxis(data[:, idx], 0, 1), compute_uv=False)
        cutoff = tol_factor * s[:, :1] * dim
        dependent = np.count_nonzero(s > cutoff, axis=1) < size
        if dependent.any():
            first = int(np.argmax(dependent))
            return done + first, tuple(int(i) for i in idx[first])
        done += batch
    return -1, None
