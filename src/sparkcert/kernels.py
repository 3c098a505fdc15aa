"""The subset-scan kernel behind the exhaustive spark search.

`scan_chunk` walks the first subsets of one size in lexicographic order
and reports the first rank-deficient one. Each subset is decided in two
steps:

1. A Cholesky filter. A Cholesky factorization of G_S - delta*I, with
   G_S the subset's unit-diagonal Gram minor (from the unit Gram matrix,
   which each call builds from `data`) and delta = shift * size, passes
   when every pivot is positive. Each subset gets its own pass bit. A
   subset that passes is independent; the others go on to step 2.
2. SVD on what is left. The columns of the subsets that fail are gathered
   into one (span, rows, size) array, in order, and one stacked
   `np.linalg.svd` decides each of them: it is rank deficient when fewer
   than `size` of its singular values exceed tol_factor * sigma_max *
   max(rows, size).

There are two Cholesky filters, chosen by shape alone. In lexicographic
order the subsets of one size come in runs that share their first size - 1
columns, a prefix P, and end in every column j after it; a run holds
cols - 1 - P[-1] subsets, about cols / size on average.

- The prefix filter, when cols >= RUN_RATIO * size (runs are long). It
  takes the prefixes in order, combinations(range(cols - 1), size - 1),
  and runs the Cholesky recurrences of G_P - delta*I in numpy across a
  batch of them, one step per prefix column, carrying the rows
  W = L^-1 (G - delta*I)[P, :] over all columns. A prefix passes when its
  size - 1 pivots are positive, and the extension j by its last pivot,
  (1 - delta) - |W[:, j]|^2. A subset's pass bit is both.
- The subset filter, otherwise: the full-rank and null-vector proofs,
  whose runs hold one or two subsets, and sizes near cols. LAPACK's
  stacked Cholesky factors a batch of consecutive subsets' minors in one
  call, and fills each minor it cannot factor with NaN: a subset's pass
  bit is a number in the last entry of its factor.

Both are Cholesky factorizations of the same G_S - delta*I. Row by row,
the prefix filter computes l_tt = sqrt(a_tt - sum_s l_ts^2) and
l_jt = (a_jt - sum_s l_js l_ts) / l_tt, the recurrences LAPACK runs, in
another order; the last pivot is a_jj - sum_t l_jt^2. Backward stability
holds for any order of the inner products (Higham, Accuracy and Stability
of Numerical Algorithms, Thm 10.3), so a factorization whose pivots are
all positive proves lambda_min(G_S) >= delta up to O((rows + size) *
size * eps), and lambda_max(G_S) <= trace = size: sigma_min / sigma_max
of the unit columns is at least about sqrt(shift). The shift is set by
the tolerance: with r = 2 * tol_factor * max(rows, size), shift =
min(1, max(CHOLESKY_SHIFT, r^2)), so a pass proves a ratio of at least
r, twice the SVD cutoff ratio tol_factor * max(rows, size) (the factor 2
covers rounding in the factorization and in the SVD's own singular
values), and at least sqrt(CHOLESKY_SHIFT) = 1e-4, ten orders of
magnitude above the default cutoff eps * max(rows, size). The SVD would
call every passing subset independent too. A tolerance with r >= 1 sets
shift = 1, whose first pivot 1 - size is not positive: nothing passes,
and every subset goes to the SVD. A pivot that overflows or is not a
number fails, and its subset goes to the SVD. Subsets reach the SVD in
order, so the first dependent one found is the first in the scan. The
decisions, witness and subset counts are therefore those of the SVD
alone.

A batch has two caps, one per kind of work. GATHER_BYTES (64 KiB) caps
the subset filter and the SVD at max(rows, size) * size floats per
subset, which bounds both its columns and its Gram minors. Larger
batches run them no faster, because the small factorizations dominate,
and a probe that fails early pays only a small first batch. PREFIX_BYTES
(1 MiB) caps the prefix filter at (size - 1) * cols floats per prefix,
the rows W it carries. Its numpy calls cost per batch whatever the batch
holds, so it gains from larger batches until W and its temporaries
outgrow a core's L2 cache (2 MiB per core on the machine it was sized
on). Every batch adds its buffers to the process's peak resident set.
Decisions do not depend on the batching.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import chain, combinations, islice

import numpy as np
from numpy.linalg import _umath_linalg

from .matrix import singular_rank, unit_gram

# Bytes per batch of its largest gather: rows x size columns for the
# stacked SVD and size x size Gram minors for the subset filter.
GATHER_BYTES = 64 * 1024

# Bytes per batch of the prefix filter's rows W, (size - 1) x cols floats
# per prefix. On 2 vCPUs with 2 MiB of L2 each (OpenBLAS on one thread),
# in-process CPU for one cycle of the benchmark's exact searches took
# 25.1-25.9 ms at 64 KiB, 19.5-20.1 ms at 512 KiB, 18.9-20.0 ms at 1 MiB
# and 20.9-21.5 ms at 2 MiB, where a planted 7x18 factors prefixes well
# past its witness. Full scans at size = rows, 3x40 to 8x24, took 0.12-0.94
# us per subset at 1 MiB against 0.22-2.3 us at 64 KiB.
PREFIX_BYTES = 1024 * 1024

# The floor of the Cholesky filter's shift: at a fine tolerance a pass
# proves lambda_min(G_S) >= 1e-8 * size (less rounding of O((rows + size)
# * size * eps), far smaller for any matrix that fits in memory) against
# lambda_max <= trace = size: sigma_min / sigma_max >= sqrt(1e-8) = 1e-4.
CHOLESKY_SHIFT = 1e-8

# The prefix filter runs when cols >= RUN_RATIO * size, where a prefix's
# run averages about cols / size >= RUN_RATIO subsets. Scanning up to
# 200,000 subsets of size = rows, it took 0.42-0.88 of the subset
# filter's time at cols / size = 3 (sizes 4 to 14), 0.37-1.00 at 2.4-2.8
# and 0.92-1.59 at 2.
RUN_RATIO = 3


def scan_chunk(
    data: np.ndarray,
    size: int,
    count: int,
    tol_factor: float,
) -> tuple[int, tuple[int, ...] | None]:
    """Test the first `count` subsets of `size` columns, in lexicographic order.

    `data` holds unit-norm columns. A subset is rank deficient when fewer
    than `size` of its singular values exceed tol_factor * sigma_max *
    max(rows, size); a subset whose shifted Gram minor passes a Cholesky
    factorization is not (see the module docstring). The minors come from
    the unit Gram matrix of `data`, built on each call, so they cannot
    fall out of step with the columns. Returns (position, indices) of the
    first rank-deficient subset, or (-1, None) if there is none in the
    run. Raises ValueError when `count` runs past the last subset.
    """
    rows, cols = data.shape
    if count > math.comb(cols, size):
        raise ValueError(f"count {count} exceeds the C({cols}, {size}) subsets")
    dim = max(rows, size)
    per_batch = max(1, GATHER_BYTES // (dim * size * data.itemsize))
    # r * r, not r ** 2, which raises OverflowError for a huge float
    r = 2 * tol_factor * dim
    delta = min(1.0, max(CHOLESKY_SHIFT, r * r)) * size
    cholesky_filter = _prefix_failures if cols >= RUN_RATIO * size else _subset_failures
    for positions, idx in cholesky_filter(unit_gram(data), size, count, per_batch, delta):
        s = np.linalg.svd(np.moveaxis(data[:, idx], 0, 1), compute_uv=False)
        dependent = singular_rank(s, tol_factor, dim) < size
        if dependent.any():
            first = int(np.argmax(dependent))
            return int(positions[first]), tuple(int(i) for i in idx[first])
    return -1, None


def _cholesky_passes(minors: np.ndarray) -> np.ndarray:
    """One pass bit per minor of a (batch, size, size) stack: it has a Cholesky factor.

    The call is the LAPACK gufunc that np.linalg.cholesky wraps, which
    fills a minor it cannot factor with NaN where np.linalg.cholesky
    raises for the whole stack.
    """
    with np.errstate(all="ignore"):
        lower = _umath_linalg.cholesky_lo(minors, signature="d->d")
    return ~np.isnan(lower[:, -1, -1])


def _subset_failures(
    gram: np.ndarray, size: int, count: int, per_batch: int, delta: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(positions, indices) of the subsets the subset filter fails, in order.

    Batches of per_batch consecutive subsets are gathered and their
    shifted minors factored in one stacked call.
    """
    subsets = combinations(range(gram.shape[0]), size)
    done = 0
    while done < count:
        batch = min(per_batch, count - done)
        flat = np.fromiter(
            chain.from_iterable(islice(subsets, batch)), dtype=np.intp, count=batch * size
        )
        idx = flat.reshape(batch, size)
        minors = gram[idx[:, :, None], idx[:, None, :]]
        minors.reshape(batch, size * size)[:, :: size + 1] -= delta
        failing = np.flatnonzero(~_cholesky_passes(minors))
        if failing.size:
            yield done + failing, idx[failing]
        done += batch


def _prefix_failures(
    gram: np.ndarray, size: int, count: int, per_batch: int, delta: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(positions, indices) of the subsets the prefix filter fails, in order.

    Each batch of prefixes carries its rows W in one (size - 1, prefixes,
    cols) array, which starts as their rows of the Gram matrix and is
    overwritten step by step; the failures go out in spans of at most
    per_batch subsets.
    """
    cols = gram.shape[0]
    steps = size - 1
    pivot = 1.0 - delta
    per_prefixes = max(1, PREFIX_BYTES // (max(steps, 1) * cols * gram.itemsize))
    prefixes = combinations(range(cols - 1), steps)
    left = math.comb(cols - 1, steps)
    done = 0
    while done < count:
        # every prefix has at least one extension
        batch = min(per_prefixes, left, count - done)
        left -= batch
        pre = np.fromiter(
            chain.from_iterable(islice(prefixes, batch)), dtype=np.intp, count=batch * steps
        ).reshape(batch, steps)
        # w[t] is row t of W for every prefix of the batch
        w = gram[pre.T]
        ok = np.ones(batch, dtype=bool)
        each = np.arange(batch)
        with np.errstate(all="ignore"):
            for t in range(steps):
                # l_ts = W[s, P[t]] for s < t
                lt = w[:t, each, pre[:, t]]
                d = pivot - np.einsum("sb,sb->b", lt, lt)
                ok &= d > 0.0
                w[t] -= np.einsum("sb,sbc->bc", lt, w[:t])
                w[t] /= np.sqrt(d)[:, None]
            passed = pivot - np.einsum("sbc,sbc->bc", w, w) > 0.0
        # the run of prefix b holds its extensions P[-1] + 1, ..., cols - 1,
        # so the subsets of the batch are the entries of `passed` right of
        # P[-1], in row-major order
        tail = pre[:, -1] if steps else np.full(batch, -1)
        lengths = cols - 1 - tail
        n = min(int(lengths.sum()), count - done)
        failing = (np.arange(cols) > tail[:, None]) & ~(passed & ok[:, None])
        if failing.any():
            owner, ext = np.nonzero(failing)
            positions = (np.cumsum(lengths) - lengths - tail - 1)[owner] + ext
            failed = np.searchsorted(positions, n)
            for lo in range(0, failed, per_batch):
                hi = min(lo + per_batch, failed)
                idx = np.concatenate((pre[owner[lo:hi]], ext[lo:hi, None]), axis=1)
                yield done + positions[lo:hi], idx
        done += n
