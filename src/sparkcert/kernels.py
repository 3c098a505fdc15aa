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
  a batch of whole runs at a time. It factors each prefix's own block
  G_PP - delta*I once, by the Cholesky recurrences in numpy across the
  batch, one step per prefix column. It lays the batch's subsets out flat,
  in order, each run holding only the columns j after its prefix, and
  takes each subset's rows g = G[P, j] through the same steps: forward
  substitution gives l = L_PP^-1 g, and the last pivot is
  (1 - delta) - |l|^2. A prefix pivot that is not positive leaves l_tt
  zero or NaN, so every l of its run holds an infinity or a NaN and its
  last pivot fails: the last pivot alone is a subset's pass bit.
- The subset filter, otherwise: the full-rank and null-vector proofs,
  whose runs hold one or two subsets, and sizes near cols. LAPACK's
  stacked Cholesky factors a batch of consecutive subsets' minors in one
  call, and fills each minor it cannot factor with NaN: a subset's pass
  bit is a number in the last entry of its factor.

Both are Cholesky factorizations of the same G_S - delta*I. Row by row,
the prefix filter computes l_tt = sqrt(a_tt - sum_s l_ts^2) and
l_jt = (a_jt - sum_s l_js l_ts) / l_tt, the recurrences LAPACK runs, in
another order: the block of the prefix once, then the row of each
extension j; the last pivot is a_jj - sum_t l_jt^2. Backward stability
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
(1 MiB) caps the prefix filter's batch of whole runs (at least one) at
(size - 1) * (size + 2) / 2 floats per subset, its work rows (the rows g
and the rows of L_PP it takes from its prefix), and at (size - 1)^2
floats per prefix, the blocks it factors. Its numpy calls cost per batch
whatever the batch holds, so it gains from larger batches until the work
rows outgrow a core's L2 cache (2 MiB per core on the machine it was
sized on). A probe that fails early still factors its whole first batch.
The work rows live in one array per thread, kept between calls; every
other buffer of a batch adds to the process's peak resident set.
Decisions do not depend on the batching.

Each filter comes in two parts, a plan and the arithmetic. The plan is
the index arrays of its batches, and depends on the shape and the cap
alone: for the subset filter, the offsets in the flat Gram matrix of
each subset's minor; for the prefix filter, the prefix of each subset,
the offsets of the rows g of each subset, and those of the blocks G_PP
of each prefix. Its builder takes the subsets and prefixes from
itertools.combinations and lays out the batches above. The arithmetic
reads the Gram matrix through the plan, factors, and reads the columns
of the subsets it fails back from their offsets. Plans stay in one
cache, `_plans`, by builder and every argument of the builder: cols,
size, count, the cap in subsets (from GATHER_BYTES or PREFIX_BYTES) and
the index type. It holds at most PLAN_BYTES (4 MiB), each plan counted
at its bound, and drops the least recently used first; a larger plan
comes from its builder batch by batch and is not kept. Each batch of a
kept plan is built on first use, once, so a scan that stops early builds
no more of it than before. The arrays are read-only, take the smallest
unsigned type that holds their indices (2 bytes below 256 columns) and
hold no data: each call builds the Gram matrix from `data` and reads it
through the same indices a fresh plan would hold, so a kept plan cannot
fall out of step with the data, and the decisions, witness and subset
counts are those of a fresh plan. A process that scans many matrices of
one shape builds each plan once.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterator
from functools import partial
from itertools import chain, combinations, islice

import numpy as np
from numpy.linalg import _umath_linalg

from .matrix import singular_rank, unit_gram

# Bytes per batch of its largest gather: rows x size columns for the
# stacked SVD and size x size Gram minors for the subset filter.
GATHER_BYTES = 64 * 1024

# Bytes per batch of the prefix filter's work rows, (size - 1) * (size + 2)
# / 2 floats per subset (and of its blocks, (size - 1)^2 floats per
# prefix). On 2 vCPUs with 2 MiB of L2 each, full scans at size = rows
# took 0.171, 0.419, 0.092, 0.149 and 0.576 us per subset at 1 MiB (6x26,
# 7x21, 4x40, 5x30, 8x24) against 0.101-0.784 at 512 KiB, slower on each,
# and 0.091-0.477 at 2 MiB, slower on 6x26 and faster on the others, by up
# to 17%. Every prefix-filter call of the benchmark's exact searches fits
# one batch at 1 MiB.
PREFIX_BYTES = 1024 * 1024

# The floor of the Cholesky filter's shift: at a fine tolerance a pass
# proves lambda_min(G_S) >= 1e-8 * size (less rounding of O((rows + size)
# * size * eps), far smaller for any matrix that fits in memory) against
# lambda_max <= trace = size: sigma_min / sigma_max >= sqrt(1e-8) = 1e-4.
CHOLESKY_SHIFT = 1e-8

# The prefix filter runs when cols >= RUN_RATIO * size, where a prefix's
# run averages about cols / size >= RUN_RATIO subsets. On full scans of
# size = rows it took 0.21-0.66 of the subset filter's time per subset at
# cols / size = 3-3.5 (sizes 4 to 7), 0.24-0.68 at 2-2.8 (sizes 4 to 10),
# 0.69-1.17 at 1.5 and 1.09-1.93 at 1.33 (sizes 8 to 15), and 2.2-4.3 on
# scans of under 100 subsets. A lower ratio loses where a probe fails
# early: at 2, the failing size-7 probe of a planted 7x18 factors its
# whole first batch of 31,824 subsets, and exact_spark on it took 5.1-5.4
# ms against 3.1-3.2 ms at 3.
RUN_RATIO = 3

# Bytes of the plans that _plans keeps, each counted at its bound. The
# benchmark's exact searches keep 10 plans: 0.52 MB of arrays, counted at
# 3.6 MB, 3.1 MB of it the plan of planted 7x18's failing size-7 probe,
# which builds the first of its 191 batches.
PLAN_BYTES = 4 * 1024 * 1024

# The prefix filter's work array, one per thread, kept between calls and
# grown to the largest batch. A fresh array per batch goes back to the
# system when the C allocator trims the top of its heap, and the next call
# faults its pages in again: about 300 minor faults, and 0.3-0.4 ms of a
# 0.8 ms call, on a full size-4 scan of 4x24 in a long-lived process.
_work = threading.local()


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
    the unit Gram matrix of `data`, built on each call, through index
    arrays that depend on the shape alone, so they cannot fall out of
    step with the columns. Returns (position, indices) of the
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

    Batches of per_batch consecutive subsets come from the plan
    (`_subset_plan`), and their shifted minors are factored in one
    stacked call.
    """
    cols = gram.shape[0]
    entries = gram.ravel()
    index = np.min_scalar_type(cols * cols - 1)
    # the plan holds size^2 offsets per subset
    nbytes = count * size * size * index.itemsize
    done = 0
    for (flat,) in _plans.batches(nbytes, _subset_plan, cols, size, count, per_batch, index):
        minors = np.take(entries, flat)
        minors.reshape(len(flat), size * size)[:, :: size + 1] -= delta
        failing = np.flatnonzero(~_cholesky_passes(minors))
        if failing.size:
            # row a of a minor starts at the offset of G[S[a], S[0]]
            yield done + failing, flat[failing, :, 0] // cols
        done += len(flat)


def _subset_plan(
    cols: int, size: int, count: int, per_batch: int, index: np.dtype
) -> Iterator[tuple[np.ndarray]]:
    """The subset filter's batches of per_batch subsets: the Gram offsets of their minors.

    Entry [k, a, b] of a batch's (batch, size, size) array is the offset
    of G[S[a], S[b]] in the flat Gram matrix, for its k-th subset S.
    """
    subsets = combinations(range(cols), size)
    done = 0
    while done < count:
        batch = min(per_batch, count - done)
        idx = np.fromiter(
            chain.from_iterable(islice(subsets, batch)), dtype=index, count=batch * size
        ).reshape(batch, size)
        yield (idx[:, :, None] * cols + idx[:, None, :],)
        done += batch


def _prefix_failures(
    gram: np.ndarray, size: int, count: int, per_batch: int, delta: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(positions, indices) of the subsets the prefix filter fails, in order.

    Batches of whole runs come from the plan (`_prefix_plan`). The blocks
    G_PP - delta*I of a batch are factored once, in one (size - 1,
    size - 1, prefixes) array that starts as the blocks and is overwritten
    step by step. The subsets are laid out flat, in order, in this
    thread's work array: the rows g = G[P, j] of each go through the same
    steps, to l = L_PP^-1 g and the last pivot (1 - delta) - |l|^2. The
    failures go out in spans of at most per_batch subsets, at their flat
    positions; nothing of the work array is read after a yield.
    """
    cols = gram.shape[0]
    steps = size - 1
    pivot = 1.0 - delta
    entries = gram.ravel()
    rows = steps * (steps + 3) // 2
    per_subsets = max(1, PREFIX_BYTES // (max(rows, 1) * gram.itemsize))
    index = np.min_scalar_type(max(cols * cols, per_subsets) - 1)
    # the plan holds size + 1 indices per subset and (size - 1)^2 per
    # prefix, and a subset has one prefix
    prefixes = min(count, math.comb(cols - 1, steps))
    nbytes = (count * (size + 1) + prefixes * steps * steps) * index.itemsize
    done = 0
    for owner, gidx, widx in _plans.batches(
        nbytes, _prefix_plan, cols, size, count, per_subsets, index
    ):
        n = len(owner)
        # w[t, c] holds G[P[t], P[c]] for every prefix of the batch; row t
        # right of the diagonal becomes row t of L^-1 (G_PP - delta*I) =
        # L_PP^T and the diagonal l_tt, so w[:t + 1, t] is row t of L_PP
        w = np.take(entries, widx)
        # this thread's work array (see _work), grown to the batch
        buffer = getattr(_work, "buffer", None)
        if buffer is None or buffer.size < rows * n:
            buffer = _work.buffer = np.empty(rows * n)
        work = buffer[: rows * n].reshape(rows, n)
        x, lower = work[:steps], work[steps:]
        with np.errstate(all="ignore"):
            for t in range(steps):
                # l_ts for s < t
                lt = w[:t, t]
                w[t, t] = np.sqrt(pivot - np.einsum("sb,sb->b", lt, lt))
                w[t, t + 1 :] -= np.einsum("sb,scb->cb", lt, w[:t, t + 1 :])
                w[t, t + 1 :] /= w[t, t]
            # the work rows of every subset: the rows of L_PP, taken from
            # its prefix, and g = G[P, j]. mode="wrap" writes straight into
            # the work array (the indices are all valid)
            np.take(
                w.transpose(1, 0, 2)[np.tri(steps, dtype=bool)], owner, axis=1, out=lower,
                mode="wrap",
            )
            np.take(entries, gidx[:steps], out=x, mode="wrap")
            # row t of x becomes row t of l = L_PP^-1 g
            for t in range(steps):
                row = lower[t * (t + 1) // 2 : (t + 1) * (t + 2) // 2]
                x[t] -= np.einsum("sn,sn->n", row[:t], x[:t])
                x[t] /= row[t]
            passed = pivot - np.einsum("sn,sn->n", x, x) > 0.0
        failing = np.flatnonzero(~passed)
        for lo in range(0, failing.size, per_batch):
            f = failing[lo : lo + per_batch]
            # row t of gidx holds the offsets of G[S[t], j]
            yield done + f, gidx[:, f].T // cols
        done += n


def _prefix_plan(
    cols: int, size: int, count: int, per_subsets: int, index: np.dtype
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The prefix filter's batches of whole runs: (owner, gidx, widx) of each.

    A batch takes whole runs, at least one and no more than `count` needs,
    at most per_subsets subsets and per_subsets // (size - 1) prefixes.
    Its k-th subset S is its prefix P = S[:-1], the owner[k]-th of the
    batch, and a column j after it. gidx[t, k] is the offset of G[S[t], j]
    in the flat Gram matrix, and widx[s, c, p] that of G[P[s], P[c]] for
    the p-th prefix P of the batch.
    """
    steps = size - 1
    per_prefixes = max(1, per_subsets // max(steps, 1))
    prefixes = combinations(range(cols - 1), steps)
    left = math.comb(cols - 1, steps)
    # prefixes taken from `prefixes` but not yet planned, and their runs
    pending = np.empty((0, steps), dtype=np.intp)
    runs = np.empty(0, dtype=np.intp)
    done = 0
    while done < count:
        want = min(per_subsets, count - done)
        if runs.sum() < want and left:
            # every run holds at least one subset, so `want` prefixes do
            take = min(left, want - len(pending))
            left -= take
            taken = np.fromiter(
                chain.from_iterable(islice(prefixes, take)), dtype=np.intp, count=take * steps
            )
            pending = np.concatenate((pending, taken.reshape(take, steps)))
            # the run of prefix P holds its extensions P[-1] + 1, ..., cols - 1
            runs = cols - 1 - (pending[:, -1] if steps else np.full(len(pending), -1))
        ends = np.cumsum(runs)
        batch = max(1, min(
            int(np.searchsorted(ends, per_subsets, side="right")),
            per_prefixes,
            int(np.searchsorted(ends, count - done)) + 1,
        ))
        pre, pending = pending[:batch], pending[batch:]
        run, runs = runs[:batch].copy(), runs[batch:]
        ends = ends[:batch]
        n = min(int(ends[-1]), count - done)
        run[-1] -= ends[-1] - n
        # in C order: the gathers run several times slower on the
        # transposed view
        columns = np.ascontiguousarray(pre.T, dtype=index)
        owner = np.repeat(np.arange(batch, dtype=index), run)
        # the column j of each subset
        ext = np.repeat(cols - ends, run)
        ext += np.arange(n)
        ext = ext.astype(index)
        gidx = np.empty((size, n), dtype=index)
        np.take(columns, owner, axis=1, out=gidx[:steps])
        gidx[steps] = ext
        gidx *= cols
        gidx += ext
        yield owner, gidx, columns[:, None, :] * cols + columns
        done += n


class _Plan:
    """The batches of one plan, each built once, on first use, and kept.

    One thread at a time takes a batch from the builder. A builder that
    raises (an interrupt, a MemoryError) is replaced by a fresh one past
    the batches kept, so the plan never ends early.
    """

    def __init__(self, build: Callable[[], Iterator[tuple[np.ndarray, ...]]]) -> None:
        self._build = build
        self._source = build()
        self._batches: list[tuple[np.ndarray, ...]] = []
        self._lock = threading.Lock()

    def __iter__(self) -> Iterator[tuple[np.ndarray, ...]]:
        k = 0
        while True:
            if k == len(self._batches):
                with self._lock:
                    if k == len(self._batches):
                        try:
                            batch = next(self._source, None)
                        except BaseException:
                            self._source = islice(self._build(), k, None)
                            raise
                        if batch is None:
                            return
                        for array in batch:
                            array.flags.writeable = False
                        self._batches.append(batch)
            yield self._batches[k]
            k += 1


class _PlanCache:
    """Plans by builder and arguments, as many as PLAN_BYTES holds.

    Each plan counts at its bound in bytes; the least recently used go
    first. The lock guards the table.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._plans: OrderedDict[tuple, tuple[_Plan, int]] = OrderedDict()
        self.nbytes = 0

    def batches(self, nbytes: int, build: Callable, *args) -> Iterator[tuple[np.ndarray, ...]]:
        """The batches of build(*args), a plan of at most nbytes.

        A plan larger than PLAN_BYTES comes from the builder and is not kept.
        """
        if nbytes > PLAN_BYTES:
            return build(*args)
        key = (build, *args)
        with self._lock:
            entry = self._plans.get(key)
            if entry is None:
                entry = self._plans[key] = (_Plan(partial(build, *args)), nbytes)
                self.nbytes += nbytes
                while self.nbytes > PLAN_BYTES:
                    _, (_, dropped) = self._plans.popitem(last=False)
                    self.nbytes -= dropped
            else:
                self._plans.move_to_end(key)
        return iter(entry[0])


_plans = _PlanCache()
