import math
import sys
import threading
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparkcert import (
    BudgetExceeded,
    ToleranceConfig,
    build_matrix,
    exact_spark,
    random_matrix,
    spiked_identity,
)
from sparkcert import kernels
from sparkcert import spark as spark_module
from sparkcert.coherence import coherence_rounding
from sparkcert.config import DEFAULT_ZERO_COLUMN_TOL
from sparkcert.kernels import (
    CHOLESKY_SHIFT,
    GATHER_BYTES,
    PLAN_BYTES,
    PREFIX_BYTES,
    RUN_RATIO,
    scan_chunk,
)
from sparkcert.matrix import unit_columns, unit_gram
from sparkcert.spark import SparkSearchResult

from coherence_reference import full_coherence_pass, kept_count

EPS = float(np.finfo(np.float64).eps)


def _unit(data):
    """Unit-norm columns of `data`, as exact_spark scans them."""
    return unit_columns(build_matrix(data))


def test_scan_finds_duplicate_pair():
    data = _unit(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    pos, hit = scan_chunk(data, 2, 3, EPS)
    # pairs in order: (0,1) independent, (0,2) dependent
    assert pos == 1
    assert tuple(hit) == (0, 2)


def test_scan_reports_no_hit():
    data = _unit(np.eye(4))
    pos, _ = scan_chunk(data, 2, 6, EPS)
    assert pos == -1


def test_scan_respects_count():
    data = _unit(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    pos, _ = scan_chunk(data, 2, 1, EPS)
    assert pos == -1


def test_cholesky_passes_one_bit_per_minor():
    # positive definite, indefinite and singular minors in one stack: only
    # the first has a Cholesky factor, and the ones that fail raise no
    # warning and do not fail the others
    minors = np.array([
        [[2.0, 1.0], [1.0, 2.0]],
        [[1.0, 2.0], [2.0, 1.0]],
        [[1.0, 1.0], [1.0, 1.0]],
    ])
    assert kernels._cholesky_passes(minors).tolist() == [True, False, False]


@pytest.mark.parametrize("gather_bytes", [1, 3 * 3 * 8 * 2, 64 * 1024])
def test_scan_from_every_start_keeps_lexicographic_order(monkeypatch, gather_bytes):
    # the one dependent triple is (2, 4, 6); a cap of 1 byte makes every
    # subset its own batch, the next one makes batches of two
    monkeypatch.setattr("sparkcert.kernels.GATHER_BYTES", gather_bytes)
    data = random_matrix(3, 7, seed=1).data.copy()
    data[:, 6] = data[:, 2] - 2.0 * data[:, 4]
    data = _unit(data)
    subsets = list(combinations(range(7), 3))
    hit_rank = subsets.index((2, 4, 6))
    # every count from the first subset: the hit is found once it is in range
    for count in range(1, len(subsets) + 1):
        pos, hit = scan_chunk(data, 3, count, EPS)
        if count > hit_rank:
            assert (pos, hit) == (hit_rank, (2, 4, 6))
        else:
            assert (pos, hit) == (-1, None)


def _dependent(data: np.ndarray, subset: tuple[int, ...], tol_factor: float) -> bool:
    """The rank rule on one subset, by its own SVD."""
    s = np.linalg.svd(data[:, subset], compute_uv=False)
    # a Python float, whose product overflows to inf without a warning
    cutoff = tol_factor * float(s[0]) * max(data.shape[0], len(subset))
    return np.count_nonzero(s > cutoff) < len(subset)


def _brute_force(data: np.ndarray, tol_factor: float = EPS):
    """Spark (math.inf when none is dependent), witness and subsets examined,
    one SVD per subset in itertools order."""
    cols = data.shape[1]
    examined = 0
    for size in range(1, cols + 1):
        for subset in combinations(range(cols), size):
            examined += 1
            if _dependent(data, subset, tol_factor):
                return size, subset, examined
    return math.inf, None, examined


def _probe_cost(data: np.ndarray, tol_factor: float) -> int | None:
    """Subsets the wide size proof examines up to its first failure; None if none fails.

    The probe tests the size-rows subsets at the margin of the rows-row
    cutoff, m(tol_factor, rows).
    """
    rows, cols = data.shape
    margin = spark_module._margin(tol_factor, rows)
    for examined, subset in enumerate(combinations(range(cols), rows), start=1):
        if _dependent(data, subset, margin):
            return examined
    return None


@st.composite
def search_matrices(draw, tall=False, rows=None, cols=None):
    """Small matrices with near-dependent columns; `tall` keeps cols <= rows + 1.

    `rows` and `cols`, when given, fix the shape.
    """
    if rows is None:
        rows = draw(st.integers(min_value=1, max_value=6))
    if cols is None:
        cols = draw(st.integers(min_value=1, max_value=rows + 1 if tall else 12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        data = rng.integers(-3, 4, size=(rows, cols)).astype(np.float64)
    else:
        data = rng.standard_normal((rows, cols))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        # a duplicated column, or an integer combination of up to three
        # others, exact or off by noise of 10**-k: near-dependent subsets
        # put the Cholesky filter's shift on either side of their smallest
        # eigenvalue
        target = draw(st.integers(min_value=0, max_value=cols - 1))
        sources = draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.integers(-2, 2), min_size=len(sources), max_size=len(sources)))
        data[:, target] = data[:, sources] @ np.array(weights, dtype=np.float64)
        if draw(st.booleans()):
            noise = 10.0 ** -draw(st.integers(min_value=1, max_value=17))
            data[:, target] += noise * rng.standard_normal(rows)
    for j in range(cols):
        if np.linalg.norm(data[:, j]) <= DEFAULT_ZERO_COLUMN_TOL:
            data[0, j] = 1.0
    return build_matrix(data)


# the default cutoff; coarser ones, which raise the Cholesky filter's
# shift above its floor and, from 2 * tol_factor * max(rows, size) >= 1,
# to 1, where nothing passes; and the largest float, whose SVD cutoff
# overflows
TOL_FACTORS = st.one_of(
    st.just(EPS), st.integers(-9, -1).map(lambda e: 10.0**e), st.just(sys.float_info.max)
)


def _shift(tol_factor: float, dim: int) -> float:
    """The Cholesky filter's shift per unit of size, as scan_chunk sets it."""
    r = 2 * tol_factor * dim
    return min(1.0, max(CHOLESKY_SHIFT, r * r))


def _gershgorin_margins(matrix) -> list[float]:
    """Per size k = 1, ..., cols, the Gershgorin margin m of its Gram minors.

    m is 1 less the k - 1 largest coherences and their rounding: every
    size-k minor of the unit Gram has its eigenvalues within 1 -+ (1 - m).
    """
    rows, cols = matrix.shape
    prefix = full_coherence_pass(matrix)[1]
    rounding = coherence_rounding(rows)
    return [
        1.0 - (prefix[size - 2] if size > 1 else 0.0) - (size - 1) * rounding
        for size in range(1, cols + 1)
    ]


def _first_unproven_size_reference(matrix, tol_factor: float) -> int:
    """The coherence profile's size skip, tested one size at a time.

    Size k is proven independent when its margin m is positive and half
    of sqrt(m / (2 - m)) clears the cutoff ratio at max(rows, k) plus the
    SVD's error.
    """
    rows = matrix.rows
    for size, margin in enumerate(_gershgorin_margins(matrix), start=1):
        if not margin > 0.0:
            return size
        ratio = math.sqrt(margin / (2.0 - margin))
        if not 0.5 * ratio > (tol_factor + spark_module.SVD_ERROR * EPS) * max(rows, size):
            return size
    return matrix.cols + 1


def _size_thresholds(matrix) -> list[float]:
    """The tol_factors at which the reference stops proving each size.

    Sizes whose margin is 1e-6 or less are left out: there the rounding of
    1 - m, not the tolerance, decides.
    """
    return [
        0.5 * math.sqrt(margin / (2.0 - margin)) / max(matrix.rows, size)
        - spark_module.SVD_ERROR * EPS
        for size, margin in enumerate(_gershgorin_margins(matrix), start=1)
        if margin > 1e-6
    ]


@st.composite
def equiangular_matrices(draw):
    """Square or tall matrices whose columns all meet at one coherence in [0, 1)."""
    cols = draw(st.integers(min_value=1, max_value=10))
    rows = draw(st.integers(min_value=cols, max_value=cols + 2))
    coherence = draw(st.floats(min_value=0.0, max_value=0.999))
    data = np.zeros((rows, cols))
    data[:cols] = np.linalg.cholesky((1.0 - coherence) * np.eye(cols) + coherence).T
    return build_matrix(data)


@settings(max_examples=300, deadline=None)
@given(
    matrix=st.one_of(search_matrices(), search_matrices(tall=True), equiangular_matrices()),
    tol_factor=st.one_of(st.just(0.0), TOL_FACTORS),
)
def test_first_unproven_size_matches_the_per_size_test(matrix, tol_factor):
    # tall, square and wide shapes; duplicated, combined, near-orthogonal
    # and equiangular columns; cutoffs from 0 to past a slack of 1, and on
    # either side of the cutoff at which each size stops being proven
    full_prefix = full_coherence_pass(matrix)[1]
    keep = kept_count(matrix, full_prefix)
    assert matrix.sorted_coherences[1].tobytes() == full_prefix[:keep].tobytes()
    thresholds = [t * (1.0 + side) for t in _size_thresholds(matrix) if t > 0.0
                  for side in (-1e-6, 1e-6)]
    for tol in (tol_factor, *thresholds):
        expected = _first_unproven_size_reference(matrix, tol)
        assert spark_module._first_unproven_size(matrix, tol) == expected


@settings(max_examples=60, deadline=None)
@given(
    matrix=search_matrices(),
    budget_cut=st.integers(min_value=1, max_value=200),
    tol_factor=TOL_FACTORS,
)
def test_exact_spark_matches_brute_force(matrix, budget_cut, tol_factor):
    # the reference scans the unit columns, as exact_spark does: with noise
    # near eps, raw and unit columns can fall on either side of the cutoff
    tolerances = ToleranceConfig(rank_tol_factor=tol_factor)
    data = unit_columns(matrix)
    spark, witness, examined = _brute_force(data, tol_factor)
    # the scan counts no subset of the sizes the coherence profile proves;
    # a wide matrix whose size rows is not proven is first probed there
    rows, cols = matrix.shape
    first = _first_unproven_size_reference(matrix, tol_factor)
    scanned = examined - sum(math.comb(cols, size) for size in range(1, first))
    probe = _probe_cost(data, tol_factor) if first <= rows < cols - 1 else 0
    # workers is accepted and ignored: both counts give the same answer
    for workers in (1, 2):
        result = exact_spark(matrix, tolerances, budget=10**9, workers=workers)
        assert result.spark == spark
        assert result.witness == witness
        assert (result.settled_by == "size_proof") == (probe is None)
        assert result.subsets_examined == {
            "search": (probe or 0) + scanned,
            "size_proof": math.comb(cols, rows) + 1,
            "full_rank": 0,
            "null_vector": 1,
        }[result.settled_by]

        # a budget of exactly the subsets the answer needs (at least the
        # smallest budget) still settles it
        examined = result.subsets_examined
        budget = max(1, min(budget_cut, examined))
        if budget < examined:
            with pytest.raises(BudgetExceeded) as info:
                exact_spark(matrix, tolerances, budget=budget, workers=workers)
            assert info.value.subsets_examined == budget
        else:
            assert exact_spark(matrix, tolerances, budget=budget, workers=workers) == result


@settings(max_examples=40, deadline=None)
@given(matrix=search_matrices().filter(lambda m: m.cols >= RUN_RATIO), draws=st.data())
def test_prefix_filter_passes_only_what_the_svd_proves(matrix, draws):
    # a size whose subsets come in long runs, and a count that may stop
    # part way through a run
    data = unit_columns(matrix)
    rows, cols = data.shape
    size = draws.draw(st.integers(min_value=1, max_value=cols // RUN_RATIO))
    count = draws.draw(st.integers(min_value=1, max_value=math.comb(cols, size)))
    subsets = list(combinations(range(cols), size))[:count]
    tol_factor = draws.draw(TOL_FACTORS)
    shift = _shift(tol_factor, max(rows, size))
    # the subset filter, on the same subsets, passes the same proof
    for cholesky_filter in (kernels._prefix_failures, kernels._subset_failures):
        failed = []
        for positions, idx in cholesky_filter(unit_gram(data), size, count, 7, shift * size):
            assert [subsets[p] for p in positions] == [tuple(i) for i in idx]
            failed.extend(int(p) for p in positions)
        assert failed == sorted(set(failed))
        # every subset the filter passes has sigma_min / sigma_max >= half of
        # sqrt(shift), at least the SVD cutoff ratio tol_factor * max(rows, size)
        passed = sorted(set(range(count)) - set(failed))
        if passed:
            s = np.linalg.svd(np.moveaxis(data[:, [subsets[p] for p in passed]], 0, 1),
                              compute_uv=False)
            assert size <= rows
            assert np.all(s[:, size - 1] >= 0.5 * math.sqrt(shift) * s[:, 0])
    # and the scan finds the first subset the SVD rule calls dependent
    first = next((k for k, subset in enumerate(subsets) if _dependent(data, subset, tol_factor)),
                 None)
    expected = (-1, None) if first is None else (first, subsets[first])
    assert scan_chunk(data, size, count, tol_factor) == expected


@settings(max_examples=40, deadline=None)
@given(matrix=search_matrices().filter(lambda m: m.cols >= RUN_RATIO), draws=st.data())
def test_prefix_batches_do_not_change_the_answer(matrix, draws):
    # one prefix per batch, the default cap, and one batch for the whole
    # size, on a count that may stop part way through a run or a batch
    data = unit_columns(matrix)
    cols = data.shape[1]
    size = draws.draw(st.integers(min_value=1, max_value=cols // RUN_RATIO))
    count = draws.draw(st.integers(min_value=1, max_value=math.comb(cols, size)))
    whole = math.comb(cols - 1, size - 1) * max(size - 1, 1) * cols * data.itemsize
    answers = set()
    for cap in (1, PREFIX_BYTES, whole):
        with mock.patch.object(kernels, "PREFIX_BYTES", cap):
            answers.add(scan_chunk(data, size, count, EPS))
    assert len(answers) == 1


@pytest.mark.parametrize("cap", [1, PREFIX_BYTES])
@pytest.mark.parametrize("size", [3, 4])
def test_a_failing_prefix_sends_its_whole_run_to_the_svd(size, cap):
    # columns 1 and 2 are parallel up to 1e-6 of a column from elsewhere:
    # every block holding both fails (its pivot, about 1e-12, is below
    # delta = 1e-8 * size), though the SVD calls their subsets independent.
    # Column 9 is planted from columns 4 and 6. A cap of 1 byte makes every
    # prefix its own batch
    raw = random_matrix(4, 15, seed=2).data.copy()
    raw[:, 2] = raw[:, 1] + 1e-6 * random_matrix(4, 1, seed=3).data[:, 0]
    raw[:, 9] = raw[:, 4] - 2.0 * raw[:, 6]
    data = _unit(raw)
    subsets = list(combinations(range(15), size))
    # the run of the first prefix that holds columns 1 and 2, cut after column 7
    mid = subsets.index((*range(size - 3), 1, 2, 7)) + 1
    with mock.patch.object(kernels, "PREFIX_BYTES", cap):
        for count in (len(subsets), mid):
            failed = []
            for positions, idx in kernels._prefix_failures(
                unit_gram(data), size, count, 5, CHOLESKY_SHIFT * size
            ):
                assert [subsets[p] for p in positions] == [tuple(i) for i in idx]
                failed.extend(subsets[p] for p in positions)
            parallel = [subset for subset in subsets[:count] if {1, 2} <= set(subset)]
            assert parallel and set(parallel) <= set(failed)
            assert not any(_dependent(data, subset, EPS) for subset in parallel)
            first = next((k for k in range(count) if _dependent(data, subsets[k], EPS)), None)
            expected = (-1, None) if first is None else (first, subsets[first])
            assert scan_chunk(data, size, count, EPS) == expected


def test_prefix_filter_reads_no_work_row_after_a_yield():
    # two scans of one thread share its work array: interleaving their
    # spans gives the spans of each alone. Only the subsets that hold a
    # planted dependency fail
    wide = random_matrix(4, 24, seed=1).data.copy()
    wide[:, 20] = wide[:, 3] - wide[:, 7] + wide[:, 11]
    narrow = random_matrix(3, 14, seed=2).data.copy()
    narrow[:, 10] = narrow[:, 2] + narrow[:, 5]
    narrow[:, 12] = narrow[:, 1] - narrow[:, 4]
    scans = [
        (unit_gram(_unit(wide)), 4, math.comb(24, 4)),
        (unit_gram(_unit(narrow)), 3, math.comb(14, 3)),
    ]

    def spans(gram, size, count):
        return kernels._prefix_failures(gram, size, count, 1, CHOLESKY_SHIFT * size)

    alone = [[(p.tolist(), i.tolist()) for p, i in spans(*scan)] for scan in scans]
    interleaved = [[], []]
    generators = [spans(*scan) for scan in scans]
    while generators[0] or generators[1]:
        for k, generator in enumerate(generators):
            if generator:
                positions, idx = next(generator, (None, None))
                if positions is None:
                    generators[k] = None
                else:
                    interleaved[k].append((positions.tolist(), idx.tolist()))
    assert interleaved == alone
    assert all(len(spans_of_scan) > 1 for spans_of_scan in alone)


def test_prefix_filter_threads_keep_their_own_work_arrays():
    # every thread scans with its own work array: answers match the serial ones
    cases = [(unit_columns(random_matrix(4, 24, seed=seed)), 4) for seed in range(4)]
    for k, (data, size) in enumerate(cases):
        raw = data.copy()
        raw[:, 20] = raw[:, 3 + k] - raw[:, 7]
        cases[k] = (_unit(raw), size)
    expected = [scan_chunk(data, size, math.comb(24, size), EPS) for data, size in cases]
    answers = [[] for _ in cases]

    def work(k):
        data, size = cases[k]
        for _ in range(20):
            answers[k].append(scan_chunk(data, size, math.comb(24, size), EPS))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [[answer] * 20 for answer in expected]
    assert all(answer[0] >= 0 for answer in expected)


def _spans(cholesky_filter, data, size, count, tol_factor):
    """The (positions, indices) spans of a Cholesky filter, as lists, at scan_chunk's settings."""
    dim = max(data.shape[0], size)
    per_batch = max(1, kernels.GATHER_BYTES // (dim * size * data.itemsize))
    spans = cholesky_filter(unit_gram(data), size, count, per_batch, _shift(tol_factor, dim) * size)
    return [(positions.tolist(), idx.tolist()) for positions, idx in spans]


def _planted(rows, cols, seed, support):
    """Unit columns of a random matrix whose column support[-1] is a mix of the others."""
    raw = random_matrix(rows, cols, seed=seed).data.copy()
    raw[:, support[-1]] = raw[:, support[:-1]] @ np.arange(1.0, len(support))
    return _unit(raw)


@pytest.mark.parametrize("caps", [(1, 1), (GATHER_BYTES, PREFIX_BYTES)], ids=["1B", "default"])
def test_kept_plans_give_the_answers_of_fresh_ones(monkeypatch, caps):
    # both filters on every size of 4x12, on whole sizes and on counts that
    # stop part way through a run; the warm call reads the plan the cold
    # one kept
    monkeypatch.setattr(kernels, "GATHER_BYTES", caps[0])
    monkeypatch.setattr(kernels, "PREFIX_BYTES", caps[1])
    data = _planted(4, 12, 5, [1, 4, 7])
    for size in range(1, 6):
        subsets = list(combinations(range(12), size))
        # the run of prefix (0, ..., size - 2), cut before column 9
        mid = subsets.index((*range(size - 1), 9)) if size > 1 else 9
        for count in (len(subsets), mid):
            for tol_factor in (EPS, 1e-6, 1e-3, 0.3):
                for cholesky_filter in (kernels._prefix_failures, kernels._subset_failures):
                    monkeypatch.setattr(kernels, "_plans", kernels._PlanCache())
                    cold = _spans(cholesky_filter, data, size, count, tol_factor)
                    (plan,) = [plan for plan, _ in kernels._plans._plans.values()]
                    assert _spans(cholesky_filter, data, size, count, tol_factor) == cold
                    assert [plan for plan, _ in kernels._plans._plans.values()] == [plan]
                    assert all(
                        [subsets[p] for p in positions] == [tuple(i) for i in idx]
                        for positions, idx in cold
                    )
                monkeypatch.setattr(kernels, "_plans", kernels._PlanCache())
                cold = scan_chunk(data, size, count, tol_factor)
                assert scan_chunk(data, size, count, tol_factor) == cold
                first = next(
                    (k for k in range(count) if _dependent(data, subsets[k], tol_factor)), None
                )
                assert cold == ((-1, None) if first is None else (first, subsets[first]))


def test_a_changed_cap_builds_a_fresh_plan(monkeypatch):
    # a plan is kept by its caps: a scan after a cap changes builds the plan
    # of the new batches, and the plan of the old caps is still kept
    built = []
    for name in ("_prefix_plan", "_subset_plan"):
        def counting(*args, real=getattr(kernels, name), name=name):
            built.append(name)
            return real(*args)

        monkeypatch.setattr(kernels, name, counting)
    monkeypatch.setattr(kernels, "_plans", kernels._PlanCache())
    # 24 >= 3 * 4 takes the prefix filter, 10 < 3 * 4 the subset filter
    cases = [
        ("PREFIX_BYTES", "_prefix_plan", _planted(4, 24, 1, [3, 7, 11, 20])),
        ("GATHER_BYTES", "_subset_plan", _planted(4, 10, 1, [1, 5, 8])),
    ]
    for cap, builder, data in cases:
        count = math.comb(data.shape[1], 4)
        default = getattr(kernels, cap)
        built.clear()
        answer = scan_chunk(data, 4, count, EPS)
        assert answer[0] >= 0
        assert scan_chunk(data, 4, count, EPS) == answer
        assert built == [builder]
        monkeypatch.setattr(kernels, cap, 1)
        assert scan_chunk(data, 4, count, EPS) == answer
        assert built == [builder] * 2
        monkeypatch.setattr(kernels, cap, default)
        assert scan_chunk(data, 4, count, EPS) == answer
        assert built == [builder] * 2
    assert len(kernels._plans._plans) == 4


def test_kept_plans_are_read_only(monkeypatch):
    monkeypatch.setattr(kernels, "_plans", kernels._PlanCache())
    scan_chunk(_planted(4, 24, 1, [3, 7, 11, 20]), 4, math.comb(24, 4), EPS)
    scan_chunk(_planted(4, 10, 1, [1, 5, 8]), 4, math.comb(10, 4), EPS)
    plans = [plan for plan, _ in kernels._plans._plans.values()]
    arrays = [array for plan in plans for batch in plan._batches for array in batch]
    assert len(plans) == 2 and len(arrays) > 2
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 0


def test_plan_cache_stays_within_plan_bytes(monkeypatch):
    # every plan counts at its bound, which holds its arrays; the least
    # recently used go first, and a plan larger than the cache is built and
    # not kept
    monkeypatch.setattr(kernels, "_plans", kernels._PlanCache())
    monkeypatch.setattr(kernels, "PLAN_BYTES", 64 * 1024)
    scanned = []
    for cols in range(6, 33, 2):
        data = _unit(random_matrix(3, cols, seed=cols).data)
        for size in (2, 3, 4):
            scan_chunk(data, size, math.comb(cols, size), EPS)
            scanned.append((cols, size))
            kept = list(kernels._plans._plans.values())
            assert kernels._plans.nbytes == sum(nbytes for _, nbytes in kept) <= 64 * 1024
            for plan, nbytes in kept:
                assert sum(a.nbytes for batch in plan._batches for a in batch) <= nbytes
    assert 2 <= len(kept) < len(scanned)
    # in the order they were used; the size-4 plan of 3x32, C(32, 4)
    # subsets of 5 indices of 2 bytes, is larger than the cache
    keys = [key[1:3] for key in kernels._plans._plans]
    assert keys == [shape for shape in scanned if shape in keys]
    assert keys[-1] == (32, 3)


def test_threads_share_kept_plans(monkeypatch):
    # four threads scan four shapes, each in its own order, from an empty
    # cache so small that the two larger plans do not fit together: they
    # build, read and drop the same plans at once. Every answer is the
    # first subset that the SVD rule calls dependent
    cases = [
        (_planted(4, 24, 2, [2, 9, 13, 21]), 4),
        (_planted(5, 17, 3, [1, 4, 6, 8, 16]), 5),
        (_planted(3, 14, 4, [5, 9, 12]), 3),
        (_planted(6, 11, 5, [0, 3, 4, 7, 10]), 5),
    ]
    expected = []
    for data, size in cases:
        subsets = combinations(range(data.shape[1]), size)
        expected.append(next(
            (k, subset) for k, subset in enumerate(subsets) if _dependent(data, subset, EPS)
        ))
    monkeypatch.setattr(kernels, "_plans", kernels._PlanCache())
    monkeypatch.setattr(kernels, "PLAN_BYTES", 200 * 1024)
    answers = [[] for _ in cases]
    lock = threading.Lock()

    def work(shift):
        for _ in range(10):
            for k in range(len(cases)):
                case = (k + shift) % len(cases)
                data, size = cases[case]
                answer = scan_chunk(data, size, math.comb(data.shape[1], size), EPS)
                with lock:
                    answers[case].append(answer)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(shift,)) for shift in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [[answer] * 40 for answer in expected]


def test_a_plan_whose_builder_raises_is_built_again_past_its_kept_batches():
    # an interrupt inside the builder leaves the two batches kept; the next
    # reader gets all four, the last two from a second builder
    calls = []

    def build():
        calls.append(len(calls))
        for k in range(4):
            if calls == [0] and k == 2:
                raise KeyboardInterrupt
            yield (np.array([k]),)

    plan = kernels._Plan(build)
    seen = []
    with pytest.raises(KeyboardInterrupt):
        for (batch,) in plan:
            seen.append(int(batch[0]))
    assert seen == [0, 1]
    assert [int(batch[0]) for (batch,) in plan] == [0, 1, 2, 3]
    assert calls == [0, 1]


@settings(max_examples=40, deadline=None)
@given(
    matrix=st.integers(min_value=1, max_value=9).flatmap(
        lambda rows: search_matrices(rows=rows, cols=rows + 1)
    ),
    tol_factor=st.one_of(st.just(0.0), TOL_FACTORS),
)
def test_every_subset_of_rows_plus_one_columns_is_dependent(matrix, tol_factor):
    # the null-vector proof takes W = all rows + 1 columns as dependent
    # without asking the kernel: it has only rows singular values
    data = unit_columns(matrix)
    cols = data.shape[1]
    assert scan_chunk(data, cols, 1, tol_factor) == (0, tuple(range(cols)))


def test_null_vector_of_every_column_skips_the_kernel(monkeypatch):
    # spiked n x (n + 1): W holds every column, so the one kernel call is
    # the scan of the subsets of size n
    calls = []
    real_scan = spark_module.scan_chunk

    def counting_scan(data, size, count, tol_factor):
        calls.append((size, count))
        return real_scan(data, size, count, tol_factor)

    monkeypatch.setattr(spark_module, "scan_chunk", counting_scan)
    result = exact_spark(spiked_identity(6))
    assert result == SparkSearchResult(7, tuple(range(7)), 1, "null_vector")
    assert calls == [(6, 7)]


@pytest.mark.parametrize("tol_factor", [EPS, 1e-3])
@pytest.mark.parametrize("cols, size", [(7, 3), (12, 3), (6, 1)])
def test_scan_refuses_a_count_past_the_last_subset(cols, size, tol_factor):
    # both filters, at a fine shift and a coarse one
    data = _unit(random_matrix(3, cols, seed=0).data)
    total = math.comb(cols, size)
    scan_chunk(data, size, total, tol_factor)
    with pytest.raises(ValueError, match="exceeds"):
        scan_chunk(data, size, total + 1, tol_factor)


@st.composite
def nullity_one_matrices(draw):
    """rows >= cols - 1 with one column an integer mix of some others.

    The null vector is zero off the planted support. Optional noise of
    10**-k makes the dependency near rather than exact.
    """
    cols = draw(st.integers(min_value=2, max_value=10))
    rows = draw(st.integers(min_value=cols - 1, max_value=cols + 2))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        data = rng.integers(-3, 4, size=(rows, cols)).astype(np.float64)
    else:
        data = rng.standard_normal((rows, cols))
    support = draw(st.lists(st.integers(0, cols - 1), min_size=2, max_size=cols, unique=True))
    weights = draw(st.lists(
        st.sampled_from([-2.0, -1.0, 1.0, 2.0]), min_size=len(support) - 1,
        max_size=len(support) - 1,
    ))
    data[:, support[-1]] = data[:, support[:-1]] @ np.array(weights)
    if draw(st.booleans()):
        noise = 10.0 ** -draw(st.integers(min_value=1, max_value=17))
        data[:, support[-1]] += noise * rng.standard_normal(rows)
    for j in range(cols):
        if np.linalg.norm(data[:, j]) <= DEFAULT_ZERO_COLUMN_TOL:
            data[0, j] = 1.0
    return build_matrix(data)


# near-square and wide shapes whose scan from size 1 is cheap
PROOF_SHAPES = ((8, 10), (10, 12), (12, 14), (4, 24), (5, 17))


@st.composite
def wide_matrices(draw):
    """A PROOF_SHAPES matrix, random or with one planted integer dependency."""
    rows, cols = draw(st.sampled_from(PROOF_SHAPES))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((rows, cols))
    if draw(st.booleans()):
        support = draw(st.lists(st.integers(0, cols - 1), min_size=2, max_size=rows, unique=True))
        weights = draw(st.lists(
            st.sampled_from([-2.0, -1.0, 1.0, 2.0]), min_size=len(support) - 1,
            max_size=len(support) - 1,
        ))
        data[:, support[-1]] = data[:, support[:-1]] @ np.array(weights)
    return build_matrix(data)


@settings(max_examples=200, deadline=None)
@given(
    matrix=st.one_of(search_matrices(tall=True), nullity_one_matrices(), wide_matrices()),
    tol_factor=st.one_of(st.just(0.0), TOL_FACTORS),
)
def test_proofs_match_the_scan(matrix, tol_factor):
    # whatever the size proof or the null-vector proof answers, the scan
    # from size 1 answers too
    data = _unit(matrix.data)
    result = exact_spark(matrix, ToleranceConfig(rank_tol_factor=tol_factor), budget=10**9)
    scanned = spark_module._scan(data, tol_factor, budget=10**9)
    assert (result.spark, result.witness) == (scanned.spark, scanned.witness)


@pytest.mark.parametrize(
    "rows, cols, support",
    [
        (13, 14, (2, 9, 11)),
        (16, 14, (0, 5, 6, 13)),
        (14, 14, (1, 4, 7, 8, 12, 13)),
        *((rows, cols, ()) for rows, cols in PROOF_SHAPES),
        (8, 10, (1, 4, 9)),
        (10, 12, (0, 3, 6, 10, 11)),
        (12, 14, (2, 5, 7, 13)),
        (4, 24, (3, 17, 23)),
        (5, 17, (0, 8, 9, 16)),
    ],
)
def test_planted_proofs_match_the_scan(rows, cols, support):
    # rows >= cols - 1 and a planted dependency smaller than cols: the
    # null-vector proof finds W = support, as the scan from size 1 does.
    # Wider, the size proof settles a random matrix, and a planted
    # dependency makes its probe fail and leaves the answer to the scan
    data = random_matrix(rows, cols, seed=rows).data.copy()
    if support:
        data[:, support[-1]] = data[:, support[:-1]] @ np.resize([1.0, -2.0], len(support) - 1)
    result = exact_spark(build_matrix(data))
    scanned = spark_module._scan(_unit(data), EPS, budget=10**9)
    if rows >= cols - 1:
        assert result == SparkSearchResult(scanned.spark, support, 1, "null_vector")
    elif support:
        assert (result.witness, result.settled_by) == (support, "search")
    else:
        assert result == SparkSearchResult(
            scanned.spark, tuple(range(rows + 1)), math.comb(cols, rows) + 1, "size_proof"
        )
    assert (result.spark, result.witness) == (scanned.spark, scanned.witness)


def test_size_proof_needs_the_margin():
    # columns 0 and 1 have sigma_2 / sigma_1 = 0.01, every other pair is
    # well conditioned: a cutoff ratio a relative 1e-12 below it leaves
    # them independent under the rule, but inside the margin the probe
    # must clear, so it fails on its first subset and the scan decides
    c = (1.0 - 1e-4) / (1.0 + 1e-4)
    m = build_matrix([[1.0, c, 0.0, 1.0], [0.0, math.sqrt(1.0 - c * c), 1.0, -1.0]])
    s = np.linalg.svd(unit_columns(m)[:, :2], compute_uv=False)

    def settle(factor):
        return exact_spark(m, ToleranceConfig(rank_tol_factor=s[1] / s[0] / 2 * factor))

    # probe 1 + pairs 6 + the first triple
    assert settle(1 - 1e-12) == SparkSearchResult(3, (0, 1, 2), 1 + 6 + 1, "search")
    assert settle(1 - 1e-10) == SparkSearchResult(3, (0, 1, 2), 6 + 1, "size_proof")
    assert settle(1 + 1e-12) == SparkSearchResult(2, (0, 1), 1 + 1, "search")


def test_size_proof_counts_toward_the_budget():
    # random 4x9: the probe passes all C(9, 4) = 126 quadruples, and the
    # first quintuple is the witness
    m = random_matrix(4, 9, seed=0)
    for budget in (100, 126):
        with pytest.raises(BudgetExceeded) as info:
            exact_spark(m, budget=budget)
        assert info.value.subsets_examined == budget
    assert exact_spark(m, budget=127).settled_by == "size_proof"
    # a failed probe's subsets count too: it stops at the 8th quintuple
    # of a 5x12 matrix, the first that holds (0, 1, 2, 11)
    data = random_matrix(5, 12, seed=0).data.copy()
    data[:, 11] = data[:, 0] + data[:, 1] + data[:, 2]
    planted = build_matrix(data)
    assert exact_spark(planted).subsets_examined == 8 + 220 + 9
    for budget in (5, 8 + 100):
        with pytest.raises(BudgetExceeded) as info:
            exact_spark(planted, budget=budget)
        assert info.value.subsets_examined == budget


def test_failed_probe_leaves_the_scan_its_witness():
    # a planted 7x18 dependency on the middle quintuple of C(18, 5): the
    # probe at size 7 fails within one kernel batch, on the 85th subset,
    # (0, 1, 2, 3, 5, 6, 13), no later than the support comes among the
    # quintuples; the scan from the first unproven size finds the support
    quintuples = list(combinations(range(18), 5))
    support = quintuples[len(quintuples) // 2]
    assert support == (2, 3, 5, 6, 13)
    data = random_matrix(7, 18, seed=7).data.copy()
    data[:, support[-1]] = data[:, support[:-1]] @ np.array([1.0, -2.0, 2.0, -1.0])
    matrix = build_matrix(data)
    result = exact_spark(matrix)
    unit = _unit(data)
    scanned = spark_module._scan(unit, EPS, budget=10**9)
    assert (result.spark, result.witness, result.settled_by) == (
        scanned.spark, support, "search"
    )
    first = spark_module._first_unproven_size(matrix, EPS)
    probe = result.subsets_examined - spark_module._scan(
        unit, EPS, 10**9, first
    ).subsets_examined
    assert probe == 85 <= GATHER_BYTES // (7 * 7 * unit.itemsize)
    assert probe <= quintuples.index(support) + 1


def test_scan_skips_proven_sizes_and_stops_at_hit(monkeypatch):
    # column 11 = column 0 + column 1 + column 2: the only dependent
    # quadruple is (0, 1, 2, 11), rank 8 of C(12, 4) = 495; sizes 1 and 2
    # are proven independent and not scanned. The size proof's probe at
    # size 5 fails first, on (0, 1, 2, 3, 11), the 8th quintuple
    data = random_matrix(5, 12, seed=0).data.copy()
    data[:, 11] = data[:, 0] + data[:, 1] + data[:, 2]
    matrix = build_matrix(data)
    assert spark_module._first_unproven_size(matrix, EPS) == 3
    calls = []
    real_scan = spark_module.scan_chunk

    def counting_scan(data, size, count, tol_factor):
        calls.append((size, count))
        return real_scan(data, size, count, tol_factor)

    monkeypatch.setattr(spark_module, "scan_chunk", counting_scan)
    result = exact_spark(matrix)
    assert result.witness == (0, 1, 2, 11)
    assert result.subsets_examined == 8 + 220 + 9
    # the probe, then one kernel run per scanned size, none for sizes 1 and 2
    assert calls == [(5, math.comb(12, 5)), (3, math.comb(12, 3)), (4, math.comb(12, 4))]


def test_svd_runs_only_on_batches_the_cholesky_cannot_settle(monkeypatch):
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(np.array(args[0]))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    # every proper column subset of the spiked identity is well conditioned
    data = _unit(spiked_identity(8).data)
    for size in range(1, 9):
        assert scan_chunk(data, size, math.comb(9, size), EPS) == (-1, None)
    assert calls == []

    # the one dependent subset reaches the SVD, alone in its batch
    result = spark_module._scan(data, EPS, budget=10**9)
    assert result.witness == tuple(range(9))
    assert result.subsets_examined == 2**9 - 1
    assert [a.shape for a in calls] == [(1, 8, 9)]

    # a dependent triple amid independent ones, in one 35-subset batch of
    # the subset filter: the SVD sees exactly the subsets up to the witness
    # whose shifted minor fails the Cholesky, here the witness alone
    calls.clear()
    raw = random_matrix(3, 7, seed=1).data.copy()
    raw[:, 6] = raw[:, 2] - 2.0 * raw[:, 4]
    data = _unit(raw)
    subsets = list(combinations(range(7), 3))
    hit = subsets.index((2, 4, 6))
    assert scan_chunk(data, 3, len(subsets), EPS) == (hit, (2, 4, 6))
    gram = unit_gram(data)
    minors = np.array([gram[np.ix_(subset, subset)] for subset in subsets[: hit + 1]])
    minors -= CHOLESKY_SHIFT * 3 * np.eye(3)
    failing = [subsets[k] for k in np.flatnonzero(~kernels._cholesky_passes(minors))]
    assert failing == [(2, 4, 6)]
    (stack,) = calls
    assert np.array_equal(stack, np.moveaxis(data[:, failing], 0, 1))

    # a wide planted triple takes the prefix filter (12 >= 3 * 3): no
    # LAPACK Cholesky runs, and the SVD sees the witness and only subsets
    # whose Gram minor has an eigenvalue below twice the shift
    calls.clear()
    monkeypatch.setattr(kernels, "_cholesky_passes", None)
    raw = random_matrix(3, 12, seed=1).data.copy()
    raw[:, 9] = raw[:, 1] + 2.0 * raw[:, 5]
    data = _unit(raw)
    subsets = list(combinations(range(12), 3))
    for size in (1, 2):
        assert scan_chunk(data, size, math.comb(12, size), EPS) == (-1, None)
    assert calls == []
    assert scan_chunk(data, 3, len(subsets), EPS) == (subsets.index((1, 5, 9)), (1, 5, 9))
    seen = np.concatenate(calls)
    assert any(np.array_equal(minor, data[:, [1, 5, 9]]) for minor in seen)
    delta = CHOLESKY_SHIFT * 3
    assert all(np.linalg.eigvalsh(minor.T @ minor)[0] < 2 * delta for minor in seen)


def test_cholesky_batches_stay_within_gather_bytes(monkeypatch):
    # at size 5 = rows + 1 of a 4x14 matrix a size x size Gram minor is
    # larger than the rows x size columns of the same subset, and 14 < 3 * 5
    # keeps the size on the subset filter; exact_spark settles random 4x24
    # at size 4, so the size-5 scan is run directly
    stacked = []
    real_passes = kernels._cholesky_passes

    def recording_passes(minors):
        stacked.append((minors.shape[1:], minors.nbytes))
        return real_passes(minors)

    monkeypatch.setattr(kernels, "_cholesky_passes", recording_passes)
    result = exact_spark(random_matrix(4, 24, seed=1))
    assert result.spark == 5
    pos, hit = scan_chunk(unit_columns(random_matrix(4, 14, seed=1)), 5, math.comb(14, 5), EPS)
    assert (pos, hit) == (0, (0, 1, 2, 3, 4))
    assert (5, 5) in [shape for shape, _ in stacked]
    assert max(nbytes for _, nbytes in stacked) <= GATHER_BYTES


def test_prefix_filter_arrays_stay_within_prefix_bytes(monkeypatch):
    # size 5 of a 4x24 matrix takes the prefix filter: every subset fails
    # it (rank 4 < 5) and goes on to the SVD. The largest numpy buffer alive
    # at any line of the kernel, by tracemalloc, stays within PREFIX_BYTES,
    # and every stack the SVD sees within GATHER_BYTES. The first batch
    # fills the cap with whole runs; the work array and the plan cache,
    # which the filter keeps between calls, start empty, so that the work
    # array and the plan are allocated while traced
    stacks = []
    real_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        stacks.append(a.nbytes)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    # the prefix filter runs no LAPACK Cholesky
    monkeypatch.setattr(kernels, "_cholesky_passes", None)
    monkeypatch.setattr(kernels, "_work", threading.local())
    monkeypatch.setattr(kernels, "_plans", kernels._PlanCache())
    largest = []
    numpy_buffers = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def record_line(frame, event, arg):
        snapshot = tracemalloc.take_snapshot().filter_traces(numpy_buffers)
        largest.append(max((trace.size for trace in snapshot.traces), default=0))
        return record_line

    def trace_kernels(frame, event, arg):
        return record_line if frame.f_code.co_filename == kernels.__file__ else None

    data = unit_columns(random_matrix(4, 24, seed=1))
    tracemalloc.start()
    sys.settrace(trace_kernels)
    try:
        pos, hit = scan_chunk(data, 5, math.comb(24, 5), EPS)
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    assert (pos, hit) == (0, (0, 1, 2, 3, 4))
    # the work rows of a batch of subsets: (size - 1) * (size + 2) / 2
    # floats each
    assert PREFIX_BYTES // 2 < max(largest) <= PREFIX_BYTES
    assert stacks and max(stacks) <= GATHER_BYTES
