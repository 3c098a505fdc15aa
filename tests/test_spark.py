import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sparkcert
from sparkcert import spark as spark_module
from sparkcert import (
    BudgetExceeded,
    NotSquare,
    NotUnitDiagonal,
    ToleranceConfig,
    TooFewColumns,
    analyze_spark,
    build_matrix,
    coherence_index_lower_bound,
    exact_spark,
    gram_matrix,
    gram_minor,
    is_diagonally_dominant,
    mutual_coherence_lower_bound,
    numerical_rank,
    random_matrix,
    sparsest_oracle,
    spiked_identity,
)
from sparkcert.matrix import unit_columns
from sparkcert.spark import SparkSearchResult

EPS = float(np.finfo(np.float64).eps)


def test_mutual_coherence_bound_values(identity3, three_column_pair):
    assert mutual_coherence_lower_bound(identity3) is None
    assert mutual_coherence_lower_bound(spiked_identity(7)) == pytest.approx(
        2.25, abs=1e-12
    )
    dup = build_matrix([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert mutual_coherence_lower_bound(dup) == pytest.approx(2.0, abs=1e-12)
    assert mutual_coherence_lower_bound(three_column_pair) == pytest.approx(
        1.0 + math.sqrt(2.0), abs=1e-12
    )


def test_index_bound_values(identity3):
    assert coherence_index_lower_bound(identity3) == math.inf
    assert coherence_index_lower_bound(spiked_identity(10)) == 3
    assert coherence_index_lower_bound(spiked_identity(50)) == 5


def test_exact_spark_spiked_family():
    for n in (2, 3, 5):
        result = exact_spark(spiked_identity(n))
        assert result.spark == n + 1
        assert result.witness == tuple(range(n + 1))


def test_exact_spark_duplicate_column():
    m = build_matrix([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
    result = exact_spark(m)
    assert result.spark == 2
    assert result.witness == (0, 2)


def test_exact_spark_full_rank_square(identity3):
    result = exact_spark(identity3)
    assert result.spark == math.inf
    assert result.witness is None
    assert (result.subsets_examined, result.settled_by) == (0, "full_rank")
    # the scan from size 1 examines every subset to reach the same answer
    data = unit_columns(identity3)
    scanned = spark_module._scan(data, EPS, budget=10**9)
    assert scanned == SparkSearchResult(math.inf, None, 7, "search")


def test_one_svd_settles_spiked_and_full_rank_tall():
    for n in (2, 6, 13):
        result = exact_spark(spiked_identity(n), budget=1)
        assert result == SparkSearchResult(n + 1, tuple(range(n + 1)), 1, "null_vector")
    # a full-rank tall matrix: no subset examined, where the scan needs 2**22 - 1
    tall = exact_spark(random_matrix(30, 22, seed=41), budget=1)
    assert tall == SparkSearchResult(math.inf, None, 0, "full_rank")
    # a planted dependency on columns 1, 3 and 4 of a 5x6 matrix
    data = random_matrix(5, 6, seed=3).data.copy()
    data[:, 4] = data[:, 1] - 2.0 * data[:, 3]
    planted = exact_spark(build_matrix(data))
    assert (planted.witness, planted.subsets_examined, planted.settled_by) == (
        (1, 3, 4), 1, "null_vector"
    )
    # a rank cutoff coarse enough to defeat the margins leaves it to the scan
    coarse = ToleranceConfig(rank_tol_factor=1e-1)
    assert exact_spark(build_matrix(spiked_identity(6).data, coarse)).settled_by == "search"


def test_margin_proof_finds_a_column_light_in_the_null_vector():
    # column 1 carries 1e-9 of the null vector's weight: W must still hold
    # it, since every subset without it passes the margin
    data = random_matrix(5, 6, seed=61).data.copy()
    data[:, 5] = data[:, 0] + 2.0 * data[:, 2] + 1e-9 * data[:, 1]
    assert exact_spark(build_matrix(data)) == SparkSearchResult(4, (0, 1, 2, 5), 1, "null_vector")


def test_full_rank_proof_needs_the_margin():
    # sigma_2 / sigma_1 = 0.01 on two columns: a cutoff ratio a relative
    # 1e-12 below it leaves them independent under the rule, but inside
    # the SVD error term the proof must clear, so the scan decides
    c = (1.0 - 1e-4) / (1.0 + 1e-4)
    m = build_matrix([[1.0, c], [0.0, math.sqrt(1.0 - c * c)]])
    s = np.linalg.svd(unit_columns(m), compute_uv=False)

    def settle(factor):
        tolerances = ToleranceConfig(rank_tol_factor=s[1] / s[0] / 2 * factor)
        return exact_spark(build_matrix(m.data, tolerances))

    assert settle(1 - 1e-12) == SparkSearchResult(math.inf, None, 1, "search")
    assert settle(1 - 1e-10) == SparkSearchResult(math.inf, None, 0, "full_rank")
    assert settle(1 + 1e-12) == SparkSearchResult(2, (0, 1), 1, "null_vector")


def test_exact_spark_three_column_pair(three_column_pair):
    # no pair is dependent; all three columns together are
    result = exact_spark(three_column_pair)
    assert result.spark == 3
    assert result.witness == (0, 1, 2)


def test_exact_spark_budget():
    # 4 x 9, where the scan needs 211 subsets and the size proof 127: the
    # C(9, 4) = 126 quadruples and the first quintuple
    m = random_matrix(4, 9, seed=0)
    with pytest.raises(BudgetExceeded) as exc:
        exact_spark(m, budget=10)
    assert exc.value.subsets_examined == 10
    # a budget that exactly covers the search succeeds
    full = exact_spark(m)
    assert (full.subsets_examined, full.settled_by) == (127, "size_proof")
    data = unit_columns(m)
    scanned = spark_module._scan(data, EPS, budget=10**9)
    assert (full.spark, full.witness) == (scanned.spark, scanned.witness)
    again = exact_spark(m, budget=full.subsets_examined)
    assert again == full


def test_exact_spark_budget_env(monkeypatch):
    # the budget comes only through arguments: with budget=None each search
    # gets DEFAULT_SEARCH_BUDGET whatever SPARK_CERT_BUDGET holds
    m = random_matrix(4, 9, seed=0)
    b = m.data[:, 3] - 2.0 * m.data[:, 5]

    def searches():
        return (
            exact_spark(m),
            analyze_spark(m, compute_exact=True),
            sparsest_oracle(m, b, k_max=2),
        )

    monkeypatch.delenv("SPARK_CERT_BUDGET", raising=False)
    unset = searches()
    # each search examines more than one subset or support
    assert unset[0].subsets_examined > 1 and unset[2].supports_examined > 1
    for raw in ("1", "0", "junk"):
        monkeypatch.setenv("SPARK_CERT_BUDGET", raw)
        assert searches() == unset


def test_exact_spark_permutation_and_scaling_invariance():
    for seed in range(5):
        m = random_matrix(4, 7, seed=seed)
        base = exact_spark(m).spark
        perm = build_matrix(m.data[:, ::-1])
        assert exact_spark(perm).spark == base
        scaled = build_matrix(m.data * np.linspace(0.5, 4.0, 7))
        assert exact_spark(scaled).spark == base
    # column scalings from 1e-150 to 1e150 keep the answer and the bound chain
    keep_short = ToleranceConfig(zero_column_tol=0.0)
    for seed in range(20):
        m = random_matrix(4, 8, seed=seed)
        scales = 10.0 ** np.random.default_rng(seed).uniform(-150, 150, size=8)
        if seed == 0:
            scales = np.array([1e-150, 1e150] * 4)
        extreme = build_matrix(m.data * scales, keep_short)
        result = exact_spark(extreme)
        assert result == exact_spark(m)
        index_bound = coherence_index_lower_bound(extreme)
        assert result.spark >= index_bound >= mutual_coherence_lower_bound(extreme)


def test_serial_parallel_identical_small():
    for seed in range(5):
        m = random_matrix(5, 9, seed=seed)
        assert exact_spark(m, workers=1) == exact_spark(m, workers=4)


def test_serial_parallel_identical_chunked():
    # large enough that size-4 enumeration really splits into chunks
    m = random_matrix(4, 24, seed=77)
    serial = exact_spark(m, workers=1)
    parallel = exact_spark(m, workers=4)
    assert serial == parallel
    assert serial.subsets_examined > 8192


def test_workers_start_no_thread(monkeypatch):
    # the scan runs on one thread whatever `workers` says
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    m = random_matrix(4, 24, seed=77)
    assert exact_spark(m, workers=4) == exact_spark(m, workers=1)


def test_analyze_spark_requires_two_columns():
    for compute_exact in (False, True):
        with pytest.raises(TooFewColumns):
            analyze_spark(build_matrix([[1.0], [0.0]]), compute_exact=compute_exact)


def test_analyze_spark_spiked_n10():
    report = analyze_spark(spiked_identity(10), compute_exact=True)
    assert report.mutual_coherence_bound == pytest.approx(2.25, abs=1e-12)
    assert report.coherence_index_bound == 3
    assert report.exact == 11
    assert report.settled_by == "null_vector"
    assert report.trivial_upper == 11
    assert not report.search_budget_hit
    assert report.witness == tuple(range(11))


def test_analyze_spark_identity(identity3):
    report = analyze_spark(identity3, compute_exact=True)
    assert report.mutual_coherence_bound is None
    assert report.coherence_index_bound == math.inf
    assert report.exact == math.inf
    assert report.trivial_upper is None


def test_analyze_spark_three_column_pair(three_column_pair):
    report = analyze_spark(three_column_pair, compute_exact=True)
    assert report.mutual_coherence_bound == pytest.approx(
        1.0 + math.sqrt(2.0), abs=1e-12
    )
    assert report.coherence_index_bound == 3
    assert report.exact == 3


def test_analyze_spark_skips_exact_by_default(three_column_pair):
    report = analyze_spark(three_column_pair)
    assert report.exact is None
    assert report.witness is None
    assert report.subsets_examined is None
    assert not report.search_budget_hit


def test_analyze_spark_budget_hit_flag():
    report = analyze_spark(random_matrix(4, 9, seed=0), compute_exact=True, budget=5)
    assert report.search_budget_hit
    assert report.exact is None
    assert report.subsets_examined == 5
    assert report.settled_by is None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    # column 7 as is, a scaled copy of column 0, or that copy off by noise
    # of 10**-k
    scale=st.sampled_from([-3.0, 0.1, 0.7]),
    noise=st.one_of(st.none(), st.just(0.0), st.integers(1, 17).map(lambda k: 10.0**-k)),
)
@example(seed=0, scale=1.0, noise=None)
@example(seed=68, scale=0.1, noise=0.0)  # 1 + 1/mu read 2.0000000000000004
def test_bound_chain_on_random_matrices(seed, scale, noise):
    data = random_matrix(4, 8, seed=seed).data.copy()
    if noise is not None:
        rng = np.random.default_rng(seed)
        data[:, 7] = scale * data[:, 0] + noise * rng.standard_normal(4)
    m = build_matrix(data)
    report = analyze_spark(m, compute_exact=True)
    # the chain holds on the reported values
    assert report.exact is not None and report.exact != math.inf
    assert report.exact >= report.coherence_index_bound
    assert report.coherence_index_bound >= report.mutual_coherence_bound
    assert report.exact <= report.trivial_upper


def test_reported_bounds_stay_below_the_spark_under_rounding():
    # the mutual coherence reads 1 - 4 eps; 1 + 1/mu was 2.0000000000000004
    dup = build_matrix([[3.0, 3.0], [3.0, 3.0], [1.0, 1.0]])
    report = analyze_spark(dup, compute_exact=True)
    assert report.exact == 2
    assert report.mutual_coherence_bound == 2.0
    # a tight frame: three unit vectors 120 degrees apart meet the bound
    angles = np.array([0.0, 2.0, 4.0]) * math.pi / 3.0
    frame = build_matrix(np.vstack([np.cos(angles), np.sin(angles)]))
    report = analyze_spark(frame, compute_exact=True)
    assert report.exact == 3
    assert report.coherence_index_bound == 3
    assert 3.0 - 1e-12 < report.mutual_coherence_bound <= 3.0


def test_infinite_index_bound_implies_infinite_spark():
    for seed in range(10):
        q, _ = np.linalg.qr(
            np.random.Generator(np.random.PCG64(seed)).standard_normal((5, 5))
        )
        m = build_matrix(q)
        if coherence_index_lower_bound(m) == math.inf:
            assert exact_spark(m).spark == math.inf


def test_is_diagonally_dominant_basic():
    assert is_diagonally_dominant(np.array([[1.0, 0.3], [0.3, 1.0]]))
    assert not is_diagonally_dominant(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_is_diagonally_dominant_validation():
    with pytest.raises(NotSquare):
        is_diagonally_dominant(np.ones((2, 3)))
    with pytest.raises(NotSquare):
        is_diagonally_dominant(np.empty((0, 0)))
    with pytest.raises(NotUnitDiagonal):
        is_diagonally_dominant(np.array([[2.0, 0.1], [0.1, 1.0]]))


def test_spiked_gram_minor_not_dominant():
    # all three columns of the n=2 member: off-diagonal row sums 0.8, 0.6, 1.4
    m = spiked_identity(2)
    g = gram_minor(m, (0, 1, 2))
    assert not is_diagonally_dominant(g)
    row_sums = np.abs(g).sum(axis=1) - 1.0
    assert np.allclose(sorted(row_sums), [0.6, 0.8, 1.4])


def test_gram_minor_uses_only_the_selected_columns(monkeypatch):
    cases = []
    for seed in range(40):
        m = random_matrix(2 + seed % 11, 3 + seed % 17, seed=seed)
        cases.append((m, gram_matrix(m), np.random.default_rng(seed)))
    calls = []
    for module in (sparkcert.matrix, sparkcert.spark):
        if hasattr(module, "gram_matrix"):
            monkeypatch.setattr(module, "gram_matrix", calls.append)
    for m, full, rng in cases:
        size = int(rng.integers(1, m.cols + 1))
        indices = tuple(sorted(int(j) for j in rng.choice(m.cols, size=size, replace=False)))
        minor = gram_minor(m, indices)
        assert np.array_equal(minor, minor.T)
        assert np.all(np.diag(minor) == 1.0)
        assert np.max(np.abs(minor - full[np.ix_(indices, indices)])) <= 1e-15
    assert calls == []


def test_dominant_minor_has_full_rank():
    count = 0
    for seed in range(40):
        m = random_matrix(6, 9, seed=seed)
        minor = gram_minor(m, (0, 2, 5))
        if is_diagonally_dominant(minor):
            count += 1
            sub = m.data[:, [0, 2, 5]]
            assert numerical_rank(sub) == 3
    assert count > 0
