import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparkcert import (
    BudgetExceeded,
    DimensionMismatch,
    NonFiniteEntry,
    NormOverflow,
    NoSolutionWithinKmax,
    ToleranceConfig,
    Verdict,
    build_matrix,
    certify,
    coherence_index_lower_bound,
    exact_spark,
    l0_norm,
    random_matrix,
    sparsest_oracle,
    spiked_identity,
)
from sparkcert.config import DEFAULT_TOLERANCES, DEFAULT_ZERO_COLUMN_TOL


def test_l0_norm_basic():
    assert l0_norm(np.array([0.0, 0.0, 0.0])) == 0
    assert l0_norm(np.array([3.0, 0.0, -2.0])) == 2
    assert l0_norm(np.array([1e-12, 1.0, 0.0])) == 1


def test_l0_norm_respects_tolerance():
    x = np.array([1e-6, 1.0])
    assert l0_norm(x) == 2
    assert l0_norm(x, ToleranceConfig(zero_entry_tol=1e-3)) == 1


def test_l0_norm_rejects_non_finite():
    with pytest.raises(NonFiniteEntry):
        l0_norm(np.array([np.nan, 1.0]))


def test_certify_dimension_checks():
    m = spiked_identity(3)
    with pytest.raises(DimensionMismatch):
        certify(m, np.zeros(3), np.zeros(3))
    with pytest.raises(DimensionMismatch):
        certify(m, np.zeros(4), np.zeros(4))


@pytest.mark.parametrize(
    "name, value, error, message",
    [
        ("x", np.zeros(3), DimensionMismatch, "x must be a vector of length 4, got shape (3,)"),
        (
            "x", np.zeros((4, 1)), DimensionMismatch,
            "x must be a vector of length 4, got shape (4, 1)",
        ),
        ("x", np.array([0.0, np.inf, 0.0, 0.0]), NonFiniteEntry, "x contains NaN or infinity"),
        ("b", np.zeros(4), DimensionMismatch, "b must be a vector of length 3, got shape (4,)"),
        ("b", np.array([np.nan, 0.0, 0.0]), NonFiniteEntry, "b contains NaN or infinity"),
    ],
)
def test_vector_checks_name_the_bad_argument(name, value, error, message):
    m = spiked_identity(3)
    args = {"x": np.zeros(4), "b": np.zeros(3), name: value}
    with pytest.raises(error) as info:
        certify(m, args["x"], args["b"])
    assert str(info.value) == message
    if name == "b":
        with pytest.raises(error) as info:
            sparsest_oracle(m, value, k_max=1)
        assert str(info.value) == message


def test_certify_not_a_solution():
    m = spiked_identity(10)
    x = np.zeros(11)
    x[0] = 1.0
    wrong_b = np.zeros(10)
    wrong_b[5] = 1.0
    cert = certify(m, x, wrong_b)
    assert cert.verdict is Verdict.NOT_A_SOLUTION
    assert cert.criteria_passed == frozenset()
    assert cert.residual > 1e-9


def test_certify_sound_at_extreme_magnitudes():
    # column norms near 1.4e200, whose squares overflow unless scaled first
    m = build_matrix([[1e200, 1e200, 0.0], [0.0, 1e200, 1e200]])
    x = np.array([1.0, 0.0, 1.0])
    b = m.data @ x
    # (0, 1, 0) is a sparser solution, so x must not be certified unique
    assert np.array_equal(m.data @ np.array([0.0, 1.0, 0.0]), b)
    assert exact_spark(m).spark == 3
    assert coherence_index_lower_bound(m) == 3
    cert = certify(m, x, b)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.criteria_passed == frozenset()


def test_certify_overflowing_residual_raises():
    # every entry is finite, but A x overflows: an inf residual is no verdict
    m = build_matrix([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    with pytest.raises(NormOverflow, match=r"residual A x - b"):
        certify(m, np.full(3, 1e308), np.array([1.0, 0.0]))


def test_certify_zero_solution_passes():
    m = spiked_identity(5)
    cert = certify(m, np.zeros(6), np.zeros(5))
    assert cert.l0 == 0
    assert cert.residual == 0.0
    assert cert.verdict in (Verdict.UNIQUE_BY_INDEX, Verdict.UNIQUE_BY_SPARK)
    assert "coherence_index" in cert.criteria_passed


def test_certify_one_sparse_solution():
    m = spiked_identity(5)
    x = np.zeros(6)
    x[0] = 2.0
    b = m.data @ x
    cert = certify(m, x, b)
    assert cert.l0 == 1
    assert cert.verdict is Verdict.UNIQUE_BY_INDEX
    assert cert.index_threshold == 1.5
    assert cert.coherence_threshold == pytest.approx(1.125, abs=1e-12)
    assert cert.criteria_passed == frozenset({"coherence_index", "mutual_coherence"})


def test_certify_spark_criterion_strongest():
    m = spiked_identity(5)
    x = np.zeros(6)
    x[0] = 2.0
    b = m.data @ x
    spark = exact_spark(m).spark
    cert = certify(m, x, b, exact=spark)
    assert cert.spark_threshold == 3.0
    assert cert.verdict is Verdict.UNIQUE_BY_SPARK
    assert cert.criteria_passed == frozenset(
        {"spark", "coherence_index", "mutual_coherence"}
    )


def test_certify_strict_inequality_at_threshold():
    # duplicated column: spark 2, threshold 1; a 1-sparse solution must not pass
    m = build_matrix([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    x = np.array([1.0, 0.0, 0.0])
    b = m.data @ x
    spark = exact_spark(m).spark
    assert spark == 2
    cert = certify(m, x, b, exact=spark)
    assert cert.spark_threshold == 1.0
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.criteria_passed == frozenset()


def test_certify_infinite_spark_always_unique():
    m = build_matrix(np.eye(4))
    x = np.array([1.0, 2.0, 3.0, 4.0])
    b = m.data @ x
    cert = certify(m, x, b, exact=math.inf)
    assert cert.verdict is Verdict.UNIQUE_BY_SPARK
    assert cert.spark_threshold is None
    assert "spark" in cert.criteria_passed


def test_certify_dominance_invariant():
    for seed in range(40):
        m = random_matrix(5, 8, seed=seed)
        x = np.zeros(8)
        x[seed % 8] = 1.0
        b = m.data @ x
        cert = certify(m, x, b)
        if "mutual_coherence" in cert.criteria_passed:
            assert "coherence_index" in cert.criteria_passed


def test_certify_discriminating_spiked_case():
    m = spiked_identity(50)
    x = np.zeros(51)
    x[0] = 1.0
    x[5] = -2.0
    b = m.data @ x
    cert = certify(m, x, b)
    assert cert.l0 == 2
    assert cert.index_threshold == 2.5
    assert cert.coherence_threshold == pytest.approx(1.125, abs=1e-12)
    assert cert.verdict is Verdict.UNIQUE_BY_INDEX
    assert "mutual_coherence" not in cert.criteria_passed


def test_oracle_zero_rhs():
    m = spiked_identity(4)
    result = sparsest_oracle(m, np.zeros(4), k_max=2)
    assert result.sparsity == 0
    assert len(result.solutions) == 1
    assert result.solutions[0].support == ()


def test_oracle_single_column_rhs():
    m = spiked_identity(5)
    b = m.data[:, 0].copy()
    result = sparsest_oracle(m, b, k_max=3)
    assert result.sparsity == 1
    assert len(result.solutions) == 1
    sol = result.solutions[0]
    assert sol.support == (0,)
    assert sol.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(sol.to_vector(6), np.eye(6)[0])


def test_oracle_duplicate_columns_two_solutions():
    m = build_matrix([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    b = np.array([1.0, 0.0])
    result = sparsest_oracle(m, b, k_max=2)
    assert result.sparsity == 1
    assert {s.support for s in result.solutions} == {(0,), (1,)}


def test_oracle_requires_exact_support():
    # b needs two columns; no 1-sparse solution exists
    m = spiked_identity(4)
    x = np.zeros(5)
    x[1] = 1.0
    x[2] = -1.0
    b = m.data @ x
    result = sparsest_oracle(m, b, k_max=3)
    assert result.sparsity == 2
    assert result.solutions[0].support == (1, 2)


def test_oracle_no_solution_within_kmax():
    m = spiked_identity(4)
    x = np.zeros(5)
    x[0] = 1.0
    x[1] = 1.0
    x[2] = 1.0
    b = m.data @ x
    with pytest.raises(NoSolutionWithinKmax):
        sparsest_oracle(m, b, k_max=1)


def test_oracle_rejects_supports_whose_residual_overflows():
    # |b| and the residual of support (0,) both overflow; (1,) solves the
    # system exactly, although lstsq misses it by 2 ulps of b
    m = build_matrix([[1.0, 1.0], [0.5, -1.0]])
    result = sparsest_oracle(m, np.array([1.7e308, -1.7e308]), k_max=2)
    assert [s.support for s in result.solutions] == [(1,)]
    assert result.solutions[0].coefficients == (1.7e308,)


def test_oracle_keeps_an_exact_fit_when_another_residual_overflows():
    # column 0 times 1.7e308 is b exactly; support (1,) leaves a residual
    # whose norm overflows, and |b| itself overflows at size 0
    m = build_matrix([[1.0, 1.0], [0.5, -1.0]])
    result = sparsest_oracle(m, np.array([1.7e308, 0.85e308]), k_max=2)
    assert [s.support for s in result.solutions] == [(0,)]
    assert result.solutions[0].coefficients == (1.7e308,)


def test_oracle_budget():
    m = random_matrix(4, 10, seed=0)
    b = np.ones(4)
    with pytest.raises(BudgetExceeded):
        sparsest_oracle(m, b, k_max=4, budget=5)


@pytest.mark.parametrize("budget", [0, -1])
@pytest.mark.parametrize("b", [(0.0, 0.0), (1.0, 1.0)])
def test_oracle_rejects_a_budget_below_one(budget, b):
    # as exact_spark does: no support, not even the empty one, is examined
    m = build_matrix([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match=f"budget must be positive, got {budget}"):
        sparsest_oracle(m, np.array(b), k_max=2, budget=budget)
    with pytest.raises(ValueError, match=f"budget must be positive, got {budget}"):
        exact_spark(m, budget=budget)


def test_oracle_dimension_check():
    m = spiked_identity(4)
    with pytest.raises(DimensionMismatch):
        sparsest_oracle(m, np.zeros(3), k_max=1)


def test_oracle_confirms_certified_uniqueness():
    hits = 0
    for seed in range(25):
        m = random_matrix(6, 10, seed=seed)
        x = np.zeros(10)
        x[seed % 10] = 1.5
        b = m.data @ x
        cert = certify(m, x, b)
        if cert.verdict in (Verdict.UNIQUE_BY_INDEX, Verdict.UNIQUE_BY_COHERENCE):
            result = sparsest_oracle(m, b, k_max=2)
            assert result.sparsity == 1
            assert len(result.solutions) == 1
            assert np.allclose(result.solutions[0].to_vector(10), x, atol=1e-9)
            hits += 1
    assert hits > 0


@st.composite
def planted_systems(draw):
    """A small matrix with planted dependencies and an x of random support."""
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=2, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        data = rng.integers(-3, 4, size=(rows, cols)).astype(np.float64)
    else:
        data = rng.standard_normal((rows, cols))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        # a duplicated column, or an integer combination of up to three others
        target = draw(st.integers(min_value=0, max_value=cols - 1))
        sources = draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.integers(-2, 2), min_size=len(sources), max_size=len(sources)))
        data[:, target] = data[:, sources] @ np.array(weights, dtype=np.float64)
    for j in range(cols):
        # a combination can cancel to rounding residue, which build_matrix
        # rejects as a zero column
        if np.linalg.norm(data[:, j]) <= DEFAULT_ZERO_COLUMN_TOL:
            data[0, j] = 1.0
    support = draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=cols, unique=True))
    x = np.zeros(cols)
    x[support] = draw(
        st.lists(
            st.sampled_from([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]),
            min_size=len(support),
            max_size=len(support),
        )
    )
    return build_matrix(data), x


@settings(max_examples=80, deadline=None)
@given(system=planted_systems())
# duplicated columns whose computed coherence is 1 - 2 eps and 1 - 4 eps: the
# first left the coherence index undefined (bound inf), the second also
# lifted 1 + 1/mu to 2.0000000000000004, above the spark of 2
@example(system=(build_matrix([[7.0, 7.0], [3.0, 3.0]]), np.array([1.0, 0.0])))
@example(system=(build_matrix([[3.0, 3.0], [3.0, 3.0], [1.0, 1.0]]), np.array([1.0, 0.0])))
def test_no_unique_verdict_when_oracle_finds_another_sparsest_solution(system):
    m, x = system
    b = m.data @ x
    sparsity = l0_norm(x)
    support = tuple(int(j) for j in np.flatnonzero(x))
    found = sparsest_oracle(m, b, k_max=sparsity)
    rivals = [s for s in found.solutions if s.support != support]
    if not rivals:
        return
    unique = {Verdict.UNIQUE_BY_SPARK, Verdict.UNIQUE_BY_INDEX, Verdict.UNIQUE_BY_COHERENCE}
    for exact in (None, exact_spark(m).spark):
        cert = certify(m, x, b, exact=exact)
        assert cert.verdict not in unique, (rivals, cert)


@st.composite
def certify_cases(draw):
    """A small spiked, random or duplicated-column matrix, an x of any support
    size that solves A x = b or misses b, and an exact spark that is absent,
    finite or infinite."""
    kind = draw(st.sampled_from(("spiked", "random", "duplicated")))
    if kind == "spiked":
        m = spiked_identity(draw(st.integers(min_value=2, max_value=6)))
    else:
        rows = draw(st.integers(min_value=1, max_value=5))
        cols = draw(st.integers(min_value=2, max_value=8))
        m = random_matrix(rows, cols, seed=draw(st.integers(min_value=0, max_value=2**16)))
        if kind == "duplicated":
            data = m.data.copy()
            source, target = draw(st.lists(
                st.integers(0, cols - 1), min_size=2, max_size=2, unique=True
            ))
            data[:, target] = draw(st.sampled_from([-2.0, 1.0, 3.0])) * data[:, source]
            m = build_matrix(data)
    support = draw(st.lists(st.integers(0, m.cols - 1), max_size=m.cols, unique=True))
    x = np.zeros(m.cols)
    x[support] = draw(st.lists(
        st.sampled_from([-3.0, -1.0, 0.5, 2.0]), min_size=len(support), max_size=len(support)
    ))
    b = m.data @ x
    if draw(st.booleans()):
        b[draw(st.integers(0, m.rows - 1))] += draw(st.sampled_from([1e-12, 1e-6, 1.0]))
    exact = draw(st.one_of(
        st.none(),
        st.just(math.inf),
        st.integers(min_value=1, max_value=m.cols + 1),
    ))
    return m, x, b, exact


@settings(max_examples=300, deadline=None)
@given(case=certify_cases())
def test_certify_applies_criteria_strongest_first(case):
    m, x, b, exact = case
    cert = certify(m, x, b, exact=exact)
    assert cert.l0 == l0_norm(x)
    infinite = exact == math.inf
    assert cert.spark_threshold == (
        exact / 2.0 if exact is not None and not infinite else None
    )
    not_a_solution = cert.residual > DEFAULT_TOLERANCES.residual_tol
    assert (cert.verdict is Verdict.NOT_A_SOLUTION) == not_a_solution
    if not_a_solution:
        assert cert.criteria_passed == frozenset()
        return
    # strongest first; an infinite exact spark passes outright
    thresholds = (
        ("spark", Verdict.UNIQUE_BY_SPARK, math.inf if infinite else cert.spark_threshold),
        ("coherence_index", Verdict.UNIQUE_BY_INDEX, cert.index_threshold),
        ("mutual_coherence", Verdict.UNIQUE_BY_COHERENCE, cert.coherence_threshold),
    )
    passed = [
        (name, verdict)
        for name, verdict, threshold in thresholds
        if threshold is not None and cert.l0 < threshold
    ]
    assert cert.criteria_passed == frozenset(name for name, _ in passed)
    assert cert.verdict is (passed[0][1] if passed else Verdict.INCONCLUSIVE)
