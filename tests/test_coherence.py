import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparkcert import (
    NotUnderdetermined,
    ToleranceConfig,
    TooFewColumns,
    build_matrix,
    coherence_profile,
    pairwise_coherences,
    random_matrix,
    spiked_identity,
    top_coherence_sum,
)
from sparkcert import spark as spark_module
from sparkcert.coherence import smallest_qualifying_prefix
from sparkcert.matrix import DenseMatrix
from sparkcert.report import build_report
from sparkcert.spark import analyze_spark

from coherence_reference import full_coherence_pass, kept_count

EPS = float(np.finfo(np.float64).eps)


def test_single_column_rejected():
    m = build_matrix([[1.0], [2.0]])
    with pytest.raises(TooFewColumns):
        pairwise_coherences(m)


def test_orthogonal_columns(identity3):
    vals = pairwise_coherences(identity3)
    assert np.array_equal(vals, np.zeros(3))
    profile = coherence_profile(identity3)
    assert profile.mutual_coherence == 0.0
    assert profile.coherence_index == math.inf


def test_duplicated_column():
    m = build_matrix([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    profile = coherence_profile(m)
    assert profile.coherences[0] == 1.0
    assert profile.mutual_coherence == 1.0
    assert profile.coherence_index == 1


def test_hand_computed_three_columns(three_column_pair):
    profile = coherence_profile(three_column_pair)
    s = 1.0 / math.sqrt(2.0)
    assert profile.pair_count == 3
    assert np.allclose(profile.coherences, [s, s, 0.0])
    assert profile.coherence_index == 2


def test_spiked_identity_profile_n10():
    profile = coherence_profile(spiked_identity(10))
    assert profile.mutual_coherence == 0.8
    assert abs(profile.coherences[1] - 0.2) < 1e-15
    assert abs(profile.coherences[9] - 0.2) < 1e-15
    # the borderline case: 0.8 + 0.2 reaches 1 exactly, so the index is 2
    assert profile.prefix_sums[1] == 1.0
    assert profile.coherence_index == 2


def test_spiked_identity_closed_form_index():
    for n in (2, 3, 5, 10, 17, 26, 50):
        profile = coherence_profile(spiked_identity(n))
        expected = 1 + math.ceil(math.sqrt(n - 1) / 3)
        assert profile.coherence_index == expected, n


def test_profile_shapes_and_monotonicity():
    m = random_matrix(4, 7, seed=9)
    profile = coherence_profile(m)
    assert profile.pair_count == 7 * 6 // 2
    # the 10 largest of the 21 pairs, bit for bit the head of a full sort
    full = full_coherence_pass(m)
    assert kept_count(m, full[1]) == 10
    for got, want in zip((profile.coherences, profile.prefix_sums), full):
        assert got.tobytes() == want[:10].tobytes()
    vals = np.asarray(profile.coherences)
    assert np.all(vals[:-1] >= vals[1:])
    prefix = np.asarray(profile.prefix_sums)
    assert np.all(np.diff(prefix) >= 0)
    # prefix sums strictly increase exactly while coherences stay positive
    for i in range(1, vals.size):
        if vals[i] > 0:
            assert prefix[i] > prefix[i - 1]
        else:
            assert prefix[i] == prefix[i - 1]


def test_index_is_minimal():
    for seed in range(20):
        m = random_matrix(3, 6, seed=seed)
        profile = coherence_profile(m)
        p = profile.coherence_index
        assert p != math.inf
        assert profile.prefix_sums[p - 1] >= 1.0
        if p > 1:
            assert profile.prefix_sums[p - 2] < 1.0


def test_index_slack_loosens():
    m = build_matrix([[1.0, 0.0, 0.6], [0.0, 1.0, 0.8]])
    # coherences {0.6, 0.8, 0} -> top-1 sum 0.8 < 1, top-2 sum 1.4
    strict = coherence_profile(m)
    loose = coherence_profile(m, ToleranceConfig(index_slack=0.25))
    # both profiles read the one cached copy, yet each has its own index
    assert loose.coherences is strict.coherences
    assert strict.coherence_index == 2
    assert loose.coherence_index == 1
    assert coherence_profile(m).coherence_index == 2


def test_cached_arrays_are_read_only():
    m = random_matrix(4, 7, seed=2)
    profile = coherence_profile(m)
    assert pairwise_coherences(m) is profile.coherences
    for arr in (profile.coherences, profile.prefix_sums):
        assert arr.base is None  # no writable array behind the read-only one
        with pytest.raises(ValueError):
            arr[0] = 0.5
        with pytest.raises(ValueError):
            arr.sort()


def test_permutation_invariance():
    m = random_matrix(4, 6, seed=3)
    perm = m.data[:, [5, 2, 0, 4, 1, 3]]
    assert np.allclose(
        pairwise_coherences(m), pairwise_coherences(build_matrix(perm))
    )


def test_column_scaling_invariance():
    m = random_matrix(4, 6, seed=4)
    scales = np.array([0.5, 3.0, 1.0, 10.0, 0.01, 2.0])
    scaled = build_matrix(m.data * scales)
    assert np.allclose(
        pairwise_coherences(m), pairwise_coherences(scaled), atol=1e-12
    )


def test_top_coherence_sum_requires_wide():
    with pytest.raises(NotUnderdetermined):
        top_coherence_sum(build_matrix(np.eye(3)))
    with pytest.raises(NotUnderdetermined):
        top_coherence_sum(random_matrix(4, 3, seed=0))


def test_top_coherence_sum_values(three_column_pair):
    assert abs(top_coherence_sum(three_column_pair) - math.sqrt(2.0)) < 1e-12
    assert abs(top_coherence_sum(spiked_identity(10)) - 2.6) < 1e-12


def test_top_coherence_sum_lower_bound_sweep():
    for seed in range(50):
        m = random_matrix(3, 7, seed=seed)
        assert top_coherence_sum(m) >= 1.0 - 1e-12


@given(
    coherences=st.lists(
        st.sampled_from([0.0, 3e-16, 1e-15, 0.1, 1 / 3, 0.5, 1.0 - 4.4e-16, 1.0]),
        min_size=1,
        max_size=30,
    ),
    slack=st.sampled_from([0.0, 1e-14, 0.25]),
    rounding=st.sampled_from([0.0, 1e-15, 1e-14, 1e-3]),
)
def test_index_matches_a_test_of_every_prefix(coherences, slack, rounding):
    prefix = np.cumsum(sorted(coherences, reverse=True))
    qualifying = [
        p for p in range(1, len(prefix) + 1) if prefix[p - 1] + p * rounding >= 1.0 - slack
    ]
    expected = qualifying[0] if qualifying else math.inf
    assert smallest_qualifying_prefix(prefix, slack, rounding) == expected


def _near_orthogonal(rows, cols, noise, rng):
    """Orthonormal columns plus Gaussian noise of the given scale.

    At 1e-4 or less every coherence together sums to less than 1; near
    3e-3 and 30 columns, the largest `rows` sum to less than 1 and all
    of them to more.
    """
    q = np.linalg.qr(rng.standard_normal((rows, cols)))[0]
    return build_matrix(q + noise * rng.standard_normal((rows, cols)))


@st.composite
def selection_matrices(draw):
    """Wide, square and tall matrices: random, with duplicated or power-of-two
    scaled columns, spiked identities, and tall near-orthogonal ones."""
    kind = draw(st.sampled_from(["random", "duplicated", "scaled", "spiked", "near-orthogonal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "spiked":
        return spiked_identity(draw(st.integers(2, 40)))
    if kind == "near-orthogonal":
        cols = draw(st.integers(6, 30))
        rows = draw(st.integers(cols, 2 * cols))
        return _near_orthogonal(rows, cols, 10.0 ** (-draw(st.integers(4, 32)) / 2), rng)
    rows = draw(st.integers(1, 24))
    cols = draw(st.integers(2, 40))
    data = rng.standard_normal((rows, cols))
    if kind == "duplicated":
        # copies of columns, scaled by signed powers of two: coherence 1
        copies = draw(st.integers(1, cols - 1))
        data[:, rng.integers(0, cols, copies)] = data[:, rng.integers(0, cols, copies)] * (
            rng.choice([-1.0, 1.0], copies) * np.ldexp(1.0, rng.integers(-8, 9, copies))
        )
    elif kind == "scaled":
        data *= np.ldexp(1.0, rng.integers(-60, 61, cols))
    return build_matrix(data, ToleranceConfig(zero_column_tol=0.0))


def _with_every_pair(m):
    """A twin of m whose cached coherences are the full sort of every pair."""
    twin = DenseMatrix(data=m.data, column_norms=m.column_norms)
    vars(twin)["sorted_coherences"] = full_coherence_pass(twin)
    return twin


@settings(max_examples=150, deadline=None)
@given(matrix=selection_matrices())
# every pair kept, and a finite index among them past the first 30
@example(matrix=_near_orthogonal(30, 30, 10.0**-2.5, np.random.default_rng(0)))
def test_kept_coherences_answer_as_a_full_sort_does(matrix):
    full = _with_every_pair(matrix)
    keep = kept_count(matrix, full.sorted_coherences[1])
    for got, want in zip(matrix.sorted_coherences, full.sorted_coherences):
        assert got.tobytes() == want[:keep].tobytes()
    assert coherence_profile(matrix).mutual_coherence == coherence_profile(full).mutual_coherence
    for slack in (0.0, 1e-3, 0.5):
        tolerances = ToleranceConfig(index_slack=slack)
        assert (coherence_profile(matrix, tolerances).coherence_index
                == coherence_profile(full, tolerances).coherence_index)
    for tol_factor in (EPS, 1e-9, 1e-3):
        assert (spark_module._first_unproven_size(matrix, tol_factor)
                == spark_module._first_unproven_size(full, tol_factor))
    if matrix.rows < matrix.cols:
        assert top_coherence_sum(matrix) == top_coherence_sum(full)
    # top_coherences, with the index and both sums the report carries
    assert (build_report(matrix, "m", analyze_spark(matrix)).coherence
            == build_report(full, "m", analyze_spark(full)).coherence)
