import math

import numpy as np
import pytest
from hypothesis import given
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
from sparkcert.coherence import smallest_qualifying_prefix


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
    vals = np.asarray(profile.coherences)
    assert np.all(vals[:-1] >= vals[1:])
    prefix = np.asarray(profile.prefix_sums)
    assert np.all(np.diff(prefix) >= 0)
    # prefix sums strictly increase exactly while coherences stay positive
    for i in range(1, profile.pair_count):
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
