import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparkcert import (
    DimensionMismatch,
    IndexOutOfRange,
    NonFiniteEntry,
    NormOverflow,
    ToleranceConfig,
    ZeroColumn,
    build_matrix,
    column_submatrix,
    gram_matrix,
    normalize_columns,
    numerical_rank,
    random_matrix,
)
from sparkcert.matrix import euclidean_norm, euclidean_norms


def test_build_identity():
    m = build_matrix([[1.0, 0.0], [0.0, 1.0]])
    assert m.shape == (2, 2)
    assert m.column_norms == (1.0, 1.0)


def test_build_rejects_zero_column():
    with pytest.raises(ZeroColumn) as exc:
        build_matrix([[1.0, 0.0], [0.0, 0.0]])
    assert exc.value.index == 1


def test_build_rejects_tiny_column():
    with pytest.raises(ZeroColumn):
        build_matrix([[1.0, 1e-13], [0.0, 0.0]])


def test_build_keeps_tiny_column_when_tolerance_is_zero():
    # the squares of 1e-170 underflow to 0; scaled first, they do not
    m = build_matrix([[1e-170, 1.0], [1e-170, 0.0]], ToleranceConfig(zero_column_tol=0.0))
    assert m.column_norms[0] == pytest.approx(math.sqrt(2.0) * 1e-170, rel=1e-15)


def test_build_rejects_norm_beyond_float64_range():
    # every entry is finite, but the column norm 2.1e308 is not
    with pytest.raises(NormOverflow):
        build_matrix([[1.5e308, 1.0], [1.5e308, 0.0]])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=1, max_value=39),
    exponent=st.integers(min_value=-140, max_value=140),
)
def test_euclidean_norm_matches_unscaled_sum(seed, size, exponent):
    # where no square overflows or underflows, scaling by a power of two
    # changes no bit of the correctly rounded norm
    v = np.random.default_rng(seed).standard_normal(size) * 10.0**exponent
    reference = math.sqrt(math.fsum(float(x) * float(x) for x in v))
    assert euclidean_norm(v) == reference


_COLUMN_SCALES = [1.0, 1e300, 1e-300, 1e308, 1e-310, 5e-324, 0.0]


def _bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=9),
    scales=st.lists(st.sampled_from(_COLUMN_SCALES), min_size=1, max_size=6),
)
@example(seed=0, rows=4, scales=[1.0, 1e308])  # the second norm overflows
def test_column_norms_match_euclidean_norm_bitwise(seed, rows, scales):
    data = np.random.default_rng(seed).uniform(-1.5, 1.5, (rows, len(scales))) * scales
    try:
        expected = [euclidean_norm(data[:, j]) for j in range(data.shape[1])]
    except NormOverflow:
        with pytest.raises(NormOverflow):
            euclidean_norms(data)
        with pytest.raises(NormOverflow):
            build_matrix(data)
        return
    assert _bits(euclidean_norms(data)) == _bits(expected)
    tolerances = ToleranceConfig(zero_column_tol=0.0)
    if 0.0 in expected:
        with pytest.raises(ZeroColumn) as exc:
            build_matrix(data, tolerances)
        assert exc.value.index == expected.index(0.0)
    else:
        assert _bits(build_matrix(data, tolerances).column_norms) == _bits(expected)


def test_build_rejects_bad_shape():
    with pytest.raises(DimensionMismatch):
        build_matrix([1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        build_matrix(np.empty((0, 3)))


def test_build_rejects_non_finite():
    with pytest.raises(NonFiniteEntry):
        build_matrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(NonFiniteEntry):
        build_matrix([[1.0, np.inf], [0.0, 1.0]])


def test_data_is_read_only():
    m = build_matrix([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        m.data[0, 0] = 5.0


def test_column_access_and_range(identity3):
    assert np.array_equal(identity3.column(2), [0.0, 0.0, 1.0])
    with pytest.raises(IndexOutOfRange):
        identity3.column(3)
    with pytest.raises(IndexOutOfRange):
        identity3.column(-1)


def test_normalize_columns_diagonal():
    m = build_matrix([[2.0, 0.0], [0.0, 3.0]])
    normed = normalize_columns(m)
    assert np.allclose(normed.data, np.eye(2))


def test_normalize_columns_hand_case():
    m = build_matrix([[1.0, 1.0], [0.0, 1.0]])
    normed = normalize_columns(m)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(normed.data, [[1.0, s], [0.0, s]])
    for norm in normed.column_norms:
        assert abs(norm - 1.0) <= 1e-12


def test_normalize_preserves_direction():
    m = random_matrix(4, 6, seed=5)
    normed = normalize_columns(m)
    for j in range(m.cols):
        scale = m.column_norms[j]
        assert np.allclose(normed.data[:, j] * scale, m.data[:, j])


def test_gram_matrix_unit_diagonal_symmetric():
    m = random_matrix(5, 7, seed=1)
    g = gram_matrix(m)
    assert np.array_equal(g, g.T)
    assert np.array_equal(np.diag(g), np.ones(7))
    assert np.all(np.abs(g) <= 1.0 + 1e-12)


def test_numerical_rank_basic():
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
    assert numerical_rank(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])) == 2


def test_numerical_rank_matches_numpy():
    for seed in range(10):
        a = random_matrix(4, 6, seed=seed).data
        assert numerical_rank(a) == np.linalg.matrix_rank(a)


def test_column_submatrix_selects(identity3):
    sub = column_submatrix(identity3, [0, 2])
    assert np.array_equal(sub, np.eye(3)[:, [0, 2]])


def test_column_submatrix_validation(identity3):
    with pytest.raises(DimensionMismatch):
        column_submatrix(identity3, [])
    with pytest.raises(DimensionMismatch):
        column_submatrix(identity3, [1, 1])
    with pytest.raises(DimensionMismatch):
        column_submatrix(identity3, [2, 0])
    with pytest.raises(IndexOutOfRange):
        column_submatrix(identity3, [0, 3])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_matrix_deterministic(seed):
    a = random_matrix(3, 4, seed=seed)
    b = random_matrix(3, 4, seed=seed)
    assert np.array_equal(a.data, b.data)


def test_random_matrix_seed_sensitivity():
    a = random_matrix(3, 4, seed=1)
    b = random_matrix(3, 4, seed=2)
    assert not np.array_equal(a.data, b.data)
