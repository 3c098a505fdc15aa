import math
import sys

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
    parse_csv,
    random_matrix,
    spiked_identity,
)
from sparkcert import config, spark
from sparkcert.matrix import coherence_rounding, euclidean_norm, euclidean_norms

from coherence_reference import full_coherence_pass, kept_count


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


def _fsum_norms(data):
    """Reference: per column, scale by the peak's power of two, square, math.fsum, sqrt, ldexp.

    Raises OverflowError where a norm lies beyond the float64 range.
    """
    norms = []
    for column in data.T.tolist():
        exponent = math.frexp(max(map(abs, column)))[1]
        scaled = [math.ldexp(v, -exponent) for v in column]
        norms.append(math.ldexp(math.sqrt(math.fsum(v * v for v in scaled)), exponent))
    return norms


# one column each: entries up to 1.5 times a scale (near 1e+-300, subnormal,
# zero), small integers times powers of two, whose exact sums of squares
# can fall on a rounding boundary, and mostly zero entries
_COLUMN_KINDS = [*_COLUMN_SCALES, 1e-305, 2.0**-1070, "dyadic", "sparse"]


def _column(rng, rows, kind):
    if kind == "dyadic":
        return rng.integers(-4, 5, rows) * np.ldexp(1.0, rng.integers(-30, 1, rows))
    if kind == "sparse":
        return rng.standard_normal(rows) * (rng.random(rows) < 0.1)
    return rng.uniform(-1.5, 1.5, rows) * kind


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=300),
    kinds=st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=60),
)
@example(seed=1, rows=300, kinds=["dyadic"] * 60)
@example(seed=2, rows=5, kinds=[1e-300, 1e308, 1.0])  # the second norm overflows
def test_column_norms_match_fsum_per_column_bitwise(seed, rows, kinds):
    rng = np.random.default_rng(seed)
    data = np.stack([_column(rng, rows, kind) for kind in kinds], axis=1)
    try:
        expected = _fsum_norms(data)
    except OverflowError:
        with pytest.raises(NormOverflow):
            euclidean_norms(data)
        return
    assert _bits(euclidean_norms(data)) == _bits(expected)


def _power_of_two_tie():
    """81 powers of two whose squares sum to 1 - 2**-54, the midpoint below 1."""
    column = [0.5, 0.5]
    for i in range(2, 55):
        column += [2.0 ** -(i // 2)] if i % 2 == 0 else [2.0 ** -((i + 1) // 2)] * 2
    return column


@pytest.mark.parametrize(
    "column, norm",
    [
        # squares sum to 0.25 + 2**-55, the midpoint above 0.25: the sum
        # rounds to even, 0.25
        ([0.5, 2.0**-28, 2.0**-28], 0.5),
        # the sum rounds to even, 1, not to its lower neighbour 1 - 2**-53,
        # whose square root would be 1 - 2**-53
        (_power_of_two_tie(), 1.0),
    ],
    ids=["above-0.25", "below-1"],
)
def test_column_norm_of_a_tie_takes_fsum(monkeypatch, column, norm):
    data = np.array([column, column[::-1]]).T
    assert _fsum_norms(data) == [norm, norm]
    calls = []
    real_fsum = math.fsum

    def counting(values):
        calls.append(values)
        return real_fsum(values)

    monkeypatch.setattr(math, "fsum", counting)
    assert euclidean_norms(data) == (norm, norm)
    assert len(calls) == 2


def _duplicated_columns():
    data = random_matrix(5, 9, seed=2).data.copy()
    data[:, [4, 7]] = data[:, [1, 1]] * [-3.0, 0.5]
    return build_matrix(data)


def _near_orthogonal():
    """60x30 orthonormal columns off by 1e-4: their 435 coherences sum to well below 1."""
    rng = np.random.default_rng(7)
    q = np.linalg.qr(rng.standard_normal((60, 30)))[0]
    return build_matrix(q + 1e-4 * rng.standard_normal((60, 30)))


def _scaled(scales):
    data = random_matrix(6, 10, seed=3).data * scales
    return build_matrix(data, ToleranceConfig(zero_column_tol=0.0))


_COHERENCE_PASS_CASES = {
    **{f"random-{rows}x{cols}": (lambda rows=rows, cols=cols: random_matrix(rows, cols, seed=rows))
       for rows, cols in [(3, 7), (12, 13), (7, 18), (30, 22), (160, 800)]},
    "duplicated": _duplicated_columns,
    "spiked": lambda: spiked_identity(9),
    "tall": lambda: random_matrix(40, 5, seed=4),
    "two-columns": lambda: random_matrix(8, 2, seed=6),
    "one-row": lambda: random_matrix(1, 2, seed=5),
    "scaled-1e-200": lambda: _scaled(1e-200),
    "scaled-1e200-and-1e-200": lambda: _scaled(np.where(np.arange(10) % 2, 1e200, 1e-200)),
    "near-orthogonal": _near_orthogonal,
}

# K per case: max(rows, 10) of the pairs, every pair when there are no
# more, and every pair when the near-orthogonal K fall short of 1
_KEPT = {
    "random-3x7": 10, "random-12x13": 12, "random-7x18": 10, "random-30x22": 30,
    "random-160x800": 160, "duplicated": 10, "spiked": 10, "tall": 10, "two-columns": 1,
    "one-row": 1, "scaled-1e-200": 10, "scaled-1e200-and-1e-200": 10, "near-orthogonal": 435,
}


@pytest.mark.parametrize("case", _COHERENCE_PASS_CASES)
def test_coherence_pass_matches_the_old_pass_bitwise(case):
    # the kept entries are bit for bit the leading ones of a full sort
    m = _COHERENCE_PASS_CASES[case]()
    full = full_coherence_pass(m)
    keep = kept_count(m, full[1])
    assert keep == _KEPT[case]
    for got, want in zip(m.sorted_coherences, full):
        assert got.tobytes() == want[:keep].tobytes()


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


def test_every_builder_keeps_its_tolerances():
    tolerances = ToleranceConfig(zero_column_tol=0.0, index_slack=0.5)
    m = build_matrix([[1e-170, 1.0], [1e-170, 0.0]], tolerances)
    assert m.tolerances is tolerances
    # normalize_columns builds its copy at the matrix's tolerances
    assert normalize_columns(m).tolerances is tolerances
    assert random_matrix(2, 3, seed=0, tolerances=tolerances).tolerances is tolerances
    assert parse_csv("1,2\n3,4\n", tolerances).tolerances is tolerances
    assert build_matrix([[1.0]]).tolerances == ToleranceConfig()


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


def test_numerical_rank_of_extreme_and_non_finite_input():
    # sigma_max of the unscaled matrix overflows to inf
    assert numerical_rank(np.full((2, 2), 1e308)) == 1
    # a cutoff past the float range is infinite, with no overflow warning
    huge = ToleranceConfig(rank_tol_factor=sys.float_info.max)
    assert numerical_rank(np.eye(3), huge) == 0
    for a in ([[math.inf, 1.0]], [[math.nan]]):
        with pytest.raises(NonFiniteEntry):
            numerical_rank(np.array(a))


def test_numerical_rank_shapes():
    # a 2-D array with no entries has rank 0; other shapes are rejected as
    # build_matrix rejects them
    for shape in ((0, 3), (3, 0)):
        assert numerical_rank(np.zeros(shape)) == 0
    for a in (np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(DimensionMismatch, match=rf"^expected a 2-D array, got ndim={a.ndim}$"):
            numerical_rank(a)


def test_eps_is_numpys_float64_epsilon_bit_for_bit():
    # config reads it from sys.float_info, which loads no numpy
    numpy_eps = float(np.finfo(np.float64).eps).hex()
    for eps in (config.EPS, config.DEFAULT_RANK_TOL_FACTOR, spark.EPS):
        assert (type(eps), eps.hex()) == (float, numpy_eps)
    assert coherence_rounding(6).hex() == (28.0 * np.finfo(np.float64).eps).hex()


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


def test_random_matrix_redraws_columns_from_the_same_stream():
    # a coarse zero-column tolerance makes columns land below it; each is
    # redrawn in column order until it passes, as this loop does
    redrawn = 0
    for rows, cols, tol in ((1, 40, 0.5), (1, 40, 1.5), (2, 30, 1.0), (3, 7, 0.0)):
        for seed in range(5):
            rng = np.random.Generator(np.random.PCG64(seed))
            want = rng.standard_normal((rows, cols))
            for j, norm in enumerate(euclidean_norms(want)):
                while norm <= tol:
                    want[:, j] = rng.standard_normal(rows)
                    norm = euclidean_norm(want[:, j])
                    redrawn += 1
            got = random_matrix(rows, cols, seed, ToleranceConfig(zero_column_tol=tol))
            assert got.data.tobytes() == want.tobytes()
    assert redrawn > 0
