import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cyclonids import preprocess
from cyclonids.errors import DataError
from cyclonids.preprocess import fit_standardizer, transform


def test_two_value_column():
    s = fit_standardizer(np.array([[2.0], [4.0]]))
    assert s.means[0] == 3.0
    assert math.isclose(s.stds[0], math.sqrt(2.0))
    assert not s.zero_variance_flags[0]


def test_constant_column_flagged():
    s = fit_standardizer(np.array([[5.0], [5.0], [5.0]]))
    assert s.means[0] == 5.0
    assert s.zero_variance_flags[0]
    assert s.stds[0] == 1.0
    out = transform(s, np.array([[5.0], [7.0]]))
    assert out[:, 0].tolist() == [0.0, 0.0]


def test_hand_computed_3x2():
    m = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    out = transform(fit_standardizer(m), m)
    expected = np.array([[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0]])
    assert np.allclose(out, expected, atol=1e-12)


def test_fitting_matrix_maps_to_zero_mean_unit_std():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((40, 5)) * [1, 10, 0.1, 100, 3] + [5, -2, 0, 7, 1]
    out = transform(fit_standardizer(m), m)
    assert np.all(np.abs(out.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(out.std(axis=0, ddof=1) - 1.0) < 1e-9)


def test_already_standardized_is_idempotent():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((30, 3))
    once = transform(fit_standardizer(m), m)
    refit = fit_standardizer(once)
    assert np.all(np.abs(refit.means) < 1e-9)
    assert np.all(np.abs(refit.stds - 1.0) < 1e-9)


def test_row_of_means_maps_to_zeros():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((20, 4)) + 3.0
    s = fit_standardizer(m)
    out = transform(s, s.means.reshape(1, -1))
    assert np.all(np.abs(out) < 1e-12)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.01, 100.0), b=st.floats(-50.0, 50.0), seed=st.integers(0, 50))
def test_affine_equivariance(a, b, seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((12, 1))
    base = transform(fit_standardizer(y), y)
    scaled = a * y + b
    out = transform(fit_standardizer(scaled), scaled)
    assert np.all(np.abs(out - base) < 1e-9)


@st.composite
def _matrices(draw):
    """A float matrix, C- or Fortran-ordered, some of whose columns are constant."""
    n, p = draw(st.integers(2, 40)), draw(st.integers(1, 6))
    m = draw(hnp.arrays(np.float64, (n, p), elements=st.floats(-1e6, 1e6)))
    for j in draw(st.sets(st.integers(0, p - 1))):
        m[:, j] = m[0, j]
    return np.asfortranarray(m) if draw(st.booleans()) else m


@settings(max_examples=150, deadline=None)
@given(m=_matrices(), block=st.integers(1, 9))
def test_blocked_fit_matches_numpy_std_bit_for_bit(m, block):
    with mock.patch.object(preprocess, "_BLOCK_ROWS", block):
        s = fit_standardizer(m)
    assert np.array_equal(s.means, m.mean(axis=0))
    assert np.array_equal(s.zero_variance_flags, (m == m[0]).all(axis=0))
    assert np.array_equal(s.stds, np.where(s.zero_variance_flags, 1.0, m.std(axis=0, ddof=1)))


@settings(max_examples=150, deadline=None)
@given(m=_matrices())
def test_in_place_transform_matches_a_new_matrix_bit_for_bit(m):
    s = fit_standardizer(m)
    with np.errstate(all="ignore"):  # a column of subnormals can have a std of 0
        reference = m - s.means
        reference /= s.stds
        reference[:, s.zero_variance_flags] = 0.0
        target = m.copy(order="A")
        out = transform(s, target, out=target)
        fresh = transform(s, m)
    assert out is target
    assert out.tobytes() == reference.tobytes() == fresh.tobytes()


def test_blocked_fit_holds_one_block_of_deviations():
    # One reused buffer of 4096 rows: 0.2 x a 20,000-row input.
    m = np.random.default_rng(21).standard_normal((20000, 50))
    tracemalloc.start()
    try:
        fit_standardizer(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * m.nbytes, f"peak {peak / m.nbytes:.2f} x the input"


def test_dimension_mismatch():
    s = fit_standardizer(np.zeros((3, 2)) + np.arange(3)[:, None])
    with pytest.raises(DataError):
        transform(s, np.zeros((3, 5)))


def test_too_few_rows():
    with pytest.raises(DataError):
        fit_standardizer(np.array([[1.0, 2.0]]))


def test_to_text_roundtrips_identity():
    m = np.array([[1.0, 2.0], [4.0, 8.0], [9.0, 1.0]])
    a = fit_standardizer(m)
    b = fit_standardizer(m.copy())
    assert a.to_text() == b.to_text()
