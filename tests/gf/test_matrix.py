"""Tests for GF(2^g) linear algebra."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gf import (
    GF2,
    Matrix,
    cauchy_matrix,
    default_cauchy_matrix,
    identity_matrix,
    random_nonsingular_matrix,
)


@pytest.fixture
def f8():
    return GF2(8)


class TestConstruction:
    def test_rectangular_ok(self, f8):
        m = Matrix(f8, [[1, 2, 3], [4, 5, 6]])
        assert (m.nrows, m.ncols) == (2, 3)

    def test_ragged_rejected(self, f8):
        with pytest.raises(ValueError):
            Matrix(f8, [[1, 2], [3]])

    def test_empty_rejected(self, f8):
        with pytest.raises(ValueError):
            Matrix(f8, [])

    def test_out_of_field_rejected(self, f8):
        with pytest.raises(ValueError):
            Matrix(f8, [[256]])


class TestAlgebra:
    def test_identity_multiplication(self, f8):
        m = Matrix(f8, [[3, 1], [7, 2]])
        eye = identity_matrix(f8, 2)
        assert m @ eye == m
        assert eye @ m == m

    def test_shape_mismatch(self, f8):
        a = Matrix(f8, [[1, 2]])
        with pytest.raises(ValueError):
            a @ a

    def test_vector_multiplication_matches_matmul(self, f8):
        m = Matrix(f8, [[3, 1], [7, 2]])
        row = Matrix(f8, [[5, 9]])
        assert (row @ m).rows[0] == m.mul_vector((5, 9))

    def test_singular_has_no_inverse(self, f8):
        m = Matrix(f8, [[1, 2], [1, 2]])
        assert not m.is_invertible()
        with pytest.raises(ValueError):
            m.inverse()

    def test_rank(self, f8):
        # [[1,2],[2,4]] IS singular over GF(2^8): row2 = 2 * row1
        # (2*2 = x*x = 4, no reduction below degree 8).
        assert Matrix(f8, [[1, 2], [2, 4]]).rank() == 1
        assert Matrix(f8, [[1, 2], [2, 5]]).rank() == 2
        assert Matrix(f8, [[1, 2], [1, 2]]).rank() == 1

    def test_inverse_roundtrip(self, f8):
        m = Matrix(f8, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        if m.is_invertible():
            assert m @ m.inverse() == identity_matrix(f8, 3)


class TestFamilies:
    def test_cauchy_all_nonzero_and_invertible(self, f8):
        m = cauchy_matrix(f8, [0, 1, 2, 3], [4, 5, 6, 7])
        assert m.all_nonzero()
        assert m.is_invertible()

    def test_cauchy_rejects_overlap(self, f8):
        with pytest.raises(ValueError):
            cauchy_matrix(f8, [0, 1], [1, 2])

    def test_cauchy_rejects_duplicates(self, f8):
        with pytest.raises(ValueError):
            cauchy_matrix(f8, [0, 0], [1, 2])

    def test_default_cauchy_too_large(self):
        with pytest.raises(ValueError):
            default_cauchy_matrix(GF2(2), 3)

    @pytest.mark.parametrize("g,k", [(2, 2), (2, 4), (4, 3), (8, 4)])
    def test_random_nonsingular(self, g, k):
        m = random_nonsingular_matrix(GF2(g), k, random.Random(3))
        assert m.is_invertible()

    def test_random_nonsingular_all_nonzero(self):
        m = random_nonsingular_matrix(
            GF2(4), 3, random.Random(5), require_all_nonzero=True
        )
        assert m.all_nonzero() and m.is_invertible()


@given(
    st.sampled_from([2, 4, 8]),
    st.integers(2, 4),
    st.integers(0, 2 ** 31),
)
def test_property_inverse_roundtrips_vectors(g, k, seed):
    field = GF2(g)
    rng = random.Random(seed)
    m = random_nonsingular_matrix(field, k, rng)
    vector = tuple(rng.randrange(field.order) for __ in range(k))
    dispersed = m.mul_vector(vector)
    assert m.inverse().mul_vector(dispersed) == vector
