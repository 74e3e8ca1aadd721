"""Unit and property tests for GF(2^g) arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gf import GF2


class TestConstruction:
    def test_instances_are_cached(self):
        assert GF2(8) is GF2(8)

    def test_distinct_polynomials_are_distinct_fields(self):
        assert GF2(8) is not GF2(8, polynomial=0x11B)

    @pytest.mark.parametrize("g", range(1, 17))
    def test_all_supported_degrees_construct(self, g):
        field = GF2(g)
        assert field.order == 1 << g

    @pytest.mark.parametrize("g", [0, 17, -1])
    def test_unsupported_degrees_rejected(self, g):
        with pytest.raises(ValueError):
            GF2(g)

    def test_wrong_degree_polynomial_rejected(self):
        with pytest.raises(ValueError):
            GF2(8, polynomial=0x1011B)  # degree 16 poly for g=8


class TestKnownValues:
    def test_rijndael_example(self):
        # The classic FIPS-197 worked example: {57} x {83} = {c1}.
        field = GF2(8, polynomial=0x11B)
        assert field.mul(0x57, 0x83) == 0xC1

    def test_xtime(self):
        field = GF2(8, polynomial=0x11B)
        assert field.mul(0x57, 2) == 0xAE
        assert field.mul(0x80, 2) == 0x1B

    def test_gf4_multiplication_table(self):
        f = GF2(2)
        # GF(4) with x^2 + x + 1: 2*2 = 3, 2*3 = 1, 3*3 = 2.
        assert f.mul(2, 2) == 3
        assert f.mul(2, 3) == 1
        assert f.mul(3, 3) == 2

    def test_gf2_is_boolean_algebra(self):
        f = GF2(1)
        assert f.mul(1, 1) == 1
        assert f.add(1, 1) == 0


class TestAxioms:
    @pytest.mark.parametrize("g", [2, 4, 8])
    def test_exhaustive_inverses(self, g):
        field = GF2(g)
        for a in range(1, field.order):
            assert field.mul(a, field.inv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            GF2(4).inv(0)


@st.composite
def field_and_elements(draw, n=2):
    g = draw(st.sampled_from([2, 3, 4, 8]))
    field = GF2(g)
    values = [draw(st.integers(0, field.order - 1)) for __ in range(n)]
    return field, values


class TestProperties:
    @given(field_and_elements(3))
    def test_mul_associative(self, fe):
        field, (a, b, c) = fe
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))

    @given(field_and_elements(2))
    def test_mul_commutative(self, fe):
        field, (a, b) = fe
        assert field.mul(a, b) == field.mul(b, a)

    @given(field_and_elements(3))
    def test_distributive(self, fe):
        field, (a, b, c) = fe
        assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)

    @given(field_and_elements(1))
    def test_one_is_identity(self, fe):
        field, (a,) = fe
        assert field.mul(a, 1) == a

    @given(field_and_elements(2))
    def test_division_inverts_multiplication(self, fe):
        field, (a, b) = fe
        if b:
            assert field.mul(field.mul(a, b), field.inv(b)) == a


class TestVectorHelpers:
    def test_dot_product(self):
        f = GF2(4)
        assert f.dot([1, 2], [3, 4]) == 3 ^ f.mul(2, 4)

    def test_dot_length_mismatch(self):
        with pytest.raises(ValueError):
            GF2(4).dot([1], [1, 2])

    def test_validate(self):
        f = GF2(4)
        assert f.validate(15) == 15
        with pytest.raises(ValueError):
            f.validate(16)
