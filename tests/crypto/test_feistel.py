"""The small-domain PRP: bijectivity is the load-bearing property."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.feistel import FeistelPRP

KEY = b"feistel-test-key"


class TestBijectivity:
    @pytest.mark.parametrize(
        "domain", [2, 3, 7, 16, 100, 256, 1000, 4096]
    )
    def test_exhaustive_permutation(self, domain):
        """encrypt is a bijection of the whole domain."""
        prp = FeistelPRP(KEY, domain)
        images = [prp.encrypt(x) for x in range(domain)]
        assert sorted(images) == list(range(domain))
        for x in range(domain):
            assert prp.decrypt(prp.encrypt(x)) == x

    def test_odd_domain_cycle_walking(self):
        # 100 is not a power of two: cycle-walking must stay in-domain.
        prp = FeistelPRP(KEY, 100)
        for x in range(100):
            assert 0 <= prp.encrypt(x) < 100


class TestKeying:
    def test_different_keys_different_permutations(self):
        a = FeistelPRP(b"key-a", 256)
        b = FeistelPRP(b"key-b", 256)
        assert any(a.encrypt(x) != b.encrypt(x) for x in range(256))

    def test_deterministic_across_instances(self):
        a = FeistelPRP(KEY, 65536)
        b = FeistelPRP(KEY, 65536)
        for x in (0, 1, 999, 65535):
            assert a.encrypt(x) == b.encrypt(x)


class TestValidation:
    def test_domain_too_small(self):
        with pytest.raises(ValueError):
            FeistelPRP(KEY, 1)

    def test_too_few_rounds(self):
        with pytest.raises(ValueError):
            FeistelPRP(KEY, 256, rounds=3)

    def test_out_of_domain_input(self):
        prp = FeistelPRP(KEY, 100)
        with pytest.raises(ValueError):
            prp.encrypt(100)
        with pytest.raises(ValueError):
            prp.decrypt(-1)


class TestEcbSemantics:
    def test_equal_inputs_equal_outputs(self):
        """The searchability property Stage 1 requires."""
        prp = FeistelPRP(KEY, 2 ** 16)
        assert prp.encrypt(12345) == prp.encrypt(12345)


@given(
    st.integers(2, 2 ** 20),
    st.data(),
)
def test_property_roundtrip(domain, data):
    prp = FeistelPRP(KEY, domain)
    value = data.draw(st.integers(0, domain - 1))
    image = prp.encrypt(value)
    assert 0 <= image < domain
    assert prp.decrypt(image) == value


@given(st.integers(2, 2 ** 32), st.data())
def test_property_wide_domains(domain, data):
    prp = FeistelPRP(b"wide", domain)
    value = data.draw(st.integers(0, domain - 1))
    assert prp.decrypt(prp.encrypt(value)) == value


class TestPermutationTable:
    def test_table_matches_encrypt(self):
        prp = FeistelPRP(KEY, 1000)  # non-power-of-2: cycle-walking
        table = prp.permutation_table()
        assert table is not None
        assert sorted(table) == list(range(1000))
        for value in range(0, 1000, 37):
            assert table[value] == prp.encrypt(value)

    def test_table_power_of_two_domain(self):
        prp = FeistelPRP(KEY, 2 ** 10)
        table = prp.permutation_table()
        assert [table[v] for v in range(64)] == [
            prp.encrypt(v) for v in range(64)
        ]

    def test_wide_domain_has_no_table(self):
        prp = FeistelPRP(KEY, 2 ** 24)
        assert prp.permutation_table() is None
