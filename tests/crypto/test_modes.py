"""CTR mode, the record store's strong encryption."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.modes import CtrCipher

KEY = bytes(range(16))
NONCE = bytes(8)


class TestCtr:
    def test_roundtrip_any_length(self):
        ctr = CtrCipher(KEY)
        for n in (0, 1, 15, 16, 17, 100):
            msg = bytes(range(256))[:n]
            assert ctr.decrypt(ctr.encrypt(msg, NONCE), NONCE) == msg

    def test_length_preserving(self):
        ctr = CtrCipher(KEY)
        assert len(ctr.encrypt(b"abc", NONCE)) == 3

    def test_nonce_separation(self):
        ctr = CtrCipher(KEY)
        other = b"\x01" + bytes(7)
        assert ctr.encrypt(b"same", NONCE) != ctr.encrypt(b"same", other)

    def test_bad_nonce_length(self):
        with pytest.raises(ValueError):
            CtrCipher(KEY).encrypt(b"x", b"short")


@given(st.binary(max_size=200), st.binary(min_size=8, max_size=8))
def test_property_ctr_roundtrip(msg, nonce):
    ctr = CtrCipher(KEY)
    assert ctr.decrypt(ctr.encrypt(msg, nonce), nonce) == msg
