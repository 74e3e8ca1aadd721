"""AES validated against the FIPS-197 appendix C vectors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.aes import AES

from .reference_aes import ReferenceAES

PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

VECTORS = [
    # (key hex, expected ciphertext hex) — FIPS-197 appendix C.1-C.3.
    (
        "000102030405060708090a0b0c0d0e0f",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    ),
    (
        "000102030405060708090a0b0c0d0e0f1011121314151617",
        "dda97ca4864cdfe06eaf70a0ec0d7191",
    ),
    (
        "000102030405060708090a0b0c0d0e0f"
        "101112131415161718191a1b1c1d1e1f",
        "8ea2b7ca516745bfeafc49904b496089",
    ),
]


class TestVectors:
    @pytest.mark.parametrize("key_hex,ct_hex", VECTORS)
    def test_fips197_encrypt(self, key_hex, ct_hex):
        aes = AES(bytes.fromhex(key_hex))
        assert aes.encrypt_block(PLAINTEXT) == bytes.fromhex(ct_hex)

    def test_appendix_b_vector(self):
        # FIPS-197 appendix B: a different key/plaintext pair.
        aes = AES(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        ct = aes.encrypt_block(
            bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        )
        assert ct == bytes.fromhex("3925841d02dc09fbdc118597196a0b32")


class TestInterface:
    def test_rejects_bad_key_length(self):
        with pytest.raises(ValueError):
            AES(b"short")

    def test_rejects_bad_block_length(self):
        aes = AES(bytes(16))
        with pytest.raises(ValueError):
            aes.encrypt_block(b"x" * 15)
        with pytest.raises(ValueError):
            aes.encrypt_block(b"x" * 17)

    def test_deterministic(self):
        aes = AES(bytes(16))
        assert aes.encrypt_block(bytes(16)) == aes.encrypt_block(bytes(16))

    def test_key_sensitivity(self):
        a = AES(bytes(16)).encrypt_block(bytes(16))
        b = AES(bytes(15) + b"\x01").encrypt_block(bytes(16))
        assert a != b


@given(
    st.binary(min_size=16, max_size=16),
    st.sampled_from([16, 24, 32]).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    ),
)
def test_property_ttable_round_equals_spec_round(block, key):
    """The T-table rounds are the FIPS-197 rounds, for every key size."""
    assert AES(key).encrypt_block(block) == (
        ReferenceAES(key).encrypt_block(block)
    )


@pytest.mark.parametrize("key_hex,ct_hex", VECTORS)
def test_reference_round_passes_fips197(key_hex, ct_hex):
    """The oracle is itself pinned to the standard's vectors."""
    aes = ReferenceAES(bytes.fromhex(key_hex))
    assert aes.encrypt_block(PLAINTEXT) == bytes.fromhex(ct_hex)


@given(st.binary(min_size=16, max_size=16), st.integers(0, 127))
def test_property_avalanche(block, bit):
    """Flipping one plaintext bit flips many ciphertext bits."""
    aes = AES(b"\xAB" * 16)
    flipped = bytearray(block)
    flipped[bit // 8] ^= 1 << (bit % 8)
    a = aes.encrypt_block(block)
    b = aes.encrypt_block(bytes(flipped))
    distance = sum(
        bin(x ^ y).count("1") for x, y in zip(a, b)
    )
    assert distance >= 30  # ideal is ~64 of 128; 30 is a loose floor
