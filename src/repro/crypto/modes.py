"""Block-cipher modes of operation over the raw AES block cipher.

* :class:`EcbCipher` — the mode the paper names for index chunks when a
  chunk happens to be a whole number of AES blocks (rare; the usual
  chunk-sized ECB lives in :mod:`repro.crypto.feistel`).
* :class:`CbcCipher` and :class:`CtrCipher` — the "strong encryption"
  used for the record-store copy of each record.

All modes operate on ``bytes`` and return ``bytes``.  CBC uses PKCS#7
padding; CTR is length-preserving.
"""

from __future__ import annotations

from repro.crypto.aes import AES


def pkcs7_pad(data: bytes, block_size: int = 16) -> bytes:
    """Append PKCS#7 padding up to a multiple of ``block_size``."""
    if not 1 <= block_size <= 255:
        raise ValueError("block size must be in 1..255")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len] * pad_len)


def pkcs7_unpad(data: bytes, block_size: int = 16) -> bytes:
    """Strip PKCS#7 padding; raises ValueError on malformed padding."""
    if not data or len(data) % block_size:
        raise ValueError("padded data length must be a positive multiple "
                         "of the block size")
    pad_len = data[-1]
    if not 1 <= pad_len <= block_size:
        raise ValueError("invalid padding length byte")
    if data[-pad_len:] != bytes([pad_len] * pad_len):
        raise ValueError("invalid padding bytes")
    return data[:-pad_len]


class EcbCipher:
    """Electronic Code Book over whole AES blocks.

    Deterministic by construction — equal plaintext blocks yield equal
    ciphertext blocks — which is precisely the property the paper's
    index records exploit (and the property its Stages 2 and 3 then
    have to defend).
    """

    def __init__(self, key: bytes) -> None:
        self._aes = AES(key)

    def encrypt(self, plaintext: bytes) -> bytes:
        padded = pkcs7_pad(plaintext)
        return b"".join(
            self._aes.encrypt_block(padded[i:i + 16])
            for i in range(0, len(padded), 16)
        )

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) % 16:
            raise ValueError("ciphertext length must be a multiple of 16")
        padded = b"".join(
            self._aes.decrypt_block(ciphertext[i:i + 16])
            for i in range(0, len(ciphertext), 16)
        )
        return pkcs7_unpad(padded)


class CbcCipher:
    """Cipher Block Chaining with an explicit IV and PKCS#7 padding."""

    def __init__(self, key: bytes) -> None:
        self._aes = AES(key)

    def encrypt(self, plaintext: bytes, iv: bytes) -> bytes:
        if len(iv) != 16:
            raise ValueError("CBC IV must be 16 bytes")
        padded = pkcs7_pad(plaintext)
        out = bytearray()
        previous = iv
        for i in range(0, len(padded), 16):
            block = bytes(a ^ b for a, b in zip(padded[i:i + 16], previous))
            previous = self._aes.encrypt_block(block)
            out.extend(previous)
        return bytes(out)

    def decrypt(self, ciphertext: bytes, iv: bytes) -> bytes:
        if len(iv) != 16:
            raise ValueError("CBC IV must be 16 bytes")
        if not ciphertext or len(ciphertext) % 16:
            raise ValueError("ciphertext length must be a positive "
                             "multiple of 16")
        out = bytearray()
        previous = iv
        for i in range(0, len(ciphertext), 16):
            block = ciphertext[i:i + 16]
            plain = self._aes.decrypt_block(block)
            out.extend(a ^ b for a, b in zip(plain, previous))
            previous = block
        return pkcs7_unpad(bytes(out))


class CtrCipher:
    """Counter mode: length-preserving, nonce-based stream encryption."""

    def __init__(self, key: bytes) -> None:
        self._aes = AES(key)

    def _keystream(self, nonce: bytes, nblocks: int) -> bytes:
        if len(nonce) != 8:
            raise ValueError("CTR nonce must be 8 bytes")
        encrypt_block = self._aes.encrypt_block
        return b"".join(
            encrypt_block(nonce + counter.to_bytes(8, "big"))
            for counter in range(nblocks)
        )

    def encrypt(self, plaintext: bytes, nonce: bytes) -> bytes:
        length = len(plaintext)
        stream = self._keystream(nonce, (length + 15) // 16)
        # One big-integer XOR; the shift drops the unused tail of the
        # last keystream block.
        return (
            int.from_bytes(plaintext, "big")
            ^ int.from_bytes(stream, "big") >> 8 * (len(stream) - length)
        ).to_bytes(length, "big")

    # CTR decryption is the same XOR with the same keystream.
    decrypt = encrypt
