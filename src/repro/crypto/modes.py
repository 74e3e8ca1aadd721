"""Counter mode over the raw AES block cipher: the paper's "strong
encryption" of the record-store copy of each record.

The paper's other mode, the chunk-by-chunk "ECB" of Stage 1, is a
keyed pseudo-random permutation on chunk-sized domains and lives in
:class:`repro.crypto.feistel.FeistelPRP`.  CTR operates on ``bytes``,
returns ``bytes`` and is length-preserving.
"""

from __future__ import annotations

from repro.crypto.aes import AES


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
