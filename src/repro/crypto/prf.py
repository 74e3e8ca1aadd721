"""Keyed pseudo-random functions and key derivation.

Built on ``hashlib``'s SHA-256 (standard library).  Provides:

* :func:`hmac_sha256` — RFC-2104 HMAC, written out explicitly rather
  than via :mod:`hmac` so the construction is visible and testable
  against RFC-4231 vectors.
* :func:`hkdf_derive` — HKDF extract-and-expand; the key hierarchy
  runs :func:`hkdf_extract` once and :func:`hkdf_expand` per sub-key.
* :func:`prf_int` — a keyed PRF with integer output in ``range(2**bits)``,
  the round function of the Feistel PRP.
"""

from __future__ import annotations

import hashlib

_BLOCK_SIZE = 64  # SHA-256 block size in bytes.
# key XOR opad / key XOR ipad as byte-translation tables.
_OPAD = bytes(b ^ 0x5C for b in range(256))
_IPAD = bytes(b ^ 0x36 for b in range(256))


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """RFC-2104 HMAC with SHA-256."""
    if len(key) > _BLOCK_SIZE:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK_SIZE, b"\x00")
    o_key = key.translate(_OPAD)
    i_key = key.translate(_IPAD)
    inner = hashlib.sha256(i_key + message).digest()
    return hashlib.sha256(o_key + inner).digest()


def hkdf_extract(master: bytes, salt: bytes = b"") -> bytes:
    """HKDF (RFC 5869) step 1: the pseudo-random key of ``master``."""
    return hmac_sha256(salt if salt else bytes(32), master)


def hkdf_expand(prk: bytes, info: bytes, length: int = 32) -> bytes:
    """HKDF (RFC 5869) step 2: ``length`` bytes keyed on ``prk``.

    ``info`` is the context label that separates sub-keys; distinct
    labels give computationally independent keys.
    """
    if length <= 0 or length > 255 * 32:
        raise ValueError("derived length must be in 1..8160 bytes")
    blocks = []
    previous = b""
    counter = 1
    while sum(len(b) for b in blocks) < length:
        previous = hmac_sha256(prk, previous + info + bytes([counter]))
        blocks.append(previous)
        counter += 1
    return b"".join(blocks)[:length]


def hkdf_derive(
    master: bytes,
    info: bytes,
    length: int = 32,
    salt: bytes = b"",
) -> bytes:
    """HKDF (RFC 5869) extract-and-expand keyed on ``master``."""
    return hkdf_expand(hkdf_extract(master, salt), info, length)


def prf_int(key: bytes, message: bytes, bits: int) -> int:
    """A keyed PRF returning an integer uniform over ``range(2**bits)``.

    For bits <= 256 a single HMAC suffices; wider outputs chain
    counter-indexed HMAC blocks.
    """
    if bits <= 0:
        raise ValueError("bits must be positive")
    nbytes = (bits + 7) // 8
    digest = b""
    counter = 0
    while len(digest) < nbytes:
        digest += hmac_sha256(key, message + counter.to_bytes(4, "big"))
        counter += 1
    value = int.from_bytes(digest[:nbytes], "big")
    return value & ((1 << bits) - 1)
