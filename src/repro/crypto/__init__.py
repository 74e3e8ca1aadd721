"""Cryptographic substrate.

The paper needs two distinct encryption tools:

1. **Strong encryption for the record store.**  "We strongly encrypt the
   records themselves."  We provide AES (implemented from scratch
   against FIPS-197, validated by the official test vectors) in CTR
   mode with a per-record nonce derived from the record identifier.

2. **A deterministic pseudo-random permutation (ECB) on chunk-sized
   domains.**  Stage 1 encrypts each chunk independently with ECB so
   equal chunks stay equal and chunk-aligned search still works.  Chunk
   widths are far below AES's 128-bit block (16-48 bits are typical),
   so we build a balanced Feistel PRP over an arbitrary bit-width with
   an HMAC-based round function and cycle-walking for odd widths — the
   standard format-preserving-encryption construction.

Key material is organised by :class:`repro.crypto.keys.KeyHierarchy`,
which derives independent sub-keys for the record store, each chunking
and each dispersal site from one master secret.
"""

from repro.crypto.aes import AES
from repro.crypto.feistel import FeistelPRP
from repro.crypto.keys import KeyHierarchy
from repro.crypto.modes import CtrCipher
from repro.crypto.prf import hkdf_derive, hmac_sha256, prf_int

__all__ = [
    "AES",
    "FeistelPRP",
    "KeyHierarchy",
    "CtrCipher",
    "hmac_sha256",
    "hkdf_derive",
    "prf_int",
]
