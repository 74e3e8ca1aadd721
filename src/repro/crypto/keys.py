"""Key hierarchy for the complete scheme.

One master secret is held by the (trusted) client.  Every cryptographic
component of the scheme gets its own derived sub-key so that no storage
site learns anything usable about another component:

* the record-store key (strong AES encryption of whole records);
* one chunk-PRP key per chunking offset (Stage 1 ECB), so identical
  chunks in *different* chunkings do not correlate across sites;
* per-record IV/nonce derivation for the record store.

Derivation uses HKDF with explicit context labels.
"""

from __future__ import annotations

from repro.crypto.prf import hkdf_expand, hkdf_extract


class KeyHierarchy:
    """Derives the scheme's sub-keys from a single master secret.

    >>> kh = KeyHierarchy(b"master secret")
    >>> kh.record_store_key() == kh.record_store_key()
    True
    >>> kh.chunking_key(0) != kh.chunking_key(1)
    True
    """

    def __init__(self, master: bytes, key_length: int = 16) -> None:
        if not master:
            raise ValueError("master secret must be non-empty")
        if key_length not in (16, 24, 32):
            raise ValueError("key length must be an AES key size")
        # Extract once: every sub-key is an expand of this one PRK.
        self._prk = hkdf_extract(bytes(master))
        self.key_length = key_length

    def _derive(self, label: bytes, length: int | None = None) -> bytes:
        return hkdf_expand(
            self._prk, b"repro/" + label, length or self.key_length
        )

    def record_store_key(self) -> bytes:
        """AES key for the strongly encrypted record-store copy."""
        return self._derive(b"record-store")

    def chunking_key(self, chunking_id: int) -> bytes:
        """Stage-1 PRP key for chunking offset ``chunking_id``."""
        if chunking_id < 0:
            raise ValueError("chunking id must be non-negative")
        return self._derive(b"chunking/" + str(chunking_id).encode())

    def record_nonce(self, rid: int) -> bytes:
        """Deterministic 8-byte CTR nonce for record ``rid``.

        Deterministic per (master, rid) so re-encrypting the same
        record is idempotent; distinct records get independent nonces.
        """
        if rid < 0:
            raise ValueError("record identifier must be non-negative")
        return self._derive(b"nonce/" + str(rid).encode(), 8)

    def subkey(self, label: str, length: int | None = None) -> bytes:
        """Escape hatch for additional labelled sub-keys."""
        return self._derive(b"custom/" + label.encode(), length)
