"""The Song-Wagner-Perrig encrypted word-search scheme.

The paper's section 8: "Song's et al. method of encrypting while
allowing for word searches should be adapted to our system."  This
module implements that adaptation target: the final scheme of Song,
Wagner, Perrig, *Practical Techniques for Searches on Encrypted Data*
(IEEE S&P 2000) — sequential scan with hidden queries:

* Every word ``W`` is first deterministically pre-encrypted:
  ``X = E_master(W)``, split into ``X = L || R`` with ``|R| = m``
  check bits.
* Position ``i`` of a document gets a pseudo-random value
  ``S_i`` (derived from a per-document seed), and the stored
  ciphertext is ``C_i = X xor (S_i || F_{k_i}(S_i))`` where the
  per-word key ``k_i = f(L)`` depends only on the word.
* To search for ``W`` the client reveals ``(X, k)``; a server can now
  recognise positions holding ``W`` — ``C_i xor X = (s || t)`` with
  ``t = F_k(s)`` — but learns nothing about other words, and false
  positives occur with probability 2^-m per position.
* The client, knowing the seed, can always reconstruct ``S_i`` and
  thereby decrypt every position (scheme III of the SWP paper).

Word width is fixed at :data:`WORD_BYTES`; longer words are hashed
into the slot (the SWP paper's own suggestion), shorter ones padded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.aes import AES
from repro.crypto.prf import _IPAD, _OPAD, hkdf_derive, hmac_sha256

#: Fixed word-slot width in bytes (the SWP block).
WORD_BYTES = 16

#: Check-part width ``m`` in bytes; per-position false-positive
#: probability is 2^-(8 * CHECK_BYTES).
CHECK_BYTES = 4

LEFT_BYTES = WORD_BYTES - CHECK_BYTES

_HMAC_BLOCK = 64  # SHA-256 block size in bytes.


def _normalise(word: str) -> bytes:
    """Map a word into the fixed slot (pad short, hash long)."""
    raw = word.encode("utf-8")
    if len(raw) > WORD_BYTES:
        return hashlib.sha256(raw).digest()[:WORD_BYTES]
    return raw.ljust(WORD_BYTES, b"\x00")


def _xor(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError("xor of unequal lengths")
    return (
        int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    ).to_bytes(len(a), "big")


@dataclass(frozen=True)
class Trapdoor:
    """What the client reveals to search for one word: (X, k)."""

    pre_encrypted: bytes  # X = E(W)
    word_key: bytes       # k = f(L)

    @property
    def wire_size(self) -> int:
        """Serialized size of the search token a query actually ships
        (X plus k) — what scan request accounting bills."""
        return len(self.pre_encrypted) + len(self.word_key)


class SwpCipher:
    """Encrypt/search/decrypt word sequences per SWP scheme III.

    >>> swp = SwpCipher(b"master")
    >>> cells = swp.encrypt_words(7, ["HELLO", "WORLD"])
    >>> swp.match(cells[1], swp.trapdoor("WORLD"))
    True
    >>> swp.decrypt_words(7, cells)
    ['HELLO', 'WORLD']
    """

    def __init__(self, master_key: bytes) -> None:
        if not master_key:
            raise ValueError("master key must be non-empty")
        self._pre_key = hkdf_derive(master_key, b"swp/pre-encrypt", 16)
        self._word_key_key = hkdf_derive(master_key, b"swp/word-key", 32)
        self._seed_key = hkdf_derive(master_key, b"swp/stream-seed", 32)
        self._aes = AES(self._pre_key)

    # -- core SWP pieces ------------------------------------------------------

    def _pre_encrypt(self, word: str) -> bytes:
        """X = E_master(W), deterministic."""
        return self._aes.encrypt_block(_normalise(word))

    def _word_specific_key(self, left: bytes) -> bytes:
        """k = f(L): depends only on the word, revealable per query."""
        return hmac_sha256(self._word_key_key, left)[:16]

    def _stream_value(self, document_id: int, position: int) -> bytes:
        """S_i: the pseudo-random left part for one position."""
        message = document_id.to_bytes(8, "big") + position.to_bytes(
            8, "big"
        )
        return hmac_sha256(self._seed_key, message)[:LEFT_BYTES]

    @staticmethod
    def _check(word_key: bytes, s: bytes) -> bytes:
        """F_k(S): the check part binding S to the word key."""
        return hmac_sha256(word_key, s)[:CHECK_BYTES]

    @staticmethod
    def _hoisted_check(word_key: bytes):
        """A closure computing :meth:`_check` with the RFC-2104 key
        schedule built once instead of per call.

        A scan applies one word key to every cell in a bucket, so the
        key padding and the first compression of both HMAC passes are
        loop-invariant; streaming SHA-256 (``copy()`` + ``update()``)
        makes the reuse byte-identical to the reference construction.
        """
        if len(word_key) > _HMAC_BLOCK:
            word_key = hashlib.sha256(word_key).digest()
        padded = word_key.ljust(_HMAC_BLOCK, b"\x00")
        inner_base = hashlib.sha256(padded.translate(_IPAD))
        outer_base = hashlib.sha256(padded.translate(_OPAD))

        def check(s: bytes) -> bytes:
            inner = inner_base.copy()
            inner.update(s)
            outer = outer_base.copy()
            outer.update(inner.digest())
            return outer.digest()[:CHECK_BYTES]

        return check

    # -- public API ---------------------------------------------------------------

    def encrypt_word(self, document_id: int, position: int,
                     word: str) -> bytes:
        """One stored cell: C_i = X xor (S_i || F_{k}(S_i))."""
        x = self._pre_encrypt(word)
        word_key = self._word_specific_key(x[:LEFT_BYTES])
        s = self._stream_value(document_id, position)
        mask = s + self._check(word_key, s)
        return _xor(x, mask)

    def encrypt_words(self, document_id: int,
                      words: list[str]) -> list[bytes]:
        return [
            self.encrypt_word(document_id, position, word)
            for position, word in enumerate(words)
        ]

    def trapdoor(self, word: str) -> Trapdoor:
        """The search token revealed to the servers."""
        x = self._pre_encrypt(word)
        return Trapdoor(
            pre_encrypted=x,
            word_key=self._word_specific_key(x[:LEFT_BYTES]),
        )

    @staticmethod
    def match(cell: bytes, trapdoor: Trapdoor) -> bool:
        """Server-side test — needs no keys beyond the trapdoor.

        ``cell xor X`` must have the form ``s || F_k(s)``.
        """
        if len(cell) != WORD_BYTES:
            raise ValueError("malformed SWP cell")
        masked = _xor(cell, trapdoor.pre_encrypted)
        s, t = masked[:LEFT_BYTES], masked[LEFT_BYTES:]
        return SwpCipher._check(trapdoor.word_key, s) == t

    @staticmethod
    def match_positions(
        cells: bytes | memoryview,
        trapdoors: "tuple[Trapdoor, ...] | list[Trapdoor]",
        checks: "list | None" = None,
    ) -> list[list[int]]:
        """Batched :meth:`match` over a whole cell blob, per trapdoor.

        The blob becomes one big integer once; each trapdoor unmasks
        every 16-byte cell in one XOR against ``X`` repeated across the
        blob instead of a per-cell Python loop.  ``checks`` optionally
        supplies the hoisted HMAC closures (:meth:`_hoisted_check` per
        trapdoor) so a matcher compiles them once instead of once per
        record; one HMAC *finalisation* per cell is irreducible — each
        position needs its own ``F_k(s)``.  Returns, per trapdoor, the
        matching cell positions ascending, exactly as per-cell
        :meth:`match` calls would.
        """
        length = len(cells)
        if length % WORD_BYTES:
            raise ValueError("malformed SWP cell blob")
        count = length // WORD_BYTES
        if not count:
            return [[] for _ in trapdoors]
        cells_int = int.from_bytes(cells, "big")
        if checks is None:
            checks = [
                SwpCipher._hoisted_check(trapdoor.word_key)
                for trapdoor in trapdoors
            ]
        results = []
        for trapdoor, check in zip(trapdoors, checks):
            mask = int.from_bytes(trapdoor.pre_encrypted * count, "big")
            masked = (cells_int ^ mask).to_bytes(length, "big")
            positions = []
            for position in range(count):
                base = position * WORD_BYTES
                split = base + LEFT_BYTES
                if check(masked[base:split]) == masked[
                        split:base + WORD_BYTES]:
                    positions.append(position)
            results.append(positions)
        return results

    def decrypt_word(self, document_id: int, position: int,
                     cell: bytes) -> bytes:
        """Recover X (the deterministic word image) and invert it.

        The client rebuilds S_i from the seed, recovers L, recomputes
        the word key, strips the check part, and block-decrypts.
        Returns the normalised word slot (padded/hashed form).
        """
        s = self._stream_value(document_id, position)
        left = _xor(cell[:LEFT_BYTES], s)
        word_key = self._word_specific_key(left)
        right = _xor(cell[LEFT_BYTES:], self._check(word_key, s))
        return self._aes.decrypt_block(left + right)

    def decrypt_words(self, document_id: int,
                      cells: list[bytes]) -> list[str]:
        """Decrypt a whole document back to its word list.

        Only words that fit the slot un-hashed are recoverable as
        text (hashed overlong words come back as their digest form) —
        the SWP paper has the same asymmetry.
        """
        words = []
        for position, cell in enumerate(cells):
            slot = self.decrypt_word(document_id, position, cell)
            words.append(slot.rstrip(b"\x00").decode("utf-8",
                                                     errors="replace"))
        return words
