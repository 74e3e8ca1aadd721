"""Word-search store: the paper's §8 adaptation of Song et al.

"Finally, Song's et al. method of encrypting while allowing for word
searches should be adapted to our system."  This module performs that
adaptation: record contents are tokenised into words, each word
position is encrypted with the SWP scheme
(:mod:`repro.extensions.swp`), and the resulting cell sequences are stored
as index records in an LH* file next to the strongly encrypted record
store — the same two-file layout as the substring scheme of §5.

A search ships one *trapdoor* to all index sites in a single parallel
scan round; sites match cells locally without learning the word.

Contrast with the substring scheme (the paper's §1 motivation for not
just using SWP):

* SWP finds **whole words only** — no substrings, no patterns;
* per-position false positives are cryptographically rare (2^-32 here)
  instead of structural;
* storage is exactly one cell per word (16 bytes), independent of
  chunk-size choices.

``benchmarks/bench_extensions.py`` measures both schemes side by side.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from repro.core.errors import ConfigurationError, RecordNotFoundError
from repro.crypto.keys import KeyHierarchy
from repro.crypto.modes import CtrCipher
from repro.extensions.swp import WORD_BYTES, SwpCipher, Trapdoor
from repro.net.simulator import Network
from repro.net.stats import NetworkStats
from repro.sdds.haystack import BucketHaystack
from repro.sdds.lhstar import LHStarFile

_WORD_RE = re.compile(r"[A-Za-z0-9&'-]+")


def tokenize(text: str) -> list[str]:
    """The word tokens of a record (SWP operates on whole words)."""
    return _WORD_RE.findall(text)


class WordScanMatcher:
    """Scan matcher for a batch of SWP trapdoors — one word is a batch
    of one (:meth:`EncryptedWordStore.search_batch`).

    Each record's cell blob is converted to a big integer **once** and
    unmasked per trapdoor
    (:meth:`repro.extensions.swp.SwpCipher.match_positions`), with the
    per-trapdoor HMAC key schedules compiled once per matcher — K
    words cost one scan round and one blob conversion instead of K of
    each.  Hits are ``(rid, ((word index, positions), ...))`` in
    record order.
    """

    def __init__(self, trapdoors: tuple[Trapdoor, ...]) -> None:
        self.trapdoors = trapdoors

    @cached_property
    def _compiled_checks(self) -> list:
        """The hoisted per-trapdoor HMAC closures, built once and
        shared by every record this matcher scans."""
        return [
            SwpCipher._hoisted_check(trapdoor.word_key)
            for trapdoor in self.trapdoors
        ]

    def _hits(self, cells: bytes | memoryview) -> tuple:
        per_trapdoor = SwpCipher.match_positions(
            cells, self.trapdoors, self._compiled_checks
        )
        return tuple(
            (index, tuple(positions))
            for index, positions in enumerate(per_trapdoor)
            if positions
        )

    def match_bucket(self, haystack: BucketHaystack):
        hits = []
        for rid, cells in haystack.segments():
            reports = self._hits(cells)
            if reports:
                hits.append((rid, reports))
        return hits


@dataclass(frozen=True)
class WordSearchResult:
    """Outcome of one word search."""

    word: str
    matches: frozenset[int]
    positions: dict[int, tuple[int, ...]]
    cost: NetworkStats


class EncryptedWordStore:
    """Record store + SWP word index over LH* files.

    >>> store = EncryptedWordStore(b"demo-key")
    >>> store.put(7, "415-409-9999 SCHWARZ THOMAS")
    >>> 7 in store.search("SCHWARZ").matches
    True
    >>> store.search("SCHWAR").matches  # words only — no substrings
    frozenset()
    """

    def __init__(
        self,
        master_key: bytes,
        bucket_capacity: int = 128,
        name: str = "words",
    ) -> None:
        self.network = Network()
        keys = KeyHierarchy(master_key)
        self._keys = keys
        self._record_cipher = CtrCipher(keys.record_store_key())
        self._swp = SwpCipher(keys.subkey("swp-words", 32))
        self.record_file = LHStarFile(
            name=f"{name}-store", network=self.network,
            bucket_capacity=bucket_capacity,
        )
        self.index_file = LHStarFile(
            name=f"{name}-index", network=self.network,
            bucket_capacity=bucket_capacity,
        )
        self._rids: set[int] = set()

    # -- data plane ------------------------------------------------------------

    def put(self, rid: int, text: str) -> None:
        """Store the strong copy plus the SWP cell sequence.

        Overwrite semantics: a ``put`` on an already-present rid is an
        in-place replacement.  Both LH* inserts land on the same keys,
        so the old ciphertext and the old cell sequence are replaced
        wholesale (and the owning bucket drops its scan haystack) —
        retired words must never match again.
        """
        content = text.encode("utf-8")
        ciphertext = self._record_cipher.encrypt(
            content, self._keys.record_nonce(rid)
        )
        self.record_file.insert(rid, ciphertext)
        cells = self._swp.encrypt_words(rid, tokenize(text))
        self.index_file.insert(rid, b"".join(cells))
        self._rids.add(rid)

    def get(self, rid: int) -> str | None:
        ciphertext = self.record_file.lookup(rid)
        if ciphertext is None:
            return None
        content = self._record_cipher.decrypt(
            ciphertext, self._keys.record_nonce(rid)
        )
        return content.decode("utf-8")

    def delete(self, rid: int) -> bool:
        removed = self.record_file.delete(rid)
        if removed:
            self.index_file.delete(rid)
            self._rids.discard(rid)
        return removed

    def __len__(self) -> int:
        return len(self._rids)

    # -- search -----------------------------------------------------------------

    def search(self, word: str) -> WordSearchResult:
        """One-round parallel word search with a hidden query: a batch
        of one (:meth:`search_batch`)."""
        return self.search_batch([word])[word]

    def search_batch(self, words: list[str]
                     ) -> dict[str, WordSearchResult]:
        """Run many independent word searches in one scan round.

        The scan request bills the trapdoors' real serialized size
        (``X`` plus ``k``, 32 bytes each) — what each index site
        actually receives.  K trapdoors ship in one scan message per
        bucket and each index record's cell blob is unmasked for all
        of them off a single big-integer conversion.  The scan round
        is shared, so every per-word result carries the shared cost —
        mirroring
        :meth:`EncryptedSearchableStore.search_batch`.
        """
        if not words:
            raise ConfigurationError("need at least one word")
        unique = list(dict.fromkeys(words))
        trapdoors = tuple(self._swp.trapdoor(word) for word in unique)
        before = self.network.stats.snapshot()
        raw_hits = self.index_file.scan(
            WordScanMatcher(trapdoors),
            request_size=sum(t.wire_size for t in trapdoors),
        )
        per_word: list[dict[int, tuple[int, ...]]] = [
            {} for _ in unique
        ]
        for rid, reports in raw_hits:
            for index, positions in reports:
                per_word[index][rid] = positions
        cost = self.network.stats.diff(before)
        return {
            word: WordSearchResult(
                word=word,
                matches=frozenset(positions),
                positions=positions,
                cost=cost,
            )
            for word, positions in zip(unique, per_word)
        }

    def decrypt_index_of(self, rid: int) -> list[str]:
        """Client-side full decryption of a record's word cells
        (SWP scheme III: the data owner can always decrypt)."""
        cells_blob = self.index_file.lookup(rid)
        if cells_blob is None:
            raise RecordNotFoundError(f"no index record for rid {rid}")
        cells = [
            cells_blob[i:i + WORD_BYTES]
            for i in range(0, len(cells_blob), WORD_BYTES)
        ]
        return self._swp.decrypt_words(rid, cells)
