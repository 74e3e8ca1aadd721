"""Compression-based index store: the third index design of §8.

The paper's closing section proposes "searchable compression as a main
means of redundancy removal".  This store realises that design end to
end, as a sibling of the chunk scheme (§5) and the SWP word store:

* records are strongly encrypted in the record store as usual;
* the index record of a document is its :class:`PairCompressor`
  stream with every code passed through a keyed PRP — code-level ECB,
  so equal codes stay equal and the compressor's edge-variant search
  still works on ciphertext;
* a query ships the PRP images of its (up to four) encoded edge
  variants; sites match them as plain subsequences.

Compared with the chunk scheme: **one** index record per document
(storage *below* the record size instead of a multiple of it), no
minimum query length beyond what the variants require, but coarser
leakage — the code stream preserves the document's compressed length
and local repetition at code granularity, and there is no dispersion
stage.  ``benchmarks/bench_index_designs.py`` measures the triangle.
"""

from __future__ import annotations

from functools import cached_property

from repro.core.automaton import ScanAutomaton, needles_automaton
from repro.core.errors import ConfigurationError
from repro.core.kernels import fused_codec
from repro.core.scheme import SearchResult
from repro.crypto.feistel import FeistelPRP
from repro.crypto.keys import KeyHierarchy
from repro.crypto.modes import CtrCipher
from repro.extensions.compression import PairCompressor
from repro.net.simulator import Network
from repro.sdds.haystack import BucketHaystack
from repro.sdds.lhstar import LHStarFile


class CompressedScanMatcher:
    """Scan matcher for a batch of compressed-index queries — one
    pattern is a batch of one (:meth:`CompressedSearchStore.search_batch`).

    ``needle_groups[index]`` is pattern ``index``'s encrypted
    edge-variant tuple.  Hits are ``(rid, (pattern indexes...))`` in
    record order.  :meth:`match_bucket` answers every needle from one
    automaton over all groups' needles, routed through the bucket's
    shared gram index when its thresholds say the single sweep wins
    (:mod:`repro.core.automaton`), else through
    ``haystack.find_records``.
    """

    def __init__(
        self, needle_groups: tuple[tuple[bytes, ...], ...]
    ) -> None:
        self.needle_groups = needle_groups

    @cached_property
    def _automaton(self) -> ScanAutomaton:
        return needles_automaton([
            needle
            for needles in self.needle_groups
            for needle in needles
        ])

    def match_bucket(self, haystack: BucketHaystack):
        compiled = self._automaton
        per_group: list[set[int]] = []
        for needles in self.needle_groups:
            matched: set[int] = set()
            for needle in needles:
                matched.update(compiled.lookup_records(haystack, needle))
            per_group.append(matched)
        any_group = set().union(*per_group)
        return [
            (rid, tuple(
                index
                for index, matched in enumerate(per_group)
                if rid in matched
            ))
            for rid in haystack.rids
            if rid in any_group
        ]


class CompressedSearchStore:
    """Record store + PRP-encrypted compressed index over LH* files.

    >>> corpus = [b"SCHWARZ THOMAS", b"LITWIN WITOLD"]
    >>> store = CompressedSearchStore(b"key", corpus)
    >>> store.put(1, "SCHWARZ THOMAS")
    >>> 1 in store.search("CHWAR").matches
    True
    """

    def __init__(
        self,
        master_key: bytes,
        training_corpus: list[bytes],
        max_pairs: int = 64,
        lossy_codes: int | None = None,
        bucket_capacity: int = 128,
        name: str = "csi",
    ) -> None:
        self.compressor = PairCompressor.train(
            training_corpus, max_pairs=max_pairs, lossy_codes=lossy_codes
        )
        if self.compressor.code_width != 1:
            raise ConfigurationError(
                "compressed index currently supports one-byte code "
                "spaces (up to 256 codes); lower max_pairs or use "
                "lossy_codes"
            )
        self.network = Network()
        keys = KeyHierarchy(master_key)
        self._keys = keys
        self._record_cipher = CtrCipher(keys.record_store_key())
        # Code-level ECB: a PRP over the byte code space keeps stream
        # positions byte-for-byte substitutable.  A 256-value domain
        # always has a ``bytes.translate`` table; it comes from the
        # shared fused-codec registry (one per PRP key, cached across
        # stores).
        self._prp = FeistelPRP(keys.subkey("compressed-index"), 256)
        self._code_map: bytes = fused_codec(
            prp=self._prp, disperser=None, piece_width=1, domain=256
        ).translate_table(0)
        self.record_file = LHStarFile(
            name=f"{name}-store", network=self.network,
            bucket_capacity=bucket_capacity,
        )
        self.index_file = LHStarFile(
            name=f"{name}-index", network=self.network,
            bucket_capacity=bucket_capacity,
        )
        self._rids: set[int] = set()

    # -- data plane --------------------------------------------------------------

    def _encrypt_stream(self, stream: bytes) -> bytes:
        return stream.translate(self._code_map)

    def put(self, rid: int, text: str) -> None:
        """Store the strong copy plus the encrypted code stream.

        Overwrite semantics: a ``put`` on an already-present rid is an
        in-place replacement — both LH* inserts land on the same keys,
        so the old ciphertext and the old index stream are replaced
        wholesale (and the owning bucket drops its scan haystack);
        retired content must never match again.
        """
        content = text.encode("ascii")
        self.record_file.insert(
            rid,
            self._record_cipher.encrypt(
                content, self._keys.record_nonce(rid)
            ),
        )
        stream = self.compressor.encode(content)
        self.index_file.insert(rid, self._encrypt_stream(stream))
        self._rids.add(rid)

    def get(self, rid: int) -> str | None:
        ciphertext = self.record_file.lookup(rid)
        if ciphertext is None:
            return None
        return self._record_cipher.decrypt(
            ciphertext, self._keys.record_nonce(rid)
        ).decode("ascii")

    def delete(self, rid: int) -> bool:
        removed = self.record_file.delete(rid)
        if removed:
            self.index_file.delete(rid)
            self._rids.discard(rid)
        return removed

    def __len__(self) -> int:
        return len(self._rids)

    # -- search ---------------------------------------------------------------------

    def search(self, pattern: str, verify: bool = True
               ) -> SearchResult:
        """One-round parallel search via encrypted edge variants: a
        batch of one (:meth:`search_batch`)."""
        return self.search_batch([pattern], verify)[pattern]

    def search_batch(
        self, patterns: list[str], verify: bool = True
    ) -> dict[str, SearchResult]:
        """Run many independent searches in one parallel scan round.

        All patterns' edge-variant needles ship in one scan message
        per bucket, and every needle answers from the bucket's shared
        gram index — one haystack sweep for the whole batch instead of
        one per needle.  Cost accounting follows
        :meth:`EncryptedSearchableStore.search_batch`: the scan round
        and the verification fetches are shared (each candidate record
        is fetched once), so every per-pattern result carries the
        shared totals.
        """
        if not patterns:
            raise ConfigurationError("need at least one pattern")
        unique = list(dict.fromkeys(patterns))
        needle_groups = tuple(
            tuple(
                self._encrypt_stream(variant)
                for variant in self.compressor.pattern_variants(
                    pattern.encode("ascii")
                )
            )
            for pattern in unique
        )
        before = self.network.stats.snapshot()
        started = self.network.now
        matcher = CompressedScanMatcher(needle_groups)
        # Real serialized query size, per pattern: a 1-byte variant
        # count, then per needle a 2-byte length prefix plus the needle
        # bytes (the variants have differing lengths, so bare
        # concatenation would not be decodable).
        request_size = sum(
            1 + sum(2 + len(needle) for needle in needles)
            for needles in needle_groups
        )
        hits = self.index_file.scan(matcher, request_size=request_size)
        after_scan = self.network.stats.snapshot()
        per_pattern: list[set[int]] = [set() for _ in unique]
        for rid, indexes in hits:
            for index in indexes:
                per_pattern[index].add(rid)
        text_cache: dict[int, str | None] = {}
        outcomes: list[tuple[str, set[int], set[int]]] = []
        for pattern, candidates in zip(unique, per_pattern):
            if verify:
                matches = set()
                for rid in candidates:
                    if rid not in text_cache:
                        text_cache[rid] = self.get(rid)
                    text = text_cache[rid]
                    if text is not None and pattern in text:
                        matches.add(rid)
            else:
                matches = set(candidates)
            outcomes.append((pattern, candidates, matches))
        stats = self.network.stats
        cost = stats.diff(before)
        elapsed = self.network.now - started
        scan_cost = after_scan.diff(before)
        verify_cost = stats.diff(after_scan)
        return {
            pattern: SearchResult(
                pattern=pattern,
                candidates=frozenset(candidates),
                matches=frozenset(matches),
                false_positives=frozenset(candidates - matches),
                cost=cost,
                elapsed=elapsed,
                scan_cost=scan_cost,
                verify_cost=verify_cost,
            )
            for pattern, candidates, matches in outcomes
        }

    def index_bytes(self) -> int:
        """Total stored index bytes (the design's headline economy)."""
        return sum(
            len(record.content)
            for record in self.index_file.all_records()
        )
