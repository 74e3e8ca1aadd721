"""Cost accounting invariants across the search entry points.

Regressions for two bookkeeping bugs: ``search_batch``/``search_all``
used to snapshot cost *before* verification while ``search`` snapshots
after (so batch costs silently excluded the candidate fetches), and
scan-reply hit accounting billed every structured hit a flat 8 bytes
regardless of its positions payload.
"""

import pytest

from repro.core import EncryptedSearchableStore, SchemeParameters
from repro.core.search import SiteHit
from repro.extensions import CompressedSearchStore, EncryptedWordStore
from repro.sdds.lhstar import HEADER_SIZE, _hit_size

RECORDS = {
    1: "SCHWARZ THOMAS",
    2: "LITWIN WITOLD",
    3: "THOMAS SCHWARZ",
    4: "TSUI PETER",
    5: "SCHWARZMANN THOMAS",
}


def fresh_store():
    store = EncryptedSearchableStore(SchemeParameters.full(4))
    for rid, text in RECORDS.items():
        store.put(rid, text)
    return store


class TestEntryPointParity:
    def test_single_vs_batch_total_cost(self):
        """search(p) and search_batch([p]) do identical work and must
        report identical totals — including verification."""
        single = fresh_store().search("SCHWARZ")
        batch = fresh_store().search_batch(["SCHWARZ"])["SCHWARZ"]
        assert single.matches == batch.matches
        assert single.cost.messages == batch.cost.messages
        assert single.cost.bytes == batch.cost.bytes
        assert single.scan_cost.bytes == batch.scan_cost.bytes
        assert single.verify_cost.bytes == batch.verify_cost.bytes
        assert single.elapsed == pytest.approx(batch.elapsed)

    def test_batch_cost_includes_verification(self):
        """The old bug: per-pattern batch results carried only the
        scan-round cost.  Candidates exist, so verification fetched
        records and the total must exceed the scan alone."""
        result = fresh_store().search_batch(["SCHWARZ"])["SCHWARZ"]
        assert result.candidates
        assert result.verify_cost.messages > 0
        assert result.cost.messages > result.scan_cost.messages

    def test_batch_results_share_round_totals(self):
        """One scan round + one shared verification pass: every
        pattern in the batch reports the same (shared) totals."""
        results = fresh_store().search_batch(["SCHWARZ", "THOMAS"])
        a, b = results["SCHWARZ"], results["THOMAS"]
        assert a.cost.messages == b.cost.messages
        assert a.scan_cost.bytes == b.scan_cost.bytes
        assert a.elapsed == b.elapsed

    def test_search_all_cost_includes_verification(self):
        result = fresh_store().search_all(["SCHWARZ", "THOMAS"])
        assert result.matches == frozenset({1, 3, 5})
        assert result.verify_cost.messages > 0
        assert result.cost.messages == (
            result.scan_cost.messages + result.verify_cost.messages
        )

    def test_scan_plus_verify_equals_total(self):
        result = fresh_store().search("SCHWARZ")
        assert result.cost.messages == (
            result.scan_cost.messages + result.verify_cost.messages
        )
        assert result.cost.bytes == (
            result.scan_cost.bytes + result.verify_cost.bytes
        )

    def test_unverified_search_has_zero_verify_cost(self):
        result = fresh_store().search("SCHWARZ", verify=False)
        assert result.verify_cost.messages == 0
        assert result.cost.bytes == result.scan_cost.bytes

    def test_search_short_accounts_verification(self):
        store = fresh_store()
        result = store.search_short("TSU")
        assert result.matches == frozenset({4})
        assert result.cost.messages == (
            result.scan_cost.messages + result.verify_cost.messages
        )
        assert result.verify_cost.messages > 0


class TestSection8RequestBilling:
    """The §8 stores bill the real serialized query, not a constant.

    Regressions for two bookkeeping bugs: the word store hardcoded
    ``request_size=32 + 16`` regardless of the trapdoor's actual wire
    size, and the compressed index billed the bare sum of needle bytes
    with no framing (variants have differing lengths, so the payload
    is not decodable without length prefixes).
    """

    def test_word_search_bills_trapdoor_wire_size(self):
        store = EncryptedWordStore(b"billing-words")
        for rid, text in RECORDS.items():
            store.put(rid, text)
        trapdoor = store._swp.trapdoor("SCHWARZ")
        # X (16B pre-encrypted word) + k (16B word key).
        assert trapdoor.wire_size == 32
        result = store.search("SCHWARZ")
        scans = result.cost.by_kind["scan"]
        assert scans > 0
        assert result.cost.bytes_by_kind["scan"] == (
            scans * trapdoor.wire_size
        )

    def test_compressed_search_bills_framed_needles(self):
        corpus = [t.encode("ascii") for t in RECORDS.values()]
        store = CompressedSearchStore(b"billing-csi", corpus)
        for rid, text in RECORDS.items():
            store.put(rid, text)
        pattern = "SCHWARZ"
        needles = [
            store._encrypt_stream(variant)
            for variant in store.compressor.pattern_variants(
                pattern.encode("ascii")
            )
        ]
        framed = 1 + sum(2 + len(n) for n in needles)
        # Framing must cost more than the bare needle bytes the old
        # accounting billed.
        assert framed > sum(len(n) for n in needles)
        result = store.search(pattern)
        scans = result.cost.by_kind["scan"]
        assert scans > 0
        assert result.cost.bytes_by_kind["scan"] == scans * framed

    def test_word_search_is_a_batch_of_one(self):
        """A one-word search ships the batch hit shape
        ``(rid, ((index, positions),))``: 16 + 8 bytes per position."""
        store = EncryptedWordStore(b"billing-words")
        for rid, text in RECORDS.items():
            store.put(rid, text)
        result = store.search("THOMAS")
        assert result.matches == {1, 3, 5}
        assert result == store.search_batch(["THOMAS"])["THOMAS"]
        replies = result.cost.by_kind["scan_reply"]
        assert result.cost.bytes_by_kind["scan_reply"] == (
            HEADER_SIZE * replies
            + sum(16 + 8 * len(p) for p in result.positions.values())
        )

    def test_compressed_search_is_a_batch_of_one(self):
        """A one-pattern search ships the batch hit shape
        ``(rid, (index,))``: 16 bytes per candidate."""
        corpus = [t.encode("ascii") for t in RECORDS.values()]
        store = CompressedSearchStore(b"billing-csi", corpus)
        for rid, text in RECORDS.items():
            store.put(rid, text)
        result = store.search("SCHWARZ")
        assert result.matches == {1, 3, 5}
        assert result == store.search_batch(["SCHWARZ"])["SCHWARZ"]
        replies = result.cost.by_kind["scan_reply"]
        assert result.cost.bytes_by_kind["scan_reply"] == (
            HEADER_SIZE * replies + 16 * len(result.candidates)
        )


class TestHitSizeAccounting:
    def test_site_hit_billed_by_wire_size(self):
        hit = SiteHit(rid=1, group=0, site=0,
                      positions={0: [0, 4], 2: [1]})
        # 8B rid + 1B group + 1B site, per alignment 2B tag + 4B/pos.
        assert hit.wire_size == 10 + (2 + 8) + (2 + 4)
        assert _hit_size(hit) == hit.wire_size

    def test_hit_size_grows_with_positions(self):
        small = SiteHit(rid=1, group=0, site=0, positions={0: [0]})
        large = SiteHit(rid=1, group=0, site=0,
                        positions={0: list(range(50))})
        assert _hit_size(large) > _hit_size(small)

    def test_containers_accounted_elementwise(self):
        hit = SiteHit(rid=1, group=0, site=0, positions={})
        assert _hit_size((b"abc", hit)) == 3 + hit.wire_size
        assert _hit_size([1, 2, 3]) == 24

    def test_bytes_and_scalars(self):
        assert _hit_size(b"abcd") == 4
        assert _hit_size(bytearray(b"ab")) == 2
        assert _hit_size(7) == 8

    def test_scan_reply_bytes_reflect_hits(self):
        """A matching pattern's scan replies carry hit payloads; the
        same-length non-matching pattern's replies are bare headers."""
        store = fresh_store()
        hit = store.search("SCHWARZ", verify=False)
        miss = store.search("QQQQQQQ", verify=False)
        assert hit.candidates and not miss.candidates
        hit_reply = hit.scan_cost.bytes_by_kind["scan_reply"]
        miss_reply = miss.scan_cost.bytes_by_kind["scan_reply"]
        assert hit_reply > miss_reply
