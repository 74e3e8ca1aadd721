"""The SWP word-search store (the paper's §8 adaptation)."""

import pytest

from repro.core.errors import RecordNotFoundError, SchemeError
from repro.errors import ReproError
from repro.extensions.swp import WORD_BYTES, SwpCipher
from repro.extensions.wordsearch import (
    EncryptedWordStore,
    WordScanMatcher,
    tokenize,
)
from tests.oracle import reference_paths

KEY = b"wordsearch-test"

RECORDS = {
    1: "415-409-9999 SCHWARZ THOMAS",
    2: "415-409-1234 LITWIN WITOLD",
    3: "415-409-5678 SCHWARZ PETER & THOMAS",
}


@pytest.fixture
def store():
    store = EncryptedWordStore(KEY)
    for rid, text in RECORDS.items():
        store.put(rid, text)
    return store


class TestTokenize:
    def test_words_and_numbers(self):
        assert tokenize("415-409-9999 SCHWARZ & T") == [
            "415-409-9999", "SCHWARZ", "&", "T",
        ]

    def test_hyphenated_number_is_one_token(self):
        assert tokenize("415-409-9999") == ["415-409-9999"]


class TestStore:
    def test_get_roundtrip(self, store):
        assert store.get(1) == RECORDS[1]
        assert store.get(99) is None

    def test_word_search(self, store):
        result = store.search("SCHWARZ")
        assert result.matches == frozenset({1, 3})

    def test_positions_reported(self, store):
        result = store.search("THOMAS")
        assert result.positions[1] == (2,)
        assert result.positions[3] == (4,)

    def test_no_substring_search(self, store):
        assert store.search("SCHWAR").matches == frozenset()

    def test_absent_word(self, store):
        assert store.search("NOBODY").matches == frozenset()

    def test_repeated_word_positions(self, store):
        store.put(4, "YU YU HAKUSHO YU")
        result = store.search("YU")
        assert result.positions[4] == (0, 1, 3)

    def test_delete(self, store):
        assert store.delete(1)
        assert store.search("LITWIN").matches == frozenset({2})
        assert store.search("THOMAS").matches == frozenset({3})
        assert not store.delete(1)

    def test_len(self, store):
        assert len(store) == 3

    def test_cost_accounting(self, store):
        result = store.search("SCHWARZ")
        assert result.cost.messages > 0

    def test_index_cells_leak_no_plaintext(self, store):
        for record in store.index_file.all_records():
            assert b"SCHWARZ" not in record.content
            assert b"THOMAS" not in record.content

    def test_owner_can_decrypt_index(self, store):
        assert store.decrypt_index_of(1) == [
            "415-409-9999", "SCHWARZ", "THOMAS"
        ]

    def test_decrypt_index_missing(self, store):
        """Regression: used to raise a bare ``KeyError``; the typed
        error keeps that base for legacy callers but joins the
        ``ReproError`` family."""
        with pytest.raises(RecordNotFoundError) as excinfo:
            store.decrypt_index_of(404)
        assert isinstance(excinfo.value, KeyError)
        assert isinstance(excinfo.value, SchemeError)
        assert isinstance(excinfo.value, ReproError)
        # No KeyError repr-quoting of the message.
        assert str(excinfo.value) == "no index record for rid 404"

    def test_overwrite_replaces_index_wholesale(self, store):
        """put() on a present rid: old words must never match again,
        even when the new text is shorter (fewer cells)."""
        store.put(1, "REPLACED")
        assert store.get(1) == "REPLACED"
        assert store.search("SCHWARZ").matches == frozenset({3})
        assert 1 not in store.search("415-409-9999").matches
        assert store.search("REPLACED").matches == frozenset({1})
        assert len(store) == 3

    def test_overwrite_after_search_invalidates_haystack(self):
        """The batched-scan haystack is built by the first search and
        must be dropped by the overwrite."""
        store = EncryptedWordStore(KEY, bucket_capacity=64)
        for rid, text in RECORDS.items():
            store.put(rid, text)
        assert store.search("SCHWARZ").matches == frozenset({1, 3})
        store.put(1, "GOODBYE")
        assert store.search("SCHWARZ").matches == frozenset({3})
        assert store.search("GOODBYE").matches == frozenset({1})

    def test_key_separation(self):
        a = EncryptedWordStore(b"key-a")
        a.put(1, "SECRET WORD")
        b = EncryptedWordStore(b"key-b")
        b.put(1, "SECRET WORD")
        # b's trapdoors do not match a's cells.
        cell_a = a.index_file.lookup(1)[:16]
        assert not SwpCipher.match(cell_a, b._swp.trapdoor("SECRET"))


class TestBatchedMatching:
    """Fused SWP cell matching ≡ the per-cell reference loop."""

    def _cells_and_trapdoor(self):
        swp = SwpCipher(b"batch-match")
        words = ["ALPHA", "BETA", "ALPHA", "GAMMA", "ALPHA"]
        cells = b"".join(swp.encrypt_words(9, words))
        return cells, swp.trapdoor("ALPHA"), swp.trapdoor("OMEGA")

    def test_match_positions_equals_per_cell_match(self):
        cells, hit_td, miss_td = self._cells_and_trapdoor()
        for trapdoor in (hit_td, miss_td):
            reference = [
                p for p in range(len(cells) // WORD_BYTES)
                if SwpCipher.match(
                    cells[WORD_BYTES * p:WORD_BYTES * (p + 1)], trapdoor
                )
            ]
            assert SwpCipher.match_positions(cells, (trapdoor,))[0] == (
                reference
            )
        assert SwpCipher.match_positions(cells, (hit_td,))[0] == [0, 2, 4]

    def test_empty_blob(self):
        _, trapdoor, _ = self._cells_and_trapdoor()
        assert SwpCipher.match_positions(b"", (trapdoor,)) == [[]]

    def test_malformed_blob_rejected(self):
        _, trapdoor, _ = self._cells_and_trapdoor()
        with pytest.raises(ValueError):
            SwpCipher.match_positions(b"short", (trapdoor,))

    def test_matcher_forms_agree(self):
        from repro.sdds.haystack import BucketHaystack
        from repro.sdds.records import Record

        swp = SwpCipher(b"matcher-forms")
        records = {
            rid: Record(rid, b"".join(swp.encrypt_words(rid, words)))
            for rid, words in {
                1: ["HELLO", "WORLD"],
                2: ["WORLD"],
                3: ["NOPE"],
                4: [],
            }.items()
        }
        matcher = WordScanMatcher((swp.trapdoor("WORLD"),))
        haystack = BucketHaystack(records)
        with reference_paths():     # per-cell SWP, one record at a time
            per_record = matcher.match_bucket(haystack)
        assert matcher.match_bucket(haystack) == per_record == [
            (1, ((0, (1,)),)),
            (2, ((0, (0,)),)),
        ]
