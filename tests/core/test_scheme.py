"""The complete scheme: integration tests and the recall invariant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EncryptedSearchableStore,
    FrequencyEncoder,
    QueryTooShortError,
    SchemeParameters,
)
from repro.data import generate_directory
from repro.net import Network

RECORDS = {
    7: "415-409-9999 SCHWARZ THOMAS",
    8: "415-409-1234 LITWIN WITOLD",
    9: "415-409-5678 TSUI PETER",
    10: "415-409-0007 ABOGADO ALEJANDRO & CATHERINE",
    11: "415-409-0008 ADAMSON MARK",
}


def store_with(params, encoder=None):
    store = EncryptedSearchableStore(params, encoder=encoder)
    for rid, text in RECORDS.items():
        store.put(rid, text)
    return store


@pytest.fixture(scope="module")
def full_store():
    return store_with(SchemeParameters.full(4))


class TestPutGet:
    def test_roundtrip(self, full_store):
        assert full_store.get(7) == RECORDS[7]

    def test_missing(self, full_store):
        assert full_store.get(999) is None

    def test_record_store_holds_ciphertext_only(self, full_store):
        """No plaintext byte sequence survives at any storage site."""
        for record in full_store.record_file.all_records():
            assert b"SCHWARZ" not in record.content
            assert b"LITWIN" not in record.content

    def test_index_streams_do_not_leak_plaintext(self, full_store):
        for record in full_store.index_file.all_records():
            assert b"SCHW" not in record.content
            assert b"415-" not in record.content

    def test_len(self, full_store):
        assert len(full_store) == len(RECORDS)

    def test_delete_removes_everything(self):
        store = store_with(SchemeParameters.full(4))
        index_before = len(store.index_file.all_records())
        assert store.delete(7)
        assert store.get(7) is None
        assert store.search("SCHWARZ").matches == frozenset()
        assert len(store.index_file.all_records()) == index_before - 4
        assert not store.delete(7)


class TestSearchFullLayout:
    def test_exact_match(self, full_store):
        result = full_store.search("SCHWARZ")
        assert result.matches == frozenset({7})
        assert result.false_positives == frozenset()

    def test_multi_record_match(self, full_store):
        result = full_store.search("415-409")
        assert result.matches == frozenset(RECORDS)

    def test_no_match(self, full_store):
        result = full_store.search("XYZW")
        assert result.candidates == frozenset()
        assert result.precision == 1.0

    def test_substring_inside_word(self, full_store):
        # ADAMS occurs inside ADAMSON — the paper counts that as a
        # true occurrence.
        result = full_store.search("ADAMS")
        assert 11 in result.matches

    def test_pattern_with_spaces(self, full_store):
        result = full_store.search(" SCHWARZ ")
        assert result.matches == frozenset({7})

    def test_too_short_query(self, full_store):
        with pytest.raises(QueryTooShortError):
            full_store.search("ABC")

    def test_unverified_search(self, full_store):
        result = full_store.search("SCHWARZ", verify=False)
        assert result.matches == result.candidates

    def test_cost_accounting(self, full_store):
        result = full_store.search("SCHWARZ")
        assert result.cost.messages > 0
        assert result.cost.by_kind["scan"] >= 1


class TestSearchOtherLayouts:
    def test_reduced_layout(self):
        store = store_with(SchemeParameters.reduced(8, 4))
        result = store.search("ALEJANDRO")
        assert 10 in result.matches

    def test_reduced_min_length_enforced(self):
        store = store_with(SchemeParameters.reduced(8, 4))
        with pytest.raises(QueryTooShortError):
            store.search("SCHWARZ ")  # length 8 < 9

    def test_stage2_recall(self):
        params = SchemeParameters.full(4, n_codes=32)
        encoder = FrequencyEncoder.train(
            [t.encode() for t in RECORDS.values()], 4, 32
        )
        store = store_with(params, encoder)
        for rid, text in RECORDS.items():
            name = text.split(" ", 1)[1][:7]
            assert rid in store.search(name).matches

    def test_stage3_recall_and_equivalence(self):
        """Dispersion with all-k intersection adds no candidates."""
        texts = [t.encode() for t in RECORDS.values()]
        enc = FrequencyEncoder.train(texts, 4, 64)
        base = store_with(SchemeParameters.full(4, n_codes=64), enc)
        k2 = store_with(
            SchemeParameters.full(4, n_codes=64, dispersal=2), enc
        )
        for pattern in ("SCHWARZ", "WITOLD", "ALEJANDRO", "THOMAS"):
            a = base.search(pattern)
            b = k2.search(pattern)
            assert a.matches == b.matches
            assert a.candidates == b.candidates

    def test_drop_partial_still_finds_interior(self):
        store = store_with(
            SchemeParameters.full(4, drop_partial_chunks=True)
        )
        assert 7 in store.search("SCHWARZ").matches

    def test_high_availability_store(self):
        store = EncryptedSearchableStore(
            SchemeParameters.full(4), high_availability=True
        )
        store.put(1, "415-409-0001 SCHWARZ THOMAS")
        assert 1 in store.search("SCHWARZ").matches
        assert store.record_file.verify_recovery(
            [next(iter(store.record_file.buckets))]
        )


class TestIndexKeys:
    def test_key_roundtrip(self, full_store):
        for rid in (0, 7, 12345):
            for group in range(4):
                key = full_store.index_key(rid, group, 0)
                assert full_store.decode_index_key(key) == (rid, group, 0)

    def test_paper_figure3_key_width(self):
        """2 chunkings x 4 dispersal sites -> 3 suffix bits."""
        params = SchemeParameters.reduced(8, 2, dispersal=4)
        store = EncryptedSearchableStore(params)
        assert store._suffix_bits == 3

    def test_index_records_spread_across_buckets(self):
        store = EncryptedSearchableStore(
            SchemeParameters.full(4), bucket_capacity=8
        )
        for rid, text in RECORDS.items():
            store.put(rid, text)
        for rid in (100, 101, 102, 103):
            store.put(rid, f"415-409-{rid:04d} FILLER NAME")
        if store.index_file.bucket_count >= 4:
            buckets_used = {
                address
                for address, bucket in store.index_file.buckets.items()
                if any(
                    store.decode_index_key(k)[0] == 7
                    for k in bucket.records
                )
            }
            assert len(buckets_used) > 1


class TestFootprint:
    def test_footprint_counts(self, full_store):
        fp = full_store.footprint()
        assert fp.index_records == 4 * len(RECORDS)
        assert fp.record_bytes > 0
        assert fp.overhead > 0

    def test_stage2_reduces_overhead(self):
        texts = [t.encode() for t in RECORDS.values()]
        raw = store_with(SchemeParameters.full(4))
        enc = FrequencyEncoder.train(texts, 4, 64)
        small = store_with(SchemeParameters.full(4, n_codes=64), enc)
        assert small.footprint().index_bytes < raw.footprint().index_bytes

    def test_trained_constructor(self):
        texts = [t.encode() for t in RECORDS.values()]
        store = EncryptedSearchableStore.with_trained_encoder(
            SchemeParameters.full(4, n_codes=32), texts
        )
        store.put(7, RECORDS[7])
        assert 7 in store.search("SCHWARZ").matches


class TestBulkLoadShape:
    def test_bulk_load_splits_like_puts(self):
        """Bulk loading keeps few inserts in flight, so each file
        reaches the level one-by-one puts of the same records give
        it, with buckets well filled — not one bucket per record."""
        directory = generate_directory(1500, seed=2006)
        records = {e.rid: e.record_text for e in directory}
        training = [e.name.encode("ascii") for e in directory.entries[:300]]
        params = SchemeParameters.full(4, n_codes=64, dispersal=2)
        bulk = EncryptedSearchableStore.with_trained_encoder(
            params, training, bucket_capacity=128)
        bulk.bulk_load(records)
        serial = EncryptedSearchableStore.with_trained_encoder(
            params, training, bucket_capacity=128)
        for rid, text in records.items():
            serial.put(rid, text)
        for name in ("record_file", "index_file"):
            loaded = getattr(bulk, name)
            assert loaded.state == getattr(serial, name).state
            load = len(loaded.all_records()) / (
                loaded.bucket_count * loaded.bucket_capacity)
            assert load >= 0.5


NAME_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ "


@settings(max_examples=12)
@given(
    st.lists(
        st.text(alphabet=NAME_ALPHABET, min_size=6, max_size=24),
        min_size=1,
        max_size=8,
        unique=True,
    ),
    st.data(),
)
def test_property_no_false_negatives(texts, data):
    """THE invariant: any substring of a stored record is found.

    Random corpora, random in-record substrings, full layout with
    Stage 1 ECB on — search must return the containing record."""
    store = EncryptedSearchableStore(SchemeParameters.full(4))
    for rid, text in enumerate(texts):
        store.put(rid, text)
    rid = data.draw(st.integers(0, len(texts) - 1))
    text = texts[rid]
    start = data.draw(st.integers(0, len(text) - 4))
    length = data.draw(st.integers(4, len(text) - start))
    pattern = text[start:start + length]
    result = store.search(pattern)
    assert rid in result.matches
    # And recall holds for every record containing the pattern.
    expected = {r for r, t in enumerate(texts) if pattern in t}
    assert expected <= result.matches
