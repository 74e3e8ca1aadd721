"""The compression-based index store (§8's third design)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.extensions.compressed_index import CompressedSearchStore
from tests.oracle import reference_paths

RECORDS = {
    1: "SCHWARZ THOMAS",
    2: "LITWIN WITOLD",
    3: "ARBELAEZ LIBIA MARIA",
    4: "MARTINEZ MARIA",
}


@pytest.fixture(scope="module")
def store():
    corpus = [t.encode("ascii") for t in RECORDS.values()]
    store = CompressedSearchStore(b"csi-test-key", corpus)
    for rid, text in RECORDS.items():
        store.put(rid, text)
    return store


class TestBasics:
    def test_get_roundtrip(self, store):
        assert store.get(1) == RECORDS[1]
        assert store.get(99) is None

    def test_search_interior_fragment(self, store):
        assert store.search("CHWAR").matches == frozenset({1})

    def test_search_across_word_boundary(self, store):
        assert store.search("EZ MARIA").matches == frozenset({4})
        assert store.search("A MARIA").matches == frozenset({3})

    def test_search_no_match(self, store):
        result = store.search("QQQQ")
        assert result.matches == frozenset()

    def test_multi_record_match(self, store):
        assert store.search("MARIA").matches == frozenset({3, 4})

    def test_result_splits_cost_and_clock(self, store):
        """The core's SearchResult, every field filled: the scan round
        and the candidate fetches add up to the billed cost, and the
        query took simulated time."""
        result = store.search("MARIA")
        assert result.verify_cost.messages > 0
        assert (result.scan_cost.messages + result.verify_cost.messages
                == result.cost.messages)
        assert (result.scan_cost.bytes + result.verify_cost.bytes
                == result.cost.bytes)
        assert result.elapsed > 0
        unverified = store.search("MARIA", verify=False)
        assert unverified.verify_cost.messages == 0

    def test_delete(self):
        corpus = [t.encode("ascii") for t in RECORDS.values()]
        store = CompressedSearchStore(b"k", corpus)
        for rid, text in RECORDS.items():
            store.put(rid, text)
        assert store.delete(4)
        assert store.search("MARTINEZ").matches == frozenset()
        assert not store.delete(4)

    def test_overwrite_replaces_index_wholesale(self):
        """put() on a present rid: retired content must never match
        again — including after a search has built bucket haystacks."""
        corpus = [t.encode("ascii") for t in RECORDS.values()]
        store = CompressedSearchStore(b"k-ow", corpus)
        for rid, text in RECORDS.items():
            store.put(rid, text)
        assert store.search("MARIA").candidates == frozenset({3, 4})
        store.put(3, "SOMETHING ELSE")
        assert store.get(3) == "SOMETHING ELSE"
        assert store.search("MARIA").matches == frozenset({4})
        assert 3 not in store.search("ARBELAEZ").candidates
        assert store.search("SOMETHING").matches == frozenset({3})
        assert len(store) == len(RECORDS)

    def test_fast_and_reference_encrypt_identically(self):
        """The registry's translate table ≡ the PRP applied one code
        at a time — directly, and through the oracle's stand-in."""
        corpus = [t.encode("ascii") for t in RECORDS.values()]
        fast = CompressedSearchStore(b"same-key", corpus)
        with reference_paths():
            plain = CompressedSearchStore(b"same-key", corpus)
        assert fast._code_map is not plain._code_map
        stream = bytes(range(256)) * 3
        prp = fast._prp
        assert fast._encrypt_stream(stream) == bytes(
            prp.encrypt(code) for code in stream
        ) == plain._encrypt_stream(stream)

    def test_index_leaks_no_plaintext(self, store):
        for record in store.index_file.all_records():
            assert b"SCHWARZ" not in record.content
            assert b"MARIA" not in record.content

    def test_index_smaller_than_records(self, store):
        record_bytes = sum(len(t) for t in RECORDS.values())
        assert store.index_bytes() < record_bytes

    def test_key_separation(self):
        corpus = [t.encode("ascii") for t in RECORDS.values()]
        a = CompressedSearchStore(b"key-a", corpus)
        b = CompressedSearchStore(b"key-b", corpus)
        a.put(1, RECORDS[1])
        b.put(1, RECORDS[1])
        stream_a = a.index_file.lookup(1)
        stream_b = b.index_file.lookup(1)
        assert stream_a != stream_b

    def test_wide_code_space_rejected(self):
        corpus = [
            bytes([x, 128 + y]) * 4 for x in range(16) for y in range(16)
        ]
        with pytest.raises(ConfigurationError):
            CompressedSearchStore(b"k", corpus, max_pairs=250)

    def test_lossy_mode(self):
        corpus = [t.encode("ascii") for t in RECORDS.values()]
        store = CompressedSearchStore(b"k", corpus, lossy_codes=16)
        for rid, text in RECORDS.items():
            store.put(rid, text)
        # Recall survives lossy bucketing; precision may not.
        assert 1 in store.search("SCHWARZ").matches


NAMES = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ ", min_size=6,
                max_size=18)


@settings(max_examples=10)
@given(st.lists(NAMES, min_size=2, max_size=6, unique=True), st.data())
def test_property_recall(texts, data):
    corpus = [t.encode("ascii") for t in texts]
    store = CompressedSearchStore(b"prop-key", corpus)
    for rid, text in enumerate(texts):
        store.put(rid, text)
    rid = data.draw(st.integers(0, len(texts) - 1))
    text = texts[rid]
    start = data.draw(st.integers(0, len(text) - 3))
    length = data.draw(st.integers(3, len(text) - start))
    pattern = text[start:start + length]
    result = store.search(pattern)
    expected = {r for r, t in enumerate(texts) if pattern in t}
    assert expected <= result.matches
    assert result.matches == expected  # verify gives exactness