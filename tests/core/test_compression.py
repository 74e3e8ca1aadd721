"""Searchable pair compression (the [M97] direction of §8)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.extensions.compression import PairCompressor


@pytest.fixture(scope="module")
def compressor(name_corpus):
    return PairCompressor.train(name_corpus[:800], max_pairs=48)


@pytest.fixture(scope="module")
def lossy_compressor(name_corpus):
    return PairCompressor.train(
        name_corpus[:800], max_pairs=48, lossy_codes=32
    )


class TestTraining:
    def test_empty_corpus(self):
        with pytest.raises(ConfigurationError):
            PairCompressor.train([])

    def test_partition_is_disjoint(self, compressor):
        assert not (compressor.left & compressor.right)

    def test_pairs_respect_partition(self, compressor):
        for a, b in compressor.pair_codes:
            assert a in compressor.left
            assert b in compressor.right

    def test_compresses_the_corpus(self, compressor, name_corpus):
        ratio = compressor.compression_ratio(name_corpus[:800])
        assert ratio < 0.95


class TestEncoding:
    def test_deterministic(self, compressor):
        assert compressor.encode(b"SCHWARZ") == compressor.encode(
            b"SCHWARZ"
        )

    def test_unseen_symbols_encodable(self, compressor):
        assert compressor.encode(b"\x01\x02\x03")  # no crash

    def test_local_segmentation(self, compressor):
        """The invariant search relies on: appending a suffix never
        changes how the earlier pairs were segmented, except possibly
        at the single boundary code."""
        a = compressor.encode(b"SCHWARZ")
        b = compressor.encode(b"SCHWARZ THOMAS")
        assert b[:len(a) - 1] == a[:len(a) - 1]


class TestSearch:
    def test_finds_stored_pattern(self, compressor):
        record = compressor.encode(b"ARBELAEZ LIBIA MARIA")
        assert compressor.search(record, b"LIBIA")

    def test_no_false_negative_on_edges(self, compressor):
        record = compressor.encode(b"XANDER MARTINEZ")
        for pattern in (b"ANDER", b"MARTINE", b"ARTINEZ", b"NDER M"):
            assert compressor.search(record, pattern), pattern

    def test_rejects_most_absent_patterns(self, compressor):
        record = compressor.encode(b"ARBELAEZ LIBIA")
        assert not compressor.search(record, b"ZZZZZZZZ")

    def test_variants_bounded(self, compressor):
        assert len(compressor.pattern_variants(b"MARTINEZ")) <= 4

    def test_empty_pattern_rejected(self, compressor):
        with pytest.raises(ConfigurationError):
            compressor.pattern_variants(b"")

    def test_lossy_mode_keeps_recall(self, lossy_compressor,
                                     name_corpus):
        for text in name_corpus[:50]:
            record = lossy_compressor.encode(text)
            pattern = text[2:9]
            if len(pattern) >= 4:
                assert lossy_compressor.search(record, pattern)

    def test_lossy_mode_compresses_alphabet(self, lossy_compressor):
        stream = lossy_compressor.encode(b"SCHWARZ THOMAS")
        assert all(b < 32 for b in stream)

    def test_wide_code_space_two_byte_path(self):
        """Over 256 codes the stream packs 2 bytes/code and search
        must switch to aligned matching."""
        # A synthetic corpus engineered for many mergeable pairs:
        # left symbols 0..15, right symbols 128..143 -> 256 candidate
        # pairs, plus 32 singles = code space > 256.
        corpus = [
            bytes([a, 128 + b]) * 4
            for a in range(16)
            for b in range(16)
        ]
        compressor = PairCompressor.train(
            corpus, max_pairs=250, min_pair_count=2
        )
        assert compressor._output_space() > 256
        assert compressor.code_width == 2
        text = corpus[37]
        stream = compressor.encode(text)
        assert len(stream) % 2 == 0
        assert compressor.search(stream, text[2:6])
        assert not compressor.search(stream, bytes([7, 200, 9, 201]))


@settings(max_examples=30)
@given(st.data())
def test_property_100_percent_recall(name_corpus, data):
    """Any substring of an encoded record is always found."""
    compressor = PairCompressor.train(name_corpus[:300], max_pairs=40)
    text = data.draw(st.sampled_from(name_corpus[:300]))
    if len(text) < 5:
        return
    start = data.draw(st.integers(0, len(text) - 4))
    length = data.draw(st.integers(3, len(text) - start))
    pattern = text[start:start + length]
    record = compressor.encode(text)
    assert compressor.search(record, pattern)


@settings(max_examples=20)
@given(st.data())
def test_property_recall_across_records(name_corpus, data):
    """A pattern from record A is found in every record containing it."""
    corpus = name_corpus[:200]
    compressor = PairCompressor.train(corpus, max_pairs=40)
    text = data.draw(st.sampled_from(corpus))
    if len(text) < 6:
        return
    pattern = text[:5]
    for other in corpus[:60]:
        if pattern in other:
            assert compressor.search(compressor.encode(other), pattern)
