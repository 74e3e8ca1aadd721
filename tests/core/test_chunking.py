"""Stage-1 geometry, pinned against the paper's worked examples."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.chunking import (
    StorageLayout,
    all_query_series,
    query_series,
    record_chunks,
)
from repro.core.errors import ConfigurationError, QueryTooShortError

ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class TestPaperSection22:
    """The example of section 2.2: s=4 over the alphabet."""

    def test_first_chunking(self):
        chunks = record_chunks(ALPHABET, 4, 0)
        assert chunks == [
            b"ABCD", b"EFGH", b"IJKL", b"MNOP", b"QRST", b"UVWX",
            b"YZ\x00\x00",
        ]

    def test_second_chunking(self):
        # "(000A), (BCDE), (FGHI), (JKLM), (NOPQ), (RSTU), (VWXY), (Z000)"
        chunks = record_chunks(ALPHABET, 4, 1)
        assert chunks[0] == b"\x00\x00\x00A"
        assert chunks[1] == b"BCDE"
        assert chunks[-1] == b"Z\x00\x00\x00"
        assert len(chunks) == 8

    def test_third_chunking(self):
        chunks = record_chunks(ALPHABET, 4, 2)
        assert chunks[0] == b"\x00\x00AB"
        assert chunks[1] == b"CDEF"
        assert chunks[-1] == b"WXYZ"
        assert len(chunks) == 7

    def test_fourth_chunking(self):
        chunks = record_chunks(ALPHABET, 4, 3)
        assert chunks[0] == b"\x00ABC"
        assert chunks[1] == b"DEFG"
        assert chunks[-1] == b"XYZ\x00"


class TestPaperSection24:
    """The search example of section 2.4: "BCDEFGHIJK", s=4."""

    def test_all_chunkings_of_the_query(self):
        pattern = b"BCDEFGHIJK"
        series = all_query_series(pattern, 4, 4)
        assert series[0] == [b"BCDE", b"FGHI"]
        assert series[1] == [b"CDEF", b"GHIJ"]
        assert series[2] == [b"DEFG", b"HIJK"]
        assert series[3] == [b"EFGH"]

    def test_each_series_hits_exactly_one_chunking(self):
        """'each chunked search string has a hit in exactly one index
        record' — for the alphabet record and this query."""
        pattern = b"BCDEFGHIJK"
        hits = []
        for alignment in range(4):
            series = query_series(pattern, 4, alignment)
            for offset in range(4):
                chunks = record_chunks(ALPHABET, 4, offset)
                for p in range(len(chunks) - len(series) + 1):
                    if chunks[p:p + len(series)] == series:
                        hits.append((alignment, offset, p))
        assert len(hits) == 4
        assert len({offset for __, offset, __ in hits}) == 4


class TestRecordChunks:
    def test_padding_symbol_is_zero(self):
        assert record_chunks(b"AB", 4, 0) == [b"AB\x00\x00"]

    def test_exact_multiple_no_padding(self):
        assert record_chunks(b"ABCD", 4, 0) == [b"ABCD"]

    def test_drop_partial_first_and_last(self):
        chunks = record_chunks(b"ABCDEFG", 4, 1, drop_partial=True)
        assert chunks == [b"BCDE"]

    def test_drop_partial_keeps_complete_tail(self):
        chunks = record_chunks(b"ABCDE", 4, 1, drop_partial=True)
        assert chunks == [b"BCDE"]

    def test_empty_record(self):
        assert record_chunks(b"", 4, 0) == []
        assert record_chunks(b"", 4, 1) == [b"\x00\x00\x00" + b"\x00"]

    def test_invalid_offset(self):
        with pytest.raises(ConfigurationError):
            record_chunks(b"AB", 4, 4)

    def test_invalid_chunk_size(self):
        with pytest.raises(ConfigurationError):
            record_chunks(b"AB", 0, 0)


class TestQuerySeries:
    def test_alignment_trims_edges(self):
        assert query_series(b"ABCDEFGH", 4, 1) == [b"BCDE"]

    def test_too_short_raises(self):
        with pytest.raises(QueryTooShortError):
            query_series(b"ABC", 4, 0)

    def test_alignment_out_of_range(self):
        with pytest.raises(ConfigurationError):
            query_series(b"ABCDEFGH", 4, 4)

    def test_no_padding_ever(self):
        """Query series contain only complete chunks (section 2.3)."""
        for alignment in range(4):
            for series in [query_series(b"ABCDEFGHIJ", 4, alignment)]:
                assert all(len(c) == 4 for c in series)
                assert all(b"\x00" not in c for c in series)


class TestStorageLayout:
    def test_full_layout(self):
        layout = StorageLayout.full(4)
        assert layout.offsets == (0, 1, 2, 3)
        assert layout.alignments == 4
        assert layout.stride == 1
        assert layout.required_groups == 4
        assert layout.min_query_length == 4

    def test_reduced_4_of_8(self):
        """Section 2.5's first example: s=8, 4 storage sites."""
        layout = StorageLayout.reduced(8, 4)
        assert layout.offsets == (0, 2, 4, 6)
        assert layout.alignments == 2
        assert layout.required_groups == 1
        assert layout.min_query_length == 9  # "at least s+1"

    def test_reduced_2_of_8(self):
        """Section 2.5's second example: s=8, 2 storage sites."""
        layout = StorageLayout.reduced(8, 2)
        assert layout.offsets == (0, 4)
        assert layout.alignments == 4
        assert layout.min_query_length == 11  # "now s+3"

    def test_single_chunking_needs_every_alignment(self):
        """One stored chunking has a boundary only every s symbols, so
        only a pattern that populates all s alignments (length 2s − 1)
        is sure to put a complete chunk on one.  The minimum used to
        read s here, and searches for shorter patterns silently missed
        occurrences off the chunk grid."""
        layout = StorageLayout.reduced(4, 1)
        assert layout.alignments == 4
        assert layout.min_query_length == 7
        with pytest.raises(QueryTooShortError):
            layout.query_alignments(6)

    def test_chunk_origins(self):
        """Where stream chunk 0 of each chunking begins: a padded head
        chunk pushes the origin one chunk before the offset."""
        layout = StorageLayout.full(4)
        assert layout.chunk_origins(drop_partial=False) == (0, -3, -2, -1)
        assert layout.chunk_origins(drop_partial=True) == (0, 1, 2, 3)

    def test_sites_must_divide_chunk_size(self):
        with pytest.raises(ConfigurationError):
            StorageLayout.reduced(8, 3)

    def test_offsets_must_be_uniform(self):
        with pytest.raises(ConfigurationError):
            StorageLayout(chunk_size=8, offsets=(0, 1, 4), alignments=1)

    def test_offsets_must_start_at_zero(self):
        with pytest.raises(ConfigurationError):
            StorageLayout(chunk_size=4, offsets=(1, 3), alignments=2)

    def test_alignments_bounds(self):
        with pytest.raises(ConfigurationError):
            StorageLayout(chunk_size=8, offsets=(0, 4), alignments=3)

    def test_query_alignments_filter_short_patterns(self):
        layout = StorageLayout.full(4)
        # Length 4: only alignment 0 produces a complete chunk.
        assert layout.query_alignments(4) == [0]
        assert layout.query_alignments(7) == [0, 1, 2, 3]

    def test_check_query_length(self):
        layout = StorageLayout.reduced(8, 4)
        with pytest.raises(QueryTooShortError):
            layout.check_query_length(8)
        layout.check_query_length(9)

    def test_storage_blowup(self):
        assert StorageLayout.full(8).storage_blowup() == 8.0
        assert StorageLayout.reduced(8, 2).storage_blowup() == 2.0


@given(
    st.binary(min_size=0, max_size=60),
    st.integers(1, 8),
    st.data(),
)
def test_property_chunks_reassemble(content, s, data):
    """Concatenating the chunks of offset o reproduces the record
    (with zero padding at the edges)."""
    offset = data.draw(st.integers(0, s - 1))
    chunks = record_chunks(content, s, offset)
    joined = b"".join(chunks)
    lead = (s - offset) % s if offset else 0
    stripped = joined[lead:lead + len(content)]
    assert stripped == content
    assert all(len(c) == s for c in chunks)


@given(
    st.binary(min_size=8, max_size=40),
    st.integers(1, 6),
    st.data(),
)
def test_property_series_chunks_align_with_record(pattern, s, data):
    """If a pattern occurs in a record at position p, then the series
    with alignment a = (offset - p) mod s matches chunk-aligned in the
    chunking with that offset — the scheme's recall argument."""
    prefix = data.draw(st.binary(min_size=0, max_size=20))
    suffix = data.draw(st.binary(min_size=0, max_size=20))
    record = prefix + pattern + suffix
    p = len(prefix)
    offset = data.draw(st.integers(0, s - 1))
    alignment = (offset - p) % s
    if len(pattern) - alignment < s:
        return  # this alignment has no complete chunk; others cover it
    series = query_series(pattern, s, alignment)
    chunks = record_chunks(record, s, offset)
    found = any(
        chunks[q:q + len(series)] == series
        for q in range(len(chunks) - len(series) + 1)
    )
    assert found
