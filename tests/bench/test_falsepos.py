"""The Table-4/5 false-positive machinery."""

import pytest

from repro.bench.falsepos import fp_chunk_encoding, fp_symbol_chunked


class TestSymbolEncoding:
    """Table 4's FP1: the unchunked search on the code stream, which
    the chunked mode reports as ``baseline_false_positives`` and runs
    as its only mode with ``chunk=1``."""

    def test_recall_is_total(self, sample_entries):
        """Every search finds at least its own record (100% recall)."""
        outcome = fp_symbol_chunked(sample_entries, 8, chunk=1)
        assert outcome.true_hits >= outcome.searches
        assert outcome.false_positives == outcome.baseline_false_positives

    def test_fp_decreases_with_codes(self, sample_entries):
        fps = [
            fp_symbol_chunked(sample_entries, n).baseline_false_positives
            for n in (8, 16, 32)
        ]
        assert fps[0] >= fps[1] >= fps[2]

    def test_chi_increases_with_codes(self, sample_entries):
        chis = [
            fp_symbol_chunked(sample_entries, n).chi_single
            for n in (8, 16, 32)
        ]
        assert chis[0] < chis[2]

    def test_long_name_restriction_reduces_fp(self, sample_entries):
        all_names = fp_symbol_chunked(sample_entries, 8)
        long_names = fp_symbol_chunked(
            sample_entries, 8, min_name_length=5
        )
        assert (long_names.baseline_false_positives
                <= all_names.baseline_false_positives)
        assert long_names.searches < all_names.searches


class TestSymbolChunked:
    def test_chunking_adds_false_positives(self, sample_entries):
        """The paper's FP2 > FP1 observation."""
        outcome = fp_symbol_chunked(sample_entries, 8)
        assert outcome.baseline_false_positives is not None
        assert outcome.false_positives >= outcome.baseline_false_positives

    def test_recall_preserved_by_chunking(self, sample_entries):
        outcome = fp_symbol_chunked(sample_entries, 16)
        assert outcome.true_hits >= outcome.searches

    def test_single_symbol_queries_still_work(self, sample_entries):
        # Queries of length < chunk still have the offset-0 chunking of
        # the *encoded* stream; two-symbol surnames like YU produce a
        # single complete chunk at alignment 0.
        outcome = fp_symbol_chunked(sample_entries, 8, chunk=2)
        assert outcome.searches == len(sample_entries)


class TestChunkEncoding:
    def test_recall_is_total(self, sample_entries):
        outcome = fp_chunk_encoding(sample_entries, 16)
        assert outcome.true_hits >= outcome.searches

    def test_fp_decreases_with_codes(self, sample_entries):
        fps = [
            fp_chunk_encoding(sample_entries, n).false_positives
            for n in (8, 32, 64)
        ]
        assert fps[0] >= fps[-1]

    def test_long_names_nearly_clean(self, sample_entries):
        noisy = fp_chunk_encoding(sample_entries, 64)
        clean = fp_chunk_encoding(sample_entries, 64, min_name_length=5)
        assert clean.false_positives <= noisy.false_positives

    def test_chi_columns_populated(self, sample_entries):
        outcome = fp_chunk_encoding(sample_entries, 16)
        assert outcome.chi_single >= 0
        assert outcome.chi_double > 0
        assert outcome.chi_triple > 0
