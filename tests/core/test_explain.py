"""The query-plan explainer."""

import pytest

from repro.core import (
    EncryptedSearchableStore,
    FrequencyEncoder,
    QueryTooShortError,
    SchemeParameters,
)


def trained_store():
    texts = [b"SCHWARZ THOMAS", b"LITWIN WITOLD", b"MARTINEZ MARIA"]
    store = EncryptedSearchableStore(
        SchemeParameters.full(4, n_codes=32),
        encoder=FrequencyEncoder.train(texts, 4, 32),
    )
    for rid, text in enumerate(texts):
        store.put(rid, text.decode())
    return store


class TestExplain:
    def test_mentions_rule_and_alignments(self):
        text = trained_store().explain("MARTINEZ")
        assert ">= 4 of 4 chunking groups" in text
        assert "alignments used: [0, 1, 2, 3]" in text

    def test_fp_estimate_with_encoder(self):
        assert "random-text FP estimate" in \
            trained_store().explain("MARTINEZ")

    def test_no_estimate_without_encoder(self):
        store = EncryptedSearchableStore(SchemeParameters.full(4))
        assert "FP estimate" not in store.explain("SCHWARZ")

    def test_short_pattern_raises(self):
        with pytest.raises(QueryTooShortError):
            trained_store().explain("ABC")

    def test_reduced_layout_rule(self):
        store = EncryptedSearchableStore(SchemeParameters.reduced(8, 4))
        text = store.explain("ALEJANDRO")
        assert ">= 1 of 4 chunking groups" in text

    def test_dispersal_mentioned(self):
        store = EncryptedSearchableStore(
            SchemeParameters.full(4, dispersal=2)
        )
        assert "all 2 dispersal sites" in store.explain("SCHWARZ")

    def test_names_the_codec_that_runs(self):
        """Leaving the fused tables is visible: the chunk domain is the
        only way off them, and ``full(4)`` without Stage 2 is over it."""
        assert "  codec: fused tables" in (
            trained_store().explain("MARTINEZ").splitlines()
        )
        raw = EncryptedSearchableStore(SchemeParameters.full(4))
        assert raw.pipeline.codec(0) is None
        assert "  codec: per-chunk (chunk domain 2^32 > 2^16)" in (
            raw.explain("SCHWARZ").splitlines()
        )
