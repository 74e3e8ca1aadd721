"""Stage-2 encoder: training, the Figure-5 rule, encoding semantics."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.encoder import (
    FrequencyEncoder,
    census_chunks,
    least_loaded_assignment,
)
from repro.core.errors import ConfigurationError

#: The paper's Figure 5: (symbol, quantity, assigned encoding).
FIGURE_5 = [
    (" ", 503, 0), ("A", 495, 1), ("E", 407, 2), ("N", 383, 3),
    ("R", 350, 4), ("I", 300, 5), ("O", 287, 6), ("L", 258, 7),
    ("S", 258, 7), ("T", 200, 6), ("H", 186, 5), ("M", 178, 4),
    ("C", 159, 3), ("D", 150, 2), ("U", 112, 5), ("G", 108, 6),
    ("Y", 97, 1), ("B", 87, 0), ("K", 74, 7), ("J", 72, 4),
    ("P", 71, 3), ("F", 59, 2), ("W", 49, 7), ("V", 45, 0),
    ("Z", 29, 1), ("&", 14, 6), ("X", 6, 5), ("Q", 5, 4),
    ("'", 1, 5), ("-", 1, 5),
]


class TestCensus:
    def test_nonoverlapping_offset_zero(self):
        # The paper's example: "LITWIN WITOLD" at n=4 ->
        # ("LITW", "IN W", "ITOL"), odd tail dropped.
        counts = census_chunks([b"LITWIN WITOLD"], 4)
        assert counts == Counter({b"LITW": 1, b"IN W": 1, b"ITOL": 1})

    def test_counts_accumulate_across_texts(self):
        counts = census_chunks([b"ABAB", b"AB"], 2)
        assert counts[b"AB"] == 3

    def test_short_text_contributes_nothing(self):
        assert census_chunks([b"A"], 2) == Counter()

    def test_invalid_chunk_size(self):
        with pytest.raises(ConfigurationError):
            census_chunks([b"AB"], 0)


class TestFigure5:
    def test_exact_reproduction(self):
        """The greedy rule reproduces the paper's Figure 5 exactly."""
        counts = Counter(
            {symbol.encode(): count for symbol, count, __ in FIGURE_5}
        )
        assignment = least_loaded_assignment(counts, 8)
        for symbol, __, code in FIGURE_5:
            assert assignment[symbol.encode()] == code, symbol

    def test_loads_balanced(self):
        counts = Counter(
            {symbol.encode(): count for symbol, count, __ in FIGURE_5}
        )
        assignment = least_loaded_assignment(counts, 8)
        loads = [0] * 8
        for symbol, count, __ in FIGURE_5:
            loads[assignment[symbol.encode()]] += count
        total = sum(loads)
        for load in loads:
            assert abs(load - total / 8) / (total / 8) < 0.06

    def test_too_few_codes(self):
        with pytest.raises(ConfigurationError):
            least_loaded_assignment(Counter({b"A": 1}), 1)


class TestTraining:
    def test_train_and_encode(self):
        enc = FrequencyEncoder.train([b"ABABAC"], 1, 2)
        # A (3 occurrences) gets its own bucket; all codes in range.
        assert enc.encode_chunk(b"A") in (0, 1)
        assert enc.encode_chunk(b"B") != enc.encode_chunk(b"A")

    def test_train_empty_corpus(self):
        with pytest.raises(ConfigurationError):
            FrequencyEncoder.train([], 2, 8)

    def test_lossiness(self):
        """More chunks than codes forces collisions — the FP source."""
        corpus = [bytes([c]) * 2 for c in range(65, 91)]
        enc = FrequencyEncoder.train(corpus, 1, 4)
        codes = {enc.encode_chunk(bytes([c])) for c in range(65, 91)}
        assert codes == {0, 1, 2, 3}

    def test_unseen_chunk_deterministic(self):
        enc = FrequencyEncoder.train([b"AAAA"], 2, 8)
        assert enc.encode_chunk(b"ZZ") == enc.encode_chunk(b"ZZ")
        assert 0 <= enc.encode_chunk(b"ZZ") < 8

    def test_wrong_chunk_size_input(self):
        enc = FrequencyEncoder.train([b"AAAA"], 2, 8)
        with pytest.raises(ValueError):
            enc.encode_chunk(b"AAA")

    def test_invalid_n_codes(self):
        with pytest.raises(ConfigurationError):
            FrequencyEncoder.train([b"AB"], 1, 1 << 17)

    def test_assignment_validation(self):
        with pytest.raises(ConfigurationError):
            FrequencyEncoder(1, 4, {b"AB": 0})  # wrong chunk length
        with pytest.raises(ConfigurationError):
            FrequencyEncoder(1, 4, {b"A": 4})  # code out of range


class TestEncodingForms:
    @pytest.fixture
    def enc(self, name_corpus):
        return FrequencyEncoder.train(name_corpus[:300], 1, 8)

    def test_encode_symbols_length_preserving(self, enc):
        stream = enc.encode_symbols(b"SCHWARZ")
        assert len(stream) == 7
        assert all(b < 8 for b in stream)

    def test_encode_symbols_needs_chunk_one(self, name_corpus):
        enc2 = FrequencyEncoder.train(name_corpus[:300], 2, 8)
        with pytest.raises(ConfigurationError):
            enc2.encode_symbols(b"AB")

    def test_nonoverlapping_offsets(self, name_corpus):
        enc2 = FrequencyEncoder.train(name_corpus[:300], 2, 16)
        s0 = enc2.encode_nonoverlapping(b"ABCDE", 0)
        s1 = enc2.encode_nonoverlapping(b"ABCDE", 1)
        assert len(s0) == 2  # AB, CD
        assert len(s1) == 2  # BC, DE

    def test_nonoverlapping_bad_offset(self, name_corpus):
        enc2 = FrequencyEncoder.train(name_corpus[:300], 2, 16)
        with pytest.raises(ConfigurationError):
            enc2.encode_nonoverlapping(b"ABCD", 2)

    def test_sliding_strides_recover_every_offset(self, name_corpus):
        """One sliding pass over the text contains every offset's
        non-overlapping values as a stride slice."""
        enc4 = FrequencyEncoder.train(name_corpus[:300], 4, 16)
        for text in (b"ARBELAEZ LIBIA MARIA", b"ABCDEFG", b"ABC", b""):
            sliding = enc4.encode_values_sliding(text)
            for offset in range(4):
                assert sliding[offset::4] == (
                    enc4.encode_values_nonoverlapping(text, offset)
                ), (text, offset)

    def test_sliding_counts_every_window(self, name_corpus):
        enc2 = FrequencyEncoder.train(name_corpus[:300], 2, 16)
        assert len(enc2.encode_values_sliding(b"ABCDE")) == 4
        assert enc2.encode_values_sliding(b"A") == []

    def test_sliding_step(self, name_corpus):
        enc2 = FrequencyEncoder.train(name_corpus[:300], 2, 16)
        assert enc2.encode_values_sliding(b"ABCDEF", step=2) == (
            enc2.encode_values_nonoverlapping(b"ABCDEF", 0)
        )
        with pytest.raises(ConfigurationError):
            enc2.encode_values_sliding(b"ABCD", step=0)

    def test_substring_search_compatibility(self, enc):
        """Encoded query occurs in encoded record wherever the raw
        query occurs in the raw record (100% recall at stage 2)."""
        record = b"ARBELAEZ LIBIA MARIA"
        query = b"LIBIA"
        assert enc.encode_symbols(query) in enc.encode_symbols(record)

    def test_wide_code_space_packs_two_bytes(self, name_corpus):
        enc = FrequencyEncoder.train(name_corpus[:300], 2, 1000)
        assert enc.code_width == 2
        stream = enc.encode_nonoverlapping(b"ABCD", 0)
        assert len(stream) == 4  # 2 chunks x 2 bytes

    def test_assignment_table_sorted(self, enc):
        table = enc.assignment_table()
        counts = [count for __, count, __ in table]
        assert counts == sorted(counts, reverse=True)

    def test_bucket_loads_sum_to_training_mass(self, enc):
        assert sum(enc.bucket_loads()) == sum(enc.training_counts.values())


@given(
    st.lists(st.binary(min_size=2, max_size=20), min_size=1, max_size=30),
    st.sampled_from([2, 4, 8, 16]),
)
def test_property_recall_preserved_by_encoding(texts, n_codes):
    """Equal raw chunks encode equal — searchability is never lost."""
    enc = FrequencyEncoder.train(texts, 1, n_codes)
    for text in texts:
        encoded = enc.encode_symbols(text)
        for i in range(len(text)):
            for j in range(i + 1, len(text) + 1):
                assert enc.encode_symbols(text[i:j]) == encoded[i:j]
