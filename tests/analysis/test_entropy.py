"""Entropy estimators."""

import math
from collections import Counter

import pytest

from repro.analysis.entropy import redundancy, shannon_entropy


class TestShannon:
    def test_uniform(self):
        counts = Counter({i: 5 for i in range(8)})
        assert shannon_entropy(counts) == pytest.approx(3.0)

    def test_degenerate(self):
        assert shannon_entropy(Counter({"a": 10})) == 0.0

    def test_fair_coin(self):
        assert shannon_entropy(Counter({0: 7, 1: 7})) == pytest.approx(1.0)

    def test_empty(self):
        with pytest.raises(ValueError):
            shannon_entropy(Counter())

    def test_bounded_by_log_alphabet(self):
        counts = Counter({"a": 3, "b": 9, "c": 1})
        assert shannon_entropy(counts) <= math.log2(3) + 1e-12


class TestRedundancy:
    def test_uniform_stream_has_zero_redundancy(self):
        counts = Counter({i: 4 for i in range(16)})
        assert redundancy(counts, 16) == pytest.approx(0.0)

    def test_degenerate_stream_fully_redundant(self):
        assert redundancy(Counter({0: 99}), 16) == pytest.approx(1.0)

    def test_invalid_alphabet(self):
        with pytest.raises(ValueError):
            redundancy(Counter({0: 1}), 1)

    def test_names_are_redundant(self, name_corpus):
        counts = Counter()
        for text in name_corpus[:500]:
            counts.update(bytes([b]) for b in text)
        # English-like name text over the observed alphabet is far
        # from uniform (the property Stage 2 exists to remove).
        assert redundancy(counts, len(counts)) > 0.10
