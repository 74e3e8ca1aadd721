"""The analytical FP model vs simulation."""

import random

import pytest

from repro.analysis.model import (
    code_distribution,
    collision_index,
    expected_fp_count,
    minimum_query_codes,
    spurious_match_probability,
)
from repro.core.encoder import FrequencyEncoder


class TestPrimitives:
    def test_collision_index_uniform(self):
        assert collision_index([0.25] * 4) == pytest.approx(0.25)

    def test_collision_index_skewed_higher(self):
        assert collision_index([0.7, 0.1, 0.1, 0.1]) > 0.25

    def test_distribution_sums_to_one(self, name_corpus):
        encoder = FrequencyEncoder.train(name_corpus[:300], 1, 8)
        assert sum(code_distribution(encoder)) == pytest.approx(1.0)

    def test_spurious_probability_monotone_in_query_length(self):
        dist = [0.125] * 8
        probs = [
            spurious_match_probability(dist, [0] * k, 30)
            for k in (1, 2, 4, 6)
        ]
        assert probs == sorted(probs, reverse=True)

    def test_too_long_query_never_matches(self):
        assert spurious_match_probability([0.5, 0.5], [0] * 10, 5) == 0.0

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            spurious_match_probability([1.0], [], 5)


class TestModelVsSimulation:
    def test_accurate_on_independent_text(self):
        """On shuffled (independence-restored) corpora the random-text
        model predicts the measured FP count closely."""
        rng = random.Random(11)
        alphabet = b"ABCDEFGHIJKLMNOPQR"
        records = [
            bytes(rng.choice(alphabet) for __ in range(20))
            for __ in range(300)
        ]
        queries = [record[:4] for record in records[:60]]
        encoder = FrequencyEncoder.train(records, 1, 8)
        encoded = [encoder.encode_symbols(r) for r in records]
        measured = 0
        for query in queries:
            needle = encoder.encode_symbols(query)
            for record, stream in zip(records, encoded):
                if needle in stream and query not in record:
                    measured += 1
        predicted = expected_fp_count(
            encoder, queries, [len(r) for r in records]
        )
        assert predicted > 0
        # Prediction within a factor of 2 of the simulation.
        assert predicted / 2 <= measured <= predicted * 2

    def test_real_corpus_exceeds_baseline(self, sample_entries):
        """Name corpora are structured: measured FPs exceed the
        independent-text baseline (the 'Yu'/'Woo' effect)."""
        from repro.bench.falsepos import fp_symbol_chunked
        names = [e.name.encode("ascii") for e in sample_entries]
        encoder = FrequencyEncoder.train(names, 1, 8)
        outcome = fp_symbol_chunked(sample_entries, 8, chunk=1,
                                    encoder=encoder)
        predicted = expected_fp_count(
            encoder,
            [e.last_name.encode("ascii") for e in sample_entries],
            [len(n) for n in names],
        )
        assert outcome.false_positives > predicted


class TestPlanningHelper:
    def test_minimum_query_codes_monotone_in_budget(self):
        dist = [0.125] * 8
        strict = minimum_query_codes(dist, 30, 1000, tolerated_fp=0.1)
        loose = minimum_query_codes(dist, 30, 1000, tolerated_fp=100.0)
        assert strict >= loose

    def test_skew_needs_longer_queries(self):
        flat = minimum_query_codes([0.125] * 8, 30, 1000)
        skewed = minimum_query_codes(
            [0.65] + [0.05] * 7, 30, 1000
        )
        assert skewed >= flat

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            minimum_query_codes([1.0], 30, 10, tolerated_fp=0)
