"""Unit tests for the multi-needle scan automaton.

The gram index must be a *drop-in* for the per-needle sweeps: same
hits, same order, for every needle — plus the routing thresholds, the
once-per-matcher compile, and the memory accounting the census reports.
"""

import pytest

from repro.core.automaton import (
    INDEX_MAX_BLOB,
    INDEX_MAX_NEEDLE,
    INDEX_MIN_NEEDLES,
    ScanAutomaton,
    gram_index,
    needles_automaton,
    plans_automaton,
)
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.sdds.haystack import BucketHaystack

SEGMENTS = [
    (3, b"ABABCDCD"),
    (7, b"ZZABZZAB"),
    (9, b"CDCDCDCD"),
    (11, b"A"),          # shorter than most needles
    (12, b""),           # empty segment
]

NEEDLES = [b"AB", b"CD", b"ZZ", b"XY", b"ABAB", b"DCDC", b"A"]


def hay():
    return BucketHaystack.from_segments(SEGMENTS)


def indexed_automaton(length):
    """An automaton whose single lane crossed the index threshold."""
    return ScanAutomaton([(None, length)] * INDEX_MIN_NEEDLES)


def flat_hits(automaton, haystack, needle, width):
    """``lookup_grouped`` flattened to ``find_all``'s hit stream; the
    fallback route (``None``) *is* ``find_all``."""
    grouped = automaton.lookup_grouped(haystack, None, needle, width)
    if grouped is None:
        return list(haystack.find_all(needle, width))
    return [
        (key, position)
        for key, positions in grouped
        for position in positions
    ]


class TestGramIndexEquivalence:
    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("needle", NEEDLES)
    def test_lookup_matches_find_all(self, needle, width):
        automaton = indexed_automaton(len(needle))
        assert automaton.uses_index(None, len(needle), len(hay().blob))
        assert automaton.lookup_grouped(
            hay(), None, needle, width
        ) is not None
        assert flat_hits(automaton, hay(), needle, width) == list(
            hay().find_all(needle, width)
        ), (needle, width)

    @pytest.mark.parametrize("needle", NEEDLES)
    def test_lookup_records_matches_find_records(self, needle):
        automaton = indexed_automaton(len(needle))
        assert list(automaton.lookup_records(hay(), needle)) == list(
            hay().find_records(needle)
        ), needle

    def test_grams_never_straddle_segments(self):
        # "AB" at the end of rid 3 and "CD" at the start of rid 9 form
        # no cross-segment gram; neither does rid 11's lone "A" with
        # anything after it.
        automaton = indexed_automaton(2)
        assert automaton.lookup_grouped(hay(), None, b"DZ", 1) == []
        assert automaton.lookup_grouped(hay(), None, b"DA", 1) == []
        assert list(automaton.lookup_records(hay(), b"DZ")) == []

    def test_fallback_and_index_agree_below_threshold(self):
        sparse = ScanAutomaton([(None, 2)])  # 1 needle: fallback
        dense = indexed_automaton(2)
        assert not sparse.uses_index(None, 2, len(hay().blob))
        for needle in (b"AB", b"CD", b"XY"):
            assert sparse.lookup_grouped(hay(), None, needle, 1) is None
            assert flat_hits(sparse, hay(), needle, 1) == flat_hits(
                dense, hay(), needle, 1
            ), needle
            assert list(sparse.lookup_records(hay(), needle)) == list(
                dense.lookup_records(hay(), needle)
            ), needle


class TestRouting:
    def test_min_needles_threshold(self):
        below = ScanAutomaton([(None, 2)] * (INDEX_MIN_NEEDLES - 1))
        at = ScanAutomaton([(None, 2)] * INDEX_MIN_NEEDLES)
        assert not below.uses_index(None, 2, 100)
        assert at.uses_index(None, 2, 100)

    def test_lanes_are_independent(self):
        automaton = ScanAutomaton(
            [((0, 0), 2)] * INDEX_MIN_NEEDLES + [((0, 1), 2)]
        )
        assert automaton.uses_index((0, 0), 2, 100)
        assert not automaton.uses_index((0, 1), 2, 100)
        assert not automaton.uses_index((1, 0), 2, 100)

    def test_needle_length_ceiling(self):
        long = INDEX_MAX_NEEDLE + 1
        automaton = ScanAutomaton([(None, long)] * INDEX_MIN_NEEDLES)
        assert not automaton.uses_index(None, long, 100)

    def test_blob_ceiling(self):
        automaton = indexed_automaton(2)
        assert automaton.uses_index(None, 2, INDEX_MAX_BLOB)
        assert not automaton.uses_index(None, 2, INDEX_MAX_BLOB + 1)


class TestCaches:
    def test_gram_index_memo_and_metrics(self):
        haystack = hay()
        registry = MetricsRegistry()
        with use_metrics(registry):
            first = gram_index(haystack, 2, 1)
            again = gram_index(haystack, 2, 1)
            other = gram_index(haystack, 2, 2)
        assert first is again
        assert other is not first
        assert registry.counter("lh.haystack.automaton.build").value == 2
        assert registry.counter("lh.haystack.automaton.hit").value == 1
        assert registry.histogram(
            "lh.haystack.automaton.bytes"
        ).count == 2

    def test_memory_bytes_reports_cached_views(self):
        haystack = hay()
        base = haystack.memory_bytes()
        index = gram_index(haystack, 2, 1)
        assert index.memory_bytes() > 0
        assert haystack.memory_bytes() >= base + index.memory_bytes()

    def test_matchers_compile_their_automaton_once(self, monkeypatch):
        """One compile per matcher instance, shared by every bucket it
        scans — and none at all until a bucket-level scan asks."""
        from repro.core import search
        from repro.extensions import compressed_index

        compiles = []

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(needles):
                compiles.append(name)
                return real(needles)

            monkeypatch.setattr(module, name, wrapper)

        counting(search, "plans_automaton")
        counting(compressed_index, "needles_automaton")
        plan = search.SearchPlan(
            pattern=b"AB", needles={(0, 0): (b"AB",)},
            piece_width=1, sites=1, group_count=1,
            alignments=(0,), required_groups=1,
        )
        codec = search.IndexKeyCodec(site_bits=0, group_bits=0)
        matchers = [
            search.PlanScanMatcher(plan, codec),
            search.MultiPlanScanMatcher([plan], codec),
            compressed_index.CompressedScanMatcher(((b"AB", b"CD"),)),
            compressed_index.CompressedScanMatcher(((b"AB",), (b"CD",))),
        ]
        assert compiles == []
        for matcher in matchers:
            first = matcher.match_bucket(hay())
            assert matcher.match_bucket(hay()) == first
        assert sorted(compiles) == [
            "needles_automaton", "needles_automaton",
            "plans_automaton", "plans_automaton",
        ]
        # A one-plan multiplexed matcher answers as the plan matcher
        # does: the same untagged hits, billed the same.
        from repro.sdds.lhstar import _hit_size

        single, multi = (matcher.match_bucket(hay())
                         for matcher in matchers[:2])
        assert single and multi == single
        assert {hit.plan for hit in multi} == {None}
        assert list(map(_hit_size, multi)) == list(map(_hit_size, single))

    def test_needles_automaton_counts_distinct_needles(self):
        repeated = needles_automaton(
            (b"AB",) * INDEX_MIN_NEEDLES
        )
        assert not repeated.uses_index(None, 2, 100)

    def test_plans_automaton_counts_distinct_needles(self):
        from repro.core.search import SearchPlan

        plan, twin = (
            SearchPlan(
                pattern=b"AB", needles={(0, 0): (b"A", b"B")},
                piece_width=1, sites=2, group_count=1,
                alignments=(0,), required_groups=(0,),
            )
            for _ in range(2)
        )
        # Needles repeated across plans count once in the lane census.
        assert not plans_automaton(
            [plan, twin] * INDEX_MIN_NEEDLES
        ).uses_index((0, 0), 1, 100)
