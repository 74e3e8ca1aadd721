"""Aligned matching and hit aggregation."""

from dataclasses import replace

import pytest

from repro.core.search import (
    HitAggregator,
    MultiPlanScanMatcher,
    PlanScanMatcher,
    SearchPlan,
    SiteHit,
    aligned_find,
)
from repro.sdds.haystack import BucketHaystack
from tests.oracle import reference_match


class TestAlignedFind:
    def test_aligned_hit(self):
        assert aligned_find(b"ABCDEF", b"CD", 2) == [1]

    def test_unaligned_occurrence_rejected(self):
        assert aligned_find(b"ABCDEF", b"BC", 2) == []

    def test_multiple_hits(self):
        assert aligned_find(b"ABABAB", b"AB", 2) == [0, 1, 2]

    def test_overlapping_occurrences_filtered_by_alignment(self):
        assert aligned_find(b"AAAA", b"AA", 2) == [0, 1]

    def test_width_one_finds_everything(self):
        assert aligned_find(b"AAAA", b"AA", 1) == [0, 1, 2]

    def test_empty_needle_rejected(self):
        with pytest.raises(ValueError):
            aligned_find(b"AB", b"", 1)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            aligned_find(b"AB", b"A", 0)

    def test_needle_longer_than_haystack(self):
        assert aligned_find(b"AB", b"ABCD", 2) == []


def make_plan(sites=2, groups=2, alignments=(0, 1), required=2):
    """A hand-built plan whose needles are trivially inspectable."""
    needles = {}
    for group in range(groups):
        for alignment in alignments:
            needles[(group, alignment)] = tuple(
                bytes([group * 16 + alignment * 4 + site])
                for site in range(sites)
            )
    return SearchPlan(
        pattern=b"q",
        needles=needles,
        piece_width=1,
        sites=sites,
        group_count=groups,
        alignments=tuple(alignments),
        required_groups=required,
    )


def site_positions(plan, stream):
    """What site (0, 0) reports for one index record holding
    ``stream``: alignment -> positions."""
    matcher = PlanScanMatcher(plan, lambda key: (key, 0, 0))
    hits = matcher.match_bucket(BucketHaystack.from_segments([(1, stream)]))
    return hits[0].positions if hits else {}


class TestMatchSite:
    def test_reports_per_alignment_positions(self):
        plan = make_plan()
        # Site (0,0): needle for alignment 0 is bytes([0]), for 1 is
        # bytes([4]).
        stream = bytes([9, 0, 4, 0])
        assert site_positions(plan, stream) == {0: [1, 3], 1: [2]}

    def test_no_hits_is_empty(self):
        plan = make_plan()
        assert site_positions(plan, bytes([99, 98])) == {}

    def test_request_size_counts_all_needles(self):
        plan = make_plan(sites=2, groups=2, alignments=(0, 1))
        assert plan.request_size() == 8  # 2*2*2 needles of 1 byte


class TestMultiPlanReply:
    def test_two_plans_reply_one_flat_tagged_list(self):
        """Several plans answer in one flat SiteHit list: haystack
        order, plan order within a record, each hit tagged with its
        plan index and billed 2 bytes for the tag."""
        first = make_plan(sites=1, groups=1, alignments=(0,), required=1)
        second = replace(first, needles={(0, 0): (bytes([7]),)})
        matcher = MultiPlanScanMatcher([first, second],
                                       lambda key: (key, 0, 0))
        haystack = BucketHaystack.from_segments([
            (3, bytes([0, 7])), (1, bytes([7])), (2, bytes([9])),
        ])
        hits = matcher.match_bucket(haystack)
        assert hits == [
            SiteHit(rid=3, group=0, site=0, positions={0: [0]}, plan=0),
            SiteHit(rid=3, group=0, site=0, positions={0: [1]}, plan=1),
            SiteHit(rid=1, group=0, site=0, positions={0: [0]}, plan=1),
        ]
        assert hits == reference_match(matcher, haystack)
        assert [hit.wire_size for hit in hits] == [18, 18, 18]
        assert replace(hits[0], plan=None).wire_size == 16


def make_aggregator(plan, chunk_size=4):
    """Geometry of a full layout without partial chunks: chunking
    ``g`` starts its stream chunk 0 at symbol ``g``."""
    return HitAggregator(
        plan, chunk_size, tuple(range(plan.group_count))
    )


class TestAggregation:
    def test_group_requires_all_sites_same_position(self):
        plan = make_plan(sites=2, groups=1, alignments=(0,), required=1)
        agg = make_aggregator(plan)
        agg.add(SiteHit(rid=1, group=0, site=0, positions={0: [3, 5]}))
        agg.add(SiteHit(rid=1, group=0, site=1, positions={0: [5, 9]}))
        assert agg.candidates() == {1}  # intersect at 5

    def test_group_rejects_disjoint_positions(self):
        plan = make_plan(sites=2, groups=1, alignments=(0,), required=1)
        agg = make_aggregator(plan)
        agg.add(SiteHit(rid=1, group=0, site=0, positions={0: [3]}))
        agg.add(SiteHit(rid=1, group=0, site=1, positions={0: [4]}))
        assert agg.candidates() == set()

    def test_group_rejects_missing_site(self):
        plan = make_plan(sites=2, groups=1, alignments=(0,), required=1)
        agg = make_aggregator(plan)
        agg.add(SiteHit(rid=1, group=0, site=0, positions={0: [3]}))
        assert agg.candidates() == set()

    def test_alignments_do_not_mix(self):
        """Sites must agree per alignment, not across alignments."""
        plan = make_plan(sites=2, groups=1, alignments=(0, 1), required=1)
        agg = make_aggregator(plan)
        agg.add(SiteHit(rid=1, group=0, site=0, positions={0: [3]}))
        agg.add(SiteHit(rid=1, group=0, site=1, positions={1: [3]}))
        assert agg.candidates() == set()

    def test_required_groups_threshold(self):
        # A pattern starting at symbol 4 (s = 4): alignment 0 lands on
        # chunk 1 of the offset-0 chunking, alignment 1 on chunk 1 of
        # the offset-1 chunking (4 + 1 = 1 + 1·4).
        plan = make_plan(sites=1, groups=2, alignments=(0, 1), required=2)
        agg = make_aggregator(plan)
        agg.add(SiteHit(rid=1, group=0, site=0, positions={0: [1]}))
        assert agg.candidates() == set()  # only 1 of 2 groups
        agg.add(SiteHit(rid=1, group=1, site=0, positions={1: [1]}))
        assert agg.candidates() == {1}

    def test_groups_must_agree_on_one_pattern_start(self):
        """Enough groups hitting is not enough: group 0 places the
        pattern at symbol 4, group 1 at symbol 28."""
        plan = make_plan(sites=1, groups=2, alignments=(0, 1), required=2)
        agg = make_aggregator(plan)
        agg.add(SiteHit(rid=1, group=0, site=0, positions={0: [1]}))
        agg.add(SiteHit(rid=1, group=1, site=0, positions={1: [7]}))
        assert agg.intersected_positions(1, 0, 0) == {1}
        assert agg.intersected_positions(1, 1, 1) == {7}
        assert agg.candidates() == set()

    def test_padded_head_chunk_shifts_the_origin(self):
        """With a stored partial head chunk, the offset-1 chunking's
        stream chunk 0 begins at symbol 1 − s, so the same occurrence
        sits one chunk position later."""
        plan = make_plan(sites=1, groups=2, alignments=(0, 1), required=2)
        agg = HitAggregator(plan, 4, (0, -3))
        agg.add(SiteHit(rid=1, group=0, site=0, positions={0: [1]}))
        agg.add(SiteHit(rid=1, group=1, site=0, positions={1: [2]}))
        assert agg.candidates() == {1}

    def test_or_rule(self):
        plan = make_plan(sites=1, groups=2, alignments=(0,), required=1)
        agg = make_aggregator(plan)
        agg.add(SiteHit(rid=5, group=1, site=0, positions={0: [0]}))
        assert agg.candidates() == {5}

    def test_multiple_rids_independent(self):
        plan = make_plan(sites=1, groups=1, alignments=(0,), required=1)
        agg = make_aggregator(plan)
        agg.add(SiteHit(rid=1, group=0, site=0, positions={0: [0]}))
        agg.add(SiteHit(rid=2, group=0, site=0, positions={0: [1]}))
        assert agg.candidates() == {1, 2}
