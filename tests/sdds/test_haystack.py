"""BucketHaystack: the concatenated-blob offset table is exact.

The batched scan's correctness rests on one property: ``find_all``
over the concatenated blob reports exactly what per-record
``aligned_find`` reports — no cross-boundary matches, no sentinel
matches, alignment relative to each record's own start.  The second
half is the bucket's side of it: the haystack is dropped on every
record mutation, so a scan always answers from the resident records.
"""

import pytest

from repro.core.search import aligned_find
from repro.extensions.compressed_index import CompressedScanMatcher
from repro.net.simulator import Message
from repro.sdds.haystack import GAP, SENTINEL_BYTE, BucketHaystack
from repro.sdds.lhstar import LHStarFile
from repro.sdds.records import Record


def make_records(contents: dict[int, bytes]) -> dict[int, Record]:
    return {rid: Record(rid, blob) for rid, blob in contents.items()}


class TestLayout:
    def test_empty_bucket(self):
        hay = BucketHaystack({})
        assert len(hay) == 0
        assert hay.blob == b""
        assert list(hay.find_all(b"X", 1)) == []

    def test_single_record_has_no_sentinel(self):
        hay = BucketHaystack(make_records({7: b"ABCD"}))
        assert hay.blob == b"ABCD"
        assert hay.rids == [7]

    def test_records_joined_with_gap(self):
        hay = BucketHaystack(make_records({1: b"AB", 2: b"CD"}))
        assert hay.blob == b"AB" + bytes([SENTINEL_BYTE]) * GAP + b"CD"

    def test_preserves_dict_order(self):
        records = make_records({5: b"A", 1: b"B", 3: b"C"})
        assert BucketHaystack(records).rids == [5, 1, 3]

    def test_segments_roundtrip(self):
        contents = {1: b"AB", 2: b"", 3: b"XYZ"}
        hay = BucketHaystack(make_records(contents))
        assert {
            rid: bytes(view) for rid, view in hay.segments()
        } == contents

    def test_memory_accounting(self):
        hay = BucketHaystack(make_records({1: b"AB", 2: b"CD"}))
        assert hay.memory_bytes() == len(hay.blob) + 2 * 3 * 8


class TestFindAll:
    def test_matches_per_record_aligned_find(self):
        contents = {1: b"ABCDAB", 2: b"XXABYY", 3: b"AB" * 5}
        hay = BucketHaystack(make_records(contents))
        for width in (1, 2):
            expected = [
                (rid, position)
                for rid, blob in contents.items()
                for position in aligned_find(blob, b"AB", width)
            ]
            got = sorted(hay.find_all(b"AB", width))
            assert got == sorted(expected)

    def test_rejects_cross_boundary_match(self):
        # "CD" spans record 1's tail and record 2's head only via the
        # sentinel gap; zero-gap concatenation would see "CD" at the
        # seam of b"AC"+b"DB" — containment must reject it.
        hay = BucketHaystack(make_records({1: b"AC", 2: b"DB"}))
        assert list(hay.find_all(b"CD", 1)) == []

    def test_needle_spanning_into_gap_rejected(self):
        sentinel = bytes([SENTINEL_BYTE])
        hay = BucketHaystack(make_records({1: b"AB" + sentinel[:0] + b"C",
                                           2: b"D"}))
        # A needle ending with sentinel bytes can find its prefix at a
        # record tail; the containment check must reject it.
        assert list(hay.find_all(b"C" + sentinel, 1)) == []

    def test_sentinel_only_needle_never_matches(self):
        hay = BucketHaystack(make_records({1: b"AB", 2: b"CD"}))
        assert list(hay.find_all(bytes([SENTINEL_BYTE]), 1)) == []

    def test_alignment_relative_to_segment_start(self):
        # Record 2 starts at an odd blob offset unless GAP re-aligns;
        # positions must be record-relative regardless.
        hay = BucketHaystack(make_records({1: b"A", 2: b"ZZAB"}))
        assert list(hay.find_all(b"AB", 2)) == [(2, 1)]

    def test_empty_records_are_skipped(self):
        hay = BucketHaystack(make_records({1: b"", 2: b"AB", 3: b""}))
        assert list(hay.find_all(b"AB", 1)) == [(2, 0)]

    def test_empty_needle_rejected(self):
        hay = BucketHaystack(make_records({1: b"AB"}))
        with pytest.raises(ValueError):
            list(hay.find_all(b"", 1))
        with pytest.raises(ValueError):
            list(hay.find_records(b""))

    def test_bad_width_rejected(self):
        hay = BucketHaystack(make_records({1: b"AB"}))
        with pytest.raises(ValueError):
            list(hay.find_all(b"A", 0))


class TestFindRecords:
    def test_membership_each_record_once(self):
        hay = BucketHaystack(
            make_records({1: b"AB" * 10, 2: b"XY", 3: b"ZAB"})
        )
        assert list(hay.find_records(b"AB")) == [1, 3]

    def test_cross_boundary_membership_rejected(self):
        hay = BucketHaystack(make_records({1: b"AC", 2: b"DB"}))
        assert list(hay.find_records(b"CD")) == []

    def test_blob_order_preserved(self):
        records = make_records({9: b"QQ", 4: b"QQ", 6: b"QQ"})
        assert list(BucketHaystack(records).find_records(b"Q")) == [9, 4, 6]


def build_file(**kwargs):
    file = LHStarFile(name="scans", bucket_capacity=2, **kwargs)
    for rid in range(16):
        file.insert(rid, b"R-%02d" % rid)
    return file


def scan(file, needle=b"R-"):
    """A fresh, equal-valued matcher per call, as a live site decodes
    a new object per scan."""
    return sorted(rid for rid, _indexes in file.scan(
        CompressedScanMatcher(((needle,),)), request_size=4))


class TestBucketScansTrackMutations:
    def test_invalidated_by_put_and_delete(self):
        file = build_file()
        assert scan(file) == list(range(16))
        file.insert(99, b"R-99")
        file.insert(3, b"gone")          # overwrite in place
        file.delete(0)
        assert scan(file) == [
            rid for rid in range(1, 16) if rid != 3
        ] + [99]

    def test_invalidated_by_split_and_merge(self):
        file = build_file(shrink=True)
        expected = list(range(16))
        assert scan(file) == expected
        level = max(b.level for b in file.buckets.values())
        for rid in range(16, 48):        # force splits
            file.insert(rid, b"R-%02d" % rid)
            expected.append(rid)
            assert scan(file) == expected
        assert max(b.level for b in file.buckets.values()) > level
        for rid in range(40):            # force merges
            file.delete(rid)
            expected.remove(rid)
            assert scan(file) == expected


class SendOnlyNetwork:
    """The least a bucket may assume of the network hosting it: the
    scan handler once read a simulator-only attribute off
    ``self.network`` and broke every live site."""

    __slots__ = ("sent",)

    def __init__(self):
        self.sent = []

    def send(self, src, dst, kind, payload=None, size=64, hops=0):
        self.sent.append((dst, kind, payload, size))


def test_handle_scan_needs_only_send_from_its_network():
    file = LHStarFile(name="stub", bucket_capacity=64)
    for rid in range(4):
        file.insert(rid, b"R-%02d" % rid)
    bucket = file.buckets[0]
    bucket.network = SendOnlyNetwork()
    client = file.client_id(0)
    # Fresh op ids: the client numbered its four inserts 0-3, and a
    # bucket keeps one reply table for every request kind.  The
    # second scan reuses the haystack.
    for op in (4, 5):
        bucket.handle(Message(
            src=client, dst=bucket.node_id, kind="scan",
            payload={"op": op, "client": client, "level": 0,
                     "matcher": CompressedScanMatcher(((b"R-0",),))},
        ))
    replies = bucket.network.sent
    assert [(dst, kind) for dst, kind, _, _ in replies] == [
        (client, "scan_reply")
    ] * 2
    assert [reply[2]["hits"] for reply in replies] == [
        [(rid, (0,)) for rid in range(4)]
    ] * 2
    assert replies[0][3] == replies[1][3]
