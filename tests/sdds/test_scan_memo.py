"""The bucket-level scan-result memo.

A matcher exposing ``scan_key()`` is a pure function of (key, resident
records), so a bucket may replay the hits of an equal-valued earlier
scan — on any backend, whatever delivers its messages — until a record
mutation (put, delete, split, merge) drops the memo with the haystack.
"""

from repro.core.compressed_index import CompressedScanMatcher
from repro.net.simulator import Message
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.sdds.lhstar import LHStarBucket, LHStarFile


def build_file(**kwargs):
    file = LHStarFile(name="memo", bucket_capacity=2, **kwargs)
    for rid in range(16):
        file.insert(rid, b"R-%02d" % rid)
    return file


def scan(file, needle=b"R-"):
    """A fresh, equal-valued matcher per call: the memo must key on
    value, not identity (a live site decodes a new object per scan)."""
    return sorted(file.scan(CompressedScanMatcher((needle,)),
                            request_size=4))


def memo_hits(registry):
    return registry.counter("lh.scan.memo_hit").value


class TestScanMemo:
    def test_repeat_scan_reuses_hits(self):
        file = build_file()
        registry = MetricsRegistry()
        with use_metrics(registry):
            first = scan(file, b"R-0")
            assert memo_hits(registry) == 0
            again = scan(file, b"R-0")
        assert first == again == list(range(10))
        assert memo_hits(registry) == len(file.buckets)

    def test_different_query_misses(self):
        file = build_file()
        registry = MetricsRegistry()
        with use_metrics(registry):
            assert scan(file, b"R-0") == list(range(10))
            assert scan(file, b"R-1") == list(range(10, 16))
        assert memo_hits(registry) == 0

    def test_memo_is_bounded(self):
        file = build_file()
        for digit in range(LHStarBucket.MATCH_MEMO_LIMIT + 4):
            scan(file, b"%02d" % digit)
        for bucket in file.buckets.values():
            assert len(bucket._match_memo) == (
                LHStarBucket.MATCH_MEMO_LIMIT
            )

    def test_matchers_without_scan_key_are_never_memoised(self):
        file = build_file()
        registry = MetricsRegistry()
        with use_metrics(registry):
            for _ in range(2):
                assert sorted(file.scan(
                    lambda record: record.rid, request_size=4
                )) == list(range(16))
        assert memo_hits(registry) == 0

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
    for op in (1, 2):                    # second scan: memo replay
        bucket.handle(Message(
            src=client, dst=bucket.node_id, kind="scan",
            payload={"op": op, "client": client, "level": 0,
                     "matcher": CompressedScanMatcher((b"R-0",))},
        ))
    replies = bucket.network.sent
    assert [(dst, kind) for dst, kind, _, _ in replies] == [
        (client, "scan_reply")
    ] * 2
    assert [reply[2]["hits"] for reply in replies] == [[0, 1, 2, 3]] * 2
    assert replies[0][3] == replies[1][3]
