"""One reply cache per node: a redelivered request is answered with
the reply its first delivery earned — same kind, same payload, same
billed size — and the table stays bounded at ``DEDUP_CACHE_LIMIT``.

Both node types that execute requests keep one :class:`ReplyCache`:
a data bucket for its inserts, deletes and scans, a parity bucket for
its degraded reads.
"""

import pytest

from repro.core.search import IndexKeyCodec, MultiPlanScanMatcher, SearchPlan
from repro.net import RetryPolicy
from repro.net.simulator import Message
from repro.sdds import LHStarFile, LHStarRSFile
from repro.sdds.lhstar import DEDUP_CACHE_LIMIT, HEADER_SIZE

FAST = RetryPolicy(timeout=0.05, backoff=2.0, max_retries=3)


def spy(node, kind):
    """Record the ``kind`` requests ``node`` receives and every
    (kind, payload, size) it sends from now on."""
    received, sent = [], []
    handle, send = node.handle, node.send

    def spy_handle(message):
        if message.kind == kind:
            received.append(message)
        handle(message)

    def spy_send(dst, kind, payload=None, size=64, hops=0):
        sent.append((kind, payload, size))
        send(dst, kind, payload, size=size, hops=hops)

    node.handle = spy_handle
    node.send = spy_send
    return received, sent


def redeliver(file, node, message, sent):
    """Hand ``message`` to ``node`` again; the one message it sends in
    answer."""
    before = len(sent)
    node.handle(message)
    file.network.run()
    (answer,) = sent[before:]
    return answer


def substring_plan(needle):
    return SearchPlan(pattern=needle, needles={(0, 0): (needle,)},
                      piece_width=1, sites=1, group_count=1,
                      alignments=(0,), required_groups=1)


def one_bucket_file(keys=6):
    file = LHStarFile(bucket_capacity=64, retry_policy=FAST)
    for key in range(keys):
        file.insert(key, f"payload-{key:03d}\x00".encode())
    return file


def rs_file(keys=80):
    file = LHStarRSFile(bucket_capacity=4, group_size=4, parity_count=1,
                        retry_policy=FAST)
    for key in range(keys):
        file.insert(key, f"payload-{key:03d}\x00".encode())
    return file


class TestReplay:
    def test_redelivered_insert_replays_first_reply(self):
        file = one_bucket_file()
        bucket = file.buckets[0]
        received, sent = spy(bucket, "insert")
        file.insert(99, b"ninety-nine\x00")
        (first,) = sent
        assert first[0] == "reply" and first[2] == HEADER_SIZE
        assert redeliver(file, bucket, received[0], sent) == first
        assert sent[-1][1] is first[1]
        assert file.record_count == 7
        assert len(bucket.replies) == 7

    def test_redelivered_scan_replays_first_reply(self):
        file = one_bucket_file()
        bucket = file.buckets[0]
        matcher = MultiPlanScanMatcher(
            [substring_plan(b"-00"), substring_plan(b"d-0")],
            IndexKeyCodec(0, 0),
        )
        received, sent = spy(bucket, "scan")
        hits = file.scan(matcher)
        (first,) = sent
        assert first[0] == "scan_reply"
        assert first[1]["hits"] == hits and {h.plan for h in hits} == {0, 1}
        assert first[2] == HEADER_SIZE + sum(hit.wire_size for hit in hits)
        # No re-forward and no re-match: the stored reply goes out.
        assert redeliver(file, bucket, received[0], sent) == first
        assert sent[-1][1] is first[1]

    @pytest.mark.parametrize("kind", ["degraded_lookup", "degraded_scan"])
    def test_redelivered_degraded_read_replays_first_reply(self, kind):
        file = rs_file()
        address = 1
        target = sorted(file.buckets[address].records)[0]
        parity = file.parity_buckets[(file.group_of(address), 0)]
        received, sent = spy(parity, kind)
        file.network.crash(file.bucket_id(address))
        if kind == "degraded_lookup":
            assert file.lookup(target) == f"payload-{target:03d}\x00".encode()
        else:
            assert len(file.scan(MultiPlanScanMatcher(
                [substring_plan(b"-0")], IndexKeyCodec(0, 0)))) == 80
        assert received, "the read must have been served degraded"
        first = next(out for out in sent if out[1].get("degraded"))
        assert redeliver(file, parity, received[0], sent) == first
        assert sent[-1][1] is first[1]


class TestBound:
    @pytest.mark.parametrize("node_type", ["bucket", "parity"])
    def test_holds_at_most_the_limit_oldest_evicted_first(self, node_type):
        if node_type == "bucket":
            node = one_bucket_file(keys=0).buckets[0]
        else:
            node = next(iter(rs_file(keys=8).parity_buckets.values()))
        node.send = lambda *args, **kwargs: None
        client = ("client", "F", 0)

        def request(op):
            return Message(src=client, dst=node.node_id, kind="delete",
                           payload={"client": client, "op": op})

        for op in range(DEDUP_CACHE_LIMIT + 2):
            node.replies.send((client, op), client, "reply",
                              {"op": op, "ok": True}, HEADER_SIZE)
            assert len(node.replies) == min(op + 1, DEDUP_CACHE_LIMIT)
        assert not node.replies.replay((client, 0), request(0))
        assert not node.replies.replay((client, 1), request(1))
        assert node.replies.replay((client, 2), request(2))
        assert node.replies.replay((client, DEDUP_CACHE_LIMIT + 1),
                                   request(DEDUP_CACHE_LIMIT + 1))
