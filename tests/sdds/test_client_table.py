"""The client's operation table: one record per open operation.

Every terminal outcome — a reply, an unavailable bucket, a spent
retry budget — makes the record done, and ``take_reply`` /
``take_scan`` pop it, so a client holds nothing once its caller has
taken every result.  A reply that arrives after the take finds no
record and leaves none behind.
"""

import pytest

from repro.errors import OperationPendingError
from repro.net import FaultModel, Network, RetryExhaustedError, RetryPolicy
from repro.sdds import BucketUnavailableError, LHStarClient, LHStarFile
from repro.sdds.lhstar import HEADER_SIZE, RidScanMatcher

FAST = RetryPolicy(timeout=0.05, backoff=2.0, max_retries=3)
take_reply = LHStarClient.take_reply
take_scan = LHStarClient.take_scan


def loaded_file(keys=40, **kwargs):
    file = LHStarFile(bucket_capacity=4, retry_policy=FAST, **kwargs)
    for k in range(keys):
        file.insert(k, b"v%d\x00" % k)
    return file


def lossy_file():
    """Every datagram is lost: each operation spends its budgets."""
    return LHStarFile(
        network=Network(faults=FaultModel(seed=1, loss_rate=1.0)),
        retry_policy=RetryPolicy(timeout=0.01, max_retries=2),
    )


def key_in(file, address):
    dump = file.network.dump_buckets(file.name)
    return dump[address]["records"][0].rid


def finish(file, start, take):
    """Start one operation, run the network, check the record is done
    while it waits, then take it; the table must end empty."""
    client = file.client
    op = start(client)
    file.network.run()
    assert client.operations[op].done
    try:
        return take(client, op)
    finally:
        assert client.operations == {}


def keyed(kind, key, content=None):
    return lambda client: client.start_keyed(kind, key, content)


def scan(client):
    return client.start_scan(RidScanMatcher())


class TestTerminalOutcomes:
    def test_keyed_ok(self):
        file = loaded_file()
        assert finish(file, keyed("insert", 99, b"x\x00"), take_reply)["ok"]
        reply = finish(file, keyed("lookup", 99), take_reply)
        assert reply["content"] == b"x\x00"

    def test_keyed_unavailable(self):
        file = loaded_file()
        target = key_in(file, 1)
        file.network.crash(file.bucket_id(1))
        with pytest.raises(BucketUnavailableError, match="no parity"):
            finish(file, keyed("lookup", target), take_reply)

    def test_keyed_retry_exhausted(self):
        with pytest.raises(RetryExhaustedError, match="no reply after 2"):
            finish(lossy_file(), keyed("insert", 1, b"v\x00"), take_reply)

    def test_scan_ok(self):
        file = loaded_file()
        assert sorted(finish(file, scan, take_scan)) == list(range(40))

    def test_scan_unavailable(self):
        file = loaded_file()
        file.network.crash(file.bucket_id(1))
        with pytest.raises(BucketUnavailableError, match="bucket 1"):
            finish(file, scan, take_scan)

    def test_scan_retry_exhausted(self):
        with pytest.raises(RetryExhaustedError, match="scan abandoned"):
            finish(lossy_file(), scan, take_scan)


class TestTake:
    def test_take_before_done_keeps_the_record(self):
        file = loaded_file()
        client = file.client
        op = client.start_keyed("lookup", 3)
        with pytest.raises(OperationPendingError):
            client.take_reply(op)
        assert not client.operations[op].done
        file.network.run()
        assert client.take_reply(op)["content"] == b"v3\x00"
        assert client.operations == {}

    def test_take_unknown_or_taken_op(self):
        file = loaded_file()
        op = file.client.start_scan(RidScanMatcher())
        file.network.run()
        file.client.take_scan(op)
        with pytest.raises(OperationPendingError):
            file.client.take_scan(op)
        with pytest.raises(OperationPendingError):
            file.client.take_reply(op + 1)


class TestLateReplies:
    def test_late_reply_after_take_leaves_nothing(self):
        file = loaded_file()
        client = file.client
        op = client.start_keyed("lookup", 5)
        file.network.run()
        client.take_reply(op)
        bucket = file.buckets[0]
        for __ in range(2):  # a late reply, then its duplicate
            bucket.send(client.node_id, "reply",
                        {"op": op, "ok": True, "content": b"stale\x00"},
                        size=HEADER_SIZE)
        file.network.run()
        assert client.operations == {}

    def test_late_scan_reply_after_take_leaves_nothing(self):
        file = loaded_file()
        client = file.client
        op = client.start_scan(RidScanMatcher())
        file.network.run()
        client.take_scan(op)
        bucket = file.buckets[0]
        for __ in range(2):
            bucket.send(client.node_id, "scan_reply",
                        {"op": op, "address": 0, "level": 1,
                         "hits": [0], "forwarded": []},
                        size=HEADER_SIZE)
        file.network.run()
        assert client.operations == {}

    def test_duplicate_replies_before_the_take_count_once(self):
        file = LHStarFile(
            network=Network(faults=FaultModel(seed=5,
                                              duplication_rate=1.0)),
            bucket_capacity=4, retry_policy=FAST,
        )
        for k in range(30):
            file.insert(k, b"v\x00")
        assert file.client.operations == {}
        assert sorted(finish(file, scan, take_scan)) == list(range(30))
