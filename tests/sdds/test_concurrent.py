"""Concurrent multi-client batches: interleaved ops, splits in flight."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import JitterLatencyModel, Network
from repro.sdds import (
    BucketUnavailableError,
    LHStarFile,
    Record,
    client_address,
)


class InFlight:
    """A network observer that records, at every delivery, how many
    keyed operations the file's clients still await replies for."""

    def __init__(self, file):
        self.file = file
        self.counts = []

    def on_send(self, kind, size):
        pass

    def on_deliver(self, kind, size, latency):
        self.counts.append(sum(
            len(client._pending_keyed) for client in self.file.clients
        ))

    def on_drop(self, kind, size):
        pass


class TestConcurrentBatches:
    def test_concurrent_inserts_land(self):
        file = LHStarFile(bucket_capacity=3)
        ops = [("insert", k, b"v%d\x00" % k) for k in range(100)]
        file.run_concurrent(ops, concurrency=8)
        for k in range(100):
            assert file.lookup(k) == b"v%d\x00" % k

    def test_mixed_batch_results_in_order(self):
        file = LHStarFile(bucket_capacity=4)
        for k in range(50):
            file.insert(k, b"old\x00")
        ops = (
            [("lookup", k) for k in range(10)]
            + [("delete", k) for k in range(10, 20)]
            + [("insert", k, b"new\x00") for k in range(100, 110)]
        )
        results = file.run_concurrent(ops, concurrency=6)
        assert results[:10] == [b"old\x00"] * 10
        assert results[10:20] == [True] * 10
        assert results[20:] == [None] * 10

    def test_lookups_concurrent_with_split_storm(self):
        """Inserts forcing splits interleave with lookups of existing
        keys; every lookup must still resolve correctly."""
        file = LHStarFile(bucket_capacity=2)
        for k in range(40):
            file.insert(k, b"stable\x00")
        ops = []
        for k in range(40):
            ops.append(("insert", 1000 + k, b"x\x00"))
            ops.append(("lookup", k))
        results = file.run_concurrent(ops, concurrency=8)
        lookups = results[1::2]
        assert lookups == [b"stable\x00"] * 40

    def test_under_jitter(self):
        file = LHStarFile(
            network=Network(JitterLatencyModel(seed=3, jitter=0.05)),
            bucket_capacity=2,
        )
        for k in range(30):
            file.insert(k, b"s\x00")
        ops = [("lookup", k) for k in range(30)] + [
            ("insert", 500 + k, b"n\x00") for k in range(30)
        ]
        results = file.run_concurrent(ops, concurrency=5)
        assert results[:30] == [b"s\x00"] * 30

    def test_validation(self):
        file = LHStarFile()
        with pytest.raises(ValueError):
            file.run_concurrent([("lookup", 1)], concurrency=0)
        with pytest.raises(ValueError):
            file.run_concurrent([("bogus", 1)])

    def test_bad_batch_sends_nothing(self):
        """A batch with an unknown kind is refused whole: the valid
        insert before it never starts, so no reply strays into a
        client and nothing lands during a later network run."""
        file = LHStarFile()
        file.run_concurrent([("lookup", 0)], concurrency=2)
        before = file.network.stats.messages
        with pytest.raises(ValueError):
            file.run_concurrent([("insert", 1, b"x\x00"), ("bogus", 2)],
                                concurrency=2)
        assert file.network.stats.messages == before
        for client in file.clients:
            assert not client._pending_keyed
            assert not client.responses
        assert file.lookup(1) is None

    def test_failed_window_leaves_no_stray_reply(self):
        """One reply of a window raising does not strand the replies
        of the window's later clients."""
        file = LHStarFile(bucket_capacity=4)
        for k in range(16):
            file.insert(k, b"v\x00")
        assert file.bucket_count == 4
        file.network.crash(file.bucket_id(1))
        with pytest.raises(BucketUnavailableError):
            file.run_concurrent([("lookup", k) for k in (1, 0, 2, 4)],
                                concurrency=4)
        assert [len(client.responses) for client in file.clients] == \
            [0] * len(file.clients)

    @pytest.mark.parametrize("concurrency", [1, 3, 8])
    def test_at_most_concurrency_in_flight(self, concurrency):
        file = LHStarFile(bucket_capacity=4)
        observer = file.network.observer = InFlight(file)
        ops = [("insert", k, b"v\x00") for k in range(200)]
        ops += [("lookup", k) for k in range(0, 200, 7)]
        file.run_concurrent(ops, concurrency=concurrency)
        assert observer.counts
        assert max(observer.counts) == concurrency
        assert file.record_count == 200

    def test_split_records_misfit_is_reshipped(self):
        """A ``split_records`` shipment that reaches a bucket after it
        split again carries records that now belong elsewhere: the
        receiver re-ships each misfit to its home bucket instead of
        storing it where no lookup would find it."""
        file = LHStarFile(bucket_capacity=2)
        for k in range(16):
            file.insert(k, b"s\x00")
        i, n = file.state
        assert i >= 2
        key = 1001  # odd: never bucket 0's at any level >= 1
        home = client_address(key, i, n)
        assert home != 0
        file.client.send(file.bucket_id(0), "split_records",
                         {"records": [Record(key, b"misfit\x00")]})
        file.network.run()
        dump = file.network.dump_buckets(file.name)
        holders = [address for address, info in dump.items()
                   if any(r.rid == key for r in info["records"])]
        assert holders == [home]
        assert file.lookup(key) == b"misfit\x00"


@settings(max_examples=10)
@given(
    st.lists(st.integers(0, 500), min_size=1, max_size=60, unique=True),
    st.integers(1, 8),
)
def test_property_concurrent_equals_serial(keys, concurrency):
    """A concurrent insert batch produces the same file contents as
    serial insertion (order-independence of disjoint keys)."""
    serial = LHStarFile(name="serial", bucket_capacity=3)
    for key in keys:
        serial.insert(key, str(key).encode())
    concurrent = LHStarFile(name="concurrent", bucket_capacity=3)
    concurrent.run_concurrent(
        [("insert", key, str(key).encode()) for key in keys],
        concurrency=concurrency,
    )
    for key in keys:
        assert concurrent.lookup(key) == serial.lookup(key)
    assert concurrent.record_count == serial.record_count
