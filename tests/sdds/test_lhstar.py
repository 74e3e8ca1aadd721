"""LH* protocol behaviour over the simulator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Network
from repro.sdds import LHStarFile
from repro.sdds.lhstar import RidScanMatcher
from repro.sdds.records import Record
from tests.oracle import RecordsContaining


def small_file(capacity=4, name="lh"):
    return LHStarFile(name=name, bucket_capacity=capacity)


class TestBasicOperations:
    def test_insert_lookup(self):
        file = small_file()
        file.insert(1, b"one\x00")
        assert file.lookup(1) == b"one\x00"

    def test_lookup_missing(self):
        file = small_file()
        assert file.lookup(99) is None

    def test_overwrite(self):
        file = small_file()
        file.insert(1, b"a\x00")
        file.insert(1, b"b\x00")
        assert file.lookup(1) == b"b\x00"
        assert file.record_count == 1

    def test_delete(self):
        file = small_file()
        file.insert(1, b"x\x00")
        assert file.delete(1)
        assert file.lookup(1) is None
        assert not file.delete(1)

    def test_record_count(self):
        file = small_file()
        for k in range(25):
            file.insert(k, b"v\x00")
        assert file.record_count == 25

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            LHStarFile(bucket_capacity=0)


class TestSplitting:
    def test_file_grows_under_load(self):
        file = small_file(capacity=4)
        for k in range(100):
            file.insert(k, b"v\x00")
        assert file.bucket_count > 1
        i, n = file.state
        assert file.bucket_count == (1 << i) + n

    def test_all_records_in_correct_bucket(self):
        """After arbitrary splits, every record hashes to its bucket."""
        file = small_file(capacity=3)
        for k in range(200):
            file.insert(k * 7919, b"v\x00")
        for address, bucket in file.buckets.items():
            for rid in bucket.records:
                assert rid & ((1 << bucket.level) - 1) == address

    def test_no_records_lost_during_splits(self):
        file = small_file(capacity=2)
        keys = [k * 31 for k in range(150)]
        for k in keys:
            file.insert(k, str(k).encode() + b"\x00")
        for k in keys:
            assert file.lookup(k) == str(k).encode() + b"\x00"

    def test_bucket_levels_consistent_with_coordinator(self):
        file = small_file(capacity=4)
        for k in range(300):
            file.insert(k, b"v\x00")
        i, n = file.state
        for address, bucket in file.buckets.items():
            if address < n or address >= (1 << i):
                assert bucket.level == i + 1
            else:
                assert bucket.level == i


class TestClientImages:
    def test_stale_client_still_succeeds(self):
        file = small_file(capacity=2)
        for k in range(100):
            file.insert(k, b"v\x00")
        stale = file.new_client()  # image (0, 0)
        for k in (0, 17, 63, 99):
            op = stale.start_keyed("lookup", k)
            file.network.run()
            reply = stale.take_reply(op)
            assert reply["ok"]

    def test_iam_converges_image(self):
        file = small_file(capacity=2)
        for k in range(200):
            file.insert(k, b"v\x00")
        stale = file.new_client()
        rng = random.Random(5)
        for __ in range(100):
            op = stale.start_keyed("lookup", rng.randrange(200))
            file.network.run()
            stale.take_reply(op)
        image_size = (1 << stale.i_image) + stale.n_image
        assert image_size > 1
        assert image_size <= file.bucket_count

    def test_image_never_exceeds_file(self):
        file = small_file(capacity=2)
        stale = file.new_client()
        for k in range(300):
            file.insert(k, b"v\x00")
            if k % 10 == 0:
                op = stale.start_keyed("lookup", k)
                file.network.run()
                stale.take_reply(op)
                image_size = (1 << stale.i_image) + stale.n_image
                assert image_size <= file.bucket_count

    def test_forwarding_bounded_by_two_hops(self):
        """End-to-end check of the <= 2 forwarding-hops theorem."""
        file = small_file(capacity=2)
        for k in range(500):
            file.insert(k, b"v\x00")

        max_hops = 0
        original = type(file.buckets[0])._handle_keyed

        def tracking(self, message):
            nonlocal max_hops
            max_hops = max(max_hops, message.hops)
            return original(self, message)

        for bucket in file.buckets.values():
            bucket._handle_keyed = tracking.__get__(bucket)
        stale = file.new_client()
        for k in range(0, 500, 7):
            op = stale.start_keyed("lookup", k)
            file.network.run()
            stale.take_reply(op)
        assert max_hops <= 2

    def test_converged_lookup_costs_two_messages(self):
        file = small_file(capacity=4)
        for k in range(100):
            file.insert(k, b"v\x00")
        for k in range(100):
            file.lookup(k)  # converge
        before = file.network.stats.snapshot()
        for k in range(50):
            file.lookup(k)
        delta = file.network.stats.diff(before)
        assert delta.messages == 100  # request + reply each


class TestScan:
    def test_scan_finds_all_matches(self):
        file = small_file(capacity=4)
        for k in range(120):
            file.insert(k, b"even\x00" if k % 2 == 0 else b"odd\x00")
        hits = file.scan(RecordsContaining(b"even"))
        assert sorted(hits) == list(range(0, 120, 2))

    def test_scan_covers_every_bucket_exactly_once(self):
        file = small_file(capacity=2)
        for k in range(200):
            file.insert(k, b"v\x00")
        seen = file.scan(RidScanMatcher())
        assert sorted(seen) == list(range(200))

    def test_scan_with_stale_client_image(self):
        file = small_file(capacity=2)
        for k in range(150):
            file.insert(k, b"v\x00")
        stale = file.new_client()  # believes there is 1 bucket
        op = stale.start_scan(RidScanMatcher())
        file.network.run()
        hits = stale.take_scan(op)
        assert sorted(hits) == list(range(150))

    def test_scan_cost_is_linear_in_buckets(self):
        file = small_file(capacity=4)
        for k in range(200):
            file.insert(k, b"v\x00")
        before = file.network.stats.snapshot()
        file.scan(RidScanMatcher())
        delta = file.network.stats.diff(before)
        assert delta.messages == 2 * file.bucket_count

    def test_scan_empty_file(self):
        file = small_file()
        assert file.scan(RidScanMatcher()) == []


class TestMultiFileNetwork:
    def test_two_files_share_a_network(self):
        net = Network()
        a = LHStarFile(name="a", network=net, bucket_capacity=4)
        b = LHStarFile(name="b", network=net, bucket_capacity=4)
        a.insert(1, b"in-a\x00")
        b.insert(1, b"in-b\x00")
        assert a.lookup(1) == b"in-a\x00"
        assert b.lookup(1) == b"in-b\x00"

    def test_all_records_dump(self):
        file = small_file()
        for k in range(10):
            file.insert(k, b"v\x00")
        dump = file.all_records()
        assert len(dump) == 10
        assert all(isinstance(r, Record) for r in dump)


@settings(max_examples=15)
@given(
    st.lists(
        st.tuples(st.integers(0, 10_000), st.binary(min_size=1, max_size=30)),
        min_size=1,
        max_size=120,
    )
)
def test_property_file_equals_dict(operations):
    """An LH* file behaves exactly like a dict under inserts."""
    file = LHStarFile(bucket_capacity=3)
    model: dict[int, bytes] = {}
    for key, value in operations:
        file.insert(key, value)
        model[key] = value
    for key, value in model.items():
        assert file.lookup(key) == value
    assert file.record_count == len(model)
