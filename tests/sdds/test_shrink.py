"""File shrinking: merges, tombstones, regrowth (the abstract's
'grows and shrinks with the storage needs')."""

import pytest

from repro.sdds import LHStarFile
from repro.sdds.lhstar import RidScanMatcher
from repro.sdds.lhstar_rs import LHStarRSFile


class DropLog:
    """A network observer that keeps the kind of every dropped
    message."""

    def __init__(self):
        self.kinds = []

    def on_send(self, kind, size):
        pass

    def on_deliver(self, kind, size, latency):
        pass

    def on_drop(self, kind, size):
        self.kinds.append(kind)


def grown_file(**options):
    file = LHStarFile(bucket_capacity=4, shrink=True, **options)
    for k in range(200):
        file.insert(k, b"v\x00")
    return file


class TestShrink:
    def test_validation(self):
        with pytest.raises(ValueError):
            LHStarFile(shrink=True, merge_threshold=0.0)
        with pytest.raises(ValueError):
            LHStarFile(shrink=True, merge_threshold=0.9)

    def test_file_shrinks_after_mass_deletion(self):
        file = grown_file()
        grown = file.coordinator.bucket_count
        for k in range(180):
            file.delete(k)
        assert file.coordinator.bucket_count < grown

    def test_remaining_records_still_found(self):
        file = grown_file()
        for k in range(180):
            file.delete(k)
        for k in range(180, 200):
            assert file.lookup(k) == b"v\x00"
        for k in range(180):
            assert file.lookup(k) is None

    def test_tombstones_redirect_stale_clients(self):
        file = grown_file()
        stale = file.new_client()
        # Converge the stale client on the grown file first.
        for k in range(0, 200, 5):
            op = stale.start_keyed("lookup", k)
            file.network.run()
            stale.take_reply(op)
        image_size = (1 << stale.i_image) + stale.n_image
        for k in range(180):
            file.delete(k)
        assert image_size > file.coordinator.bucket_count
        # The stale image now points at tombstones; every lookup must
        # still resolve.
        for k in range(180, 200):
            op = stale.start_keyed("lookup", k)
            file.network.run()
            assert stale.take_reply(op)["ok"]

    def test_scan_correct_after_shrink(self):
        file = grown_file()
        for k in range(180):
            file.delete(k)
        hits = file.scan(RidScanMatcher())
        assert sorted(hits) == list(range(180, 200))

    def test_scan_with_stale_image_after_shrink(self):
        file = grown_file()
        stale = file.new_client()
        for k in range(0, 200, 5):
            op = stale.start_keyed("lookup", k)
            file.network.run()
            stale.take_reply(op)
        for k in range(180):
            file.delete(k)
        op = stale.start_scan(RidScanMatcher())
        file.network.run()
        hits = stale.take_scan(op)
        assert sorted(hits) == list(range(180, 200))

    def test_regrowth_revives_tombstones(self):
        file = grown_file()
        for k in range(180):
            file.delete(k)
        shrunk = file.coordinator.bucket_count
        # Crashed tombstones: nothing suspects them, so a split that
        # regrows over one must put a fresh node there, or the
        # splitter's split_records shipment dies as a crashed_drops
        # and its records are gone.
        tombstones = [b.node_id for b in file.buckets.values()
                      if b.retired]
        assert tombstones
        file.sync_client_images()
        for node_id in tombstones:
            file.network.crash(node_id)
        drops = DropLog()
        file.network.observer = drops
        for k in range(1000, 1300):
            file.insert(k, b"w\x00")
        assert file.coordinator.bucket_count > shrunk
        assert "split_records" not in drops.kinds
        assert file.network.stats.crashed_drops == 0
        for node_id in tombstones:
            assert not file.network.is_crashed(node_id)
            assert not file.buckets[node_id[2]].retired
        for k in range(1000, 1300):
            assert file.lookup(k) == b"w\x00"
        for k in range(180, 200):
            assert file.lookup(k) == b"v\x00"

    def test_merge_preserves_addressing_invariant(self):
        file = grown_file()
        for k in range(0, 180, 2):
            file.delete(k)
        for address, bucket in file.buckets.items():
            if bucket.retired:
                assert not bucket.records
                continue
            for rid in bucket.records:
                assert rid & ((1 << bucket.level) - 1) == address

    def test_no_shrink_by_default(self):
        file = LHStarFile(bucket_capacity=4)
        for k in range(200):
            file.insert(k, b"v\x00")
        grown = file.coordinator.bucket_count
        for k in range(200):
            file.delete(k)
        assert file.coordinator.bucket_count == grown


class TestTombstoneShipments:
    def test_late_shipment_reforwarded(self):
        """A record shipment arriving at an already-retired bucket
        must be re-forwarded, never stranded in the tombstone."""
        from repro.sdds.records import Record

        file = LHStarFile(bucket_capacity=4, shrink=True)
        for k in range(40):
            file.insert(k, b"v\x00")
        for k in range(36):
            file.delete(k)
        tombstone = next(
            b for b in file.buckets.values() if b.retired
        )
        stray = Record(10_007, b"stray\x00")
        file.network.send(
            file.coordinator_id,       # any attached source works
            tombstone.node_id,
            "split_records",
            {"records": [stray]},
        )
        file.network.run()
        assert not tombstone.records
        # The record ended up at its true (live) home bucket.
        assert file.lookup(10_007) == b"stray\x00"


class TestShrinkWithParity:
    def test_rs_recovery_survives_merges(self):
        file = LHStarRSFile(
            bucket_capacity=4, group_size=4, parity_count=2,
            shrink=True,
        )
        for k in range(150):
            file.insert(k, f"r{k:03d}".encode() + b"\x00")
        for k in range(120):
            file.delete(k)
        live = [a for a, b in file.buckets.items() if not b.retired]
        for address in live[:4]:
            assert file.verify_recovery([address]), address
