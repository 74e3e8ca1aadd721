"""The operator verbs are one implementation on the Transport.

``coordinator_state``, ``dump_buckets``, ``dump_parity``,
``site_leave`` and ``decommission`` are :class:`Transport` methods:
the simulator answers them in-process, a site process answers the
control verb of the same name with them, and ``LiveNetwork`` fans
them out over the control plane.  This contract pins the reply
shapes the live tier ships on a shrinking simulator LH*_RS file with
one merge and one tombstone — no sockets.
"""

from __future__ import annotations

import inspect

import pytest

from repro.net.live import LiveNetwork
from repro.net.serve import SiteNetwork
from repro.net.simulator import Network, Transport
from repro.sdds.lhstar_rs import LHStarRSFile
from repro.sdds.records import Record

VERBS = ("coordinator_state", "dump_buckets", "dump_parity",
         "site_leave", "decommission")


@pytest.fixture
def shrunk():
    """Eight descending inserts split the file into buckets 0 and 1;
    a graceful leave of bucket 1 runs in between (its ``dead`` entry
    is read mid-drain); five deletes merge bucket 1 back into 0 and
    leave it a tombstone."""
    file = LHStarRSFile(name="ops", bucket_capacity=4, shrink=True,
                        group_size=4, parity_count=1)
    network = file.network
    for key in range(7, -1, -1):
        file.insert(key, b"v%d" % key)
    assert network.site_leave("ops", 1) is True
    draining = network.coordinator_state("ops")
    network.run()
    for key in (7, 6, 5, 3, 2):
        file.delete(key)
    network.run()
    assert network.stats.by_kind["merge"] == 1
    return file, network, draining


class TestOneImplementation:
    def test_carriers_inherit_or_override_with_one_signature(self):
        for verb in VERBS:
            base = getattr(Transport, verb)
            assert getattr(Network, verb) is base
            assert getattr(SiteNetwork, verb) is base
            # The live client fans out over the control plane under
            # the same name and parameters.
            assert verb in vars(LiveNetwork)
            assert (inspect.signature(getattr(LiveNetwork, verb))
                    .parameters.keys()
                    == inspect.signature(base).parameters.keys())


class TestReplyShapes:
    def test_coordinator_state(self, shrunk):
        file, network, draining = shrunk
        # Mid-drain: the departing LH*_RS bucket is dead-recovering,
        # keyed by its int address, valued as a list (wire shape).
        assert draining == {"i": 1, "n": 0, "dead": {1: [1, True]}}
        assert network.coordinator_state("ops") == {
            "i": 0, "n": 0, "dead": {}}
        assert file.state == (0, 0)
        with pytest.raises(ValueError, match="no coordinator"):
            network.coordinator_state("absent")

    def test_dump_buckets(self, shrunk):
        file, network, __ = shrunk
        dump = network.dump_buckets("ops")
        assert list(dump) == [0, 1]
        for info in dump.values():
            assert set(info) == {"level", "retired", "merge_target",
                                 "pending", "records"}
        assert (dump[0]["level"], dump[0]["retired"],
                dump[0]["merge_target"], dump[0]["pending"]) == (
            0, False, None, False)
        assert (dump[1]["retired"], dump[1]["merge_target"],
                dump[1]["records"]) == (True, 0, [])
        # Records come rid-sorted, whatever order the bucket holds.
        assert list(file.buckets[0].records) != [0, 1, 4]
        assert [r.rid for r in dump[0]["records"]] == [0, 1, 4]
        assert (file.bucket_count, file.live_bucket_count) == (2, 1)
        assert network.dump_buckets("absent") == {}

    def test_dump_parity(self, shrunk):
        file, network, __ = shrunk
        slots = network.dump_parity("ops")
        assert list(slots) == [(0, 0)]
        held = {}
        for rank, slot in slots[(0, 0)].items():
            assert isinstance(rank, int)
            assert set(slot) == {"payload", "rids", "lengths"}
            assert isinstance(slot["payload"], bytes)
            assert len(slot["rids"]) == len(slot["lengths"]) == 4
            if slot["rids"][0] is not None:
                held[slot["rids"][0]] = slot["lengths"][0]
        assert held == {rid: len(record.content) for rid, record
                        in file.buckets[0].records.items()}

    def test_site_leave_returns_a_bool(self, shrunk):
        __, network, __ = shrunk
        assert network.site_leave("ops", 5) is False  # out of range

    def test_decommission(self, shrunk):
        file, network, __ = shrunk
        with pytest.raises(ValueError, match="not retired"):
            network.decommission("ops", 0)
        tombstone = file.buckets[1]
        tombstone.records[99] = Record(99, b"stray")
        with pytest.raises(ValueError, match="still holds records"):
            file.decommission_bucket(1)
        del tombstone.records[99]
        file.decommission_bucket(1)
        assert ("bucket", "ops", 1) not in network.nodes
        assert 1 not in file.buckets
        assert list(network.dump_buckets("ops")) == [0]
        with pytest.raises(ValueError, match="no bucket 1"):
            network.decommission("ops", 1)
