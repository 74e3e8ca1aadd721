"""Payload corruption: wire checksums, billing, retry recovery."""

import pytest

from repro.net import (
    FaultModel,
    Message,
    Network,
    Node,
    RetryPolicy,
    wire_checksum,
)
from repro.sdds.lhstar import LHStarFile
from tests.oracle import RecordsContaining


class Collector(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received: list[Message] = []

    def handle(self, message: Message) -> None:
        self.received.append(message)


def corrupt_net(rate=1.0, seed=0):
    net = Network(faults=FaultModel(seed=seed, corruption_rate=rate))
    net.attach(Collector("src"))
    sink = net.attach(Collector("sink"))
    return net, sink


class TestWireChecksum:
    def test_pure_function_of_message(self):
        payload = {"key": 7, "content": b"abc", "flag": True}
        assert wire_checksum("insert", payload, 64) == wire_checksum(
            "insert", dict(payload), 64
        )

    def test_sensitive_to_kind_payload_and_size(self):
        base = wire_checksum("insert", {"key": 7}, 64)
        assert wire_checksum("lookup", {"key": 7}, 64) != base
        assert wire_checksum("insert", {"key": 8}, 64) != base
        assert wire_checksum("insert", {"key": 7}, 65) != base

    def test_never_zero(self):
        """Zero is the 'not stamped' sentinel on Message."""
        for kind in ("a", "b", "c", "insert", "scan"):
            for size in (0, 1, 64, 4096):
                assert wire_checksum(kind, {}, size) != 0

    def test_opaque_objects_hash_by_type_only(self):
        """Matcher callables etc. contribute no memory addresses, so
        the value is stable across processes."""
        assert wire_checksum(
            "scan", {"matcher": lambda r: r}, 64
        ) == wire_checksum("scan", {"matcher": lambda x: None}, 64)

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            FaultModel(corruption_rate=1.5)


class TestCorruptionDelivery:
    def test_corrupted_copy_discarded_and_billed(self):
        net, sink = corrupt_net(rate=1.0)
        net.send("src", "sink", "data", {"n": 1}, size=100)
        assert net.run() == 0
        assert sink.received == []
        assert net.stats.corrupted == 1
        # Charged to the sender: the bytes crossed the wire.
        assert net.stats.messages == 1

    def test_zero_rate_messages_unstamped(self):
        net, sink = corrupt_net(rate=0.0)
        net.send("src", "sink", "data", {"n": 1})
        net.run()
        assert sink.received[0].checksum == 0
        assert net.stats.corrupted == 0

    def test_structural_kinds_never_corrupted(self):
        net, sink = corrupt_net(rate=1.0)
        net.send("src", "sink", "split", {"n": 1})
        assert net.run() == 1
        assert sink.received[0].kind == "split"
        assert net.stats.corrupted == 0

    def test_zero_rate_random_stream_untouched(self):
        """Adding the corruption draw must not shift old seeds'
        loss/duplication schedules."""
        legacy = FaultModel(seed=9, loss_rate=0.3,
                            duplication_rate=0.2)
        modern = FaultModel(seed=9, loss_rate=0.3,
                            duplication_rate=0.2, corruption_rate=0.0)
        draws = []
        for model in (legacy, modern):
            model_draws = []
            for __ in range(100):
                model_draws.append(model.drops())
                model_draws.append(model.duplicates())
                model_draws.append(model.corrupts())
            draws.append(model_draws)
        assert draws[0] == draws[1]

    def test_seeded_corruption_deterministic(self):
        outcomes = []
        for __ in range(2):
            net, sink = corrupt_net(rate=0.4, seed=21)
            for n in range(40):
                net.send("src", "sink", "data", {"n": n})
            net.run()
            outcomes.append(
                ([m.payload["n"] for m in sink.received],
                 net.stats.corrupted)
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] > 0


class TestCorruptionRecovery:
    def test_keyed_ops_recover_through_retry(self):
        """Corruption degrades cost, never correctness: every op
        lands exactly once, paid for by retransmissions."""
        net = Network(faults=FaultModel(seed=3, corruption_rate=0.3))
        file = LHStarFile(
            name="f", network=net, bucket_capacity=4,
            retry_policy=RetryPolicy(timeout=0.05, backoff=2.0,
                                     max_retries=8),
        )
        for key in range(24):
            file.insert(key, bytes([key]) * 8)
        for key in range(24):
            assert file.lookup(key) == bytes([key]) * 8
        assert net.stats.corrupted > 0
        assert net.stats.retries > 0

    def test_corrupted_scan_reply_retried(self):
        net = Network(faults=FaultModel(seed=5, corruption_rate=0.25))
        file = LHStarFile(
            name="f", network=net, bucket_capacity=4,
            retry_policy=RetryPolicy(timeout=0.05, backoff=2.0,
                                     max_retries=8),
        )
        for key in range(16):
            file.insert(key, b"V" + bytes([key]))
        hits = file.scan(RecordsContaining(b"V"))
        assert sorted(hits) == list(range(16))
