"""Fault injection: seeded loss/duplication and the retry policy."""

import pytest

from repro.net import (
    RELIABLE_KINDS,
    FaultModel,
    LatencyModel,
    Message,
    Network,
    Node,
    RetryPolicy,
)


class Collector(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received: list[Message] = []

    def handle(self, message: Message) -> None:
        self.received.append(message)


def lossy_net(**kwargs):
    net = Network(faults=FaultModel(**kwargs))
    sink = net.attach(Collector("sink"))
    net.attach(Collector("src"))
    return net, sink


class TestFaultModel:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultModel(loss_rate=1.5)
        with pytest.raises(ValueError):
            FaultModel(duplication_rate=-0.1)

    def test_seeded_decisions_are_deterministic(self):
        a = FaultModel(seed=5, loss_rate=0.3, duplication_rate=0.2)
        b = FaultModel(seed=5, loss_rate=0.3, duplication_rate=0.2)
        assert [a.drops() for _ in range(50)] == [
            b.drops() for _ in range(50)
        ]

    def test_different_seeds_differ(self):
        a = FaultModel(seed=1, loss_rate=0.5)
        b = FaultModel(seed=2, loss_rate=0.5)
        assert [a.drops() for _ in range(64)] != [
            b.drops() for _ in range(64)
        ]

    def test_structural_kinds_protected(self):
        model = FaultModel(loss_rate=1.0)
        for kind in RELIABLE_KINDS:
            assert not model.applies(kind)
        assert model.applies("insert")
        assert model.applies("scan_reply")


class TestLoss:
    def test_dropped_message_never_delivered(self):
        net, sink = lossy_net(loss_rate=1.0)
        husk = net.send("src", "sink", "data", size=100)
        assert husk.arrival_time == float("inf")
        assert net.run() == 0
        assert sink.received == []

    def test_drop_charged_to_sender(self):
        """The datagram went onto the wire; the sender pays for it."""
        net, _ = lossy_net(loss_rate=1.0)
        net.send("src", "sink", "data", size=100)
        assert net.stats.messages == 1
        assert net.stats.bytes == 100
        assert net.stats.dropped == 1

    def test_reliable_kind_survives_total_loss(self):
        net, sink = lossy_net(loss_rate=1.0)
        net.send("src", "sink", "split_records", size=100)
        assert net.run() == 1
        assert net.stats.dropped == 0
        assert sink.received[0].kind == "split_records"

    def test_loss_is_seed_deterministic(self):
        def fates(seed):
            net, sink = lossy_net(seed=seed, loss_rate=0.4)
            for n in range(40):
                net.send("src", "sink", "data", {"n": n})
            net.run()
            return [m.payload["n"] for m in sink.received]

        assert fates(9) == fates(9)
        assert fates(9) != fates(10)


class TestDuplication:
    def test_duplicate_delivered_twice_and_counted(self):
        net, sink = lossy_net(duplication_rate=1.0)
        net.send("src", "sink", "data", {"n": 1}, size=80)
        assert net.run() == 2
        assert [m.payload["n"] for m in sink.received] == [1, 1]
        # The copy hit the wire too: both copies are charged.
        assert net.stats.messages == 2
        assert net.stats.bytes == 160
        assert net.stats.duplicated == 1

    def test_copy_arrives_after_original(self):
        net, sink = lossy_net(duplication_rate=1.0)
        net.send("src", "sink", "data")
        net.run()
        first, second = sink.received
        assert first.arrival_time < second.arrival_time

    def test_duplicate_preserves_same_link_fifo(self):
        """A landed duplicate pushes the link clock forward, so a
        later send on the same link still arrives after it."""
        net, sink = lossy_net(duplication_rate=1.0)
        net.send("src", "sink", "data", {"n": 1})
        net.send("src", "sink", "data", {"n": 2})
        net.run()
        order = [m.payload["n"] for m in sink.received]
        assert order == [1, 1, 2, 2]
        times = [m.arrival_time for m in sink.received]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_every_wire_copy_billed(self):
        """Messaging cost counts datagrams, not logical sends."""
        net, _ = lossy_net(duplication_rate=1.0)
        for _ in range(5):
            net.send("src", "sink", "data", size=64)
        net.run()
        assert net.stats.messages == 10
        assert net.stats.bytes == 640
        assert net.stats.duplicated == 5


class TestZeroRatesAreFree:
    def test_identical_to_reliable_network(self):
        """loss=dup=0 must be bit-identical to a plain Network."""

        class Echo(Node):
            def handle(self, message):
                if message.kind == "ping":
                    self.send(message.src, "pong", size=32)

        def exchange(net):
            net.attach(Echo("echo"))
            net.attach(Collector("client"))
            for _ in range(20):
                net.send("client", "echo", "ping", size=200)
            net.run()
            return (net.stats.messages, net.stats.bytes, net.now)

        reliable = exchange(Network())
        faulty = exchange(
            Network(faults=FaultModel(seed=3, loss_rate=0.0,
                                      duplication_rate=0.0))
        )
        assert reliable == faulty
        assert reliable[0] == 40


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_exponential_backoff(self):
        policy = RetryPolicy(timeout=0.1, backoff=2.0, max_retries=4)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.4)
        assert policy.delay(3) == pytest.approx(0.8)

    def test_flat_backoff_allowed(self):
        policy = RetryPolicy(timeout=0.1, backoff=1.0)
        assert policy.delay(5) == pytest.approx(0.1)


class TestRetryJitter:
    def test_default_is_exact_exponential(self):
        """jitter=0 must reproduce the historic deterministic delays
        bit-for-bit — no RNG draw on this path."""
        policy = RetryPolicy(timeout=0.1, backoff=2.0)
        assert policy.delay(0) == 0.1
        assert policy.delay(3) == 0.1 * 2.0 ** 3

    def test_jitter_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_jittered_delay_bounded(self):
        policy = RetryPolicy(timeout=0.1, backoff=2.0, jitter=0.5,
                             seed=7)
        for attempt in range(6):
            base = 0.1 * 2.0 ** attempt
            delay = policy.delay(attempt)
            assert base <= delay <= base * 1.5

    def test_jitter_decorrelates_attempts(self):
        policy = RetryPolicy(timeout=0.1, backoff=1.0, jitter=1.0,
                             seed=7)
        delays = [policy.delay(0) for _ in range(8)]
        assert len(set(delays)) > 1

    def test_jitter_is_seed_deterministic(self):
        def sequence(seed):
            policy = RetryPolicy(timeout=0.1, backoff=2.0,
                                 jitter=0.5, seed=seed)
            return [policy.delay(a % 4) for a in range(12)]

        assert sequence(11) == sequence(11)
        assert sequence(11) != sequence(12)
