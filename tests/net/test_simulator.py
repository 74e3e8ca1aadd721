"""The discrete-event network core."""

import pytest

from repro.net import LatencyModel, Message, Network, Node


class Echo(Node):
    """Replies to every 'ping' with a 'pong'."""

    def handle(self, message: Message) -> None:
        if message.kind == "ping":
            self.send(message.src, "pong", {"n": message.payload["n"]})


class Collector(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received: list[Message] = []

    def handle(self, message: Message) -> None:
        self.received.append(message)


class TestTopology:
    def test_attach_and_contains(self):
        net = Network()
        net.attach(Collector("c"))
        assert "c" in net

    def test_duplicate_id_rejected(self):
        net = Network()
        net.attach(Collector("c"))
        with pytest.raises(ValueError):
            net.attach(Collector("c"))

    def test_detach(self):
        net = Network()
        net.attach(Collector("c"))
        net.detach("c")
        assert "c" not in net

    def test_detach_purges_link_clocks(self):
        """No stale pairwise-FIFO floors survive a detach — a node
        re-attached under the same id starts with fresh links."""
        net = Network()
        net.attach(Collector("a"))
        net.attach(Collector("b"))
        net.send("a", "b", "x")
        net.send("b", "a", "y")
        net.run()
        assert net._link_clock
        net.detach("b")
        assert not any("b" in link for link in net._link_clock)

    def test_reattached_node_starts_with_fresh_fifo_floor(self):
        net = Network()
        net.attach(Collector("a"))
        net.attach(Collector("b"))
        slow = net.send("a", "b", "x", size=10_000_000)
        net.detach("b")
        net.attach(Collector("b"))
        fast = net.send("a", "b", "x", size=1)
        # Without the purge the fast message would be pinned just past
        # the slow one's FIFO floor; the new link owes it nothing.
        assert fast.arrival_time == pytest.approx(
            net.latency.latency(1)
        )
        assert fast.arrival_time < slow.arrival_time

    def test_send_to_unknown_node(self):
        net = Network()
        with pytest.raises(KeyError):
            net.send("a", "b", "kind")

    def test_unattached_node_cannot_send(self):
        node = Collector("orphan")
        with pytest.raises(RuntimeError):
            node.send("x", "kind")


class TestDelivery:
    def test_request_reply(self):
        net = Network()
        net.attach(Echo("echo"))
        client = net.attach(Collector("client"))
        net.send("client", "echo", "ping", {"n": 1})
        delivered = net.run()
        assert delivered == 2
        assert client.received[0].kind == "pong"
        assert client.received[0].payload["n"] == 1

    def test_fifo_between_same_pair_same_size(self):
        net = Network()
        sink = net.attach(Collector("sink"))
        net.attach(Collector("src"))
        for n in range(10):
            net.send("src", "sink", "data", {"n": n})
        net.run()
        assert [m.payload["n"] for m in sink.received] == list(range(10))

    def test_pairwise_fifo_despite_sizes(self):
        """TCP semantics: messages on one (src, dst) link never
        reorder, even when a later message is much smaller."""
        net = Network(LatencyModel(fixed=0.0, bandwidth_bytes_per_s=1000))
        sink = net.attach(Collector("sink"))
        net.attach(Collector("src"))
        net.send("src", "sink", "big", size=10_000)
        net.send("src", "sink", "small", size=1)
        net.run()
        assert [m.kind for m in sink.received] == ["big", "small"]

    def test_cross_link_overtaking(self):
        """Messages from different sources are free to overtake."""
        net = Network(LatencyModel(fixed=0.0, bandwidth_bytes_per_s=1000))
        sink = net.attach(Collector("sink"))
        net.attach(Collector("slow-src"))
        net.attach(Collector("fast-src"))
        net.send("slow-src", "sink", "big", size=10_000)
        net.send("fast-src", "sink", "small", size=1)
        net.run()
        assert [m.kind for m in sink.received] == ["small", "big"]

    def test_clock_advances(self):
        net = Network()
        net.attach(Collector("sink"))
        net.attach(Collector("src"))
        net.send("src", "sink", "data", size=128)
        net.run()
        assert net.now > 0

    def test_run_event_cap(self):
        class Bouncer(Node):
            def handle(self, message):
                self.send(self.node_id, "loop")

        net = Network()
        net.attach(Bouncer("b"))
        net.send("b", "b", "loop")
        with pytest.raises(RuntimeError):
            net.run(max_events=100)


class TestTimers:
    def test_timer_fires_at_virtual_time(self):
        net = Network()
        fired_at = []
        net.schedule(0.5, lambda: fired_at.append(net.now))
        net.run()
        assert fired_at == [0.5]
        assert net.now == 0.5

    def test_timers_interleave_with_messages(self):
        net = Network()
        sink = net.attach(Collector("sink"))
        net.attach(Collector("src"))
        order = []
        net.schedule(10.0, lambda: order.append("late"))
        net.send("src", "sink", "data")  # sub-millisecond latency
        net.schedule(0.0, lambda: order.append("early"))
        sink.handle = lambda message: order.append("message")
        net.run()
        assert order == ["early", "message", "late"]

    def test_timer_callback_may_send(self):
        net = Network()
        sink = net.attach(Collector("sink"))
        net.attach(Collector("src"))
        net.schedule(1.0, lambda: net.send("src", "sink", "delayed"))
        delivered = net.run()
        assert delivered == 1
        assert sink.received[0].kind == "delayed"
        assert sink.received[0].send_time == 1.0

    def test_cancelled_timer_leaves_no_trace(self):
        """Arming and cancelling a timeout must not perturb the clock
        — the retry layer's happy path stays bit-identical."""
        net = Network()
        net.attach(Collector("sink"))
        net.attach(Collector("src"))
        boom = net.schedule(99.0, lambda: pytest.fail("fired"))
        net.send("src", "sink", "data")
        boom.cancel()
        net.run()
        assert not boom.fired
        assert net.now < 1.0

    def test_run_does_not_count_timers_as_deliveries(self):
        net = Network()
        net.schedule(0.1, lambda: None)
        assert net.run() == 0

    def test_negative_delay_rejected(self):
        net = Network()
        with pytest.raises(ValueError):
            net.schedule(-0.1, lambda: None)


class TestStats:
    def test_counters(self):
        net = Network()
        net.attach(Collector("sink"))
        net.attach(Collector("src"))
        net.send("src", "sink", "a", size=100)
        net.send("src", "sink", "b", size=50)
        assert net.stats.messages == 2
        assert net.stats.bytes == 150
        assert net.stats.by_kind["a"] == 1

    def test_snapshot_delta(self):
        net = Network()
        net.attach(Collector("sink"))
        net.attach(Collector("src"))
        net.send("src", "sink", "a", size=10)
        before = net.stats.snapshot()
        net.send("src", "sink", "a", size=30)
        delta = net.stats.diff(before)
        assert delta.messages == 1
        assert delta.bytes == 30

    def test_equality_is_field_wise(self):
        """Sim-vs-live parity suites compare whole stats objects: every
        billed field must take part, not object identity."""
        from dataclasses import asdict, replace

        from repro.net.stats import NetworkStats

        assert NetworkStats() == NetworkStats()
        for name, value in asdict(NetworkStats()).items():
            if isinstance(value, int):
                assert replace(NetworkStats(), **{name: 1}) != (
                    NetworkStats()
                ), name
        billed = NetworkStats()
        billed.record("scan", 8)
        assert billed != NetworkStats()
        assert billed == billed.snapshot()

    def test_every_field_survives_every_operation(self):
        """snapshot / diff / add and the wire codec go by
        ``dataclasses.fields``: a counter added to ``NetworkStats``
        must be carried by all of them without being listed again."""
        from collections import Counter
        from dataclasses import fields

        from repro.net import wire
        from repro.net.stats import NetworkStats

        def filled(scale):
            stats = NetworkStats()
            for n, spec in enumerate(fields(NetworkStats), start=1):
                value = getattr(stats, spec.name)
                setattr(stats, spec.name,
                        Counter({"k": n * scale})
                        if isinstance(value, Counter) else n * scale)
            return stats

        once, twice = filled(1), filled(2)
        assert once != NetworkStats()
        copy = once.snapshot()
        assert copy == once
        copy.by_kind["k"] += 1
        assert copy != once  # independent counters
        assert twice.diff(once) == once
        assert once.diff(NetworkStats()) == once
        total = once.snapshot()
        total.add(once)
        assert total == twice
        assert wire.decode_value(wire.encode_value(once)) == once


class TestLatencyModel:
    def test_formula(self):
        model = LatencyModel(fixed=0.001, bandwidth_bytes_per_s=1000)
        assert model.latency(500) == pytest.approx(0.501)
