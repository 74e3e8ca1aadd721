"""The delivery gate is one piece of code under every carrier.

``Network`` (event heap) and ``SiteNetwork`` (site routing) both ride
:class:`repro.net.simulator.Transport`; this contract drives one
scripted sequence — plain, dropped, duplicated, corrupted copy,
severed link, crashed destination, unknown destination, reliable kind,
zero-rate model — through each carrier and requires field-equal
``NetworkStats``, equal observer events and the same fault-model call
order.  No sockets, no event loop: the site's ``route`` is captured.
"""

from __future__ import annotations

from repro.net.faults import FaultModel
from repro.net.serve import ClusterConfig, SiteNetwork, SiteServer
from repro.net.simulator import Message, Network, Node, Transport


class Sink(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.got: list[tuple[str, int]] = []

    def handle(self, message: Message) -> None:
        self.got.append((message.kind, message.payload.get("n")))


class ScriptedFaults:
    """Fault-model stub: answers come from a script, calls are logged."""

    corruption_rate = 0.5

    def __init__(self) -> None:
        self.calls: list[str] = []
        self.answers: dict[str, list] = {}

    def script(self, **answers) -> None:
        self.answers = {name: list(value)
                        for name, value in answers.items()}

    def _answer(self, name, default=False):
        self.calls.append(name)
        queue = self.answers.get(name)
        return queue.pop(0) if queue else default

    def applies(self, kind):
        self.calls.append("applies")
        return kind != "reliable"

    def drops(self):
        return self._answer("drops")

    def duplicates(self):
        return self._answer("duplicates")

    def corrupts(self):
        return self._answer("corrupts")

    def corrupt_bit(self):
        return self._answer("corrupt_bit", 0)


class Recorder:
    def __init__(self) -> None:
        self.events: list[tuple[str, str, int]] = []

    def on_send(self, kind, size):
        self.events.append(("send", kind, size))

    def on_drop(self, kind, size):
        self.events.append(("drop", kind, size))

    def on_deliver(self, kind, size, latency):
        self.events.append(("deliver", kind, size))


class SimCarrier:
    def __init__(self) -> None:
        self.network = Network()

    def settle(self) -> None:
        self.network.run()


class SiteCarrier:
    def __init__(self) -> None:
        self.server = SiteServer(
            "bucket", 0, ClusterConfig("127.0.0.1", 9000, [9001]))
        self.network = self.server.network
        self.routed: list[Message] = []
        self.server.route = self.routed.append

    def settle(self) -> None:
        while self.routed:
            self.server.deliver(self.routed.pop(0))


def drive(carrier):
    """The scripted sequence; returns everything observable."""
    network = carrier.network
    faults = network.faults = ScriptedFaults()
    observer = network.observer = Recorder()
    sink = network.attach(Sink("b"))
    network.attach(Sink("a"))
    husks = []

    def send(kind, n, **script):
        faults.script(**script)
        message = network.send("a", "b", kind, {"n": n}, size=40 + n)
        husks.append(message.arrival_time == float("inf"))

    send("plain", 0)
    carrier.settle()
    send("dropped", 1, drops=[True])
    carrier.settle()
    send("duplicated", 2, duplicates=[True])
    carrier.settle()
    # Both copies are stamped; the second one is damaged in flight.
    send("corrupted", 3, duplicates=[True], corrupts=[False, True],
         corrupt_bit=[7])
    carrier.settle()
    network.partition("a", "b")
    send("severed", 4)
    carrier.settle()
    network.heal("a", "b")
    network.crash("b")
    send("crashed", 5)
    carrier.settle()
    network._thaw("b")
    send("unknown", 6)
    network.detach("b")
    carrier.settle()
    network.attach(sink)
    send("reliable", 7)
    carrier.settle()
    calls = list(faults.calls)
    network.faults = FaultModel(seed=1)  # zero rates: no draws
    send("zero-rate", 8)
    carrier.settle()
    return network.stats, observer.events, calls, husks, sink.got


class TestOneGate:
    def test_carriers_share_one_base(self):
        from repro.net.live import LiveNetwork

        for carrier in (Network, SiteNetwork, LiveNetwork):
            assert issubclass(carrier, Transport)
            # Thin carrier methods, defined where the benchmark's
            # span wrapper patches them.
            assert "send" in vars(carrier)

    def test_scripted_sequence_is_carrier_independent(self):
        sim = drive(SimCarrier())
        site = drive(SiteCarrier())
        assert sim[0] == site[0]  # field-equal NetworkStats
        assert sim[1:] == site[1:]

    def test_sequence_bills_what_the_script_says(self):
        stats, events, calls, husks, got = drive(SimCarrier())
        assert (stats.dropped, stats.duplicated, stats.corrupted,
                stats.partitioned_drops, stats.crashed_drops) == (
            1, 2, 1, 1, 2)
        assert stats.messages == 11  # nine sends + two duplicates
        assert husks == [False, True] + [False] * 7
        assert got == [("plain", 0), ("duplicated", 2),
                       ("duplicated", 2), ("corrupted", 3),
                       ("reliable", 7), ("zero-rate", 8)]
        # Every death after the send is seen by the observer too —
        # the drift the per-carrier copies had (the live client never
        # reported crashed, unknown or corrupted arrivals).
        drops = [kind for event, kind, __ in events if event == "drop"]
        assert drops == ["dropped", "corrupted", "severed", "crashed",
                         "unknown"]
        roll = ["applies", "drops", "duplicates", "corrupts"]
        assert calls == (
            roll                                    # plain
            + ["applies", "drops"]                  # dropped
            + roll + ["corrupts"]                   # duplicated
            + roll + ["corrupts", "corrupt_bit"]    # corrupted copy
            + roll * 3                     # severed, crashed, unknown
            + ["applies"]                           # reliable kind
        )

    def test_site_buffers_for_a_locally_owned_unborn_node(self):
        """The one overridden hook: data for a node this site owns
        but has not created yet waits, unbilled, for its creation."""
        carrier = SiteCarrier()
        server, network = carrier.server, carrier.network
        network.attach(Sink("a"))
        owned = ("bucket", "f", 0)
        network.send("a", owned, "split_records", {"n": 1})
        carrier.settle()
        assert server.buffered[owned][0].kind == "split_records"
        assert network.stats.crashed_drops == 0
        census = server._dispatch_ctrl("census", {}, None)
        assert (census["sent"], census["delivered"],
                census["buffered"]) == (1, 1, 1)
        sink = network.attach(Sink(owned))
        server.flush_buffered(owned)
        assert sink.got == [("split_records", 1)]
        assert not server.buffered
