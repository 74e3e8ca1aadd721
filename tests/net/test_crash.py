"""Node crash faults at the simulator level.

Covers `Network.crash`/`restore` (message drops billed as
``crashed_drops``, timer freezing), the lazy `CrashFaultModel`
schedule, and the regression that messages addressed to a detached
node are counted instead of crashing the event loop.
"""

import pytest

from repro.net import CrashFaultModel, Message, Network, NetworkStats, Node


class Collector(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received: list[Message] = []

    def handle(self, message: Message) -> None:
        self.received.append(message)


class Echo(Collector):
    def handle(self, message: Message) -> None:
        super().handle(message)
        if message.kind == "ping":
            self.send(message.src, "pong")


def pair():
    net = Network()
    a = net.attach(Echo("a"))
    b = net.attach(Echo("b"))
    return net, a, b


class TestCrashRestore:
    def test_crash_drops_messages_and_bills_them(self):
        net, a, b = pair()
        net.crash("b")
        net.send("a", "b", "ping", size=100)
        net.run()
        assert b.received == []
        assert net.stats.crashed_drops == 1
        # The message was still charged to the wire.
        assert net.stats.messages == 1
        assert net.stats.bytes == 100

    def test_crash_unknown_node_raises(self):
        net, _, _ = pair()
        with pytest.raises(KeyError):
            net.crash("ghost")

    def test_crash_is_idempotent(self):
        net, _, _ = pair()
        net.crash("b")
        net.crash("b")
        assert net.is_crashed("b")

    def test_restore_resumes_delivery(self):
        net, a, b = pair()
        net.crash("b")
        net.send("a", "b", "ping")
        net.run()
        assert net.restore("b")
        net.send("a", "b", "ping")
        net.run()
        assert [m.kind for m in b.received] == ["ping"]

    def test_restore_of_live_node_is_noop(self):
        net, _, _ = pair()
        assert not net.restore("b")

    def test_crashed_node_does_not_send(self):
        # A crash only intercepts *delivery*; the protocol layer must
        # not make a crashed node act.  Messages already in flight
        # FROM the node still arrive (they left before the crash).
        net, a, b = pair()
        net.send("a", "b", "ping")
        net.crash("a")  # crash the sender before the pong returns
        net.run()
        assert [m.kind for m in b.received] == ["ping"]
        # b's pong died at a's door.
        assert net.stats.crashed_drops == 1
        assert a.received == []


class TestTimerFreezing:
    def test_owned_timer_frozen_while_crashed(self):
        net, a, b = pair()
        fired = []
        net.schedule(0.1, lambda: fired.append("b"), owner="b")
        net.crash("b")
        net.send("a", "a", "tick")
        net.run()
        assert fired == []

    def test_frozen_timer_fires_after_restore(self):
        net, a, b = pair()
        fired = []
        net.schedule(0.1, lambda: fired.append("b"), owner="b")
        net.crash("b")
        net.send("a", "a", "tick")
        net.run()
        net.restore("b")
        net.send("a", "a", "tick")
        net.run()
        assert fired == ["b"]
        # The timer never fires before the virtual clock reaches it.
        assert net.now >= 0.1

    def test_cancelled_frozen_timer_stays_dead(self):
        net, a, b = pair()
        fired = []
        timer = net.schedule(0.1, lambda: fired.append("b"), owner="b")
        net.crash("b")
        net.send("a", "a", "tick")
        net.run()
        timer.cancel()
        net.restore("b")
        net.send("a", "a", "tick")
        net.run()
        assert fired == []

    def test_unowned_timers_unaffected_by_crashes(self):
        net, a, b = pair()
        fired = []
        net.schedule(0.05, lambda: fired.append("anon"))
        net.crash("b")
        net.run()
        assert fired == ["anon"]

    def test_detach_discards_frozen_timers(self):
        net, a, b = pair()
        fired = []
        net.schedule(0.1, lambda: fired.append("b"), owner="b")
        net.crash("b")
        net.send("a", "a", "tick")
        net.run()
        net.detach("b")
        assert not net.restore("b")
        net.send("a", "a", "tick")
        net.run()
        assert fired == []


class TestDetachedDestinationRegression:
    def test_message_to_detached_node_is_counted_not_fatal(self):
        # Regression: delivery to a detached destination used to
        # raise KeyError out of Network.run(), killing the whole
        # event loop; now it is billed like a crashed drop.
        net, a, b = pair()
        net.send("a", "b", "ping")
        net.detach("b")
        net.run()  # must not raise
        assert net.stats.crashed_drops == 1

    def test_stats_snapshot_diff_carry_crashed_drops(self):
        net, a, b = pair()
        before = net.stats.snapshot()
        net.crash("b")
        net.send("a", "b", "ping")
        net.run()
        delta = net.stats.diff(before)
        assert delta.crashed_drops == 1
        net.stats.reset()
        assert net.stats.crashed_drops == 0


class TestCrashFaultModel:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            CrashFaultModel(mttf=0)
        with pytest.raises(ValueError):
            CrashFaultModel(mttr=-1)
        with pytest.raises(ValueError):
            CrashFaultModel(horizon=0)

    def test_plan_is_deterministic(self):
        a = CrashFaultModel(seed=3, mttf=5.0, mttr=1.0, horizon=50.0)
        b = CrashFaultModel(seed=3, mttf=5.0, mttr=1.0, horizon=50.0)
        assert a.plan(["x", "y"]) == b.plan(["x", "y"])
        assert a._events == b._events

    def test_events_apply_lazily_with_traffic(self):
        # The schedule must not be drained ahead of the workload: a
        # crash planned at t=1.0 is invisible to a run that only
        # reaches t~0.001.
        crashes = CrashFaultModel(seed=0)
        crashes.schedule_crash(1.0, "b")
        net = Network()
        net.schedules.append(crashes)
        net.attach(Echo("a"))
        b = net.attach(Echo("b"))
        net.send("a", "b", "ping")
        net.run()
        assert not net.is_crashed("b")
        assert [m.kind for m in b.received] == ["ping"]
        # A later message past the crash time triggers the event.
        net.schedule(2.0, lambda: None)
        net.send("a", "b", "ping")
        net.run()
        assert net.is_crashed("b")

    def test_crash_then_restore_cycle(self):
        crashes = CrashFaultModel(seed=0)
        crashes.schedule_crash(0.5, "b")
        crashes.schedule_restore(1.0, "b")
        net = Network()
        net.schedules.append(crashes)
        net.attach(Echo("a"))
        b = net.attach(Echo("b"))
        net.schedule(0.6, lambda: net.send("a", "b", "ping"))
        net.schedule(1.5, lambda: net.send("a", "b", "ping"))
        net.run()
        # First ping died (node down at 0.6), second arrived.
        assert len(b.received) == 1
        assert net.stats.crashed_drops == 1
        assert crashes.crashes == 1
        assert crashes.restores == 1

    def test_gate_vetoes_crash_and_suppresses_restore(self):
        crashes = CrashFaultModel(seed=0)
        crashes.schedule_crash(0.5, "b")
        crashes.schedule_restore(1.0, "b")
        crashes.gate = lambda node_id: False
        net = Network()
        net.schedules.append(crashes)
        net.attach(Echo("a"))
        net.attach(Echo("b"))
        net.schedule(2.0, lambda: None)
        net.run()
        assert not net.is_crashed("b")
        assert crashes.crashes == 0
        assert crashes.skipped == 1
        assert crashes.restores == 0

    def test_events_emit_into_installed_tracer(self):
        # Regression: net.crash/net.restore events used to pass a
        # ``time`` attr that collided with Tracer.event's positional
        # argument, crashing any traced run with scheduled faults.
        from repro.obs import Tracer, use_tracer

        crashes = CrashFaultModel(seed=0)
        crashes.schedule_crash(0.5, "b")
        crashes.schedule_restore(1.0, "b")
        net = Network()
        net.schedules.append(crashes)
        net.attach(Echo("a"))
        net.attach(Echo("b"))
        tracer = Tracer(network=net)
        with use_tracer(tracer):
            with tracer.span("workload"):
                net.schedule(2.0, lambda: None)
                net.run()
        span = tracer.finished[-1]
        names = [e.name for e in span.events]
        assert "net.crash" in names and "net.restore" in names

    def test_plan_draws_within_horizon(self):
        crashes = CrashFaultModel(seed=11, mttf=3.0, mttr=0.5,
                                  horizon=30.0)
        planned = crashes.plan(["n1", "n2", "n3"])
        assert planned >= 1
        assert all(at < 30.0 for at, *_ in crashes._events)
