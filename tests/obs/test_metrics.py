"""The metrics registry: instruments, dumps, hooks, network observer."""

import json

import pytest

from repro.net.simulator import Network, Node
from repro.net import FaultModel
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    inc,
    observe,
    set_gauge,
    set_metrics,
    use_metrics,
    watch_network,
)
from repro.sdds.lhstar import LHStarFile


class TestInstruments:
    def test_counter_monotone(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(0.5)
        gauge.set(0.25)
        assert gauge.value == 0.25

    def test_histogram_summary_exact(self):
        histogram = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 2.0, 20.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 22.5
        assert histogram.minimum == 0.5
        assert histogram.maximum == 20.0
        assert histogram.mean == 7.5
        assert histogram.buckets == [1, 1, 1]

    def test_histogram_bounds_validated(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(10.0, 1.0))


class TestRegistry:
    def test_create_on_first_use(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")

    def test_dump_json_parses(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.gauge("b").set(1.5)
        registry.histogram("c").observe(0.01)
        data = json.loads(registry.dump_json())
        assert data["a"] == {"type": "counter", "value": 2}
        assert data["b"]["value"] == 1.5
        assert data["c"]["count"] == 1

    def test_dump_text_one_line_per_instrument(self):
        registry = MetricsRegistry()
        registry.counter("splits").inc()
        registry.gauge("load").set(0.8)
        registry.histogram("lat").observe(0.002)
        lines = registry.dump_text().splitlines()
        assert lines[0] == "counter splits 1"
        assert lines[1] == "gauge load 0.8"
        assert lines[2].startswith("histogram lat count=1")


class TestGlobalHooks:
    def test_hooks_are_noops_without_registry(self):
        assert get_metrics() is None
        inc("a")
        observe("b", 1.0)
        set_gauge("c", 2.0)  # none of these may raise

    def test_use_metrics_scopes_installation(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            inc("hits", 2)
            observe("sizes", 64.0)
            set_gauge("level", 3.0)
        assert get_metrics() is None
        assert registry.counter("hits").value == 2
        assert registry.histogram("sizes").count == 1
        assert registry.gauge("level").value == 3.0

    def test_set_metrics_returns_previous(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        assert set_metrics(first) is None
        assert set_metrics(second) is first
        assert set_metrics(None) is second


class TestLHStarInstrumentation:
    def test_split_and_load_metrics(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            file = LHStarFile(bucket_capacity=4)
            for key in range(40):
                file.insert(key, b"payload\x00")
        assert registry.counter("lh.split").value > 0
        assert registry.histogram("lh.bucket_load").count > 0
        gauge = registry.gauge(f"lh.buckets.{file.name}")
        assert gauge.value == file.live_bucket_count

    def test_bucket_load_is_seen_by_the_splitting_bucket(
        self, monkeypatch
    ):
        """``lh.bucket_load`` is observed where the records are: the
        split-pointer bucket reports how many it holds just before
        the split moves any — so a bucket *process* reports it too."""
        from repro.sdds.lhstar import LHStarBucket

        held = []
        split = LHStarBucket._handle_split

        def spy(bucket, message):
            held.append(len(bucket.records))
            split(bucket, message)

        monkeypatch.setattr(LHStarBucket, "_handle_split", spy)
        registry = MetricsRegistry()
        with use_metrics(registry):
            file = LHStarFile(bucket_capacity=4)
            for key in range(40):
                file.insert(key, b"payload\x00")
        load = registry.histogram("lh.bucket_load")
        assert load.count == len(held) == (
            registry.counter("lh.split").value)
        assert (load.total, load.minimum, load.maximum) == (
            sum(held), min(held), max(held))
        assert load.minimum > 0

    @pytest.mark.live
    def test_live_bucket_site_reports_its_own_load(self):
        """The coordinator site cannot see bucket memory (it used to
        report a load of 0); the splitting bucket's site can."""
        from repro.net.live import LiveCluster

        with LiveCluster(buckets=4) as cluster:
            network = cluster.connect()
            file = LHStarFile(name="ld", network=network,
                              bucket_capacity=4)
            for key in range(12):
                file.insert(key, b"payload\x00")
            metrics = network.remote_metrics()
        load = metrics[("bucket", 0)]["lh.bucket_load"]
        assert load["count"] > 0 and load["min"] > 0
        assert "lh.bucket_load" not in metrics[("coordinator",)]

    def test_retry_and_dedup_metrics_under_faults(self):
        registry = MetricsRegistry()
        net = Network(faults=FaultModel(seed=3, loss_rate=0.15,
                                        duplication_rate=0.1))
        with use_metrics(registry):
            file = LHStarFile(network=net, bucket_capacity=8)
            for key in range(60):
                file.insert(key, b"payload\x00")
            assert all(
                file.lookup(key) is not None for key in range(60)
            )
        assert registry.counter("lh.retry").value == net.stats.retries
        assert registry.counter("lh.retry").value > 0


class TestNetworkObserver:
    def test_watch_network_counts_and_latency(self):
        class Echo(Node):
            def handle(self, message):
                if message.kind == "ping":
                    self.send(message.src, "pong", size=32)

        registry = MetricsRegistry()
        net = Network()
        net.attach(Echo("a"))
        net.attach(Echo("b"))
        watch_network(net, registry)
        net.send("a", "b", "ping", size=64)
        net.run()
        assert registry.counter("net.sent.ping").value == 1
        assert registry.counter("net.sent.pong").value == 1
        assert registry.counter("net.delivered").value == 2
        size = registry.histogram("net.message_size")
        assert size.count == 2 and size.total == 96
        latency = registry.histogram("net.delivery_latency")
        assert latency.count == 2 and latency.total > 0

    def test_watch_network_counts_drops(self):
        registry = MetricsRegistry()
        net = Network(faults=FaultModel(seed=1, loss_rate=1.0))
        file = LHStarFile(network=net)
        watch_network(net, registry)
        file.client.start_keyed("lookup", 7)
        net.run()
        assert net.stats.dropped > 0
        assert registry.counter("net.dropped").value == net.stats.dropped

    def test_watch_network_requires_registry(self):
        with pytest.raises(ValueError):
            watch_network(Network())

    def test_watch_network_uses_installed_registry(self):
        registry = MetricsRegistry()
        net = Network()
        with use_metrics(registry):
            observer = watch_network(net)
        assert observer.registry is registry
