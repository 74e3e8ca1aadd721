"""The live serving tier: real processes, real sockets, same answers.

The acceptance bar for the live backend is *parity*: one put / get /
search / split episode must produce identical answers **and**
identical billed wire bytes on the simulator and on the live cluster
(every message is billed once, at its sender, at its declared size —
on both backends).  On top of parity, the PR-1 retry and PR-3
crash-detection semantics must hold over real sockets: crashing a
bucket process behaves exactly like ``Network.crash`` in the
simulator, and restoring it reintegrates the bucket.

Cluster-spawning tests are marked ``live`` and skip unless
``REPRO_LIVE_TESTS=1`` (the CI ``serving`` job sets it); the config
and routing helpers at the top run everywhere.
"""

from __future__ import annotations

import contextlib
import signal
import time

import pytest

from repro.core import EncryptedSearchableStore, SchemeParameters
from repro.errors import BucketUnavailableError
from repro.net.faults import RetryPolicy
from repro.net.serve import ClusterConfig, peer_of
from repro.net.simulator import Network

live = pytest.mark.live

#: Sites for episode tests — comfortably above the highest bucket
#: address the deterministic episode reaches.
EPISODE_SITES = 16

TEXTS = {
    rid: (
        f"record number {rid} with shared token alpha"
        if rid % 3 == 0
        else f"record number {rid} beta"
    )
    for rid in range(10)
}


def run_episode(network):
    """One put/get/search episode that forces splits on both files
    (bucket_capacity=4 with 10 records and their index streams)."""
    params = SchemeParameters.full(4)
    store = EncryptedSearchableStore(
        params, network=network, bucket_capacity=4, name="ep"
    )
    for rid, text in TEXTS.items():
        store.put(rid, text)
    fetched = store.get(4)
    result = store.search("alpha")
    return fetched, sorted(result.matches), network.stats.snapshot()


def run_shrink_episode(network):
    """A grow-then-shrink episode: splits force the file out, deletes
    force merges (tombstones, merge shipments, level drops) back over
    the data plane, and the survivors must still answer."""
    from repro.sdds.lhstar import LHStarFile

    file = LHStarFile(
        name="shr", network=network, bucket_capacity=4, shrink=True
    )
    for key in range(12):
        file.insert(key, b"s%d" % key)
    for key in range(8):
        file.delete(key)
    network.run()
    answers = tuple(file.lookup(key) for key in range(12))
    return answers, network.stats.snapshot()


class TestClusterConfig:
    def test_roundtrip(self, tmp_path):
        config = ClusterConfig("127.0.0.1", 9000, [9001, 9002])
        path = tmp_path / "cluster.json"
        config.dump(str(path))
        loaded = ClusterConfig.load(str(path))
        assert loaded.host == config.host
        assert loaded.coordinator == config.coordinator
        assert loaded.buckets == config.buckets

    def test_peer_addresses(self):
        config = ClusterConfig("127.0.0.1", 9000, [9001, 9002])
        assert config.peer_address(("coordinator",)) == (
            "127.0.0.1", 9000
        )
        assert config.peer_address(("bucket", 1)) == ("127.0.0.1", 9002)

    def test_peer_of_maps_node_families(self):
        assert peer_of(("bucket", "f", 3)) == ("bucket", 3)
        assert peer_of(("coordinator", "f")) == ("coordinator",)
        assert peer_of(("client", "f", 0)) is None
        assert peer_of("opaque") is None
        # Parity ids: the client's attached file and every socket-free
        # site agree with the file's member_address, and so do the
        # sites' ownership test and create_parity's site check.
        from repro.net.serve import SiteServer
        from repro.sdds import LHStarRSFile

        for group_size, parity_count in [(2, 1), (2, 2), (3, 2),
                                         (4, 1), (4, 4), (5, 3)]:
            file = LHStarRSFile(name="p", group_size=group_size,
                                parity_count=parity_count)
            params = file.params()
            assert peer_of(file.parity_id(0, 0)) is None
            servers = [
                SiteServer("bucket", site,
                           ClusterConfig("127.0.0.1", 9000, [9001] * 16))
                for site in range(16)
            ]
            for server in servers:
                server._shell_file(params)
            for group in range(16 // group_size):
                for index in range(parity_count):
                    node_id = file.parity_id(group, index)
                    home = ("bucket", file.member_address(group, index))
                    assert peer_of(node_id, {"p": file}) == home
                    payload = {"group": group, "index": index, **params}
                    for server in servers:
                        assert peer_of(node_id, server.files) == home
                        mine = ("bucket", server.index) == home
                        assert server._locally_owned(node_id) is mine
                        if mine:
                            server._ctrl_create_parity(payload)
                            assert node_id in server.network
                        else:
                            with pytest.raises(ValueError,
                                               match="does not live"):
                                server._ctrl_create_parity(payload)


class TestSiteHandlerFailures:
    """``SiteServer.deliver`` swallows handler exceptions to keep the
    site serving; it must count them and keep the first one for the
    census (in-process, no sockets)."""

    def test_deliver_records_first_failure_for_the_census(self):
        from repro.net.serve import SiteServer
        from repro.net.simulator import Message, Node

        class Exploding(Node):
            def handle(self, message):
                raise KeyError(message.payload["n"])

        server = SiteServer(
            "bucket", 0, ClusterConfig("127.0.0.1", 9000, [9001])
        )
        node = server.network.attach(Exploding(("bucket", "f", 0)))
        census = server._dispatch_ctrl("census", {}, None)
        assert census["handler_failures"] == 0
        assert census["first_failure"] is None
        for n, kind in enumerate(["scan", "lookup"]):
            server.deliver(Message(
                src=("client", "f", 0), dst=node.node_id, kind=kind,
                payload={"n": n},
            ))
        census = server._dispatch_ctrl("census", {}, None)
        assert census["handler_failures"] == 2
        assert census["first_failure"] == (
            repr(node.node_id), "scan", "KeyError(0)"
        )
        # Failed deliveries still count: the census stays conserved.
        assert census["delivered"] == 2


@pytest.mark.parametrize(
    "network_backend",
    ["simulator", pytest.param("live", marks=live)],
    indirect=True,
)
class TestEitherBackend:
    """The same protocol episodes, runnable on either backend."""

    def test_put_get_search_split(self, network_backend):
        network = network_backend.make(sites=EPISODE_SITES)
        fetched, matches, stats = run_episode(network)
        assert fetched == TEXTS[4]
        assert matches == [0, 3, 6, 9]
        # the episode's bucket_capacity=4 forces real splits
        assert stats.by_kind["split"] > 0
        assert stats.by_kind["iam"] > 0

    def test_lhstar_facade_ops(self, network_backend):
        from repro.sdds.lhstar import LHStarFile

        network = network_backend.make(sites=EPISODE_SITES)
        file = LHStarFile(
            name="ops", network=network, bucket_capacity=4
        )
        for key in range(12):
            file.insert(key, b"v%d" % key)
        assert file.lookup(5) == b"v5"
        assert file.lookup(99) is None
        assert file.delete(5) is True
        assert file.lookup(5) is None

    def test_run_concurrent(self, network_backend):
        from repro.sdds.lhstar import LHStarFile

        network = network_backend.make(sites=EPISODE_SITES)
        file = LHStarFile(
            name="conc", network=network, bucket_capacity=4
        )
        inserts = [("insert", key, b"c%d" % key) for key in range(10)]
        file.run_concurrent(inserts, concurrency=3)
        lookups = [("lookup", key) for key in range(10)]
        results = file.run_concurrent(lookups, concurrency=3)
        assert results == [b"c%d" % key for key in range(10)]

    def test_file_reads_the_network_view(self, network_backend):
        """``state`` and the bucket counts come from the network's
        coordinator and bucket nodes on both backends — on the live
        tier the client-process copies never receive a message."""
        from repro.sdds.lhstar import LHStarFile

        network = network_backend.make(sites=EPISODE_SITES)
        file = LHStarFile(
            name="view", network=network, bucket_capacity=2
        )
        for key in range(12):
            file.insert(key, b"w%d" % key)
        state = network.coordinator_state("view")
        dump = network.dump_buckets("view")
        assert state["i"] >= 2  # the file split
        assert file.state == (state["i"], state["n"])
        assert file.bucket_count == len(dump) == (
            (1 << state["i"]) + state["n"])
        assert file.live_bucket_count == sum(
            1 for info in dump.values() if not info["retired"])


@live
class TestWireCostParity:
    def test_episode_bills_identical_bytes(self, tmp_path):
        """The ISSUE acceptance criterion: identical answers and
        identical billed wire bytes on both backends."""
        from repro.net.live import LiveCluster

        sim_answer = run_episode(Network())
        with LiveCluster(
            buckets=EPISODE_SITES, log_dir=tmp_path
        ) as cluster:
            live_answer = run_episode(cluster.connect())
        fetched_s, matches_s, stats_s = sim_answer
        fetched_l, matches_l, stats_l = live_answer
        assert fetched_l == fetched_s
        assert matches_l == matches_s
        # full stats equality: messages, bytes, per-kind counters,
        # drop/retry counters — the live wire bills exactly like the
        # simulated one.
        assert stats_l == stats_s

    def test_footprint_matches_simulator(self, tmp_path):
        """Out-of-band record dumps read what the sites hold, not the
        client's inert bucket shadows: a live store's footprint
        equals its simulator twin's."""
        from repro.net.live import LiveCluster

        def footprint(network):
            store = EncryptedSearchableStore(
                SchemeParameters.full(4), network=network,
                bucket_capacity=4, name="fp",
            )
            for rid, text in TEXTS.items():
                store.put(rid, text)
            return store.footprint()

        expected = footprint(Network())
        assert expected.index_records > 0
        with LiveCluster(buckets=4, log_dir=tmp_path) as cluster:
            assert footprint(cluster.connect()) == expected


@live
class TestCrashSemantics:
    def test_crash_detection_and_reintegration(self):
        """PR-1 retries and PR-3 crash detection over real sockets:
        crash a bucket process's node, watch retries escalate to the
        coordinator, get a BucketUnavailableError, then restore and
        observe the bucket serve again."""
        from repro.net.live import LiveCluster

        policy = RetryPolicy(timeout=0.08, backoff=2.0, max_retries=3)
        with LiveCluster(buckets=4) as cluster:
            network = cluster.connect()
            from repro.sdds.lhstar import LHStarFile

            file = LHStarFile(
                name="crash", network=network, bucket_capacity=8,
                retry_policy=policy,
            )
            for key in range(6):
                file.insert(key, b"r%d" % key)
            dump = network.dump_buckets("crash")
            target = next(
                address for address, bucket in dump.items()
                if any(record.rid == 2
                       for record in bucket["records"])
            )
            network.crash(file.bucket_id(target))
            assert network.is_crashed(file.bucket_id(target))
            with pytest.raises(BucketUnavailableError):
                file.lookup(2)
            assert network.stats.retries == policy.max_retries
            assert network.stats.crashed_drops > 0
            state = network.coordinator_state("crash")
            assert str(target) in {str(k) for k in state["dead"]} or (
                target in state["dead"]
            )
            assert network.restore(file.bucket_id(target)) is True
            assert file.lookup(2) == b"r2"
            state = network.coordinator_state("crash")
            assert not state["dead"]

    def test_records_survive_crash(self):
        from repro.net.live import LiveCluster
        from repro.sdds.lhstar import LHStarFile

        with LiveCluster(buckets=2) as cluster:
            network = cluster.connect()
            file = LHStarFile(
                name="surv", network=network, bucket_capacity=16,
                retry_policy=RetryPolicy(timeout=0.05, max_retries=2),
            )
            file.insert(1, b"one")
            network.crash(file.bucket_id(0))
            with pytest.raises(BucketUnavailableError):
                file.lookup(1)
            network.restore(file.bucket_id(0))
            assert file.lookup(1) == b"one"


@live
class TestScopeGuards:
    def test_v3_hosts_shrinking_file(self):
        """v3 lifts the last v2 fence: a shrinking file attaches and
        serves over sockets instead of raising LiveUnsupportedError."""
        from repro.net.live import LiveCluster
        from repro.sdds.lhstar import LHStarFile

        with LiveCluster(buckets=4) as cluster:
            network = cluster.connect()
            shrinking = LHStarFile(
                name="sh", network=network, bucket_capacity=4,
                shrink=True,
            )
            for key in range(12):
                shrinking.insert(key, b"s%d" % key)
            for key in range(8):
                shrinking.delete(key)
            network.run()
            assert shrinking.lookup(8) == b"s8"
            assert shrinking.lookup(0) is None
            assert network.stats.by_kind["merge"] > 0

    def test_remaining_scope_raises(self):
        """The one attach-time fence left in v3: parity placement
        needs parity_count <= group_size."""
        from repro.net.live import LiveCluster, LiveUnsupportedError
        from repro.sdds.lhstar_rs import LHStarRSFile

        with LiveCluster(buckets=4) as cluster:
            with pytest.raises(LiveUnsupportedError):
                LHStarRSFile(
                    name="pp", network=cluster.connect(),
                    group_size=2, parity_count=3,
                )

    def test_high_availability_store_is_hosted(self):
        """v2 lifts the v1 scope guard: LH*_RS parity buckets are
        hosted by bucket processes, so the HA store just works."""
        from repro.net.live import LiveCluster

        with LiveCluster(buckets=8) as cluster:
            store = EncryptedSearchableStore(
                SchemeParameters.full(4),
                network=cluster.connect(),
                high_availability=True,
                name="ha",
            )
            store.put(1, "record number one alpha")
            assert store.get(1) == "record number one alpha"
            parity = cluster.connect().dump_parity(
                store.record_file.name
            )
            assert parity, "no parity slots hosted anywhere"

    def test_cluster_grows_on_demand(self):
        """A split past the provisioned site count spawns a new site
        process instead of dying with LiveBackendError (the v1
        behaviour this replaces)."""
        from repro.net.live import LiveCluster
        from repro.sdds.lhstar import LHStarFile

        with LiveCluster(buckets=1) as cluster:
            network = cluster.connect(run_timeout=30.0)
            file = LHStarFile(
                name="tiny", network=network, bucket_capacity=2,
                retry_policy=RetryPolicy(timeout=0.2, max_retries=4),
            )
            for key in range(12):
                file.insert(key, b"x%d" % key)
            for key in range(12):
                assert file.lookup(key) == b"x%d" % key
            assert len(cluster.config.buckets) > 1
            state = network.coordinator_state("tiny")
            assert (1 << state["i"]) + state["n"] > 1


class TestStartupHardening:
    def test_try_ping_unreachable_port_is_false(self):
        import socket as socket_module

        from repro.net.live import LiveCluster

        sock = socket_module.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        assert LiveCluster._try_ping("127.0.0.1", port) is False

    def test_partial_startup_tears_down_spawned_processes(
        self, monkeypatch
    ):
        """A failed startup must not leak orphan site processes: the
        already-spawned ones are shut down before the error
        propagates."""
        from repro.net.live import LiveBackendError, LiveCluster

        spawned = []
        original_spawn = LiveCluster._spawn

        def tracking_spawn(self, key, role, index):
            original_spawn(self, key, role, index)
            spawned.append(self._procs[key])

        def failing_probe(self, key, deadline):
            raise LiveBackendError("injected probe failure")

        monkeypatch.setattr(LiveCluster, "_spawn", tracking_spawn)
        monkeypatch.setattr(
            LiveCluster, "_probe_ready", failing_probe
        )
        cluster = LiveCluster(buckets=2)
        with pytest.raises(LiveBackendError,
                           match="injected probe failure"):
            cluster.start()
        assert spawned, "startup never spawned anything"
        for proc in spawned:
            assert proc.poll() is not None, "orphan site process"
        assert not cluster._procs


@contextlib.contextmanager
def one_bucket_cluster(seconds=30):
    """A one-bucket live cluster under a hard deadline: SIGALRM aborts
    a hung episode, and the ``with`` tears the site processes down on
    every exit path — cheap and safe enough to run in tier-1."""
    from repro.net.live import LiveCluster

    def expired(signum, frame):
        raise TimeoutError(f"live smoke exceeded {seconds}s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    procs = []
    try:
        with LiveCluster(buckets=1) as cluster:
            procs = list(cluster._procs.values())
            yield cluster
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        for proc in procs:
            assert proc.poll() is not None, "orphan site process"


class TestLiveScanSmoke:
    """Tier-1 (not behind ``REPRO_LIVE_TESTS``): one real scan round
    over sockets, so a break of the live search path cannot hide
    behind the opt-in suites again."""

    class ClientSide:
        """Recording observer, narrowed to what a client process
        sees of the gate: its own sends and what it is handed."""

        SENT = ("insert", "lookup", "scan")
        HANDED = ("reply", "scan_reply")

        def __init__(self):
            self.events = []

        def on_send(self, kind, size):
            if kind in self.SENT:
                self.events.append(("send", kind, size))

        def on_drop(self, kind, size):
            self.events.append(("drop", kind, size))

        def on_deliver(self, kind, size, latency):
            if kind in self.HANDED:
                self.events.append(("deliver", kind, size))

    @classmethod
    def episode(cls, network):
        network.observer = cls.ClientSide()
        store = EncryptedSearchableStore(
            SchemeParameters.full(4), network=network,
            bucket_capacity=64, name="smoke",
        )
        for rid in range(3):
            store.put(rid, TEXTS[rid])
        result = store.search("alpha")
        return (sorted(result.candidates), sorted(result.matches),
                result.cost, network.stats.snapshot(),
                sorted(network.observer.events))

    def test_one_bucket_scan_matches_simulator(self):
        with one_bucket_cluster() as cluster:
            live_answer = self.episode(cluster.connect(run_timeout=10))
        assert live_answer == self.episode(Network())
        assert live_answer[1] == [0]
        assert live_answer[3].by_kind["scan"] > 0
        # The client carrier ran the shared gate: every request it
        # billed and every reply it was handed, as on the simulator.
        sent = sum(1 for event in live_answer[4] if event[0] == "send")
        assert 0 < sent == len(live_answer[4]) - sent

    def test_site_handler_failure_surfaces_fast(self):
        """A matcher that raises inside the bucket process must come
        back as a typed error naming site, kind and exception — not as
        a quiescence timeout after the retry timers ran out."""
        from repro.core.search import (
            IndexKeyCodec,
            PlanScanMatcher,
            SearchPlan,
        )
        from repro.net.live import LiveBackendError
        from repro.sdds.lhstar import LHStarFile

        with one_bucket_cluster() as cluster:
            network = cluster.connect(run_timeout=20)
            file = LHStarFile(name="boom", network=network,
                              bucket_capacity=64)
            file.insert(1, b"payload")
            started = time.monotonic()
            plan = SearchPlan(
                pattern=b"", needles={(0, 0): (b"",)}, piece_width=1,
                sites=1, group_count=1, alignments=(0,),
                required_groups=1,
            )
            with pytest.raises(LiveBackendError) as raised:
                # An empty needle is rejected by the haystack sweep.
                file.scan(PlanScanMatcher(plan, IndexKeyCodec(0, 0)),
                          request_size=1)
            assert time.monotonic() - started < 5
        message = str(raised.value)
        assert "('bucket', 0)" in message
        assert "'scan'" in message
        assert "ValueError" in message


@live
class TestCrashRestoreSymmetry:
    """crash() and restore() raise the same typed errors for the
    same bad targets (the v1 asymmetry this PR fixes)."""

    def test_typed_errors_match(self):
        from repro.errors import UnknownNodeError
        from repro.net.live import LiveCluster, LiveUnsupportedError

        with LiveCluster(buckets=2) as cluster:
            network = cluster.connect()
            for verb in (network.crash, network.restore):
                # A bucket address no site was provisioned for.
                with pytest.raises(UnknownNodeError):
                    verb(("bucket", "x", 99))
                # An in-range site that has never heard of the node.
                with pytest.raises(UnknownNodeError):
                    verb(("bucket", "nofile", 0))
                # Clients live in this process, not on a site.
                with pytest.raises(LiveUnsupportedError):
                    verb(("client", "x", 0))
                # Opaque ids are not routable at all.
                with pytest.raises(LiveUnsupportedError):
                    verb("opaque")

    def test_restore_reports_whether_it_was_crashed(self):
        from repro.net.live import LiveCluster
        from repro.sdds.lhstar import LHStarFile

        with LiveCluster(buckets=2) as cluster:
            network = cluster.connect()
            file = LHStarFile(name="rs", network=network,
                              bucket_capacity=8)
            file.insert(1, b"one")
            target = file.bucket_id(0)
            assert network.restore(target) is False
            network.crash(target)
            assert network.restore(target) is True


@live
class TestFaultInjection:
    def test_seeded_loss_is_billed_and_survived(self):
        """Ctrl-plane fault injection: seeded loss drops data-plane
        messages inside the site processes, bills them as dropped,
        and the client retry path still lands every operation."""
        from repro.net.live import LiveCluster
        from repro.sdds.lhstar import LHStarFile

        with LiveCluster(buckets=4) as cluster:
            network = cluster.connect()
            network.enable_faults(seed=7)
            network.faults.loss_rate = 0.15
            file = LHStarFile(
                name="fz", network=network, bucket_capacity=4,
                retry_policy=RetryPolicy(timeout=0.2, backoff=2.0,
                                         max_retries=6),
            )
            for key in range(12):
                file.insert(key, b"w%d" % key)
            for key in range(12):
                assert file.lookup(key) == b"w%d" % key
            assert network.stats.dropped > 0
            assert network.stats.retries > 0

    def test_partition_and_heal(self):
        """partition()/heal() land inside the bucket processes and
        bill severed-link deliveries as partitioned_drops — the
        simulator's semantics, over sockets."""
        from repro.net.faults import RetryExhaustedError
        from repro.net.live import LiveCluster
        from repro.sdds.lhstar import LHStarFile

        with LiveCluster(buckets=2) as cluster:
            network = cluster.connect()
            file = LHStarFile(
                name="pz", network=network, bucket_capacity=8,
                retry_policy=RetryPolicy(timeout=0.1, max_retries=2),
            )
            file.insert(1, b"one")
            network.partition(file.client_id(0), file.bucket_id(0))
            assert network.is_partitioned(
                file.client_id(0), file.bucket_id(0)
            )
            with pytest.raises(
                (RetryExhaustedError, BucketUnavailableError)
            ):
                file.lookup(1)
            assert network.stats.partitioned_drops > 0
            network.heal()
            assert file.lookup(1) == b"one"

    def test_heal_argument_contract_matches_simulator(self):
        from repro.net.live import LiveCluster

        with LiveCluster(buckets=2) as cluster:
            network = cluster.connect()
            with pytest.raises(ValueError):
                network.heal(("client", "x", 0))


@live
class TestLiveRecovery:
    def test_group_member_crash_recovers_over_sockets(self):
        """The tentpole acceptance: a live LH*_RS group survives a
        member crash — suspect, probe, spare spawn, parity gather and
        recover_install all run over TCP and are billed."""
        from repro.net.live import LiveCluster
        from repro.sdds.lhstar_rs import LHStarRSFile

        with LiveCluster(buckets=8) as cluster:
            network = cluster.connect(run_timeout=30.0)
            file = LHStarRSFile(
                name="ha", network=network, bucket_capacity=4,
                group_size=4, parity_count=2,
                retry_policy=RetryPolicy(timeout=0.15, backoff=2.0,
                                         max_retries=2),
            )
            for key in range(10):
                file.insert(key, b"v%d" % key)
            before = network.stats.snapshot()
            network.crash(file.bucket_id(0))
            # Reads against the dead bucket route degraded through
            # the parity layer and trigger the recovery chain.
            for key in range(10):
                assert file.lookup(key) == b"v%d" % key
            network.run()
            state = network.coordinator_state("ha")
            assert not state["dead"], state
            delta = network.stats.snapshot().diff(before)
            assert delta.by_kind["recover"] >= 1
            assert delta.by_kind["group_fetch"] >= 1
            assert delta.by_kind["recover_install"] >= 1
            assert delta.by_kind["recover_done"] >= 1
            # The respawned spare serves its key range again.
            for key in range(10):
                assert file.lookup(key) == b"v%d" % key


@live
class TestLiveChaos:
    def test_seeded_episode_matches_simulator(self):
        """The episode-level acceptance: a seeded chaos episode with
        loss + partition + crash windows passes every invariant
        oracle on the live backend and reports the same acked set
        and search answers as the identically seeded simulator
        episode."""
        from dataclasses import replace

        from repro.chaos.nemesis import NemesisProfile
        from repro.chaos.runner import EpisodeConfig, run_episode

        profile = NemesisProfile(
            loss_rate=0.1, loss_windows=1,
            duplication_rate=0.1, duplication_windows=1,
            corruption_rate=0.1, corruption_windows=1,
            latency_extra=0.005, latency_windows=1,
            partition_windows=1, crash_windows=1,
            window=0.4, horizon=2.5,
        )
        config = EpisodeConfig(
            records=12, ops=30, backend="live", live_sites=12,
            profile=profile,
        )
        live_report = run_episode(3, config)
        sim_report = run_episode(
            3, replace(config, backend="simulator")
        )
        assert live_report.ok, [
            v.to_dict() for v in live_report.violations
        ]
        assert sim_report.ok
        assert live_report.acked == sim_report.acked
        assert live_report.searches == sim_report.searches
        assert live_report.nemesis["applied"] == len(
            live_report.events
        )

    def test_elasticity_episode_matches_simulator(self):
        """Membership chaos parity: merge-pressure/join windows, a
        graceful leave and a tombstone crash+rejoin composed with
        loss, duplication, a partition and a crash window — the live
        episode must pass every invariant oracle and report the same
        acked set and search answers as the seeded simulator twin."""
        from dataclasses import replace

        from repro.chaos.nemesis import NemesisProfile
        from repro.chaos.runner import EpisodeConfig, run_episode

        profile = NemesisProfile(
            loss_rate=0.05, loss_windows=1,
            duplication_rate=0.02, duplication_windows=1,
            corruption_rate=0.0, latency_windows=0,
            partition_windows=1, crash_windows=1,
            merge_pressure_windows=2, join_windows=1,
            leave_events=1, rejoin_windows=1,
            window=0.6, horizon=2.5,
        )
        config = EpisodeConfig(
            records=12, ops=30, backend="live", live_sites=12,
            profile=profile, shrink=True, merge_threshold=0.6,
        )
        live_report = run_episode(3, config)
        sim_report = run_episode(
            3, replace(config, backend="simulator")
        )
        assert live_report.ok, [
            v.to_dict() for v in live_report.violations
        ]
        assert sim_report.ok
        assert live_report.acked == sim_report.acked
        assert live_report.searches == sim_report.searches


@live
class TestLiveElasticity:
    """The v3 tentpole over real processes: shrink parity, graceful
    leave, tombstone reaping, and crash+rejoin of retired
    addresses."""

    def test_shrink_episode_bills_identical_bytes(self, tmp_path):
        """The ISSUE acceptance criterion for shrink: a seeded
        grow-then-shrink episode produces identical answers and
        identical billed wire bytes on both backends — merges,
        tombstones and level drops are billed protocol traffic."""
        from repro.net.live import LiveCluster

        sim_answers, stats_s = run_shrink_episode(Network())
        with LiveCluster(
            buckets=EPISODE_SITES, log_dir=tmp_path
        ) as cluster:
            live_answers, stats_l = run_shrink_episode(
                cluster.connect()
            )
        assert live_answers == sim_answers
        assert stats_s.by_kind["merge"] > 0
        assert stats_s.by_kind["merge_records"] > 0
        assert stats_l == stats_s

    def test_graceful_leave_migrates_online(self):
        """Graceful site leave: the drained bucket's records move to
        a fresh spare under the same identity over billed traffic,
        and keyed reads never error during or after the
        migration."""
        from repro.net.live import LiveCluster
        from repro.sdds.lhstar import LHStarFile

        with LiveCluster(buckets=8) as cluster:
            network = cluster.connect()
            file = LHStarFile(
                name="lv", network=network, bucket_capacity=4,
            )
            for key in range(12):
                file.insert(key, b"m%d" % key)
            state = network.coordinator_state("lv")
            address = (1 << state["i"]) + state["n"] - 1
            before = network.stats.snapshot()
            assert file.leave(address) is True
            delta = network.stats.snapshot().diff(before)
            assert delta.by_kind["leave"] >= 1
            assert delta.by_kind["recover_install"] >= 1
            assert delta.by_kind["recover_done"] >= 1
            for key in range(12):
                assert file.lookup(key) == b"m%d" % key
            state = network.coordinator_state("lv")
            assert not state["dead"]

    def test_decommission_and_reap_tombstones(self):
        """After merges leave tombstones and the operator syncs
        client images, the tombstones can be decommissioned and
        their site processes reaped; the survivors keep serving and
        routing to a reaped address is a typed error."""
        from repro.net.live import LiveBackendError, LiveCluster
        from repro.sdds.lhstar import LHStarFile

        with LiveCluster(buckets=8) as cluster:
            network = cluster.connect()
            file = LHStarFile(
                name="rp", network=network, bucket_capacity=4,
                shrink=True,
            )
            for key in range(12):
                file.insert(key, b"t%d" % key)
            for key in range(10):
                file.delete(key)
            network.run()
            dump = network.dump_buckets("rp")
            retired = sorted(
                address for address, info in dump.items()
                if info["retired"]
            )
            assert retired, "shrink produced no tombstones"
            file.sync_client_images()
            for address in retired:
                network.decommission("rp", address)
            for key in (10, 11):
                assert file.lookup(key) == b"t%d" % key
            with pytest.raises(LiveBackendError,
                               match="was decommissioned"):
                network.send(
                    file.client_id(0), file.bucket_id(retired[0]),
                    "lookup", {"key": 10}, size=32,
                )
            for address in retired:
                cluster.reap_site(address)
                assert ("bucket", address) not in cluster._procs
            network.run()
            for key in (10, 11):
                assert file.lookup(key) == b"t%d" % key

    def test_crash_and_rejoin_of_retired_address(self):
        """A tombstone's process can crash and rejoin like any other
        site: reads keep working while it is down (synced images
        route around it) and the coordinator ends clean after the
        restore."""
        from repro.net.live import LiveCluster
        from repro.sdds.lhstar import LHStarFile

        with LiveCluster(buckets=8) as cluster:
            network = cluster.connect()
            file = LHStarFile(
                name="rj", network=network, bucket_capacity=4,
                shrink=True,
            )
            for key in range(12):
                file.insert(key, b"j%d" % key)
            for key in range(10):
                file.delete(key)
            network.run()
            dump = network.dump_buckets("rj")
            retired = sorted(
                address for address, info in dump.items()
                if info["retired"]
            )
            assert retired
            file.sync_client_images()
            tombstone = file.bucket_id(retired[-1])
            network.crash(tombstone)
            for key in (10, 11):
                assert file.lookup(key) == b"j%d" % key
            assert network.restore(tombstone) is True
            network.run()
            for key in (10, 11):
                assert file.lookup(key) == b"j%d" % key
            state = network.coordinator_state("rj")
            assert not state["dead"]


@pytest.mark.parametrize(
    "network_backend",
    ["simulator", pytest.param("live", marks=live)],
    indirect=True,
)
class TestRetiredTombstoneRaces:
    """Stale split/merge shipments arriving at a retired bucket are
    re-shipped along the merge-target chain — the race an in-flight
    split loses against a concurrent merge.  Crafted by hand because
    the fault layer exempts structural kinds on both backends."""

    def _tombstoned_file(self, network):
        from repro.sdds.lhstar import LHStarFile

        file = LHStarFile(
            name="race", network=network, bucket_capacity=4,
            shrink=True,
        )
        for key in range(12):
            file.insert(key, b"r%d" % key)
        for key in range(10):
            file.delete(key)
        network.run()
        retired = sorted(
            address
            for address, info in network.dump_buckets(file.name).items()
            if info["retired"]
        )
        assert retired, "shrink produced no tombstones"
        return file, retired

    @staticmethod
    def _locate(network, file, rid):
        return [
            (address, info["retired"])
            for address, info in network.dump_buckets(file.name).items()
            if any(record.rid == rid for record in info["records"])
        ]

    def test_stale_merge_records_reship_to_live_target(
        self, network_backend
    ):
        from repro.sdds.records import Record

        network = network_backend.make(sites=EPISODE_SITES)
        file, retired = self._tombstoned_file(network)
        network.send(
            file.client_id(0), file.bucket_id(retired[-1]),
            "merge_records",
            {"records": [Record(1000, b"raced")], "level": 0},
            size=64,
        )
        network.run()
        # Exactly one copy, parked on a live bucket — the tombstone
        # chain (which may pass through other tombstones) forwarded
        # it instead of swallowing or resurrecting it.
        assert self._locate(network, file, 1000) == [(0, False)]

    def test_duplicated_stale_split_records_stay_single(
        self, network_backend
    ):
        from repro.sdds.records import Record

        network = network_backend.make(sites=EPISODE_SITES)
        file, retired = self._tombstoned_file(network)
        for __ in range(2):  # the duplication fault, by hand
            network.send(
                file.client_id(0), file.bucket_id(retired[-1]),
                "split_records",
                {"records": [Record(1001, b"twice")]},
                size=64,
            )
        network.run()
        assert self._locate(network, file, 1001) == [(0, False)]

    def test_reship_rides_out_a_loss_window(self, network_backend):
        """Structural kinds are exempt from seeded loss on both
        backends, so the re-ship lands even under loss_rate=1."""
        from repro.sdds.records import Record

        network = network_backend.make(sites=EPISODE_SITES)
        file, retired = self._tombstoned_file(network)
        if network_backend.kind == "live":
            network.enable_faults(seed=1)
            network.faults.loss_rate = 1.0
        else:
            from repro.net.faults import FaultModel

            network.faults = FaultModel(seed=1, loss_rate=1.0)
        network.send(
            file.client_id(0), file.bucket_id(retired[-1]),
            "merge_records",
            {"records": [Record(1002, b"lossy")], "level": 0},
            size=64,
        )
        network.run()
        assert self._locate(network, file, 1002) == [(0, False)]

    def test_split_over_crashed_tombstone_gets_a_fresh_node(
        self, network_backend
    ):
        """Regrowth over crashed tombstones: each split target is a
        fresh node, so no ``split_records`` shipment dies at a crashed
        node, and the network reports the regrown ids as up."""
        network = network_backend.make(sites=EPISODE_SITES)
        file, retired = self._tombstoned_file(network)
        file.sync_client_images()
        for address in retired:
            network.crash(file.bucket_id(address))
        for key in range(100, 130):
            file.insert(key, b"g%d" % key)
        dump = network.dump_buckets(file.name)
        for address in retired:
            assert not dump[address]["retired"]
            assert not network.is_crashed(file.bucket_id(address))
        assert network.stats.crashed_drops == 0
        for key in (10, 11, *range(100, 130)):
            expected = b"r%d" % key if key < 100 else b"g%d" % key
            assert file.lookup(key) == expected


@live
class TestCodecCachePersistence:
    def test_codec_tables_persist_across_cluster_runs(
        self, tmp_path, monkeypatch
    ):
        """Two consecutive cluster episodes against one cache
        directory: the first run writes the fused tables, the second
        loads them from disk instead of rebuilding (cold-start win).
        The client builds every table: site processes never run the
        index pipeline."""
        from repro.core.kernels import (
            CODEC_CACHE_ENV,
            clear_codec_cache,
        )
        from repro.net.live import LiveCluster
        from repro.obs.metrics import MetricsRegistry, use_metrics

        cache = tmp_path / "codec-cache"
        cache.mkdir()
        monkeypatch.setenv(CODEC_CACHE_ENV, str(cache))
        # 2-byte chunks: a 16-bit raw domain, inside the fused bound.
        params = SchemeParameters.full(2)

        def put_some(network):
            store = EncryptedSearchableStore(
                params, network=network, bucket_capacity=8,
                name="cc",
            )
            for rid, text in list(TEXTS.items())[:4]:
                store.put(rid, text)
            return store.get(0)

        clear_codec_cache()
        with LiveCluster(buckets=4) as cluster:
            first = put_some(cluster.connect())
        files = list(cache.glob("codec-v*.bin"))
        assert files, "no codec tables were persisted"

        clear_codec_cache()
        registry = MetricsRegistry()
        with use_metrics(registry):
            with LiveCluster(buckets=4) as cluster:
                second = put_some(cluster.connect())
        assert first == second == TEXTS[0]
        assert registry.counter("kernels.codec.disk_hit").value > 0
        clear_codec_cache()
