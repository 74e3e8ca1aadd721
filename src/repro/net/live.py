"""The live (socket) backend of the :class:`Network` contract.

:class:`LiveNetwork` is a drop-in for the simulated
:class:`repro.net.simulator.Network`: the *same* LH* protocol actors
run unmodified, but buckets and the coordinator live in separate
processes (see :mod:`repro.net.serve`) and messages cross real TCP
connections in :mod:`repro.net.wire` frames.  The client process keeps
only client actors locally; ``attach`` of a bucket or coordinator
turns into an (unbilled) control message to the hosting site, and the
local protocol object stays behind as an inert shadow.

Billing, fault rolls and the delivery checks are not re-implemented
here: :class:`LiveNetwork` is a carrier over the simulator's
:class:`~repro.net.simulator.Transport` gate, exactly like the
simulated ``Network`` and the sites' ``SiteNetwork``.

``run()`` keeps the simulator's run-to-quiescence meaning over real
sockets: pump connections, fire due wall-clock timers, dispatch
inbound messages — and, once locally idle, take a cluster-wide census
of conservation counters (messages sent vs delivered, buffered
messages, armed timers).  The network is quiescent when two
consecutive censuses agree and balance.  Each census also folds the
sites' :class:`~repro.net.stats.NetworkStats` deltas into the local
``stats`` object, so snapshot/diff costing — and therefore billing —
works exactly like the simulator: every message is billed once, at
its sender's site, at its declared size.

Scope (v3): plain :class:`~repro.sdds.lhstar.LHStarFile` *and*
:class:`~repro.sdds.lhstar_rs.LHStarRSFile` (parity buckets hosted on
bucket sites, recovery over TCP), including ``shrink=True`` (merges,
retired tombstones and level drops flow over the billed data plane);
graceful site leave with online bucket migration
(:meth:`LiveNetwork.site_leave`) and tombstone reaping
(:meth:`LiveNetwork.decommission` plus
:meth:`LiveCluster.reap_site`); crash/restore of hosted nodes; seeded
fault injection (loss, duplication, corruption, latency spikes,
partitions) installed on every site through unbilled control verbs —
see :meth:`LiveNetwork.enable_faults` — so the chaos nemesis drives
real processes; elastic growth (a split past the provisioned site
count spawns a new site process on demand).  The remaining
out-of-scope configurations raise :class:`LiveUnsupportedError` at
attach time with the texts in :data:`UNSUPPORTED_SCOPE`.

>>> # quickstart (see docs/SERVING.md):
>>> # with LiveCluster(buckets=4) as cluster:
>>> #     network = cluster.connect()
>>> #     file = LHStarFile(network=network)
>>> #     file.insert(1, b"payload")
"""

from __future__ import annotations

import heapq
import itertools
import os
import select
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Hashable, Iterator

from repro.errors import ReproError, UnknownNodeError
from repro.net import wire
from repro.net.faults import FaultModel
from repro.net.serve import ClusterConfig, peer_of
from repro.net.simulator import (
    LatencyModel,
    Message,
    Node,
    Timer,
    Transport,
)
from repro.net.stats import NetworkStats
from repro.sdds.lhstar import LHStarBucket, LHStarCoordinator, LHStarFile
from repro.sdds.lhstar_rs import LHStarRSFile, ParityBucket


class LiveBackendError(ReproError, RuntimeError):
    """The live transport failed operationally (connection lost,
    control error, quiescence timeout, site process died)."""


class LiveUnsupportedError(LiveBackendError):
    """The requested configuration or operation is outside the live
    backend's scope (exotic node families, unroutable destinations,
    unsupported parity placement)."""


#: The remaining out-of-scope configurations (v3).  Each value is the
#: static tail of the :class:`LiveUnsupportedError` message raised at
#: the matching attach-time guard; the docs-reference test asserts
#: every one of them appears verbatim in docs/SERVING.md so the
#: documented scope and the raised messages cannot drift apart.
UNSUPPORTED_SCOPE = {
    "bucket_family": ("buckets are not hosted by the live backend "
                      "(plain LH* buckets only)"),
    "node_family": "is not hosted by the live backend",
    "file_family": ("needs node families the live backend does "
                    "not host"),
    "parity_placement": ("the live backend places parity "
                         "(group, index) on bucket site "
                         "group*group_size+index, which needs "
                         "parity_count <= group_size"),
}


#: How long ``LiveNetwork.run`` may chase quiescence before giving up.
DEFAULT_RUN_TIMEOUT = 60.0
#: Control-message round-trip allowance.
CTRL_TIMEOUT = 15.0
#: Socket-level connect retry window while sites boot.
CONNECT_TIMEOUT = 30.0


class _Conn:
    """One client connection to a site process."""

    def __init__(self, key: tuple, sock: socket.socket) -> None:
        self.key = key
        self.sock = sock
        self.decoder = wire.FrameDecoder()
        self.outbuf = bytearray()
        self.acks: dict[int, dict] = {}


def _dial(host: str, port: int,
          timeout: float = CONNECT_TIMEOUT) -> socket.socket:
    deadline = time.monotonic() + timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=2.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            return sock
        except OSError:
            if time.monotonic() > deadline:
                raise LiveBackendError(
                    f"cannot connect to site at {host}:{port}"
                ) from None
            time.sleep(0.1)


class _LiveFaultModel(FaultModel):
    """The client-side face of cluster-wide fault injection.

    A seeded :class:`~repro.net.faults.FaultModel` for the messages
    the *client* sends, which re-broadcasts every rate change to all
    sites through the unbilled ``fault_set`` control verb — each site
    salts the same seed with its index, so streams are deterministic
    per (seed, site) and a nemesis retuning
    ``network.faults.loss_rate`` works unchanged on sockets."""

    _RATES = frozenset({"loss_rate", "duplication_rate",
                        "corruption_rate"})

    def __init__(self, network: "LiveNetwork", seed: int) -> None:
        super().__init__(seed=seed * 2003 + 1)
        #: The *cluster* seed — what ``fault_set`` broadcasts.
        self.seed = seed
        self._network = network

    def __setattr__(self, name: str, value: Any) -> None:
        super().__setattr__(name, value)
        if name in self._RATES and "_network" in self.__dict__:
            self._network._broadcast_faults()


class LiveNetwork(Transport):
    """The client-process half of the live transport.

    The shared gate over client sockets: ``nodes`` holds the locally
    attached client nodes; bucket and coordinator attachment is
    forwarded to the hosting processes, and crash flags, partitions
    and fault rates are mirrored to every site over the control
    plane.  The operator verbs (``coordinator_state``,
    ``dump_buckets``, ``dump_parity``, ``site_leave``,
    ``decommission``) are asked of the hosting sites, which answer
    them with the :class:`Transport` methods of the same name."""

    def __init__(self, config: ClusterConfig,
                 run_timeout: float = DEFAULT_RUN_TIMEOUT) -> None:
        super().__init__()  # no fault model until enable_faults()
        self.config = config
        self.run_timeout = run_timeout
        #: Ids of remotely hosted nodes attached through this network.
        self._shadows: set[Hashable] = set()
        #: Arrivals consumed here (handled or billed as dropped).
        self.delivered = 0
        #: Latency model; assigning one (the nemesis swaps in a spiked
        #: model) broadcasts its ``extra`` as a sender-side hold to
        #: every site through the ``delay`` control verb.
        self._latency: Any = LatencyModel()
        #: Lazily-advanced fault schedules (a
        #: :class:`~repro.net.faults.CrashFaultModel`, the chaos
        #: nemesis), advanced inside :meth:`run` on the wall clock
        #: under the simulator's ``Network.schedules`` contract.
        self.schedules: list[Any] = []
        #: LH*_RS layout per file name (group_size, parity_count),
        #: learned at attach time; places parity ids on host sites.
        self._rs_params: dict[str, tuple[int, int]] = {}
        #: Callback to provision sites for bucket addresses beyond the
        #: cluster config (set by :meth:`LiveCluster.connect`).
        self._on_missing_site: Callable[[int], None] | None = None
        self._t0 = time.monotonic()
        self._sent = 0
        self._inbox: list[Message] = []
        self._timers: list[tuple[float, int, Timer]] = []
        self._sequence = itertools.count()
        self._tokens = itertools.count(1)
        #: Last stats snapshot census saw per site, for delta merging.
        self._site_baseline: dict[tuple, NetworkStats] = {}
        #: Bucket addresses whose sites were decommissioned (reaped):
        #: never redialed, and shipping to one fails fast.  Their
        #: final conservation counters are folded into the offsets
        #: below so the cluster census stays balanced without them.
        self._reaped: set[int] = set()
        self._reaped_sent = 0
        self._reaped_delivered = 0
        self._conns: dict[tuple, _Conn] = {}
        self._closed = False
        for index in range(len(config.buckets)):
            key = ("bucket", index)
            self._conns[key] = _Conn(
                key, _dial(*config.peer_address(key)))
        key = ("coordinator",)
        self._conns[key] = _Conn(key, _dial(*config.peer_address(key)))

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns.values():
            try:
                conn.sock.close()
            except OSError:
                pass

    def __enter__(self) -> "LiveNetwork":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- fault injection -------------------------------------------------

    @property
    def latency(self) -> Any:
        return self._latency

    @latency.setter
    def latency(self, model: Any) -> None:
        self._latency = model
        extra = float(getattr(model, "extra", 0.0))
        self._broadcast({"ctrl": "delay", "extra": extra})

    def enable_faults(self, seed: int) -> _LiveFaultModel:
        """Install seeded fault models cluster-wide and return the
        client-side proxy (also stored as ``self.faults``) whose rate
        attributes a nemesis tunes exactly as on the simulator."""
        self.faults = _LiveFaultModel(self, seed)
        self._broadcast_faults()
        return self.faults

    def _broadcast(self, payload: dict) -> None:
        for key in list(self._conns):
            self._roundtrip(key, dict(payload))

    def _broadcast_faults(self) -> None:
        faults = self.faults
        if faults is None:
            return
        self._broadcast({
            "ctrl": "fault_set",
            "seed": faults.seed,
            "loss_rate": faults.loss_rate,
            "duplication_rate": faults.duplication_rate,
            "corruption_rate": faults.corruption_rate,
        })

    # -- topology --------------------------------------------------------

    def _peer_of(self, node_id: Hashable) -> tuple | None:
        """Parity-aware :func:`repro.net.serve.peer_of` using the
        layouts learned at attach time."""
        peer = peer_of(node_id)
        if (peer is None and isinstance(node_id, tuple) and node_id
                and node_id[0] == "parity" and len(node_id) == 4):
            rs = self._rs_params.get(node_id[1])
            if rs is not None:
                peer = peer_of(node_id, group_size=rs[0])
        return peer

    def _ensure_site(self, needed: int) -> None:
        """Make sure bucket addresses ``< needed`` have a hosting
        site, spawning processes through the cluster when possible."""
        if needed <= len(self.config.buckets):
            return
        if self._on_missing_site is None:
            raise LiveBackendError(
                f"no site hosts bucket address {needed - 1} and this "
                "network cannot spawn sites (connect through a "
                "LiveCluster)"
            )
        self._on_missing_site(needed)
        self._sync_conns()
        # Existing sites still hold the old map (and possibly parked
        # frames for the new ones): broadcast the grown config.
        self._broadcast({"ctrl": "config",
                         "buckets": list(self.config.buckets)})
        # The new sites must also see current fault/latency rules.
        self._broadcast_faults()
        extra = float(getattr(self._latency, "extra", 0.0))
        if extra:
            self._broadcast({"ctrl": "delay", "extra": extra})

    def _connect_peer(self, key: tuple) -> _Conn:
        conn = self._conns.get(key)
        if conn is None:
            conn = self._conns[key] = _Conn(
                key, _dial(*self.config.peer_address(key)))
            for node_id in list(self.nodes):
                self._roundtrip(key, {"ctrl": "register_client",
                                      "node": node_id})
        return conn

    def _sync_conns(self) -> None:
        """Dial (and register local clients at) any configured site
        this network has no connection to yet — the cluster may have
        grown underneath us, possibly via another client."""
        for index in range(len(self.config.buckets)):
            if index in self._reaped:
                continue
            self._connect_peer(("bucket", index))

    def _register_rs(self, file: Any) -> None:
        if file.rs is None:
            return
        if file.parity_count > file.group_size:
            raise LiveUnsupportedError(
                UNSUPPORTED_SCOPE["parity_placement"])
        self._rs_params[file.name] = (file.group_size,
                                      file.parity_count)

    def attach(self, node: Node) -> Node:
        node_id = node.node_id
        family = node_id[0] if (isinstance(node_id, tuple)
                                and node_id) else None
        if family == "client":
            super().attach(node)
            for key in list(self._conns):
                self._roundtrip(key, {"ctrl": "register_client",
                                      "node": node_id})
            return node
        if family == "bucket":
            if type(node) is not LHStarBucket:
                raise LiveUnsupportedError(
                    f"{type(node).__name__} "
                    f"{UNSUPPORTED_SCOPE['bucket_family']}")
            file = node.file
            self._register_rs(file)
            self._ensure_site(node.address + 1)
            self._roundtrip(("bucket", node.address), {
                "ctrl": "create_bucket",
                "address": node.address,
                "level": node.level,
                "pending": node.pending,
                **file.params(),
            })
            node.network = self
            self._shadows.add(node_id)
            return node
        if family == "parity":
            if type(node) is not ParityBucket:
                raise LiveUnsupportedError(
                    f"{type(node).__name__} "
                    f"{UNSUPPORTED_SCOPE['node_family']}")
            file = node.file
            self._register_rs(file)
            site = node.group * file.group_size + node.index
            self._ensure_site(site + 1)
            self._roundtrip(("bucket", site), {
                "ctrl": "create_parity",
                "group": node.group,
                "index": node.index,
                **file.params(),
            })
            node.network = self
            self._shadows.add(node_id)
            return node
        if family == "coordinator":
            if type(node) is not LHStarCoordinator:
                raise LiveUnsupportedError(
                    f"{type(node).__name__} "
                    f"{UNSUPPORTED_SCOPE['node_family']}")
            file = node.file
            if type(file) not in (LHStarFile, LHStarRSFile):
                raise LiveUnsupportedError(
                    f"{type(file).__name__} "
                    f"{UNSUPPORTED_SCOPE['file_family']}")
            self._register_rs(file)
            self._roundtrip(("coordinator",), {
                "ctrl": "create_coordinator",
                **file.params(),
            })
            node.network = self
            self._shadows.add(node_id)
            return node
        raise LiveUnsupportedError(
            f"node family {family!r} "
            f"{UNSUPPORTED_SCOPE['node_family']}")

    def detach(self, node_id: Hashable) -> None:
        if node_id in self._shadows:
            self._shadows.discard(node_id)
        else:
            super().detach(node_id)

    def __contains__(self, node_id: Hashable) -> bool:
        return node_id in self.nodes or node_id in self._shadows

    # -- crash faults ----------------------------------------------------

    def _hosted_peer(self, node_id: Hashable, what: str) -> tuple:
        """Resolve the hosting site of a crash/restore target, raising
        the same typed errors for both verbs: ``LiveUnsupportedError``
        for unroutable families (clients live in this process) and
        ``UnknownNodeError`` for a hosted id no site knows."""
        peer = self._peer_of(node_id)
        if peer is None:
            raise LiveUnsupportedError(
                f"only hosted (bucket/coordinator/parity) nodes can "
                f"be {what} on the live backend"
            )
        if (peer[0] == "bucket"
                and peer[1] >= len(self.config.buckets)):
            # No site was ever provisioned for this address, so the
            # node cannot exist anywhere.
            raise UnknownNodeError(f"unknown node {node_id!r}")
        return peer

    def crash(self, node_id: Hashable) -> None:
        """Crash a hosted node: its site drops (and bills) inbound
        messages and freezes its timers, exactly like the simulator.
        Records survive — this models a host outage, not disk loss.
        The hosting site validates existence, so buckets created
        server-side by splits are crashable too."""
        peer = self._hosted_peer(node_id, "crashed")
        self._connect_peer(peer)
        reply = self._roundtrip(peer, {"ctrl": "crash",
                                       "node": node_id})
        if not reply.get("known", True):
            raise UnknownNodeError(f"unknown node {node_id!r}")
        self._crashed.add(node_id)

    def restore(self, node_id: Hashable) -> bool:
        peer = self._hosted_peer(node_id, "restored")
        self._connect_peer(peer)
        reply = self._roundtrip(peer, {"ctrl": "restore",
                                       "node": node_id})
        if not reply.get("known", True):
            raise UnknownNodeError(f"unknown node {node_id!r}")
        self._crashed.discard(node_id)
        return bool(reply["was_crashed"])

    # -- partitions ------------------------------------------------------

    def partition(self, group_a: Any, group_b: Any,
                  symmetric: bool = True) -> list[tuple]:
        """Sever directed links cluster-wide: the gate of whichever
        process delivers a message drops it as ``partitioned_drops``,
        so every site mirrors this network's table."""
        links = super().partition(group_a, group_b, symmetric)
        self._broadcast({"ctrl": "partition",
                         "links": [list(link) for link in links]})
        return links

    def heal(self, group_a: Any | None = None,
             group_b: Any | None = None,
             symmetric: bool = True) -> list[tuple] | None:
        links = super().heal(group_a, group_b, symmetric)
        if links is None:
            self._broadcast({"ctrl": "heal", "all": True})
        else:
            self._broadcast({"ctrl": "heal",
                             "links": [list(link) for link in links]})
        return links

    # -- messaging -------------------------------------------------------

    def send(self, src: Hashable, dst: Hashable, kind: str,
             payload: dict | None = None, size: int = 64,
             hops: int = 0) -> Message:
        """Bill and roll client-side faults at the gate, then ship
        each copy.  A dropped message is billed but never shipped."""
        first, copies = self._outgoing(
            src, dst, kind, payload or {}, size, hops)
        for message in copies:
            self._ship(message)
        return first

    def _ship(self, message: Message) -> None:
        dst = message.dst
        if dst in self.nodes:
            self._sent += 1
            self._inbox.append(message)
            return
        peer = self._peer_of(dst)
        if peer is None:
            raise LiveUnsupportedError(
                f"cannot route to node family of {dst!r}")
        if peer[0] == "bucket" and peer[1] in self._reaped:
            raise LiveBackendError(
                f"bucket address {peer[1]} was decommissioned")
        if peer[0] == "bucket" and peer[1] >= len(self.config.buckets):
            # A keyed operation can outrun the coordinator's split
            # traffic to an address no site hosts yet: grow first.
            self._ensure_site(peer[1] + 1)
        conn = self._connect_peer(peer)
        # Counted only once the message is committed to a socket
        # buffer: a raise above means it was billed but never shipped,
        # and the conservation census must not wait for a delivery
        # that can never happen.
        self._sent += 1
        conn.outbuf += wire.encode_frame(
            wire.CHANNEL_DATA, wire.message_to_wire(message))

    def schedule(self, delay: float, callback: Callable[[], None],
                 owner: Hashable | None = None) -> Timer:
        if delay < 0:
            raise ValueError("timer delay must be non-negative")
        timer = Timer(self._mono() + delay, callback, owner=owner)
        heapq.heappush(self._timers,
                       (timer.when, next(self._sequence), timer))
        return timer

    # -- the event pump --------------------------------------------------

    def _mono(self) -> float:
        return time.monotonic() - self._t0

    def _pump(self, timeout: float) -> bool:
        """One socket round: flush pending writes, read, decode."""
        if self._closed:
            raise LiveBackendError("network is closed")
        conns = list(self._conns.values())
        rlist = [c.sock for c in conns]
        wlist = [c.sock for c in conns if c.outbuf]
        readable, writable, __ = select.select(rlist, wlist, [],
                                               timeout)
        by_sock = {c.sock: c for c in conns}
        progress = False
        for sock in writable:
            conn = by_sock[sock]
            try:
                sent = sock.send(conn.outbuf)
            except BlockingIOError:
                continue
            except OSError as exc:
                raise LiveBackendError(
                    f"connection to site {conn.key!r} failed: {exc}"
                ) from exc
            if sent:
                del conn.outbuf[:sent]
                progress = True
        for sock in readable:
            conn = by_sock[sock]
            try:
                data = sock.recv(1 << 16)
            except BlockingIOError:
                continue
            except OSError as exc:
                raise LiveBackendError(
                    f"connection to site {conn.key!r} failed: {exc}"
                ) from exc
            if not data:
                raise LiveBackendError(
                    f"site {conn.key!r} closed the connection (check "
                    "its server log)"
                )
            conn.decoder.feed(data)
            for channel, value in conn.decoder.frames():
                progress = True
                if channel == wire.CHANNEL_DATA:
                    self._inbox.append(wire.message_from_wire(value))
                elif (isinstance(value, dict)
                        and value.get("ctrl") == "ack"):
                    conn.acks[value["token"]] = value
        return progress

    def _fire_due_timers(self) -> bool:
        fired = False
        now = self._mono()
        while self._timers and self._timers[0][0] <= now:
            __, __, timer = heapq.heappop(self._timers)
            if timer.cancelled:
                continue
            self.now = max(self.now, timer.when)
            timer.fired = True
            timer.callback()
            fired = True
        return fired

    def _next_timer_due(self) -> float | None:
        while self._timers and self._timers[0][2].cancelled:
            heapq.heappop(self._timers)
        if not self._timers:
            return None
        return self._timers[0][0]

    def _dispatch_inbox(self) -> bool:
        progress = bool(self._inbox)
        while self._inbox:
            message = self._inbox.pop(0)
            self.now = max(self.now, self._mono())
            node = self._admit(message)
            self.delivered += 1
            if node is not None:
                node.handle(message)
        return progress

    def _service(self, timeout: float) -> bool:
        progress = self._pump(timeout)
        if self._fire_due_timers():
            progress = True
        if self._dispatch_inbox():
            progress = True
        return progress

    # -- control plane ---------------------------------------------------

    def _roundtrip(self, key: tuple, payload: dict,
                   timeout: float = CTRL_TIMEOUT) -> dict:
        conn = self._conns[key]
        token = next(self._tokens)
        request = dict(payload)
        request["token"] = token
        conn.outbuf += wire.encode_frame(wire.CHANNEL_CTRL, request)
        deadline = time.monotonic() + timeout
        while token not in conn.acks:
            self._pump(0.05)
            if time.monotonic() > deadline:
                raise LiveBackendError(
                    f"site {key!r} did not acknowledge "
                    f"{payload.get('ctrl')!r} within {timeout}s"
                )
        reply = conn.acks.pop(token)
        if not reply.get("ok", True):
            raise LiveBackendError(
                f"control {payload.get('ctrl')!r} failed at site "
                f"{key!r}: {reply.get('error')}"
            )
        return reply

    def _merge_site_stats(self, key: tuple,
                          snapshot: NetworkStats) -> None:
        """Fold a site's stats growth since the last census into the
        local stats object (additive, so the client's own billing —
        including its direct ``retries`` bumps — is preserved)."""
        baseline = self._site_baseline.get(key)
        self.stats.add(snapshot.diff(baseline) if baseline else snapshot)
        self._site_baseline[key] = snapshot

    def _site_census(self, key: tuple) -> dict:
        """One site's census reply, its stats growth merged — and a
        typed failure if any hosted node's handler has raised: the
        reply that message owed will never come, so waiting out the
        retry timers would only hide the site-side traceback."""
        reply = self._roundtrip(key, {"ctrl": "census"})
        self._merge_site_stats(key, reply["stats"])
        if reply["handler_failures"]:
            node, kind, error = reply["first_failure"]
            raise LiveBackendError(
                f"site {key!r}: node {node} failed handling {kind!r} "
                f"with {error} ({reply['handler_failures']} handler "
                f"failure(s); see the site log)"
            )
        return reply

    def _census(self) -> tuple[bool, tuple | None]:
        """One cluster-wide conservation census.

        Returns ``(quiescent, totals)``; ``totals`` feeds the
        two-identical-rounds rule in :meth:`run`."""
        self._sync_conns()
        sent = self._sent + self._reaped_sent
        delivered = self.delivered + self._reaped_delivered
        buffered = 0
        timers = 0 if self._next_timer_due() is None else 1
        missing: set[int] = set()
        for key in list(self._conns):
            reply = self._site_census(key)
            sent += reply["sent"]
            delivered += reply["delivered"]
            buffered += reply["buffered"]
            timers += reply["timers"]
            missing.update(reply.get("missing") or ())
        if missing:
            # Some site parked frames for unprovisioned addresses:
            # grow the cluster and let the flushed frames settle.
            self._ensure_site(max(missing) + 1)
            return False, None
        if self._inbox:
            # Data slipped in during the census: not idle after all.
            return False, None
        quiescent = (sent == delivered and buffered == 0
                     and timers == 0)
        return quiescent, (sent, delivered)

    def remote_metrics(self) -> dict[tuple, dict]:
        """Per-site metrics registries (for live tracing demos)."""
        result = {}
        for key in self._conns:
            result[key] = self._site_census(key)["metrics"]
        return result

    # -- operator verbs: the Transport's, fanned out to the sites ---------

    def _from_bucket_sites(self, ctrl: str, name: str) -> Iterator[dict]:
        """One control verb's reply from every bucket site, in site
        order (each site answers for what it hosts)."""
        for key in list(self._conns):
            if key[0] == "bucket":
                yield self._roundtrip(key, {"ctrl": ctrl, "name": name})

    def dump_buckets(self, name: str) -> dict[int, dict]:
        dump: dict[int, dict] = {}
        for reply in self._from_bucket_sites("dump", name):
            dump.update(reply["buckets"])
            # The hosting site's crash flags are authoritative: a node
            # it replaced (a recovery spare, a split over a tombstone)
            # is up, though this process crashed its predecessor.
            self._crashed -= {("bucket", name, a) for a in reply["buckets"]}
            self._crashed |= {("bucket", name, a) for a in reply["crashed"]}
        return dump

    def dump_parity(self, name: str) -> dict[tuple, dict]:
        slots: dict[tuple, dict] = {}
        for reply in self._from_bucket_sites("dump_parity", name):
            slots.update(reply["slots"])
        return slots

    def coordinator_state(self, name: str) -> dict:
        reply = self._roundtrip(("coordinator",), {"ctrl": "state",
                                                   "name": name})
        return {key: reply[key] for key in ("i", "n", "dead")}

    def site_leave(self, name: str, address: int) -> bool:
        """Start a graceful departure of bucket ``address`` of file
        ``name``: an unbilled control verb asks the hosted coordinator
        to run its ``begin_leave``, and the drain itself (``leave``
        trigger, whole-bucket ``recover_install``, ``recover_done``)
        rides the billed data plane.  Returns whether the departure
        started (``False`` when the coordinator refused, e.g. the
        bucket is dead or already being probed)."""
        reply = self._roundtrip(("coordinator",), {
            "ctrl": "leave", "name": name, "address": address})
        return bool(reply["started"])

    def decommission(self, name: str, address: int) -> None:
        """Reap the retired (tombstone) bucket ``address`` of file
        ``name`` after its image catch-up window.

        The hosting site detaches the node (refusing unless it is a
        record-free tombstone); when that leaves the site with no
        hosted nodes at all, this network takes a final stats census
        from it, closes the connection and never redials — the
        process can then be retired via
        :meth:`LiveCluster.reap_site`.  Growing the file back onto a
        reaped address is out of scope: do not decommission addresses
        future growth will re-reach (see docs/SERVING.md)."""
        if not 0 <= address < len(self.config.buckets):
            raise ValueError(
                f"no site hosts bucket address {address}")
        key = ("bucket", address)
        self._connect_peer(key)
        reply = self._roundtrip(key, {
            "ctrl": "decommission", "name": name, "address": address})
        if not reply["empty"]:
            return
        # Merge the site's outstanding billing and conservation
        # counters before abandoning it (the census must keep
        # balancing without this site's row).
        census = self._site_census(key)
        self._reaped_sent += census["sent"]
        self._reaped_delivered += census["delivered"]
        conn = self._conns.pop(key)
        try:
            conn.sock.close()
        except OSError:
            pass
        self._site_baseline.pop(key, None)
        self._reaped.add(address)

    # -- run to quiescence -----------------------------------------------

    def run(self, max_events: int = 10_000_000) -> int:
        """Pump until the whole cluster is quiescent.

        The live analogue of the simulator's event loop draining its
        queue: local sockets and timers first, then a cluster census;
        done when two consecutive censuses balance and agree."""
        start = self.delivered
        deadline = time.monotonic() + self.run_timeout
        last_totals: tuple | None = None
        while True:
            if time.monotonic() > deadline:
                raise LiveBackendError(
                    f"cluster did not quiesce within "
                    f"{self.run_timeout}s (sent={self._sent}, "
                    f"delivered={self.delivered})"
                )
            self.now = max(self.now, self._mono())
            for schedule in list(self.schedules):
                schedule.advance(self, self.now)
            if self._service(0.002):
                last_totals = None
                continue
            due = self._next_timer_due()
            if due is not None:
                # A local timer (e.g. a retry timeout) is armed: wait
                # it out, but stay responsive to inbound data.
                poll = 0.05
                wait = min(max(due - self._mono(), 0.0), poll)
                if not self._service(wait) and wait == poll:
                    # A full poll of silence while a reply is owed:
                    # ask the sites whether a handler failed before
                    # retrying blind.
                    self._census()
                last_totals = None
                continue
            quiescent, totals = self._census()
            if not quiescent:
                last_totals = None
                self._service(0.005)
                continue
            if totals == last_totals:
                return self.delivered - start
            last_totals = totals


# ---------------------------------------------------------------------------
# cluster lifecycle
# ---------------------------------------------------------------------------


def _free_ports(host: str, count: int) -> list[int]:
    """Reserve ``count`` distinct free TCP ports (standard
    bind-0-then-close trick; the tiny race is acceptable for tests)."""
    sockets = []
    ports = []
    try:
        for __ in range(count):
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return ports


def _tail(path: Path, lines: int = 20) -> str:
    try:
        content = path.read_text(errors="replace").splitlines()
    except OSError:
        return "<no log>"
    return "\n".join(content[-lines:])


class LiveCluster:
    """Spawns and supervises the site processes of one live cluster.

    >>> # with LiveCluster(buckets=4) as cluster:
    >>> #     network = cluster.connect()
    """

    def __init__(self, buckets: int = 4, host: str = "127.0.0.1",
                 log_dir: str | os.PathLike | None = None) -> None:
        if buckets < 1:
            raise ValueError("a cluster needs at least one bucket site")
        self.buckets = buckets
        self.host = host
        self._log_dir = Path(log_dir) if log_dir else None
        self._tmp: tempfile.TemporaryDirectory | None = None
        self._site_log_dir: Path | None = None
        self._config_path: Path | None = None
        self._env: dict[str, str] | None = None
        self._procs: dict[tuple, subprocess.Popen] = {}
        self._logs: dict[tuple, Path] = {}
        self._networks: list[LiveNetwork] = []
        self.config: ClusterConfig | None = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "LiveCluster":
        self._tmp = tempfile.TemporaryDirectory(prefix="repro-live-")
        workdir = Path(self._tmp.name)
        log_dir = self._log_dir or workdir
        log_dir.mkdir(parents=True, exist_ok=True)
        self._site_log_dir = log_dir
        ports = _free_ports(self.host, self.buckets + 1)
        self.config = ClusterConfig(self.host, ports[0], ports[1:])
        self._config_path = workdir / "cluster.json"
        self.config.dump(str(self._config_path))

        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_root + (os.pathsep + existing if existing else "")
            )
        self._env = env

        try:
            for index in range(self.buckets):
                self._spawn(("bucket", index), "bucket", index)
            self._spawn(("coordinator",), "coordinator", 0)
            deadline = time.monotonic() + CONNECT_TIMEOUT
            for key in list(self._procs):
                self._probe_ready(key, deadline)
        except BaseException:
            # Partial startup must not leak orphan site processes.
            self.shutdown()
            raise
        return self

    def _spawn(self, key: tuple, role: str, index: int) -> None:
        label = f"{role}-{index}" if role == "bucket" else role
        log_path = self._site_log_dir / f"{label}.log"
        handle = open(log_path, "wb")
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.net.serve",
                 "--role", role, "--index", str(index),
                 "--config", str(self._config_path)],
                stdout=handle, stderr=subprocess.STDOUT,
                env=self._env,
            )
        finally:
            handle.close()
        self._procs[key] = proc
        self._logs[key] = log_path

    def _probe_ready(self, key: tuple, deadline: float) -> None:
        """Wait until site ``key`` answers a ``ping`` control
        round-trip: retry with exponential backoff under a hard
        deadline, and fail loudly (with the site's log tail) if the
        process dies or the deadline passes."""
        assert self.config is not None
        host, port = self.config.peer_address(key)
        delay = 0.02
        while True:
            proc = self._procs[key]
            if proc.poll() is not None:
                raise LiveBackendError(
                    f"site process {key!r} exited with code "
                    f"{proc.returncode} during startup; log tail:\n"
                    + _tail(self._logs[key])
                )
            if time.monotonic() > deadline:
                raise LiveBackendError(
                    f"site {key!r} did not answer a ping within "
                    f"{CONNECT_TIMEOUT}s; log tail:\n"
                    + _tail(self._logs[key])
                )
            if self._try_ping(host, port):
                return
            time.sleep(delay)
            delay = min(delay * 1.5, 0.5)

    @staticmethod
    def _try_ping(host: str, port: int) -> bool:
        """One ping control round-trip over a throwaway connection."""
        try:
            sock = socket.create_connection((host, port), timeout=1.0)
        except OSError:
            return False
        try:
            sock.settimeout(1.0)
            sock.sendall(wire.encode_frame(
                wire.CHANNEL_CTRL, {"ctrl": "ping", "token": 1}))
            decoder = wire.FrameDecoder()
            while True:
                data = sock.recv(1 << 16)
                if not data:
                    return False
                decoder.feed(data)
                for __, value in decoder.frames():
                    if (isinstance(value, dict)
                            and value.get("ctrl") == "ack"):
                        return True
        except (OSError, wire.WireError):
            return False
        finally:
            sock.close()

    def ensure_site(self, count: int) -> None:
        """Grow the cluster to at least ``count`` bucket sites
        (idempotent).  New processes read the re-dumped config; the
        caller (``LiveNetwork._ensure_site``) broadcasts the grown map
        to the already-running sites."""
        assert self.config is not None
        if count <= len(self.config.buckets):
            return
        start_index = len(self.config.buckets)
        new_ports = _free_ports(self.host, count - start_index)
        # Extend in place: every connected LiveNetwork shares this
        # ClusterConfig object and sees the growth immediately.
        self.config.buckets.extend(new_ports)
        self.config.dump(str(self._config_path))
        deadline = time.monotonic() + CONNECT_TIMEOUT
        for offset in range(len(new_ports)):
            index = start_index + offset
            self._spawn(("bucket", index), "bucket", index)
        for offset in range(len(new_ports)):
            self._probe_ready(("bucket", start_index + offset),
                              deadline)
        self.buckets = len(self.config.buckets)

    def connect(self,
                run_timeout: float = DEFAULT_RUN_TIMEOUT) -> LiveNetwork:
        if self.config is None:
            raise LiveBackendError("cluster is not started")
        network = LiveNetwork(self.config, run_timeout=run_timeout)
        network._on_missing_site = self.ensure_site
        self._networks.append(network)
        return network

    def log_paths(self) -> dict[tuple, Path]:
        return dict(self._logs)

    def reap_site(self, index: int) -> None:
        """Retire the bucket-site process at ``index`` after its last
        hosted node was decommissioned: graceful ctrl shutdown over a
        throwaway connection, then wait (kill on timeout).  Idempotent
        — reaping an unknown or already-reaped index is a no-op.  The
        address stays in the cluster config so the remaining site
        indices keep their meaning; regrowth onto a reaped address is
        out of scope (see docs/SERVING.md)."""
        key = ("bucket", index)
        proc = self._procs.pop(key, None)
        if proc is None:
            return
        if proc.poll() is None:
            try:
                assert self.config is not None
                sock = socket.create_connection(
                    self.config.peer_address(key), timeout=2.0)
                sock.sendall(wire.encode_frame(
                    wire.CHANNEL_CTRL, {"ctrl": "shutdown"}))
                sock.close()
            except OSError:
                pass
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)

    def shutdown(self) -> None:
        for network in self._networks:
            network.close()
        self._networks.clear()
        for key, proc in self._procs.items():
            if proc.poll() is not None:
                continue
            try:
                assert self.config is not None
                sock = socket.create_connection(
                    self.config.peer_address(key), timeout=2.0)
                sock.sendall(wire.encode_frame(
                    wire.CHANNEL_CTRL, {"ctrl": "shutdown"}))
                sock.close()
            except OSError:
                pass
        for proc in self._procs.values():
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
        self._procs.clear()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
        self.config = None

    def __enter__(self) -> "LiveCluster":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
