"""Bucket and coordinator server processes for the live transport.

``python -m repro.net.serve --role bucket --index K --config cluster.json``
hosts LH* bucket ``K`` (one process per bucket address, for every file
name in the cluster); ``--role coordinator`` hosts the split
coordinators.  Both run the *unmodified* protocol actors from
:mod:`repro.sdds.lhstar` over an asyncio socket loop speaking the
:mod:`repro.net.wire` frame format — the protocol logic cannot drift
between the simulator and the live deployment because it is the same
code.

Each process owns:

* a :class:`SiteNetwork` — the :class:`~repro.net.simulator.Network`
  surface its local nodes see.  ``send`` bills the local
  :class:`~repro.net.stats.NetworkStats` at the declared size exactly
  like the simulator, then routes the frame to the hosting peer;
  ``schedule`` arms real-time asyncio timers with the simulator's
  crash-freeze semantics.
* a control plane (unbilled, ``CHANNEL_CTRL``): node creation, crash
  and restore flags, fault-rule installation (loss / duplication /
  corruption / latency / partitions — see ``fault_set``, ``partition``,
  ``heal``, ``delay``, ``drop``), census, record and parity dumps,
  shutdown.  Control traffic deliberately mirrors the simulator's
  unbilled *method calls* (``Network.crash`` etc.).
* conservation counters (data messages sent / delivered / buffered)
  the client's census sums to detect global quiescence — the live
  equivalent of the simulator's run-to-quiescence event loop.

Crashing a bucket process (``LiveNetwork.crash``) sets a flag at its
hosting site: inbound data for the node is dropped and billed as
``crashed_drops``, owned timers freeze, and ``restore`` re-arms them
— byte-for-byte the accounting of the simulated ``Network.crash``,
with records preserved across the outage.

v2 additions: a per-site seeded :class:`~repro.net.faults.FaultModel`
applied at the simulator's exact fault points (send-side loss /
duplication / checksum stamping, delivery-side partition and checksum
checks), LH*_RS parity hosting (``create_parity`` / ``create_spare``
control verbs; parity deltas and the whole recovery gather run over
TCP, billed), and elastic growth: a frame for a bucket address beyond
the provisioned site count is *parked* and reported in the census so
the cluster can spawn the missing site and re-deliver (``config``).

v3 additions: elasticity in both directions.  Shrinking files and
controlled split policies are hosted (buckets of load-tracking files
report ``load``/``underflow`` deltas so the remote coordinator's
global record count stays exact), merges retire live tombstones whose
``merge_records`` shipments ride the billed data plane, a ``leave``
control verb triggers the coordinator's graceful-departure drain, and
a ``decommission`` control verb reaps an empty tombstone after its
image catch-up window (reporting when the site has no hosted nodes
left, so the whole process can be retired).

See ``docs/SERVING.md`` for the topology and wire format.
"""

from __future__ import annotations

import argparse
import asyncio
import heapq
import json
import logging
import sys
from typing import Any, Callable, Hashable

from repro.errors import UnknownNodeError
from repro.net import wire
from repro.net.faults import RELIABLE_KINDS, FaultModel
from repro.net.simulator import Message, Node, Timer, wire_checksum
from repro.net.stats import NetworkStats
from repro.obs import metrics as obs_metrics

log = logging.getLogger("repro.net.serve")

#: Seconds between redials while a peer site is still starting up.
DIAL_RETRY_DELAY = 0.2
#: Give up dialing a peer after this many seconds.
DIAL_TIMEOUT = 30.0


class ClusterConfig:
    """The cluster's address map, shared by every process via JSON."""

    def __init__(self, host: str, coordinator: int,
                 buckets: list[int]) -> None:
        self.host = host
        self.coordinator = coordinator
        self.buckets = list(buckets)

    @classmethod
    def load(cls, path: str) -> "ClusterConfig":
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        return cls(raw["host"], raw["coordinator"], raw["buckets"])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"host": self.host,
                       "coordinator": self.coordinator,
                       "buckets": self.buckets}, handle)

    def peer_address(self, key: tuple) -> tuple[str, int]:
        if key[0] == "coordinator":
            return self.host, self.coordinator
        return self.host, self.buckets[key[1]]


def peer_of(node_id: Hashable,
            group_size: int | None = None) -> tuple | None:
    """The hosting-process key of a protocol node id, or ``None``
    for client nodes (which live in the connecting process).

    Parity ids ``("parity", name, group, index)`` are placed on the
    bucket site ``group * group_size + index`` — deterministic, stable
    under file growth, and distinct per parity bucket as long as
    ``parity_count <= group_size`` (enforced at attach time).  Without
    ``group_size`` the placement is unknown and ``None`` is returned.
    """
    if not isinstance(node_id, tuple) or not node_id:
        return None
    if node_id[0] == "bucket":
        return ("bucket", node_id[2])
    if node_id[0] == "coordinator":
        return ("coordinator",)
    if (node_id[0] == "parity" and len(node_id) == 4
            and group_size is not None):
        return ("bucket", node_id[2] * group_size + node_id[3])
    return None


# ---------------------------------------------------------------------------
# shell files: the LHStarFile surface the hosted actors consume
# ---------------------------------------------------------------------------


class _StubBucket:
    """Placeholder for a bucket hosted in another process."""

    records: dict = {}


class _StubBuckets:
    """The coordinator's ``file.buckets`` view in live mode.

    The coordinator only reads it for a load metric on split
    (``len(file.buckets[n].records)``); the real records live in the
    bucket processes, so the metric observes 0 here — a documented
    live-mode deviation that touches metrics only, never protocol."""

    def __getitem__(self, address: int) -> _StubBucket:
        return _StubBucket()

    def get(self, address: int) -> _StubBucket:
        return _StubBucket()


class ShellFile:
    """The slice of :class:`~repro.sdds.lhstar.LHStarFile` a hosted
    actor actually touches, reconstructed from a ``create_*`` control
    message.  Identifier formulas are duplicated *by value* from the
    real file (asserted equal in the test suite)."""

    def __init__(self, server: "SiteServer", name: str,
                 bucket_capacity: int, shrink: bool,
                 split_policy: str, load_factor_threshold: float,
                 merge_threshold: float, retry_policy,
                 rs: dict | None = None) -> None:
        self.server = server
        self.network = server.network
        self.name = name
        self.bucket_capacity = bucket_capacity
        self.shrink = shrink
        self.split_policy = split_policy
        self.load_factor_threshold = load_factor_threshold
        self.merge_threshold = merge_threshold
        self.retry_policy = retry_policy
        #: Derived exactly like ``LHStarFile.tracks_load``: buckets of
        #: tracking files report net-new stores (``load``) and deletes
        #: (``underflow``) so the remote coordinator's global record
        #: count stays exact without reading bucket contents.
        self.tracks_load = shrink or split_policy == "load_factor"
        self.record_count = 0
        #: LH*_RS parameters (``{"group_size": m, "parity_count": k}``)
        #: or ``None`` for plain LH*.  When set, locally hosted data
        #: buckets emit billed ``parity_delta`` messages exactly like
        #: :class:`~repro.sdds.lhstar_rs.LHStarRSFile`, with the rank
        #: tables living at the hosting site.
        self.rs = dict(rs) if rs else None
        self.group_size = self.rs["group_size"] if self.rs else None
        self.parity_count = self.rs["parity_count"] if self.rs else None
        self._generator = None
        self._ranks: dict[int, dict[int, int]] = {}
        self._free_ranks: dict[int, list[int]] = {}
        self._next_rank: dict[int, int] = {}
        #: The locally hosted buckets of this file (at most one per
        #: bucket process); the coordinator sees stubs instead.
        self.local_buckets: dict[int, Any] = {}

    # -- identifiers (same formulas as LHStarFile) -----------------------

    def bucket_id(self, address: int) -> Hashable:
        return ("bucket", self.name, address)

    def client_id(self, index: int) -> Hashable:
        return ("client", self.name, index)

    @property
    def coordinator_id(self) -> Hashable:
        return ("coordinator", self.name)

    def parity_id(self, group: int, index: int) -> Hashable:
        return ("parity", self.name, group, index)

    def group_of(self, address: int) -> int:
        return address // self.group_size

    def offset_of(self, address: int) -> int:
        return address % self.group_size

    @property
    def generator(self):
        """The group's Cauchy generator (same matrix as the real
        :class:`~repro.sdds.lhstar_rs.LHStarRSFile`), built lazily so
        plain-LH* shells never import the parity layer."""
        if self._generator is None:
            from repro.sdds.lhstar_rs import generator_matrix

            self._generator = generator_matrix(self.group_size,
                                               self.parity_count)
        return self._generator

    def _shell_params(self) -> dict:
        """The creation parameters another site needs to rebuild this
        shell (forwarded verbatim in ``create_*`` control verbs)."""
        return {
            "name": self.name,
            "bucket_capacity": self.bucket_capacity,
            "shrink": self.shrink,
            "split_policy": self.split_policy,
            "load_factor_threshold": self.load_factor_threshold,
            "merge_threshold": self.merge_threshold,
            "retry_policy": self.retry_policy,
            "rs": self.rs,
        }

    # -- rank management (mirrors LHStarRSFile, per hosted address) -------

    def init_ranks(self, address: int) -> None:
        """Prepare (or preserve, across a spare swap) the rank tables
        of a locally hosted data bucket.  Tables survive crash →
        ``create_spare``: the parity buckets still hold the dead
        bucket's contributions under the original ranks, and the
        reconstructed records are re-installed without re-emitting."""
        if self.rs is None:
            return
        self._ranks.setdefault(address, {})
        self._free_ranks.setdefault(address, [])
        self._next_rank.setdefault(address, 0)

    def _assign_rank(self, address: int, rid: int) -> int:
        ranks = self._ranks[address]
        if rid in ranks:
            return ranks[rid]
        free = self._free_ranks[address]
        if free:
            rank = heapq.heappop(free)
        else:
            rank = self._next_rank[address]
            self._next_rank[address] += 1
        ranks[rid] = rank
        return rank

    def _release_rank(self, address: int, rid: int) -> int:
        rank = self._ranks[address].pop(rid)
        heapq.heappush(self._free_ranks[address], rank)
        return rank

    def _send_delta(self, address: int, rank: int, rid: int | None,
                    delta: bytes, length: int) -> None:
        from repro.sdds.lhstar import HEADER_SIZE

        group = self.group_of(address)
        offset = self.offset_of(address)
        for index in range(self.parity_count):
            self.network.send(
                self.bucket_id(address),
                self.parity_id(group, index),
                "parity_delta",
                {"rank": rank, "offset": offset, "rid": rid,
                 "delta": delta, "length": length},
                size=HEADER_SIZE + len(delta),
            )

    # -- bookkeeping hooks (parity deltas when ``rs`` is set) -------------

    def on_store(self, address, record, old) -> None:
        if old is None:
            self.record_count += 1
        if self.rs is None:
            return
        from repro.sdds.lhstar_rs import _xor

        rank = self._assign_rank(address, record.rid)
        delta = _xor(record.content, old.content if old else b"")
        self._send_delta(address, rank, record.rid, delta,
                         len(record.content))

    def on_remove(self, address, record) -> None:
        self.record_count -= 1
        if self.rs is None:
            return
        rank = self._release_rank(address, record.rid)
        self._send_delta(address, rank, None, record.content, 0)

    def on_move(self, old, new, record) -> None:
        if self.rs is None:
            return
        ranks = self._ranks.get(old)
        rank = None if ranks is None else ranks.pop(record.rid, None)
        if rank is None:
            return
        heapq.heappush(self._free_ranks[old], rank)
        self._send_delta(old, rank, None, record.content, 0)

    def on_absorb(self, address, record, old) -> None:
        if self.rs is None:
            return
        from repro.sdds.lhstar_rs import _xor

        rank = self._assign_rank(address, record.rid)
        delta = _xor(record.content, old.content if old else b"")
        self._send_delta(address, rank, record.rid, delta,
                         len(record.content))

    # -- crash-recovery hooks (overridden on the coordinator shell) -------

    def begin_recovery(self, address: int, level: int) -> bool:
        return False

    def finish_recovery(self, address: int) -> None:
        pass

    def recovery_group(self, address: int) -> list[int]:
        return [address]

    def degraded_read_target(self, address: int):
        if self.rs is None:
            return None
        return self.parity_id(self.group_of(address), 0)

    def degraded_dead_set(self, address, dead) -> list[int]:
        if self.rs is None:
            return [address]
        members = self.recovery_group(address)
        return sorted({m for m in members if m in dead} | {address})

    def retire_bucket(self, address: int) -> None:
        pass


class CoordinatorShellFile(ShellFile):
    """Coordinator-side shell: splits create buckets *remotely*, and
    (for LH*_RS files) drive parity creation and spare spawning."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Every bucket address ever created for this file (bucket 0
        #: exists from file construction) — the coordinator's view of
        #: group membership for recovery.
        self.created: set[int] = {0}
        #: Groups whose parity buckets exist.  Group 0's parity is
        #: created by the connecting client at attach time; later
        #: groups are created here, on the split that opens them.
        self._parity_groups: set[int] = {0}

    @property
    def buckets(self) -> _StubBuckets:
        return _StubBuckets()

    def create_bucket(self, address: int, level: int,
                      pending: bool = False) -> None:
        """The live form of the coordinator's split-side bucket
        creation: an (unbilled) control message to the hosting site.
        The data-plane ``split_records`` shipment may still overtake
        it — the site buffers data for a locally owned, not yet
        created node until creation lands."""
        self.server.send_ctrl(("bucket", address), {
            "ctrl": "create_bucket",
            "address": address,
            "level": level,
            "pending": pending,
            **self._shell_params(),
        })
        self.created.add(address)
        if self.rs is None:
            return
        group = self.group_of(address)
        if group in self._parity_groups:
            return
        self._parity_groups.add(group)
        for index in range(self.parity_count):
            self.server.send_ctrl(
                ("bucket", group * self.group_size + index),
                {"ctrl": "create_parity", "group": group,
                 "index": index, **self._shell_params()})

    def recovery_group(self, address: int) -> list[int]:
        if self.rs is None:
            return [address]
        base = self.group_of(address) * self.group_size
        return [base + offset for offset in range(self.group_size)
                if (base + offset) in self.created]

    def begin_recovery(self, address: int, level: int) -> bool:
        """The live form of ``LHStarRSFile.begin_recovery``: spawn the
        spare *remotely* (unbilled control verb to the dead bucket's
        site, mirroring the simulator's unbilled ``spawn_spare``) and
        ask the group's first parity bucket — over the billed data
        plane — to gather, solve, and install."""
        if self.rs is None:
            return False
        from repro.sdds.lhstar import HEADER_SIZE

        coordinator = self.network.nodes.get(self.coordinator_id)
        dead = self.degraded_dead_set(
            address, coordinator.dead if coordinator is not None else {})
        if len(dead) > self.parity_count:
            return False
        group = self.group_of(address)
        obs_metrics.inc("lh.recover")
        self.server.send_ctrl(("bucket", address), {
            "ctrl": "create_spare",
            "address": address,
            "level": level,
            **self._shell_params(),
        })
        self.network.send(
            self.coordinator_id,
            self.parity_id(group, 0),
            "recover",
            {"address": address, "dead": dead},
            size=HEADER_SIZE,
        )
        return True


class _AllAddresses:
    """Containment-only ``file.buckets`` view for parity buckets
    hosted at a bucket site.  A gather skips group members with no
    contributing rids before it ever consults membership, so claiming
    every address exists is safe — and the site cannot know the true
    global bucket set without a census."""

    def __contains__(self, address: int) -> bool:
        return True


class BucketShellFile(ShellFile):
    """Bucket-side shell: exposes the hosted bucket for dumps."""

    @property
    def buckets(self):
        if self.rs is not None:
            return _AllAddresses()
        return self.local_buckets

    def spawn_spare(self, address: int, level: int) -> None:
        """Swap the locally hosted bucket for a fresh pending spare
        under the same network identity — invoked by the bucket itself
        during a graceful ``leave`` drain, unbilled like the
        simulator's direct method call.  Rank tables and the retired /
        merge-target flags persist across the swap, so the in-flight
        ``recover_install`` shipment re-installs without re-emitting
        parity."""
        from repro.sdds.lhstar import LHStarBucket

        if address != self.server.index:
            raise ValueError(
                f"bucket {address} does not live on site "
                f"{self.server.index}")
        self.init_ranks(address)
        node_id = self.bucket_id(address)
        old = self.local_buckets.get(address)
        if node_id in self.network.nodes:
            self.network.detach(node_id)
        self.server.crashed.discard(node_id)
        self.server._frozen.pop(node_id, None)
        spare = LHStarBucket(self, address, level, pending=True)
        if old is not None:
            spare.retired = old.retired
            spare.merge_target = old.merge_target
        self.local_buckets[address] = spare
        self.network.attach(spare)
        for message in self.server.buffered.pop(node_id, []):
            self.server.deliver(message)


# ---------------------------------------------------------------------------
# the per-process network
# ---------------------------------------------------------------------------


class SiteNetwork:
    """The ``Network`` surface hosted nodes see inside one process.

    ``send`` bills the local stats at the *declared* size — the same
    accounting point as the simulator — and hands the message to the
    server for socket routing.  ``schedule`` arms wall-clock timers
    with owner-crash freezing."""

    def __init__(self, server: "SiteServer") -> None:
        self.server = server
        self.stats = NetworkStats()
        self.observer: Any | None = None
        self.nodes: dict[Hashable, Node] = {}
        self.now = 0.0

    def attach(self, node: Node) -> Node:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        node.network = self
        self.nodes[node.node_id] = node
        return node

    def detach(self, node_id: Hashable) -> None:
        node = self.nodes.pop(node_id, None)
        if node is None:
            raise UnknownNodeError(f"unknown node {node_id!r}")
        node.network = None

    def __contains__(self, node_id: Hashable) -> bool:
        return node_id in self.nodes

    def send(self, src, dst, kind, payload=None, size=64,
             hops=0) -> Message:
        """Bill, apply send-side faults, and route.

        The fault points and their order are the simulator's exactly:
        bill once at the declared size, then — for kinds the fault
        model covers — draw loss, duplication, and (when corruption is
        enabled) stamp a wire checksum and maybe flip one bit per
        shipped copy.  A dropped message is billed but never routed,
        so the census stays conserved (``sent`` only counts shipped
        copies, each of which is eventually ``delivered`` somewhere).
        """
        payload = payload or {}
        self.stats.record(kind, size)
        if self.observer is not None:
            self.observer.on_send(kind, size)
        server = self.server
        faults = server.faults
        message = Message(src=src, dst=dst, kind=kind,
                          payload=payload, size=size, hops=hops)
        copies = 1
        base_checksum = 0
        eligible = (faults.applies(kind) if faults is not None
                    else kind not in RELIABLE_KINDS)
        if eligible and server.force_drops > 0:
            server.force_drops -= 1
            self.stats.dropped += 1
            if self.observer is not None:
                self.observer.on_drop(kind, size)
            return message
        if faults is not None and faults.applies(kind):
            if faults.drops():
                self.stats.dropped += 1
                if self.observer is not None:
                    self.observer.on_drop(kind, size)
                return message
            if faults.duplicates():
                copies = 2
            if faults.corruption_rate > 0:
                base_checksum = wire_checksum(kind, payload, size)
        first: Message | None = None
        for copy in range(copies):
            if copy:
                self.stats.record(kind, size)
                self.stats.duplicated += 1
                if self.observer is not None:
                    self.observer.on_send(kind, size)
            checksum = base_checksum
            if base_checksum and faults.corrupts():
                checksum ^= 1 << faults.corrupt_bit()
                if checksum == 0:
                    checksum = 0xFFFFFFFF
            shipped = Message(src=src, dst=dst, kind=kind,
                              payload=payload, size=size, hops=hops,
                              checksum=checksum)
            server.sent += 1
            server.route(shipped)
            if first is None:
                first = shipped
        return first

    def schedule(self, delay: float, callback: Callable[[], None],
                 owner: Hashable | None = None) -> Timer:
        return self.server.schedule(delay, callback, owner)

    def is_crashed(self, node_id: Hashable) -> bool:
        return node_id in self.server.crashed


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------


class SiteServer:
    """One cluster process: a bucket site or the coordinator site."""

    def __init__(self, role: str, index: int,
                 config: ClusterConfig) -> None:
        if role not in ("bucket", "coordinator"):
            raise ValueError(f"unknown role {role!r}")
        self.role = role
        self.index = index
        self.config = config
        self.network = SiteNetwork(self)
        self.files: dict[str, ShellFile] = {}
        #: Crashed node ids (delivery-time drops, frozen timers).
        self.crashed: set[Hashable] = set()
        self._frozen: dict[Hashable, list[Timer]] = {}
        #: Data messages buffered for a locally owned node that has
        #: not been created yet (a split shipment overtaking its
        #: control-plane ``create_bucket``).
        self.buffered: dict[Hashable, list[Message]] = {}
        #: Conservation counters for the client's quiescence census.
        self.sent = 0
        self.delivered = 0
        #: Handler exceptions :meth:`deliver` swallowed, and the first
        #: one as ``(node id, message kind, exception)`` reprs — the
        #: census reports both so the client fails fast instead of
        #: waiting out its retry timers on a reply that cannot come.
        self.handler_failures = 0
        self.first_failure: tuple[str, str, str] | None = None
        #: Fault state installed by the ctrl plane (``fault_set``,
        #: ``partition``, ``delay``, ``drop``) — ``None`` until the
        #: client enables fault injection.
        self.faults: FaultModel | None = None
        self._fault_seed: int | None = None
        #: Directed ``(src, dst)`` node-id pairs whose delivery this
        #: site refuses (billed as ``partitioned_drops``).
        self.partitions: set[tuple] = set()
        #: Extra seconds every locally sent data message is held
        #: before routing (the live form of a latency spike).
        self.delay_extra = 0.0
        #: Deterministically drop the next N fault-eligible sends.
        self.force_drops = 0
        #: Frames destined for bucket sites beyond the current config
        #: — parked until a ``config`` update provisions the site.
        self._parked: dict[int, list[bytes]] = {}
        #: LH*_RS layout per file name, learned from ``create_*``
        #: payloads; needed to place parity ids on their host sites.
        self.rs_params: dict[str, tuple[int, int]] = {}
        #: Registered client connections: node id -> StreamWriter.
        self.clients: dict[Hashable, asyncio.StreamWriter] = {}
        self._out: dict[tuple, asyncio.Queue] = {}
        self._tasks: list[asyncio.Task] = []
        self._armed: set[Timer] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping: asyncio.Event | None = None
        self.metrics = obs_metrics.MetricsRegistry()

    # -- timers ----------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None],
                 owner: Hashable | None = None) -> Timer:
        if delay < 0:
            raise ValueError("timer delay must be non-negative")
        assert self._loop is not None
        timer = Timer(self._loop.time() + delay, callback, owner=owner)
        self._armed.add(timer)
        self._loop.call_later(delay, self._fire, timer)
        return timer

    def _fire(self, timer: Timer) -> None:
        self._armed.discard(timer)
        if timer.cancelled:
            return
        if timer.owner is not None and timer.owner in self.crashed:
            # The owner is down: freeze; restore() re-arms due now.
            self._frozen.setdefault(timer.owner, []).append(timer)
            return
        timer.fired = True
        try:
            timer.callback()
        except Exception:
            log.exception("timer callback failed")

    def armed_timers(self) -> int:
        return sum(1 for timer in self._armed if not timer.cancelled)

    # -- routing ---------------------------------------------------------

    def _peer_of(self, dst: Hashable) -> tuple | None:
        """Parity-aware :func:`peer_of`: resolve parity ids with the
        file's registered group size."""
        peer = peer_of(dst)
        if (peer is None and isinstance(dst, tuple) and dst
                and dst[0] == "parity" and len(dst) == 4):
            rs = self.rs_params.get(dst[1])
            if rs is not None:
                peer = peer_of(dst, group_size=rs[0])
        return peer

    def route(self, message: Message) -> None:
        """Ship one locally sent data message toward its host."""
        if self.delay_extra > 0:
            # Latency spike: hold the frame at the sender.  The census
            # sees sent > delivered while held, so quiescence waits —
            # the live analogue of an undelivered in-flight message.
            assert self._loop is not None
            self._loop.call_later(self.delay_extra, self._route_now,
                                  message)
            return
        self._route_now(message)

    def _route_now(self, message: Message) -> None:
        dst = message.dst
        if dst in self.network.nodes or self._locally_owned(dst):
            # Same-process delivery (possible for tombstone revivals);
            # defer a tick to keep handle() non-reentrant.
            assert self._loop is not None
            self._loop.call_soon(self.deliver, message)
            return
        if isinstance(dst, tuple) and dst and dst[0] == "client":
            writer = self.clients.get(dst)
            if writer is None:
                log.error("no registered connection for client %r; "
                          "message %r dropped", dst, message.kind)
                self.network.stats.crashed_drops += 1
                self.delivered += 1  # consumed, keeps census conserved
                return
            writer.write(wire.encode_frame(
                wire.CHANNEL_DATA, wire.message_to_wire(message)))
            return
        peer = self._peer_of(dst)
        if peer is None:
            log.error("unroutable destination %r for kind %r", dst,
                      message.kind)
            self.network.stats.crashed_drops += 1
            self.delivered += 1
            return
        frame = wire.encode_frame(wire.CHANNEL_DATA,
                                  wire.message_to_wire(message))
        if peer[0] == "bucket" and peer[1] >= len(self.config.buckets):
            # The file grew past the provisioned sites: park the frame
            # and surface the gap through the census so the cluster
            # can spawn the missing site and re-deliver.
            self._parked.setdefault(peer[1], []).append(frame)
            return
        self._peer_queue(peer).put_nowait(frame)

    def send_ctrl(self, peer: tuple, payload: dict) -> None:
        """Fire-and-forget control message to another site."""
        frame = wire.encode_frame(wire.CHANNEL_CTRL, payload)
        if peer[0] == "bucket" and peer[1] >= len(self.config.buckets):
            self._parked.setdefault(peer[1], []).append(frame)
            return
        self._peer_queue(peer).put_nowait(frame)

    def _peer_queue(self, peer: tuple) -> asyncio.Queue:
        queue = self._out.get(peer)
        if queue is None:
            queue = self._out[peer] = asyncio.Queue()
            self._tasks.append(asyncio.ensure_future(
                self._peer_writer(peer, queue)))
        return queue

    async def _peer_writer(self, peer: tuple,
                           queue: asyncio.Queue) -> None:
        """One outbound connection per peer process: dial (with
        retries while the peer boots), then stream frames in FIFO
        order — the live transport's per-link TCP ordering."""
        host, port = self.config.peer_address(peer)
        writer = None
        assert self._loop is not None
        deadline = self._loop.time() + DIAL_TIMEOUT
        while writer is None:
            try:
                reader, writer = await asyncio.open_connection(
                    host, port)
            except OSError:
                if self._loop.time() > deadline:
                    log.error("cannot reach peer %r at %s:%s",
                              peer, host, port)
                    return
                await asyncio.sleep(DIAL_RETRY_DELAY)
        # Drain anything the peer writes back (control acks are never
        # requested on this link, but decode errors should be loud).
        self._tasks.append(asyncio.ensure_future(
            self._read_frames(reader, writer)))
        while True:
            data = await queue.get()
            writer.write(data)
            await writer.drain()

    def _locally_owned(self, node_id: Hashable) -> bool:
        """Whether this process is the host of ``node_id`` (even if
        the node has not been created yet)."""
        if not isinstance(node_id, tuple) or not node_id:
            return False
        if self.role == "bucket":
            if (node_id[0] == "bucket" and len(node_id) == 3
                    and node_id[2] == self.index):
                return True
            if node_id[0] == "parity" and len(node_id) == 4:
                rs = self.rs_params.get(node_id[1])
                if rs is None:
                    # Placement is deterministic and the sender knew
                    # the layout; a parity frame arriving here is ours
                    # — buffer until ``create_parity`` lands.
                    return True
                return node_id[2] * rs[0] + node_id[3] == self.index
            return False
        return node_id[0] == "coordinator"

    # -- delivery --------------------------------------------------------

    def deliver(self, message: Message) -> None:
        """Delivery-side checks, in the simulator's exact order:
        partition, crashed destination, then checksum verification."""
        dst = message.dst
        if (message.src, dst) in self.partitions:
            self.network.stats.partitioned_drops += 1
            if self.network.observer is not None:
                self.network.observer.on_drop(message.kind,
                                              message.size)
            self.delivered += 1
            return
        if dst in self.crashed:
            # The frame crossed the wire and dies at the dead host's
            # door — billed exactly like the simulator.
            self.network.stats.crashed_drops += 1
            if self.network.observer is not None:
                self.network.observer.on_drop(message.kind,
                                              message.size)
            self.delivered += 1
            return
        node = self.network.nodes.get(dst)
        if node is None:
            if self._locally_owned(dst):
                self.buffered.setdefault(dst, []).append(message)
                return
            log.error("message %r for %r reached the wrong site",
                      message.kind, dst)
            self.delivered += 1
            return
        if message.checksum and message.checksum != wire_checksum(
                message.kind, message.payload, message.size):
            self.network.stats.corrupted += 1
            if self.network.observer is not None:
                self.network.observer.on_drop(message.kind,
                                              message.size)
            self.delivered += 1
            return
        self.delivered += 1
        if self.network.observer is not None:
            self.network.observer.on_deliver(message.kind,
                                             message.size, 0.0)
        try:
            node.handle(message)
        except Exception as exc:
            log.exception("node %r failed handling %r", dst,
                          message.kind)
            self.handler_failures += 1
            if self.first_failure is None:
                self.first_failure = (repr(dst), message.kind,
                                      repr(exc))

    # -- control plane ---------------------------------------------------

    def _shell_file(self, payload: dict) -> ShellFile:
        name = payload["name"]
        rs = payload.get("rs")
        if rs:
            self.rs_params[name] = (rs["group_size"],
                                    rs["parity_count"])
        shell = self.files.get(name)
        if shell is None:
            cls = (BucketShellFile if self.role == "bucket"
                   else CoordinatorShellFile)
            shell = cls(
                self, name,
                bucket_capacity=payload["bucket_capacity"],
                shrink=payload["shrink"],
                split_policy=payload["split_policy"],
                load_factor_threshold=payload[
                    "load_factor_threshold"],
                merge_threshold=payload["merge_threshold"],
                retry_policy=payload["retry_policy"],
                rs=rs,
            )
            self.files[name] = shell
        return shell

    def handle_ctrl(self, payload: dict,
                    writer: asyncio.StreamWriter) -> None:
        ctrl = payload.get("ctrl")
        token = payload.get("token")
        try:
            reply = self._dispatch_ctrl(ctrl, payload, writer)
        except Exception as exc:
            log.exception("control %r failed", ctrl)
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if token is not None:
            reply = dict(reply or {})
            reply.setdefault("ok", True)
            reply["ctrl"] = "ack"
            reply["token"] = token
            writer.write(wire.encode_frame(wire.CHANNEL_CTRL, reply))

    def _dispatch_ctrl(self, ctrl: str, payload: dict,
                       writer: asyncio.StreamWriter) -> dict | None:
        if ctrl == "ping":
            return {"role": self.role, "index": self.index}
        if ctrl == "register_client":
            self.clients[payload["node"]] = writer
            return {}
        if ctrl == "create_bucket":
            return self._ctrl_create_bucket(payload)
        if ctrl == "create_coordinator":
            return self._ctrl_create_coordinator(payload)
        if ctrl == "create_parity":
            return self._ctrl_create_parity(payload)
        if ctrl == "create_spare":
            return self._ctrl_create_spare(payload)
        if ctrl == "leave":
            return self._ctrl_leave(payload)
        if ctrl == "decommission":
            return self._ctrl_decommission(payload)
        if ctrl == "crash":
            node = payload["node"]
            known = node in self.network.nodes
            if known:
                self.crashed.add(node)
            return {"known": known}
        if ctrl == "restore":
            return self._ctrl_restore(payload["node"])
        if ctrl == "fault_set":
            return self._ctrl_fault_set(payload)
        if ctrl == "partition":
            self.partitions.update(
                (link[0], link[1]) for link in payload["links"])
            return {}
        if ctrl == "heal":
            if payload.get("all"):
                self.partitions.clear()
            else:
                for link in payload["links"]:
                    self.partitions.discard((link[0], link[1]))
            return {}
        if ctrl == "delay":
            self.delay_extra = float(payload["extra"])
            return {}
        if ctrl == "drop":
            self.force_drops += int(payload["count"])
            return {}
        if ctrl == "config":
            return self._ctrl_config(payload)
        if ctrl == "census":
            return {
                "sent": self.sent,
                "delivered": self.delivered,
                "buffered": (sum(len(q) for q in
                                 self.buffered.values())
                             + sum(len(q) for q in
                                   self._parked.values())),
                "timers": self.armed_timers(),
                "stats": self.network.stats.snapshot(),
                "metrics": self.metrics.to_dict(),
                "missing": sorted(self._parked),
                "handler_failures": self.handler_failures,
                "first_failure": self.first_failure,
            }
        if ctrl == "dump":
            return self._ctrl_dump(payload["name"])
        if ctrl == "dump_parity":
            return self._ctrl_dump_parity(payload["name"])
        if ctrl == "state":
            return self._ctrl_state(payload["name"])
        if ctrl == "shutdown":
            assert self._stopping is not None
            self._loop.call_soon(self._stopping.set)
            return {}
        raise ValueError(f"unknown control message {ctrl!r}")

    def _ctrl_create_bucket(self, payload: dict) -> dict:
        from repro.sdds.lhstar import LHStarBucket

        if self.role != "bucket":
            raise ValueError("create_bucket sent to the coordinator")
        address = payload["address"]
        if address != self.index:
            raise ValueError(
                f"bucket {address} does not live on site {self.index}"
            )
        shell = self._shell_file(payload)
        existing = shell.local_buckets.get(address)
        if existing is not None:
            if not existing.retired:
                raise ValueError(f"bucket {address} already exists")
            existing.retired = False
            existing.merge_target = None
            existing.level = payload["level"]
            existing.pending = payload["pending"]
            return {"revived": True}
        shell.init_ranks(address)
        bucket = LHStarBucket(shell, address, payload["level"],
                              pending=payload["pending"])
        shell.local_buckets[address] = bucket
        self.network.attach(bucket)
        # A split shipment may have overtaken this control message:
        # deliver anything buffered for the new node, in arrival order.
        for message in self.buffered.pop(bucket.node_id, []):
            self.deliver(message)
        return {}

    def _ctrl_create_coordinator(self, payload: dict) -> dict:
        from repro.sdds.lhstar import LHStarCoordinator

        if self.role != "coordinator":
            raise ValueError(
                "create_coordinator sent to a bucket site")
        shell = self._shell_file(payload)
        node_id = shell.coordinator_id
        if node_id in self.network.nodes:
            raise ValueError(
                f"coordinator for file {payload['name']!r} exists")
        coordinator = LHStarCoordinator(shell)
        self.network.attach(coordinator)
        for message in self.buffered.pop(node_id, []):
            self.deliver(message)
        return {}

    def _ctrl_create_parity(self, payload: dict) -> dict:
        from repro.sdds.lhstar_rs import ParityBucket

        if self.role != "bucket":
            raise ValueError("create_parity sent to the coordinator")
        shell = self._shell_file(payload)
        if shell.rs is None:
            raise ValueError("create_parity for a plain LH* file")
        group, index = payload["group"], payload["index"]
        if group * shell.group_size + index != self.index:
            raise ValueError(
                f"parity ({group}, {index}) does not live on site "
                f"{self.index}")
        node_id = shell.parity_id(group, index)
        if node_id in self.network.nodes:
            return {"existed": True}
        parity = ParityBucket(shell, group, index)
        self.network.attach(parity)
        for message in self.buffered.pop(node_id, []):
            self.deliver(message)
        return {}

    def _ctrl_create_spare(self, payload: dict) -> dict:
        """Replace a dead local bucket with a fresh pending spare
        under the same network identity — the live, remote form of
        ``LHStarFile.spawn_spare`` (unbilled, like the simulator's
        direct method call).  Records are gone; rank tables persist so
        the reconstruction can re-install without re-emitting parity."""
        if self.role != "bucket":
            raise ValueError("create_spare sent to the coordinator")
        shell = self._shell_file(payload)
        shell.spawn_spare(payload["address"], payload["level"])
        return {}

    def _ctrl_leave(self, payload: dict) -> dict:
        """Trigger a graceful departure of bucket ``address``: the
        hosted coordinator runs its ordinary ``begin_leave`` and the
        drain itself (``leave`` trigger, ``recover_install`` shipment,
        ``recover_done`` ack) flows over the billed data plane."""
        if self.role != "coordinator":
            raise ValueError("leave sent to a bucket site")
        node = self.network.nodes.get(
            ("coordinator", payload["name"]))
        if node is None:
            raise ValueError(
                f"no coordinator for file {payload['name']!r}")
        return {"started": node.begin_leave(payload["address"])}

    def _ctrl_decommission(self, payload: dict) -> dict:
        """Reap a retired (tombstone) bucket after its image catch-up
        window: detach the node and forget it.  Refuses while the
        tombstone still holds records or was never retired — reaping a
        live bucket would lose data.  Reports whether the site hosts
        any remaining nodes so the caller can retire the whole
        process."""
        if self.role != "bucket":
            raise ValueError("decommission sent to the coordinator")
        shell = self.files.get(payload["name"])
        address = payload["address"]
        bucket = (None if shell is None
                  else shell.local_buckets.get(address))
        if bucket is None:
            raise ValueError(
                f"no bucket {address} to decommission on site "
                f"{self.index}")
        if not bucket.retired:
            raise ValueError(
                f"bucket {address} is not retired; only tombstones "
                "can be decommissioned")
        if bucket.records:
            raise ValueError(
                f"tombstone {address} still holds records")
        node_id = bucket.node_id
        self.network.detach(node_id)
        self.crashed.discard(node_id)
        self._frozen.pop(node_id, None)
        del shell.local_buckets[address]
        return {"empty": not self.network.nodes}

    def _ctrl_fault_set(self, payload: dict) -> dict:
        """Install (or retune) this site's seeded fault model.  The
        seed is salted per site so streams differ across processes but
        stay deterministic per (cluster seed, site); retuning rates on
        a live model preserves its stream, matching the nemesis
        contract on the simulator."""
        seed = payload["seed"]
        if self.faults is None or self._fault_seed != seed:
            salt = self.index + 1 if self.role == "bucket" else 0
            self.faults = FaultModel(seed=seed * 1009 + salt)
            self._fault_seed = seed
        self.faults.loss_rate = payload["loss_rate"]
        self.faults.duplication_rate = payload["duplication_rate"]
        self.faults.corruption_rate = payload["corruption_rate"]
        return {}

    def _ctrl_config(self, payload: dict) -> dict:
        """Adopt a grown cluster map and flush frames parked for the
        newly provisioned sites, in FIFO order per site."""
        self.config.buckets = list(payload["buckets"])
        for index in sorted(self._parked):
            if index >= len(self.config.buckets):
                continue
            for frame in self._parked.pop(index):
                self._peer_queue(("bucket", index)).put_nowait(frame)
        return {}

    def _ctrl_restore(self, node_id: Hashable) -> dict:
        known = node_id in self.network.nodes
        was_crashed = node_id in self.crashed
        self.crashed.discard(node_id)
        for timer in self._frozen.pop(node_id, []):
            if timer.cancelled:
                continue
            # Re-arm due immediately: a timeout that "expired" during
            # the outage fires right after the reboot.
            self._armed.add(timer)
            self._loop.call_later(0, self._fire, timer)
        return {"known": known, "was_crashed": was_crashed}

    def _ctrl_dump(self, name: str) -> dict:
        shell = self.files.get(name)
        buckets = {}
        if shell is not None:
            for address, bucket in shell.local_buckets.items():
                buckets[address] = {
                    "level": bucket.level,
                    "retired": bucket.retired,
                    "merge_target": bucket.merge_target,
                    "pending": bucket.pending,
                    "records": sorted(bucket.records.values(),
                                      key=lambda r: r.rid),
                }
        return {"buckets": buckets}

    def _ctrl_dump_parity(self, name: str) -> dict:
        """Snapshot locally hosted parity buckets: per (group, index),
        the slot table (rank -> payload, rids, lengths) — the raw
        material for a client-side parity-consistency oracle."""
        from repro.sdds.lhstar_rs import ParityBucket

        shell = self.files.get(name)
        slots: dict = {}
        if shell is not None:
            for node in self.network.nodes.values():
                if (isinstance(node, ParityBucket)
                        and node.file is shell):
                    slots[(node.group, node.index)] = {
                        rank: {"payload": slot.payload,
                               "rids": list(slot.rids),
                               "lengths": list(slot.lengths)}
                        for rank, slot in node.slots.items()
                    }
        return {"slots": slots}

    def _ctrl_state(self, name: str) -> dict:
        node = self.network.nodes.get(("coordinator", name))
        if node is None:
            raise ValueError(f"no coordinator for file {name!r}")
        return {"i": node.i, "n": node.n,
                "dead": {addr: list(info)
                         for addr, info in node.dead.items()}}

    # -- connection handling ---------------------------------------------

    async def _read_frames(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        decoder = wire.FrameDecoder()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                decoder.feed(data)
                for channel, value in decoder.frames():
                    if channel == wire.CHANNEL_DATA:
                        self.deliver(wire.message_from_wire(value))
                    else:
                        self.handle_ctrl(value, writer)
        except (ConnectionResetError, BrokenPipeError):
            return
        except wire.WireError:
            log.exception("undecodable frame; closing connection")
        finally:
            stale = [node for node, w in self.clients.items()
                     if w is writer]
            for node in stale:
                del self.clients[node]

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        await self._read_frames(reader, writer)
        writer.close()

    async def serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        obs_metrics.set_metrics(self.metrics)
        if self.role == "bucket":
            port = self.config.buckets[self.index]
        else:
            port = self.config.coordinator
        server = await asyncio.start_server(
            self._on_connection, self.config.host, port)
        log.info("%s site %s listening on %s:%s", self.role,
                 self.index if self.role == "bucket" else "",
                 self.config.host, port)
        print("READY", flush=True)
        async with server:
            await self._stopping.wait()
        for task in self._tasks:
            task.cancel()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="LH* live-transport site server")
    parser.add_argument("--role", required=True,
                        choices=("bucket", "coordinator"))
    parser.add_argument("--index", type=int, default=0,
                        help="bucket address this site hosts")
    parser.add_argument("--config", required=True,
                        help="path to the cluster JSON config")
    parser.add_argument("--log-level", default="INFO")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=args.log_level,
        stream=sys.stderr,
        format=(f"%(asctime)s {args.role}[{args.index}] "
                "%(levelname)s %(name)s: %(message)s"),
    )
    config = ClusterConfig.load(args.config)
    server = SiteServer(args.role, args.index, config)
    try:
        asyncio.run(server.serve())
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":  # pragma: no cover - process entry point
    main()
