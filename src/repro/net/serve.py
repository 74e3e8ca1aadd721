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

* a :class:`SiteNetwork` — a carrier over the simulator's
  :class:`~repro.net.simulator.Transport` gate, so billing, send-side
  faults, crash flags, partitions and checksum verification are the
  simulator's own code; the carrier only routes what the gate hands
  it to the hosting peer, and ``schedule`` arms real-time asyncio
  timers.
* one :class:`~repro.sdds.lhstar.FileView` per file name, rebuilt from
  the ``params()`` dict every ``create_*`` control verb carries — the
  same identifiers, hooks and parity bookkeeping the simulator's
  ``LHStarFile`` / ``LHStarRSFile`` run; only *creating a node* differs
  by role (a local swap on a bucket site, a control verb from the
  coordinator site).
* a control plane (unbilled, ``CHANNEL_CTRL``): node creation, crash
  and restore flags, fault-rule installation (loss / duplication /
  corruption / latency / partitions — see ``fault_set``, ``partition``,
  ``heal``, ``delay``), census, the operator verbs, shutdown.
  Control traffic deliberately mirrors the simulator's unbilled
  *method calls* (``Network.crash`` etc.); the operator verbs
  (``state``, ``dump``, ``dump_parity``, ``leave``, ``decommission``)
  *are* those calls — the :class:`Transport` method of the same name
  on this site's network.
* conservation counters (data messages sent / delivered / buffered)
  the client's census sums to detect global quiescence — the live
  equivalent of the simulator's run-to-quiescence event loop.

Crashing a bucket process (``LiveNetwork.crash``) sets the gate's
crash flag at its hosting site: inbound data for the node is dropped
and billed as ``crashed_drops``, owned timers freeze, and ``restore``
re-arms them, with records preserved across the outage.

v2 additions: a per-site seeded :class:`~repro.net.faults.FaultModel`
on the site's gate, LH*_RS parity hosting (the ``create_parity``
control verb; a recovery spare is a pending ``create_bucket``; parity
deltas and the whole recovery gather run over TCP, billed), and
elastic growth: a frame for a bucket address beyond the provisioned
site count is *parked* and reported in the census so the cluster can
spawn the missing site and re-deliver (``config``).

v3 additions: elasticity in both directions.  Shrinking files are
hosted (their buckets report ``load``/``underflow`` deltas so the
remote coordinator's global record count stays exact), merges retire
live tombstones whose ``merge_records`` shipments ride the billed data
plane, a ``leave`` control verb triggers the coordinator's
graceful-departure drain, and a ``decommission`` control verb reaps
an empty tombstone after its image catch-up window (reporting when
the site has no hosted nodes left, so the whole process can be
retired).

See ``docs/SERVING.md`` for the topology and wire format.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import sys
from typing import Any, Callable, Hashable, Mapping

from repro.net import wire
from repro.net.faults import FaultModel
from repro.net.simulator import Message, Timer, Transport
from repro.obs import metrics as obs_metrics
from repro.sdds.bucket import LHStarBucket
from repro.sdds.coordinator import LHStarCoordinator
from repro.sdds.file import FileView
from repro.sdds.lhstar_rs import ParityBookkeeping, ParityBucket

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
            files: Mapping[str, Any] | None = None) -> tuple | None:
    """The hosting-process key of a protocol node id, or ``None``
    for client nodes (which live in the connecting process).

    Parity ids ``("parity", name, group, index)`` are placed on the
    bucket site ``member_address(group, index)`` of file ``name``'s
    LH*_RS view in ``files`` — deterministic, stable under file
    growth, and distinct per parity bucket as long as ``parity_count
    <= group_size`` (enforced at attach time).  Without such a view
    the placement is unknown and ``None`` is returned.
    """
    if not isinstance(node_id, tuple) or not node_id:
        return None
    if node_id[0] == "bucket":
        return ("bucket", node_id[2])
    if node_id[0] == "coordinator":
        return ("coordinator",)
    if node_id[0] == "parity" and len(node_id) == 4 and files:
        file = files.get(node_id[1])
        if file is not None and file.rs is not None:
            return ("bucket", file.member_address(node_id[2], node_id[3]))
    return None


# ---------------------------------------------------------------------------
# site views: the file as the hosted actors of one process see it
# ---------------------------------------------------------------------------


class SiteFile(FileView):
    """A file as one site process sees it, on that site's network."""

    def __init__(self, server: "SiteServer", **params: Any) -> None:
        super().__init__(network=server.network, **params)
        self.server = server


class BucketSiteFile(SiteFile):
    """A file on a bucket site: hosts the one data bucket whose
    address is the site index, put there by the coordinator site's
    ``create_bucket`` verb or by the bucket's own ``leave`` drain."""

    def create_bucket(self, address: int, level: int,
                      pending: bool = False) -> LHStarBucket:
        if address != self.server.index:
            raise ValueError(
                f"bucket {address} does not live on site "
                f"{self.server.index}")
        bucket = super().create_bucket(address, level, pending=pending)
        self.server.flush_buffered(bucket.node_id)
        return bucket


class CoordinatorSiteFile(SiteFile):
    """A file on the coordinator site: buckets live elsewhere, so
    creating one is an (unbilled) control verb to its hosting site and
    ``buckets`` is just the set of addresses created so far."""

    def __init__(self, server: "SiteServer", **params: Any) -> None:
        super().__init__(server, **params)
        # Bucket 0 exists from file construction.
        self.buckets: set[int] = {0}

    def _create(self, verb: str, site: int, **fields: Any) -> None:
        self.server.send_ctrl(
            ("bucket", site), {"ctrl": verb, **fields, **self.params()})

    def create_bucket(self, address: int, level: int,
                      pending: bool = False) -> None:
        """The data-plane ``split_records`` shipment may still
        overtake this verb — the bucket site buffers data for a
        locally owned, not yet created node until creation lands."""
        self._create("create_bucket", address, address=address,
                     level=level, pending=pending)
        self.buckets.add(address)


class ParityBucketSiteFile(ParityBookkeeping, BucketSiteFile):
    """An LH*_RS file on a bucket site: the hosted data bucket's rank
    tables live here, and the site may also host parity buckets."""


class ParityCoordinatorSiteFile(ParityBookkeeping, CoordinatorSiteFile):
    """An LH*_RS file on the coordinator site: the split that opens a
    group also creates the group's parity buckets."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: Groups whose parity buckets exist.  Group 0's parity is
        #: created by the connecting client at attach time.
        self._parity_groups: set[int] = {0}

    def create_bucket(self, address: int, level: int,
                      pending: bool = False) -> None:
        super().create_bucket(address, level, pending=pending)
        group = self.group_of(address)
        if group in self._parity_groups:
            return
        self._parity_groups.add(group)
        for index in range(self.parity_count):
            self._create("create_parity",
                         self.member_address(group, index),
                         group=group, index=index)


#: The view class per (site role, file has parity).
_SITE_FILES = {
    ("bucket", False): BucketSiteFile,
    ("bucket", True): ParityBucketSiteFile,
    ("coordinator", False): CoordinatorSiteFile,
    ("coordinator", True): ParityCoordinatorSiteFile,
}


# ---------------------------------------------------------------------------
# the per-process network
# ---------------------------------------------------------------------------


class SiteNetwork(Transport):
    """The network hosted nodes see inside one process: the shared
    :class:`~repro.net.simulator.Transport` gate, carried by the
    server's socket routing and wall-clock timers."""

    def __init__(self, server: "SiteServer") -> None:
        super().__init__()
        self.server = server

    def send(self, src, dst, kind, payload=None, size=64,
             hops=0) -> Message:
        """Bill and roll faults at the gate, then route each copy.  A
        dropped message is billed but never routed, so the census
        stays conserved (``sent`` only counts shipped copies, each of
        which eventually arrives somewhere)."""
        first, copies = self._outgoing(
            src, dst, kind, payload or {}, size, hops)
        server = self.server
        for message in copies:
            server.sent += 1
            server.route(message)
        return first

    def schedule(self, delay: float, callback: Callable[[], None],
                 owner: Hashable | None = None) -> Timer:
        return self.server.schedule(delay, callback, owner)

    def _unknown_destination(self, message: Message) -> None:
        """Data for a node this site owns but has not created yet (a
        shipment overtaking its control-plane ``create_*``) waits in
        the server's buffer; anything else was misrouted and dies."""
        server = self.server
        if server._locally_owned(message.dst):
            server.buffered.setdefault(message.dst, []).append(message)
            return
        log.error("message %r for %r reached the wrong site",
                  message.kind, message.dst)
        super()._unknown_destination(message)


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
        self.files: dict[str, SiteFile] = {}
        #: Data messages buffered for a locally owned node that has
        #: not been created yet (a split shipment overtaking its
        #: control-plane ``create_bucket``).
        self.buffered: dict[Hashable, list[Message]] = {}
        #: Conservation counters for the client's quiescence census:
        #: data messages routed from here, and data messages that
        #: arrived here (buffered ones included — the census reports
        #: those separately until their node exists).
        self.sent = 0
        self.delivered = 0
        #: Handler exceptions :meth:`deliver` swallowed, and the first
        #: one as ``(node id, message kind, exception)`` reprs — the
        #: census reports both so the client fails fast instead of
        #: waiting out its retry timers on a reply that cannot come.
        self.handler_failures = 0
        self.first_failure: tuple[str, str, str] | None = None
        #: Extra seconds every locally sent data message is held
        #: before routing (the live form of a latency spike).
        self.delay_extra = 0.0
        #: Frames destined for bucket sites beyond the current config
        #: — parked until a ``config`` update provisions the site.
        self._parked: dict[int, list[bytes]] = {}
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
        if self.network._freeze(timer):
            return  # the owner is down; restore re-arms due now
        timer.fired = True
        try:
            timer.callback()
        except Exception:
            log.exception("timer callback failed")

    def armed_timers(self) -> int:
        return sum(1 for timer in self._armed if not timer.cancelled)

    # -- routing ---------------------------------------------------------

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
        peer = peer_of(dst, self.files)
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
        peer = peer_of(node_id, self.files)
        if self.role == "coordinator":
            return peer == ("coordinator",)
        # Placement is deterministic and the sender knew the layout; a
        # parity frame arriving before this site learned it is ours —
        # buffer until ``create_parity`` lands.
        return peer == ("bucket", self.index) or (
            peer is None and node_id[0] == "parity" and len(node_id) == 4)

    # -- delivery --------------------------------------------------------

    def deliver(self, message: Message) -> None:
        """One data message arrived at this site."""
        self.delivered += 1
        self._dispatch(message)

    def _dispatch(self, message: Message) -> None:
        node = self.network._admit(message)
        if node is None:
            return
        try:
            node.handle(message)
        except Exception as exc:
            log.exception("node %r failed handling %r", message.dst,
                          message.kind)
            self.handler_failures += 1
            if self.first_failure is None:
                self.first_failure = (repr(message.dst), message.kind,
                                      repr(exc))

    def flush_buffered(self, node_id: Hashable) -> None:
        """``node_id`` now exists: hand it what arrived early, in
        arrival order."""
        for message in self.buffered.pop(node_id, []):
            self._dispatch(message)

    # -- control plane ---------------------------------------------------

    def _shell_file(self, payload: dict) -> SiteFile:
        """This site's view of the file a ``create_*`` verb names,
        built from the verb's ``params()`` on first sight."""
        shell = self.files.get(payload["name"])
        if shell is None:
            params = {key: payload[key] for key in FileView.PARAMETERS}
            rs = params.pop("rs")
            cls = _SITE_FILES[self.role, bool(rs)]
            shell = self.files[params["name"]] = cls(
                self, **params, **(rs or {}))
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
        network = self.network
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
        # The operator verbs are the Transport's own methods, the
        # simulator's code: this site answers for the nodes it hosts.
        if ctrl == "state":
            return network.coordinator_state(payload["name"])
        if ctrl == "dump":
            name = payload["name"]
            buckets = network.dump_buckets(name)
            return {"buckets": buckets, "crashed": [
                address for address in buckets
                if network.is_crashed(("bucket", name, address))]}
        if ctrl == "dump_parity":
            return {"slots": network.dump_parity(payload["name"])}
        if ctrl == "leave":
            return {"started": network.site_leave(payload["name"],
                                                  payload["address"])}
        if ctrl == "decommission":
            # Reports whether the site hosts any node still, so the
            # caller can retire the whole process.
            network.decommission(payload["name"], payload["address"])
            return {"empty": not network.nodes}
        if ctrl == "crash":
            known = payload["node"] in network
            if known:
                network.crash(payload["node"])
            return {"known": known}
        if ctrl == "restore":
            return self._ctrl_restore(payload["node"])
        if ctrl == "fault_set":
            return self._ctrl_fault_set(payload)
        if ctrl == "partition":
            for src, dst in payload["links"]:
                network.partition(src, dst, symmetric=False)
            return {}
        if ctrl == "heal":
            if payload.get("all"):
                network.heal()
            for src, dst in payload.get("links", ()):
                network.heal(src, dst, symmetric=False)
            return {}
        if ctrl == "delay":
            self.delay_extra = float(payload["extra"])
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
                "stats": network.stats.snapshot(),
                "metrics": self.metrics.to_dict(),
                "missing": sorted(self._parked),
                "handler_failures": self.handler_failures,
                "first_failure": self.first_failure,
            }
        if ctrl == "shutdown":
            assert self._stopping is not None
            self._loop.call_soon(self._stopping.set)
            return {}
        raise ValueError(f"unknown control message {ctrl!r}")

    def _ctrl_create_bucket(self, payload: dict) -> dict:
        if self.role != "bucket":
            raise ValueError("create_bucket sent to the coordinator")
        self._shell_file(payload).create_bucket(
            payload["address"], payload["level"], payload["pending"])
        return {}

    def _ctrl_create_coordinator(self, payload: dict) -> dict:
        if self.role != "coordinator":
            raise ValueError(
                "create_coordinator sent to a bucket site")
        shell = self._shell_file(payload)
        if shell.coordinator_id in self.network:
            raise ValueError(
                f"coordinator for file {payload['name']!r} exists")
        self.network.attach(LHStarCoordinator(shell))
        self.flush_buffered(shell.coordinator_id)
        return {}

    def _ctrl_create_parity(self, payload: dict) -> dict:
        if self.role != "bucket":
            raise ValueError("create_parity sent to the coordinator")
        shell = self._shell_file(payload)
        if shell.rs is None:
            raise ValueError("create_parity for a plain LH* file")
        group, index = payload["group"], payload["index"]
        if shell.member_address(group, index) != self.index:
            raise ValueError(
                f"parity ({group}, {index}) does not live on site "
                f"{self.index}")
        node_id = shell.parity_id(group, index)
        if node_id not in self.network:
            self.network.attach(ParityBucket(shell, group, index))
            self.flush_buffered(node_id)
        return {}

    def _ctrl_fault_set(self, payload: dict) -> dict:
        """Install (or retune) this site's seeded fault model.  The
        seed is salted per site so streams differ across processes but
        stay deterministic per (cluster seed, site); retuning rates on
        a live model preserves its stream, matching the nemesis
        contract on the simulator."""
        salt = self.index + 1 if self.role == "bucket" else 0
        seed = payload["seed"] * 1009 + salt
        faults = self.network.faults
        if faults is None or faults.seed != seed:
            faults = self.network.faults = FaultModel(seed=seed)
        faults.loss_rate = payload["loss_rate"]
        faults.duplication_rate = payload["duplication_rate"]
        faults.corruption_rate = payload["corruption_rate"]
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
        known = node_id in self.network
        was_crashed = self.network.is_crashed(node_id)
        for timer in self.network._thaw(node_id):
            self._armed.add(timer)
            self._loop.call_later(0, self._fire, timer)
        return {"known": known, "was_crashed": was_crashed}

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
