"""The discrete-event message-passing core.

Protocol actors subclass :class:`Node` and exchange :class:`Message`
objects through a :class:`Network`.  What a message is billed and
whether it survives is decided by :class:`Transport`, the gate the
socket backends (:mod:`repro.net.live`, :mod:`repro.net.serve`) share
with this simulator.  Delivery is deterministic: events
are ordered by (arrival time, sequence number), and the latency model
is a pure function of message size.  Running the loop to quiescence
(:meth:`Network.run`) executes a whole protocol exchange; the simulated
clock then tells the protocol's critical-path latency and
:class:`~repro.net.stats.NetworkStats` its bandwidth cost.
"""

from __future__ import annotations

import heapq
import itertools
import random
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

from repro.errors import UnknownNodeError
from repro.net.stats import NetworkStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.faults import FaultModel


def _stable_bytes(value: Any) -> bytes:
    """A deterministic byte encoding of a message's checksummable view.

    Scalars and containers encode by value; opaque objects (records,
    scan matchers) contribute only their type name — the transport
    cannot see into them, and the checksum only needs to be a pure
    function of the message that both the sender and the receiver
    compute identically.  Deliberately free of ``repr`` of arbitrary
    objects (which can embed memory addresses) so the value is stable
    across processes.
    """
    if isinstance(value, bytes):
        return b"b" + value
    if isinstance(value, bool):
        return b"?1" if value else b"?0"
    if isinstance(value, int):
        return b"i%d" % value
    if isinstance(value, float):
        return b"f" + repr(value).encode("ascii")
    if isinstance(value, str):
        return b"s" + value.encode("utf-8", "backslashreplace")
    if value is None:
        return b"n"
    if isinstance(value, (list, tuple)):
        return b"l" + b"".join(_stable_bytes(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return b"S" + b"".join(
            sorted(_stable_bytes(item) for item in value)
        )
    if isinstance(value, dict):
        return b"d" + b"".join(
            _stable_bytes(key) + _stable_bytes(item)
            for key, item in value.items()
        )
    return b"o" + type(value).__name__.encode("ascii", "replace")


def wire_checksum(kind: str, payload: dict[str, Any], size: int) -> int:
    """The lightweight wire checksum of one message (CRC-32).

    Stamped by :meth:`Transport._outgoing` whenever payload corruption
    is possible and re-computed by :meth:`Transport._admit` at
    delivery: a mismatch means the payload was damaged in flight, and
    the receiver discards the message (the sender's timeout/retry path
    redelivers).  Never zero — zero is the
    "not stamped" sentinel on :class:`Message`.
    """
    return zlib.crc32(_stable_bytes((kind, size, payload))) or 1


@dataclass(frozen=True)
class LatencyModel:
    """Message latency = ``fixed + size / bandwidth``.

    Defaults model a mid-2000s switched LAN (the paper's setting):
    a 0.2 ms per-message fixed cost and 100 Mbit/s of bandwidth.
    """

    fixed: float = 0.0002
    bandwidth_bytes_per_s: float = 12_500_000.0

    def latency(self, size: int) -> float:
        return self.fixed + size / self.bandwidth_bytes_per_s


class JitterLatencyModel(LatencyModel):
    """A latency model with deterministic pseudo-random jitter.

    Messages on *different* links can overtake each other, so
    protocols are exercised under reproducible cross-link reordering —
    the robustness tests run the whole LH* workload on this model.
    Messages on the same (src, dst) link never reorder:
    :meth:`Network.send` enforces pairwise FIFO (TCP semantics),
    whatever latencies this model draws.
    """

    def __init__(
        self,
        seed: int = 0,
        fixed: float = 0.0002,
        bandwidth_bytes_per_s: float = 12_500_000.0,
        jitter: float = 0.01,
    ) -> None:
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(
            self, "bandwidth_bytes_per_s", bandwidth_bytes_per_s
        )
        object.__setattr__(self, "jitter", jitter)
        object.__setattr__(self, "_rng", random.Random(seed))

    def latency(self, size: int) -> float:
        base = super().latency(size)
        return base + self._rng.random() * self.jitter


@dataclass
class Message:
    """A protocol message.

    ``kind`` routes the message inside the receiving node; ``payload``
    is an arbitrary dict; ``size`` is the accounted wire size in bytes
    (payloads are Python objects, so senders declare the size their
    encoding would have — helpers in the SDDS layer compute it).
    ``hops`` counts forwarding steps, which LH* bounds by 2.
    """

    src: Hashable
    dst: Hashable
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)
    size: int = 64
    hops: int = 0
    send_time: float = 0.0
    arrival_time: float = 0.0
    #: Wire checksum stamped at send time (0 = not stamped).  A
    #: corrupted copy carries a checksum that no longer matches its
    #: payload, so delivery-time verification discards it.
    checksum: int = 0


class Timer:
    """A pending virtual-clock callback (see :meth:`Network.schedule`).

    Cancelled timers are discarded silently when the event loop
    reaches them: they neither advance the clock nor count as events,
    so a timer that is armed and cancelled leaves no trace in the
    simulation — protocols can arm timeout timers unconditionally at
    zero cost on the happy path.

    ``owner`` names the node the timer belongs to (``None`` for
    anonymous timers).  While the owner is crashed the timer is frozen
    instead of fired, and it is re-armed when the owner is restored —
    a dead host's pending timeouts do not run.
    """

    __slots__ = ("when", "callback", "cancelled", "fired", "owner")

    def __init__(
        self,
        when: float,
        callback: Callable[[], None],
        owner: Hashable | None = None,
    ) -> None:
        self.when = when
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self.owner = owner

    def cancel(self) -> None:
        self.cancelled = True


class Node:
    """Base class for protocol actors.

    Subclasses implement :meth:`handle`; they send further messages via
    ``network.send(...)``.  A node's identifier may be any hashable.
    """

    def __init__(self, node_id: Hashable) -> None:
        self.node_id = node_id
        self.network: "Transport | None" = None

    def handle(self, message: Message) -> None:
        raise NotImplementedError

    def send(
        self,
        dst: Hashable,
        kind: str,
        payload: dict[str, Any] | None = None,
        size: int = 64,
        hops: int = 0,
    ) -> None:
        if self.network is None:
            raise RuntimeError(f"node {self.node_id!r} is not attached "
                               "to a network")
        self.network.send(
            self.node_id, dst, kind, payload or {}, size=size, hops=hops
        )


class Transport:
    """The one delivery gate under every backend.

    Owns what decides a message's fate — the node table, the billed
    :class:`~repro.net.stats.NetworkStats`, the observer, the fault
    model, crash flags with their frozen timers, and the partition
    table — and the two halves of the gate: :meth:`_outgoing` (bill
    and roll send-side faults) and :meth:`_admit` (partition, dead
    destination and checksum checks at delivery).  :class:`Network`,
    :class:`repro.net.live.LiveNetwork` and
    :class:`repro.net.serve.SiteNetwork` are carriers: they only move
    what :meth:`_outgoing` hands them (event heap, client sockets, site
    routing) and feed arrivals to :meth:`_admit`, so billing and fault
    semantics are the same code on the simulator and on sockets.  The
    operator verbs (:meth:`coordinator_state`, :meth:`dump_buckets`,
    :meth:`dump_parity`, :meth:`site_leave`, :meth:`decommission`)
    are one implementation too, over the nodes this transport holds.
    """

    def __init__(self, faults: "FaultModel | None" = None) -> None:
        #: Optional fault injector (see :mod:`repro.net.faults`).
        #: ``None`` — and a model with zero rates — means perfectly
        #: reliable delivery, bit-identical to the historic behaviour.
        self.faults = faults
        #: Optional observability hook (duck-typed; see
        #: :class:`repro.obs.metrics.NetworkMetricsObserver`): called
        #: as ``on_send(kind, size)`` for every message charged to the
        #: wire, ``on_drop(kind, size)`` when a fault, a severed link
        #: or a dead destination eats one, and
        #: ``on_deliver(kind, size, latency)`` on delivery.  Every call
        #: is guarded by a ``None`` check, so an unobserved network
        #: pays nothing.
        self.observer: Any | None = None
        self.nodes: dict[Hashable, Node] = {}
        self.stats = NetworkStats()
        self.now = 0.0
        #: Node ids currently crashed (see :meth:`crash`).
        self._crashed: set[Hashable] = set()
        #: Timers frozen while their owner is down, re-armed on restore.
        self._frozen_timers: dict[Hashable, list[Timer]] = {}
        #: Severed directed links (see :meth:`partition`): a message is
        #: lost — billed as ``partitioned_drops`` — when its (src, dst)
        #: link is severed at the instant it would arrive.
        self._partitions: set[tuple[Hashable, Hashable]] = set()

    # -- topology -----------------------------------------------------------

    def attach(self, node: Node) -> Node:
        """Register ``node``; its ``node_id`` must be unused."""
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        node.network = self
        self.nodes[node.node_id] = node
        return node

    def detach(self, node_id: Hashable) -> None:
        if node_id not in self.nodes:
            raise UnknownNodeError(f"unknown node {node_id!r}")
        self.nodes.pop(node_id).network = None
        # A detached node is gone for good: forget its crash flag and
        # drop its frozen timers (their callbacks reference the dead
        # node's state).
        self._crashed.discard(node_id)
        self._frozen_timers.pop(node_id, None)
        # Partitions are per-link: a re-attach under the same id must
        # not inherit a stale severed link.
        if self._partitions:
            self._partitions = {
                link for link in self._partitions
                if node_id not in link
            }

    def __contains__(self, node_id: Hashable) -> bool:
        return node_id in self.nodes

    # -- crash flags and frozen timers ----------------------------------------

    def crash(self, node_id: Hashable) -> None:
        """Mark ``node_id`` as crashed.

        The node stays attached (its identity and address survive),
        but messages addressed to it are dropped at delivery time —
        billed as :attr:`~repro.net.stats.NetworkStats.crashed_drops`
        — and its pending timers are frozen until the carrier's ``restore``.
        Crashing an already-crashed node is a no-op.
        """
        if node_id not in self.nodes:
            raise UnknownNodeError(f"unknown node {node_id!r}")
        self._crashed.add(node_id)

    def is_crashed(self, node_id: Hashable) -> bool:
        return node_id in self._crashed

    def _freeze(self, timer: Timer) -> bool:
        """Park a due timer whose owner is down; :meth:`_thaw` hands
        it back.  Returns whether the timer was frozen."""
        if timer.owner is None or timer.owner not in self._crashed:
            return False
        self._frozen_timers.setdefault(timer.owner, []).append(timer)
        return True

    def _thaw(self, node_id: Hashable) -> list[Timer]:
        """Clear ``node_id``'s crash flag and return its frozen timers
        that are still armed, for the carrier to re-arm due now (a
        timeout that "expired" during the outage fires right after
        the reboot)."""
        self._crashed.discard(node_id)
        return [timer for timer in self._frozen_timers.pop(node_id, ())
                if not timer.cancelled]

    # -- partitions -----------------------------------------------------------

    @staticmethod
    def _as_group(group: Any) -> list[Hashable]:
        """Normalise a partition argument to a list of node ids.

        Node ids are themselves tuples (``("bucket", name, addr)``), so
        only genuine collections — lists, sets, frozensets, iterators —
        are treated as groups; a tuple, string, or any other value is a
        single node id.
        """
        if isinstance(group, list):
            return group
        if isinstance(group, (set, frozenset)):
            return sorted(group, key=repr)
        if isinstance(group, (tuple, str)) or not isinstance(
            group, Iterable
        ):
            return [group]
        return list(group)

    def _links(
        self, group_a: Any, group_b: Any, symmetric: bool
    ) -> list[tuple[Hashable, Hashable]]:
        links = []
        for a in self._as_group(group_a):
            for b in self._as_group(group_b):
                if a == b:
                    continue
                links.append((a, b))
                if symmetric:
                    links.append((b, a))
        return links

    def partition(
        self,
        group_a: Any,
        group_b: Any,
        symmetric: bool = True,
    ) -> list[tuple[Hashable, Hashable]]:
        """Sever the links between ``group_a`` and ``group_b``.

        Each argument is a single node id or a collection of node ids
        (node ids being tuples, pass lists/sets for groups).  Messages
        crossing a severed link are lost at the instant they would
        arrive — the datagram is already on the wire when the cable is
        cut — and billed to
        :attr:`~repro.net.stats.NetworkStats.partitioned_drops`.
        With ``symmetric=False`` only the a→b direction is severed
        (asymmetric partitions: b can still reach a).  Partitioning is
        idempotent and does not require the ids to be attached.
        Returns the severed directed links.
        """
        links = self._links(group_a, group_b, symmetric)
        self._partitions.update(links)
        return links

    def heal(
        self,
        group_a: Any | None = None,
        group_b: Any | None = None,
        symmetric: bool = True,
    ) -> list[tuple[Hashable, Hashable]] | None:
        """Restore severed links.

        With no arguments every partition heals (and ``None`` is
        returned).  With both groups the exact links :meth:`partition`
        severed are restored (again direction-aware under
        ``symmetric=False``) and returned.  Healing a link that was
        never severed is a no-op.
        """
        if group_a is None and group_b is None:
            self._partitions.clear()
            return None
        if group_a is None or group_b is None:
            raise ValueError("heal takes no groups or both groups")
        links = self._links(group_a, group_b, symmetric)
        self._partitions.difference_update(links)
        return links

    def is_partitioned(self, src: Hashable, dst: Hashable) -> bool:
        """Whether the directed link ``src``→``dst`` is severed."""
        return (src, dst) in self._partitions

    # -- the gate -------------------------------------------------------------

    def _outgoing(
        self,
        src: Hashable,
        dst: Hashable,
        kind: str,
        payload: dict[str, Any],
        size: int,
        hops: int,
    ) -> tuple[Message, Iterable[Message]]:
        """Send-side gate: bill one message and roll its faults.

        Returns ``(first, copies)``: the copies the carrier must ship
        — none when the fault model dropped the message (charged to
        the sender, never delivered), two when it duplicated it (the
        copy hits the wire and is billed too) — and the message
        ``send`` returns: the first copy, or an undeliverable husk
        (``arrival_time = inf``) when dropped.
        """
        stats = self.stats
        stats.record(kind, size)
        observer = self.observer
        if observer is not None:
            observer.on_send(kind, size)
        faults = self.faults
        if faults is None or not faults.applies(kind):
            message = Message(src, dst, kind, payload, size, hops,
                              self.now)
            return message, (message,)
        if faults.drops():
            stats.dropped += 1
            if observer is not None:
                observer.on_drop(kind, size)
            return Message(src, dst, kind, payload, size, hops,
                           self.now, float("inf")), ()
        copies = [Message(src, dst, kind, payload, size, hops, self.now)]
        if faults.duplicates():
            stats.record(kind, size)
            stats.duplicated += 1
            if observer is not None:
                observer.on_send(kind, size)
            copies.append(
                Message(src, dst, kind, payload, size, hops, self.now))
        if faults.corruption_rate > 0:
            # Stamp the wire checksum only when corruption is
            # possible: a zero corruption rate stays byte-identical
            # to the historic behaviour (no draws, no hashing).
            stamp = wire_checksum(kind, payload, size)
            for message in copies:
                message.checksum = stamp
                if faults.corrupts():
                    # A payload bit flipped in flight: model it by
                    # damaging the stamp instead of the (Python-object)
                    # payload, so delivery-time verification fails
                    # exactly as it would for a real flipped byte.  A
                    # flip that collides with the stamp must not revert
                    # to the "not stamped" sentinel.
                    message.checksum = (
                        stamp ^ (1 << faults.corrupt_bit())
                    ) or 0xFFFFFFFF
        return copies[0], copies

    def _admit(self, message: Message) -> Node | None:
        """Delivery-side gate: the node that must handle ``message``,
        or ``None`` after billing why it died on arrival."""
        dst = message.dst
        if (message.src, dst) in self._partitions:
            # The link was severed at the instant the message would
            # have arrived: the datagram dies on the cut cable.
            self.stats.partitioned_drops += 1
        elif dst in self._crashed:
            self.stats.crashed_drops += 1
        elif dst not in self.nodes:
            return self._unknown_destination(message)
        elif message.checksum and message.checksum != wire_checksum(
            message.kind, message.payload, message.size
        ):
            # The stamp no longer matches the payload: corruption in
            # flight.  The receiver discards the message and the
            # sender's timeout/retry path pays for the redelivery —
            # corruption degrades cost, never correctness.
            self.stats.corrupted += 1
        else:
            if self.observer is not None:
                self.observer.on_deliver(
                    message.kind, message.size,
                    self.now - message.send_time,
                )
            return self.nodes[dst]
        if self.observer is not None:
            self.observer.on_drop(message.kind, message.size)
        return None

    def _unknown_destination(self, message: Message) -> None:
        """``message`` arrived for a node this transport does not
        hold (detached meanwhile): it crossed the wire and dies at
        the dead host's door, like one for a crashed node.  Billed so
        no recovery byte goes missing from the accounting."""
        self.stats.crashed_drops += 1
        if self.observer is not None:
            self.observer.on_drop(message.kind, message.size)

    # -- operator verbs -------------------------------------------------------
    #
    # Unbilled reads and actions on the LH* file named ``name``, over
    # the nodes this transport holds, found by node id.  The simulator
    # answers them in-process and a site process answers its control
    # verbs with them; ``LiveNetwork`` overrides them to ask the sites.

    def _file_nodes(self, family: str, name: str) -> Iterable[Any]:
        for node_id, node in self.nodes.items():
            if (isinstance(node_id, tuple) and len(node_id) > 2
                    and node_id[0] == family and node_id[1] == name):
                yield node

    def _coordinator(self, name: str) -> Any:
        node = self.nodes.get(("coordinator", name))
        if node is None:
            raise ValueError(f"no coordinator for file {name!r}")
        return node

    def coordinator_state(self, name: str) -> dict[str, Any]:
        """The authoritative ``{"i", "n", "dead"}`` of file ``name``
        (``dead`` maps a bucket address to its coordinator entry)."""
        node = self._coordinator(name)
        return {"i": node.i, "n": node.n,
                "dead": {address: list(info)
                         for address, info in node.dead.items()}}

    def dump_buckets(self, name: str) -> dict[int, dict]:
        """Every data bucket of file ``name`` by address: ``level``,
        ``retired``, ``merge_target``, ``pending`` and its records
        sorted by rid."""
        return {
            bucket.address: {
                "level": bucket.level,
                "retired": bucket.retired,
                "merge_target": bucket.merge_target,
                "pending": bucket.pending,
                "records": sorted(bucket.records.values(),
                                  key=lambda r: r.rid),
            }
            for bucket in sorted(self._file_nodes("bucket", name),
                                 key=lambda b: b.address)
        }

    def dump_parity(self, name: str) -> dict[tuple, dict]:
        """Every parity bucket of file ``name`` by ``(group, index)``:
        its slot table, rank -> ``payload`` / ``rids`` / ``lengths``."""
        return {
            (node.group, node.index): {
                rank: {"payload": slot.payload,
                       "rids": list(slot.rids),
                       "lengths": list(slot.lengths)}
                for rank, slot in node.slots.items()
            }
            for node in self._file_nodes("parity", name)
        }

    def site_leave(self, name: str, address: int) -> bool:
        """Start the graceful departure of bucket ``address``: the
        coordinator's ``begin_leave``; the drain itself is billed
        protocol traffic.  Returns whether the departure started."""
        return bool(self._coordinator(name).begin_leave(address))

    def decommission(self, name: str, address: int) -> None:
        """Reap the retired, record-free tombstone ``address``: detach
        its node and drop it from its file's buckets.  Refused
        (``ValueError``) for a live bucket or one still holding
        records — reaping either would lose data."""
        bucket = self.nodes.get(("bucket", name, address))
        if bucket is None:
            raise ValueError(f"no bucket {address} to decommission")
        if not bucket.retired:
            raise ValueError(
                f"bucket {address} is not retired; only tombstones "
                "can be decommissioned")
        if bucket.records:
            raise ValueError(f"tombstone {address} still holds records")
        self.detach(bucket.node_id)
        del bucket.file.buckets[address]


class Network(Transport):
    """The event loop: attach nodes, send messages, run to quiescence."""

    def __init__(
        self,
        latency: LatencyModel | None = None,
        faults: "FaultModel | None" = None,
    ) -> None:
        super().__init__(faults)
        self.latency = latency or LatencyModel()
        #: Lazily-advanced fault schedules, duck-typed as
        #: ``advance(network, until)``: before each queued event,
        #: :meth:`run` calls ``advance(self, arrival)`` on every
        #: schedule in list order, which applies the schedule's
        #: events due by that time.  Crash and restore events thus
        #: interleave with the workload instead of being drained up
        #: front by the first run-to-quiescence.  A
        #: :class:`repro.net.faults.CrashFaultModel` or a
        #: :class:`repro.chaos.nemesis.Nemesis` plugs in here.
        self.schedules: list[Any] = []
        self._queue: list[tuple[float, int, Message]] = []
        self._sequence = itertools.count()
        self.delivered: int = 0
        # Pairwise FIFO (TCP semantics): two messages on the same
        # (src, dst) link are never reordered, whatever the latency
        # model says.  Cross-link reordering remains free.
        self._link_clock: dict[tuple[Hashable, Hashable], float] = {}

    def detach(self, node_id: Hashable) -> None:
        super().detach(node_id)
        # Purge per-link FIFO state: a detached node's links are gone,
        # and a later re-attach under the same id must start fresh
        # rather than inherit a stale FIFO floor.
        for link in [
            link for link in self._link_clock if node_id in link
        ]:
            del self._link_clock[link]

    # -- crash faults ---------------------------------------------------------

    def restore(self, node_id: Hashable) -> bool:
        """Bring a crashed node back up.

        Frozen timers owned by the node are re-armed, due no earlier
        than now (a timeout that "expired" during the outage fires
        immediately after the reboot).  Returns ``False`` when the
        node was not crashed or no longer exists.
        """
        if node_id not in self._crashed:
            return False
        frozen = self._thaw(node_id)
        if node_id not in self.nodes:
            return False
        for timer in frozen:
            timer.when = max(timer.when, self.now)
            heapq.heappush(
                self._queue, (timer.when, next(self._sequence), timer)
            )
        return True

    # -- messaging ------------------------------------------------------------

    def send(
        self,
        src: Hashable,
        dst: Hashable,
        kind: str,
        payload: dict[str, Any] | None = None,
        size: int = 64,
        hops: int = 0,
    ) -> Message:
        """Enqueue a message; it is delivered when :meth:`run` reaches it.

        With a fault model attached, eligible messages may be dropped
        (charged to the sender, never delivered) or duplicated (the
        copy also hits the wire and arrives after the original).  The
        returned message is the first delivered copy, or an
        undeliverable husk (``arrival_time = inf``) when dropped.
        """
        if dst not in self.nodes:
            raise UnknownNodeError(f"unknown destination node {dst!r}")
        first, copies = self._outgoing(
            src, dst, kind, payload or {}, size, hops)
        link = (src, dst)
        for message in copies:
            arrival = self.now + self.latency.latency(size)
            floor = self._link_clock.get(link)
            if floor is not None and arrival <= floor:
                arrival = floor + 1e-12
            self._link_clock[link] = message.arrival_time = arrival
            heapq.heappush(
                self._queue, (arrival, next(self._sequence), message)
            )
        return first

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        owner: Hashable | None = None,
    ) -> Timer:
        """Arm a virtual-clock timer ``delay`` seconds from now.

        The callback runs inside :meth:`run`, interleaved in time
        order with message deliveries — this is how nodes act without
        an inbound message (client retransmission timeouts).  Returns
        the :class:`Timer`; call :meth:`Timer.cancel` to disarm it.
        ``owner`` ties the timer to a node: timers of a crashed owner
        are frozen instead of fired (see :meth:`crash`).
        """
        if delay < 0:
            raise ValueError("timer delay must be non-negative")
        timer = Timer(self.now + delay, callback, owner=owner)
        heapq.heappush(
            self._queue, (timer.when, next(self._sequence), timer)
        )
        return timer

    def run(self, max_events: int = 10_000_000) -> int:
        """Deliver queued messages (and any they trigger) in time order.

        Returns the number of messages delivered.  ``max_events`` is a
        runaway-protocol guard.
        """
        delivered = 0
        processed = 0
        while self._queue:
            if processed >= max_events:
                raise RuntimeError(
                    f"network did not quiesce within {max_events} events"
                )
            arrival, __, item = heapq.heappop(self._queue)
            for schedule in self.schedules:
                # Apply fault events scheduled before this item's
                # time: schedules advance with the traffic, never
                # ahead of it.
                schedule.advance(self, arrival)
            if isinstance(item, Timer):
                if item.cancelled:
                    # Disarmed before firing: discard silently, without
                    # advancing the clock — the happy path stays
                    # bit-identical to a timerless run.
                    continue
                if self._freeze(item):
                    # The owner is down; restore() re-arms the timer.
                    # No clock advance, no event charged.
                    continue
                self.now = max(self.now, arrival)
                item.fired = True
                item.callback()
                processed += 1
                continue
            self.now = max(self.now, arrival)
            node = self._admit(item)
            if node is not None:
                node.handle(item)
                delivered += 1
            processed += 1
        self.delivered += delivered
        return delivered

    def reset_clock(self) -> None:
        """Rewind the clock (between benchmark operations)."""
        live = [
            entry for entry in self._queue
            if not (isinstance(entry[2], Timer) and entry[2].cancelled)
        ]
        if live:
            raise RuntimeError("cannot reset the clock with messages "
                               "in flight")
        self._queue.clear()
        self.now = 0.0
