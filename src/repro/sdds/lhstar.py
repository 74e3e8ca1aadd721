"""LH*: distributed linear hashing over the simulated network.

Roles (each a :class:`~repro.net.simulator.Node`):

* **Bucket servers** hold the records of one linear-hash bucket and
  know only their own address and level.  They verify addresses,
  forward misdirected keys (at most twice), answer scans and perform
  splits when told to.
* **The split coordinator** holds the authoritative file state
  ``(i, n)`` and turns overflow notifications into splits of bucket
  ``n`` — the classic linear-hashing discipline.
* **Clients** hold a private, possibly stale image ``(i', n')`` and
  never talk to the coordinator on the data path; they converge via
  Image Adjustment Messages piggybacked on forwarded operations.

:class:`LHStarFile` wires the three roles together and offers a
synchronous facade (``insert/lookup/delete/scan``) that the encrypted
search layer and the benchmarks drive.  Every call runs the network to
quiescence, so cost counters around a call measure exactly that
operation.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Hashable, Protocol

from repro.errors import BucketUnavailableError, SDDSError
from repro.net.faults import RetryExhaustedError, RetryPolicy
from repro.net.simulator import Message, Network, Node, Timer, Transport
from repro.obs.metrics import inc as metric_inc
from repro.obs.metrics import observe as metric_observe
from repro.obs.metrics import set_gauge as metric_set_gauge
from repro.obs.trace import emit as obs_emit
from repro.sdds.hashing import (
    bucket_level,
    client_address,
    forward_address,
    image_adjust,
    scan_initial_level,
)
from repro.sdds.haystack import BucketHaystack
from repro.sdds.records import RECORD_OVERHEAD, Record

#: Accounted wire size of a request/control header.
HEADER_SIZE = 32

#: Default client retry policy: generous timeouts relative to the
#: simulated LAN, so on a reliable network every timer is cancelled
#: before firing and behaviour is identical to the retry-free past.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Thrash guard of a shrinking file: a merge threshold at or above
#: this load factor would merge buckets that the next insert burst
#: splits again.
MERGE_THRASH_BOUND = 0.8

#: Entries a node's :class:`ReplyCache` keeps; old entries only
#: matter while their operation can still be retransmitted, which the
#: retry budget bounds tightly.
DEDUP_CACHE_LIMIT = 4096

#: How many times one operation may exhaust a full retry budget and
#: escalate a ``suspect`` to the coordinator before it gives up for
#: good.  Bounds the total work of an operation against a bucket that
#: answers probes (so is never declared dead) but whose client-path
#: datagrams are all lost.
MAX_ESCALATIONS = 3


class ScanMatcher(Protocol):
    """What a scan ships to every bucket: one call answers for the
    bucket's whole share, live or rebuilt from parity, with the hits
    in the haystack's record order."""

    def match_bucket(self, haystack: BucketHaystack) -> list[Any]: ...


class RidScanMatcher:
    """Wire-encodable matcher returning every record's rid — the
    full-coverage scan of the chaos runner's scan oracle."""

    __slots__ = ()

    def match_bucket(self, haystack: BucketHaystack) -> list[int]:
        return list(haystack.rids)

    def __eq__(self, other: Any) -> bool:
        return type(other) is RidScanMatcher

    def __hash__(self) -> int:
        return hash(RidScanMatcher)


class ReplyCache:
    """A node's idempotence table: request id -> (message kind, reply,
    billed size) of the reply the node sent.

    The node that *executes* a state-changing operation, a scan or a
    degraded read remembers its reply and replays it verbatim for a
    redelivered request (retransmission or network duplicate) instead
    of executing again — so record counts, parity bookkeeping and scan
    forwarding stay exact.  Holds at most :data:`DEDUP_CACHE_LIMIT`
    entries and evicts the oldest first.  ``where`` names the node in
    its ``lh.dedup_replay`` events.
    """

    __slots__ = ("_node", "_where", "_replies")

    def __init__(self, node: Node, **where: Any) -> None:
        self._node = node
        self._where = where
        self._replies: OrderedDict[
            Hashable, tuple[str, dict[str, Any], int]
        ] = OrderedDict()

    def __len__(self) -> int:
        return len(self._replies)

    def send(
        self,
        request: Hashable,
        client: Hashable,
        kind: str,
        reply: dict[str, Any],
        size: int,
    ) -> None:
        """Remember the reply to ``request``, then send it."""
        self._replies[request] = (kind, reply, size)
        while len(self._replies) > DEDUP_CACHE_LIMIT:
            self._replies.popitem(last=False)
        self._node.send(client, kind, reply, size=size)

    def replay(self, request: Hashable, message: Message) -> bool:
        """Resend the reply remembered for ``request`` to the client of
        ``message``; False when no reply is remembered."""
        cached = self._replies.get(request)
        if cached is None:
            return False
        payload = message.payload
        obs_emit("lh.dedup_replay", file=self._node.file.name,
                 kind=message.kind, **self._where, op=payload["op"])
        metric_inc("lh.dedup_replay")
        kind, reply, size = cached
        self._node.send(payload["client"], kind, reply, size=size)
        return True


@dataclass
class _PendingKeyed:
    """Client-side retransmission state of one keyed operation.

    ``mode`` tracks how the operation is currently routed: ``normal``
    (straight at the image-addressed bucket), ``suspected`` (waiting
    for the coordinator's verdict on the bucket), ``degraded`` (a
    lookup served through the parity layer while the home bucket is
    dead) or ``parked`` (an update waiting for recovery to finish).
    ``address`` is the home bucket of the latest routing decision —
    the address a ``suspect`` report names.
    """

    kind: str
    key: int
    content: bytes | None = None
    attempt: int = 0
    timer: Timer | None = None
    mode: str = "normal"
    escalations: int = 0
    address: int | None = None


@dataclass
class _ScanState:
    """Client-side bookkeeping of one scan round.

    ``expected`` maps every bucket address known to owe a reply to the
    presumed level a (re)transmission to it must carry; it grows as
    replies report the children they forwarded to, so a retry can
    target exactly the buckets whose coverage is missing instead of
    re-broadcasting the scan.
    """

    matcher: ScanMatcher
    request_size: int
    expected: dict[int, int] = field(default_factory=dict)
    replied: set[int] = field(default_factory=set)
    attempt: int = 0
    timer: Timer | None = None
    done: bool = False
    failed: bool = False
    escalations: int = 0
    #: Address of a dead, unrecoverable bucket that makes full
    #: coverage impossible (surfaces as BucketUnavailableError).
    unavailable: int | None = None


class LHStarBucket(Node):
    """One bucket server: stores records, forwards, splits, scans.

    A bucket can also be *retired* by a merge (file shrink): it keeps
    its network identity so clients with stale images still reach it,
    but holds no records and redirects every operation to the bucket
    it merged into.
    """

    def __init__(
        self,
        file: "LHStarFile",
        address: int,
        level: int,
        pending: bool = False,
    ) -> None:
        super().__init__(file.bucket_id(address))
        self.file = file
        self.address = address
        self.level = level
        self.records: dict[int, Record] = {}
        self.retired = False
        self.merge_target: int | None = None
        # A bucket freshly created by a split is *pending* until its
        # initial record shipment arrives; operations that overtake
        # the shipment (possible under jittered latency) are buffered,
        # not answered from an incomplete state.
        self.pending = pending
        self._buffered: list[Message] = []
        # Replies to inserts, deletes and scans per request id
        # (client, op): one per-client counter numbers both, so they
        # share one table.
        self.replies = ReplyCache(self, bucket=address)
        # Lazily built concatenated view of the resident records for
        # scans; dropped on any record mutation and rebuilt on the
        # next scan (see repro.sdds.haystack).
        self._haystack: BucketHaystack | None = None

    # -- scan haystack ----------------------------------------------------

    def haystack(self) -> BucketHaystack:
        """The bucket's current haystack, (re)built on demand."""
        cache = self._haystack
        if cache is None:
            cache = BucketHaystack(self.records)
            self._haystack = cache
            metric_inc("lh.haystack.build")
        else:
            metric_inc("lh.haystack.hit")
        return cache

    def _invalidate_haystack(self) -> None:
        if self._haystack is not None:
            self._haystack = None
            metric_inc("lh.haystack.invalidate")

    # -- message dispatch -----------------------------------------------

    def handle(self, message: Message) -> None:
        kind = message.kind
        if kind == "probe":
            # Coordinator liveness check: any bucket that can receive
            # at all answers — pending and retired ones included (a
            # spare under recovery is alive, just not serving yet).
            self.send(message.src, "probe_ack",
                      {"address": self.address}, size=HEADER_SIZE)
            return
        if self.pending and kind not in ("split_records",
                                         "recover_install"):
            self._buffered.append(message)
            return
        if self.pending:
            # The initial shipment (split) or the reconstructed
            # contents (recovery): install, then replay whatever
            # overtook it, in arrival order.  Recovery installs skip
            # the overflow notification — the spare holds exactly
            # what the dead bucket held.
            self.pending = False
            self._absorb_records(
                message.payload["records"],
                notify_overflow=(kind == "split_records"),
                emit_parity=(kind == "split_records"),
            )
            if kind == "recover_install":
                self.send(self.file.coordinator_id, "recover_done",
                          {"address": self.address}, size=HEADER_SIZE)
            buffered, self._buffered = self._buffered, []
            for waiting in buffered:
                self.handle(waiting)
            return
        if self.retired and kind in ("insert", "lookup", "delete"):
            # Tombstone: redirect to wherever the records went.  The
            # target may forward again; the client pays one extra hop
            # until its image catches up with the shrink.
            self.send(
                self.file.bucket_id(self.merge_target),
                kind,
                message.payload,
                size=message.size,
                hops=message.hops + 1,
            )
            return
        if self.retired and kind in ("split_records", "merge_records"):
            # A record shipment raced the merge that retired us: the
            # records must not strand in a tombstone.  Re-ship them to
            # the merge target, which re-verifies as usual.
            records = message.payload["records"]
            if records:
                for record in records:
                    self.file.on_move(self.address, self.merge_target,
                                      record)
                self.send(
                    self.file.bucket_id(self.merge_target),
                    "split_records",
                    {"records": records},
                    size=HEADER_SIZE + sum(r.wire_size
                                           for r in records),
                )
            return
        if self.retired and kind == "scan":
            # Zero-coverage reply: the merge target answers for our
            # old key range.
            self.send(
                message.payload["client"],
                "scan_reply",
                {
                    "op": message.payload["op"],
                    "address": self.address,
                    "level": None,
                    "hits": [],
                    "forwarded": [],
                },
                size=HEADER_SIZE,
            )
            return
        if kind in ("insert", "lookup", "delete"):
            self._handle_keyed(message)
        elif kind == "scan":
            self._handle_scan(message)
        elif kind == "split":
            self._handle_split(message)
        elif kind == "split_records":
            self._handle_split_records(message)
        elif kind == "merge":
            self._handle_merge(message)
        elif kind == "merge_records":
            self._handle_merge_records(message)
        elif kind == "leave":
            self._handle_leave(message)
        elif kind == "recover_install":
            # Redelivered install for a bucket that already finished
            # recovering: absorbing again is idempotent (records
            # overwrite by rid); re-ack so the coordinator converges.
            self._absorb_records(message.payload["records"],
                                 notify_overflow=False,
                                 emit_parity=False)
            self.send(self.file.coordinator_id, "recover_done",
                      {"address": self.address}, size=HEADER_SIZE)
        elif kind == "group_fetch":
            self._handle_group_fetch(message)
        else:
            raise ValueError(f"bucket {self.address}: unknown message "
                             f"kind {kind!r}")

    # -- keyed operations --------------------------------------------------

    def _handle_keyed(self, message: Message) -> None:
        key = message.payload["key"]
        target = forward_address(key, self.address, self.level)
        if target is not None:
            # Misdirected: forward, bumping the hop counter the LNS96
            # theorem bounds by 2.
            obs_emit("lh.forward", file=self.file.name, kind=message.kind,
                     bucket=self.address, target=target,
                     hops=message.hops + 1)
            metric_inc("lh.forward")
            if message.hops == 0:
                # The *first forwarder* sends the Image Adjustment
                # Message with its own address and level (LNS96).
                # A forwarder's (address, level) pair is always a safe
                # lower bound on the file state, so client images never
                # overshoot the file; the final bucket's pair would not
                # be safe (e.g. bucket 2 at level 2 in a 3-bucket file
                # would make the client believe bucket 3 exists).
                self.send(
                    message.payload["client"],
                    "iam",
                    {"address": self.address, "level": self.level},
                    size=HEADER_SIZE,
                )
            self.send(
                self.file.bucket_id(target),
                message.kind,
                message.payload,
                size=message.size,
                hops=message.hops + 1,
            )
            return
        if message.kind in ("insert", "delete") and self._replay(message):
            return
        getattr(self, "_do_" + message.kind)(message)

    def _replay(self, message: Message) -> bool:
        """Replay the remembered reply to a redelivered request."""
        payload = message.payload
        return self.replies.replay((payload["client"], payload["op"]),
                                   message)

    def _reply_keyed(
        self, payload: dict[str, Any], reply: dict[str, Any], size: int
    ) -> None:
        """Send a keyed-op reply and remember it for redeliveries."""
        self.replies.send((payload["client"], payload["op"]),
                          payload["client"], "reply", reply, size)

    def _do_insert(self, message: Message) -> None:
        payload = message.payload
        record = Record(payload["key"], payload["content"])
        old = self.records.get(record.rid)
        self.records[record.rid] = record
        self._invalidate_haystack()
        self._reply_keyed(
            payload,
            {"op": payload["op"], "ok": True, "created": old is None},
            HEADER_SIZE,
        )
        self.file.on_store(self.address, record, old)
        if len(self.records) > self.file.bucket_capacity:
            self.send(
                self.file.coordinator_id,
                "overflow",
                {"address": self.address,
                 "delta": 1 if old is None else 0},
                size=HEADER_SIZE,
            )
        elif self.file.shrink and old is None:
            # Shrinking files report every net-new record so the
            # coordinator's global count stays exact even when it runs
            # in another process and cannot read bucket contents.
            self.send(
                self.file.coordinator_id,
                "load",
                {"address": self.address, "delta": 1},
                size=HEADER_SIZE,
            )

    def _do_lookup(self, message: Message) -> None:
        payload = message.payload
        record = self.records.get(payload["key"])
        self.send(
            payload["client"],
            "reply",
            {
                "op": payload["op"],
                "ok": record is not None,
                "content": None if record is None else record.content,
            },
            size=HEADER_SIZE + (0 if record is None else record.wire_size),
        )

    def _do_delete(self, message: Message) -> None:
        payload = message.payload
        removed = self.records.pop(payload["key"], None)
        if removed is not None:
            self._invalidate_haystack()
        self._reply_keyed(
            payload,
            {"op": payload["op"], "ok": removed is not None},
            HEADER_SIZE,
        )
        if removed is not None:
            self.file.on_remove(self.address, removed)
            if self.file.shrink:
                self.send(
                    self.file.coordinator_id,
                    "underflow",
                    {"address": self.address},
                    size=HEADER_SIZE,
                )

    # -- scan ---------------------------------------------------------------

    def _handle_scan(self, message: Message) -> None:
        if self._replay(message):
            # Redelivered scan: the children we forwarded to the first
            # time are listed in the replayed reply, so the client can
            # chase any of their missing coverage directly — no
            # re-forward.
            return
        payload = message.payload
        presumed = payload["level"]
        # Deterministic-termination forwarding: cover the buckets the
        # client's image did not know about.
        level = presumed
        children: list[tuple[int, int]] = []
        while level < self.level:
            child = self.address + (1 << level)
            level += 1
            children.append((child, level))
            forwarded = dict(payload)
            forwarded["level"] = level
            self.send(
                self.file.bucket_id(child),
                "scan",
                forwarded,
                size=message.size,
                hops=message.hops + 1,
            )
        # Server-side matching: one call over the bucket's
        # concatenated haystack (each needle one C-level sweep).
        hits = payload["matcher"].match_bucket(self.haystack())
        reply = {
            "op": payload["op"],
            "address": self.address,
            "level": self.level,
            "hits": hits,
            # Who answers for the rest of our presumed range — rides
            # in the header allowance; lets the client retry precisely.
            "forwarded": children,
        }
        self.replies.send(
            (payload["client"], payload["op"]),
            payload["client"],
            "scan_reply",
            reply,
            HEADER_SIZE + sum(_hit_size(hit) for hit in hits),
        )

    # -- crash recovery -------------------------------------------------------

    def _handle_group_fetch(self, message: Message) -> None:
        """Serve a parity bucket's fetch of specific record ranks.

        ``entries`` maps rank -> the rid the parity bookkeeping
        expects at that rank on this bucket.  The reply carries each
        record's content, or empty bytes when this bucket holds no
        such record (never stored, deleted, or migrated) — an absent
        record *is* the zero codeword the erasure algebra expects.
        """
        payload = message.payload
        entries: dict[int, bytes] = {}
        for rank, rid in payload["entries"].items():
            record = self.records.get(rid)
            entries[rank] = b"" if record is None else record.content
        self.send(
            message.src,
            "group_data",
            {
                "gather": payload["gather"],
                "offset": payload["offset"],
                "entries": entries,
            },
            size=HEADER_SIZE + sum(
                8 + len(content) for content in entries.values()
            ),
        )

    # -- splitting ------------------------------------------------------------

    def _handle_split(self, message: Message) -> None:
        new_address = message.payload["new_address"]
        new_level = message.payload["new_level"]
        self.level = new_level
        metric_observe("lh.bucket_load", len(self.records))
        moving = [
            record
            for record in self.records.values()
            if (record.rid & ((1 << new_level) - 1)) != self.address
        ]
        if moving:
            self._invalidate_haystack()
        for record in moving:
            del self.records[record.rid]
            self.file.on_move(self.address, new_address, record)
        self.send(
            self.file.bucket_id(new_address),
            "split_records",
            {"records": moving},
            size=HEADER_SIZE + sum(r.wire_size for r in moving),
        )
        if len(self.records) > self.file.bucket_capacity:
            # Split and absorb notifications move records between
            # buckets without changing the file-wide count: delta 0.
            self.send(
                self.file.coordinator_id,
                "overflow",
                {"address": self.address, "delta": 0},
                size=HEADER_SIZE,
            )

    def _absorb_records(
        self,
        records: list[Record],
        notify_overflow: bool = True,
        emit_parity: bool = True,
    ) -> None:
        """Store shipped records, re-verifying each against the
        *current* level.

        Under concurrency a bucket may have split again before an
        earlier record shipment arrives; storing such records blindly
        would strand them (they hash elsewhere at the new level).
        Misfits are re-shipped toward their correct bucket, which
        re-verifies in turn — the same convergence argument as keyed
        forwarding.

        ``notify_overflow`` is off on the merge path: a merge of two
        half-full buckets may exceed capacity, and splitting right
        back would thrash — the oversize drains through deletes or is
        resolved by the next genuine insert.

        ``emit_parity`` is off on the recovery-install path: the spare
        receives exactly the records the parity algebra already
        accounts for, and re-registering them would XOR the same
        contribution back out of the parity payloads (XOR is
        self-inverse), silently corrupting the group.
        """
        misrouted: dict[int, list[Record]] = {}
        for record in records:
            target = forward_address(record.rid, self.address, self.level)
            if target is None:
                old = self.records.get(record.rid)
                self.records[record.rid] = record
                self._invalidate_haystack()
                if emit_parity:
                    self.file.on_absorb(self.address, record, old)
            else:
                misrouted.setdefault(target, []).append(record)
        for target, batch in misrouted.items():
            for record in batch:
                self.file.on_move(self.address, target, record)
            self.send(
                self.file.bucket_id(target),
                "split_records",
                {"records": batch},
                size=HEADER_SIZE + sum(r.wire_size for r in batch),
            )
        if notify_overflow and len(self.records) > self.file.bucket_capacity:
            self.send(
                self.file.coordinator_id,
                "overflow",
                {"address": self.address, "delta": 0},
                size=HEADER_SIZE,
            )

    def _handle_split_records(self, message: Message) -> None:
        self._absorb_records(message.payload["records"])

    # -- merging (file shrink) ---------------------------------------------

    def _handle_merge(self, message: Message) -> None:
        """Retire this bucket, shipping every record to the target."""
        target = message.payload["target"]
        moving = list(self.records.values())
        self.records.clear()
        self._invalidate_haystack()
        for record in moving:
            self.file.on_move(self.address, target, record)
        self.retired = True
        self.merge_target = target
        self.send(
            self.file.bucket_id(target),
            "merge_records",
            {"records": moving, "level": message.payload["level"]},
            size=HEADER_SIZE + sum(r.wire_size for r in moving),
        )

    def _handle_merge_records(self, message: Message) -> None:
        """Absorb a retired sibling's records; drop back one level."""
        self.level = message.payload["level"]
        self._absorb_records(message.payload["records"],
                             notify_overflow=False)

    # -- graceful leave -----------------------------------------------------

    def _handle_leave(self, message: Message) -> None:
        """Graceful site departure: ship the whole bucket to the
        replacement spare that takes over this network identity.

        The shipment is a ``recover_install`` addressed to *our own*
        bucket id: by the time it is delivered, the spare spawned
        below owns the id, installs without re-emitting parity (the
        rank tables and parity contributions migrate untouched with
        the address), and acks ``recover_done`` to the coordinator —
        the same convergence path as crash recovery, minus the
        reconstruction."""
        moving = list(self.records.values())
        self.send(
            self.file.bucket_id(self.address),
            "recover_install",
            {"records": moving},
            size=HEADER_SIZE + sum(r.wire_size for r in moving),
        )
        self.file.create_bucket(self.address, self.level, pending=True)


class LHStarCoordinator(Node):
    """The split coordinator: authoritative ``(i, n)``.

    Splits are uncontrolled: every overflow notification triggers a
    split of bucket ``n`` — simple, keeps buckets shallow,
    over-allocates sites.
    """

    def __init__(self, file: "LHStarFile") -> None:
        super().__init__(file.coordinator_id)
        self.file = file
        self.i = 0
        self.n = 0
        #: Buckets declared dead after an unanswered probe:
        #: address -> (true level at declare time, recoverable).
        #: Splits and merges involving a dead address are gated, so
        #: the stored level stays authoritative until recovery.
        self.dead: dict[int, tuple[int, bool]] = {}
        #: Dead buckets whose reconstruction is in flight.
        self.recovering: set[int] = set()
        self._probes: dict[int, Timer] = {}
        #: Operator-initiated leaves awaiting their recover_done ack:
        #: address -> retransmissions so far.  Each entry owns a timer
        #: in ``_leave_timers`` re-sending the trigger on the client
        #: retry schedule, because a bucket that crashed before the
        #: trigger landed is never suspected — degraded reads route
        #: around it — so no probe would revive the drain.
        self._leaving: dict[int, int] = {}
        self._leave_timers: dict[int, Timer] = {}
        #: Clients to notify when an address changes liveness state.
        self._reporters: dict[int, set[Hashable]] = {}
        #: Global record count, maintained from bucket notifications
        #: ("load"/"underflow" and the delta field on "overflow") when
        #: the file shrinks.  Splits and merges move records
        #: without changing the global count, so this stays exact —
        #: and works identically when the coordinator is a remote
        #: process that cannot read ``file.record_count``.
        self.records_reported = 0

    @property
    def bucket_count(self) -> int:
        return (1 << self.i) + self.n

    def _load_factor(self) -> float:
        capacity = self.bucket_count * self.file.bucket_capacity
        if self.file.shrink:
            return self.records_reported / capacity
        return self.file.record_count / capacity

    def handle(self, message: Message) -> None:
        kind = message.kind
        if kind == "underflow":
            self.records_reported -= 1
            if self.file.shrink:
                self._maybe_merge()
            return
        if kind == "load":
            self.records_reported += message.payload["delta"]
            return
        if kind == "suspect":
            self._handle_suspect(message.payload)
            return
        if kind == "probe_ack":
            self._handle_probe_ack(message.payload)
            return
        if kind == "await_recovery":
            self._handle_await_recovery(message.payload)
            return
        if kind == "recover_done":
            self._handle_recover_done(message.payload)
            return
        if kind != "overflow":
            raise ValueError(
                f"coordinator: unknown message kind {kind!r}"
            )
        self.records_reported += message.payload.get("delta", 0)
        self._split_next()

    # -- failure detection and recovery ------------------------------------

    def _handle_suspect(self, payload: dict[str, Any]) -> None:
        """A client's retry budget died against ``address``: probe it.

        If the address is already declared dead with recovery in
        flight, the reporter learns so immediately (and is kept on
        the notify list for the recovery-finished event).  Otherwise
        a probe round decides — including for addresses previously
        declared dead *without* recovery (plain LH*): the node may
        have rebooted since, and a fresh probe is the only way the
        coordinator finds out.
        """
        address = payload["address"]
        reporter = payload["client"]
        self._reporters.setdefault(address, set()).add(reporter)
        if address in self.dead and address in self.recovering:
            self.send(reporter, "bucket_down",
                      self._down_payload(address), size=HEADER_SIZE)
            return
        if address in self._probes:
            return  # probe already outstanding; verdict will fan out
        self.send(self.file.bucket_id(address), "probe",
                  {"address": address}, size=HEADER_SIZE)
        policy = self.file.retry_policy
        self._probes[address] = self.network.schedule(
            policy.timeout,
            lambda: self._probe_timeout(address),
            owner=self.node_id,
        )

    def _down_payload(self, address: int) -> dict[str, Any]:
        """The ``bucket_down`` notification for ``address``: the dead
        members of its recovery group with their levels, so a client
        can route degraded reads and scan coverage correctly."""
        group_dead = {
            member: list(self.dead[member])
            for member in self.file.recovery_group(address)
            if member in self.dead
        }
        return {"address": address, "group_dead": group_dead}

    def _probe_timeout(self, address: int) -> None:
        """No probe_ack in time: declare the bucket dead."""
        self._probes.pop(address, None)
        if address >= self.bucket_count:
            # The address was merged away while the probe was in
            # flight: it is a tombstone now, not a member, so it has
            # no level and nothing to recover.  Tell the reporters to
            # re-route — while the tombstone is down their retries
            # are bounded by their own budgets, and its restore (or a
            # sync of their images) unblocks the key range.
            for reporter in self._reporters.pop(address, ()):
                self.send(reporter, "bucket_up",
                          {"address": address}, size=HEADER_SIZE)
            return
        if address not in self.dead:
            level = bucket_level(address, self.i, self.n)
            recoverable = self.file.begin_recovery(address, level)
            self.dead[address] = (level, recoverable)
            if recoverable:
                self.recovering.add(address)
            obs_emit("lh.bucket_down", file=self.file.name,
                     bucket=address, recoverable=recoverable)
            metric_inc("lh.bucket_down")
        payload = self._down_payload(address)
        for reporter in self._reporters.get(address, ()):
            self.send(reporter, "bucket_down", payload,
                      size=HEADER_SIZE)

    def _handle_probe_ack(self, payload: dict[str, Any]) -> None:
        address = payload["address"]
        timer = self._probes.pop(address, None)
        if timer is not None:
            timer.cancel()
        if address in self.dead and address not in self.recovering:
            # A dead-unrecoverable node answered: it rebooted.
            del self.dead[address]
            obs_emit("lh.bucket_up", file=self.file.name,
                     bucket=address)
            metric_inc("lh.bucket_up")
        for reporter in self._reporters.pop(address, ()):
            self.send(reporter, "bucket_up", {"address": address},
                      size=HEADER_SIZE)
        if self.file.shrink:
            # A merge skipped because this bucket was dead is never
            # re-triggered by traffic (underflows only fire on
            # deletes): re-evaluate now that liveness changed.
            self._maybe_merge()

    def _handle_await_recovery(self, payload: dict[str, Any]) -> None:
        """A client parked an update on a dead bucket; subscribe it
        to the recovery-finished notification (or answer at once if
        the bucket is already back)."""
        address = payload["address"]
        client = payload["client"]
        if address in self.dead:
            self._reporters.setdefault(address, set()).add(client)
        else:
            self.send(client, "bucket_recovered",
                      {"address": address}, size=HEADER_SIZE)

    def _handle_recover_done(self, payload: dict[str, Any]) -> None:
        address = payload["address"]
        # A graceful leave's drain acks with recover_done too, and on
        # plain LH* the address was never marked dead-recovering: stop
        # the leave retransmissions *before* the duplicate-ack check,
        # or every retry would re-drain the whole bucket.
        self._leaving.pop(address, None)
        leave_timer = self._leave_timers.pop(address, None)
        if leave_timer is not None:
            leave_timer.cancel()
        if address not in self.recovering:
            return  # duplicate ack from a redelivered install
        self.recovering.discard(address)
        self.dead.pop(address, None)
        self.file.finish_recovery(address)
        obs_emit("lh.bucket_recovered", file=self.file.name,
                 bucket=address)
        metric_inc("lh.bucket_recovered")
        for reporter in self._reporters.pop(address, ()):
            self.send(reporter, "bucket_recovered",
                      {"address": address}, size=HEADER_SIZE)
        if self.file.shrink:
            # Same re-attempt as on bucket_up: a merge the dead bucket
            # blocked becomes possible the moment recovery completes.
            self._maybe_merge()

    # -- graceful leave ------------------------------------------------------

    def begin_leave(self, address: int) -> bool:
        """Operator-triggered graceful departure of bucket ``address``.

        Returns whether a migration started.  Addresses that are out
        of range (including retired tombstones), already dead, or
        under probe are refused — leave is for live members only.
        Files with a degraded-read target (LH*_RS) mark the address
        dead-recovering so keyed reads and scans route around the
        migration through the parity layer (they cost more, never
        error); plain LH* relies on the spare's buffering — the drain
        window is a single shipment.
        """
        if not 0 <= address < self.bucket_count:
            return False
        if (address in self.dead or address in self._probes
                or address in self._leaving):
            return False
        self._leaving[address] = 0
        level = bucket_level(address, self.i, self.n)
        if self.file.degraded_read_target(address) is not None:
            self.dead[address] = (level, True)
            self.recovering.add(address)
            payload = self._down_payload(address)
            for reporter in self._reporters.get(address, ()):
                self.send(reporter, "bucket_down", payload,
                          size=HEADER_SIZE)
        obs_emit("lh.leave", file=self.file.name, bucket=address,
                 level=level)
        metric_inc("lh.leave")
        self.send(self.file.bucket_id(address), "leave",
                  {"address": address}, size=HEADER_SIZE)
        self._arm_leave_retry(address)
        return True

    def _arm_leave_retry(self, address: int) -> None:
        policy = self.file.retry_policy
        # Deterministic backoff, never policy.delay(): that draws from
        # the policy's shared jitter stream, and the coordinator may
        # be a remote process with its own policy instance — a draw
        # here would desynchronise the clients' retry schedules
        # between the simulator and the live backend.
        delay = policy.timeout * policy.backoff ** self._leaving[address]
        self._leave_timers[address] = self.network.schedule(
            delay,
            lambda: self._leave_retry(address),
            owner=self.node_id,
        )

    def _leave_retry(self, address: int) -> None:
        """No recover_done yet: retransmit the leave trigger.

        After ``max_retries`` unanswered triggers the departing
        bucket is taken as crashed before the drain began.  Files
        with parity fall back to reconstruction — it rebuilds the
        records onto the spare without the bucket's cooperation —
        and plain LH* abandons the leave (its records are frozen
        in the crashed process, exactly as for any other crash).
        """
        self._leave_timers.pop(address, None)
        if address not in self._leaving:
            return
        policy = self.file.retry_policy
        self._leaving[address] += 1
        if self._leaving[address] <= policy.max_retries:
            self.send(self.file.bucket_id(address), "leave",
                      {"address": address}, size=HEADER_SIZE)
            self._arm_leave_retry(address)
            return
        del self._leaving[address]
        obs_emit("lh.leave_stalled", file=self.file.name,
                 bucket=address)
        metric_inc("lh.leave_stalled")
        if address in self.recovering:
            level = self.dead[address][0]
            self.file.begin_recovery(address, level)

    def _maybe_merge(self) -> None:
        """Shrink by one bucket when the file runs too empty.

        Reverses the last split: the most recently created bucket
        ships its records back to its split partner, which drops one
        level; the emptied bucket stays on the network as a tombstone
        so stale client images still resolve.
        """
        if self.bucket_count <= 1:
            return
        if self._load_factor() >= self.file.merge_threshold:
            return
        i, n = self.i, self.n
        if n == 0:
            i -= 1
            n = 1 << i
        last = (1 << i) + n - 1
        target = n - 1
        if last in self.dead or target in self.dead:
            # Never merge into or out of a dead bucket: its records
            # are frozen until recovery, and moving the level under a
            # declared level would corrupt degraded-read routing.
            return
        self.i, self.n = i, n - 1
        obs_emit("lh.merge", file=self.file.name, bucket=last,
                 target=target, level=i)
        metric_inc("lh.merge")
        metric_set_gauge(f"lh.buckets.{self.file.name}",
                         self.bucket_count)
        self.send(
            self.file.bucket_id(last),
            "merge",
            {"target": target, "level": i},
            size=HEADER_SIZE,
        )

    def _split_next(self) -> None:
        splitter = self.n
        new_address = self.n + (1 << self.i)
        new_level = self.i + 1
        if splitter in self.dead or new_address in self.dead:
            # The split pointer reached a dead bucket (or the split
            # would target a dead address): file growth stalls until
            # the bucket recovers — the next overflow retriggers it.
            # A tombstone at the target, crashed or not, is replaced
            # by a fresh node (``FileView.create_bucket``).
            return
        obs_emit("lh.split", file=self.file.name, bucket=splitter,
                 new=new_address, level=new_level)
        metric_inc("lh.split")
        self.file.create_bucket(new_address, new_level, pending=True)
        self.n += 1
        if self.n == (1 << self.i):
            self.i += 1
            self.n = 0
        metric_set_gauge(f"lh.buckets.{self.file.name}",
                         self.bucket_count)
        metric_set_gauge(f"lh.load_factor.{self.file.name}",
                         self._load_factor())
        self.send(
            self.file.bucket_id(splitter),
            "split",
            {"new_address": new_address, "new_level": new_level},
            size=HEADER_SIZE,
        )


class LHStarClient(Node):
    """A client with a private image; entry point for all operations.

    Every operation arms a virtual-clock timeout from its file's
    :class:`~repro.net.faults.RetryPolicy`: unanswered keyed
    operations are retransmitted (re-addressed under the *current*
    image) with exponential backoff, and scans retransmit only to the
    buckets whose coverage fractions are still missing.  Bucket-side
    request-id dedup makes redelivery idempotent, so a retry can never
    double-apply an insert or delete.  Exhausting the retry budget
    surfaces as :class:`~repro.net.faults.RetryExhaustedError` from
    ``take_reply``/``take_scan``.
    """

    def __init__(self, file: "LHStarFile", client_index: int = 0) -> None:
        super().__init__(file.client_id(client_index))
        self.file = file
        self.i_image = 0
        self.n_image = 0
        self._ops = itertools.count()
        self.responses: dict[int, dict[str, Any]] = {}
        self._scan_hits: dict[int, list[Any]] = {}
        self._scan_coverage: dict[int, Fraction] = {}
        self._pending_keyed: dict[int, _PendingKeyed] = {}
        self._scan_state: dict[int, _ScanState] = {}
        self.iam_count = 0
        #: Addresses the coordinator reported dead:
        #: address -> (true level, recoverable).  Entries are cleared
        #: by ``bucket_up``/``bucket_recovered`` notifications.
        self.dead: dict[int, tuple[int, bool]] = {}

    # -- message handling ----------------------------------------------------

    def handle(self, message: Message) -> None:
        kind = message.kind
        if kind == "reply":
            op = message.payload["op"]
            pending = self._pending_keyed.pop(op, None)
            if pending is None:
                # A duplicate/late reply for an operation that already
                # completed (every live op has pending state).
                return
            if pending.timer is not None:
                pending.timer.cancel()
            self.responses[op] = message.payload
        elif kind == "iam":
            self.iam_count += 1
            self.i_image, self.n_image = image_adjust(
                self.i_image,
                self.n_image,
                message.payload["address"],
                message.payload["level"],
            )
        elif kind == "scan_reply":
            payload = message.payload
            op = payload["op"]
            if op not in self._scan_hits:
                return  # late reply for a scan already collected
            state = self._scan_state[op]
            address = payload["address"]
            if address in state.replied:
                return  # redelivered reply: already accounted
            state.replied.add(address)
            for child, level in payload.get("forwarded", ()):
                state.expected.setdefault(child, level)
            self._scan_hits[op].extend(payload["hits"])
            if payload["level"] is not None:
                self._scan_coverage[op] += Fraction(
                    1, 1 << payload["level"]
                )
            # Retired buckets reply with level None: zero coverage —
            # their merge target answers for the key range.
            if self._scan_coverage[op] == 1:
                state.done = True
                if state.timer is not None:
                    state.timer.cancel()
        elif kind == "bucket_down":
            payload = message.payload
            for member, info in payload["group_dead"].items():
                self.dead[member] = (info[0], info[1])
            self._redispatch(payload["address"])
        elif kind in ("bucket_up", "bucket_recovered"):
            address = message.payload["address"]
            self.dead.pop(address, None)
            self._redispatch(address)
        else:
            raise ValueError(f"client: unknown message kind {kind!r}")

    def _redispatch(self, address: int) -> None:
        """Re-route work touched by a liveness change of ``address``:
        suspected/degraded/parked keyed operations re-resolve their
        path, and scans still owing its coverage chase it again."""
        for op, pending in list(self._pending_keyed.items()):
            if pending.address == address and pending.mode != "normal":
                self._route_keyed(op)
        for op, state in list(self._scan_state.items()):
            if state.done or state.failed:
                continue
            if address in state.expected and address not in state.replied:
                self._scan_chase(op, address)

    # -- request initiation ---------------------------------------------------

    def start_keyed(self, kind: str, key: int, content: bytes | None = None) -> int:
        """Send a keyed operation using the current image; returns op id."""
        op = next(self._ops)
        self._pending_keyed[op] = _PendingKeyed(
            kind=kind, key=key, content=content
        )
        self._route_keyed(op)
        return op

    def _resolve_home(self, key: int) -> int:
        """The bucket a keyed operation should target: the image
        address, chased through known-dead buckets using their true
        levels (the same <= 2-hop bound as live forwarding)."""
        address = client_address(key, self.i_image, self.n_image)
        for _ in range(2):
            info = self.dead.get(address)
            if info is None:
                return address
            target = forward_address(key, address, info[0])
            if target is None:
                return address
            address = target
        return address

    def _route_keyed(self, op: int) -> None:
        """Route one keyed operation by what the client knows of its
        home bucket: normal path, degraded parity read (lookups), or
        parked until recovery completes (updates)."""
        pending = self._pending_keyed[op]
        if pending.timer is not None:
            pending.timer.cancel()
            pending.timer = None
        policy = self.file.retry_policy
        address = self._resolve_home(pending.key)
        pending.address = address
        delay = (policy.delay(pending.attempt) if pending.attempt
                 else policy.timeout)
        info = self.dead.get(address)
        if info is None:
            pending.mode = "normal"
            self._send_keyed(op, pending.kind, pending.key,
                             pending.content, address=address)
            self._arm_keyed_timer(op, delay)
            return
        level, recoverable = info
        if not recoverable:
            # No parity to serve or rebuild the bucket.  Ask the
            # coordinator to re-probe a few times — the node may have
            # rebooted since it was declared dead — then fail with a
            # typed error instead of burning retry budgets forever.
            if pending.escalations < MAX_ESCALATIONS:
                pending.escalations += 1
                pending.mode = "suspected"
                obs_emit("lh.suspect", file=self.file.name,
                         bucket=address, kind=pending.kind)
                metric_inc("lh.suspect")
                self.send(self.file.coordinator_id, "suspect",
                          {"address": address, "client": self.node_id},
                          size=HEADER_SIZE)
                return
            del self._pending_keyed[op]
            self.responses[op] = {
                "op": op,
                "ok": False,
                "error": (
                    f"{pending.kind} of key {pending.key}: bucket "
                    f"{address} is down and the file has no parity "
                    "to serve or recover it"
                ),
                "error_kind": "unavailable",
            }
            return
        if pending.kind == "lookup":
            pending.mode = "degraded"
            self._send_degraded_lookup(op, pending, address)
            self._arm_keyed_timer(op, delay)
            return
        # Updates cannot touch state that is being reconstructed:
        # park until the coordinator announces the spare online.
        pending.mode = "parked"
        self.send(self.file.coordinator_id, "await_recovery",
                  {"address": address, "client": self.node_id},
                  size=HEADER_SIZE)

    def _send_degraded_lookup(
        self, op: int, pending: _PendingKeyed, address: int
    ) -> None:
        """Ask the parity layer to serve a lookup for a dead bucket."""
        obs_emit("lh.degraded_lookup", file=self.file.name,
                 key=pending.key, bucket=address)
        metric_inc("lh.degraded_lookup")
        self.send(
            self.file.degraded_read_target(address),
            "degraded_lookup",
            {
                "op": op,
                "client": self.node_id,
                "key": pending.key,
                "address": address,
                "dead": self.file.degraded_dead_set(address, self.dead),
            },
            size=HEADER_SIZE,
        )

    def _send_keyed(
        self,
        op: int,
        kind: str,
        key: int,
        content: bytes | None,
        address: int,
    ) -> None:
        """(Re)transmit one keyed operation to ``address``: the image
        address, chased by the routing layer past known-dead buckets —
        a dead bucket cannot forward, so the client aims past it
        itself.
        """
        payload: dict[str, Any] = {"key": key, "op": op, "client": self.node_id}
        size = HEADER_SIZE
        if kind == "insert":
            payload["content"] = content
            size += RECORD_OVERHEAD + len(content or b"")
        self.send(self.file.bucket_id(address), kind, payload, size=size)

    def _arm_keyed_timer(self, op: int, delay: float) -> None:
        self._pending_keyed[op].timer = self.network.schedule(
            delay, lambda: self._keyed_timeout(op), owner=self.node_id
        )

    def _keyed_timeout(self, op: int) -> None:
        pending = self._pending_keyed.get(op)
        if pending is None:
            return
        policy = self.file.retry_policy
        pending.attempt += 1
        if pending.attempt > policy.max_retries:
            if pending.escalations >= MAX_ESCALATIONS:
                obs_emit("lh.retry_exhausted", file=self.file.name,
                         kind=pending.kind, key=pending.key)
                metric_inc("lh.retry_exhausted")
                del self._pending_keyed[op]
                self.responses[op] = {
                    "op": op,
                    "ok": False,
                    "error": (
                        f"{pending.kind} of key {pending.key} got no "
                        f"reply after {policy.max_retries} retries"
                    ),
                }
                return
            # A whole retry budget went unanswered: stop shouting at
            # the bucket and ask the coordinator whether it is alive.
            # No timer — the coordinator always answers (bucket_up or
            # bucket_down), and either re-routes this operation.
            pending.escalations += 1
            pending.attempt = 0
            pending.mode = "suspected"
            obs_emit("lh.suspect", file=self.file.name,
                     bucket=pending.address, kind=pending.kind)
            metric_inc("lh.suspect")
            self.send(self.file.coordinator_id, "suspect",
                      {"address": pending.address,
                       "client": self.node_id},
                      size=HEADER_SIZE)
            return
        self.network.stats.retries += 1
        obs_emit("lh.retry", file=self.file.name, kind=pending.kind,
                 key=pending.key, attempt=pending.attempt)
        metric_inc("lh.retry")
        self._route_keyed(op)

    def start_scan(self, matcher: ScanMatcher, request_size: int = HEADER_SIZE) -> int:
        """Broadcast a scan to every bucket in the image; returns op id."""
        op = next(self._ops)
        self._scan_hits[op] = []
        self._scan_coverage[op] = Fraction(0)
        known = (1 << self.i_image) + self.n_image
        expected = {
            address: scan_initial_level(
                address, self.i_image, self.n_image
            )
            for address in range(known)
        }
        state = _ScanState(
            matcher=matcher, request_size=request_size,
            expected=dict(expected),
        )
        self._scan_state[op] = state
        for address, level in expected.items():
            if address in self.dead:
                self._scan_chase(op, address)
            else:
                self._send_scan(op, address, level)
        if not state.failed:
            state.timer = self.network.schedule(
                self.file.retry_policy.timeout,
                lambda: self._scan_timeout(op),
                owner=self.node_id,
            )
        return op

    def _send_scan(self, op: int, address: int, level: int) -> None:
        state = self._scan_state[op]
        self.send(
            self.file.bucket_id(address),
            "scan",
            {
                "op": op,
                "client": self.node_id,
                "matcher": state.matcher,
                "level": level,
            },
            size=state.request_size,
        )

    def _scan_chase(self, op: int, address: int) -> None:
        """(Re)request one bucket's missing coverage, routing around
        a known-dead address through the parity layer."""
        state = self._scan_state[op]
        info = self.dead.get(address)
        if info is None:
            self._send_scan(op, address, state.expected[address])
            return
        level, recoverable = info
        if not recoverable:
            # The bucket's key range is gone until a reboot: re-probe
            # through the coordinator a few times, then fail the scan
            # with a diagnosis instead of spinning on retries.
            if state.escalations < MAX_ESCALATIONS:
                state.escalations += 1
                obs_emit("lh.suspect", file=self.file.name,
                         bucket=address, kind="scan")
                metric_inc("lh.suspect")
                self.send(self.file.coordinator_id, "suspect",
                          {"address": address, "client": self.node_id},
                          size=HEADER_SIZE)
                return
            state.failed = True
            state.unavailable = address
            if state.timer is not None:
                state.timer.cancel()
            return
        self._scan_cover_dead(op, address, level)

    def _scan_cover_dead(
        self, op: int, address: int, true_level: int
    ) -> None:
        """Cover a dead bucket's presumed range: fan out to the
        children its live instance would have forwarded to, and ask
        the parity layer to reconstruct-and-scan the bucket's own
        records at its true level.  The coverage fractions still sum
        to 1 — the dead bucket's 2^-presumed weight is split exactly
        as a live forward chain would split it."""
        state = self._scan_state[op]
        presumed = state.expected.get(address, true_level)
        level = presumed
        while level < true_level:
            child = address + (1 << level)
            level += 1
            if child not in state.expected:
                state.expected[child] = level
                self._scan_chase(op, child)
        state.expected[address] = true_level
        obs_emit("lh.degraded_scan", file=self.file.name,
                 bucket=address, level=true_level)
        metric_inc("lh.degraded_scan")
        self.send(
            self.file.degraded_read_target(address),
            "degraded_scan",
            {
                "op": op,
                "client": self.node_id,
                "matcher": state.matcher,
                "address": address,
                "level": true_level,
                "dead": self.file.degraded_dead_set(address, self.dead),
            },
            size=state.request_size,
        )

    def _scan_timeout(self, op: int) -> None:
        state = self._scan_state.get(op)
        if state is None or state.done or state.failed:
            return
        policy = self.file.retry_policy
        state.attempt += 1
        missing = [
            address for address in state.expected
            if address not in state.replied
        ]
        if state.attempt > policy.max_retries:
            if state.escalations >= MAX_ESCALATIONS:
                obs_emit("lh.retry_exhausted", file=self.file.name,
                         kind="scan", op=op)
                metric_inc("lh.retry_exhausted")
                state.failed = True
                return
            # A full retry budget spent: suspect every bucket still
            # owing coverage; the coordinator's verdicts re-route.
            state.escalations += 1
            state.attempt = 0
            for address in missing:
                if address in self.dead:
                    self._scan_chase(op, address)
                else:
                    obs_emit("lh.suspect", file=self.file.name,
                             bucket=address, kind="scan")
                    metric_inc("lh.suspect")
                    self.send(self.file.coordinator_id, "suspect",
                              {"address": address,
                               "client": self.node_id},
                              size=HEADER_SIZE)
        else:
            # Targeted retry: only the buckets whose coverage
            # fraction is still missing — never a re-broadcast.
            for address in missing:
                self.network.stats.retries += 1
                obs_emit("lh.retry", file=self.file.name, kind="scan",
                         bucket=address, attempt=state.attempt)
                metric_inc("lh.retry")
                self._scan_chase(op, address)
        if state.failed or state.done:
            return
        state.timer = self.network.schedule(
            policy.delay(state.attempt),
            lambda: self._scan_timeout(op),
            owner=self.node_id,
        )

    def take_reply(self, op: int) -> dict[str, Any]:
        """Pop the (already delivered) reply for ``op``."""
        try:
            reply = self.responses.pop(op)
        except KeyError:
            raise RuntimeError(f"no reply delivered for op {op}") from None
        if reply.get("error"):
            if reply.get("error_kind") == "unavailable":
                raise BucketUnavailableError(reply["error"])
            raise RetryExhaustedError(reply["error"])
        return reply

    def take_scan(self, op: int) -> list[Any]:
        """Pop scan hits for ``op``, verifying full coverage."""
        state = self._scan_state.pop(op)
        coverage = self._scan_coverage.pop(op)
        hits = self._scan_hits.pop(op)
        if state.failed:
            if state.unavailable is not None:
                raise BucketUnavailableError(
                    f"scan cannot complete: bucket {state.unavailable} "
                    "is down and the file has no parity to reconstruct "
                    "its records"
                )
            raise RetryExhaustedError(
                f"scan abandoned at coverage {coverage} after "
                f"{state.attempt - 1} retry rounds"
            )
        if coverage != 1:
            raise RuntimeError(
                f"scan terminated with coverage {coverage} != 1; "
                "the deterministic-termination invariant is broken"
            )
        return hits


class FileView:
    """What a protocol actor needs of its file, in any process.

    The creation parameters (validated once, here), the node
    identifiers, the bookkeeping and crash-recovery hooks with their
    plain-LH* defaults, and bucket hosting over :attr:`buckets`.
    :class:`LHStarFile` adds the coordinator, the clients and the
    synchronous operations; the site processes of the live backend
    (:mod:`repro.net.serve`) rebuild a view from :meth:`params` and
    run the same actors against it.
    """

    #: The creation parameters, in the order :meth:`params` ships them.
    PARAMETERS = ("name", "bucket_capacity", "shrink", "merge_threshold",
                  "retry_policy", "rs")

    #: LH*_RS layout (``{"group_size": m, "parity_count": k}``), or
    #: ``None`` for plain LH* (see
    #: :class:`repro.sdds.lhstar_rs.ParityBookkeeping`).
    rs: dict[str, int] | None = None

    def __init__(
        self,
        name: str,
        network: Transport,
        bucket_capacity: int = 64,
        shrink: bool = False,
        merge_threshold: float = 0.4,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> None:
        if bucket_capacity < 1:
            raise ValueError("bucket capacity must be positive")
        if not 0 < merge_threshold < 1:
            raise ValueError("merge threshold must be in (0, 1)")
        if shrink and merge_threshold >= MERGE_THRASH_BOUND:
            raise ValueError(
                f"merge threshold must lie below {MERGE_THRASH_BOUND} "
                "or the file would thrash"
            )
        self.name = name
        self.network = network
        #: Timeout/retry discipline for this file's clients.
        self.retry_policy = retry_policy
        self.bucket_capacity = bucket_capacity
        #: Whether the file merges buckets when it runs empty.  A
        #: shrinking file's buckets report per-record load changes
        #: ("load" / "underflow" messages and a delta field on
        #: "overflow"), so the coordinator holds an exact global
        #: record count even when it is a remote process.
        self.shrink = shrink
        self.merge_threshold = merge_threshold
        self.record_count = 0
        #: The buckets this process hosts, by address (the coordinator
        #: site hosts none and keeps the set of created addresses).
        self.buckets: dict[int, LHStarBucket] = {}

    def params(self) -> dict[str, Any]:
        """The creation parameters another process needs to rebuild
        this view — shipped verbatim in the ``create_*`` control verbs
        of the live backend."""
        return {key: getattr(self, key) for key in self.PARAMETERS}

    # -- identifiers -----------------------------------------------------------

    def bucket_id(self, address: int) -> Hashable:
        return ("bucket", self.name, address)

    def client_id(self, index: int) -> Hashable:
        return ("client", self.name, index)

    @property
    def coordinator_id(self) -> Hashable:
        return ("coordinator", self.name)

    # -- bucket hosting --------------------------------------------------------

    def create_bucket(
        self, address: int, level: int, pending: bool = False
    ) -> LHStarBucket:
        """Put a fresh bucket at ``address`` — a split target, a
        recovery spare or a leave drain's replacement — detaching
        whatever held the id (a tombstone, a dead or a leaving
        bucket), so no crash flag, timer or dedup cache carries over."""
        bucket = LHStarBucket(self, address, level, pending=pending)
        if bucket.node_id in self.network:
            self.network.detach(bucket.node_id)
        self.buckets[address] = bucket
        self.network.attach(bucket)
        return bucket

    # -- bookkeeping hooks (overridden by LH*_RS) ------------------------------

    def on_store(self, address: int, record: Record, old: Record | None) -> None:
        if old is None:
            self.record_count += 1

    def on_remove(self, address: int, record: Record) -> None:
        self.record_count -= 1

    def on_move(self, old: int, new: int, record: Record) -> None:
        """A record left ``old`` toward ``new`` (split, merge or
        misfit re-ship); parity layers release its source-side state
        here.  The record still counts toward the file — arrival is
        registered by :meth:`on_absorb` at the destination."""

    def on_absorb(self, address: int, record: Record, old: Record | None) -> None:
        """A shipped record was stored at ``address``; parity layers
        register it here.  Split from :meth:`on_move` so that source
        and destination bookkeeping can live on *different sites*:
        the source releases, the destination assigns — neither needs
        the other's rank tables."""

    # -- crash-recovery hooks (overridden by LH*_RS) ---------------------------

    def begin_recovery(self, address: int, level: int) -> bool:
        """Coordinator callback when ``address`` is declared dead.

        Returns whether the file can reconstruct the bucket's records
        (and serve degraded reads meanwhile).  Plain LH* has no
        parity: the data is unavailable until the node reboots.
        """
        return False

    def finish_recovery(self, address: int) -> None:
        """Coordinator callback when the spare reports itself
        installed (parity layers close their recovery span here)."""

    def recovery_group(self, address: int) -> list[int]:
        """The addresses whose failures interact with ``address``'s —
        the bucket group of the parity layer; just the bucket itself
        in plain LH*."""
        return [address]

    def degraded_read_target(self, address: int) -> Hashable | None:
        """The node serving degraded reads for dead ``address``
        (the group's first parity bucket in LH*_RS; none here)."""
        return None

    def degraded_dead_set(
        self, address: int, dead: dict[int, tuple[int, bool]]
    ) -> list[int]:
        """The dead addresses a degraded read of ``address`` must
        solve around: itself and its down :meth:`recovery_group`
        members."""
        members = self.recovery_group(address)
        return sorted({m for m in members if m in dead} | {address})


class LHStarFile(FileView):
    """Synchronous facade over one LH* file on a simulated network.

    >>> file = LHStarFile()
    >>> file.insert(7, b"hello\\x00")
    >>> file.lookup(7)
    b'hello\\x00'
    """

    def __init__(
        self,
        name: str = "lh",
        network: Network | None = None,
        bucket_capacity: int = 64,
        shrink: bool = False,
        merge_threshold: float = 0.4,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> None:
        super().__init__(
            name, network or Network(), bucket_capacity, shrink,
            merge_threshold, retry_policy,
        )
        self.coordinator = LHStarCoordinator(self)
        self.network.attach(self.coordinator)
        self.create_bucket(0, 0)
        self.clients: list[LHStarClient] = []
        self.client = self.new_client()

    # -- topology management -----------------------------------------------------

    def decommission_bucket(self, address: int) -> None:
        """Reap a retired tombstone after its image catch-up window:
        detach the node, so the address stops existing on the network.

        Refused while the bucket is live or still holds records.  An
        unbilled operator action (like crash/restore); call
        :meth:`sync_client_images` first — tombstone redirects carry
        no IAM, so client images never catch up with a shrink on
        their own, and a keyed operation aimed at a reaped address
        has nowhere to go.  On the live backend the hosting process
        can then be reaped too (see ``LiveNetwork.decommission``).
        """
        self.network.decommission(self.name, address)

    def sync_client_images(self) -> None:
        """Clamp every local client's private image to the
        authoritative ``(i, n)`` — the operator-side image catch-up
        that precedes :meth:`decommission_bucket`."""
        i, n = self.state
        for client in self.clients:
            client.i_image, client.n_image = i, n

    def leave(self, address: int) -> bool:
        """Gracefully migrate bucket ``address`` onto a fresh spare
        under the same network identity, online.

        The trigger is an unbilled operator action (like
        crash/restore); the migration itself is billed protocol
        traffic.  Returns whether a migration started (live,
        non-dead, in-range addresses only)."""
        started = self.network.site_leave(self.name, address)
        self.network.run()
        return started

    def new_client(self) -> LHStarClient:
        client = LHStarClient(self, len(self.clients))
        self.clients.append(client)
        self.network.attach(client)
        return client

    @property
    def state(self) -> tuple[int, int]:
        """The authoritative file state ``(i, n)``, as the network's
        coordinator holds it."""
        snap = self.network.coordinator_state(self.name)
        return snap["i"], snap["n"]

    @property
    def bucket_count(self) -> int:
        """Data buckets on the network, tombstones included."""
        return len(self.network.dump_buckets(self.name))

    @property
    def live_bucket_count(self) -> int:
        dump = self.network.dump_buckets(self.name)
        return sum(1 for info in dump.values() if not info["retired"])

    # -- synchronous operations ----------------------------------------------

    def insert(self, key: int, content: bytes) -> None:
        op = self.client.start_keyed("insert", key, content)
        self.network.run()
        self.client.take_reply(op)

    def lookup(self, key: int) -> bytes | None:
        op = self.client.start_keyed("lookup", key)
        self.network.run()
        reply = self.client.take_reply(op)
        return reply["content"] if reply["ok"] else None

    def delete(self, key: int) -> bool:
        op = self.client.start_keyed("delete", key)
        self.network.run()
        return self.client.take_reply(op)["ok"]

    def scan(
        self, matcher: ScanMatcher, request_size: int = HEADER_SIZE
    ) -> list[Any]:
        """Parallel content scan: returns every bucket's hits."""
        op = self.client.start_scan(matcher, request_size=request_size)
        self.network.run()
        return self.client.take_scan(op)

    def run_concurrent(
        self,
        operations: list[tuple],
        concurrency: int = 4,
    ) -> list:
        """Issue many keyed operations from ``concurrency`` clients,
        at most ``concurrency`` of them in flight at once.

        ``operations`` are ``("insert", key, content)``,
        ``("lookup", key)`` or ``("delete", key)`` tuples.  They run in
        windows of ``concurrency``: each client of the pool starts one
        operation, the network runs, and the replies are collected
        before the next window starts.  Within a window, splits,
        forwards and image adjustments interleave arbitrarily — the
        situation a real multi-client SDDS faces — but an overfull
        bucket sees at most ``concurrency`` inserts before the splits
        they report land, so a batch-loaded file grows like a
        put-loaded one.  Results return in operation order: None for
        inserts, content (or None) for lookups, bool for deletes.

        Ordering between operations in the same window is unspecified
        (they are concurrent).  A batch with an unknown operation kind
        is refused before any of it is sent.
        """
        if concurrency < 1:
            raise ValueError("concurrency must be positive")
        for operation in operations:
            if operation[0] not in ("insert", "lookup", "delete"):
                raise ValueError(
                    f"unknown operation kind {operation[0]!r}")
        while len(self.clients) < concurrency + 1:
            self.new_client()
        pool = self.clients[1:concurrency + 1]
        results = []
        for start in range(0, len(operations), concurrency):
            window = list(zip(pool, operations[start:start + concurrency]))
            ops = [client.start_keyed(*operation)
                   for client, operation in window]
            self.network.run()
            # Take every reply of the window before raising the first
            # failure, so no client keeps a stray reply.
            replies = []
            failure = None
            for client, op in zip(pool, ops):
                try:
                    replies.append(client.take_reply(op))
                except SDDSError as error:
                    failure = failure or error
            if failure is not None:
                raise failure
            for (__, operation), reply in zip(window, replies):
                kind = operation[0]
                if kind == "insert":
                    results.append(None)
                elif kind == "lookup":
                    results.append(reply["content"] if reply["ok"] else None)
                else:
                    results.append(reply["ok"])
        return results

    def all_records(self) -> list[Record]:
        """Direct (out-of-band) record dump, for tests and analysis:
        every bucket's records as the network's sites hold them."""
        return [
            record
            for info in self.network.dump_buckets(self.name).values()
            for record in info["records"]
        ]


def _hit_size(hit: Any) -> int:
    """Accounted wire size of one scan hit.

    Hit objects that know their encoded size expose a ``wire_size``
    attribute (e.g. :class:`~repro.core.search.SiteHit`); containers
    are accounted element-wise; bare scalars cost 8 bytes.
    """
    wire = getattr(hit, "wire_size", None)
    if wire is not None:
        return wire
    if isinstance(hit, (bytes, bytearray)):
        return len(hit)
    if isinstance(hit, (tuple, list)):
        return sum(_hit_size(element) for element in hit)
    return 8
