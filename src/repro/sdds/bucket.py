"""The LH* bucket server: one linear-hash bucket's records, key
forwarding, scans, splits and merges."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.simulator import Message, Node
from repro.obs.metrics import inc as metric_inc
from repro.obs.metrics import observe as metric_observe
from repro.obs.trace import emit as obs_emit
from repro.sdds.hashing import forward_address
from repro.sdds.haystack import BucketHaystack
from repro.sdds.protocol import HEADER_SIZE, ReplyCache, scan_reply
from repro.sdds.records import Record

if TYPE_CHECKING:
    from repro.sdds.file import LHStarFile


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
            reply, size = scan_reply(message.payload["op"], self.address,
                                     None, [], [])
            self.send(message.payload["client"], "scan_reply", reply,
                      size=size)
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
        # ``children`` (who answers for the rest of our presumed range)
        # rides in the header allowance; lets the client retry
        # precisely.
        reply, size = scan_reply(payload["op"], self.address, self.level,
                                 hits, children)
        self.replies.send((payload["client"], payload["op"]),
                          payload["client"], "scan_reply", reply, size)

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
