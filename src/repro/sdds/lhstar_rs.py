"""LH*_RS: high-availability LH* with Reed-Solomon parity.

Follows Litwin, Moussa, Schwarz (ACM TODS 2005): data buckets are
organised into *groups* of ``m`` consecutive addresses; each group has
``k`` parity buckets.  Records of the same *rank* (a stable slot index
inside their bucket) across the group's data buckets form a *record
group*; the parity buckets store ``k`` Reed-Solomon parity records per
record group, computed over GF(2^8) with a Cauchy generator matrix.
Any ``k`` unavailable buckets of a group (data or parity) can be
recovered from the survivors.

The implementation plugs into :class:`~repro.sdds.lhstar.LHStarFile`
through its bookkeeping hooks: every store/remove/move of a data record
emits *delta* messages to the group's parity buckets (the "Δ-record"
technique of the paper: parity is updated with the XOR-difference of
old and new content, scaled by the generator coefficient).  Parity
traffic therefore shows up in the simulator's message counters, exactly
like a real deployment.

:class:`ParityBookkeeping` owns the group layout (:meth:`group_of`,
:meth:`offset_of`, :meth:`member_address`, :meth:`members`) and the
erasure budget (:meth:`within_budget`); every other module asks it
instead of doing its own arithmetic.  One function, :func:`decode`,
solves the erasure system for up to ``k`` erased buckets of a group.
A parity bucket feeds it what its message gather collected (online
recovery, degraded reads and scans); the offline helpers
:meth:`LHStarRSFile.recover_buckets` and
:meth:`LHStarRSFile.degraded_lookup` feed it what they read
in-process.  :meth:`LHStarRSFile.verify_recovery` checks the
reconstruction bit-for-bit against the live buckets.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.errors import BucketUnavailableError
from repro.gf import GF2, Matrix, cauchy_matrix
from repro.net.simulator import Message, Network, Node
from repro.obs.metrics import inc as metric_inc
from repro.obs.trace import emit as obs_emit
from repro.obs.trace import span as obs_span
from repro.sdds.haystack import BucketHaystack
from repro.sdds.file import LHStarFile
from repro.sdds.protocol import (
    HEADER_SIZE,
    MAX_ESCALATIONS,
    ReplyCache,
    scan_reply,
)
from repro.sdds.records import RECORD_OVERHEAD, Record

_FIELD = GF2(8)

# Per-coefficient bytes.translate tables for fast scalar multiplication
# of byte strings in GF(2^8).
_MUL_TABLES: dict[int, bytes] = {}


def _mul_table(coefficient: int) -> bytes:
    table = _MUL_TABLES.get(coefficient)
    if table is None:
        table = bytes(_FIELD.mul(coefficient, x) for x in range(256))
        _MUL_TABLES[coefficient] = table
    return table


def _scale(coefficient: int, data: bytes) -> bytes:
    """coefficient * data, bytewise over GF(2^8)."""
    if coefficient == 0:
        return bytes(len(data))
    if coefficient == 1:
        return data
    return data.translate(_mul_table(coefficient))


def _xor(a: bytes, b: bytes) -> bytes:
    """XOR of two byte strings, zero-extending the shorter one."""
    if len(a) < len(b):
        a, b = b, a
    return bytes(x ^ y for x, y in zip(a, b)) + a[len(b):]


def generator_matrix(m: int, k: int) -> Matrix:
    """The k x m Cauchy generator used for the group parity code."""
    if m + k > _FIELD.order:
        raise ValueError("group too large for GF(2^8) parity")
    return cauchy_matrix(
        _FIELD, xs=list(range(m, m + k)), ys=list(range(m))
    )


def decode(
    generator: Matrix,
    erased: list[int],
    ranks: Iterable[int],
    meta: dict[int, tuple[Sequence[int | None], Sequence[int]]],
    contents: dict[int, dict[int, bytes]],
    payloads: dict[int, dict[int, bytes]],
) -> dict[int, dict[int, bytes]]:
    """Solve one group's erasure system: the lost contents of the
    sorted ``erased`` offsets, rank by rank.

    ``meta`` gives each rank's parity metadata (rids and lengths per
    offset), ``contents`` the survivors' record contents (offset ->
    rank -> bytes; an absent record is the zero codeword) and
    ``payloads`` the payloads of parity buckets ``0 .. len(erased)-1``
    (index -> rank -> bytes) — any that many rows of a Cauchy
    generator give an invertible system.  Returns offset -> rank ->
    content, truncated to its recorded length, for every erased offset
    holding a record at that rank.
    """
    rows = range(len(erased))
    solver = Matrix(
        _FIELD,
        [[generator.rows[p][offset] for offset in erased] for p in rows],
    ).inverse()
    decoded: dict[int, dict[int, bytes]] = {offset: {} for offset in erased}
    for rank in ranks:
        rids, lengths = meta[rank]
        # Right-hand side: parity payload minus surviving contributions.
        rhs: list[bytes] = []
        for p in rows:
            acc = payloads.get(p, {}).get(rank, b"")
            for offset, entries in contents.items():
                content = entries.get(rank, b"")
                if content:
                    acc = _xor(
                        acc, _scale(generator.rows[p][offset], content))
            rhs.append(acc)
        width = max(len(b) for b in rhs)
        rhs = [b + bytes(width - len(b)) for b in rhs]
        for column, offset in enumerate(erased):
            if rids[offset] is None:
                continue
            content = bytes(width)
            for p in rows:
                content = _xor(
                    content, _scale(solver.rows[column][p], rhs[p]))
            decoded[offset][rank] = content[:lengths[offset]]
    return decoded


class _ParitySlot:
    """Parity state of one record group (one rank) at one parity bucket."""

    __slots__ = ("payload", "rids", "lengths")

    def __init__(self, m: int) -> None:
        self.payload = b""
        self.rids: list[int | None] = [None] * m
        self.lengths: list[int] = [0] * m


class _ParityGather:
    """One in-flight message-based reconstruction at a parity bucket.

    Snapshots the parity metadata (rids and lengths per rank) at
    start, then collects the survivors' record contents
    (``group_data``) and the sibling parity payloads
    (``parity_data``) until every fetch is answered; the initiating
    request is replayed from ``request`` at completion.
    """

    __slots__ = ("kind", "request", "dead_offsets", "target_offset",
                 "ranks", "meta", "expected", "contents", "payloads",
                 "waiting_offsets", "waiting_parity", "timer",
                 "escalations")

    def __init__(
        self,
        kind: str,
        request: dict[str, Any],
        dead_offsets: list[int],
        target_offset: int,
        ranks: list[int],
        meta: dict[int, tuple[tuple[int | None, ...], tuple[int, ...]]],
    ) -> None:
        self.kind = kind
        self.request = request
        self.dead_offsets = dead_offsets
        self.target_offset = target_offset
        self.ranks = ranks
        self.meta = meta
        self.expected = 0
        #: Surviving data contents: offset -> {rank: bytes}.
        self.contents: dict[int, dict[int, bytes]] = {}
        #: Parity payloads: parity index -> {rank: bytes}.
        self.payloads: dict[int, dict[int, bytes]] = {}
        #: Sources still owing an answer: data-bucket offsets
        #: (``group_data``) and parity indexes (``parity_data``).
        self.waiting_offsets: set[int] = set()
        self.waiting_parity: set[int] = set()
        #: Liveness timer: a survivor that crashed after the fetch
        #: went out would otherwise wedge the gather forever.
        self.timer: Any = None
        self.escalations = 0


class ParityBucket(Node):
    """One parity bucket: applies delta updates, serves degraded
    reads and drives message-based recovery gathers."""

    def __init__(
        self, file: "LHStarRSFile", group: int, index: int
    ) -> None:
        super().__init__(file.parity_id(group, index))
        self.file = file
        self.group = group
        self.index = index
        self.slots: dict[int, _ParitySlot] = {}
        self._gathers: dict[int, _ParityGather] = {}
        self._gather_ids = itertools.count()
        # Degraded-read idempotence under client retransmission:
        # finished replies per request id, replayed verbatim; plus the
        # set of requests whose gather is still in flight (duplicates
        # are absorbed — the reply is already on its way).
        self.replies = ReplyCache(self, group=group)
        self._inflight: set[tuple[Hashable, int, int]] = set()

    def handle(self, message: Message) -> None:
        kind = message.kind
        if kind == "parity_delta":
            self._handle_delta(message)
        elif kind in ("degraded_lookup", "degraded_scan"):
            self._handle_degraded(message)
        elif kind == "recover":
            self._start_gather(kind, message.payload)
        elif kind == "parity_fetch":
            self._handle_parity_fetch(message)
        elif kind in ("group_data", "parity_data"):
            self._handle_gather_data(message)
        elif kind in ("bucket_down", "bucket_up", "bucket_recovered"):
            self._handle_liveness(kind, message.payload)
        else:
            raise ValueError(
                f"parity bucket: unknown message kind {kind!r}"
            )

    def _handle_delta(self, message: Message) -> None:
        payload = message.payload
        rank = payload["rank"]
        offset = payload["offset"]      # data bucket position in the group
        slot = self.slots.get(rank)
        if slot is None:
            slot = _ParitySlot(self.file.group_size)
            self.slots[rank] = slot
        coefficient = self.file.generator.rows[self.index][offset]
        slot.payload = _xor(slot.payload, _scale(coefficient, payload["delta"]))
        slot.rids[offset] = payload["rid"]
        slot.lengths[offset] = payload["length"]

    # -- degraded reads and recovery gathers ---------------------------------

    def _request_id(
        self, payload: dict[str, Any]
    ) -> tuple[Hashable, int, int]:
        return (payload["client"], payload["op"], payload["address"])

    def _handle_degraded(self, message: Message) -> None:
        request = self._request_id(message.payload)
        if self.replies.replay(request, message):
            return
        if request in self._inflight:
            return  # gather already running; its reply is coming
        self._inflight.add(request)
        self._start_gather(message.kind, message.payload)

    def _start_gather(self, kind: str, payload: dict[str, Any]) -> None:
        """Begin reconstructing the dead target bucket's records.

        Everything happens via messages: ``group_fetch`` to each
        surviving data bucket for the ranks it contributes to, and
        ``parity_fetch`` to the sibling parity buckets whose payloads
        the erasure system needs.  Nothing here reads another node's
        record store directly.
        """
        if not self.file.within_budget(payload["dead"]):
            # Clients and the coordinator check the budget before they
            # ask; a request past it is a protocol bug.
            raise ValueError(
                f"group {self.group}: erasures {payload['dead']} "
                f"exceed parity count {self.file.parity_count}"
            )
        dead_offsets = sorted({
            self.file.offset_of(a) for a in payload["dead"]
        })
        target_offset = self.file.offset_of(payload["address"])
        if kind == "degraded_lookup":
            key = payload["key"]
            rank = next((r for r, slot in self.slots.items()
                         if slot.rids[target_offset] == key), None)
            if rank is None:
                # The parity metadata knows every live record of the
                # group: no rank means the key does not exist there.
                self._finish_lookup(payload, None)
                return
            ranks = [rank]
        else:
            ranks = sorted(
                r for r, slot in self.slots.items()
                if slot.rids[target_offset] is not None
            )
        meta = {
            r: (tuple(self.slots[r].rids), tuple(self.slots[r].lengths))
            for r in ranks
        }
        gather = _ParityGather(kind, payload, dead_offsets,
                               target_offset, ranks, meta)
        if not ranks:
            self._complete(gather)  # the dead bucket held no records
            return
        gid = next(self._gather_ids)
        gather.payloads[self.index] = {
            r: self.slots[r].payload for r in ranks
        }
        for offset, address in enumerate(self.file.members(self.group)):
            if offset in dead_offsets:
                continue
            entries = {
                r: meta[r][0][offset] for r in ranks
                if meta[r][0][offset] is not None
            }
            if not entries:
                # Nothing of this member in the wanted ranks — which
                # covers addresses never created or already reaped.
                continue
            gather.expected += 1
            gather.waiting_offsets.add(offset)
            self.send(
                self.file.bucket_id(address),
                "group_fetch",
                {"gather": gid, "offset": offset, "entries": entries},
                size=HEADER_SIZE + 8 * len(entries),
            )
        for index in range(len(dead_offsets)):
            if index == self.index:
                continue
            gather.expected += 1
            gather.waiting_parity.add(index)
            self.send(
                self.file.parity_id(self.group, index),
                "parity_fetch",
                {"gather": gid, "ranks": ranks},
                size=HEADER_SIZE + 8 * len(ranks),
            )
        if gather.expected == 0:
            self._complete(gather)
        else:
            self._gathers[gid] = gather
            self._arm_gather_timer(gid, gather)

    def _arm_gather_timer(self, gid: int, gather: _ParityGather) -> None:
        policy = self.file.retry_policy
        gather.timer = self.network.schedule(
            policy.delay(gather.escalations),
            lambda: self._gather_timeout(gid),
            owner=self.node_id,
        )

    def _gather_timeout(self, gid: int) -> None:
        """A fetch went unanswered: a survivor may have crashed after
        the gather started.  Escalate the silent data buckets to the
        coordinator (it probes, declares, and tells us via
        ``bucket_down``/``bucket_up``) and re-poke silent parity
        siblings; give up after the escalation budget so a genuinely
        unrecoverable gather fails loudly instead of leaking."""
        gather = self._gathers.get(gid)
        if gather is None:
            return
        gather.escalations += 1
        if gather.escalations > MAX_ESCALATIONS:
            self._drop_gather(gid, gather)
            obs_emit("lh.gather_abandoned", file=self.file.name,
                     group=self.group, kind=gather.kind)
            metric_inc("lh.gather_abandoned")
            return
        for offset in sorted(gather.waiting_offsets):
            self.send(
                self.file.coordinator_id,
                "suspect",
                {"address": self.file.member_address(self.group,
                                                     offset),
                 "client": self.node_id},
                size=HEADER_SIZE,
            )
        for index in sorted(gather.waiting_parity):
            self.send(
                self.file.parity_id(self.group, index),
                "parity_fetch",
                {"gather": gid, "ranks": gather.ranks},
                size=HEADER_SIZE + 8 * len(gather.ranks),
            )
        self._arm_gather_timer(gid, gather)

    def _handle_liveness(
        self, kind: str, payload: dict[str, Any]
    ) -> None:
        """Coordinator verdict on a survivor we suspected: restart
        every gather stalled on it — with an enlarged dead set when
        the survivor is confirmed dead, or simply re-fetching when it
        is alive again (rebooted or recovered)."""
        address = payload["address"]
        offset = self.file.offset_of(address)
        for gid in list(self._gathers):
            gather = self._gathers.get(gid)
            if gather is None or offset not in gather.waiting_offsets:
                continue
            request = dict(gather.request)
            if kind == "bucket_down":
                dead = set(request["dead"]) | {address}
                dead.update(payload.get("group_dead", {}))
                if not self.file.within_budget(dead):
                    # More erasures than the code can solve: drop the
                    # gather; the requester's own retries will surface
                    # a typed error once escalation runs out.
                    self._drop_gather(gid, gather)
                    continue
                request["dead"] = sorted(dead)
            del self._gathers[gid]
            if gather.timer is not None:
                gather.timer.cancel()
            self._start_gather(gather.kind, request)

    def _drop_gather(self, gid: int, gather: _ParityGather) -> None:
        del self._gathers[gid]
        if gather.timer is not None:
            gather.timer.cancel()
        if gather.kind != "recover":
            self._inflight.discard(self._request_id(gather.request))

    def _handle_parity_fetch(self, message: Message) -> None:
        payload = message.payload
        payloads = {}
        for rank in payload["ranks"]:
            slot = self.slots.get(rank)
            payloads[rank] = b"" if slot is None else slot.payload
        self.send(
            message.src,
            "parity_data",
            {
                "gather": payload["gather"],
                "index": self.index,
                "payloads": payloads,
            },
            size=HEADER_SIZE + sum(
                8 + len(data) for data in payloads.values()
            ),
        )

    def _handle_gather_data(self, message: Message) -> None:
        payload = message.payload
        gather = self._gathers.get(payload["gather"])
        if gather is None:
            return  # late data for a gather already solved
        if message.kind == "group_data":
            if payload["offset"] not in gather.waiting_offsets:
                return  # duplicate answer (re-poked source)
            gather.waiting_offsets.discard(payload["offset"])
            gather.contents[payload["offset"]] = payload["entries"]
        else:
            if payload["index"] not in gather.waiting_parity:
                return  # duplicate answer (re-poked source)
            gather.waiting_parity.discard(payload["index"])
            gather.payloads[payload["index"]] = payload["payloads"]
        gather.expected -= 1
        if gather.expected == 0:
            self._drop_gather(payload["gather"], gather)
            self._complete(gather)

    def _complete(self, gather: _ParityGather) -> None:
        recovered = decode(
            self.file.generator, gather.dead_offsets, gather.ranks,
            gather.meta, gather.contents, gather.payloads,
        )[gather.target_offset]
        request = gather.request
        if gather.kind == "degraded_lookup":
            self._finish_lookup(request, recovered.get(gather.ranks[0]))
            return
        records = [
            Record(gather.meta[rank][0][gather.target_offset], content)
            for rank, content in sorted(recovered.items())
        ]
        if gather.kind == "degraded_scan":
            self._finish_scan(request, records)
        else:
            self._install(request, records)

    def _reply(
        self,
        payload: dict[str, Any],
        kind: str,
        reply: dict[str, Any],
        size: int,
    ) -> None:
        request = self._request_id(payload)
        self._inflight.discard(request)
        self.replies.send(request, payload["client"], kind, reply, size)

    def _finish_lookup(
        self, payload: dict[str, Any], content: bytes | None
    ) -> None:
        self._reply(
            payload,
            "reply",
            {
                "op": payload["op"],
                "ok": content is not None,
                "content": content,
                "degraded": True,
            },
            HEADER_SIZE + (
                0 if content is None else RECORD_OVERHEAD + len(content)
            ),
        )

    def _finish_scan(
        self, payload: dict[str, Any], records: list[Record]
    ) -> None:
        hits = payload["matcher"].match_bucket(
            BucketHaystack.from_segments(
                (record.rid, record.content) for record in records
            )
        )
        self._reply(payload, "scan_reply", *scan_reply(
            payload["op"], payload["address"], payload["level"], hits, [],
            degraded=True,
        ))

    def _install(
        self, payload: dict[str, Any], records: list[Record]
    ) -> None:
        """Ship the reconstructed records to the pending spare."""
        self.send(
            self.file.bucket_id(payload["address"]),
            "recover_install",
            {"records": records},
            size=HEADER_SIZE + sum(r.wire_size for r in records),
        )


class ParityBookkeeping:
    """The parity side of a :class:`~repro.sdds.lhstar.FileView`.

    A mixin over any file view: the group layout, the erasure budget
    and the Cauchy generator, the per-bucket rank tables, the Δ-record
    traffic behind the four bookkeeping hooks, and the crash-recovery
    hooks.  Rank tables live wherever the data bucket is hosted, so
    :class:`LHStarRSFile` on the simulator and the site views of the
    live backend (:mod:`repro.net.serve`) run this one definition;
    only :meth:`~repro.sdds.lhstar.FileView.create_bucket` — the one
    step of :meth:`begin_recovery` that creates a node — differs by
    role.
    """

    def __init__(self, *args: Any, group_size: int, parity_count: int,
                 **kwargs: Any) -> None:
        if group_size < 2:
            raise ValueError("group size must be at least 2")
        if parity_count < 1:
            raise ValueError("parity count must be at least 1")
        self.group_size = group_size
        self.parity_count = parity_count
        self.generator = generator_matrix(group_size, parity_count)
        # Rank bookkeeping per hosted data bucket address, created on
        # first use.  Tables outlive a spare swap: the parity buckets
        # still hold the dead bucket's contributions under the
        # original ranks, and the reconstructed records are
        # re-installed without re-emitting.
        self._ranks: dict[int, dict[int, int]] = {}
        self._free_ranks: dict[int, list[int]] = {}
        self._next_rank: dict[int, int] = {}
        # Open lh.recover spans, one per bucket under reconstruction.
        self._recovery_spans: dict[int, Any] = {}
        super().__init__(*args, **kwargs)

    @property
    def rs(self) -> dict[str, int]:
        return {"group_size": self.group_size,
                "parity_count": self.parity_count}

    # -- identifiers ---------------------------------------------------------

    def parity_id(self, group: int, index: int) -> Hashable:
        return ("parity", self.name, group, index)

    # -- group geometry: the only arithmetic on ``group_size`` ----------------

    def group_of(self, address: int) -> int:
        return address // self.group_size

    def offset_of(self, address: int) -> int:
        return address % self.group_size

    def member_address(self, group: int, offset: int) -> int:
        """The data bucket address at ``offset`` of ``group``; parity
        ``(group, index)`` is hosted with member ``index`` on the live
        backend."""
        return group * self.group_size + offset

    def members(self, group: int) -> list[int]:
        """The data bucket addresses of ``group``, by offset."""
        return [self.member_address(group, offset)
                for offset in range(self.group_size)]

    def within_budget(self, erased: Iterable[int]) -> bool:
        """Whether a group can lose the members at addresses
        ``erased`` together and still rebuild them: the code solves
        for at most ``parity_count`` erasures."""
        return len(set(erased)) <= self.parity_count

    # -- rank management ---------------------------------------------------------

    def _assign_rank(self, address: int, rid: int) -> int:
        ranks = self._ranks.setdefault(address, {})
        if rid in ranks:
            return ranks[rid]
        free = self._free_ranks.setdefault(address, [])
        if free:
            rank = heapq.heappop(free)
        else:
            rank = self._next_rank.get(address, 0)
            self._next_rank[address] = rank + 1
        ranks[rid] = rank
        return rank

    def _release_rank(self, address: int, rid: int) -> int:
        rank = self._ranks[address].pop(rid)
        heapq.heappush(self._free_ranks[address], rank)
        return rank

    # -- parity traffic ----------------------------------------------------------

    def _send_delta(
        self,
        address: int,
        rank: int,
        rid: int | None,
        delta: bytes,
        length: int,
    ) -> None:
        group = self.group_of(address)
        offset = self.offset_of(address)
        for index in range(self.parity_count):
            self.network.send(
                self.bucket_id(address),
                self.parity_id(group, index),
                "parity_delta",
                {
                    "rank": rank,
                    "offset": offset,
                    "rid": rid,
                    "delta": delta,
                    "length": length,
                },
                size=HEADER_SIZE + len(delta),
            )

    # -- FileView hooks ---------------------------------------------------------

    def _register(self, address: int, record: Record,
                  old: Record | None) -> None:
        """``record`` now sits at ``address`` (over ``old``): give it
        a rank and fold the content difference into the parity."""
        rank = self._assign_rank(address, record.rid)
        delta = _xor(record.content, old.content if old else b"")
        self._send_delta(address, rank, record.rid, delta,
                         len(record.content))

    def on_store(self, address: int, record: Record, old: Record | None) -> None:
        super().on_store(address, record, old)
        self._register(address, record, old)

    def on_remove(self, address: int, record: Record) -> None:
        super().on_remove(address, record)
        rank = self._release_rank(address, record.rid)
        self._send_delta(address, rank, None, record.content, 0)

    def on_move(self, old: int, new: int, record: Record) -> None:
        """Source-side half of a migration: release the rank and
        cancel the parity contribution.  A record merely *in transit*
        through this address (a misfit re-ship that was never stored
        here) has no rank and owes no delta.  The destination-side
        half runs in :meth:`on_absorb` when the record is stored —
        possibly on a different site."""
        super().on_move(old, new, record)
        ranks = self._ranks.get(old)
        rank = None if ranks is None else ranks.pop(record.rid, None)
        if rank is None:
            return
        heapq.heappush(self._free_ranks[old], rank)
        self._send_delta(old, rank, None, record.content, 0)

    def on_absorb(self, address: int, record: Record, old: Record | None) -> None:
        super().on_absorb(address, record, old)
        self._register(address, record, old)

    # -- online crash recovery (FileView hooks) ---------------------------------

    def recovery_group(self, address: int) -> list[int]:
        return [member for member in self.members(self.group_of(address))
                if member in self.buckets]

    def degraded_read_target(self, address: int) -> Hashable:
        return self.parity_id(self.group_of(address), 0)

    def begin_recovery(self, address: int, level: int) -> bool:
        """Launch the online reconstruction of a dead bucket.

        Puts a fresh pending spare under the dead bucket's network
        identity (:meth:`~repro.sdds.lhstar.FileView.create_bucket`,
        unbilled — a local swap, or a control verb to the hosting
        site) and asks the group's first parity bucket, over the
        billed data plane, to gather survivor contents and sibling
        parity payloads, solve the erasure system, and ship the
        result as ``recover_install``.  Returns False — unrecoverable
        — when the group already has more failures than parity.
        """
        coordinator = self.network.nodes[self.coordinator_id]
        dead = self.degraded_dead_set(address, coordinator.dead)
        if not self.within_budget(dead):
            obs_emit("lh.recover_refused", file=self.name,
                     bucket=address, dead=dead)
            return False
        group = self.group_of(address)
        span = obs_span("lh.recover", network=self.network,
                        file=self.name, bucket=address, group=group)
        span.__enter__()
        self._recovery_spans[address] = span
        metric_inc("lh.recover")
        self.create_bucket(address, level, pending=True)
        self.network.send(
            self.coordinator_id,
            self.parity_id(group, 0),
            "recover",
            {"address": address, "dead": dead},
            size=HEADER_SIZE,
        )
        return True

    def finish_recovery(self, address: int) -> None:
        span = self._recovery_spans.pop(address, None)
        if span is not None:
            span.__exit__(None, None, None)


def gate_state(network: Any, name: str) -> dict[str, Any]:
    """What :meth:`LHStarRSFile.crash_gate` judges file ``name`` by,
    read through the operator verbs both backends answer: the
    coordinator's ``i``, ``n`` and ``dead``, plus the ``pending`` and
    ``retired`` bucket addresses."""
    state = network.coordinator_state(name)
    dump = network.dump_buckets(name)
    for flag in ("pending", "retired"):
        state[flag] = {address for address, info in dump.items()
                       if info[flag]}
    return state


class LHStarRSFile(ParityBookkeeping, LHStarFile):
    """An LH* file with per-group Reed-Solomon parity buckets.

    ``group_size`` is the paper's ``m`` (data buckets per group) and
    ``parity_count`` its ``k`` (simultaneously recoverable buckets).

    >>> file = LHStarRSFile(group_size=4, parity_count=2)
    >>> file.insert(11, b"payload\\x00")
    >>> sorted(file.recover_buckets([0])[0]) == [
    ...     rid for rid in file.buckets[0].records]
    True
    """

    def __init__(
        self,
        name: str = "lhrs",
        network: Network | None = None,
        bucket_capacity: int = 64,
        group_size: int = 4,
        parity_count: int = 2,
        **file_options,
    ) -> None:
        self.parity_buckets: dict[tuple[int, int], ParityBucket] = {}
        super().__init__(name=name, network=network,
                         bucket_capacity=bucket_capacity,
                         group_size=group_size,
                         parity_count=parity_count, **file_options)

    # -- topology -------------------------------------------------------------

    def create_bucket(self, address: int, level: int,
                      pending: bool = False):
        bucket = super().create_bucket(address, level, pending=pending)
        group = self.group_of(address)
        for index in range(self.parity_count):
            if (group, index) not in self.parity_buckets:
                parity = ParityBucket(self, group, index)
                self.parity_buckets[(group, index)] = parity
                self.network.attach(parity)
        return bucket

    def crash_gate(
        self, state: Callable[[], dict[str, Any]] | None = None
    ) -> Callable[[Hashable], bool]:
        """A veto callable for :class:`~repro.net.faults.CrashFaultModel`.

        Only a live data bucket inside the file may crash — never a
        retired tombstone, a pending split target or spare, or a bucket
        declared dead: killing one would wedge an in-flight split or
        recovery rather than model an independent failure.  And the
        group's dead, pending and crashed members plus this crash must
        stay within the parity count — the regime the paper's
        k-availability guarantee covers.

        ``state`` returns the :func:`gate_state` to judge by, read at
        each crash by default.  A gate is asked inside ``network.run``,
        where the live backend can make no control roundtrip, so the
        chaos runner passes the state it read between ops instead.
        """
        read = state or (lambda: gate_state(self.network, self.name))

        def gate(node_id: Hashable) -> bool:
            if not (isinstance(node_id, tuple) and len(node_id) == 3
                    and node_id[0] == "bucket"
                    and node_id[1] == self.name):
                return False
            address, snap = node_id[2], read()
            dead, pending = snap["dead"], snap["pending"]
            if (address >= (1 << snap["i"]) + snap["n"]
                    or address in dead or address in pending
                    or address in snap["retired"]):
                return False
            return self.within_budget(
                member for member in self.members(self.group_of(address))
                if member == address or member in dead
                or member in pending
                or self.network.is_crashed(self.bucket_id(member))
            )

        return gate

    # -- recovery --------------------------------------------------------------

    def recover_buckets(
        self, addresses: list[int]
    ) -> dict[int, dict[int, bytes]]:
        """Reconstruct the records of ``addresses`` as if they were lost.

        All addresses must belong to the same group, and there may be
        at most ``parity_count`` of them.  Returns, per address, a dict
        ``rid -> content`` rebuilt purely from the surviving data
        buckets and the parity buckets.
        """
        if not addresses:
            return {}
        groups = {self.group_of(a) for a in addresses}
        if len(groups) != 1:
            raise ValueError("can only recover one group at a time")
        group = groups.pop()
        if not self.within_budget(addresses):
            raise ValueError(
                f"group {group}: erasures {sorted(set(addresses))} "
                f"exceed parity count {self.parity_count}"
            )
        if len(set(addresses)) != len(addresses):
            raise ValueError("duplicate addresses in recovery set")
        slots = self.parity_buckets[(group, 0)].slots
        # Ranks present anywhere in the group, as recorded by parity 0.
        decoded = self._decode_in_process(
            group, sorted(self.offset_of(a) for a in addresses),
            sorted(slots))
        return {
            address: {
                slots[rank].rids[self.offset_of(address)]: content
                for rank, content
                in decoded[self.offset_of(address)].items()
            }
            for address in addresses
        }

    def degraded_lookup(self, rid: int) -> bytes | None:
        """Read one record *as if its data bucket were unavailable*.

        The LH*_RS degraded-read path: locate the record's group and
        rank through the parity metadata, then reconstruct just that
        record group from the surviving data buckets plus one parity
        bucket — without touching the record's home bucket at all.
        Returns None when no parity bucket knows the RID.
        """
        from repro.sdds.hashing import client_address
        address = client_address(rid, self.coordinator.i,
                                 self.coordinator.n)
        group = self.group_of(address)
        offset = self.offset_of(address)
        parity0 = self.parity_buckets.get((group, 0))
        if parity0 is None:
            return None
        rank = next((r for r, slot in parity0.slots.items()
                     if slot.rids[offset] == rid), None)
        if rank is None:
            return None
        return self._decode_in_process(group, [offset], [rank])[offset][rank]

    def _decode_in_process(
        self, group: int, erased: list[int], ranks: list[int]
    ) -> dict[int, dict[int, bytes]]:
        """:func:`decode` the ``erased`` offsets of ``group`` at
        ``ranks`` from what this process holds: parity 0's metadata,
        the surviving buckets' records and the parity payloads."""
        parities = [self.parity_buckets[(group, p)]
                    for p in range(len(erased))]
        slots = parities[0].slots
        meta = {r: (slots[r].rids, slots[r].lengths) for r in ranks}
        contents: dict[int, dict[int, bytes]] = {}
        for offset, address in enumerate(self.members(group)):
            bucket = self.buckets.get(address)
            if offset in erased or bucket is None:
                continue
            contents[offset] = {
                r: bucket.records[meta[r][0][offset]].content
                for r in ranks if meta[r][0][offset] in bucket.records
            }
        payloads = {
            p: {r: parity.slots[r].payload
                for r in ranks if r in parity.slots}
            for p, parity in enumerate(parities)
        }
        return decode(self.generator, erased, ranks, meta, contents,
                      payloads)

    def verify_recovery(self, addresses: list[int]) -> bool:
        """Check that recovery reproduces the live buckets exactly.

        Raises :class:`~repro.errors.BucketUnavailableError` when an
        address has no live bucket to verify against (it crashed, or
        the file never grew that far) — historically this surfaced as
        a bare ``KeyError`` from the bucket map.
        """
        # Liveness check first: recover_buckets would otherwise die on
        # a bare KeyError looking up a parity group that never existed.
        for address in addresses:
            if self.buckets.get(address) is None:
                raise BucketUnavailableError(
                    f"bucket {address} has no live instance to verify "
                    "the reconstruction against"
                )
        recovered = self.recover_buckets(addresses)
        for address in addresses:
            bucket = self.buckets[address]
            live = {
                rid: record.content
                for rid, record in bucket.records.items()
            }
            if recovered[address] != live:
                return False
        return True
