"""The LH* client: a private, possibly stale file image ``(i', n')``
that converges via Image Adjustment Messages piggybacked on forwarded
operations, and one :class:`Operation` record per open operation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from repro.errors import (
    BucketUnavailableError,
    OperationPendingError,
    SDDSError,
)
from repro.net.faults import RetryExhaustedError
from repro.net.simulator import Message, Node, Timer
from repro.obs.metrics import inc as metric_inc
from repro.obs.trace import emit as obs_emit
from repro.sdds.hashing import (
    client_address,
    forward_address,
    image_adjust,
    scan_initial_level,
)
from repro.sdds.protocol import HEADER_SIZE, MAX_ESCALATIONS, ScanMatcher
from repro.sdds.records import RECORD_OVERHEAD

if TYPE_CHECKING:
    from repro.sdds.file import LHStarFile


@dataclass(slots=True, eq=False)
class Operation:
    """One client operation, keyed or scan, from its start to its take.

    A keyed operation (``insert``, ``lookup``, ``delete``) carries
    ``key`` and ``content``; ``mode`` tracks how it is routed:
    ``normal`` (straight at the image-addressed bucket), ``suspected``
    (waiting for the coordinator's verdict on the bucket),
    ``degraded`` (a lookup served through the parity layer while the
    home bucket is dead) or ``parked`` (an update waiting for recovery
    to finish).  ``address`` is the home bucket of the latest routing
    decision — the address a ``suspect`` report names.

    A ``scan`` carries its ``matcher``.  ``expected`` maps every bucket
    address known to owe a reply to the presumed level a
    (re)transmission to it must carry; it grows as replies report the
    children they forwarded to, so a retry can target exactly the
    buckets whose coverage is missing instead of re-broadcasting the
    scan.

    The operation is :attr:`done` once it holds its ``reply`` (a keyed
    reply payload; a scan's hits once coverage reached 1) or its
    ``error``: the :class:`BucketUnavailableError` or
    :class:`RetryExhaustedError` that taking it raises.
    """

    kind: str
    key: int | None = None
    content: bytes | None = None
    matcher: ScanMatcher | None = None
    request_size: int = HEADER_SIZE
    expected: dict[int, int] | None = None
    replied: set[int] | None = None
    coverage: Fraction | None = None
    hits: list[Any] | None = None
    attempt: int = 0
    timer: Timer | None = None
    mode: str = "normal"
    escalations: int = 0
    address: int | None = None
    reply: Any = None
    error: SDDSError | None = None

    @property
    def done(self) -> bool:
        return self.reply is not None or self.error is not None


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

    :attr:`operations` holds one :class:`Operation` per started and
    not yet taken operation, by op id; ``take_reply``/``take_scan``
    pop it once it is done.
    """

    def __init__(self, file: "LHStarFile", client_index: int = 0) -> None:
        super().__init__(file.client_id(client_index))
        self.file = file
        self.i_image = 0
        self.n_image = 0
        self._ops = itertools.count()
        self.operations: dict[int, Operation] = {}
        self.iam_count = 0
        #: Addresses the coordinator reported dead:
        #: address -> (true level, recoverable).  Entries are cleared
        #: by ``bucket_up``/``bucket_recovered`` notifications.
        self.dead: dict[int, tuple[int, bool]] = {}

    # -- message handling ----------------------------------------------------

    def handle(self, message: Message) -> None:
        kind = message.kind
        if kind == "reply":
            operation = self.operations.get(message.payload["op"])
            if operation is None or operation.done:
                # A duplicate/late reply for an operation that already
                # completed or was taken.
                return
            if operation.timer is not None:
                operation.timer.cancel()
            operation.reply = message.payload
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
            operation = self.operations.get(payload["op"])
            if operation is None:
                return  # late reply for a scan already taken
            address = payload["address"]
            if address in operation.replied:
                return  # redelivered reply: already accounted
            operation.replied.add(address)
            for child, level in payload.get("forwarded", ()):
                operation.expected.setdefault(child, level)
            operation.hits.extend(payload["hits"])
            if payload["level"] is not None:
                operation.coverage += Fraction(1, 1 << payload["level"])
            # Retired buckets reply with level None: zero coverage —
            # their merge target answers for the key range.
            if operation.coverage == 1:
                operation.reply = operation.hits
                if operation.timer is not None:
                    operation.timer.cancel()
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
        path, then scans still owing its coverage chase it again."""
        for op, operation in list(self.operations.items()):
            if (operation.kind != "scan" and not operation.done
                    and operation.address == address
                    and operation.mode != "normal"):
                self._route_keyed(op)
        for op, operation in list(self.operations.items()):
            if (operation.kind == "scan" and not operation.done
                    and address in operation.expected
                    and address not in operation.replied):
                self._scan_chase(op, address)

    # -- request initiation ---------------------------------------------------

    def start_keyed(self, kind: str, key: int, content: bytes | None = None) -> int:
        """Send a keyed operation using the current image; returns op id."""
        op = next(self._ops)
        self.operations[op] = Operation(kind, key, content)
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
        operation = self.operations[op]
        if operation.timer is not None:
            operation.timer.cancel()
            operation.timer = None
        policy = self.file.retry_policy
        address = self._resolve_home(operation.key)
        operation.address = address
        delay = (policy.delay(operation.attempt) if operation.attempt
                 else policy.timeout)
        if address not in self.dead:
            operation.mode = "normal"
            self._send_keyed(op, operation)
        elif not self._degradable(address):
            # No parity can serve or rebuild the bucket.  Ask the
            # coordinator to re-probe a few times — the node may have
            # rebooted since it was declared dead — then fail with a
            # typed error instead of burning retry budgets forever.
            if operation.escalations < MAX_ESCALATIONS:
                operation.escalations += 1
                operation.mode = "suspected"
                self._suspect(address, operation.kind)
            else:
                operation.error = self._unavailable(
                    f"{operation.kind} of key {operation.key}", address)
            return
        elif operation.kind == "lookup":
            # Ask the parity layer to serve the lookup for a dead bucket.
            operation.mode = "degraded"
            obs_emit("lh.degraded_lookup", file=self.file.name,
                     key=operation.key, bucket=address)
            metric_inc("lh.degraded_lookup")
            self.send(
                self.file.degraded_read_target(address),
                "degraded_lookup",
                {
                    "op": op,
                    "client": self.node_id,
                    "key": operation.key,
                    "address": address,
                    "dead": self.file.degraded_dead_set(address, self.dead),
                },
                size=HEADER_SIZE,
            )
        else:
            # Updates cannot touch state that is being reconstructed:
            # park until the coordinator announces the spare online.
            operation.mode = "parked"
            self.send(self.file.coordinator_id, "await_recovery",
                      {"address": address, "client": self.node_id},
                      size=HEADER_SIZE)
            return
        operation.timer = self.network.schedule(
            delay, lambda: self._keyed_timeout(op), owner=self.node_id
        )

    def _degradable(self, address: int) -> bool:
        """Whether the parity layer can serve dead ``address``: the
        coordinator declared it recoverable, and its group has lost no
        more members than the file's erasure budget."""
        return self.dead[address][1] and self.file.within_budget(
            self.file.degraded_dead_set(address, self.dead))

    def _unavailable(self, what: str, address: int) -> BucketUnavailableError:
        """The typed failure of ``what`` on a dead ``address`` that
        :meth:`_degradable` refused: the file has no parity, or the
        address's group has lost more members than its parity."""
        file = self.file
        if file.rs is None:
            reason = "the file has no parity to serve or recover it"
        else:
            reason = (
                f"its group {file.group_of(address)} has lost buckets "
                f"{file.degraded_dead_set(address, self.dead)}, more "
                f"than its {file.parity_count} parity buckets can rebuild")
        return BucketUnavailableError(
            f"{what}: bucket {address} is down and {reason}")

    def _suspect(self, address: int, kind: str) -> None:
        """Ask the coordinator whether ``address`` is alive; its
        verdict (``bucket_up`` or ``bucket_down``) re-routes the work."""
        obs_emit("lh.suspect", file=self.file.name, bucket=address,
                 kind=kind)
        metric_inc("lh.suspect")
        self.send(self.file.coordinator_id, "suspect",
                  {"address": address, "client": self.node_id},
                  size=HEADER_SIZE)

    def _send_keyed(self, op: int, operation: Operation) -> None:
        """(Re)transmit one keyed operation to its ``address``: the
        image address, chased by the routing layer past known-dead
        buckets — a dead bucket cannot forward, so the client aims past
        it itself.
        """
        payload: dict[str, Any] = {"key": operation.key, "op": op,
                                   "client": self.node_id}
        size = HEADER_SIZE
        if operation.kind == "insert":
            payload["content"] = operation.content
            size += RECORD_OVERHEAD + len(operation.content or b"")
        self.send(self.file.bucket_id(operation.address), operation.kind,
                  payload, size=size)

    def _keyed_timeout(self, op: int) -> None:
        operation = self.operations.get(op)
        if operation is None or operation.done:
            return
        policy = self.file.retry_policy
        operation.attempt += 1
        if operation.attempt > policy.max_retries:
            if operation.escalations >= MAX_ESCALATIONS:
                obs_emit("lh.retry_exhausted", file=self.file.name,
                         kind=operation.kind, key=operation.key)
                metric_inc("lh.retry_exhausted")
                operation.error = RetryExhaustedError(
                    f"{operation.kind} of key {operation.key} got no "
                    f"reply after {policy.max_retries} retries")
                return
            # A whole retry budget went unanswered: stop shouting at
            # the bucket and ask the coordinator whether it is alive.
            # No timer — the coordinator always answers (bucket_up or
            # bucket_down), and either re-routes this operation.
            operation.escalations += 1
            operation.attempt = 0
            operation.mode = "suspected"
            self._suspect(operation.address, operation.kind)
            return
        self.network.stats.retries += 1
        obs_emit("lh.retry", file=self.file.name, kind=operation.kind,
                 key=operation.key, attempt=operation.attempt)
        metric_inc("lh.retry")
        self._route_keyed(op)

    def start_scan(self, matcher: ScanMatcher, request_size: int = HEADER_SIZE) -> int:
        """Broadcast a scan to every bucket in the image; returns op id."""
        op = next(self._ops)
        known = (1 << self.i_image) + self.n_image
        expected = {
            address: scan_initial_level(
                address, self.i_image, self.n_image
            )
            for address in range(known)
        }
        operation = Operation(
            "scan", matcher=matcher, request_size=request_size,
            expected=dict(expected), replied=set(), coverage=Fraction(0),
            hits=[],
        )
        self.operations[op] = operation
        for address, level in expected.items():
            if address in self.dead:
                self._scan_chase(op, address)
            else:
                self._send_scan(op, address, level)
        if not operation.done:
            operation.timer = self.network.schedule(
                self.file.retry_policy.timeout,
                lambda: self._scan_timeout(op),
                owner=self.node_id,
            )
        return op

    def _send_scan(self, op: int, address: int, level: int) -> None:
        operation = self.operations[op]
        self.send(
            self.file.bucket_id(address),
            "scan",
            {
                "op": op,
                "client": self.node_id,
                "matcher": operation.matcher,
                "level": level,
            },
            size=operation.request_size,
        )

    def _scan_chase(self, op: int, address: int) -> None:
        """(Re)request one bucket's missing coverage, routing around
        a known-dead address through the parity layer."""
        operation = self.operations[op]
        if address not in self.dead:
            self._send_scan(op, address, operation.expected[address])
            return
        if not self._degradable(address):
            # The bucket's key range is gone until a reboot: re-probe
            # through the coordinator a few times, then fail the scan
            # with a diagnosis instead of spinning on retries.
            if operation.escalations < MAX_ESCALATIONS:
                operation.escalations += 1
                self._suspect(address, "scan")
                return
            operation.error = self._unavailable(
                "scan cannot complete", address)
            if operation.timer is not None:
                operation.timer.cancel()
            return
        self._scan_cover_dead(op, address, self.dead[address][0])

    def _scan_cover_dead(
        self, op: int, address: int, true_level: int
    ) -> None:
        """Cover a dead bucket's presumed range: fan out to the
        children its live instance would have forwarded to, and ask
        the parity layer to reconstruct-and-scan the bucket's own
        records at its true level.  The coverage fractions still sum
        to 1 — the dead bucket's 2^-presumed weight is split exactly
        as a live forward chain would split it."""
        operation = self.operations[op]
        expected = operation.expected
        presumed = expected.get(address, true_level)
        level = presumed
        while level < true_level:
            child = address + (1 << level)
            level += 1
            if child not in expected:
                expected[child] = level
                self._scan_chase(op, child)
        expected[address] = true_level
        obs_emit("lh.degraded_scan", file=self.file.name,
                 bucket=address, level=true_level)
        metric_inc("lh.degraded_scan")
        self.send(
            self.file.degraded_read_target(address),
            "degraded_scan",
            {
                "op": op,
                "client": self.node_id,
                "matcher": operation.matcher,
                "address": address,
                "level": true_level,
                "dead": self.file.degraded_dead_set(address, self.dead),
            },
            size=operation.request_size,
        )

    def _scan_timeout(self, op: int) -> None:
        operation = self.operations.get(op)
        if operation is None or operation.done:
            return
        policy = self.file.retry_policy
        operation.attempt += 1
        missing = [
            address for address in operation.expected
            if address not in operation.replied
        ]
        if operation.attempt > policy.max_retries:
            if operation.escalations >= MAX_ESCALATIONS:
                obs_emit("lh.retry_exhausted", file=self.file.name,
                         kind="scan", op=op)
                metric_inc("lh.retry_exhausted")
                operation.error = RetryExhaustedError(
                    f"scan abandoned at coverage {operation.coverage} "
                    f"after {operation.attempt - 1} retry rounds")
                return
            # A full retry budget spent: suspect every bucket still
            # owing coverage; the coordinator's verdicts re-route.
            operation.escalations += 1
            operation.attempt = 0
            for address in missing:
                if address in self.dead:
                    self._scan_chase(op, address)
                else:
                    self._suspect(address, "scan")
        else:
            # Targeted retry: only the buckets whose coverage
            # fraction is still missing — never a re-broadcast.
            for address in missing:
                self.network.stats.retries += 1
                obs_emit("lh.retry", file=self.file.name, kind="scan",
                         bucket=address, attempt=operation.attempt)
                metric_inc("lh.retry")
                self._scan_chase(op, address)
        if operation.done:
            return
        operation.timer = self.network.schedule(
            policy.delay(operation.attempt),
            lambda: self._scan_timeout(op),
            owner=self.node_id,
        )

    # -- taking results -------------------------------------------------------

    def _take(self, op: int) -> Operation:
        """Pop the done operation ``op``, raising its error if it failed."""
        operation = self.operations.get(op)
        if operation is None or not operation.done:
            raise OperationPendingError(f"op {op} is not done")
        del self.operations[op]
        if operation.error is not None:
            raise operation.error
        return operation

    def take_reply(self, op: int) -> dict[str, Any]:
        """Pop the reply of the done keyed operation ``op``."""
        return self._take(op).reply

    def take_scan(self, op: int) -> list[Any]:
        """Pop the hits of the done scan ``op``, verifying full
        coverage."""
        operation = self._take(op)
        if operation.coverage != 1:
            raise RuntimeError(
                f"scan terminated with coverage {operation.coverage} != 1; "
                "the deterministic-termination invariant is broken"
            )
        return operation.hits
