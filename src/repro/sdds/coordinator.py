"""The LH* split coordinator: the authoritative file state ``(i, n)``,
splits, merges, failure detection and graceful leaves."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Hashable

from repro.net.simulator import Message, Node, Timer
from repro.obs.metrics import inc as metric_inc
from repro.obs.metrics import set_gauge as metric_set_gauge
from repro.obs.trace import emit as obs_emit
from repro.sdds.hashing import bucket_level
from repro.sdds.protocol import HEADER_SIZE

if TYPE_CHECKING:
    from repro.sdds.file import LHStarFile


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
