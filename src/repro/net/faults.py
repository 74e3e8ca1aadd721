"""Fault injection and recovery policy for the simulated network.

The paper leans on LH*/LH*_RS for "high availability" over many
storage sites (§5), but a simulator that delivers every message
reliably never exercises any of the SDDS protocol's resilience
machinery.  This module supplies the missing adversity:

* :class:`FaultModel` — seeded, deterministic message loss and
  duplication, plugged into :class:`~repro.net.simulator.Network`.
  Structural server-to-server messages (bucket splits, record
  shipments, parity deltas) are *reliable*: they model TCP
  transfers whose retransmission happens below our abstraction, while
  the client path (keyed operations, scans, replies, IAMs) is the
  lossy datagram traffic the LH* client protocol must survive.
* :class:`RetryPolicy` — per-operation timeout, exponential backoff
  and a retry budget for :class:`~repro.sdds.lhstar.LHStarClient`.
* :class:`RetryExhaustedError` — raised by the synchronous facades
  when an operation's retry budget is spent without an answer.
* :class:`CrashFaultModel` — a seeded MTTF/MTTR schedule of node
  crash/restore events, applied lazily by ``Network.run`` as the
  simulated clock advances (never ahead of the traffic), composing
  with :class:`FaultModel` message faults.

Determinism: the fault model draws from its own ``random.Random``
seeded at construction, independent of any latency-model randomness,
so a given (seed, workload) pair always drops and duplicates exactly
the same messages.  With both rates at zero no behaviour changes at
all — message counts and the simulated clock stay byte-identical to a
plain reliable :class:`~repro.net.simulator.Network`.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from repro.errors import SDDSError, UnknownNodeError
from repro.net.simulator import Network

#: Message kinds exempt from injected faults: structural
#: server-to-server transfers whose loss would violate assumptions the
#: LH* papers make of the underlying transport (record shipments are
#: TCP transfers, the coordinator is reliable).  The client datagram
#: path — keyed ops, scans, replies, IAMs — is what gets lossy.
RELIABLE_KINDS = frozenset({
    "split",
    "split_records",
    "merge",
    "merge_records",
    "overflow",
    "underflow",
    "load",
    "leave",
    "parity_delta",
    # Crash-fault protocol traffic (detection, recovery, degraded
    # reads): server-to-server / client-to-coordinator control flows
    # the availability layer treats as reliable transfers.  Crashed
    # destinations still eat them — reliability here only exempts them
    # from *message* faults, not from *node* faults.
    "suspect",
    "probe",
    "probe_ack",
    "await_recovery",
    "bucket_down",
    "bucket_up",
    "bucket_recovered",
    "recover",
    "group_fetch",
    "group_data",
    "parity_fetch",
    "parity_data",
    "recover_install",
    "recover_done",
    "degraded_lookup",
    "degraded_scan",
})


class RetryExhaustedError(SDDSError, RuntimeError):
    """An operation's retry budget ran out without a delivered answer.

    Part of the :class:`repro.errors.ReproError` family; the
    ``RuntimeError`` base is kept for callers that predate it.
    """


class FaultModel:
    """Seeded loss/duplication decisions for individual messages.

    ``loss_rate`` and ``duplication_rate`` are independent per-message
    probabilities in [0, 1].  A dropped message is charged to the
    sender (it went onto the wire) but never delivered; a duplicated
    message is delivered twice, the copy arriving after the original
    (pairwise FIFO is preserved).  Kinds in :data:`RELIABLE_KINDS`
    are never dropped or duplicated.
    """

    def __init__(
        self,
        seed: int = 0,
        loss_rate: float = 0.0,
        duplication_rate: float = 0.0,
        corruption_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss rate must lie in [0, 1]")
        if not 0.0 <= duplication_rate <= 1.0:
            raise ValueError("duplication rate must lie in [0, 1]")
        if not 0.0 <= corruption_rate <= 1.0:
            raise ValueError("corruption rate must lie in [0, 1]")
        self.seed = seed
        self.loss_rate = loss_rate
        self.duplication_rate = duplication_rate
        self.corruption_rate = corruption_rate
        self._rng = random.Random(seed)

    def applies(self, kind: str) -> bool:
        """Whether messages of ``kind`` are subject to faults."""
        return kind not in RELIABLE_KINDS

    def drops(self) -> bool:
        """Decide the fate of the next eligible message."""
        return self.loss_rate > 0 and self._rng.random() < self.loss_rate

    def duplicates(self) -> bool:
        """Decide duplication for the next delivered eligible message."""
        return (
            self.duplication_rate > 0
            and self._rng.random() < self.duplication_rate
        )

    def corrupts(self) -> bool:
        """Decide corruption for the next delivered eligible copy.

        Drawn only when ``corruption_rate`` is positive, so a model
        with corruption disabled consumes exactly the same random
        stream as one built before corruption existed — old seeds keep
        their byte-identical schedules.
        """
        return (
            self.corruption_rate > 0
            and self._rng.random() < self.corruption_rate
        )

    def corrupt_bit(self) -> int:
        """Which bit of the wire checksum the in-flight flip damages."""
        return self._rng.randrange(32)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultModel(seed={self.seed}, loss_rate={self.loss_rate}, "
            f"duplication_rate={self.duplication_rate}, "
            f"corruption_rate={self.corruption_rate})"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry knobs for client-driven operations.

    The first (re)transmission fires ``timeout`` simulated seconds
    after the original send; each subsequent one waits ``backoff``
    times longer.  After ``max_retries`` unanswered retransmissions
    the operation fails with :class:`RetryExhaustedError`.

    The default timeout is generous relative to the simulated LAN
    round-trip (sub-millisecond, at most a few tens of milliseconds
    under jitter), so on a reliable network timers are always
    cancelled before firing and the policy is free.

    ``jitter`` decorrelates concurrent clients: with the default pure
    exponential backoff, clients that time out together retransmit in
    lockstep — a synchronized retry storm that re-loses every copy
    under bursty loss.  A positive ``jitter`` stretches each delay by
    a seeded random factor in ``[1, 1 + jitter]``, drawn from the
    policy's own ``random.Random(seed)`` stream, so retries spread
    out while remaining fully reproducible.  The default (``jitter=0``)
    returns exactly the historic deterministic schedule.
    """

    timeout: float = 0.25
    backoff: float = 2.0
    max_retries: int = 8
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        # The dataclass is frozen; stash the RNG around the guard.  A
        # single shared stream across all delay() callers is what does
        # the decorrelating: concurrent clients interleave draws.
        object.__setattr__(self, "_rng", random.Random(self.seed))

    def delay(self, attempt: int) -> float:
        """Wait before retransmission number ``attempt`` (1-based).

        With ``jitter == 0`` (the default) this is the exact historic
        value ``timeout * backoff**attempt`` and draws nothing.
        """
        base = self.timeout * self.backoff ** attempt
        if self.jitter == 0:
            return base
        return base * (1.0 + self.jitter * self._rng.random())


class CrashFaultModel:
    """A seeded schedule of node crash/restore events.

    Each target node alternates between up-time drawn from an
    exponential distribution with mean ``mttf`` and down-time with
    mean ``mttr``, out to ``horizon`` simulated seconds — the classic
    MTTF/MTTR availability model.  The schedule is planned up front
    (:meth:`plan`) but *applied lazily*: appended to
    ``Network.schedules``, it is advanced before each queued event is
    processed, so crashes land exactly where the workload's clock has
    reached.  Scheduling them as network timers instead would break
    run-to-quiescence — the first synchronous operation would drain
    the entire crash schedule before returning.

    An optional ``gate`` callable (e.g.
    ``LHStarRSFile.crash_gate()``) lets a test or bench veto crashes
    that would exceed what the file can survive — such as a (k+1)-th
    failure in one parity group.  Vetoed events are counted in
    ``skipped`` and suppress the matching restore.
    """

    def __init__(
        self,
        seed: int = 0,
        mttf: float = 20.0,
        mttr: float = 2.0,
        horizon: float = 120.0,
    ) -> None:
        if mttf <= 0 or mttr <= 0:
            raise ValueError("mttf and mttr must be positive")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.seed = seed
        self.mttf = mttf
        self.mttr = mttr
        self.horizon = horizon
        self._rng = random.Random(seed)
        self._sequence = itertools.count()
        # (time, seq, action, node_id) — action is "crash"/"restore".
        self._events: list[tuple[float, int, str, Hashable]] = []
        # Crashes the gate vetoed: the paired restore is suppressed.
        self._suppressed: set[Hashable] = set()
        self.gate: Callable[[Hashable], bool] | None = None
        self.crashes = 0
        self.restores = 0
        self.skipped = 0

    def plan(
        self,
        targets: Iterable[Hashable],
        gate: Callable[[Hashable], bool] | None = None,
    ) -> int:
        """Draw a crash/restore schedule for ``targets``.

        Returns the number of crash events planned.  ``gate`` (kept
        for :meth:`advance`) is consulted at *apply* time, so it sees
        the failure pattern actually in force, not the planned one.
        """
        if gate is not None:
            self.gate = gate
        planned = 0
        for node_id in targets:
            at = self._rng.expovariate(1.0 / self.mttf)
            while at < self.horizon:
                self._push(at, "crash", node_id)
                planned += 1
                at += self._rng.expovariate(1.0 / self.mttr)
                if at >= self.horizon:
                    break
                self._push(at, "restore", node_id)
                at += self._rng.expovariate(1.0 / self.mttf)
        return planned

    def schedule_crash(self, at: float, node_id: Hashable) -> None:
        """Pin a single crash event at an exact time (tests)."""
        self._push(at, "crash", node_id)

    def schedule_restore(self, at: float, node_id: Hashable) -> None:
        """Pin a single restore event at an exact time (tests)."""
        self._push(at, "restore", node_id)

    def _push(self, at: float, action: str, node_id: Hashable) -> None:
        heapq.heappush(
            self._events, (at, next(self._sequence), action, node_id)
        )

    def pending(self) -> int:
        return len(self._events)

    def advance(self, network: Network, until: float) -> None:
        """Apply every scheduled event with time <= ``until``."""
        while self._events and self._events[0][0] <= until:
            __, __, action, node_id = heapq.heappop(self._events)
            if action == "crash":
                self._apply_crash(network, node_id)
            else:
                self._apply_restore(network, node_id)

    def _apply_crash(self, network: Network, node_id: Hashable) -> None:
        if network.is_crashed(node_id) or (
            self.gate is not None and not self.gate(node_id)
        ):
            self.skipped += 1
            self._suppressed.add(node_id)
            return
        try:
            # Membership is the network's call: the simulator checks
            # its ``nodes`` dict, the live backend asks the hosting
            # site — both raise UnknownNodeError for a bad target.
            network.crash(node_id)
        except UnknownNodeError:
            self.skipped += 1
            self._suppressed.add(node_id)
            return
        self.crashes += 1
        # Imported lazily: obs.trace imports the net package, so a
        # top-level import here would cycle during package init.
        from repro.obs.metrics import inc as metric_inc
        from repro.obs.trace import emit as obs_emit

        obs_emit("net.crash", node=repr(node_id))
        metric_inc("net.crash")

    def _apply_restore(self, network: Network, node_id: Hashable) -> None:
        if node_id in self._suppressed:
            # The matching crash never happened; swallow the restore.
            self._suppressed.discard(node_id)
            return
        try:
            restored = network.restore(node_id)
        except UnknownNodeError:
            restored = False
        if restored:
            self.restores += 1
            from repro.obs.metrics import inc as metric_inc
            from repro.obs.trace import emit as obs_emit

            obs_emit("net.restore", node=repr(node_id))
            metric_inc("net.restore")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CrashFaultModel(seed={self.seed}, mttf={self.mttf}, "
            f"mttr={self.mttr}, horizon={self.horizon}, "
            f"pending={self.pending()})"
        )
