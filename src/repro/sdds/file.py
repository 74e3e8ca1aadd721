"""An LH* file: :class:`FileView`, what a protocol actor needs of its
file in any process, and :class:`LHStarFile`, the synchronous facade
that wires bucket, coordinator and clients together on one network.
Every facade call runs the network to quiescence, so cost counters
around a call measure exactly that operation."""

from __future__ import annotations

from typing import Any, Hashable

from repro.errors import SDDSError
from repro.net.faults import RetryPolicy
from repro.net.simulator import Network, Transport
from repro.sdds.bucket import LHStarBucket
from repro.sdds.client import LHStarClient
from repro.sdds.coordinator import LHStarCoordinator
from repro.sdds.protocol import HEADER_SIZE, ScanMatcher
from repro.sdds.records import Record

#: Default client retry policy: generous timeouts relative to the
#: simulated LAN, so on a reliable network every timer is cancelled
#: before firing and behaviour is identical to the retry-free past.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Thrash guard of a shrinking file: a merge threshold at or above
#: this load factor would merge buckets that the next insert burst
#: splits again.
MERGE_THRASH_BOUND = 0.8


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
            # failure, so no client keeps a stray operation.
            failure = None
            for (client, operation), op in zip(window, ops):
                try:
                    reply = client.take_reply(op)
                except SDDSError as error:
                    failure = failure or error
                    continue
                if operation[0] == "insert":
                    results.append(None)
                elif operation[0] == "lookup":
                    results.append(reply["content"] if reply["ok"] else None)
                else:
                    results.append(reply["ok"])
            if failure is not None:
                raise failure
        return results

    def all_records(self) -> list[Record]:
        """Direct (out-of-band) record dump, for tests and analysis:
        every bucket's records as the network's sites hold them."""
        return [
            record
            for info in self.network.dump_buckets(self.name).values()
            for record in info["records"]
        ]
