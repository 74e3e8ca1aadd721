"""Message/byte accounting for the simulated network."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from operator import attrgetter, sub


@dataclass
class NetworkStats:
    """Running totals for a :class:`~repro.net.simulator.Network`.

    The counters are the currency of SDDS cost analysis: the LH* paper
    argues lookups cost "one message in the usual case, at most three",
    and the encrypted-search scheme multiplies message counts by the
    number of chunkings and dispersal sites.  Benches snapshot these
    counters around an operation to report its exact cost.
    """

    messages: int = 0
    bytes: int = 0
    by_kind: Counter = field(default_factory=Counter)
    bytes_by_kind: Counter = field(default_factory=Counter)
    #: Messages the fault model dropped (sent — and charged above —
    #: but never delivered).
    dropped: int = 0
    #: Extra copies the fault model injected (each also counted in
    #: ``messages``/``bytes``: the copy hit the wire too).
    duplicated: int = 0
    #: Client retransmissions after a timeout (each retransmitted
    #: message is also counted in ``messages``/``bytes``).
    retries: int = 0
    #: Messages that reached a crashed (or meanwhile detached) node and
    #: were dropped at delivery time.  Charged in ``messages``/``bytes``
    #: like any sent message: the datagram crossed the wire and died at
    #: the dead host's door.
    crashed_drops: int = 0
    #: Messages lost to a network partition: the link between source
    #: and destination was severed at the instant the message would
    #: have arrived.  Charged in ``messages``/``bytes`` like any sent
    #: message.
    partitioned_drops: int = 0
    #: Messages whose payload was corrupted in flight and discarded by
    #: the receiver's wire-checksum verification.  Charged in
    #: ``messages``/``bytes``; the sender's timeout/retry path pays
    #: for the redelivery.
    corrupted: int = 0

    def record(self, kind: str, size: int) -> None:
        self.messages += 1
        self.bytes += size
        self.by_kind[kind] += 1
        self.bytes_by_kind[kind] += size

    # snapshot / diff / add go by field, so a counter added
    # above is carried by all of them (and by the wire codec, which
    # ships :meth:`values`) without being named anywhere else.

    def values(self) -> tuple:
        """Every counter, in declaration order (see ``FIELDS``)."""
        return _VALUES(self)

    def snapshot(self) -> "NetworkStats":
        """An independent copy of the current totals."""
        return NetworkStats(*[
            Counter(value) if isinstance(value, Counter) else value
            for value in _VALUES(self)])

    def diff(self, older: "NetworkStats") -> "NetworkStats":
        """Totals accumulated since ``older`` was snapshotted.

        The canonical way to cost one operation — snapshot, run,
        diff — used by every search entry point, the obs tracer's
        spans and the benches, instead of subtracting counter fields
        by hand:

        >>> stats = NetworkStats()
        >>> before = stats.snapshot()
        >>> stats.record("lookup", 64); stats.record("reply", 96)
        >>> delta = stats.diff(before)
        >>> delta.messages, delta.bytes, dict(delta.by_kind)
        (2, 160, {'lookup': 1, 'reply': 1})
        """
        return NetworkStats(*map(sub, _VALUES(self), _VALUES(older)))

    def add(self, delta: "NetworkStats") -> None:
        """Fold ``delta`` into these totals in place (the live client
        merges each site's growth since the last census this way)."""
        for name, mine, more in zip(FIELDS, _VALUES(self),
                                    _VALUES(delta)):
            if isinstance(mine, Counter):
                mine.update(more)
            else:
                setattr(self, name, mine + more)


#: The counters of :class:`NetworkStats`, in declaration order.
FIELDS = tuple(spec.name for spec in fields(NetworkStats))
_VALUES = attrgetter(*FIELDS)
