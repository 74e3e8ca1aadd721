"""What the LH* roles (and the LH*_RS parity layer) share: the header
size, retry and dedup bounds, the scan-matcher form, the reply cache
and the billed scan reply."""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Protocol

from repro.net.simulator import Message, Node
from repro.obs.metrics import inc as metric_inc
from repro.obs.trace import emit as obs_emit
from repro.sdds.haystack import BucketHaystack

#: Accounted wire size of a request/control header.
HEADER_SIZE = 32

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


def scan_reply(op: int, address: int, level: int | None, hits: list[Any],
               forwarded: list[tuple[int, int]],
               **extra: Any) -> tuple[dict[str, Any], int]:
    """The ``scan_reply`` payload that answers for ``address``'s share
    of scan ``op``, and its billed size: the header plus every hit's
    :func:`_hit_size`.  ``level`` None is a retired bucket's
    zero-coverage answer; ``forwarded`` lists the ``(child, level)``
    pairs the bucket forwarded the scan to."""
    reply = {"op": op, "address": address, "level": level, "hits": hits,
             "forwarded": forwarded, **extra}
    return reply, HEADER_SIZE + sum(_hit_size(hit) for hit in hits)


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
