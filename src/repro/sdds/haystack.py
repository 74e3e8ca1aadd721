"""Per-bucket concatenated haystacks: what every scan matches against.

The paper's one-round parallel scan makes the per-bucket match the
entire server-side cost of a query.  A scan matcher answers for a
whole bucket in one ``match_bucket(haystack)`` call — a live bucket
passes its cached haystack, a degraded LH*_RS scan one built from the
records it rebuilt from parity — so a needle is one C-level sweep per
bucket rather than one ``bytes.find`` restart per record.

A :class:`BucketHaystack` is the bucket's records concatenated into
one blob, separated by sentinel gaps, together with an offset table
mapping blob positions back to record keys.  A needle then runs
``bytes.find`` once over the whole bucket; each raw hit is mapped to
its segment by binary search and validated:

* **containment** — the hit must lie entirely inside one record's
  segment.  This check alone makes the haystack exact: a match that
  straddles a record boundary (or reaches into a sentinel gap) is
  discarded, so the gap bytes are *never* a correctness requirement.
* **alignment** — the hit's offset relative to the segment start must
  be a multiple of the piece width (the same rule as
  :func:`repro.core.search.aligned_find`).

The sentinel byte is ``0xFF``: for every Stage-2 configuration with a
sub-byte code domain (the paper's own configurations, e.g. 64 codes)
it genuinely cannot occur in any needle, so cross-boundary candidate
hits never even reach the rejection check.  For full 8-bit domains
``0xFF`` is merely *rare* in needles — the containment check does the
real work and the gap only keeps spurious ``find`` stops cheap.

Buckets cache their haystack lazily and invalidate it on any record
mutation (insert, delete, split, merge, recovery install) — see
:class:`repro.sdds.lhstar.LHStarBucket`.  Memory cost: one extra copy
of the bucket's index payload plus ``GAP`` bytes per record and three
small arrays (see :meth:`memory_bytes`).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sdds.records import Record

#: The separator byte between record segments.
SENTINEL_BYTE = 0xFF

#: Gap width between segments.  Any positive width is correct (the
#: containment check rejects cross-boundary hits); a few bytes keep
#: segment starts strictly increasing even for empty records and make
#: accidental boundary-spanning ``find`` stops unlikely.
GAP = 8

_SENTINEL = bytes([SENTINEL_BYTE]) * GAP


class BucketHaystack:
    """Immutable concatenated view of one bucket's records.

    Built from the bucket's record dict in its iteration order (or
    from ``(key, content)`` pairs in list order), so hit lists come
    back in record order.
    """

    __slots__ = ("blob", "rids", "_starts", "_ends", "_views")

    def __init__(self, records: dict[int, "Record"]) -> None:
        self._build(
            (rid, record.content) for rid, record in records.items()
        )

    @classmethod
    def from_segments(
        cls, pairs: Iterable[tuple[int, bytes]]
    ) -> "BucketHaystack":
        """Build directly from ``(record key, content)`` pairs — used
        for derived sub-haystacks carved out of a parent's segments and
        for the records a degraded scan rebuilt from parity."""
        self = cls.__new__(cls)
        self._build(pairs)
        return self

    def _build(self, pairs: Iterable[tuple[int, bytes]]) -> None:
        rids: list[int] = []
        starts: list[int] = []
        ends: list[int] = []
        parts: list[bytes] = []
        cursor = 0
        for rid, content in pairs:
            if parts:
                parts.append(_SENTINEL)
                cursor += GAP
            rids.append(rid)
            starts.append(cursor)
            cursor += len(content)
            ends.append(cursor)
            parts.append(content)
        self.blob = b"".join(parts)
        self.rids = rids
        self._starts = starts
        self._ends = ends
        self._views: dict[Hashable, object] = {}

    def view(
        self, token: Hashable, build: "Callable[[BucketHaystack], object]"
    ) -> object:
        """Memoised derived view (e.g. a per-(group, site) partition).

        Views share the haystack's lifetime: buckets invalidate by
        dropping the whole haystack, so a cached view can never outlive
        the records it was derived from.  ``token`` must be chosen so
        that equal tokens imply equal ``build`` semantics *for this
        haystack's store* (a haystack is only ever scanned by matchers
        of the file that owns its bucket)."""
        cached = self._views.get(token)
        if cached is None:
            cached = self._views[token] = build(self)
        return cached

    def __len__(self) -> int:
        return len(self.rids)

    # -- matching -------------------------------------------------------------

    def find_all(
        self, needle: bytes, width: int
    ) -> Iterator[tuple[int, int]]:
        """Yield ``(record key, chunk position)`` for every aligned,
        contained occurrence of ``needle``, in blob order.

        Matches :func:`repro.core.search.aligned_find` run per record:
        positions are relative to the record's own stream and filtered
        to multiples of ``width``.
        """
        if width < 1:
            raise ValueError("width must be positive")
        if not needle:
            raise ValueError("empty needle")
        blob = self.blob
        starts = self._starts
        ends = self._ends
        length = len(needle)
        start = blob.find(needle)
        while start != -1:
            segment = bisect_right(starts, start) - 1
            if segment >= 0 and start + length <= ends[segment]:
                relative = start - starts[segment]
                if relative % width == 0:
                    yield self.rids[segment], relative // width
            start = blob.find(needle, start + 1)

    def find_records(self, needle: bytes) -> Iterator[int]:
        """Yield the key of every record containing ``needle`` (plain
        membership, no alignment), each at most once, in blob order.

        After the first contained hit in a segment the search resumes
        at the segment's end, so records dense with the needle cost
        one stop — mirroring the early exit of ``needle in content``.
        """
        if not needle:
            raise ValueError("empty needle")
        blob = self.blob
        starts = self._starts
        ends = self._ends
        length = len(needle)
        start = blob.find(needle)
        while start != -1:
            segment = bisect_right(starts, start) - 1
            if segment >= 0 and start + length <= ends[segment]:
                yield self.rids[segment]
                start = blob.find(needle, ends[segment])
            else:
                start = blob.find(needle, start + 1)

    # -- iteration ----------------------------------------------------------

    def segments(self) -> Iterator[tuple[int, memoryview]]:
        """``(record key, content view)`` per record, zero-copy."""
        view = memoryview(self.blob)
        for index, rid in enumerate(self.rids):
            yield rid, view[self._starts[index]:self._ends[index]]

    def segment_bounds(self) -> Iterator[tuple[int, int, int]]:
        """``(record key, blob start, blob end)`` per record, in blob
        order — the raw offsets a single-sweep indexer needs."""
        for index, rid in enumerate(self.rids):
            yield self.rids[index], self._starts[index], self._ends[index]

    # -- accounting ----------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate residency: the blob, the offset arrays, and any
        cached derived views (:meth:`view`).

        Views are accounted duck-typed: an object exposing its own
        ``memory_bytes`` reports itself (so a site partition's
        sub-haystacks recurse into *their* cached views too), dicts and
        sequences are summed element-wise, anything else counts zero.
        The chunk index's site partition roughly doubles the base
        figure (one more copy of the payload, split across
        sub-haystacks)."""
        return (
            len(self.blob)
            + 3 * 8 * len(self.rids)
            + sum(_view_memory_bytes(view) for view in self._views.values())
        )


def _view_memory_bytes(value: object) -> int:
    """Residency of one cached view, duck-typed (see
    :meth:`BucketHaystack.memory_bytes`)."""
    accounted = getattr(value, "memory_bytes", None)
    if accounted is not None:
        return accounted()
    if isinstance(value, dict):
        return sum(_view_memory_bytes(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_view_memory_bytes(item) for item in value)
    return 0
