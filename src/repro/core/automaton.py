"""Multi-needle scan automaton: one sweep serves every needle.

``search_batch`` ships many patterns in one scan round, but until this
module each bucket still swept its haystack **once per needle** —
``bytes.find`` restarts per needle per (group, site) sub-haystack, and
on the noisy sub-byte Stage-2 layouts (1-byte pieces over tiny code
domains) every sweep also pays Python-level hit validation for the
flood of chance hits.  Batched queries there ran only at par with
per-pattern loops.

A :class:`ScanAutomaton` is the compiled form of one batched query's
needle set.  Following the Aho–Corasick idea — pay one preprocessing
pass so a single sweep over the text answers *all* patterns — it
routes each needle either to:

* the **gram index**: a positional index built by one sweep over the
  sub-haystack (``haystack.view(("scan-gram", length, width), …)``),
  mapping every aligned, contained ``length``-gram to its ``(record
  key, chunk position)`` list in blob order.  All needles of that
  length then answer in O(hits) dict lookups — the sweep cost is paid
  once and shared by every needle and every later query against the
  same (unmutated) haystack.  Classic per-byte automata lose to
  C-level ``bytes.find`` in Python; the single-sweep *index* form
  keeps the whole scan in C and dict machinery instead.
* the **per-needle fallback** (:meth:`BucketHaystack.find_all`), used
  below :data:`INDEX_MIN_NEEDLES` needles per (lane, length) — where
  the index build cost loses to a few direct sweeps — and above the
  :data:`INDEX_MAX_NEEDLE` / :data:`INDEX_MAX_BLOB` ceilings that
  bound index memory.

Both routes produce **byte-identical** hit streams (same hits, same
order) — ``tests/core/test_automaton.py`` pins gram index ≡
``find_all`` per needle, and the equivalence grid in
``tests/core/test_batched_scan.py`` pins compiled ≡ per-needle ≡
scalar across every layout.

An automaton is only a per-(lane, length) needle census, so each scan
matcher compiles its own once and keeps it for the scan; gram indexes
live inside each haystack's view memo, so any record mutation drops
them with the haystack itself (``lh.haystack.automaton.*`` metrics).

>>> from repro.sdds.haystack import BucketHaystack
>>> hay = BucketHaystack.from_segments([(1, b"ABAB"), (2, b"ZZAB")])
>>> automaton = ScanAutomaton([((0, 0), 2)] * INDEX_MIN_NEEDLES)
>>> automaton.lookup_grouped(hay, (0, 0), b"AB", 2)
[(1, [0, 1]), (2, [1])]
>>> list(hay.find_all(b"AB", 2))
[(1, 0), (1, 1), (2, 1)]
>>> automaton.lookup_records(hay, b"ZZ", lane=(0, 0))
[2]
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

from repro.obs.metrics import inc as metric_inc
from repro.obs.metrics import observe as metric_observe

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sdds.haystack import BucketHaystack

#: Fewest needles sharing one (lane, length) before the gram index
#: pays for itself; below this, a handful of direct ``bytes.find``
#: sweeps are cheaper than indexing the sub-haystack.  Single-pattern
#: scans (a few alignments per length) stay on the fallback;
#: ``search_batch`` fan-ins cross it immediately.
INDEX_MIN_NEEDLES = 4

#: Longest needle the gram index serves.  Long needles are selective —
#: ``bytes.find`` rarely stops on them — while every extra byte of
#: gram length multiplies index residency.
INDEX_MAX_NEEDLE = 8

#: Largest sub-haystack blob (bytes) the gram index covers: the index
#: stores one entry per aligned gram, so residency scales with
#: ``blob size / width``; past this ceiling the fallback's streaming
#: sweeps are the better trade.
INDEX_MAX_BLOB = 1 << 16


class GramIndex:
    """Positional index of every aligned, contained gram of one
    length over one haystack — the product of the single sweep.

    ``entries[gram]`` is **grouped per record**: a list of ``(record
    key, [chunk positions...])`` in blob order.  The sweep visits each
    segment once, so a gram's occurrences within one record are
    contiguous — grouping loses no ordering, and consumers aggregate
    per record instead of per hit (the Python-level loop the
    per-needle path pays for every chance hit on noisy layouts)."""

    __slots__ = ("entries", "_memory")

    def __init__(
        self,
        entries: dict[bytes, list[tuple[int, list[int]]]],
        memory: int,
    ) -> None:
        self.entries = entries
        self._memory = memory

    def memory_bytes(self) -> int:
        """Estimated residency (CPython object-size approximation),
        reported through the owning haystack's ``memory_bytes``."""
        return self._memory


def _build_gram_index(
    haystack: "BucketHaystack", length: int, width: int
) -> GramIndex:
    """One sweep: every aligned ``length``-gram contained in a record
    segment, in the exact order ``find_all`` visits hits — ascending
    blob position, which is ascending (segment, aligned offset) —
    grouped per (gram, record)."""
    entries: dict[bytes, list[tuple[int, list[int]]]] = {}
    blob = haystack.blob
    groups = 0
    positions = 0
    for key, start, end in haystack.segment_bounds():
        for offset in range(start, end - length + 1, width):
            gram = blob[offset:offset + length]
            position = (offset - start) // width
            bucket = entries.get(gram)
            if bucket is None:
                entries[gram] = [(key, [position])]
                groups += 1
            elif bucket[-1][0] == key:
                # Segment-ordered sweep: a gram's hits in one record
                # are contiguous, so the open group is always last.
                bucket[-1][1].append(position)
            else:
                bucket.append((key, [position]))
                groups += 1
            positions += 1
    # Rough CPython residency: dict slot + bytes key per gram, one
    # 2-tuple + position list per (gram, record) group, one int slot
    # per position.
    memory = (
        104 * len(entries)
        + sum(len(gram) for gram in entries)
        + 120 * groups
        + 32 * positions
    )
    return GramIndex(entries, memory)


def gram_index(
    haystack: "BucketHaystack", length: int, width: int
) -> GramIndex:
    """The haystack's gram index for one (length, width), built on
    first use and memoised in the haystack's view table — so it dies
    with the haystack on any record mutation."""
    miss = False

    def build(target: "BucketHaystack") -> GramIndex:
        nonlocal miss
        miss = True
        started = time.perf_counter()
        index = _build_gram_index(target, length, width)
        metric_inc("lh.haystack.automaton.build")
        metric_observe(
            "lh.haystack.automaton.build_seconds",
            time.perf_counter() - started,
        )
        metric_observe(
            "lh.haystack.automaton.bytes", index.memory_bytes()
        )
        return index

    index = haystack.view(("scan-gram", length, width), build)
    if not miss:
        metric_inc("lh.haystack.automaton.hit")
    return index


class ScanAutomaton:
    """Compiled routing for one batched query's needle set.

    A *lane* identifies which needles compete over the same
    sub-haystack — ``(group, site)`` for chunk-index plans, ``None``
    for whole-record membership.  The automaton counts needles per
    (lane, length) at compile time; at match time each lookup routes
    to the shared gram index when its lane crossed
    :data:`INDEX_MIN_NEEDLES` (and the ceilings allow), else to the
    per-needle fallback.
    """

    __slots__ = ("_counts",)

    def __init__(
        self, lanes: Iterable[tuple[Hashable, int]]
    ) -> None:
        counts: dict[tuple[Hashable, int], int] = {}
        for lane, length in lanes:
            slot = (lane, length)
            counts[slot] = counts.get(slot, 0) + 1
        self._counts = counts

    def uses_index(
        self, lane: Hashable, length: int, blob_length: int
    ) -> bool:
        """Whether a needle of ``length`` on ``lane`` takes the
        single-sweep index over a blob of ``blob_length`` bytes."""
        return (
            length <= INDEX_MAX_NEEDLE
            and blob_length <= INDEX_MAX_BLOB
            and self._counts.get((lane, length), 0) >= INDEX_MIN_NEEDLES
        )

    def lookup_grouped(
        self,
        haystack: "BucketHaystack",
        lane: Hashable,
        needle: bytes,
        width: int,
    ) -> "list[tuple[int, list[int]]] | None":
        """The index's per-record hit groups ``[(record key, [chunk
        positions...])...]`` in blob order, or ``None`` when the
        routing says the per-needle fallback should run.  Flattening
        the groups reproduces ``haystack.find_all(needle, width)``
        exactly; consumers that aggregate per record skip the per-hit
        Python loop."""
        if not self.uses_index(lane, len(needle), len(haystack.blob)):
            return None
        return gram_index(haystack, len(needle), width).entries.get(
            needle, []
        )

    def lookup_records(
        self,
        haystack: "BucketHaystack",
        needle: bytes,
        lane: Hashable = None,
    ) -> Iterable[int]:
        """Record keys containing ``needle`` — same keys, same order
        as ``haystack.find_records(needle)`` (first-occurrence blob
        order, each record once).  A gram's hits in one record form a
        single group, so the group keys *are* the deduped record
        list."""
        length = len(needle)
        if not self.uses_index(lane, length, len(haystack.blob)):
            return haystack.find_records(needle)
        return [
            key
            for key, _positions in gram_index(
                haystack, length, 1
            ).entries.get(needle, ())
        ]


def plans_automaton(plans: Sequence) -> ScanAutomaton:
    """The automaton for a batched set of chunk-index plans.

    Distinct ``(group, site, needle)`` triples are counted once — the
    same needle shipped by two patterns costs one lookup, so it must
    not inflate the lane census either.
    """
    lanes: list[tuple[Hashable, int]] = []
    seen: set[tuple] = set()
    for plan in plans:
        for (group, _alignment), streams in plan.needles.items():
            for site, needle in enumerate(streams):
                triple = (group, site, needle)
                if triple in seen:
                    continue
                seen.add(triple)
                lanes.append(((group, site), len(needle)))
    return ScanAutomaton(lanes)


def needles_automaton(needles: Sequence[bytes]) -> ScanAutomaton:
    """The automaton for flat membership needles (compressed index):
    every distinct needle shares the single ``None`` lane."""
    return ScanAutomaton((None, len(needle)) for needle in set(needles))
