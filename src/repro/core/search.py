"""Search-side machinery: aligned matching and hit aggregation.

Matching is chunk-aligned consecutive equality (paper section 2.3:
sites "try to match consecutive chunks").  Because streams are packed
at a fixed byte width, an occurrence of the needle bytes at byte
offset ``b`` is a chunk-aligned hit iff ``b % width == 0``; the chunk
position is then ``b // width``.

Aggregation is a three-level rule; the first two are the paper's, the
third follows from chunk positions the sites already report:

1. **within a chunking group** (Figure 3): all ``k`` dispersal sites
   must hit *at the same offset* — set intersection of per-site
   position sets, per alignment;
2. **across chunking groups**: a record is a candidate when at least
   ``required_groups`` groups report a hit — ``s`` of ``s`` for the
   full layout of section 2.3 ("all sites indeed report a hit"), any
   single group for the reduced layouts of section 2.5 ("only one
   site will report a hit");
3. **at one place in the record**: those groups must agree on where
   the pattern starts.  A hit of alignment ``a`` at chunk position
   ``c`` of a chunking whose stream chunk 0 begins at symbol ``o``
   puts the start at symbol ``p = o + c·s − a``; a true occurrence at
   ``p`` makes every populated alignment hit, each in a different
   group, at that same ``p`` — groups hitting at unrelated places no
   longer add up to a candidate.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.automaton import plans_automaton

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.automaton import ScanAutomaton
    from repro.sdds.haystack import BucketHaystack


def aligned_find(haystack: bytes, needle: bytes, width: int) -> list[int]:
    """Chunk positions where ``needle`` occurs chunk-aligned.

    >>> aligned_find(b"ABCD", b"CD", 2)
    [1]
    >>> aligned_find(b"ABCD", b"BC", 2)
    []
    """
    if width < 1:
        raise ValueError("width must be positive")
    if not needle:
        raise ValueError("empty needle")
    positions = []
    start = haystack.find(needle)
    while start != -1:
        if start % width == 0:
            positions.append(start // width)
        start = haystack.find(needle, start + 1)
    return positions


@dataclass(frozen=True)
class SearchPlan:
    """Everything a site or aggregator needs to execute one query.

    ``needles[(group, alignment)]`` is the tuple of per-site packed
    needle streams for that chunking/alignment pair.
    """

    pattern: bytes
    needles: dict[tuple[int, int], tuple[bytes, ...]]
    piece_width: int
    sites: int
    group_count: int
    alignments: tuple[int, ...]
    required_groups: int

    def request_size(self) -> int:
        """Accounted wire size of shipping all needles to one site."""
        return sum(
            len(stream)
            for streams in self.needles.values()
            for stream in streams
        )


@dataclass(frozen=True)
class IndexKeyCodec:
    """The bit layout of the scheme's index keys, as a first-class
    value.

    The store packs ``RID · 2^b | group · 2^(site bits) | site`` into
    one integer key (paper §5); matchers need the inverse to attribute
    hits.  Passing this dataclass (rather than a bound method of the
    store) keeps matchers *wire-encodable*: the live transport ships a
    matcher to a bucket process as ``(plan, site_bits, group_bits)``
    and reconstructs an identical codec on the far side.

    >>> codec = IndexKeyCodec(site_bits=2, group_bits=1)
    >>> codec((5 << 3) | (1 << 2) | 2)
    (5, 1, 2)
    """

    site_bits: int
    group_bits: int

    def __call__(self, key: int) -> tuple[int, int, int]:
        site = key & ((1 << self.site_bits) - 1)
        group = (key >> self.site_bits) & ((1 << self.group_bits) - 1)
        rid = key >> (self.site_bits + self.group_bits)
        return rid, group, site


@dataclass
class SiteHit:
    """One site's report for one record: where each alignment matched.

    ``plan`` is the index of the query plan the hit answers when the
    scan round ships several plans, ``None`` when it ships one — the
    reply then needs no demultiplexing tag.
    """

    rid: int
    group: int
    site: int
    positions: dict[int, list[int]] = field(default_factory=dict)
    plan: int | None = None

    @property
    def wire_size(self) -> int:
        """Accounted encoded size of this hit on the simulated wire:
        an 8-byte RID, one byte each for the group and site ids, a
        2-byte plan tag when the hit carries one, and per alignment a
        2-byte tag plus 4 bytes per chunk position.  The scan-reply
        accounting in :mod:`repro.sdds.lhstar` bills hits through this
        protocol."""
        return (10 if self.plan is None else 12) + sum(
            2 + 4 * len(positions)
            for positions in self.positions.values()
        )


def _site_partition(
    haystack: "BucketHaystack",
    decode: Callable[[int], tuple[int, int, int]],
) -> dict[tuple[int, int], "BucketHaystack"]:
    """Split one bucket haystack into per-(group, site) sub-haystacks.

    The bucket mixes index records of different chunking groups and
    dispersal sites; a needle may only legally hit records of its own
    (group, site).  Scanning the mixed blob would find — then discard —
    every cross-site coincidence, which makes one sweep *slower* than
    matching each record on its own on dispersed layouts.  The
    partition restores the invariant that every ``find`` sweep only
    touches bytes the needle could match.
    """
    from repro.sdds.haystack import BucketHaystack

    classes: dict[tuple[int, int], list[tuple[int, bytes]]] = {}
    for key, segment in haystack.segments():
        __, group, site = decode(key)
        classes.setdefault((group, site), []).append(
            (key, bytes(segment))
        )
    return {
        ids: BucketHaystack.from_segments(pairs)
        for ids, pairs in classes.items()
    }


def bucket_plan_hits(
    plan: SearchPlan,
    haystack: "BucketHaystack",
    decode: Callable[[int], tuple[int, int, int]],
    automaton: "ScanAutomaton | None" = None,
) -> dict[int, dict[int, list[int]]]:
    """One plan's hits over one bucket haystack: record key ->
    (alignment -> positions).

    Runs every needle once over its (group, site) sub-haystack (see
    :func:`_site_partition`; the partition is memoised on the haystack,
    so it is built once per bucket lifetime, not per query) instead of
    once per record.  With an ``automaton``
    (:class:`repro.core.automaton.ScanAutomaton`) the needle lookups
    route through the multi-needle gram index where its thresholds say
    the single sweep wins; without one every needle takes the
    per-needle ``find_all`` sweep (the reference the equivalence tests
    compare against) — the hit stream is byte-identical either way.
    Position lists come out ascending per record and alignment keys
    keep the plan's needle iteration order.
    """
    width = plan.piece_width
    partition = haystack.view(
        "site-partition", lambda h: _site_partition(h, decode)
    )
    per_record: dict[int, dict[int, list[int]]] = {}
    for (group, alignment), streams in plan.needles.items():
        for site, needle in enumerate(streams):
            sub = partition.get((group, site))
            if sub is None:
                continue
            if automaton is not None:
                grouped = automaton.lookup_grouped(
                    sub, (group, site), needle, width
                )
                if grouped is not None:
                    # Index hits arrive pre-grouped per record (blob
                    # order, positions ascending): extending per group
                    # builds the same lists as the per-hit loop below.
                    for key, positions in grouped:
                        record_hits = per_record.setdefault(key, {})
                        record_hits.setdefault(
                            alignment, []
                        ).extend(positions)
                    continue
            for key, position in sub.find_all(needle, width):
                record_hits = per_record.setdefault(key, {})
                record_hits.setdefault(alignment, []).append(position)
    return per_record


class PlanScanMatcher:
    """The scan matcher of one single-plan query: each needle sweeps
    the bucket's concatenated haystack once, and every record with a
    hit reports one :class:`SiteHit`, in haystack order.
    """

    def __init__(
        self,
        plan: SearchPlan,
        decode: Callable[[int], tuple[int, int, int]],
    ) -> None:
        self.plan = plan
        self.decode = decode

    @cached_property
    def _automaton(self) -> "ScanAutomaton":
        # Compiled once per matcher: every bucket of a scan reuses it.
        return plans_automaton([self.plan])

    def match_bucket(self, haystack: "BucketHaystack") -> list[SiteHit]:
        per_record = bucket_plan_hits(self.plan, haystack, self.decode,
                                      self._automaton)
        hits = []
        for key in haystack.rids:
            positions = per_record.get(key)
            if positions:
                rid, group, site = self.decode(key)
                hits.append(SiteHit(rid=rid, group=group, site=site,
                                    positions=positions))
        return hits


class MultiPlanScanMatcher:
    """Scan matcher multiplexing several plans in one round
    (``search_all`` / ``search_batch``).

    Reports one :class:`SiteHit` per (record, plan) with a hit, in
    haystack order and plan order within a record, each tagged with
    its plan index when the round ships several plans — so a one-plan
    matcher answers exactly as :class:`PlanScanMatcher` does.
    """

    def __init__(
        self,
        plans: list[SearchPlan],
        decode: Callable[[int], tuple[int, int, int]],
    ) -> None:
        self.plans = plans
        self.decode = decode

    @cached_property
    def _automaton(self) -> "ScanAutomaton":
        return plans_automaton(self.plans)

    def match_bucket(self, haystack: "BucketHaystack") -> list[SiteHit]:
        compiled = self._automaton
        per_plan = [
            bucket_plan_hits(plan, haystack, self.decode, compiled)
            for plan in self.plans
        ]
        tagged = len(per_plan) > 1
        hits = []
        for key in haystack.rids:
            decoded = None
            for index, per_record in enumerate(per_plan):
                positions = per_record.get(key)
                if positions:
                    if decoded is None:
                        decoded = self.decode(key)
                    rid, group, site = decoded
                    hits.append(SiteHit(rid=rid, group=group, site=site,
                                        positions=positions,
                                        plan=index if tagged else None))
        return hits


class HitAggregator:
    """Client-side combination of site reports into candidate RIDs.

    ``origins`` is the client's own layout geometry
    (:meth:`repro.core.chunking.StorageLayout.chunk_origins`).
    """

    def __init__(self, plan: SearchPlan, chunk_size: int,
                 origins: tuple[int, ...]) -> None:
        self.plan = plan
        self.chunk_size = chunk_size
        self.origins = origins
        # rid -> group -> site -> alignment -> positions
        self._reports: dict[
            int, dict[int, dict[int, dict[int, list[int]]]]
        ] = defaultdict(lambda: defaultdict(dict))

    def add(self, hit: SiteHit) -> None:
        self._reports[hit.rid][hit.group][hit.site] = hit.positions

    def add_all(self, hits: Iterable[SiteHit]) -> None:
        for hit in hits:
            self.add(hit)

    def _common(
        self, sites: dict[int, dict[int, list[int]]], alignment: int
    ) -> Iterable[int]:
        """Within-group rule: the chunk positions of one alignment on
        which every dispersal site of the group agrees."""
        if len(sites) < self.plan.sites:
            return ()
        common: Iterable[int] = sites[0].get(alignment, ())
        for site in range(1, self.plan.sites):
            if not common:
                break
            common = set(common).intersection(
                sites[site].get(alignment, ())
            )
        return common

    def candidates(self) -> set[int]:
        """RIDs for which ``required_groups`` groups agree on one
        pattern start."""
        required = self.plan.required_groups
        alignments = self.plan.alignments
        size = self.chunk_size
        result = set()
        for rid, groups in self._reports.items():
            # Within one group distinct alignments give distinct
            # starts (they differ by less than a chunk), so each vote
            # for a start comes from a different group.
            votes: dict[int, int] = {}
            best = 0
            pending = len(groups)
            for group, sites in groups.items():
                if best + pending < required:
                    break  # the groups left cannot make up the votes
                pending -= 1
                origin = self.origins[group]
                for alignment in alignments:
                    shift = origin - alignment
                    for position in self._common(sites, alignment):
                        start = shift + position * size
                        count = votes[start] = votes.get(start, 0) + 1
                        if count > best:
                            best = count
            if best >= required:
                result.add(rid)
        return result

    def intersected_positions(
        self, rid: int, group: int, alignment: int
    ) -> set[int]:
        """Chunk positions where all sites of ``group`` agree for one
        alignment — used by anchored queries that must pin a hit to a
        specific offset (e.g. position 0 for start-anchored search)."""
        sites = self._reports.get(rid, {}).get(group)
        return set(self._common(sites, alignment)) if sites else set()
