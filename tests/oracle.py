"""The reference paths, reached from the test side.

``src/`` has no switch between a fused and a reference code path: a
store runs the fused codec tables whenever the chunk domain allows
them, and every scan matcher answers for a whole bucket through its
one ``match_bucket`` over the bucket's cached haystack (a degraded
LH*_RS scan passes a haystack of the records it rebuilt from parity).
The equivalence suites still compare every fused path with the plain
one; this module is the one way they get there.

:func:`reference_paths` patches, for the length of a ``with`` block:

* ``fused_codec`` where :mod:`repro.core.index` imports it, to return
  ``None`` — the per-chunk codec, which is what production runs for
  chunk domains above 2^16;
* ``match_bucket`` on the four matcher classes, each with its
  one-record-at-a-time definition below (:data:`REFERENCE_MATCH`):
  every needle an ``aligned_find``, an ``in`` test or an SWP check
  per record, no site partition, no gram index;
* ``LHStarBucket.haystack`` with a fresh build from the bucket's live
  records on every call, so a cached haystack that outlived a record
  mutation shows up as a difference;
* the three table/one-pass shortcuts whose plain form no longer exists
  in ``src/``, each replaced by its one-value-at-a-time definition
  below: the compressed store's translate table
  (:class:`PerCodeTable`), the sliding-window record build
  (:func:`per_chunking_streams`) and the whole-blob SWP unmasking
  (:func:`per_cell_positions`).

Everything that should run on the reference side — building the store
included, since a pipeline keeps the codec it first resolved — goes
inside ``with reference_paths():``.

:class:`RecordsContaining` is the plain content filter the LH* suites
scan with.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.core import index
from repro.core.chunking import record_chunks
from repro.core.index import IndexPipeline
from repro.core.search import (
    MultiPlanScanMatcher,
    PlanScanMatcher,
    SiteHit,
    aligned_find,
)
from repro.extensions import compressed_index
from repro.extensions.compressed_index import CompressedScanMatcher
from repro.extensions.swp import WORD_BYTES, SwpCipher
from repro.extensions.wordsearch import WordScanMatcher
from repro.sdds.haystack import BucketHaystack
from repro.sdds.lhstar import LHStarBucket


class RecordsContaining:
    """Scan matcher: the rid of every record containing ``needle``."""

    def __init__(self, needle):
        self.needle = needle

    def match_bucket(self, haystack):
        return list(haystack.find_records(self.needle))


class PerCodeTable:
    """Stands in for the compressed store's fused codec: the 256-entry
    code map built one ``prp.encrypt`` at a time."""

    def __init__(self, prp, **_parameters):
        self._table = bytes(prp.encrypt(code) for code in range(256))

    def translate_table(self, site):
        return self._table


def per_chunking_streams(pipeline, content):
    """``IndexPipeline.build_index_streams`` with every stored chunking
    chunked and encoded on its own (no shared sliding pass)."""
    params = pipeline.params
    streams = {}
    for group, offset in enumerate(params.layout.offsets):
        chunks = record_chunks(
            content, params.layout.chunk_size, offset,
            drop_partial=params.drop_partial_chunks,
            symbol_width=params.symbol_width,
        )
        for site, stream in enumerate(
            pipeline._group_streams(chunks, group)
        ):
            streams[(group, site)] = stream
    return streams


def per_cell_positions(cells, trapdoors, checks=None):
    """``SwpCipher.match_positions`` as one ``SwpCipher.match`` per
    16-byte cell and trapdoor."""
    return [
        [
            position
            for position in range(len(cells) // WORD_BYTES)
            if SwpCipher.match(
                cells[WORD_BYTES * position:WORD_BYTES * (position + 1)],
                trapdoor,
            )
        ]
        for trapdoor in trapdoors
    ]


def _records(haystack):
    """``(record key, content bytes)`` per record of a haystack."""
    return [(key, bytes(segment)) for key, segment in haystack.segments()]


def site_positions(plan, group, site, stream):
    """One site's hits in one index stream: alignment -> ascending
    chunk positions, alignments in the plan's order."""
    hits = {}
    for alignment in plan.alignments:
        needle = plan.needles[(group, alignment)][site]
        positions = aligned_find(stream, needle, plan.piece_width)
        if positions:
            hits[alignment] = positions
    return hits


def plan_match_bucket(matcher, haystack):
    hits = []
    for key, stream in _records(haystack):
        rid, group, site = matcher.decode(key)
        positions = site_positions(matcher.plan, group, site, stream)
        if positions:
            hits.append(SiteHit(rid=rid, group=group, site=site,
                                positions=positions))
    return hits


def multi_plan_match_bucket(matcher, haystack):
    tagged = len(matcher.plans) > 1
    hits = []
    for key, stream in _records(haystack):
        rid, group, site = matcher.decode(key)
        for index, plan in enumerate(matcher.plans):
            positions = site_positions(plan, group, site, stream)
            if positions:
                hits.append(SiteHit(rid=rid, group=group, site=site,
                                    positions=positions,
                                    plan=index if tagged else None))
    return hits


def word_match_bucket(matcher, haystack):
    hits = []
    for rid, cells in _records(haystack):
        per_trapdoor = per_cell_positions(cells, matcher.trapdoors)
        reports = tuple(
            (index, tuple(positions))
            for index, positions in enumerate(per_trapdoor)
            if positions
        )
        if reports:
            hits.append((rid, reports))
    return hits


def compressed_match_bucket(matcher, haystack):
    hits = []
    for rid, content in _records(haystack):
        indexes = tuple(
            index
            for index, needles in enumerate(matcher.needle_groups)
            if any(needle in content for needle in needles)
        )
        if indexes:
            hits.append((rid, indexes))
    return hits


#: The record-at-a-time ``match_bucket`` of each matcher class.
REFERENCE_MATCH = {
    PlanScanMatcher: plan_match_bucket,
    MultiPlanScanMatcher: multi_plan_match_bucket,
    WordScanMatcher: word_match_bucket,
    CompressedScanMatcher: compressed_match_bucket,
}


def reference_match(matcher, haystack):
    """``matcher``'s hits over ``haystack`` by the reference loop."""
    return REFERENCE_MATCH[type(matcher)](matcher, haystack)


@contextmanager
def reference_paths():
    """Route everything built and run inside the ``with`` block over
    the reference paths (see the module docstring).

    Patches by hand rather than through pytest's ``monkeypatch``:
    hypothesis bodies come through here too, once per example, and
    ``monkeypatch`` is a function-scoped fixture that a hypothesis
    body cannot take (it would not be reset between examples).
    """
    patches = [
        (index, "fused_codec", lambda **_parameters: None),
        (compressed_index, "fused_codec", PerCodeTable),
        (IndexPipeline, "build_index_streams", per_chunking_streams),
        (SwpCipher, "match_positions", staticmethod(per_cell_positions)),
        (LHStarBucket, "haystack",
         lambda bucket: BucketHaystack(bucket.records)),
    ] + [
        (matcher, "match_bucket", reference)
        for matcher, reference in REFERENCE_MATCH.items()
    ]
    saved = [
        (target, name, target.__dict__[name])
        for target, name, _value in patches
    ]
    for target, name, value in patches:
        setattr(target, name, value)
    try:
        yield
    finally:
        for target, name, value in saved:
            setattr(target, name, value)


def both(run):
    """``run()`` over the fused paths, then over the reference paths;
    each call builds what it measures, so the two share nothing."""
    fused = run()
    with reference_paths():
        return fused, run()
