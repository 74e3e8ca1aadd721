"""The reference paths, reached from the test side.

``src/`` has no switch between a fused and a reference code path: a
store runs the fused codec tables whenever the chunk domain allows
them, and a bucket runs ``match_bucket`` whenever the matcher has
one.  The equivalence suites still compare every fused path with the
plain one; this module is the one way they get there.

:func:`reference_paths` patches, for the length of a ``with`` block:

* ``fused_codec`` where :mod:`repro.core.index` imports it, to return
  ``None`` — the per-chunk codec, which is what production runs for
  chunk domains above 2^16;
* ``match_bucket`` off the four matcher classes — the per-record loop
  of ``LHStarBucket._handle_scan``, which is what production runs for
  plain callables (and what degraded LH*_RS scans call directly);
* the three table/one-pass shortcuts whose plain form no longer exists
  in ``src/``, each replaced by its one-value-at-a-time definition
  below: the compressed store's translate table
  (:class:`PerCodeTable`), the sliding-window record build
  (:func:`per_chunking_streams`) and the whole-blob SWP unmasking
  (:func:`per_cell_positions`).

Everything that should run on the reference side — building the store
included, since a pipeline keeps the codec it first resolved — goes
inside ``with reference_paths():``.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.core import index
from repro.core.chunking import record_chunks
from repro.core.index import IndexPipeline
from repro.core.search import MultiPlanScanMatcher, PlanScanMatcher
from repro.extensions import compressed_index
from repro.extensions.compressed_index import CompressedScanMatcher
from repro.extensions.swp import WORD_BYTES, SwpCipher
from repro.extensions.wordsearch import WordScanMatcher

MATCHERS = (
    PlanScanMatcher,
    MultiPlanScanMatcher,
    WordScanMatcher,
    CompressedScanMatcher,
)


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


#: Stands for "no such attribute" in the patch list below.
_ABSENT = object()


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
    ] + [(matcher, "match_bucket", _ABSENT) for matcher in MATCHERS]
    saved = [
        (target, name, target.__dict__[name])
        for target, name, _value in patches
    ]
    for target, name, value in patches:
        if value is _ABSENT:
            delattr(target, name)
        else:
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
