"""False-positive measurement (paper section 7, Tables 4 and 5).

The paper extracts 1000 random records, searches for their 1000 last
names, and counts the searches that hit records not actually
containing the name.  Ground truth is raw substring occurrence in the
record's name text — "we did not count the occurrence of 'ADAMS' in
'ADAMSON' as a false positive, since the string occurs".

Two measurement modes cover the paper's three columns:

* :func:`fp_symbol_chunked` (Table 4) — every symbol replaced by its
  Stage-2 bucket code.  FP1 is plain substring search on the code
  stream (``baseline_false_positives``); FP2 chunks the stream with
  chunk size 2 in both offsets (incomplete edge chunks deleted, as §7
  describes), and a search hits when any query series matches
  chunk-aligned in either chunking.  With ``chunk=1`` both counts are
  FP1.
* :func:`fp_chunk_encoding` (Table 5) — two-symbol chunks encoded
  directly into one code each, two chunkings; the query's two series
  are matched at chunk granularity.

Both return an :class:`FPOutcome` with the hit/false-positive counts
plus the χ² statistics of the encoded record streams, which the paper
prints alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.chisq import ngram_chi_square
from repro.core.encoder import FrequencyEncoder
from repro.core.search import aligned_find
from repro.data.phonebook import PhonebookEntry


@dataclass(frozen=True)
class FPOutcome:
    """Counts and stream statistics of one false-positive experiment."""

    n_codes: int
    chi_single: float
    chi_double: float
    chi_triple: float
    searches: int
    true_hits: int
    false_positives: int
    #: only set by the chunked mode: FPs of the unchunked baseline,
    #: for the paper's FP1-vs-FP2 comparison
    baseline_false_positives: int | None = None


def _chi(streams: list[bytes], n_codes: int) -> tuple[float, float, float]:
    single, __ = ngram_chi_square(streams, 1, symbol_space=n_codes)
    double, __ = ngram_chi_square(streams, 2, symbol_space=n_codes)
    triple, __ = ngram_chi_square(streams, 3, symbol_space=n_codes)
    return single, double, triple


def _queries_of(
    entries: list[PhonebookEntry], min_name_length: int
) -> list[str]:
    """The last-name query workload (optionally the paper's
    'names longer than 5 characters' restriction)."""
    return [
        entry.last_name
        for entry in entries
        if len(entry.last_name) > min_name_length
    ]


def fp_symbol_chunked(
    entries: list[PhonebookEntry],
    n_codes: int,
    chunk: int = 2,
    min_name_length: int = 0,
    encoder: FrequencyEncoder | None = None,
) -> FPOutcome:
    """Table 4, FP2: per-symbol encoding, then chunking (size 2).

    Record code streams are chunked at offsets 0 and 1 with incomplete
    edge chunks deleted; a query hits when any of its series occurs
    chunk-aligned in either chunking (the experiment's OR rule, which
    is what makes FP2 > FP1 in the paper).
    """
    names = [entry.name for entry in entries]
    raw = [name.encode("ascii") for name in names]
    if encoder is None:
        encoder = FrequencyEncoder.train(raw, 1, n_codes)
    streams = [encoder.encode_symbols(text) for text in raw]

    def chunkings(stream: bytes) -> list[bytes]:
        views = []
        for offset in range(chunk):
            usable = (len(stream) - offset) // chunk * chunk
            if usable:
                views.append(stream[offset:offset + usable])
        return views

    record_views = [chunkings(stream) for stream in streams]
    queries = _queries_of(entries, min_name_length)
    hits = fps = baseline_fps = 0
    for query in queries:
        needle = encoder.encode_symbols(query.encode("ascii"))
        series = chunkings(needle)
        for name, stream, views in zip(names, streams, record_views):
            truth = query in name
            if needle in stream and not truth:
                baseline_fps += 1
            hit = any(
                aligned_find(view, one_series, chunk)
                for one_series in series
                for view in views
            )
            if hit:
                if truth:
                    hits += 1
                else:
                    fps += 1
    single, double, triple = _chi(streams, n_codes)
    return FPOutcome(
        n_codes=n_codes,
        chi_single=single,
        chi_double=double,
        chi_triple=triple,
        searches=len(queries),
        true_hits=hits,
        false_positives=fps,
        baseline_false_positives=baseline_fps,
    )


def fp_chunk_encoding(
    entries: list[PhonebookEntry],
    n_codes: int,
    chunk: int = 2,
    min_name_length: int = 0,
    encoder: FrequencyEncoder | None = None,
) -> FPOutcome:
    """Table 5: two-symbol chunks encoded directly into one code each.

    Records get ``chunk`` chunkings (offsets 0 .. chunk−1, partial
    edges dropped); each chunk maps to one code, so the stored stream
    is one code per chunk and matching is plain substring search on
    the code stream.  The query's series are its own offset chunkings.
    """
    names = [entry.name for entry in entries]
    raw = [name.encode("ascii") for name in names]
    if encoder is None:
        encoder = FrequencyEncoder.train(raw, chunk, n_codes)
    record_views = [
        [encoder.encode_nonoverlapping(text, offset)
         for offset in range(chunk)]
        for text in raw
    ]
    queries = _queries_of(entries, min_name_length)
    hits = fps = 0
    for query in queries:
        pattern = query.encode("ascii")
        series = [
            encoder.encode_nonoverlapping(pattern, offset)
            for offset in range(chunk)
            if len(pattern) - offset >= chunk
        ]
        for name, views in zip(names, record_views):
            hit = any(
                one_series and one_series in view
                for one_series in series
                for view in views
            )
            if hit:
                if query in name:
                    hits += 1
                else:
                    fps += 1
    offset0_streams = [views[0] for views in record_views]
    single, double, triple = _chi(offset0_streams, n_codes)
    return FPOutcome(
        n_codes=n_codes,
        chi_single=single,
        chi_double=double,
        chi_triple=triple,
        searches=len(queries),
        true_hits=hits,
        false_positives=fps,
    )
