"""Cross-validation: the offline Table-4 machinery vs the live protocol.

The Table-4 FP1 experiment (per-symbol Stage-2 encoding, substring
match on the code stream) is exactly what the complete scheme computes
with chunk size 1: a single chunking, one alignment, one code per
symbol.  Running the same workload through the distributed store must
therefore reproduce the offline counts — if they ever diverge, either
the protocol or the measurement is wrong.
"""

import pytest

from repro.bench.falsepos import fp_symbol_chunked
from repro.core import (
    EncryptedSearchableStore,
    FrequencyEncoder,
    SchemeParameters,
)


@pytest.fixture(scope="module")
def workload(directory):
    return directory.sample(120, seed=19).entries


@pytest.mark.parametrize("n_codes", [8, 16])
def test_protocol_reproduces_offline_counts(workload, n_codes):
    names = [entry.name.encode("ascii") for entry in workload]
    encoder = FrequencyEncoder.train(names, 1, n_codes)

    # Offline reference over the *exact stored content* (the store
    # appends the zero terminator, whose fallback code can collide
    # with query codes — a real property of the scheme, so the
    # reference must model it too).
    contents = [name + b"\x00" for name in names]
    streams = [encoder.encode_symbols(content) for content in contents]
    offline_hits = offline_fps = 0
    for entry in workload:
        query = entry.last_name
        needle = encoder.encode_symbols(query.encode("ascii"))
        for other, stream in zip(workload, streams):
            if needle in stream:
                if query in other.name:
                    offline_hits += 1
                else:
                    offline_fps += 1

    params = SchemeParameters.full(1, n_codes=n_codes, encrypt=True)
    store = EncryptedSearchableStore(params, encoder=encoder)
    for index, entry in enumerate(workload):
        store.put(index, entry.name)

    protocol_hits = protocol_fps = 0
    results = store.search_batch(
        [entry.last_name for entry in workload], verify=False
    )
    for entry in workload:
        result = results[entry.last_name]
        for index, other in enumerate(workload):
            if index in result.candidates:
                if entry.last_name in other.name:
                    protocol_hits += 1
                else:
                    protocol_fps += 1

    assert protocol_fps == offline_fps
    assert protocol_hits == offline_hits

    # And the Table-4 machinery (no terminator) is a lower bound —
    # the terminator's fallback code can only add matches.
    table4 = fp_symbol_chunked(workload, n_codes, encoder=encoder)
    assert protocol_fps >= table4.baseline_false_positives


def test_protocol_recall_matches_offline(workload):
    """Both measurement paths must report total recall."""
    names = [entry.name.encode("ascii") for entry in workload]
    encoder = FrequencyEncoder.train(names, 1, 8)
    offline = fp_symbol_chunked(workload, 8, chunk=1, encoder=encoder)
    assert offline.true_hits >= offline.searches


@pytest.mark.parametrize("n_codes", [16, 64])
def test_protocol_reproduces_table5(workload, n_codes):
    """The Table-5 experiment (2-symbol chunk encoding, OR rule) run
    through the live distributed scheme must count the same hits as
    the offline machinery, terminator modelled on both sides."""
    import dataclasses

    from repro.bench.falsepos import fp_chunk_encoding

    # Offline side: append the terminator symbol to the names so the
    # content equals what the store indexes.
    shadow = [
        dataclasses.replace(entry, name=entry.name + "\x00")
        for entry in workload
    ]
    contents = [entry.name.encode("ascii") for entry in shadow]
    encoder = FrequencyEncoder.train(contents, 2, n_codes)
    offline = fp_chunk_encoding(shadow, n_codes, chunk=2,
                                encoder=encoder)

    params = SchemeParameters.full(
        2, n_codes=n_codes, drop_partial_chunks=True, aggregation="any"
    )
    store = EncryptedSearchableStore(params, encoder=encoder)
    for index, entry in enumerate(workload):
        store.put(index, entry.name)

    protocol_hits = protocol_fps = 0
    queries = [
        entry.last_name
        for entry in workload
        if len(entry.last_name) >= params.min_query_length
    ]
    results = store.search_batch(queries, verify=False)
    for entry in workload:
        query = entry.last_name
        if query not in results:
            continue
        for index, other in enumerate(workload):
            if index in results[query].candidates:
                if query in other.name:
                    protocol_hits += 1
                else:
                    protocol_fps += 1

    # The offline machinery also runs sub-minimum queries (single
    # complete chunks exist for 2-symbol names); restrict both sides
    # to the protocol's query set for the comparison.
    offline_hits = offline_fps = 0
    record_views = [
        [encoder.encode_nonoverlapping(text, offset)
         for offset in range(2)]
        for text in contents
    ]
    for entry in workload:
        query = entry.last_name
        if len(query) < params.min_query_length:
            continue
        pattern = query.encode("ascii")
        series = [
            encoder.encode_nonoverlapping(pattern, offset)
            for offset in range(2)
            if len(pattern) - offset >= 2
        ]
        for other, views in zip(workload, record_views):
            hit = any(
                s and s in view for s in series for view in views
            )
            if hit:
                if query in other.name:
                    offline_hits += 1
                else:
                    offline_fps += 1

    assert protocol_hits == offline_hits
    assert protocol_fps == offline_fps
