"""Experiments for the paper's §8 extensions built in this repo.

Three follow-ups the paper announces are implemented and measured here:

* :func:`exp_wordsearch` — the Song-Wagner-Perrig adaptation vs the
  substring scheme, on the same corpus and query workload;
* :func:`exp_compression` — Manber-style searchable (lossy) pair
  compression as an alternative Stage 2;
* :func:`exp_collusion` — how much structure returns when dispersal
  sites collude (the paper's §1 caveat, quantified).
"""

from __future__ import annotations

import random

from repro.analysis.collusion import collusion_sweep
from repro.bench.tables import TableResult
from repro.core.config import SchemeParameters
from repro.core.dispersion import Disperser
from repro.core.encoder import FrequencyEncoder
from repro.core.scheme import EncryptedSearchableStore
from repro.data.phonebook import Directory
from repro.extensions import (
    CompressedSearchStore,
    EncryptedWordStore,
    PairCompressor,
)


def exp_wordsearch(
    directory: Directory,
    n_records: int = 200,
    n_queries: int = 40,
    seed: int = 29,
) -> TableResult:
    """SWP word search vs the substring scheme, head to head."""
    sample = directory.sample(n_records, seed=seed)
    corpus = [entry.name.encode("ascii") for entry in sample]
    rng = random.Random(seed)
    # Chunk-scheme queries must meet the layout minimum (4 symbols);
    # SWP has no such limit (it can look up "YU"), which the note
    # records as a qualitative difference.
    candidates = [e.last_name for e in sample.entries
                  if len(e.last_name) >= 4]
    queries = rng.sample(candidates, min(n_queries, len(candidates)))

    table = TableResult(
        title=f"Word search (SWP, paper §8) vs substring search "
              f"({n_records} records, {n_queries} last-name queries)",
        headers=["scheme", "recall", "precision", "index bytes/record",
                 "msgs/query", "finds substrings?"],
    )

    # Substring scheme (chunk pipeline).
    params = SchemeParameters.full(4, n_codes=64)
    chunk_store = EncryptedSearchableStore(
        params,
        encoder=FrequencyEncoder.train(corpus, 4, 64),
    )
    word_store = EncryptedWordStore(b"wordsearch-bench")
    for entry in sample:
        chunk_store.put(entry.rid, entry.record_text)
        word_store.put(entry.rid, entry.record_text)

    def evaluate(search, truth_of):
        candidates = matches = truths = msgs = 0
        recall_ok = True
        for query in queries:
            truth = truth_of(query)
            result = search(query)
            if not truth <= result.matches:
                recall_ok = False
            found = result.matches
            candidates += len(getattr(result, "candidates", found))
            matches += len(found & truth)
            truths += len(truth)
            msgs += result.cost.messages
        precision = matches / candidates if candidates else 1.0
        return recall_ok, precision, msgs / len(queries)

    substring_truth = lambda q: {
        e.rid for e in sample if q in e.record_text
    }
    word_truth = lambda q: {
        e.rid for e in sample
        if q in e.record_text.split("%")[0].split(" ")
    }

    recall_ok, precision, msgs = evaluate(
        lambda q: chunk_store.search(q), substring_truth
    )
    chunk_bytes = chunk_store.footprint().index_bytes / n_records
    table.add_row(
        "substring (chunks, 64 codes)",
        "100%" if recall_ok else "BROKEN",
        f"{precision * 100:.1f}%",
        f"{chunk_bytes:.0f}",
        f"{msgs:.1f}",
        "yes",
    )

    recall_ok, precision, msgs = evaluate(
        lambda q: word_store.search(q), word_truth
    )
    word_bytes = sum(
        len(r.content) for r in word_store.index_file.all_records()
    ) / n_records
    table.add_row(
        "word (SWP)",
        "100%" if recall_ok else "BROKEN",
        f"{precision * 100:.1f}%",
        f"{word_bytes:.0f}",
        f"{msgs:.1f}",
        "no (whole words only)",
    )
    table.notes.append(
        "SWP: cryptographic per-cell FP rate (2^-32), compact index, "
        "no minimum query length (it can look up 'YU'), but no "
        "substring/pattern queries — the paper's §1 motivation for "
        "the chunk scheme"
    )
    return table


def exp_compression(
    directory: Directory,
    n_records: int = 600,
    seed: int = 31,
) -> TableResult:
    """Searchable pair compression as an alternative Stage 2."""
    sample = directory.sample(n_records, seed=seed)
    corpus = [entry.name.encode("ascii") for entry in sample]
    queries = sorted({e.last_name for e in sample.entries})
    table = TableResult(
        title=f"Searchable compression ([M97] direction, §8) on "
              f"{n_records} records, {len(queries)} queries",
        headers=["configuration", "bytes out/in", "FPs",
                 "recall"],
    )
    configs = [
        ("pairs only (lossless)", dict(max_pairs=64)),
        ("pairs + lossy 64 buckets",
         dict(max_pairs=64, lossy_codes=64)),
        ("pairs + lossy 32 buckets",
         dict(max_pairs=64, lossy_codes=32)),
        ("pairs + lossy 16 buckets",
         dict(max_pairs=64, lossy_codes=16)),
    ]
    for label, options in configs:
        compressor = PairCompressor.train(corpus, **options)
        encoded = [compressor.encode(text) for text in corpus]
        fps = 0
        recall_ok = True
        for query in queries:
            pattern = query.encode("ascii")
            for text, stream in zip(corpus, encoded):
                hit = compressor.search(stream, pattern)
                truth = pattern in text
                if truth and not hit:
                    recall_ok = False
                if hit and not truth:
                    fps += 1
        table.add_row(
            label,
            f"{compressor.compression_ratio(corpus):.2f}",
            fps,
            "100%" if recall_ok else "BROKEN",
        )
    table.notes.append(
        "exactly the paper's stated goal: 'very good, but not perfect "
        "precision and 100% recall' — compression and redundancy "
        "removal compose"
    )
    return table


def exp_index_designs(
    directory: Directory,
    n_records: int = 200,
    seed: int = 61,
) -> TableResult:
    """The three index designs, head to head.

    The paper builds the chunk scheme (§5) and names two alternatives
    it wants explored (§8): Song-et-al word search and searchable
    compression.  Same corpus, same query workload, the full triangle
    of trade-offs: query power, precision, storage and wire cost.
    """
    sample = directory.sample(n_records, seed=seed)
    corpus = [e.name.encode("ascii") for e in sample]
    rng = random.Random(seed)
    whole_words = [
        e.last_name for e in rng.sample(sample.entries, 30)
        if len(e.last_name) >= 4
    ]
    fragments = [w[1:-1] for w in whole_words if len(w) >= 6]

    params = SchemeParameters.full(4, n_codes=64)
    chunk_store = EncryptedSearchableStore(
        params, encoder=FrequencyEncoder.train(corpus, 4, 64)
    )
    word_store = EncryptedWordStore(b"designs-bench")
    compressed = CompressedSearchStore(b"designs-bench", corpus)
    for entry in sample:
        chunk_store.put(entry.rid, entry.record_text)
        word_store.put(entry.rid, entry.record_text)
        compressed.put(entry.rid, entry.record_text)

    def truth(query: str) -> set[int]:
        return {e.rid for e in sample if query in e.record_text}

    def precision_of(results, queries) -> float:
        candidates = sum(
            len(getattr(r, "candidates", r.matches)) for r in results
        )
        matched = sum(
            len(r.matches & truth(q)) for r, q in zip(results, queries)
        )
        return matched / candidates if candidates else 1.0

    table = TableResult(
        title=f"Index designs head to head ({n_records} records)",
        headers=["design", "index KB", "word precision",
                 "fragment precision", "fragment recall", "msgs/query"],
    )

    def add_design(label, kb, search, fragments_supported=True):
        word_results = [search(q) for q in whole_words]
        msgs = sum(r.cost.messages for r in word_results) / max(
            len(word_results), 1
        )
        if fragments_supported:
            frag_results = [search(q) for q in fragments]
            frag_recall = all(
                truth(q) <= r.matches
                for q, r in zip(fragments, frag_results)
            )
            frag_precision = (
                f"{precision_of(frag_results, fragments) * 100:.0f}%"
            )
            frag_recall_cell = "100%" if frag_recall else "BROKEN"
        else:
            frag_precision = "n/a (no fragments)"
            frag_recall_cell = "n/a"
        table.add_row(
            label,
            f"{kb:.1f}",
            f"{precision_of(word_results, whole_words) * 100:.0f}%",
            frag_precision,
            frag_recall_cell,
            f"{msgs:.0f}",
        )

    add_design(
        "chunks (§5, 64 codes)",
        chunk_store.footprint().index_bytes / 1024,
        chunk_store.search,
    )
    add_design(
        "words (SWP, §8)",
        sum(len(r.content)
            for r in word_store.index_file.all_records()) / 1024,
        word_store.search,
        fragments_supported=False,
    )
    add_design(
        "compressed ([M97], §8)",
        compressed.index_bytes() / 1024,
        compressed.search,
    )
    table.notes.append(
        "chunks: any pattern, highest storage; SWP: words only, "
        "cryptographic precision; compression: any pattern at "
        "sub-record storage but code-level leakage and no dispersion "
        "stage"
    )
    return table


def exp_warsaw(
    sample_size: int = 500,
    encodings: tuple[int, ...] = (8, 16, 32),
    seed: int = 7,
) -> TableResult:
    """The paper's counterfactual, run: SF vs Warsaw phonebook FPs.

    "…which would indicate that the Warsaw phonebook might have been
    a better choice for our database."  Same Table-4 FP1/FP2
    methodology on two corpora: the SF-style directory (heavy short
    Asian surnames) and a Polish directory of long surnames.
    """
    from repro.bench.falsepos import fp_symbol_chunked
    from repro.data.phonebook import generate_directory

    table = TableResult(
        title=f"The Warsaw counterfactual: Table-4 false positives by "
              f"corpus ({sample_size} records)",
        headers=["En", "SF FP1", "SF FP2", "Warsaw FP1", "Warsaw FP2"],
    )
    sf = generate_directory(20_000, seed=2006, style="sf").sample(
        sample_size, seed=seed
    ).entries
    warsaw = generate_directory(20_000, seed=2006, style="warsaw").sample(
        sample_size, seed=seed
    ).entries
    for n_codes in encodings:
        sf_outcome = fp_symbol_chunked(sf, n_codes, chunk=2)
        warsaw_outcome = fp_symbol_chunked(warsaw, n_codes, chunk=2)
        table.add_row(
            n_codes,
            sf_outcome.baseline_false_positives,
            sf_outcome.false_positives,
            warsaw_outcome.baseline_false_positives,
            warsaw_outcome.false_positives,
        )
    table.notes.append(
        "long Polish surnames remove the short-name collision mass: "
        "the paper's hunch, confirmed quantitatively"
    )
    return table


def exp_stage2_attack(
    directory: Directory,
    n_records: int = 500,
    seed: int = 43,
) -> TableResult:
    """Unigram vs bigram attacks on Stage-2-encoded ECB streams.

    Table 3's warning made operational: the encoder equalises unigram
    frequencies (starving rank matching) but leaves bigram structure
    ("SMIT"->"H"), which a classical substitution solver exploits.
    The attacker holds perfect plaintext-code statistics — the paper's
    insider — and attacks one chunking's stored stream.
    """
    from collections import Counter

    from repro.analysis.attack import (
        bigram_hillclimb_attack,
        frequency_match_attack,
    )
    from repro.core.chunking import record_chunks
    from repro.core.index import IndexPipeline

    sample = directory.sample(n_records, seed=seed)
    corpus = [entry.name.encode("ascii") for entry in sample]
    table = TableResult(
        title=f"Stage-2 residual structure under attack "
              f"({n_records} records, s=2)",
        headers=["codes", "unigram attack", "bigram attack",
                 "codebook recovered"],
    )
    for n_codes in (16, 64):
        params = SchemeParameters.full(2, n_codes=n_codes)
        encoder = FrequencyEncoder.train(corpus, 2, n_codes)
        pipeline = IndexPipeline(params, encoder)
        prp = pipeline._prps[0]
        plain_records = []
        cipher_records = []
        for text in corpus:
            codes = [
                pipeline.chunk_value(chunk)
                for chunk in record_chunks(text + b"\x00", 2, 0)
            ]
            plain_records.append(codes)
            cipher_records.append([prp.encrypt(v) for v in codes])
        unigrams = Counter(c for r in plain_records for c in r)
        bigrams = Counter(
            (r[i], r[i + 1])
            for r in plain_records
            for i in range(len(r) - 1)
        )
        flat = [c for r in cipher_records for c in r]
        unigram_outcome = frequency_match_attack(
            flat, unigrams, truth=prp.decrypt
        )
        bigram_outcome = bigram_hillclimb_attack(
            cipher_records, unigrams, bigrams, truth=prp.decrypt,
            iterations=3000, restarts=2, seed=seed,
        )
        table.add_row(
            n_codes,
            f"{unigram_outcome.symbol_accuracy * 100:.1f}%",
            f"{bigram_outcome.symbol_accuracy * 100:.1f}%",
            f"{bigram_outcome.codebook_accuracy * 100:.1f}%",
        )
    table.notes.append(
        "a 'recovered' code is still a lossy bucket (many chunks per "
        "code); the bigram solver's gain over rank matching is the "
        "operational cost of the doublet chi^2 the paper measures in "
        "Table 3 — and the argument for larger chunks + dispersion"
    )
    return table


def exp_edge_defense(
    directory: Directory,
    n_records: int = 150,
    seed: int = 41,
) -> TableResult:
    """The §2.1 boundary-chunk trade-off, quantified.

    Padded edge chunks (e.g. ``(0,0,0,r0)``) have a single-symbol
    effective alphabet and fall to an elementary frequency attack; the
    paper's counter-measure — not storing them — 'limits our search
    capability, but is otherwise perfectly feasible'.  This experiment
    measures both sides: the boundary attacker's accuracy with the
    chunks present, and the recall lost on edge-touching queries with
    the chunks dropped.
    """
    from collections import Counter

    from repro.analysis.attack import partial_chunk_attack
    from repro.core.index import IndexPipeline

    sample = directory.sample(n_records, seed=seed)
    table = TableResult(
        title="Section 2.1: padded edge chunks — attack vs search "
              f"capability ({n_records} records, s=4)",
        headers=["configuration", "boundary attack", "interior recall",
                 "edge-suffix recall"],
    )
    for drop in (False, True):
        params = SchemeParameters.full(4, drop_partial_chunks=drop)
        store = EncryptedSearchableStore(params)
        for entry in sample:
            store.put(entry.rid, entry.record_text)
        # Boundary attack: the offset-1 chunking's first chunk is
        # (0,0,0,r0) — its chunk value IS the first symbol, so the
        # stored stream is an ECB over a 1-symbol alphabet.
        if drop:
            attack_cell = "n/a (chunks not stored)"
        else:
            pipeline = IndexPipeline(params)
            prp = pipeline._prps[1]
            first_symbols = [
                entry.record_text.encode("ascii")[0] for entry in sample
            ]
            cipher = [prp.encrypt(s) for s in first_symbols]
            outcome = partial_chunk_attack(
                cipher, Counter(first_symbols),
                truth=lambda c: prp.decrypt(c),
            )
            attack_cell = f"{outcome.symbol_accuracy * 100:.1f}%"
        interior_found = interior_total = 0
        edge_found = edge_total = 0
        for entry in sample.entries[:60]:
            text = entry.record_text
            interior = text[5:12]
            interior_total += 1
            if entry.rid in store.search(interior).matches:
                interior_found += 1
            # End-anchored queries must match into the zero-padded
            # final chunks — exactly what the counter-measure drops.
            suffix = text[-6:]
            edge_total += 1
            if entry.rid in store.search(suffix,
                                         anchor_end=True).matches:
                edge_found += 1
        table.add_row(
            "keep partial chunks" if not drop else "drop partial chunks",
            attack_cell,
            f"{interior_found / interior_total * 100:.0f}%",
            f"{edge_found / edge_total * 100:.0f}%",
        )
    table.notes.append(
        "dropping the padded chunks kills the boundary frequency "
        "attack outright; the paper expects it to 'limit our search "
        "capability', but the measurement refines that: for every "
        "content length exactly one chunking's boundary lands on the "
        "record end, so its final chunk is complete and survives the "
        "drop — under the threshold aggregation rule every supported "
        "query (length >= s, incl. end-anchored) keeps 100% recall. "
        "The only capability actually lost is the sub-s short-string "
        "kludge of §2.3, which needs the padded chunks."
    )
    return table


def exp_collusion(
    directory: Directory,
    n_records: int = 2000,
    seed: int = 37,
) -> TableResult:
    """Dispersal-site collusion: structure vs coalition size."""
    sample = directory.sample(min(n_records, len(directory)), seed=seed)
    values: list[int] = []
    for entry in sample:
        values.extend(entry.name.encode("ascii"))
    disperser = Disperser(k=4, piece_bits=2, seed=2)
    table = TableResult(
        title="Collusion among dispersal sites (k=4, g=2, "
              "paper §1 caveat)",
        headers=["coalition", "known bits", "chi^2 (joint)",
                 "distinct/total", "reconstructs?"],
    )
    seen_sizes = set()
    for view in collusion_sweep(disperser, values,
                                max_coalitions_per_size=1):
        if len(view.sites) in seen_sizes:
            continue
        seen_sizes.add(len(view.sites))
        table.add_row(
            f"{len(view.sites)} of {disperser.k} sites "
            f"{list(view.sites)}",
            f"{view.known_bits}/8",
            view.chi_square,
            f"{view.distinct_ratio:.4f}",
            "yes" if view.full_reconstruction else "no",
        )
    table.notes.append(
        "every additional colluder pins down more bits of each chunk; "
        "the full coalition reduces the scheme to bare ECB — the SDDS "
        "defence is that nodes cannot locate their co-holders"
    )
    return table
