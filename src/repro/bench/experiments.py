"""The paper's experiments, one function per table/figure.

Each function is pure given its inputs (directory, seeds, sizes) and
returns :class:`~repro.bench.tables.TableResult` objects ready to
print; ``python -m repro.bench`` runs them and writes the committed
tables.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.analysis.attack import frequency_match_attack
from repro.analysis.chisq import ngram_chi_square
from repro.analysis.ngrams import ngram_counts, top_ngrams
from repro.analysis.randomness import randomness_battery
from repro.bench.falsepos import (
    fp_chunk_encoding,
    fp_symbol_chunked,
    fp_symbol_encoding,
)
from repro.bench.tables import TableResult
from repro.core.chunking import StorageLayout, query_series, record_chunks
from repro.core.config import SchemeParameters
from repro.core.dispersion import Disperser
from repro.core.encoder import FrequencyEncoder
from repro.core.index import IndexPipeline
from repro.core.scheme import EncryptedSearchableStore
from repro.data.phonebook import Directory, generate_directory
from repro.sdds.lhstar import LHStarFile, RidScanMatcher

#: Bench-scale directory size, the one every committed table under
#: ``benchmarks/results/`` is made at; the paper's full scale is
#: 282,965 (use ``python -m repro.bench --full``).
DEFAULT_RECORDS = 20_000


def bench_directory(n: int | None = None, seed: int = 2006) -> Directory:
    """The shared synthetic SF directory for all experiments."""
    return generate_directory(n or DEFAULT_RECORDS, seed=seed)


def _name_corpus(directory: Directory) -> list[bytes]:
    return [entry.name.encode("ascii") for entry in directory]


# ---------------------------------------------------------------------------
# Table 1 — raw corpus statistics
# ---------------------------------------------------------------------------

def exp_table1(directory: Directory) -> TableResult:
    """χ² of the raw directory + the most common n-grams (paper Table 1)."""
    names = [entry.name for entry in directory]
    table = TableResult(
        title=f"Table 1: chi^2-values for the synthetic SF directory "
              f"({len(names):,} entries)",
        headers=["statistic", "value"],
    )
    for n, label in ((1, "Single Letter"), (2, "Doublets"), (3, "Triplets")):
        chi, __ = ngram_chi_square(names, n)
        table.add_row(f"chi^2 ({label})", chi)
    letters = Counter(
        {k: v for k, v in ngram_counts(names, 1).items() if k.isalpha()}
    )
    for gram, share in top_ngrams(letters, 6):
        table.add_row(gram, f"{share * 100:.2f}%")
    doublets = Counter(
        {k: v for k, v in ngram_counts(names, 2).items() if k.isalpha()}
    )
    for gram, share in top_ngrams(doublets, 5):
        table.add_row(gram, f"{share * 100:.2f}%")
    triplets = Counter(
        {k: v for k, v in ngram_counts(names, 3).items() if k.isalpha()}
    )
    for gram, share in top_ngrams(triplets, 5):
        table.add_row(gram, f"{share * 100:.2f}%")
    table.notes.append(
        "synthetic corpus calibrated to the paper's shape: top letters "
        "A E N R I O, digrams AN/ER/AR/ON/IN, trigrams CHA/MAR/SON/ONG/ANG"
    )
    return table


# ---------------------------------------------------------------------------
# Table 2 — dispersion alone
# ---------------------------------------------------------------------------

def exp_table2(
    directory: Directory, k: int = 4, seed: int = 2
) -> TableResult:
    """Dispersal alone: 8-bit symbols into k 2-bit pieces (Table 2).

    "We broke the record in chunks of length one and dispersed each
    record into four dispersion records using our method with a random
    non-singular matrix."
    """
    piece_bits = 8 // k
    disperser = Disperser(k=k, piece_bits=piece_bits, seed=seed)
    streams: list[bytes] = []
    for text in _name_corpus(directory):
        per_site = disperser.disperse_stream(list(text))
        streams.extend(bytes(site) for site in per_site)
    space = 1 << piece_bits
    table = TableResult(
        title=f"Table 2: chi^2 after dispersion (chunk=1 symbol, k={k}, "
              f"random non-singular E)",
        headers=["statistic", "value"],
    )
    censuses = {}
    for n, label in ((1, "Single Letter"), (2, "Doublets"), (3, "Triplets")):
        chi, census = ngram_chi_square(streams, n, symbol_space=space)
        censuses[n] = census
        table.add_row(f"chi^2 ({label})", chi)
    for gram, share in top_ngrams(censuses[1], 4):
        table.add_row(gram, f"{share * 100:.2f}%")
    for gram, share in top_ngrams(censuses[2], 4):
        table.add_row(gram, f"{share * 100:.2f}%")
    table.notes.append(
        "compare against Table 1: dispersion alone already shrinks "
        "chi^2 by an order of magnitude but leaves visible skew"
    )
    return table


# ---------------------------------------------------------------------------
# Table 3 — redundancy removal alone
# ---------------------------------------------------------------------------

#: chunk size -> encoding counts swept (the paper's Table 3 axes).
TABLE3_SWEEP: dict[int, tuple[int, ...]] = {
    1: (2, 4, 8, 16),
    2: (8, 16, 32, 64, 128),
    4: (16, 32, 64, 128),
    6: (16, 32, 64, 128),
}


def exp_table3(
    directory: Directory,
    sweep: dict[int, tuple[int, ...]] | None = None,
) -> list[TableResult]:
    """Stage-2 alone: χ² across chunk-size × code-count (Table 3)."""
    corpus = _name_corpus(directory)
    results = []
    for chunk_size, code_counts in (sweep or TABLE3_SWEEP).items():
        table = TableResult(
            title=f"Table 3: chi^2 after pre-processing, chunk size = "
                  f"{chunk_size}",
            headers=["# encod.", "chi^2 single", "chi^2 double",
                     "chi^2 triple"],
        )
        for n_codes in code_counts:
            encoder = FrequencyEncoder.train(corpus, chunk_size, n_codes)
            streams = [
                encoder.encode_nonoverlapping(text, 0) for text in corpus
            ]
            single, __ = ngram_chi_square(streams, 1, symbol_space=n_codes)
            double, __ = ngram_chi_square(streams, 2, symbol_space=n_codes)
            triple, __ = ngram_chi_square(streams, 3, symbol_space=n_codes)
            table.add_row(n_codes, single, double, triple)
        table.notes.append(
            "expected shape: chi^2 grows with the code count and with "
            "the n-gram order; inter-chunk predictability (SMIT->H) "
            "keeps doublet/triplet chi^2 high at small chunk sizes"
        )
        results.append(table)
    return results


# ---------------------------------------------------------------------------
# Tables 4 and 5 — false positives
# ---------------------------------------------------------------------------

def exp_table4(
    directory: Directory,
    sample_size: int = 1000,
    encodings: tuple[int, ...] = (8, 16, 32),
    seed: int = 7,
) -> list[TableResult]:
    """Symbol encoding FPs, unchunked (FP1) and chunked (FP2)."""
    sample = directory.sample(sample_size, seed=seed).entries
    results = []
    for min_len, label in ((0, "(a) all entries"),
                           (5, "(b) last names longer than 5 characters")):
        table = TableResult(
            title=f"Table 4 {label}: false positives after symbol "
                  f"encoding (FP1) and after chunking, chunk size = 2 "
                  f"(FP2); {sample_size} records",
            headers=["En", "chi^2 single", "chi^2 double", "chi^2 triple",
                     "FP1", "FP2"],
        )
        for n_codes in encodings:
            outcome = fp_symbol_chunked(
                sample, n_codes, chunk=2, min_name_length=min_len
            )
            table.add_row(
                n_codes,
                outcome.chi_single,
                outcome.chi_double,
                outcome.chi_triple,
                outcome.baseline_false_positives,
                outcome.false_positives,
            )
        table.notes.append(
            "expected shape: FPs fall as the code count grows; "
            "chunking adds FPs on top of encoding (FP2 > FP1); short "
            "names cause almost all FPs (compare (a) vs (b))"
        )
        results.append(table)
    return results


def exp_table5(
    directory: Directory,
    sample_size: int = 1000,
    encodings: tuple[int, ...] = (8, 16, 32, 64),
    seed: int = 7,
) -> list[TableResult]:
    """Two-symbol chunk encoding FPs (Table 5)."""
    sample = directory.sample(sample_size, seed=seed).entries
    results = []
    for min_len, label in ((0, "(a) all entries"),
                           (5, "(b) last names longer than 5 characters")):
        table = TableResult(
            title=f"Table 5 {label}: false positives after chunk "
                  f"encoding (chunk size 2); {sample_size} records",
            headers=["Enc", "chi^2 single", "chi^2 double",
                     "chi^2 triple", "FP"],
        )
        for n_codes in encodings:
            outcome = fp_chunk_encoding(
                sample, n_codes, chunk=2, min_name_length=min_len
            )
            table.add_row(
                n_codes,
                outcome.chi_single,
                outcome.chi_double,
                outcome.chi_triple,
                outcome.false_positives,
            )
        table.notes.append(
            "n codes over 2-symbol chunks correspond to 2n per-symbol "
            "codes (paper); FPs dominated by short names, vanish in (b)"
        )
        results.append(table)
    return results


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

def exp_fig5(
    directory: Directory, sample_size: int = 1000, n_codes: int = 8,
    seed: int = 7,
) -> TableResult:
    """The greedy least-loaded encoding assignment (paper Figure 5)."""
    sample = directory.sample(sample_size, seed=seed)
    encoder = FrequencyEncoder.train(_name_corpus(sample), 1, n_codes)
    table = TableResult(
        title=f"Figure 5: encoding assignment for {n_codes} possible "
              f"encodings ({sample_size} records)",
        headers=["Symbol", "Quantity", "Encoding"],
    )
    for chunk, count, code in encoder.assignment_table():
        symbol = chunk.decode("ascii")
        table.add_row("space" if symbol == " " else symbol, count, code)
    loads = encoder.bucket_loads()
    table.notes.append(
        f"bucket loads: {loads} (greedy least-loaded, ties to lowest "
        "bucket)"
    )
    return table


def exp_fig2() -> TableResult:
    """The worked search example of the paper's Figure 2."""
    rc = "415-409-7730 SCHWARZ PETER"
    pattern = " SCHWARZ "
    layout = StorageLayout.reduced(4, 2)  # two chunkings, chunk size 4
    content = rc.encode("ascii") + b"\x00"
    table = TableResult(
        title="Figure 2: search example (RI=007, chunk size 4, two "
              "chunkings, pattern ' SCHWARZ ')",
        headers=["object", "chunks"],
    )

    def show(chunks: list[bytes]) -> str:
        return ",".join(
            "(" + c.decode("ascii").replace("\x00", "0").replace(" ", "_")
            + ")"
            for c in chunks
        )

    for offset in layout.offsets:
        chunks = record_chunks(content, 4, offset)
        table.add_row(f"index record, offset {offset}", show(chunks))
    pattern_bytes = pattern.encode("ascii")
    for alignment in layout.query_alignments(len(pattern_bytes)):
        series = query_series(pattern_bytes, 4, alignment)
        table.add_row(f"search record, alignment {alignment}", show(series))
    # Where does each series hit?
    for alignment in layout.query_alignments(len(pattern_bytes)):
        series = query_series(pattern_bytes, 4, alignment)
        for group, offset in enumerate(layout.offsets):
            chunks = record_chunks(content, 4, offset)
            for position in range(len(chunks) - len(series) + 1):
                if chunks[position:position + len(series)] == series:
                    table.add_row(
                        f"hit: alignment {alignment}",
                        f"chunking offset {offset}, chunk position "
                        f"{position}",
                    )
    table.notes.append(
        "exactly one (series, chunking) pair matches a true occurrence "
        "in the reduced layout — the paper's 'only one site will "
        "report a hit'"
    )
    return table


def exp_fig3() -> TableResult:
    """The complete-scheme record layout of the paper's Figure 3."""
    params = SchemeParameters.reduced(
        8, 2, n_codes=256, dispersal=4
    )
    encoder = FrequencyEncoder.train(
        [b"ABOGADO ALEJANDRO & CATHERINE", b"SCHWARZ THOMAS",
         b"LITWIN WITOLD"],
        8, 256,
    )
    pipeline = IndexPipeline(params, encoder)
    content = b"415-409-0007 SCHWARZ PETER\x00"
    streams = pipeline.build_index_streams(content)
    table = TableResult(
        title="Figure 3: one record dispersed over "
              f"{params.index_sites_per_record} index sites "
              "(+ 1 record-store site)",
        headers=["site", "role", "stream bytes"],
    )
    table.add_row("store", "record store (AES-CTR)", len(content))
    for (group, site), stream in sorted(streams.items()):
        table.add_row(
            f"({group},{site})",
            f"chunking {group}, dispersal site {site}",
            len(stream),
        )
    table.notes.append(params.describe())
    table.notes.append(
        "index keys append chunking and site ids as the 3 least "
        "significant bits of the RID, spreading a record's index "
        "streams across LH* buckets"
    )
    return table


# ---------------------------------------------------------------------------
# Section 2.5 — storage/query trade-off
# ---------------------------------------------------------------------------

def exp_storage() -> TableResult:
    """Layout economics: index sites vs query series vs minimum query."""
    table = TableResult(
        title="Section 2.5: storage layouts and their query constraints",
        headers=["layout", "chunkings", "alignments", "min query",
                 "storage blowup", "candidate rule"],
    )
    layouts = [
        ("full s=4", StorageLayout.full(4)),
        ("full s=8", StorageLayout.full(8)),
        ("s=8, 4 sites", StorageLayout.reduced(8, 4)),
        ("s=8, 2 sites", StorageLayout.reduced(8, 2)),
        ("s=4, 2 sites", StorageLayout.reduced(4, 2)),
    ]
    for label, layout in layouts:
        rule = (
            f"all {layout.required_groups} groups"
            if layout.required_groups == layout.group_count
            else f">= {layout.required_groups} of {layout.group_count}"
        )
        table.add_row(
            label,
            layout.group_count,
            layout.alignments,
            layout.min_query_length,
            f"{layout.storage_blowup():.0f}x",
            rule,
        )
    table.notes.append(
        "paper: 4-of-8 needs queries of length >= s+1 = 9; 2-of-8 "
        "needs >= s+3 = 11; fewer sites => fewer stored chunkings but "
        "more false positives (OR rule)"
    )
    return table


def exp_storage_footprint(directory: Directory) -> TableResult:
    """Actual stored bytes per configuration on a 150-record corpus."""
    sample = directory.sample(150, seed=5)
    corpus = [e.name.encode("ascii") for e in sample]
    table = TableResult(
        title="Measured storage footprint (150 records)",
        headers=["configuration", "record KB", "index KB",
                 "overhead", "index records"],
    )
    configs = [
        ("s=4 full, raw", SchemeParameters.full(4), None),
        ("s=4 full, 64 codes", SchemeParameters.full(4, n_codes=64),
         64),
        ("s=8 2-sites, raw", SchemeParameters.reduced(8, 2), None),
        ("s=8 4-sites, 256 codes, k=4",
         SchemeParameters.reduced(8, 4, n_codes=256, dispersal=4),
         256),
    ]
    for label, params, n_codes in configs:
        encoder = (
            FrequencyEncoder.train(corpus, params.chunk_size, n_codes)
            if n_codes else None
        )
        store = EncryptedSearchableStore(params, encoder=encoder)
        for entry in sample:
            store.put(entry.rid, entry.record_text)
        fp = store.footprint()
        table.add_row(
            label,
            f"{fp.record_bytes / 1024:.1f}",
            f"{fp.index_bytes / 1024:.1f}",
            f"{fp.overhead:.2f}x",
            fp.index_records,
        )
    table.notes.append(
        "Stage 2 shrinks the index below the record size even with "
        "s chunkings; raw full-s layouts pay ~s x blowup (paper "
        "section 2.5's motivation)"
    )
    return table


# ---------------------------------------------------------------------------
# SDDS cost claims
# ---------------------------------------------------------------------------

def exp_lhstar(
    record_counts: tuple[int, ...] = (256, 1024, 4096),
    bucket_capacity: int = 32,
    seed: int = 11,
) -> TableResult:
    """LH* scaling: lookup cost stays constant as the file grows."""
    table = TableResult(
        title="LH* scaling: per-operation message cost vs file size",
        headers=["records", "buckets", "msgs/lookup (converged)",
                 "msgs/lookup (stale client)", "max hops", "scan msgs"],
    )
    rng = random.Random(seed)
    for n in record_counts:
        file = LHStarFile(bucket_capacity=bucket_capacity)
        keys = rng.sample(range(10 * n), n)
        for key in keys:
            file.insert(key, b"x" * 24)
        probe = rng.sample(keys, min(200, n))
        # Converge the default client's image first.
        for key in probe:
            file.lookup(key)
        before = file.network.stats.snapshot()
        for key in probe:
            file.lookup(key)
        converged = file.network.stats.diff(before).messages / len(probe)
        # A brand-new client with image (0, 0).
        stale = file.new_client()
        before = file.network.stats.snapshot()
        max_hops = 0
        for key in probe:
            op = stale.start_keyed("lookup", key)
            file.network.run()
            stale.take_reply(op)
        stale_cost = file.network.stats.diff(before).messages / len(probe)
        # Hop bound check via direct address math.
        from repro.sdds.hashing import client_address, forward_address
        for key in probe:
            address = client_address(key, 0, 0)
            hops = 0
            while True:
                level = file.buckets[address].level
                nxt = forward_address(key, address, level)
                if nxt is None:
                    break
                address = nxt
                hops += 1
            max_hops = max(max_hops, hops)
        before = file.network.stats.snapshot()
        file.scan(RidScanMatcher())
        scan_msgs = file.network.stats.diff(before).messages
        table.add_row(
            n, file.bucket_count, f"{converged:.2f}", f"{stale_cost:.2f}",
            max_hops, scan_msgs,
        )
    table.notes.append(
        "LNS96 guarantees: lookups need 2 messages (request+reply) "
        "once the image converges, at most 2 extra forwarding hops "
        "when stale; scans cost one request per bucket + one reply"
    )
    return table


def exp_holdout(
    directory: Directory,
    sweep: tuple[tuple[int, int], ...] = (
        (1, 8), (2, 32), (4, 64), (6, 128)
    ),
    seed: int = 53,
) -> TableResult:
    """Does the trained encoder generalise?  Train/held-out χ².

    The paper trains the Stage-2 encoder on "a representative part of
    the database" and deploys it on everything.  This experiment
    splits the directory in half, trains on one half and compares the
    encoded-stream χ² on both: a large held-out gap means the encoder
    memorised rare chunks instead of learning the distribution —
    which happens exactly when the code count approaches the number
    of frequent chunks.
    """
    rng = random.Random(seed)
    entries = list(directory.entries)
    rng.shuffle(entries)
    half = len(entries) // 2
    train = [e.name.encode("ascii") for e in entries[:half]]
    held = [e.name.encode("ascii") for e in entries[half:]]
    table = TableResult(
        title=f"Encoder generalisation: χ² single on train vs held-out "
              f"halves ({half} records each)",
        headers=["chunk", "codes", "chi^2 train", "chi^2 held-out",
                 "ratio"],
    )
    for chunk_size, n_codes in sweep:
        encoder = FrequencyEncoder.train(train, chunk_size, n_codes)
        chi_train, __ = ngram_chi_square(
            [encoder.encode_nonoverlapping(t, 0) for t in train],
            1, symbol_space=n_codes,
        )
        chi_held, __ = ngram_chi_square(
            [encoder.encode_nonoverlapping(t, 0) for t in held],
            1, symbol_space=n_codes,
        )
        ratio = chi_held / chi_train if chi_train else float("inf")
        table.add_row(chunk_size, n_codes, chi_train, chi_held,
                      f"{ratio:.1f}x" if ratio != float("inf")
                      else "inf")
    table.notes.append(
        "a held-out/train ratio near 1 means the frequency profile "
        "was learned, not memorised; blow-ups at high code counts "
        "bound how aggressively a deployment can size its code space "
        "from a finite training sample"
    )
    return table


def exp_elasticity(
    inserts: int = 1500,
    deletes: int = 1200,
    bucket_capacity: int = 8,
    seed: int = 47,
) -> TableResult:
    """The abstract's claim, measured: the file 'grows and shrinks
    with the storage needs of applications, but transparently'."""
    file = LHStarFile(bucket_capacity=bucket_capacity, shrink=True)
    rng = random.Random(seed)
    keys = [rng.randrange(10 ** 9) for __ in range(inserts)]
    table = TableResult(
        title="Elasticity: LH* bucket count tracking the record count",
        headers=["phase", "records", "buckets", "load factor",
                 "msgs in phase"],
    )

    def snapshot(phase: str, delta) -> None:
        buckets = file.coordinator.bucket_count
        load = file.record_count / (buckets * bucket_capacity)
        table.add_row(phase, file.record_count, buckets,
                      f"{load:.2f}", delta.messages)

    before = file.network.stats.snapshot()
    for key in keys:
        file.insert(key, b"elastic-record\x00")
    snapshot("grow", file.network.stats.diff(before))
    before = file.network.stats.snapshot()
    for key in keys[:deletes]:
        file.delete(key)
    snapshot("shrink", file.network.stats.diff(before))
    before = file.network.stats.snapshot()
    for key in keys[:deletes // 2]:
        file.insert(key, b"elastic-record\x00")
    snapshot("regrow", file.network.stats.diff(before))
    survivors = keys[deletes:] + keys[:deletes // 2]
    assert all(file.lookup(k) is not None for k in survivors)
    table.notes.append(
        "shrink retires the most recent split's bucket back into its "
        "partner (tombstones redirect stale clients); a regrowth "
        "split over a tombstone attaches a fresh bucket node — all "
        "survivors verified readable after every phase"
    )
    return table


# ---------------------------------------------------------------------------
# End-to-end encrypted search
# ---------------------------------------------------------------------------

def exp_search_e2e(
    directory: Directory,
    n_records: int = 200,
    n_queries: int = 40,
    seed: int = 13,
) -> TableResult:
    """Full-scheme search over the simulator: cost and precision."""
    sample = directory.sample(n_records, seed=seed)
    corpus = _name_corpus(sample)
    configs = [
        ("s=4 full, raw ECB", SchemeParameters.full(4), None),
        (
            "s=4 full + 64 codes",
            SchemeParameters.full(4, n_codes=64),
            64,
        ),
        (
            "s=4 full + 64 codes + k=2",
            SchemeParameters.full(4, n_codes=64, dispersal=2),
            64,
        ),
        (
            "s=8 4-sites + 256 codes + k=4",
            SchemeParameters.reduced(8, 4, n_codes=256, dispersal=4),
            256,
        ),
    ]
    rng = random.Random(seed)
    queries = [
        entry.last_name
        for entry in rng.sample(sample.entries, n_queries)
    ]
    table = TableResult(
        title=f"End-to-end encrypted search ({n_records} records, "
              f"{len(queries)} queries)",
        headers=["configuration", "recall", "precision", "candidates",
                 "msgs/query", "KB/query", "ms/query (sim)"],
    )
    for label, params, n_codes in configs:
        encoder = (
            FrequencyEncoder.train(corpus, params.chunk_size, n_codes)
            if n_codes
            else None
        )
        store = EncryptedSearchableStore(params, encoder=encoder)
        for entry in sample:
            store.put(entry.rid, entry.record_text)
        total_candidates = total_matches = total_truth = 0
        msgs = kb = sim_seconds = 0.0
        recall_ok = True
        for query in queries:
            if len(query) < params.min_query_length:
                continue
            truth = {
                entry.rid
                for entry in sample
                if query in entry.record_text
            }
            result = store.search(query)
            if not truth <= result.matches:
                recall_ok = False
            total_candidates += len(result.candidates)
            total_matches += len(result.matches)
            total_truth += len(truth)
            msgs += result.cost.messages
            kb += result.cost.bytes / 1024
            sim_seconds += result.elapsed
        executed = sum(
            1 for q in queries if len(q) >= params.min_query_length
        )
        if executed == 0:
            table.add_row(label, "-", "-", 0, "-", "-",
                          "- (all queries below min length)")
            continue
        precision = (
            total_matches / total_candidates if total_candidates else 1.0
        )
        table.add_row(
            label,
            "100%" if recall_ok else "BROKEN",
            f"{precision * 100:.1f}%",
            total_candidates,
            f"{msgs / executed:.1f}",
            f"{kb / executed:.1f}",
            f"{sim_seconds / executed * 1000:.1f}",
        )
    table.notes.append(
        "recall must always be 100% (the scheme's invariant); "
        "precision falls as Stage 2/3 remove information"
    )
    return table


# ---------------------------------------------------------------------------
# Ablation: stage on/off grid
# ---------------------------------------------------------------------------

def _unpack_stream(stream: bytes, width: int) -> list[int]:
    """Inverse of the pipeline's fixed-width packing."""
    return [
        int.from_bytes(stream[i:i + width], "big")
        for i in range(0, len(stream), width)
    ]


def exp_ablation(
    directory: Directory,
    n_records: int = 600,
    seed: int = 17,
) -> TableResult:
    """The central trade-off: index randomness vs attacker success.

    For each stage combination, build the index streams of a sample
    and measure, on what a *single site* stores: the χ² of the stored
    values over their own domain, the distinct/total ratio (how much
    repetition structure an ECB attacker can see), and the accuracy of
    a rank-matching frequency attacker with a perfect language model.
    """
    sample = directory.sample(n_records, seed=seed)
    corpus = _name_corpus(sample)
    configs = [
        ("Stage 1 only (raw ECB)", SchemeParameters.full(4), None),
        ("+ Stage 2 (64 codes)",
         SchemeParameters.full(4, n_codes=64), 64),
        ("+ Stage 3 (k=2)",
         SchemeParameters.full(4, dispersal=2), None),
        ("+ Stages 2+3",
         SchemeParameters.full(4, n_codes=64, dispersal=2), 64),
    ]
    table = TableResult(
        title="Ablation: single-site index-stream statistics per stage "
              "combination",
        headers=["configuration", "domain bits", "chi^2 (values)",
                 "distinct/total", "attack: stream", "attack: codebook"],
    )
    for label, params, n_codes in configs:
        encoder = (
            FrequencyEncoder.train(corpus, params.chunk_size, n_codes)
            if n_codes
            else None
        )
        pipeline = IndexPipeline(params, encoder)
        site0_values: list[int] = []
        plain_values: list[int] = []
        for text in corpus:
            content = text + b"\x00"
            streams = pipeline.build_index_streams(content)
            site0_values.extend(
                _unpack_stream(streams[(0, 0)], params.piece_width)
            )
            for chunk in record_chunks(content, params.chunk_size, 0):
                plain_values.append(pipeline.chunk_value(chunk))
        domain_bits = params.piece_bits
        if domain_bits <= 16:
            chi, __ = ngram_chi_square(
                [tuple(site0_values)], 1, symbol_space=1 << domain_bits
            )
            chi_cell = f"{chi:,.4g}"
        else:
            chi_cell = "n/a (sparse)"
        distinct = len(set(site0_values)) / len(site0_values)
        if params.dispersal == 1:
            prp = pipeline._prps[0]
            cipher_values = (
                [prp.encrypt(v) for v in plain_values]
                if prp is not None else list(plain_values)
            )
            model = Counter(plain_values)
            outcome = frequency_match_attack(
                cipher_values,
                model,
                truth=(prp.decrypt if prp is not None else (lambda v: v)),
            )
            attack_stream = f"{outcome.symbol_accuracy * 100:.1f}%"
            attack_code = f"{outcome.codebook_accuracy * 100:.1f}%"
        else:
            attack_stream = "n/a (pieces)"
            attack_code = "n/a (pieces)"
        table.add_row(
            label, domain_bits, chi_cell, f"{distinct:.3f}",
            attack_stream, attack_code,
        )
    table.notes.append(
        "the attacker has a perfect chunk-frequency model of the "
        "plaintext (worst case); on Stage-2 rows a 'correct' guess "
        "only recovers the lossy bucket code (many plaintext chunks "
        "per code), not the plaintext itself"
    )
    table.notes.append(
        "Stage 3 removes the whole-chunk view from every single site; "
        "the remaining chi^2 skew is the Stage-2 bucket imbalance "
        "showing through the linear map — the paper's 'cautious "
        "optimism' caveat"
    )
    return table


# ---------------------------------------------------------------------------
# Randomness battery (the paper's announced §8 follow-up)
# ---------------------------------------------------------------------------

def _bitpack(values: list[int], bits: int) -> bytes:
    """Pack values tightly at ``bits`` bits each (no byte padding)."""
    accumulator = 0
    filled = 0
    out = bytearray()
    for value in values:
        accumulator = (accumulator << bits) | value
        filled += bits
        while filled >= 8:
            filled -= 8
            out.append((accumulator >> filled) & 0xFF)
    if filled:
        out.append((accumulator << (8 - filled)) & 0xFF)
    return bytes(out)


def exp_randomness(
    directory: Directory, n_records: int = 400, seed: int = 23
) -> TableResult:
    """NIST-style battery on the stored index streams per config.

    The stream values are bit-packed tightly (a 6-bit code contributes
    6 bits, a 3-bit dispersed piece 3 bits) — grading the information
    the site actually stores rather than byte-padding artefacts.
    """
    sample = directory.sample(n_records, seed=seed)
    corpus = _name_corpus(sample)
    configs = [
        ("raw ASCII names", None, None),
        ("Stage 1 only (ECB, s=4)", SchemeParameters.full(4), None),
        ("Stages 1+2 (64 codes)",
         SchemeParameters.full(4, n_codes=64), 64),
        ("Stages 1+2+3 (64 codes, k=2)",
         SchemeParameters.full(4, n_codes=64, dispersal=2), 64),
    ]
    table = TableResult(
        title="Randomness battery (NIST SP-800-22 style) on site-0 "
              "index bits",
        headers=["configuration", "passed", "failed", "worst test",
                 "worst p"],
    )
    for label, params, n_codes in configs:
        if params is None:
            blob = b"".join(corpus)
        else:
            encoder = (
                FrequencyEncoder.train(corpus, params.chunk_size, n_codes)
                if n_codes
                else None
            )
            pipeline = IndexPipeline(params, encoder)
            values: list[int] = []
            for text in corpus:
                stream = pipeline.build_index_streams(text + b"\x00")[(0, 0)]
                values.extend(_unpack_stream(stream, params.piece_width))
            blob = _bitpack(values, params.piece_bits)
        results = randomness_battery(blob)
        passed = sum(1 for r in results if r.passed)
        worst = min(results, key=lambda r: r.p_value)
        table.add_row(
            label, passed, len(results) - passed, worst.name,
            f"{worst.p_value:.3g}",
        )
    table.notes.append(
        "raw text fails everything; ECB of raw chunks produces "
        "random-looking *bits* (while still leaking chunk repetition, "
        "which bit-level tests cannot see); Stage-2/3 streams inherit "
        "the bucket-load imbalance and fail the frequency tests — "
        "the paper's own 'the results do (not yet?) justify more than "
        "cautious optimism'"
    )
    return table
