"""Machine-readable perf smoke for the fused index-codec kernels.

Emits ``benchmarks/results/BENCH_codec.json`` (microbench medians for
the PRP and index-build kernels, fused vs reference, plus the plan
cache), ``benchmarks/results/BENCH_search.json`` (end-to-end bulk
load and search-round timings over the simulator) and
``benchmarks/results/BENCH_scan.json`` (the multi-needle scan
automaton vs per-needle sweeps on the noisy sub-byte layout) — median
ns/op and ops/s per bench, plus the fused-vs-reference speedup ratios.

Before timing anything, the harness proves the fast path is *safe*:
fused and reference stores — the chunk index *and* the §8 word-search
and compressed-index stores — run the same workload and must produce
byte-identical index records, identical search answers and identical
wire costs.  A fidelity failure aborts with exit code 2.

Regression gating (``--check``) compares the *speedup ratios* against
the committed baseline in ``benchmarks/baselines/``: ratios are
near machine-independent, unlike absolute nanoseconds, so the gate is
stable across CI hardware.  It fails (exit 1) when a gated ratio
drops more than ``TOLERANCE`` (30%) below baseline or below its
per-ratio hard floor in ``GATED_RATIOS``.  Peak allocations (measured
with ``tracemalloc``, which counts Python-level bytes and is therefore
far more machine-stable than RSS) are gated too: a gated figure may
not grow more than ``MEMORY_TOLERANCE`` (50%) over baseline.  On a
miss the measurement is retried once and the better run wins,
absorbing scheduler noise.

Usage::

    python benchmarks/perf_smoke.py                  # measure + emit
    python benchmarks/perf_smoke.py --check          # gate vs baseline
    python benchmarks/perf_smoke.py --write-baseline # refresh baseline

Env knobs: ``PERF_SMOKE_RECORDS`` (default 120) and
``PERF_SMOKE_REPEATS`` (default 5) shrink the workload for smoke
tests.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import sys
import time
import tracemalloc

from repro.core import (
    CompressedSearchStore,
    EncryptedSearchableStore,
    EncryptedWordStore,
    FrequencyEncoder,
    IndexPipeline,
    SchemeParameters,
)
from repro.core.compressed_index import CompressedScanMatcher
from repro.core.kernels import clear_codec_cache
from repro.core.automaton import plans_automaton
from repro.core.search import (
    MultiPlanScanMatcher,
    PlanScanMatcher,
    bucket_plan_hits,
)
from repro.core.wordsearch import WordScanMatcher
from repro.crypto import FeistelPRP
from repro.data.phonebook import generate_directory
from repro.sdds.haystack import BucketHaystack

HERE = pathlib.Path(__file__).parent
# The reference side of every comparison is reached through the test
# suite's oracle (``tests/oracle.py``) — ``src/`` has no switch.
sys.path.insert(0, str(HERE.parent))
from tests.oracle import both, reference_paths  # noqa: E402

RESULTS_DIR = HERE / "results"
BASELINE_DIR = HERE / "baselines"

RECORDS = int(os.environ.get("PERF_SMOKE_RECORDS", "120"))
REPEATS = int(os.environ.get("PERF_SMOKE_REPEATS", "5"))

#: Allowed relative drop of a speedup ratio before the gate fails.
TOLERANCE = 0.30
#: The gated ratios, each with its own hard floor: the fused path
#: must beat the reference by at least this factor regardless of
#: baseline drift (acceptance bar).  The table-driven kernels sit an
#: order of magnitude up; the batched-scan matchers replace a Python
#: loop with one C-level pass, a smaller but structural win.  The SWP
#: matcher is HMAC-bound on both sides: its fused form only hoists the
#: key schedule, which stopped costing much once ``hmac_sha256`` built
#: its pads with ``bytes.translate`` (reference 26.7 -> 8.9 us/record,
#: fused 11.6 -> 6.7), so its floor only asks "not slower".
GATED_RATIOS = {
    "prp_speedup": 5.0,
    "index_build_speedup": 5.0,
    "batched_scan_speedup": 3.0,
    "wordstore_match_speedup": 1.1,
    "compressed_match_speedup": 3.0,
    "multi_needle_scan_speedup": 3.0,
}
#: Allowed relative growth of a gated peak-allocation figure.
MEMORY_TOLERANCE = 0.50
#: The tracemalloc peaks the gate enforces.
GATED_MEMORY = (
    "bulk_load_peak_bytes",
    "search_round_peak_bytes",
    "automaton_build_peak_bytes",
)

PATTERNS = ["SCHWARZ", "MARTINEZ", "WONG", "NGUYEN", "GARCIA"]

#: The 16-pattern batch driving the multi-needle bench — the Table-4
#: workload shape (many last-name queries in one
#: round), sized so the per-(lane, length) needle census crosses the
#: automaton's index threshold.
SCAN_PATTERNS = [
    "SCHWARZ ", "MARTINEZ", "RODRIGUE", "WILLIAMS",
    "ANDERSON", "THOMPSON", "GONZALEZ", "HERNANDE",
    "CAMPBELL", "MITCHELL", "ROBINSON", "PETERSON",
    "PHILLIPS", "SULLIVAN", "REYNOLDS", "FERGUSON",
]


def _median_seconds(fn, repeats=REPEATS):
    """Median wall-clock of ``repeats`` calls of ``fn``."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _bench(fn, ops, repeats=REPEATS):
    """One bench record: median ns/op and ops/s over ``ops`` ops/call."""
    seconds = _median_seconds(fn, repeats)
    return {
        "median_ns_per_op": seconds * 1e9 / ops,
        "ops_per_s": ops / seconds if seconds else float("inf"),
        "ops_per_call": ops,
    }


# -- fidelity -----------------------------------------------------------------


def _workload(directory):
    """One deterministic store workload; returns comparable artefacts."""
    sample = directory.sample(RECORDS, seed=7)
    corpus = [e.name.encode("ascii") for e in sample]
    params = SchemeParameters.full(
        4, n_codes=64, dispersal=2, master_key=b"perf-smoke"
    )
    encoder = FrequencyEncoder.train(corpus, params.chunk_bytes, 64)
    store = EncryptedSearchableStore(
        params, encoder=encoder, bucket_capacity=32
    )
    store.bulk_load({e.rid: e.record_text for e in sample})
    answers = {
        pattern: (
            sorted(result.candidates), sorted(result.matches)
        )
        for pattern in PATTERNS
        for result in [store.search(pattern)]
    }
    index_bytes = {
        record.rid: record.content
        for record in store.index_file.all_records()
    }
    stats = store.network.stats
    wire = (stats.messages, stats.bytes, dict(stats.by_kind),
            dict(stats.bytes_by_kind))
    return index_bytes, answers, wire


def _wire(store):
    stats = store.network.stats
    return (stats.messages, stats.bytes, dict(stats.by_kind),
            dict(stats.bytes_by_kind))


def _word_workload(texts):
    store = EncryptedWordStore(b"perf-smoke-words")
    for rid, text in texts.items():
        store.put(rid, text)
    answers = {
        pattern: (sorted(result.matches), dict(result.positions))
        for pattern in PATTERNS
        for result in [store.search(pattern)]
    }
    return answers, _wire(store)


def _compressed_workload(texts, corpus):
    store = CompressedSearchStore(b"perf-smoke-csi", corpus)
    for rid, text in texts.items():
        store.put(rid, text)
    answers = {
        pattern: sorted(store.search(pattern).matches)
        for pattern in PATTERNS
    }
    index_bytes = {
        record.rid: record.content
        for record in store.index_file.all_records()
    }
    return index_bytes, answers, _wire(store)


def check_equivalence(directory):
    """Fused and reference stores must be indistinguishable — the
    chunk index and both §8 stores."""
    fused, plain = both(lambda: _workload(directory))
    sample = directory.sample(min(RECORDS, 80), seed=11)
    texts = {e.rid: e.record_text for e in sample}
    corpus = [e.name.encode("ascii") for e in sample]
    words = both(lambda: _word_workload(texts))
    compressed = both(lambda: _compressed_workload(texts, corpus))
    return {
        "index_bytes_identical": fused[0] == plain[0],
        "search_answers_identical": fused[1] == plain[1],
        "wire_costs_identical": fused[2] == plain[2],
        "wordstore_identical": words[0] == words[1],
        "compressed_identical": compressed[0] == compressed[1],
    }


# -- measurements -------------------------------------------------------------


def measure_codec(directory):
    """Microbench medians for BENCH_codec.json."""
    values = [(i * 2654435761) % 65536 for i in range(1000)]
    reference_prp = FeistelPRP(b"perf-smoke-prp", 2 ** 16)
    fused_prp = FeistelPRP(b"perf-smoke-prp", 2 ** 16)
    fused_prp.permutation_table()  # build outside the timed region

    sample = directory.sample(min(RECORDS, 100), seed=2)
    corpus = [e.name.encode("ascii") for e in sample]
    params = SchemeParameters.full(4, n_codes=64, dispersal=2)
    texts = [e.record_text.encode("ascii") + b"\x00" for e in sample]

    def pipeline():
        return IndexPipeline(
            params,
            FrequencyEncoder.train(corpus, params.chunk_bytes, 64),
        )

    fused_pipeline = pipeline()
    fused_pipeline.warm()

    plan_pipeline = pipeline()
    plan_pipeline.warm()
    pattern = b"SCHWARZ "
    plan_pipeline.plan_query(pattern)  # prime the LRU

    benches = {
        "prp_encrypt_reference": _bench(
            lambda: [reference_prp.encrypt(v) for v in values],
            ops=len(values),
        ),
        "prp_encrypt_stream": _bench(
            lambda: fused_prp.encrypt_stream(values), ops=len(values)
        ),
        "index_build_fused": _bench(
            lambda: [fused_pipeline.build_index_streams(t)
                     for t in texts],
            ops=len(texts),
        ),
        "plan_query_uncached": _bench(
            lambda: plan_pipeline._build_plan(pattern), ops=1
        ),
        "plan_query_cached": _bench(
            lambda: plan_pipeline.plan_query(pattern), ops=1
        ),
    }
    with reference_paths():
        reference_pipeline = pipeline()
        benches["index_build_reference"] = _bench(
            lambda: [reference_pipeline.build_index_streams(t)
                     for t in texts],
            ops=len(texts),
        )
    ratios = {
        "prp_speedup": (
            benches["prp_encrypt_reference"]["median_ns_per_op"]
            / benches["prp_encrypt_stream"]["median_ns_per_op"]
        ),
        "index_build_speedup": (
            benches["index_build_reference"]["median_ns_per_op"]
            / benches["index_build_fused"]["median_ns_per_op"]
        ),
        "plan_cache_speedup": (
            benches["plan_query_uncached"]["median_ns_per_op"]
            / benches["plan_query_cached"]["median_ns_per_op"]
        ),
    }
    return benches, ratios


def measure_matchers(directory):
    """Matcher-level medians: one haystack pass vs the scalar loop.

    Every store is built with an oversized bucket so its whole index
    lands in one haystack — the per-bucket geometry the batched scan
    sees on the server.
    """
    sample = directory.sample(RECORDS, seed=7)
    texts = {e.rid: e.record_text for e in sample}
    corpus = [e.name.encode("ascii") for e in sample]
    capacity = max(8 * RECORDS, 64)

    # The §2.3 full-entropy layout (raw PRP chunks, dispersed): the
    # geometry where scan time is needle-sweep-bound.  Sub-byte
    # Stage-2 layouts (e.g. 64 codes over dispersal) are chance-hit
    # bound instead — there batched and scalar run at par, so they
    # would gate nothing.
    params = SchemeParameters.full(
        4, dispersal=2, master_key=b"perf-smoke"
    )
    chunk_store = EncryptedSearchableStore(
        params, bucket_capacity=capacity
    )
    chunk_store.bulk_load(texts)
    chunk_records = {
        record.rid: record
        for record in chunk_store.index_file.all_records()
    }
    chunk_haystack = BucketHaystack(chunk_records)
    plan = chunk_store.pipeline.plan_query(b"SCHWARZ ")
    plan_matcher = PlanScanMatcher(plan, chunk_store.decode_index_key)

    word_store = EncryptedWordStore(
        b"perf-smoke-words", bucket_capacity=capacity
    )
    for rid, text in texts.items():
        word_store.put(rid, text)
    word_records = {
        record.rid: record
        for record in word_store.index_file.all_records()
    }
    word_haystack = BucketHaystack(word_records)
    trapdoor = word_store._swp.trapdoor("SCHWARZ")
    word_matcher = WordScanMatcher((trapdoor,))

    csi_store = CompressedSearchStore(
        b"perf-smoke-csi", corpus, bucket_capacity=capacity
    )
    for rid, text in texts.items():
        csi_store.put(rid, text)
    csi_records = {
        record.rid: record
        for record in csi_store.index_file.all_records()
    }
    csi_haystack = BucketHaystack(csi_records)
    needles = tuple(
        csi_store._encrypt_stream(variant)
        for variant in csi_store.compressor.pattern_variants(b"SCHWARZ")
    )
    csi_matcher = CompressedScanMatcher((needles,))

    def scalar_pass(matcher, records):
        return [
            hit for record in records.values()
            if (hit := matcher(record)) is not None
        ]

    benches = {
        "batched_scan_fused": _bench(
            lambda: plan_matcher.match_bucket(chunk_haystack),
            ops=len(chunk_records),
        ),
        "wordstore_match_fused": _bench(
            lambda: word_matcher.match_bucket(word_haystack),
            ops=len(word_records),
        ),
        "compressed_match_fused": _bench(
            lambda: csi_matcher.match_bucket(csi_haystack),
            ops=len(csi_records),
        ),
    }
    # The scalar loop a bucket runs for a matcher without
    # ``match_bucket`` — for the word store over per-cell SWP matching.
    with reference_paths():
        benches.update({
            "batched_scan_reference": _bench(
                lambda: scalar_pass(plan_matcher, chunk_records),
                ops=len(chunk_records),
            ),
            "wordstore_match_reference": _bench(
                lambda: scalar_pass(word_matcher, word_records),
                ops=len(word_records),
            ),
            "compressed_match_reference": _bench(
                lambda: scalar_pass(csi_matcher, csi_records),
                ops=len(csi_records),
            ),
        })
    ratios = {
        "batched_scan_speedup": (
            benches["batched_scan_reference"]["median_ns_per_op"]
            / benches["batched_scan_fused"]["median_ns_per_op"]
        ),
        "wordstore_match_speedup": (
            benches["wordstore_match_reference"]["median_ns_per_op"]
            / benches["wordstore_match_fused"]["median_ns_per_op"]
        ),
        "compressed_match_speedup": (
            benches["compressed_match_reference"]["median_ns_per_op"]
            / benches["compressed_match_fused"]["median_ns_per_op"]
        ),
    }
    return benches, ratios


def measure_scan(directory):
    """Multi-needle automaton vs per-needle sweeps for BENCH_scan.json.

    The matcher benches run on the noisy sub-byte Stage-2 layout
    (1-byte pieces over a 64-code domain, dispersal 2) — the geometry
    where per-needle ``bytes.find`` sweeps are chance-hit bound and a
    16-pattern batch pays the sweep tax once per needle.  The
    automaton answers all needles from one gram-index sweep instead.
    """
    sample = directory.sample(RECORDS, seed=7)
    texts = {e.rid: e.record_text for e in sample}
    corpus = [e.name.encode("ascii") for e in sample]
    capacity = max(8 * RECORDS, 64)
    params = SchemeParameters.full(
        4, n_codes=64, dispersal=2, master_key=b"perf-smoke"
    )

    encoder = FrequencyEncoder.train(corpus, params.chunk_bytes, 64)
    store = EncryptedSearchableStore(
        params, encoder=encoder, bucket_capacity=capacity
    )
    store.bulk_load(texts)
    records = {
        record.rid: record
        for record in store.index_file.all_records()
    }
    haystack = BucketHaystack(records)
    plans = [
        store.pipeline.plan_query(pattern.encode("ascii"))
        for pattern in SCAN_PATTERNS
    ]

    matcher = MultiPlanScanMatcher(plans, store.decode_index_key)
    # The automaton's gram indexes die with the haystack, so the build
    # peak is measured against a fresh one; the timed benches then run
    # warm — the steady state a bucket serves between mutations.
    memory = {
        "automaton_build_peak_bytes": _traced_peak(
            lambda: matcher.match_bucket(BucketHaystack(records))
        ),
    }

    # The gated pair times the *sweep phase* — gathering every plan's
    # hits over the bucket haystack — which is exactly the work the
    # automaton replaces: 16 plans' needles answered from shared
    # single-sweep gram indexes vs one ``bytes.find`` sweep per
    # needle.  Turning hits into reply objects (decode + SiteHit per
    # chance hit, identical either way on this chance-hit-bound
    # layout) is deliberately outside the timed region.
    compiled = plans_automaton(plans)

    def sweep(automaton):
        return [
            bucket_plan_hits(
                plan, haystack, store.decode_index_key, automaton
            )
            for plan in plans
        ]

    if sweep(compiled) != sweep(None):
        raise SystemExit("scan fidelity failure: automaton != per-needle")

    benches = {
        "multi_needle_scan_automaton": _bench(
            lambda: sweep(compiled), ops=len(plans),
        ),
        "multi_needle_scan_per_needle": _bench(
            lambda: sweep(None), ops=len(plans),
        ),
    }

    ratios = {
        "multi_needle_scan_speedup": (
            benches["multi_needle_scan_per_needle"]["median_ns_per_op"]
            / benches["multi_needle_scan_automaton"]["median_ns_per_op"]
        ),
    }
    return benches, ratios, memory


def _traced_peak(fn):
    """Peak Python-level allocation (bytes) across one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure_search(directory):
    """End-to-end medians for BENCH_search.json."""
    sample = directory.sample(RECORDS, seed=7)
    corpus = [e.name.encode("ascii") for e in sample]
    params = SchemeParameters.full(
        4, n_codes=64, dispersal=2, master_key=b"perf-smoke"
    )
    records = {e.rid: e.record_text for e in sample}

    def bulk_load():
        encoder = FrequencyEncoder.train(corpus, params.chunk_bytes, 64)
        store = EncryptedSearchableStore(
            params, encoder=encoder, bucket_capacity=32,
        )
        store.bulk_load(records)
        return store

    benches = {
        "bulk_load_fused": _bench(
            bulk_load, ops=len(records), repeats=3
        ),
    }
    with reference_paths():
        benches["bulk_load_reference"] = _bench(
            bulk_load, ops=len(records), repeats=3
        )
    store = bulk_load()
    benches["search_round"] = _bench(
        lambda: [store.search(p) for p in PATTERNS],
        ops=len(PATTERNS), repeats=3,
    )
    ratios = {
        "bulk_load_speedup": (
            benches["bulk_load_reference"]["median_ns_per_op"]
            / benches["bulk_load_fused"]["median_ns_per_op"]
        ),
    }
    # Peak allocations.  The search round runs against a fresh store,
    # so the peak includes building every bucket haystack — the new
    # caches are inside the gated figure, not hidden by warm state.
    cold = bulk_load()
    memory = {
        "bulk_load_peak_bytes": _traced_peak(bulk_load),
        "search_round_peak_bytes": _traced_peak(
            lambda: [cold.search(p) for p in PATTERNS]
        ),
    }
    return benches, ratios, memory


def run(equivalence=True):
    directory = generate_directory(max(RECORDS, 200), seed=2006)
    clear_codec_cache()
    fidelity = check_equivalence(directory) if equivalence else None
    codec_benches, codec_ratios = measure_codec(directory)
    matcher_benches, matcher_ratios = measure_matchers(directory)
    search_benches, search_ratios, memory = measure_search(directory)
    scan_benches, scan_ratios, scan_memory = measure_scan(directory)
    config = {"records": RECORDS, "repeats": REPEATS}
    codec = {
        "schema": "repro-perf-smoke/2",
        "config": config,
        "equivalence": fidelity,
        "benches": codec_benches,
        "ratios": codec_ratios,
    }
    search = {
        "schema": "repro-perf-smoke/2",
        "config": config,
        "benches": {**search_benches, **matcher_benches},
        "ratios": {**search_ratios, **matcher_ratios},
        "memory": memory,
    }
    scan = {
        "schema": "repro-perf-smoke/2",
        "config": config,
        "benches": scan_benches,
        "ratios": scan_ratios,
        "memory": scan_memory,
    }
    return codec, search, scan


def _dump(payload, path):
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _gate(ratios, baseline_ratios):
    """The failing ratio names, against tolerance and hard floors."""
    failures = []
    for name, hard_floor in GATED_RATIOS.items():
        current = ratios.get(name, 0.0)
        floor = hard_floor
        baseline = baseline_ratios.get(name)
        if baseline is not None:
            floor = max(floor, baseline * (1.0 - TOLERANCE))
        if current < floor:
            failures.append(
                f"{name}: {current:.1f}x < required {floor:.1f}x "
                f"(baseline {baseline and f'{baseline:.1f}x' or 'none'}, "
                f"tolerance {TOLERANCE:.0%}, hard floor {hard_floor}x)"
            )
    return failures


def _gate_memory(memory, baseline_memory):
    """The failing peak-allocation names, against the growth ceiling."""
    failures = []
    for name in GATED_MEMORY:
        current = memory.get(name)
        baseline = baseline_memory.get(name)
        if current is None or baseline is None:
            continue
        ceiling = baseline * (1.0 + MEMORY_TOLERANCE)
        if current > ceiling:
            failures.append(
                f"{name}: {current} B > allowed {ceiling:.0f} B "
                f"(baseline {baseline} B, tolerance "
                f"{MEMORY_TOLERANCE:.0%})"
            )
    return failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    check = "--check" in argv
    write_baseline = "--write-baseline" in argv

    codec, search, scan = run()
    fidelity = codec["equivalence"]
    if fidelity is not None and not all(fidelity.values()):
        print(f"FIDELITY FAILURE: {fidelity}", file=sys.stderr)
        return 2

    if check:
        baseline_codec = json.loads(
            (BASELINE_DIR / "BENCH_codec.json").read_text()
        )
        baseline_search = json.loads(
            (BASELINE_DIR / "BENCH_search.json").read_text()
        )
        baseline_scan = json.loads(
            (BASELINE_DIR / "BENCH_scan.json").read_text()
        )
        baseline_ratios = {
            **baseline_codec["ratios"],
            **baseline_search["ratios"],
            **baseline_scan["ratios"],
        }
        baseline_memory = {
            **baseline_search.get("memory", {}),
            **baseline_scan.get("memory", {}),
        }

        def failures_now():
            return _gate(
                {**codec["ratios"], **search["ratios"],
                 **scan["ratios"]},
                baseline_ratios,
            ) + _gate_memory(
                {**search.get("memory", {}), **scan.get("memory", {})},
                baseline_memory,
            )

        failures = failures_now()
        if failures:
            # One retry absorbs a noisy neighbour; keep the better run
            # (max per ratio, min per peak).
            retry_codec, retry_search, retry_scan = run(
                equivalence=False
            )
            for name, value in retry_codec["ratios"].items():
                codec["ratios"][name] = max(codec["ratios"][name], value)
            for name, value in retry_search["ratios"].items():
                search["ratios"][name] = max(
                    search["ratios"][name], value
                )
            for name, value in retry_scan["ratios"].items():
                scan["ratios"][name] = max(scan["ratios"][name], value)
            for name, value in retry_search["memory"].items():
                search["memory"][name] = min(
                    search["memory"][name], value
                )
            for name, value in retry_scan["memory"].items():
                scan["memory"][name] = min(scan["memory"][name], value)
            failures = failures_now()
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            _dump(codec, RESULTS_DIR / "BENCH_codec.json")
            _dump(search, RESULTS_DIR / "BENCH_search.json")
            _dump(scan, RESULTS_DIR / "BENCH_scan.json")
            return 1

    _dump(codec, RESULTS_DIR / "BENCH_codec.json")
    _dump(search, RESULTS_DIR / "BENCH_search.json")
    _dump(scan, RESULTS_DIR / "BENCH_scan.json")
    if write_baseline:
        _dump(codec, BASELINE_DIR / "BENCH_codec.json")
        _dump(search, BASELINE_DIR / "BENCH_search.json")
        _dump(scan, BASELINE_DIR / "BENCH_scan.json")

    print(json.dumps({
        "equivalence": fidelity,
        "codec_ratios": codec["ratios"],
        "search_ratios": search["ratios"],
        "scan_ratios": scan["ratios"],
        "memory": {**search["memory"], **scan["memory"]},
    }, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
