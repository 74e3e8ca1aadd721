"""Batched bucket scans ≡ per-record reference scans, byte for byte.

PR-5 pinned fused *client-side* codecs to the reference path; this
suite pins the *server-side* batched scan the same way.  Matchers that
expose ``match_bucket`` run each needle once over the bucket's
concatenated haystack — the grids here assert the resulting hits,
candidate sets, answers and wire costs are identical to the scalar
per-record loop, across chunk sizes, dispersal, Stage-2 on/off and
both §8 stores, and that the haystack cache survives every record
mutation (insert, overwrite, delete, split, merge).
"""

import pytest

from repro.core import (
    CompressedSearchStore,
    EncryptedSearchableStore,
    EncryptedWordStore,
    FrequencyEncoder,
    SchemeParameters,
)
from repro.core.automaton import plans_automaton
from repro.core.search import PlanScanMatcher, bucket_plan_hits
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.sdds.haystack import BucketHaystack
from repro.sdds.lhstar import LHStarFile
from repro.sdds.records import Record

TEXTS = [
    "SCHWARZ THOMAS J 453-2234",
    "LITWIN WITOLD 123-4567",
    "AAAABBBBCCCCDDDD",
    "X",
    "MARTINEZ-GARCIA ANA 999-0000",
    "THOMPSON SCHOLAR 555-0001",
]

PATTERNS = ["SCHWARZ ", "WITOLD 12", "ABCDEFGHIJKL", "AAAABBBB",
            "THOMAS J", "999-0000"]

# Store configurations spanning raw/Stage-2 domains, dispersal on/off,
# full and reduced layouts, 1- and 2-byte pieces.
GRID = [
    lambda: (SchemeParameters.full(4, n_codes=64), 64),
    lambda: (SchemeParameters.full(4, n_codes=64, dispersal=2), 64),
    lambda: (SchemeParameters.reduced(8, 4, n_codes=256, dispersal=4),
             256),
    lambda: (SchemeParameters.full(4, n_codes=1000), 1000),
    lambda: (SchemeParameters.full(2), None),
    lambda: (SchemeParameters.full(2, dispersal=2), None),
    # Large raw domain: no fused codec, but batching still applies.
    lambda: (SchemeParameters.full(4), None),
]


def build_store(make, fast_path, bucket_capacity=8):
    params, n_codes = make()
    encoder = (
        FrequencyEncoder.train(
            [t.encode("ascii") for t in TEXTS],
            params.chunk_bytes, n_codes,
        )
        if n_codes is not None
        else None
    )
    store = EncryptedSearchableStore(
        params, encoder=encoder, bucket_capacity=bucket_capacity,
        fast_path=fast_path,
    )
    for rid, text in enumerate(TEXTS):
        store.put(rid, text)
    return store


def assert_stores_agree(fast, reference, patterns=PATTERNS):
    minimum = fast.params.min_query_length
    patterns = [p for p in patterns if len(p) >= minimum]
    assert patterns, "grid entry left no searchable pattern"
    for pattern in patterns:
        a = fast.search(pattern)
        b = reference.search(pattern)
        assert a.candidates == b.candidates, pattern
        assert a.matches == b.matches, pattern
        assert a.cost.bytes == b.cost.bytes, pattern
        assert a.cost.messages == b.cost.messages, pattern


class TestChunkIndexEquivalence:
    @pytest.mark.parametrize("make", GRID)
    def test_answers_and_wire_costs_identical(self, make):
        fast = build_store(make, fast_path=True)
        reference = build_store(make, fast_path=False)
        assert_stores_agree(fast, reference)
        assert fast.network.stats.bytes == reference.network.stats.bytes

    def test_batch_and_conjunctive_entry_points(self):
        make = GRID[1]
        fast = build_store(make, fast_path=True)
        reference = build_store(make, fast_path=False)
        fa = fast.search_batch(["SCHWARZ ", "WITOLD 12"])
        rb = reference.search_batch(["SCHWARZ ", "WITOLD 12"])
        for pattern in fa:
            assert fa[pattern].candidates == rb[pattern].candidates
            assert fa[pattern].cost.bytes == rb[pattern].cost.bytes
        a = fast.search_all(["SCHWARZ ", "THOMAS J"])
        b = reference.search_all(["SCHWARZ ", "THOMAS J"])
        assert a.matches == b.matches
        assert a.cost.bytes == b.cost.bytes

    def test_mutations_invalidate_haystacks(self):
        """Search / mutate / search: the batched store must track the
        reference store through inserts, overwrites and deletes."""
        make = GRID[0]
        fast = build_store(make, fast_path=True)
        reference = build_store(make, fast_path=False)
        for store in (fast, reference):
            store.search("SCHWARZ ")          # haystacks built
            store.put(99, "FRESH RECORD ONE")  # insert
            store.put(0, "REPLACED CONTENT")   # overwrite rid 0
            store.delete(1)                    # delete
        assert_stores_agree(
            fast, reference,
            ["SCHWARZ ", "FRESH RE", "REPLACED", "WITOLD 12"],
        )
        # Retired content must no longer match anywhere.
        assert fast.search("THOMAS J").candidates == (
            reference.search("THOMAS J").candidates
        )


class TestWordStoreEquivalence:
    def test_answers_positions_and_costs_identical(self):
        stores = [
            EncryptedWordStore(b"word-equiv", bucket_capacity=4,
                               fast_path=fast_path)
            for fast_path in (True, False)
        ]
        for store in stores:
            for rid, text in enumerate(TEXTS):
                store.put(rid, text)
        fast, reference = stores
        for word in ("SCHWARZ", "THOMAS", "453-2234", "MISSING",
                     "AAAABBBBCCCCDDDD"):
            a = fast.search(word)
            b = reference.search(word)
            assert a.matches == b.matches, word
            assert a.positions == b.positions, word
            assert a.cost.bytes == b.cost.bytes, word
            assert a.cost.messages == b.cost.messages, word
        assert fast.network.stats.bytes == reference.network.stats.bytes

    def test_mutations_tracked(self):
        stores = [
            EncryptedWordStore(b"word-mut", bucket_capacity=4,
                               fast_path=fast_path)
            for fast_path in (True, False)
        ]
        for store in stores:
            for rid, text in enumerate(TEXTS):
                store.put(rid, text)
            store.search("THOMAS")
            store.put(0, "GOODBYE WORLD")   # overwrite
            store.delete(1)
            store.put(50, "THOMAS AGAIN")
        fast, reference = stores
        for word in ("THOMAS", "SCHWARZ", "GOODBYE", "WITOLD"):
            assert fast.search(word).matches == (
                reference.search(word).matches
            ), word


class TestCompressedEquivalence:
    def test_answers_and_costs_identical(self):
        corpus = [t.encode("ascii") for t in TEXTS]
        stores = [
            CompressedSearchStore(b"csi-equiv", corpus,
                                  bucket_capacity=4,
                                  fast_path=fast_path)
            for fast_path in (True, False)
        ]
        for store in stores:
            for rid, text in enumerate(TEXTS):
                store.put(rid, text)
        fast, reference = stores
        # Fast and reference paths must build identical index streams
        # (translate table ≡ per-code PRP loop) ...
        assert {
            r.rid: r.content for r in fast.index_file.all_records()
        } == {
            r.rid: r.content for r in reference.index_file.all_records()
        }
        # ... and answer identically at identical wire cost.
        for pattern in ("CHWAR", "WITOLD", "BBBBCC", "ZZZ"):
            a = fast.search(pattern)
            b = reference.search(pattern)
            assert a.candidates == b.candidates, pattern
            assert a.matches == b.matches, pattern
            assert a.cost.bytes == b.cost.bytes, pattern

    def test_mutations_tracked(self):
        corpus = [t.encode("ascii") for t in TEXTS]
        stores = [
            CompressedSearchStore(b"csi-mut", corpus,
                                  bucket_capacity=4,
                                  fast_path=fast_path)
            for fast_path in (True, False)
        ]
        for store in stores:
            for rid, text in enumerate(TEXTS):
                store.put(rid, text)
            store.search("THOMAS")
            store.put(0, "REPLACEMENT TEXT")
            store.delete(2)
        fast, reference = stores
        for pattern in ("THOMAS", "PLACEMEN", "BBBBCC"):
            assert fast.search(pattern).candidates == (
                reference.search(pattern).candidates
            ), pattern


class TestAutomatonEquivalence:
    """Fast path (batched scans through the compiled automaton, which
    picks gram index or per-needle sweep per lane) ≡ scalar reference.

    ``fast_path=False`` pins the scalar per-record loop.  Answers and
    wire costs must be byte-identical on every layout, for single
    searches and ``search_batch``; the per-needle sweep keeps its own
    direct check at function level (``bucket_plan_hits`` without an
    automaton).
    """

    def _pair(self, make):
        return (
            build_store(make, fast_path=True),
            build_store(make, fast_path=False),
        )

    @pytest.mark.parametrize("make", GRID)
    def test_search_grid(self, make):
        fast, scalar = self._pair(make)
        assert_stores_agree(fast, scalar)
        assert fast.network.stats.bytes == scalar.network.stats.bytes

    @pytest.mark.parametrize("make", GRID)
    def test_search_batch_grid(self, make):
        fast, scalar = self._pair(make)
        minimum = fast.params.min_query_length
        patterns = [p for p in PATTERNS if len(p) >= minimum]
        results = [
            store.search_batch(patterns) for store in (fast, scalar)
        ]
        for pattern in patterns:
            a, b = (per_store[pattern] for per_store in results)
            assert a.candidates == b.candidates, pattern
            assert a.matches == b.matches, pattern
            assert a.cost.bytes == b.cost.bytes, pattern
            assert a.cost.messages == b.cost.messages, pattern

    @pytest.mark.parametrize("make", GRID)
    def test_per_needle_sweep_matches_compiled_automaton(self, make):
        """``bucket_plan_hits`` without an automaton (every needle a
        ``find_all`` sweep) ≡ with the compiled one, over a batch large
        enough that lanes cross the gram-index threshold."""
        store = build_store(make, fast_path=True, bucket_capacity=1024)
        minimum = store.params.min_query_length
        plans = [
            store.pipeline.plan_query(p.encode("ascii"))
            for p in PATTERNS if len(p) >= minimum
        ]
        compiled = plans_automaton(plans)
        haystack = BucketHaystack({
            record.rid: record
            for record in store.index_file.all_records()
        })
        registry = MetricsRegistry()
        with use_metrics(registry):
            for plan in plans:
                assert bucket_plan_hits(
                    plan, haystack, store.key_codec, compiled
                ) == bucket_plan_hits(
                    plan, haystack, store.key_codec, automaton=None
                ), plan.pattern
        # Both routes really ran: the compiled side built gram indexes.
        assert registry.counter("lh.haystack.automaton.build").value > 0

    def test_mutations_invalidate_gram_indexes(self):
        """The gram index lives in the haystack's view memo, so any
        record mutation must drop it with the haystack."""
        fast, scalar = self._pair(GRID[1])
        for store in (fast, scalar):
            store.search_batch(["SCHWARZ ", "WITOLD 12"])  # indexes built
            store.put(99, "FRESH RECORD ONE")
            store.put(0, "REPLACED CONTENT")
            store.delete(1)
        patterns = ["SCHWARZ ", "FRESH RE", "REPLACED", "WITOLD 12"]
        assert_stores_agree(fast, scalar, patterns)

    def test_compressed_ladder_and_batch(self):
        corpus = [t.encode("ascii") for t in TEXTS]
        stores = [
            CompressedSearchStore(b"csi-auto", corpus,
                                  bucket_capacity=4,
                                  fast_path=fast_path)
            for fast_path in (True, False)
        ]
        for store in stores:
            for rid, text in enumerate(TEXTS):
                store.put(rid, text)
        patterns = ["CHWAR", "WITOLD", "BBBBCC", "ZZZ", "THOMAS"]
        singles = [
            {p: store.search(p) for p in patterns} for store in stores
        ]
        batches = [store.search_batch(patterns) for store in stores]
        for pattern in patterns:
            a, b = (per_store[pattern] for per_store in singles)
            assert a.candidates == b.candidates, pattern
            assert a.matches == b.matches, pattern
            assert a.cost.bytes == b.cost.bytes, pattern
            x, y = (per_store[pattern] for per_store in batches)
            assert x.candidates == y.candidates == a.candidates, pattern
            assert x.matches == y.matches == a.matches, pattern
            assert x.cost.bytes == y.cost.bytes, pattern

    def test_word_store_batch_matches_singles(self):
        stores = [
            EncryptedWordStore(b"word-batch", bucket_capacity=4,
                               fast_path=fast_path)
            for fast_path in (True, False)
        ]
        for store in stores:
            for rid, text in enumerate(TEXTS):
                store.put(rid, text)
        fast, reference = stores
        words = ["SCHWARZ", "THOMAS", "453-2234", "MISSING", "ANA"]
        fast_batch = fast.search_batch(words)
        reference_batch = reference.search_batch(words)
        for word in words:
            single = fast.search(word)
            a = fast_batch[word]
            b = reference_batch[word]
            assert a.matches == b.matches == single.matches, word
            assert a.positions == b.positions == single.positions, word
            assert a.cost.bytes == b.cost.bytes, word
            assert a.cost.messages == b.cost.messages, word


class TestMatcherUnit:
    """PlanScanMatcher: per-record and per-bucket forms agree."""

    def _bucket(self, store):
        """Harvest every index record of a store into one dict, as if
        the whole file were a single bucket."""
        return {
            record.rid: record
            for record in store.index_file.all_records()
        }

    def test_per_record_vs_match_bucket(self):
        store = build_store(GRID[1], fast_path=True,
                            bucket_capacity=1024)
        records = self._bucket(store)
        for pattern in PATTERNS:
            plan = store.pipeline.plan_query(pattern.encode("ascii"))
            matcher = PlanScanMatcher(plan, store.decode_index_key)
            scalar = [
                hit for record in records.values()
                if (hit := matcher(record)) is not None
            ]
            batched = matcher.match_bucket(BucketHaystack(records))
            assert [
                (h.rid, h.group, h.site, h.positions) for h in scalar
            ] == [
                (h.rid, h.group, h.site, h.positions) for h in batched
            ], pattern

    def test_batched_disabled_when_fast_path_off(self):
        store = build_store(GRID[0], fast_path=False)
        plan = store.pipeline.plan_query(b"SCHWARZ ")
        matcher = PlanScanMatcher(plan, store.decode_index_key,
                                  batched=False)
        assert matcher.match_bucket is None
        assert getattr(matcher, "match_bucket", None) is None


class TestMergeInvalidation:
    def test_shrinking_file_keeps_batched_scans_exact(self):
        """Deletes that trigger merges (bucket retirement + record
        re-absorption) must drop stale haystacks."""
        from repro.core.compressed_index import CompressedScanMatcher

        file = LHStarFile(name="shrinker", bucket_capacity=4,
                          shrink=True)
        for rid in range(32):
            file.insert(rid, b"PAYLOAD-%03d" % rid)
        needle = b"PAYLOAD"
        batched = CompressedScanMatcher((needle,))
        scalar = CompressedScanMatcher((needle,), batched=False)
        assert sorted(file.scan(batched, request_size=8)) == sorted(
            file.scan(scalar, request_size=8)
        )
        for rid in range(24):        # force merges
            file.delete(rid)
        assert sorted(file.scan(batched, request_size=8)) == sorted(
            file.scan(scalar, request_size=8)
        ) == sorted(range(24, 32))

    def test_split_invalidation(self):
        """Scans straddling splits see exactly the resident records."""
        from repro.core.compressed_index import CompressedScanMatcher

        file = LHStarFile(name="splitter", bucket_capacity=2)
        matcher = CompressedScanMatcher((b"R-",))
        expected: list[int] = []
        for rid in range(20):
            file.insert(rid, b"R-%02d" % rid)
            expected.append(rid)
            assert sorted(file.scan(matcher, request_size=4)) == expected

    def test_multi_needle_automaton_across_split_and_merge(self):
        """Enough same-length needles to engage the gram index, swept
        across splits and merges: the index must die with each stale
        haystack, matching the scalar per-record matcher exactly."""
        from repro.core.compressed_index import (
            MultiCompressedScanMatcher,
        )

        groups = tuple(
            (b"PAY%d" % digit,) for digit in range(5)
        )  # 5 needles of one length on the shared lane: index engaged
        ladder = [
            MultiCompressedScanMatcher(groups),
            MultiCompressedScanMatcher(groups, batched=False),
        ]
        file = LHStarFile(name="auto-churn", bucket_capacity=4,
                          shrink=True)
        for rid in range(32):
            file.insert(rid, b"xxPAY%dxx" % (rid % 5))
        first = [
            sorted(file.scan(matcher, request_size=16))
            for matcher in ladder
        ]
        assert first[0] == first[1]
        for rid in range(24):        # force merges
            file.delete(rid)
        after = [
            sorted(file.scan(matcher, request_size=16))
            for matcher in ladder
        ]
        assert after[0] == after[1]
        assert [rid for rid, _groups in after[0]] == list(range(24, 32))
