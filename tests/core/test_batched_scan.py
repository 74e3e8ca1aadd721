"""Batched bucket scans ≡ per-record reference scans, byte for byte.

The fused codec tests pin the *client-side* codecs to the reference
path; this suite pins the *server-side* batched scan the same way.
Every matcher's ``match_bucket`` runs each needle once over the
bucket's cached, concatenated haystack — the grids here assert the
resulting hits, candidate sets, answers and wire costs are identical
to the record-at-a-time reference loop over a freshly built haystack
(``tests/oracle.py``), across chunk sizes, dispersal, Stage-2 on/off
and both §8 stores, and that the haystack cache survives every record
mutation (insert, overwrite, delete, split, merge).
"""

import pytest

from repro.core import (
    EncryptedSearchableStore,
    FrequencyEncoder,
    SchemeParameters,
)
from repro.core.automaton import plans_automaton
from repro.core.search import PlanScanMatcher, bucket_plan_hits
from repro.extensions import CompressedSearchStore, EncryptedWordStore
from repro.extensions.compressed_index import CompressedScanMatcher
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.sdds.haystack import BucketHaystack
from repro.sdds.lhstar import LHStarFile
from tests.oracle import both, reference_match

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


def build_store(make, bucket_capacity=8, bulk=False):
    """A store over ``TEXTS``, loaded one ``put`` at a time or, with
    ``bulk``, through ``bulk_load`` (``LHStarFile.run_concurrent``)."""
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
    )
    if bulk:
        store.bulk_load(dict(enumerate(TEXTS)))
    else:
        for rid, text in enumerate(TEXTS):
            store.put(rid, text)
    return store


def searchable(store, patterns=PATTERNS):
    minimum = store.params.min_query_length
    patterns = [p for p in patterns if len(p) >= minimum]
    assert patterns, "grid entry left no searchable pattern"
    return patterns


def answers(results):
    """What must not differ between the two sides, per pattern."""
    return {
        pattern: (result.candidates, result.matches,
                  result.cost.bytes, result.cost.messages)
        for pattern, result in results.items()
    }


def search_each(store, patterns):
    return answers({p: store.search(p) for p in patterns})


def index_bytes(store):
    return {r.rid: r.content for r in store.index_file.all_records()}


def wire(store):
    """The store's whole billed census: totals and the per-kind split."""
    stats = store.network.stats
    return (stats.messages, stats.bytes, dict(stats.by_kind),
            dict(stats.bytes_by_kind))


def mutate(store):
    store.put(99, "FRESH RECORD ONE")  # insert
    store.put(0, "REPLACED CONTENT")   # overwrite rid 0
    store.delete(1)                    # delete


def test_the_two_sides_really_differ():
    """The comparisons below mean nothing if ``reference_paths()``
    silently left a store on the fused paths: the reference side must
    build no codec table and never go through a bucket's haystack
    cache, the fused side both."""
    def run():
        registry = MetricsRegistry()
        with use_metrics(registry):
            store = build_store(GRID[0])
            store.search("SCHWARZ ")
        return (store.pipeline.codec(0) is not None,
                registry.counter("lh.haystack.build").value > 0)

    fused, plain = both(run)
    assert fused == (True, True)
    assert plain == (False, False)


class TestChunkIndexEquivalence:
    @pytest.mark.parametrize("make", GRID)
    def test_answers_and_wire_costs_identical(self, make):
        """Index bytes, answers and the whole wire census, for a
        put-loaded and a bulk-loaded store."""
        def run():
            return [
                (search_each(store, searchable(store)),
                 index_bytes(store), wire(store))
                for store in (build_store(make),
                              build_store(make, bulk=True))
            ]

        fused, plain = both(run)
        assert fused == plain

    def test_batch_and_conjunctive_entry_points(self):
        def run():
            store = build_store(GRID[1])
            conjunctive = store.search_all(["SCHWARZ ", "THOMAS J"])
            return (
                answers(store.search_batch(["SCHWARZ ", "WITOLD 12"])),
                conjunctive.matches, conjunctive.cost.bytes,
            )

        fused, plain = both(run)
        assert fused == plain

    def test_mutations_invalidate_haystacks(self):
        """Search / mutate / search: the batched store must track the
        reference store through inserts, overwrites and deletes —
        retired content (``THOMAS J``) must no longer match anywhere."""
        def run():
            store = build_store(GRID[0])
            store.search("SCHWARZ ")          # haystacks built
            mutate(store)
            return search_each(store, [
                "SCHWARZ ", "FRESH RE", "REPLACED", "WITOLD 12",
                "THOMAS J",
            ])

        fused, plain = both(run)
        assert fused == plain


def word_store(key):
    store = EncryptedWordStore(key, bucket_capacity=4)
    for rid, text in enumerate(TEXTS):
        store.put(rid, text)
    return store


def word_answers(results):
    return {
        word: (result.matches, result.positions,
               result.cost.bytes, result.cost.messages)
        for word, result in results.items()
    }


class TestWordStoreEquivalence:
    def test_answers_positions_and_costs_identical(self):
        def run():
            store = word_store(b"word-equiv")
            return (
                word_answers({
                    word: store.search(word)
                    for word in ("SCHWARZ", "THOMAS", "453-2234",
                                 "MISSING", "AAAABBBBCCCCDDDD")
                }),
                wire(store),
            )

        fused, plain = both(run)
        assert fused == plain

    def test_mutations_tracked(self):
        def run():
            store = word_store(b"word-mut")
            store.search("THOMAS")
            store.put(0, "GOODBYE WORLD")   # overwrite
            store.delete(1)
            store.put(50, "THOMAS AGAIN")
            return {
                word: store.search(word).matches
                for word in ("THOMAS", "SCHWARZ", "GOODBYE", "WITOLD")
            }

        fused, plain = both(run)
        assert fused == plain


def compressed_store(key):
    store = CompressedSearchStore(
        key, [t.encode("ascii") for t in TEXTS], bucket_capacity=4
    )
    for rid, text in enumerate(TEXTS):
        store.put(rid, text)
    return store


class TestCompressedEquivalence:
    def test_answers_and_costs_identical(self):
        def run():
            store = compressed_store(b"csi-equiv")
            # Index streams (translate table ≡ per-code PRP) first,
            # then answers and their wire cost.
            found = answers({
                pattern: store.search(pattern)
                for pattern in ("CHWAR", "WITOLD", "BBBBCC", "ZZZ")
            })
            return index_bytes(store), found, wire(store)

        fused, plain = both(run)
        assert fused == plain

    def test_mutations_tracked(self):
        def run():
            store = compressed_store(b"csi-mut")
            store.search("THOMAS")
            store.put(0, "REPLACEMENT TEXT")
            store.delete(2)
            return {
                pattern: store.search(pattern).candidates
                for pattern in ("THOMAS", "PLACEMEN", "BBBBCC")
            }

        fused, plain = both(run)
        assert fused == plain


class TestAutomatonEquivalence:
    """Fused (batched scans through the compiled automaton, which
    picks gram index or per-needle sweep per lane) ≡ scalar reference.

    The reference side runs the record-at-a-time loop.  Answers and
    wire costs must be byte-identical on every layout, for single
    searches and ``search_batch``; the per-needle sweep keeps its own
    direct check at function level (``bucket_plan_hits`` without an
    automaton).
    """

    @pytest.mark.parametrize("make", GRID)
    def test_search_grid(self, make):
        def run():
            store = build_store(make)
            return search_each(store, searchable(store)), wire(store)

        fused, scalar = both(run)
        assert fused == scalar

    @pytest.mark.parametrize("make", GRID)
    def test_search_batch_grid(self, make):
        def run():
            store = build_store(make)
            return answers(store.search_batch(searchable(store)))

        fused, scalar = both(run)
        assert fused == scalar

    @pytest.mark.parametrize("make", GRID)
    def test_per_needle_sweep_matches_compiled_automaton(self, make):
        """``bucket_plan_hits`` without an automaton (every needle a
        ``find_all`` sweep) ≡ with the compiled one, over a batch large
        enough that lanes cross the gram-index threshold."""
        store = build_store(make, bucket_capacity=1024)
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
        def run():
            store = build_store(GRID[1])
            store.search_batch(["SCHWARZ ", "WITOLD 12"])  # indexes built
            mutate(store)
            return search_each(
                store, ["SCHWARZ ", "FRESH RE", "REPLACED", "WITOLD 12"]
            )

        fused, scalar = both(run)
        assert fused == scalar

    def test_compressed_ladder_and_batch(self):
        patterns = ["CHWAR", "WITOLD", "BBBBCC", "ZZZ", "THOMAS"]

        def run():
            store = compressed_store(b"csi-auto")
            return (
                answers({p: store.search(p) for p in patterns}),
                answers(store.search_batch(patterns)),
            )

        fused, scalar = both(run)
        assert fused == scalar
        singles, batch = fused
        for pattern in patterns:
            assert batch[pattern][:2] == singles[pattern][:2], pattern

    def test_word_store_batch_matches_singles(self):
        words = ["SCHWARZ", "THOMAS", "453-2234", "MISSING", "ANA"]

        def run():
            store = word_store(b"word-batch")
            return (
                word_answers(store.search_batch(words)),
                word_answers({w: store.search(w) for w in words}),
            )

        fused, scalar = both(run)
        assert fused == scalar
        batch, singles = fused
        for word in words:
            assert batch[word][:2] == singles[word][:2], word


class TestMatcherUnit:
    """PlanScanMatcher: ``match_bucket`` ≡ the per-record reference."""

    def _bucket(self, store):
        """Harvest every index record of a store into one dict, as if
        the whole file were a single bucket."""
        return {
            record.rid: record
            for record in store.index_file.all_records()
        }

    def test_per_record_vs_match_bucket(self):
        store = build_store(GRID[1], bucket_capacity=1024)
        haystack = BucketHaystack(self._bucket(store))
        for pattern in PATTERNS:
            plan = store.pipeline.plan_query(pattern.encode("ascii"))
            matcher = PlanScanMatcher(plan, store.decode_index_key)
            scalar = reference_match(matcher, haystack)
            batched = matcher.match_bucket(haystack)
            assert [
                (h.rid, h.group, h.site, h.positions) for h in scalar
            ] == [
                (h.rid, h.group, h.site, h.positions) for h in batched
            ], pattern


class TestMergeInvalidation:
    def test_shrinking_file_keeps_batched_scans_exact(self):
        """Deletes that trigger merges (bucket retirement + record
        re-absorption) must drop stale haystacks."""
        def run():
            file = LHStarFile(name="shrinker", bucket_capacity=4,
                              shrink=True)
            for rid in range(32):
                file.insert(rid, b"PAYLOAD-%03d" % rid)
            matcher = CompressedScanMatcher(((b"PAYLOAD",),))
            before = sorted(file.scan(matcher, request_size=8))
            for rid in range(24):        # force merges
                file.delete(rid)
            return before, sorted(file.scan(matcher, request_size=8))

        fused, scalar = both(run)
        assert fused == scalar
        assert fused[1] == [(rid, (0,)) for rid in range(24, 32)]

    def test_split_invalidation(self):
        """Scans straddling splits see exactly the resident records."""
        file = LHStarFile(name="splitter", bucket_capacity=2)
        matcher = CompressedScanMatcher(((b"R-",),))
        expected: list[tuple[int, tuple[int, ...]]] = []
        for rid in range(20):
            file.insert(rid, b"R-%02d" % rid)
            expected.append((rid, (0,)))
            assert sorted(file.scan(matcher, request_size=4)) == expected

    def test_multi_needle_automaton_across_split_and_merge(self):
        """Enough same-length needles to engage the gram index, swept
        across splits and merges: the index must die with each stale
        haystack, matching the per-record reference exactly."""
        groups = tuple(
            (b"PAY%d" % digit,) for digit in range(5)
        )  # 5 needles of one length on the shared lane: index engaged

        def run():
            matcher = CompressedScanMatcher(groups)
            file = LHStarFile(name="auto-churn", bucket_capacity=4,
                              shrink=True)
            for rid in range(32):
                file.insert(rid, b"xxPAY%dxx" % (rid % 5))
            first = sorted(file.scan(matcher, request_size=16))
            for rid in range(24):        # force merges
                file.delete(rid)
            return first, sorted(file.scan(matcher, request_size=16))

        fused, scalar = both(run)
        assert fused == scalar
        assert [rid for rid, _groups in fused[1]] == list(range(24, 32))
