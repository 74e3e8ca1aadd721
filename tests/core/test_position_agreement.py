"""Recall under the position-agreement candidate rule.

``HitAggregator.candidates()`` keeps a record only when
``required_groups`` chunking groups place the pattern at one symbol
offset.  That is sound only if a true occurrence always produces such
an agreement — for every stored chunking offset, padded or dropped
head chunk, symbol width, dispersal degree and aggregation mode.  The
properties below check exactly that, against brute-force substring
search, and that the rule only ever *removes* candidates of the older
count-the-groups rule (rebuilt here from ``intersected_positions``).
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EncryptedSearchableStore, SchemeParameters
from repro.core.chunking import StorageLayout
from repro.core.errors import ConfigurationError
from repro.net import RetryPolicy
from tests.oracle import reference_paths

#: Three letters and a space: chunks recur at unrelated offsets all the
#: time, which is what stresses the agreement rule.
ALPHABET = "AB C"

LAYOUTS = [StorageLayout.full(s) for s in (2, 3, 4)] + [
    StorageLayout.reduced(s, sites)
    for s in (2, 3, 4, 6, 8)
    for sites in range(1, s + 1)
    if s % sites == 0
] + [
    # Neither constructor: two chunkings, two alignments per stride.
    StorageLayout(chunk_size=4, offsets=(0, 2), alignments=4),
]

TEXTS = st.lists(
    st.text(alphabet=ALPHABET, min_size=1, max_size=14),
    min_size=3, max_size=7,
)


def layout_id(layout):
    return f"s{layout.chunk_size}-g{layout.group_count}-a{layout.alignments}"


@st.composite
def stores(draw, layout):
    """A small loaded store over ``layout`` with every other knob the
    configuration accepts drawn at random, plus its plaintext corpus."""
    texts = draw(TEXTS)
    corpus = dict(enumerate(texts, start=1))
    symbol_width = draw(st.sampled_from([1, 2]))
    options = dict(
        layout=layout,
        drop_partial_chunks=draw(st.booleans()),
        symbol_width=symbol_width,
        dispersal=draw(st.sampled_from([1, 2])),
        aggregation=draw(st.sampled_from(["auto", "any"])),
        n_codes=draw(st.sampled_from([None, 16])),
    )
    try:
        params = SchemeParameters(**options)
    except ConfigurationError:
        # e.g. 24-bit pieces: the degree of dispersal does not fit the
        # chunk width.  Compression always makes it fit.
        params = SchemeParameters(**{**options, "n_codes": 16})
    if params.n_codes is None:
        store = EncryptedSearchableStore(params)
    else:
        encoding = "ascii" if symbol_width == 1 else "utf-16-be"
        store = EncryptedSearchableStore.with_trained_encoder(
            params,
            # The fixed sample keeps the census non-empty when every
            # drawn text is shorter than a chunk.
            [text.encode(encoding) for text in texts + [ALPHABET * 4]],
        )
    for rid, text in corpus.items():
        store.put(rid, text)
    return store, corpus


def patterns_for(draw, corpus, length):
    """A pattern of exactly ``length`` symbols: usually cut out of a
    record (so it occurs), sometimes free (so it may not)."""
    hosts = [text for text in corpus.values() if len(text) >= length]
    if hosts and draw(st.integers(0, 3)):
        host = draw(st.sampled_from(hosts))
        start = draw(st.integers(0, len(host) - length))
        return host[start:start + length]
    return draw(st.text(alphabet=ALPHABET, min_size=length,
                        max_size=length))


def containing(corpus, pattern):
    return {rid for rid, text in corpus.items() if pattern in text}


def count_the_groups_candidates(store, pattern):
    """The candidate set of the rule this one replaced: enough groups
    hit, wherever they hit."""
    plan = store.pipeline.plan_query(store._pattern_bytes(pattern))
    (aggregator,) = store._scan_round([plan]).aggregators
    def groups_hit(rid):
        return sum(
            any(aggregator.intersected_positions(rid, group, alignment)
                for alignment in plan.alignments)
            for group in range(plan.group_count)
        )

    return {
        rid for rid in store._rids
        if groups_hit(rid) >= plan.required_groups
    }


@pytest.mark.parametrize("layout", LAYOUTS, ids=layout_id)
@settings(max_examples=12)
@given(data=st.data())
def test_every_entry_point_keeps_full_recall(layout, data):
    # Over the fused paths or over the reference ones (tests/oracle.py).
    plain = data.draw(st.booleans())
    with reference_paths() if plain else nullcontext():
        check_every_entry_point(layout, data)


def check_every_entry_point(layout, data):
    store, corpus = data.draw(stores(layout))
    minimum = store.params.min_query_length
    first = patterns_for(data.draw, corpus, minimum)
    second = patterns_for(
        data.draw, corpus, minimum + data.draw(st.integers(0, 4))
    )

    for pattern in (first, second):
        expected = containing(corpus, pattern)
        result = store.search(pattern)
        assert result.matches == expected
        assert result.matches <= result.candidates
        assert result.candidates <= count_the_groups_candidates(
            store, pattern
        )
        assert result.false_positives == (
            result.candidates - result.matches
        )

    batch = store.search_batch([first, second])
    for pattern in (first, second):
        assert batch[pattern].matches == containing(corpus, pattern)
        assert batch[pattern].candidates == (
            store.search(pattern, verify=False).candidates
        )

    assert store.search_all([first, second]).matches == (
        containing(corpus, first) & containing(corpus, second)
    )

    assert store.search(first, anchor_start=True).matches == {
        rid for rid, text in corpus.items() if text.startswith(first)
    }

    if minimum > 1:
        short = patterns_for(data.draw, corpus, minimum - 1)
        assert store.search_short(short, alphabet=ALPHABET).matches == (
            containing(corpus, short)
        )

    if not store.params.drop_partial_chunks:
        # The end anchor tiles the pattern onto the record's padded
        # final chunks, which the edge counter-measure does not store.
        assert store.search(second, anchor_end=True).matches == {
            rid for rid, text in corpus.items() if text.endswith(second)
        }


class TestInconsistentOffsets:
    """``ABC`` over 2-symbol chunks needs both chunkings to hit.  In
    ``ABXBC`` they do — ``AB`` in the offset-0 chunking puts the pattern
    at symbol 0, ``BC`` in the offset-1 chunking puts it at symbol 2 —
    but no single place holds the whole pattern."""

    @pytest.fixture
    def store(self):
        store = EncryptedSearchableStore(SchemeParameters.full(2))
        store.put(1, "ABXBC")
        store.put(2, "XABCX")
        return store

    def test_count_the_groups_rule_admitted_it(self, store):
        assert count_the_groups_candidates(store, "ABC") == {1, 2}

    def test_position_agreement_does_not(self, store):
        result = store.search("ABC")
        assert result.candidates == {2}
        assert result.false_positives == frozenset()
        # One candidate fetched instead of two (4 messages, 172 bytes
        # before): a request and a reply fewer.
        assert (result.verify_cost.messages,
                result.verify_cost.bytes) == (2, 86)

    def test_scan_round_is_billed_the_same(self, store):
        """Only verification got cheaper: the scan ships and bills the
        same needles and the same hit lists as before the rule."""
        result = store.search("ABC")
        plan = store.pipeline.plan_query(b"ABC")
        assert plan.request_size() == 8
        assert (result.scan_cost.messages, result.scan_cost.bytes) == (
            2, 104
        )


def test_degraded_scan_keeps_recall():
    """A crashed index bucket is scanned through its parity group, one
    reconstructed record at a time; the positions those reports carry
    must agree just like a live bucket's."""
    corpus = {
        rid: text for rid, text in enumerate([
            "ABBA CAB", "BACCARA", "CAB ABBA", "ABC ABC", "CABBAGE B",
            "A CAB BA", "BAOBAB", "ABACAB", "CACA BAB", "BABA C",
            "ACCA BCA", "B ABBA B",
        ], start=1)
    }
    store = EncryptedSearchableStore(
        SchemeParameters.full(4),
        bucket_capacity=4,
        high_availability=True,
        retry_policy=RetryPolicy(timeout=0.05, backoff=2.0, max_retries=3),
    )
    for rid, text in corpus.items():
        store.put(rid, text)
    index = store.index_file
    index.network.crash(index.bucket_id(1))
    for pattern in ("ABBA", "CAB ", "BACA", "ABC A"):
        assert store.search(pattern).matches == containing(corpus, pattern)
    assert store.network.stats.by_kind.get("degraded_scan", 0) > 0
