"""Conjunctive search and key rotation."""

import pytest

from repro.core import (
    ConfigurationError,
    EncryptedSearchableStore,
    FrequencyEncoder,
    SchemeParameters,
)

RECORDS = {
    1: "SCHWARZ THOMAS SANTA CLARA",
    2: "LITWIN WITOLD PARIS DAUPHINE",
    3: "TSUI PETER SANTA CLARA",
    4: "SCHWARZ PETER MILANO",
}


def make_store(**kwargs):
    store = EncryptedSearchableStore(SchemeParameters.full(4), **kwargs)
    for rid, text in RECORDS.items():
        store.put(rid, text)
    return store


class TestConjunctiveSearch:
    def test_intersection_semantics(self):
        store = make_store()
        result = store.search_all(["SCHWARZ", "PETER"])
        assert result.matches == frozenset({4})

    def test_three_way(self):
        store = make_store()
        result = store.search_all(["SANTA", "CLARA", "PETER"])
        assert result.matches == frozenset({3})

    def test_single_pattern_equals_search(self):
        store = make_store()
        assert (
            store.search_all(["SCHWARZ"]).matches
            == store.search("SCHWARZ").matches
        )

    def test_disjoint_patterns(self):
        store = make_store()
        assert store.search_all(["LITWIN", "SCHWARZ"]).matches == \
            frozenset()

    def test_one_round_cost(self):
        """All patterns in one scan: cheaper than sequential rounds."""
        store = make_store()
        combined = store.search_all(["SANTA", "CLARA"],
                                    verify=False).cost.messages
        separate = (
            store.search("SANTA", verify=False).cost.messages
            + store.search("CLARA", verify=False).cost.messages
        )
        assert combined < separate

    def test_empty_pattern_list(self):
        store = make_store()
        with pytest.raises(ConfigurationError):
            store.search_all([])

    def test_pattern_label(self):
        store = make_store()
        result = store.search_all(["SANTA", "CLARA"])
        assert result.pattern == "SANTA AND CLARA"


class TestRekey:
    def test_search_works_after_rotation(self):
        store = make_store()
        store.rekey(b"rotated-master-key")
        for rid, text in RECORDS.items():
            name = text.split(" ")[0]
            assert rid in store.search(name).matches
            assert store.get(rid) == text

    def test_ciphertexts_actually_change(self):
        store = make_store()
        old = {
            r.rid: r.content for r in store.record_file.all_records()
        }
        old_index = {
            r.rid: r.content for r in store.index_file.all_records()
        }
        store.rekey(b"rotated-master-key")
        new = {
            r.rid: r.content for r in store.record_file.all_records()
        }
        new_index = {
            r.rid: r.content for r in store.index_file.all_records()
        }
        assert all(old[rid] != new[rid] for rid in old)
        changed = sum(
            1 for rid in old_index if old_index[rid] != new_index[rid]
        )
        assert changed == len(old_index)

    def test_rekey_with_encoder(self):
        params = SchemeParameters.full(4, n_codes=32)
        texts = [t.encode() for t in RECORDS.values()]
        store = EncryptedSearchableStore(
            params, encoder=FrequencyEncoder.train(texts, 4, 32)
        )
        for rid, text in RECORDS.items():
            store.put(rid, text)
        store.rekey(b"second-key")
        assert 1 in store.search("SCHWARZ").matches

    def test_empty_key_rejected(self):
        store = make_store()
        with pytest.raises(ConfigurationError):
            store.rekey(b"")

    def test_rekey_isolates_old_key(self):
        """After rotation a pipeline keyed with the old master no
        longer matches the stored index streams."""
        store = make_store()
        from repro.core.index import IndexPipeline
        from repro.core.search import PlanScanMatcher
        from repro.sdds.haystack import BucketHaystack
        old_pipeline = IndexPipeline(SchemeParameters.full(4))
        store.rekey(b"rotated")
        plan = old_pipeline.plan_query(b"SCHWARZ ")
        matcher = PlanScanMatcher(plan, store.decode_index_key)
        assert matcher.match_bucket(BucketHaystack({
            record.rid: record
            for record in store.index_file.all_records()
        })) == []
