"""The complete scheme over an unreliable network.

The acceptance bar for the robustness layer: with 5% message loss and
1% duplication, a full bulk_load -> search -> delete workload finishes
with 100% recall and an exact record count, with the injected faults
and the recovery retries visible in the network statistics.
"""

import pytest

from repro.core import EncryptedSearchableStore, SchemeParameters
from repro.net import FaultModel, Network, RetryPolicy

RECORDS = {
    rid: text
    for rid, text in enumerate(
        f"415-409-{rid:04d} {name}"
        for rid, name in enumerate(
            ["SCHWARZ THOMAS", "LITWIN WITOLD", "TSUI PETER",
             "ABOGADO ALEJANDRO", "ADAMSON MARK", "SCHWARZ ANNA",
             "BERGER HANS", "SCHWARTZ NOT QUITE"] * 4
        )
    )
}

FAST = RetryPolicy(timeout=0.05, backoff=2.0, max_retries=8)


def faulty_store(seed=42, loss=0.05, dup=0.01):
    network = Network(faults=FaultModel(
        seed=seed, loss_rate=loss, duplication_rate=dup
    ))
    return EncryptedSearchableStore(
        SchemeParameters.full(4),
        network=network,
        bucket_capacity=16,
        retry_policy=FAST,
    )


class TestWorkloadUnderFaults:
    @pytest.fixture(scope="class")
    def loaded(self):
        store = faulty_store()
        store.bulk_load(RECORDS)
        return store

    def test_bulk_load_exact_counts(self, loaded):
        assert loaded.record_file.record_count == len(RECORDS)
        assert len(loaded) == len(RECORDS)

    def test_search_full_recall(self, loaded):
        expected = frozenset(
            rid for rid, text in RECORDS.items() if "SCHWARZ " in text
        )
        result = loaded.search("SCHWARZ ")
        assert result.matches == expected
        assert result.false_positives == frozenset()

    def test_faults_and_recovery_visible_in_stats(self, loaded):
        stats = loaded.network.stats
        assert stats.dropped > 0
        assert stats.duplicated > 0
        assert stats.retries > 0

    def test_delete_half_exact_counts(self):
        store = faulty_store(seed=7)
        store.bulk_load(RECORDS)
        victims = [rid for rid in RECORDS if rid % 2 == 0]
        for rid in victims:
            assert store.delete(rid)
        assert store.record_file.record_count == (
            len(RECORDS) - len(victims)
        )
        for rid in victims:
            assert store.get(rid) is None
        survivor = next(rid for rid in RECORDS if rid % 2)
        assert store.get(survivor) == RECORDS[survivor]


class TestZeroLossEquivalence:
    def test_scheme_byte_identical_on_zero_rate_network(self):
        """A zero-rate fault model must leave the whole encrypted
        search workload byte-identical to the reliable network."""

        def workload(network):
            store = EncryptedSearchableStore(
                SchemeParameters.full(4),
                network=network,
                bucket_capacity=16,
            )
            store.bulk_load({
                rid: RECORDS[rid] for rid in list(RECORDS)[:12]
            })
            store.search("SCHWARZ")
            store.delete(0)
            return (network.stats.messages, network.stats.bytes,
                    network.now, network.stats.retries)

        reliable = workload(Network())
        faulty = workload(
            Network(faults=FaultModel(seed=5, loss_rate=0.0,
                                      duplication_rate=0.0))
        )
        assert reliable == faulty
