"""End-to-end crash demo: the encrypted store under bucket failures.

A seeded :class:`~repro.net.CrashFaultModel` kills data buckets (at
most ``k`` per parity group, enforced by ``crash_gate``) while a
workload of puts, gets and substring searches runs.  The scheme must
answer every query exactly as a fault-free twin does, recover lost
buckets online through messages, and account every recovery byte.
"""

import pytest

from repro.core import EncryptedSearchableStore, SchemeParameters
from repro.net import CrashFaultModel, Network, RetryPolicy
from repro.obs import Tracer, use_tracer

FAST = RetryPolicy(timeout=0.05, backoff=2.0, max_retries=3)

CORPUS = {
    1: "SCHWARZ THOMAS",
    2: "LITWIN WITOLD",
    3: "TSUI PETER",
    4: "ABOGADO ALEJANDRO",
    5: "MOUSSA RIM",
    6: "NEIMAT MARIE ANNE",
    7: "SCHNEIDER DONOVAN",
    8: "ANDERSON MARGARET",
    9: "ARMSTRONG STEPHEN",
    10: "SCHOLTEN HENDRIK",
    11: "PETERSEN INGRID",
    12: "WHITACRE ERIC",
    13: "LINDGREN ASTRID",
    14: "ARCHER ELIZABETH",
    15: "THOMPSON SCHOLAR",
    16: "WINTERBOTTOM ANNE",
}

PATTERNS = ["SCHW", "ARCH", "PETER", "ANNE", "WITO"]


def build_store(network=None):
    return EncryptedSearchableStore(
        SchemeParameters.full(4),
        network=network,
        bucket_capacity=4,
        high_availability=True,
        retry_policy=FAST,
        group_size=4,
        parity_count=2,
    )


def fault_free_expectations():
    baseline = build_store()
    for rid, text in CORPUS.items():
        baseline.put(rid, text)
    gets = {rid: baseline.get(rid) for rid in CORPUS}
    searches = {p: baseline.search(p).matches for p in PATTERNS}
    return gets, searches


class TestCrashWorkload:
    def test_matches_fault_free_run(self):
        expected_gets, expected_searches = fault_free_expectations()

        crashes = CrashFaultModel(seed=7, mttf=0.3, mttr=0.15,
                                  horizon=300.0)
        net = Network()
        net.schedules.append(crashes)
        store = build_store(network=net)
        rids = sorted(CORPUS)
        for rid in rids[:6]:
            store.put(rid, CORPUS[rid])
        # Arm the schedule once both files exist: the gate keeps every
        # group within its parity budget, so no crash is fatal.
        gates = (store.record_file.crash_gate(),
                 store.index_file.crash_gate())
        crashes.gate = lambda node_id: any(g(node_id) for g in gates)
        targets = [store.record_file.bucket_id(a) for a in range(16)]
        targets += [store.index_file.bucket_id(a) for a in range(16)]
        crashes.plan(targets)
        for rid in rids[6:]:
            store.put(rid, CORPUS[rid])
        got = {rid: store.get(rid) for rid in CORPUS}
        found = {p: store.search(p).matches for p in PATTERNS}
        assert got == expected_gets
        assert found == expected_searches
        # The run really was faulty, and every drop was accounted.
        assert crashes.crashes > 0
        assert net.stats.crashed_drops > 0

    def test_search_survives_index_bucket_crash(self):
        store = build_store()
        for rid, text in CORPUS.items():
            store.put(rid, text)
        expected = {p: store.search(p).matches for p in PATTERNS}
        victim = next(
            a for a, b in store.index_file.buckets.items()
            if not b.retired and b.records
        )
        store.network.crash(store.index_file.bucket_id(victim))
        assert {p: store.search(p).matches for p in PATTERNS} == expected
        assert store.index_file.verify_recovery([victim])

    def test_recovery_traced_and_billed(self):
        store = build_store()
        for rid, text in CORPUS.items():
            store.put(rid, text)
        record_file = store.record_file
        victim, bucket = next(
            (a, b) for a, b in record_file.buckets.items()
            if not b.retired and b.records
        )
        rid = next(iter(bucket.records))
        tracer = Tracer(network=store.network)
        before = store.network.stats.snapshot()
        with use_tracer(tracer):
            store.network.crash(record_file.bucket_id(victim))
            assert store.get(rid) == CORPUS[rid]
        delta = store.network.stats.diff(before)
        # Reconstruction ran online and through the wire.
        for kind in ("recover", "group_fetch", "recover_install",
                     "recover_done"):
            assert delta.by_kind.get(kind, 0) > 0, kind
        spans = [s for s in tracer.finished if s.name == "lh.recover"]
        assert len(spans) == 1
        span = spans[0]
        assert span.attrs["bucket"] == victim
        assert span.stats.bytes > 0
        assert span.stats.by_kind.get("group_fetch", 0) > 0
        # The spare now holds the records and parity still checks out.
        assert victim not in record_file.coordinator.dead
        assert record_file.verify_recovery([victim])
