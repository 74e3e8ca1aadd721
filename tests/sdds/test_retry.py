"""Client timeout/retry and idempotent redelivery under faults.

The LH* client protocol must complete whole workloads over a network
that drops and duplicates its datagrams, without ever double-applying
an operation — ``record_count`` stays exact and every reply is the
one the original request earned.
"""

import pytest

from repro.net import (
    FaultModel,
    JitterLatencyModel,
    Network,
    RetryExhaustedError,
    RetryPolicy,
)
from repro.sdds import LHStarFile
from repro.sdds.lhstar import RidScanMatcher

FAST = RetryPolicy(timeout=0.05, backoff=2.0, max_retries=8)


def faulty_file(seed=0, loss=0.05, dup=0.0, latency=None,
                policy=FAST, capacity=4):
    net = Network(
        latency=latency,
        faults=FaultModel(seed=seed, loss_rate=loss,
                          duplication_rate=dup),
    )
    return LHStarFile(
        network=net, bucket_capacity=capacity, retry_policy=policy
    )


class TestKeyedRetry:
    def test_workload_survives_loss(self):
        file = faulty_file(seed=11, loss=0.1)
        for k in range(60):
            file.insert(k, f"v{k}\x00".encode())
        assert file.record_count == 60
        for k in range(60):
            assert file.lookup(k) == f"v{k}\x00".encode()
        stats = file.network.stats
        assert stats.dropped > 0
        assert stats.retries > 0

    def test_deletes_survive_loss(self):
        file = faulty_file(seed=23, loss=0.1)
        for k in range(40):
            file.insert(k, b"v\x00")
        for k in range(40):
            assert file.delete(k) is True
        assert file.record_count == 0
        assert not file.delete(0)

    def test_duplicate_inserts_keep_record_count_exact(self):
        """Redelivered inserts are dedup'd bucket-side: splitting
        thresholds and the record count never see the copy."""
        file = faulty_file(seed=7, loss=0.0, dup=1.0)
        for k in range(50):
            file.insert(k, b"v\x00")
        assert file.record_count == 50
        assert file.network.stats.duplicated > 0
        assert len(file.all_records()) == 50

    def test_duplicate_deletes_stay_true(self):
        """The copy of a delete must not observe the post-delete state
        and flip the answer to False."""
        file = faulty_file(seed=7, loss=0.0, dup=1.0)
        file.insert(1, b"v\x00")
        assert file.delete(1) is True
        assert file.record_count == 0

    def test_retry_budget_exhaustion_raises(self):
        file = faulty_file(
            seed=1, loss=1.0,
            policy=RetryPolicy(timeout=0.01, max_retries=2),
        )
        with pytest.raises(RetryExhaustedError):
            file.insert(1, b"v\x00")


class TestScanRetry:
    matcher = RidScanMatcher()

    def test_scan_completes_under_loss(self):
        file = faulty_file(seed=3, loss=0.1)
        for k in range(60):
            file.insert(k, b"v\x00")
        assert file.bucket_count > 1
        before = file.network.stats.snapshot()
        hits = file.scan(self.matcher)
        assert sorted(hits) == list(range(60))
        delta = file.network.stats.delta(before)
        assert delta.retries > 0

    def test_retry_is_targeted_not_rebroadcast(self):
        """A retry round resends at most the unanswered buckets, so
        the per-scan message count stays near one per bucket."""
        file = faulty_file(seed=3, loss=0.15)
        for k in range(80):
            file.insert(k, b"v\x00")
        buckets = file.live_bucket_count
        before = file.network.stats.snapshot()
        file.scan(self.matcher)
        delta = file.network.stats.delta(before)
        sent = delta.by_kind["scan"]
        # A full re-broadcast per retry round would cost a multiple of
        # the bucket count; targeted retries stay well under 2x.
        assert buckets <= sent < 2 * buckets

    def test_duplicate_scan_replies_not_double_counted(self):
        file = faulty_file(seed=5, loss=0.0, dup=1.0)
        for k in range(60):
            file.insert(k, b"v\x00")
        hits = file.scan(self.matcher)
        assert sorted(hits) == list(range(60))

    def test_scan_budget_exhaustion_raises(self):
        file = faulty_file(
            seed=1, loss=1.0,
            policy=RetryPolicy(timeout=0.01, max_retries=2),
        )
        with pytest.raises(RetryExhaustedError):
            file.scan(self.matcher)


class TestConvergenceUnderJitter:
    def test_full_workload_with_jitter_and_faults(self):
        """Loss, duplication and cross-link reordering at once: the
        protocol still converges to the exact expected state."""
        file = faulty_file(
            seed=17, loss=0.05, dup=0.02,
            latency=JitterLatencyModel(seed=17),
        )
        for k in range(50):
            file.insert(k, f"r{k}\x00".encode())
        for k in range(0, 50, 2):
            assert file.delete(k)
        assert file.record_count == 25
        for k in range(50):
            expected = None if k % 2 == 0 else f"r{k}\x00".encode()
            assert file.lookup(k) == expected
        hits = file.scan(RidScanMatcher())
        assert sorted(hits) == [k for k in range(50) if k % 2]


class TestZeroLossEquivalence:
    def test_byte_identical_to_reliable_network(self):
        """At zero rates the whole retry layer must be invisible:
        message counts, bytes and the simulated clock all match a
        plain reliable Network run."""

        def workload(net):
            file = LHStarFile(network=net, bucket_capacity=4)
            for k in range(40):
                file.insert(k, b"v\x00")
            for k in range(40):
                file.lookup(k)
            file.scan(RidScanMatcher())
            stats = net.stats
            return (stats.messages, stats.bytes, net.now,
                    stats.retries, stats.dropped)

        reliable = workload(Network())
        faulty = workload(
            Network(faults=FaultModel(seed=99, loss_rate=0.0,
                                      duplication_rate=0.0))
        )
        assert reliable == faulty
        assert reliable[3] == 0
