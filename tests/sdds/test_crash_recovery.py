"""Crash-fault tolerance: detection, online recovery, degraded reads.

Buckets here die by `Network.crash` — their node stops receiving and
its timers freeze — and every path back to correctness runs through
messages: clients escalate suspects to the coordinator, the
coordinator probes and declares, LH*_RS reconstructs the lost bucket
from survivors + parity and swaps a spare into the address map, and
reads issued meanwhile are served degraded through the parity group.
"""

import pytest

from repro.core.search import (
    IndexKeyCodec,
    MultiPlanScanMatcher,
    PlanScanMatcher,
    SearchPlan,
)
from repro.errors import (
    BucketUnavailableError,
    InsertFailedError,
    ReproError,
    SDDSError,
)
from repro.net import CrashFaultModel, Network, RetryPolicy
from repro.net.faults import RetryExhaustedError
from repro.obs import Tracer, use_tracer
from repro.sdds import LHStarFile, LHStarRSFile
from repro.sdds.lhstar import HEADER_SIZE, RidScanMatcher
from repro.sdds.lhstar_rs import gate_state
from tests.oracle import RecordsContaining

FAST = RetryPolicy(timeout=0.05, backoff=2.0, max_retries=3)


def rs_file(keys=80, capacity=4, group_size=4, parity_count=2):
    file = LHStarRSFile(
        bucket_capacity=capacity, group_size=group_size,
        parity_count=parity_count, retry_policy=FAST,
    )
    for k in range(keys):
        file.insert(k, f"payload-{k:03d}\x00".encode())
    return file


def lh_file(keys=40, capacity=4):
    file = LHStarFile(bucket_capacity=capacity, retry_policy=FAST)
    for k in range(keys):
        file.insert(k, f"payload-{k:03d}\x00".encode())
    return file


def crash_bucket(file, address):
    file.network.crash(file.bucket_id(address))


def keys_in(file, address):
    return sorted(file.buckets[address].records)


class TestDetectionAndRecovery:
    def test_lookup_triggers_full_recovery(self):
        file = rs_file()
        baseline = {k: file.lookup(k) for k in range(80)}
        target = keys_in(file, 1)[0]
        crash_bucket(file, 1)
        # The very op that hits the dead bucket both gets a degraded
        # answer and sets recovery in motion.
        assert file.lookup(target) == baseline[target]
        stats = file.network.stats
        for kind in ("suspect", "probe", "recover", "group_fetch",
                     "recover_install", "recover_done"):
            assert stats.by_kind.get(kind, 0) > 0, kind
        assert stats.crashed_drops > 0
        # The spare holds the reconstructed records and coordinator
        # state is clean again.
        assert 1 not in file.coordinator.dead
        assert file.verify_recovery([1]) is True
        assert {k: file.lookup(k) for k in range(80)} == baseline

    def test_recovered_bucket_serves_normally(self):
        file = rs_file()
        target = keys_in(file, 2)[0]
        crash_bucket(file, 2)
        first = file.client.start_keyed("lookup", target)
        file.network.run()
        assert file.client.take_reply(first)["degraded"] is True
        # Recovery completed during that run: the next read comes from
        # the spare bucket, not the parity path.
        second = file.client.start_keyed("lookup", target)
        file.network.run()
        reply = file.client.take_reply(second)
        assert reply["ok"]
        assert "degraded" not in reply

    def test_update_parks_until_recovery(self):
        file = rs_file()
        target = keys_in(file, 1)[0]
        crash_bucket(file, 1)
        # Writes cannot be served degraded: the client parks the op
        # with the coordinator and it completes once the spare is up.
        file.insert(target, b"rewritten\x00")
        assert file.lookup(target) == b"rewritten\x00"
        assert file.verify_recovery([1]) is True

    def test_delete_parks_until_recovery(self):
        file = rs_file()
        target = keys_in(file, 1)[0]
        count = file.record_count
        crash_bucket(file, 1)
        assert file.delete(target) is True
        assert file.record_count == count - 1
        assert file.lookup(target) is None
        assert file.verify_recovery([1]) is True

    def test_recovery_emits_span(self):
        file = rs_file()
        tracer = Tracer(network=file.network)
        with use_tracer(tracer):
            crash_bucket(file, 1)
            file.lookup(keys_in(file, 1)[0])
        names = [span.name for span in tracer.finished]
        assert "lh.recover" in names
        span = next(s for s in tracer.finished
                    if s.name == "lh.recover")
        assert span.attrs["bucket"] == 1
        # Reconstruction cost is visible in the span's stats delta.
        assert span.stats.by_kind.get("group_fetch", 0) > 0
        assert span.stats.bytes > 0

    def test_gather_survives_crashed_survivor(self):
        # A second same-group crash the client does not know about:
        # the parity bucket's gather hits the silent survivor, times
        # out, escalates it to the coordinator, and restarts with the
        # enlarged dead set instead of wedging forever.
        file = rs_file(parity_count=2)
        baseline = {k: file.lookup(k) for k in range(80)}
        target = keys_in(file, 1)[0]
        crash_bucket(file, 1)
        crash_bucket(file, 2)
        assert file.lookup(target) == baseline[target]
        # Both members were declared and rebuilt online.
        assert file.coordinator.dead == {}
        assert file.verify_recovery([1, 2]) is True
        assert {k: file.lookup(k) for k in range(80)} == baseline

    def test_false_suspicion_clears_without_recovery(self):
        # Crash, let the client escalate, restore before the probe
        # verdict: the coordinator's probe gets acked and the bucket
        # is never declared dead.
        file = rs_file()
        target = keys_in(file, 1)[0]
        node = file.bucket_id(1)
        file.network.schedule(0.01, lambda: file.network.restore(node))
        file.network.crash(node)
        assert file.lookup(target) is not None
        assert 1 not in file.coordinator.dead
        assert file.network.stats.by_kind.get("recover", 0) == 0


def substring_plan(needle):
    """A one-site, one-group plan: a hit wherever ``needle`` occurs."""
    return SearchPlan(pattern=needle, needles={(0, 0): (needle,)},
                      piece_width=1, sites=1, group_count=1,
                      alignments=(0,), required_groups=1)


SCAN_MATCHERS = {
    "plan": PlanScanMatcher(substring_plan(b"-04"), IndexKeyCodec(0, 0)),
    "two-plan": MultiPlanScanMatcher(
        [substring_plan(b"-04"), substring_plan(b"d-0")],
        IndexKeyCodec(0, 0),
    ),
    "rid": RidScanMatcher(),
}


def scan_with_reply_sizes(file, matcher):
    """Scan once: the hits, sorted, and the first ``scan_reply`` the
    client received for each bucket — address -> (billed size,
    degraded).  Later copies (retries answered after a recovery) are
    ignored, as the client ignores them."""
    replies = {}
    handle = file.client.handle

    def spy(message):
        if message.kind == "scan_reply":
            payload = message.payload
            replies.setdefault(payload["address"], (
                message.size, payload.get("degraded", False)
            ))
        handle(message)

    file.client.handle = spy
    try:
        hits = file.scan(matcher)
    finally:
        del file.client.handle
    return sorted(hits, key=repr), replies


class TestDegradedScan:
    def test_scan_correct_under_k_crashes_same_group(self):
        file = rs_file(keys=120, parity_count=2)
        expected = sorted(file.scan(RidScanMatcher()))
        crash_bucket(file, 1)
        crash_bucket(file, 2)
        degraded = sorted(file.scan(RidScanMatcher()))
        assert degraded == expected
        assert file.network.stats.by_kind.get("degraded_scan", 0) > 0

    def test_scan_correct_under_crashes_across_groups(self):
        file = rs_file(keys=160, capacity=4, group_size=4,
                       parity_count=1)
        assert file.coordinator.n + (file.coordinator.i and 0) >= 0
        expected = sorted(file.scan(RidScanMatcher()))
        # One crash per group stays within parity budget.
        crash_bucket(file, 0)
        crash_bucket(file, 5)
        degraded = sorted(file.scan(RidScanMatcher()))
        assert degraded == expected

    def test_substring_scan_matches_fault_free(self):
        file = rs_file(keys=100)
        matcher = RecordsContaining(b"-04")
        expected = sorted(file.scan(matcher))
        crash_bucket(file, 3)
        assert sorted(file.scan(matcher)) == expected

    @pytest.mark.parametrize("name", sorted(SCAN_MATCHERS))
    def test_answers_and_bills_like_live_bucket(self, name):
        """A bucket answered from parity runs the same ``match_bucket``
        as the live bucket did: same hits, same billed reply."""
        matcher = SCAN_MATCHERS[name]
        file = rs_file(keys=80, parity_count=1)
        address = next(
            address for address, bucket in file.buckets.items()
            if 40 in bucket.records
        )
        healthy, before = scan_with_reply_sizes(file, matcher)
        crash_bucket(file, address)
        degraded, after = scan_with_reply_sizes(file, matcher)
        assert healthy and degraded == healthy
        assert before[address][1] is False
        assert after[address][1] is True
        assert after[address][0] == before[address][0] > HEADER_SIZE


class TestPlainLHStarCrashes:
    def test_lookup_raises_typed_unavailable(self):
        file = lh_file()
        target = keys_in(file, 1)[0]
        crash_bucket(file, 1)
        with pytest.raises(BucketUnavailableError) as excinfo:
            file.lookup(target)
        assert "no parity" in str(excinfo.value)

    def test_scan_raises_typed_unavailable(self):
        file = lh_file()
        crash_bucket(file, 1)
        with pytest.raises(BucketUnavailableError):
            file.scan(RidScanMatcher())

    def test_reboot_is_rediscovered(self):
        file = lh_file()
        target = keys_in(file, 1)[0]
        crash_bucket(file, 1)
        with pytest.raises(BucketUnavailableError):
            file.lookup(target)
        file.network.restore(file.bucket_id(1))
        # The next suspect round re-probes and clears the death
        # certificate; no records were lost (crash, not disk loss).
        assert file.lookup(target) is not None
        assert sorted(file.scan(RidScanMatcher())) == list(range(40))

    def test_splits_and_merges_avoid_dead_addresses(self):
        file = LHStarFile(bucket_capacity=4, retry_policy=FAST,
                          shrink=True, merge_threshold=0.2)
        for k in range(40):
            file.insert(k, b"v\x00")
        survivors_of_1 = keys_in(file, 1)
        crash_bucket(file, 1)
        with pytest.raises(BucketUnavailableError):
            file.lookup(survivors_of_1[0])
        # Shrink pressure must not merge through the dead address: a
        # merge would need its records, which nobody can fetch.
        for k in range(40):
            if k in survivors_of_1:
                continue
            file.delete(k)
        assert 1 in file.buckets
        assert not file.buckets[1].retired
        assert set(file.buckets[1].records) == set(survivors_of_1)


class TestErrorHierarchy:
    def test_tree(self):
        assert issubclass(SDDSError, ReproError)
        assert issubclass(BucketUnavailableError, SDDSError)
        assert issubclass(RetryExhaustedError, SDDSError)
        assert issubclass(InsertFailedError, SDDSError)
        # Backwards compatibility: existing handlers that caught
        # RuntimeError keep working.
        assert issubclass(BucketUnavailableError, RuntimeError)
        assert issubclass(RetryExhaustedError, RuntimeError)
        assert issubclass(InsertFailedError, RuntimeError)

    def test_retry_exhaustion_still_raised_on_total_loss(self):
        from repro.net import FaultModel

        net = Network(faults=FaultModel(seed=1, loss_rate=1.0))
        file = LHStarFile(
            network=net, bucket_capacity=4,
            retry_policy=RetryPolicy(timeout=0.01, max_retries=1),
        )
        with pytest.raises(RetryExhaustedError):
            file.insert(1, b"v\x00")


class TestCrashFaultModelWorkload:
    def test_seeded_crashes_under_gate_preserve_correctness(self):
        crashes = CrashFaultModel(seed=5, mttf=0.4, mttr=0.1,
                                  horizon=60.0)
        net = Network()
        net.schedules.append(crashes)
        file = LHStarRSFile(
            network=net, bucket_capacity=4, group_size=4,
            parity_count=2, retry_policy=FAST,
        )
        crashes.gate = file.crash_gate()
        for k in range(40):
            file.insert(k, f"v{k}\x00".encode())
        crashes.plan([file.bucket_id(a) for a in range(8)])
        for k in range(40, 120):
            file.insert(k, f"v{k}\x00".encode())
        for k in range(120):
            assert file.lookup(k) == f"v{k}\x00".encode(), k
        assert sorted(file.scan(RidScanMatcher())) == list(range(120))

    def test_gate_refuses_overbudget_crashes(self):
        file = rs_file(parity_count=1)
        gate = file.crash_gate()
        assert gate(file.bucket_id(1)) is True
        crash_bucket(file, 1)
        # A second failure in group 0 would exceed k=1.
        assert gate(file.bucket_id(2)) is False
        # Other groups keep their own budget.
        if 4 in file.buckets:
            assert gate(file.bucket_id(4)) is True
        # Non-bucket nodes are never crashed.
        assert gate(file.coordinator_id) is False
        assert gate(file.client_id(0)) is False

    def test_one_gate_predicate_for_both_state_sources(self):
        """The simulator gate reads the file state at each crash; the
        live chaos runner's gate judges from a snapshot read between
        ops.  Both, and the state held by the node objects, give the
        same verdict for every bucket id."""
        file = LHStarRSFile(
            bucket_capacity=4, group_size=4, parity_count=1,
            shrink=True, merge_threshold=0.6, retry_policy=FAST,
        )
        for k in range(60):
            file.insert(k, b"v\x00")
        for k in range(0, 60, 2):
            file.delete(k)
        coordinator = file.coordinator
        assert file.state == (3, 4)
        assert [a for a, b in file.buckets.items() if b.retired] == [
            12, 13, 14, 15]
        # Group 1 holds a dead bucket (declared by hand: recovery
        # would otherwise replace it within the same run).
        coordinator.dead[5] = (file.buckets[5].level, True)
        # Group 2 is at its parity limit: one crashed member, k=1.
        file.network.crash(file.bucket_id(9))
        # Group 3: a split regrows over tombstone 12 and stops before
        # the network runs, leaving a pending target.
        coordinator._split_next()
        assert file.buckets[12].pending
        snapshot = gate_state(file.network, file.name)
        assert set(snapshot) == {"i", "n", "dead", "pending", "retired"}
        objects = {
            "i": coordinator.i, "n": coordinator.n,
            "dead": coordinator.dead,
            "pending": {a for a, b in file.buckets.items() if b.pending},
            "retired": {a for a, b in file.buckets.items() if b.retired},
        }
        at_crash = file.crash_gate()
        between_ops = file.crash_gate(lambda: snapshot)
        from_objects = file.crash_gate(lambda: objects)
        verdicts = {}
        for address in range(20):
            node_id = file.bucket_id(address)
            verdicts[address] = verdict = from_objects(node_id)
            assert at_crash(node_id) is verdict, address
            assert between_ops(node_id) is verdict, address
        # Only healthy group 0 may lose a bucket, and group 2's
        # crashed member (its peers are up; the crash fault model
        # skips nodes already down before it asks the gate).
        assert [a for a, ok in verdicts.items() if ok] == [0, 1, 2, 3, 9]


class TestVerifyRecoveryDiagnostics:
    def test_missing_bucket_raises_typed_error(self):
        file = rs_file(keys=20)
        with pytest.raises(BucketUnavailableError) as excinfo:
            file.verify_recovery([97])
        assert "97" in str(excinfo.value)

    def test_happy_path_all_patterns(self):
        file = rs_file(keys=60)
        import itertools

        members = [a for a in file.buckets
                   if not file.buckets[a].retired
                   and file.group_of(a) == 0]
        for r in (1, 2):
            for pattern in itertools.combinations(members, r):
                assert file.verify_recovery(list(pattern)) is True
