"""Batched bucket scans under chaos.

The haystack fast path caches a derived view of bucket contents, so
the dangerous failure mode is staleness: a crash recovery, forwarded
split, or partition-delayed insert that mutates records without
dropping the cached blob.  These tests drive the standard episode
runner (crash + partition schedules) and pin two facts:

1. Episodes with batched scans enabled pass the full oracle battery
   — including the fault-free-twin search comparison — and the
   haystack cache demonstrably *worked* (builds, hits, and
   fault-driven invalidations all nonzero).
2. A batched episode is **byte-identical** to the same seeded episode
   run over the per-record reference loop (``tests/oracle.py``): same
   schedule, same counters, same violations (none).  Batching changes
   nothing observable, even mid-crash.
"""

import pytest

from repro.chaos.nemesis import NemesisProfile
from repro.chaos.runner import EpisodeConfig, run_episode
from repro.obs.metrics import MetricsRegistry, use_metrics
from tests.oracle import both

#: Crash + partition only: the two fault classes that rebuild or
#: reroute bucket contents behind the scan path's back.
CRASHY_PROFILE = NemesisProfile(
    loss_rate=0.0, loss_windows=0,
    duplication_rate=0.0, duplication_windows=0,
    corruption_rate=0.0, corruption_windows=0,
    latency_extra=0.0, latency_windows=0,
    partition_windows=2,
    crash_windows=2,
    window=1.5, horizon=12.0,
)

CRASHY = EpisodeConfig(records=10, ops=24, profile=CRASHY_PROFILE)


class TestBatchedScansSurviveChaos:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_oracles_hold_and_haystacks_exercised(self, seed):
        registry = MetricsRegistry()
        with use_metrics(registry):
            report = run_episode(seed, config=CRASHY)
        assert report.ok, [v.to_dict() for v in report.violations]
        assert report.nemesis["applied"] > 0
        # The episode actually went through the batched path, and the
        # chaos actually forced cache rebuilds.
        assert registry.counter("lh.haystack.build").value > 0
        assert registry.counter("lh.haystack.hit").value > 0
        assert registry.counter("lh.haystack.invalidate").value > 0

    def test_batched_episode_identical_to_scalar(self):
        """Batching is a pure no-op under chaos: same seeded
        crash/partition schedule, same message counts, same answers."""
        batched, scalar = both(lambda: run_episode(1, config=CRASHY))
        assert batched.ok and scalar.ok
        assert batched.episode_dict() == scalar.episode_dict()
