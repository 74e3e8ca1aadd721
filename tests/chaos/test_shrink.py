"""The delta-debugging shrinker, end to end.

The acceptance criterion: an intentionally broken invariant —
injected here through a registered *sabotage* nemesis action that
silently destroys an acked record behind the parity code's back —
must be (a) caught by the oracle battery, (b) shrunk to a minimal
schedule of at most 3 fault events, and (c) reproduced by replaying
the serialized minimal schedule.
"""

import pytest

from repro.chaos.nemesis import (
    FaultEvent,
    NemesisProfile,
    dump_schedule,
    load_schedule,
    register_action,
)
from repro.chaos.runner import EpisodeConfig, run_episode
from repro.chaos.shrink import make_reproducer, shrink_schedule

#: No composed faults: the schedule under test is hand-built.
QUIET = EpisodeConfig(
    records=8, ops=10,
    profile=NemesisProfile(
        loss_rate=0.0, loss_windows=0,
        duplication_rate=0.0, duplication_windows=0,
        corruption_rate=0.0, corruption_windows=0,
        latency_extra=0.0, latency_windows=0,
        partition_windows=0, crash_windows=0,
        horizon=10.0,
    ),
)

SEED = 2


def _sabotage(nemesis, network, event):
    """Destroy one acked record in the lowest-address non-empty
    data bucket — an invariant breakage no fault model can cause."""
    buckets = sorted(
        (
            node_id for node_id in network.nodes
            if isinstance(node_id, tuple)
            and node_id[:2] == ("bucket", "ess-store")
        ),
        key=lambda node_id: node_id[2],
    )
    for node_id in buckets:
        records = network.nodes[node_id].records
        if records:
            records.pop(min(records))
            return


register_action("sabotage", _sabotage)


def decoys():
    """Harmless filler the shrinker must strip away."""
    return [
        FaultEvent(at=at, action="latency", duration=0.5,
                   params={"extra": 0.005})
        for at in (1.0, 2.0, 3.0, 4.0, 6.0, 7.0)
    ]


class TestShrinkMechanics:
    def test_bails_when_full_schedule_does_not_reproduce(self):
        result = shrink_schedule(decoys(), lambda events: False)
        assert not result.reproduced
        assert result.evaluations == 1

    def test_minimises_to_the_culprit_subset(self):
        """Pure ddmin check against a synthetic predicate: any
        schedule containing both marked events reproduces."""
        culprits = [
            FaultEvent(at=5.0, action="loss", duration=1.0,
                       params={"rate": 0.9}),
            FaultEvent(at=8.0, action="crash", params={"node": "x"}),
        ]
        schedule = decoys() + culprits

        def reproduces(events):
            return all(c in events for c in culprits)

        result = shrink_schedule(schedule, reproduces)
        assert result.reproduced
        assert sorted(result.events, key=lambda e: e.at) == culprits

    def test_respects_evaluation_budget(self):
        result = shrink_schedule(
            decoys() * 4, lambda events: True, max_evaluations=5
        )
        assert result.evaluations <= 5


class TestSabotagePipeline:
    def test_caught_shrunk_and_replayed(self):
        schedule = sorted(
            decoys() + [FaultEvent(at=8.5, action="sabotage")],
            key=lambda e: e.at,
        )

        # (a) Caught: the oracle battery flags the broken invariant.
        report = run_episode(SEED, config=QUIET, events=schedule)
        assert not report.ok
        invariants = {v.invariant for v in report.violations}
        assert invariants & {
            "acked-durability", "scan-coverage", "parity-consistency"
        }, invariants

        # (b) Shrunk: <= 3 events (here exactly the sabotage event).
        invariant = report.violations[0].invariant
        shrunk = shrink_schedule(
            schedule, make_reproducer(SEED, QUIET, invariant)
        )
        assert shrunk.reproduced
        assert len(shrunk.events) <= 3
        assert [e.action for e in shrunk.events] == ["sabotage"]

        # (c) Replayed: the serialized minimal schedule reproduces
        # the same violation from disk.
        import io

        buffer = io.StringIO()
        dump_schedule(shrunk.events, buffer)
        buffer.seek(0)
        replayed = run_episode(
            SEED, config=QUIET, events=load_schedule(buffer)
        )
        assert not replayed.ok
        assert invariant in {
            v.invariant for v in replayed.violations
        }

    def test_decoys_alone_are_clean(self):
        """Control: without the sabotage event, all oracles hold."""
        report = run_episode(SEED, config=QUIET, events=decoys())
        assert report.ok, [v.to_dict() for v in report.violations]
