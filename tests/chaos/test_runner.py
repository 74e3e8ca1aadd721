"""Chaos episodes: determinism, oracles, and the episode report."""

import io
import json
from dataclasses import replace

import pytest

from repro.chaos.__main__ import build_parser, make_config
from repro.chaos.nemesis import FaultEvent, NemesisProfile
from repro.chaos.runner import (
    EpisodeConfig,
    run_episode,
    write_report,
)
from repro.obs.trace import load_jsonl

#: A small-but-composed profile: every fault class, short horizon.
SMALL_PROFILE = NemesisProfile(
    loss_rate=0.2, loss_windows=1,
    duplication_rate=0.2, duplication_windows=1,
    corruption_rate=0.2, corruption_windows=1,
    latency_extra=0.01, latency_windows=1,
    partition_windows=1,
    crash_windows=1,
    window=1.0, horizon=12.0,
)

SMALL = EpisodeConfig(records=8, ops=16, profile=SMALL_PROFILE)

CORRUPTION_ONLY = EpisodeConfig(
    records=8, ops=16,
    profile=NemesisProfile(
        loss_rate=0.0, loss_windows=0,
        duplication_rate=0.0, duplication_windows=0,
        latency_extra=0.0, latency_windows=0,
        partition_windows=0, crash_windows=0,
        corruption_rate=0.3, corruption_windows=3,
        window=2.0, horizon=12.0,
    ),
)


class TestDeterminism:
    def test_same_seed_same_report(self):
        """The acceptance criterion: an episode is a pure function of
        (seed, config) — byte-identical reports on re-run."""
        first = run_episode(4, config=SMALL)
        second = run_episode(4, config=SMALL)
        assert first.episode_dict() == second.episode_dict()
        assert [s.to_dict() for s in first.spans] == [
            s.to_dict() for s in second.spans
        ]

    def test_different_seed_different_chaos(self):
        a = run_episode(1, config=SMALL)
        b = run_episode(2, config=SMALL)
        assert [e.to_dict() for e in a.events] != [
            e.to_dict() for e in b.events
        ]


class TestComposedEpisodes:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_oracles_hold_under_composed_nemesis(self, seed):
        report = run_episode(seed, config=SMALL)
        assert report.ok, [v.to_dict() for v in report.violations]
        assert report.ops_applied + report.ops_failed == SMALL.ops
        assert report.nemesis["applied"] > 0

    def test_replayed_schedule_used_verbatim(self):
        base = run_episode(5, config=SMALL)
        replayed = run_episode(5, config=SMALL, events=base.events)
        assert replayed.episode_dict() == base.episode_dict()


class TestCorruptionOnly:
    def test_degrades_cost_never_correctness(self):
        """The acceptance criterion: a corruption-only episode ends
        with zero violations and a nonzero corrupted counter."""
        report = run_episode(3, config=CORRUPTION_ONLY)
        assert report.ok, [v.to_dict() for v in report.violations]
        assert report.stats["corrupted"] > 0
        assert report.stats["retries"] > 0
        assert report.stats["crashed_drops"] == 0
        assert report.stats["partitioned_drops"] == 0


class TestReportFormat:
    def test_episode_line_then_spans(self):
        report = run_episode(0, config=SMALL)
        buffer = io.StringIO()
        write_report(report, buffer)
        lines = buffer.getvalue().splitlines()
        episode = json.loads(lines[0])
        assert episode["type"] == "episode"
        assert episode["seed"] == 0
        assert episode["schedule"] == [
            e.to_dict() for e in report.events
        ]
        assert set(episode["stats"]) == {
            "messages", "bytes", "dropped", "duplicated", "retries",
            "crashed_drops", "partitioned_drops", "corrupted",
            "by_kind",
        }
        assert len(lines) == 1 + len(report.spans)

    def test_span_lines_load_as_pr2_spans(self, tmp_path):
        report = run_episode(0, config=SMALL)
        path = tmp_path / "episode.jsonl"
        write_report(report, str(path))
        with open(path, encoding="utf-8") as handle:
            handle.readline()  # the episode line
            spans = load_jsonl(handle)
        assert len(spans) == len(report.spans)


class TestInjectedViolationIsCaught:
    def test_monotone_level_oracle_fires(self):
        """An intentionally broken invariant must surface as a
        violation, not pass silently."""
        from repro.chaos.invariants import LevelMonitor

        monitor = LevelMonitor("f")
        monitor.observe((1, 1), deleted=False)
        monitor.observe((1, 0), deleted=False)  # level regressed
        assert monitor.violations
        assert monitor.violations[0].invariant == "monotone-level"


class TestRegrowthOverCrashedTombstone:
    """The small-file elasticity corner, shrunk to three events:
    ``join`` grows the file, ``merge_pressure`` shrinks it back, and
    ``rejoin`` crashes the retired tombstone.  The next split regrows
    over that crashed tombstone; the target must be a fresh node, or
    the splitter's ``split_records`` shipment is dropped after the
    records left the splitter and acked rids are lost."""

    EVENTS = [
        FaultEvent(at=1.375120144847609, action="join",
                   duration=0.7670885835855467),
        FaultEvent(at=2.3510649195102795, action="merge_pressure",
                   duration=0.34019114678009205),
        FaultEvent(at=2.6248288985954114, action="rejoin",
                   duration=1.3901775185498042),
    ]

    def test_no_acked_record_lost(self):
        config = make_config(build_parser().parse_args(
            ["--seed", "1", "--elasticity", "--ops", "30",
             "--records", "12"]))
        report = run_episode(1, config=config, events=self.EVENTS)
        assert report.violations == []
        assert report.ops_failed == 0
        # The schedule still exercises the corner (the file merged),
        # and no shipment died at a crashed node.
        assert report.stats["by_kind"]["merge"] > 0
        assert report.stats["crashed_drops"] == 0
