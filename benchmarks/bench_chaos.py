"""Chaos sweep: availability and messaging cost under composed faults.

Runs seeded chaos episodes (`repro.chaos`) over the full LH*_RS
deployment while dialling three nemesis axes — message loss windows,
link-partition windows and node-crash windows — from off to heavy.
Every cell is the *same* seeded workload; only the fault schedule
changes.  Availability is the fraction of workload operations whose
retry budget survived the chaos; the invariant battery must hold in
every cell (chaos degrades cost and availability, never correctness).
"""

from repro.bench.tables import TableResult
from repro.chaos.nemesis import NemesisProfile
from repro.chaos.runner import EpisodeConfig, run_episode

SEEDS = [0, 1, 2]

#: (label, loss_rate, loss_windows) — duplication/corruption/latency
#: ride along at the same relative intensity so the "heavy" column is
#: a genuinely composed storm, not a single-axis sweep.
LOSS_LEVELS = [("off", 0.0, 0), ("low", 0.15, 1), ("heavy", 0.3, 2)]
PARTITION_LEVELS = [("off", 0), ("low", 1), ("heavy", 2)]
CRASH_LEVELS = [("off", 0), ("low", 1), ("heavy", 2)]


def make_profile(loss, loss_windows, partitions, crashes):
    return NemesisProfile(
        loss_rate=loss, loss_windows=loss_windows,
        duplication_rate=loss, duplication_windows=loss_windows,
        corruption_rate=loss, corruption_windows=loss_windows,
        latency_extra=0.01 if loss else 0.0,
        latency_windows=1 if loss else 0,
        partition_windows=partitions,
        crash_windows=crashes,
        window=1.2, horizon=14.0,
    )


def run_cell(profile):
    config = EpisodeConfig(records=8, ops=20, profile=profile)
    total_ops = 0
    applied = 0
    messages = 0
    retries = 0
    faulted = 0
    crashes = 0
    violations = 0
    for seed in SEEDS:
        report = run_episode(seed, config=config)
        total_ops += config.ops
        applied += report.ops_applied
        messages += report.stats["messages"]
        retries += report.stats["retries"]
        faulted += (report.stats["dropped"]
                    + report.stats["duplicated"]
                    + report.stats["corrupted"]
                    + report.stats["partitioned_drops"]
                    + report.stats["crashed_drops"])
        crashes += report.nemesis["crashes"]
        violations += len(report.violations)
    return {
        "availability": applied / total_ops,
        "messages": messages // len(SEEDS),
        "retries": retries // len(SEEDS),
        "faulted": faulted // len(SEEDS),
        "crashes": crashes,
        "violations": violations,
    }


def exp_chaos_sweep() -> TableResult:
    table = TableResult(
        title="Chaos sweep: availability and messaging cost under "
              f"composed nemesis faults ({len(SEEDS)} seeds/cell)",
        headers=["loss", "partition", "crash", "availability",
                 "msgs/episode", "retries/episode",
                 "faulted/episode", "crashes", "violations"],
    )
    for loss_label, loss, loss_windows in LOSS_LEVELS:
        for part_label, partitions in PARTITION_LEVELS:
            for crash_label, crash_windows in CRASH_LEVELS:
                cell = run_cell(make_profile(
                    loss, loss_windows, partitions, crash_windows
                ))
                table.add_row(
                    loss_label, part_label, crash_label,
                    f"{cell['availability']:.1%}",
                    cell["messages"],
                    cell["retries"],
                    cell["faulted"],
                    cell["crashes"],
                    cell["violations"],
                )
    table.notes.append(
        "Every cell runs the same seeded workload; only the fault "
        "schedule changes.  'violations' counts invariant-oracle "
        "failures (acked durability, search agreement, scan "
        "coverage, monotone level, parity consistency) and must be "
        "0 everywhere: chaos buys cost, never corruption."
    )
    table.notes.append(
        "Availability dips only where retry budgets die inside "
        "loss/partition windows; messaging cost grows with retries "
        "and with the recovery traffic crash windows trigger."
    )
    return table


LIVE_SEEDS = [0, 1]

#: Wall-clock-compressed storm for the live rows: same axes, short
#: windows (the live cluster runs in real time).
LIVE_PROFILE = NemesisProfile(
    loss_rate=0.1, loss_windows=1,
    duplication_rate=0.1, duplication_windows=1,
    corruption_rate=0.1, corruption_windows=1,
    latency_extra=0.005, latency_windows=1,
    partition_windows=1, crash_windows=1,
    window=0.4, horizon=2.5,
)


def exp_live_availability() -> TableResult:
    """Backend parity rows: the same seeded episode on the event
    simulator and on a live cluster of site processes."""
    table = TableResult(
        title="Chaos backend parity: identically seeded episodes on "
              "the simulator and on live site processes",
        headers=["seed", "backend", "availability", "msgs/episode",
                 "retries", "crashes", "acked==sim", "searches==sim",
                 "violations"],
    )
    for seed in LIVE_SEEDS:
        baseline = None
        for backend in ("simulator", "live"):
            config = EpisodeConfig(
                records=8, ops=20, profile=LIVE_PROFILE,
                backend=backend,
            )
            report = run_episode(seed, config=config)
            if backend == "simulator":
                baseline = report
                messages = report.stats["messages"]
                retries = report.stats["retries"]
            else:
                # Wall-clock timing moves these on real processes from
                # run to run; a committed table prints only what the
                # live row holds equal to the simulator row.
                messages = retries = "-"
            table.add_row(
                seed, backend,
                f"{report.ops_applied / config.ops:.1%}",
                messages,
                retries,
                report.nemesis["crashes"],
                "yes" if report.acked == baseline.acked else "NO",
                ("yes" if report.searches == baseline.searches
                 else "NO"),
                len(report.violations),
            )
    table.notes.append(
        "The live rows drive the same seeded workload and nemesis "
        "schedule through real bucket processes over TCP; "
        "availability, crashes, acked sets and post-heal search "
        "answers must match the simulator rows seed for seed.  "
        "Message and retry counts on real processes move with "
        "wall-clock timing, so live rows leave them out."
    )
    return table


#: (label, merge_pressure, join, leave, rejoin) window counts — the
#: membership-event axis from off to heavy, over a shrinking file
#: with softened message/crash faults riding along.
ELASTICITY_LEVELS = [
    ("off", 0, 0, 0, 0),
    ("low", 1, 1, 1, 1),
    ("heavy", 3, 2, 2, 2),
]


def make_elasticity_profile(merge_pressure, join, leave, rejoin):
    return NemesisProfile(
        loss_rate=0.05, loss_windows=1,
        duplication_rate=0.02, duplication_windows=1,
        corruption_rate=0.0, latency_windows=0,
        partition_windows=1, crash_windows=1,
        merge_pressure_windows=merge_pressure, join_windows=join,
        leave_events=leave, rejoin_windows=rejoin,
        window=0.6, horizon=2.5,
    )


def exp_elasticity_availability() -> TableResult:
    """Availability during rebalance: the same seeded workload while
    merge-pressure/join windows, graceful leaves and tombstone
    crash+rejoin events reshape the file underneath it."""
    table = TableResult(
        title="Chaos elasticity: availability and rebalance traffic "
              f"under membership events ({len(SEEDS)} seeds/cell)",
        headers=["membership", "availability", "msgs/episode",
                 "retries/episode", "merges", "leaves",
                 "migrations", "crashes", "violations"],
    )
    for label, merge_pressure, join, leave, rejoin in \
            ELASTICITY_LEVELS:
        profile = make_elasticity_profile(
            merge_pressure, join, leave, rejoin
        )
        config = EpisodeConfig(
            records=12, ops=30, profile=profile,
            shrink=True, merge_threshold=0.6,
        )
        total_ops = applied = messages = retries = 0
        merges = leaves = migrations = crashes = violations = 0
        for seed in SEEDS:
            report = run_episode(seed, config=config)
            total_ops += config.ops
            applied += report.ops_applied
            messages += report.stats["messages"]
            retries += report.stats["retries"]
            by_kind = report.stats["by_kind"]
            merges += by_kind.get("merge", 0)
            leaves += by_kind.get("leave", 0)
            migrations += by_kind.get("recover_done", 0)
            crashes += report.nemesis["crashes"]
            violations += len(report.violations)
        table.add_row(
            label,
            f"{applied / total_ops:.1%}",
            messages // len(SEEDS),
            retries // len(SEEDS),
            merges,
            leaves,
            migrations,
            crashes,
            violations,
        )
    table.notes.append(
        "All cells run shrinking files (merge_threshold=0.6) under "
        "softened loss/duplication/partition/crash faults; the "
        "membership axis adds merge-pressure and join windows, "
        "graceful leaves and tombstone crash+rejoin.  'migrations' "
        "counts recover_done acks (leave drains and crash "
        "recoveries); 'violations' spans the full oracle battery — "
        "including tombstone convergence, migration integrity and "
        "post-heal level restoration — and must be 0 everywhere."
    )
    return table


def test_chaos_elasticity_availability(benchmark, emit):
    table = benchmark.pedantic(exp_elasticity_availability,
                               rounds=1, iterations=1)
    emit(table, "chaos_elasticity_availability")
    rebalanced = 0
    for row in table.rows:
        assert row[-1] == "0", row
        if row[0] != "off":
            rebalanced += int(row[4]) + int(row[5])
    # The membership windows must exercise real machinery: at least
    # one merge or leave landed across the non-off cells.
    assert rebalanced > 0, table.rows


def test_chaos_live_availability(benchmark, emit):
    import os

    import pytest

    if os.environ.get("REPRO_LIVE_TESTS") != "1":
        pytest.skip("live cluster benches need REPRO_LIVE_TESTS=1")
    table = benchmark.pedantic(exp_live_availability, rounds=1,
                               iterations=1)
    emit(table, "chaos_live_availability")
    for row in table.rows:
        assert row[-1] == "0", row
        assert row[-2] == "yes" and row[-3] == "yes", row
    for sim, live in zip(table.rows[::2], table.rows[1::2]):
        # Availability and crashes: live equals simulator too.
        assert (live[2], live[5]) == (sim[2], sim[5]), (sim, live)


def test_chaos_sweep(benchmark, emit):
    table = benchmark.pedantic(exp_chaos_sweep, rounds=1,
                               iterations=1)
    emit(table, "chaos_sweep")
    for row in table.rows:
        # Correctness is non-negotiable in every cell.
        assert row[-1] == "0", row
        # The fault-free corner loses nothing.
        if row[0] == "off" and row[1] == "off" and row[2] == "off":
            assert row[3] == "100.0%", row
