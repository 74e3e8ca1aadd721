"""One chaos episode: seeded workload + nemesis + oracle battery.

An episode is a pure function of its seed and config:

1. Build the chaos store (LH*_RS record + index files, per the
   paper's §5 high-availability deployment) on a network with a
   zero-rate :class:`~repro.net.faults.FaultModel` (the nemesis
   raises the rates in windows) and a seeded jitter latency model —
   and a *fault-free twin* of the same store on a reliable network.
2. Preload the corpus on both stores, then compose the seeded fault
   schedule over the workload's time span and attach the nemesis.
3. Run the op mix (puts, gets, substring searches, deletes) against
   the chaos store, mirroring every *acknowledged* op onto the twin
   and the client-side model; ops whose retry budget dies under the
   chaos are *uncertain* — excluded from strict comparison, exactly
   like a real client that cannot know whether its timed-out write
   landed.  A deterministic think-time tick between ops walks the
   simulated clock through the whole fault schedule.
4. Quiesce the nemesis (heal partitions, restore crashed nodes,
   restore base rates), drive coordinator probe rounds until no
   bucket stays declared dead, then run the invariant battery of
   :mod:`repro.chaos.invariants`.

The simulator and the live backend (``EpisodeConfig.backend``) run
this one body: coordinator state, bucket dumps and parity tables are
read through the network's operator verbs (``coordinator_state``,
``dump_buckets``, ``dump_parity``), which both backends answer in the
same shapes.  Only building the network differs, and when the one
crash-gate predicate reads its state (at each crash, or between ops).

The episode report (see OBSERVABILITY.md) is JSONL: one ``episode``
line with config, counters, and violations, followed by the PR-2
tracer's spans for every operation.  No wall clock, no unseeded
randomness — byte-identical output for a given (seed, config,
schedule).
"""

from __future__ import annotations

import contextlib
import json
import math
import random
from dataclasses import asdict, dataclass, field, replace
from typing import IO, Any, Callable

from repro.chaos.invariants import (
    LevelMonitor,
    Violation,
    check_durability,
    check_heal_convergence_dead,
    check_migration_integrity,
    check_parity_consistency,
    check_post_heal_levels,
    check_scan_coverage,
    check_search_agreement,
    check_tombstone_convergence,
)
from repro.chaos.nemesis import (
    FaultEvent,
    Nemesis,
    NemesisProfile,
    compose_schedule,
    register_action,
)
from repro.core import EncryptedSearchableStore, SchemeParameters
from repro.errors import SDDSError
from repro.net.faults import FaultModel, RetryPolicy
from repro.net.simulator import JitterLatencyModel, Network
from repro.obs.trace import Span, Tracer, use_tracer
from repro.sdds.lhstar import HEADER_SIZE
from repro.sdds.lhstar_rs import gate_state

#: Deterministic corpus pool (the paper's SF-directory flavour).
NAME_POOL = [
    "SCHWARZ THOMAS",
    "LITWIN WITOLD",
    "TSUI PETER",
    "ABOGADO ALEJANDRO",
    "MOUSSA RIM",
    "NEIMAT MARIE ANNE",
    "SCHNEIDER DONOVAN",
    "ANDERSON MARGARET",
    "ARMSTRONG STEPHEN",
    "SCHOLTEN HENDRIK",
    "PETERSEN INGRID",
    "WHITACRE ERIC",
    "LINDGREN ASTRID",
    "ARCHER ELIZABETH",
    "THOMPSON SCHOLAR",
    "WINTERBOTTOM ANNE",
    "CHANDRA PETER",
    "NGUYEN THANH",
    "LEUNG WINNIE",
    "MARSHALL ANNE",
    "SCHWINN MARTIN",
    "ARCHIBALD GRETA",
    "PETROV MIKHAIL",
    "WITOLDSON ERIK",
]

#: Search patterns (>= the full(4) layout's minimum query length).
PATTERNS = ["SCHW", "ARCH", "PETER", "ANNE", "WITO", "LITW"]

#: Chunk size of every episode's scheme (``SchemeParameters.full``).
CHUNK_SIZE = 4

#: The chaos store's retransmission policy (its seed is the episode's).
RETRY_TIMEOUT = 0.2
RETRY_BACKOFF = 2.0
RETRY_MAX = 6
RETRY_JITTER = 0.5

#: Quiescence deadline per ``run()`` call on the live backend.
LIVE_RUN_TIMEOUT = 30.0


@dataclass(frozen=True)
class EpisodeConfig:
    """Everything but the seed that shapes an episode."""

    records: int = 16
    ops: int = 60
    bucket_capacity: int = 4
    group_size: int = 4
    parity_count: int = 2
    #: Shrinking files (delete-driven merges); required for episodes
    #: whose profile schedules elasticity events.
    shrink: bool = False
    #: Load factor below which a shrinking file merges.  Elasticity
    #: episodes raise this (0.6) so the short merge-pressure windows
    #: actually push the file under it.
    merge_threshold: float = 0.4
    profile: NemesisProfile = field(default_factory=NemesisProfile)
    #: ``"simulator"`` (default) or ``"live"`` — the live backend
    #: drives the identical seeded workload and nemesis schedule
    #: through a :class:`~repro.net.live.LiveCluster` of real site
    #: processes; the fault-free twin stays a simulator either way.
    backend: str = "simulator"
    #: Initial site-process count for ``backend="live"`` (splits past
    #: it spawn more on demand).
    live_sites: int = 12

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class EpisodeReport:
    """Outcome of one episode; serialized by :func:`write_report`."""

    seed: int
    config: EpisodeConfig
    events: list[FaultEvent]
    violations: list[Violation]
    nemesis: dict[str, int]
    stats: dict[str, Any]
    ops_applied: int
    ops_failed: int
    uncertain: list[int]
    elapsed: float
    #: Acked rid set after the episode (model minus uncertain) and the
    #: final post-heal search answers per pattern — the cross-backend
    #: comparison surface: the same seed and config must produce the
    #: same values on the simulator and the live cluster.
    acked: list[int] = field(default_factory=list)
    searches: dict[str, list[int]] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def episode_dict(self) -> dict[str, Any]:
        return {
            "type": "episode",
            "seed": self.seed,
            "config": self.config.to_dict(),
            "schedule": [event.to_dict() for event in self.events],
            "nemesis": self.nemesis,
            "stats": self.stats,
            "ops_applied": self.ops_applied,
            "ops_failed": self.ops_failed,
            "uncertain": self.uncertain,
            "elapsed": self.elapsed,
            "acked": self.acked,
            "searches": self.searches,
            "violations": [v.to_dict() for v in self.violations],
        }


def write_report(
    report: EpisodeReport, destination: str | IO[str]
) -> None:
    """Write the JSONL episode report: the episode line, then every
    tracer span (the PR-2 format ``load_jsonl`` understands)."""
    if isinstance(destination, (str, bytes)):
        with open(destination, "w", encoding="utf-8") as handle:
            write_report(report, handle)
        return
    destination.write(json.dumps(report.episode_dict()))
    destination.write("\n")
    for span in report.spans:
        destination.write(json.dumps(span.to_dict()))
        destination.write("\n")


def _build_store(
    config: EpisodeConfig,
    network: Network,
    policy: RetryPolicy,
) -> EncryptedSearchableStore:
    return EncryptedSearchableStore(
        SchemeParameters.full(CHUNK_SIZE),
        network=network,
        bucket_capacity=config.bucket_capacity,
        high_availability=True,
        retry_policy=policy,
        group_size=config.group_size,
        parity_count=config.parity_count,
        shrink=config.shrink,
        merge_threshold=config.merge_threshold,
    )


def _converge(store: EncryptedSearchableStore, network: Network,
              read_state: Callable[[Any], dict],
              rounds: int = 6) -> None:
    """Probe-drive the coordinators until no bucket stays dead.

    After the nemesis quiesces, every node is up again but a
    coordinator may still carry ``dead`` entries (a recovery that
    finished between run calls, or a dead-unrecoverable verdict from
    a probe that raced a restore).  A client ``suspect`` per dead
    address triggers the probe round that clears them; buckets that
    are genuinely mid-recovery complete during the run.
    """
    files = (store.record_file, store.index_file)
    for __ in range(rounds):
        dead = [
            (file, address)
            for file in files
            for address in sorted(read_state(file)["dead"])
        ]
        if not dead:
            return
        for file, address in dead:
            file.client.send(
                file.coordinator_id,
                "suspect",
                {"address": address, "client": file.client.node_id},
                size=HEADER_SIZE,
            )
        network.run()


def run_episode(
    seed: int,
    config: EpisodeConfig | None = None,
    events: list[FaultEvent] | None = None,
) -> EpisodeReport:
    """Run one chaos episode; see the module docstring.

    ``events`` replays an explicit fault schedule (shrinker, CLI
    ``--replay``) instead of composing one from the seed; the
    workload itself is still derived from ``seed`` either way.  With
    ``config.backend == "live"`` the chaos store runs on real site
    processes; the fault-free twin stays a simulator either way, so
    the acked-set and search-answer comparison crosses the backend
    boundary.
    """
    config = config or EpisodeConfig()
    if config.backend not in ("simulator", "live"):
        raise ValueError(
            f"unknown episode backend {config.backend!r}"
        )
    policy = RetryPolicy(
        timeout=RETRY_TIMEOUT,
        backoff=RETRY_BACKOFF,
        max_retries=RETRY_MAX,
        jitter=RETRY_JITTER,
        seed=seed,
    )
    with contextlib.ExitStack() as stack:
        if config.backend == "live":
            from repro.net.live import LiveCluster

            cluster = stack.enter_context(
                LiveCluster(buckets=config.live_sites))
            chaos_net = cluster.connect(
                run_timeout=LIVE_RUN_TIMEOUT)
            chaos_net.enable_faults(seed=seed * 2 + 2)
        else:
            chaos_net = Network(
                latency=JitterLatencyModel(seed=seed * 2 + 1,
                                           jitter=0.002),
                faults=FaultModel(seed=seed * 2 + 2),
            )
        chaos = _build_store(config, chaos_net, policy)
        twin = _build_store(config, Network(), RetryPolicy())
        tracer = Tracer(network=chaos_net, capacity=65536)
        with use_tracer(tracer):
            report = _run_episode_traced(
                seed, config, events, chaos, twin, chaos_net)
        report.spans = list(tracer.finished)
        return report


def _run_episode_traced(
    seed: int,
    config: EpisodeConfig,
    events: list[FaultEvent] | None,
    chaos: EncryptedSearchableStore,
    twin: EncryptedSearchableStore,
    chaos_net: Network,
) -> EpisodeReport:
    violations: list[Violation] = []
    model: dict[int, str] = {}
    uncertain: set[int] = set()
    rng = random.Random(seed * 7919 + 13)

    # 1. Preload on a still-calm network (the base state both runs
    # share), then anchor the fault schedule to the clock from here.
    for rid in range(1, config.records + 1):
        text = NAME_POOL[(rid - 1) % len(NAME_POOL)]
        chaos.put(rid, text)
        twin.put(rid, text)
        model[rid] = text

    start = chaos_net.now
    if events is None:
        profile = replace(
            config.profile,
            warmup=start,
            horizon=start + config.profile.horizon,
        )
        crash_targets = [
            chaos.record_file.bucket_id(a) for a in range(16)
        ] + [chaos.index_file.bucket_id(a) for a in range(16)]
        partition_pairs = []
        for file in (chaos.record_file, chaos.index_file):
            buckets = [file.bucket_id(a) for a in range(16)]
            partition_pairs.append(
                ([file.client.node_id], buckets[:8])
            )
            partition_pairs.append(
                ([file.client.node_id], buckets[8:])
            )
        events = compose_schedule(
            seed, profile,
            crash_targets=crash_targets,
            partition_pairs=partition_pairs,
        )

    # Elasticity actions.  Nemesis callbacks fire inside
    # ``network.run`` at backend-specific virtual times — the live
    # cluster's clock advances faster per op than the simulator's
    # (census rounds consume virtual time) — so flag flips driven by
    # the clock would land between *different ops* on the two
    # backends and the op mixes would diverge.  Instead every
    # elasticity event is mapped to the op index whose think-time
    # tick covers its normalized schedule position, identical across
    # backends by construction, and the actions are registered as
    # no-ops so the nemesis still applies/expires them alongside the
    # fault windows.  The op loop effects the mix biases and the
    # membership events (leave, rejoin) between ops, at top level,
    # where starting a migration cannot re-enter the event loop.
    # ``register_action`` replaces prior registrations, so each
    # episode's closures supersede the previous episode's.
    for action in ("merge_pressure", "join", "leave", "rejoin"):
        register_action(action, lambda *__: None, lambda *__: None)

    tick = config.profile.horizon * 1.1 / max(config.ops, 1)

    def _op_of(at: float) -> int:
        """The op whose draw first happens after schedule time ``at``
        (ops past the end collapse onto ``config.ops``: the post-loop
        drain)."""
        return min(config.ops,
                   max(0, math.ceil((at - start) / tick) - 1))

    mix_plan = [[0, 0] for _ in range(config.ops + 1)]
    membership_plan: dict[int, list[str]] = {}
    for event in events:
        if event.action in ("merge_pressure", "join"):
            slot = 0 if event.action == "merge_pressure" else 1
            until = _op_of(event.at + (event.duration or 0.0))
            for op in range(_op_of(event.at), until):
                mix_plan[op][slot] += 1
        elif event.action == "leave":
            membership_plan.setdefault(
                _op_of(event.at), []).append("leave")
        elif event.action == "rejoin":
            membership_plan.setdefault(
                _op_of(event.at), []).append("rejoin_down")
            membership_plan.setdefault(
                _op_of(event.at + (event.duration or 0.0)), []
            ).append("rejoin_up")

    rejoin_down: list[Any] = []
    # Every state read goes through ``read_state``: the live crash
    # gate judges from the last snapshot per file name.
    states: dict[str, dict] = {}

    def read_state(file: Any) -> dict:
        states[file.name] = snap = gate_state(chaos_net, file.name)
        return snap

    def level(file: Any) -> tuple[int, int]:
        snap = read_state(file)
        return snap["i"], snap["n"]

    def _apply_membership(op: int) -> None:
        """Perform the membership events planned for op ``op``."""
        file = chaos.record_file
        for kind in membership_plan.pop(op, ()):
            if kind == "leave":
                snap = read_state(file)
                count = (1 << snap["i"]) + snap["n"]
                address = count - 1
                if count <= 1 or address in snap["dead"]:
                    continue
                try:
                    file.leave(address)
                except SDDSError:
                    pass  # refused or drowned out; chaos moves on
            elif kind == "rejoin_down":
                retired = read_state(file)["retired"]
                if not retired:
                    continue
                node = file.bucket_id(max(retired))
                if chaos_net.is_crashed(node):
                    continue
                chaos_net.crash(node)
                rejoin_down.append(node)
            elif kind == "rejoin_up" and rejoin_down:
                chaos_net.restore(rejoin_down.pop(0))

    nemesis = Nemesis(events)
    files = (chaos.record_file, chaos.index_file)
    for file in files:
        read_state(file)
    # Live gates judge from the snapshot ``read_state`` took between
    # ops (see ``LHStarRSFile.crash_gate``).
    gates = [
        file.crash_gate(None if config.backend == "simulator"
                        else lambda name=file.name: states[name])
        for file in files
    ]
    nemesis.gate = lambda node_id: any(gate(node_id) for gate in gates)
    nemesis.attach(chaos_net)

    monitors = (
        LevelMonitor(chaos.record_file.name, shrink=config.shrink),
        LevelMonitor(chaos.index_file.name, shrink=config.shrink),
    )

    # 2. The op mix.  The think-time tick walks the clock across the
    # whole schedule horizon even when every op is fast, so no window
    # silently expires unexercised.
    ops_applied = 0
    ops_failed = 0
    for op_index in range(config.ops):
        chaos_net.schedule(tick, lambda: None)
        chaos_net.run()
        _apply_membership(op_index)
        draw = rng.random()
        rid = rng.randrange(1, config.records + 1)
        deleted = False
        # Elasticity windows bias the op mix: merge-pressure toward
        # deletes (driving underflows and merges), join toward puts
        # (driving splits).  One rng draw either way, so seeds without
        # elasticity windows consume the identical stream.
        merge_pressure, join = mix_plan[op_index]
        if merge_pressure > 0:
            put_cut, get_cut, search_cut = 0.15, 0.35, 0.50
        elif join > 0:
            put_cut, get_cut, search_cut = 0.70, 0.85, 0.95
        else:
            put_cut, get_cut, search_cut = 0.35, 0.65, 0.90
        try:
            if draw < put_cut:
                text = NAME_POOL[rng.randrange(len(NAME_POOL))]
                chaos.put(rid, text)
                twin.put(rid, text)
                model[rid] = text
                uncertain.discard(rid)
            elif draw < get_cut:
                got = chaos.get(rid)
                if rid not in uncertain:
                    expected = model.get(rid)
                    if got != expected:
                        violations.append(Violation(
                            "acked-durability",
                            f"mid-run get({rid}) = {got!r}, acked "
                            f"{expected!r}",
                        ))
            elif draw < search_cut:
                pattern = PATTERNS[rng.randrange(len(PATTERNS))]
                result = chaos.search(pattern)
                violations.extend(check_search_agreement(
                    pattern, result, twin.search(pattern), uncertain
                ))
            else:
                deleted = True
                removed = chaos.delete(rid)
                if removed:
                    twin.delete(rid)
                    model.pop(rid, None)
                    uncertain.discard(rid)
            ops_applied += 1
        except SDDSError:
            # The retry budget died under the chaos.  A failed read
            # changes nothing; a failed write leaves the rid's fate
            # unknown until a later acked op settles it.
            ops_failed += 1
            if draw < put_cut or deleted:
                uncertain.add(rid)
                model.pop(rid, None)
        except RuntimeError as error:
            ops_failed += 1
            name = ("scan-coverage" if "coverage" in str(error)
                    else "runtime-error")
            violations.append(Violation(name, str(error)))
        for monitor, file in zip(monitors, files):
            monitor.observe(level(file), deleted)

    # 3. Heal and settle.  Quiescing closes any still-open elasticity
    # windows, so drain their queued membership events (pending
    # rejoin restores, late leaves) before the convergence rounds.
    nemesis.quiesce(chaos_net)
    _apply_membership(config.ops)
    while rejoin_down:
        chaos_net.restore(rejoin_down.pop(0))
    chaos_net.run()
    _converge(chaos, chaos_net, read_state)

    # 4. The oracle battery.
    for monitor in monitors:
        violations.extend(monitor.violations)
    for file in files:
        violations.extend(check_heal_convergence_dead(
            file.name, read_state(file)["dead"]
        ))
    violations.extend(check_durability(chaos, model, uncertain))
    searches: dict[str, list[int]] = {}
    for pattern in PATTERNS:
        try:
            result = chaos.search(pattern)
        except (SDDSError, RuntimeError) as error:
            violations.append(Violation(
                "search-agreement",
                f"final search({pattern!r}) failed after heal: "
                f"{error}",
            ))
            continue
        searches[pattern] = sorted(set(result.matches) - uncertain)
        violations.extend(check_search_agreement(
            pattern, result, twin.search(pattern), uncertain
        ))
    violations.extend(check_scan_coverage(chaos, model, uncertain))
    for file in files:
        violations.extend(check_parity_consistency(chaos_net, file))
    # Elasticity oracles: tombstone forwarding converges, membership
    # events lose/duplicate nothing, levels match the healed (i, n).
    # The record file's rids are the store's rids; the index file's
    # keys are derived (several per rid), so it only gets the
    # duplication half of the migration check.
    for file, acked_rids in (
        (chaos.record_file, set(model)),
        (chaos.index_file, set()),
    ):
        dump = chaos_net.dump_buckets(file.name)
        violations.extend(
            check_tombstone_convergence(file.name, dump))
        violations.extend(check_migration_integrity(
            file.name, dump, acked_rids, uncertain))
        violations.extend(check_post_heal_levels(
            file.name, level(file), dump))

    stats = chaos_net.stats
    return EpisodeReport(
        seed=seed,
        config=config,
        events=events,
        violations=violations,
        nemesis=nemesis.counters(),
        stats={
            "messages": stats.messages,
            "bytes": stats.bytes,
            "dropped": stats.dropped,
            "duplicated": stats.duplicated,
            "retries": stats.retries,
            "crashed_drops": stats.crashed_drops,
            "partitioned_drops": stats.partitioned_drops,
            "corrupted": stats.corrupted,
            "by_kind": dict(stats.by_kind),
        },
        ops_applied=ops_applied,
        ops_failed=ops_failed,
        uncertain=sorted(uncertain),
        elapsed=chaos_net.now,
        acked=sorted(set(model) - uncertain),
        searches=searches,
    )
