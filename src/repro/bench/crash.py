"""Crash sweep: node failure rate x parity strength.

The LH*_RS availability claim (§5 of the paper's substrate reference):
with ``k`` parity buckets per group the file keeps answering every
query while up to ``k`` member buckets are down, and rebuilds them
online for the cost of one group read per lost bucket.  The sweep runs
the same keyed workload under a seeded crash/restart schedule for
plain LH* (k = 0) and LH*_RS (k = 1, 2) and reports availability,
degraded reads, and what recovery moved over the wire.
"""

from repro.bench.tables import TableResult
from repro.errors import SDDSError
from repro.net import CrashFaultModel, Network, RetryPolicy
from repro.sdds import LHStarFile, LHStarRSFile

RECORDS = 200
GROUP_SIZE = 4
POLICY = RetryPolicy(timeout=0.05, backoff=2.0, max_retries=3)
# Mean time to failure per node, in simulated seconds (None = no
# crashes); restarts follow with a quarter of the MTTF.
MTTFS = [None, 2.0, 0.5]
PARITIES = [0, 1, 2]

RECOVERY_KINDS = (
    "suspect", "probe", "probe_ack", "recover", "group_fetch",
    "group_data", "parity_fetch", "parity_data", "recover_install",
    "recover_done", "degraded_lookup", "await_recovery",
    "bucket_down", "bucket_up", "bucket_recovered",
)


def make_file(net, parity):
    if parity == 0:
        return LHStarFile(network=net, bucket_capacity=8,
                          retry_policy=POLICY)
    return LHStarRSFile(network=net, bucket_capacity=8,
                        group_size=GROUP_SIZE, parity_count=parity,
                        retry_policy=POLICY)


def data_bucket_gate(file):
    """Crash-eligibility for plain LH*: only live data buckets (the
    RS variant ships its own group-budget-aware gate)."""

    def gate(node_id):
        if not (isinstance(node_id, tuple) and len(node_id) == 3
                and node_id[0] == "bucket" and node_id[1] == file.name):
            return False
        bucket = file.buckets.get(node_id[2])
        if bucket is None or bucket.retired or bucket.pending:
            return False
        return node_id[2] not in file.coordinator.dead

    return gate


def run_cell(mttf, parity, seed=2006):
    crashes = None
    net = Network()
    if mttf is not None:
        crashes = CrashFaultModel(seed=seed, mttf=mttf,
                                  mttr=mttf / 4, horizon=10_000.0)
        net.schedules.append(crashes)
    file = make_file(net, parity)
    for key in range(RECORDS // 2):
        file.insert(key, b"%06d-payload\x00" % key)
    if crashes is not None:
        if parity:
            crashes.gate = file.crash_gate()
        else:
            crashes.gate = data_bucket_gate(file)
        crashes.plan([file.bucket_id(a) for a in range(64)])
    served = 0
    total = 0
    for key in range(RECORDS // 2, RECORDS):
        total += 1
        try:
            file.insert(key, b"%06d-payload\x00" % key)
            served += 1
        except SDDSError:
            pass
    for key in range(RECORDS):
        total += 1
        try:
            if file.lookup(key) is not None:
                served += 1
        except SDDSError:
            pass
    stats = net.stats
    recovery_bytes = sum(
        stats.bytes_by_kind.get(kind, 0) for kind in RECOVERY_KINDS
    )
    return {
        "availability": served / total,
        "crashes": crashes.crashes if crashes else 0,
        "degraded": (stats.by_kind.get("degraded_lookup", 0)
                     + stats.by_kind.get("degraded_scan", 0)),
        "recoveries": stats.by_kind.get("recover_done", 0),
        "recovery_bytes": recovery_bytes,
        "crashed_drops": stats.crashed_drops,
        "messages": stats.messages,
    }


def exp_crash_sweep() -> TableResult:
    table = TableResult(
        title="Crash sweep: availability and recovery traffic "
              f"({RECORDS} records, group size {GROUP_SIZE}, "
              "MTTR = MTTF/4)",
        headers=["parity k", "MTTF (s)", "availability", "crashes",
                 "degraded reads", "recoveries", "recovery bytes",
                 "crash-dropped", "messages"],
    )
    for parity in PARITIES:
        for mttf in MTTFS:
            cell = run_cell(mttf, parity)
            table.add_row(
                parity,
                "-" if mttf is None else f"{mttf:.1f}",
                f"{cell['availability']:.1%}",
                cell["crashes"],
                cell["degraded"],
                cell["recoveries"],
                cell["recovery_bytes"],
                cell["crashed_drops"],
                cell["messages"],
            )
    table.notes.append(
        "k = 0 is plain LH*: a crashed bucket is unreachable until "
        "its node restarts, so availability dips with the crash rate."
    )
    table.notes.append(
        "k >= 1 keeps availability at 100%: reads are served "
        "degraded through the parity group while the lost bucket is "
        "rebuilt online; updates park until the spare is up."
    )
    table.notes.append(
        "recovery bytes cover detection, degraded reads and bucket "
        "reconstruction traffic — all billed in NetworkStats."
    )
    return table


def exp_degraded_cost() -> TableResult:
    """Per-operation cost of the outage path vs the normal path."""
    table = TableResult(
        title="Keyed lookup cost around a bucket crash "
              f"(group size {GROUP_SIZE})",
        headers=["parity k", "phase", "messages", "bytes"],
    )
    for parity in (1, 2):
        net = Network()
        file = make_file(net, parity)
        for key in range(RECORDS):
            file.insert(key, b"%06d-payload\x00" % key)
        victim = next(a for a, b in file.buckets.items()
                      if not b.retired and b.records)
        key = next(iter(file.buckets[victim].records))

        before = net.stats.snapshot()
        file.lookup(key)
        normal = net.stats.diff(before)

        net.crash(file.bucket_id(victim))
        before = net.stats.snapshot()
        file.lookup(key)
        outage = net.stats.diff(before)

        before = net.stats.snapshot()
        file.lookup(key)
        recovered = net.stats.diff(before)

        table.add_row(parity, "normal", normal.messages, normal.bytes)
        table.add_row(parity, "first after crash (detect+degraded"
                      "+recover)", outage.messages, outage.bytes)
        table.add_row(parity, "after recovery", recovered.messages,
                      recovered.bytes)
    table.notes.append(
        "the outage row pays for the whole incident: client timeout "
        "escalation, coordinator probe, the degraded parity read, and "
        "the full online reconstruction of the lost bucket."
    )
    table.notes.append(
        "after recovery the spare answers at exactly the normal cost "
        "— the outage leaves no residue."
    )
    return table
