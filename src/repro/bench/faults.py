"""Robustness sweep: loss rate x retry policy.

Not a paper table — the paper assumes a reliable multicomputer — but
the claim the sweep defends is the paper's availability story (§5):
the LH* substrate keeps answering correctly when the network does not
cooperate.  For each (loss rate, retry policy) cell we run a full
insert -> search-scan -> lookup workload on an unreliable network and
report recall, the injected faults, the recovery retries, and what the
recovery cost in messages and simulated time relative to the reliable
baseline.
"""

from repro.bench.tables import TableResult
from repro.net import FaultModel, Network, RetryPolicy
from repro.sdds import LHStarFile
from repro.sdds.lhstar import RidScanMatcher

RECORDS = 300
LOSS_RATES = [0.0, 0.01, 0.05, 0.10, 0.20]
POLICIES = {
    "patient": RetryPolicy(timeout=0.25, backoff=2.0, max_retries=8),
    "eager": RetryPolicy(timeout=0.05, backoff=1.5, max_retries=12),
}


def run_workload(loss_rate: float, policy: RetryPolicy, seed: int = 2006):
    net = Network(faults=FaultModel(
        seed=seed, loss_rate=loss_rate, duplication_rate=loss_rate / 5
    ))
    file = LHStarFile(
        network=net, bucket_capacity=16, retry_policy=policy
    )
    for key in range(RECORDS):
        file.insert(key, b"%06d-payload\x00" % key)
    hits = file.scan(RidScanMatcher())
    found = sum(
        1 for key in range(RECORDS)
        if file.lookup(key) is not None
    )
    recall = (len(set(hits)) + found) / (2 * RECORDS)
    return {
        "recall": recall,
        "messages": net.stats.messages,
        "dropped": net.stats.dropped,
        "duplicated": net.stats.duplicated,
        "retries": net.stats.retries,
        "elapsed": net.now,
        "record_count": file.record_count,
    }


def exp_fault_sweep() -> TableResult:
    table = TableResult(
        title="Unreliable network sweep: recall and recovery cost "
              f"({RECORDS} records, duplication = loss/5)",
        headers=["policy", "loss", "recall", "messages", "dropped",
                 "dup'd", "retries", "elapsed (s)"],
    )
    for name, policy in POLICIES.items():
        baseline = None
        for loss in LOSS_RATES:
            outcome = run_workload(loss, policy)
            if baseline is None:
                baseline = outcome
            table.add_row(
                name,
                f"{loss:.0%}",
                f"{outcome['recall']:.0%}",
                outcome["messages"],
                outcome["dropped"],
                outcome["duplicated"],
                outcome["retries"],
                outcome["elapsed"],
            )
    table.notes.append(
        "recall averages scan coverage and lookup hit rate; 100% "
        "means every record answered despite the injected faults."
    )
    table.notes.append(
        "messages include retransmissions and fault-injected copies; "
        "the 0% row is byte-identical to a reliable network."
    )
    return table
