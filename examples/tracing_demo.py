#!/usr/bin/env python3
"""Tracing demo: watch a search survive a lossy network.

Runs the phonebook workload on an unreliable network (10% loss, 2%
duplication), with a tracer and metrics registry installed.  The
output is the span tree — every put/search/get with its message and
byte cost, and the ``lh.retry`` / ``lh.dedup_replay`` events showing
where the timeout-retry layer papered over injected faults — followed
by the per-operation cost breakdown table and the metrics dump.
"""

from repro import EncryptedSearchableStore, SchemeParameters
from repro.net import FaultModel, Network, RetryPolicy
from repro.obs import (
    MetricsRegistry,
    Tracer,
    render_report,
    use_metrics,
    use_tracer,
    watch_network,
)

PHONEBOOK = {
    4154099999: "415-409-9999 SCHWARZ THOMAS",
    4154091234: "415-409-1234 LITWIN WITOLD",
    4154095678: "415-409-5678 TSUI PETER",
    4154090007: "415-409-0007 ABOGADO ALEJANDRO & CATHERINE",
}


def main() -> None:
    net = Network(faults=FaultModel(
        seed=2006, loss_rate=0.10, duplication_rate=0.02
    ))
    store = EncryptedSearchableStore(
        SchemeParameters.full(4, master_key=b"tracing-demo-key"),
        network=net,
        retry_policy=RetryPolicy(timeout=0.1, max_retries=10),
    )
    tracer = Tracer(network=net)
    metrics = MetricsRegistry()
    watch_network(net, metrics)

    with use_tracer(tracer), use_metrics(metrics):
        for rid, text in PHONEBOOK.items():
            store.put(rid, text)
        result = store.search("SCHWARZ")
        for rid in sorted(result.matches):
            store.get(rid)

    print("=== span tree "
          "(lh.retry / lh.dedup_replay mark recovered faults) ===\n")
    print(tracer.render_tree())

    print("\n=== per-operation cost breakdown ===\n")
    print(render_report(tracer.finished))

    print("\n=== metrics ===\n")
    print(metrics.dump_text())

    dropped = net.stats.dropped
    retries = net.stats.retries
    print(f"\nthe network dropped {dropped} message(s) and the "
          f"clients retried {retries} time(s); every record still "
          f"answered: {sorted(result.matches)}")


if __name__ == "__main__":
    main()
