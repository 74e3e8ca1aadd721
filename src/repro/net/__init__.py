"""Deterministic discrete-event network simulator.

The paper evaluates an SDDS running on a multicomputer.  We do not have
a multicomputer; per DESIGN.md the faithful substitute is a simulator
that accounts for the quantities SDDS papers actually argue about —
message counts, bytes on the wire, forwarding hops and protocol rounds
— under a simple latency model (fixed per-message cost plus size over
bandwidth).

* :class:`repro.net.simulator.Network` — the event loop.
* :class:`repro.net.simulator.Node` — base class for protocol actors
  (LH* buckets, the split coordinator, clients, dispersal sites).
* :class:`repro.net.simulator.Message` — a timestamped, sized message.
* :class:`repro.net.stats.NetworkStats` — counters with per-kind
  breakdowns, reset/snapshot support for benchmarking.
"""

from repro.net.faults import (
    RELIABLE_KINDS,
    CrashFaultModel,
    FaultModel,
    RetryExhaustedError,
    RetryPolicy,
)
from repro.net.simulator import (
    JitterLatencyModel,
    LatencyModel,
    Message,
    Network,
    Node,
    Timer,
    wire_checksum,
)
from repro.net.stats import NetworkStats

__all__ = [
    "Network",
    "Node",
    "Message",
    "Timer",
    "LatencyModel",
    "JitterLatencyModel",
    "NetworkStats",
    "FaultModel",
    "CrashFaultModel",
    "RetryPolicy",
    "RetryExhaustedError",
    "RELIABLE_KINDS",
    "wire_checksum",
]
