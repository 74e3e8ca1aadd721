"""Structured observability: tracing, metrics and cost reports.

The repo's answer to "what did that cost?" used to be hand-diffed
:class:`~repro.net.stats.NetworkStats` snapshots.  This package makes
the discipline first-class — see ``docs/OBSERVABILITY.md`` for the
operator guide:

* :mod:`repro.obs.trace` — span-based tracer over the virtual clock:
  per-operation counter deltas, parent/child nesting, protocol events
  (splits, forwards, retries, dedup replays), ring buffer, JSONL
  export/import, span-tree rendering.
* :mod:`repro.obs.metrics` — counters/gauges/histograms with
  plain-text and JSON dumps, plus a network observer feeding message
  size and delivery-latency distributions.
* :mod:`repro.obs.report` — paper-table-shaped cost breakdowns
  (per operation, per message kind) rendered from a trace.

Nothing here costs anything until installed: the hot-path hooks
(:func:`repro.obs.trace.span`, :func:`repro.obs.trace.emit`, the
metrics helpers) are ``None``-check no-ops until :func:`set_tracer` /
:func:`set_metrics` (or their ``use_*`` context-manager forms) turn
observability on.  ``tests/obs/test_trace.py`` enforces
``NetworkStats`` parity between instrumented and uninstrumented runs.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NetworkMetricsObserver,
    get_metrics,
    set_metrics,
    use_metrics,
    watch_network,
)
from repro.obs.report import (
    cost_breakdown,
    kind_breakdown,
    render_report,
    report_from_jsonl,
)
from repro.obs.trace import (
    Span,
    SpanEvent,
    Tracer,
    get_tracer,
    load_jsonl,
    render_tree,
    set_tracer,
    use_tracer,
)

__all__ = [
    "Tracer",
    "Span",
    "SpanEvent",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "load_jsonl",
    "render_tree",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "NetworkMetricsObserver",
    "get_metrics",
    "set_metrics",
    "use_metrics",
    "watch_network",
    "cost_breakdown",
    "kind_breakdown",
    "render_report",
    "report_from_jsonl",
]
