"""Per-operation cost breakdowns rendered from a trace.

The paper's evaluation tables are all of one shape: rows of
operations (or configurations), columns of measured costs.  This
module reproduces that shape from a :class:`~repro.obs.trace.Tracer`
ring buffer or a JSONL export — so "what did this workload cost,
per operation?" is one function call instead of a hand-maintained
spreadsheet of ``NetworkStats`` diffs.

Two tables:

* :func:`cost_breakdown` — one row per *root* span name: operation
  count, total/average messages and bytes, retries, injected faults,
  and simulated elapsed time.  Nested spans (the ``get`` fetches
  inside a ``search``) are inclusive in their parents and therefore
  excluded from the row sums — the totals line of the table equals
  the raw ``NetworkStats`` delta of the traced window exactly.
* :func:`kind_breakdown` — one row per message kind across the same
  root spans: the wire census (which protocol messages carried the
  bytes), the view the LH* papers argue from.

``python -m repro.obs.report trace.jsonl`` renders both for an
exported trace.  A third table, :func:`cache_breakdown`, summarises
the fused-codec and search-plan caches of
:mod:`repro.core.kernels` from a metrics registry (hits, misses, hit
rate, build time); ``python -m repro.obs.report trace.jsonl
metrics.json`` appends it from a
:meth:`~repro.obs.metrics.MetricsRegistry.dump_json` export.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable

from repro.obs.trace import Span, load_jsonl

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bench.tables import TableResult

# ``repro.bench`` imports the whole scheme stack, whose SDDS layer
# imports the obs hooks — so the table renderer must load lazily or
# ``import repro`` would hit a partially initialised module.


def _table(title: str, headers: list[str]) -> "TableResult":
    from repro.bench.tables import TableResult

    return TableResult(title=title, headers=headers)

__all__ = [
    "cache_breakdown",
    "cost_breakdown",
    "kind_breakdown",
    "render_report",
    "report_from_jsonl",
]


def _roots(spans: Iterable[Span]) -> list[Span]:
    spans = list(spans)
    ids = {span.span_id for span in spans}
    return [
        span for span in spans
        if span.parent_id is None or span.parent_id not in ids
    ]


def cost_breakdown(
    spans: Iterable[Span],
    title: str = "Per-operation cost breakdown",
) -> "TableResult":
    """One row per root-span name, paper-table shape.

    Columns: operation, count, total messages, messages/op, total
    bytes, bytes/op, retries, dropped, duplicated, elapsed seconds.
    A final ``TOTAL`` row sums the workload; because only root spans
    are counted, it matches the enclosing ``NetworkStats`` diff.
    """
    table = _table(
        title,
        ["operation", "count", "msgs", "msgs/op", "bytes",
         "bytes/op", "retries", "dropped", "dup'd", "elapsed (s)"],
    )
    groups: dict[str, list[Span]] = {}
    for span in _roots(spans):
        groups.setdefault(span.name, []).append(span)
    totals = Counter()
    for name in sorted(groups):
        members = groups[name]
        count = len(members)
        messages = sum(span.stats.messages for span in members)
        size = sum(span.stats.bytes for span in members)
        retries = sum(span.stats.retries for span in members)
        dropped = sum(span.stats.dropped for span in members)
        duplicated = sum(span.stats.duplicated for span in members)
        elapsed = sum(span.elapsed for span in members)
        table.add_row(
            name, count, messages, messages / count, size,
            size / count, retries, dropped, duplicated, elapsed,
        )
        totals.update(
            count=count, messages=messages, bytes=size,
            retries=retries, dropped=dropped, duplicated=duplicated,
        )
        totals["elapsed"] += elapsed
    if len(groups) > 1:
        count = max(totals["count"], 1)
        table.add_row(
            "TOTAL", totals["count"], totals["messages"],
            totals["messages"] / count, totals["bytes"],
            totals["bytes"] / count, totals["retries"],
            totals["dropped"], totals["duplicated"],
            totals["elapsed"],
        )
    return table


def kind_breakdown(
    spans: Iterable[Span],
    title: str = "Wire census by message kind",
) -> "TableResult":
    """One row per message kind over the root spans: the wire census."""
    messages: Counter = Counter()
    sizes: Counter = Counter()
    for span in _roots(spans):
        messages.update(span.stats.by_kind)
        sizes.update(span.stats.bytes_by_kind)
    table = _table(title, ["kind", "msgs", "bytes", "bytes/msg"])
    for kind in sorted(messages):
        count = messages[kind]
        size = sizes.get(kind, 0)
        table.add_row(kind, count, size, size / count if count else 0.0)
    return table


def cache_breakdown(
    metrics: dict,
    title: str = "Fused-kernel cache census",
) -> "TableResult":
    """One row per kernel cache from a metrics mapping.

    ``metrics`` is the mapping produced by
    :meth:`repro.obs.metrics.MetricsRegistry.to_dict` (or parsed from
    its JSON dump): the ``kernels.codec.*``, ``kernels.plan.*``,
    ``lh.haystack.*`` and ``lh.haystack.automaton.*`` instruments
    feed rows of hits, misses, hit rate, builds and build seconds.
    Caches that never ran render as zero rows, so the table shape is
    stable.  For bucket haystacks a
    "miss" is a (re)build — the cache is dropped whenever the bucket's
    records change, so the hit rate is the fraction of batched scans
    served without re-concatenating.
    """

    def _value(name: str) -> float:
        entry = metrics.get(name)
        return entry.get("value", 0) if entry else 0

    build = metrics.get("kernels.codec.build_seconds") or {}
    gram_build = metrics.get("lh.haystack.automaton.build_seconds") or {}
    table = _table(
        title,
        ["cache", "hits", "misses", "hit rate", "builds",
         "build (s)", "resident"],
    )
    for cache, hits, misses, builds, build_seconds, resident in (
        (
            "codec tables",
            _value("kernels.codec.hit"), _value("kernels.codec.miss"),
            build.get("count", 0), build.get("sum", 0.0),
            _value("kernels.codec.cached"),
        ),
        (
            "search plans",
            _value("kernels.plan.hit"), _value("kernels.plan.miss"),
            _value("kernels.plan.miss"), 0.0, None,
        ),
        (
            "bucket haystacks",
            _value("lh.haystack.hit"), _value("lh.haystack.build"),
            _value("lh.haystack.build"), 0.0, None,
        ),
        (
            "gram indexes",
            _value("lh.haystack.automaton.hit"),
            _value("lh.haystack.automaton.build"),
            gram_build.get("count", 0),
            gram_build.get("sum", 0.0),
            None,
        ),
    ):
        total = hits + misses
        table.add_row(
            cache, hits, misses,
            f"{hits / total:.0%}" if total else "-",
            builds, build_seconds,
            "-" if resident is None else resident,
        )
    return table


def render_report(spans: Iterable[Span], title: str | None = None) -> str:
    """Both tables, rendered as fixed-width text blocks."""
    spans = list(spans)
    breakdown = cost_breakdown(
        spans,
        title=title or "Per-operation cost breakdown",
    )
    census = kind_breakdown(spans)
    return breakdown.render() + "\n\n" + census.render()


def report_from_jsonl(path: str, title: str | None = None) -> str:
    """Render the report for a JSONL trace export on disk."""
    return render_report(load_jsonl(path), title=title)


def main(argv: list[str] | None = None) -> int:  # pragma: no cover
    import json
    import sys

    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2:
        print(
            "usage: python -m repro.obs.report TRACE.jsonl "
            "[METRICS.json]",
            file=sys.stderr,
        )
        return 2
    print(report_from_jsonl(argv[0]))
    if len(argv) == 2:
        with open(argv[1]) as handle:
            metrics = json.load(handle)
        print()
        print(cache_breakdown(metrics).render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
