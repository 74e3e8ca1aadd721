"""Counters, gauges and histograms with plain-text and JSON dumps.

Where :mod:`repro.obs.trace` answers "what did *this* operation
cost?", the metrics registry answers the fleet-level questions an
operator of the ROADMAP's production deployment would ask: how many
splits so far, how loaded are the buckets, what is the measured
false-positive rate, how is search latency distributed.

Three instrument types, all deliberately tiny:

* :class:`Counter` — monotonically increasing total (split events,
  retries, messages by kind).
* :class:`Gauge` — last-written value (load factor, bucket count).
* :class:`Histogram` — fixed-bound bucket counts plus count/sum/
  min/max (search latency, message sizes, per-query false positives).

A :class:`MetricsRegistry` holds instruments by name and renders them
as prometheus-style plain text (:meth:`MetricsRegistry.dump_text`) or
JSON (:meth:`MetricsRegistry.dump_json`).  Like the tracer, a
registry only costs anything once installed via :func:`set_metrics` /
:func:`use_metrics`; the module-level :func:`inc` / :func:`observe` /
:func:`set_gauge` hooks are ``None``-check no-ops otherwise.

>>> registry = MetricsRegistry()
>>> with use_metrics(registry):
...     inc("lh.split")
...     inc("lh.split")
...     observe("ess.search.elapsed", 0.004)
...     set_gauge("lh.load_factor", 0.61)
>>> registry.counter("lh.split").value
2
>>> registry.gauge("lh.load_factor").value
0.61
>>> registry.histogram("ess.search.elapsed").count
1
>>> print(registry.dump_text())
counter lh.split 2
gauge lh.load_factor 0.61
histogram ess.search.elapsed count=1 sum=0.004 min=0.004 max=0.004
"""

from __future__ import annotations

import json
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Default histogram bounds: geometric, wide enough for both simulated
#: seconds (sub-millisecond LAN round-trips) and byte/count payloads.
DEFAULT_BOUNDS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
    1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0,
)


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def to_dict(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


@dataclass
class Gauge:
    """A last-write-wins instantaneous value."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def to_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


@dataclass
class Histogram:
    """Fixed-bound bucket counts with count/sum/min/max.

    ``bounds`` are the inclusive upper edges of the buckets; one
    overflow bucket catches everything beyond the last edge.  The
    summary statistics are exact whatever the bounds.
    """

    name: str
    bounds: tuple[float, ...] = DEFAULT_BOUNDS
    buckets: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    minimum: float | None = None
    maximum: float | None = None

    def __post_init__(self) -> None:
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted")
        if not self.buckets:
            self.buckets = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Instruments by name; create-on-first-use accessors."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- accessors ----------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None
    ) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(
                name, bounds=bounds or DEFAULT_BOUNDS
            )
        return histogram

    # -- dumps --------------------------------------------------------------

    def to_dict(self) -> dict[str, dict[str, Any]]:
        """All instruments as one JSON-ready mapping, sorted by name."""
        merged: dict[str, dict[str, Any]] = {}
        for family in (self.counters, self.gauges, self.histograms):
            for name, instrument in family.items():
                merged[name] = instrument.to_dict()
        return dict(sorted(merged.items()))

    def dump_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def dump_text(self) -> str:
        """Plain-text dump: one instrument per line, counters first."""
        lines = []
        for name in sorted(self.counters):
            lines.append(f"counter {name} {self.counters[name].value}")
        for name in sorted(self.gauges):
            lines.append(f"gauge {name} {self.gauges[name].value}")
        for name in sorted(self.histograms):
            h = self.histograms[name]
            lines.append(
                f"histogram {name} count={h.count} sum={h.total:g} "
                f"min={0 if h.minimum is None else h.minimum:g} "
                f"max={0 if h.maximum is None else h.maximum:g}"
            )
        return "\n".join(lines)


# -- global installation ------------------------------------------------------

_ACTIVE: MetricsRegistry | None = None


def get_metrics() -> MetricsRegistry | None:
    """The globally installed registry, or None."""
    return _ACTIVE


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install ``registry`` globally; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` for the duration of a ``with`` block."""
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)


def inc(name: str, amount: int | float = 1) -> None:
    """Hot-path hook: bump a counter on the active registry, if any."""
    registry = _ACTIVE
    if registry is not None:
        registry.counter(name).inc(amount)


def set_gauge(name: str, value: float) -> None:
    """Hot-path hook: write a gauge on the active registry, if any."""
    registry = _ACTIVE
    if registry is not None:
        registry.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    """Hot-path hook: record a histogram sample, if a registry is on."""
    registry = _ACTIVE
    if registry is not None:
        registry.histogram(name).observe(value)


class NetworkMetricsObserver:
    """Feeds a registry from a Network's observer hooks.

    Attach with :func:`watch_network`; per message it records the
    kind-tagged counters plus size and delivery-latency histograms.
    Detach by setting ``network.observer = None``.
    """

    __slots__ = ("registry",)

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def on_send(self, kind: str, size: int) -> None:
        self.registry.counter(f"net.sent.{kind}").inc()
        self.registry.histogram("net.message_size").observe(size)

    def on_drop(self, kind: str, size: int) -> None:
        self.registry.counter("net.dropped").inc()

    def on_deliver(self, kind: str, size: int, latency: float) -> None:
        self.registry.counter("net.delivered").inc()
        self.registry.histogram("net.delivery_latency").observe(latency)


def watch_network(network, registry: MetricsRegistry | None = None):
    """Attach a :class:`NetworkMetricsObserver` to ``network``.

    Uses the globally installed registry when none is given; creates
    and installs nothing implicitly — a registry must exist.
    """
    registry = registry or _ACTIVE
    if registry is None:
        raise ValueError(
            "no metrics registry: pass one or install via set_metrics()"
        )
    observer = NetworkMetricsObserver(registry)
    network.observer = observer
    return observer
