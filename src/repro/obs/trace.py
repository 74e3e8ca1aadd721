"""Span-based tracing over the virtual clock.

The paper's whole evaluation is quantitative — messages per lookup,
bytes per scan round, false positives per query — and before this
module existed every such number was obtained by hand-diffing
:class:`~repro.net.stats.NetworkStats` snapshots around an operation.
A :class:`Tracer` automates exactly that discipline:

* ``with tracer.span("search", pattern="SCHWARZ"):`` snapshots the
  network counters and the virtual clock on entry and exit, so every
  finished :class:`Span` carries its *inclusive* counter delta
  (messages, bytes, dropped, duplicated, retries, per-kind census)
  and its simulated elapsed time.
* Spans nest: a ``search`` span contains the ``get`` spans of its
  verification fetches, parent/child linked by id.
* Low-frequency protocol incidents (splits, forwards, retries, dedup
  replays — emitted by the instrumented hot paths) attach to the
  innermost open span as :class:`SpanEvent` records.
* Finished spans land in a bounded ring buffer and round-trip through
  JSONL (:meth:`Tracer.export_jsonl` / :func:`load_jsonl`) without
  losing a counter.

Installation is global and explicit: hot paths call the module-level
:func:`span` / :func:`emit` hooks, which are no-ops — a ``None`` check
and nothing else — until :func:`set_tracer` (or the :func:`use_tracer`
context manager) installs a tracer.  ``tests/obs/test_trace.py``
holds the layer to ``NetworkStats`` parity with uninstrumented runs.

>>> from repro.net.simulator import Network
>>> net = Network()
>>> tracer = Tracer(network=net)
>>> with use_tracer(tracer):
...     with tracer.span("demo", label="outer"):
...         with tracer.span("inner"):
...             emit("tick", n=1)
>>> [s.name for s in tracer.finished]
['inner', 'demo']
>>> root = tracer.roots()[0]
>>> root.attrs["label"], root.events == []
('outer', True)
>>> tracer.finished[0].events[0].name
'tick'
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, Any, Iterable, Iterator

from repro.net.simulator import Network
from repro.net.stats import NetworkStats

#: Scalar NetworkStats fields carried per span (the per-kind censuses
#: ride along separately as dicts).
STAT_FIELDS = (
    "messages",
    "bytes",
    "dropped",
    "duplicated",
    "retries",
    "crashed_drops",
    "partitioned_drops",
    "corrupted",
)


@dataclass
class SpanEvent:
    """A point-in-time protocol incident inside a span.

    Events are the low-frequency annotations the SDDS layer emits —
    ``lh.split``, ``lh.forward``, ``lh.retry``, ``lh.dedup_replay`` —
    stamped with the virtual-clock time they happened at.
    """

    name: str
    time: float
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "time": self.time, "attrs": self.attrs}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SpanEvent":
        return cls(name=data["name"], time=data["time"],
                   attrs=dict(data.get("attrs", {})))


class Span:
    """One traced operation: name, attrs, clock window, counter delta.

    Context-manager protocol; use via :meth:`Tracer.span`.  While open
    it sits on the tracer's stack (events attach to the innermost open
    span); once closed it is immutable in spirit and sits in the
    tracer's ring buffer with its *inclusive* stats delta.
    """

    __slots__ = (
        "span_id", "parent_id", "name", "attrs", "start", "end",
        "stats", "events", "_tracer", "_network", "_before",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        attrs: dict[str, Any],
        tracer: "Tracer | None" = None,
        network: Network | None = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self.stats: NetworkStats = NetworkStats()
        self.events: list[SpanEvent] = []
        self._tracer = tracer
        self._network = network
        self._before: NetworkStats | None = None

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Span":
        network = self._network
        if network is not None:
            self.start = network.now
            self._before = network.stats.snapshot()
        if self._tracer is not None:
            self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        network = self._network
        if network is not None:
            self.end = network.now
            if self._before is not None:
                self.stats = network.stats.diff(self._before)
                self._before = None
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._pop(self)
        return False

    # -- annotation ---------------------------------------------------------

    def annotate(self, **attrs: Any) -> "Span":
        """Attach result attributes (candidate counts, precision, …)."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, time: float, **attrs: Any) -> SpanEvent:
        record = SpanEvent(name=name, time=time, attrs=attrs)
        self.events.append(record)
        return record

    @property
    def elapsed(self) -> float:
        """Simulated seconds the span covered."""
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"messages={self.stats.messages}, "
                f"elapsed={self.elapsed:.6f})")

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
            "events": [event.to_dict() for event in self.events],
            "by_kind": dict(self.stats.by_kind),
            "bytes_by_kind": dict(self.stats.bytes_by_kind),
        }
        for fieldname in STAT_FIELDS:
            data[fieldname] = getattr(self.stats, fieldname)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        span = cls(
            name=data["name"],
            span_id=data["id"],
            parent_id=data.get("parent"),
            attrs=dict(data.get("attrs", {})),
        )
        span.start = data.get("start", 0.0)
        span.end = data.get("end", 0.0)
        stats = NetworkStats()
        for fieldname in STAT_FIELDS:
            setattr(stats, fieldname, data.get(fieldname, 0))
        stats.by_kind.update(data.get("by_kind", {}))
        stats.bytes_by_kind.update(data.get("bytes_by_kind", {}))
        span.stats = stats
        span.events = [
            SpanEvent.from_dict(event) for event in data.get("events", [])
        ]
        return span


class Tracer:
    """Collects spans into a bounded ring buffer.

    ``network`` is the default :class:`~repro.net.simulator.Network`
    whose clock and counters spans snapshot (a per-span override is
    accepted by :meth:`span` for multi-network setups).  ``capacity``
    bounds the ring buffer; once full, the *oldest* finished spans are
    evicted and counted in :attr:`evicted`.
    """

    def __init__(
        self, network: Network | None = None, capacity: int = 4096
    ) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.network = network
        self.capacity = capacity
        #: Finished spans in completion order (children before parents).
        self.finished: deque[Span] = deque()
        self.evicted = 0
        self._stack: list[Span] = []
        self._ids = itertools.count(1)
        #: Events emitted outside any open span (rare: background
        #: protocol work between traced operations).
        self.orphan_events: list[SpanEvent] = []

    # -- span lifecycle -----------------------------------------------------

    def span(
        self, name: str, network: Network | None = None, **attrs: Any
    ) -> Span:
        """Open a span; use as a context manager."""
        parent = self._stack[-1] if self._stack else None
        return Span(
            name=name,
            span_id=next(self._ids),
            parent_id=None if parent is None else parent.span_id,
            attrs=attrs,
            tracer=self,
            network=network or self.network,
        )

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - defensive
            self._stack.remove(span)
        self.finished.append(span)
        while len(self.finished) > self.capacity:
            self.finished.popleft()
            self.evicted += 1

    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def event(self, name: str, **attrs: Any) -> None:
        """Attach a protocol incident to the innermost open span."""
        time = self.network.now if self.network is not None else 0.0
        current = self.current()
        if current is not None:
            current.event(name, time, **attrs)
        else:
            self.orphan_events.append(
                SpanEvent(name=name, time=time, attrs=attrs)
            )

    def clear(self) -> None:
        self.finished.clear()
        self.orphan_events.clear()
        self.evicted = 0

    # -- views --------------------------------------------------------------

    def roots(self) -> list[Span]:
        """Finished top-level spans, oldest first."""
        return [s for s in self.finished if s.parent_id is None]

    def render_tree(self) -> str:
        """ASCII tree of the finished spans with their cost deltas."""
        return render_tree(list(self.finished))

    # -- export -------------------------------------------------------------

    def export_jsonl(self, destination: str | IO[str]) -> int:
        """Write finished spans as JSON Lines; returns the span count.

        ``destination`` is a path or an open text file.  One span per
        line, completion order preserved (children precede parents),
        so ``load_jsonl`` reconstructs the trace exactly.
        """
        spans = list(self.finished)
        if isinstance(destination, (str, bytes)):
            with open(destination, "w", encoding="utf-8") as handle:
                return self._write(spans, handle)
        return self._write(spans, destination)

    @staticmethod
    def _write(spans: list[Span], handle: IO[str]) -> int:
        # Insertion order everywhere (attrs included) so a reloaded
        # trace renders byte-identically to the live one.
        for span in spans:
            handle.write(json.dumps(span.to_dict()))
            handle.write("\n")
        return len(spans)


def load_jsonl(source: str | IO[str] | Iterable[str]) -> list[Span]:
    """Read spans back from a JSONL export (path, file, or lines)."""
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = list(source)
    return [
        Span.from_dict(json.loads(line))
        for line in lines
        if line.strip()
    ]


# -- tree rendering -----------------------------------------------------------


def build_tree(
    spans: Iterable[Span],
) -> tuple[list[Span], dict[int, list[Span]]]:
    """(roots, children-by-parent-id) in start-time order."""
    spans = sorted(spans, key=lambda s: (s.start, s.span_id))
    children: dict[int, list[Span]] = {}
    ids = {span.span_id for span in spans}
    roots = []
    for span in spans:
        if span.parent_id is None or span.parent_id not in ids:
            roots.append(span)
        else:
            children.setdefault(span.parent_id, []).append(span)
    return roots, children


def render_tree(spans: Iterable[Span]) -> str:
    """Human-readable span tree with counter deltas and events.

    ::

        ess.search pattern='SCHWARZ'  [12 msgs, 1,204 B, 0.8 ms]
        ├─ event lh.retry kind='scan' attempt=1  @0.250s
        └─ ess.get rid=4154099999  [2 msgs, 118 B, 0.4 ms]
    """
    roots, children = build_tree(spans)
    lines: list[str] = []

    def describe(span: Span) -> str:
        attrs = " ".join(
            f"{key}={value!r}" for key, value in span.attrs.items()
        )
        head = span.name if not attrs else f"{span.name} {attrs}"
        stats = span.stats
        cost = (f"[{stats.messages} msgs, {stats.bytes:,} B, "
                f"{span.elapsed * 1000:.2f} ms")
        if stats.retries:
            cost += f", {stats.retries} retries"
        if stats.dropped:
            cost += f", {stats.dropped} dropped"
        if stats.duplicated:
            cost += f", {stats.duplicated} dup'd"
        if stats.crashed_drops:
            cost += f", {stats.crashed_drops} crash-dropped"
        if stats.partitioned_drops:
            cost += f", {stats.partitioned_drops} partition-dropped"
        if stats.corrupted:
            cost += f", {stats.corrupted} corrupted"
        return f"{head}  {cost}]"

    def walk(span: Span, prefix: str, is_last: bool, top: bool) -> None:
        if top:
            lines.append(describe(span))
            child_prefix = ""
        else:
            connector = "└─ " if is_last else "├─ "
            lines.append(prefix + connector + describe(span))
            child_prefix = prefix + ("   " if is_last else "│  ")
        entries: list[tuple[float, int, object]] = []
        for event in span.events:
            entries.append((event.time, 0, event))
        for child in children.get(span.span_id, []):
            entries.append((child.start, 1, child))
        entries.sort(key=lambda item: (item[0], item[1]))
        for index, (__, tag, entry) in enumerate(entries):
            last = index == len(entries) - 1
            if tag == 0:
                event: SpanEvent = entry  # type: ignore[assignment]
                attrs = " ".join(
                    f"{k}={v!r}" for k, v in event.attrs.items()
                )
                connector = "└─ " if last else "├─ "
                lines.append(
                    child_prefix + connector
                    + f"event {event.name}"
                    + (f" {attrs}" if attrs else "")
                    + f"  @{event.time:.3f}s"
                )
            else:
                walk(entry, child_prefix, last, top=False)  # type: ignore[arg-type]

    for root in roots:
        walk(root, "", True, top=True)
    return "\n".join(lines)


# -- global installation ------------------------------------------------------

_ACTIVE: Tracer | None = None


class _NullSpan:
    """The do-nothing span returned while no tracer is installed.

    A shared singleton: entering, exiting and annotating it costs a
    method call each and allocates nothing, which is what keeps the
    instrumented hot paths at parity when observability is off.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def event(self, name: str, time: float, **attrs: Any) -> None:
        return None


NULL_SPAN = _NullSpan()


def get_tracer() -> Tracer | None:
    """The globally installed tracer, or None."""
    return _ACTIVE


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` globally; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of a ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def span(name: str, network: Network | None = None, **attrs: Any):
    """Hot-path hook: a real span when a tracer is installed, else the
    shared no-op span."""
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, network=network, **attrs)


def emit(name: str, **attrs: Any) -> None:
    """Hot-path hook: record a protocol incident (split, forward,
    retry, dedup replay) on the active tracer's innermost span.

    A no-op — one global load and a ``None`` check — when no tracer
    is installed.  Sites that also want an event *counter* pair this
    with :func:`repro.obs.metrics.inc` under the same name.
    """
    tracer = _ACTIVE
    if tracer is not None:
        tracer.event(name, **attrs)
