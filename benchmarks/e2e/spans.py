"""Span recorder for the traced run: wraps public callables from outside.

Nothing in ``src/`` knows it is being traced.  :func:`install` replaces
the public callables it lists with wrappers that open a
span on entry and close it on exit; :meth:`Tracer.uninstall` puts the
originals back.  A span started while no other span is open is a *root*:
one call the benchmark made into the store.  Every span below it belongs
to that operation and carries its op id.

The store API is synchronous and single-threaded in the client process,
so spans nest strictly and a span's self time is its duration minus the
durations of its direct children.  Self times of one operation therefore
sum to its root span exactly; :meth:`Tracer.identity_error` reports the
largest relative gap so a wrapper that loses a frame (an exception path,
a generator) is noticed.

Spans are folded into a ledger keyed by ``(root kind, span name)`` when
they close, and only the first ``sample_ops`` operations of each kind
keep their raw spans (for ``out/trace-<workload>-<seed>.jsonl``).  A
20-second ingest run closes millions of spans; keeping all of them would
measure the recorder's memory, not the store's.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Any, Callable


class Tracer:
    """Open-span stack, per-operation ledger and a raw-span sample."""

    def __init__(self, sample_ops: int = 25) -> None:
        self.sample_ops = sample_ops
        #: open frames, innermost last: [name, children_ns, span id]
        self.stack: list[list] = []
        #: (root kind, span name) -> [calls, self ns, inclusive ns]
        self.ledger: dict[tuple[str, str], list[int]] = {}
        #: root kind -> [operations, inclusive ns]
        self.roots: dict[str, list[int]] = {}
        #: free-form sums the taps maintain (bytes framed, sizes billed)
        self.sums: dict[str, int] = {}
        self.sample: list[tuple] = []
        self.spans = 0
        self.op_id = 0
        self._root_kind = ""
        self._sampling = False
        self._patched: list[tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        namer: Callable[[tuple], str] | None = None,
        tap: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``namer`` refines the span name from the call's arguments (a
        message handler is named by message kind); ``tap`` sees the
        arguments and the result after a successful call, to keep sums
        that are not times.
        """
        original = owner.__dict__[attr]
        tracer = self
        stack = self.stack

        def wrapper(*args, **kwargs):
            label = name if namer is None else namer(args)
            if not stack:
                tracer._open_root(label)
            tracer.spans += 1
            frame = [label, 0, tracer.spans]
            parent = stack[-1][2] if stack else 0
            stack.append(frame)
            started = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                if tap is not None:
                    tap(tracer, args, result)
                return result
            finally:
                ended = perf_counter_ns()
                stack.pop()
                tracer._close(frame, parent, started, ended)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original callable back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- recording ---------------------------------------------------------

    def _open_root(self, label: str) -> None:
        kind = label.rsplit(".", 1)[-1]
        self._root_kind = kind
        self._sampling = self.ops(kind) < self.sample_ops

    def _close(self, frame: list, parent: int, started: int,
               ended: int) -> None:
        label, children, span_id = frame
        elapsed = ended - started
        entry = self.ledger.get((self._root_kind, label))
        if entry is None:
            entry = self.ledger[(self._root_kind, label)] = [0, 0, 0]
        entry[0] += 1
        entry[1] += elapsed - children
        entry[2] += elapsed
        if self._sampling:
            self.sample.append(
                (span_id, parent, label, started, ended, self.op_id)
            )
        if self.stack:
            self.stack[-1][1] += elapsed
        else:
            root = self.roots.setdefault(self._root_kind, [0, 0])
            root[0] += 1
            root[1] += elapsed
            self.op_id += 1

    def add(self, key: str, amount: int) -> None:
        self.sums[key] = self.sums.get(key, 0) + amount

    # -- reading -----------------------------------------------------------

    def ops(self, *kinds: str) -> int:
        return sum(self.roots.get(kind, (0, 0))[0] for kind in kinds)

    def _sum(self, column: int, names: tuple[str, ...],
             kinds: tuple[str, ...]) -> int:
        """Sum a ledger column over span names (a trailing ``*`` matches
        a prefix) and root kinds (empty = every kind)."""
        total = 0
        for (kind, label), entry in self.ledger.items():
            if kinds and kind not in kinds:
                continue
            for name in names:
                if label == name or (
                    name.endswith("*") and label.startswith(name[:-1])
                ):
                    total += entry[column]
                    break
        return total

    def calls(self, *names: str, kinds: tuple[str, ...] = ()) -> int:
        return self._sum(0, names, kinds)

    def self_ns(self, *names: str, kinds: tuple[str, ...] = ()) -> int:
        return self._sum(1, names, kinds)

    def inclusive_ns(self, *names: str,
                     kinds: tuple[str, ...] = ()) -> int:
        return self._sum(2, names, kinds)

    def identity_error(self) -> float:
        """Largest relative gap, over root kinds, between the root
        spans' total duration and the sum of self times below them."""
        worst = 0.0
        for kind, (__, total) in self.roots.items():
            if total == 0:
                continue
            parts = sum(
                entry[1] for (root, __), entry in self.ledger.items()
                if root == kind
            )
            worst = max(worst, abs(parts - total) / total)
        return worst

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per root kind, self milliseconds per operation by layer (the
        module part of the span name) — the ledger a reader scans."""
        table: dict[str, dict[str, float]] = {}
        for (kind, label), entry in sorted(self.ledger.items()):
            operations = self.roots.get(kind, (0, 0))[0]
            if not operations:
                continue
            layer = label.split("[", 1)[0].rsplit(".", 1)[0]
            row = table.setdefault(kind, {})
            row[layer] = row.get(layer, 0.0) + entry[1] / operations / 1e6
        return table

    def dump_sample(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, label, started, ended, op in self.sample:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": label,
                    "start_ns": started, "end_ns": ended, "op": op,
                }) + "\n")


# -- what gets wrapped -----------------------------------------------------


def _by_message_kind(name: str) -> Callable[[tuple], str]:
    # handler(self, message): the span is named by the message kind.
    return lambda args: f"{name}[{args[1].kind}]"


def _tap_message_to_wire(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("wire.billed_bytes", args[0].size)


def _tap_encode_frame(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add(f"wire.framed_bytes[{args[0]}]", len(result))


def install(tracer: Tracer, live: bool) -> None:
    """Wrap every public callable the ledger names.

    Module-level functions are looked up in the caller's namespace at
    call time, so one imported by name (``plans_automaton`` in
    ``core/search.py``) is patched in the importing module too.
    """
    from repro.core import automaton, search
    from repro.core.index import IndexPipeline
    from repro.core.scheme import EncryptedSearchableStore
    from repro.crypto.keys import KeyHierarchy
    from repro.crypto.modes import CtrCipher
    from repro.net.simulator import Network
    from repro.sdds.lhstar import (
        LHStarBucket,
        LHStarClient,
        LHStarCoordinator,
        LHStarFile,
    )

    wrap = tracer.wrap
    for method in ("put", "get", "delete", "search", "search_batch",
                   "bulk_load"):
        wrap(EncryptedSearchableStore, method, f"core.scheme.{method}")
    wrap(IndexPipeline, "build_index_streams",
         "core.index.build_index_streams")
    wrap(IndexPipeline, "plan_query", "core.index.plan_query")
    wrap(search.PlanScanMatcher, "match_bucket",
         "core.search.match_bucket")
    wrap(search.MultiPlanScanMatcher, "match_bucket",
         "core.search.multi_match_bucket")
    wrap(search.HitAggregator, "add_all", "core.search.aggregate")
    wrap(search.HitAggregator, "candidates", "core.search.aggregate")
    wrap(automaton, "plans_automaton", "core.automaton.plans_automaton")
    wrap(search, "plans_automaton", "core.automaton.plans_automaton")
    wrap(automaton, "gram_index", "core.automaton.gram_index")
    wrap(LHStarBucket, "haystack", "sdds.haystack.haystack")
    wrap(LHStarBucket, "handle", "sdds.lhstar.bucket",
         namer=_by_message_kind("sdds.lhstar.bucket"))
    wrap(LHStarCoordinator, "handle", "sdds.lhstar.coordinator",
         namer=_by_message_kind("sdds.lhstar.coordinator"))
    wrap(LHStarClient, "handle", "sdds.lhstar.client",
         namer=_by_message_kind("sdds.lhstar.client"))
    for method in ("insert", "lookup", "delete", "scan", "run_concurrent"):
        wrap(LHStarFile, method, f"sdds.lhstar.file_{method}")
    wrap(Network, "run", "net.simulator.run")
    wrap(Network, "send", "net.simulator.send")
    # CtrCipher.decrypt is an alias of encrypt: two names, one function,
    # and each name gets its own span so the ledger can tell them apart.
    wrap(CtrCipher, "encrypt", "crypto.modes.ctr_encrypt")
    wrap(CtrCipher, "decrypt", "crypto.modes.ctr_decrypt")
    wrap(KeyHierarchy, "record_nonce", "crypto.keys.record_nonce")
    if live:
        from repro.net import wire
        from repro.net.live import LiveNetwork

        wrap(LiveNetwork, "run", "net.live.run")
        wrap(LiveNetwork, "send", "net.live.send")
        wrap(wire, "message_to_wire", "net.wire.message_to_wire",
             tap=_tap_message_to_wire)
        wrap(wire, "message_from_wire", "net.wire.message_from_wire")
        wrap(wire, "encode_frame", "net.wire.encode_frame",
             namer=lambda args: f"net.wire.encode_frame[{args[0]}]",
             tap=_tap_encode_frame)
        # body[1] is the channel byte (see wire.decode_frame_body).
        wrap(wire, "decode_frame_body", "net.wire.decode_frame_body",
             namer=lambda args: "net.wire.decode_frame_body[%s]" % (
                 args[0][1] if len(args[0]) > 1 else "short"))


def span_cost_ns(calls: int = 20000) -> float:
    """Wall-clock cost of one wrapped call of an empty function, on
    this machine now — what each recorded span adds to the traced run."""

    class _Probe:
        def noop(self) -> None:
            return None

    probe = _Probe()
    started = perf_counter_ns()
    for __ in range(calls):
        probe.noop()
    bare = perf_counter_ns() - started
    tracer = Tracer(sample_ops=0)
    tracer.wrap(_Probe, "noop", "probe.noop")
    tracer.stack.append(["outer", 0, 0])  # measure nested, not root, spans
    try:
        started = perf_counter_ns()
        for __ in range(calls):
            probe.noop()
        wrapped = perf_counter_ns() - started
    finally:
        tracer.uninstall()
    return max(wrapped - bare, 0) / calls
