"""The span tracer: nesting, counter deltas, events, JSONL round-trip."""

import io

import pytest

from repro.core import EncryptedSearchableStore, SchemeParameters
from repro.data.phonebook import generate_directory
from repro.net import FaultModel, RetryPolicy
from repro.net.simulator import Network
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    emit,
    get_tracer,
    load_jsonl,
    render_tree,
    set_tracer,
    span,
    use_tracer,
)

PHONEBOOK = {
    4154099999: "415-409-9999 SCHWARZ THOMAS",
    4154091234: "415-409-1234 LITWIN WITOLD",
    4154095678: "415-409-5678 TSUI PETER",
    4154090007: "415-409-0007 ABOGADO ALEJANDRO",
}


def make_store(**kwargs) -> EncryptedSearchableStore:
    params = SchemeParameters.full(4, master_key=b"obs-test-key")
    return EncryptedSearchableStore(params, **kwargs)


class TestSpanBasics:
    def test_empty_span_has_zero_cost(self):
        net = Network()
        tracer = Tracer(network=net)
        with tracer.span("op") as sp:
            pass
        assert sp.start == sp.end == 0.0
        assert sp.stats.messages == 0 and sp.stats.bytes == 0

    def test_span_counts_messages_inside_window(self):
        store = make_store()
        tracer = Tracer(network=store.network)
        with tracer.span("window"):
            store.put(1, "415-409-9999 SCHWARZ THOMAS")
        (root,) = tracer.roots()
        assert root.stats.messages > 0
        assert root.stats.bytes > 0
        assert root.elapsed > 0
        # Unrelated later traffic must not leak into the closed span.
        before = root.stats.messages
        store.put(2, "415-409-1234 LITWIN WITOLD")
        assert root.stats.messages == before

    def test_nesting_parent_child_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Completion order: children first.
        assert [s.name for s in tracer.finished] == ["inner", "outer"]

    def test_exception_annotates_and_closes(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (root,) = tracer.roots()
        assert root.attrs["error"] == "ValueError"
        assert tracer.current() is None

    def test_events_attach_to_innermost_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("tick", n=1)
        inner = next(s for s in tracer.finished if s.name == "inner")
        outer = next(s for s in tracer.finished if s.name == "outer")
        assert [e.name for e in inner.events] == ["tick"]
        assert outer.events == []

    def test_orphan_events_kept(self):
        tracer = Tracer()
        tracer.event("lonely")
        assert [e.name for e in tracer.orphan_events] == ["lonely"]

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=2)
        for index in range(5):
            with tracer.span(f"op{index}"):
                pass
        assert [s.name for s in tracer.finished] == ["op3", "op4"]
        assert tracer.evicted == 3

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestGlobalHooks:
    def test_no_tracer_means_null_span(self):
        assert get_tracer() is None
        assert span("anything", foo=1) is NULL_SPAN
        emit("nothing.listens")  # must not raise

    def test_null_span_is_inert(self):
        with span("untraced") as sp:
            sp.annotate(x=1)
            sp.event("e", 0.0)
        assert sp is NULL_SPAN

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
            with span("traced"):
                emit("seen")
        assert get_tracer() is None
        (root,) = tracer.roots()
        assert [e.name for e in root.events] == ["seen"]

    def test_set_tracer_returns_previous(self):
        first, second = Tracer(), Tracer()
        assert set_tracer(first) is None
        assert set_tracer(second) is first
        assert set_tracer(None) is second


class TestInstrumentedScheme:
    def test_search_span_tree_and_annotations(self):
        store = make_store()
        tracer = Tracer(network=store.network)
        with use_tracer(tracer):
            for rid, text in PHONEBOOK.items():
                store.put(rid, text)
            result = store.search("SCHWARZ")
        names = {s.name for s in tracer.finished}
        assert "ess.put" in names and "ess.search" in names
        search_span = next(
            s for s in tracer.finished if s.name == "ess.search"
        )
        assert search_span.attrs["pattern"] == "SCHWARZ"
        assert search_span.attrs["matches"] == len(result.matches)
        assert search_span.stats.messages == result.cost.messages
        # Verification fetches nest under the search span.
        gets = [
            s for s in tracer.finished
            if s.name == "ess.get"
            and s.parent_id == search_span.span_id
        ]
        assert len(gets) == len(result.candidates)

    def test_search_span_equals_stats_diff(self):
        store = make_store()
        for rid, text in PHONEBOOK.items():
            store.put(rid, text)
        tracer = Tracer(network=store.network)
        before = store.network.stats.snapshot()
        with use_tracer(tracer):
            store.search("LITWIN")
        delta = store.network.stats.diff(before)
        total = sum(s.stats.messages for s in tracer.roots())
        assert total == delta.messages
        assert sum(s.stats.bytes for s in tracer.roots()) == delta.bytes

    def test_retry_events_recorded_under_loss(self):
        net = Network(faults=FaultModel(seed=11, loss_rate=0.15))
        store = make_store(
            network=net,
            retry_policy=RetryPolicy(timeout=0.05, max_retries=10),
        )
        tracer = Tracer(network=net)
        with use_tracer(tracer):
            for rid, text in PHONEBOOK.items():
                store.put(rid, text)
            result = store.search("SCHWARZ")
        assert result.matches == {4154099999}
        events = [
            e.name for s in tracer.finished for e in s.events
        ]
        assert "lh.retry" in events  # loss forced retransmissions
        retries = sum(s.stats.retries for s in tracer.roots())
        assert retries == net.stats.retries

    def test_split_events_attach_to_put_spans(self):
        store = make_store(bucket_capacity=4)
        tracer = Tracer(network=store.network)
        with use_tracer(tracer):
            for rid in range(40):
                store.put(rid, f"415-409-{rid:04d} NAME{rid:04d}")
        splits = [
            e for s in tracer.finished for e in s.events
            if e.name == "lh.split"
        ]
        assert splits  # 40 records through capacity-4 buckets split
        assert all("file" in e.attrs and "new" in e.attrs
                   for e in splits)


class TestFidelity:
    """Tracing observes, never perturbs: the simulated protocol is
    byte-identical with and without a tracer and metrics registry."""

    PATTERNS = ["SCHWARZ", "MARTINEZ", "WONG", "NGUYEN", "GARCIA"]

    def run_workload(self, entries, tracer=None, registry=None):
        params = SchemeParameters.full(4, master_key=b"obs-overhead")
        store = EncryptedSearchableStore(params, bucket_capacity=32)
        if tracer is not None:
            tracer.network = store.network
        with use_tracer(tracer), use_metrics(registry):
            for entry in entries:
                store.put(entry.rid, entry.record_text)
            for pattern in self.PATTERNS:
                store.search(pattern)
            for entry in entries[:20]:
                store.get(entry.rid)
            store.rekey(b"obs-overhead-rotated")
        return store.network.stats

    def test_network_stats_identical_with_and_without_tracing(self):
        entries = generate_directory(300, seed=2006).entries
        plain = self.run_workload(entries)
        tracer = Tracer(network=None)
        traced = self.run_workload(entries, tracer, MetricsRegistry())
        assert tracer.finished
        # Every field: messages, bytes, the per-kind census, faults.
        assert traced == plain


class TestJsonlRoundTrip:
    def trace_workload(self):
        store = make_store()
        tracer = Tracer(network=store.network)
        with use_tracer(tracer):
            for rid, text in PHONEBOOK.items():
                store.put(rid, text)
            store.search("SCHWARZ")
            store.search("TSUI")
            store.get(4154091234)
        return store, tracer

    def test_round_trip_preserves_everything(self):
        __, tracer = self.trace_workload()
        buffer = io.StringIO()
        count = tracer.export_jsonl(buffer)
        assert count == len(tracer.finished)
        restored = load_jsonl(buffer.getvalue().splitlines())
        assert len(restored) == count
        for original, loaded in zip(tracer.finished, restored):
            assert loaded.span_id == original.span_id
            assert loaded.parent_id == original.parent_id
            assert loaded.name == original.name
            assert loaded.attrs == original.attrs
            assert loaded.start == original.start
            assert loaded.end == original.end
            assert loaded.stats.messages == original.stats.messages
            assert loaded.stats.bytes == original.stats.bytes
            assert dict(loaded.stats.by_kind) == dict(
                original.stats.by_kind
            )
            assert [e.name for e in loaded.events] == [
                e.name for e in original.events
            ]

    def test_round_trip_span_sum_matches_stats_delta(self):
        """Acceptance: JSONL round-trip preserves the cost identity."""
        store = make_store()
        for rid, text in PHONEBOOK.items():
            store.put(rid, text)
        tracer = Tracer(network=store.network)
        before = store.network.stats.snapshot()
        with use_tracer(tracer):
            store.search("SCHWARZ")
        delta = store.network.stats.diff(before)
        buffer = io.StringIO()
        tracer.export_jsonl(buffer)
        restored = load_jsonl(buffer.getvalue().splitlines())
        ids = {s.span_id for s in restored}
        roots = [
            s for s in restored
            if s.parent_id is None or s.parent_id not in ids
        ]
        assert sum(s.stats.messages for s in roots) == delta.messages
        assert sum(s.stats.bytes for s in roots) == delta.bytes

    def test_export_to_path(self, tmp_path):
        __, tracer = self.trace_workload()
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(str(path))
        assert len(load_jsonl(str(path))) == len(tracer.finished)


class TestRenderTree:
    def test_tree_shows_nesting_and_events(self):
        store = make_store()
        tracer = Tracer(network=store.network)
        with use_tracer(tracer):
            for rid, text in PHONEBOOK.items():
                store.put(rid, text)
            store.search("SCHWARZ")
        text = tracer.render_tree()
        assert "ess.search" in text
        assert "└─" in text or "├─" in text
        assert "msgs" in text

    def test_tree_of_loaded_spans(self):
        spans = [
            Span("a", span_id=1, parent_id=None, attrs={}),
            Span("b", span_id=2, parent_id=1, attrs={}),
        ]
        text = render_tree(spans)
        assert text.splitlines()[0].startswith("a")
        assert "b" in text.splitlines()[1]
