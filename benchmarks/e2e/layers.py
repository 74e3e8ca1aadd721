"""The per-layer ledger: one named number per layer boundary.

Each entry says what it measures, how it is computed from the traced
run, and — written down before anything was measured — which end-to-end
metric it should move on which workload.  A layer is a module of
``src/repro``; the metric name starts with it.

Three sources feed the numbers:

* the span ledger (:class:`spans.Tracer`): self and inclusive time per
  (operation kind, wrapped callable);
* the store's own ``MetricsRegistry`` counters (``lh.*``, ``kernels.*``),
  installed with ``use_metrics`` for the traced phase only;
* facts the runner can see from outside: billed ``NetworkStats`` around
  each call, result shapes, bucket counts.

A layer the workload does not cross reports 0: the simulator workloads
have no ``net.wire``/``net.live`` time, and on the live tier bucket and
coordinator work happens in site processes the recorder cannot see
(spans inside the program are a later change), so it shows up as
``net.live.run_wait_ms_per_op``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from spans import Tracer

KEYED = ("put", "get", "delete")
SCANS = ("search", "search_batch")
FILE_KEYED = ("sdds.lhstar.file_insert", "sdds.lhstar.file_lookup",
              "sdds.lhstar.file_delete")
HANDLERS = ("sdds.lhstar.bucket*", "sdds.lhstar.coordinator*",
            "sdds.lhstar.client*")


@dataclass
class Traced:
    """Everything a per-layer formula may read."""

    spans: Tracer
    counters: dict[str, float]
    facts: dict[str, float]

    def count(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def fact(self, name: str) -> float:
        return self.facts.get(name, 0.0)


def per(total: float, count: float, scale: float = 1.0) -> float:
    """``total / count * scale``; 0 when the layer was never crossed."""
    return total / count * scale if count else 0.0


def ratio(hits: float, misses: float) -> float:
    return per(hits, hits + misses)


MS = 1e-6   # ns -> ms
US = 1e-3   # ns -> us


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: the end-to-end metric(s) and workload(s) this should move
    moves: str
    value: Callable[[Traced], float]


def _searches(x: Traced) -> int:
    return x.spans.ops("search")


def _scan_ops(x: Traced) -> int:
    return x.spans.ops(*SCANS)


def _keyed_file_ops(x: Traced) -> int:
    return x.spans.calls(*FILE_KEYED, kinds=KEYED)


def _trace_overhead(x: Traced) -> float:
    busy = sum(total for __, total in x.spans.roots.values())
    added = x.spans.spans * x.fact("span_cost_ns")
    return per(busy, busy - added) if busy > added else 0.0


_SEARCH_Q = "search_p50_ms on sim_query"
_PUT_I = "put_p50_ms on sim_ingest"

LAYER_METRICS: list[LayerMetric] = [
    # -- core.scheme: the client-side facade ---------------------------------
    LayerMetric(
        "core.scheme.self_ms_per_search", "ms", "lower",
        "search_p50_ms, search_p75_ms on sim_query",
        lambda x: per(x.spans.self_ns("core.scheme.search",
                                      kinds=("search",)),
                      _searches(x), MS)),
    LayerMetric(
        "core.scheme.verify_ms_per_search", "ms", "lower",
        "search_p75_ms on sim_query (the tail is the high-candidate "
        "patterns)",
        lambda x: per(x.spans.inclusive_ns("core.scheme.get",
                                           kinds=("search",)),
                      _searches(x), MS)),
    LayerMetric(
        "core.scheme.candidates_per_match", "ratio", "lower",
        "search_p75_ms on sim_query (attempts per useful outcome)",
        lambda x: per(x.fact("candidates"), x.fact("matches"))),
    LayerMetric(
        "core.scheme.self_ms_per_put", "ms", "lower", _PUT_I,
        lambda x: per(x.spans.self_ns("core.scheme.put", kinds=("put",)),
                      x.spans.ops("put"), MS)),
    # -- core.index / core.kernels: stream building and query planning -------
    LayerMetric(
        "core.index.build_streams_ms_per_put", "ms", "lower",
        _PUT_I + ", setup_s (bulk load) on sim_ingest; nothing on "
        "sim_query",
        lambda x: per(x.spans.inclusive_ns(
            "core.index.build_index_streams", kinds=("put",)),
            x.spans.ops("put"), MS)),
    LayerMetric(
        "core.index.plan_query_ms_per_search", "ms", "lower", _SEARCH_Q,
        lambda x: per(x.spans.inclusive_ns("core.index.plan_query",
                                           kinds=("search",)),
                      _searches(x), MS)),
    LayerMetric(
        "core.kernels.plan_cache_hit_ratio", "ratio", "higher", _SEARCH_Q,
        lambda x: ratio(x.count("kernels.plan.hit"),
                        x.count("kernels.plan.miss"))),
    # -- core.search / core.automaton: the bucket sweep ----------------------
    LayerMetric(
        "core.search.match_bucket_ms_per_search", "ms", "lower",
        "search_p50_ms on sim_query and sim_mixed",
        lambda x: per(x.spans.self_ns("core.search.match_bucket",
                                      kinds=("search",)),
                      _searches(x), MS)),
    LayerMetric(
        "core.search.aggregate_ms_per_search", "ms", "lower",
        "search_p50_ms on sim_query and sim_mixed",
        lambda x: per(x.spans.inclusive_ns("core.search.aggregate",
                                           kinds=("search",)),
                      _searches(x), MS)),
    LayerMetric(
        "core.search.multi_match_bucket_ms_per_pattern", "ms", "lower",
        "search_batch_ms_per_pattern on sim_query",
        lambda x: per(x.spans.self_ns("core.search.multi_match_bucket",
                                      kinds=("search_batch",)),
                      x.fact("batch_patterns"), MS)),
    LayerMetric(
        "core.kernels.automaton_cache_hit_ratio", "ratio", "higher",
        "search_batch_ms_per_pattern on sim_query",
        lambda x: ratio(x.count("kernels.automaton.hit"),
                        x.count("kernels.automaton.miss"))),
    LayerMetric(
        "core.automaton.build_ms_per_search", "ms", "lower",
        "search_batch_ms_per_pattern on sim_query; search_p50_ms on "
        "sim_mixed",
        lambda x: per(x.spans.inclusive_ns(
            "core.automaton.plans_automaton", "core.automaton.gram_index",
            kinds=SCANS), _scan_ops(x), MS)),
    LayerMetric(
        "core.automaton.gram_index_builds_per_search", "count", "lower",
        "search_batch_ms_per_pattern on sim_query; search_p50_ms on "
        "sim_mixed",
        lambda x: per(x.count("lh.haystack.automaton.build"),
                      _scan_ops(x))),
    # -- sdds.haystack: the per-bucket concatenated view ---------------------
    LayerMetric(
        "sdds.haystack.build_ms_per_search", "ms", "lower",
        "search_p50_ms, put_p50_ms on sim_mixed; ~0 on sim_query after "
        "the first sweep",
        lambda x: per(x.spans.self_ns("sdds.haystack.haystack",
                                      kinds=SCANS), _scan_ops(x), MS)),
    LayerMetric(
        "sdds.haystack.hit_ratio", "ratio", "higher",
        "search_p50_ms on sim_mixed; ~1 on sim_query",
        lambda x: ratio(x.count("lh.haystack.hit"),
                        x.count("lh.haystack.build"))),
    LayerMetric(
        "sdds.haystack.invalidations_per_write", "count", "lower",
        "put_p50_ms, search_p50_ms on sim_mixed",
        lambda x: per(x.count("lh.haystack.invalidate"),
                      x.spans.ops("put", "delete"))),
    # -- sdds.lhstar: buckets, client, coordinator ---------------------------
    LayerMetric(
        "sdds.lhstar.bucket_scan_self_ms_per_search", "ms", "lower",
        _SEARCH_Q + " (scan handling minus matcher and haystack: hit "
        "sizing, reply build)",
        lambda x: per(x.spans.self_ns("sdds.lhstar.bucket[scan]",
                                      kinds=SCANS), _scan_ops(x), MS)),
    LayerMetric(
        "sdds.lhstar.scan_memo_hit_ratio", "ratio", "higher",
        _SEARCH_Q + "; 0 on sim_mixed",
        lambda x: per(x.count("lh.scan.memo_hit"),
                      x.spans.calls("sdds.lhstar.bucket[scan]"))),
    LayerMetric(
        "sdds.lhstar.client_self_us_per_keyed_op", "us", "lower",
        "get_p50_ms on sim_query and live_point; " + _PUT_I,
        lambda x: per(x.spans.self_ns(*FILE_KEYED, "sdds.lhstar.client*",
                                      kinds=KEYED),
                      _keyed_file_ops(x), US)),
    LayerMetric(
        "sdds.lhstar.bucket_keyed_us_per_op", "us", "lower",
        "get_p50_ms on sim_query; " + _PUT_I + " (0 on live_point: "
        "buckets run in site processes)",
        lambda x: per(x.spans.self_ns(
            "sdds.lhstar.bucket[insert]", "sdds.lhstar.bucket[lookup]",
            "sdds.lhstar.bucket[delete]", kinds=KEYED),
            _keyed_file_ops(x), US)),
    LayerMetric(
        "sdds.lhstar.forwards_per_keyed_op", "count", "lower",
        "get_p50_ms on sim_query; " + _PUT_I,
        lambda x: per(x.count("lh.forward"),
                      x.spans.calls(*FILE_KEYED))),
    LayerMetric(
        "sdds.lhstar.splits_per_1k_inserts", "count", "lower",
        "put_p95_ms, rss_peak_mb on sim_ingest",
        lambda x: per(x.count("lh.split"),
                      x.spans.calls("sdds.lhstar.file_insert"), 1000.0)),
    LayerMetric(
        "sdds.lhstar.coordinator_ms_per_split", "ms", "lower",
        "put_p95_ms on sim_ingest",
        lambda x: per(x.spans.self_ns("sdds.lhstar.coordinator*"),
                      x.count("lh.split"), MS)),
    LayerMetric(
        "sdds.lhstar.index_load_factor_bulk", "ratio", "higher",
        "setup_s, search_p50_ms, search_msgs_per_op on sim_ingest "
        "(records / (buckets x capacity) after bulk_load)",
        lambda x: x.fact("index_load_factor_bulk")),
    LayerMetric(
        "sdds.lhstar.index_load_factor_put", "ratio", "higher",
        "search_p50_ms, search_msgs_per_op, rss_peak_mb (same file "
        "shape measure after sequential puts)",
        lambda x: x.fact("index_load_factor_put")),
    # -- net.simulator / net.stats -------------------------------------------
    LayerMetric(
        "net.simulator.run_self_ms_per_search", "ms", "lower", _SEARCH_Q,
        lambda x: per(x.spans.self_ns("net.simulator.run",
                                      kinds=("search",)),
                      _searches(x), MS)),
    LayerMetric(
        "net.simulator.run_self_us_per_msg", "us", "lower",
        _PUT_I + ", ops_per_s on sim_ingest",
        lambda x: per(x.spans.self_ns("net.simulator.run"),
                      x.spans.calls(*HANDLERS), US)),
    LayerMetric(
        "net.simulator.send_us_per_msg", "us", "lower",
        _PUT_I + ", ops_per_s on sim_ingest",
        lambda x: per(x.spans.self_ns("net.simulator.send"),
                      x.spans.calls("net.simulator.send"), US)),
    LayerMetric(
        "net.stats.msgs_per_put", "count", "lower",
        "put_p50_ms; identical sim vs live",
        lambda x: per(x.fact("msgs[put]"), x.spans.ops("put"))),
    LayerMetric(
        "net.stats.msgs_per_get", "count", "lower",
        "get_p50_ms; identical sim vs live",
        lambda x: per(x.fact("msgs[get]"), x.spans.ops("get"))),
    LayerMetric(
        "net.stats.bytes_per_search", "B", "lower",
        "search_msgs_per_op on sim_query, sim_mixed, sim_ingest",
        lambda x: per(x.fact("bytes[search]"), _searches(x))),
    # -- crypto ---------------------------------------------------------------
    LayerMetric(
        "crypto.modes.ctr_decrypt_ms_per_search", "ms", "lower",
        "search_p75_ms on sim_query",
        lambda x: per(x.spans.inclusive_ns("crypto.modes.ctr_decrypt",
                                           kinds=("search",)),
                      _searches(x), MS)),
    LayerMetric(
        "crypto.modes.ctr_us_per_get", "us", "lower",
        "get_p50_ms on sim_query",
        lambda x: per(x.spans.inclusive_ns("crypto.modes.ctr_decrypt",
                                           kinds=("get",)),
                      x.spans.ops("get"), US)),
    LayerMetric(
        "crypto.modes.ctr_encrypt_us_per_put", "us", "lower", _PUT_I,
        lambda x: per(x.spans.inclusive_ns("crypto.modes.ctr_encrypt",
                                           kinds=("put",)),
                      x.spans.ops("put"), US)),
    LayerMetric(
        "crypto.keys.record_nonce_us_per_op", "us", "lower",
        "get_p50_ms on sim_query; " + _PUT_I,
        lambda x: per(x.spans.inclusive_ns("crypto.keys.record_nonce"),
                      x.spans.calls("crypto.keys.record_nonce"), US)),
    # -- net.wire / net.live / net.serve: the socket tier --------------------
    LayerMetric(
        "net.wire.encode_us_per_msg", "us", "lower",
        "get_p50_ms, put_p50_ms on live_point; 0 on sim_*",
        lambda x: per(x.spans.self_ns("net.wire.message_to_wire",
                                      "net.wire.encode_frame[0]"),
                      x.spans.calls("net.wire.message_to_wire"), US)),
    LayerMetric(
        "net.wire.decode_us_per_msg", "us", "lower",
        "get_p50_ms, put_p50_ms on live_point; 0 on sim_*",
        lambda x: per(x.spans.self_ns("net.wire.message_from_wire",
                                      "net.wire.decode_frame_body[0]"),
                      x.spans.calls("net.wire.message_from_wire"), US)),
    LayerMetric(
        "net.wire.framed_bytes_per_billed_byte", "B/B", "lower",
        "get_p50_ms, put_p50_ms on live_point; 0 on sim_*",
        lambda x: per(x.spans.sums.get("wire.framed_bytes[0]", 0),
                      x.spans.sums.get("wire.billed_bytes", 0))),
    LayerMetric(
        "net.live.send_us_per_msg", "us", "lower",
        "put_p50_ms, get_p50_ms on live_point",
        lambda x: per(x.spans.self_ns("net.live.send"),
                      x.spans.calls("net.live.send"), US)),
    LayerMetric(
        "net.live.run_wait_ms_per_op", "ms", "lower",
        "put_p50_ms, get_p50_ms on live_point (expected dominant: "
        "socket transit, site dispatch and the quiescence census)",
        lambda x: per(x.spans.self_ns("net.live.run", kinds=KEYED),
                      x.spans.ops(*KEYED), MS)),
    LayerMetric(
        "net.live.runs_per_put", "count", "lower",
        "put_p50_ms on live_point",
        lambda x: per(x.spans.calls("net.live.run", kinds=("put",)),
                      x.spans.ops("put"))),
    LayerMetric(
        "net.serve.handled_msgs_per_op", "count", "lower",
        "ops_per_s on live_point (billed messages not delivered to the "
        "client, so handled by a site process)",
        lambda x: per(x.fact("site_msgs"), x.spans.ops(*KEYED))),
    LayerMetric(
        "net.live.scan_canary_ok", "bool", "higher",
        "gate for a future live_search workload",
        lambda x: x.fact("scan_canary_ok")),
    LayerMetric(
        "net.live.parity_ok", "bool", "higher",
        "failed ops on live_point (billed stats equal the simulator "
        "twin's)",
        lambda x: x.fact("parity_ok")),
    # -- the recorder itself --------------------------------------------------
    LayerMetric(
        "trace_overhead_ratio", "ratio", "lower",
        "none: traced busy time over the same time less what the spans "
        "cost, so the ledger's distortion is known",
        _trace_overhead),
]


def derive(traced: Traced) -> dict[str, float]:
    return {metric.name: float(metric.value(traced))
            for metric in LAYER_METRICS}
