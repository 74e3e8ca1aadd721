"""Cost-breakdown report: table shape and the root-span sum identity."""

from repro.core import EncryptedSearchableStore, SchemeParameters
from repro.obs.report import (
    cost_breakdown,
    kind_breakdown,
    render_report,
    report_from_jsonl,
)
from repro.obs.trace import Span, Tracer, use_tracer

PHONEBOOK = {
    4154099999: "415-409-9999 SCHWARZ THOMAS",
    4154091234: "415-409-1234 LITWIN WITOLD",
    4154095678: "415-409-5678 TSUI PETER",
}


def num(cell: str) -> float:
    """Parse a formatted table cell back into a number."""
    return float(cell.replace(",", ""))


def traced_workload():
    params = SchemeParameters.full(4, master_key=b"obs-report-key")
    store = EncryptedSearchableStore(params)
    tracer = Tracer(network=store.network)
    with use_tracer(tracer):
        for rid, text in PHONEBOOK.items():
            store.put(rid, text)
        store.search("SCHWARZ")
    return store, tracer


class TestCostBreakdown:
    def test_one_row_per_root_operation_plus_total(self):
        __, tracer = traced_workload()
        table = cost_breakdown(tracer.finished)
        operations = [row[0] for row in table.rows]
        assert operations == ["ess.put", "ess.search", "TOTAL"]
        put_row = table.rows[0]
        assert num(put_row[1]) == len(PHONEBOOK)  # count
        assert num(put_row[3]) == num(put_row[2]) / num(put_row[1])

    def test_total_row_equals_stats_delta(self):
        store, tracer = traced_workload()
        table = cost_breakdown(tracer.finished)
        total = table.rows[-1]
        assert total[0] == "TOTAL"
        assert num(total[2]) == store.network.stats.messages
        assert num(total[4]) == store.network.stats.bytes

    def test_nested_spans_not_double_counted(self):
        __, tracer = traced_workload()
        # The search's verification fetches appear as nested ess.get
        # spans; they must not get their own row.
        assert any(s.name == "ess.get" for s in tracer.finished)
        operations = [row[0] for row in cost_breakdown(tracer.finished).rows]
        assert "ess.get" not in operations

    def test_single_group_has_no_total_row(self):
        spans = [Span("solo", span_id=1, parent_id=None, attrs={})]
        table = cost_breakdown(spans)
        assert [row[0] for row in table.rows] == ["solo"]


class TestKindBreakdown:
    def test_wire_census_matches_stats_by_kind(self):
        store, tracer = traced_workload()
        table = kind_breakdown(tracer.finished)
        census = {
            row[0]: (num(row[1]), num(row[2])) for row in table.rows
        }
        assert census == {
            kind: (count, store.network.stats.bytes_by_kind[kind])
            for kind, count in store.network.stats.by_kind.items()
        }


class TestRendering:
    def test_render_report_contains_both_tables(self):
        __, tracer = traced_workload()
        text = render_report(tracer.finished)
        assert "Per-operation cost breakdown" in text
        assert "Wire census by message kind" in text
        assert "ess.search" in text

    def test_report_from_jsonl(self, tmp_path):
        __, tracer = traced_workload()
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(str(path))
        assert report_from_jsonl(str(path)) == render_report(
            tracer.finished
        )


class TestCacheBreakdown:
    def _metrics(self):
        from repro.core.kernels import clear_codec_cache, fused_codec
        from repro.crypto.feistel import FeistelPRP
        from repro.obs.metrics import MetricsRegistry, use_metrics

        clear_codec_cache()
        registry = MetricsRegistry()
        with use_metrics(registry):
            fused_codec(FeistelPRP(b"report", 64), None, 1, 64)
            fused_codec(FeistelPRP(b"report", 64), None, 1, 64)
        return registry.to_dict()

    def test_rows_reflect_kernel_metrics(self):
        from repro.obs.report import cache_breakdown

        table = cache_breakdown(self._metrics())
        text = table.render()
        assert "Fused-kernel cache census" in text
        assert "codec tables" in text
        assert "search plans" in text
        codec_row = table.rows[0]
        assert codec_row[1] == "1"  # one hit
        assert codec_row[2] == "1"  # one miss
        assert codec_row[3] == "50%"
        assert codec_row[4] == "1"  # one build

    def test_empty_metrics_render_stable_shape(self):
        from repro.obs.report import cache_breakdown

        table = cache_breakdown({})
        assert [row[0] for row in table.rows] == [
            "codec tables", "search plans", "bucket haystacks",
            "gram indexes",
        ]
        assert table.rows[0][3] == "-"

    def test_main_accepts_metrics_json(self, tmp_path, capsys):
        import json

        from repro.obs.report import main

        __, tracer = traced_workload()
        trace_path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(str(trace_path))
        metrics_path = tmp_path / "metrics.json"
        metrics_path.write_text(json.dumps(self._metrics()))
        assert main([str(trace_path), str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "Fused-kernel cache census" in out
