"""The perf-regression harness: payload shape, fidelity, gating."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def perf_smoke():
    spec = importlib.util.spec_from_file_location(
        "perf_smoke", ROOT / "benchmarks" / "perf_smoke.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Shrink the workload: accuracy doesn't matter here, shape does.
    module.RECORDS = 30
    module.REPEATS = 1
    return module


@pytest.fixture(scope="module")
def payloads(perf_smoke):
    return perf_smoke.run()


def _healthy_ratios(perf_smoke, **overrides):
    """A ratio dict sitting comfortably above every hard floor."""
    ratios = {
        name: floor * 10.0
        for name, floor in perf_smoke.GATED_RATIOS.items()
    }
    ratios.update(overrides)
    return ratios


class TestPayloadShape:
    def test_codec_payload(self, payloads):
        codec, __, __ = payloads
        assert codec["schema"] == "repro-perf-smoke/2"
        for name in (
            "prp_encrypt_reference", "prp_encrypt_stream",
            "index_build_reference", "index_build_fused",
            "plan_query_uncached", "plan_query_cached",
        ):
            bench = codec["benches"][name]
            assert bench["median_ns_per_op"] > 0
            assert bench["ops_per_s"] > 0
        for name in (
            "prp_speedup", "index_build_speedup", "plan_cache_speedup"
        ):
            assert codec["ratios"][name] > 0

    def test_search_payload(self, payloads):
        __, search, __ = payloads
        assert search["schema"] == "repro-perf-smoke/2"
        for name in (
            "bulk_load_fused", "search_round",
            "batched_scan_fused", "batched_scan_reference",
            "wordstore_match_fused", "wordstore_match_reference",
            "compressed_match_fused", "compressed_match_reference",
        ):
            assert search["benches"][name]["median_ns_per_op"] > 0
        for name in (
            "bulk_load_speedup", "batched_scan_speedup",
            "wordstore_match_speedup", "compressed_match_speedup",
        ):
            assert search["ratios"][name] > 0
        for name in (
            "bulk_load_peak_bytes", "search_round_peak_bytes",
        ):
            assert search["memory"][name] > 0

    def test_scan_payload(self, payloads):
        __, __, scan = payloads
        assert scan["schema"] == "repro-perf-smoke/2"
        for name in (
            "multi_needle_scan_automaton",
            "multi_needle_scan_per_needle",
        ):
            assert scan["benches"][name]["median_ns_per_op"] > 0
        assert set(scan["ratios"]) == {"multi_needle_scan_speedup"}
        assert scan["ratios"]["multi_needle_scan_speedup"] > 0
        assert scan["memory"]["automaton_build_peak_bytes"] > 0

    def test_fidelity_holds(self, payloads):
        codec, __, __ = payloads
        assert codec["equivalence"] == {
            "index_bytes_identical": True,
            "search_answers_identical": True,
            "wire_costs_identical": True,
            "wordstore_identical": True,
            "compressed_identical": True,
        }


class TestGate:
    def test_passes_at_baseline(self, perf_smoke):
        ratios = _healthy_ratios(perf_smoke)
        assert perf_smoke._gate(ratios, dict(ratios)) == []

    def test_tolerates_bounded_drift(self, perf_smoke):
        baseline = _healthy_ratios(perf_smoke)
        drifted = {
            name: value * (1.0 - perf_smoke.TOLERANCE + 0.05)
            for name, value in baseline.items()
        }
        assert perf_smoke._gate(drifted, baseline) == []

    def test_fails_beyond_tolerance(self, perf_smoke):
        baseline = _healthy_ratios(perf_smoke)
        regressed = dict(
            baseline, prp_speedup=baseline["prp_speedup"] * 0.5
        )
        failures = perf_smoke._gate(regressed, baseline)
        assert len(failures) == 1
        assert failures[0].startswith("prp_speedup")

    def test_hard_floor_without_baseline(self, perf_smoke):
        slow = _healthy_ratios(
            perf_smoke,
            prp_speedup=perf_smoke.GATED_RATIOS["prp_speedup"] - 1.0,
        )
        failures = perf_smoke._gate(slow, {})
        assert len(failures) == 1
        assert "hard floor" in failures[0]

    def test_memory_within_ceiling_passes(self, perf_smoke):
        baseline = {name: 1000 for name in perf_smoke.GATED_MEMORY}
        grown = {
            name: int(1000 * (1 + perf_smoke.MEMORY_TOLERANCE) - 1)
            for name in perf_smoke.GATED_MEMORY
        }
        assert perf_smoke._gate_memory(grown, baseline) == []

    def test_memory_beyond_ceiling_fails(self, perf_smoke):
        baseline = {name: 1000 for name in perf_smoke.GATED_MEMORY}
        blown = dict(baseline)
        blown["search_round_peak_bytes"] = int(
            1000 * (1 + perf_smoke.MEMORY_TOLERANCE) + 1
        )
        failures = perf_smoke._gate_memory(blown, baseline)
        assert len(failures) == 1
        assert failures[0].startswith("search_round_peak_bytes")

    def test_missing_memory_baseline_is_not_gated(self, perf_smoke):
        # First run after the schema change: no baseline figure yet.
        current = {name: 10**9 for name in perf_smoke.GATED_MEMORY}
        assert perf_smoke._gate_memory(current, {}) == []

    def test_committed_baseline_is_valid(self, perf_smoke):
        codec = json.loads(
            (ROOT / "benchmarks" / "baselines" / "BENCH_codec.json")
            .read_text()
        )
        search = json.loads(
            (ROOT / "benchmarks" / "baselines" / "BENCH_search.json")
            .read_text()
        )
        scan = json.loads(
            (ROOT / "benchmarks" / "baselines" / "BENCH_scan.json")
            .read_text()
        )
        ratios = {
            **codec["ratios"], **search["ratios"], **scan["ratios"]
        }
        for name, floor in perf_smoke.GATED_RATIOS.items():
            assert ratios[name] >= floor, name
        memory = {**search["memory"], **scan["memory"]}
        for name in perf_smoke.GATED_MEMORY:
            assert memory[name] > 0
