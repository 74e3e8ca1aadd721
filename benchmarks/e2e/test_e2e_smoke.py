"""Self-test of the benchmark: ``pytest benchmarks/e2e -q`` (not tier-1).

A ``--scale 0.02`` pass over all four workloads, one second each, in
fresh processes exactly as the driver runs them.
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(last-line result, detail) of one small run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--scale", "0.02",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=REPO,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.splitlines()
    detail = next(line for line in lines if line.startswith("detail "))
    return json.loads(lines[-1]), json.loads(detail[len("detail "):])


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(name.match(entry) for entry in names)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               and 0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in SPEC["per_layer"])
    assert all(unit.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert SPEC["paths"] == ["benchmarks/e2e"]
    # 4 + 22 runs per workload must fit the driver's 3420 s with set-up.
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 10) < 3420


@pytest.mark.parametrize("workload", WORKLOADS)
def test_names_and_units_are_the_declared_ones(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, detail = run(workload, 2006, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        # what the run printed for people carries the same units
        for name, unit in want.items():
            assert detail["metrics"][name]["unit"] == unit
    # an end-to-end metric is compared as a share of itself: never 0
    end_to_end = run(workload, 2006, 0)[0]["metrics"]
    assert all(metric["value"] > 0 for metric in end_to_end.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_ops(workload):
    first = run(workload, 2006, 0)[1]["op_hash"]
    again = run(workload, 2006, 1)[1]["op_hash"]
    other = run(workload, 90210, 0)[1]["op_hash"]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ledger_sums_to_the_root_span(workload):
    detail = run(workload, 2006, 1)[1]
    assert detail["identity_error"] <= 0.01
    assert detail["ledger_ms_per_op"], "traced run recorded no operations"
    assert (REPO / detail["trace_file"]).stat().st_size > 0


def test_live_parity_holds_and_canary_reports():
    metrics = run("live_point", 2006, 1)[0]["metrics"]
    assert metrics["net.live.parity_ok"]["value"] == 1
    assert metrics["net.live.scan_canary_ok"]["value"] in (0, 1)
    assert metrics["net.wire.encode_us_per_msg"]["value"] > 0


def test_wrappers_are_fully_removed():
    sys.path.insert(0, str(HERE))
    import run as runner  # noqa: F401  (puts src/ on sys.path)
    import spans

    tracer = spans.Tracer()
    spans.install(tracer, live=True)
    patched = list(tracer._patched)
    assert len(patched) > 30
    assert all(owner.__dict__[attr] is not original
               for owner, attr, original in patched)
    tracer.uninstall()
    assert all(owner.__dict__[attr] is original
               for owner, attr, original in patched)
    assert not tracer._patched
