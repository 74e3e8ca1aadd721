"""The repo benchmark: one command, four workloads, every metric by name.

Two ways in:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process (the form the benchmark
    driver uses).  Prints every metric with its unit, then — as the last
    line — one JSON object with the metrics ``BENCHMARK.json`` declares:
    the end-to-end ones with ``--trace 0``, the per-layer ones with
    ``--trace 1``.

``run.py --seed N [--workload W] [--runs R] [--traced]``
    A run set: each run in a fresh process (so peak RSS is that run's
    own), per metric the median and min-max across runs, and a flag on
    any metric whose spread exceeds its own bound.  Ends with a JSON
    summary whose last key is ``"claim": null``: this benchmark defines
    the baseline and claims no gain.

See README.md beside this file for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(REPO / "src"))

import layers  # noqa: E402  (beside this file)
import spans  # noqa: E402
import workloads as wl  # noqa: E402  (needs src/ on the path)
from repro.core.kernels import CODEC_CACHE_ENV  # noqa: E402
from repro.obs.metrics import MetricsRegistry, use_metrics  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their mean.  Not the median:
#: starting a live cluster takes 0.70 s or 1.05 s and little in between
#: (the readiness probe backs off exponentially), and the median of a
#: two-valued sample is two-valued too.
SETUPS = 3
#: A run gives up on its stream after this many failed ops.
MAX_FAILURES = 20

#: End-to-end metrics only some workloads can report.  The driver's
#: contract wants every workload to report every declared metric, so
#: these are printed and tracked by the run-set report but are not in
#: ``BENCHMARK.json``.  name -> (bound, workloads)
_SIMS = ("sim_query", "sim_ingest", "sim_mixed")
EXTRA_METRICS: dict[str, tuple[float, tuple[str, ...]]] = {
    "get_p95_ms": (0.25, _SIMS + ("live_point",)),
    "put_p95_ms": (0.25, _SIMS),
    "search_p50_ms": (0.25, _SIMS),
    "search_p75_ms": (0.25, ("sim_query", "sim_mixed")),
    "search_batch_ms_per_pattern": (0.25, ("sim_query",)),
    "search_msgs_per_op": (0.0, _SIMS),
    "bulk_load_records_per_s": (0.25, ("sim_ingest",)),
    "storage_overhead_ratio": (0.0, ("sim_ingest",)),
    "failed_ops_share": (0.0, _SIMS + ("live_point",)),
}


@functools.cache
def declared() -> dict:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(samples: list[float], share: float) -> float:
    """Linear-interpolated percentile; 0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * share
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# -- one run ---------------------------------------------------------------


def _raise_timeout(signum, frame):
    raise TimeoutError("run exceeded its time limit")


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


@dataclass
class Measured:
    """What one run observed, before it is turned into metrics."""

    recorder: wl.Recorder
    tracer: spans.Tracer
    counters: dict[str, float]
    facts: dict[str, float]
    setup_times: list[float]
    rss_mib: float
    stream_ops: int
    stream_busy_s: float


def measure(workload, inputs, args: argparse.Namespace,
            scratch: Path) -> Measured:
    """Set up, run the timed phase, check, tear down."""
    traced = args.trace == 1
    live = workload.backend == "live"
    recorder = wl.Recorder()
    tracer = spans.Tracer()
    registry = MetricsRegistry()
    executed: list[tuple] = []
    setup_times: list[float] = []
    facts: dict[str, float] = {}
    bench = None
    rss = 0.0
    try:
        for index in range(1 if traced else SETUPS):
            if bench is not None:
                bench.close()
                bench = None
                gc.collect()
            started = perf_counter()
            bench = workload.setup(inputs, scratch / f"setup-{index}")
            setup_times.append(perf_counter() - started)
        if traced and live:
            facts["scan_canary_ok"] = float(
                wl.live_scan_canary(inputs, OUT))
        if traced:
            facts["span_cost_ns"] = spans.span_cost_ns()
            spans.install(tracer, live=live)
        with use_metrics(registry if traced else None):
            deadline = perf_counter() + args.seconds
            workload.prologue(bench, inputs, recorder)
            network = bench.store.network
            sent, delivered = network.stats.messages, network.delivered
            ops, busy = recorder.completed, recorder.busy_s
            count = 0
            for count, op in enumerate(
                    workload.stream(bench.model, inputs,
                                    random.Random(args.seed)), start=1):
                wl.execute(bench.store, bench.model, op, recorder)
                if live:
                    executed.append(op)
                if count == workload.rss_after_ops:
                    rss = wl.peak_rss_mib()
                if perf_counter() >= deadline \
                        or len(recorder.failures) > MAX_FAILURES:
                    break
            stream_ops = recorder.completed - ops
            stream_busy = recorder.busy_s - busy
            if live:
                # Billed messages the client did not handle were handled
                # by a site process.
                facts["site_msgs"] = (
                    (network.stats.messages - sent)
                    - (network.delivered - delivered))
            if not rss:
                # Too slow (or too small a --scale) to reach the pinned
                # op count: the figure then depends on speed.
                rss = wl.peak_rss_mib()
                print(f"note: rss read after {count} stream ops, not "
                      f"{workload.rss_after_ops}")
            workload.epilogue(bench, inputs, recorder)
        tracer.uninstall()
        workload.verify(bench, inputs, executed, recorder)
        facts.update(bench.facts)
    finally:
        tracer.uninstall()
        if bench is not None:
            bench.close()
    facts.update({
        "candidates": recorder.candidates,
        "matches": recorder.matches,
        "batch_patterns": recorder.batch_patterns,
        "msgs[put]": recorder.billed["put"][0],
        "msgs[get]": recorder.billed["get"][0],
        "bytes[search]": recorder.billed["search"][1],
    })
    counters = {name: counter.value
                for name, counter in registry.counters.items()}
    return Measured(recorder, tracer, counters, facts, setup_times, rss,
                    stream_ops, stream_busy)


def end_to_end_metrics(run: Measured, workload, inputs) -> dict:
    """name -> (value, unit, samples behind it), tracing off."""
    lat = run.recorder.latencies
    metrics = {}
    for kind, shares in (("get", (50, 95)), ("put", (50, 95)),
                         ("delete", (50,)), ("search", (50, 75))):
        for share in shares:
            metrics[f"{kind}_p{share}_ms"] = (
                percentile(lat[kind], share / 100) * 1e3, "ms",
                len(lat[kind]))
    setup_s = statistics.fmean(run.setup_times)
    attempted = run.recorder.attempted
    metrics.update({
        "setup_s": (setup_s, "s", len(run.setup_times)),
        "ops_per_s": (run.stream_ops / run.stream_busy_s, "ops/s",
                      run.stream_ops),
        "rss_peak_mb": (run.rss_mib, "MiB", 1),
        "search_batch_ms_per_pattern": (
            statistics.median(lat["search_batch"] or [0.0]) * 1e3, "ms",
            len(lat["search_batch"])),
        "search_msgs_per_op": (
            statistics.fmean(run.recorder.search_messages or [0]),
            "count", len(run.recorder.search_messages)),
        "bulk_load_records_per_s": (
            inputs.scaled(workload.loaded) / setup_s, "1/s",
            len(run.setup_times)),
        "storage_overhead_ratio": (
            run.facts.get("storage_overhead_ratio", 0.0), "ratio", 1),
        "failed_ops_share": (len(run.recorder.failures) / attempted,
                             "ratio", attempted),
    })
    wanted = {entry["name"] for entry in declared()["end_to_end"]} | {
        name for name, (__, where) in EXTRA_METRICS.items()
        if workload.name in where
    }
    return {name: metric for name, metric in metrics.items()
            if name in wanted}


def per_layer_metrics(run: Measured) -> dict:
    """name -> (value, unit, 0) from the traced run's ledger."""
    values = layers.derive(
        layers.Traced(run.tracer, run.counters, run.facts))
    return {metric.name: (values[metric.name], metric.unit, 0)
            for metric in layers.LAYER_METRICS}


def run_once(args: argparse.Namespace) -> int:
    workload = wl.WORKLOADS[args.workload]
    traced = args.trace == 1
    # Everything the run writes lands under out/: temp dirs of the live
    # cluster, site logs and the codec tables the sites share.
    scratch = OUT / "tmp" / f"{workload.name}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(scratch)
    os.environ[CODEC_CACHE_ENV] = str(scratch / "codec-cache")
    # SIGTERM and the watchdog unwind through measure()'s finally, so
    # site processes are torn down on every way out, Ctrl-C included.
    signal.signal(signal.SIGTERM, _raise_exit)
    signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(int(args.seconds) + 150)
    inputs = wl.make_inputs(args.seed, args.scale, workload.directory_size)
    run = measure(workload, inputs, args, scratch)
    signal.alarm(0)

    failures = run.recorder.failures
    if failures:
        log = OUT / f"failures-{workload.name}-{args.seed}.txt"
        log.write_text("\n".join(failures), encoding="utf-8")
        print(f"{len(failures)} failed ops, first: {failures[0]}")
        print(f"all failures: {log}; scratch kept: {scratch}")
    else:
        shutil.rmtree(scratch, ignore_errors=True)

    detail: dict = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "op_hash": workload.op_hash(inputs),
        "attempted": run.recorder.attempted, "failed": len(failures),
        "stream_ops": run.stream_ops,
    }
    print(f"workload {workload.name} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    if traced:
        metrics = per_layer_metrics(run)
        trace_file = OUT / f"trace-{workload.name}-{args.seed}.jsonl"
        run.tracer.dump_sample(trace_file)
        detail.update({
            "identity_error": run.tracer.identity_error(),
            "ledger_ms_per_op": run.tracer.layer_table(),
            "trace_file": str(trace_file.relative_to(REPO)),
            "traced_ops_per_s": run.stream_ops / run.stream_busy_s,
        })
    else:
        metrics = end_to_end_metrics(run, workload, inputs)
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<6}"
              + (f" n={samples}" if samples else ""))
    if traced:
        print_ledger(detail)
    detail["metrics"] = {
        name: {"value": value, "unit": unit, "n": samples}
        for name, (value, unit, samples) in metrics.items()
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": run.recorder.attempted,
        "failed": len(failures),
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]][0],
                            "unit": entry["unit"]}
            for entry in declared()["per_layer" if traced
                                    else "end_to_end"]
        },
    }))
    return 1 if failures else 0


def print_ledger(detail: dict) -> None:
    print(f"  ledger identity error {detail['identity_error']:.2e} "
          f"(self times vs root span); spans in {detail['trace_file']}")
    for kind, row in detail["ledger_ms_per_op"].items():
        parts = ", ".join(f"{layer} {ms:.4g}"
                          for layer, ms in sorted(row.items()))
        print(f"  self ms per {kind}: {parts}")


# -- a set of runs ---------------------------------------------------------


def _child(args: argparse.Namespace, workload: str, trace: int) -> dict:
    """One run in a fresh process; returns its ``detail`` object."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale", str(args.scale),
        "--trace", str(trace),
    ]
    # Own process group: a timeout or Ctrl-C here takes the run and the
    # site processes it spawned down together.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        output, __ = child.communicate(timeout=args.seconds + 160)
    except BaseException:
        try:
            os.killpg(child.pid, signal.SIGTERM)
            child.wait(timeout=10)
        except (ProcessLookupError, subprocess.TimeoutExpired):
            pass
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        raise
    for line in output.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    raise RuntimeError(
        f"{workload}: run exited {child.returncode} without a result\n"
        + output[-2000:])


def run_set(args: argparse.Namespace) -> int:
    spec = declared()
    bounds = {entry["name"]: entry["bound"]
              for entry in spec["end_to_end"]}
    bounds.update({name: bound
                   for name, (bound, __) in EXTRA_METRICS.items()})
    names = [args.workload] if args.workload else [
        entry["name"] for entry in spec["workloads"]]
    summary: dict = {"seed": args.seed, "runs": args.runs,
                     "seconds": args.seconds, "workloads": {}}
    unstable: list[str] = []
    failed = 0
    for workload in names:
        runs = [_child(args, workload, 0) for __ in range(args.runs)]
        failed += sum(run["failed"] for run in runs)
        if len({run["op_hash"] for run in runs}) != 1:
            raise RuntimeError(f"{workload}: same seed, different ops")
        print(f"\n{workload}  seed {args.seed}  {args.runs} runs  "
              f"ops {runs[0]['op_hash']}")
        print(f"  {'metric':<32} {'median':>12} {'min':>12} {'max':>12} "
              f"unit    n      spread  bound")
        medians = {}
        for name, first in runs[0]["metrics"].items():
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            spread = ((max(values) - min(values)) / median
                      if median else 0.0)
            flag = ""
            if spread > bounds[name]:
                flag = "  UNSTABLE"
                unstable.append(f"{workload}:{name}")
            medians[name] = median
            print(f"  {name:<32} {median:>12.6g} {min(values):>12.6g} "
                  f"{max(values):>12.6g} {first['unit']:<7} "
                  f"{first['n']:<6} {spread:>6.1%}  "
                  f"{bounds[name]:.0%}{flag}")
        summary["workloads"][workload] = medians
        if args.traced:
            run = _child(args, workload, 1)
            failed += run["failed"]
            print("  -- traced run")
            for name, entry in run["metrics"].items():
                print(f"  {name:<48} {entry['value']:>14.6g} "
                      f"{entry['unit']}")
            print_ledger(run)
            measured = medians["ops_per_s"] / run["traced_ops_per_s"]
            print(f"  untraced / traced ops_per_s = {measured:.3f} "
                  "(what tracing cost this workload, measured)")
            summary["workloads"][workload]["trace_overhead_measured"] \
                = measured
    summary["unstable"] = unstable
    summary["failed_ops"] = failed
    summary["claim"] = None
    print()
    print(json.dumps(summary))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="default: every workload")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed phase of one run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="single run in this process: 0 end-to-end "
                        "metrics, 1 per-layer metrics")
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per workload of a run set")
    parser.add_argument("--traced", action="store_true",
                        help="run set: add one traced run per workload")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink record counts (self-test only)")
    args = parser.parse_args(argv)
    spec = declared()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    known = [entry["name"] for entry in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; one of {known}")
    OUT.mkdir(exist_ok=True)
    if args.trace is None:
        return run_set(args)
    if args.workload is None:
        parser.error("--trace runs one workload: name it with --workload")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
