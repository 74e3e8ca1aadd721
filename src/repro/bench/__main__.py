"""Paper-table runner: ``python -m repro.bench [names...] [--out DIR]``.

Runs the paper's experiments at the bench scale every committed table
is made at (20,000 records), or at the paper's full 282,965-record
scale with ``--full``.  With no names, every experiment runs in paper
order.  ``--out benchmarks/results`` rewrites the committed tables;
it is the only writer of that directory.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Callable

from repro.bench import chaos, crash, faults
from repro.bench import experiments as exp
from repro.bench import extensions as ext
from repro.bench.tables import TableResult
from repro.data.phonebook import SF_DIRECTORY_SIZE, Directory

#: Result-file stem -> the experiment that writes
#: ``benchmarks/results/<stem>.txt``, in paper order.  The FP samples
#: are pinned by the experiments' defaults: 1,000 records for table4,
#: table5 and fig5, 500 for warsaw.
EXPERIMENTS: dict[str, Callable[[Directory], list[TableResult]]] = {
    "table1": lambda d: [exp.exp_table1(d)],
    "table2": lambda d: [exp.exp_table2(d)],
    "table3": exp.exp_table3,
    "table4": exp.exp_table4,
    "table5": exp.exp_table5,
    "fig2": lambda d: [exp.exp_fig2()],
    "fig3": lambda d: [exp.exp_fig3()],
    "fig5": lambda d: [exp.exp_fig5(d)],
    "storage_layouts": lambda d: [exp.exp_storage()],
    "storage_footprint": lambda d: [exp.exp_storage_footprint(d)],
    "lhstar_scaling": lambda d: [exp.exp_lhstar()],
    "elasticity": lambda d: [exp.exp_elasticity()],
    "search_e2e": lambda d: [exp.exp_search_e2e(d)],
    "ablation": lambda d: [exp.exp_ablation(d)],
    "randomness": lambda d: [exp.exp_randomness(d)],
    "wordsearch": lambda d: [ext.exp_wordsearch(d)],
    "compression": lambda d: [ext.exp_compression(d)],
    "collusion": lambda d: [ext.exp_collusion(d)],
    "edge_defense": lambda d: [ext.exp_edge_defense(d)],
    "stage2_attack": lambda d: [ext.exp_stage2_attack(d)],
    "warsaw": lambda d: [ext.exp_warsaw()],
    "holdout": lambda d: [exp.exp_holdout(d)],
    "index_designs": lambda d: [ext.exp_index_designs(d)],
    "fault_sweep": lambda d: [faults.exp_fault_sweep()],
    "crash_sweep": lambda d: [crash.exp_crash_sweep()],
    "crash_degraded_cost": lambda d: [crash.exp_degraded_cost()],
    "chaos_sweep": lambda d: [chaos.exp_chaos_sweep()],
    "chaos_elasticity_availability":
        lambda d: [chaos.exp_elasticity_availability()],
    "chaos_live_availability": lambda d: [chaos.exp_live_availability()],
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument("names", nargs="*", default=list(EXPERIMENTS),
                        help="experiments to run (default: all of "
                             f"{list(EXPERIMENTS)})")
    parser.add_argument("--full", action="store_true",
                        help="use the paper-scale 282,965-record directory")
    parser.add_argument("--records", type=int, default=None,
                        help="directory size override")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="also write each experiment's tables to "
                             "DIR/<name>.txt")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s) {unknown}")

    size = args.records or (
        SF_DIRECTORY_SIZE if args.full else exp.DEFAULT_RECORDS
    )
    start = time.time()
    directory = exp.bench_directory(size)
    print(f"[directory: {len(directory):,} synthetic entries, "
          f"{time.time() - start:.1f}s]\n")
    out = None
    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    for name in args.names:
        start = time.time()
        tables = EXPERIMENTS[name](directory)
        text = "\n\n".join(table.render() for table in tables) + "\n"
        print(text)
        if out is not None:
            (out / f"{name}.txt").write_text(text)
        print(f"[{name}: {time.time() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
