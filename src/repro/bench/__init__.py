"""Benchmark harness: the paper's experiments as reusable functions.

Every table and figure of the paper's evaluation has a function here
returning :class:`~repro.bench.tables.TableResult` objects.  One
command runs them: ``python -m repro.bench --out benchmarks/results``
writes every committed table, one file per registry entry
(``repro.bench.__main__.EXPERIMENTS``), and tier-1 checks that the
directory-free tables it writes equal the committed files.

Dataset size: the paper uses the 282,965-entry SF directory.  Every
committed table is made at a 20,000-entry synthetic directory
(``experiments.DEFAULT_RECORDS``); ``python -m repro.bench --full``
runs paper-scale.
"""

from repro.bench.tables import TableResult, render_table
from repro.bench import experiments

__all__ = ["TableResult", "render_table", "experiments"]
