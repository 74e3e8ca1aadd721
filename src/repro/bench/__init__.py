"""Benchmark harness: the paper's experiments as reusable functions.

Every table and figure of the paper's evaluation has a function here
returning a :class:`~repro.bench.tables.TableResult`; the pytest
benchmarks under ``benchmarks/`` and the standalone CLI
(``python -m repro.bench``) both call into this package, so the two
entry points can never drift apart.

Dataset size: the paper uses the 282,965-entry SF directory.  The
pytest benches default to a 20,000-entry synthetic directory to keep
the suite responsive; ``python -m repro.bench --full`` (or the
``REPRO_BENCH_RECORDS`` environment variable) runs paper-scale.
"""

from repro.bench.tables import TableResult, render_table
from repro.bench import experiments

__all__ = ["TableResult", "render_table", "experiments"]
