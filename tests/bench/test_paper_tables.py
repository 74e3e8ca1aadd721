"""The committed paper tables: one registry entry writes each, and the
shape each one reproduces holds.

``python -m repro.bench --out benchmarks/results`` writes every table
at the pinned 20,000-record size; these checks run every registry
entry on a 2,000-record directory, the sample-bound ones at a smaller
sample (``SMALL``).  The directory-independent sweeps (faults,
crashes, chaos) have fixed sizes and run as committed.  The live chaos
row spawns site processes and runs under ``REPRO_LIVE_TESTS=1``.
"""

from pathlib import Path

import pytest

from repro.bench import experiments as exp
from repro.bench import extensions as ext
from repro.bench.__main__ import EXPERIMENTS

RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

SMALL_RECORDS = 2_000

#: Entries whose cost is a fixed sample rather than the directory run
#: at a smaller sample: the FP tables at 200 records instead of their
#: pinned 1,000 and 500 (table4 and table5 take 12 s each at 1,000),
#: the others at half their sample.  stage2_attack stays whole: its
#: cost is the solver's fixed iteration count.
SMALL = {
    "table4": lambda d: exp.exp_table4(d, sample_size=200),
    "table5": lambda d: exp.exp_table5(d, sample_size=200),
    "warsaw": lambda d: [ext.exp_warsaw(sample_size=200)],
    "search_e2e": lambda d: [exp.exp_search_e2e(d, n_records=100)],
    "ablation": lambda d: [exp.exp_ablation(d, n_records=300)],
    "compression": lambda d: [ext.exp_compression(d, n_records=300)],
    "collusion": lambda d: [ext.exp_collusion(d, n_records=1000)],
    "edge_defense": lambda d: [ext.exp_edge_defense(d, n_records=75)],
}

CHECKS = {}


def check(name):
    def register(function):
        CHECKS[name] = function
        return function
    return register


def _int(cell: str) -> int:
    return int(cell.replace(",", ""))


def _float(cell: str) -> float:
    return float(cell.replace(",", ""))


def _column(table, name: str) -> list[str]:
    index = table.headers.index(name)
    return [row[index] for row in table.rows]


@check("table1")
def _(tables, directory):
    table, = tables
    chis = [_float(r[1]) for r in table.rows[:3]]
    # The paper's shape: triplet chi^2 >> doublet >> single.
    assert chis[0] < chis[1] < chis[2]
    top_letters = {r[0] for r in table.rows[3:9]}
    assert top_letters == {"A", "E", "N", "R", "I", "O"}


@check("table2")
def _(tables, directory):
    table, = tables
    dispersed = [_float(r[1]) for r in table.rows[:3]]
    raw = [_float(r[1]) for r in exp.exp_table1(directory).rows[:3]]
    # Dispersion shrinks chi^2 by about an order of magnitude but
    # does NOT reach uniformity.
    assert dispersed[0] < raw[0] / 2
    assert dispersed[0] > 100  # still visibly non-uniform


@check("table3")
def _(tables, directory):
    for table in tables:
        singles = [_float(r[1]) for r in table.rows]
        doubles = [_float(r[2]) for r in table.rows]
        triples = [_float(r[3]) for r in table.rows]
        # Within each chunk size: chi^2 grows with the code count ...
        assert singles[0] <= singles[-1]
        # ... and with the n-gram order (inter-chunk predictability).
        for s, d, t in zip(singles, doubles, triples):
            assert s < d < t
    # Larger chunks give better (smaller) doublet chi^2 at equal codes:
    # chunk size 2 vs 6 at 16 codes ('we need larger chunk sizes').
    by_chunk = {t.title.split("= ")[1]: t for t in tables}
    d2 = _float(dict((r[0], r[2]) for r in by_chunk["2"].rows)["16"])
    d6 = _float(dict((r[0], r[2]) for r in by_chunk["6"].rows)["16"])
    assert d6 < d2


@check("table4")
def _(tables, directory):
    all_entries, long_names = tables
    fp1 = [_int(v) for v in _column(all_entries, "FP1")]
    fp2 = [_int(v) for v in _column(all_entries, "FP2")]
    # FP1 falls steeply with the code count (6253 -> 911 -> 0 in the
    # paper); chunking adds FPs on top (FP2 > FP1).
    assert fp1[0] > fp1[1] >= fp1[2]
    assert all(b >= a for a, b in zip(fp1, fp2))
    # Short names cause almost all FPs: the long-name restriction
    # removes the overwhelming majority.
    assert sum(_int(v) for v in _column(long_names, "FP1")) < sum(fp1) / 10


@check("table5")
def _(tables, directory):
    all_entries, long_names = tables
    fps = [_int(v) for v in _column(all_entries, "FP")]
    # FP falls monotonically with the code count
    # (31,648 -> 15,588 -> 7,968 -> 3,857 in the paper).
    assert all(a >= b for a, b in zip(fps, fps[1:]))
    # chi^2 single grows with the code count.
    chis = [_float(v) for v in _column(all_entries, "chi^2 single")]
    assert chis[0] <= chis[-1]
    # Long names: FPs nearly vanish (859 -> 96 -> 13 -> 2 in the paper).
    long_fps = [_int(v) for v in _column(long_names, "FP")]
    assert long_fps[-1] < fps[-1] / 20


@check("fig2")
def _(tables, directory):
    table, = tables
    hits = [r for r in table.rows if r[0].startswith("hit")]
    # Reduced layout: exactly one (series, chunking) pair matches.
    assert len(hits) == 1


@check("fig3")
def _(tables, directory):
    table, = tables
    assert len(table.rows) == 9  # 1 record-store + 2 chunkings x 4 sites


@check("fig5")
def _(tables, directory):
    table, = tables
    # Sorted by decreasing quantity, and the top 8 symbols occupy 8
    # distinct buckets (the greedy rule's first pass).
    top8_codes = [int(r[2]) for r in table.rows[:8]]
    assert sorted(top8_codes) == list(range(8))
    quantities = [_int(r[1]) for r in table.rows]
    assert quantities == sorted(quantities, reverse=True)


@check("storage_layouts")
def _(tables, directory):
    table, = tables
    rows = {r[0]: r for r in table.rows}
    assert rows["s=8, 4 sites"][3] == "9"   # paper: >= s+1
    assert rows["s=8, 2 sites"][3] == "11"  # paper: >= s+3


@check("storage_footprint")
def _(tables, directory):
    table, = tables
    overheads = [float(r[3].rstrip("x")) for r in table.rows]
    assert overheads[1] < overheads[0]  # stage 2 compresses


@check("lhstar_scaling")
def _(tables, directory):
    table, = tables
    assert all(r[2] == "2.00" for r in table.rows)
    assert max(int(r[4]) for r in table.rows) <= 2
    # Scan cost = 2 messages per bucket (request + reply).
    for row in table.rows:
        assert _int(row[5]) == 2 * _int(row[1])


@check("elasticity")
def _(tables, directory):
    table, = tables
    grow, shrink, regrow = [_int(r[2]) for r in table.rows]
    assert shrink < grow          # the file actually shrank
    assert regrow > shrink        # and grew again


@check("search_e2e")
def _(tables, directory):
    table, = tables
    recalls = [r[1] for r in table.rows]
    assert all(v in ("100%", "-") for v in recalls)
    assert recalls[0] == "100%"


@check("ablation")
def _(tables, directory):
    table, = tables
    assert len(table.rows) == 4
    # Stage 2 collapses the distinct/total ratio (lossy compression).
    distinct = {r[0]: float(r[3]) for r in table.rows}
    assert (
        distinct["+ Stage 2 (64 codes)"]
        < distinct["Stage 1 only (raw ECB)"]
    )


@check("randomness")
def _(tables, directory):
    table, = tables
    failed = {r[0]: int(r[2]) for r in table.rows}
    # Raw text fails (nearly) everything; ECB streams fail much less.
    assert failed["raw ASCII names"] >= 5
    assert failed["Stage 1 only (ECB, s=4)"] < failed["raw ASCII names"]


@check("wordsearch")
def _(tables, directory):
    table, = tables
    assert all(r[1] == "100%" for r in table.rows)
    # SWP's word index is far smaller than the multi-chunking index.
    chunk_bytes = _float(table.rows[0][3])
    word_bytes = _float(table.rows[1][3])
    assert word_bytes < chunk_bytes * 3


@check("compression")
def _(tables, directory):
    table, = tables
    assert all(r[3] == "100%" for r in table.rows)  # recall invariant
    assert all(float(r[1]) < 1.0 for r in table.rows)  # it compresses
    fps = [_int(r[2]) for r in table.rows]
    assert fps[-1] >= fps[0]  # lossier buckets -> more FPs


@check("collusion")
def _(tables, directory):
    table, = tables
    assert table.rows[0][4] == "no"
    assert table.rows[-1][4] == "yes"
    known = [int(r[1].split("/")[0]) for r in table.rows]
    assert known == sorted(known)


@check("edge_defense")
def _(tables, directory):
    table, = tables
    keep, drop = table.rows
    assert keep[1].endswith("%")  # boundary attack succeeds measurably
    assert drop[1].startswith("n/a")
    # Recall stays 100% either way for supported queries.
    assert keep[2] == drop[2] == "100%"
    assert keep[3] == drop[3] == "100%"


@check("stage2_attack")
def _(tables, directory):
    table, = tables
    for row in table.rows:
        unigram = float(row[1].rstrip("%"))
        bigram = float(row[2].rstrip("%"))
        # The bigram solver exploits what rank matching cannot.
        assert bigram >= unigram


@check("warsaw")
def _(tables, directory):
    table, = tables
    for row in table.rows:
        # The paper's hunch: long surnames collapse the FP mass.
        assert _int(row[4]) < _int(row[2]) / 3


@check("holdout")
def _(tables, directory):
    table, = tables
    ratios = [float(r[4].rstrip("x")) for r in table.rows if r[4] != "inf"]
    # Held-out chi^2 is never meaningfully better than train chi^2 —
    # the encoder cannot generalise beyond what it optimised.
    assert all(r >= 0.8 for r in ratios)
    # And at least one configuration shows a real generalisation gap,
    # the phenomenon this experiment exists to expose.
    assert max(ratios) > 1.5


@check("index_designs")
def _(tables, directory):
    table, = tables
    assert [r[4] for r in table.rows] == ["100%", "n/a", "100%"]
    # The compressed index stores less than the multi-chunking index.
    assert float(table.rows[2][1]) < float(table.rows[0][1]) * 1.5


@check("fault_sweep")
def _(tables, directory):
    table, = tables
    # Every cell keeps perfect recall: the point of the retry layer.
    assert all(row[2] == "100%" for row in table.rows)
    by_policy = {}
    for row in table.rows:
        by_policy.setdefault(row[0], []).append(row)
    for rows in by_policy.values():
        messages = [_int(r[3]) for r in rows]
        retries = [_int(r[6]) for r in rows]
        assert retries[0] == 0      # no loss -> no retries
        assert retries[-1] > 0      # heavy loss -> visible recovery
        assert messages[-1] > messages[0]


@check("crash_sweep")
def _(tables, directory):
    table, = tables
    # Parity rows never lose an operation; the fault-free column is
    # always perfect.
    for row in table.rows:
        if row[0] != "0" or row[1] == "-":
            assert row[2] == "100.0%", row


@check("crash_degraded_cost")
def _(tables, directory):
    table, = tables
    by_phase = {(row[0], row[1][:6]): row for row in table.rows}
    for parity in ("1", "2"):
        normal = by_phase[(parity, "normal")]
        outage = by_phase[(parity, "first ")]
        post = by_phase[(parity, "after ")]
        assert outage[3] != normal[3]
        assert post[2] == normal[2] and post[3] == normal[3]


@check("chaos_sweep")
def _(tables, directory):
    table, = tables
    for row in table.rows:
        # Correctness is non-negotiable in every cell.
        assert row[-1] == "0", row
        # The fault-free corner loses nothing.
        if row[0] == "off" and row[1] == "off" and row[2] == "off":
            assert row[3] == "100.0%", row


@check("chaos_elasticity_availability")
def _(tables, directory):
    table, = tables
    rebalanced = 0
    for row in table.rows:
        assert row[-1] == "0", row
        if row[0] != "off":
            rebalanced += int(row[4]) + int(row[5])
    # The membership windows exercise real machinery: at least one
    # merge or leave landed across the non-off cells.
    assert rebalanced > 0, table.rows


@check("chaos_live_availability")
def _(tables, directory):
    table, = tables
    for row in table.rows:
        assert row[-1] == "0", row
        assert row[-2] == "yes" and row[-3] == "yes", row
    for sim, live in zip(table.rows[::2], table.rows[1::2]):
        # Availability and crashes: live equals simulator too.
        assert (live[2], live[5]) == (sim[2], sim[5]), (sim, live)


@pytest.fixture(scope="module")
def directory():
    return exp.bench_directory(SMALL_RECORDS)


def test_every_committed_table_has_one_writer():
    committed = {path.stem for path in RESULTS_DIR.glob("*")}
    # full_scale_run.txt is the archived stdout of one --full run.
    assert committed - {"full_scale_run"} == set(EXPERIMENTS)
    assert set(CHECKS) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.live)
    if name == "chaos_live_availability" else name
    for name in EXPERIMENTS
])
def test_table_shape(name, directory):
    tables = SMALL.get(name, EXPERIMENTS[name])(directory)
    CHECKS[name](tables, directory)
