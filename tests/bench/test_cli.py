"""The ``python -m repro.bench`` experiment CLI."""

from pathlib import Path

import pytest

from repro.bench.__main__ import EXPERIMENTS, main

RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

#: The tables that do not read the directory; together they run in
#: well under a second, so tier-1 regenerates them whole.
DIRECTORY_FREE = [
    "fig2", "fig3", "storage_layouts", "lhstar_scaling", "elasticity",
    "fault_sweep", "crash_degraded_cost",
]


class TestCli:
    def test_single_experiment(self, capsys):
        assert main(["fig2", "--records", "50"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out

    def test_multiple_experiments(self, capsys):
        assert main(["storage_layouts", "fig3", "--records", "50"]) == 0
        out = capsys.readouterr().out
        assert "Section 2.5" in out
        assert "Figure 3" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment", "--records", "50"])

    def test_all_registered_names_resolve(self, capsys):
        # Every name in the registry must dispatch (run the cheapest
        # subset; tests/bench/test_paper_tables.py runs them all).
        cheap = [n for n in EXPERIMENTS
                 if n in ("fig2", "fig3", "storage_layouts")]
        assert main(cheap + ["--records", "50"]) == 0


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    assert main([*DIRECTORY_FREE, "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", DIRECTORY_FREE)
def test_out_rewrites_committed_table(written, name):
    """``--out`` writes the file byte for byte as committed: a change
    that moves one number fails here until the table is regenerated."""
    assert (written / f"{name}.txt").read_bytes() == \
        (RESULTS_DIR / f"{name}.txt").read_bytes()
