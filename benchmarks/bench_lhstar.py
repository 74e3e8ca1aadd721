"""SDDS cost claims: constant-cost lookups, bounded hops, 1-round
scans, and a file that shrinks and grows again."""

from repro.bench.experiments import exp_elasticity, exp_lhstar


def test_lhstar_scaling(benchmark, emit):
    table = benchmark.pedantic(exp_lhstar, rounds=1, iterations=1)
    emit(table, "lhstar_scaling")
    converged = [r[2] for r in table.rows]
    assert all(v == "2.00" for v in converged)
    assert max(int(r[4]) for r in table.rows) <= 2
    # Scan cost = 2 messages per bucket (request + reply).
    for row in table.rows:
        assert int(row[5].replace(",", "")) == 2 * int(row[1].replace(",", ""))


def test_elasticity(benchmark, emit):
    table = benchmark.pedantic(exp_elasticity, rounds=1, iterations=1)
    emit(table, "elasticity")
    buckets = [int(r[2].replace(",", "")) for r in table.rows]
    grow, shrink, regrow = buckets
    assert shrink < grow          # the file actually shrank
    assert regrow > shrink        # and grew again
