"""Micro-benchmarks of the Monte-Carlo layers on the default experiment.

Run with ``PYTHONPATH=src python -m pytest benchmarks``; these files sit
outside the test paths, so the tier-1 suite does not run them.

The grid is `noma-fbl montecarlo`'s default: seed 1, 1000 trials, d1 in
100..290 step 10, d2 = 300 and budgets of 20, 25 and 30 dBm.  The SINR
memo and tables are warm after the first round, as they are for every
cell after the first in a run; `run_trials` is timed warm too.  Rounds
are fixed so that the raw timings --benchmark-json stores stay small.
"""

import pytest

from noma_fbl import ExperimentConfig, cli, dbm_to_watts, run_trials
from noma_fbl.montecarlo import ENERGY_COLUMNS, _aggregate
from noma_fbl.noma import _noma_columns
from noma_fbl.tdma import _best_splits, _free_splits, _splits

CFG = ExperimentConfig()
#: A d1 whose split window is the widest of the grid, m1 in [100, 200].
D1 = 200


@pytest.fixture(scope="module")
def batch():
    return run_trials(CFG)


@pytest.fixture(scope="module")
def gains(batch):
    return batch.g1, batch.g2


def _tdma_column(g1, g2):
    """TDMA for one d1 at every budget of the grid, as run_trials does."""
    splits = _splits(CFG.user1_spec(D1), CFG.user2_spec())
    free = _free_splits(splits, g1, g2)
    return [
        _best_splits(splits, g1, g2, dbm_to_watts(p), free)
        for p in CFG.p_max_dbm_grid
    ]


def test_tdma_one_d1_column(benchmark, gains):
    columns = benchmark.pedantic(_tdma_column, args=gains, rounds=200)
    assert len(columns) == len(CFG.p_max_dbm_grid)


def test_noma_columns_one_cell(benchmark, gains):
    g1, g2 = gains
    s1, s2 = CFG.user1_spec(D1), CFG.user2_spec()
    args = (g1, g2, s1, s2, dbm_to_watts(30.0))
    winner, _, _ = benchmark.pedantic(_noma_columns, args=args, rounds=200)
    assert len(winner) == CFG.n_trials


def test_aggregate(benchmark, batch):
    benchmark.pedantic(_aggregate, args=(batch,), rounds=100)
    assert len(batch.cells) == len(CFG.d1_grid) * len(CFG.p_max_dbm_grid)


def test_mc_csv(benchmark, batch):
    rows = batch.energy_rows()
    args = (cli.MC_ENERGY_SCHEMA, ENERGY_COLUMNS, rows)
    text = benchmark.pedantic(cli._mc_csv, args=args, rounds=200)
    assert text.count("\n") == len(rows) + 2


def test_run_trials_default_grid(benchmark):
    result = benchmark.pedantic(run_trials, args=(CFG,), rounds=10, iterations=1)
    assert len(result.records) == len(CFG.d1_grid) * len(CFG.p_max_dbm_grid)
