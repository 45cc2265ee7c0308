"""Micro-benchmarks of the Monte-Carlo layers on the default experiment.

Run with ``PYTHONPATH=src python -m pytest benchmarks``; these files sit
outside the test paths, so the tier-1 suite does not run them.

The grid is `noma-fbl montecarlo`'s default: seed 1, 1000 trials, d1 in
100..290 step 10, d2 = 300 and budgets of 20, 25 and 30 dBm.  There the
budgets rule out almost no budget-free TDMA split, so the TDMA column is
also timed on a binding-budget grid (seed 9, budgets of -5, 0 and 5 dBm),
where they rule out a large share and the re-pick under the budget does
real work.  The SINR memo and tables are warm after the first round, as
they are for every cell after the first in a run; `run_trials` is timed
warm too.  A consecutive grid (d1 = 100..1000 step 1, d2 = 1100) times
`_columns` where every one of its 901 windows is a prefix of the widest.  Rounds are fixed so that the raw timings --benchmark-json
stores stay small.
"""

import numpy as np
import pytest

from noma_fbl import ExperimentConfig, cli, dbm_to_watts, run_trials
from noma_fbl.montecarlo import ENERGY_COLUMNS, _aggregate
from noma_fbl.noma import _noma_columns
from noma_fbl.tdma import _columns

CFG = ExperimentConfig()
BINDING = ExperimentConfig(
    seed=9, d1_grid=(100, 160, 220, 290), p_max_dbm_grid=(-5.0, 0.0, 5.0)
)
#: The d1 of the one-d1 NOMA benchmark.
D1 = 200


@pytest.fixture(scope="module")
def batch():
    return run_trials(CFG)


@pytest.fixture(scope="module")
def gains(batch):
    return batch.g1, batch.g2


@pytest.mark.parametrize("cfg", [CFG, BINDING], ids=["default", "binding-budget"])
def test_tdma_columns_every_window(benchmark, cfg):
    # TDMA for every d1 at every budget of the grid: the run's one call.
    batch = run_trials(cfg)
    s1s = [cfg.user1_spec(d1) for d1 in cfg.d1_grid]
    p_maxes = [dbm_to_watts(p) for p in cfg.p_max_dbm_grid]
    args = (s1s, cfg.user2_spec(), batch.g1, batch.g2, p_maxes)
    windows = benchmark.pedantic(_columns, args=args, rounds=200)
    assert all(len(columns) == len(p_maxes) for _, columns in windows.values())


def test_tdma_columns_consecutive_grid(benchmark, gains):
    # 901 windows m1 = 100..100 up to 100..1000 over the first 100 draws.
    g1, g2 = (g[:100] for g in gains)
    s1s = [CFG.user1_spec(d1) for d1 in range(100, 1001)]
    s2 = ExperimentConfig(d2=1100).user2_spec()
    p_maxes = [dbm_to_watts(p) for p in CFG.p_max_dbm_grid]
    windows = benchmark.pedantic(_columns, args=(s1s, s2, g1, g2, p_maxes), rounds=20)
    assert len(windows) == len(s1s)


def test_noma_columns_one_d1(benchmark, gains):
    # NOMA for one d1 at every budget of the grid, as run_trials runs it.
    g1, g2 = gains
    s1, s2 = CFG.user1_spec(D1), CFG.user2_spec()
    p_maxes = np.array([dbm_to_watts(p) for p in CFG.p_max_dbm_grid])[:, None]
    winner, _, _ = benchmark.pedantic(
        _noma_columns, args=(g1, g2, s1, s2, p_maxes), rounds=200
    )
    assert winner.shape == (len(CFG.p_max_dbm_grid), CFG.n_trials)


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
