"""Micro-benchmarks of the scalar solvers, one cached call at a time, of a
warm solve_noma and solve_tdma pair on one instance (what perfbench's
solve-warm times per instance), of building one Allocation and one
SolveOutcome, of the split columns a TDMA solve on a filled store starts from
(tdma._splits), of two warm TDMA solves off the paper's draws (a budget
that rules out the budget-free split, and a 500-split window), of one
TDMA solve on an empty store, of a later TDMA solve on a window whose
tables the store does not keep, and of an in-process `noma-fbl sweep`
over 20 values of d1 on an empty store.

Run with ``PYTHONPATH=src python -m pytest benchmarks``; these files sit
outside the test paths, so the tier-1 suite does not run them.

The instances follow the paper's protocol, as `noma-fbl montecarlo` draws
it: 160-bit packets at block-error target 1e-7 for both users, d2 = 300,
d1 from the default grid, budgets of 20, 25 and 30 dBm and Rayleigh gains
(scale 100, seed 1).  Every instance is solved once before timing, so the
SINR memo and tables are warm and each timed call is the solver's own cost.
A round is a run of consecutive instances, and the reported time is per
call.
"""

import itertools

import numpy as np
import pytest

from noma_fbl import (
    Allocation,
    ChannelPair,
    ExperimentConfig,
    PowerBudget,
    Scheme,
    SolveOutcome,
    UserSpec,
    dbm_to_watts,
    required_sinr,
    solve_noma,
    solve_tdma,
    tdma,
)
from noma_fbl.cli import main
from noma_fbl.montecarlo import draw_channel_batch

CFG = ExperimentConfig()
N_INSTANCES = 600
CALLS_PER_ROUND = 20


def _instances():
    rng = np.random.Generator(np.random.Philox(CFG.seed))
    gains = draw_channel_batch(rng, CFG.rayleigh_scale, N_INSTANCES)
    cells = itertools.cycle(itertools.product(CFG.d1_grid, CFG.p_max_dbm_grid))
    s2 = CFG.user2_spec()
    return [
        (ChannelPair(g1, g2), CFG.user1_spec(d1), s2, PowerBudget(dbm_to_watts(p)))
        for (g1, g2), (d1, p) in zip(gains.tolist(), cells)
    ]


INSTANCES = _instances()


@pytest.mark.parametrize("solve", [solve_noma, solve_tdma], ids=["noma", "tdma"])
def test_cached_solve_per_call(benchmark, solve):
    outcomes = [solve(*instance) for instance in INSTANCES]
    assert any(out.feasible for out in outcomes)
    instances = itertools.cycle(INSTANCES)
    benchmark.pedantic(
        lambda: solve(*next(instances)), rounds=300, iterations=CALLS_PER_ROUND
    )


def test_warm_pair(benchmark):
    # Two passes leave every split window of the instances in the memo (a
    # window's first solve marks it, the next fills its entry).
    for _ in range(2):
        reference = {i: (solve_noma(*args), solve_tdma(*args)) for i, args in enumerate(INSTANCES)}
    instances = itertools.cycle(enumerate(INSTANCES))

    def pair():
        i, args = next(instances)
        return i, (solve_noma(*args), solve_tdma(*args))

    i, got = benchmark.pedantic(pair, rounds=300, iterations=CALLS_PER_ROUND)
    assert got == reference[i]


#: The fields of solve_tdma's allocation on the README's TDMA example.
TDMA_FIELDS = (
    188.0, 112.0, 1.557210507337004, 0.8354546517366543, 1.557210507337004,
    3.3418186069466174, 386.326496373862, Scheme.TDMA,
)


def test_allocation_record(benchmark):
    # Built positionally, as the solvers build it.
    benchmark.pedantic(Allocation, args=TDMA_FIELDS, rounds=100, iterations=1000)


def test_outcome_record(benchmark):
    allocation = Allocation(*TDMA_FIELDS)
    got = benchmark.pedantic(SolveOutcome, args=(allocation,), rounds=100, iterations=1000)
    assert got.allocation is allocation


def test_warm_splits(benchmark):
    # d1 = 200 weighs m1 in [100, 200]; both SINR tables are in the store.
    s1, s2 = CFG.user1_spec(200), CFG.user2_spec()
    assert tdma._window(s1, s2) == (100, 200)
    tdma._splits(s1, s2, 100, 200)
    benchmark.pedantic(
        tdma._splits, args=(s1, s2, 100, 200), rounds=300, iterations=CALLS_PER_ROUND
    )


def _warm_tdma(benchmark, args):
    # Solved until the memo of the split window holds it: a window's first
    # solve picks from enclosures and marks it, and the next fills the
    # tables; a fill that grows a row keeps nothing and drops the mark, so
    # the cycle may run twice.
    for _ in range(4):
        out = solve_tdma(*args)
    benchmark.pedantic(solve_tdma, args=args, rounds=300, iterations=CALLS_PER_ROUND)
    assert repr(solve_tdma(*args)) == repr(out)


def test_warm_tdma_budget_repick(benchmark):
    # At 1.6 W the budget rules out the budget-free split of least energy,
    # so the pick is made again under the budget.
    ch, s1, s2 = ChannelPair(0.9, 4.0), CFG.user1_spec(200), CFG.user2_spec()
    splits = tdma._splits(s1, s2, *tdma._window(s1, s2))
    assert tdma._pick(splits, ch.g1, ch.g2, 1.6) != tdma._pick(splits, ch.g1, ch.g2) >= 0
    _warm_tdma(benchmark, (ch, s1, s2, PowerBudget(1.6)))


def test_warm_tdma_long_window(benchmark):
    # D1 = 599 and D2 = 1000: m1 in [100, 599], 500 splits.
    s1, s2 = CFG.user1_spec(599), UserSpec(160, 1e-7, 1000)
    assert tdma._window(s1, s2) == (100, 599)
    _warm_tdma(benchmark, (ChannelPair(1e4, 4e4), s1, s2, PowerBudget(1.0)))


def test_cold_tdma_solve(benchmark):
    # 600 bits at eps 1e-5, D1 = 400 and D2 = 900: 301 splits, every SINR
    # unknown; the store is emptied before each round.
    args = (
        ChannelPair(1e4, 4e4),
        UserSpec(600, 1e-5, 400),
        UserSpec(600, 1e-5, 900),
        PowerBudget(1.0),
    )
    assert solve_tdma(*args).feasible

    def cold():
        required_sinr.cache_clear()
        return args, {}

    benchmark.pedantic(solve_tdma, setup=cold, rounds=200)


def test_later_tdma_solve_past_the_store(benchmark):
    # D1 = 10**5 and D2 = 2 * 10**5: 99,901 splits, and m2 reaches 199,900,
    # past the store's cap, so no solve keeps the window's tables.  The
    # first solve is untimed; every timed one comes after it.
    args = (
        ChannelPair(1e4, 4e4),
        UserSpec(160, 1e-7, 10**5),
        UserSpec(160, 1e-7, 2 * 10**5),
        PowerBudget(1.0),
    )
    required_sinr.cache_clear()
    first = solve_tdma(*args)
    assert first.feasible
    got = benchmark.pedantic(solve_tdma, args=args, rounds=5)
    assert repr(got) == repr(first)
    required_sinr.cache_clear()


def test_cli_sweep_far_deadlines(benchmark, tmp_path):
    # `noma-fbl sweep --d1-grid 1000:20000:1000 --d2 20000`, in-process:
    # 20 split windows of one key pair, the store emptied before each round.
    out = tmp_path / "sweep.csv"
    argv = [
        "sweep", "--g1", "1e4", "--g2", "4e4", "--d2", "20000",
        "--d1-grid", "1000:20000:1000", "--out", str(out),
    ]

    def cold():
        required_sinr.cache_clear()
        return (argv,), {}

    benchmark.pedantic(main, setup=cold, rounds=10)
    assert len(out.read_text().splitlines()) == 2 + 2 * 20
    required_sinr.cache_clear()
