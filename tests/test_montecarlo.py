"""Monte-Carlo harness: channel statistics, determinism, aggregation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noma_fbl import (
    ChannelPair,
    ExperimentConfig,
    InfeasibleReason,
    PowerBudget,
    UserSpec,
    dbm_to_watts,
    draw_channels,
    run_trials,
    solve_noma,
    solve_tdma,
)
from noma_fbl import montecarlo, tdma
from noma_fbl.montecarlo import CellStats, draw_channel_batch
from noma_fbl.types import Scheme


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


class TestChannelDraws:
    def test_golden_first_draw_seed_42(self):
        # regression pin: Philox(42), inverse-CDF Rayleigh, scale 100
        ch = draw_channels(philox(42), 100.0)
        assert ch.g1 == pytest.approx(1800.192925882735, rel=1e-12)
        assert ch.g2 == pytest.approx(3052.7074578782704, rel=1e-12)

    def test_rayleigh_mean_identity(self):
        g = draw_channel_batch(philox(123), 100.0, 500_000)
        mean_magnitude = float(np.mean(np.sqrt(g)))
        assert mean_magnitude == pytest.approx(100.0 * math.sqrt(math.pi / 2), rel=0.01)

    def test_median_self_consistency(self):
        scale = 100.0
        median = scale * math.sqrt(2.0 * math.log(2.0))
        g = draw_channel_batch(philox(321), scale, 500_000)
        frac = float(np.mean(g > median**2))
        assert frac == pytest.approx(0.5, abs=0.01)

    def test_deterministic_given_state(self):
        a = draw_channel_batch(philox(9), 100.0, 16)
        b = draw_channel_batch(philox(9), 100.0, 16)
        assert np.array_equal(a, b)


class TestDbmConversion:
    def test_thirty_dbm_is_one_watt(self):
        assert dbm_to_watts(30.0) == 1.0

    def test_twenty_dbm(self):
        assert dbm_to_watts(20.0) == pytest.approx(0.1, rel=1e-12)


class TestConfigValidation:
    def test_d1_above_d2_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(d1_grid=(100, 310), d2=300)

    def test_d1_below_min_blocklength_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(d1_grid=(90, 200), d2=300)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(d1_grid=())

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(seed=-1)

    @pytest.mark.parametrize("dbm", [math.nan, -1e10, 1e10, math.inf])
    def test_budget_must_be_finite_positive_power(self, dbm):
        with pytest.raises(ValueError):
            ExperimentConfig(p_max_dbm_grid=(30.0, dbm))

    # Every spec rule is UserSpec's, checked on each d1 and d2 at
    # construction, not on the first run; and a repeated grid value would
    # repeat its cells in every table.
    @pytest.mark.parametrize(
        "field,value",
        [
            ("payload_bits", 160.5),
            ("error_target", 2.0),
            ("min_blocklength", 0),
            ("d2", 300.5),
            ("d1_grid", (100.5,)),
            ("d1_grid", (100, 110, 100.0)),
            ("p_max_dbm_grid", (30.0, 30.0)),
            ("p_max_dbm_grid", (0.0, -0.0)),
            ("n_trials", 2.5),
            ("seed", 1.5),
        ],
    )
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError):
            ExperimentConfig(**{field: value})

    def test_trial_cells_within_the_cap(self):
        cells = 20 * 3
        cap = montecarlo._TRIAL_CELLS_CAP
        assert ExperimentConfig(n_trials=cap // cells).n_trials == cap // cells
        with pytest.raises(ValueError, match="trial cells"):
            ExperimentConfig(n_trials=cap // cells + 1)
        with pytest.raises(ValueError, match="trial cells"):
            ExperimentConfig(n_trials=cap + 1, d1_grid=(200,), p_max_dbm_grid=(30.0,))

    def test_grid_cells_within_the_cap(self, monkeypatch):
        # Whatever the trials: 2 values of d1 x 3 budgets fit a cap of 6
        # cells, and a third value of d1 does not.
        monkeypatch.setattr(montecarlo, "_GRID_CELLS_CAP", 6)
        assert len(ExperimentConfig(n_trials=1, d1_grid=(100, 110)).d1_grid) == 2
        with pytest.raises(ValueError, match="grid cells"):
            ExperimentConfig(n_trials=1, d1_grid=(100, 110, 120))

    def test_the_long_consecutive_grid_is_accepted(self):
        # CI runs d1 = 100..20000 by 1 at d2 = 20100, 59,703 grid cells.
        cfg = ExperimentConfig(n_trials=1, d1_grid=tuple(range(100, 20001)), d2=20100)
        assert len(cfg.d1_grid) * len(cfg.p_max_dbm_grid) == 59_703

    def test_split_windows_within_the_cap(self):
        with pytest.raises(ValueError, match="splits"):
            ExperimentConfig(n_trials=2, d1_grid=(200, 2**53 - 100), d2=2**53)

    def test_tie_d1_equal_d2_allowed(self):
        cfg = ExperimentConfig(d1_grid=(200, 300), d2=300, n_trials=2)
        assert cfg.d1_grid == (200, 300)

    # NaN passes a plain sign check; inf and 1e160 overflow the drawn gains,
    # and at 1e-200 they underflow to zero.
    @pytest.mark.parametrize("scale", [math.nan, math.inf, 1e160, 1e-200])
    def test_rayleigh_scale_must_draw_normal_floats(self, scale):
        with pytest.raises(ValueError):
            ExperimentConfig(rayleigh_scale=scale)


class TestWholeNumberDeadlines:
    @pytest.mark.parametrize("d1", [200.0, np.int64(200)])
    def test_same_outcomes_as_an_int(self, d1):
        ch, budget = ChannelPair(1e4, 4e4), PowerBudget(1.0)
        specs = UserSpec(160, 1e-7, 200), UserSpec(160, 1e-7, 300)
        specs_d1 = UserSpec(160, 1e-7, d1), UserSpec(160, 1e-7, d1 + 100, 100.0)
        assert specs_d1 == specs
        for solve in (solve_noma, solve_tdma):
            assert solve(ch, *specs_d1, budget) == solve(ch, *specs, budget)
        cfg = ExperimentConfig(n_trials=40, d1_grid=(200,), p_max_dbm_grid=(10.0, 30.0))
        cfg_d1 = ExperimentConfig(
            n_trials=40, d1_grid=(d1,), d2=d1 + 100, p_max_dbm_grid=(10.0, 30.0)
        )
        batch, batch_d1 = run_trials(cfg), run_trials(cfg_d1)
        for key, records in batch.records.items():
            assert list(batch_d1.records[key]) == list(records)
        assert batch_d1.cells == batch.cells

    @pytest.mark.parametrize("field", ["deadline", "min_blocklength", "payload_bits"])
    def test_fractional_blocklength_rejected(self, field):
        whole = {"payload_bits": 160, "error_target": 1e-7, "deadline": 200}
        # Past 2**53 an Allocation's float fields lose whole numbers.
        for value in (100.5, math.nan, math.inf, 2**53 + 1, 1e20, 10**400):
            with pytest.raises(ValueError):
                UserSpec(**{**whole, field: value})

    @pytest.mark.parametrize("bits", [160.0, np.int64(160)])
    def test_whole_payload_becomes_an_int(self, bits):
        spec = UserSpec(payload_bits=bits, error_target=1e-7, deadline=200)
        assert type(spec.payload_bits) is int and spec.payload_bits == 160

    def test_grids_keep_the_cli_types(self):
        # A float d1 and d2 and an int budget give the rows of the CLI's
        # types: whole deadlines as ints, budgets as floats.
        def config(d1, d2, dbm):
            return ExperimentConfig(n_trials=3, d1_grid=(d1,), d2=d2, p_max_dbm_grid=(dbm,))

        cfg, want = config(200.0, 300.0, 30), config(200, 300, 30.0)
        assert (cfg.d1_grid, cfg.d2, cfg.p_max_dbm_grid) == ((200,), 300, (30.0,))
        assert (type(cfg.d1_grid[0]), type(cfg.d2), type(cfg.p_max_dbm_grid[0])) == (
            int, int, float,
        )
        got, want = run_trials(cfg).energy_rows(), run_trials(want).energy_rows()
        assert repr(got) == repr(want)  # values and their types


class TestHarness:
    def test_single_trial_passthrough(self):
        # the harness must reproduce direct solver calls exactly
        cfg = ExperimentConfig(
            n_trials=1, seed=0, d1_grid=(200,), p_max_dbm_grid=(30.0,)
        )
        ch = ChannelPair(1.0, 4.0)
        batch = run_trials(cfg, channels=(ch,))
        rec = batch.records[(200, 30.0)][0]
        s1 = UserSpec(160, 1e-7, 200)
        s2 = UserSpec(160, 1e-7, 300)
        budget = PowerBudget(1.0)
        assert rec.noma == solve_noma(ch, s1, s2, budget)
        assert rec.tdma == solve_tdma(ch, s1, s2, budget)
        cell = batch.cell(200, 30.0)
        assert cell.n_noma_feasible == int(rec.noma.feasible)
        assert cell.n_tdma_feasible == int(rec.tdma.feasible)

    def test_determinism_same_config(self):
        cfg = ExperimentConfig(
            n_trials=40, seed=5, d1_grid=(150, 250), p_max_dbm_grid=(25.0, 30.0)
        )
        a = run_trials(cfg)
        b = run_trials(cfg)
        assert a.channels == b.channels
        assert a.cells == b.cells
        assert a.common_trials == b.common_trials

    def test_common_random_numbers_across_cells(self):
        cfg = ExperimentConfig(
            n_trials=25, seed=2, d1_grid=(150, 250), p_max_dbm_grid=(20.0, 30.0)
        )
        batch = run_trials(cfg)
        assert len(batch.channels) == 25
        # one record per trial in every cell, all driven by the same draws
        for key, records in batch.records.items():
            assert len(records) == 25

    def test_aggregates_recomputable_from_records(self):
        cfg = ExperimentConfig(n_trials=30, seed=3, d1_grid=(200,), p_max_dbm_grid=(30.0,))
        batch = run_trials(cfg)
        records = batch.records[(200, 30.0)]
        both = [r for r in records if r.noma.feasible and r.tdma.feasible]
        cell = batch.cell(200, 30.0)
        assert cell.n_both_feasible == len(both)
        if both:
            assert cell.mean_energy_noma == pytest.approx(
                sum(r.noma.energy for r in both) / len(both), rel=1e-15
            )

    def test_infeasible_trials_recorded_not_fatal(self):
        cfg = ExperimentConfig(
            n_trials=50, seed=8, d1_grid=(100,), p_max_dbm_grid=(-20.0,)
        )
        batch = run_trials(cfg)
        cell = batch.cell(100, -20.0)
        assert cell.n_noma_feasible < 50  # starved budget knocks trials out
        records = batch.records[(100, -20.0)]
        assert any(not r.noma.feasible for r in records)
        verdicts = {r.noma.verdict for r in records if not r.noma.feasible}
        assert verdicts  # typed reasons, not exceptions

    def test_mean_adds_left_to_right(self):
        # Left to right this is 0.0; compensated summation (sum() from
        # Python 3.12 on) gives 0.5.
        assert montecarlo._mean(np.array([1.0, 1e100, 1.0, -1e100])) == 0.0

    def test_channel_override_length_checked(self):
        cfg = ExperimentConfig(n_trials=3, d1_grid=(200,), p_max_dbm_grid=(30.0,))
        with pytest.raises(ValueError):
            run_trials(cfg, channels=(ChannelPair(1.0, 1.0),))


class TestRowViews:
    def test_energy_rows_shape_and_order(self):
        cfg = ExperimentConfig(
            n_trials=10, seed=4, d1_grid=(150, 200), p_max_dbm_grid=(25.0, 30.0)
        )
        batch = run_trials(cfg)
        rows = batch.energy_rows()
        assert len(rows) == 4
        assert [(r["pmax_dbm"], r["d1"]) for r in rows] == [
            (25.0, 150), (25.0, 200), (30.0, 150), (30.0, 200)
        ]

    def test_feasibility_rows_fractions_in_range(self):
        cfg = ExperimentConfig(
            n_trials=10, seed=4, d1_grid=(150, 200), p_max_dbm_grid=(25.0,)
        )
        batch = run_trials(cfg)
        for row in batch.feasibility_rows():
            for key in ("frac_noma_feasible", "frac_tdma_feasible", "frac_any_feasible"):
                assert 0.0 <= row[key] <= 1.0
            assert row["frac_any_feasible"] >= max(
                row["frac_noma_feasible"], row["frac_tdma_feasible"]
            ) - 1e-15


class TestShapeSmoke:
    """Small-trial version of the curve-shape checks (full runs live in the
    acceptance suite)."""

    def test_energy_and_feasibility_shapes(self):
        cfg = ExperimentConfig(
            n_trials=150,
            seed=1,
            d1_grid=tuple(range(100, 291, 30)),
            p_max_dbm_grid=(20.0, 30.0),
        )
        batch = run_trials(cfg)
        for pmax in cfg.p_max_dbm_grid:
            noma_means = [
                batch.cell(d1, pmax).mean_energy_noma_common for d1 in cfg.d1_grid
            ]
            tdma_means = [
                batch.cell(d1, pmax).mean_energy_tdma_common for d1 in cfg.d1_grid
            ]
            assert all(a > b for a, b in zip(noma_means, noma_means[1:]))
            assert all(a >= b for a, b in zip(tdma_means, tdma_means[1:]))
            fr = [batch.cell(d1, pmax).frac_noma_feasible for d1 in cfg.d1_grid]
            assert all(a <= b for a, b in zip(fr, fr[1:]))
        # budget relaxation can only help, trial by trial
        for d1 in cfg.d1_grid:
            assert (
                batch.cell(d1, 20.0).frac_noma_feasible
                <= batch.cell(d1, 30.0).frac_noma_feasible
            )
            assert (
                batch.cell(d1, 20.0).frac_tdma_feasible
                <= batch.cell(d1, 30.0).frac_tdma_feasible
            )


def _mean(values):
    # Left to right, as the engine adds; sum() of floats compensates from
    # Python 3.12 on.  Finite values whose sum overflows add divided first.
    total = 0.0
    for v in values:
        total += v
    if math.isinf(total) and all(map(math.isfinite, values)):
        total = 0.0
        for v in values:
            total += v / len(values)
        return total
    return total / len(values) if values else math.nan


def scalar_reference(batch):
    """Per-trial solver calls and the loop aggregation they once fed.

    Returns {cell: [(noma, tdma), ...]}, the CellStats per cell and the
    common trials per budget, computed one trial at a time.
    """
    cfg = batch.config
    s2 = cfg.user2_spec()
    outcomes, cells, common_trials = {}, {}, {}
    for pmax in cfg.p_max_dbm_grid:
        budget = PowerBudget(dbm_to_watts(pmax))
        for d1 in cfg.d1_grid:
            s1 = cfg.user1_spec(d1)
            outcomes[(d1, pmax)] = [
                (solve_noma(ch, s1, s2, budget), solve_tdma(ch, s1, s2, budget))
                for ch in batch.channels
            ]
        per_d1 = [outcomes[(d1, pmax)] for d1 in cfg.d1_grid]
        common = tuple(
            i
            for i in range(cfg.n_trials)
            if all(rs[i][0].feasible and rs[i][1].feasible for rs in per_d1)
        )
        common_trials[pmax] = common
        for d1, rs in zip(cfg.d1_grid, per_d1):
            noma_f = [n.energy for n, _ in rs if n.feasible]
            tdma_f = [t.energy for _, t in rs if t.feasible]
            both = [(n, t) for n, t in rs if n.feasible and t.feasible]
            cells[(d1, pmax)] = CellStats(
                d1=d1,
                pmax_dbm=pmax,
                n_trials=cfg.n_trials,
                n_noma_feasible=len(noma_f),
                n_tdma_feasible=len(tdma_f),
                n_any_feasible=sum(1 for n, t in rs if n.feasible or t.feasible),
                n_both_feasible=len(both),
                n_common=len(common),
                mean_energy_noma=_mean([n.energy for n, _ in both]),
                mean_energy_tdma=_mean([t.energy for _, t in both]),
                mean_energy_noma_scheme=_mean(noma_f),
                mean_energy_tdma_scheme=_mean(tdma_f),
                mean_energy_noma_common=_mean([rs[i][0].energy for i in common]),
                mean_energy_tdma_common=_mean([rs[i][1].energy for i in common]),
            )
    return outcomes, cells, common_trials


class TestBatchMatchesScalar:
    """Every record and aggregate of the column kernel equals the scalar
    solvers' outcome on the same instance, bit for bit."""

    def check(self, batch):
        outcomes, cells, common_trials = scalar_reference(batch)
        for key, expected in outcomes.items():
            records = batch.records[key]
            assert len(records) == len(expected)
            for i, (noma, tdma) in enumerate(expected):
                assert records[i].noma == noma, (key, i)
                assert records[i].tdma == tdma, (key, i)
        assert batch.cells == cells
        assert batch.common_trials == common_trials
        return [o for cell in outcomes.values() for o in cell]

    def test_seeded_draws_with_ties_and_starved_budget(self):
        cfg = ExperimentConfig(
            n_trials=300,
            seed=7,
            d1_grid=(100, 200, 300),
            d2=300,
            p_max_dbm_grid=(-20.0, 10.0, 30.0),
        )
        outcomes = self.check(run_trials(cfg))
        assert any(noma.relabeled for noma, _ in outcomes)
        assert any(not tdma.feasible for _, tdma in outcomes)
        assert {noma.verdict for noma, _ in outcomes if not noma.feasible} >= {
            InfeasibleReason.POWER_BUDGET_EXCEEDED,
            InfeasibleReason.SIC_PRODUCT_GE_ONE,
            InfeasibleReason.RATE_UNREACHABLE,
        }

    def test_channel_overrides_cover_every_branch(self):
        above_one = math.nextafter(1.0, 2.0)
        channels = (
            ChannelPair(1.0, 1.0),  # g1 == g2
            ChannelPair(above_one, 1.0),  # g1 one ulp above g2
            ChannelPair(1.0, above_one),
            ChannelPair(4.0, 1.0),
            ChannelPair(1.0, 4.0),
            ChannelPair(2.0, 0.5),
            ChannelPair(1e-3, 5.0),
            ChannelPair(50.0, 0.02),
        )
        cfg = ExperimentConfig(
            n_trials=len(channels),
            d1_grid=(400, 3900, 4000),
            d2=4000,
            p_max_dbm_grid=(-20.0, 30.0, 34.0),
        )
        outcomes = self.check(run_trials(cfg, channels=channels))
        schemes = {noma.allocation.scheme for noma, _ in outcomes if noma.feasible}
        assert schemes == {Scheme.SIC_RX2, Scheme.TIN, Scheme.SIC_RX1}
        assert any(noma.relabeled for noma, _ in outcomes)
        assert any(noma.sub_verdicts and len(noma.sub_verdicts) == 2 for noma, _ in outcomes)

    def test_tdma_matrix_in_small_chunks(self, monkeypatch):
        # 2 to 4 trials per chunk, the last one partial
        monkeypatch.setattr(tdma, "_CHUNK_ELEMENTS", 250)
        cfg = ExperimentConfig(
            n_trials=25, seed=3, d1_grid=(150, 290), p_max_dbm_grid=(20.0,)
        )
        self.check(run_trials(cfg))

    def test_overflowing_tdma_energies_are_over_budget(self):
        # At 1e307 W on these gains the budget rules out the shortest splits
        # and every split it allows overflows to an infinite energy, which
        # is over budget too.
        cfg = ExperimentConfig(
            n_trials=1, d1_grid=(200,), d2=500, p_max_dbm_grid=(3100.0,)
        )
        outcomes = self.check(run_trials(cfg, channels=(ChannelPair(2e-307, 2e-307),)))
        assert outcomes[0][1].verdict == InfeasibleReason.POWER_BUDGET_EXCEEDED

    def test_mean_of_finite_energies_past_half_the_float_range(self):
        # Both TDMA energies are about 1.7e308: their sum overflows, and the
        # cell means divide before they add instead.
        g = 3.770866025993668e-306
        cfg = ExperimentConfig(n_trials=2, d1_grid=(200,), d2=300, p_max_dbm_grid=(3100.0,))
        batch = run_trials(cfg, channels=(ChannelPair(g, g),) * 2)
        self.check(batch)
        energy = batch.records[(200, 3100.0)].tdma_energy
        assert energy[0] == energy[1] > np.finfo(float).max / 2
        assert batch.cell(200, 3100.0).mean_energy_tdma_scheme == energy[0]

    def test_tin_denominator_underflow_matches_scalar(self):
        # g1*g2 underflows to 0 in tin's power inversion: the column form
        # divides to infinite powers, and the scalar solver must agree.
        cfg = ExperimentConfig(
            n_trials=1, d1_grid=(200,), d2=500, p_max_dbm_grid=(3100.0,)
        )
        outcomes = self.check(run_trials(cfg, channels=(ChannelPair(3e-307, 2e-307),)))
        noma = outcomes[0][0]
        assert dict(noma.sub_verdicts)[Scheme.TIN] == InfeasibleReason.POWER_BUDGET_EXCEEDED

    def test_budgets_rule_out_the_free_optimum(self):
        # At -5/0/5 dBm the budget forbids the budget-free TDMA optimum of
        # a large share of trials, and some of them still have an allowed
        # split, found by the masked re-solve.
        cfg = ExperimentConfig(
            n_trials=300,
            seed=9,
            d1_grid=(100, 160, 220, 290),
            p_max_dbm_grid=(-5.0, 0.0, 5.0),
        )
        batch = run_trials(cfg)
        self.check(batch)
        g1 = np.array([ch.g1 for ch in batch.channels])
        g2 = np.array([ch.g2 for ch in batch.channels])
        shares, moved = [], 0
        for (d1, pmax), records in batch.records.items():
            _, _, gamma1, gamma2 = records.splits
            free = tdma._pick(records.splits, g1[:, None], g2[:, None])
            p_max = dbm_to_watts(pmax)
            ruled_out = (gamma1[free] > p_max * g1) | (gamma2[free] > p_max * g2)
            shares.append(np.mean(ruled_out))
            moved += np.count_nonzero(ruled_out & (records.tdma_best >= 0))
            assert np.array_equal(records.tdma_best[~ruled_out], free[~ruled_out])
        assert any(0.1 <= share <= 0.9 for share in shares)
        assert moved > 0

    def test_cells_share_split_windows(self):
        # Every d1 at or above d2 - min_blocklength = 200 has the split
        # window m1 in [100, 200], the tie d1 == d2 included.
        cfg = ExperimentConfig(
            n_trials=60,
            seed=11,
            d1_grid=(150, 200, 240, 270, 300),
            d2=300,
            p_max_dbm_grid=(0.0, 30.0),
        )
        batch = run_trials(cfg)
        self.check(batch)
        for pmax in cfg.p_max_dbm_grid:
            shared = batch.records[(200, pmax)].splits
            assert batch.records[(150, pmax)].splits is not shared
            for d1 in (240, 270, 300):
                assert batch.records[(d1, pmax)].splits is shared

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(
        g1=st.floats(-307.0, 6.0).map(lambda x: 10.0**x),
        g2=st.floats(-307.0, 6.0).map(lambda x: 10.0**x),
        pmax_dbms=st.lists(st.floats(-50.0, 3100.0), min_size=1, max_size=3, unique=True),
        bits=st.tuples(st.integers(1, 3000), st.integers(1, 3000)),
        eps=st.tuples(*[st.floats(-12.0, math.log10(0.4)).map(lambda x: 10.0**x)] * 2),
        d1=st.integers(100, 600),
        extra=st.integers(0, 400),
    )
    @example(1e-306, 2e-306, [3100.0], (160, 160), (1e-7, 1e-7), 200, 300)
    @example(3e-307, 2e-307, [3100.0], (160, 160), (1e-7, 1e-7), 200, 300)
    # TDMA's split energy rounds to the largest float when compared and
    # overflows as reported.
    @example(
        3.3957641274877783e-305, 2.4106225536608306e-306, [3110.0], (160, 160), (1e-7, 1e-7), 100, 100
    )
    def test_feasible_energy_is_finite_and_exact(
        self, g1, g2, pmax_dbms, bits, eps, d1, extra
    ):
        # Gains and budgets out to the ends of the float range, where the
        # powers and energies overflow.
        s1 = UserSpec(bits[0], eps[0], d1)
        s2 = UserSpec(bits[1], eps[1], d1 + extra)
        for pmax_dbm in pmax_dbms:
            budget = PowerBudget(dbm_to_watts(pmax_dbm))
            for solve in (solve_noma, solve_tdma):
                a = solve(ChannelPair(g1, g2), s1, s2, budget).allocation
                if a is not None:
                    assert math.isfinite(a.energy)
                    assert a.energy == a.m1 * a.p1 + a.m2 * a.p2
        # The column kernel on the same draw and its mirror image, with
        # user 1's payload and target for both users; its one split window
        # shares a budget-free pick between the budgets.
        cfg = ExperimentConfig(
            n_trials=2,
            d1_grid=(d1,),
            d2=d1 + extra,
            p_max_dbm_grid=tuple(pmax_dbms),
            payload_bits=bits[0],
            error_target=eps[0],
        )
        self.check(run_trials(cfg, channels=(ChannelPair(g1, g2), ChannelPair(g2, g1))))
