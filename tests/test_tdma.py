"""TDMA baseline: exhaustive split search vs continuous oracle, saturation."""

import math
import random
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noma_fbl import (
    BracketError,
    ChannelPair,
    ExperimentConfig,
    InfeasibleReason,
    PowerBudget,
    SolveOutcome,
    UserSpec,
    dbm_to_watts,
    draw_channels,
    required_sinr,
    solve_tdma,
    tdma,
)
from noma_fbl import fbl

from oracles import tdma_golden_section, tdma_integer_min_energy

S160 = dict(payload_bits=160, error_target=1e-7)


def spec(deadline: int, **overrides) -> UserSpec:
    return UserSpec(**{**S160, "deadline": deadline, **overrides})


def brute_force_best(ch, s1, s2, budget):
    """Plain-python re-enumeration of every split (the solver vectorizes):
    the first lowest-energy (m1, energy), or the verdict when there is none.
    An energy that overflows a float counts as no split."""
    window = range(s1.min_blocklength, min(s1.deadline, s2.deadline - s2.min_blocklength) + 1)
    if not window:
        return InfeasibleReason.BLOCKLENGTH_WINDOW_EMPTY
    best = None
    try:
        for m1 in window:
            m2 = s2.deadline - m1
            gamma1, gamma2 = required_sinr(s1, m1), required_sinr(s2, m2)
            if gamma1 > budget.p_max * ch.g1 or gamma2 > budget.p_max * ch.g2:
                continue
            energy = m1 * gamma1 / ch.g1 + m2 * gamma2 / ch.g2
            if energy < math.inf and (best is None or energy < best[1]):
                best = (m1, energy)
    except BracketError:
        return InfeasibleReason.RATE_UNREACHABLE
    return best or InfeasibleReason.POWER_BUDGET_EXCEEDED


class TestSolveTdma:
    def test_symmetric_instance_splits_in_half(self):
        ch = ChannelPair(2.0, 2.0)
        out = solve_tdma(ch, spec(200), spec(300), PowerBudget(10.0))
        assert out.allocation.m1 == 150.0  # D2/2 for identical users/channels
        assert out.allocation.m2 == 150.0

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(
        g1=st.floats(-307.0, 6.0).map(lambda x: 10.0**x),
        g2=st.floats(-307.0, 6.0).map(lambda x: 10.0**x),
        # -50 to 3100 dBm
        p_max=st.floats(-8.0, 307.0).map(lambda x: 10.0**x),
        bits=st.tuples(st.integers(1, 3000), st.integers(1, 3000)),
        eps=st.tuples(*[st.floats(-12.0, math.log10(0.4)).map(lambda x: 10.0**x)] * 2),
        d1=st.integers(100, 500),
        extra=st.integers(0, 300),
        split=st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0)),
    )
    @example(1.0, 4.0, 2.5, (160, 160), (1e-7, 1e-7), 200, 100, None)
    @example(1.0, 4.0, 2.5, (100_000, 160), (1e-7, 1e-7), 200, 100, None)
    @example(1.0, 4.0, 2.5, (160, 160), (1e-7, 1e-7), 100, 200, (0.0, 0.0))
    def test_matches_plain_enumeration(
        self, g1, g2, p_max, bits, eps, d1, extra, split
    ):
        # Windows from none (d2 < 200) through one split to a few hundred.
        s1 = UserSpec(bits[0], eps[0], d1)
        s2 = UserSpec(bits[1], eps[1], d1 + extra)
        hi = min(s1.deadline, s2.deadline - s2.min_blocklength)
        if split is not None and hi >= s1.min_blocklength:
            # A split of the window, user 2's power there within a decade of
            # user 1's, and the larger of the two as the budget: it binds
            # wherever the budget-free optimum needs more.
            at, decades = split
            m1 = s1.min_blocklength + round(at * (hi - s1.min_blocklength))
            p1 = required_sinr(s1, m1) / g1
            gamma2 = required_sinr(s2, s2.deadline - m1)
            g2 = min(max(gamma2 / (p1 * 10.0**decades), 1e-307), 1e6)
            p_max = min(max(p1, gamma2 / g2, 1e-8), 1e307)
        ch = ChannelPair(g1, g2)
        budget = PowerBudget(p_max)
        out = solve_tdma(ch, s1, s2, budget)
        best = brute_force_best(ch, s1, s2, budget)
        if isinstance(best, InfeasibleReason):
            assert out.verdict == best
        else:
            assert out.feasible and out.allocation.m1 == best[0]
            assert out.allocation.energy == pytest.approx(best[1], rel=1e-12)

    def test_matches_golden_section_oracle(self):
        ch = ChannelPair(1.0, 4.0)
        s1, s2 = spec(200), spec(300)
        out = solve_tdma(ch, s1, s2, PowerBudget(2.5))
        m1_cont, energy_cont = tdma_golden_section(ch.g1, ch.g2, s1, s2, 2.5)
        assert abs(out.allocation.m1 - m1_cont) <= 1.0 or out.allocation.energy <= energy_cont * 1.005
        assert out.allocation.energy >= energy_cont * 0.995
        assert out.allocation.energy <= energy_cont * 1.005

    def test_allocation_invariants(self):
        ch = ChannelPair(1.0, 4.0)
        s1, s2 = spec(200), spec(300)
        budget = PowerBudget(2.5)
        a = solve_tdma(ch, s1, s2, budget).allocation
        assert a.m1 + a.m2 == s2.deadline
        assert a.m1 <= s1.deadline
        assert max(a.p1, a.p2) <= budget.p_max + 1e-12
        assert a.gamma1 == pytest.approx(a.p1 * ch.g1, rel=1e-12)
        assert a.gamma2 == pytest.approx(a.p2 * ch.g2, rel=1e-12)
        assert a.energy == pytest.approx(a.m1 * a.p1 + a.m2 * a.p2, rel=1e-15)

    def test_user2_exhausting_remaining_time_is_optimal(self):
        # handing back any slack from user 2's slot costs energy
        ch = ChannelPair(1.0, 4.0)
        s1, s2 = spec(200), spec(300)
        a = solve_tdma(ch, s1, s2, PowerBudget(2.5)).allocation
        for slack in (1, 5, 10):  # keep m2 above the model's minimum
            m2 = int(a.m2) - slack
            shorter = a.m1 * a.p1 + m2 * required_sinr(s2, m2) / ch.g2
            assert shorter > a.energy

    def test_m1_saturates_as_d1_grows(self):
        ch = ChannelPair(4.0, 1.0)  # weak user 2 wants the long slot
        budget = PowerBudget(10.0)
        s2 = spec(300)
        m1_stars, energies = [], []
        for d1 in range(100, 291, 10):
            a = solve_tdma(ch, spec(d1), s2, budget).allocation
            m1_stars.append(a.m1)
            energies.append(a.energy)
        assert all(x <= y for x, y in zip(energies[1:], energies[:-1]))
        # once d1 passes the unconstrained optimum, m1* stops moving
        assert m1_stars[-1] == m1_stars[-2] == m1_stars[-3]
        saturated = m1_stars[-1]
        assert saturated < 290
        k = m1_stars.index(saturated)
        assert all(m == saturated for m in m1_stars[k:])
        assert all(e == energies[-1] for e in energies[k:])

    def test_window_empty_when_deadline_tight(self):
        out = solve_tdma(ChannelPair(1.0, 1.0), spec(100), spec(150), PowerBudget(1.0))
        assert out.verdict == InfeasibleReason.BLOCKLENGTH_WINDOW_EMPTY

    def test_budget_verdict(self):
        out = solve_tdma(ChannelPair(1.0, 4.0), spec(200), spec(300), PowerBudget(0.1))
        assert out.verdict == InfeasibleReason.POWER_BUDGET_EXCEEDED

    def test_rejects_wrong_deadline_order(self):
        with pytest.raises(ValueError):
            solve_tdma(ChannelPair(1.0, 4.0), spec(300), spec(200), PowerBudget(2.5))

    def test_deadline_tie_allowed(self):
        out = solve_tdma(ChannelPair(1.0, 4.0), spec(300), spec(300), PowerBudget(2.5))
        assert out.feasible
        assert out.allocation.m1 <= 200.0  # window capped at d2 - m_hat

    def test_budget_trims_split_choices(self):
        # with a binding budget the cheapest unconstrained split may be
        # power-infeasible; the solver must return the best feasible one
        ch = ChannelPair(0.9, 4.0)
        s1, s2 = spec(200), spec(300)
        unconstrained = solve_tdma(ch, s1, s2, PowerBudget(100.0)).allocation
        p_needed = max(unconstrained.p1, unconstrained.p2)
        tight = PowerBudget(p_needed * 0.97)
        out = solve_tdma(ch, s1, s2, tight)
        if out.feasible:
            a = out.allocation
            assert max(a.p1, a.p2) <= tight.p_max
            assert a.energy >= unconstrained.energy
            assert brute_force_best(ch, s1, s2, tight)[1] == pytest.approx(
                a.energy, rel=1e-12
            )


@pytest.mark.parametrize(
    "s1,s2",
    [
        (spec(250), spec(300)),
        # user 1's minimum above user 2's: m1 reaches past D2 - min m1
        (spec(400, min_blocklength=200), spec(500)),
        (spec(120), spec(1200, min_blocklength=110)),
    ],
)
def test_splits_are_views_of_the_plain_ranges(s1, s2):
    # _splits builds m1 and m2 = D2 - m1 as plain integer ranges, index-aligned
    # with their required SINRs, which are read-only views of the store.
    for _ in range(2):  # cold, then warm
        m1_lo, m1_hi = tdma._window(s1, s2)
        m1, m2, gamma1, gamma2 = tdma._splits(s1, s2, m1_lo, m1_hi)
        want = np.arange(m1_lo, m1_hi + 1)
        assert m1.dtype == want.dtype and np.array_equal(m1, want)
        assert m2.dtype == want.dtype and np.array_equal(m2, s2.deadline - want)
        assert not (gamma1.flags.writeable or gamma2.flags.writeable)
        assert np.array_equal(gamma1, [required_sinr(s1, m) for m in want.tolist()])
        assert np.array_equal(gamma2, [required_sinr(s2, m) for m in m2.tolist()])


def test_windows_far_past_the_store_take_memory_for_themselves():
    # D2 = 10**8 with D1 = 200: 101 splits, whose tables and blocklengths
    # take memory for those entries, not for every m up to D2.
    tracemalloc.start()
    try:
        out = solve_tdma(ChannelPair(1e4, 4e4), spec(200), spec(10**8), PowerBudget(1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.allocation.m1 + out.allocation.m2 == 10**8
    assert peak < 1 << 20


@pytest.mark.parametrize("d1", [150, 200, 250])
def test_matches_integer_oracle_in_the_monotone_regime(d1):
    # The paper's protocol is energy-monotone, so user 2 taking all the
    # remaining time loses nothing against every integer pair of slots.
    cfg = ExperimentConfig()
    s1, s2 = cfg.user1_spec(d1), cfg.user2_spec()
    assert fbl.energy_monotone(s1) and fbl.energy_monotone(s2)
    rng = np.random.default_rng(d1)
    for p_max_dbm in cfg.p_max_dbm_grid:
        ch = draw_channels(rng, cfg.rayleigh_scale)
        p_max = dbm_to_watts(p_max_dbm)
        m1, m2, energy = tdma_integer_min_energy(ch.g1, ch.g2, s1, s2, p_max)
        out = solve_tdma(ch, s1, s2, PowerBudget(p_max))
        assert out.feasible == (m1 >= 0)
        if out.feasible:
            assert m2 == s2.deadline - m1
            assert out.allocation.energy == pytest.approx(energy, rel=1e-9)


@pytest.mark.xfail(
    strict=True,
    reason="outside the energy-monotone regime m2 = D2 - m1 is not optimal "
    "(ROADMAP open item 11)",
)
def test_matches_integer_oracle_outside_the_monotone_regime():
    # m * required_sinr(m) rises with m here: solve_tdma returns 91.468 at
    # (100, 300), while (100, 100) takes 90.321.
    s1, s2 = (spec(d, payload_bits=8, error_target=1e-9) for d in (100, 400))
    assert not fbl.energy_monotone(s2)
    m1, m2, energy = tdma_integer_min_energy(1.0, 4.0, s1, s2, 1e3)
    assert (m1, m2) == (100, 100) and energy == pytest.approx(90.321, rel=1e-5)
    out = solve_tdma(ChannelPair(1.0, 4.0), s1, s2, PowerBudget(1e3))
    assert out.allocation.energy == pytest.approx(energy, rel=1e-9)


def _table_outcome(ch, s1, s2, budget):
    """solve_tdma's outcome from full tables: _pick over every split."""
    lo, hi = tdma._window(s1, s2)
    if lo > hi:
        return SolveOutcome(verdict=InfeasibleReason.BLOCKLENGTH_WINDOW_EMPTY)
    splits = tdma._splits(s1, s2, lo, hi)
    best = -1
    if not isinstance(splits, InfeasibleReason):
        best = int(tdma._pick(splits, ch.g1, ch.g2, budget.p_max))
    return tdma._outcome(splits, best, ch)


def _key(s1, s2):
    """The memo's key for the window of (s1, s2)."""
    return tdma._key(s1, s2, *tdma._window(s1, s2))


def _memo_entry(s1, s2):
    """The memo's entry for the window of (s1, s2): its splits, the mark
    tdma._SEEN, or None."""
    memo = tdma._memo
    return memo.entries.get(_key(s1, s2)) if memo.generation == fbl._generation[0] else None


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    g1=st.floats(-307.0, 6.0).map(lambda x: 10.0**x),
    g2=st.floats(-307.0, 6.0).map(lambda x: 10.0**x),
    p_max=st.floats(-8.0, 307.0).map(lambda x: 10.0**x),
    bits=st.tuples(st.integers(1, 3000), st.integers(1, 3000)),
    # Past eps = 0.5, q_inv(eps) < 0: the other Newton start.
    eps=st.tuples(*[st.floats(-12.0, math.log10(0.999)).map(lambda x: 10.0**x)] * 2),
    m_hat=st.tuples(st.integers(1, 100), st.integers(1, 100)),
    d1=st.integers(0, 500),
    extra=st.integers(0, 400),
    split=st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0)),
)
# Every split energy overflows: none is within the budget.
@example(
    3.3957641274877783e-305, 2.4106225536608306e-306, dbm_to_watts(3110.0),
    (160, 160), (1e-7, 1e-7), (100, 100), 0, 100, None,
)
# One split, one user's q < 0, and a budget that binds there.
@example(1e4, 4e4, 1.0, (160, 40), (1e-7, 0.9), (100, 100), 100, 0, (0.0, 0.0))
# Ten splits and a budget that binds.
@example(1e4, 4e4, 1.0, (160, 40), (1e-7, 0.9), (100, 100), 9, 100, (0.5, 0.0))
# Rate unreachable: 3000 bits need SINRs past 1e150 from m1 = 1 on.
@example(1.0, 1.0, 1.0, (3000, 3000), (1e-12, 1e-12), (1, 1), 20, 100, None)
@example(1.0, 1.0, 1.0, (16, 3000), (1e-3, 1e-12), (1, 1), 50, 3, None)
def test_first_solve_picks_what_full_tables_pick(
    g1, g2, p_max, bits, eps, m_hat, d1, extra, split
):
    # On a fresh store, solve_tdma picks from enclosures of the SINRs
    # wherever the window is not empty and marks the window seen; the next
    # solve fills the tables, and the one after reads the memo.  Each
    # outcome, the window seen 0, 1 and 2 times, is _pick's over full
    # tables, bit for bit.
    s1 = UserSpec(bits[0], eps[0], m_hat[0] + d1, m_hat[0])
    s2 = UserSpec(bits[1], eps[1], max(s1.deadline, m_hat[1]) + extra, m_hat[1])
    lo, hi = tdma._window(s1, s2)
    if split is not None and lo <= hi:
        # A split, user 2's power there within a decade of user 1's, and the
        # larger of the two as the budget: it binds at that split.
        at, decades = split
        m1 = lo + round(at * (hi - lo))
        try:
            p1 = required_sinr(s1, m1) / g1
            gamma2 = required_sinr(s2, s2.deadline - m1)
        except BracketError:
            pass
        else:
            g2 = min(max(gamma2 / (p1 * 10.0**decades), 1e-307), 1e6)
            p_max = min(max(p1, gamma2 / g2, 1e-8), 1e307)
    ch, budget = ChannelPair(g1, g2), PowerBudget(p_max)
    required_sinr.cache_clear()
    got = [repr(solve_tdma(ch, s1, s2, budget))]
    assert (_memo_entry(s1, s2) is tdma._SEEN) == (lo <= hi)
    got += [repr(solve_tdma(ch, s1, s2, budget)) for _ in range(2)]
    assert got == [repr(_table_outcome(ch, s1, s2, budget))] * 3
    required_sinr.cache_clear()


@pytest.mark.parametrize(
    "ch,s1,s2,p_max",
    [
        (ChannelPair(1e4, 4e4), spec(200), spec(300), 1.0),
        # q < 0 for both users
        (ChannelPair(1e4, 4e4), spec(200, error_target=0.9), spec(300, error_target=0.6), 1.0),
        # a budget that binds near the budget-free split
        (ChannelPair(0.9, 4.0), spec(200), spec(300), 1.6),
        (ChannelPair(3.3957641274877783e-305, 2.4106225536608306e-306), spec(200), spec(300), 1e308),
        # every split within the budget, every energy overflowing
        (ChannelPair(1e-307, 1e-307), spec(200), spec(300), 1e308),
        # a window past the store's cap
        (ChannelPair(1e4, 4e4), spec(200), spec(10**8), 1.0),
    ],
)
def test_both_paths_give_one_outcome(ch, s1, s2, p_max):
    # The first solve on a window picks from enclosures, finding the roots
    # of at most two splits, and marks the window seen unless the store
    # would not keep its tables; the second fills the tables and picks over
    # them.
    required_sinr.cache_clear()
    first = solve_tdma(ch, s1, s2, PowerBudget(p_max))
    marked = _memo_entry(s1, s2) is tdma._SEEN
    assert marked == (s2.deadline < fbl._ROW_BUDGET)
    assert required_sinr.cache_info().misses <= 4
    hits = required_sinr.cache_info().hits
    second = solve_tdma(ch, s1, s2, PowerBudget(p_max))
    if s2.deadline < fbl._ROW_BUDGET:  # the tables are in the store now
        third = solve_tdma(ch, s1, s2, PowerBudget(p_max))
        assert required_sinr.cache_info().hits > hits
        assert repr(third) == repr(second)
    assert repr(first) == repr(second)
    required_sinr.cache_clear()


def test_solve_after_columns_filled_the_window_reads_the_memo():
    # Monte-Carlo (_columns) may fill a split window before its first
    # solve_tdma.  That solve reads the window from the memo: the outcome of
    # full tables, and no new root.
    ch, s1, s2 = ChannelPair(0.9, 4.0), spec(200), spec(300, error_target=1e-6)
    budget = PowerBudget(1.6)
    required_sinr.cache_clear()
    for _ in range(2):  # the first grows the rows, and keeps nothing
        tdma._columns([s1], s2, np.array([ch.g1]), np.array([ch.g2]), [budget.p_max])
    entry = _memo_entry(s1, s2)
    assert isinstance(entry, tdma._Splits)
    misses = required_sinr.cache_info().misses
    first = solve_tdma(ch, s1, s2, budget)
    assert required_sinr.cache_info().misses == misses
    assert _memo_entry(s1, s2) is entry
    assert repr(first) == repr(_table_outcome(ch, s1, s2, budget))
    required_sinr.cache_clear()


def test_windows_past_the_store_pick_from_enclosures_every_time(monkeypatch):
    # Under a store of 600 entries, m2 = 700 - m1 reaches 600: the window's
    # tables are never kept, so it is never marked, and every solve picks
    # from enclosures, finding at most the roots of two splits, not a
    # table's worth.
    ch, s1, s2, budget = ChannelPair(0.9, 4.0), spec(200), spec(700), PowerBudget(1.6)
    passes = []

    def enclosures(*args):
        passes.append(args)
        return real(*args)

    real = fbl._enclosures
    monkeypatch.setattr(fbl, "_ROW_BUDGET", 600)
    required_sinr.cache_clear()
    want = repr(_table_outcome(ch, s1, s2, budget))
    assert _memo_entry(s1, s2) is None
    required_sinr.cache_clear()
    monkeypatch.setattr(fbl, "_enclosures", enclosures)
    for solves in range(1, 4):
        misses = required_sinr.cache_info().misses
        assert repr(solve_tdma(ch, s1, s2, budget)) == want
        assert required_sinr.cache_info().misses - misses <= 4
        assert len(passes) == solves and _memo_entry(s1, s2) is None
    required_sinr.cache_clear()


@pytest.mark.parametrize("d1", [115, 200])
def test_open_enclosures_still_pick_what_full_tables_pick(monkeypatch, d1):
    # Enclosures that say nothing, [0, inf]: the verdict takes the roots at
    # the windows' smallest m, and every split is a candidate, whose roots
    # are found one by one and fill no table.  Both users share one key.
    def nothing(payload_bits, q, m):
        return np.stack((np.zeros(m.shape), np.full(m.shape, np.inf)))

    ch, s1, s2, budget = ChannelPair(0.9, 4.0), spec(d1), spec(300), PowerBudget(1.6)
    want = _table_outcome(ch, s1, s2, budget)
    monkeypatch.setattr(fbl, "_enclosures", nothing)
    required_sinr.cache_clear()
    assert repr(solve_tdma(ch, s1, s2, budget)) == repr(want)
    assert _memo_entry(s1, s2) is tdma._SEEN
    # m1 in 100..d1 and m2 = 300 - m1 in 300 - d1..200
    candidates = set(range(100, d1 + 1)) | set(range(300 - d1, 201))
    assert required_sinr.cache_info().misses == len(candidates)
    required_sinr.cache_clear()


def _warm(s1, s2):
    """Read the window of (s1, s2) until the memo holds its splits: a read
    that grows a row keeps nothing.  Returns them, or None for a window
    without any."""
    lo, hi = tdma._window(s1, s2)
    if lo > hi:
        return None
    for _ in range(3):
        splits = tdma._splits(s1, s2, lo, hi)
        entry = _memo_entry(s1, s2)
        if isinstance(entry, tdma._Splits):
            return entry
        if isinstance(splits, InfeasibleReason):
            return None
    return None


def test_warm_pick_is_pick_over_full_tables():
    # A later solve keeps the first least budget-free energy from the memo's
    # products where the budget keeps it, and calls _pick otherwise: the
    # outcome is that of _pick over full tables, bit for bit, on each branch.
    reached = set()

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(
        g1=st.floats(-307.0, 6.0).map(lambda x: 10.0**x),
        g2=st.floats(-307.0, 6.0).map(lambda x: 10.0**x),
        p_max=st.floats(-8.0, 307.0).map(lambda x: 10.0**x),
        bits=st.tuples(st.integers(1, 3000), st.integers(1, 3000)),
        eps=st.tuples(*[st.floats(-12.0, math.log10(0.999)).map(lambda x: 10.0**x)] * 2),
        m_hat=st.tuples(st.integers(1, 100), st.integers(1, 100)),
        d1=st.integers(0, 300),
        extra=st.integers(0, 300),
        split=st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0)),
    )
    # The budget-free pick kept.
    @example(1e4, 4e4, 1.0, (160, 160), (1e-7, 1e-7), (100, 100), 100, 100, None)
    # The budget rules out the budget-free pick; another split is allowed.
    @example(0.9, 4.0, 1.6, (160, 160), (1e-7, 1e-7), (100, 100), 100, 100, None)
    # No split within the budget.
    @example(1.0, 4.0, 0.1, (160, 160), (1e-7, 1e-7), (100, 100), 100, 100, None)
    # Every split energy overflows.
    @example(1e-306, 2e-306, 1e307, (160, 160), (1e-7, 1e-7), (100, 100), 100, 100, None)
    # The least energy is finite, but overflows in _outcome's order.
    @example(
        1.5550793498883595e-305, 1.8659474530217312e-306, 1e307,
        (160, 160), (1e-7, 1e-7), (100, 100), 100, 100, None,
    )
    def check(g1, g2, p_max, bits, eps, m_hat, d1, extra, split):
        s1 = UserSpec(bits[0], eps[0], m_hat[0] + d1, m_hat[0])
        s2 = UserSpec(bits[1], eps[1], max(s1.deadline, m_hat[1]) + extra, m_hat[1])
        lo, hi = tdma._window(s1, s2)
        if split is not None and lo <= hi:
            # A split, user 2's power there within a decade of user 1's, and
            # the larger of the two as the budget: it binds at that split.
            at, decades = split
            m1 = lo + round(at * (hi - lo))
            try:
                p1 = required_sinr(s1, m1) / g1
                gamma2 = required_sinr(s2, s2.deadline - m1)
            except BracketError:
                pass
            else:
                g2 = min(max(gamma2 / (p1 * 10.0**decades), 1e-307), 1e6)
                p_max = min(max(p1, gamma2 / g2, 1e-8), 1e307)
        ch, budget = ChannelPair(g1, g2), PowerBudget(p_max)
        required_sinr.cache_clear()
        want = _table_outcome(ch, s1, s2, budget)
        entry = _warm(s1, s2)
        if entry is None:  # an empty window, or a verdict for every channel
            return
        picks = []

        def pick(*args):
            picks.append(int(real(*args)))
            return picks[-1]

        real = tdma._pick
        assert _memo_entry(s1, s2) is entry  # a memo hit, not a first solve
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tdma, "_pick", pick)
            got = solve_tdma(ch, s1, s2, budget)
        assert _memo_entry(s1, s2) is entry
        assert repr(got) == repr(want)
        top1, top2 = entry.top
        if not picks:
            branch = "kept"
        elif top1 / g1 + top2 / g2 < math.inf:
            branch = "ruled out" if picks[-1] >= 0 else "none"
        else:
            branch = "may overflow" if picks[-1] >= 0 else "none"
        if not got.feasible and (not picks or picks[-1] >= 0):
            branch = "overflows in _outcome"
        reached.add(branch)
        required_sinr.cache_clear()

    check()
    assert reached >= {"kept", "ruled out", "none", "overflows in _outcome"}


def test_cache_clear_empties_the_memo():
    s1, s2 = spec(200), spec(300)
    required_sinr.cache_clear()
    entry = _warm(s1, s2)
    assert entry is not None and tdma._memo.entries
    required_sinr.cache_clear()
    assert _memo_entry(s1, s2) is None
    # The next read finds every root again, and keeps a new entry.
    again = _warm(s1, s2)
    assert required_sinr.cache_info().misses == 101  # m1 and m2 in 100..200
    assert again is not entry and tdma._memo.entries == {_key(s1, s2): again}
    required_sinr.cache_clear()


def test_row_growth_and_eviction_empty_the_memo():
    s1, s2 = spec(200), spec(300)
    required_sinr.cache_clear()
    assert _warm(s1, s2) is not None
    # The key's row grows past m = 300: the memo's tables would view a
    # row the store replaced.
    required_sinr(s1, 1000)
    assert _memo_entry(s1, s2) is None
    # A window whose own tables grow a row is not kept either.
    far = spec(1300)
    assert not isinstance(tdma._splits(s1, far, *tdma._window(s1, far)), InfeasibleReason)
    assert _key(s1, far) not in tdma._memo.entries
    other = spec(600, error_target=1e-5)
    fbl.required_sinr_table(other, 100, 600)
    assert _warm(s1, s2) is not None
    with pytest.MonkeyPatch.context() as patch:
        # A store of 601 entries drops its oldest grown row, this key's,
        # without growing any.
        patch.setattr(fbl, "_ROW_BUDGET", 601)
        fbl._row((other.payload_bits, other.error_target), 1)
        assert list(fbl._SINR_ROWS) == [(other.payload_bits, other.error_target)]
        assert _memo_entry(s1, s2) is None
    required_sinr.cache_clear()


def test_memo_holds_at_most_the_row_budget():
    # Windows of 11 to 301 splits under a budget of 1200: the oldest go,
    # the newest stay, and a window that reaches the budget is never kept.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fbl, "_ROW_BUDGET", 1200)
        required_sinr.cache_clear()
        s2 = spec(500)
        windows = [(spec(d1), s2) for d1 in range(110, 401, 30)]
        for s1, _ in windows:
            assert _warm(s1, s2) is not None
            memo = tdma._memo
            held = sum(len(splits[0]) for splits in memo.entries.values())
            assert memo.held == held <= 1200
        assert len(memo.entries) < len(windows)
        assert list(memo.entries)[-1] == _key(*windows[-1])
        far = spec(1300)
        assert _warm(spec(200), far) is None
        required_sinr.cache_clear()


def test_a_hit_counts_both_table_slices():
    ch, s1, s2, budget = ChannelPair(1e4, 4e4), spec(200), spec(300), PowerBudget(1.0)
    required_sinr.cache_clear()
    want = solve_tdma(ch, s1, s2, budget)  # the key's first solve
    entry = _warm(s1, s2)
    before = required_sinr.cache_info()
    assert repr(solve_tdma(ch, s1, s2, budget)) == repr(want)
    after = required_sinr.cache_info()
    assert after.hits == before.hits + 2 * len(entry[0]) == before.hits + 202
    assert after.misses == before.misses
    required_sinr.cache_clear()


def test_warm_solves_under_threads():
    # Three threads solve warm windows while a fourth grows and drops rows
    # of other keys in a 1,500-entry store, switching every microsecond:
    # nothing raises, every outcome is the one solved alone, and the memo
    # stays within its budget.
    budgets = [PowerBudget(p) for p in (0.1, 1.0, 10.0)]
    instances = [
        (ChannelPair(g1, g2), spec(d1), spec(300), budget)
        for d1 in (120, 160, 200, 250)
        for g1, g2 in ((1e4, 4e4), (0.9, 4.0), (3.0, 1.0))
        for budget in budgets
    ]
    others = [spec(700, payload_bits=bits) for bits in (40, 80, 320)]
    errors = []

    def solve(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                i = rng.randrange(len(instances))
                assert repr(solve_tdma(*instances[i])) == want[i]
        except Exception as exc:  # raised again in the main thread
            errors.append(exc)

    def churn():
        rng = random.Random(99)
        try:
            for _ in range(300):
                other = rng.choice(others)
                m = rng.randint(100, 690)
                fbl.required_sinr_table(other, m, m + rng.randint(0, 10))
        except Exception as exc:
            errors.append(exc)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fbl, "_ROW_BUDGET", 1500)
        required_sinr.cache_clear()
        want = [repr(solve_tdma(*instance)) for instance in instances]
        for _, s1, s2, _ in instances:
            _warm(s1, s2)
        generation = fbl._generation[0]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(seed,)) for seed in range(3)]
            threads.append(threading.Thread(target=churn))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert fbl._generation[0] > generation  # rows did grow and go
        memo = tdma._memo  # splits and marks alike, by their windows
        assert memo.held == sum(hi - lo + 1 for *_, lo, hi in memo.entries) <= 1500
        required_sinr.cache_clear()


def test_windows_past_the_cap_are_refused_before_allocating():
    s1 = spec(100 + tdma._WINDOW_CAP - 1)
    s2 = spec(s1.deadline + 100)
    assert tdma._window(s1, s2) == (100, 100 + tdma._WINDOW_CAP - 1)
    huge = spec(2**53)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than 524288 splits"):
            solve_tdma(ChannelPair(1e4, 4e4), spec(2**53 - 100), huge, PowerBudget(1.0))
        with pytest.raises(ValueError, match="splits"):
            tdma._columns([spec(2**53 - 100)], huge, np.ones(2), np.ones(2), [1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError):
        tdma._window(spec(100 + tdma._WINDOW_CAP), spec(2 * tdma._WINDOW_CAP))


def _per_window(s1, s2, g1, g2, p_maxes):
    """One window's splits and, per budget, each draw's split index and
    energy, from tdma._pick on the window's own splits: budget-free, then
    under the budget for the draws whose budget-free split it rules out;
    the energy and an overflow to -1 as _outcome reports them."""
    m1_lo, m1_hi = tdma._window(s1, s2)
    none = (np.full(len(g1), -1), np.full(len(g1), np.nan))
    if m1_lo > m1_hi:
        return InfeasibleReason.BLOCKLENGTH_WINDOW_EMPTY, [none] * len(p_maxes)
    splits = tdma._splits(s1, s2, m1_lo, m1_hi)
    if isinstance(splits, InfeasibleReason):
        return splits, [none] * len(p_maxes)
    _, _, gamma1, gamma2 = splits
    free = tdma._pick(splits, g1[:, None], g2[:, None])
    columns = []
    for p_max in p_maxes:
        with np.errstate(over="ignore"):
            allowed = (gamma1[free] <= p_max * g1) & (gamma2[free] <= p_max * g2)
        again = tdma._pick(splits, g1[:, None], g2[:, None], p_max)
        best = np.where((free >= 0) & allowed, free, again)
        outcomes = [
            tdma._outcome(splits, int(b), ChannelPair(float(a), float(c)))
            for b, a, c in zip(best, g1, g2)
        ]
        energy = np.array([out.energy if out.feasible else np.nan for out in outcomes])
        columns.append((np.where(np.isnan(energy), -1, best), energy))
    return splits, columns


_GAIN = st.one_of(st.floats(2.0, 6.0), st.floats(-307.0, 6.0)).map(lambda x: 10.0**x)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(
    d2=st.integers(150, 400),
    d1s=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    bits2=st.sampled_from([160, 3000, 60000]),
    gains=st.lists(st.tuples(_GAIN, _GAIN), min_size=1, max_size=8),
    pmax_dbms=st.lists(st.floats(-5.0, 5.0) | st.floats(-50.0, 3100.0), min_size=1, max_size=3),
    chunk=st.sampled_from([1, 7, 250, tdma._CHUNK_ELEMENTS]),
    trap=st.none() | st.floats(0.0, 1.0),
)
# Windows m1 = 100..110 and 100..200: the narrow one's energies all
# overflow on the first draw, while the wide one's splits past m1 = 150 stay
# finite.
@example(300, [0.05, 0.5], 160, [(1e4, 4e4)], [20.0], 1, 0.5)
# Every window empty (d2 - 100 < 100).
@example(190, [0.0, 1.0], 160, [(1e4, 4e4)], [20.0], 7, None)
# User 2's smallest m2 of 100 is rate-unreachable at 60000 bits, of 200 not:
# the wide windows are a verdict, the narrow ones are picked.
@example(300, [0.0, 0.3, 1.0], 60000, [(1e4, 1e6), (1e6, 1e4)], [-5.0, 3100.0], 250, None)
# Budgets that rule out budget-free splits and leave others, on several
# windows, d1 >= d2 - 100 twice.
@example(
    300, [0.1, 0.4, 0.9, 1.0], 160,
    [(2.1e4, 4.67e3), (5.36e3, 9.72e3), (4.02e3, 1.62e3), (9.38e3, 5.14e4), (2e2, 5e4)],
    [-5.0, 0.0, 5.0], 7, None,
)
# The one split's energy is finite as _pick weighs it and overflows as
# _outcome reports it: over budget.
@example(
    200, [0.0], 160, [(3.3957641274877783e-305, 2.4106225536608306e-306)], [3110.0], 1, None
)
def test_columns_of_every_window_are_the_pick_per_window(
    d2, d1s, bits2, gains, pmax_dbms, chunk, trap
):
    # One pass over the widest window decides every window, draw by draw
    # and budget by budget, as tdma._pick on each window alone does.
    s1s = [spec(100 + round(x * (d2 - 100))) for x in d1s]
    s2 = spec(d2, payload_bits=bits2)
    g1, g2 = (np.array(column) for column in zip(*gains))
    windows = [tdma._window(s1, s2) for s1 in s1s]
    if trap is not None:
        # The first draw's g1 puts the budget-free energies past the float
        # range for the splits whose m1 * gamma1 exceeds that at a chosen
        # split of the widest window.
        m1_lo, m1_hi = max(windows, key=lambda w: w[1])
        widest = m1_lo <= m1_hi and tdma._splits(s1s[0], s2, m1_lo, m1_hi)
        if isinstance(widest, tdma._Splits):
            a1 = widest.a1[round(trap * (len(widest.a1) - 1))]
            g1[0], g2[0] = a1 / 1.79e308, 1e6
    p_maxes = [dbm_to_watts(p) for p in pmax_dbms]
    with mock.patch.object(tdma, "_CHUNK_ELEMENTS", chunk):
        columns = tdma._columns(s1s, s2, g1, g2, p_maxes)
    assert list(columns) == list(dict.fromkeys(windows))
    for s1, window in zip(s1s, windows):
        splits, per_budget = columns[window]
        want_splits, want = _per_window(s1, s2, g1, g2, p_maxes)
        if isinstance(want_splits, InfeasibleReason):
            assert splits == want_splits
        else:
            assert all(np.array_equal(a, b) for a, b in zip(splits, want_splits))
        for (best, energy), (want_best, want_energy) in zip(per_budget, want):
            assert best.dtype == np.int32
            assert np.array_equal(best, want_best)
            assert energy.tobytes() == want_energy.tobytes()


def test_columns_take_specs_that_differ_only_in_deadline():
    s2 = spec(300)
    with pytest.raises(ValueError, match="deadlines"):
        tdma._columns([spec(150), spec(200, payload_bits=320)], s2, np.ones(2), np.ones(2), [1.0])
