"""Superposed-transmission solvers: closed forms vs brute force, verdicts."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noma_fbl import (
    ChannelPair,
    InfeasibleReason,
    PowerBudget,
    Scheme,
    UserSpec,
    dbm_to_watts,
    order_by_deadline,
    overall_sic_error,
    rate_deficit,
    required_sinr,
    sic_stage_error,
    solve_noma,
    solve_sic_rx1,
    solve_sic_rx2,
    solve_tin,
)
from noma_fbl.noma import (
    _VERDICT_PRECEDENCE,
    _noma_columns,
    _noma_outcome,
    _powers_sic_rx1,
    _powers_sic_rx2,
    _powers_tin,
    _requirements,
)

from oracles import grid_min_energy, noma_reference, random_feasible_instances

S160 = dict(payload_bits=160, error_target=1e-7)


def spec(deadline: int, **overrides) -> UserSpec:
    return UserSpec(**{**S160, "deadline": deadline, **overrides})


class TestSicErrorComposition:
    def test_overall_from_stages(self):
        assert overall_sic_error(1e-7, 1e-7) == pytest.approx(1.9999999e-7, rel=1e-12)

    def test_round_trip_overall(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            e1 = 10.0 ** rng.uniform(-10, -1)
            overall = e1 * (1.0 + 10.0 ** rng.uniform(-6, 3))
            if overall >= 1.0:
                continue
            cond = sic_stage_error(e1, overall)
            back = overall_sic_error(e1, cond)
            assert abs(back - overall) / overall <= 1e-15

    def test_stage_error_requires_room(self):
        with pytest.raises(ValueError):
            sic_stage_error(1e-7, 1e-7)


class TestPowerMaps:
    def test_sic_rx2_zero_interference_limit(self):
        # with no power spent on user 2, user 1 sees a clean channel
        p1, p2 = _powers_sic_rx2(2.0, 0.0, 0.5, 4.0)
        assert p2 == 0.0
        assert p1 == 2.0 / 0.5

    def test_sic_rx2_near_zero_payload_user2(self):
        # tiny payload for user 2: its power fades out and user 1's power
        # approaches the clean single-user value gamma1/g1
        ch = ChannelPair(1.0, 4.0)
        s2 = spec(3000, payload_bits=1)
        out = solve_sic_rx2(ch, spec(200), s2, PowerBudget(10.0))
        gamma1 = required_sinr(spec(200), 200)
        assert out.feasible
        assert out.allocation.p2 < 0.01
        assert out.allocation.p1 == pytest.approx(gamma1 / ch.g1, rel=1e-2)

    def test_tin_round_trip_sinr_maps(self):
        g1, g2 = 4.0, 1.0
        gamma1, gamma2 = 0.9, 0.7
        p1, p2 = _powers_tin(gamma1, gamma2, g1, g2)
        assert p1 * g1 / (p2 * g1 + 1.0) == pytest.approx(gamma1, abs=1e-9)
        assert p2 * g2 / (p1 * g2 + 1.0) == pytest.approx(gamma2, abs=1e-9)

    def test_sic_rx1_round_trip_sinr_maps(self):
        g1, g2 = 4.0, 1.0
        gamma1, gamma2 = 1.3, 0.8
        p1, p2 = _powers_sic_rx1(gamma1, gamma2, g1, g2)
        assert p1 * g1 == pytest.approx(gamma1, abs=1e-12)
        assert p2 * g2 / (p1 * g2 + 1.0) == pytest.approx(gamma2, abs=1e-9)


def assert_constraints(outcome, ch, s1, s2, budget, scheme):
    """Every returned allocation satisfies its formulation's constraints."""
    a = outcome.allocation
    assert a.p1 >= 0.0 and a.p2 >= 0.0
    assert a.p1 + a.p2 <= budget.p_max + 1e-12
    assert a.energy == a.m1 * a.p1 + a.m2 * a.p2
    assert s1.min_blocklength <= a.m1 <= s1.deadline
    if scheme == Scheme.SIC_RX1:
        assert a.m2 <= a.m1
    else:
        assert s2.min_blocklength <= a.m2 <= s2.deadline
    # blocklengths deliver the payloads at the allocated SINRs
    assert abs(rate_deficit(a.m1, a.gamma1, s1)) <= 1e-8
    assert abs(rate_deficit(a.m2, a.gamma2, s2)) <= 1e-8
    # SINR maps hold for the stored powers
    if scheme == Scheme.SIC_RX2:
        assert a.gamma1 == pytest.approx(a.p1 * ch.g1 / (a.p2 * ch.g1 + 1), rel=1e-8)
        assert a.gamma2 == pytest.approx(a.p2 * ch.g2, rel=1e-8)
    elif scheme == Scheme.TIN:
        assert a.gamma1 == pytest.approx(a.p1 * ch.g1 / (a.p2 * ch.g1 + 1), rel=1e-8)
        assert a.gamma2 == pytest.approx(a.p2 * ch.g2 / (a.p1 * ch.g2 + 1), rel=1e-8)
    elif scheme == Scheme.SIC_RX1:
        assert a.gamma1 == pytest.approx(a.p1 * ch.g1, rel=1e-8)
        assert a.gamma2 == pytest.approx(a.p2 * ch.g2 / (a.p1 * ch.g2 + 1), rel=1e-8)


class TestSolveSicRx2:
    CH = ChannelPair(1.0, 4.0)

    def test_instance_against_grid_oracle(self):
        s1, s2 = spec(200), spec(300)
        budget = PowerBudget(2.5)
        out = solve_sic_rx2(self.CH, s1, s2, budget)
        assert out.feasible
        assert_constraints(out, self.CH, s1, s2, budget, Scheme.SIC_RX2)
        oracle = grid_min_energy("sic_rx2", self.CH.g1, self.CH.g2, s1, s2, 2.5)
        assert out.energy <= oracle * 1.005
        assert out.energy >= oracle * 0.995

    def test_blocklengths_sit_at_deadlines(self):
        out = solve_sic_rx2(self.CH, spec(200), spec(300), PowerBudget(2.5))
        assert (out.allocation.m1, out.allocation.m2) == (200.0, 300.0)

    def test_one_watt_budget_is_short(self):
        # this instance needs p1 + p2 = 1.96 W, so 1 W cannot serve it
        out = solve_sic_rx2(self.CH, spec(200), spec(300), PowerBudget(1.0))
        assert not out.feasible
        oracle = grid_min_energy("sic_rx2", self.CH.g1, self.CH.g2, spec(200), spec(300), 1.0)
        assert oracle == np.inf

    def test_budget_just_below_requirement(self):
        out = solve_sic_rx2(self.CH, spec(200), spec(300), PowerBudget(2.5))
        need = out.allocation.p1 + out.allocation.p2
        short = solve_sic_rx2(self.CH, spec(200), spec(300), PowerBudget(need * 0.99))
        assert short.verdict == InfeasibleReason.POWER_BUDGET_EXCEEDED

    def test_reports_end_to_end_error(self):
        out = solve_sic_rx2(self.CH, spec(200), spec(300), PowerBudget(2.5))
        assert out.allocation.sic_overall_error == pytest.approx(
            overall_sic_error(1e-7, 1e-7), rel=1e-12
        )

    def test_rejects_wrong_channel_order(self):
        with pytest.raises(ValueError):
            solve_sic_rx2(ChannelPair(4.0, 1.0), spec(200), spec(300), PowerBudget(2.5))

    def test_rejects_wrong_deadline_order(self):
        with pytest.raises(ValueError):
            solve_sic_rx2(self.CH, spec(300), spec(200), PowerBudget(2.5))


class TestSolveTin:
    CH = ChannelPair(4.0, 1.0)

    def test_instance_against_grid_oracle(self):
        s1, s2 = spec(300), spec(400)
        budget = PowerBudget(4.0)
        out = solve_tin(self.CH, s1, s2, budget)
        assert out.feasible
        assert_constraints(out, self.CH, s1, s2, budget, Scheme.TIN)
        oracle = grid_min_energy("tin", self.CH.g1, self.CH.g2, s1, s2, 4.0)
        assert out.energy <= oracle * 1.005
        assert out.energy >= oracle * 0.995

    def test_short_deadlines_hit_sinr_product_wall(self):
        # required SINRs at 200/300 uses multiply to 1.24 >= 1
        out = solve_tin(self.CH, spec(200), spec(300), PowerBudget(100.0))
        assert out.verdict == InfeasibleReason.SIC_PRODUCT_GE_ONE
        oracle = grid_min_energy(
            "tin", self.CH.g1, self.CH.g2, spec(200), spec(300), 100.0, n_points=500
        )
        assert oracle == np.inf

    def test_product_wall_crossed_by_deadline_shrink(self):
        budget = PowerBudget(100.0)
        verdicts = []
        for d1 in (450, 400, 350, 300, 250, 200, 150, 100):
            out = solve_tin(self.CH, spec(d1), spec(d1 + 100), budget)
            verdicts.append(out.verdict)
        assert verdicts[0] is None  # long deadlines: feasible
        assert InfeasibleReason.SIC_PRODUCT_GE_ONE in verdicts


class TestSolveSicRx1:
    CH = ChannelPair(4.0, 1.0)

    def test_instance_against_grid_oracle(self):
        s1, s2 = spec(200), spec(300)
        budget = PowerBudget(4.0)
        out = solve_sic_rx1(self.CH, s1, s2, budget)
        assert out.feasible
        assert_constraints(out, self.CH, s1, s2, budget, Scheme.SIC_RX1)
        oracle = grid_min_energy("sic_rx1", self.CH.g1, self.CH.g2, s1, s2, 4.0)
        assert out.energy <= oracle * 1.005
        assert out.energy >= oracle * 0.995

    def test_both_blocklengths_at_short_deadline(self):
        out = solve_sic_rx1(self.CH, spec(200), spec(300), PowerBudget(4.0))
        assert (out.allocation.m1, out.allocation.m2) == (200.0, 200.0)

    def test_independent_of_user2_deadline(self):
        a = solve_sic_rx1(self.CH, spec(200), spec(201), PowerBudget(4.0))
        b = solve_sic_rx1(self.CH, spec(200), spec(2000), PowerBudget(4.0))
        assert a.allocation == b.allocation

    def test_window_empty_when_min_blocklength_exceeds_d1(self):
        s2 = spec(300, min_blocklength=250)
        out = solve_sic_rx1(self.CH, spec(200), s2, PowerBudget(4.0))
        assert out.verdict == InfeasibleReason.BLOCKLENGTH_WINDOW_EMPTY

    def test_rejects_wrong_channel_order(self):
        with pytest.raises(ValueError):
            solve_sic_rx1(ChannelPair(1.0, 4.0), spec(200), spec(300), PowerBudget(4.0))


class TestDispatcher:
    def test_passthrough_weak_first(self):
        ch = ChannelPair(1.0, 4.0)
        direct = solve_sic_rx2(ch, spec(200), spec(300), PowerBudget(2.5))
        routed = solve_noma(ch, spec(200), spec(300), PowerBudget(2.5))
        assert routed.allocation == direct.allocation

    def test_close_deadlines_prefer_sic(self):
        out = solve_noma(ChannelPair(4.0, 1.0), spec(400), spec(401), PowerBudget(2.5))
        assert out.allocation.scheme == Scheme.SIC_RX1

    def test_long_tail_deadline_prefers_tin(self):
        out = solve_noma(ChannelPair(4.0, 1.0), spec(400), spec(4000), PowerBudget(2.5))
        assert out.allocation.scheme == Scheme.TIN

    def test_choice_is_energy_min_of_both(self):
        ch = ChannelPair(4.0, 1.0)
        budget = PowerBudget(2.5)
        for d2 in (401, 800, 2000, 4000):
            s1, s2 = spec(400), spec(d2)
            tin = solve_tin(ch, s1, s2, budget)
            sic = solve_sic_rx1(ch, s1, s2, budget)
            best = min(o.energy for o in (tin, sic) if o.feasible)
            assert solve_noma(ch, s1, s2, budget).energy == best

    def test_relabels_users_by_deadline(self):
        ch = ChannelPair(4.0, 1.0)
        swapped = solve_noma(ch, spec(300), spec(200), PowerBudget(2.5))
        straight = solve_noma(ChannelPair(1.0, 4.0), spec(200), spec(300), PowerBudget(2.5))
        assert swapped.relabeled
        assert swapped.allocation == straight.allocation

    def test_deadline_tie_weak_channel_becomes_user1(self):
        ch, s1, s2, relabeled = order_by_deadline(
            ChannelPair(4.0, 1.0), spec(300), spec(300)
        )
        assert relabeled and (ch.g1, ch.g2) == (1.0, 4.0)
        out = solve_noma(ChannelPair(4.0, 1.0), spec(300), spec(300), PowerBudget(2.5))
        assert out.relabeled
        assert out.allocation.scheme == Scheme.SIC_RX2

    def test_aggregated_verdicts_when_all_fail(self):
        out = solve_noma(ChannelPair(4.0, 1.0), spec(200), spec(300), PowerBudget(1.7))
        assert not out.feasible
        assert out.sub_verdicts is not None
        assert dict(out.sub_verdicts).keys() == {Scheme.TIN, Scheme.SIC_RX1}

    def test_huge_gain_needs_sinr_beyond_float_bisection_tolerance(self):
        # the required SINR of user 1 is ~1.8e9, where adjacent doubles are
        # further apart than the bisection tolerance
        s1 = UserSpec(3000, 1e-7, 100)
        out = solve_noma(
            ChannelPair(1e12, 1e12), s1, UserSpec(160, 1e-7, 300), PowerBudget(1e3)
        )
        assert out.feasible
        assert rate_deficit(out.allocation.m1, out.allocation.gamma1, s1) <= 1e-9

    def test_switch_happens_at_most_once_along_d2(self):
        ch = ChannelPair(4.0, 1.0)
        budget = PowerBudget(2.5)
        schemes = []
        for d2 in range(401, 4001, 25):
            out = solve_noma(ch, spec(400), spec(d2), budget)
            assert out.feasible
            schemes.append(out.allocation.scheme)
        switches = sum(1 for a, b in zip(schemes, schemes[1:]) if a != b)
        assert schemes[0] == Scheme.SIC_RX1
        assert schemes[-1] == Scheme.TIN
        assert switches == 1


class TestDeadlineOptimality:
    """Backing off any blocklength from its deadline never saves energy."""

    def energy_at(self, scheme, ch, s1, s2, m1, m2):
        gamma1 = required_sinr(s1, m1)
        gamma2 = required_sinr(s2, m2)
        if scheme == Scheme.SIC_RX2:
            p1, p2 = _powers_sic_rx2(gamma1, gamma2, ch.g1, ch.g2)
        else:
            if gamma1 * gamma2 >= 1.0:
                return np.inf
            p1, p2 = _powers_tin(gamma1, gamma2, ch.g1, ch.g2)
        return m1 * p1 + m2 * p2

    @pytest.mark.parametrize(
        "scheme,ch",
        [(Scheme.SIC_RX2, ChannelPair(1.0, 4.0)), (Scheme.TIN, ChannelPair(2.0, 1.0))],
    )
    def test_perturbations_increase_energy(self, scheme, ch):
        s1, s2 = spec(300), spec(420)
        budget = PowerBudget(50.0)
        solver = solve_sic_rx2 if scheme == Scheme.SIC_RX2 else solve_tin
        out = solver(ch, s1, s2, budget)
        assert out.feasible
        for delta in (1, 5, 25):
            for m1, m2 in [
                (s1.deadline - delta, s2.deadline),
                (s1.deadline, s2.deadline - delta),
                (s1.deadline - delta, s2.deadline - delta),
            ]:
                perturbed = self.energy_at(scheme, ch, s1, s2, m1, m2)
                assert perturbed >= out.energy - 1e-9


class TestOracleEquivalenceSample:
    """Small randomized oracle sweep; the full 50-instance runs live in the
    acceptance suite."""

    @pytest.mark.parametrize(
        "regime,solver,scheme,enum",
        [
            ("weak-first", solve_sic_rx2, "sic_rx2", Scheme.SIC_RX2),
            ("strong-first", solve_tin, "tin", Scheme.TIN),
            ("strong-first", solve_sic_rx1, "sic_rx1", Scheme.SIC_RX1),
        ],
    )
    def test_closed_form_matches_grid(self, regime, solver, scheme, enum):
        rng = np.random.default_rng(5)
        for ch, s1, s2, budget, out in random_feasible_instances(
            rng, regime, 6, solver
        ):
            assert_constraints(out, ch, s1, s2, budget, enum)
            oracle = grid_min_energy(scheme, ch.g1, ch.g2, s1, s2, budget.p_max)
            assert out.energy <= oracle * 1.005
            assert out.energy >= oracle * 0.995


class TestMatchesReference:
    """Every formulation, one draw at a time and in columns, against the
    plain linear solve of oracles.noma_reference.  The scalar and the
    column paths share one kernel, so comparing them with each other cannot
    see a bug in it; this can."""

    SCHEMES = ("sic_rx2", "tin", "sic_rx1")
    #: Relative distance of p1 + p2 from p_max within which the two routes'
    #: rounding may put a draw on either side of the budget.
    BAND = 1e-9

    def in_band(self, total, p_max):
        return abs(total - p_max) <= self.BAND * p_max

    def check(self, p_max, verdict, reference, energy=None):
        """verdict as the reference gives it, and energy (when given) within
        rel 1e-12 of the reference's where both are feasible."""
        want, want_energy, total = reference
        if self.in_band(total, p_max):
            assert verdict in (None, InfeasibleReason.POWER_BUDGET_EXCEEDED)
        else:
            assert verdict == want
        if energy is not None and verdict is None and want is None:
            assert energy == pytest.approx(want_energy, rel=1e-12)

    def winners(self, p_max, g1, g2, references):
        """solve_noma's rule applied to the reference: the winners it allows
        (near-equal energies allow both), or None when a candidate sits in
        the budget band."""
        feasible = []
        for k in (0,) if g1 <= g2 else (1, 2):
            want, energy, total = references[k]
            if self.in_band(total, p_max):
                return None
            if want is None:
                feasible.append((energy, k))
        if not feasible:
            return {-1}
        least = min(feasible)[0]
        return {k for energy, k in feasible if energy <= least * (1.0 + 1e-12)}

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(
        g1=st.floats(-307.0, 6.0).map(lambda x: 10.0**x),
        g2=st.floats(-307.0, 6.0).map(lambda x: 10.0**x),
        pmax_dbm=st.floats(-50.0, 3100.0),
        bits=st.tuples(st.integers(1, 3000), st.integers(1, 3000)),
        eps=st.tuples(*[st.floats(-12.0, math.log10(0.4)).map(lambda x: 10.0**x)] * 2),
        d1=st.integers(100, 600),
        extra=st.integers(0, 400),
        binding=st.none() | st.tuples(st.integers(0, 2), st.floats(-0.5, 0.5)),
    )
    @example(1.0, 4.0, 30.0, (160, 160), (1e-7, 1e-7), 200, 100, None)
    @example(4.0, 1.0, 30.0, (160, 160), (1e-7, 1e-7), 200, 100, (2, -0.1))
    # Past the doubling's limit: every row rate-unreachable without gains.
    @example(4.0, 1.0, 30.0, (10**6, 160), (1e-7, 1e-7), 200, 100, None)
    def test_formulations_match_plain_solve(
        self, g1, g2, pmax_dbm, bits, eps, d1, extra, binding
    ):
        s1 = UserSpec(bits[0], eps[0], d1)
        s2 = UserSpec(bits[1], eps[1], d1 + extra)
        p_max = dbm_to_watts(pmax_dbm)
        if binding is not None:
            # The budget within half a decade of the power one formulation
            # needs on (g1, g2), so that it binds there.
            k, decades = binding
            _, _, total = noma_reference(self.SCHEMES[k], g1, g2, s1, s2, math.inf)
            if 0.0 < total < math.inf:
                p_max = min(max(total * 10.0**decades, 1e-300), 1e307)
        winner, codes, energy = _noma_columns(
            np.array([g1, g2]), np.array([g2, g1]), s1, s2, p_max
        )
        pairs = [(g1, g2), (g2, g1)]
        if s1.deadline == s2.deadline:  # the columns put the weaker channel first
            pairs = [(min(g1, g2), max(g1, g2))] * 2
        for i, (a, b) in enumerate(pairs):
            references = [
                noma_reference(scheme, a, b, s1, s2, p_max) for scheme in self.SCHEMES
            ]
            solvers = {0: solve_sic_rx2, 1: solve_tin, 2: solve_sic_rx1}
            if a > b:
                del solvers[0]
            if a < b:
                del solvers[2]
            for k in range(3):
                code = int(codes[k, i])
                verdict = None if code < 0 else _VERDICT_PRECEDENCE[code]
                self.check(p_max, verdict, references[k])
                if k in solvers:
                    out = solvers[k](ChannelPair(a, b), s1, s2, PowerBudget(p_max))
                    e = out.allocation.energy if out.feasible else None
                    self.check(p_max, out.verdict, references[k], e)
            allowed = self.winners(p_max, a, b, references)
            if allowed is not None:
                assert int(winner[i]) in allowed
            if winner[i] >= 0:
                self.check(p_max, None, references[winner[i]], energy[i])

    @pytest.mark.parametrize("g1,g2", [(1e-161, 1e-162), (1e-162, 1e-163)])
    def test_tin_loses_precision_below_the_normal_range(self, g1, g2):
        # A product of 1e-323 would keep a few bits (an energy 38% low), and
        # one of 1e-325 underflow to 0 (a feasible draw over budget): tin
        # divides each map by its gain there instead.
        s1, s2, p_max = spec(200), spec(500), 1e250
        reference = noma_reference("tin", g1, g2, s1, s2, p_max)
        out = solve_tin(ChannelPair(g1, g2), s1, s2, PowerBudget(p_max))
        e = out.allocation.energy if out.feasible else None
        self.check(p_max, out.verdict, reference, e)
        # The column form's tin verdict too.
        _, codes, _ = _noma_columns(np.array([g1]), np.array([g2]), s1, s2, p_max)
        code = int(codes[1, 0])
        self.check(p_max, None if code < 0 else _VERDICT_PRECEDENCE[code], reference)

    @pytest.mark.parametrize(
        "s1,s2",
        [
            # required_sinr(s1, D1) is past the doubling's limit: every row
            # is rate-unreachable, whatever the gains.
            (spec(200, payload_bits=10**6), spec(300)),
            # m2 = D1 is below user 2's minimum: sic-rx1's window is empty.
            (spec(200), spec(300, min_blocklength=250)),
        ],
        ids=["bracket-error", "sic-rx1-window-empty"],
    )
    def test_gain_free_verdicts_in_columns(self, s1, s2):
        # A verdict that needs no gains is one code for a whole column; the
        # outcomes rebuilt from the columns are solve_noma's, draw by draw.
        g1, g2 = np.array([1e4, 4e4, 1e-3, 1e6]), np.array([4e4, 1e4, 1e6, 1e-3])
        p_max = 1.0
        winner, codes, energy = _noma_columns(g1, g2, s1, s2, p_max)
        needs = _requirements(s1, s2)
        gain_free = [k for k, need in enumerate(needs) if isinstance(need, int)]
        assert gain_free
        for k in gain_free:
            assert (codes[k] == needs[k]).all()
        for i in range(len(g1)):
            ch = ChannelPair(float(g1[i]), float(g2[i]))
            want = solve_noma(ch, s1, s2, PowerBudget(p_max))
            got = _noma_outcome(int(winner[i]), codes[:, i].tolist(), ch, s1, s2, needs)
            assert got == want
            if want.feasible:
                assert energy[i] == want.energy
            else:
                assert math.isnan(energy[i])


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    gains=st.lists(
        st.tuples(*[st.floats(-307.0, 6.0).map(lambda x: 10.0**x)] * 2), min_size=1, max_size=8
    ),
    pmax_dbms=st.lists(st.floats(-50.0, 3100.0), min_size=1, max_size=4),
    bits=st.tuples(st.integers(1, 3000), st.integers(1, 3000)),
    d1=st.integers(100, 600),
    extra=st.integers(0, 400),
)
# A deadline tie: the weaker channel becomes user 1 in every draw.
@example([(4e4, 1e4), (1e4, 4e4)], [20.0, 30.0], (160, 160), 200, 0)
# tin's g1*g2 underflows: its divided form.
@example([(3e-307, 2e-307), (1e-161, 1e-162)], [3100.0, 2500.0], (160, 160), 200, 300)
# Energies past the float range: over budget.
@example([(1e-306, 2e-306), (2e-307, 2e-307)], [3100.0, 30.0], (160, 160), 200, 300)
def test_budget_column_is_each_budget_alone(gains, pmax_dbms, bits, d1, extra):
    # Every budget of a column at once gives what a call per budget gives,
    # bit for bit.
    s1, s2 = spec(d1, payload_bits=bits[0]), spec(d1 + extra, payload_bits=bits[1])
    g1, g2 = (np.array(column) for column in zip(*gains))
    p_maxes = [dbm_to_watts(p) for p in pmax_dbms]
    winner, codes, energy = _noma_columns(g1, g2, s1, s2, np.array(p_maxes)[:, None])
    assert winner.shape == energy.shape == (len(p_maxes), len(g1))
    assert codes.shape == (3, len(p_maxes), len(g1))
    for k, p_max in enumerate(p_maxes):
        alone = _noma_columns(g1, g2, s1, s2, p_max)
        for column, want in zip((winner[k], codes[:, k], energy[k]), alone):
            assert column.dtype == want.dtype
            assert column.tobytes() == want.tobytes()
