"""Finite-blocklength rate model: closed-form inverse, bisection, energy curve."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noma_fbl import (
    BracketError,
    ENERGY_MONOTONE_THRESHOLD,
    UserSpec,
    achievable_rate,
    blocklength_for_sinr,
    energy_curve,
    energy_monotone,
    q_inv,
    rate_deficit,
    required_sinr,
    sinr_for_blocklength,
)
from noma_fbl import fbl
from noma_fbl.fbl import required_sinr_table

from oracles import blocklength_by_bracketing, rate_by_quadrature, sinr_by_bracketing

SPEC_160 = UserSpec(payload_bits=160, error_target=1e-7, deadline=10**6)
SPEC_SHANNON = UserSpec(
    payload_bits=160, error_target=0.5, deadline=10**6, min_blocklength=1
)


def unconstrained(payload_bits: int, eps: float) -> UserSpec:
    """Spec with no effective blocklength window, for pure rate-model tests."""
    return UserSpec(
        payload_bits=payload_bits, error_target=eps, deadline=10**7, min_blocklength=1
    )


class TestAchievableRate:
    def test_eps_half_recovers_shannon(self):
        for m in (10.0, 100.0, 1e5):
            assert achievable_rate(m, 3.0, 0.5) == pytest.approx(2.0, abs=1e-14)

    def test_dispersion_vanishes_at_huge_blocklength(self):
        assert achievable_rate(1e12, 1.0, 1e-7) == pytest.approx(1.0, abs=1e-5)

    def test_matches_independent_recomputation(self):
        # oracle: direct substitution with the quadrature-based inverse tail
        want = rate_by_quadrature(100.0, 10.0, 1e-7)
        assert want == pytest.approx(2.7124318057887233, abs=1e-9)
        assert achievable_rate(100.0, 10.0, 1e-7) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("m,gamma", [(0.0, 1.0), (-5.0, 1.0), (10.0, 0.0), (10.0, -1.0)])
    def test_domain_errors(self, m, gamma):
        with pytest.raises(ValueError):
            achievable_rate(m, gamma, 1e-7)


class TestRateDeficit:
    def test_shannon_zero_at_exact_fit(self):
        # 80 uses * log2(1+3) = 160 bits
        assert rate_deficit(80.0, 3.0, SPEC_SHANNON) == pytest.approx(0.0, abs=1e-14)

    def test_zero_at_closed_form_blocklength(self):
        m = blocklength_for_sinr(10.0, SPEC_160)
        assert abs(rate_deficit(m, 10.0, SPEC_160)) <= 1e-9

    def test_surplus_is_negative(self):
        spec = UserSpec(payload_bits=160, error_target=1e-6, deadline=10**6)
        assert rate_deficit(100.0, 100.0, spec) < 0.0


class TestBlocklengthForSinr:
    def test_shannon_case(self):
        assert blocklength_for_sinr(3.0, SPEC_SHANNON) == pytest.approx(80.0, rel=1e-14)

    def test_residual_at_root(self):
        m = blocklength_for_sinr(10.0, SPEC_160)
        assert abs(rate_deficit(m, 10.0, SPEC_160)) <= 1e-9

    def test_agrees_with_bracketing_oracle(self):
        m = blocklength_for_sinr(10.0, SPEC_160)
        assert m == pytest.approx(blocklength_by_bracketing(10.0, SPEC_160), abs=1e-6)

    def test_strictly_decreasing_in_sinr(self):
        assert blocklength_for_sinr(5.0, SPEC_160) > blocklength_for_sinr(6.0, SPEC_160)

    def test_root_consistency_over_sinr_grid(self):
        spec = unconstrained(160, 1e-7)
        for gamma in np.geomspace(1e-3, 1e4, 60):
            m = blocklength_for_sinr(gamma, spec)
            assert abs(rate_deficit(m, gamma, spec)) <= 1e-9

    def test_domain_error(self):
        with pytest.raises(ValueError):
            blocklength_for_sinr(0.0, SPEC_160)


class TestSinrForBlocklength:
    def test_shannon_inverse(self):
        got = sinr_for_blocklength(80.0, SPEC_SHANNON, gamma_hi=1e4)
        assert got == pytest.approx(3.0, abs=1e-8)

    def test_round_trip_through_closed_form(self):
        spec = unconstrained(160, 1e-7)
        m = blocklength_for_sinr(10.0, spec)
        got = sinr_for_blocklength(m, spec, gamma_hi=1e4)
        assert got == pytest.approx(10.0, abs=1e-8)

    def test_residual_via_rate_deficit(self):
        gamma = sinr_for_blocklength(100.0, SPEC_160, gamma_hi=1e6)
        assert abs(rate_deficit(100.0, gamma, SPEC_160)) <= 1e-8

    def test_inverse_consistency_grid(self):
        spec = unconstrained(160, 1e-7)
        for gamma in np.geomspace(1e-3, 1e4, 40):
            m = blocklength_for_sinr(gamma, spec)
            got = sinr_for_blocklength(m, spec, gamma_hi=1e5)
            assert abs(got - gamma) / gamma <= 1e-6

    def test_bracket_error_when_cap_too_low(self):
        # even gamma_hi cannot push 160 bits through 100 uses
        with pytest.raises(BracketError):
            sinr_for_blocklength(100.0, SPEC_160, gamma_hi=1.0)

    def test_monotone_in_blocklength(self):
        g1 = sinr_for_blocklength(150.0, SPEC_160, gamma_hi=1e4)
        g2 = sinr_for_blocklength(200.0, SPEC_160, gamma_hi=1e4)
        assert g1 > g2

    def test_required_sinr_matches_bisection(self):
        got = required_sinr(SPEC_160, 200)
        assert got == pytest.approx(
            sinr_for_blocklength(200.0, SPEC_160, gamma_hi=1e6), abs=1e-8
        )
        assert got == pytest.approx(sinr_by_bracketing(SPEC_160, 200.0), abs=1e-7)


class TestEnergyMonotone:
    def test_threshold_constant(self):
        assert ENERGY_MONOTONE_THRESHOLD == pytest.approx(0.64394, abs=1e-5)

    def test_urllc_point_holds(self):
        assert energy_monotone(UserSpec(160, 1e-6, 1000))
        assert energy_monotone(UserSpec(160, 1e-7, 1000))

    def test_zero_ratio_at_eps_half(self):
        assert energy_monotone(UserSpec(1, 0.5, 1000, min_blocklength=1))

    def test_validity_edge(self):
        # q_inv(1e-10)/sqrt(90) = 0.67054... sits above the threshold
        ratio = q_inv(1e-10) / math.sqrt(90)
        assert ratio > ENERGY_MONOTONE_THRESHOLD
        assert not energy_monotone(UserSpec(90, 1e-10, 1000))


class TestEnergyCurve:
    def test_shannon_point(self):
        assert energy_curve(80.0, SPEC_SHANNON) == pytest.approx(240.0, abs=1e-6)

    def test_pairwise_decrease(self):
        assert energy_curve(100.0, SPEC_160) > energy_curve(200.0, SPEC_160)

    def test_strictly_decreasing_on_grid(self):
        vals = [energy_curve(float(m), SPEC_160) for m in range(100, 1001, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_finite_difference_slope_negative(self):
        rng = np.random.default_rng(3)
        for spec in (SPEC_160, UserSpec(160, 1e-6, 10**6)):
            assert energy_monotone(spec)
            for m in rng.uniform(110.0, 3000.0, size=20):
                h = 0.5
                slope = (energy_curve(m + h, spec) - energy_curve(m - h, spec)) / (2 * h)
                assert slope < 0.0


class TestUserSpecValidation:
    def test_deadline_below_min_blocklength(self):
        with pytest.raises(ValueError):
            UserSpec(payload_bits=160, error_target=1e-7, deadline=50)

    def test_bad_error_target(self):
        with pytest.raises(ValueError):
            UserSpec(payload_bits=160, error_target=0.0, deadline=300)

    def test_bad_payload(self):
        with pytest.raises(ValueError):
            UserSpec(payload_bits=0, error_target=1e-7, deadline=300)


_EPS = st.floats(-12.0, math.log10(0.4)).map(lambda x: 10.0**x)
_BOUNDED = settings(max_examples=60, derandomize=True, deadline=None, database=None)


def _cold_memos():
    fbl._SINR_MEMO.clear()
    fbl._required_sinr_table.cache_clear()


def _scalar_roots(payload_bits, error_target, ms):
    return np.array([fbl._sinr_root(payload_bits, error_target, m) for m in ms])


class TestRequiredSinrTable:
    """The table path, vectorised or not, gives the scalar roots bit for bit."""

    @_BOUNDED
    @given(
        payload_bits=st.integers(1, 3000),
        error_target=_EPS,
        m_lo=st.integers(1, 100_000),
        size=st.integers(1, 120),
        known=st.sets(st.integers(0, 119)),
    )
    @example(1, 1e-3, 100_000, 40, set())  # tiny roots
    @example(3000, 1e-9, 100, 40, set())  # huge roots, past float resolution
    @example(3000, 1e-9, 1, 40, set())  # beyond the bracket
    @example(2970, 1e-9, 6, 40, set())  # m = 6 needs the first doubling past it
    # numpy alone would decide one step at m = 142 wrongly: a few ulp off
    @example(2845, 2.7765660567406283e-09, 120, 40, set())
    # one miss short of the crossover, and at it
    @example(160, 1e-7, 100, fbl._VECTOR_MIN_MISSES - 1, set())
    @example(160, 1e-7, 100, fbl._VECTOR_MIN_MISSES, set())
    @example(160, 1e-7, 100, 60, set(range(0, 60, 2)))  # 30 misses
    @example(160, 1e-7, 100, 120, set(range(0, 120, 3)))  # 80 misses
    def test_equals_uncached_scalar_roots(
        self, payload_bits, error_target, m_lo, size, known
    ):
        # The window m_lo .. m_lo + size - 1, its entries at indices `known`
        # already in the memo.
        _cold_memos()
        ms = range(m_lo, m_lo + size)
        spec = UserSpec(payload_bits, error_target, deadline=ms[-1], min_blocklength=1)
        try:
            want = _scalar_roots(payload_bits, error_target, ms)
        except BracketError:
            with pytest.raises(BracketError):
                required_sinr_table(spec, ms[0], ms[-1])
            return
        for i in sorted(known):
            if i < size:
                assert required_sinr(spec, ms[i]) == want[i]
        got = required_sinr_table(spec, ms[0], ms[-1])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # Every root is now in the per-m memo, with its scalar bits.
        hits = required_sinr.cache_info().hits
        again = [required_sinr(spec, m) for m in ms]
        assert required_sinr.cache_info().hits == hits + size
        assert np.array_equal(np.array(again).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "size,vectorised",
        [(fbl._VECTOR_MIN_MISSES - 1, False), (fbl._VECTOR_MIN_MISSES, True)],
    )
    def test_crossover_on_missing_roots(self, monkeypatch, size, vectorised):
        _cold_memos()
        calls = []

        def spy(*args):
            calls.append(args)
            return roots(*args)

        roots = fbl._sinr_roots
        monkeypatch.setattr(fbl, "_sinr_roots", spy)
        spec = UserSpec(160, 1e-7, 1000)
        required_sinr(spec, 100)  # in the memo: not a miss
        before = required_sinr.cache_info()
        required_sinr_table(spec, 100, 100 + size)
        after = required_sinr.cache_info()
        assert bool(calls) is vectorised
        assert (after.hits - before.hits, after.misses - before.misses) == (1, size)

    def test_memo_is_bounded(self):
        _cold_memos()
        spec = UserSpec(1, 0.1, 12_100, min_blocklength=1)
        before = required_sinr.cache_info()
        required_sinr_table(spec, 1, 10_000)
        info = required_sinr.cache_info()
        assert info.maxsize == 8192 and 0 < info.currsize <= 8192
        assert (info.hits, info.misses) == (before.hits, before.misses + 10_000)
        # The oldest roots went first.
        assert (1, 0.1, 10_000) in fbl._SINR_MEMO and (1, 0.1, 1) not in fbl._SINR_MEMO
        for m in range(10_001, 12_100):  # past the size again, one by one
            required_sinr(spec, m)
        assert required_sinr.cache_info().currsize <= 8192

    def test_numpy_closed_form_stays_well_inside_its_margin(self):
        # The vectorised bisection trusts numpy's blocklength_for_sinr where
        # it lies outside _NUMPY_MARGIN * (1 + 1/gamma) of m.  A numpy whose
        # log2 or square rounds differently must fail here first.
        gamma = np.geomspace(1e-7, 1e13, 10_001)
        worst = 0.0
        for payload_bits in (1, 16, 160, 3000):
            for error_target in (1e-12, 1e-7, 1e-3, 0.4):
                spec = unconstrained(payload_bits, error_target)
                q = fbl._q_ln2(error_target)
                vec = fbl._blocklength(gamma, payload_bits, q, np.log2, np.sqrt)
                ref = np.array([blocklength_for_sinr(g, spec) for g in gamma.tolist()])
                gap = np.abs(vec - ref) / ((1.0 + 1.0 / gamma) * ref)
                worst = max(worst, float(gap.max()))
        assert 8.0 * worst <= fbl._NUMPY_MARGIN
