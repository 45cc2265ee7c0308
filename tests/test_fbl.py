"""Finite-blocklength rate model: closed-form inverse, bisection, energy curve."""

import math
import random
import sys
import threading
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noma_fbl import (
    BracketError,
    ENERGY_MONOTONE_THRESHOLD,
    ExperimentConfig,
    PowerBudget,
    UserSpec,
    achievable_rate,
    blocklength_for_sinr,
    dbm_to_watts,
    draw_channels,
    energy_curve,
    energy_monotone,
    q_inv,
    rate_deficit,
    required_sinr,
    sinr_for_blocklength,
    solve_noma,
    solve_tdma,
)
from noma_fbl import fbl
from noma_fbl.fbl import required_sinr_table

from oracles import (
    blocklength_by_bracketing,
    rate_by_quadrature,
    sinr_by_bracketing,
    sinr_by_plain_bisection,
)

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

    def test_squared_sinr_past_the_float_range(self):
        # (1 + gamma)**2 overflows; 1 - 1/(1 + gamma)**2 is then 1 to a float.
        want = math.log2(1.0 + 1e200) - math.sqrt(1.0 / 100.0) * q_inv(1e-7) / fbl.LN2
        assert achievable_rate(100.0, 1e200, 1e-7) == want

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

    @pytest.mark.parametrize("gamma_hi", [math.inf, math.nan, 1e308])
    def test_value_error_without_a_finite_closed_form(self, gamma_hi):
        # (1 + 1e308)**2 overflows; inf and nan have no bracket at all
        with pytest.raises(ValueError):
            sinr_for_blocklength(200.0, SPEC_160, gamma_hi=gamma_hi)

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


#: The smallest power of two past the float range: an int no float holds.
_HUGE = 2**1024
#: Calls at NaN or infinite blocklengths and SINRs, at ints past the float
#: range, or at SINRs where the closed form fails, and the error each raises.
_NOT_FINITE = [
    (sinr_for_blocklength, (math.nan, SPEC_160, 1.0), ValueError),
    (sinr_for_blocklength, (math.inf, SPEC_160, 1.0), ValueError),
    # 1 + 1e-17 rounds to 1: no finite blocklength fits, as at 1e-14
    (sinr_for_blocklength, (200.0, SPEC_160, 1e-17), BracketError),
    (required_sinr, (SPEC_160, math.nan), ValueError),
    (required_sinr, (SPEC_160, math.inf), ValueError),
    (energy_curve, (math.nan, SPEC_160), ValueError),
    (energy_curve, (math.inf, SPEC_160), ValueError),
    (blocklength_for_sinr, (1e-17, SPEC_160), ValueError),
    (blocklength_for_sinr, (1e155, SPEC_160), ValueError),
    (blocklength_for_sinr, (math.nan, SPEC_160), ValueError),
    (blocklength_for_sinr, (math.inf, SPEC_160), ValueError),
    (achievable_rate, (100.0, math.nan, 1e-7), ValueError),
    (achievable_rate, (100.0, math.inf, 1e-7), ValueError),
    (achievable_rate, (math.nan, 1.0, 1e-7), ValueError),
    (achievable_rate, (math.inf, 1.0, 1e-7), ValueError),
    (achievable_rate, (_HUGE, 1.0, 1e-7), ValueError),
    (achievable_rate, (100.0, _HUGE, 1e-7), ValueError),
    (required_sinr, (SPEC_160, _HUGE), ValueError),
    (energy_curve, (_HUGE, SPEC_160), ValueError),
    (sinr_for_blocklength, (_HUGE, SPEC_160, 1.0), ValueError),
    (sinr_for_blocklength, (200.0, SPEC_160, _HUGE), ValueError),
    (blocklength_for_sinr, (_HUGE, SPEC_160), ValueError),
]


def _arg_id(arg):
    return "2**1024" if arg is _HUGE else repr(arg)


@pytest.mark.parametrize(
    "call,args,error",
    _NOT_FINITE,
    ids=[
        f"{call.__name__}({', '.join(_arg_id(a) for a in args if a is not SPEC_160)})"
        for call, args, _ in _NOT_FINITE
    ],
)
def test_rate_model_takes_only_finite_inputs(call, args, error):
    # A typed error each: no NaN result, no bare ZeroDivisionError or
    # OverflowError, and no BracketError for a NaN blocklength.
    with pytest.raises(error):
        call(*args)


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
    required_sinr.cache_clear()


def _scalar_roots(payload_bits, error_target, ms):
    return np.array([fbl._sinr_root(payload_bits, error_target, m) for m in ms])


def _off_by_half(window):
    """_window with its ends moved to half the root: never both certified."""

    def moved(payload_bits, q, m, xp):
        a, b = window(payload_bits, q, m, xp)
        return 0.5 * a, 0.5 * b

    return moved


def _uncertified(mode):
    """(name, stand-in) of an fbl function that leaves every window open at
    one end at least: _window off by half, or _certain keeping only its
    lower end, only its upper end, or neither."""
    if mode == "off by half":
        return "_window", _off_by_half(fbl._window)
    certain = fbl._certain

    def one_end(payload_bits, q, m, a, b, xp):
        at_a, at_b = certain(payload_bits, q, m, a, b, xp)
        return at_a and mode == "lower only", at_b and mode == "upper only"

    return "_certain", one_end


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    payload_bits=st.integers(1, 3000),
    error_target=st.floats(-12.0, math.log10(0.9)).map(lambda x: 10.0**x),
    m_lo=st.integers(1, 5000),
    size=st.integers(1, 80),
    uncertified=st.just(None),
)
@example(3000, 1e-9, 100, 80, None)  # huge roots: float spacing ends the loop
@example(1, 1e-3, 5000, 80, None)  # tiny roots
@example(40, 0.8, 300, 80, None)  # eps > 0.5: q_inv < 0
@example(600, 1e-5, 100, 80, "off by half")  # only the lower end holds
@example(600, 1e-5, 100, 80, "neither")  # the whole loop
@example(600, 1e-5, 100, 80, "lower only")
@example(3000, 1e-9, 100, 80, "lower only")
@example(40, 0.8, 300, 80, "lower only")
@example(600, 1e-5, 100, 80, "upper only")
@example(3000, 1e-9, 100, 80, "upper only")
@example(40, 0.8, 300, 80, "upper only")
def test_roots_are_the_plain_bisections(
    payload_bits, error_target, m_lo, size, uncertified
):
    # required_sinr and its tables skip the comparisons their window
    # decides, at either end alone; the roots, and their BracketError, are
    # those of the loop from [0, top].
    ms = range(m_lo, m_lo + size)
    try:
        want = [sinr_by_plain_bisection(payload_bits, error_target, m) for m in ms]
    except BracketError:
        want = None
    spec = UserSpec(payload_bits, error_target, deadline=ms[-1], min_blocklength=1)
    fallbacks = required_sinr.root_info().fallbacks
    with pytest.MonkeyPatch.context() as patch:
        if uncertified:
            patch.setattr(fbl, *_uncertified(uncertified))
        for by_table in (True, False):
            _cold_memos()
            try:
                if by_table:
                    got = required_sinr_table(spec, ms[0], ms[-1]).tolist()
                else:
                    got = [required_sinr(spec, m) for m in ms]
            except BracketError:
                got = None
            assert got == want
    fell_back = required_sinr.root_info().fallbacks - fallbacks
    assert fell_back == (2 * size if uncertified else 0)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    payload_bits=st.integers(1, 3000),
    error_target=st.one_of(
        st.floats(-12.0, math.log10(0.5)).map(lambda x: 10.0**x), st.floats(0.5, 0.9)
    ),
    m_star=st.floats(1.0, 20_000.0),
    gamma_hi=st.floats(-3.0, 20.0).map(lambda x: 10.0**x),
    off_by_half=st.booleans(),
)
@example(3000, 1e-9, 100.0, 1e20, False)  # a huge root: float spacing ends the loop
@example(600, 1e-5, 100.0, 1e6, False)
@example(40, 0.8, 300.5, 1e3, False)  # eps > 0.5: q_inv < 0
@example(600, 1e-5, 100.0, 1e6, True)
def test_sinr_for_blocklength_is_the_plain_bisection(
    payload_bits, error_target, m_star, gamma_hi, off_by_half
):
    # The loop on [0, gamma_hi] with the comparisons outside the certified
    # window skipped: the plain loop's root and BracketError.
    try:
        want = sinr_by_plain_bisection(payload_bits, error_target, m_star, hi=gamma_hi)
    except BracketError:
        want = None
    spec = UserSpec(payload_bits, error_target, deadline=20_000, min_blocklength=1)
    a, b = fbl._certified(payload_bits, fbl._q_ln2(error_target), m_star)
    evals = required_sinr.root_info().evals
    with pytest.MonkeyPatch.context() as patch:
        if off_by_half:
            patch.setattr(fbl, *_uncertified("off by half"))
        try:
            got = sinr_for_blocklength(m_star, spec, gamma_hi)
        except BracketError:
            got = None
    assert got == want
    if want is not None and not off_by_half and a > 0.0 and b < math.inf:
        # _certain's two, the first midpoint inside (a, b), and then at most
        # one per halving of the bracket from 2 (b - a) down to the
        # tolerance or the float spacing: 4 for a window narrower than that.
        floor = max(fbl._SINR_TOL, math.ulp(a))
        bound = 4.0 + max(0.0, math.log2(4.0 * (b - a) / floor))
        assert required_sinr.root_info().evals - evals <= bound


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    entries=st.lists(
        st.tuples(
            st.integers(1, 3000),
            # Past eps = 0.5, q_inv(eps) < 0: the other Newton start.
            st.floats(-12.0, math.log10(0.999)).map(lambda x: 10.0**x),
            st.integers(100, 20_000),
        ),
        min_size=1,
        max_size=30,
    )
)
@example([(3000, 1e-9, 100), (1, 1e-3, 20_000), (40, 0.9, 300), (160, 1e-7, 300)])
@example([(1, 0.999, 20_000), (3000, 1e-12, 100), (1, 0.999, 100)])
def test_enclosures_hold_the_roots(entries):
    # One pass over entries of mixed N, eps and sign of q: every root lies
    # in its enclosure.
    payload_bits, error_target, ms = (list(column) for column in zip(*entries))
    below, above = fbl._enclosures(
        np.array(payload_bits), np.array([fbl._q_ln2(e) for e in error_target]), np.array(ms)
    )
    _cold_memos()
    for n, eps, m, lo, hi in zip(payload_bits, error_target, ms, below.tolist(), above.tolist()):
        gamma = required_sinr(UserSpec(n, eps, m), m)
        assert 0.0 <= lo <= gamma <= hi
        # certified, and about as tight as the closed form's error margin
        assert hi - lo <= 1e-6 * gamma + 4e-9
    _cold_memos()


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    payload_bits=st.integers(1, 3000),
    error_target=st.floats(-12.0, math.log10(0.999)).map(lambda x: 10.0**x),
    m_lo=st.integers(1, 60),
    size=st.integers(1, 40),
)
@example(2970, 1e-9, 1, 40)  # raises up to m = 5
@example(3000, 1e-12, 1, 40)
def test_a_window_raises_when_its_smallest_m_does(payload_bits, error_target, m_lo, size):
    # The doubling gives up at m when every power of two's blocklength is
    # above m, and so above every smaller m: the roots that raise are those
    # at the smallest m, and a table raises exactly when its first root does.
    ms = range(m_lo, m_lo + size)
    spec = UserSpec(payload_bits, error_target, ms[-1], min_blocklength=1)
    raised = []
    for m in ms:
        _cold_memos()
        try:
            required_sinr(spec, m)
        except BracketError:
            raised.append(True)
        else:
            raised.append(False)
    assert raised == sorted(raised, reverse=True)
    _cold_memos()
    try:
        required_sinr_table(spec, ms[0], ms[-1])
    except BracketError:
        assert raised[0]
    else:
        assert not raised[0]
    _cold_memos()


#: Every value the row-store property test reads, from the path without the store.
_ROOTS: dict[tuple, float] = {}


def _root(key, m):
    if (*key, m) not in _ROOTS:
        _ROOTS[(*key, m)] = fbl._sinr_root(*key, m)
    return _ROOTS[(*key, m)]


_STORE_SPECS = [
    UserSpec(n, eps, 900, min_blocklength=1) for n, eps in [(1, 0.1), (16, 1e-3), (160, 1e-7)]
]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    calls=st.lists(
        st.tuples(
            st.sampled_from(["int", "integral float", "int64", "half", "table"]),
            st.integers(0, len(_STORE_SPECS) - 1),
            st.integers(1, 700),
            st.integers(-200, 120),
        ),
        min_size=1,
        max_size=30,
    )
)
# A table, its row grown by a scalar and another row's table evicting it,
# then a table past the cap.
@example(
    [("table", 0, 100, 40), ("int", 0, 450, 0), ("table", 1, 300, 100), ("table", 2, 560, 60)]
)
# Two tables with a gap between them, then one in the gap.
@example([("table", 0, 100, 10), ("table", 0, 200, 10), ("table", 0, 150, 10)])
# An empty window (500..300) on a fresh row, then tables inside it.
@example([("table", 0, 500, -200), ("table", 0, 100, 100), ("table", 0, 250, 50)])
def test_row_store_keeps_the_roots(calls):
    # On a store of 600 entries, scalar calls (int m, integral float m,
    # np.int64 m, non-integer m, m past the cap) and tables over three
    # (N, eps), empty windows (a negative size) among them, give the roots
    # of the path without the store (an integral m's at the int m), count
    # every entry, and leave every table taken earlier unchanged and
    # read-only.
    tables = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fbl, "_ROW_BUDGET", 600)
        _cold_memos()
        for kind, k, m, size in calls:
            spec = _STORE_SPECS[k]
            key = spec.payload_bits, spec.error_target
            before = required_sinr.cache_info()
            if kind == "table":
                got = required_sinr_table(spec, m, m + size)
                want = np.array([_root(key, i) for i in range(m, m + size + 1)], float)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                tables.append((got, want))
                entries = max(size + 1, 0)
            else:
                x = {
                    "int": m,
                    "integral float": float(m),
                    "int64": np.int64(m),
                    "half": m + 0.5,
                }[kind]
                got = required_sinr(spec, x)
                want = _root(key, x if kind == "half" else m)
                assert type(got) is float and got.hex() == want.hex()
                entries = 1
                if kind != "half" and m < 600:  # kept: read back as a hit
                    hits = required_sinr.cache_info().hits
                    assert required_sinr(spec, m) == got
                    assert required_sinr.cache_info().hits == hits + 1
                    entries += 1
            info = required_sinr.cache_info()
            assert info.maxsize == 600 and 0 <= info.currsize <= 600
            assert info.hits + info.misses == before.hits + before.misses + entries
            for table, want in tables:
                assert not table.flags.writeable
                assert np.array_equal(table.view(np.int64), want.view(np.int64))
    _cold_memos()


def test_row_store_under_threads():
    # Four threads, twice the cores of a small runner, share a 600-entry
    # store and switch every microsecond: every value keeps its bits, and the
    # entries held stay those of the rows, within the budget.
    keys = [(spec.payload_bits, spec.error_target) for spec in _STORE_SPECS]
    want = {(*key, m): _root(key, m) for key in keys for m in range(1, 761)}
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(200):
                spec, m = rng.choice(_STORE_SPECS), rng.randint(1, 700)
                key = spec.payload_bits, spec.error_target
                if rng.random() < 0.5:
                    assert required_sinr(spec, m) == want[(*key, m)]
                else:
                    m_hi = m + rng.randint(0, 60)
                    got = required_sinr_table(spec, m, m_hi).tolist()
                    assert got == [want[(*key, i)] for i in range(m, m_hi + 1)]
        except Exception as exc:  # raised again in the main thread
            errors.append(exc)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fbl, "_ROW_BUDGET", 600)
        _cold_memos()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        held = sum(len(row) for row in fbl._SINR_ROWS.values())
        assert required_sinr.cache_info().currsize == held <= 600
    _cold_memos()


class _CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self):
        self.lock, self.taken = threading.Lock(), 0

    def __enter__(self):
        self.taken += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


def test_warm_reads_take_no_lock(monkeypatch):
    # Once two solves have filled its rows (the first picks its TDMA split
    # from enclosures, the second fills the tables), paper-protocol solves,
    # and scalar reads at an int, an integral float and an np.int64 m, are
    # hits that never take the store's lock.
    cfg = ExperimentConfig()
    s1, s2 = cfg.user1_spec(200), cfg.user2_spec()
    budget = PowerBudget(dbm_to_watts(30.0))
    rng = np.random.default_rng(7)
    lock = _CountingLock()
    monkeypatch.setattr(fbl, "_LOCK", lock)
    _cold_memos()

    def solve():
        ch = draw_channels(rng, cfg.rayleigh_scale)
        solve_noma(ch, s1, s2, budget)
        solve_tdma(ch, s1, s2, budget)

    solve()  # grows the rows, under the lock
    solve()
    assert lock.taken > 0
    lock.taken, before = 0, required_sinr.cache_info()
    for _ in range(100):
        solve()
    warm = required_sinr.cache_info()
    assert warm.misses == before.misses and warm.hits > before.hits
    gammas = [required_sinr(s2, m) for m in (300, 300.0, np.int64(300))]
    assert all(type(g) is float and g == gammas[0] for g in gammas)
    after = required_sinr.cache_info()
    assert (after.hits, after.misses) == (warm.hits + 3, warm.misses)
    assert lock.taken == 0
    _cold_memos()


def test_concurrent_fills_of_one_row_keep_their_bits(monkeypatch):
    # One thread fills 100..200 of a row while another fills 500..600 of
    # it, started from inside the first fill's first root and given 0.2 s
    # to run there: both tables, every entry the row then knows, and a
    # later table between the two keep the bits of the roots found alone.
    spec = _STORE_SPECS[2]
    key = spec.payload_bits, spec.error_target
    want = {m: _root(key, m) for m in range(1, 701)}
    _cold_memos()
    required_sinr(spec, 700)  # the row's entries reach past both windows
    tables = {}

    def fill(lo):
        tables[lo] = required_sinr_table(spec, lo, lo + 100)

    other = threading.Thread(target=fill, args=(500,))

    def interleaving_root(*args):
        if other.ident is None:
            other.start()
            other.join(timeout=0.2)
        return root(*args)

    root = fbl._sinr_root
    monkeypatch.setattr(fbl, "_sinr_root", interleaving_root)
    fill(100)
    other.join(timeout=60)
    assert other.ident is not None and not other.is_alive()
    tables[250] = required_sinr_table(spec, 250, 350)
    for lo, table in tables.items():
        assert table.tolist() == [want[m] for m in range(lo, lo + 101)]
    row = fbl._SINR_ROWS[key]
    known = [m for m in range(1, 701) if row[m] == row[m]]
    assert len(known) >= 3 * 101 and all(row[m] == want[m] for m in known)
    _cold_memos()


class TestRequiredSinrTable:
    """The table path gives the scalar roots bit for bit."""

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
    # 19 and 20 misses in one fill
    @example(160, 1e-7, 100, 19, set())
    @example(160, 1e-7, 100, 20, set())
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

    @pytest.mark.parametrize("size,known_last", [(19, False), (20, True)])
    def test_crossover_on_missing_roots(self, monkeypatch, size, known_last):
        # A table of size + 1 entries, its first or last one known: 1 hit and
        # `size` misses, each found by the scalar root on either side of the
        # 20 misses where a vectorised fill once took over.
        _cold_memos()
        calls = []

        def spy(*args):
            calls.append(args)
            return root(*args)

        root = fbl._sinr_root
        monkeypatch.setattr(fbl, "_sinr_root", spy)
        spec = UserSpec(160, 1e-7, 1000)
        known = 100 + size if known_last else 100
        required_sinr(spec, known)  # in the memo: not a miss
        calls.clear()
        before = required_sinr.cache_info()
        required_sinr_table(spec, 100, 100 + size)
        after = required_sinr.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, size)
        missing = [m for m in range(100, 101 + size) if m != known]
        assert [args[-1] for args in calls] == missing

    def test_memo_is_bounded(self):
        _cold_memos()
        spec = UserSpec(1, 0.1, 12_100, min_blocklength=1)
        required_sinr_table(spec, 1, 10_000)
        info = required_sinr.cache_info()
        assert info.maxsize == fbl._ROW_BUDGET and 0 < info.currsize <= info.maxsize
        assert (info.hits, info.misses) == (0, 10_000)
        for m in range(10_001, 12_100):  # 2,099 scalar misses, one by one
            required_sinr(spec, m)
        info = required_sinr.cache_info()
        assert (info.hits, info.misses) == (0, 12_099)
        assert 0 < info.currsize <= info.maxsize
        # Three rows of 50,011 entries overflow the 131,072: the oldest
        # grown one goes first, and a hit does not make a row newer.
        a, b, c = (UserSpec(n, 0.1, 50_010, min_blocklength=1) for n in (2, 3, 4))
        for s in (a, b):
            required_sinr_table(s, 50_000, 50_010)
        required_sinr(a, 50_000)  # a hit: a stays older than b
        required_sinr_table(c, 50_000, 50_010)
        assert set(fbl._SINR_ROWS) == {(3, 0.1), (4, 0.1)}
        info = required_sinr.cache_info()
        assert info.currsize == 2 * 50_011 <= info.maxsize
        assert (info.hits, info.misses) == (1, 12_099 + 3 * 11)
        required_sinr(a, 50_000)  # gone with its row: a miss
        assert required_sinr.cache_info().misses == 12_099 + 3 * 11 + 1

    def test_numpy_closed_form_stays_well_inside_its_margin(self):
        # A root's window is certified with _CLOSED_FORM_MARGIN * (1 + 1/gamma),
        # the bound on the closed form's error against exact arithmetic, scalar
        # or numpy.  A libm or numpy whose log2 or square rounds differently
        # must fail here first: against 40-digit decimals on a sparse sweep,
        # and numpy against the scalar form on a dense one.
        sparse = np.geomspace(1e-9, 1e13, 201)
        dense = np.geomspace(1e-7, 1e13, 10_001)
        worst = 0.0
        for payload_bits in (1, 16, 160, 3000):
            for error_target in (1e-12, 1e-7, 1e-3, 0.4, 0.9):
                spec = unconstrained(payload_bits, error_target)
                q = fbl._q_ln2(error_target)
                vec = fbl._blocklength(sparse, payload_bits, q, np.log2, np.sqrt)
                for gamma, by_numpy in zip(sparse.tolist(), vec.tolist()):
                    exact = _exact_blocklength(gamma, payload_bits, q)
                    for got in (blocklength_for_sinr(gamma, spec), by_numpy):
                        gap = abs(Decimal(got) / exact - 1) / (1 + 1 / Decimal(gamma))
                        worst = max(worst, float(gap))
                vec = fbl._blocklength(dense, payload_bits, q, np.log2, np.sqrt)
                ref = np.array([blocklength_for_sinr(g, spec) for g in dense.tolist()])
                gap = np.abs(vec - ref) / ((1.0 + 1.0 / dense) * ref)
                worst = max(worst, float(gap.max()))
        assert 0.0 < 8.0 * worst <= fbl._CLOSED_FORM_MARGIN


def _exact_blocklength(gamma, payload_bits, q):
    """The closed form of blocklength_for_sinr in 40-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 40
        one, gamma, q = Decimal(1), Decimal(gamma), Decimal(q)
        dispersion = one - one / (one + gamma) ** 2
        log_term = (one + gamma).ln() / Decimal(2).ln()
        spread = (dispersion * q * q + 4 * payload_bits * log_term).sqrt()
        root = (q * dispersion.sqrt() + spread) / (2 * log_term)
        return root * root
