"""Independent oracles used to cross-check the library's numerics.

Each function recomputes a quantity along a different route than the
library takes: quadrature of the normal density instead of erfc, generic
root bracketing instead of the closed-form quadratic, brute-force grid or
golden-section search instead of the closed-form allocations, a linear
solve instead of the closed-form power inversions.  The one
exception, sinr_by_plain_bisection, takes the library's own route, step by
step, as the reference for its shortcuts.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtri

from noma_fbl import (
    BracketError,
    InfeasibleReason,
    UserSpec,
    q_inv,
    rate_deficit,
    required_sinr,
)

LN2 = math.log(2.0)


def normal_tail(x: float) -> float:
    """P[Z > x] by adaptive quadrature of the standard normal density."""
    val, _ = quad(
        lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
        x,
        np.inf,
        epsabs=1e-16,
        epsrel=1e-13,
    )
    return val


def normal_tail_inverse(eps: float, lo: float = 0.0, hi: float = 40.0) -> float:
    """Inverse of normal_tail by bisection on [lo, hi]; needs eps <= 0.5."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_tail(mid) > eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rate_by_quadrature(m: float, gamma: float, eps: float) -> float:
    """Achievable rate recomputed with the quadrature-based inverse tail."""
    dispersion = 1.0 - 1.0 / (1.0 + gamma) ** 2
    return math.log2(1.0 + gamma) - math.sqrt(dispersion / m) * normal_tail_inverse(
        eps
    ) / LN2


def blocklength_by_bracketing(
    gamma: float, spec: UserSpec, m_lo: float = 1.0, m_hi: float = 1e6
) -> float:
    """Blocklength where the payload exactly fits, via generic bracketing.

    brentq on the rate deficit in m; never touches the closed-form
    quadratic root.
    """
    return brentq(
        lambda m: rate_deficit(m, gamma, spec), m_lo, m_hi, xtol=1e-10, maxiter=200
    )


def sinr_by_bracketing(spec: UserSpec, m: float) -> float:
    """SINR where the payload exactly fits in m uses, via generic bracketing."""
    hi = 1.0
    while rate_deficit(m, hi, spec) > 0.0:
        hi *= 2.0
    return brentq(
        lambda g: rate_deficit(m, g, spec), 1e-14, hi, xtol=1e-14, maxiter=300
    )


def sinr_by_plain_bisection(
    payload_bits: int, error_target: float, m: float, hi: float | None = None
) -> float:
    """required_sinr's root, every step taken: double the top from 1 until
    the closed-form blocklength is at most m, then halve [0, top] until it
    is no wider than 1e-9 or float spacing stops the halving, and return
    the last midpoint.  Bit for bit the root's definition.

    Given hi, sinr_for_blocklength's root instead: no doubling, the halving
    of [0, hi], and BracketError if the blocklength at hi is above m."""
    q = q_inv(error_target) / LN2

    def blocklength(gamma):  # the closed form, in the library's operation order
        dispersion = 1.0 - 1.0 / (1.0 + gamma) ** 2
        log_term = math.log2(1.0 + gamma)
        root = (
            q * math.sqrt(dispersion)
            + math.sqrt(dispersion * q * q + 4.0 * payload_bits * log_term)
        ) / (2.0 * log_term)
        return root * root

    if hi is None:
        hi = 1.0
        while blocklength(hi) > m:
            hi *= 2.0
            if hi > 1e150:
                raise BracketError(f"{payload_bits} bits in {m} uses")
    elif blocklength(hi) > m:
        raise BracketError(f"{payload_bits} bits in {m} uses at SINR {hi}")
    lo = 0.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if blocklength(mid) < m:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _fit_blocklength_vec(gamma: np.ndarray, n_bits: int, eps: float) -> np.ndarray:
    """Vectorized exact-fit blocklength for the grid search.

    Same algebra as the library's closed form (that algebra is verified
    separately against blocklength_by_bracketing); the grid search exists to
    check the allocation structure, not the rate model.
    """
    q = -ndtri(eps) / LN2
    dispersion = 1.0 - 1.0 / (1.0 + gamma) ** 2
    log_term = np.log2(1.0 + gamma)
    root = (
        q * np.sqrt(dispersion)
        + np.sqrt(dispersion * q * q + 4.0 * n_bits * log_term)
    ) / (2.0 * log_term)
    return root * root


def _grid_pass(
    scheme: str,
    g1: float,
    g2: float,
    s1: UserSpec,
    s2: UserSpec,
    p_max: float,
    ax1: np.ndarray,
    ax2: np.ndarray,
) -> tuple[float, tuple[int, int]]:
    """One brute-force pass over a SINR grid; returns (min energy, argmin).

    Only SINRs whose exact-fit blocklength lies in [min blocklength, cap]
    can be feasible, so the others are dropped before the outer product.
    The argmin indexes the full axes; the scan is row-major with a strict
    <, so it is the first minimum either way.
    """
    m1 = _fit_blocklength_vec(ax1, s1.payload_bits, s1.error_target)
    m2 = _fit_blocklength_vec(ax2, s2.payload_bits, s2.error_target)
    cap1 = float(s1.deadline)
    cap2 = float(s2.deadline) if scheme != "sic_rx1" else float(s1.deadline)
    rows = np.flatnonzero((m1 >= s1.min_blocklength) & (m1 <= cap1))
    cols = np.flatnonzero((m2 >= s2.min_blocklength) & (m2 <= cap2))
    ax1, m1, ax2, m2 = ax1[rows], m1[rows], ax2[cols], m2[cols]

    best = np.inf
    arg = (-1, -1)
    if not len(cols):
        return best, arg
    chunk = 256
    for start in range(0, len(ax1), chunk):
        sl = slice(start, min(start + chunk, len(ax1)))
        G1 = ax1[sl][:, None]
        G2 = ax2[None, :]
        if scheme == "sic_rx2":
            p1 = G1 * G2 / g2 + G1 / g1
            p2 = np.broadcast_to(G2 / g2, p1.shape)
            extra = True
        elif scheme == "tin":
            prod = G1 * G2
            with np.errstate(divide="ignore", invalid="ignore"):
                den = g1 * g2 * (1.0 - prod)
                p1 = (G1 * g2 + prod * g1) / den
                p2 = (G2 * g1 + prod * g2) / den
            extra = prod < 1.0
        elif scheme == "sic_rx1":
            p1 = np.broadcast_to(G1 / g1, (sl.stop - sl.start, len(ax2)))
            p2 = G1 * G2 / g1 + G2 / g2
            extra = m2[None, :] <= m1[sl][:, None]
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        feasible = (
            extra
            & (p1 >= 0.0)
            & (p2 >= 0.0)
            & (p1 + p2 <= p_max)
        )
        energy = m1[sl][:, None] * p1 + m2[None, :] * p2
        energy = np.where(feasible, energy, np.inf)
        idx = np.unravel_index(np.argmin(energy), energy.shape)
        if energy[idx] < best:
            best = float(energy[idx])
            arg = (int(rows[start + idx[0]]), int(cols[idx[1]]))
    return best, arg


def grid_min_energy(
    scheme: str,
    g1: float,
    g2: float,
    s1: UserSpec,
    s2: UserSpec,
    p_max: float,
    n_points: int = 2000,
    refine: bool = True,
) -> float:
    """Brute-force minimum energy over a log grid of SINR pairs.

    Sweeps both SINRs log-uniformly over [1e-4, p_max * max(g1, g2)], maps
    each SINR to its exact-fit blocklength, keeps candidates whose
    blocklengths and powers satisfy the scheme's constraints, and tracks the
    minimum of m1*p1 + m2*p2.  A second local pass around the coarse argmin
    shrinks the quantization error well below the comparison tolerances.
    Returns inf when no grid point is feasible.
    """
    lo, hi = 1e-4, p_max * max(g1, g2)
    ax1 = np.geomspace(lo, hi, n_points)
    ax2 = np.geomspace(lo, hi, n_points)
    best, (i, j) = _grid_pass(scheme, g1, g2, s1, s2, p_max, ax1, ax2)
    if refine and math.isfinite(best):
        fine1 = np.geomspace(ax1[max(i - 1, 0)], ax1[min(i + 1, n_points - 1)], 201)
        fine2 = np.geomspace(ax2[max(j - 1, 0)], ax2[min(j + 1, n_points - 1)], 201)
        fine_best, _ = _grid_pass(scheme, g1, g2, s1, s2, p_max, fine1, fine2)
        best = min(best, fine_best)
    return best


def noma_reference(
    scheme: str, g1: float, g2: float, s1: UserSpec, s2: UserSpec, p_max: float
) -> tuple[InfeasibleReason | None, float, float]:
    """One superposition formulation solved the plain way, one check at a
    time: (verdict, energy, p1 + p2), verdict None when feasible.

    Pins m1 = D1 and m2 = D2 (D1 for sic_rx1), as the paper does, reads
    required_sinr and solves the formulation's SINR equations, linear in
    the powers, with numpy.linalg.solve.  The checks run in the documented
    order: user 2's blocklength window, rate reachability (gamma_k <=
    p_max*g_k), tin's SINR-product wall (gamma1*gamma2 < 1), and the budget
    (p1 + p2 <= p_max with a finite energy).  energy and p1 + p2 are NaN
    when a check before the powers failed.
    """
    m1 = float(s1.deadline)
    m2 = m1 if scheme == "sic_rx1" else float(s2.deadline)
    if m2 < s2.min_blocklength:
        return InfeasibleReason.BLOCKLENGTH_WINDOW_EMPTY, math.nan, math.nan
    try:
        gamma1, gamma2 = required_sinr(s1, m1), required_sinr(s2, m2)
    except BracketError:
        return InfeasibleReason.RATE_UNREACHABLE, math.nan, math.nan
    if gamma1 > p_max * g1 or gamma2 > p_max * g2:
        return InfeasibleReason.RATE_UNREACHABLE, math.nan, math.nan
    if scheme == "tin" and gamma1 * gamma2 >= 1.0:
        return InfeasibleReason.SIC_PRODUCT_GE_ONE, math.nan, math.nan
    # Receiver k's constraint p_k*g_k = gamma_k*(1 + g_k*p_other), with the
    # other codeword's power p_other heard unless receiver k cancels it,
    # divided by g_k: p_k - gamma_k*p_other = gamma_k/g_k.
    heard1 = 0.0 if scheme == "sic_rx1" else gamma1
    heard2 = 0.0 if scheme == "sic_rx2" else gamma2
    p1, p2 = np.linalg.solve(
        [[1.0, -heard1], [-heard2, 1.0]], [gamma1 / g1, gamma2 / g2]
    ).tolist()
    energy = m1 * p1 + m2 * p2
    if not (p1 + p2 <= p_max and energy < math.inf):
        return InfeasibleReason.POWER_BUDGET_EXCEEDED, energy, p1 + p2
    return None, energy, p1 + p2


def tdma_split_energy(
    m1: float, g1: float, g2: float, s1: UserSpec, s2: UserSpec
) -> float:
    """TDMA energy of a continuous split (bracketing-based SINRs)."""
    m2 = s2.deadline - m1
    return (
        m1 * sinr_by_bracketing(s1, m1) / g1 + m2 * sinr_by_bracketing(s2, m2) / g2
    )


def tdma_golden_section(
    g1: float, g2: float, s1: UserSpec, s2: UserSpec, p_max: float
) -> tuple[float, float]:
    """Continuous-split TDMA minimum by golden-section search.

    The power cap trims the split interval first (required SINRs are
    monotone in the slot lengths, so the power-feasible splits form an
    interval); golden-section then assumes the energy is unimodal on it.
    Returns (m1, energy); (nan, inf) when no split is power-feasible.
    """
    lo = float(s1.min_blocklength)
    hi = float(min(s1.deadline, s2.deadline - s2.min_blocklength))
    if lo > hi:
        return math.nan, math.inf

    def p1_ok(m1: float) -> bool:
        return sinr_by_bracketing(s1, m1) <= p_max * g1

    def p2_ok(m1: float) -> bool:
        return sinr_by_bracketing(s2, s2.deadline - m1) <= p_max * g2

    if not p1_ok(hi) or not p2_ok(lo):
        return math.nan, math.inf
    a, b = lo, hi
    if not p1_ok(a):  # shortest user-1 slot too hot: push the lower edge up
        x, y = a, b
        for _ in range(60):
            mid = 0.5 * (x + y)
            if p1_ok(mid):
                y = mid
            else:
                x = mid
        a = y
    if not p2_ok(b):  # longest user-1 slot starves user 2: pull the top down
        x, y = a, b
        for _ in range(60):
            mid = 0.5 * (x + y)
            if p2_ok(mid):
                x = mid
            else:
                y = mid
        b = x

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = tdma_split_energy(c, g1, g2, s1, s2)
    fd = tdma_split_energy(d, g1, g2, s1, s2)
    for _ in range(100):
        if b - a < 1e-4:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = tdma_split_energy(c, g1, g2, s1, s2)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = tdma_split_energy(d, g1, g2, s1, s2)
    m1 = 0.5 * (a + b)
    return m1, tdma_split_energy(m1, g1, g2, s1, s2)


def tdma_integer_min_energy(
    g1: float, g2: float, s1: UserSpec, s2: UserSpec, p_max: float
) -> tuple[int, int, float]:
    """TDMA minimum over every integer pair of slots, user 2's not pinned.

    Enumerates m1 in [min blocklength 1, D1] and m2 in [min blocklength 2,
    D2 - m1], with SINRs from sinr_by_bracketing, keeping the pairs whose
    per-slot powers p_max allows.  Unlike solve_tdma it does not assume
    that user 2 takes all the remaining time, so it holds outside the
    energy-monotone regime too.  Returns (m1, m2, energy) of the first
    lowest energy in that order; (-1, -1, inf) when no pair fits.
    """
    ms2 = range(s2.min_blocklength, s2.deadline - s1.min_blocklength + 1)
    sinr2 = {m2: sinr_by_bracketing(s2, m2) for m2 in ms2}
    best = (-1, -1, math.inf)
    for m1 in range(s1.min_blocklength, s1.deadline + 1):
        gamma1 = sinr_by_bracketing(s1, m1)
        for m2 in range(s2.min_blocklength, s2.deadline - m1 + 1):
            gamma2 = sinr2[m2]
            if gamma1 > p_max * g1 or gamma2 > p_max * g2:
                continue
            energy = m1 * gamma1 / g1 + m2 * gamma2 / g2
            if energy < best[2]:
                best = (m1, m2, energy)
    return best


def random_feasible_instances(
    rng: np.random.Generator,
    regime: str,
    count: int,
    solver,
    max_draws: int = 2000,
    d1_range: tuple[int, int] = (110, 501),
):
    """Yield (channel, s1, s2, budget, outcome) for feasible random instances.

    regime 'weak-first' orders g1 <= g2, 'strong-first' the opposite.
    Draws are filtered through the given solver until `count` feasible
    instances are found.
    """
    from noma_fbl import ChannelPair, PowerBudget

    found = 0
    for _ in range(max_draws):
        if found >= count:
            return
        gains = np.exp(rng.uniform(math.log(0.3), math.log(30.0), size=2))
        lo_g, hi_g = float(min(gains)), float(max(gains))
        if regime == "weak-first":
            ch = ChannelPair(g1=lo_g, g2=hi_g)
        else:
            ch = ChannelPair(g1=hi_g, g2=lo_g)
        d1 = int(rng.integers(*d1_range))
        d2 = int(rng.integers(d1 + 10, 901))
        s1 = UserSpec(
            payload_bits=int(rng.integers(80, 401)),
            error_target=float(10.0 ** rng.uniform(-9.0, -2.0)),
            deadline=d1,
        )
        s2 = UserSpec(
            payload_bits=int(rng.integers(80, 401)),
            error_target=float(10.0 ** rng.uniform(-9.0, -2.0)),
            deadline=d2,
        )
        budget = PowerBudget(float(10.0 ** rng.uniform(math.log10(0.5), math.log10(50.0))))
        outcome = solver(ch, s1, s2, budget)
        if outcome.feasible:
            found += 1
            yield ch, s1, s2, budget, outcome
    raise RuntimeError(
        f"only {found}/{count} feasible instances in {max_draws} draws"
    )
