"""Finite-blocklength achievable-rate model.

Short codewords pay a dispersion penalty below Shannon capacity.  Under the
normal approximation, a codeword of m symbols decoded at SINR gamma with
block-error probability eps carries

    N/m = log2(1 + gamma) - sqrt((1/m) * (1 - 1/(1+gamma)^2)) * Qinv(eps) / ln 2

payload bits per channel use.  Everything in this module works with that
relation: evaluating it, solving it for the blocklength given the SINR
(closed form, a quadratic in sqrt(m)), and solving it for the SINR given the
blocklength (bisection, since no closed form exists in that direction).

Conventions: SINRs are linear (not dB), blocklengths are in channel uses
(symbols) and may be real-valued, rates are bits per channel use.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qfunc import q_inv

LN2 = math.log(2.0)

#: Largest ratio q_inv(eps)/sqrt(N) for which the blocklength-energy product
#: m * required_sinr(m) is guaranteed strictly decreasing in m.  Equals
#: 2*sqrt(ln 2)/(4 - sqrt 2) = 0.64394...
ENERGY_MONOTONE_THRESHOLD = 2.0 * math.sqrt(LN2) / (4.0 - math.sqrt(2.0))

#: Bisection tolerance on the SINR bracket width.
DEFAULT_SINR_TOL = 1e-9


class BracketError(Exception):
    """The SINR needed for a blocklength exceeds the allowed search bracket.

    Solvers map this onto a rate-unreachable infeasibility verdict: even the
    largest admissible SINR cannot deliver the payload in the target number
    of channel uses.
    """


@dataclass(frozen=True)
class UserSpec:
    """Per-receiver transmission requirement.

    payload_bits: message size N in bits (>= 1).
    error_target: block-error probability of the codeword decode, in (0, 1).
        For a receiver that decodes behind an SIC stage this is the error
        conditioned on successful cancellation; see noma.overall_sic_error
        for the end-to-end composition.
    deadline: latency budget D in channel uses; the codeword must fit in it.
    min_blocklength: smallest blocklength for which the rate model is
        trusted (typically 100 channel uses).
    """

    payload_bits: int
    error_target: float
    deadline: int
    min_blocklength: int = 100

    def __post_init__(self):
        if self.payload_bits < 1:
            raise ValueError(f"payload_bits must be >= 1, got {self.payload_bits}")
        if not 0.0 < self.error_target < 1.0:
            raise ValueError(f"error_target must be in (0, 1), got {self.error_target}")
        if self.min_blocklength < 1:
            raise ValueError(f"min_blocklength must be >= 1, got {self.min_blocklength}")
        if self.deadline < self.min_blocklength:
            raise ValueError(
                f"deadline ({self.deadline}) shorter than minimum blocklength "
                f"({self.min_blocklength})"
            )


def achievable_rate(m: float, gamma: float, eps: float) -> float:
    """Achievable rate in bits per channel use at blocklength m and SINR gamma.

    Shannon capacity log2(1+gamma) minus the dispersion penalty
    sqrt((1/m)(1 - 1/(1+gamma)^2)) * q_inv(eps)/ln 2.  May be negative for
    very small m; callers decide what a negative rate means.
    """
    if m <= 0.0:
        raise ValueError(f"blocklength must be positive, got {m}")
    if gamma <= 0.0:
        raise ValueError(f"SINR must be positive, got {gamma}")
    dispersion = 1.0 - 1.0 / (1.0 + gamma) ** 2
    return math.log2(1.0 + gamma) - math.sqrt(dispersion / m) * q_inv(eps) / LN2


def rate_deficit(m: float, gamma: float, spec: UserSpec) -> float:
    """Required rate N/m minus the achievable rate at (m, gamma).

    Zero exactly when m channel uses deliver the payload at SINR gamma and
    the spec's reliability; positive means the payload does not fit,
    negative means rate surplus.  Strictly decreasing in both arguments.
    """
    return spec.payload_bits / m - achievable_rate(m, gamma, spec.error_target)


def blocklength_for_sinr(gamma: float, spec: UserSpec) -> float:
    """Blocklength at which the payload exactly fits at SINR gamma.

    The rate relation is a quadratic in sqrt(m); this returns the square of
    its positive root, so rate_deficit(result, gamma, spec) == 0 to float
    precision.  Strictly decreasing in gamma.
    """
    if gamma <= 0.0:
        raise ValueError(f"SINR must be positive, got {gamma}")
    q = q_inv(spec.error_target) / LN2
    dispersion = 1.0 - 1.0 / (1.0 + gamma) ** 2
    log_term = math.log2(1.0 + gamma)
    root = (
        q * math.sqrt(dispersion)
        + math.sqrt(dispersion * q * q + 4.0 * spec.payload_bits * log_term)
    ) / (2.0 * log_term)
    return root * root


def sinr_for_blocklength(m_star: float, spec: UserSpec, gamma_hi: float) -> float:
    """SINR at which the payload exactly fits in m_star channel uses.

    Bisection on [0, gamma_hi] driven by the closed-form inverse: a midpoint
    whose exact-fit blocklength is below m_star over-delivers, so it becomes
    the new upper bound.  Terminates when the bracket is narrower than
    DEFAULT_SINR_TOL, or when its midpoint no longer splits it (for large
    SINRs the float spacing exceeds the tolerance).

    Raises BracketError when even gamma_hi cannot deliver the payload in
    m_star uses (blocklength_for_sinr(gamma_hi) > m_star); callers typically
    pass gamma_hi = p_max * channel_gain so that this signals infeasibility.
    """
    if m_star < spec.min_blocklength:
        raise ValueError(
            f"m_star ({m_star}) below the model's minimum blocklength "
            f"({spec.min_blocklength})"
        )
    if gamma_hi <= 0.0:
        raise ValueError(f"gamma_hi must be positive, got {gamma_hi}")
    if blocklength_for_sinr(gamma_hi, spec) > m_star:
        raise BracketError(
            f"payload {spec.payload_bits} bits does not fit in {m_star} uses "
            f"even at SINR {gamma_hi}"
        )
    lo, hi = 0.0, gamma_hi
    while hi - lo > DEFAULT_SINR_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if blocklength_for_sinr(mid, spec) < m_star:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=None)
def required_sinr(spec: UserSpec, m: float) -> float:
    """Channel-independent SINR required to fit the payload in m uses.

    Same root as sinr_for_blocklength but with an adaptive bracket (doubling
    from 1 until it encloses the root), so the result depends only on
    (spec, m) and is memoized.  Solvers compare it against their own power
    limit p_max * gain, which is equivalent to bracketing at that limit.

    Raises BracketError if the required SINR overflows any realistic range.
    """
    hi = 1.0
    while blocklength_for_sinr(hi, spec) > m:
        hi *= 2.0
        if hi > 1e150:
            raise BracketError(
                f"required SINR for {spec.payload_bits} bits in {m} uses "
                "exceeds representable range"
            )
    return sinr_for_blocklength(m, spec, hi)


@lru_cache(maxsize=None)
def required_sinr_table(spec: UserSpec, m_lo: int, m_hi: int) -> np.ndarray:
    """required_sinr evaluated on the integer blocklengths m_lo..m_hi.

    Read-only array (cached); index i holds the SINR for m = m_lo + i.
    """
    table = np.array(
        [required_sinr(spec, m) for m in range(m_lo, m_hi + 1)], dtype=float
    )
    table.flags.writeable = False
    return table


def energy_monotone(spec: UserSpec) -> bool:
    """Whether the blocklength-energy product is guaranteed decreasing.

    True when q_inv(error_target)/sqrt(payload_bits) is at most
    ENERGY_MONOTONE_THRESHOLD.  In that regime spending more channel uses on
    a codeword never costs energy, which is what lets the solvers pin
    optimal blocklengths at the deadlines.
    """
    ratio = q_inv(spec.error_target) / math.sqrt(spec.payload_bits)
    return ratio <= ENERGY_MONOTONE_THRESHOLD


def energy_curve(m: float, spec: UserSpec) -> float:
    """Blocklength-energy product m * required_sinr(m) at unit channel gain.

    Dividing by a channel power gain turns this into the actual codeword
    energy m * p.
    """
    return m * required_sinr(spec, m)
