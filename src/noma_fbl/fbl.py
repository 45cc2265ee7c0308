"""Finite-blocklength achievable-rate model.

Short codewords pay a dispersion penalty below Shannon capacity.  Under the
normal approximation, a codeword of m symbols decoded at SINR gamma with
block-error probability eps carries

    N/m = log2(1 + gamma) - sqrt((1/m) * (1 - 1/(1+gamma)^2)) * Qinv(eps) / ln 2

payload bits per channel use.  Everything in this module works with that
relation: evaluating it, solving it for the blocklength given the SINR
(closed form, a quadratic in sqrt(m)), and solving it for the SINR given the
blocklength (bisection, since no closed form exists in that direction).

Every SINR root comes from one bisection, _bisect, on [0, hi]: hi is the
caller's in sinr_for_blocklength and doubled from 1 in required_sinr and
its tables, whose larger fills run the same steps on numpy arrays.

Conventions: SINRs are linear (not dB), blocklengths are in channel uses
(symbols) and may be real-valued, rates are bits per channel use.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .qfunc import q_inv

LN2 = math.log(2.0)

#: Largest ratio q_inv(eps)/sqrt(N) for which the blocklength-energy product
#: m * required_sinr(m) is guaranteed strictly decreasing in m.  Equals
#: 2*sqrt(ln 2)/(4 - sqrt 2) = 0.64394...
ENERGY_MONOTONE_THRESHOLD = 2.0 * math.sqrt(LN2) / (4.0 - math.sqrt(2.0))

#: Bisection tolerance on the SINR bracket width.
_SINR_TOL = 1e-9


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
    return _blocklength(gamma, spec.payload_bits, _q_ln2(spec.error_target))


@lru_cache(maxsize=256)
def _q_ln2(error_target: float) -> float:
    """q_inv(eps)/ln 2, the dispersion weight of the rate relation; memoized,
    as every bisection step of a root reads it for the same eps."""
    return q_inv(error_target) / LN2


def _blocklength(gamma, payload_bits, q, log2=math.log2, sqrt=math.sqrt):
    """The closed form of blocklength_for_sinr with q = q_inv(eps)/ln 2.

    Takes numpy arrays when given log2=np.log2 and sqrt=np.sqrt; the
    operations and their order are the same either way.
    """
    dispersion = 1.0 - 1.0 / (1.0 + gamma) ** 2
    log_term = log2(1.0 + gamma)
    root = (
        q * sqrt(dispersion) + sqrt(dispersion * q * q + 4.0 * payload_bits * log_term)
    ) / (2.0 * log_term)
    return root * root


def sinr_for_blocklength(m_star: float, spec: UserSpec, gamma_hi: float) -> float:
    """SINR at which the payload exactly fits in m_star channel uses.

    Bisection on [0, gamma_hi] (see _bisect).  Raises BracketError when
    even gamma_hi cannot deliver the payload in m_star uses
    (blocklength_for_sinr(gamma_hi) > m_star); callers typically pass
    gamma_hi = p_max * channel_gain so that this signals infeasibility.
    """
    if m_star < spec.min_blocklength:
        raise _untrusted(spec, m_star)
    if gamma_hi <= 0.0:
        raise ValueError(f"gamma_hi must be positive, got {gamma_hi}")
    if blocklength_for_sinr(gamma_hi, spec) > m_star:
        raise BracketError(
            f"payload {spec.payload_bits} bits does not fit in {m_star} uses "
            f"even at SINR {gamma_hi}"
        )
    return _bisect(spec.payload_bits, _q_ln2(spec.error_target), m_star, gamma_hi)


def _bisect(payload_bits: int, q: float, m: float, hi: float) -> float:
    """SINR on [0, hi] at which m uses fit the payload, q = q_inv(eps)/ln 2.

    A midpoint whose blocklength is below m over-delivers and becomes the
    new top.  Stops once the bracket is narrower than _SINR_TOL or its
    midpoint no longer splits it (the float spacing of large SINRs exceeds
    the tolerance), and returns the midpoint.
    """
    lo = 0.0
    while hi - lo > _SINR_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _blocklength(mid, payload_bits, q) < m:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def required_sinr(spec: UserSpec, m: float) -> float:
    """Channel-independent SINR required to fit the payload in m uses.

    Same root as sinr_for_blocklength but with an adaptive bracket (doubling
    from 1 until it encloses the root), so the result depends only on
    (payload_bits, error_target, m) and is memoized on that key, whatever
    the deadline.  Solvers compare it against their own power limit
    p_max * gain, which is equivalent to bracketing at that limit.

    Raises ValueError for m below the spec's minimum blocklength, and
    BracketError if the required SINR overflows any realistic range.
    """
    if m < spec.min_blocklength:
        raise _untrusted(spec, m)
    key = (spec.payload_bits, spec.error_target, m)
    gamma = _SINR_MEMO.get(key)
    if gamma is None:
        _sinr_counts[1] += 1
        gamma = _SINR_MEMO[key] = _sinr_root(*key)
        _trim_sinr_memo()
    else:
        _sinr_counts[0] += 1
    return gamma


def _untrusted(spec: UserSpec, m: float) -> ValueError:
    return ValueError(
        f"blocklength {m} below the model's minimum blocklength "
        f"({spec.min_blocklength})"
    )


#: Required SINRs keyed on (payload_bits, error_target, m), oldest first:
#: the one memo of required_sinr and required_sinr_table.  A plain dict,
#: whose lookup costs what the lru_cache it replaces cost; an OrderedDict
#: with least-recently-used refresh costs 0.13 us more per hit.
_SINR_MEMO: dict[tuple, float] = {}
_SINR_MEMO_SIZE = 8192
#: Lookups of the memo that found their key, and that did not.
_sinr_counts = [0, 0]

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _sinr_cache_info() -> _CacheInfo:
    return _CacheInfo(*_sinr_counts, _SINR_MEMO_SIZE, len(_SINR_MEMO))


# Hit and miss counts of the memo, as on an lru_cache-wrapped function.
required_sinr.cache_info = _sinr_cache_info


def _trim_sinr_memo() -> None:
    """Past its size, drop the oldest quarter of the memo in one pass
    (deleting a dict's first key one at a time rescans the deleted ones)."""
    if len(_SINR_MEMO) > _SINR_MEMO_SIZE:
        excess = len(_SINR_MEMO) - _SINR_MEMO_SIZE * 3 // 4
        for key in list(islice(_SINR_MEMO, excess)):
            del _SINR_MEMO[key]


#: The doubling bracket of a root gives up past this SINR.
_BRACKET_LIMIT = 1e150


def _doubling(payload_bits: int, q: float, m: float) -> list[float]:
    """Blocklengths at SINR 1, 2, 4, ..., up to the first power of two whose
    blocklength is at most m: the top of m's bracket, 2**(len - 1).
    Raises BracketError past _BRACKET_LIMIT."""
    tops = [_blocklength(1.0, payload_bits, q)]
    while tops[-1] > m:
        if 2.0 ** len(tops) > _BRACKET_LIMIT:
            raise BracketError(
                f"required SINR for {payload_bits} bits in {m} uses "
                "exceeds representable range"
            )
        tops.append(_blocklength(2.0 ** len(tops), payload_bits, q))
    return tops


def _sinr_root(payload_bits: int, error_target: float, m: float) -> float:
    """required_sinr without the memo: bisect m's doubling bracket."""
    q = _q_ln2(error_target)
    top = 2.0 ** (len(_doubling(payload_bits, q, m)) - 1)
    return _bisect(payload_bits, q, m, top)


#: A table window with fewer roots missing from the memo than this finds
#: them one by one with _sinr_root; from this many on, _sinr_roots finds
#: them together.  Cold tables of n entries from m = 100 on a 2-vCPU Xeon
#: VM, scalar / numpy, medians of 41: 600 bits at eps 1e-5, n = 48: 1.94 /
#: 2.06 ms, n = 56: 2.23 / 2.05 ms; 160 bits at 1e-7, n = 56: 1.68 / 1.80
#: ms, n = 64: 1.87 / 1.82 ms.  They break even near 50-62 roots.
_VECTOR_MIN_MISSES = 56

#: Relative error margin of the numpy closed form, per unit of 1 + 1/gamma,
#: with 1 ulp = 2**-52.  numpy's elementwise + - * / and sqrt round exactly
#: as Python's do, so _blocklength on arrays differs from the scalar form
#: only where two inputs of the shared arithmetic differ:
#: (a) log_term: np.log2 against math.log2, taken to be within 1 ulp each,
#:     so at most 2 ulp apart.  The root scales like log_term**-s with s in
#:     [1/2, 1], so the result (root squared) moves by at most 4 ulp.
#: (b) dispersion: (1+g)**2 is x*x in numpy and libm pow in Python, at most
#:     1 ulp apart; after the reciprocal, 1 - 1/(1+g)**2 = g(2+g)/(1+g)**2
#:     cancels, leaving at most 2 ulp / (g(2+g)) <= 1 ulp / g, plus 1 ulp
#:     for the subtraction.  The root scales like dispersion**s with s in
#:     [0, 1/2], so the result moves by at most (1 + 1/g) ulp.
#: The dozen roundings after these two can each land 1 ulp apart, which
#: the final square doubles: about 24 ulp more.  So the gap stays below
#: 29 ulp * (1 + 1/g), and 64 ulp covers it twice over.  The largest gap
#: seen on a sweep of gamma over 1e-7..1e13 is 2.3 ulp * (1 + 1/gamma);
#: tests/test_fbl.py fails if a sweep shows more than an eighth of the margin.
_NUMPY_MARGIN = 64 * 2.0**-52


def _sinr_roots(payload_bits: int, error_target: float, ms: list[int]) -> np.ndarray:
    """_sinr_root for each m of ms (ascending), as one numpy bisection.

    Same brackets, midpoints and stop rule as _sinr_root, and every
    comparison blocklength < m decided as the scalar form decides it: by
    numpy where its value lies outside the margin of _NUMPY_MARGIN around
    m, else by the scalar form itself.  So each root has the scalar path's
    bits.  Raises BracketError as _sinr_root(ms[0]) would.
    """
    q = _q_ln2(error_target)
    # The scalar brackets: for each m the first power of two 2**k whose
    # blocklength is at most m.  The smallest m needs the largest k.
    tops = _doubling(payload_bits, q, ms[0])
    m = np.array(ms, dtype=float)
    lo = np.zeros(len(m))
    hi = np.ldexp(1.0, np.argmax(np.array(tops) <= m[:, None], axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            mid = 0.5 * (lo + hi)
            live = (hi - lo > _SINR_TOL) & (lo < mid) & (mid < hi)
            if not live.any():
                return mid
            b = _blocklength(mid, payload_bits, q, np.log2, np.sqrt)
            below = b < m
            # NaN compares false, so a NaN value is unsure too.
            unsure = live & ~(np.abs(b - m) > _NUMPY_MARGIN * (1.0 + 1.0 / mid) * b)
            for i in np.flatnonzero(unsure).tolist():
                below[i] = _blocklength(float(mid[i]), payload_bits, q) < ms[i]
            hi = np.where(live & below, mid, hi)
            lo = np.where(live & ~below, mid, lo)


def required_sinr_table(spec: UserSpec, m_lo: int, m_hi: int) -> np.ndarray:
    """required_sinr evaluated on the integer blocklengths m_lo..m_hi.

    Read-only array, memoized on (payload_bits, error_target, m_lo, m_hi);
    index i holds the SINR for m = m_lo + i.  Bit for bit the values
    required_sinr gives, which share its memo.
    """
    if m_lo < spec.min_blocklength:
        raise _untrusted(spec, m_lo)
    return _required_sinr_table(spec.payload_bits, spec.error_target, m_lo, m_hi)


@lru_cache(maxsize=256)
def _required_sinr_table(
    payload_bits: int, error_target: float, m_lo: int, m_hi: int
) -> np.ndarray:
    keys = [(payload_bits, error_target, m) for m in range(m_lo, m_hi + 1)]
    gammas = [_SINR_MEMO.get(key) for key in keys]
    missing = [i for i, gamma in enumerate(gammas) if gamma is None]
    ms = [m_lo + i for i in missing]
    if len(missing) < _VECTOR_MIN_MISSES:
        roots = [_sinr_root(payload_bits, error_target, m) for m in ms]
    else:
        roots = _sinr_roots(payload_bits, error_target, ms).tolist()
    for i, gamma in zip(missing, roots):
        gammas[i] = _SINR_MEMO[keys[i]] = gamma
    _sinr_counts[0] += len(keys) - len(missing)
    _sinr_counts[1] += len(missing)
    _trim_sinr_memo()
    table = np.array(gammas, dtype=float)
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
