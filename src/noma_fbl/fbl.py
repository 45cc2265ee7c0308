"""Finite-blocklength achievable-rate model.

Short codewords pay a dispersion penalty below Shannon capacity.  Under the
normal approximation, a codeword of m symbols decoded at SINR gamma with
block-error probability eps carries

    N/m = log2(1 + gamma) - sqrt((1/m) * (1 - 1/(1+gamma)^2)) * Qinv(eps) / ln 2

payload bits per channel use.  Everything in this module works with that
relation: evaluating it, solving it for the blocklength given the SINR
(closed form, a quadratic in sqrt(m)), and solving it for the SINR given the
blocklength (bisection, since no closed form exists in that direction).

Every SINR root comes from one bisection, _bisect.  sinr_for_blocklength
runs it on [0, hi] with the caller's hi; required_sinr and its tables run it
on [0, top], top doubled from 1 until it encloses the root.  Both skip the
comparisons they would make outside a window around a Newton estimate of
the root, whose ends two closed-form evaluations certify (_certified): a
point at or below its lower end moves the bracket's bottom, one at or
above its upper end the top, and only the points between are evaluated,
so the root takes the bits of the whole loop from a few evaluations
instead of some 30 to 60.

One store keeps the roots: a row over integer m per (payload_bits,
error_target), NaN where a root is not yet known, of which a table is a
read-only slice whose unknown entries are found and written first (_fill).
It is bounded, the oldest grown rows going first; windows past that bound
get arrays of their own.  Rows grow and go under a lock; reads take none.
Every row replaced or dropped, and every clear, moves a generation count,
so that what keeps views of the rows (tdma's memo of split windows) can
tell they may be gone.

One numpy pass of the estimates and their certified windows, over entries
of any payload and error target, encloses each root in [below, above]
(_enclosures), with no bracket and no store.

Conventions: SINRs are linear (not dB), blocklengths are in channel uses
(symbols) and may be real-valued, rates are bits per channel use.
"""

import math
import numbers
import sys
import threading
from array import array
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .qfunc import q_inv

LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)

#: Largest ratio q_inv(eps)/sqrt(N) for which the blocklength-energy product
#: m * required_sinr(m) is guaranteed strictly decreasing in m.  Equals
#: 2*sqrt(ln 2)/(4 - sqrt 2) = 0.64394...
ENERGY_MONOTONE_THRESHOLD = 2.0 * math.sqrt(LN2) / (4.0 - math.sqrt(2.0))

#: The largest float; comparing an int with it is exact.
_FLOAT_MAX = sys.float_info.max
#: Up to this a whole number fits an Allocation's float fields exactly.
_WHOLE_MAX = 2**53

#: Bisection tolerance on the SINR bracket width.
_SINR_TOL = 1e-9
#: Width of the last bracket of a bisection from a power of two >= 1 that
#: the tolerance stops: the largest power of two at most _SINR_TOL.
_SINR_STEP = 2.0 ** math.floor(math.log2(_SINR_TOL))


class BracketError(Exception):
    """The SINR needed for a blocklength exceeds the allowed search bracket.

    Solvers map this onto a rate-unreachable infeasibility verdict: even the
    largest admissible SINR cannot deliver the payload in the target number
    of channel uses.
    """


@dataclass(frozen=True)
class UserSpec:
    """Per-receiver transmission requirement.

    payload_bits: message size N in whole bits (>= 1).
    error_target: block-error probability of the codeword decode, in (0, 1).
        For a receiver that decodes behind an SIC stage this is the error
        conditioned on successful cancellation; see noma.overall_sic_error
        for the end-to-end composition.
    deadline: latency budget D in channel uses; the codeword must fit in it.
    min_blocklength: smallest blocklength for which the rate model is
        trusted (typically 100 channel uses).
    The three whole numbers are at most 2**53.
    """

    payload_bits: int
    error_target: float
    deadline: int
    min_blocklength: int = 100

    def __post_init__(self):
        # An integral float or numpy integer becomes an int, so blocklengths
        # index and slice as ints everywhere, and a payload is whole bits.
        for name in ("payload_bits", "deadline", "min_blocklength"):
            value = getattr(self, name)
            if not isinstance(value, int):
                if not (isinstance(value, numbers.Real) and float(value).is_integer()):
                    raise ValueError(f"{name} must be a whole number, got {value!r}")
                value = int(value)
                object.__setattr__(self, name, value)
            if value > _WHOLE_MAX:
                raise ValueError(f"{name} must be at most 2**53, got {value!r}")
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
    very small m; callers decide what a negative rate means.  m and gamma
    must be positive and finite.
    """
    if not 0.0 < m <= _FLOAT_MAX:
        raise ValueError(f"blocklength must be positive and finite, got {m}")
    if not 0.0 < gamma <= _FLOAT_MAX:
        raise ValueError(f"SINR must be positive and finite, got {gamma}")
    try:
        dispersion = 1.0 - 1.0 / (1.0 + gamma) ** 2
    except OverflowError:  # then 1/(1+gamma)^2 is below half an ulp of 1
        dispersion = 1.0
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
    precision.  Strictly decreasing in gamma.  Raises ValueError unless
    gamma is above about 1.1e-16 (1 < 1 + gamma) and at most the largest
    float, and the result does not overflow.
    """
    if not (gamma <= _FLOAT_MAX and 1.0 < 1.0 + gamma):
        raise ValueError(f"SINR must be finite and 1 + SINR above 1, got {gamma}")
    try:
        return _blocklength(gamma, spec.payload_bits, _q_ln2(spec.error_target))
    except OverflowError:
        raise ValueError(f"the rate relation overflows at SINR {gamma}") from None


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

    Bisection on [0, gamma_hi] (see _bisect), skipping the comparisons that
    m_star's certified window decides.  Raises BracketError when even
    gamma_hi cannot deliver the payload in m_star uses
    (blocklength_for_sinr(gamma_hi) > m_star, or 1 + gamma_hi rounds to 1);
    callers typically pass gamma_hi = p_max * channel_gain so that this
    signals infeasibility.  Raises ValueError for an m_star not finite or
    below the minimum blocklength, and for a gamma_hi that is not positive
    and finite or at which the closed form overflows.
    """
    if not spec.min_blocklength <= m_star <= _FLOAT_MAX:
        raise _untrusted(spec, m_star)
    if not 0.0 < gamma_hi <= _FLOAT_MAX:
        raise ValueError(f"gamma_hi must be positive and finite, got {gamma_hi}")
    if 1.0 + gamma_hi == 1.0 or blocklength_for_sinr(gamma_hi, spec) > m_star:
        raise BracketError(
            f"payload {spec.payload_bits} bits does not fit in {m_star} uses "
            f"even at SINR {gamma_hi}"
        )
    payload_bits, q = spec.payload_bits, _q_ln2(spec.error_target)
    window = _certified(payload_bits, q, m_star)
    return _bisect(payload_bits, q, m_star, 0.0, gamma_hi, *window)


def _bisect(
    payload_bits: int, q: float, m: float, lo: float, hi: float, a=0.0, b=math.inf
) -> float:
    """SINR on [lo, hi] at which m uses fit the payload, q = q_inv(eps)/ln 2.

    A midpoint whose blocklength is below m over-delivers and becomes the
    new top.  Stops once the bracket is narrower than _SINR_TOL or its
    midpoint no longer splits it (the float spacing of large SINRs exceeds
    the tolerance), and returns the midpoint.  A midpoint at or below a
    moves lo, and one at or above b moves hi, without an evaluation: with
    a and b from _certified, those are the comparisons _certain proves the
    loop would make.  So every root is this loop's with a = 0, b = inf.
    """
    evals = 0
    while hi - lo > _SINR_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= a:
            if mid <= lo:
                break
            lo = mid
        elif mid >= b:
            if mid >= hi:
                break
            hi = mid
        else:
            if mid <= lo or mid >= hi:
                break
            evals += 1
            if _blocklength(mid, payload_bits, q) < m:
                hi = mid
            else:
                lo = mid
    _root_counts[2] += evals
    return 0.5 * (lo + hi)


def required_sinr(spec: UserSpec, m: float) -> float:
    """Channel-independent SINR required to fit the payload in m uses.

    Same root as sinr_for_blocklength but with an adaptive bracket (doubling
    from 1 until it encloses the root), so the result depends only on
    (payload_bits, error_target, m), whatever the deadline, and the store
    keeps it for an integral m below _ROW_BUDGET.  Solvers compare it with
    their own power limit p_max * gain, which equals bracketing at it.

    Raises ValueError for an m not finite or below the spec's minimum
    blocklength, and BracketError past any realistic SINR range.
    """
    if not spec.min_blocklength <= m <= _FLOAT_MAX:
        raise _untrusted(spec, m)
    if type(m) is not int and float(m).is_integer():
        m = int(m)
    key = spec.payload_bits, spec.error_target
    try:
        gamma = _SINR_ROWS[key][m]
    except (KeyError, IndexError, TypeError):  # no row, m past it, or not an int
        gamma = math.nan
    if gamma == gamma:  # not NaN: known
        _sinr_counts[0] += 1
        return gamma
    _sinr_counts[1] += 1
    if type(m) is not int or m >= _ROW_BUDGET:
        return _sinr_root(*key, m)
    gammas = _SINR_ROWS.get(key, ())
    if len(gammas) <= m:
        gammas = _row(key, m + 1)
    gammas[m] = _sinr_root(*key, m)
    return gammas[m]


def _untrusted(spec: UserSpec, m: float) -> ValueError:
    return ValueError(
        f"blocklength {m} not finite or below the model's minimum blocklength "
        f"({spec.min_blocklength})"
    )


#: The store: rows by (payload_bits, error_target), the required SINRs of
#: m = 0, 1, ... (NaN: not yet known), oldest grown first, of at most
#: _ROW_BUDGET entries (1 MiB of floats).  Only NaN entries are written, so
#: no table viewing a row changes; growth is a copy.  Its counts: entries
#: read, computed and held.  _generation counts the rows replaced or
#: dropped, and the clears: a view taken of the store while it holds is a
#: view of rows the store still keeps.
_SINR_ROWS: dict[tuple, array] = {}
_ROW_BUDGET = 1 << 17
_NAN = array("d", [math.nan])
_sinr_counts = [0, 0, 0]
_generation = [0]
_LOCK = threading.Lock()
#: The table of an empty window.
_EMPTY = np.frombuffer(_NAN[:0])
_EMPTY.flags.writeable = False


def _row(key: tuple, size: int) -> array:
    """key's row, grown to size (and by a quarter) if shorter and then the
    newest; then the oldest grown rows go, if need be."""
    with _LOCK:
        row = _SINR_ROWS.get(key, _NAN[:0])
        held = len(row)
        if held < size:
            gammas = _NAN * min(_ROW_BUDGET, max(size, held * 5 // 4))
            gammas[:held] = row
            _SINR_ROWS.pop(key, None)
            _SINR_ROWS[key] = row = gammas
            _sinr_counts[2] += len(row) - held
            _generation[0] += 1
        while _sinr_counts[2] > _ROW_BUDGET:
            _sinr_counts[2] -= len(_SINR_ROWS.pop(next(iter(_SINR_ROWS))))
            _generation[0] += 1
    return row


def _sinr_cache_clear() -> None:
    with _LOCK:
        _SINR_ROWS.clear()
        _sinr_counts[:] = 0, 0, 0
        _generation[0] += 1


#: Work of the roots found since import: those whose window _certified
#: certifies at both ends (jumps), those with an end it leaves open, which
#: skip fewer comparisons or none (fallbacks), and the closed-form
#: evaluations of all of them, sinr_for_blocklength's included.  A root
#: past the doubling's limit is neither: it raises BracketError.
_root_counts = [0, 0, 0]
_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_RootInfo = namedtuple("RootInfo", "jumps fallbacks evals")
required_sinr.cache_info = lambda: _CacheInfo(
    *_sinr_counts[:2], _ROW_BUDGET, _sinr_counts[2]
)
required_sinr.cache_clear = _sinr_cache_clear
required_sinr.root_info = lambda: _RootInfo(*_root_counts)


#: The doubling bracket of a root gives up past this SINR.
_BRACKET_LIMIT = 1e150
#: The last power of two the doubling tries.
_BRACKET_TOP = 2.0 ** math.floor(math.log2(_BRACKET_LIMIT))


def _doubling(payload_bits: int, q: float, m: float, a=0.0, b=math.inf) -> float:
    """The top of m's bracket: the first power of two from 1 on whose
    blocklength is at most m.  Raises BracketError past _BRACKET_LIMIT.
    As in _bisect, a power at or below a is passed, and one at or above b
    taken, without an evaluation.

    It raises at m when every power's computed blocklength is above m, and
    then above every smaller m too: so a window's roots raise exactly when
    the one at its smallest m does."""
    top = 1.0
    while True:
        if top >= b:
            return top
        if top > a:
            _root_counts[2] += 1
            if _blocklength(top, payload_bits, q) <= m:
                return top
        top *= 2.0
        if top > _BRACKET_LIMIT:
            raise BracketError(
                f"required SINR for {payload_bits} bits in {m} uses "
                "exceeds representable range"
            )


def _sinr_root(payload_bits: int, error_target: float, m: float) -> float:
    """required_sinr without the store: _bisect on m's doubling bracket,
    both evaluating only the points inside m's certified window."""
    q = _q_ln2(error_target)
    a, b = _certified(payload_bits, q, m)
    top = _doubling(payload_bits, q, m, a, b)
    _root_counts[0 if a > 0.0 and b < math.inf else 1] += 1
    return _bisect(payload_bits, q, m, 0.0, top, a, b)


#: Relative error bound of the closed form _blocklength, scalar or numpy,
#: against exact arithmetic on the same float inputs, per unit of
#: 1 + 1/gamma, with 1 ulp = 2**-52.  + - * / and sqrt round to nearest
#: (1/2 ulp); log2, and the scalar form's libm pow for (1+g)**2, are taken
#: to be within 4 ulp (libm's within 1, numpy's SIMD log2 within 4):
#: (a) 1 + g rounds by up to 1/2 ulp of 1 + g, a relative change of g of
#:     1/2 ulp * (1 + 1/g); the exact result, whose elasticity in g is at
#:     most 2, moves by at most (1 + 1/g) ulp.
#: (b) log_term: log2 adds 4 ulp.  The root scales like log_term**-s with
#:     s in [1/2, 1], so the result (root squared) moves by at most 8 ulp.
#: (c) dispersion: (1+g)**2 and its reciprocal come within 5 ulp of
#:     1/(1+g)**2; 1 - 1/(1+g)**2 = g(2+g)/(1+g)**2 cancels, leaving at
#:     most 5 ulp / (g(2+g)) <= 2.5 ulp / g, plus 1/2 ulp for the
#:     subtraction.  The root scales like dispersion**s with s in [0, 1/2],
#:     so the result moves by at most 3 (1 + 1/g) ulp.
#: The dozen roundings after these can each add 1/2 ulp, which the final
#: square doubles: 12 ulp more.  So the error stays below
#: 25 ulp * (1 + 1/g), and 64 ulp covers it more than twice over.  The
#: largest error seen on a sweep of gamma over 1e-9..1e13 is
#: 3.0 ulp * (1 + 1/gamma), for either form; tests/test_fbl.py fails if a
#: sweep shows more than an eighth of the margin.
_CLOSED_FORM_MARGIN = 64 * 2.0**-52

#: Newton steps of a root estimate.  From _window's start, 4 steps brought
#: each of 50,000 sampled roots (N 1-3000, eps 1e-12-0.9, m 1-20,000)
#: within 1e-14 of where Newton settles; 3 steps left 43 of them short.
_NEWTON_STEPS = 4
#: ln(1 + gamma) of the largest estimate taken: past every power of two
#: the doubling tries, with room for a window below it.
_T_CAP = math.log(4.0 * _BRACKET_TOP)

#: The functions _window and _certain take from math for one root, and
#: from numpy for the enclosure pass.
_MATH = SimpleNamespace(
    sqrt=math.sqrt, expm1=math.expm1, log2=math.log2, minimum=min, maximum=max
)
_NUMPY = SimpleNamespace(
    sqrt=np.sqrt, expm1=np.expm1, log2=np.log2, minimum=np.minimum, maximum=np.maximum
)


def _margin(gamma):
    """The closed form's relative error bound at gamma."""
    return _CLOSED_FORM_MARGIN * (1.0 + 1.0 / gamma)


def _window(payload_bits, q, m, xp):
    """Ends a < b of a window around m's root, for _certain to check.

    The estimate is Newton's on the rate form f(t) = t/ln 2 - c sqrt(v) -
    N/m in t = ln(1 + gamma), with v = 1 - exp(-2t) and c = q/sqrt(m).
    f(0) < 0, and f is convex in t for q >= 0 and concave for q < 0, so
    Newton started right (left) of the root approaches it monotonically and
    needs no safeguarding bracket.  The start is the nearer of the roots of
    f with v bounded by 1 and by 2t (a quadratic in sqrt(t)), which both lie
    on that side.  The window's half-width is 8 error margins of the closed
    form at the estimate, over its elasticity -d ln B / d ln gamma there:
    the blocklength at either end lies about 8 margins from m, which leaves
    _certain's 4 and the estimate's own error room.  With numpy, payload_bits
    and q may vary per entry, and each entry takes the start of its q's sign.
    """
    r = payload_bits / m
    c = q / xp.sqrt(m)
    s = xp.sqrt(2.0 * c * c + 4.0 * r / LN2)
    if isinstance(q, float):
        t = _start(r, c, s, q >= 0.0, xp)
    else:
        t = np.where(q >= 0.0, _start(r, c, s, True, xp), _start(r, c, s, False, xp))
    for _ in range(_NEWTON_STEPS):
        v = -xp.expm1(-2.0 * t)
        w = xp.sqrt(v)
        slope = 1.0 / LN2 - c * (1.0 - v) / w
        t = t - (t / LN2 - c * w - r) / slope
    gamma = xp.expm1(xp.minimum(t, _T_CAP))
    # f's slope in t over its slope in ln m, times d t / d ln gamma.
    elasticity = slope / (0.5 * c * w + r) * gamma / (1.0 + gamma)
    half = 8.0 * _margin(gamma) / elasticity * gamma
    return gamma - half, gamma + half


def _start(r, c, s, convex, xp):
    """_window's Newton start in t, for q >= 0 (convex) or q < 0."""
    if convex:
        u = 0.5 * LN2 * (_SQRT2 * c + s)
        return xp.minimum(LN2 * (r + c), u * u)
    u = 2.0 * r / (s - _SQRT2 * c)  # the same root, without cancellation
    return xp.maximum(LN2 * (r + c), u * u)


def _certain(payload_bits, q, m, a, b, xp):
    """Whether the closed form is certainly above m at every point that
    _bisect or _doubling compares up to a, and certainly below m at every
    one from b on.  Each claim holds alone, whatever the other end's.

    Take mu(g) = _margin(g) and B the closed form in exact arithmetic,
    strictly decreasing in g.  From b on, mu falls, so a value at b below
    m (1 - 4 mu(b)) puts B there below m (1 - 3 mu(b)), and every computed
    value beyond below m.  On [a/2, a], mu at most doubles, and a value at a
    of at least m (1 + 4 mu(a)) keeps every computed value above m while
    mu(a) < 1/8.  Below a/2, each halving of g raises B by more than 0.1%
    up to 4 * _BRACKET_TOP, past every window, while mu stays below 3e-5 on
    the points compared: midpoints of brackets wider than _SINR_TOL, and
    powers of two from 1.

    Both certain, the root lies in [a - w, b + w] (_enclosures).  The
    bisection's bracket [lo, hi] only ever takes midpoints: one at or below
    a moves lo, one at or above b moves hi.  So lo stays 0 or a midpoint
    below b, and hi a midpoint above a or top, which is above a too: the
    doubling passes every power of two up to a.  Its last bracket therefore
    meets [a, b], and the root, that bracket's midpoint, lies within the
    bracket's width of [a, b].  The doubling stops at the first power of two
    p >= b at the latest (at 1 if b < 1), so that width is _SINR_STEP or at
    most the float spacing p * 2**-53 < b * 2**-52: at most w.
    """
    at_a = _blocklength(a, payload_bits, q, xp.log2, xp.sqrt)
    at_b = _blocklength(b, payload_bits, q, xp.log2, xp.sqrt)
    return at_a >= m * (1.0 + 4.0 * _margin(a)), at_b < m * (1.0 - 4.0 * _margin(b))


def _certified(payload_bits: int, q: float, m: float) -> tuple[float, float]:
    """The ends a < b of m's window (_window) that _certain certifies, for
    _bisect and _doubling; a = 0 or b = inf where it does not."""
    a, b = _window(payload_bits, q, m, _MATH)
    if not a > 0.0:  # the closed form fails at a <= 0
        return 0.0, math.inf
    _root_counts[2] += 2
    at_a, at_b = _certain(payload_bits, q, m, a, b, _MATH)
    return a if at_a else 0.0, b if at_b else math.inf


def _enclosures(payload_bits, q, m):
    """Bounds below <= required_sinr <= above, stacked, for broadcast arrays
    of payload_bits, q = q_inv(eps)/ln 2 and integer m, entry by entry, from
    one numpy pass of _window and _certain: no bracket, no finish, no store.

    Where _certain holds, [a - w, b + w] with w = max(_SINR_STEP, b * 2**-52)
    (see _certain); rounding is monotone, so the float ends still enclose
    the root, a float.  b <= _BRACKET_TOP also keeps the doubling from
    giving up, so a finite above means no BracketError.  Every other entry
    gets [0, inf].
    """
    with np.errstate(all="ignore"):
        a, b = _window(payload_bits, q, m, _NUMPY)
        at_a, at_b = _certain(payload_bits, q, m, a, b, _NUMPY)
        # NaN compares false: an estimate that failed is not certain.
        sure = at_a & at_b & (b <= _BRACKET_TOP)
        w = np.maximum(_SINR_STEP, b * 2.0**-52)
        below = np.where(sure, np.maximum(a - w, 0.0), 0.0)
        return np.stack((below, np.where(sure, b + w, math.inf)))


def required_sinr_table(spec: UserSpec, m_lo: int, m_hi: int) -> np.ndarray:
    """required_sinr evaluated on the integer blocklengths m_lo..m_hi.

    A read-only array; index i holds the SINR for m = m_lo + i, bit for bit
    required_sinr's: a slice of the store's row whose NaN entries, if any,
    are found by _sinr_root and written.  A window reaching _ROW_BUDGET gets
    an array of its own, as long as the window.
    """
    if m_lo < spec.min_blocklength:
        raise _untrusted(spec, m_lo)
    if m_lo > m_hi:
        return _EMPTY
    key = spec.payload_bits, spec.error_target
    if m_hi >= _ROW_BUDGET:
        return _fill(key, m_lo, np.full(m_hi - m_lo + 1, math.nan))
    row = _SINR_ROWS.get(key, ())
    if len(row) <= m_hi:
        row = _row(key, m_hi + 1)
    return _fill(key, m_lo, np.frombuffer(row)[m_lo : m_hi + 1])


def _fill(key: tuple, m_lo: int, gammas: np.ndarray) -> np.ndarray:
    """gammas, the SINRs of key from m_lo on, with its NaN entries found one
    by one and written, made read-only."""
    missing = np.isnan(gammas).nonzero()[0]
    gammas[missing] = [_sinr_root(*key, m) for m in (missing + m_lo).tolist()]
    _sinr_counts[0] += len(gammas) - len(missing)
    _sinr_counts[1] += len(missing)
    gammas.flags.writeable = False
    return gammas


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
