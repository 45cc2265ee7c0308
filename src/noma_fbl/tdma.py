"""Orthogonal (time-division) baseline under the same rate model.

User 1 transmits first for m1 channel uses, user 2 immediately after for m2
uses, so user 1's slot must fit its own deadline and both slots together
must fit user 2's deadline: m1 <= D1 and m1 + m2 <= D2.  With no inter-user
interference the SINRs are gamma_k = p_k * g_k, and the power cap applies
per active slot (only one user transmits at a time).

Because a longer codeword never costs energy (fbl.energy_monotone regime),
user 2 always takes all the remaining time, m2 = D2 - m1.  That leaves a
single integer decision variable, which is minimized exhaustively:

    E(m1) = m1 * required_sinr(s1, m1) / g1
          + (D2 - m1) * required_sinr(s2, D2 - m1) / g2

solve_tdma minimizes it for one channel pair; _best_splits makes the same
choice for many draws sharing (s1, s2, budget), one row per draw.
"""

import numpy as np

from .fbl import BracketError, UserSpec, required_sinr_table
from .noma import _require_deadline_order
from .types import (
    Allocation,
    ChannelPair,
    InfeasibleReason,
    PowerBudget,
    Scheme,
    SolveOutcome,
)

__all__ = ["solve_tdma"]

#: Energy-matrix elements per chunk of trials in _best_splits (8 bytes each).
_CHUNK_ELEMENTS = 1 << 18

#: The candidate splits of one (s1, s2): m1, m2 = D2 - m1 and their required
#: SINRs, index-aligned on m1 ascending.
_Splits = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _splits(s1: UserSpec, s2: UserSpec) -> _Splits | InfeasibleReason:
    """Every time split solve_tdma weighs, or the verdict that rules out all
    of them whatever the channel."""
    _require_deadline_order(s1, s2)
    d2 = s2.deadline
    m1_lo = s1.min_blocklength
    m1_hi = min(s1.deadline, d2 - s2.min_blocklength)
    if m1_lo > m1_hi:
        return InfeasibleReason.BLOCKLENGTH_WINDOW_EMPTY
    try:
        gamma1 = required_sinr_table(s1, m1_lo, m1_hi)
        gamma2 = required_sinr_table(s2, d2 - m1_hi, d2 - m1_lo)
    except BracketError:
        return InfeasibleReason.RATE_UNREACHABLE
    m1 = np.arange(m1_lo, m1_hi + 1)
    # gamma2 reversed so that index i matches m2 = d2 - m1[i]
    return m1, d2 - m1, gamma1, gamma2[::-1]


def _outcome(
    splits: _Splits | InfeasibleReason, best: int, ch: ChannelPair
) -> SolveOutcome:
    """The outcome of choosing split index best (-1: none within budget)."""
    if isinstance(splits, InfeasibleReason):
        return SolveOutcome(verdict=splits)
    if best < 0:
        return SolveOutcome(verdict=InfeasibleReason.POWER_BUDGET_EXCEEDED)
    m1, m2, gamma1, gamma2 = splits
    p1 = gamma1[best] / ch.g1
    p2 = gamma2[best] / ch.g2
    return SolveOutcome(
        allocation=Allocation(
            m1=float(m1[best]),
            m2=float(m2[best]),
            p1=float(p1),
            p2=float(p2),
            gamma1=float(gamma1[best]),
            gamma2=float(gamma2[best]),
            energy=float(m1[best] * p1 + m2[best] * p2),
            scheme=Scheme.TDMA,
        )
    )


def solve_tdma(
    ch: ChannelPair, s1: UserSpec, s2: UserSpec, budget: PowerBudget
) -> SolveOutcome:
    """Exact minimum-energy time split between the two users.

    Enumerates every integer m1 in [min_blocklength_1, min(D1, D2 -
    min_blocklength_2)], keeping the lowest-energy split whose per-slot
    powers respect the budget (ties go to the smallest m1).  Requires
    s1.deadline <= s2.deadline; callers order users first.
    """
    splits = _splits(s1, s2)
    best = -1
    if not isinstance(splits, InfeasibleReason):
        m1, m2, gamma1, gamma2 = splits
        # One user per slot: the budget caps each power separately.
        ok = (gamma1 <= budget.p_max * ch.g1) & (gamma2 <= budget.p_max * ch.g2)
        if ok.any():
            energy = m1 * gamma1 / ch.g1 + m2 * gamma2 / ch.g2
            idx = np.flatnonzero(ok)
            best = idx[np.argmin(energy[idx])]
    return _outcome(splits, best, ch)


def _best_splits(
    splits: _Splits | InfeasibleReason, g1: np.ndarray, g2: np.ndarray, p_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """solve_tdma's choice for arrays of gains: per trial, the split index
    (-1: none) and its energy (NaN for none).

    Same comparisons and arithmetic as solve_tdma on a (trials x splits)
    matrix, in chunks of trials that bound its size.
    """
    n = len(g1)
    if isinstance(splits, InfeasibleReason):
        return np.full(n, -1, np.int32), np.full(n, np.nan)
    m1, m2, gamma1, gamma2 = splits
    e1, e2 = m1 * gamma1, m2 * gamma2
    best = np.empty(n, np.int32)
    step = max(1, _CHUNK_ELEMENTS // len(m1))
    for lo in range(0, n, step):
        a, b = g1[lo : lo + step, None], g2[lo : lo + step, None]
        ok = (gamma1 <= p_max * a) & (gamma2 <= p_max * b)
        pick = np.where(ok, e1 / a + e2 / b, np.inf).argmin(axis=1)
        # The argmin lands outside ok only when every allowed energy is inf
        # too; solve_tdma then keeps the first allowed split.
        first = np.where(ok.any(axis=1), ok.argmax(axis=1), -1)
        best[lo : lo + step] = np.where(ok[np.arange(len(pick)), pick], pick, first)
    chosen = np.maximum(best, 0)
    energy = m1[chosen] * (gamma1[chosen] / g1) + m2[chosen] * (gamma2[chosen] / g2)
    return best, np.where(best >= 0, energy, np.nan)
