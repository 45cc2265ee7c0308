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


def solve_tdma(
    ch: ChannelPair, s1: UserSpec, s2: UserSpec, budget: PowerBudget
) -> SolveOutcome:
    """Exact minimum-energy time split between the two users.

    Enumerates every integer m1 in [min_blocklength_1, min(D1, D2 -
    min_blocklength_2)], keeping the lowest-energy split whose per-slot
    powers respect the budget (ties go to the smallest m1).  Requires
    s1.deadline <= s2.deadline; callers order users first.
    """
    _require_deadline_order(s1, s2)
    d1, d2 = s1.deadline, s2.deadline
    m1_lo = s1.min_blocklength
    m1_hi = min(d1, d2 - s2.min_blocklength)
    if m1_lo > m1_hi:
        return SolveOutcome(verdict=InfeasibleReason.BLOCKLENGTH_WINDOW_EMPTY)
    try:
        gamma1 = required_sinr_table(s1, m1_lo, m1_hi)
        gamma2 = required_sinr_table(s2, d2 - m1_hi, d2 - m1_lo)
    except BracketError:
        return SolveOutcome(verdict=InfeasibleReason.RATE_UNREACHABLE)

    m1 = np.arange(m1_lo, m1_hi + 1)
    m2 = d2 - m1
    gamma2 = gamma2[::-1]  # reorder so index i matches m2 = d2 - m1[i]
    # One user per slot: the budget caps each power separately.
    ok = (gamma1 <= budget.p_max * ch.g1) & (gamma2 <= budget.p_max * ch.g2)
    if not ok.any():
        return SolveOutcome(verdict=InfeasibleReason.POWER_BUDGET_EXCEEDED)
    energy = m1 * gamma1 / ch.g1 + m2 * gamma2 / ch.g2
    idx = np.flatnonzero(ok)
    best = idx[np.argmin(energy[idx])]
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
