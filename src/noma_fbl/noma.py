"""Closed-form energy-optimal solvers for superposed two-user transmission.

A transmitter sends both users' codewords simultaneously as a power-domain
superposition.  User 1 always has the shorter deadline (D1 <= D2).  Which
receiver, if any, can run successive interference cancellation (SIC) depends
on the channel ordering and on whether both codewords fit inside the shorter
deadline.  Spending more channel uses on a codeword lowers both its required
SINR and its blocklength-energy product (see fbl.energy_monotone), so every
formulation pins each blocklength at its binding deadline, looks up the
required SINRs gamma_k = required_sinr(s_k, m_k), inverts its SINR maps for
the powers in closed form and checks the budget.  The formulations differ
only in these table rows (_SIC_RX2, _TIN, _SIC_RX1):

  scheme   channels  m2  SINR maps                    SIC composition
  sic-rx2  g1 <= g2  D2  gamma1 = p1*g1/(p2*g1 + 1)   eps1 then eps2
                         gamma2 = p2*g2
  tin      g1 >  g2  D2  gamma1 = p1*g1/(p2*g1 + 1)   none; needs
                         gamma2 = p2*g2/(p1*g2 + 1)   gamma1*gamma2 < 1
  sic-rx1  g1 >  g2  D1  gamma1 = p1*g1               eps2 then eps1
                         gamma2 = p2*g2/(p1*g2 + 1)

m1 is always D1.  sic-rx2: receiver 2 hears everything receiver 1 must
decode, so it cancels codeword 1 first.  tin: codeword 2 may outlast D1, so
neither receiver can cancel.  sic-rx1: both codewords are confined to D1, so
receiver 1 (the stronger channel) cancels codeword 2 first.

One kernel, _solve, runs every formulation from its row; solve_sic_rx2,
solve_tin and solve_sic_rx1 add their channel-order precondition.
solve_noma dispatches on the channel ordering and, in the g1 > g2 regime,
keeps the cheaper of the two candidate formulations.
"""

from typing import Callable, NamedTuple

from .fbl import BracketError, UserSpec, required_sinr
from .types import (
    Allocation,
    ChannelPair,
    InfeasibleReason,
    PowerBudget,
    Scheme,
    SolveOutcome,
)

__all__ = [
    "overall_sic_error",
    "sic_stage_error",
    "order_by_deadline",
    "solve_sic_rx2",
    "solve_tin",
    "solve_sic_rx1",
    "solve_noma",
]


def overall_sic_error(eps_stage1: float, eps_stage2: float) -> float:
    """End-to-end error of a decode that sits behind an SIC stage.

    The receiver fails if the cancellation stage fails, or if it succeeds
    and the receiver's own decode then fails:
    eps_stage1 + (1 - eps_stage1) * eps_stage2.
    """
    return eps_stage1 + (1.0 - eps_stage1) * eps_stage2


def sic_stage_error(eps_stage1: float, eps_overall: float) -> float:
    """Per-decode error budget that composes to a given end-to-end target.

    Inverse of overall_sic_error in its second argument.  Requires
    eps_overall > eps_stage1, otherwise no achievable per-decode budget
    exists (the cancellation stage alone already exhausts the target).
    """
    if eps_overall <= eps_stage1:
        raise ValueError(
            f"end-to-end target {eps_overall} not achievable behind an SIC "
            f"stage with error {eps_stage1}"
        )
    return (eps_overall - eps_stage1) / (1.0 - eps_stage1)


def order_by_deadline(
    ch: ChannelPair, s1: UserSpec, s2: UserSpec
) -> tuple[ChannelPair, UserSpec, UserSpec, bool]:
    """Label the user with the shorter deadline as user 1.

    Deadline ties are broken by giving label 1 to the weaker channel, which
    keeps the SIC-at-receiver-2 formulation applicable.  Returns the
    (possibly swapped) channel pair and specs plus a flag saying whether a
    swap happened.
    """
    if s1.deadline < s2.deadline:
        return ch, s1, s2, False
    if s2.deadline < s1.deadline:
        return ChannelPair(ch.g2, ch.g1), s2, s1, True
    if ch.g1 <= ch.g2:
        return ch, s1, s2, False
    return ChannelPair(ch.g2, ch.g1), s2, s1, True


def _require_deadline_order(s1: UserSpec, s2: UserSpec) -> None:
    """Raise ValueError unless user 1 has the shorter (or equal) deadline."""
    if s1.deadline > s2.deadline:
        raise ValueError(
            f"user 1 must have the shorter deadline ({s1.deadline} > {s2.deadline}); "
            "see order_by_deadline"
        )


def _powers_sic_rx2(
    gamma1: float, gamma2: float, g1: float, g2: float
) -> tuple[float, float]:
    """Invert the SIC-at-receiver-2 SINR maps for the transmit powers."""
    p2 = gamma2 / g2
    p1 = gamma1 * gamma2 / g2 + gamma1 / g1
    return p1, p2


def _powers_tin(
    gamma1: float, gamma2: float, g1: float, g2: float
) -> tuple[float, float]:
    """Invert the mutual-interference SINR maps; requires gamma1*gamma2 < 1."""
    denom = g1 * g2 * (1.0 - gamma1 * gamma2)
    p1 = (gamma1 * g2 + gamma1 * gamma2 * g1) / denom
    p2 = (gamma2 * g1 + gamma1 * gamma2 * g2) / denom
    return p1, p2


def _powers_sic_rx1(
    gamma1: float, gamma2: float, g1: float, g2: float
) -> tuple[float, float]:
    """Invert the SIC-at-receiver-1 SINR maps for the transmit powers."""
    p1 = gamma1 / g1
    p2 = gamma1 * gamma2 / g1 + gamma2 / g2
    return p1, p2


class _Formulation(NamedTuple):
    """One row of the formulation table (see the module docstring)."""

    scheme: Scheme
    #: m2 sits at D1 (both codewords inside the shorter deadline), else at D2.
    m2_at_d1: bool
    #: (gamma1, gamma2, g1, g2) -> (p1, p2).
    powers: Callable[[float, float, float, float], tuple[float, float]]
    #: Indices into (s1, s2) of the cancelled and the own decode, or None.
    sic_stages: tuple[int, int] | None
    #: The maps only invert when gamma1 * gamma2 < 1.
    product_wall: bool


_SIC_RX2 = _Formulation(Scheme.SIC_RX2, False, _powers_sic_rx2, (0, 1), False)
_TIN = _Formulation(Scheme.TIN, False, _powers_tin, None, True)
_SIC_RX1 = _Formulation(Scheme.SIC_RX1, True, _powers_sic_rx1, (1, 0), False)


def _solve(
    row: _Formulation,
    ch: ChannelPair,
    s1: UserSpec,
    s2: UserSpec,
    budget: PowerBudget,
) -> SolveOutcome:
    """Minimum-energy allocation of one formulation, from its table row.

    Checks, in order: user 2's blocklength window (empty only when m2 = D1
    falls below its minimum blocklength), rate reachability of both required
    SINRs within p_max * g_k, the SINR-product wall, and the power budget.
    """
    _require_deadline_order(s1, s2)
    deadline2 = s1.deadline if row.m2_at_d1 else s2.deadline
    if s2.min_blocklength > deadline2:
        return SolveOutcome(verdict=InfeasibleReason.BLOCKLENGTH_WINDOW_EMPTY)
    try:
        gamma1 = required_sinr(s1, s1.deadline)
        gamma2 = required_sinr(s2, deadline2)
    except BracketError:
        return SolveOutcome(verdict=InfeasibleReason.RATE_UNREACHABLE)
    if gamma1 > budget.p_max * ch.g1 or gamma2 > budget.p_max * ch.g2:
        return SolveOutcome(verdict=InfeasibleReason.RATE_UNREACHABLE)
    if row.product_wall and gamma1 * gamma2 >= 1.0:
        return SolveOutcome(verdict=InfeasibleReason.SIC_PRODUCT_GE_ONE)
    p1, p2 = row.powers(gamma1, gamma2, ch.g1, ch.g2)
    if p1 + p2 > budget.p_max:
        return SolveOutcome(verdict=InfeasibleReason.POWER_BUDGET_EXCEEDED)
    sic_overall_error = None
    if row.sic_stages is not None:
        eps = (s1.error_target, s2.error_target)
        first, second = row.sic_stages
        sic_overall_error = overall_sic_error(eps[first], eps[second])
    m1 = float(s1.deadline)
    m2 = m1 if row.m2_at_d1 else float(s2.deadline)
    return SolveOutcome(
        allocation=Allocation(
            m1=m1,
            m2=m2,
            p1=p1,
            p2=p2,
            gamma1=gamma1,
            gamma2=gamma2,
            energy=m1 * p1 + m2 * p2,
            scheme=row.scheme,
            sic_overall_error=sic_overall_error,
        )
    )


def solve_sic_rx2(
    ch: ChannelPair, s1: UserSpec, s2: UserSpec, budget: PowerBudget
) -> SolveOutcome:
    """Minimum-energy allocation with SIC at receiver 2 (needs g1 <= g2).

    Both codewords span their full deadlines; the required SINRs follow,
    and the powers invert the SINR maps:

        m_k = D_k,  gamma_k = required_sinr(s_k, D_k),
        p1 = gamma1*gamma2/g2 + gamma1/g1,  p2 = gamma2/g2.

    Infeasible when a required SINR exceeds what the full budget could ever
    produce on that link (rate unreachable) or when p1 + p2 > p_max.
    """
    if ch.g1 > ch.g2:
        raise ValueError(
            f"SIC at receiver 2 needs g1 <= g2, got g1={ch.g1} > g2={ch.g2}"
        )
    return _solve(_SIC_RX2, ch, s1, s2, budget)


def solve_tin(
    ch: ChannelPair, s1: UserSpec, s2: UserSpec, budget: PowerBudget
) -> SolveOutcome:
    """Minimum-energy allocation with interference treated as noise.

    Both codewords span their full deadlines.  With gamma_k =
    required_sinr(s_k, D_k), the mutual-interference maps invert to

        p1 = (gamma1*g2 + gamma1*gamma2*g1) / (g1*g2*(1 - gamma1*gamma2)),
        p2 = (gamma2*g1 + gamma1*gamma2*g2) / (g1*g2*(1 - gamma1*gamma2)),

    which only exists when gamma1*gamma2 < 1 (otherwise each user's power
    feeds the other's interference faster than it can be outrun).
    """
    return _solve(_TIN, ch, s1, s2, budget)


def solve_sic_rx1(
    ch: ChannelPair, s1: UserSpec, s2: UserSpec, budget: PowerBudget
) -> SolveOutcome:
    """Minimum-energy allocation with both codewords inside D1, SIC at rx 1.

    Needs g1 >= g2 so that receiver 1 decodes codeword 2 at least as
    reliably as its intended receiver does.  Both blocklengths sit at D1
    (user 2's deadline is looser, so only D1 binds), giving

        m1 = m2 = D1,  gamma_k = required_sinr(s_k, D1),
        p1 = gamma1/g1,  p2 = gamma1*gamma2/g1 + gamma2/g2.

    The result does not depend on D2.
    """
    if ch.g1 < ch.g2:
        raise ValueError(
            f"SIC at receiver 1 needs g1 >= g2, got g1={ch.g1} < g2={ch.g2}"
        )
    return _solve(_SIC_RX1, ch, s1, s2, budget)


_VERDICT_PRECEDENCE = (
    InfeasibleReason.POWER_BUDGET_EXCEEDED,
    InfeasibleReason.SIC_PRODUCT_GE_ONE,
    InfeasibleReason.RATE_UNREACHABLE,
    InfeasibleReason.BLOCKLENGTH_WINDOW_EMPTY,
)


def solve_noma(
    ch: ChannelPair, s1: UserSpec, s2: UserSpec, budget: PowerBudget
) -> SolveOutcome:
    """Best superposed-transmission allocation for arbitrary user order.

    Users are relabeled so user 1 has the shorter deadline (ties: weaker
    channel first).  With g1 <= g2 the SIC-at-receiver-2 formulation is the
    scheme; with g1 > g2 both remaining formulations are solved and the
    cheaper feasible one wins (ties prefer TIN).  When everything fails the
    verdict lists each subproblem's reason, headlined by the first reason in
    budget/product/rate/window order.
    """
    ch, s1, s2, relabeled = order_by_deadline(ch, s1, s2)
    if ch.g1 <= ch.g2:
        candidates = ((Scheme.SIC_RX2, solve_sic_rx2),)
    else:
        candidates = ((Scheme.TIN, solve_tin), (Scheme.SIC_RX1, solve_sic_rx1))
    best = None
    subs = []
    for scheme, solve in candidates:
        outcome = solve(ch, s1, s2, budget)
        a = outcome.allocation
        if a is None:
            subs.append((scheme, outcome.verdict))
        elif best is None or a.energy < best.energy:
            best = a
    if best is not None:
        return SolveOutcome(allocation=best, relabeled=relabeled)
    verdict = min((v for _, v in subs), key=_VERDICT_PRECEDENCE.index)
    return SolveOutcome(verdict=verdict, sub_verdicts=tuple(subs), relabeled=relabeled)
