"""Closed-form energy-optimal solvers for superposed two-user transmission.

A transmitter sends both users' codewords simultaneously as a power-domain
superposition.  User 1 always has the shorter deadline (D1 <= D2).  Which
receiver, if any, can run successive interference cancellation (SIC) depends
on the channel ordering and on whether both codewords fit inside the shorter
deadline.  Spending more channel uses on a codeword lowers both its required
SINR and its blocklength-energy product (see fbl.energy_monotone), so every
formulation pins each blocklength at its binding deadline and looks up the
required SINRs gamma_k = required_sinr(s_k, m_k) (_requirement), inverts
its SINR maps for the powers in closed form and checks the budget; an
energy m1*p1 + m2*p2 that overflows a float is over any budget.  The
formulations differ only in these table rows (_SIC_RX2, _TIN, _SIC_RX1):

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

One kernel, _fold, runs every formulation from its row and _requirement: it
passes on a verdict that needs no gains, or folds rate reachability, the
SINR-product wall and the budget into a verdict code and an energy, on one
draw's floats or on columns of gains sharing one (s1, s2, budget), which is
what a Monte-Carlo cell is; under a column of budgets, a Monte-Carlo d1, it
inverts the powers once for all of them, as they do not depend on the
budget.  Its one switch between floats and columns is the where(mask, a, b)
it is given: _FLOAT or _COLUMNS (np.where).  One rule, _winner, picks
solve_noma's scheme: sic-rx2 when g1 <= g2, else the cheaper feasible of
tin and sic-rx1.  solve_sic_rx2, solve_tin and solve_sic_rx1 are the kernel
on one draw behind their channel-order precondition; solve_noma and
_noma_columns (deadline-tie relabel included) run it on the candidates and
apply the rule, and _noma_outcome rebuilds a trial's outcome from its
codes.
"""

import math
import sys
from typing import Callable, NamedTuple

import numpy as np

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


#: The smallest normal float: below it a product of gains loses bits.
_NORMAL_MIN = sys.float_info.min


def _powers_tin(
    gamma1: float, gamma2: float, g1: float, g2: float
) -> tuple[float, float]:
    """Invert the mutual-interference SINR maps; requires gamma1*gamma2 < 1.

    The gains are one draw's floats or arrays of draws.  Where g1*g2 falls
    below the normal float range it loses bits, so there, and only there,
    each map is divided by its gain first:
    p1 = (gamma1/g1 + gamma1*gamma2/g2) / (1 - gamma1*gamma2), p2 alike.
    """
    product = gamma1 * gamma2
    wall = 1.0 - product
    gains = g1 * g2
    tiny = gains < _NORMAL_MIN
    columns = isinstance(tiny, np.ndarray)
    if not columns and tiny:
        return (gamma1 / g1 + product / g2) / wall, (gamma2 / g2 + product / g1) / wall
    denom = gains * wall
    p1 = (gamma1 * g2 + product * g1) / denom
    p2 = (gamma2 * g1 + product * g2) / denom
    if columns and np.count_nonzero(tiny):
        p1 = np.where(tiny, (gamma1 / g1 + product / g2) / wall, p1)
        p2 = np.where(tiny, (gamma2 / g2 + product / g1) / wall, p2)
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
_ROWS = (_SIC_RX2, _TIN, _SIC_RX1)
#: The rows solve_noma solves, in tie-break order, by whether g1 <= g2.
_CANDIDATES = {False: (1, 2), True: (0,)}

#: The verdicts in the order an outcome headlines them.  A formulation's
#: verdict code is its verdict's index here, or _FEASIBLE.  Its checks run
#: window, rate, wall, budget, so the first one that fails has the highest
#: code of those that fail.
_VERDICT_PRECEDENCE = (
    InfeasibleReason.POWER_BUDGET_EXCEEDED,
    InfeasibleReason.SIC_PRODUCT_GE_ONE,
    InfeasibleReason.RATE_UNREACHABLE,
    InfeasibleReason.BLOCKLENGTH_WINDOW_EMPTY,
)
_BUDGET, _WALL, _RATE, _WINDOW = range(len(_VERDICT_PRECEDENCE))
_FEASIBLE = -1


def _requirement(
    row: _Formulation, s1: UserSpec, s2: UserSpec
) -> tuple[float, float, float, float] | int:
    """The (m1, m2) a formulation pins, m1 at D1 and m2 at D1 or D2, and the
    (gamma1, gamma2) they need; or the code of the verdict that rules the
    formulation out whatever the channel: user 2's blocklength window is
    empty (m2 = D1 below its minimum), or a required SINR leaves any
    realistic range.  The SINRs are read at the integer deadlines."""
    m1 = s1.deadline
    m2 = m1 if row.m2_at_d1 else s2.deadline
    if s2.min_blocklength > m2:
        return _WINDOW
    try:
        return float(m1), float(m2), required_sinr(s1, m1), required_sinr(s2, m2)
    except BracketError:
        return _RATE


def _requirements(s1: UserSpec, s2: UserSpec) -> list:
    """_requirement of every row of _ROWS, in order."""
    return [_requirement(row, s1, s2) for row in _ROWS]


# The where(mask, a, b) of _fold and _winner: _FLOAT on one draw's floats,
# _COLUMNS on columns of draws.  Their masks combine with & and |, which mean
# the same on bools and on bool arrays; ~ does not (~True is -2).
def _FLOAT(mask, a, b):
    return a if mask else b


_COLUMNS = np.where


def _fold(row, need, g1, g2, p_max, where):
    """The one superposition kernel: a formulation's verdict code, energy
    (NaN unless feasible) and the run (m1, m2, gamma1, gamma2, p1, p2) that
    _allocation takes, from its _requirement need on gains (g1, g2).

    A need that is a verdict code needed no gains: it comes back as it is,
    with NaN and no run, single values even for columns.  Otherwise the
    checks, in precedence order: rate reachability (gamma_k > p_max*g_k),
    the SINR-product wall, and the power budget (p1 + p2 > p_max, which an
    energy that overflows a float exceeds too).  Past the wall there are no
    powers; otherwise they invert the row's SINR maps, the energy is
    m1*p1 + m2*p2, and reachability's code overrides the budget's.  The
    SINRs are floats; the gains are one draw's floats (where=_FLOAT) or
    columns of draws (where=_COLUMNS, under
    np.errstate(divide="ignore", over="ignore")).
    """
    if isinstance(need, int):
        return need, math.nan, None
    m1, m2, gamma1, gamma2 = need
    if row.product_wall and gamma1 * gamma2 >= 1.0:
        # The maps have no inverse, whatever the gains.
        code, energy, p1, p2 = _WALL, math.nan, math.nan, math.nan
    else:
        try:
            p1, p2 = row.powers(gamma1, gamma2, g1, g2)
        except ZeroDivisionError:
            # tin's denominator g1*g2*(1 - gamma1*gamma2) underflowed to 0:
            # the powers overflow, as numpy's IEEE division makes them.
            p1 = p2 = math.inf
        energy = m1 * p1 + m2 * p2
        code = where((p1 + p2 > p_max) | (energy == math.inf), _BUDGET, _FEASIBLE)
    code = where((gamma1 > p_max * g1) | (gamma2 > p_max * g2), _RATE, code)
    energy = where(code != _FEASIBLE, math.nan, energy)
    return code, energy, (*need, p1, p2)


def _allocation(row: _Formulation, s1: UserSpec, s2: UserSpec, run) -> Allocation:
    m1, m2, gamma1, gamma2, p1, p2 = run
    sic_overall_error = None
    if row.sic_stages is not None:
        eps = (s1.error_target, s2.error_target)
        first, second = row.sic_stages
        sic_overall_error = overall_sic_error(eps[first], eps[second])
    energy = m1 * p1 + m2 * p2
    return Allocation(m1, m2, p1, p2, gamma1, gamma2, energy, row.scheme, sic_overall_error)


def _solve(
    row: _Formulation, ch: ChannelPair, s1: UserSpec, s2: UserSpec, budget: PowerBudget
) -> SolveOutcome:
    """Minimum-energy allocation of one formulation, from its table row:
    _fold on one draw."""
    _require_deadline_order(s1, s2)
    need = _requirement(row, s1, s2)
    code, _, run = _fold(row, need, ch.g1, ch.g2, budget.p_max, _FLOAT)
    if code != _FEASIBLE:
        return SolveOutcome(verdict=_VERDICT_PRECEDENCE[code])
    return SolveOutcome(allocation=_allocation(row, s1, s2, run))


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


def _winner(weak_first, codes, energies, where):
    """solve_noma's dispatch, the one place it is written: the index in
    _ROWS of the winning formulation, or -1 when none is feasible.

    sic-rx2 when g1 <= g2 (weak_first); otherwise the cheaper feasible of
    tin and sic-rx1, ties to tin.  codes and energies hold every row's
    verdict code and energy; a row that was not solved has code None.
    where is _fold's: _FLOAT on one draw, _COLUMNS on columns of draws.
    """
    ok = [code == _FEASIBLE for code in codes]
    rx1_wins = ok[2] & ((codes[1] != _FEASIBLE) | (energies[2] < energies[1]))
    strong_first = where(rx1_wins, 2, where(ok[1], 1, -1))
    return where(weak_first, where(ok[0], 0, -1), strong_first)


def _outcome(winner, codes, runs, weak_first, s1, s2, relabeled) -> SolveOutcome:
    """solve_noma's outcome from _winner: the winner's allocation from its
    run, or every candidate's verdict in candidate order, headlined by the
    first in budget/product/rate/window order."""
    if winner >= 0:
        allocation = _allocation(_ROWS[winner], s1, s2, runs[winner])
        return SolveOutcome(allocation, None, None, relabeled)
    candidates = _CANDIDATES[weak_first]
    subs = tuple((_ROWS[k].scheme, _VERDICT_PRECEDENCE[codes[k]]) for k in candidates)
    verdict = _VERDICT_PRECEDENCE[min(codes[k] for k in candidates)]
    return SolveOutcome(None, verdict, subs, relabeled)


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
    weak_first = ch.g1 <= ch.g2
    codes, energies, runs = [None] * 3, [math.nan] * 3, [None] * 3
    for k in _CANDIDATES[weak_first]:
        need = _requirement(_ROWS[k], s1, s2)
        codes[k], energies[k], runs[k] = _fold(
            _ROWS[k], need, ch.g1, ch.g2, budget.p_max, _FLOAT
        )
    winner = _winner(weak_first, codes, energies, _FLOAT)
    return _outcome(winner, codes, runs, weak_first, s1, s2, relabeled)


def _noma_columns(
    g1: np.ndarray,
    g2: np.ndarray,
    s1: UserSpec,
    s2: UserSpec,
    p_max: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """solve_noma over arrays of gains sharing one (s1, s2), under the
    budget p_max: a float, or a (budgets x 1) column of them.

    Returns, per trial, the index in _ROWS of the winning formulation (-1
    when none is feasible), every formulation's verdict code (shape
    (3, n)) and the winner's energy (NaN when none), all for the users as
    order_by_deadline labels them; under a budget column each has a budget
    axis before the trial axis, (budgets, n) and (3, budgets, n).  The
    powers do not depend on the budget, so a column inverts them once for
    all its budgets.  A feasible trial's energy equals the scalar one bit
    for bit: both are _fold's arithmetic.
    """
    _require_deadline_order(s1, s2)
    if s1.deadline == s2.deadline:
        # order_by_deadline gives label 1 to the weaker channel.  The specs
        # of a Monte-Carlo cell differ only in their deadlines, so on a tie
        # they are equal and only the gains swap.
        g1, g2 = np.minimum(g1, g2), np.maximum(g1, g2)
    # Tiny gains overflow the powers and energies, as the scalar arithmetic
    # does, and tin's product form divides by an underflowed g1*g2 where its
    # divided form then takes over; huge gains overflow p_max*g.
    shape = np.broadcast_shapes(np.shape(p_max), g1.shape)
    codes, energies = np.empty((3, *shape), np.int8), np.empty((3, *shape))
    with np.errstate(divide="ignore", over="ignore"):
        for k, need in enumerate(_requirements(s1, s2)):
            # A verdict that needs no gains is one value for the whole row.
            codes[k], energies[k], _ = _fold(_ROWS[k], need, g1, g2, p_max, _COLUMNS)
    winner = _winner(g1 <= g2, codes, energies, _COLUMNS).astype(np.int8)
    energy = np.take_along_axis(energies, winner[None], 0)[0]
    return winner, codes, np.where(winner >= 0, energy, np.nan)


def _noma_outcome(
    winner: int,
    codes: list[int],
    ch: ChannelPair,
    s1: UserSpec,
    s2: UserSpec,
    needs: list,
) -> SolveOutcome:
    """The outcome solve_noma gives for one trial of _noma_columns, rebuilt
    from its winner and codes on its channel pair.  needs is
    _requirements(s1, s2), which a whole cell shares: on a deadline tie
    order_by_deadline swaps only the gains, as the specs are then equal."""
    ch, s1, s2, relabeled = order_by_deadline(ch, s1, s2)
    runs = [None] * 3
    if winner >= 0:
        # The winner passed every check under the cell's budget; without a
        # budget the kernel gives back its allocation, bit for bit.
        row = _ROWS[winner]
        runs[winner] = _fold(row, needs[winner], ch.g1, ch.g2, math.inf, _FLOAT)[2]
    return _outcome(winner, codes, runs, ch.g1 <= ch.g2, s1, s2, relabeled)
