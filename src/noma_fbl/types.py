"""Shared value types for the allocation solvers."""

import enum
from dataclasses import dataclass


class Scheme(enum.Enum):
    """Transmission scheme behind an allocation.

    SIC_RX2: superposed codewords, receiver 2 cancels receiver 1's signal
        before decoding its own (valid when receiver 2 has the stronger
        channel and the longer deadline).
    TIN: superposed codewords, both receivers treat the other's signal as
        noise; each codeword spans its own full deadline.
    SIC_RX1: both codewords fit within the shorter deadline so receiver 1
        can cancel receiver 2's signal before decoding its own.
    TDMA: orthogonal baseline, one user transmits at a time.
    """

    SIC_RX2 = "sic-rx2"
    TIN = "tin"
    SIC_RX1 = "sic-rx1"
    TDMA = "tdma"


class InfeasibleReason(enum.Enum):
    """Typed verdict explaining why no allocation exists."""

    #: Required transmit powers sum above the budget.
    POWER_BUDGET_EXCEEDED = "power-budget-exceeded"
    #: Product of the two required SINRs is >= 1; the mutual-interference
    #: power equations have no nonnegative solution.
    SIC_PRODUCT_GE_ONE = "sic-product-ge-one"
    #: No blocklength satisfies the minimum-blocklength and deadline bounds.
    BLOCKLENGTH_WINDOW_EMPTY = "blocklength-window-empty"
    #: Even the largest admissible SINR cannot deliver the payload in time.
    RATE_UNREACHABLE = "rate-unreachable"


@dataclass(frozen=True)
class ChannelPair:
    """Squared channel-gain magnitudes |h1|^2, |h2|^2, unit-noise normalized."""

    g1: float
    g2: float

    def __post_init__(self):
        if not self.g1 > 0.0:
            raise ValueError(f"g1 must be positive, got {self.g1}")
        if not self.g2 > 0.0:
            raise ValueError(f"g2 must be positive, got {self.g2}")


@dataclass(frozen=True)
class PowerBudget:
    """Total transmit power cap in linear watts (unit-noise normalized)."""

    p_max: float

    def __post_init__(self):
        if not self.p_max > 0.0:
            raise ValueError(f"p_max must be positive, got {self.p_max}")


@dataclass(frozen=True)
class Allocation:
    """A feasible decision: blocklengths, powers, SINRs, and total energy.

    energy is stored as exactly m1*p1 + m2*p2.  sic_overall_error is the
    end-to-end error probability of the receiver that decodes behind an SIC
    stage (None for schemes without SIC).
    """

    m1: float
    m2: float
    p1: float
    p2: float
    gamma1: float
    gamma2: float
    energy: float
    scheme: Scheme
    sic_overall_error: float | None = None


@dataclass(frozen=True)
class SolveOutcome:
    """Either a feasible Allocation or a typed infeasibility verdict.

    Exactly one of allocation / verdict is set.  sub_verdicts carries the
    per-subproblem verdicts when a dispatcher tried several formulations and
    all failed.  relabeled records that the solver swapped the two users to
    enforce its deadline-ordering convention.
    """

    allocation: Allocation | None = None
    verdict: InfeasibleReason | None = None
    sub_verdicts: tuple[tuple[Scheme, InfeasibleReason], ...] | None = None
    relabeled: bool = False

    def __post_init__(self):
        if (self.allocation is None) == (self.verdict is None):
            raise ValueError("exactly one of allocation/verdict must be set")

    @property
    def feasible(self) -> bool:
        return self.allocation is not None

    @property
    def energy(self) -> float:
        if self.allocation is None:
            raise ValueError(f"no allocation (verdict: {self.verdict})")
        return self.allocation.energy

