"""Energy-optimal two-user downlink allocation under finite-blocklength
and reliability constraints, with a TDMA baseline and a seeded Monte-Carlo
harness for comparing the schemes over Rayleigh fading."""

from .fbl import (
    BracketError,
    ENERGY_MONOTONE_THRESHOLD,
    UserSpec,
    achievable_rate,
    blocklength_for_sinr,
    energy_curve,
    energy_monotone,
    rate_deficit,
    required_sinr,
    sinr_for_blocklength,
)
from .montecarlo import (
    ExperimentConfig,
    TrialBatch,
    dbm_to_watts,
    draw_channels,
    run_trials,
)
from .noma import (
    order_by_deadline,
    overall_sic_error,
    sic_stage_error,
    solve_noma,
    solve_sic_rx1,
    solve_sic_rx2,
    solve_tin,
)
from .qfunc import q_func, q_inv
from .tdma import solve_tdma
from .types import (
    Allocation,
    ChannelPair,
    InfeasibleReason,
    PowerBudget,
    Scheme,
    SolveOutcome,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "q_func",
    "q_inv",
    "BracketError",
    "ENERGY_MONOTONE_THRESHOLD",
    "UserSpec",
    "achievable_rate",
    "rate_deficit",
    "blocklength_for_sinr",
    "sinr_for_blocklength",
    "required_sinr",
    "energy_monotone",
    "energy_curve",
    "Scheme",
    "InfeasibleReason",
    "ChannelPair",
    "PowerBudget",
    "Allocation",
    "SolveOutcome",
    "overall_sic_error",
    "sic_stage_error",
    "order_by_deadline",
    "solve_noma",
    "solve_sic_rx1",
    "solve_sic_rx2",
    "solve_tin",
    "solve_tdma",
    "ExperimentConfig",
    "TrialBatch",
    "dbm_to_watts",
    "draw_channels",
    "run_trials",
]
