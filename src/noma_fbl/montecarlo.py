"""Seeded Monte-Carlo comparison of superposed transmission vs TDMA.

Protocol: both users carry 20-byte (160-bit) packets at block-error target
1e-7; channel magnitudes |h_k| are i.i.d. Rayleigh with scale 100 (so the
power gains are exponential with mean 2 * 100^2) under unit noise power;
user 2's deadline is fixed while user 1's deadline and the power budget are
swept on grids.  Power budgets are specified in dBm and converted as
p[W] = 10^((dBm - 30)/10) with the noise already normalized to 1, so
30 dBm corresponds to 1.0 in solver units.

Reproducibility: channels come from numpy's counter-based Philox generator
via the inverse-CDF transform |h| = scale * sqrt(-2 * ln(1 - u)), u uniform
in [0, 1).  A config (including its seed) therefore pins every trial, and
the same draws are reused across all grid cells (common random numbers), so
differences between cells are never sampling noise.

Aggregates per (d1, p_max) cell: feasibility counts per scheme and for
their union, mean energies over the trials where both schemes are feasible
in that cell, unconditional per-scheme means, and means over the "common"
trials, those feasible for both schemes at every d1 sharing the same power
budget.  The common-set means are the ones to read for curve shapes along
d1: the averaging set is fixed, so per-trial monotonicity survives the
average.

Each cell is solved as array expressions over all the draws (the column
forms in noma and tdma), with the scalar solvers' checks and arithmetic;
noma's also relabels the users on a deadline tie, as solve_noma does.
noma._noma_columns solves every budget of a d1 at once, and tdma._columns
every budget of every d1: TDMA reads d1 only through its split window
(tdma._window), and each window is a prefix of the widest, so one pass over
the draws weighs them all.  A cell keeps compact per-trial columns
(energies, winner and verdict codes, the chosen TDMA split), from which
TrialBatch.records rebuilds any trial's outcomes on access, equal to
solve_noma's and solve_tdma's; so every aggregate can be recomputed.
"""

import math
import numbers
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .fbl import UserSpec
from .noma import _noma_columns, _noma_outcome, _requirements
from .tdma import _columns, _outcome, _window
from .types import ChannelPair, PowerBudget, SolveOutcome

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "CellRecords",
    "CellStats",
    "TrialBatch",
    "dbm_to_watts",
    "draw_channels",
    "draw_channel_batch",
    "run_trials",
]

DEFAULT_D1_GRID = tuple(range(100, 291, 10))

#: The most trials x grid cells a run may solve.  At the cap, 100,000 trials
#: on the default 60-cell grid took 0.8 s and 172 MB peak RSS; a run holds
#: about 23 bytes per trial cell there, and about 104 bytes per trial on a
#: one-cell grid, where the cap took 6.6 s and 661 MB (2-vCPU Xeon VM).
_TRIAL_CELLS_CAP = 6_000_000


def dbm_to_watts(dbm: float) -> float:
    """Linear power for a dBm value; 30 dBm -> 1.0 in unit-noise units.

    Raises ValueError when the power overflows a float.
    """
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"{dbm} dBm overflows a float power") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs that fully determine a Monte-Carlo run: at most
    _TRIAL_CELLS_CAP trials x grid cells, each d1's TDMA split window within
    tdma._WINDOW_CAP."""

    n_trials: int = 1000
    seed: int = 1
    rayleigh_scale: float = 100.0
    d1_grid: tuple[int, ...] = DEFAULT_D1_GRID
    d2: int = 300
    p_max_dbm_grid: tuple[float, ...] = (20.0, 25.0, 30.0)
    payload_bits: int = 160
    error_target: float = 1e-7
    min_blocklength: int = 100

    def __post_init__(self):
        if not isinstance(self.n_trials, numbers.Integral) or self.n_trials < 1:
            raise ValueError(f"n_trials must be an integer >= 1, got {self.n_trials!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        _check_scale(self.rayleigh_scale)
        # A repeated value would repeat its cells in every table.
        for name in ("d1_grid", "p_max_dbm_grid"):
            grid = getattr(self, name)
            if not grid or len(set(grid)) < len(grid):
                raise ValueError(f"{name} must be non-empty and distinct, got {grid}")
        for p_max_dbm in self.p_max_dbm_grid:
            PowerBudget(dbm_to_watts(p_max_dbm))  # finite and positive
        if any(d1 > self.d2 for d1 in self.d1_grid):
            raise ValueError(f"every d1 must be <= d2={self.d2}, got {self.d1_grid}")
        # UserSpec's rules.  The grids keep the CLI's types, whole deadlines
        # as ints and budgets as floats, so the rows read the same.
        d1_grid = tuple(self.user1_spec(d1).deadline for d1 in self.d1_grid)
        object.__setattr__(self, "d1_grid", d1_grid)
        object.__setattr__(self, "d2", self.user1_spec(self.d2).deadline)
        object.__setattr__(self, "p_max_dbm_grid", tuple(map(float, self.p_max_dbm_grid)))
        # Every array a run allocates follows the trials and cells, or a
        # split window: each within its cap before anything is drawn.
        cells = len(d1_grid) * len(self.p_max_dbm_grid)
        if self.n_trials * cells > _TRIAL_CELLS_CAP:
            raise ValueError(
                f"{self.n_trials} trials x {cells} grid cells is more than "
                f"{_TRIAL_CELLS_CAP} trial cells"
            )
        s2 = self.user2_spec()
        for d1 in d1_grid:
            _window(self.user1_spec(d1), s2)

    def user2_spec(self) -> UserSpec:
        return self.user1_spec(self.d2)

    def user1_spec(self, d1: int) -> UserSpec:
        return UserSpec(
            payload_bits=self.payload_bits,
            error_target=self.error_target,
            deadline=d1,
            min_blocklength=self.min_blocklength,
        )


def _check_scale(scale: float) -> None:
    """Raise ValueError unless scale is positive and every gain drawn with it
    is a normal float: from about 2**-52 * scale**2 (u = 2**-53) up to
    106 ln 2 * scale**2 (u = 1 - 2**-53)."""
    square = scale * scale
    if not (
        scale > 0.0
        and 2.0**-52 * square >= sys.float_info.min
        and 106.0 * math.log(2.0) * square < math.inf
    ):
        raise ValueError(
            f"rayleigh scale must be positive and draw normal floats, got {scale}"
        )


def draw_channel_batch(rng: np.random.Generator, scale: float, n: int) -> np.ndarray:
    """n i.i.d. squared Rayleigh magnitudes per user, shape (n, 2).

    Inverse-CDF transform of Philox uniforms: |h| = scale*sqrt(-2 ln(1-u)),
    returned squared.  Consumes exactly 2n uniforms in row order.
    """
    _check_scale(scale)
    u = rng.random((n, 2))
    magnitudes = scale * np.sqrt(-2.0 * np.log1p(-u))
    return magnitudes**2


def draw_channels(rng: np.random.Generator, scale: float) -> ChannelPair:
    """One Rayleigh channel pair (squared magnitudes) from the generator."""
    g = draw_channel_batch(rng, scale, 1)[0]
    return ChannelPair(g1=float(g[0]), g2=float(g[1]))


class TrialRecord(NamedTuple):
    """Solver outcomes for one channel realization in one grid cell."""

    noma: SolveOutcome
    tdma: SolveOutcome


class CellRecords(Sequence):
    """The trial outcomes of one grid cell, held as per-trial columns.

    Item i is the TrialRecord of trial i, rebuilt on access: equal to what
    solve_noma and solve_tdma return for ChannelPair(g1[i], g2[i]) and the
    cell's specs and budget.  Nothing rebuilt is kept.  The columns come from
    noma._noma_columns (noma_winner: index of the winning formulation, -1
    for none; noma_codes: each formulation's verdict code; noma_energy)
    and tdma._columns (tdma_best: index into splits, -1 for none, as
    tdma._pick chooses it; tdma_energy); energies are NaN where infeasible.
    The formulations' pinned blocklengths and required SINRs (noma_needs)
    are read once per cell, so its rebuilt outcomes share those floats.
    """

    def __init__(
        self,
        g1: np.ndarray,
        g2: np.ndarray,
        s1: UserSpec,
        s2: UserSpec,
        splits,
        noma: tuple[np.ndarray, np.ndarray, np.ndarray],
        tdma: tuple[np.ndarray, np.ndarray],
    ):
        self.g1, self.g2, self.s1, self.s2, self.splits = g1, g2, s1, s2, splits
        self.noma_winner, self.noma_codes, self.noma_energy = noma
        self.tdma_best, self.tdma_energy = tdma

    @cached_property
    def noma_needs(self) -> list:
        return _requirements(self.s1, self.s2)

    @property
    def noma_feasible(self) -> np.ndarray:
        return self.noma_winner >= 0

    @property
    def tdma_feasible(self) -> np.ndarray:
        return self.tdma_best >= 0

    def __len__(self) -> int:
        return len(self.g1)

    def __getitem__(self, i: int) -> TrialRecord:
        ch = ChannelPair(float(self.g1[i]), float(self.g2[i]))
        winner, codes = int(self.noma_winner[i]), self.noma_codes[:, i].tolist()
        noma = _noma_outcome(winner, codes, ch, self.s1, self.s2, self.noma_needs)
        return TrialRecord(noma, _outcome(self.splits, int(self.tdma_best[i]), ch))


def _mean(values: np.ndarray) -> float:
    # Strictly left to right, so the output bits are the same on every
    # Python and numpy: np.sum adds pairwise, and sum() of floats adds with
    # compensation from Python 3.12 on.  Where the sum of finite values
    # overflows (under _aggregate's errstate), the sum of value / n instead.
    if not len(values):
        return math.nan
    total = np.add.accumulate(values)[-1]
    if np.isinf(total) and np.isfinite(values).all():
        return float(np.add.accumulate(values / len(values))[-1])
    return float(total) / len(values)


@dataclass(frozen=True)
class CellStats:
    """Aggregates for one (d1, p_max_dbm) grid cell.

    Field names double as the CSV column names (ENERGY_COLUMNS,
    FEASIBILITY_COLUMNS).
    """

    d1: int
    pmax_dbm: float
    n_trials: int
    n_noma_feasible: int
    n_tdma_feasible: int
    n_any_feasible: int
    n_both_feasible: int
    n_common: int
    mean_energy_noma: float  # over trials feasible for both schemes here
    mean_energy_tdma: float
    mean_energy_noma_scheme: float  # unconditional per-scheme means
    mean_energy_tdma_scheme: float
    mean_energy_noma_common: float  # over the fixed per-budget common set
    mean_energy_tdma_common: float

    @property
    def frac_noma_feasible(self) -> float:
        return self.n_noma_feasible / self.n_trials

    @property
    def frac_tdma_feasible(self) -> float:
        return self.n_tdma_feasible / self.n_trials

    @property
    def frac_any_feasible(self) -> float:
        return self.n_any_feasible / self.n_trials


#: CellStats attributes in column order of the energy table.
ENERGY_COLUMNS = (
    "d1",
    "pmax_dbm",
    "n_trials",
    "n_both_feasible",
    "n_common",
    "mean_energy_noma",
    "mean_energy_tdma",
    "mean_energy_noma_scheme",
    "mean_energy_tdma_scheme",
    "mean_energy_noma_common",
    "mean_energy_tdma_common",
)

#: CellStats attributes in column order of the feasibility table.
FEASIBILITY_COLUMNS = (
    "d1",
    "pmax_dbm",
    "n_trials",
    "frac_noma_feasible",
    "frac_tdma_feasible",
    "frac_any_feasible",
)


@dataclass
class TrialBatch:
    """Complete result of a Monte-Carlo run: records plus aggregates.

    records is keyed by (d1, p_max_dbm); each cell's CellRecords rebuilds
    its trial outcomes on access from per-trial columns.  g1 and g2 hold
    the single set of draws shared by every cell (channels builds them as
    ChannelPairs on first access).  common_trials maps each power budget
    to the trial indices feasible for both schemes at every d1.
    """

    config: ExperimentConfig
    g1: np.ndarray
    g2: np.ndarray
    records: dict[tuple[int, float], CellRecords]
    cells: dict[tuple[int, float], CellStats] = field(default_factory=dict)
    common_trials: dict[float, tuple[int, ...]] = field(default_factory=dict)

    @cached_property
    def channels(self) -> tuple[ChannelPair, ...]:
        return tuple(map(ChannelPair, self.g1.tolist(), self.g2.tolist()))

    def cell(self, d1: int, p_max_dbm: float) -> CellStats:
        return self.cells[(d1, p_max_dbm)]

    def energy_rows(self) -> list[dict]:
        """Flat table of the energy aggregates, one row per cell."""
        return self._rows(ENERGY_COLUMNS)

    def feasibility_rows(self) -> list[dict]:
        """Flat table of the feasibility fractions, one row per cell."""
        return self._rows(FEASIBILITY_COLUMNS)

    def _rows(self, columns: tuple[str, ...]) -> list[dict]:
        return [
            {col: getattr(self.cell(d1, pmax), col) for col in columns}
            for pmax in self.config.p_max_dbm_grid
            for d1 in self.config.d1_grid
        ]


def run_trials(
    cfg: ExperimentConfig, channels: tuple[ChannelPair, ...] | None = None
) -> TrialBatch:
    """Run the full (d1 x p_max) grid over seeded channel draws.

    Channels are drawn once and reused in every cell.  Each cell is solved
    as array expressions over all the draws, with the scalar solvers'
    checks and arithmetic, so every record equals the scalar outcome.
    Infeasible trials are recorded with their verdicts, never raised.
    Passing explicit channels (mainly for tests) skips the drawing but
    keeps everything else identical.  Aggregation is a plain reduction in
    trial order, so results are bit-reproducible for a given config.
    """
    if channels is None:
        rng = np.random.Generator(np.random.Philox(cfg.seed))
        g1, g2 = draw_channel_batch(rng, cfg.rayleigh_scale, cfg.n_trials).T.copy()
    elif len(channels) != cfg.n_trials:
        raise ValueError(
            f"{len(channels)} channel overrides for {cfg.n_trials} trials"
        )
    else:
        g1, g2 = np.array([(ch.g1, ch.g2) for ch in channels], dtype=float).T.copy()

    s1s, s2 = [cfg.user1_spec(d1) for d1 in cfg.d1_grid], cfg.user2_spec()
    p_maxes = [dbm_to_watts(p_max_dbm) for p_max_dbm in cfg.p_max_dbm_grid]
    windows = _columns(s1s, s2, g1, g2, p_maxes)
    # Every budget of a d1 at once, in (budgets, n) columns.
    budgets = np.array(p_maxes)[:, None]
    nomas = [_noma_columns(g1, g2, s1, s2, budgets) for s1 in s1s]
    records: dict[tuple[int, float], CellRecords] = {}
    for k, p_max_dbm in enumerate(cfg.p_max_dbm_grid):
        for d1, s1, (winner, codes, energy) in zip(cfg.d1_grid, s1s, nomas):
            splits, tdma = windows[_window(s1, s2)]
            noma = winner[k], codes[:, k], energy[k]
            records[(d1, p_max_dbm)] = CellRecords(
                g1, g2, s1, s2, splits, noma, tdma[k]
            )

    batch = TrialBatch(config=cfg, g1=g1, g2=g2, records=records)
    _aggregate(batch)
    return batch


def _aggregate(batch: TrialBatch) -> None:
    cfg = batch.config
    # _mean's sums of huge finite energies may overflow.
    with np.errstate(over="ignore"):
        for p_max_dbm in cfg.p_max_dbm_grid:
            cell_list = [batch.records[(d1, p_max_dbm)] for d1 in cfg.d1_grid]
            # Each cell's feasibility masks, computed once.
            oks = [(rs.noma_feasible, rs.tdma_feasible) for rs in cell_list]
            both = [noma_ok & tdma_ok for noma_ok, tdma_ok in oks]
            common = np.flatnonzero(np.logical_and.reduce(both))
            batch.common_trials[p_max_dbm] = tuple(common.tolist())
            for d1, rs, (noma_ok, tdma_ok), both_here in zip(cfg.d1_grid, cell_list, oks, both):
                batch.cells[(d1, p_max_dbm)] = CellStats(
                    d1=d1,
                    pmax_dbm=p_max_dbm,
                    n_trials=cfg.n_trials,
                    n_noma_feasible=int(np.count_nonzero(noma_ok)),
                    n_tdma_feasible=int(np.count_nonzero(tdma_ok)),
                    n_any_feasible=int(np.count_nonzero(noma_ok | tdma_ok)),
                    n_both_feasible=int(np.count_nonzero(both_here)),
                    n_common=len(common),
                    mean_energy_noma=_mean(rs.noma_energy[both_here]),
                    mean_energy_tdma=_mean(rs.tdma_energy[both_here]),
                    mean_energy_noma_scheme=_mean(rs.noma_energy[noma_ok]),
                    mean_energy_tdma_scheme=_mean(rs.tdma_energy[tdma_ok]),
                    mean_energy_noma_common=_mean(rs.noma_energy[common]),
                    mean_energy_tdma_common=_mean(rs.tdma_energy[common]),
                )
