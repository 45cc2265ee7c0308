"""Orthogonal (time-division) baseline under the same rate model.

User 1 transmits first for m1 channel uses, user 2 immediately after for m2
uses, so user 1's slot must fit its own deadline and both slots together
must fit user 2's deadline: m1 <= D1 and m1 + m2 <= D2.  With no inter-user
interference the SINRs are gamma_k = p_k * g_k, and the power cap applies
per active slot (only one user transmits at a time).

Because a longer codeword never costs energy (fbl.energy_monotone regime),
user 2 always takes all the remaining time, m2 = D2 - m1.  That leaves a
single integer decision variable: the split of least energy

    E(m1) = m1 * required_sinr(s1, m1) / g1
          + (D2 - m1) * required_sinr(s2, D2 - m1) / g2

among those the budget allows, the smallest m1 on a tie; an energy that
overflows a float is over any budget too.  _energies computes these
energies, inf for a split over budget, and _pick makes this choice for one
draw or for arrays of draws; _pick_floats makes it on Python floats, with
the same arithmetic.

solve_tdma takes its path by split window, from one lookup in the memo of
_splits.  A window not seen picks from enclosures: one numpy pass bounds
every SINR, and only the splits whose _energies at the lower bounds are
finite and at most the least _energies at the upper bounds may be _pick's
choice (_enclosed_splits); _pick_floats weighs those few, one or two on
most windows.  The window is then marked seen (_SEEN), and its next solve
fills its tables and memo entry.  Later solves read the memo: _pick_one
takes the first least budget-free energy from its products where the
budget keeps it, else _pick.  The memo, marks included, owns copies of its
SINRs, is bounded by the store's budget, empties only when the store is
cleared, and keeps no window whose tables the store would not keep; such a
window picks from enclosures on every solve.  _columns, the column form
for many draws under several budgets and deadlines of user 1, reads the
widest window through _splits (the narrower ones view its prefixes),
weighs it once, applies the same rule per budget (_kept), and decides
alone on which windows, draws and budgets it runs.  A window past
_WINDOW_CAP splits is refused before anything is allocated.
"""

import math

import numpy as np

from . import fbl
from .fbl import BracketError, UserSpec, required_sinr, required_sinr_table
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

#: Energy-matrix elements per chunk of draws in _columns (8 bytes each).
_CHUNK_ELEMENTS = 1 << 18

#: The most splits a window may have.  At 2**19 splits a cold
#: `noma-fbl solve --scheme all` took 0.6-5.3 s and 147 MB peak RSS over six
#: sets of gains, payloads and error targets (2-vCPU Xeon VM); past it a
#: window reaches for minutes and gigabytes, and at 2**53 for petabytes.
_WINDOW_CAP = 1 << 19


class _Splits(tuple):
    """The candidate splits of one window: the tuple (m1, m2, gamma1,
    gamma2), m1 ascending with m2 = D2 - m1 and their required SINRs,
    index-aligned.  a1 = m1 * gamma1 and a2 = m2 * gamma2 are the first
    products _energies forms, so a1 / g1 + a2 / g2 are its budget-free
    energies, bit for bit; top is (max a1, max a2) as floats.  Every array
    is read-only: the memo hands the same ones to every caller."""

    def __new__(cls, m1, m2, gamma1, gamma2):
        splits = super().__new__(cls, (m1, m2, gamma1, gamma2))
        splits.a1, splits.a2 = m1 * gamma1, m2 * gamma2
        splits.top = float(splits.a1.max()), float(splits.a2.max())
        for array in (*splits, splits.a1, splits.a2):
            array.flags.writeable = False
        return splits


class _Memo:
    """_splits' entries by (N1, eps1, N2, eps2, D2, m1_lo, m1_hi), oldest
    first: a window's _Splits, or _SEEN for a window marked seen, each
    counting m1_hi - m1_lo + 1 of the held splits; valid while fbl._clears
    reads clears, that is until the store is cleared."""

    def __init__(self, clears: int):
        self.clears, self.entries, self.held = clears, {}, 0


_memo = _Memo(-1)
#: The memo's mark of a window solved once from enclosures.
_SEEN = object()


def _window(s1: UserSpec, s2: UserSpec) -> tuple[int, int]:
    """The lowest and highest m1 solve_tdma weighs (empty when lo > hi).
    Raises ValueError past _WINDOW_CAP splits."""
    m1_lo, m1_hi = s1.min_blocklength, min(s1.deadline, s2.deadline - s2.min_blocklength)
    if m1_hi - m1_lo >= _WINDOW_CAP:
        raise ValueError(
            f"the TDMA split window m1 = {m1_lo}..{m1_hi} has more than "
            f"{_WINDOW_CAP} splits"
        )
    return m1_lo, m1_hi


def _splits(
    s1: UserSpec, s2: UserSpec, m1_lo: int, m1_hi: int
) -> _Splits | InfeasibleReason:
    """Every time split of the non-empty window m1_lo..m1_hi, or the verdict
    that rules out all of them whatever the channel.

    The memo of every window: an entry holds copies of the window's two
    table slices, user 2's reversed.  A known root never changes, so an
    entry serves until the store is cleared (fbl._clears moves), whatever
    its rows do.  A hit counts the hits its two table slices would; a mark
    (_SEEN) is a miss.  The memo holds at most fbl._ROW_BUDGET splits, the
    oldest entries going first, and no window that reaches it; entries go
    in under fbl._LOCK, lookups take no lock.  A verdict is not kept.
    """
    d2 = s2.deadline
    key = _key(s1, s2, m1_lo, m1_hi)
    splits = _lookup(key)
    if isinstance(splits, _Splits):
        return splits
    try:
        gamma1 = required_sinr_table(s1, m1_lo, m1_hi)
        gamma2 = required_sinr_table(s2, d2 - m1_hi, d2 - m1_lo)
    except BracketError:
        return InfeasibleReason.RATE_UNREACHABLE
    m1 = np.arange(m1_lo, m1_hi + 1)
    # gamma2 reversed so that index i matches m2 = d2 - m1[i]
    splits = _Splits(m1, d2 - m1, gamma1.copy(), gamma2[::-1].copy())
    _remember(key, splits)
    return splits


def _key(s1: UserSpec, s2: UserSpec, m1_lo: int, m1_hi: int) -> tuple:
    """The memo's key of the window m1_lo..m1_hi of (s1, s2)."""
    n1, eps1, n2, eps2 = s1.payload_bits, s1.error_target, s2.payload_bits, s2.error_target
    return n1, eps1, n2, eps2, s2.deadline, m1_lo, m1_hi


def _lookup(key: tuple):
    """The memo's entry under key since the store's last clear, else None:
    a _Splits, counting the hits its two table slices would, or _SEEN."""
    memo = _memo
    if memo.clears != fbl._clears[0]:
        return None
    entry = memo.entries.get(key)
    if entry is not None and entry is not _SEEN:
        fbl._sinr_counts[0] += 2 * len(entry[0])
    return entry


def _remember(key: tuple, entry) -> None:
    """Keep entry (_SEEN, or the window's splits) under key, replacing only
    a mark, unless the store would not keep the window's tables; then the
    oldest entries go, if need be."""
    global _memo
    _, _, _, _, d2, m1_lo, m1_hi = key
    if max(m1_hi, d2 - m1_lo) >= fbl._ROW_BUDGET:
        return
    with fbl._LOCK:
        if _memo.clears != fbl._clears[0]:
            _memo = _Memo(fbl._clears[0])
        entries = _memo.entries
        if key not in entries:
            entries[key] = entry
            _memo.held += m1_hi - m1_lo + 1
            while _memo.held > fbl._ROW_BUDGET:
                *_, lo, hi = oldest = next(iter(entries))
                del entries[oldest]
                _memo.held -= hi - lo + 1
        elif entries[key] is _SEEN:
            entries[key] = entry


def _allows(gamma1, gamma2, g1, g2, p_max):
    """Whether the budget p_max allows the per-slot powers of SINRs gamma1,
    gamma2 on gains g1, g2: one user per slot, so it caps each power
    separately.  Floats of one draw, or arrays alike."""
    return (gamma1 <= p_max * g1) & (gamma2 <= p_max * g2)


def _kept(energy, gamma1, gamma2, g1, g2, p_max):
    """Whether the budget p_max keeps a split, given its budget-free
    _energies and its SINRs for gains g1, g2: the energy is finite and
    p_max allows its powers.  Floats of one draw, or arrays alike.

    So where the budget keeps the budget-free pick b (the first least
    budget-free energy), b is the budget's pick too: the budget-free
    energies have no NaN (every gamma and gain is finite and positive), the
    budget's equal them where it keeps a split and are inf elsewhere, so a
    kept b is also their first least finite value.  Only where it does not
    keep b is the pick made again under the budget (_pick_one, _columns).
    """
    return (energy < np.inf) & _allows(gamma1, gamma2, g1, g2, p_max)


def _energies(splits, g1, g2, p_max: float | None = None) -> np.ndarray:
    """Each split's energy m1 * gamma1 / g1 + m2 * gamma2 / g2 of splits
    (m1, m2, gamma1, gamma2), or inf where p_max does not allow its powers
    (_allows; never when p_max is None) or the energy overflows: such a
    split is over any budget.  g1 and g2 are one draw's gains, or (draws x
    1) columns of them."""
    m1, m2, gamma1, gamma2 = splits
    # Tiny gains overflow the energies, huge ones p_max * g.
    with np.errstate(over="ignore"):
        energy = m1 * gamma1 / g1 + m2 * gamma2 / g2
        if p_max is not None:
            energy = np.where(_allows(gamma1, gamma2, g1, g2, p_max), energy, np.inf)
    return energy


def _pick(splits, g1, g2, p_max: float | None = None) -> np.ndarray:
    """Along the last axis, the index of the first split of least finite
    _energies, or -1 where none is finite."""
    energy = _energies(splits, g1, g2, p_max)
    return np.where(energy.min(axis=-1) < np.inf, energy.argmin(axis=-1), -1)


def _pick_one(splits: _Splits, g1: float, g2: float, p_max: float) -> int:
    """_pick for one draw's gains and a budget, from the products splits
    keeps: the first least budget-free energy a1 / g1 + a2 / g2 where no
    energy overflows and the budget keeps it (_kept), else _pick."""
    top1, top2 = splits.top
    # Rounding is monotone: no energy overflows if this sum does not.
    if top1 / g1 + top2 / g2 < math.inf:
        energy = splits.a1 / g1 + splits.a2 / g2
        best = int(energy.argmin())
        _, _, gamma1, gamma2 = splits
        if _kept(energy.item(best), gamma1.item(best), gamma2.item(best), g1, g2, p_max):
            return best
    return int(_pick(splits, g1, g2, p_max))


#: The outcome when no split is within the budget.
_OVER_BUDGET = SolveOutcome(None, InfeasibleReason.POWER_BUDGET_EXCEEDED)


def _outcome(splits, best: int, ch: ChannelPair) -> SolveOutcome:
    """The outcome of choosing split index best (-1: none within budget) of
    splits (m1, m2, gamma1, gamma2) or a verdict."""
    if isinstance(splits, InfeasibleReason):
        return SolveOutcome(verdict=splits)
    if best < 0:
        return _OVER_BUDGET
    m1, m2, gamma1, gamma2 = splits
    return _allocation(float(m1[best]), float(m2[best]), gamma1.item(best), gamma2.item(best), ch)


def _allocation(m1: float, m2: float, gamma1: float, gamma2: float, ch: ChannelPair):
    """The outcome of the split m1, m2 at SINRs gamma1, gamma2, or over
    budget when its energy overflows: _pick compares energies rounded in
    another order, so that can still happen within an ulp of the float
    range."""
    p1 = gamma1 / ch.g1
    p2 = gamma2 / ch.g2
    energy = m1 * p1 + m2 * p2
    if energy < math.inf:
        return SolveOutcome(Allocation(m1, m2, p1, p2, gamma1, gamma2, energy, Scheme.TDMA))
    return _OVER_BUDGET


def solve_tdma(
    ch: ChannelPair, s1: UserSpec, s2: UserSpec, budget: PowerBudget
) -> SolveOutcome:
    """Exact minimum-energy time split between the two users.

    Of every integer m1 in [min_blocklength_1, min(D1, D2 -
    min_blocklength_2)], the lowest-energy split whose per-slot powers
    respect the budget (ties go to the smallest m1) and whose energy does
    not overflow, by the module's per-window rule.  Requires s1.deadline <=
    s2.deadline; callers order users first.  Raises ValueError for a window
    of more than _WINDOW_CAP splits.
    """
    _require_deadline_order(s1, s2)
    m1_lo, m1_hi = _window(s1, s2)
    if m1_lo > m1_hi:
        return SolveOutcome(verdict=InfeasibleReason.BLOCKLENGTH_WINDOW_EMPTY)
    p_max = budget.p_max
    key = _key(s1, s2, m1_lo, m1_hi)
    splits = _lookup(key)
    if splits is None:  # a window not seen
        splits = _enclosed_splits(ch, s1, s2, m1_lo, m1_hi, p_max)
        _remember(key, _SEEN)
        if isinstance(splits, InfeasibleReason):
            return SolveOutcome(verdict=splits)
        best = _pick_floats(splits, ch.g1, ch.g2, p_max)
        return _allocation(*splits[best], ch) if best >= 0 else _OVER_BUDGET
    if splits is _SEEN:
        splits = _splits(s1, s2, m1_lo, m1_hi)
    best = -1
    if isinstance(splits, _Splits):
        best = _pick_one(splits, ch.g1, ch.g2, p_max)
    return _outcome(splits, best, ch)


def _enclosed_splits(
    ch: ChannelPair, s1: UserSpec, s2: UserSpec, m1_lo: int, m1_hi: int, p_max: float
) -> list | InfeasibleReason:
    """The splits of the non-empty window m1_lo..m1_hi that may be _pick's
    choice under p_max, as rows (m1, m2, gamma1, gamma2) of floats, m1
    ascending, with their exact SINRs; or the verdict.

    fbl._enclosures bounds every SINR of both windows in one numpy pass,
    below <= gamma <= above, on flat float columns of one length: payload,
    q and m for user 1's splits, then user 2's.  An energy never falls as
    gamma1 or gamma2 grows, rounding is monotone, and a budget that allows
    gamma allows below, so by split the _energies at below and at above
    bound the one _pick weighs, inf included.  A split whose energy at
    below exceeds the least energy at above, or is inf, costs more than a
    split _pick may take, so _pick on the rest makes _pick's choice.
    """
    d2, n = s2.deadline, m1_hi - m1_lo + 1
    g1, g2 = ch.g1, ch.g2
    m = np.arange(float(m1_lo), m1_hi + 1.0)
    m = np.concatenate((m, d2 - m))
    # By entry: the payload, q, the largest SINR the budget allows and the
    # gain, user 1's for its n splits, then user 2's.
    per_user = (
        (s1.payload_bits, s2.payload_bits),
        (fbl._q_ln2(s1.error_target), fbl._q_ln2(s2.error_target)),
        (p_max * g1, p_max * g2),
        (g1, g2),
    )
    payload_bits, q, cap, gain = np.repeat(np.array(per_user), n, axis=1)
    bounds = fbl._enclosures(payload_bits, q, m)
    # A window's tables raise BracketError exactly when its root at its
    # smallest m does (fbl._doubling); a finite above there rules that out.
    try:
        if not bounds[1, 0] < math.inf:
            required_sinr(s1, m1_lo)
        if not bounds[1, -1] < math.inf:
            required_sinr(s2, d2 - m1_hi)
    except BracketError:
        return InfeasibleReason.RATE_UNREACHABLE
    # The energies at below and at above, by split, in _energies'
    # operations: a term whose SINR the budget does not allow is inf, and
    # so is its split's energy.
    with np.errstate(over="ignore"):  # tiny gains overflow the energies
        energy = m * np.where(bounds <= cap, bounds, math.inf) / gain
        low, high = energy[:, :n] + energy[:, n:]
    # At most the least high and finite: if that least is finite, the
    # first implies the second.
    keep = (low <= min(high.min(), fbl._FLOAT_MAX)).nonzero()[0].tolist()
    if not keep:
        return InfeasibleReason.POWER_BUDGET_EXCEEDED
    m1 = [m1_lo + i for i in keep]
    gamma1 = [required_sinr(s1, m) for m in m1]
    gamma2 = [required_sinr(s2, d2 - m) for m in m1]
    return [(float(m), float(d2 - m), a, b) for m, a, b in zip(m1, gamma1, gamma2)]


def _pick_floats(splits: list, g1: float, g2: float, p_max: float) -> int:
    """_pick for one draw's gains and a budget on splits, rows (m1, m2,
    gamma1, gamma2) of floats: the index of the first least energy m1 *
    gamma1 / g1 + m2 * gamma2 / g2 that does not overflow, among the splits
    whose powers the budget allows (_allows), else -1.  IEEE arithmetic
    gives these energies the bits of _energies', so ties go to the smallest
    m1 alike."""
    best, least = -1, math.inf
    cap1, cap2 = p_max * g1, p_max * g2
    for i, (m1, m2, gamma1, gamma2) in enumerate(splits):
        if gamma1 <= cap1 and gamma2 <= cap2:
            energy = m1 * gamma1 / g1 + m2 * gamma2 / g2
            if energy < least:
                best, least = i, energy
    return best


def _columns(
    s1s: list[UserSpec],
    s2: UserSpec,
    g1: np.ndarray,
    g2: np.ndarray,
    p_maxes: list[float],
) -> dict[tuple[int, int], tuple[tuple | InfeasibleReason, list]]:
    """solve_tdma's choice for arrays of gains, for every user-1 spec of s1s
    under each budget of p_maxes: by split window (_window), the window's
    splits or verdict, and per budget each draw's split index (-1: none)
    and energy (NaN for none).

    The specs of s1s may differ only in their deadlines (ValueError
    otherwise), so every window starts at the same m1 and is a prefix of
    the widest one, split i the same floats in every window that holds it.
    A window's tables raise BracketError when their smallest m does, and
    user 2's grows as windows narrow, so the verdicts are the widest
    windows': _splits reads the widest window, then the next narrower one
    while it reads a verdict, and each window narrower than the first with
    splits gets the tuple of its prefix views, so that a run holds memory
    linear in the widest window.  One pass over the budget-free energies of
    that window, in chunks of draws that bound the (splits x draws) matrix,
    walks the windows narrowest first: a window's pick is the first least
    energy of its own segment of splits where that is strictly below the
    pick of the window before, which makes it the first least energy of the
    whole prefix, _pick's choice on the window.  A budget only rules splits
    out, so these picks serve every budget: where the budget keeps a
    window's budget-free split (_kept), it is also the budget's pick; every
    draw that some window does not keep is picked again by the same pass
    under the budget.  A window past _WINDOW_CAP raises ValueError, as in
    solve_tdma.
    """
    for s1 in s1s:
        _require_deadline_order(s1, s2)
    if len({(s1.payload_bits, s1.error_target, s1.min_blocklength) for s1 in s1s}) > 1:
        raise ValueError("the user-1 specs of _columns may differ only in their deadlines")
    columns = dict.fromkeys(
        (_window(s1, s2) for s1 in s1s), InfeasibleReason.BLOCKLENGTH_WINDOW_EMPTY
    )
    # The non-empty windows, narrowest first.
    decided = sorted(window for window in columns if window[0] <= window[1])
    while decided:
        widest = columns[decided[-1]] = _splits(s1s[0], s2, *decided[-1])
        if not isinstance(widest, InfeasibleReason):
            break
        decided.pop()
    # The end of each window's segment of splits, narrowest first.
    ends = [m1_hi - m1_lo + 1 for m1_lo, m1_hi in decided]
    for window, end in zip(decided[:-1], ends):
        columns[window] = tuple(array[:end] for array in widest)
    n = len(g1)
    for window, splits in columns.items():
        none = isinstance(splits, InfeasibleReason)
        columns[window] = splits, [
            (np.full(n, -1, np.int32), np.full(n, np.nan)) if none else None for _ in p_maxes
        ]
    if not decided:
        return columns
    m1, m2, gamma1, gamma2 = widest

    def pick(g1, g2, p_max=None):
        """By window, narrowest first, each draw's first least energy under
        p_max, and its index (-1: none is finite)."""
        best = np.full((len(ends), len(g1)), -1, np.int32)
        least = np.full((len(ends), len(g1)), np.inf)
        step = max(1, _CHUNK_ELEMENTS // len(m1))
        for lo in range(0, len(g1), step):
            rows = slice(lo, lo + step)
            energy = _energies(
                (m1[:, None], m2[:, None], gamma1[:, None], gamma2[:, None]),
                g1[rows], g2[rows], p_max,
            )
            draws = np.arange(energy.shape[1])
            at, index, value = 0, best[0, rows], least[0, rows]
            for k, end in enumerate(ends):
                segment = energy[at:end]
                first = segment.argmin(axis=0)
                low = segment[first, draws]
                # Strictly below: a tie goes to the narrower window's split.
                better = low < value
                index = np.where(better, first + at, index)
                value = np.where(better, low, value)
                best[k, rows], least[k, rows], at = index, value, end
        return best, least

    def reported(best, g1, g2):
        """best, -1 where the energy _outcome reports overflows, and that
        energy (NaN for none)."""
        chosen = np.maximum(best, 0)
        # Tiny gains overflow the energies.
        with np.errstate(over="ignore"):
            energy = m1[chosen] * (gamma1[chosen] / g1)
            energy += m2[chosen] * (gamma2[chosen] / g2)
        best = np.where(energy < np.inf, best, -1)
        return best, np.where(best >= 0, energy, np.nan)

    free, energy_free = pick(g1, g2)
    free_reported = reported(free, g1, g2)
    for k, p_max in enumerate(p_maxes):
        # energy_free is inf where free is -1, so no budget keeps that split.
        with np.errstate(over="ignore"):  # huge gains overflow p_max * g
            kept = _kept(energy_free, gamma1[free], gamma2[free], g1, g2, p_max)
        rows = np.flatnonzero(~kept.all(axis=0))
        best, energy = (column.copy() for column in free_reported)
        g1_rows, g2_rows = g1[rows], g2[rows]
        again = pick(g1_rows, g2_rows, p_max)[0]
        best[:, rows], energy[:, rows] = reported(again, g1_rows, g2_rows)
        for window, best_here, energy_here in zip(decided, best, energy):
            columns[window][1][k] = best_here, energy_here
    return columns
