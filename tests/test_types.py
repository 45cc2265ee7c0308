"""The result records: Allocation and SolveOutcome are validated tuples."""

import contextlib
import copy
import inspect
import io
import pickle
import re
from pathlib import Path

import pytest

from noma_fbl import (
    Allocation,
    ChannelPair,
    ExperimentConfig,
    InfeasibleReason,
    PowerBudget,
    Scheme,
    SolveOutcome,
    UserSpec,
    run_trials,
    solve_noma,
    solve_sic_rx1,
    solve_sic_rx2,
    solve_tdma,
    solve_tin,
)

ALLOCATION = Allocation(200.0, 300.0, 1.5, 0.25, 1.25, 0.75, 375.0, Scheme.SIC_RX2, 2e-7)
FEASIBLE = SolveOutcome(ALLOCATION, None, None, True)
INFEASIBLE = SolveOutcome(
    verdict=InfeasibleReason.RATE_UNREACHABLE,
    sub_verdicts=((Scheme.TIN, InfeasibleReason.SIC_PRODUCT_GE_ONE),),
)

RECORDS = [ALLOCATION, FEASIBLE, INFEASIBLE]
RECORD_IDS = ["allocation", "feasible", "infeasible"]

#: What the README's library quick start prints.
README_OUTPUT = (
    "Scheme.SIC_RX2 413.74215388987625 (1.7444905598922837, 0.21614680637139827)\n"
    "Allocation(m1=188.0, m2=112.0, p1=1.557210507337004, p2=0.8354546517366543, "
    "gamma1=1.557210507337004, gamma2=3.3418186069466174, energy=386.326496373862, "
    "scheme=<Scheme.TDMA: 'tdma'>, sic_overall_error=None)\n"
)


def test_fields_order_and_defaults():
    assert Allocation._fields == (
        "m1", "m2", "p1", "p2", "gamma1", "gamma2", "energy", "scheme", "sic_overall_error",
    )
    assert Allocation._field_defaults == {"sic_overall_error": None}
    assert SolveOutcome._fields == ("allocation", "verdict", "sub_verdicts", "relabeled")
    assert SolveOutcome._field_defaults == {
        "allocation": None, "verdict": None, "sub_verdicts": None, "relabeled": False,
    }
    # SolveOutcome's checked constructor takes the same fields and defaults.
    parameters = inspect.signature(SolveOutcome).parameters.values()
    assert {p.name: p.default for p in parameters} == SolveOutcome._field_defaults
    # Positional and keyword construction give the same record.
    assert ALLOCATION == Allocation(
        m1=200.0, m2=300.0, p1=1.5, p2=0.25, gamma1=1.25, gamma2=0.75,
        energy=375.0, scheme=Scheme.SIC_RX2, sic_overall_error=2e-7,
    )
    assert FEASIBLE == SolveOutcome(allocation=ALLOCATION, relabeled=True)


def test_records_are_tuples():
    assert isinstance(ALLOCATION, tuple) and isinstance(FEASIBLE, tuple)
    assert tuple(ALLOCATION) == (200.0, 300.0, 1.5, 0.25, 1.25, 0.75, 375.0, Scheme.SIC_RX2, 2e-7)
    assert FEASIBLE == (ALLOCATION, None, None, True)
    assert INFEASIBLE._replace(relabeled=True).relabeled
    assert FEASIBLE.feasible and FEASIBLE.energy == 375.0
    assert not INFEASIBLE.feasible
    with pytest.raises(ValueError, match="no allocation"):
        INFEASIBLE.energy


def test_readme_example_prints_the_same():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"^```python\n(.*?)^```", readme, re.M | re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue() == README_OUTPUT


@pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        record.energy = 1.0
    with pytest.raises(AttributeError):
        record.relabeled = True
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize(
    "make",
    [
        lambda: SolveOutcome(),
        lambda: SolveOutcome(relabeled=True),
        lambda: SolveOutcome(ALLOCATION, InfeasibleReason.POWER_BUDGET_EXCEEDED),
        lambda: FEASIBLE._replace(allocation=None),
        lambda: INFEASIBLE._replace(allocation=ALLOCATION),
        lambda: SolveOutcome._make((None, None, None, False)),
    ],
    ids=["empty", "relabeled-only", "both", "replace-to-none", "replace-to-both", "make"],
)
def test_outcome_needs_exactly_one_of_allocation_and_verdict(make):
    with pytest.raises(ValueError, match="exactly one of allocation/verdict"):
        make()


@pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
def test_round_trips(record):
    for twin in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert twin == record
        assert type(twin) is type(record)
        assert repr(twin) == repr(record)


def _outcomes():
    s1, s2, budget = UserSpec(160, 1e-7, 200), UserSpec(160, 1e-7, 300), PowerBudget(1.0)
    weak, strong = ChannelPair(1e4, 4e4), ChannelPair(4e4, 1e4)
    yield solve_noma(weak, s1, s2, budget)
    yield solve_noma(ChannelPair(1.0, 1.0), s1, s2, budget)  # infeasible
    yield solve_tdma(weak, s1, s2, budget)
    yield solve_tdma(ChannelPair(1.0, 1.0), s1, s2, budget)  # infeasible
    yield solve_sic_rx2(weak, s1, s2, budget)
    yield solve_tin(strong, s1, s2, budget)
    yield solve_sic_rx1(strong, s1, s2, budget)
    cfg = ExperimentConfig(n_trials=4, d1_grid=(200,), p_max_dbm_grid=(30.0,))
    for record in run_trials(cfg).records[(200, 30.0)]:
        yield from record


def test_solvers_return_the_records():
    outcomes = list(_outcomes())
    assert len(outcomes) == 7 + 2 * 4
    assert any(out.feasible for out in outcomes)
    assert not all(out.feasible for out in outcomes)
    for out in outcomes:
        assert type(out) is SolveOutcome
        assert out.feasible == (type(out.allocation) is Allocation)
