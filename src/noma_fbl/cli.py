"""Command-line front end: solve single instances, sweep d1, run Monte-Carlo.

Exit codes: solve returns 0 when every requested solve was feasible and 2
when at least one was infeasible; sweep and montecarlo return 0 whenever
they write their files, whose rows report feasibility; every command
returns 1 on usage or I/O errors.  All file outputs are
deterministic functions of the arguments (no timestamps, fixed float
formatting), so identical invocations produce byte-identical files; the
Monte-Carlo manifest records sha256 checksums to make that checkable.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .fbl import UserSpec
from .montecarlo import (
    _GRID_CELLS_CAP,
    ENERGY_COLUMNS,
    FEASIBILITY_COLUMNS,
    ExperimentConfig,
    dbm_to_watts,
    run_trials,
)
from .noma import order_by_deadline, solve_noma
from .tdma import solve_tdma
from .types import Allocation, ChannelPair, PowerBudget, SolveOutcome

SWEEP_SCHEMA = "noma-fbl/sweep-v1"
MC_ENERGY_SCHEMA = "noma-fbl/mc-energy-v1"
MC_FEASIBILITY_SCHEMA = "noma-fbl/mc-feasibility-v1"

#: Allocation fields in the order every output format lists them.
ALLOCATION_COLUMNS = ("m1", "m2", "p1", "p2", "gamma1", "gamma2", "energy")
SWEEP_COLUMNS = ("d1", "scheme", "feasible") + ALLOCATION_COLUMNS


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1 (argparse defaults to 2, which is reserved
    # for "instance infeasible")
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


#: The most values of d1 a sweep may solve.  A sweep's memory hardly grows
#: with them (56 MB peak RSS at 19,901 values), but its time grows with the
#: values and their split windows: d1 = 100..20000 by 1 at d2 = 20100 took
#: 70 s, and 100..5000 at d2 = 5100 took 4.2 s (2-vCPU Xeon VM).
_SWEEP_CAP = 20_000


def _parse_grid(text: str) -> tuple[int, ...]:
    """Parse an inclusive start:stop:step integer grid specification, of at
    most as many values as a Monte-Carlo run takes grid cells."""
    try:
        start, stop, step = (int(p) for p in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}") from None
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"need step > 0 and stop >= start in {text!r}")
    if (stop - start) // step + 1 > _GRID_CELLS_CAP:
        raise argparse.ArgumentTypeError(f"{text!r} has more than {_GRID_CELLS_CAP} values")
    return tuple(range(start, stop + 1, step))


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a,b,... numbers, got {text!r}") from None


def _add_instance_args(parser: argparse.ArgumentParser, with_d1: bool) -> None:
    parser.add_argument("--g1", type=float, help="power gain |h1|^2 of user 1")
    parser.add_argument("--g2", type=float, help="power gain |h2|^2 of user 2")
    parser.add_argument("--h1", type=float, help="magnitude |h1| (alternative to --g1)")
    parser.add_argument("--h2", type=float, help="magnitude |h2| (alternative to --g2)")
    parser.add_argument("--n1-bits", type=int, default=160, help="payload bits of user 1")
    parser.add_argument("--n2-bits", type=int, default=160, help="payload bits of user 2")
    parser.add_argument("--eps1", type=float, default=1e-7, help="block-error target of user 1")
    parser.add_argument("--eps2", type=float, default=1e-7, help="block-error target of user 2")
    if with_d1:
        parser.add_argument("--d1", type=int, required=True, help="deadline of user 1 (channel uses)")
    parser.add_argument("--d2", type=int, required=True, help="deadline of user 2 (channel uses)")
    parser.add_argument("--pmax-dbm", type=float, default=30.0, help="power budget in dBm (30 dBm = 1 W)")
    parser.add_argument("--mhat", type=int, default=100, help="minimum trusted blocklength")
    parser.add_argument(
        "--scheme",
        choices=("noma", "tdma", "all"),
        default="all",
        help="which scheme(s) to solve",
    )


def _channel_from_args(parser: argparse.ArgumentParser, args) -> ChannelPair:
    by_gain = args.g1 is not None or args.g2 is not None
    by_mag = args.h1 is not None or args.h2 is not None
    if by_gain and by_mag:
        parser.error("give either --g1/--g2 or --h1/--h2, not both")
    if by_gain:
        if args.g1 is None or args.g2 is None:
            parser.error("both --g1 and --g2 are required")
    elif by_mag:
        if args.h1 is None or args.h2 is None:
            parser.error("both --h1 and --h2 are required")
    else:
        parser.error("channel gains required: --g1/--g2 or --h1/--h2")
    try:
        if by_gain:
            return ChannelPair(g1=args.g1, g2=args.g2)
        return ChannelPair(g1=args.h1**2, g2=args.h2**2)
    except (ValueError, OverflowError) as exc:
        parser.error(f"invalid channel: {exc}")


def _specs_from_args(args, d1: int) -> tuple[UserSpec, UserSpec]:
    s1 = UserSpec(
        payload_bits=args.n1_bits,
        error_target=args.eps1,
        deadline=d1,
        min_blocklength=args.mhat,
    )
    s2 = UserSpec(
        payload_bits=args.n2_bits,
        error_target=args.eps2,
        deadline=args.d2,
        min_blocklength=args.mhat,
    )
    return s1, s2


def _solve_schemes(
    ch: ChannelPair, s1: UserSpec, s2: UserSpec, budget: PowerBudget, which: str
) -> tuple[dict[str, SolveOutcome], bool]:
    """Run the requested solvers with users ordered by deadline."""
    ch, s1, s2, relabeled = order_by_deadline(ch, s1, s2)
    outcomes: dict[str, SolveOutcome] = {}
    if which in ("noma", "all"):
        outcomes["noma"] = solve_noma(ch, s1, s2, budget)
    if which in ("tdma", "all"):
        outcomes["tdma"] = solve_tdma(ch, s1, s2, budget)
    return outcomes, relabeled


def _allocation_dict(alloc: Allocation) -> dict:
    return {
        "scheme": alloc.scheme.value,
        **{col: getattr(alloc, col) for col in ALLOCATION_COLUMNS},
        "sic_overall_error": alloc.sic_overall_error,
    }


def _outcome_dict(outcome: SolveOutcome) -> dict:
    if outcome.feasible:
        return {"feasible": True, "allocation": _allocation_dict(outcome.allocation)}
    d = {"feasible": False, "verdict": outcome.verdict.value}
    if outcome.sub_verdicts:
        d["sub_verdicts"] = {
            scheme.value: reason.value for scheme, reason in outcome.sub_verdicts
        }
    return d


def _outcome_fields(outcome: SolveOutcome) -> tuple[str, ...]:
    """The feasible,m1,...,energy CSV cells for one solve outcome."""
    if not outcome.feasible:
        return ("0",) + ("",) * len(ALLOCATION_COLUMNS)
    a = outcome.allocation
    return ("1",) + tuple(_fmt(getattr(a, col)) for col in ALLOCATION_COLUMNS)


def cmd_solve(parser: argparse.ArgumentParser, args) -> int:
    ch = _channel_from_args(parser, args)
    try:
        s1, s2 = _specs_from_args(args, args.d1)
        budget = PowerBudget(dbm_to_watts(args.pmax_dbm))
        outcomes, relabeled = _solve_schemes(ch, s1, s2, budget, args.scheme)
    except ValueError as exc:
        parser.error(str(exc))

    if args.format == "json":
        doc = {
            "relabeled": relabeled,
            "results": {name: _outcome_dict(o) for name, o in outcomes.items()},
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.format == "csv":
        print(f"# schema={SWEEP_SCHEMA}")
        print(",".join(SWEEP_COLUMNS[1:]))
        for name, o in outcomes.items():
            print(",".join((name,) + _outcome_fields(o)))
    else:
        if relabeled:
            print("note: users relabeled so user 1 has the shorter deadline")
        for name, o in outcomes.items():
            if o.feasible:
                a = o.allocation
                print(
                    f"{name}: feasible scheme={a.scheme.value} "
                    f"m=({a.m1:g}, {a.m2:g}) p=({a.p1:.6g}, {a.p2:.6g}) W "
                    f"gamma=({a.gamma1:.6g}, {a.gamma2:.6g}) energy={a.energy:.6g}"
                )
            else:
                print(f"{name}: infeasible ({o.verdict.value})")
    return 0 if all(o.feasible for o in outcomes.values()) else 2


def cmd_sweep(parser: argparse.ArgumentParser, args) -> int:
    if len(args.d1_grid) > _SWEEP_CAP:
        parser.error(f"a sweep takes at most {_SWEEP_CAP} values of d1, got {len(args.d1_grid)}")
    ch = _channel_from_args(parser, args)
    lines = [f"# schema={SWEEP_SCHEMA}", ",".join(SWEEP_COLUMNS)]
    try:
        for d1 in args.d1_grid:
            s1, s2 = _specs_from_args(args, d1)
            budget = PowerBudget(dbm_to_watts(args.pmax_dbm))
            outcomes, _ = _solve_schemes(ch, s1, s2, budget, args.scheme)
            for name, o in outcomes.items():
                lines.append(",".join((str(d1), name) + _outcome_fields(o)))
    except ValueError as exc:
        parser.error(str(exc))
    try:
        _write_text(Path(args.out), "\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def _write_text(path: Path, content: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)


def _mc_csv(schema: str, columns: tuple[str, ...], rows: list[dict]) -> str:
    """One Monte-Carlo table: integers as str, floats in _fmt form."""
    lines = [f"# schema={schema}", ",".join(columns)]
    for row in rows:
        lines.append(
            ",".join(
                str(v) if isinstance(v, int) else _fmt(v) for v in row.values()
            )
        )
    return "\n".join(lines) + "\n"


def cmd_montecarlo(parser: argparse.ArgumentParser, args) -> int:
    try:
        cfg = ExperimentConfig(
            n_trials=args.trials,
            seed=args.seed,
            d1_grid=args.d1_grid,
            d2=args.d2,
            p_max_dbm_grid=args.pmax_dbm_grid,
        )
    except ValueError as exc:
        parser.error(str(exc))
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {out_dir}: {exc}", file=sys.stderr)
        return 1

    batch = run_trials(cfg)
    files = {
        "energy_vs_d1.csv": _mc_csv(
            MC_ENERGY_SCHEMA, ENERGY_COLUMNS, batch.energy_rows()
        ),
        "feasibility_vs_d1_pmax.csv": _mc_csv(
            MC_FEASIBILITY_SCHEMA, FEASIBILITY_COLUMNS, batch.feasibility_rows()
        ),
    }
    outputs = []
    try:
        for name, content in files.items():
            _write_text(out_dir / name, content)
            digest = hashlib.sha256(content.encode("utf-8")).hexdigest()
            outputs.append({"path": name, "sha256": digest})
        manifest = {
            "version": __version__,
            "seed": cfg.seed,
            "config": asdict(cfg),
            "outputs": outputs,
        }
        _write_text(
            out_dir / "manifest.json",
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )
    except OSError as exc:
        print(f"error: cannot write into {out_dir}: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="noma-fbl",
        description=(
            "Energy-optimal power/blocklength allocation for a two-user "
            "downlink under finite-blocklength and reliability constraints."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", help="solve a single instance", parents=[], add_help=True
    )
    _add_instance_args(p_solve, with_d1=True)
    p_solve.add_argument(
        "--format", choices=("json", "csv", "text"), default="json",
        help="output format",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="sweep user 1's deadline, write a CSV")
    _add_instance_args(p_sweep, with_d1=False)
    p_sweep.add_argument(
        "--d1-grid", type=_parse_grid, required=True,
        help="inclusive integer grid start:stop:step for user 1's deadline",
    )
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_mc = sub.add_parser(
        "montecarlo", help="seeded Monte-Carlo over Rayleigh channels"
    )
    defaults = ExperimentConfig()
    p_mc.add_argument("--trials", type=int, default=defaults.n_trials, help="number of channel draws")
    p_mc.add_argument("--seed", type=int, default=defaults.seed, help="Philox seed")
    p_mc.add_argument(
        "--d1-grid", type=_parse_grid, default=defaults.d1_grid,
        help="inclusive integer grid start:stop:step for user 1's deadline",
    )
    p_mc.add_argument("--d2", type=int, default=defaults.d2, help="deadline of user 2")
    p_mc.add_argument(
        "--pmax-dbm-grid", type=_parse_float_list, default=defaults.p_max_dbm_grid,
        help="comma-separated power budgets in dBm",
    )
    p_mc.add_argument("--out-dir", required=True, help="directory for output files")
    p_mc.set_defaults(func=cmd_montecarlo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
