"""perfbench: the benchmark of noma-fbl.

    python3 perfbench/run.py --workload solve-cold --seed 3 --seconds 20 --trace 0

Run from the root of a checkout.  Each repetition of the workload runs in a
fresh interpreter (worker.py), one at a time, with the checkout's ``src`` on
PYTHONPATH; a run makes as many repetitions as fill ``--seconds`` at a
fixed nominal time per repetition (REP_SECONDS), so the work is fixed by the
arguments and the count of failed operations repeats exactly.  Every
output is checked (see workloads.py).  With ``--trace 0`` the end-to-end
metrics of BENCHMARK.json are printed, with ``--trace 1`` the per-layer
ones, from traced repetitions alternating with untraced ones.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A result file with a
machine-facts header goes to ``.perfbench/``.

Exit status: 0 when every check passed, 1 when a check failed (the result is
still printed), 2 when the benchmark could not run (no result printed).
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("mc-default", "solve-cold", "solve-warm")
MIN_REPS = 3
#: Wall seconds of one untraced repetition of each workload on a 2-vCPU
#: Xeon VM (setup, solve and checks).  A run makes --seconds / this many
#: repetitions, a number fixed by the arguments alone, so the work a run
#: does, and its attempted and failed counts, repeat exactly for a seed
#: however fast the machine or the program is.
REP_SECONDS = {"mc-default": 6.0, "solve-cold": 8.0, "solve-warm": 3.0}
#: Repetitions stop early past this many seconds, so a much slower program
#: still prints a result within the time a run is given.
DEADLINE_S = 140
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run."""


def machine_facts(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One process, no threads: keep numpy's BLAS from starting a pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(
            [sys.executable, *argv], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} ran past {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc


def run_rep(job: dict, env: dict) -> dict:
    proc = run_child([str(HERE / "worker.py"), json.dumps(job)], env)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker printed no result:\n{proc.stdout[-2000:]}") from exc


def import_owners(stderr: str, packages) -> dict:
    """Import time in seconds per package, from `python -X importtime` output.

    A module's self time goes to its own package when that is one of
    packages, else to the package of the module that first imported it
    (so the stdlib modules scipy pulls in count as scipy's).
    """
    stack = []  # (depth, [name, self_us, children]); the output lists children first
    for line in stderr.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 or "self [us]" in line:
            continue
        raw = fields[2][1:]
        name = raw.lstrip(" ")
        node = [name, int(fields[0].split(":")[1]), []]
        depth = (len(raw) - len(name)) // 2
        while stack and stack[-1][0] > depth:
            node[2].append(stack.pop()[1])
        stack.append((depth, node))
    totals = dict.fromkeys(packages, 0)

    def walk(node, owner):
        root = node[0].split(".")[0]
        owner = root if root in totals else owner
        if owner is not None:
            totals[owner] += node[1]
        for child in node[2]:
            walk(child, owner)

    for _, node in stack:
        walk(node, None)
    return {name: us * 1e-6 for name, us in totals.items()}


def import_times(env: dict, runs: int = 3) -> dict:
    """Per-package import time of `import noma_fbl`, median of runs."""
    samples = []
    for _ in range(runs):
        proc = run_child(["-X", "importtime", "-c", "import noma_fbl"], env)
        samples.append(import_owners(proc.stderr, ("scipy", "numpy", "noma_fbl")))
    return {
        "import.scipy_s": statistics.median(s["scipy"] for s in samples),
        "import.numpy_s": statistics.median(s["numpy"] for s in samples),
        "import.noma_fbl_self_s": statistics.median(s["noma_fbl"] for s in samples),
    }


def percentile(data: list[float], p: int) -> float:
    return statistics.quantiles(data, n=100, method="inclusive")[p - 1]


def end_to_end(measured: list[dict], reps: list[dict]) -> dict:
    """The end-to-end metrics, from the untraced repetitions."""
    latencies = [t for r in measured for t in r["latencies_us"]]
    attempted = sum(r["tally"]["attempted"] for r in reps)
    failed = sum(r["tally"]["failed"] for r in reps)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "solves_per_s": sum(r["ok_ops"] for r in measured) / sum(r["solve_s"] for r in measured),
        "latency_p50_us": percentile(latencies, 50),
        "latency_p90_us": percentile(latencies, 90),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in measured),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(traced: list[dict], untraced: list[dict], env: dict) -> dict:
    """The per-layer metrics: medians over the traced repetitions."""
    metrics = {k: statistics.median(r["trace"][k] for r in traced) for k in traced[0]["trace"]}
    metrics.update(import_times(env))
    metrics["trace.overhead_frac"] = (
        statistics.median(r["solve_s"] for r in traced)
        / statistics.median(r["solve_s"] for r in untraced)
        - 1.0
    )
    return metrics


def consistency_problems(reps: list[dict], per_layer_units: dict) -> list[str]:
    """Identical inputs must give identical outcomes, bytes and counts."""
    problems = []
    same_inputs = [r for r in reps if not r.get("golden")]
    if len({r["tally"]["digest"] for r in same_inputs}) > 1:
        problems.append("repetitions of the same inputs gave different outcomes")
    if len({json.dumps(r["digests"], sort_keys=True) for r in same_inputs}) > 1:
        problems.append("repetitions of the same inputs wrote different bytes")
    counts = [
        {k: v for k, v in r["trace"].items() if per_layer_units.get(k) == "count"}
        for r in reps if "trace" in r
    ]
    if any(c != counts[0] for c in counts):
        problems.append("traced counts differ between repetitions")
    broken = Counter()
    for r in reps:
        broken.update({k: v for k, v in r["tally"]["failures"].items() if ".invariant:" in k})
    problems += [f"{k} ({v}x in the run)" for k, v in sorted(broken.items())]
    return problems + [p for r in reps for p in r["problems"]]


def rep_count(args) -> int:
    """Repetitions of a run: as many as fill args.seconds at REP_SECONDS, and
    at least MIN_REPS of each kind (traced, untraced)."""
    period = 2 if args.trace else 1
    return max(MIN_REPS * period, round(args.seconds / REP_SECONDS[args.workload]))


def run_reps(args, facts: dict, env: dict) -> list[dict]:
    """rep_count(args) repetitions, fewer only past DEADLINE_S; traced ones
    alternate with untraced ones when args.trace is set."""
    base = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "src": str(SRC), "out": str(OUT), "golden": False, "trace": False,
    }
    # Compile the bytecode and load the libraries into the page cache, so
    # no repetition pays a first-import cost the others do not.
    run_child(["-c", "import noma_fbl"], env)
    reps = []
    if args.workload == "mc-default":
        reps.append(run_rep({**base, "golden": True}, env) | {"golden": True})
    period = 2 if args.trace else 1
    start = time.perf_counter()
    for i in range(rep_count(args)):
        if i >= MIN_REPS * period and time.perf_counter() - start >= DEADLINE_S:
            print(f"perfbench: stopped after {i} repetitions, past {DEADLINE_S} s", file=sys.stderr)
            break
        job = {**base, "trace": i % period == 1}
        if job["trace"]:
            job["spans"] = str(OUT / f"spans-{args.workload}-rep{i}.tsv")
            job["header"] = json.dumps({**facts, "workload": args.workload, "rep": i})
        reps.append(run_rep(job, env) | {"rep": i})
    return reps


def report(args, reps: list[dict], units: dict, values: dict, problems: list[str]) -> None:
    measured = [r for r in reps if "trace" not in r and not r.get("golden")]
    first = measured[0]
    attempted = sum(r["tally"]["attempted"] for r in reps)
    failed = sum(r["tally"]["failed"] for r in reps)
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{len(reps)} repetitions ({len(measured)} untraced measured)")
    for r in reps:
        label = "golden seed 1" if r.get("golden") else ("traced" if "trace" in r else "untraced")
        print(f"  rep {label}: setup {r['setup_s']:.4f} s, solve {r['solve_s']:.4f} s, "
              f"{r['ok_ops']} ok ops, rss {r['rss_mb']:.1f} MB")
    print("properties " + json.dumps(first["props"], sort_keys=True))
    print("verdicts " + json.dumps(first["tally"]["verdicts"], sort_keys=True))
    print("failures per repetition " + json.dumps(first["tally"]["failures"], sort_keys=True))
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)")
    print(f"outcome digest {first['tally']['digest'][:16]}")
    for name, digest in first["digests"].items():
        print(f"output {name} sha256 {digest}")
    for r in reps:
        if r.get("golden"):
            print("golden seed-1 outputs: " + ("MISMATCH" if r["problems"] else "match"))
    for note in sorted({a for r in reps for a in r["absent"]}):
        print(f"absent: {note}")
    for p in problems:
        print(f"PROBLEM: {p}")
    if not args.trace:
        print(f"latency samples: {sum(len(r['latencies_us']) for r in measured)}")
    for name, unit in units.items():
        print(f"metric {name} {values[name]:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every repetition, for the self-test",
    )
    args = parser.parse_args(argv)

    if not (SRC / "noma_fbl" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'noma_fbl'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    per_layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    facts = machine_facts(args.seed)
    print("machine " + json.dumps(facts, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    for old in OUT.glob(f"spans-{args.workload}-*.tsv"):
        old.unlink()
    env = child_env()
    try:
        reps = run_reps(args, facts, env)
        untraced = [r for r in reps if "trace" not in r and not r.get("golden")]
        if args.trace:
            values = per_layer([r for r in reps if "trace" in r], untraced, env)
        else:
            values = end_to_end(untraced, reps)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    missing = [name for name in units if name not in values]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 2

    problems = consistency_problems(reps, per_layer_units)
    report(args, reps, units, values, problems)
    correct = not problems
    attempted = sum(r["tally"]["attempted"] for r in reps)
    failed = sum(r["tally"]["failed"] for r in reps)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "machine": facts, "args": vars(args), "correct": correct, "attempted": attempted,
        "failed": failed, "metrics": metrics, "problems": problems,
        "reps": [{k: v for k, v in r.items() if k != "latencies_us"} for r in reps],
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
