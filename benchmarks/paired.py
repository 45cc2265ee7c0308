"""Paired perfbench runs of a parent commit against a change.

    python benchmarks/paired.py --parent HEAD --workload solve-warm \\
        --seed 1 --seed 7 --pairs 10 --seconds 30 --out PAIRED.json

Run from anywhere inside a git checkout.  The parent ref, and the change
(a ref, or by default the working tree with its untracked files, as git
would stage them), are each extracted with `git archive` into a temporary
directory, so both sides start from the same state: no bytecode cache, no
`.perfbench/` results, nothing a worktree shares.  For every workload and
seed the script runs --pairs pairs of `perfbench/run.py --trace 0`, each
side its own tree's copy in a fresh process, the parent first in even
pairs and the change first in odd ones.  Both sides run under
PYTHONDONTWRITEBYTECODE=1, so every repetition imports the package from
source and `setup_s` compares like with like.

The JSON written to --out holds, per workload and seed and per end-to-end
metric of BENCHMARK.json: each side's median and quartiles, the median of
the per-pair ratios change / parent, and the pairs the change won (ties
count for neither side); whether every run passed its checks, and whether
the outcome and output digests of the two sides are equal.  It also holds
both sides' commit or tree hashes, the machine facts run.py printed and
every run's metrics.  A summary table goes to standard output.  Exit
status: 0 when every run passed its checks and every digest matched, 1
otherwise, 2 when a side could not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WORKLOADS = ("mc-default", "solve-cold", "solve-warm")


class PairedError(Exception):
    """A side could not be extracted or run."""


def git(*args: str, env: dict | None = None, cwd: Path) -> str:
    proc = subprocess.run(
        ["git", *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise PairedError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def resolve(repo: Path, ref: str | None, scratch: Path) -> dict:
    """The commit of ref, or for None the tree of the working tree as
    `git add -A` would stage it, written through a private index so the
    checkout's own index is left alone."""
    if ref is not None:
        return {"ref": ref, "commit": git("rev-parse", "--verify", f"{ref}^{{commit}}", cwd=repo)}
    env = dict(os.environ, GIT_INDEX_FILE=str(scratch / "index"))
    git("add", "-A", env=env, cwd=repo)
    return {"ref": "working tree", "tree": git("write-tree", env=env, cwd=repo)}


def extract(repo: Path, side: dict, dest: Path) -> Path:
    """Extract the side's commit or tree into dest with `git archive`."""
    dest.mkdir()
    proc = subprocess.Popen(
        ["git", "archive", "--format=tar", side.get("commit") or side["tree"]],
        cwd=repo, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    if proc.wait() != 0:
        raise PairedError(f"git archive: {proc.stderr.read().decode().strip()}")
    return dest


def run_side(tree: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """One `perfbench/run.py --trace 0` run of tree: its metrics, checks,
    digests and machine facts."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [
        sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--size", size,
    ]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise PairedError(f"{tree.name}: run.py exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    run = {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "digests": {},
    }
    for line in lines:
        if line.startswith("machine "):
            run["machine"] = json.loads(line[len("machine "):])
        elif line.startswith("outcome digest "):
            run["digests"]["outcome"] = line.split()[-1]
        elif line.startswith("output ") and " sha256 " in line:
            name, _, digest = line[len("output "):].split()
            run["digests"][name] = digest
    return run


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(pairs: list[dict], metrics: dict) -> dict:
    """Per metric, both sides' quartiles, the median per-pair ratio change /
    parent and the pairs the change won, from pairs of {parent, change}
    runs; and whether all runs passed and the digests agree."""
    out = {}
    for name, spec in metrics.items():
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        ratios = [c / p if p else float("nan") for p, c in zip(parent, change)]
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": quartiles(parent),
            "change": quartiles(change),
            "median_ratio": statistics.median(ratios),
            "pairs_won": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    digests = {json.dumps(p[side]["digests"], sort_keys=True) for p in pairs for side in p}
    return {
        "metrics": out,
        "correct": all(p[side]["correct"] for p in pairs for side in p),
        "digests_equal": len(digests) == 1,
        "digests": {side: pairs[0][side]["digests"] for side in ("parent", "change")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git ref of the parent (default HEAD)")
    parser.add_argument(
        "--change", default=None, help="git ref of the change (default: the working tree)"
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", action="append", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    try:
        repo = Path(git("rev-parse", "--show-toplevel", cwd=Path(__file__).resolve().parent))
        with tempfile.TemporaryDirectory(prefix="paired-") as tmp:
            scratch = Path(tmp)
            sides = {
                "parent": resolve(repo, args.parent, scratch),
                "change": resolve(repo, args.change, scratch),
            }
            trees = {name: extract(repo, side, scratch / name) for name, side in sides.items()}
            bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
            metrics = {m["name"]: m for m in bench["end_to_end"]}
            record = {"parent": sides["parent"], "change": sides["change"], "args": {
                "workloads": args.workload, "seeds": args.seed, "pairs": args.pairs,
                "seconds": args.seconds, "size": args.size, "trace": 0,
            }, "results": []}
            for workload in args.workload:
                for seed in args.seed:
                    pairs = []
                    for i in range(args.pairs):
                        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                        pairs.append({
                            side: run_side(trees[side], workload, seed, args.seconds, args.size)
                            for side in order
                        })
                        print(f"{workload} seed {seed} pair {i + 1}/{args.pairs} done", file=sys.stderr)
                    for run in (run for pair in pairs for run in pair.values()):
                        record["machine"] = run.pop("machine", None)
                    record["results"].append(
                        {"workload": workload, "seed": seed, **compare(pairs, metrics),
                         "runs": pairs}
                    )
    except PairedError as exc:
        print(f"paired: {exc}", file=sys.stderr)
        return 2

    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    ok = True
    for result in record["results"]:
        ok &= result["correct"] and result["digests_equal"]
        print(f"{result['workload']} seed {result['seed']}: correct {result['correct']}, "
              f"digests equal {result['digests_equal']}")
        for name, m in result["metrics"].items():
            p, c = m["parent"], m["change"]
            print(f"  {name:16} {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] -> "
                  f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {m['unit']}, "
                  f"ratio {m['median_ratio']:.4g}, won {m['pairs_won']}/{m['pairs']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
