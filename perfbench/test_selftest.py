"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Runs every workload at the tiny size, traced and untraced, and checks that
every metric of BENCHMARK.json is printed with its unit, that traced self
times add up to span durations, and that the mc-default gate rejects an
output with one byte altered.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 5


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture
def scratch(request) -> Path:
    """An empty directory inside the checkout, which is all the benchmark writes to."""
    path = ROOT / ".perfbench" / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = run_bench(workload, trace)
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(runs, workload, trace):
    proc = runs(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    lines = proc.stdout.splitlines()
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(
            line.startswith(f"metric {m['name']} ") and line.endswith(f" {m['unit']}")
            for line in lines
        ), m["name"]


def _spans(path: Path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("name\t"):
                continue
            name, start, end, parent, instance = line.rstrip("\n").split("\t")
            rows.append((name, int(start), int(end), int(parent), int(instance)))
    return rows


def _nesting(rows):
    """Parent of each span, rebuilt from the intervals alone: one thread runs
    the spans, so the parent is the innermost span still open at the start."""
    parents = [-1] * len(rows)
    open_spans = []
    for i in sorted(range(len(rows)), key=lambda i: (rows[i][1], -rows[i][2])):
        while open_spans and rows[open_spans[-1]][2] < rows[i][1]:
            open_spans.pop()
        if open_spans:
            assert rows[i][2] <= rows[open_spans[-1]][2], f"{rows[i][0]} overlaps its parent"
            parents[i] = open_spans[-1]
        open_spans.append(i)
    return parents


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up(runs, workload):
    assert runs(workload, 1).returncode == 0
    out = ROOT / ".perfbench"
    record = json.loads((out / f"result-{workload}-seed{SEED}-trace1-tiny.json").read_text())
    traced = [r for r in record["reps"] if "trace" in r]
    assert traced
    for rep in traced:
        rows = _spans(out / f"spans-{workload}-rep{rep['rep']}.tsv")
        assert rows
        parents = _nesting(rows)
        assert parents == [row[3] for row in rows], "recorded parents differ from the nesting"
        child_ns = [0] * len(rows)
        for i, p in enumerate(parents):
            if p >= 0:
                child_ns[p] += rows[i][2] - rows[i][1]
        m = rep["trace"]
        for name, total_key, self_key, per_call in (
            ("noma.solve_noma", "noma.solve_noma.time_s", "noma.solve_noma.self_us", True),
            ("tdma.solve_tdma", "tdma.solve_tdma.time_s", "tdma.solve_tdma.self_us", True),
            ("montecarlo.run_trials", "montecarlo.run_trials.time_s", "montecarlo.run_trials.self_s", False),
            ("cli.main", "cli.main.time_s", "cli.main.self_s", False),
        ):
            mine = [i for i, row in enumerate(rows) if row[0] == name]
            total = sum(rows[i][2] - rows[i][1] for i in mine) * 1e-9
            own = sum(rows[i][2] - rows[i][1] - child_ns[i] for i in mine) * 1e-9
            reported_own = m[self_key] * 1e-6 * len(mine) if per_call else m[self_key]
            assert m[total_key] == pytest.approx(total, abs=1e-9), name
            assert reported_own == pytest.approx(own, abs=1e-9), name
            assert own >= 0.0, name


def test_mc_gate_rejects_one_altered_byte(scratch):
    out = scratch / "mc"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-c",
         f"from noma_fbl import cli; raise SystemExit(cli.main(['montecarlo', '--out-dir', {str(out)!r}]))"],
        env=env, check=True, timeout=170,
    )
    _, problems = workloads.mc_output_problems(out, workloads.GOLDEN_MC_SEED1)
    assert problems == []
    for name in workloads.MC_FILES:
        altered = scratch / f"altered-{name}"
        shutil.copytree(out, altered)
        data = bytearray((altered / name).read_bytes())
        data[-1] = ord(" ")  # the final newline: the files stay well-formed
        (altered / name).write_bytes(bytes(data))
        manifest = json.loads((altered / "manifest.json").read_text())
        for entry in manifest["outputs"]:  # keep the manifest consistent with the bytes
            entry["sha256"] = hashlib.sha256((altered / entry["path"]).read_bytes()).hexdigest()
        if name != "manifest.json":
            (altered / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        _, problems = workloads.mc_output_problems(altered, None)
        assert problems == [], "only the golden digests can tell these outputs apart"
        _, problems = workloads.mc_output_problems(altered, workloads.GOLDEN_MC_SEED1)
        assert any(p.startswith(f"{name} sha256") for p in problems), (name, problems)


def test_refuses_to_run_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(HERE, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=scratch)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
