"""Self-test of paired.py: HEAD against itself on perfbench's tiny inputs.

Run with ``python -m pytest benchmarks/test_paired.py``; it needs a git
checkout and takes about 15 s.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import paired  # noqa: E402

if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
    pytest.skip("needs a git checkout with a commit", allow_module_level=True)


def test_head_against_itself(tmp_path):
    out = tmp_path / "paired.json"
    argv = [
        sys.executable, str(HERE / "paired.py"), "--parent", "HEAD", "--change", "HEAD",
        "--workload", "solve-warm", "--seed", "1", "--pairs", "2", "--seconds", "1",
        "--size", "tiny", "--out", str(out),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["parent"]["commit"] == record["change"]["commit"]
    assert record["machine"]["nproc"] >= 1
    (result,) = record["results"]
    assert (result["workload"], result["seed"]) == ("solve-warm", 1)
    assert result["correct"] and result["digests_equal"]
    assert result["digests"]["parent"] == result["digests"]["change"]
    assert len(result["digests"]["parent"]["outcome"]) == 16
    assert len(result["runs"]) == 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in bench["end_to_end"])
    for m in result["metrics"].values():
        for side in ("parent", "change"):
            assert m[side]["q1"] <= m[side]["median"] <= m[side]["q3"]
        assert m["pairs"] == 2 and 0 <= m["pairs_won"] <= 2
        assert 0 < m["median_ratio"] < math.inf
    # The same code does the same work: no failed operation on either side.
    assert result["metrics"]["ok_frac"]["median_ratio"] == 1.0
    assert result["metrics"]["ok_frac"]["pairs_won"] == 0


def test_working_tree_is_extracted_as_it_stands(tmp_path):
    side = paired.resolve(ROOT, None, tmp_path)
    assert side["ref"] == "working tree" and len(side["tree"]) == 40
    tree = paired.extract(ROOT, side, tmp_path / "tree")
    for name in ("benchmarks/paired.py", "perfbench/run.py", "src/noma_fbl/types.py"):
        assert (tree / name).read_bytes() == (ROOT / name).read_bytes()
    assert not list(tree.rglob("__pycache__"))
