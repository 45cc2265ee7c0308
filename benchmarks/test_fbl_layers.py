"""Micro-benchmarks of the import, q_inv and fbl root-finding layers, and
of the two commands users run.

Run with ``PYTHONPATH=src python -m pytest benchmarks``; these files sit
outside the test paths, so the tier-1 suite does not run them.

The import benchmark and the two command benchmarks (`noma-fbl solve` on
one instance, `noma-fbl montecarlo` on its default grid) start a fresh
interpreter per round, so they also count interpreter start-up; compare
them with ``python -c pass`` to isolate the rest.  The root-finding
benchmarks start from a cold store (required_sinr.cache_clear()); the
warm ones time a hit on a filled row: at an int m (the path of noma's
pinned deadlines), at an integral float m and an np.int64 m (converted,
then read) and a 100-entry table inside the row's known span (a
read-only slice).

Every cold root skips the comparisons of its doubling and bisection that a
certified window around a Newton estimate decides, and so does
sinr_for_blocklength on the caller's bracket (timed on 200 seeded calls a
round, across its input range).  A cold table is filled one scalar root at
a time, so its time is about the cold scalar miss's times the number of
entries; a key's first TDMA solve fills none
(benchmarks/test_solver_layers.py times it), but its later solves on
windows the store does not span do.  The 3000-bit rows are the huge-SINR
end (about 2**30 at m = 100), where float spacing rather than the
tolerance ends the bisection and the windows are widest: solve-cold's
slowest instances.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noma_fbl
from noma_fbl import BracketError, UserSpec, q_inv, required_sinr, sinr_for_blocklength
from noma_fbl.fbl import required_sinr_table

# A solve-cold-like user: 600 bits at eps 1e-5, windows from m = 100 up.
SPEC = UserSpec(600, 1e-5, deadline=1000)
# solve-cold's largest payload at its strictest error target.
HUGE = UserSpec(3000, 1e-9, deadline=1000)


#: What the `noma-fbl` console script runs.
_CLI = "import sys; from noma_fbl.cli import main; sys.exit(main())"


def _fresh(*argv):
    """python argv in a fresh interpreter, with this package first on its path."""
    src = str(Path(noma_fbl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, *argv], env=env, check=True)


def test_fresh_interpreter_import(benchmark):
    benchmark.pedantic(_fresh, args=("-c", "import noma_fbl"), rounds=10, iterations=1)


def test_cli_solve(benchmark):
    argv = ("-c", _CLI, *"solve --g1 1e4 --g2 4e4 --d1 200 --d2 300".split())
    benchmark.pedantic(_fresh, args=argv, rounds=10, iterations=1)


def test_cli_montecarlo_default(benchmark, tmp_path):
    argv = ("-c", _CLI, "montecarlo", "--out-dir", str(tmp_path))
    benchmark.pedantic(_fresh, args=argv, rounds=10, iterations=1)
    assert len(list(tmp_path.iterdir())) == 3


def test_warm_q_inv(benchmark):
    # 200 rounds of 200 calls: a bare benchmark() takes ~40k rounds, whose
    # raw timings would make up most of a --benchmark-json file.
    args = (SPEC.error_target,)
    assert benchmark.pedantic(q_inv, args=args, rounds=200, iterations=200) > 0.0


def _cold():
    required_sinr.cache_clear()


def _cold_table(benchmark, spec, entries):
    table = benchmark.pedantic(
        required_sinr_table,
        args=(spec, 100, 99 + entries),
        setup=_cold,
        rounds=20,
        iterations=1,
    )
    assert len(table) == entries


def _cold_miss(benchmark, spec):
    gamma = benchmark.pedantic(
        required_sinr, args=(spec, 100), setup=_cold, rounds=200, iterations=1
    )
    assert gamma > 0.0


@pytest.mark.parametrize("entries", [10, 32, 100, 500])
def test_cold_required_sinr_table(benchmark, entries):
    _cold_table(benchmark, SPEC, entries)


def test_cold_required_sinr_miss(benchmark):
    _cold_miss(benchmark, SPEC)


def test_cold_huge_required_sinr_table(benchmark):
    _cold_table(benchmark, HUGE, 500)


def test_cold_huge_required_sinr_miss(benchmark):
    _cold_miss(benchmark, HUGE)


def _sinr_for_blocklength_calls(n=200, seed=7):
    """Seeded calls over the whole input range: N 1-3000, eps 1e-12-0.3,
    m_star 1-20,000 and gamma_hi 1e-3-1e20, some of which raise BracketError."""
    rng = random.Random(seed)
    calls = []
    for _ in range(n):
        payload_bits = rng.randint(1, 3000)
        error_target = 10.0 ** rng.uniform(-12.0, math.log10(0.3))
        spec = UserSpec(payload_bits, error_target, deadline=20_000, min_blocklength=1)
        calls.append((rng.uniform(1.0, 20_000.0), spec, 10.0 ** rng.uniform(-3.0, 20.0)))
    return calls


def _roots(calls):
    roots = 0
    for m_star, spec, gamma_hi in calls:
        try:
            sinr_for_blocklength(m_star, spec, gamma_hi)
        except BracketError:
            continue
        roots += 1
    return roots


def test_cold_sinr_for_blocklength(benchmark):
    # 200 calls a round; sinr_for_blocklength keeps no store, so every call
    # finds its root.
    calls = _sinr_for_blocklength_calls()
    assert benchmark.pedantic(_roots, args=(calls,), rounds=20) > 0


def _warm(benchmark, function, *args):
    _cold()
    function(*args)  # fills the row
    # 200 rounds of 200 calls, as for q_inv.
    return benchmark.pedantic(function, args=args, rounds=200, iterations=200)


@pytest.mark.parametrize(
    "m", [300, 300.0, np.int64(300)], ids=["int", "integral-float", "int64"]
)
def test_warm_required_sinr_hit(benchmark, m):
    assert _warm(benchmark, required_sinr, SPEC, m) > 0.0


def test_warm_required_sinr_table_hit(benchmark):
    assert len(_warm(benchmark, required_sinr_table, SPEC, 100, 199)) == 100
