"""Micro-benchmarks of the fbl root-finding layers, with cold memos.

Run with ``PYTHONPATH=src python -m pytest benchmarks``; these files sit
outside the test paths, so the tier-1 suite does not run them.

A table of up to fbl._VECTOR_MIN_MISSES - 1 entries is filled one scalar
root at a time, a larger one by one numpy bisection.  To re-check that
crossover on another machine, compare the cold table times with the cold
scalar miss times the number of entries: the crossover sits where the
two are equal.
"""

import pytest

from noma_fbl import UserSpec, fbl, required_sinr
from noma_fbl.fbl import required_sinr_table

# A solve-cold-like user: 600 bits at eps 1e-5, windows from m = 100 up.
SPEC = UserSpec(600, 1e-5, deadline=1000)


def _cold():
    fbl._SINR_MEMO.clear()
    fbl._required_sinr_table.cache_clear()


@pytest.mark.parametrize("entries", [10, 32, 100, 500])
def test_cold_required_sinr_table(benchmark, entries):
    table = benchmark.pedantic(
        required_sinr_table,
        args=(SPEC, 100, 99 + entries),
        setup=_cold,
        rounds=20,
        iterations=1,
    )
    assert len(table) == entries


def test_cold_required_sinr_miss(benchmark):
    gamma = benchmark.pedantic(
        required_sinr, args=(SPEC, 100), setup=_cold, rounds=200, iterations=1
    )
    assert gamma > 0.0
