"""Gaussian tail function and inverse: examples, round trips, monotonicity."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import noma_fbl
from noma_fbl import q_func, q_inv

from oracles import normal_tail_inverse


def test_q_at_zero_is_half():
    assert q_func(0.0) == 0.5


def test_q_matches_quadrature_at_decile_point():
    # normal_tail(1.2815515655446004) = 0.1 to quadrature accuracy
    assert q_func(1.2815515655446004) == pytest.approx(0.1, abs=1e-10)


def test_q_reflection_identity():
    x = 2.0
    assert q_func(-x) == pytest.approx(1.0 - q_func(x), abs=1e-15)


def test_q_strictly_decreasing():
    xs = np.linspace(-8.0, 8.0, 161)
    vals = [q_func(x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_q_inv_at_half_is_zero():
    v = q_inv(0.5)
    assert v == 0.0
    assert math.copysign(1.0, v) == 1.0


def test_q_inv_matches_bisection_oracle():
    # frozen from bisection of the quadrature tail on [0, 40]
    assert q_inv(1e-6) == pytest.approx(4.753424308822899, abs=1e-9)
    assert q_inv(1e-7) == pytest.approx(5.1993375821928165, abs=1e-9)


def test_q_inv_round_trip_tail():
    for eps in (1e-7, 1e-6):
        v = q_inv(eps)
        assert abs(q_func(v) - eps) <= 1e-9 * eps
        assert abs(normal_tail_inverse(eps) - v) < 1e-8


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
def test_q_inv_domain_errors(eps):
    with pytest.raises(ValueError):
        q_inv(eps)


def test_round_trip_relative_error_across_tail():
    # log-uniform sample over [1e-10, 0.5]
    rng = np.random.default_rng(7)
    eps = 10.0 ** rng.uniform(-10.0, math.log10(0.5), size=400)
    for e in eps:
        assert abs(q_func(q_inv(e)) - e) / e <= 1e-9


def test_q_inv_strictly_decreasing():
    eps = np.geomspace(1e-10, 0.499, 200)
    vals = [q_inv(e) for e in eps]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def _parity_inputs():
    """Seeded sample over (0, 1) plus every branch edge of Cephes ndtri."""
    rng = np.random.default_rng(20171)
    sample = np.concatenate(
        [
            rng.uniform(0.0, 1.0, 45_000),
            10.0 ** rng.uniform(-300.0, 0.0, 45_000),
            1.0 - 10.0 ** -rng.uniform(0.5, 16.0, 20_000),
            1.0 - 10.0 ** -np.arange(1.0, 17.0),
        ]
    )
    edges = []
    # exp(-2) and 1 - exp(-2) bound the central branch, exp(-32) is x = 8.
    for c in (math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)):
        edges += [math.nextafter(c, 0.0), c, math.nextafter(c, 1.0)]
    edges += [5e-324, 2.2250738585072014e-308, 0.5]
    sample = np.concatenate([sample, edges])
    return sample[(sample > 0.0) & (sample < 1.0)]


def test_q_inv_bit_identical_to_scipy_ndtri():
    eps = _parity_inputs()
    assert len(eps) > 100_000
    got = np.array([q_inv(e) for e in eps.tolist()])
    want = 0.0 - ndtri(eps)
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, [(eps[i], got[i], want[i]) for i in differ[:5]]


def test_importing_the_package_loads_no_scipy():
    src = str(Path(noma_fbl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, noma_fbl, noma_fbl.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"
