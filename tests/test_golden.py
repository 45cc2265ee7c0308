"""Golden bytes: two Monte-Carlo runs, pinned by sha256.

The other determinism tests compare a run with a rerun, so a change that
moves one ulp in both would still pass them.  These digests pin the files
that `noma-fbl montecarlo --seed 1` writes with every other argument at its
default (1000 trials x 20 values of d1 x 3 budgets), and those of a seed-7
run whose grid reaches d1 == d2 (441 relabeled deadline ties) and a starved
budget (-20 dBm), so that the power-budget, product-wall and rate verdicts
all occur, and those of a seed-9 run at -5/0/5 dBm, where the budget rules
out the budget-free TDMA optimum of 5-61% of the trials per cell.  A change
of any output byte fails here; re-pin only on purpose.

The Monte-Carlo runs only reach 160-bit roots at eps 1e-7, so one more
digest pins the bits of the SINR root-finder itself over the whole input
range: scalar roots, vectorised table fills, and roots on caller-chosen
brackets, BracketError included.
"""

import hashlib
import math
import random

import numpy as np

from noma_fbl import BracketError, UserSpec, required_sinr, sinr_for_blocklength
from noma_fbl.cli import main
from noma_fbl.fbl import required_sinr_table

GOLDEN_MC_SEED1 = {
    "energy_vs_d1.csv": "67a630351481723379ab4986a170717f85a4aeb3de3e92817309d4e533fc2ecb",
    "feasibility_vs_d1_pmax.csv": "ef1c4e40a401e3fd7860d27f37e59cb65afcef19ffcb13e66a7561d8f4c84203",
    "manifest.json": "2a85d89bae80a9ef9fad5ae276bb77dd141cb4f20223a68da5878356f4f05096",
}


GOLDEN_MC_SEED7_TIES = {
    "energy_vs_d1.csv": "2915013b4b23d66c17cc57bb3ef623b21d3920875faa7a58a20e240df1b5f4d3",
    "feasibility_vs_d1_pmax.csv": "bb9995ff555d7045f7ef5ed903c72b99ea5fa39cd1ae9bed76df8a84b0a1f0dc",
    "manifest.json": "4e769d12d289bcc2815c690de1f6ef826a84fe593449d02b9a9468c8bfa61e54",
}


GOLDEN_MC_SEED9_BINDING_BUDGETS = {
    "energy_vs_d1.csv": "3ba489230f1a3dd4ae01078ba4a3cd12cc9fc2d359378cb0fdaf8dd953fe6708",
    "feasibility_vs_d1_pmax.csv": "42db40f626556da75059697a33fbc70fac610c8065cb565a9c2ca9df982d6098",
    "manifest.json": "e7451602be28594c90f8ab4aa4e61f995575a631ccec346f7a7e94a2d230324e",
}


def test_default_montecarlo_matches_golden_sha256(tmp_path):
    assert main(["montecarlo", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert digests == GOLDEN_MC_SEED1


def test_ties_and_starved_budget_match_golden_sha256(tmp_path):
    argv = [
        "montecarlo", "--seed", "7", "--trials", "300", "--d1-grid", "100:300:50",
        "--pmax-dbm-grid=-20,10,30", "--out-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert digests == GOLDEN_MC_SEED7_TIES


def test_binding_budgets_match_golden_sha256(tmp_path):
    argv = [
        "montecarlo", "--seed", "9", "--trials", "300",
        "--pmax-dbm-grid=-5,0,5", "--out-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert digests == GOLDEN_MC_SEED9_BINDING_BUDGETS


GOLDEN_SINR_ROOTS = "ae30429971c2a7187e41294bee7e40fc5eb8a4c6a77a94b1362c275cc84bf199"


def _random_user(rng):
    return rng.randint(1, 3000), 10.0 ** rng.uniform(-12.0, math.log10(0.3))


def test_sinr_root_bits_match_golden_sha256():
    required_sinr.cache_clear()
    rng = random.Random(7)
    roots = []  # -1.0 marks a BracketError; every root is positive
    for _ in range(1500):
        payload_bits, error_target = _random_user(rng)
        spec = UserSpec(payload_bits, error_target, deadline=20_000, min_blocklength=1)
        try:
            roots.append(required_sinr(spec, rng.randint(1, 20_000)))
        except BracketError:
            roots.append(-1.0)
    for _ in range(1500):
        payload_bits, error_target = _random_user(rng)
        spec = UserSpec(payload_bits, error_target, deadline=20_000, min_blocklength=1)
        m_star = rng.uniform(1.0, 20_000.0)
        try:
            roots.append(sinr_for_blocklength(m_star, spec, 10.0 ** rng.uniform(-3.0, 20.0)))
        except BracketError:
            roots.append(-1.0)
    # Two tables, of 31 and 200 roots missing from the memo.
    roots += required_sinr_table(UserSpec(600, 1e-5, deadline=130), 100, 130).tolist()
    spec = UserSpec(2845, 2.7765660567406283e-09, deadline=319)
    roots += required_sinr_table(spec, 120, 319).tolist()
    bits = np.array(roots, dtype="<f8").view("<i8")
    assert hashlib.sha256(bits.tobytes()).hexdigest() == GOLDEN_SINR_ROOTS


def test_golden_inputs_find_every_root_by_a_jump(tmp_path):
    # A root whose window cannot be certified falls back to the whole
    # bisection with the same bits, so only the counter shows an estimate
    # that stopped working.
    required_sinr.cache_clear()
    before = required_sinr.root_info()
    test_sinr_root_bits_match_golden_sha256()
    test_default_montecarlo_matches_golden_sha256(tmp_path)
    after = required_sinr.root_info()
    assert after.fallbacks == before.fallbacks
    assert after.jumps - before.jumps > 1500
