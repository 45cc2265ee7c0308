"""Golden bytes: two Monte-Carlo runs, pinned by sha256.

The other determinism tests compare a run with a rerun, so a change that
moves one ulp in both would still pass them.  These digests pin the files
that `noma-fbl montecarlo --seed 1` writes with every other argument at its
default (1000 trials x 20 values of d1 x 3 budgets), and those of a seed-7
run whose grid reaches d1 == d2 (441 relabeled deadline ties) and a starved
budget (-20 dBm), so that the power-budget, product-wall and rate verdicts
all occur.  A change of any output byte fails here; re-pin only on purpose.
"""

import hashlib

from noma_fbl.cli import main

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
