"""Golden bytes: the default Monte-Carlo run, pinned by sha256.

The other determinism tests compare a run with a rerun, so a change that
moves one ulp in both would still pass them.  These digests pin the files
that `noma-fbl montecarlo --seed 1` writes with every other argument at its
default (1000 trials x 20 values of d1 x 3 budgets).  A change of any output
byte fails here; re-pin only on purpose.
"""

import hashlib

from noma_fbl.cli import main

GOLDEN_MC_SEED1 = {
    "energy_vs_d1.csv": "67a630351481723379ab4986a170717f85a4aeb3de3e92817309d4e533fc2ecb",
    "feasibility_vs_d1_pmax.csv": "ef1c4e40a401e3fd7860d27f37e59cb65afcef19ffcb13e66a7561d8f4c84203",
    "manifest.json": "2a85d89bae80a9ef9fad5ae276bb77dd141cb4f20223a68da5878356f4f05096",
}


def test_default_montecarlo_matches_golden_sha256(tmp_path):
    assert main(["montecarlo", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert digests == GOLDEN_MC_SEED1
