"""One repetition of a perfbench workload, in a fresh interpreter.

run.py starts it as ``python3 worker.py '<job json>'`` with the checkout's
``src`` on PYTHONPATH.  It times ``import noma_fbl`` before importing
anything else, runs the workload once (workloads.run_rep) and prints one
JSON line with the measurements.
"""

import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import noma_fbl

    setup_s = time.perf_counter() - t0

    import json
    import os

    import workloads

    job = json.loads(sys.argv[1])
    src = os.path.realpath(job["src"])
    if os.path.commonpath([os.path.realpath(noma_fbl.__file__), src]) != src:
        print(f"noma_fbl imported from {noma_fbl.__file__}, not from {src}", file=sys.stderr)
        return 2
    print(json.dumps(workloads.run_rep(noma_fbl, job, setup_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
