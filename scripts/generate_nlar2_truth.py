#!/usr/bin/env python3
"""Regenerate the stored plug-in truth of the NLAR2 model.

The nonlinear model has no closed-form autocovariances.  The Monte Carlo
harness uses the autocovariances of one long simulated path (10^7 steps,
fixed seed, see ``secondwild.harness._nlar2_simulated_autocov``) as its
truth, and stores them for lags 0..64 so that no study pays for the path.
This script recomputes them for every innovation kind and prints the
module that holds them:

    PYTHONPATH=src python scripts/generate_nlar2_truth.py > src/secondwild/_nlar2_truth.py

Values are written with ``repr``, so they round-trip exactly.  BLAS runs
on one thread: a threaded dot product over 10^7 terms splits the sum
across threads, and its last digits then depend on the thread count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from secondwild.dgp import InnovationKind  # noqa: E402  (after the thread pin)
from secondwild.harness import _nlar2_simulated_autocov  # noqa: E402

MAX_LAG = 64


def main() -> None:
    print('"""Autocovariances at lags 0..64 of the NLAR2 plug-in truth path, by innovation kind.')
    print()
    print("Generated by scripts/generate_nlar2_truth.py; do not edit by hand.")
    print('"""')
    print()
    print("NLAR2_TRUTH_AUTOCOV = {")
    for kind in InnovationKind:
        print(f"    {kind.value!r}: (")
        for value in _nlar2_simulated_autocov(kind, MAX_LAG):
            print(f"        {value!r},")
        print("    ),")
    print("}")


if __name__ == "__main__":
    main()
