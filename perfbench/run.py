"""facegroup benchmark entry point.

    python3 perfbench/run.py --workload group-forest --seed 1 --seconds 20 --trace 0

Workloads: group-forest, group-large, train (see perfbench/README.md).
Exits with status 2, printing no result, when the checkout holds no
``src/facegroup`` package.
"""

import sys

import checkout

if __name__ == "__main__":
    checkout.import_facegroup()
    import harness

    sys.exit(harness.main())
