"""Seeded benchmark of getf: one workload per bottleneck.

Run from the repository root:

    python3 perfbench/run.py --workload makespan-lp --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the package unwrapped;
``--trace 1`` wraps getf's public functions and reports per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The package is
imported from ``src/`` next to this directory; without it the run exits 2.
"""

import os

# One thread: pin BLAS/OpenMP pools before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "getf" / "__init__.py").is_file():
        sys.stderr.write(f"error: no getf package under {src}\n")
        return 2
    sys.path.insert(0, str(src))
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
