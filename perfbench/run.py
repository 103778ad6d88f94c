"""pathens benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Workloads: train-fixedk, elbow-sweep,
classify-mixed. With ``--trace 0`` the last line of standard output is
the JSON result with every end-to-end metric; with ``--trace 1`` it holds
the per-layer metrics of a traced run. The line before it records the
machine: cores, numpy, BLAS and the pinned thread counts. ``--tiny``
shrinks every size so a run takes seconds (used by the smoke test).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread. On a shared 2-vCPU machine, a second thread waits on
# whichever core a neighbour is busy on: a fixed numpy job's median time
# moved by up to 25% between runs with two threads, and by 3% with one.
BLAS_THREADS = "1"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train-fixedk", "elbow-sweep", "classify-mixed"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    needed = (ROOT / "src" / "pathens" / "__init__.py", ROOT / "tests" / "_datagen.py")
    missing = [str(path) for path in needed if not path.is_file()]
    if missing:
        print(f"run from a pathens checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    # BLAS reads these once, when numpy loads, so they are set before the import
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print("machine " + json.dumps(workloads.machine_info(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
