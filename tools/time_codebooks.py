"""Time code-book construction per word length; write BENCH_codebook.json.

    python3 tools/time_codebooks.py [--repeats 5] [--out BENCH_codebook.json]

Imports flashtrack from this checkout's src/, and holds BLAS to one thread
as bench/run.py does. Records the median build time of the initial and
robust books for n = 7..21, and of `flashtrack codebook report --bits 7..21`
in a fresh process, over the repeats; and the CPU count, Python and numpy
versions and git commit (-dirty: uncommitted; null outside a checkout).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
from flashtrack.codebook import generate_initial_codebook, generate_robust_codebook  # noqa: E402
from git_commit import git_commit  # noqa: E402

BITS = range(7, 22)
REPORT = [sys.executable, "-m", "flashtrack.cli", "codebook", "report", "--bits", "7..21"]


def median_s(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_codebook.json"))
    args = parser.parse_args()
    report_kw = dict(env=dict(os.environ, PYTHONPATH=SRC), check=True, stdout=subprocess.DEVNULL)
    result = {
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "repeats": args.repeats,
        "commit": git_commit(ROOT),
        "initial_s": {n: median_s(lambda: generate_initial_codebook(n), args.repeats) for n in BITS},
        "robust_s": {n: median_s(lambda: generate_robust_codebook(n), args.repeats) for n in BITS},
        "report_7_21_wall_s": median_s(lambda: subprocess.run(REPORT, **report_kw), args.repeats),
    }
    with open(args.out, "w") as fh:
        fh.write(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
