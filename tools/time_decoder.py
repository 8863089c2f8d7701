"""Time the stream decoder on the single-error family; write BENCH_decoder.json.

    python3 tools/time_decoder.py [--repeats 5] [--out BENCH_decoder.json]

Imports flashtrack from this checkout's src/ and the stream family from the
lock-sweep workload in bench/workloads.py, and holds BLAS to one thread as
bench/run.py does. For the robust books n = 13..16, every word from every
phase, four clean cycles with one flip, duplication or deletion at stream
position n+pos, each stream pushed bit by bit through a fresh
`StreamDecoder` until it locks. Records per n the stream count,
the bits pushed and the median bits/s over the repeats (only the pushes
are timed; books are built and streams formed outside the clock), and
the CPU count, Python and numpy versions and git commit (-dirty:
uncommitted; null outside a checkout).
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402
from flashtrack.codebook import generate_robust_codebook  # noqa: E402
from flashtrack.codec import StreamDecoder  # noqa: E402
from git_commit import git_commit  # noqa: E402
from workloads import LockSweep  # noqa: E402


def sweep(book, lut) -> tuple[int, int, float]:
    """(streams, bits pushed, seconds pushing) over the family of one book."""
    count = pushed = 0
    seconds = 0.0
    for word in book.words:
        cases = [bits for _, bits in LockSweep.streams(word.bits, lut.n)]
        t0 = time.perf_counter()
        for bits in cases:
            decoder = StreamDecoder(lut)
            for b in bits:
                pushed += 1
                if decoder.push(b).locked:
                    break
        seconds += time.perf_counter() - t0
        count += len(cases)
    return count, pushed, seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_decoder.json"))
    args = parser.parse_args()
    result = {
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "repeats": args.repeats,
        "commit": git_commit(ROOT),
        "streams": {}, "bits": {}, "bits_per_s": {},
    }
    for n in LockSweep.bits:
        book, lut = generate_robust_codebook(n)
        runs = [sweep(book, lut) for _ in range(args.repeats)]
        result["streams"][n], result["bits"][n] = runs[0][:2]
        result["bits_per_s"][n] = statistics.median(bits / s for _, bits, s in runs)
    with open(args.out, "w") as fh:
        fh.write(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
