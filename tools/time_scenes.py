"""Time the bench scenes end to end; write BENCH_scenes.json.

    python3 tools/time_scenes.py [--repeats 7] [--out BENCH_scenes.json]

Imports flashtrack from this checkout's src/ and the scenes from bench/scenes.py,
and holds BLAS to one thread as bench/run.py does. Records the median wall time
over the repeats of run(from_dict(raw)), and the frames/s it gives, for bench
cube(), room(1), room(2) and room(29); and the CPU count, Python and numpy
versions and git commit (-dirty: uncommitted; null outside a checkout).
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
import scenes  # noqa: E402
from git_commit import git_commit  # noqa: E402
from flashtrack.scenario import ScenarioConfig, run  # noqa: E402

SCENES = {"cube": scenes.cube, **{f"room-{s}": lambda s=s: scenes.room(s) for s in (1, 2, 29)}}


def time_scene(build, repeats: int) -> dict:
    times = []
    for raw in (build() for _ in range(repeats)):
        t0 = time.perf_counter()
        frames = run(ScenarioConfig.from_dict(raw)).summary["frames"]
        times.append(time.perf_counter() - t0)
    return {"frames": frames, "wall_s": statistics.median(times),
            "frames_per_s": frames / statistics.median(times)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_scenes.json"))
    args = parser.parse_args()
    result = {
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "repeats": args.repeats,
        "commit": git_commit(ROOT),
        "scenes": {name: time_scene(build, args.repeats) for name, build in SCENES.items()},
    }
    with open(args.out, "w") as fh:
        fh.write(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
