#!/usr/bin/env python3
"""Benchmark for flashtrack: four workloads, checked outputs, optional trace.

Run from the repository root:

    python3 bench/run.py --workload lock-sweep --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

One workload runs in this process; `all` runs each in its own child
process, one after the other, and prints a table. The last line of
standard output is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics untraced, per-layer metrics with --trace 1).
Results and span files go to bench/out/. See bench/README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types

# one computing thread, set before numpy is first imported: BLAS pools
# would add threads and noise
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

# the figure work_per_s gives on each workload (report_s as its inverse)
RATE_NAMES = {
    "codebook-report": "report_s",
    "lock-sweep": "bits_per_s",
    "cube-track": "fixes_per_s",
    "room-intensity": "fixes_per_s",
}


def load_program():
    """Import flashtrack from the checkout's src/; exit 2 when it is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "flashtrack", "__init__.py")):
        print(f"bench: no flashtrack sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import flashtrack.cli
    import flashtrack.codebook
    import flashtrack.codec
    import flashtrack.scenario

    return types.SimpleNamespace(
        cli=flashtrack.cli,
        codebook=flashtrack.codebook,
        codec=flashtrack.codec,
        scenario=flashtrack.scenario,
    )


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import flashtrack.cli; "
    "print(time.perf_counter() - t)"
)


def import_seconds(reps: int = 5) -> float:
    """Median time a fresh interpreter takes to import the program."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            stdout=subprocess.PIPE, text=True, check=True, timeout=60,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ft = load_program()
    import_s = import_seconds()
    wl = workloads.WORKLOADS[name](ft, seed)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    setups = []
    for rep in range(wl.setup_reps):
        if tracer:
            tracer.active = rep == wl.setup_reps - 1
        t = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setups)
    setup_spans = len(tracer.start) if tracer else 0
    # a traced run alternates untraced and traced rounds, so that it can
    # state the tracer's own overhead
    rounds, round_s, traced_s, plain_s = [], [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if tracer:
            tracer.active = traced
        t = time.perf_counter()
        rounds.append(wl.round())
        round_s.append(time.perf_counter() - t)
        (traced_s if traced else plain_s).append(round_s[-1])
        elapsed = time.perf_counter() - start
        if elapsed + statistics.mean(round_s) > seconds and (traced_s or not tracer):
            break
    if tracer:
        tracer.active = False
    final = wl.final_checks() if hasattr(wl, "final_checks") else workloads.Round()

    correct, problems = True, []
    for r in rounds[1:]:
        if r.failures != rounds[0].failures:
            correct = False
            problems.append("rounds of identical input failed differently")
            break
    attempted = sum(r.attempted for r in rounds) + final.attempted
    failures = [f for r in rounds for f in r.failures] + final.failures
    # each operation's time is the median of its repeats over the
    # untraced rounds; the rate is the round's work over the sum of those
    repeats: dict = {}
    for i, r in enumerate(rounds):
        if not (tracer and i % 2):
            for key, work, dt in r.samples:
                repeats.setdefault(key, []).append((work, dt))
    if any(w != v[0][0] for v in repeats.values() for w, _ in v):
        correct = False
        problems.append("rounds of identical input did different work")
    work = sum(v[0][0] for v in repeats.values())
    op_s = sum(statistics.median(dt for _, dt in v) for v in repeats.values())

    if trace:
        metrics = tracer.summary(len(traced_s), setup_spans, oracle.necklaces)
        overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        metrics["trace.overhead_pct"] = 100.0 * overhead
        units = {k: _layer_unit(k) for k in metrics}
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"spans-{name}-seed{seed}.npz"))
        tracer.uninstall()
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_per_s": work / op_s,
        }
        units = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}

    summary = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(rounds),
        "operations": len(repeats),
        "repeats": min(len(v) for v in repeats.values()),
        "work_per_round": work,
        "work_unit": wl.unit,
        "round_s_median": statistics.median(plain_s),
        "distinct_failures": sorted(set(failures)),
        "problems": problems,
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump({**summary, **result}, fh, indent=1)
    _describe(summary, result)
    return result


def _layer_unit(key: str) -> str:
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_ms_p50") or key.endswith("_ms_p90"):
        return "ms"
    if key.endswith("_s") or key == "channel.s":
        return "s"
    if key.endswith("_pct"):
        return "%"
    return "count"


def _describe(summary: dict, result: dict) -> None:
    name = summary["workload"]
    print(
        f"{name} seed {summary['seed']} trace {summary['trace']}: "
        f"{summary['rounds']} rounds of {summary['operations']} timed operations, "
        f"{summary['work_per_round']} {summary['work_unit']} per round"
    )
    for key, m in result["metrics"].items():
        label = key
        if key == "work_per_s":
            label = f"work_per_s ({RATE_NAMES[name]})"
            if name == "codebook-report":
                print(f"  report_s = {1.0 / m['value']:.4f} s (median pass)")
        print(f"  {label} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for failure in summary["distinct_failures"][:10]:
        print(f"  failed: {failure}")
    for problem in summary["problems"]:
        print(f"  problem: {problem}")


def run_all(args) -> dict:
    """Each workload in its own child process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"bench: {name} exited with code {proc.returncode}", file=sys.stderr)
            sys.exit(proc.returncode or 1)
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
