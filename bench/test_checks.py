"""The benchmark's own checks reject corrupted program outputs.

Run from the repository root: python3 -m pytest bench/test_checks.py
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import scenes  # noqa: E402
import workloads  # noqa: E402
from flashtrack import cli, codebook, codec, scenario  # noqa: E402

FT = type("Program", (), {"cli": cli, "codebook": codebook, "codec": codec, "scenario": scenario})


def test_burnside_and_lockon_references():
    brute = len({min(int(f"{v:09b}"[i:] + f"{v:09b}"[:i], 2) for i in range(9)) for v in range(512)})
    assert oracle.necklaces(9) == brute == 60
    assert oracle.lockon_string(18, 60) == "0.30"
    assert oracle.lockon_string(7, 240) == "0.02"


def test_zeroed_table_slot_is_rejected():
    book, lut = codebook.generate_robust_codebook(10)
    words = [str(w) for w in book.words]
    assert oracle.check_book(10, words, lut.entries, robust=True) == []
    entries = lut.entries.copy()
    slot = int(np.flatnonzero(entries)[7])
    entries[slot] = 0
    problems = oracle.check_book(10, words, entries, robust=True)
    assert problems == [f"n=10: slot {slot} holds 0, expected {lut.entries[slot]}"]


def test_report_with_a_wrong_row_is_rejected():
    bits = range(7, 10)
    wl = workloads.CodebookReport(FT, 0)
    wl.bits = bits
    wl.setup()
    assert wl.round().failures == []
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["codebook", "report", "--bits", "7..9"])
    rows = json.loads(buf.getvalue())
    assert oracle.check_report(rows, bits) == []
    rows[1]["robust_size"] += 1
    rows[2]["lockon_s"]["60"] = "0.16"
    assert len(oracle.check_report(rows, bits)) == 2


def test_swapped_identifier_in_table_fails_streams():
    wl = workloads.LockSweep(FT, 3)
    wl.bits = range(9, 11)
    wl.setup()
    assert wl.round().failures == []
    lut = wl.books[10][1]
    ones, twos = lut.entries == 1, lut.entries == 2
    lut.entries[ones], lut.entries[twos] = 2, 1
    failures = wl.round().failures
    assert failures and all(f.startswith("n=10 id=1 ") or f.startswith("n=10 id=2 ") for f in failures)


@pytest.fixture(scope="module")
def cube_report():
    raw = scenes.cube()
    text = scenario.run(scenario.ScenarioConfig.from_dict(raw), debug_truth=True).to_json()
    return raw, json.loads(text)


def test_oracle_truth_matches_program_truth(cube_report):
    raw, report = cube_report
    truth = oracle.Trajectory(raw["trajectory"])
    for frame in report["per_frame"]:
        rot, trans = truth.at(frame["t_s"])
        assert np.abs(rot - np.reshape(frame["truth_pose"]["rotation"], (3, 3))).max() < 1e-9
        assert np.abs(trans - frame["truth_pose"]["translation_m"]).max() < 1e-9


def test_swapped_identifier_in_report_is_rejected(cube_report):
    raw, report = cube_report
    truth = oracle.ScenarioOracle(raw)
    base = truth.check(report)
    assert base["wrong_lock_flashers"] == [7]

    swapped = copy.deepcopy(report)
    a, b = swapped["per_flasher"][0], swapped["per_flasher"][1]
    a["identifier"], b["identifier"] = b["identifier"], a["identifier"]
    assert truth.check(swapped)["wrong_lock_flashers"] == [0, 1, 7]



def test_perturbed_pose_is_rejected(cube_report):
    raw, report = cube_report
    truth = oracle.ScenarioOracle(raw)
    base = truth.check(report)
    assert base["good_fixes"] > 0 and truth.bound_px == pytest.approx(1e-6)
    good = next(
        f for f in report["per_frame"] if f["pose"] and f["frame"] not in base["failed_frames"]
    )
    bad = copy.deepcopy(report)
    bad["per_frame"][good["frame"]]["pose"]["translation_m"][0] += 1e-5
    verdict = truth.check(bad)
    assert verdict["failed_frames"] == sorted(base["failed_frames"] + [good["frame"]])


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cube-track", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_metric_names_and_units_match_benchmark_json():
    import run
    from spans import Tracer

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layers = Tracer().summary(1, 0, oracle.necklaces)
    layers["trace.overhead_pct"] = 0.0
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: run._layer_unit(k) for k in layers
    }
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "peak_rss_mb", "work_per_s"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
