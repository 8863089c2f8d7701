"""Pinned outputs: the bench scene reports and the code-book report.

A change that moves one of these outputs re-pins it in the same commit
and names the old and new digest. The scene digests were taken with
numpy 2.4 on x86-64 Linux; CI's LAPACK has never been checked against
them, so a failure there alone may be a LAPACK rounding difference
rather than a change of the program.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from flashtrack import cli
from flashtrack.scenario import ScenarioConfig, run

_SCENES_PATH = Path(__file__).resolve().parents[1] / "bench" / "scenes.py"
_spec = importlib.util.spec_from_file_location("bench_scenes", _SCENES_PATH)
scenes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scenes)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: sha256 of run(from_dict(raw), debug_truth=True).to_json() per bench scene
SCENE_DIGESTS = {
    "cube": ("ef73edf015fb938db6a93b02cb9e45a2640bd974ac6c8231360f14852c32e9e2", scenes.cube),
    "room-1": ("5ea2835804e9ee09e2985dd566afe066dd9ee7d7083b60f380f34e3d34ca30c0",
               lambda: scenes.room(1)),
    "room-2": ("33d6ef84068984221aaeb61fda13f9c81c5bc0d875395bf924321b1908d65d90",
               lambda: scenes.room(2)),
    "room-29": ("8b460c89856ca0208c43519b4ecf08648ebecf8fb2c7caa24e404f954905b537",
                lambda: scenes.room(29)),
}


#: sha256 of the stdout of `flashtrack codebook report --bits 7..14`
REPORT_DIGEST = "dedcb5a7631d5537f6096c819b245c3f0168c46de0e0533efce7de555685ba4b"


@pytest.mark.parametrize("name", SCENE_DIGESTS)
def test_scene_report_digest_pinned(name):
    digest, build = SCENE_DIGESTS[name]
    assert sha256(run(ScenarioConfig.from_dict(build()), debug_truth=True).to_json()) == digest


def test_codebook_report_stdout_pinned(capsys):
    assert cli.main(["codebook", "report", "--bits", "7..14"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert sha256(captured.out) == REPORT_DIGEST
