"""Pinned outputs: the bench scene reports and the stdout of the CLI.

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

from flashtrack import cli, signal
from flashtrack.scenario import ScenarioConfig, run

_SCENES_PATH = Path(__file__).resolve().parents[1] / "bench" / "scenes.py"
_spec = importlib.util.spec_from_file_location("bench_scenes", _SCENES_PATH)
scenes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scenes)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cube_asleep() -> dict:
    """The bench cube with flasher clocks spread over +/-1050 ppm and a 0.7 s
    heartbeat that times out after 0.4 s, so every unit sleeps for the rest of
    each period: detections drop to none and tracks close and reopen."""
    raw = scenes.cube()
    for i, flasher in enumerate(raw["flashers"]):
        flasher["clock_ppm"] = 300.0 * (i - 3.5)
    raw["heartbeat"] = {"enabled": True, "period_s": 0.7, "timeout_s": 0.4}
    return raw


def room_hue() -> dict:
    """The bench room (cmos rolling shutter, clocks within +/-40 ppm) with
    hue flashes under hue noise sigma 25 degrees and 0.3 px pixel noise."""
    raw = scenes.room(5)
    for flasher in raw["flashers"]:
        flasher["scheme"] = "hue"
    raw["noise"] = {"hue_sigma": 25.0, "pixel_sigma": 0.3}
    return raw


#: sha256 of run(from_dict(raw), debug_truth=True).to_json() per bench scene
#: and per variant above
SCENE_DIGESTS = {
    "cube": ("ef73edf015fb938db6a93b02cb9e45a2640bd974ac6c8231360f14852c32e9e2", scenes.cube),
    "room-1": ("5ea2835804e9ee09e2985dd566afe066dd9ee7d7083b60f380f34e3d34ca30c0",
               lambda: scenes.room(1)),
    "room-2": ("33d6ef84068984221aaeb61fda13f9c81c5bc0d875395bf924321b1908d65d90",
               lambda: scenes.room(2)),
    "room-29": ("8b460c89856ca0208c43519b4ecf08648ebecf8fb2c7caa24e404f954905b537",
                lambda: scenes.room(29)),
    "cube-asleep": ("2a3ad5468a2fe0722201c597bb69a9c56fbf5d449558ded8f427de6886e3c4f0",
                    cube_asleep),
    "room-hue": ("9e9711642b907ba21c59f9d2536794118e6e84c9cb67e6cac4c4fe9e9af5780e", room_hue),
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


#: sha256 of the stdout of each command. {book} is the robust n = 8 book that
#: `codebook gen --bits 8 --mode robust` writes, {trace} the file of trace_file
CLI_DIGESTS = {
    "codebook gen --bits 8 --mode initial":
        "baf4d4c95d32bc6ee0ccd0f8bc46f54dfc978eca36f78058bba983c855500207",
    "codebook gen --bits 8 --mode robust":
        "1e02123127f3b132f632f6cfaf4c4a408230e7f55bfa481c95e69a612108397a",
    "codebook report --bits 7..14 --csv":
        "ec49114adaac7d039942ef2262583fe07fb145b17c663c885e22eeedbd1599e7",
    "lockon": "55cf4f6a16299facaa29f4bb663bd804e758599326463e9658b8b802d5a4a060",
    "lockon --csv": "d7c036e8d935a3cabecd119df52cd769adfc48695fdf941485b46a51f30afc0f",
    "lockon --bits 18 --fps 60":
        "fcac13713bd0c03f05a9c01d2c059a4e337941610a791dea02decfed16eba0ed",
    "encode --book {book} --id 4":
        "cb2390705cab556e6d1bce4846c0da5823d7da80d5a73d90c2db1cf989cec7b9",
    "decode --book {book} --stream 0001011100010111000101110":
        "bd00a8e6d897a3b493f325a3afe272ae199fa398cc01a09210094cece0afad7b",
    "decode --book {book} --trace {trace} --scheme hue":
        "a04878862c7ad5e2fcf7ad64778780caeb11e9721ba5ae0b53d3919d0c7223b5",
    "decode --book {book} --trace {trace} --scheme intensity":
        "00da63689f4df295ffd2996677b807280d74899aacc5cd64d73abfe0132e18c2",
    "sync-interval --delta-max 0.001 --rho-ppm 50":
        "917df3320d778ddbaa5c5c7742bc4046bf803c36ed2b050f30844ed206783469",
}


def trace_file(path, book) -> None:
    """Two tracks of 3 cycles of robust n = 8 words, intensity and hue carrying
    different ones, with one bit duplicated and a slow intensity ripple."""
    traces = []
    for track_id, (lit, tint, phase, dup) in enumerate([(2, 4, 3, 11), (1, 3, 0, 9)]):
        def bits(ident):
            out = [book.word(ident).bits[(phase + i) % 8] for i in range(24)]
            return out[:dup] + out[dup:dup + 1] + out[dup:]

        tr = signal.SampleTrace(2 * track_id)
        for k, (i, h) in enumerate(zip(bits(lit), bits(tint))):
            level = (20.0 if i else 5.0) + 0.25 * (k % 3)
            tr.append(signal.FlashSample(k / 30, level, 10.0 if h else 250.0, (1.0, 2.0 + k)))
        traces.append(tr)
    signal.write_trace_csv(path, traces)


@pytest.mark.parametrize("command", CLI_DIGESTS)
def test_cli_stdout_pinned(command, tmp_path, capsys):
    book, trace = tmp_path / "book.json", tmp_path / "trace.csv"
    assert cli.main(["codebook", "gen", "--bits", "8", "--mode", "robust", "--out", str(book)]) == 0
    trace_file(trace, cli._load_book(str(book))[0])
    assert cli.main(command.format(book=book, trace=trace).split()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert sha256(captured.out) == CLI_DIGESTS[command]
