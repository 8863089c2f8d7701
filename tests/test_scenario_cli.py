"""End-to-end scenario runs and the command-line surface."""

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from flashtrack import cli, codebook, codec, scenario, signal
from flashtrack import pose as pose_mod
from flashtrack.codebook import MAX_BITS, MIN_BITS_INITIAL, MIN_BITS_ROBUST, Codebook
from flashtrack.scenario import (
    MAX_FRAMES,
    ConfigError,
    ScenarioConfig,
    interpolate_pose,
    run,
)
from flashtrack.pose import Pose, exp_so3

import test_golden


#: (mode, bits) just outside and just inside each mode's code-book range
BITS_EDGES = [
    ("initial", MIN_BITS_INITIAL - 1, False), ("initial", MIN_BITS_INITIAL, True),
    ("initial", MAX_BITS, True), ("initial", MAX_BITS + 1, False),
    ("robust", MIN_BITS_ROBUST - 1, False), ("robust", MIN_BITS_ROBUST, True),
    ("robust", MAX_BITS, True), ("robust", MAX_BITS + 1, False),
]

#: camera.sensor values from_dict must refuse, each naming its field
BAD_SENSOR_TIMING = [("rows", 0), ("rows", -5), ("row_readout_s", -1e-5), ("exposure_mid_s", -0.01)]


def cube_config(tracker_ppm=0.0, duration=0.65, scheme="hue", seed=7):
    corners = [
        [x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)
    ]
    return {
        "flashers": [
            {
                "id": "auto",
                "position_m": c,
                "scheme": scheme,
                "clock_ppm": 0.0,
                "bit_period_s": 1.0 / 30.0,
            }
            for c in corners
        ],
        "camera": {
            "intrinsics": {
                "fx_px": 600.0,
                "fy_px": 600.0,
                "cx_px": 320.0,
                "cy_px": 240.0,
                "image_size": [480, 640],
            },
            "sensor": {"kind": "ccd", "fps": 30.0, "exposure_mid_s": 1.0 / 60.0},
            "clock_ppm": tracker_ppm,
        },
        "trajectory": [
            {
                "t_s": 0.0,
                "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                "translation_m": [0.0, 0.0, 4.0],
            }
        ],
        "heartbeat": {"enabled": False},
        "noise": {},
        "codebook": {"bits": 12, "mode": "robust"},
        "duration_s": duration,
        "seed": seed,
    }


def mutated(*changes):
    """cube_config() with each (key path, value) change made."""
    raw = cube_config()
    for path, value in changes:
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return raw


def must_not_run(*args, **kwargs):
    raise AssertionError("reached with a config from_dict must refuse")


NAN = float("nan")
IMAGE_SIZE = ("camera", "intrinsics", "image_size")
#: (the field an error must name, the changes to cube_config() that from_dict refuses)
BAD_INPUTS = [
    ("flashers", [(("flashers",), 5)]),
    ("camera.intrinsics.image_size", [(IMAGE_SIZE, [480])]),
    ("camera.intrinsics.image_size", [(IMAGE_SIZE, "ab")]),
    ("camera.intrinsics.image_size", [(IMAGE_SIZE, [-1, 0])]),
    ("flashers[0].bit_period_s", [(("flashers", 0, "bit_period_s"), 1e-320)]),
    ("flashers[0].position_m", [(("flashers", 0, "position_m"), ["a", 0, 0])]),
    ("flashers[0].position_m", [(("flashers", 0, "position_m"), [[1], 0, 0])]),
    ("flashers[0].position_m", [(("flashers", 0, "position_m"), [NAN, 0, 0])]),
    ("flashers[0].position_m", [(("flashers", 0, "position_m"), [0, 0, 1e200])]),
    ("trajectory", [(("trajectory",), 5)]),
    ("trajectory[0].translation_m", [(("trajectory", 0, "translation_m"), [NAN, 0, 4])]),
    ("trajectory[0].rotation", [(("trajectory", 0, "rotation"), [NAN] * 9)]),
    ("flashers[0].id", [(("flashers", 0, "id"), 0)]),
    ("flashers[0].id", [(("flashers", 0, "id"), 999)]),
    ("flashers[0].id", [(("flashers", 0, "id"), True)]),
    ("flashers[1].id", [(("flashers", 0, "id"), 3), (("flashers", 1, "id"), 3)]),
    ("flashers", [(("codebook",), {"bits": 7, "mode": "robust"})]),
    ("seed", [(("seed",), -1)]),
    ("camera.clock_ppm", [(("camera", "clock_ppm"), -1e6)]),
    ("flashers[0].clock_ppm", [(("flashers", 0, "clock_ppm"), -1e7)]),
    ("camera.sensor.fps", [(("camera", "sensor", "fps"), 5e-324)]),
]


def key_paths(node, path=()):
    """Every key path into a JSON value, the empty path first."""
    yield path
    if isinstance(node, (dict, list)):
        children = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in children:
            yield from key_paths(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["auto", "intensity", "cmos", "initial"]),
    lambda inner: st.lists(inner, max_size=10)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
#: numbers weighted up, so that a fair share of mutated configs pass
VALUES = st.integers(-3, 30) | st.floats() | JSON_VALUES


class TestScenarioCube:
    def test_all_flashers_identified_within_one_cycle(self):
        report = run(ScenarioConfig.from_dict(cube_config()))
        assert report.summary["identified_flashers"] == 8
        for fl in report.per_flasher:
            assert fl["lock_on_frame"] is not None and fl["lock_on_frame"] < 12
            assert fl["identifier_decoded"] == fl["identifier"]
            assert fl["locked_identifier"] == fl["identifier"]
            assert fl["id_accuracy"] == 1.0
            assert (fl["insertions"], fl["deletions"], fl["flips"]) == (0, 0, 0)

    def test_pose_error_below_micro(self):
        report = run(ScenarioConfig.from_dict(cube_config()))
        pose_frames = [f for f in report.per_frame if f["pose"] is not None]
        assert pose_frames and pose_frames[0]["frame"] == 11
        assert max(f["rotation_error_rad"] for f in pose_frames) < 1e-6
        assert max(f["translation_error_m"] for f in pose_frames) < 1e-6
        assert report.summary["pose_rmse_m"] < 1e-6

    def test_pose_absent_before_enough_identifications(self):
        report = run(ScenarioConfig.from_dict(cube_config()))
        for f in report.per_frame[:11]:
            assert f["pose"] is None and not f["degenerate"]

    def test_slow_tracker_still_identifies(self):
        config = ScenarioConfig.from_dict(
            cube_config(tracker_ppm=-50000.0, duration=2.0)
        )
        report = run(config)
        assert report.summary["identified_flashers"] == 8
        for fl in report.per_flasher:
            assert fl["locked_identifier"] == fl["identifier"]
        assert sum(fl["insertions"] for fl in report.per_flasher) >= 8

    def test_intensity_scheme_round_trip(self):
        raw = cube_config(scheme="intensity")
        raw["noise"] = {"intensity_sigma": 2.0}
        report = run(ScenarioConfig.from_dict(raw))
        for fl in report.per_flasher:
            assert fl["locked_identifier"] == fl["identifier"]

    def test_determinism_byte_identical(self):
        a = run(ScenarioConfig.from_dict(cube_config(seed=123)))
        b = run(ScenarioConfig.from_dict(cube_config(seed=123)))
        assert a.to_json() == b.to_json()

    def test_seed_changes_noise_draws(self):
        raw = cube_config()
        raw["noise"] = {"pixel_sigma": 0.5}
        a = run(ScenarioConfig.from_dict(dict(raw, seed=1)))
        b = run(ScenarioConfig.from_dict(dict(raw, seed=2)))
        assert a.to_json() != b.to_json()

    def test_zero_flashers_empty_report(self):
        raw = dict(cube_config(), flashers=[])
        report = run(ScenarioConfig.from_dict(raw))
        assert report.per_flasher == []
        assert report.summary["identified_flashers"] == 0
        assert all(f["detections"] == 0 for f in report.per_frame)

    def test_heartbeat_keeps_drifting_clocks_aligned(self):
        raw = cube_config(duration=1.0)
        raw["camera"]["clock_ppm"] = 30.0
        raw["flashers"][0]["clock_ppm"] = -30.0
        raw["heartbeat"] = {"enabled": True, "period_s": 0.2, "timeout_s": 1.0}
        report = run(ScenarioConfig.from_dict(raw))
        assert report.heartbeats
        assert report.summary["max_desync_s"] <= 2 * 30e-6 * 0.2 + 1e-12
        assert report.summary["identified_flashers"] == 8

    def test_run_leaves_config_unchanged(self):
        config = ScenarioConfig.from_dict(cube_config())
        first = run(config).to_json()
        assert [f.identifier for f in config.flashers] == [None] * 8
        assert run(config).to_json() == first
        assert [f.identifier for f in config.flashers] == [None] * 8

    def test_reused_track_id_starts_a_fresh_decoder(self):
        # flasher 0 locks, leaves the image and its track closes; flasher 1
        # enters later on the same track id and must decode its own word
        def knot(t, tx):
            return {
                "t_s": t,
                "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                "translation_m": [tx, 0.0, 4.0],
            }

        raw = cube_config(duration=3.0)
        raw["flashers"] = raw["flashers"][:2]
        raw["flashers"][0]["position_m"] = [-1.5, 0.5, 0.0]
        raw["flashers"][1]["position_m"] = [3.0, 0.5, 0.0]
        raw["camera"]["intrinsics"] = {
            "fx_px": 100.0, "fy_px": 100.0, "cx_px": 50.0, "cy_px": 50.0,
            "image_size": [100, 100],
        }
        raw["trajectory"] = [knot(0.0, 0.0), knot(1.0, 0.0), knot(1.5, -1.5)]
        raw["codebook"] = {"bits": 8, "mode": "robust"}
        report = run(ScenarioConfig.from_dict(raw))
        leaver, newcomer = report.per_flasher
        assert leaver["locked_identifier"] == leaver["identifier"]
        assert newcomer["identifier_decoded"] == newcomer["identifier"]
        assert newcomer["locked_identifier"] == newcomer["identifier"]
        gone = [f for f in report.per_frame if f["detections"] == 0]
        assert gone, "the two flashers must not overlap in time"
        after = [f for f in report.per_frame if f["frame"] > gone[-1]["frame"]]
        assert all(leaver["identifier"] not in f["identified"] for f in after)

    def test_hue_noise_key_produces_flips(self):
        raw = cube_config()
        raw["noise"] = {"hue_sigma": 60.0}
        report = run(ScenarioConfig.from_dict(raw))
        assert sum(fl["flips"] for fl in report.per_flasher) > 0

    def test_flashers_on_one_line_of_sight_keep_their_own_truth(self):
        # flasher 8 sits behind flasher 0, 1.5 times as far from the camera,
        # so both project to the same pixel; ground truth must follow the
        # flasher, not the pixel
        raw = cube_config(duration=1.0)
        raw["codebook"]["bits"] = 13
        x, y, z = raw["flashers"][0]["position_m"]
        camera_z = 4.0  # the camera sits at translation (0, 0, 4), unrotated
        behind = [1.5 * x, 1.5 * y, 1.5 * (z + camera_z) - camera_z]
        raw["flashers"].append(dict(raw["flashers"][0], position_m=behind))
        report = run(ScenarioConfig.from_dict(raw))
        assert report.summary["identified_flashers"] == 9
        for fl in report.per_flasher:
            assert fl["identifier_decoded"] == fl["identifier"]
            assert fl["locked_identifier"] == fl["identifier"]
            assert fl["id_accuracy"] == 1.0
            assert fl["flips"] == 0

    def test_one_identifier_voted_by_two_tracks_takes_the_later_pixel(self, monkeypatch):
        # flashers 0 and 7 flash one word in step, so their tracks vote one
        # identifier in every frame; the track later in list order supplies
        # the pixel, and tracks open in pixel order
        ids = {k: k + 1 for k in range(7)} | {7: 1}
        monkeypatch.setattr(codec, "assign_ids", lambda *args: ids)
        solve_frames, frames = pose_mod.solve_pnp_frames, []
        monkeypatch.setattr(pose_mod, "solve_pnp_frames",
                            lambda K, todo: frames.extend(todo) or solve_frames(K, todo))
        config = ScenarioConfig.from_dict(cube_config())
        report = run(config)
        assert report.per_flasher[0]["identifier_decoded"] == 1
        assert report.per_flasher[7]["identifier_decoded"] == 1
        (_, pose), = config.trajectory
        pixels, _ = pose_mod.project_points(
            config.intrinsics, pose.rotation, pose.translation,
            [config.flashers[k].position for k in (0, 7)])
        later = max(map(tuple, pixels.tolist()))
        assert later != min(map(tuple, pixels.tolist()))
        # identifier 1 maps to flasher 7's position, the last flasher holding it
        position = config.flashers[7].position
        used = [tuple(pixel) for problem in frames if problem is not None
                for point, pixel in zip(*problem) if np.array_equal(point, position)]
        assert used and set(used) == {later}

    def test_warm_started_poses_match_cold_solves(self, monkeypatch):
        # the camera yaws and rolls until only 5 corners stay in the image;
        # each 4-5 point solve is warm-started from the previous frame's fix
        def knot(t, yaw, roll):
            r = (exp_so3([0.0, yaw, 0.0]) @ exp_so3([0.0, 0.0, roll])).T
            trans = (r @ [0.0, 0.0, 4.0]).tolist()
            return {"t_s": t, "rotation": r.ravel().tolist(), "translation_m": trans}

        raw = cube_config(duration=2.0)
        raw["trajectory"] = [knot(0.0, 0.0, 0.0), knot(0.6, 0.0, 0.0), knot(1.6, -0.42, 0.45)]
        solve_frames = pose_mod.solve_pnp_frames
        calls = []

        def recording_solve_frames(K, frames):
            fixes = solve_frames(K, frames)
            starts = [None] + fixes[:-1]
            # only solves that gave a pose, with the start each was handed
            calls.extend((K, *frame, start)
                         for frame, fix, start in zip(frames, fixes, starts) if fix is not None)
            return fixes

        monkeypatch.setattr(pose_mod, "solve_pnp_frames", recording_solve_frames)
        report = run(ScenarioConfig.from_dict(raw))
        posed = [f["pose"] for f in report.per_frame if f["pose"] is not None]
        assert len(posed) == len(calls)
        assert sum(len(c[1]) == 5 and c[3] is not None for c in calls) >= 10
        for (K, points, pixels, _), got in zip(calls, posed):
            cold = pose_mod.solve_pnp(K, points, pixels)
            assert np.abs(np.array(got["rotation"]) - cold.rotation.ravel()).max() < 1e-9
            assert np.abs(np.array(got["translation_m"]) - cold.translation).max() < 1e-9

    @given(
        kind=st.sampled_from(["ccd", "cmos"]),
        scheme=st.sampled_from(["hue", "intensity"]),
        tracker_ppm=st.floats(-3000.0, 3000.0),
        flasher_ppm=st.lists(st.floats(-3000.0, 3000.0), min_size=8, max_size=8),
        heartbeat=st.sampled_from(["off", "no timeout", "timeout"]),
        period=st.floats(0.05, 0.4),
        noisy=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_report_independent_of_frame_chunk(self, kind, scheme, tracker_ppm, flasher_ppm,
                                               heartbeat, period, noisy):
        """Sensing and scoring in chunks of 1, 7 or FRAME_CHUNK frames give
        byte-identical reports."""
        raw = cube_config(tracker_ppm=tracker_ppm, duration=0.8, scheme=scheme)
        for flasher, ppm in zip(raw["flashers"], flasher_ppm):
            flasher["clock_ppm"] = ppm
        if kind == "cmos":
            raw["camera"]["sensor"] = {"kind": "cmos", "fps": 30.0, "rows": 480,
                                       "row_readout_s": 0.8 / (30.0 * 480)}
        turned = exp_so3([0.1, -0.2, 0.3]).ravel().tolist()
        raw["trajectory"].append(
            {"t_s": 0.8, "rotation": turned, "translation_m": [0.3, -0.2, 4.5]})
        if heartbeat != "off":
            raw["heartbeat"] = {"enabled": True, "period_s": period}
            if heartbeat == "timeout":
                raw["heartbeat"]["timeout_s"] = 0.5 * period
        if noisy:
            raw["noise"] = {"intensity_sigma": 3.0, "hue_sigma": 20.0, "pixel_sigma": 0.3}
        config = ScenarioConfig.from_dict(raw)
        reports = set()
        for chunk in (1, 7, pose_mod.FRAME_CHUNK):
            with mock.patch.object(pose_mod, "FRAME_CHUNK", chunk):
                reports.add(run(config, debug_truth=True).to_json())
        assert len(reports) == 1

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("name", ["cube-asleep", "room-hue"])
    def test_golden_scene_independent_of_frame_chunk(self, name, chunk, monkeypatch):
        """run senses and scores frames in chunks of at most pose.FRAME_CHUNK;
        any chunk size gives the pinned report: cube-asleep has asleep frames
        and pulses inside chunks, room-hue hue and pixel noise drawn per chunk."""
        monkeypatch.setattr(pose_mod, "FRAME_CHUNK", chunk)
        digest, build = test_golden.SCENE_DIGESTS[name]
        report = run(ScenarioConfig.from_dict(build()), debug_truth=True).to_json()
        assert test_golden.sha256(report) == digest

    def test_report_round_trips_through_json(self):
        report = run(ScenarioConfig.from_dict(cube_config()))
        again = json.loads(report.to_json())
        assert json.dumps(again, sort_keys=True, indent=2) == report.to_json()


class TestScenarioConfig:
    @pytest.mark.filterwarnings("error")
    def test_huge_rotation_refused_without_a_warning(self):
        raw = cube_config()
        raw["trajectory"][0]["rotation"] = [1e200, 0, 0, 0, 1, 0, 0, 0, 1]
        with pytest.raises(ConfigError, match=r"trajectory\[0\].rotation: rotation is not"):
            ScenarioConfig.from_dict(raw)

    def test_errors_list_offending_fields(self):
        raw = cube_config()
        raw["duration_s"] = -1
        raw["flashers"][0]["scheme"] = "laser"
        del raw["seed"]
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(raw)
        msg = str(exc.value)
        assert "duration_s" in msg and "scheme" in msg and "seed" in msg

    def test_mixed_schemes_rejected(self):
        raw = cube_config()
        raw["flashers"][0]["scheme"] = "intensity"
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)

    def test_too_many_flashers_rejected(self):
        raw = cube_config()
        raw["codebook"] = {"bits": 7, "mode": "robust"}  # size 2 < 8
        with pytest.raises(ConfigError):
            run(ScenarioConfig.from_dict(raw))

    def test_trajectory_must_be_sorted(self):
        raw = cube_config()
        raw["trajectory"] = [
            {"t_s": 1.0, "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation_m": [0, 0, 4]},
            {"t_s": 0.0, "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation_m": [0, 0, 4]},
        ]
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)

    @pytest.mark.parametrize("period", [None, 0.0, -1.0, float("nan"), float("inf")])
    def test_enabled_heartbeat_needs_positive_period(self, period):
        raw = cube_config()
        raw["heartbeat"] = {"enabled": True, "timeout_s": 1.0}
        if period is not None:
            raw["heartbeat"]["period_s"] = period
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(raw)
        assert "heartbeat.period_s" in str(exc.value)

    def test_heartbeat_timeout_zero_stays_zero(self):
        raw = cube_config()
        assert ScenarioConfig.from_dict(raw).heartbeat_timeout_s == math.inf
        raw["heartbeat"] = {"enabled": True, "period_s": 1.0, "timeout_s": 0}
        assert ScenarioConfig.from_dict(raw).heartbeat_timeout_s == 0.0

    @pytest.mark.parametrize("timeout", [-1.0, float("nan")])
    def test_heartbeat_timeout_negative_or_nan_rejected(self, timeout):
        raw = cube_config()
        raw["heartbeat"] = {"enabled": True, "period_s": 1.0, "timeout_s": timeout}
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(raw)
        assert "heartbeat.timeout_s" in str(exc.value)

    @pytest.mark.parametrize(
        "duration,fps", [(float("nan"), float("nan")), (float("inf"), float("inf"))]
    )
    def test_non_finite_fields_named_in_one_error(self, duration, fps):
        raw = cube_config(duration=duration)
        raw["camera"]["sensor"]["fps"] = fps
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(raw)
        msg = str(exc.value)
        assert "duration_s: must be finite" in msg
        assert "camera.sensor.fps: must be finite" in msg

    def test_bad_noise_and_radii_named_in_one_error(self):
        raw = cube_config()
        raw["noise"] = {"intensity_sigma": "2", "hue_sigma": -1.0, "pixel_sigma": float("nan")}
        raw["visibility_radius_m"] = 0.0
        raw["gating_radius_px"] = -5
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(raw)
        msg = str(exc.value)
        assert "noise.intensity_sigma: expected float" in msg
        assert "noise.hue_sigma: must not be negative" in msg
        assert "noise.pixel_sigma: must be finite" in msg
        assert "visibility_radius_m: must be positive" in msg
        assert "gating_radius_px: must be positive" in msg

    def test_omitted_visibility_radius_is_unbounded(self):
        config = ScenarioConfig.from_dict(cube_config())
        assert config.visibility_radius_m == math.inf
        assert config.gating_radius_px == 20.0
        assert (config.intensity_sigma, config.hue_sigma, config.pixel_sigma) == (0, 0, 0)

    def test_unknown_keys_named(self):
        raw = cube_config()
        raw["noise"] = {"hue_sigma_deg": 90.0}
        raw["camera"]["sensor"]["row_readout"] = 1e-5
        raw["trajectory"][0]["time_s"] = 0.0
        raw["flashers"][2]["ppm"] = 3.0
        raw["durations"] = 1.0
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(raw)
        msg = str(exc.value)
        for name in (
            "noise.hue_sigma_deg",
            "camera.sensor.row_readout",
            "trajectory[0].time_s",
            "flashers[2].ppm",
            "durations",
        ):
            assert f"{name}: unknown key" in msg

    def test_every_documented_key_accepted(self):
        raw = cube_config()
        raw["camera"]["sensor"] = {
            "kind": "cmos", "fps": 30.0, "rows": 480,
            "row_readout_s": 1e-5, "exposure_mid_s": 0.01,
        }
        raw["heartbeat"] = {"enabled": True, "period_s": 1.0, "timeout_s": 2.0}
        raw["noise"] = {"pixel_sigma": 0.1, "intensity_sigma": 1.0, "hue_sigma": 2.0}
        raw["visibility_radius_m"] = 2.0
        raw["gating_radius_px"] = 15.0
        raw["flashers"][0]["id"] = 3
        ScenarioConfig.from_dict(raw)

    def test_frame_count_capped(self):
        raw = cube_config(duration=1e9)
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(raw)
        assert f"more than {MAX_FRAMES} frames" in str(exc.value)

    @pytest.mark.parametrize("key,value", BAD_SENSOR_TIMING)
    def test_bad_sensor_timing_named(self, key, value):
        raw = cube_config()
        raw["camera"]["sensor"][key] = value
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(raw)
        assert f"camera.sensor.{key}: must" in str(exc.value)

    def test_heartbeat_pulse_count_capped(self):
        raw = cube_config(duration=1.0)
        raw["heartbeat"] = {"enabled": True, "period_s": 1e-9}
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(raw)
        assert f"heartbeat.period_s: more than {MAX_FRAMES} pulses" in str(exc.value)
        raw["heartbeat"]["period_s"] = 1e-5
        assert ScenarioConfig.from_dict(raw).heartbeat_period_s == 1e-5

    @pytest.mark.parametrize("mode,bits,accepted", BITS_EDGES)
    def test_codebook_bits_checked_per_mode(self, mode, bits, accepted, monkeypatch):
        raw = cube_config()
        raw["codebook"] = {"bits": bits, "mode": mode}
        if accepted:
            # an 8-word stand-in: the real n = 24 books take seconds to build, and
            # the smallest hold one word, too few for the cube's 8 flashers
            stand_in = lambda n, m: (Codebook(n, m, [1] * 8), None)  # noqa: E731
            monkeypatch.setattr(scenario, "shared_codebook", stand_in)
            config = ScenarioConfig.from_dict(raw)
            assert (config.book.n, config.book.mode) == (bits, mode)
            return
        raw["duration_s"] = -1  # the same single error names both fields
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(raw)
        assert "codebook.bits" in str(exc.value) and "duration_s" in str(exc.value)

    @pytest.mark.parametrize("name,changes", BAD_INPUTS)
    def test_bad_input_named(self, name, changes):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(mutated(*changes))
        assert f"{name}:" in str(exc.value)

    def test_heartbeat_entries_capped(self):
        # the report keeps one entry per flasher and one for the tracker per
        # pulse: 2e-6 s would fire 508,334 pulses by the last frame, 4.6 million entries
        raw = cube_config(duration=1.0)
        raw["heartbeat"] = {"enabled": True, "period_s": 2e-6}
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(raw)
        assert "heartbeat.period_s: more than" in str(exc.value)

    def test_book_built_once(self, monkeypatch):
        calls = []
        build = codebook._generate
        monkeypatch.setattr(
            codebook, "_generate", lambda n, mode: calls.append((n, mode)) or build(n, mode)
        )
        # an empty memo of the same size, so the first config builds the book
        memo = codebook.shared_codebook
        monkeypatch.setattr(scenario, "shared_codebook", functools.lru_cache(
            memo.cache_info().maxsize)(memo.__wrapped__))
        run(ScenarioConfig.from_dict(cube_config()))
        assert calls == [(12, "robust")]
        run(ScenarioConfig.from_dict(cube_config(seed=8)))
        assert calls == [(12, "robust")]

    def test_shared_book_cannot_be_edited(self):
        a, b = (ScenarioConfig.from_dict(cube_config(seed=s)) for s in (1, 2))
        assert a.book is b.book and a.lut is b.lut
        assert isinstance(a.book.values, tuple)
        with pytest.raises(ValueError, match="read-only"):
            a.lut.entries[0] = 1
        with pytest.raises(TypeError):
            a.lut.slots[0] = 1
        assert np.shares_memory(np.asarray(a.lut.slots), a.lut.entries)

    def test_bad_fields_refused_before_the_book(self, monkeypatch):
        # an n = 24 robust book would take tens of seconds to build
        monkeypatch.setattr(codebook, "_generate", must_not_run)
        raw = mutated((("codebook", "bits"), 24), (("seed",), -1))
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(raw)
        assert "seed: must not be negative" in str(exc.value)

    def test_readme_example_runs(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("## Scenario files", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        config = ScenarioConfig.from_dict(json.loads(example))
        config.duration_s = 0.2
        report = run(config)
        assert report.summary["frames"] == 7
        assert len(report.per_flasher) == len(config.flashers)

    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(list(key_paths(cube_config()))), value=VALUES, extra=st.booleans())
    def test_any_json_value_gives_a_config_or_config_error(self, path, value, extra):
        # a robust book of 13 to 24 bits takes from 10 ms to tens of seconds
        small = isinstance(value, bool) or not isinstance(value, int) or value <= 12
        assume(path != ("codebook", "bits") or small)
        node = cube_config()
        for key in path:
            node = node[key]
        if extra and isinstance(node, dict):
            path += ("extra",)
        raw = mutated((path, value)) if path else value
        try:
            config = ScenarioConfig.from_dict(raw)
        except ConfigError:
            with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
                scn = Path(tmp) / "scenario.json"
                scn.write_text(json.dumps(raw))
                with mock.patch.object(cli.scenario, "run", must_not_run):
                    assert cli.main(["simulate", "--scenario", str(scn)]) == 2
            return
        # a short run: 0.2 s, and no more than 10 frames at a mutated frame rate
        config.duration_s = min(config.duration_s, 0.2, 10 / config.sensor.fps)
        report = run(config)
        assert len(report.per_flasher) == len(config.flashers)
        event("accepted")

    def test_explicit_ids_honoured(self):
        raw = cube_config()
        raw["flashers"][0]["id"] = 5
        config = ScenarioConfig.from_dict(raw)
        report = run(config)
        assert report.per_flasher[0]["identifier"] == 5
        assert len({fl["identifier"] for fl in report.per_flasher}) == 8

    @pytest.mark.parametrize("first", [1, "auto"])
    def test_explicit_ids_count_as_neighbours(self, first):
        """An auto flasher 0.1 m from an explicit id 1 takes the code an auto
        neighbour there would leave it: 8, 16 indels from 1, not 2 at 4."""
        raw = cube_config()
        raw["flashers"] = raw["flashers"][:2]
        raw["flashers"][0].update(id=first, position_m=[0.0, 0.0, 0.0])
        raw["flashers"][1]["position_m"] = [0.1, 0.0, 0.0]
        raw["visibility_radius_m"] = 1.0
        report = run(ScenarioConfig.from_dict(raw))
        assert [fl["identifier"] for fl in report.per_flasher] == [1, 8]


class TestTrajectoryInterpolation:
    def test_clamps_outside_knots(self):
        knots = [(0.0, Pose(np.eye(3), [0, 0, 4])), (1.0, Pose(np.eye(3), [1, 0, 4]))]
        assert np.allclose(interpolate_pose(knots, -1.0).translation, [0, 0, 4])
        assert np.allclose(interpolate_pose(knots, 9.0).translation, [1, 0, 4])

    def test_linear_translation_midpoint(self):
        knots = [(0.0, Pose(np.eye(3), [0, 0, 4])), (1.0, Pose(np.eye(3), [1, 0, 4]))]
        assert np.allclose(interpolate_pose(knots, 0.5).translation, [0.5, 0, 4])

    def test_geodesic_rotation_midpoint(self):
        r1 = exp_so3([0.0, 0.0, 0.8])
        knots = [(0.0, Pose(np.eye(3), [0, 0, 4])), (1.0, Pose(r1, [0, 0, 4]))]
        mid = interpolate_pose(knots, 0.5)
        assert np.allclose(mid.rotation, exp_so3([0.0, 0.0, 0.4]), atol=1e-12)

    @staticmethod
    def one_instant(trajectory, t):
        """The per-instant formula interpolate_poses batches, as a loop."""
        if t <= trajectory[0][0]:
            return trajectory[0][1]
        if t >= trajectory[-1][0]:
            return trajectory[-1][1]
        for (t0, p0), (t1, p1) in zip(trajectory, trajectory[1:]):
            if t0 <= t <= t1:
                s = (t - t0) / (t1 - t0)
                rel = pose_mod.log_so3(p1.rotation @ p0.rotation.T)
                rot = pose_mod.nearest_rotation(pose_mod.exp_so3(rel * s) @ p0.rotation)
                return Pose(rot, (1 - s) * p0.translation + s * p1.translation)
        return trajectory[-1][1]

    def test_batched_poses_are_each_instant_bitwise(self, monkeypatch):
        """interpolate_poses over many instants, in several chunks, equals
        interpolate_pose and the per-instant loop at each, to the bit."""
        monkeypatch.setattr(pose_mod, "FRAME_CHUNK", 7)
        rng = np.random.default_rng(14)
        knot_t = [0.0, 0.4, 1.1, 1.5, 3.0]
        trajectory = [(t, Pose(exp_so3(rng.normal(0.0, 1.0, 3)), rng.normal(0.0, 2.0, 3)))
                      for t in knot_t]
        times = np.concatenate([rng.uniform(-0.5, 3.5, 40), knot_t, [-1e9, 1e9, 3.0 + 1e-15]])
        rot, trans = scenario.interpolate_poses(trajectory, times)
        assert rot.shape == (len(times), 3, 3) and trans.shape == (len(times), 3)
        for t, r, tr in zip(times.tolist(), rot, trans):
            one, want = interpolate_pose(trajectory, t), self.one_instant(trajectory, t)
            assert np.array_equal(r, one.rotation) and np.array_equal(tr, one.translation)
            assert np.array_equal(r, want.rotation) and np.array_equal(tr, want.translation)


class TestCli:
    def test_lockon_single_value(self, capsys):
        assert cli.main(["lockon", "--bits", "18", "--fps", "60"]) == 0
        assert capsys.readouterr().out.strip() == "0.30"

    def test_lockon_single_value_honours_out(self, tmp_path, capsys):
        out = tmp_path / "lockon.txt"
        assert cli.main(["lockon", "--bits", "18", "--fps", "60", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == "0.30\n"

    def test_sync_interval_prints_10(self, capsys):
        assert cli.main(["sync-interval", "--delta-max", "0.001", "--rho-ppm", "50"]) == 0
        assert capsys.readouterr().out.strip() == "10"

    def test_codebook_gen_robust_n4(self, capsys):
        assert cli.main(["codebook", "gen", "--bits", "4", "--mode", "robust"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["words"] == ["0111"]

    def test_decode_stream_reference_example(self, tmp_path, capsys):
        book_path = tmp_path / "book.json"
        assert (
            cli.main(
                ["codebook", "gen", "--bits", "4", "--mode", "initial",
                 "--out", str(book_path)]
            )
            == 0
        )
        capsys.readouterr()
        assert cli.main(["decode", "--book", str(book_path), "--stream", "1101110111"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["votes"] == [0, 0, 0] + [4] * 7
        assert payload["locked_identifier"] == 4

    def test_encode_round_trip(self, tmp_path, capsys):
        book_path = tmp_path / "book.json"
        cli.main(["codebook", "gen", "--bits", "8", "--mode", "robust",
                  "--out", str(book_path)])
        capsys.readouterr()
        assert cli.main(["encode", "--book", str(book_path), "--id", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["word"]) == 8

    def test_codebook_report_range(self, capsys):
        assert cli.main(["codebook", "report", "--bits", "4..6"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["bits"] for r in rows] == [4, 5, 6]
        assert rows[0]["robust_size"] == 1

    # the lock-on grid over stubbed book sizes 3n - 17, as the CLI prints it
    LOCKON_CSV = (
        "bits,size,30,45,60,75,90,120,180,240\r\n"
        "7,4,0.23,0.15,0.11,0.09,0.07,0.05,0.03,0.02\r\n"
        "8,7,0.26,0.17,0.13,0.10,0.08,0.06,0.04,0.03\r\n"
        "9,10,0.30,0.20,0.15,0.12,0.10,0.07,0.05,0.03\r\n"
        "10,13,0.33,0.22,0.16,0.13,0.11,0.08,0.05,0.04\r\n"
        "11,16,0.36,0.24,0.18,0.14,0.12,0.09,0.06,0.04\r\n"
        "12,19,0.40,0.26,0.20,0.16,0.13,0.10,0.06,0.05\r\n"
        "13,22,0.43,0.28,0.21,0.17,0.14,0.10,0.07,0.05\r\n"
        "14,25,0.46,0.31,0.23,0.18,0.15,0.11,0.07,0.05\r\n"
        "15,28,0.50,0.33,0.25,0.20,0.16,0.12,0.08,0.06\r\n"
        "16,31,0.53,0.35,0.26,0.21,0.17,0.13,0.08,0.06\r\n"
        "17,34,0.56,0.37,0.28,0.22,0.18,0.14,0.09,0.07\r\n"
        "18,37,0.60,0.40,0.30,0.24,0.20,0.15,0.10,0.07\r\n"
        "19,40,0.63,0.42,0.31,0.25,0.21,0.15,0.10,0.07\r\n"
        "20,43,0.66,0.44,0.33,0.26,0.22,0.16,0.11,0.08\r\n"
        "21,46,0.70,0.46,0.35,0.28,0.23,0.17,0.11,0.08\r\n"
    )

    def test_lockon_table_output_pinned(self, capsys, monkeypatch):
        """JSON and --csv print the same grid, byte for byte as pinned."""
        monkeypatch.setattr(codec, "generate_robust_codebook", lambda n: ([None] * (3 * n - 17), None))
        assert cli.main(["lockon", "--csv"]) == 0
        assert capsys.readouterr().out == self.LOCKON_CSV
        header, *rows = [line.split(",") for line in self.LOCKON_CSV.splitlines()]
        want = {
            bits: {"lockon_s": dict(zip(header[2:], times)), "size": int(size)}
            for bits, size, *times in rows
        }
        assert cli.main(["lockon"]) == 0
        assert capsys.readouterr().out == json.dumps(want, sort_keys=True) + "\n"

    def test_codebook_report_csv_pinned(self, capsys):
        assert cli.main(["codebook", "report", "--bits", "2..6", "--csv"]) == 0
        assert capsys.readouterr().out == (
            "bits,necklace_classes,initial_size,robust_size,30,45,60,75,90,120,180,240\r\n"
            "2,3,1,,,,,,,,,\r\n"
            "3,4,2,,,,,,,,,\r\n"
            "4,6,4,1,0.13,0.08,0.06,0.05,0.04,0.03,0.02,0.01\r\n"
            "5,8,6,1,0.16,0.11,0.08,0.06,0.05,0.04,0.02,0.02\r\n"
            "6,14,12,1,0.20,0.13,0.10,0.08,0.06,0.05,0.03,0.02\r\n"
        )

    @staticmethod
    def trace_file(tmp_path, book):
        """Two tracks whose intensity and hue carry different words of the
        robust n = 8 book, each 3 cycles with one duplicated bit."""

        def trace(track_id, lit, tint, phase, dup):
            def bits(ident):
                out = [book.word(ident).bits[(phase + i) % 8] for i in range(24)]
                out.insert(dup, out[dup])
                return out

            tr = signal.SampleTrace(track_id)
            for k, (i, h) in enumerate(zip(bits(lit), bits(tint))):
                level = (20.0 if i else 5.0) + 0.25 * (k % 3)
                tr.append(signal.FlashSample(k / 30, level, 10.0 if h else 250.0, (1.0, 2.0)))
            return tr

        path = tmp_path / "trace.csv"
        signal.write_trace_csv(path, [trace(0, 2, 4, 3, 11), trace(3, 1, 3, 0, 9)])
        return path

    @pytest.mark.parametrize(
        "scheme, want",
        [
            ("hue", {"0": (4, [0] * 7 + [4] * 18), "3": (3, [0] * 7 + [3] * 18)}),
            ("intensity", {"0": (2, [0] * 7 + [2] * 8 + [0, 0] + [2] * 8), "3": (1, [0] * 7 + [1] * 18)}),
        ],
    )
    def test_decode_trace_output_pinned(self, tmp_path, capsys, scheme, want):
        book_path = tmp_path / "book.json"
        assert cli.main(["codebook", "gen", "--bits", "8", "--mode", "robust", "--out", str(book_path)]) == 0
        trace = self.trace_file(tmp_path, cli._load_book(str(book_path))[0])
        assert cli.main(["decode", "--book", str(book_path), "--trace", str(trace), "--scheme", scheme]) == 0
        payload = {k: {"locked_identifier": ident, "votes": votes} for k, (ident, votes) in want.items()}
        assert capsys.readouterr().out == json.dumps(payload, sort_keys=True) + "\n"
        if scheme == "hue":  # the default scheme of a trace
            assert cli.main(["decode", "--book", str(book_path), "--trace", str(trace)]) == 0
            assert capsys.readouterr().out == json.dumps(payload, sort_keys=True) + "\n"
        assert cli.main(["decode", "--book", str(book_path), "--stream", "0001011100010111000101"]) == 0
        assert capsys.readouterr().out == (
            '{"votes": [' + ", ".join(["0"] * 7 + ["1"] * 15) + '], "locked_identifier": 1, "bits": 22}\n'
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lockon", "--bits", "18", "--fps", "0"], "fps must be finite and > 0, got 0.0"),
            (["lockon", "--bits", "18", "--fps", "inf"], "fps must be finite and > 0, got inf"),
            (["lockon", "--bits", "18", "--fps", "nan"], "fps must be finite and > 0, got nan"),
            (["lockon", "--bits", "18", "--fps", "-30"], "fps must be finite and > 0, got -30.0"),
            (["lockon", "--bits", "0", "--fps", "60"], "word length must be an integer >= 1, got 0"),
            (["lockon", "--bits", "-5", "--fps", "60"], "word length must be an integer >= 1, got -5"),
            (["lockon", "--bits", "18"], "--bits and --fps must be given together"),
            (["lockon", "--fps", "60"], "--bits and --fps must be given together"),
            (["codebook", "report", "--bits", "5..3"], "--bits 5..3 is an empty range"),
            (["lockon", "--bits", "18", "--fps", "60", "--csv"],
             "--csv applies to the table only, not to one --bits/--fps value"),
        ],
        ids=["fps-0", "fps-inf", "fps-nan", "fps-negative", "bits-0", "bits-negative",
             "bits-alone", "fps-alone", "empty-range", "single-value-csv"],
    )
    def test_bad_lockon_and_report_inputs_exit_2(self, capsys, monkeypatch, argv, message):
        for module in (codebook, codec, cli):  # each binds its own name
            monkeypatch.setattr(module, "generate_robust_codebook", must_not_run)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"flashtrack: {message}\n"

    @pytest.mark.parametrize("scheme", ["hue", "intensity"])
    def test_decode_stream_refuses_scheme(self, tmp_path, capsys, scheme):
        book_path = tmp_path / "book.json"
        assert cli.main(["codebook", "gen", "--bits", "4", "--mode", "initial", "--out", str(book_path)]) == 0
        argv = ["decode", "--book", str(book_path), "--stream", "0111"]
        assert cli.main([*argv, "--scheme", scheme]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "flashtrack: --scheme applies to --trace only, not to --stream\n"
        # an empty stream is a stream, not a missing trace
        assert cli.main(["decode", "--book", str(book_path), "--stream", ""]) == 0
        assert capsys.readouterr().out == '{"votes": [], "locked_identifier": 0, "bits": 0}\n'

    @pytest.mark.parametrize("scheme", ["hue", "intensity"])
    def test_decode_trace_refuses_non_finite_sample(self, tmp_path, capsys, scheme):
        book_path, trace = tmp_path / "book.json", tmp_path / "trace.csv"
        argv = ["codebook", "gen", "--bits", "4", "--mode", "initial", "--out", str(book_path)]
        assert cli.main(argv) == 0
        trace.write_text("track_id,t,intensity,hue,row,col\n0,0.0,100,0,1,2\n0,0.1,20,240,1,2\n"
                         "0,0.2,nan,0,1,2\n0,0.3,nan,0,1,2\n")
        argv = ["decode", "--book", str(book_path), "--trace", str(trace), "--scheme", scheme]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "flashtrack: trace file line 4: intensity not finite\n"

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["codebook", "gen", "--bits", "4"])
        assert exc.value.code == 1

    @staticmethod
    def bad_book(tmp_path, fault):
        """The robust n = 4 book file with one fault written into it."""
        data = codebook.codebook_to_json(*codebook.generate_robust_codebook(4))
        fault(data)
        path = tmp_path / "book.json"
        path.write_text(json.dumps(data))
        return path

    def assert_book_refused(self, path, capsys, message):
        with pytest.raises(ValueError, match=message):
            codebook.codebook_from_json(json.loads(path.read_text()))
        for argv in (["decode", "--stream", "0111011101110111"], ["encode", "--id", "1"]):
            assert cli.main([*argv, "--book", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and message in captured.err

    def test_book_run_past_the_table_start_refused(self, tmp_path, capsys):
        path = self.bad_book(tmp_path, lambda d: d["table"]["runs"].append([-3, 2, 1]))
        self.assert_book_refused(path, capsys, "lies outside the 32 entries")

    def test_book_run_with_unknown_identifier_refused(self, tmp_path, capsys):
        path = self.bad_book(tmp_path, lambda d: d["table"]["runs"].append([1, 1, 9]))
        self.assert_book_refused(path, capsys, "identifier outside 1..1")

    def test_book_word_the_table_does_not_claim_refused(self, tmp_path, capsys):
        path = self.bad_book(tmp_path, lambda d: d["words"].append("0011"))
        self.assert_book_refused(path, capsys, "word 0011 is not claimed by its identifier 2")

    def test_book_table_size_refused_before_allocation(self, tmp_path, capsys):
        path = self.bad_book(tmp_path, lambda d: d["table"].update(size=10**13))
        with mock.patch.object(codebook.np, "zeros", side_effect=AssertionError("allocated")):
            self.assert_book_refused(path, capsys, "size 32")

    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda d: d.update(mode="greedy"), "unknown mode"),
            (lambda d: d.update(n=3), "out of range"),
            (lambda d: d.update(n="4"), "out of range"),
            (lambda d: d["table"].update(encoding="dense"), "rle"),
            (lambda d: d["table"]["runs"].append([30, 3, 1]), "lies outside"),
            (lambda d: d["table"]["runs"].append([1, 1.0, 1]), "three integers"),
            (lambda d: d.update(words=["01110"]), "4 bits long"),
            (lambda d: d.update(words=[7]), "not a bit string"),
            (lambda d: d.update(table=[]), "table object"),
        ],
        ids=[
            "mode", "n-below-range", "n-string", "encoding", "run-past-end", "run-float",
            "word-length", "word-not-string", "table-not-object",
        ],
    )
    def test_book_header_and_run_faults_refused(self, tmp_path, capsys, fault, message):
        self.assert_book_refused(self.bad_book(tmp_path, fault), capsys, message)

    def test_book_word_that_is_not_its_smallest_rotation_refused(self, tmp_path, capsys):
        # the table claims 1110 for identifier 1, but a book holds each class as
        # its smallest rotation, 0111, as the generators write it
        path = self.bad_book(tmp_path, lambda d: d.update(words=["1110"]))
        self.assert_book_refused(path, capsys, "word 1110 is not its class's smallest rotation 0111")

    @pytest.mark.parametrize("path", [path for path, _ in codebook.BOOK_KEYS])
    def test_book_missing_key_refused(self, tmp_path, capsys, path):
        holder, _, key = path.rpartition(".")
        path_file = self.bad_book(tmp_path, lambda d: (d[holder] if holder else d).pop(key))
        self.assert_book_refused(path_file, capsys, f"book key {path} is missing")

    @pytest.mark.parametrize(
        "path, value, message",
        [
            ("mode", 4, "must be str, got int"),
            ("words", "0111", "must be list, got str"),
            ("table.encoding", ["rle"], "must be str, got list"),
            ("table.size", "32", "must be int, got str"),
            ("table.size", True, "must be int, got bool"),
            ("table.runs", {}, "must be list, got dict"),
        ],
        ids=["mode-int", "words-string", "encoding-list", "size-string", "size-bool",
             "runs-object"],
    )
    def test_book_mistyped_key_refused(self, tmp_path, capsys, path, value, message):
        holder, _, key = path.rpartition(".")
        path_file = self.bad_book(
            tmp_path, lambda d: (d[holder] if holder else d).update({key: value}))
        self.assert_book_refused(path_file, capsys, f"book key {path} {message}")

    def test_book_with_an_empty_table_names_the_missing_key(self, tmp_path, capsys):
        path = tmp_path / "book.json"
        path.write_text(json.dumps({"mode": "robust", "table": {}}))
        assert cli.main(["encode", "--book", str(path), "--id", "1"]) == 2
        assert capsys.readouterr().err == "flashtrack: book key n is missing\n"

    def test_book_file_that_is_not_an_object_refused(self, tmp_path, capsys):
        path = tmp_path / "book.json"
        path.write_text("[]")
        self.assert_book_refused(path, capsys, "must be a JSON object")

    def test_cli_import_and_blob_detection_load_no_scipy(self):
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "import numpy as np, flashtrack.cli\n"
            "from flashtrack.signal import detect_flashes\n"
            "frame = np.zeros((8, 8)); frame[2, 3:5] = 9.0\n"
            "assert len(detect_flashes(frame, 1.0, 2.0)) == 1\n"
            "print(sorted(m for m, v in sys.modules.items() if v and m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_domain_error_exits_2(self, tmp_path, capsys):
        book_path = tmp_path / "book.json"
        cli.main(["codebook", "gen", "--bits", "4", "--mode", "robust",
                  "--out", str(book_path)])
        assert cli.main(["encode", "--book", str(book_path), "--id", "99"]) == 2
        assert "99" in capsys.readouterr().err

    def test_simulate_writes_report(self, tmp_path, capsys):
        scn = tmp_path / "scenario.json"
        out = tmp_path / "report.json"
        scn.write_text(json.dumps(cube_config()))
        assert cli.main(["simulate", "--scenario", str(scn), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["summary"]["identified_flashers"] == 8

    def test_simulate_debug_truth_gating(self, tmp_path, capsys):
        scn = tmp_path / "scenario.json"
        scn.write_text(json.dumps(cube_config()))
        assert cli.main(["simulate", "--scenario", str(scn)]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert "truth_pose" not in plain["per_frame"][0]
        assert cli.main(["simulate", "--scenario", str(scn), "--debug-truth"]) == 0
        debug = json.loads(capsys.readouterr().out)
        assert "truth_pose" in debug["per_frame"][0]

    @pytest.mark.parametrize("name,changes", BAD_INPUTS)
    def test_simulate_bad_input_exits_2(self, tmp_path, capsys, monkeypatch, name, changes):
        monkeypatch.setattr(cli.scenario, "run", must_not_run)
        scn = tmp_path / "bad.json"
        scn.write_text(json.dumps(mutated(*changes)))
        assert cli.main(["simulate", "--scenario", str(scn)]) == 2
        assert f"{name}:" in capsys.readouterr().err

    def test_simulate_invalid_config_exits_2(self, tmp_path, capsys):
        scn = tmp_path / "bad.json"
        scn.write_text(json.dumps(dict(cube_config(), duration_s=-1)))
        assert cli.main(["simulate", "--scenario", str(scn)]) == 2
        assert "duration_s" in capsys.readouterr().err

    def test_simulate_zero_heartbeat_period_exits_2(self, tmp_path, capsys, monkeypatch):
        # a run would never end; reaching it fails the test instead
        def must_not_run(*args, **kwargs):
            raise AssertionError("run() reached with a zero heartbeat period")

        monkeypatch.setattr(cli.scenario, "run", must_not_run)
        raw = cube_config()
        raw["heartbeat"] = {"enabled": True, "period_s": 0}
        scn = tmp_path / "hb.json"
        scn.write_text(json.dumps(raw))
        assert cli.main(["simulate", "--scenario", str(scn)]) == 2
        assert "heartbeat.period_s" in capsys.readouterr().err

    def test_simulate_nan_duration_exits_2(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("run() reached with a NaN duration")

        monkeypatch.setattr(cli.scenario, "run", must_not_run)
        scn = tmp_path / "nan.json"
        scn.write_text(json.dumps(cube_config(duration=float("nan"))))
        assert cli.main(["simulate", "--scenario", str(scn)]) == 2
        assert "duration_s" in capsys.readouterr().err

    def test_simulate_bad_noise_exits_2(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("run() reached with an invalid noise level")

        monkeypatch.setattr(cli.scenario, "run", must_not_run)
        raw = cube_config()
        raw["noise"] = {"pixel_sigma": "0.3"}
        scn = tmp_path / "noise.json"
        scn.write_text(json.dumps(raw))
        assert cli.main(["simulate", "--scenario", str(scn)]) == 2
        assert "noise.pixel_sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("mode,bits", [(m, b) for m, b, ok in BITS_EDGES if not ok])
    def test_simulate_bad_codebook_bits_exits_2(self, tmp_path, capsys, monkeypatch, mode, bits):
        def must_not_run(*args, **kwargs):
            raise AssertionError(f"run() reached with {bits} bits in {mode} mode")

        monkeypatch.setattr(cli.scenario, "run", must_not_run)
        raw = cube_config()
        raw["codebook"] = {"bits": bits, "mode": mode}
        scn = tmp_path / "bits.json"
        scn.write_text(json.dumps(raw))
        assert cli.main(["simulate", "--scenario", str(scn)]) == 2
        assert "codebook.bits" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key,value",
        [("sensor", key, value) for key, value in BAD_SENSOR_TIMING]
        + [("heartbeat", "period_s", 1e-9)],
    )
    def test_simulate_bad_timing_exits_2(self, tmp_path, capsys, monkeypatch, section, key, value):
        def must_not_run(*args, **kwargs):
            raise AssertionError(f"run() reached with {section}.{key} = {value}")

        monkeypatch.setattr(cli.scenario, "run", must_not_run)
        raw = cube_config(duration=1.0)
        if section == "sensor":
            raw["camera"]["sensor"][key] = value
        else:
            raw["heartbeat"] = {"enabled": True, key: value}
        scn = tmp_path / "timing.json"
        scn.write_text(json.dumps(raw))
        assert cli.main(["simulate", "--scenario", str(scn)]) == 2
        assert key in capsys.readouterr().err
