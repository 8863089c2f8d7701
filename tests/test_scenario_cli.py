"""End-to-end scenario runs and the command-line surface."""

import json
import math

import numpy as np
import pytest

from flashtrack import cli
from flashtrack.scenario import ConfigError, ScenarioConfig, interpolate_pose, run
from flashtrack.pose import Pose, exp_so3


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

    def test_report_round_trips_through_json(self):
        report = run(ScenarioConfig.from_dict(cube_config()))
        again = json.loads(report.to_json())
        assert json.dumps(again, sort_keys=True, indent=2) == report.to_json()


class TestScenarioConfig:
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

    def test_explicit_ids_honoured(self):
        raw = cube_config()
        raw["flashers"][0]["id"] = 5
        config = ScenarioConfig.from_dict(raw)
        report = run(config)
        assert report.per_flasher[0]["identifier"] == 5
        assert len({fl["identifier"] for fl in report.per_flasher}) == 8


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


class TestCli:
    def test_lockon_single_value(self, capsys):
        assert cli.main(["lockon", "--bits", "18", "--fps", "60"]) == 0
        assert capsys.readouterr().out.strip() == "0.30"

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

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["codebook", "gen", "--bits", "4"])
        assert exc.value.code == 1

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
