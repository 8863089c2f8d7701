"""Declarative end-to-end simulation: emitters to decoded pose report.

A scenario file describes flashers (positions, codes, clocks), the
camera (intrinsics, sensor timing, clock), a camera trajectory,
heartbeat settings, noise levels, and the code-book to use. `run`
composes the library per frame: `channel` samples and renders each
flash bit through the drifting clocks, `signal` tracks the detections
and classifies them back into bits, `codec` assigns and decodes the
identifiers, and `pose` recovers the camera from the flasher map, handed
the previous frame's fix as its start (none after a frame without one). The
report records per-flasher lock-on and error events, per-frame
detections and pose errors against ground truth, and summary statistics.

Detections are synthesized directly at the projected flash pixels
(plus configured pixel noise) rather than rasterized into frames; each
carries its flasher's index, so ground truth follows the flasher even
where two share a pixel. One seed drives all randomness, so a rerun of
the same config is byte-identical.

A flasher is counted as identified at its track's first nonzero decode
vote, which for a clean stream happens exactly one code cycle after
first sight; the stricter agreement-run lock of the stream decoder is
reported alongside. By choice, samples keep the at-sensor levels that
the noise sigmas are stated against (render scale 1, no 1/d^2 fall-off),
and bits lit while a flasher is out of view count as deletions.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import channel, codec, pose as pose_mod, signal
from .codebook import (
    MAX_BITS,
    MIN_BITS_INITIAL,
    MIN_BITS_ROBUST,
    generate_initial_codebook,
    generate_robust_codebook,
)
from .pose import CameraIntrinsics, Pose


class ConfigError(ValueError):
    """Invalid scenario configuration; message lists offending fields."""


#: the keys each config section may hold; any other key is a ConfigError
CONFIG_KEYS = {
    "": {"flashers", "camera", "trajectory", "heartbeat", "noise", "codebook", "duration_s",
         "seed", "visibility_radius_m", "gating_radius_px"},
    "flashers[]": {"id", "position_m", "scheme", "clock_ppm", "bit_period_s"},
    "camera": {"intrinsics", "sensor", "clock_ppm"},
    "camera.intrinsics": {"fx_px", "fy_px", "cx_px", "cy_px", "image_size"},
    "camera.sensor": {"kind", "fps", "rows", "row_readout_s", "exposure_mid_s"},
    "trajectory[]": {"t_s", "rotation", "translation_m"},
    "heartbeat": {"enabled", "period_s", "timeout_s"},
    "noise": {"intensity_sigma", "hue_sigma", "pixel_sigma"},
    "codebook": {"bits", "mode"},
}
#: most frames one run may play, floor(duration_s * fps) + 1
MAX_FRAMES = 1_000_000


@dataclass
class FlasherSpec:
    position: np.ndarray
    scheme: str
    clock_ppm: float
    bit_period_s: float
    identifier: int | None = None  # None = assign automatically


@dataclass
class ScenarioConfig:
    flashers: list[FlasherSpec]
    intrinsics: CameraIntrinsics
    sensor: channel.SensorTiming
    camera_clock_ppm: float
    trajectory: list[tuple[float, Pose]]
    heartbeat_enabled: bool
    heartbeat_period_s: float
    heartbeat_timeout_s: float
    intensity_sigma: float
    hue_sigma: float
    pixel_sigma: float
    codebook_bits: int
    codebook_mode: str
    duration_s: float
    seed: int
    visibility_radius_m: float = math.inf
    gating_radius_px: float = 20.0

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        errors: list[str] = []

        def need(container, key, kind, path, default=None, required=True):
            name = f"{path}.{key}" if path else key
            if key not in container:
                if required:
                    errors.append(f"{name}: missing")
                return default
            value = container[key]
            if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
                if math.isfinite(value):
                    return float(value)
                errors.append(f"{name}: must be finite")
                return default
            if kind is int and isinstance(value, int) and not isinstance(value, bool):
                return value
            if kind is bool and isinstance(value, bool):
                return value
            if kind in (list, dict, str) and isinstance(value, kind):
                return value
            errors.append(f"{name}: expected {kind.__name__}")
            return default

        def section(container, path, table=None):
            """container, or {} if it is no dict; keys not in CONFIG_KEYS are errors."""
            if not isinstance(container, dict):
                errors.append(f"{path or 'scenario'}: expected dict")
                return {}
            for key in sorted(set(container) - CONFIG_KEYS[table or path], key=str):
                errors.append(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")
            return container

        raw = section(raw, "")
        flashers = []
        for i, f in enumerate(raw.get("flashers", [])):
            path = f"flashers[{i}]"
            f = section(f, path, "flashers[]")
            position = need(f, "position_m", list, path, default=[0, 0, 0])
            if len(position) != 3:
                errors.append(f"{path}.position_m: expected 3 values")
            scheme = need(f, "scheme", str, path, default="hue")
            if scheme not in ("hue", "intensity"):
                errors.append(f"{path}.scheme: expected hue or intensity")
            bit_period = need(f, "bit_period_s", float, path, default=1.0)
            if bit_period is not None and bit_period <= 0:
                errors.append(f"{path}.bit_period_s: must be positive")
            ident = f.get("id")
            if ident is not None and ident != "auto" and not isinstance(ident, int):
                errors.append(f"{path}.id: expected integer or 'auto'")
            flashers.append(
                FlasherSpec(
                    np.asarray(position, dtype=float),
                    scheme,
                    need(f, "clock_ppm", float, path, default=0.0, required=False),
                    bit_period or 1.0,
                    ident if isinstance(ident, int) else None,
                )
            )
        if flashers and len({f.scheme for f in flashers}) > 1:
            errors.append("flashers: all flashers must share one scheme")

        cam = section(raw.get("camera", {}), "camera")
        camera_ppm = need(cam, "clock_ppm", float, "camera", default=0.0, required=False)
        intr = section(cam.get("intrinsics", {}), "camera.intrinsics")
        intrinsics = None
        try:
            intrinsics = CameraIntrinsics(
                need(intr, "fx_px", float, "camera.intrinsics", default=1.0),
                need(intr, "fy_px", float, "camera.intrinsics", default=1.0),
                need(intr, "cx_px", float, "camera.intrinsics", default=0.0),
                need(intr, "cy_px", float, "camera.intrinsics", default=0.0),
                tuple(intr["image_size"]) if "image_size" in intr else None,
            )
        except (ValueError, TypeError) as exc:
            errors.append(f"camera.intrinsics: {exc}")

        sen = section(cam.get("sensor", {}), "camera.sensor")
        rows = need(sen, "rows", int, "camera.sensor", default=1, required=False)
        if rows < 1:
            errors.append("camera.sensor.rows: must be at least 1")
        timing = []
        for key in ("row_readout_s", "exposure_mid_s"):
            timing.append(need(sen, key, float, "camera.sensor", default=0.0, required=False))
            if timing[-1] < 0:
                errors.append(f"camera.sensor.{key}: must not be negative")
        sensor = None
        try:
            sensor = channel.SensorTiming(
                need(sen, "kind", str, "camera.sensor", default="ccd"),
                need(sen, "fps", float, "camera.sensor", default=30.0),
                rows,
                *timing,
            )
        except (ValueError, TypeError) as exc:
            errors.append(f"camera.sensor: {exc}")

        trajectory = []
        for i, knot in enumerate(raw.get("trajectory", [])):
            path = f"trajectory[{i}]"
            knot = section(knot, path, "trajectory[]")
            t = need(knot, "t_s", float, path, default=0.0)
            rot = need(knot, "rotation", list, path, default=list(np.eye(3).ravel()))
            trans = need(knot, "translation_m", list, path, default=[0, 0, 0])
            try:
                trajectory.append(
                    (t, Pose(np.asarray(rot, dtype=float).reshape(3, 3), trans))
                )
            except (ValueError, TypeError) as exc:
                errors.append(f"{path}: {exc}")
        if not trajectory:
            errors.append("trajectory: at least one pose required")
        elif any(b[0] <= a[0] for a, b in zip(trajectory, trajectory[1:])):
            errors.append("trajectory: knot times must be strictly increasing")

        hb = section(raw.get("heartbeat", {}), "heartbeat")
        hb_enabled = need(hb, "enabled", bool, "heartbeat", default=False, required=False)
        hb_period = need(hb, "period_s", float, "heartbeat", required=hb_enabled)
        # a pulse period that is not positive would never advance the pulse loop
        if hb_enabled and hb_period is not None and hb_period <= 0:
            errors.append("heartbeat.period_s: must be positive when enabled")
        # omitted, emitters never sleep; 0 is a real timeout, not "unset"
        hb_timeout = need(hb, "timeout_s", float, "heartbeat", default=math.inf, required=False)
        if hb_timeout < 0:
            errors.append("heartbeat.timeout_s: must not be negative")
        noise = section(raw.get("noise", {}), "noise")
        floats = {}
        for key in ("intensity_sigma", "hue_sigma", "pixel_sigma"):
            floats[key] = need(noise, key, float, "noise", default=0.0, required=False)
            if floats[key] < 0:
                errors.append(f"noise.{key}: must not be negative")
        # omitted, the visibility radius is unbounded
        for key, default in (("visibility_radius_m", math.inf), ("gating_radius_px", 20.0)):
            floats[key] = need(raw, key, float, "", default=default, required=False)
            if floats[key] <= 0:
                errors.append(f"{key}: must be positive")
        book = section(raw.get("codebook", {}), "codebook")
        mode = need(book, "mode", str, "codebook", default="robust")
        if mode not in ("initial", "robust"):
            errors.append("codebook.mode: expected initial or robust")
        bits = need(book, "bits", int, "codebook", default=12)
        # an unknown mode is already an error; check bits against the looser bound
        low = MIN_BITS_ROBUST if mode == "robust" else MIN_BITS_INITIAL
        if not low <= bits <= MAX_BITS:
            errors.append(f"codebook.bits: {bits} outside {low}..{MAX_BITS} for mode {mode!r}")

        duration = need(raw, "duration_s", float, "")
        if duration is not None and duration <= 0:
            errors.append("duration_s: must be positive")
        elif duration is not None and sensor is not None and duration * sensor.fps >= MAX_FRAMES:
            errors.append(f"duration_s: more than {MAX_FRAMES} frames at {sensor.fps:g} fps")
        # pulses fire at 0, period_s, 2 * period_s, ...: floor(duration_s / period_s) + 1
        if (
            hb_enabled and hb_period is not None and hb_period > 0
            and duration is not None and duration > 0 and duration / hb_period >= MAX_FRAMES
        ):
            errors.append(f"heartbeat.period_s: more than {MAX_FRAMES} pulses in {duration:g} s")
        seed = need(raw, "seed", int, "")

        if errors:
            raise ConfigError("invalid scenario config:\n  " + "\n  ".join(errors))

        return cls(
            flashers=flashers,
            intrinsics=intrinsics,
            sensor=sensor,
            camera_clock_ppm=camera_ppm,
            trajectory=trajectory,
            heartbeat_enabled=hb_enabled,
            heartbeat_period_s=hb_period or 0.0,
            heartbeat_timeout_s=hb_timeout,
            codebook_bits=bits,
            codebook_mode=mode,
            duration_s=duration,
            seed=seed,
            **floats,
        )


def _log_so3(r: np.ndarray) -> np.ndarray:
    angle = pose_mod.rotation_angle(r)
    if angle < 1e-12:
        return np.zeros(3)
    axis = (
        np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
        / (2.0 * np.sin(angle))
    )
    return axis * angle


def interpolate_pose(trajectory: list[tuple[float, Pose]], t: float) -> Pose:
    """Piecewise linear translation, geodesic rotation between knots."""
    if t <= trajectory[0][0]:
        return trajectory[0][1]
    if t >= trajectory[-1][0]:
        return trajectory[-1][1]
    for (t0, p0), (t1, p1) in zip(trajectory, trajectory[1:]):
        if t0 <= t <= t1:
            s = (t - t0) / (t1 - t0)
            rel = _log_so3(p1.rotation @ p0.rotation.T)
            rot = pose_mod.exp_so3(rel * s) @ p0.rotation
            rot = pose_mod._nearest_rotation(rot)
            return Pose(rot, (1 - s) * p0.translation + s * p1.translation)
    return trajectory[-1][1]


@dataclass
class _TrackState:
    """Decoder-side bookkeeping hung off one live track."""

    bitizer: object
    decoder: codec.StreamDecoder
    truth_bits: deque = field(default_factory=lambda: deque(maxlen=64))
    voted: bool = False


@dataclass
class _FlasherState:
    """Ground truth and outcome of one flasher over a run."""

    indices: list[int] = field(default_factory=list)  # bit index per sighting
    bit: int = 0  # bit lit at the latest sighting
    flips: int = 0
    votes: int = 0
    votes_ok: int = 0
    lock_on_frame: int | None = None
    lock_on_time_s: float | None = None
    identifier_decoded: int | None = None
    locked_identifier: int | None = None


@dataclass
class ScenarioReport:
    per_flasher: list[dict]
    per_frame: list[dict]
    summary: dict
    heartbeats: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "per_flasher": self.per_flasher,
            "per_frame": self.per_frame,
            "summary": self.summary,
            "heartbeats": self.heartbeats,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _rms(values: list[float]) -> float | None:
    return math.sqrt(sum(v * v for v in values) / len(values)) if values else None


def run(config: ScenarioConfig, debug_truth: bool = False) -> ScenarioReport:
    """Play a scenario frame by frame; deterministic for a given seed."""
    rng = np.random.default_rng(config.seed)
    generate = (
        generate_robust_codebook
        if config.codebook_mode == "robust"
        else generate_initial_codebook
    )
    book, lut = generate(config.codebook_bits)
    if len(config.flashers) > len(book):
        raise ConfigError(
            f"{len(config.flashers)} flashers exceed code-book size {len(book)}"
        )

    # identifier assignment: explicit ids win, the rest greedy by distance
    taken = {f.identifier for f in config.flashers if f.identifier is not None}
    for ident in taken:
        if not 1 <= ident <= len(book):
            raise ConfigError(f"flasher id {ident} outside 1..{len(book)}")
    auto = [f.position for f in config.flashers if f.identifier is None]
    free = set(range(1, len(book) + 1)) - taken
    picks = iter(codec.assign_ids(auto, config.visibility_radius_m, book, free).values())
    # assigned identifiers stay local: the caller's config is left as given
    identifiers = [next(picks) if f.identifier is None else f.identifier for f in config.flashers]

    emitters = [
        channel.EmitterState(
            book.word(ident), f.bit_period_s, channel.ClockModel(f.clock_ppm)
        )
        for f, ident in zip(config.flashers, identifiers)
    ]
    tracker_clock = channel.ClockModel(config.camera_clock_ppm)
    scheme = config.flashers[0].scheme if config.flashers else "hue"
    bitizer = signal.HueBitizer if scheme == "hue" else signal.IntensityBitizer
    position_by_id = {ident: f.position for f, ident in zip(config.flashers, identifiers)}

    frame_period = 1.0 / config.sensor.fps
    n_frames = int(math.floor(config.duration_s / frame_period)) + 1

    tracks: list[signal.SampleTrace] = []
    track_states: dict[int, _TrackState] = {}
    flasher_states = [_FlasherState() for _ in config.flashers]

    heartbeats: list[dict] = []
    next_pulse = 0.0 if config.heartbeat_enabled else math.inf

    per_frame: list[dict] = []
    max_desync = 0.0
    last_fix: Pose | None = None  # warm start for the next 4-5 point solve

    for frame in range(n_frames):
        shared_base = channel.sample_time(config.sensor, tracker_clock, frame)

        # heartbeat pulses realign every clock's offset on the shared timeline
        while shared_base >= next_pulse:
            tracker_clock = channel.apply_heartbeat(tracker_clock, next_pulse)
            for k, em in enumerate(emitters):
                em.clock = channel.apply_heartbeat(em.clock, next_pulse)
                heartbeats.append({"t_s": next_pulse, "unit": f"flasher{k}"})
            heartbeats.append({"t_s": next_pulse, "unit": "tracker"})
            next_pulse += config.heartbeat_period_s

        truth_pose = interpolate_pose(config.trajectory, shared_base)

        clocks = [tracker_clock] + [em.clock for em in emitters]
        locals_now = [c.local_time(shared_base) for c in clocks]
        max_desync = max(max_desync, max(locals_now) - min(locals_now))

        # synthesize one detection per visible, active flasher
        detections: list[signal.Detection] = []
        for k, (spec, em, fs) in enumerate(zip(config.flashers, emitters, flasher_states)):
            # an emitter that missed its heartbeat pulses sleeps
            if config.heartbeat_enabled and channel.heartbeat_expired(
                em.clock, shared_base, config.heartbeat_timeout_s
            ):
                continue
            cam_pt = truth_pose.transform(spec.position.reshape(1, 3))[0]
            if cam_pt[2] <= 0:
                continue
            row, col = pose_mod.project(config.intrinsics, truth_pose, spec.position)
            size = config.intrinsics.image_size
            if size is not None and not (0 <= row < size[0] and 0 <= col < size[1]):
                continue

            shared_t = channel.sample_time(config.sensor, tracker_clock, frame, row)
            index, fs.bit = em.bit_at(shared_t)
            fs.indices.append(index)
            intensity, hue = channel.render_sample(
                fs.bit, scheme, rng, config.intensity_sigma, config.hue_sigma
            )
            pixel = (row, col)
            if config.pixel_sigma:
                pixel = (
                    row + rng.normal(0.0, config.pixel_sigma),
                    col + rng.normal(0.0, config.pixel_sigma),
                )
            detections.append(signal.Detection(pixel, intensity, hue, source=k))

        detections.sort(key=lambda d: d.pixel)
        tracks = signal.associate(tracks, detections, config.gating_radius_px, shared_base)
        # a closed track's id can be handed to a new track later, so its
        # decoder state goes with it
        open_ids = {tr.track_id for tr in tracks}
        track_states = {tid: st for tid, st in track_states.items() if tid in open_ids}

        # advance decoders on tracks that got a sample this frame
        frame_ids: dict[int, tuple[float, float]] = {}
        for tr in tracks:
            if not tr.samples or tr.samples[-1].t != shared_base:
                continue
            st = track_states.get(tr.track_id)
            if st is None:
                st = _TrackState(bitizer(config.codebook_bits), codec.StreamDecoder(lut))
                track_states[tr.track_id] = st
            sample = tr.samples[-1]
            fs = flasher_states[sample.source]
            st.truth_bits.append(fs.bit)
            value = sample.hue if scheme == "hue" else sample.intensity
            emitted = st.bitizer.push(value)
            # a backlog flush labels the last len(emitted) samples, so
            # flips are judged against the matching tail of channel bits
            truth_tail = list(st.truth_bits)[-len(emitted):] if emitted else []
            for bit, true_bit in zip(emitted, truth_tail):
                fs.flips += bit != true_bit
                state = st.decoder.push(bit)
                if state.vote:
                    fs.votes += 1
                    fs.votes_ok += state.vote == identifiers[sample.source]
                    if not st.voted and fs.lock_on_frame is None:
                        fs.lock_on_frame, fs.lock_on_time_s = frame, shared_base
                        fs.identifier_decoded = state.vote
                    st.voted = True
                if state.locked:
                    fs.locked_identifier = state.identifier
            ident = st.decoder.identifier or st.decoder.state.vote
            if ident:
                frame_ids[ident] = sample.pixel

        # pose from identified flashers with known map positions
        frame_entry: dict = {
            "frame": frame,
            "t_s": shared_base,
            "detections": len(detections),
            "identified": sorted(frame_ids),
            "pose": None,
            "degenerate": False,
            "rotation_error_rad": None,
            "translation_error_m": None,
        }
        usable = [(position_by_id[i], frame_ids[i]) for i in frame_ids if i in position_by_id]
        est = None
        if len(usable) >= 4:
            pts = np.array([u[0] for u in usable])
            pix = np.array([u[1] for u in usable])
            try:
                est = pose_mod.solve_pnp(config.intrinsics, pts, pix, start=last_fix)
                r_err, t_err = pose_mod.pose_error(est, truth_pose)
                frame_entry["pose"] = {
                    "rotation": [round(v, 15) for v in est.rotation.ravel().tolist()],
                    "translation_m": [round(v, 15) for v in est.translation.tolist()],
                }
                frame_entry["rotation_error_rad"] = r_err
                frame_entry["translation_error_m"] = t_err
            except pose_mod.DegenerateConfigurationError:
                frame_entry["degenerate"] = True
        last_fix = est
        if debug_truth:
            frame_entry["truth_pose"] = {
                "rotation": truth_pose.rotation.ravel().tolist(),
                "translation_m": truth_pose.translation.tolist(),
            }
        per_frame.append(frame_entry)

    per_flasher = []
    for k, (spec, fs) in enumerate(zip(config.flashers, flasher_states)):
        insertions, deletions = channel.count_drift_events(fs.indices)
        per_flasher.append(
            {
                "flasher": k,
                "identifier": identifiers[k],
                "scheme": spec.scheme,
                "lock_on_frame": fs.lock_on_frame,
                "lock_on_time_s": fs.lock_on_time_s,
                "identifier_decoded": fs.identifier_decoded,
                "locked_identifier": fs.locked_identifier,
                "id_accuracy": (fs.votes_ok / fs.votes) if fs.votes else None,
                "insertions": insertions,
                "deletions": deletions,
                "flips": fs.flips,
            }
        )

    posed = [f for f in per_frame if f["pose"] is not None]
    summary = {
        "frames": n_frames,
        "pose_rmse_m": _rms([f["translation_error_m"] for f in posed]),
        "pose_rmse_rad": _rms([f["rotation_error_rad"] for f in posed]),
        "max_desync_s": max_desync,
        "identified_flashers": sum(fs.lock_on_frame is not None for fs in flasher_states),
    }
    return ScenarioReport(per_flasher, per_frame, summary, heartbeats)
