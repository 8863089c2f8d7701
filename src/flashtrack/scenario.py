"""Declarative end-to-end simulation: emitters to decoded pose report.

A scenario file describes flashers (positions, codes, clocks), the
camera (intrinsics, sensor timing, clock), a camera trajectory,
heartbeat settings, noise levels, and the code-book to use. Running it
plays the whole pipeline per frame: flash bits are sampled through the
drifting clocks, rendered to photometric samples, detected, associated
into tracks, classified back into bits, stream-decoded, and finally
fed to pose recovery against the known flasher map. The report records
per-flasher lock-on and error events, per-frame detections and pose
errors against ground truth, and summary statistics.

Detections are synthesized directly at the projected flash pixels
(plus configured pixel noise) rather than rasterized into frames; blob
extraction has its own tests against rendered frames. One seed drives
all randomness, so a rerun of the same config is byte-identical.

A flasher is counted as identified at its track's first nonzero decode
vote, which for a clean stream happens exactly one code cycle after
first sight; the stricter agreement-run lock of the stream decoder is
reported alongside.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import channel, codec, pose as pose_mod, signal
from .codebook import BitWord, generate_initial_codebook, generate_robust_codebook
from .pose import CameraIntrinsics, Pose


class ConfigError(ValueError):
    """Invalid scenario configuration; message lists offending fields."""


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
            if key not in container:
                if required:
                    errors.append(f"{path}.{key}: missing")
                return default
            value = container[key]
            if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
            if kind is int and isinstance(value, int) and not isinstance(value, bool):
                return value
            if kind is bool and isinstance(value, bool):
                return value
            if kind in (list, dict, str) and isinstance(value, kind):
                return value
            errors.append(f"{path}.{key}: expected {kind.__name__}")
            return default

        flashers = []
        for i, f in enumerate(raw.get("flashers", [])):
            path = f"flashers[{i}]"
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
                    need(f, "clock_ppm", float, path, default=0.0, required=False) or 0.0,
                    bit_period or 1.0,
                    ident if isinstance(ident, int) else None,
                )
            )
        if flashers and len({f.scheme for f in flashers}) > 1:
            errors.append("flashers: all flashers must share one scheme")

        cam = raw.get("camera", {})
        intr = cam.get("intrinsics", {})
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

        sen = cam.get("sensor", {})
        sensor = None
        try:
            sensor = channel.SensorTiming(
                need(sen, "kind", str, "camera.sensor", default="ccd"),
                need(sen, "fps", float, "camera.sensor", default=30.0),
                need(sen, "rows", int, "camera.sensor", default=1, required=False) or 1,
                need(sen, "row_readout_s", float, "camera.sensor", default=0.0, required=False)
                or 0.0,
                need(sen, "exposure_mid_s", float, "camera.sensor", default=0.0, required=False)
                or 0.0,
            )
        except (ValueError, TypeError) as exc:
            errors.append(f"camera.sensor: {exc}")

        trajectory = []
        for i, knot in enumerate(raw.get("trajectory", [])):
            path = f"trajectory[{i}]"
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

        hb = raw.get("heartbeat", {})
        hb_enabled = bool(hb.get("enabled", False))
        hb_period = need(hb, "period_s", float, "heartbeat", required=hb_enabled)
        # a pulse period that is not positive would never advance the pulse loop
        if hb_enabled and hb_period is not None and not (math.isfinite(hb_period) and hb_period > 0):
            errors.append("heartbeat.period_s: must be positive and finite when enabled")
        noise = raw.get("noise", {})
        book = raw.get("codebook", {})
        mode = need(book, "mode", str, "codebook", default="robust")
        if mode not in ("initial", "robust"):
            errors.append("codebook.mode: expected initial or robust")
        bits = need(book, "bits", int, "codebook", default=12)

        duration = need(raw, "duration_s", float, "", default=0.0)
        if duration is not None and duration <= 0:
            errors.append("duration_s: must be positive")
        seed = need(raw, "seed", int, "")

        if errors:
            raise ConfigError("invalid scenario config:\n  " + "\n  ".join(errors))

        return cls(
            flashers=flashers,
            intrinsics=intrinsics,
            sensor=sensor,
            camera_clock_ppm=need(cam, "clock_ppm", float, "camera", default=0.0, required=False)
            or 0.0,
            trajectory=trajectory,
            heartbeat_enabled=hb_enabled,
            heartbeat_period_s=hb_period or 0.0,
            heartbeat_timeout_s=float(hb.get("timeout_s", math.inf) or math.inf),
            intensity_sigma=float(noise.get("intensity_sigma", 0.0)),
            hue_sigma=float(noise.get("hue_sigma", 0.0)),
            pixel_sigma=float(noise.get("pixel_sigma", 0.0)),
            codebook_bits=bits,
            codebook_mode=mode,
            duration_s=duration,
            seed=seed,
            visibility_radius_m=float(raw.get("visibility_radius_m", math.inf)),
            gating_radius_px=float(raw.get("gating_radius_px", 20.0)),
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
    flasher: int | None = None
    lock_frame: int | None = None
    lock_time: float | None = None


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
    # assigned identifiers stay local: the caller's config is left as given
    identifiers = [f.identifier for f in config.flashers]
    auto = [i for i, ident in enumerate(identifiers) if ident is None]
    if auto:
        sub_book_ids = [i for i in range(1, len(book) + 1) if i not in taken]
        auto_positions = [config.flashers[i].position for i in auto]
        # assign within the remaining identifiers, preserving greedy spacing
        picks = _assign_remaining(
            auto_positions, config.visibility_radius_m, book, sub_book_ids
        )
        for slot, ident in zip(auto, picks):
            identifiers[slot] = ident

    emitters = [
        channel.EmitterState(
            book.word(ident), f.bit_period_s, channel.ClockModel(f.clock_ppm)
        )
        for f, ident in zip(config.flashers, identifiers)
    ]
    tracker_clock = channel.ClockModel(config.camera_clock_ppm)
    scheme = config.flashers[0].scheme if config.flashers else "hue"
    position_by_id = {ident: f.position for f, ident in zip(config.flashers, identifiers)}

    frame_period = 1.0 / config.sensor.fps
    n_frames = int(math.floor(config.duration_s / frame_period)) + 1

    tracks: list[signal.SampleTrace] = []
    track_states: dict[int, _TrackState] = {}
    last_index: dict[int, int] = {}
    flasher_events = [
        {"insertions": 0, "deletions": 0, "flips": 0} for _ in config.flashers
    ]
    flasher_lock: list[dict] = [
        {"lock_on_frame": None, "lock_on_time_s": None, "identifier_decoded": None}
        for _ in config.flashers
    ]
    votes_stats = [{"ok": 0, "total": 0} for _ in config.flashers]
    locked_ids: list[int | None] = [None for _ in config.flashers]

    heartbeats: list[dict] = []
    next_pulse = 0.0 if config.heartbeat_enabled else math.inf

    per_frame: list[dict] = []
    pose_sq_err_t: list[float] = []
    pose_sq_err_r: list[float] = []
    max_desync = 0.0

    def bitizer_for(scheme_name: str):
        if scheme_name == "hue":
            return signal.HueBitizer()
        return signal.IntensityBitizer(config.codebook_bits)

    for frame in range(n_frames):
        base_schedule = frame * frame_period + config.sensor.exposure_mid
        shared_base = tracker_clock.local_time(base_schedule)

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
        if len(locals_now) > 1:
            max_desync = max(max_desync, max(locals_now) - min(locals_now))

        # synthesize one detection per visible, active flasher
        detections: list[signal.Detection] = []
        det_flasher: dict[tuple[float, float], tuple[int, int]] = {}
        for k, (spec, em) in enumerate(zip(config.flashers, emitters)):
            if config.heartbeat_enabled:
                em.power = (
                    channel.POWER_LOW
                    if channel.heartbeat_expired(em.clock, shared_base, config.heartbeat_timeout_s)
                    else channel.POWER_ACTIVE
                )
            if em.power != channel.POWER_ACTIVE:
                continue
            cam_pt = truth_pose.transform(spec.position.reshape(1, 3))[0]
            if cam_pt[2] <= 0:
                continue
            row, col = pose_mod.project(config.intrinsics, truth_pose, spec.position)
            size = config.intrinsics.image_size
            if size is not None and not (0 <= row < size[0] and 0 <= col < size[1]):
                continue

            schedule = base_schedule
            if config.sensor.kind == "cmos":
                schedule += row * config.sensor.row_readout
            shared_t = tracker_clock.local_time(schedule)
            tau = em.clock.local_time(shared_t)
            index, bit = em.bit_at_local(tau)

            if k in last_index:
                step = index - last_index[k]
                if step == 0:
                    flasher_events[k]["insertions"] += 1
                elif step > 1:
                    flasher_events[k]["deletions"] += step - 1
            last_index[k] = index

            if scheme == "intensity":
                level = channel.DEFAULT_HIGH if bit else channel.DEFAULT_LOW
                if config.intensity_sigma:
                    level += rng.normal(0.0, config.intensity_sigma)
                intensity, hue = level, 0.0
            else:
                hue = signal.HUE_HIGH_DEG if bit else signal.HUE_LOW_DEG
                if config.hue_sigma:
                    hue = (hue + rng.normal(0.0, config.hue_sigma)) % 360.0
                intensity = channel.DEFAULT_HIGH
            pixel = (row, col)
            if config.pixel_sigma:
                pixel = (
                    row + rng.normal(0.0, config.pixel_sigma),
                    col + rng.normal(0.0, config.pixel_sigma),
                )
            detections.append(signal.Detection(pixel, intensity, hue))
            det_flasher[pixel] = (k, bit)

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
                st = _TrackState(bitizer_for(scheme), codec.StreamDecoder(lut))
                track_states[tr.track_id] = st
            sample = tr.samples[-1]
            flasher_bit = det_flasher.get(sample.pixel)
            if flasher_bit is not None:
                st.flasher = flasher_bit[0]
                st.truth_bits.append(flasher_bit[1])
            value = sample.hue if scheme == "hue" else sample.intensity
            emitted = st.bitizer.push(value)
            # a backlog flush labels the last len(emitted) samples, so
            # flips are judged against the matching tail of channel bits
            truth_tail = list(st.truth_bits)[-len(emitted):] if emitted else []
            for bit, true_bit in zip(emitted, truth_tail):
                if bit != true_bit and st.flasher is not None:
                    flasher_events[st.flasher]["flips"] += 1
                state = st.decoder.push(bit)
                if state.vote and st.flasher is not None:
                    votes_stats[st.flasher]["total"] += 1
                    truth_id = identifiers[st.flasher]
                    votes_stats[st.flasher]["ok"] += int(state.vote == truth_id)
                if state.vote and st.lock_frame is None:
                    st.lock_frame = frame
                    st.lock_time = shared_base
                    if st.flasher is not None and flasher_lock[st.flasher]["lock_on_frame"] is None:
                        flasher_lock[st.flasher] = {
                            "lock_on_frame": frame,
                            "lock_on_time_s": shared_base,
                            "identifier_decoded": state.vote,
                        }
                if state.locked and st.flasher is not None:
                    locked_ids[st.flasher] = state.identifier
            ident = st.decoder.identifier or st.decoder.state.vote
            if ident:
                frame_ids[ident] = tr.samples[-1].pixel

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
        if len(usable) >= 4:
            pts = np.array([u[0] for u in usable])
            pix = np.array([u[1] for u in usable])
            try:
                est = pose_mod.solve_pnp(config.intrinsics, pts, pix)
                r_err, t_err = pose_mod.pose_error(est, truth_pose)
                frame_entry["pose"] = {
                    "rotation": [round(v, 15) for v in est.rotation.ravel().tolist()],
                    "translation_m": [round(v, 15) for v in est.translation.tolist()],
                }
                frame_entry["rotation_error_rad"] = r_err
                frame_entry["translation_error_m"] = t_err
                pose_sq_err_r.append(r_err * r_err)
                pose_sq_err_t.append(t_err * t_err)
            except pose_mod.DegenerateConfigurationError:
                frame_entry["degenerate"] = True
        if debug_truth:
            frame_entry["truth_pose"] = {
                "rotation": truth_pose.rotation.ravel().tolist(),
                "translation_m": truth_pose.translation.tolist(),
            }
        per_frame.append(frame_entry)

    per_flasher = []
    for k, spec in enumerate(config.flashers):
        stats = votes_stats[k]
        per_flasher.append(
            {
                "flasher": k,
                "identifier": identifiers[k],
                "scheme": spec.scheme,
                **flasher_lock[k],
                "locked_identifier": locked_ids[k],
                "id_accuracy": (stats["ok"] / stats["total"]) if stats["total"] else None,
                **flasher_events[k],
            }
        )

    summary = {
        "frames": n_frames,
        "pose_rmse_m": math.sqrt(sum(pose_sq_err_t) / len(pose_sq_err_t))
        if pose_sq_err_t
        else None,
        "pose_rmse_rad": math.sqrt(sum(pose_sq_err_r) / len(pose_sq_err_r))
        if pose_sq_err_r
        else None,
        "max_desync_s": max_desync,
        "identified_flashers": sum(
            1 for fl in flasher_lock if fl["lock_on_frame"] is not None
        ),
    }
    return ScenarioReport(per_flasher, per_frame, summary, heartbeats)


def _assign_remaining(positions, visibility_radius, book, candidate_ids):
    """Greedy spread over a restricted identifier pool (explicit ids removed)."""
    assigned: list[int] = []
    free = list(candidate_ids)
    pts = [np.asarray(p, dtype=float) for p in positions]
    for i, p in enumerate(pts):
        neighbours = [
            assigned[j]
            for j in range(len(assigned))
            if float(np.linalg.norm(pts[j] - p)) <= visibility_radius
        ]
        if neighbours:
            best = max(
                free,
                key=lambda ident: (
                    min(
                        codec.indel_distance(book.word(ident), book.word(o))
                        for o in neighbours
                    ),
                    -ident,
                ),
            )
        else:
            best = free[0]
        assigned.append(best)
        free.remove(best)
    return assigned
