"""Declarative end-to-end simulation: emitters to decoded pose report.

A scenario file describes flashers (positions, codes, clocks), the
camera (intrinsics, sensor timing, clock), a camera trajectory,
heartbeat settings, noise levels, and the code-book to use; `FIELDS`
holds every key with its type, bounds and default. `from_dict` checks a
file against it, then across fields, naming every fault a stage finds in
one ConfigError, and only then builds the code-book. `run` trusts the config
it is handed and composes the library per frame: `channel` samples and
renders each flash bit through the drifting clocks, `signal` tracks the
detections and classifies them back into bits, `codec` assigns and
decodes the identifiers. After the last frame, one `pose.solve_pnp_frames`
call recovers the camera from the flasher map for every frame with four
or more identified flashers: frames of six or more as batched stacks,
frames of four or five in order, each started from the previous frame's
fix (none after a frame without one). The report records per-flasher
lock-on and error events, per-frame detections and pose errors against
ground truth, and summary statistics.

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
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import channel, codec, pose as pose_mod, signal
from .codebook import (
    MAX_BITS,
    MIN_BITS_INITIAL,
    MIN_BITS_ROBUST,
    Codebook,
    LookupTable,
    generate_codebook,
)
from .pose import CameraIntrinsics, Pose


class ConfigError(ValueError):
    """Invalid scenario configuration; message lists offending fields."""


#: most frames one run may play, floor(duration_s * fps) + 1, and most heartbeat
#: report entries, one per flasher and one for the tracker at each pulse
MAX_FRAMES = 1_000_000
#: longest frame period and exposure_mid_s in seconds, about 32 years
MAX_TIME_S = 1e9
#: most rows or columns of the image or the sensor
MAX_PIXELS = 1 << 31
REQUIRED = MISSING = object()  # a default that must be given; a key not given


class Field(NamedTuple):
    """One config value: kind, bounds and default (REQUIRED: none).

    kind is float (finite; an int reads as float), int, bool or str. A value
    in choices is taken as it is, and a str field takes nothing else. With
    length set the value is a list of that many, each checked alone.
    """

    kind: type
    default: object = REQUIRED
    low: float | None = None
    above: float | None = None  # a bound the value must exceed
    high: float | None = None
    choices: tuple = ()
    length: int | None = None

    def read(self, value):
        """value checked, with the default filled in; a ConfigError names its fault."""
        if value is MISSING and self.default is REQUIRED:
            raise ConfigError("missing")
        if value is MISSING or value in self.choices:
            return self.default if value is MISSING else value
        if self.length is not None:
            if not isinstance(value, list) or len(value) != self.length:
                raise ConfigError(f"expected {self.length} values")
            return tuple(self._replace(length=None).read(item) for item in value)
        kinds = {float: (int, float), int: int, bool: bool}.get(self.kind, ())
        if not isinstance(value, kinds) or isinstance(value, bool) != (self.kind is bool):
            expected = [self.kind.__name__] * (self.kind is not str) + list(map(repr, self.choices))
            raise ConfigError("expected " + " or ".join(expected))
        if self.kind is float and not abs(value) <= sys.float_info.max:
            raise ConfigError("must be finite")
        if self.low is not None and value < self.low:
            raise ConfigError(
                f"must be at least {self.low:g}" if self.low else "must not be negative")
        if self.above is not None and value <= self.above:
            raise ConfigError(f"must be above {self.above:g}" if self.above else "must be positive")
        if self.high is not None and value > self.high:
            raise ConfigError(f"must be at most {self.high:g}")
        return float(value) if self.kind is float else value


#: a clock may not stop or run backwards, nor run twice as fast as true time
PPM = Field(float, 0.0, above=-1e6, high=1e6)
#: the pose solve's SVD fails once squared coordinates overflow, near 1e154 m
COORDINATES = Field(float, length=3, low=-1e6, high=1e6)

#: every key of a scenario file, any other being a ConfigError: a dict is a section, a
#: one-item list a list of sections. Comments name the checks made across fields.
FIELDS = {
    "flashers": [{  # at most the code-book size
        "position_m": COORDINATES,
        "scheme": Field(str, choices=tuple(signal.BITIZERS)),  # one for all flashers
        "clock_ppm": PPM,
        # a nanosecond: every bit index floor(t / bit_period_s) of a run stays a
        # finite integer, and a gigahertz flash is far past any camera's sampling
        "bit_period_s": Field(float, low=1e-9),
        "id": Field(int, "auto", low=1, choices=("auto",)),  # distinct, at most the book size
    }],
    "camera": {
        "intrinsics": {
            "fx_px": Field(float, above=0),
            "fy_px": Field(float, above=0),
            "cx_px": Field(float),
            "cy_px": Field(float),
            "image_size": Field(int, None, low=1, high=MAX_PIXELS, length=2),  # rows, cols
        },
        "sensor": {
            "kind": Field(str, choices=channel.SENSOR_KINDS),
            "fps": Field(float, low=1 / MAX_TIME_S),
            "rows": Field(int, 1, low=1, high=MAX_PIXELS),  # a cmos sweep fits in a frame
            "row_readout_s": Field(float, 0.0, low=0),
            "exposure_mid_s": Field(float, 0.0, low=0, high=MAX_TIME_S),
        },
        "clock_ppm": PPM,
    },
    "trajectory": [{  # at least one knot, times strictly increasing
        "t_s": Field(float),
        "rotation": Field(float, length=9),  # row-major, orthonormal, determinant +1
        "translation_m": COORDINATES,
    }],
    "heartbeat": {
        "enabled": Field(bool, False),
        "period_s": Field(float, 0.0, above=0),  # given when enabled; MAX_FRAMES entries
        "timeout_s": Field(float, math.inf, low=0),  # omitted, emitters never sleep
    },
    "noise": {key: Field(float, 0.0, low=0)
              for key in ("intensity_sigma", "hue_sigma", "pixel_sigma")},
    "codebook": {
        "bits": Field(int, low=MIN_BITS_INITIAL, high=MAX_BITS),  # robust: from MIN_BITS_ROBUST
        "mode": Field(str, choices=("initial", "robust")),
    },
    "duration_s": Field(float, above=0),  # MAX_FRAMES frames
    "seed": Field(int, low=0),
    "visibility_radius_m": Field(float, math.inf, above=0),  # omitted, unbounded
    "gating_radius_px": Field(float, 20.0, above=0),
}


def _walk(spec, value, name: str, errors: list[str]):
    """value read through one FIELDS entry into its shape; a refused value reads None."""
    if isinstance(spec, Field):
        try:
            return spec.read(value)
        except ConfigError as exc:
            errors.append(f"{name}: {exc}")
            return None
    if value is not MISSING and not isinstance(value, type(spec)):
        errors.append(f"{name or 'scenario'}: expected {type(spec).__name__}")
        value, errors = MISSING, []  # read as empty, its keys not named missing
    if isinstance(spec, list):
        items = [] if value is MISSING else value
        return [_walk(spec[0], item, f"{name}[{i}]", errors) for i, item in enumerate(items)]
    value = {} if value is MISSING else value
    prefix = f"{name}." if name else ""
    errors.extend(f"{prefix}{key}: unknown key" for key in sorted(set(value) - set(spec), key=str))
    return {key: _walk(sub, value.get(key, MISSING), prefix + key, errors)
            for key, sub in spec.items()}


def _frame_count(duration_s: float, fps: float) -> float:
    """Frames a run plays, floor(duration_s * fps) + 1, or inf past MAX_FRAMES."""
    frames = duration_s / (1.0 / fps)
    return math.floor(frames) + 1 if frames < MAX_FRAMES else math.inf


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
    book: Codebook
    lut: LookupTable
    duration_s: float
    seed: int
    visibility_radius_m: float
    gating_radius_px: float

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """Check raw against FIELDS, then across fields, then build the code-book."""
        errors: list[str] = []
        v = _walk(FIELDS, raw, "", errors)
        flashers, camera, hb, cb = v["flashers"], v["camera"], v["heartbeat"], v["codebook"]
        if cb["mode"] == "robust" and cb["bits"] is not None and cb["bits"] < MIN_BITS_ROBUST:
            errors.append(f"codebook.bits: must be at least {MIN_BITS_ROBUST} in mode 'robust'")
        if errors:
            raise ConfigError("invalid scenario config:\n  " + "\n  ".join(errors))

        if len({f["scheme"] for f in flashers}) > 1:
            errors.append("flashers: all flashers must share one scheme")
        trajectory = []
        for i, knot in enumerate(v["trajectory"]):
            try:
                trajectory.append((knot["t_s"], Pose(knot["rotation"], knot["translation_m"])))
            except ValueError as exc:
                errors.append(f"trajectory[{i}].rotation: {exc}")
        if not v["trajectory"]:
            errors.append("trajectory: at least one pose required")
        elif any(b[0] <= a[0] for a, b in zip(trajectory, trajectory[1:])):
            errors.append("trajectory: knot times must be strictly increasing")
        sensor = None
        try:
            sensor = channel.SensorTiming(*camera["sensor"].values())
        except ValueError as exc:
            errors.append(f"camera.sensor: {exc}")
        frames = _frame_count(v["duration_s"], camera["sensor"]["fps"])
        if frames == math.inf:
            errors.append(f"duration_s: more than {MAX_FRAMES} frames at camera.sensor.fps")
        if hb["enabled"] and hb["period_s"] == 0.0:  # the default: none was given
            errors.append("heartbeat.period_s: missing, required when enabled")
        elif hb["enabled"] and sensor and frames < math.inf:
            # pulses fire at 0, period_s, ... up to the last frame's instant, which only a
            # fast tracker clock moves later; each adds an entry per flasher and tracker
            fastest = channel.ClockModel(max(camera["clock_ppm"], 0.0))
            last = channel.sample_time(sensor, fastest, frames - 1)
            if (min(last // hb["period_s"], MAX_FRAMES) + 1) * (len(flashers) + 1) > MAX_FRAMES:
                errors.append(f"heartbeat.period_s: more than {MAX_FRAMES} pulses over all units")

        if not errors:
            codebook, lut = generate_codebook(cb["bits"], cb["mode"])
            if len(flashers) > len(codebook):
                errors.append(f"flashers: {len(flashers)} exceed the book size {len(codebook)}")
            first: dict[int, int] = {}
            for i, ident in enumerate(f["id"] for f in flashers):
                if ident != "auto" and ident > len(codebook):
                    errors.append(f"flashers[{i}].id: past the book size {len(codebook)}")
                elif ident != "auto" and first.setdefault(ident, i) != i:
                    errors.append(f"flashers[{i}].id: taken by flashers[{first[ident]}]")
        if errors:
            raise ConfigError("invalid scenario config:\n  " + "\n  ".join(errors))

        # the table's order is the constructors' argument order
        specs = [FlasherSpec(np.asarray(position), *rest, None if ident == "auto" else ident)
                 for position, *rest, ident in (f.values() for f in flashers)]
        return cls(
            specs, CameraIntrinsics(*camera["intrinsics"].values()), sensor, camera["clock_ppm"],
            trajectory, *hb.values(), *v["noise"].values(), codebook, lut,
            v["duration_s"], v["seed"], v["visibility_radius_m"], v["gating_radius_px"],
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

    # identifier assignment: explicit ids win, the rest greedy by distance
    taken = {f.identifier for f in config.flashers if f.identifier is not None}
    auto = [f.position for f in config.flashers if f.identifier is None]
    free = set(range(1, len(config.book) + 1)) - taken
    picks = iter(codec.assign_ids(auto, config.visibility_radius_m, config.book, free).values())
    # assigned identifiers stay local: the caller's config is left as given
    identifiers = [next(picks) if f.identifier is None else f.identifier for f in config.flashers]

    emitters = [
        channel.EmitterState(
            config.book.word(ident), f.bit_period_s, channel.ClockModel(f.clock_ppm)
        )
        for f, ident in zip(config.flashers, identifiers)
    ]
    tracker_clock = channel.ClockModel(config.camera_clock_ppm)
    scheme = config.flashers[0].scheme if config.flashers else "hue"
    bitizer = signal.BITIZERS[scheme]
    position_by_id = {ident: f.position for f, ident in zip(config.flashers, identifiers)}

    n_frames = _frame_count(config.duration_s, config.sensor.fps)

    tracks: list[signal.SampleTrace] = []
    track_states: dict[int, _TrackState] = {}
    flasher_states = [_FlasherState() for _ in config.flashers]

    heartbeats: list[dict] = []
    next_pulse = 0.0 if config.heartbeat_enabled else math.inf

    per_frame: list[dict] = []
    max_desync = 0.0
    # each frame's correspondences, or None below four, solved after the loop
    correspondences: list[tuple[np.ndarray, np.ndarray] | None] = []
    truth_poses: list[Pose] = []

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
            try:
                row, col = pose_mod.project(config.intrinsics, truth_pose, spec.position)
            except ValueError:  # behind the camera
                continue
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
                st = _TrackState(bitizer(config.book.n), codec.StreamDecoder(config.lut))
                track_states[tr.track_id] = st
            sample = tr.samples[-1]
            fs = flasher_states[sample.source]
            st.truth_bits.append(fs.bit)
            emitted = st.bitizer.push(getattr(sample, scheme))
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
        }
        usable = [(position_by_id[i], frame_ids[i]) for i in frame_ids if i in position_by_id]
        correspondences.append(
            (np.array([u[0] for u in usable]), np.array([u[1] for u in usable]))
            if len(usable) >= 4 else None
        )
        truth_poses.append(truth_pose)
        if debug_truth:
            frame_entry["truth_pose"] = {
                "rotation": truth_pose.rotation.ravel().tolist(),
                "translation_m": truth_pose.translation.tolist(),
            }
        per_frame.append(frame_entry)

    fixes = pose_mod.solve_pnp_frames(config.intrinsics, correspondences)
    for frame_entry, problem, est, truth_pose in zip(
            per_frame, correspondences, fixes, truth_poses):
        r_err, t_err = (None, None) if est is None else pose_mod.pose_error(est, truth_pose)
        frame_entry.update(
            pose=None if est is None else {
                "rotation": [round(v, 15) for v in est.rotation.ravel().tolist()],
                "translation_m": [round(v, 15) for v in est.translation.tolist()],
            },
            degenerate=problem is not None and est is None,
            rotation_error_rad=r_err,
            translation_error_m=t_err,
        )

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
