"""Declarative end-to-end simulation: emitters to decoded pose report.

A scenario file describes flashers (positions, codes, clocks), the
camera (intrinsics, sensor timing, clock), a camera trajectory,
heartbeat settings, noise levels, and the code-book to use; `FIELDS`
holds every key with its type, bounds and default. `from_dict` checks a
file against it, then across fields, naming every fault a stage finds in
one ConfigError, and only then takes the code-book, shared read-only by
every config of its (bits, mode). `run` trusts the config it is handed. It
plays chunks of at most `pose.FRAME_CHUNK` frames in stages: sensing, as
array passes through `channel`; association, frame by frame, the causal
tracker; one stacked `bitize` pass over every track's new samples; and
decoding, each track's bits through its decoder in frame order. After the
last chunk, one `pose.solve_pnp_frames` call recovers the camera from the
flasher map for every frame with four or more identified flashers: frames of
six or more as batched stacks, frames of four or five in order, each started
from the previous frame's fix (none after a frame without one). One
`pose.pose_errors` call scores every fix against ground truth. The report
records per-flasher lock-on and error events, per-frame detections and pose
errors, and summary statistics.

`run` keeps two clocks, the tracker's and one stacked `ClockModel` of every
flasher's, each realigned once per heartbeat pulse. A chunk reads each
frame's shared-timeline instant off the tracker clock, one array call per
run of frames between pulses; a frame whose instant is due for a pulse
takes it, and samples through the realigned clocks. Each clock is then
stacked over the chunk's frames, holding each frame's offset, so one call
reads every flasher's local time at every frame's image-row instant. The
true poses come from one batched `interpolate_poses`, the projections from
one `pose.project_points` call over every flasher at every frame, behind the
camera and asleep too, and the sightings from `CameraIntrinsics.sees`.

Detections are synthesized directly at the projected flash pixels (plus
configured pixel noise) rather than rasterized into frames; each carries
its flasher's index, so ground truth follows the flasher even where two
share a pixel. `EmitterState.bit_at_local` runs once per flasher and chunk,
on the frames that see it, and `channel.render_flashes` renders a chunk's
sightings in one block, frame by frame and flasher by flasher: the order in
which scalar draws would be made, so the chunk size moves no report. One
seed drives all randomness, so a rerun of the same config is byte-identical.

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
from typing import Iterator, NamedTuple

import numpy as np

from . import channel, codec, pose as pose_mod, signal
from .codebook import (
    MAX_BITS,
    MIN_BITS_INITIAL,
    MIN_BITS_ROBUST,
    MODES,
    Codebook,
    LookupTable,
    shared_codebook,
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
        "rotation": Field(float, length=9),  # row-major, rigid, under a half turn from the last
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
        "mode": Field(str, choices=MODES),
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
        if len(trajectory) == len(v["trajectory"]):  # each knot named by its index
            # log_so3 loses the geodesic between two knots this near a half turn
            for i, ((_, a), (_, b)) in enumerate(zip(trajectory, trajectory[1:]), 1):
                turn = pose_mod.rotation_angle(b.rotation @ a.rotation.T)
                if not turn <= math.pi - pose_mod.HALF_TURN_MARGIN:
                    errors.append(f"trajectory[{i}].rotation: turns {turn:.9g} rad from "
                                  f"trajectory[{i - 1}], within {pose_mod.HALF_TURN_MARGIN:g} "
                                  "rad of a half turn")
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
            codebook, lut = shared_codebook(cb["bits"], cb["mode"])
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


def interpolate_poses(trajectory: list[tuple[float, Pose]], times
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (F, 3, 3) and translations (F, 3) of the trajectory at times (F,).

    Piecewise linear translation, geodesic rotation between knots; an
    instant at or before the first knot takes its pose, any other outside
    the knots the last one's. Each segment's log is taken once; the
    exponential and the projection back onto rotations run over stacks of
    at most FRAME_CHUNK instants, each instant's matrices bitwise what
    they are alone.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    knot_t = np.array([t for t, _ in trajectory])
    knot_rot = np.array([p.rotation for _, p in trajectory])
    knot_trans = np.array([p.translation for _, p in trajectory])
    logs = np.array([pose_mod.log_so3(r1 @ r0.T) for r0, r1 in zip(knot_rot, knot_rot[1:])])
    knot = np.where(times <= knot_t[0], 0, -1)
    rot, trans = knot_rot[knot], knot_trans[knot]
    inside = np.flatnonzero((knot_t[0] < times) & (times < knot_t[-1]))
    for lo in range(0, len(inside), pose_mod.FRAME_CHUNK):
        at = inside[lo : lo + pose_mod.FRAME_CHUNK]
        # the first segment whose closed span holds the instant
        seg = np.searchsorted(knot_t, times[at]) - 1
        t0, t1 = knot_t[seg], knot_t[seg + 1]
        s = ((times[at] - t0) / (t1 - t0))[:, None]
        turn = pose_mod.exp_so3(logs[seg] * s) @ knot_rot[seg]
        rot[at] = pose_mod.nearest_rotation(turn)
        trans[at] = (1 - s) * knot_trans[seg] + s * knot_trans[seg + 1]
    return rot, trans


def interpolate_pose(trajectory: list[tuple[float, Pose]], t: float) -> Pose:
    """The trajectory's pose at one instant: interpolate_poses at [t]."""
    rot, trans = interpolate_poses(trajectory, [t])
    return Pose(rot[0], trans[0])


@dataclass
class _FlasherState:
    """Ground truth and outcome of one flasher over a run."""

    last_index: np.ndarray = field(default_factory=lambda: np.empty(0))  # of the last sighting
    insertions: int = 0
    deletions: int = 0
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


class _Chunk(NamedTuple):
    """What the camera senses over a run of frames, before any tracking."""

    times: list[float]  # each frame's shared-timeline instant
    rot: np.ndarray  # (F, 3, 3) and (F, 3): the true camera pose at each instant
    trans: np.ndarray
    indices: list[np.ndarray]  # per flasher, the bit index at each sighting
    bits: list[list[int]]  # (F, K) bit each flasher shows; read where seen
    detections: list[list[signal.Detection]]  # per frame, sorted by pixel
    desync: float  # widest clock spread at any frame instant


def _frame_clocks(config: ScenarioConfig, heartbeats: list[dict]) -> Iterator[tuple]:
    """(frames, instants, tracker clock, flasher clock) of each chunk of frames.

    A frame's instant is read off the tracker clock as it stands, one
    array call per run of frames between pulses. The pulses due by then
    realign every clock's offset on the shared timeline, and the frame
    samples through the realigned clocks. Each clock comes stacked over the
    chunk's frames: the tracker's holding a (F, 1) column of offsets and
    last pulses, the flashers' a (F, K) block of offsets. Pulses fired are
    appended to heartbeats.
    """
    n_frames = _frame_count(config.duration_s, config.sensor.fps)
    n_flashers = len(config.flashers)
    tracker = channel.ClockModel(config.camera_clock_ppm)
    flashers = channel.ClockModel(np.array([f.clock_ppm for f in config.flashers]))
    next_pulse = 0.0 if config.heartbeat_enabled else math.inf
    for lo in range(0, n_frames, pose_mod.FRAME_CHUNK):
        frames = np.arange(lo, min(lo + pose_mod.FRAME_CHUNK, n_frames))
        base, offset, last_pulse = np.full((3, len(frames)), math.nan)
        flasher_offset = np.empty((len(frames), n_flashers))

        def hold(span):  # the clocks as they stand, for the frames of span
            offset[span], flasher_offset[span] = tracker.offset, flashers.offset
            if tracker.last_heartbeat is not None:
                last_pulse[span] = tracker.last_heartbeat

        start = 0
        while start < len(frames):
            base[start:] = channel.sample_time(config.sensor, tracker, frames[start:])
            due = np.flatnonzero(base[start:] >= next_pulse)
            stop = start + int(due[0]) if due.size else len(frames)
            hold(slice(start, stop))
            if stop < len(frames):
                while base[stop] >= next_pulse:
                    tracker = channel.apply_heartbeat(tracker, next_pulse)
                    flashers = channel.apply_heartbeat(flashers, next_pulse)
                    heartbeats.extend({"t_s": next_pulse, "unit": f"flasher{k}"}
                                      for k in range(n_flashers))
                    heartbeats.append({"t_s": next_pulse, "unit": "tracker"})
                    next_pulse += config.heartbeat_period_s
                hold(slice(stop, stop + 1))
            start = stop + 1
        yield (frames, base,
               channel.ClockModel(tracker.rate_ppm, offset[:, None], last_pulse[:, None]),
               channel.ClockModel(flashers.rate_ppm, flasher_offset))


def _sense(config: ScenarioConfig, emitters: list[channel.EmitterState], scheme: str,
           rng: np.random.Generator, heartbeats: list[dict]) -> Iterator[_Chunk]:
    """The run's frames as sensed, in chunks of at most FRAME_CHUNK frames.

    Each chunk is array passes over its frames: the clocks as they stand at
    each frame, the true poses, the projections, the rolling-shutter
    instants, the bits lit then and their rendering in scheme. Pulses fired
    are appended to heartbeats.
    """
    positions = np.array([f.position for f in config.flashers], dtype=float).reshape(-1, 3)
    for frames, base, tracker_at, flashers_at in _frame_clocks(config, heartbeats):
        column = base[:, None]
        spread = np.concatenate(
            [tracker_at.local_time(column), flashers_at.local_time(column)], axis=1)

        # every unit takes every pulse, so an emitter that missed its pulses
        # sleeps when the tracker's last pulse is too old
        awake = np.ones((len(frames), 1), dtype=bool)
        if config.heartbeat_enabled:
            awake = ~channel.heartbeat_expired(tracker_at, column, config.heartbeat_timeout_s)
        rot, trans = interpolate_poses(config.trajectory, base)
        pixels, depth = pose_mod.project_points(config.intrinsics, rot, trans, positions)
        seen = awake & config.intrinsics.sees(pixels, depth)
        # a behind-camera row is meaningless, and may be inf or nan
        with np.errstate(over="ignore", invalid="ignore"):
            taus = flashers_at.local_time(
                channel.sample_time(config.sensor, tracker_at, frames[:, None], pixels[..., 0]))
        index = np.zeros(seen.shape)
        bits = np.zeros(seen.shape, dtype=int)
        for k, emitter in enumerate(emitters):
            at = seen[:, k]
            index[at, k], bits[at, k] = emitter.bit_at_local(taus[at, k])

        # one detection per sighting at its flash pixel, each frame's sorted
        # by pixel; the noise is drawn frame by frame, flasher by flasher
        frame_of, source = np.nonzero(seen)
        levels, hues, pixel = channel.render_flashes(
            bits[frame_of, source], scheme, rng, config.intensity_sigma, config.hue_sigma,
            config.pixel_sigma, pixels[frame_of, source])
        order = np.lexsort((pixel[:, 1], pixel[:, 0], frame_of))
        detections = list(map(signal.Detection, map(tuple, pixel[order].tolist()),
                              levels[order].tolist(), hues[order].tolist(), source[order].tolist()))
        ends = np.cumsum(np.bincount(frame_of, minlength=len(frames))).tolist()
        yield _Chunk(
            base.tolist(), rot, trans, [index[seen[:, k], k] for k in range(len(emitters))],
            bits.tolist(), [detections[a:b] for a, b in zip([0] + ends, ends)],
            float((spread.max(axis=1) - spread.min(axis=1)).max()),
        )


def run(config: ScenarioConfig, debug_truth: bool = False) -> ScenarioReport:
    """Play a scenario chunk by chunk, stage by stage; deterministic for a given seed."""
    rng = np.random.default_rng(config.seed)

    # explicit ids are kept, the rest greedy by distance; assigned
    # identifiers stay local: the caller's config is left as given
    identifiers = list(codec.assign_ids(
        [f.position for f in config.flashers], config.visibility_radius_m, config.book,
        [f.identifier for f in config.flashers]).values())
    emitters = [channel.EmitterState(config.book.word(ident), f.bit_period_s)
                for f, ident in zip(config.flashers, identifiers)]
    scheme = config.flashers[0].scheme if config.flashers else "hue"
    bitizer = signal.BITIZERS[scheme]
    position_by_id = {ident: f.position for f, ident in zip(config.flashers, identifiers)}

    tracks: list[signal.SampleTrace] = []
    # by open track, keyed by track_id and first instant (associate reuses an
    # id only for a later track): its bitizer, decoder and last n true bits
    tracked: dict[tuple, tuple] = {}
    voted: set[tuple] = set()  # keys of the tracks that have voted
    flasher_states = [_FlasherState() for _ in config.flashers]
    heartbeats: list[dict] = []
    per_frame: list[dict] = []
    truths: list[tuple[np.ndarray, np.ndarray]] = []  # each chunk's true poses
    max_desync = 0.0
    # each frame's correspondences, or None below four, solved after the loop
    correspondences: list[tuple[np.ndarray, np.ndarray] | None] = []

    for chunk in _sense(config, emitters, scheme, rng, heartbeats):
        max_desync = max(max_desync, chunk.desync)
        truths.append((chunk.rot, chunk.trans))
        for fs, index in zip(flasher_states, chunk.indices):
            sightings = np.concatenate([fs.last_index, index])
            insertions, deletions = channel.count_drift_events(sightings)
            fs.insertions += insertions
            fs.deletions += deletions
            fs.last_index = sightings[-1:]

        # associate, frame by frame (the causal tracker): each frame's sampled tracks in order
        sampled: list[list[tuple]] = []
        values: dict[tuple, list[float]] = {}  # by track: its samples' values this chunk
        for t, detections in zip(chunk.times, chunk.detections):
            tracks = signal.associate(tracks, detections, config.gating_radius_px, t)
            sampled.append([((tr.track_id, tr.samples[0].t), tr.samples[-1])
                            for tr in tracks if tr.samples[-1].t == t])
            for key, sample in sampled[-1]:
                values.setdefault(key, []).append(getattr(sample, scheme))
        for key in values.keys() - tracked.keys():
            tracked[key] = (bitizer(config.book.n), codec.StreamDecoder(config.lut),
                            deque(maxlen=config.book.n))

        # bitize every track's new samples in one stacked pass
        emitted = bitizer.bitize([tracked[key][0] for key in values], list(values.values()))
        emissions = {key: iter(bits) for key, bits in zip(values, emitted)}

        # decode in frame order, tracks in list order, and build each frame's entry
        for t, shown, row, detections in zip(chunk.times, chunk.bits, sampled, chunk.detections):
            frame = len(per_frame)
            frame_ids: dict[int, tuple[float, float]] = {}
            for key, sample in row:
                _, decoder, truth = tracked[key]
                truth.append(shown[sample.source])
                bits = next(emissions[key])
                fs = flasher_states[sample.source]
                # a backlog flush labels the last len(bits) samples, so flips
                # are judged against the matching tail of channel bits
                fs.flips += sum(bit != true for bit, true in zip(reversed(bits), reversed(truth)))
                for bit in bits:
                    state = decoder.push(bit)
                    if state.vote:
                        fs.votes += 1
                        fs.votes_ok += state.vote == identifiers[sample.source]
                        if key not in voted and fs.lock_on_frame is None:
                            fs.lock_on_frame, fs.lock_on_time_s = frame, t
                            fs.identifier_decoded = state.vote
                        voted.add(key)
                    if state.locked:
                        fs.locked_identifier = state.identifier
                ident = decoder.identifier or decoder.state.vote
                if ident:  # of two tracks voting one identifier, the later one's pixel
                    frame_ids[ident] = sample.pixel

            per_frame.append({"frame": frame, "t_s": t, "detections": len(detections),
                              "identified": sorted(frame_ids)})
            # pose from identified flashers with known map positions
            usable = [(position_by_id[i], frame_ids[i]) for i in frame_ids if i in position_by_id]
            correspondences.append(
                (np.array([u[0] for u in usable]), np.array([u[1] for u in usable]))
                if len(usable) >= 4 else None
            )

        tracked = {key: tracked[key] for key in [(tr.track_id, tr.samples[0].t) for tr in tracks]}

    # every fix scored against its true pose in one stacked pass, NaN where unsolved
    fixes = pose_mod.solve_pnp_frames(config.intrinsics, correspondences)
    rot, trans = (np.concatenate(a) for a in zip(*truths))
    rad, metres = pose_mod.pose_errors(fixes.rotation, fixes.translation, rot, trans)
    rows = zip(per_frame, correspondences, fixes.solved.tolist(),
               fixes.rotation.reshape(-1, 9).tolist(), fixes.translation.tolist(),
               rad.tolist(), metres.tolist())
    for f, (frame_entry, problem, solved, est_rot, est_trans, r_err, t_err) in enumerate(rows):
        frame_entry.update(
            pose={
                "rotation": [round(v, 15) for v in est_rot],
                "translation_m": [round(v, 15) for v in est_trans],
            } if solved else None,
            degenerate=problem is not None and not solved,
            rotation_error_rad=r_err if solved else None,
            translation_error_m=t_err if solved else None,
        )
        if debug_truth:
            frame_entry["truth_pose"] = {
                "rotation": rot[f].ravel().tolist(),
                "translation_m": trans[f].tolist(),
            }

    per_flasher = []
    for k, (spec, fs) in enumerate(zip(config.flashers, flasher_states)):
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
                "insertions": fs.insertions,
                "deletions": fs.deletions,
                "flips": fs.flips,
            }
        )

    summary = {
        "frames": len(per_frame),
        "pose_rmse_m": _rms(metres[fixes.solved].tolist()),
        "pose_rmse_rad": _rms(rad[fixes.solved].tolist()),
        "max_desync_s": max_desync,
        "identified_flashers": sum(fs.lock_on_frame is not None for fs in flasher_states),
    }
    return ScenarioReport(per_flasher, per_frame, summary, heartbeats)
