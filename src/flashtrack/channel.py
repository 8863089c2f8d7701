"""Clock drift, sensor timing, and flash sampling simulation.

Every unit owns an affine local clock, local(t) = t * (1 + ppm * 1e-6)
+ offset. A heartbeat pulse realigns offsets (never rates), so between
pulses two clocks diverge linearly at their rate difference; the pulse
period that keeps any pair within delta_max is delta_max / (2 *
rho_max) with rho_max the worst single-clock rate in ppm.

Sampling: the tracker schedules one exposure per frame on its own clock.
A global-shutter (CCD) sensor samples every image row at the same
instant; a rolling-shutter (CMOS) sensor adds a per-row delay, so the
sample time of a flash depends on which row its image crosses. Each
scheduled local time is scaled through the tracker clock's rate to a
shared timeline and then through the flasher's own `ClockModel` to find
which code bit was lit. Rate mismatch or row crossing makes the
effective sampling period deviate from the bit period, which shows up as
occasional duplicated or skipped bit indices: exactly the single
insertion/deletion errors the robust code-book absorbs.

The sampling and rendering steps take arrays as well as scalars, each
element bitwise its scalar call: `ClockModel.local_time` reads many clocks
or one clock stacked over frames, `sample_time` a column of frames through
such a stack, `EmitterState.bit_at_local` many instants, and
`render_flashes` a block of flashes with one noise draw. A simulation
senses whole runs of frames this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import BitWord
from .signal import HUE_HIGH_DEG, HUE_LOW_DEG, FlashSample, SampleTrace

SENSOR_KINDS = ("cmos", "ccd")


@dataclass(frozen=True)
class ClockModel:
    """Affine local clock: rate error in ppm plus a resettable offset.

    rate_ppm, offset and last_heartbeat may be arrays: of many clocks
    alike, or of one clock as it stood at each of many frames. local_time
    then reads every one of them at once, broadcasting t against them,
    each element bitwise the scalar reading.
    """

    rate_ppm: float = 0.0
    offset: float = 0.0
    last_heartbeat: float | None = None

    def local_time(self, t: float) -> float:
        return t * (1.0 + self.rate_ppm * 1e-6) + self.offset


@dataclass(frozen=True)
class SensorTiming:
    """Frame and row timing of the tracker sensor."""

    kind: str
    fps: float
    rows: int = 1
    row_readout: float = 0.0
    exposure_mid: float = 0.0

    def __post_init__(self):
        if self.kind not in SENSOR_KINDS:
            raise ValueError(f"sensor kind must be one of {SENSOR_KINDS}")
        if not 0 < self.fps < math.inf:
            raise ValueError("fps must be positive and finite")
        if self.kind == "cmos" and self.rows * self.row_readout > 1.0 / self.fps + 1e-12:
            raise ValueError("row readout sweep cannot exceed the frame period")


@dataclass(frozen=True)
class EmitterState:
    """One flasher: its word and bit period."""

    word: BitWord
    bit_period: float

    def bit_at_local(self, tau: float) -> tuple[int, int]:
        """(bit index, bit value) lit at flasher-local time tau.

        For an array of finite taus, arrays alike: the indices as floats,
        whole numbers exact at any magnitude, and the bits as ints.
        """
        index = np.floor(np.divide(tau, self.bit_period))
        n = self.word.n
        bit = (self.word.value >> (n - 1 - (index % n).astype(int))) & 1
        return (int(index), int(bit)) if index.ndim == 0 else (index, bit)


def sync_interval(delta_max: float, rho_max_ppm: float) -> float:
    """Longest heartbeat period keeping any clock pair within delta_max.

    Worst case is two clocks at opposite rate extremes, drifting apart
    at 2 * rho_max ppm between pulses.
    """
    if delta_max < 0:
        raise ValueError("delta_max must be >= 0")
    if rho_max_ppm <= 0:
        raise ValueError("rho_max_ppm must be positive")
    return delta_max * 1e6 / (2.0 * rho_max_ppm)


def apply_heartbeat(clock: ClockModel, true_time: float) -> ClockModel:
    """Zero the clock's error at the pulse instant; the rate stays wrong.

    Solves local_time(true_time) = true_time for each clock's offset.
    """
    return ClockModel(
        rate_ppm=clock.rate_ppm,
        offset=-true_time * clock.rate_ppm * 1e-6,
        last_heartbeat=true_time,
    )


def heartbeat_expired(clock: ClockModel, true_time: float, timeout: float) -> bool:
    """Emitters sleep when no pulse arrived within timeout.

    For a clock stacked over frames, whether each frame's emitters sleep.
    """
    if clock.last_heartbeat is None:
        return True
    return true_time - clock.last_heartbeat > timeout


def frame_count(duration: float, fps: float) -> float:
    """Frames a sensor at fps takes over duration, the first at 0:
    floor(duration * fps) + 1, or inf where that product overflows."""
    frames = duration * fps
    return math.floor(frames) + 1 if frames < math.inf else math.inf


def sample_time(
    sensor: SensorTiming, tracker_clock: ClockModel, frame: int, row: float = 0.0
) -> float:
    """Shared-timeline instant at which one frame exposes one image row.

    The exposure is scheduled on the tracker clock; a rolling shutter
    delays each row by its readout time, a global shutter ignores row.
    frame, row and the tracker clock broadcast: a (F, 1) column of frames
    read through a clock stacked over those frames, with rows (F, K),
    gives every frame's instant of every row.
    """
    schedule = frame * (1.0 / sensor.fps) + sensor.exposure_mid
    if sensor.kind == "cmos":
        schedule = schedule + row * sensor.row_readout
    return tracker_clock.local_time(schedule)


def sample_stream(
    emitter: EmitterState,
    clock: ClockModel,
    sensor: SensorTiming,
    tracker_clock: ClockModel,
    row_trajectory,
    duration: float,
) -> list[tuple[float, int, int]]:
    """Sample one flasher, running on clock, through the tracker sensor.

    row_trajectory maps frame number to the image row of the flash
    (only consulted for rolling shutter). Each frame's sample_time is
    read through the flasher clock to pick the lit bit. Returns (shared
    time, bit index, bit value) for each of frame_count(duration, fps)
    frames. Consecutive equal indices are an insertion (the same bit
    sampled twice), gaps are deletions.
    """
    if not 0 < duration * sensor.fps < math.inf:
        raise ValueError("duration must be positive, with a finite frame count")
    out = []
    for frame in range(frame_count(duration, sensor.fps)):
        row = float(row_trajectory(frame)) if sensor.kind == "cmos" else 0.0
        shared = sample_time(sensor, tracker_clock, frame, row)
        out.append((shared, *emitter.bit_at_local(clock.local_time(shared))))
    return out


def count_drift_events(indices) -> tuple[int, int]:
    """(insertions, deletions) implied by a sampled bit-index sequence.

    Each repeated index is an insertion, each index skipped a deletion.
    """
    steps = np.diff(np.asarray(indices))
    return int((steps == 0).sum()), int((steps[steps > 1] - 1).sum())


DEFAULT_HIGH = 100.0
DEFAULT_LOW = 20.0


def render_flashes(
    bits,
    scheme: str,
    rng: np.random.Generator,
    intensity_sigma: float = 0.0,
    hue_sigma: float = 0.0,
    pixel_sigma: float = 0.0,
    pixels=None,
    scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(intensities, hues, pixels) of a block of flashes showing bits (V,).

    Intensity scheme: each bit's level times scale plus Gaussian level
    noise, at hue 0. Hue scheme: red or blue reference hue plus Gaussian
    hue noise, at the high level times scale. pixels (V, 2), (0, 0) when
    None, move by Gaussian pixel noise in row and col. The noise is one
    rng.normal draw of shape (V, d) over the d nonzero sigmas, flash by
    flash in the order level or hue, row, col; numpy draws it bitwise as
    the same sequence of scalar rng.normal(0.0, sigma) calls. A zero sigma
    draws nothing.
    """
    if scheme not in ("intensity", "hue"):
        raise ValueError(f"unknown scheme {scheme!r}")
    bits = np.asarray(bits)
    pixels = np.zeros((len(bits), 2)) if pixels is None else np.asarray(pixels, dtype=float)
    sigma = intensity_sigma if scheme == "intensity" else hue_sigma
    sigmas = [s for s in (sigma, pixel_sigma, pixel_sigma) if s]
    noise = iter(rng.normal(0.0, sigmas, (len(bits), len(sigmas))).T if sigmas else ())
    if scheme == "intensity":
        levels = np.where(bits, DEFAULT_HIGH, DEFAULT_LOW) * scale
        hues = np.zeros(len(bits))
        if sigma:
            levels = levels + next(noise)
    else:
        levels = np.full(len(bits), DEFAULT_HIGH * scale)
        hues = np.where(bits, HUE_HIGH_DEG, HUE_LOW_DEG)
        if sigma:
            hues = (hues + next(noise)) % 360.0
    if pixel_sigma:
        pixels = pixels + np.stack([next(noise), next(noise)], axis=-1)
    return levels, hues, pixels


def render_samples(
    bits,
    scheme: str,
    *,
    rng: np.random.Generator,
    intensity_sigma: float = 0.0,
    hue_sigma: float = 0.0,
    distance: float = 1.0,
) -> SampleTrace:
    """Turn (time, bit) pairs into photometric samples.

    The samples are render_flashes of the bits, with levels scaled by
    inverse square distance, at pixel (0, 0) of trace 0.
    """
    if distance <= 0:
        raise ValueError("distance must be positive")
    scale = 1.0 / (distance * distance)
    pairs = list(bits)
    times = [t for t, _ in pairs]
    levels, hues, _ = render_flashes(
        [bit for _, bit in pairs], scheme, rng, intensity_sigma, hue_sigma, scale=scale)
    trace = SampleTrace(0)
    for t, level, hue in zip(times, levels.tolist(), hues.tolist()):
        trace.append(FlashSample(t, level, hue, (0.0, 0.0)))
    return trace
