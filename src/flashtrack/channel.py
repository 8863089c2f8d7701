"""Clock drift, sensor timing, and flash sampling simulation.

Every unit owns an affine local clock, local(t) = t * (1 + ppm * 1e-6)
+ offset. A heartbeat pulse realigns offsets (never rates), so between
pulses two clocks diverge linearly at their rate difference; the pulse
period that keeps any pair within delta_max is delta_max / (2 *
rho_max) with rho_max the worst single-clock rate in ppm.

Sampling: the tracker schedules one exposure per frame on its own
clock. A global-shutter (CCD) sensor samples every image row at the
same instant; a rolling-shutter (CMOS) sensor adds a per-row delay, so
the sample time of a flash depends on which row its image crosses.
Each scheduled local time is scaled through the tracker clock's rate
to a shared timeline and then through the flasher's clock to find
which code bit was lit. Rate mismatch or row crossing makes the
effective sampling period deviate from the bit period, which shows up
as occasional duplicated or skipped bit indices: exactly the single
insertion/deletion errors the robust code-book absorbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .codebook import BitWord
from .signal import FlashSample, SampleTrace

SENSOR_KINDS = ("cmos", "ccd")

POWER_ACTIVE = "active"
POWER_LOW = "low_power"


@dataclass(frozen=True)
class ClockModel:
    """Affine local clock: rate error in ppm plus a resettable offset."""

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


@dataclass
class EmitterState:
    """One flasher: its word, bit clock, and power state."""

    word: BitWord
    bit_period: float
    clock: ClockModel
    power: str = POWER_ACTIVE

    def bit_at_local(self, tau: float) -> tuple[int, int]:
        """(bit index, bit value) lit at flasher-local time tau."""
        index = math.floor(tau / self.bit_period)
        return index, self.word.bits[index % self.word.n]


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

    Solves local_time(true_time) = true_time for the offset.
    """
    return ClockModel(
        rate_ppm=clock.rate_ppm,
        offset=-true_time * clock.rate_ppm * 1e-6,
        last_heartbeat=true_time,
    )


def heartbeat_expired(clock: ClockModel, true_time: float, timeout: float) -> bool:
    """Emitters sleep when no pulse arrived within timeout."""
    if clock.last_heartbeat is None:
        return True
    return true_time - clock.last_heartbeat > timeout


def sample_stream(
    emitter: EmitterState,
    sensor: SensorTiming,
    tracker_clock: ClockModel,
    row_trajectory,
    duration: float,
) -> list[tuple[float, int, int]]:
    """Sample one flasher through the tracker sensor for a time span.

    row_trajectory maps frame number to the image row of the flash
    (only consulted for rolling shutter). The tracker schedule runs on
    the tracker clock; scheduled times are scaled through that clock's
    rate onto the shared timeline, then through the emitter clock to
    pick the lit bit. Returns (shared time, bit index, bit value) per
    frame. Consecutive equal indices are an insertion (the same bit
    sampled twice), gaps are deletions.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    out = []
    frame = 0
    period = 1.0 / sensor.fps
    while frame * period <= duration:
        schedule = frame * period + sensor.exposure_mid
        if sensor.kind == "cmos":
            schedule += float(row_trajectory(frame)) * sensor.row_readout
        shared = tracker_clock.local_time(schedule)
        tau = emitter.clock.local_time(shared)
        index, bit = emitter.bit_at_local(tau)
        out.append((shared, index, bit))
        frame += 1
    return out


def count_drift_events(indices) -> tuple[int, int]:
    """(insertions, deletions) implied by a sampled bit-index sequence."""
    insertions = deletions = 0
    for prev, cur in zip(indices, indices[1:]):
        step = cur - prev
        if step == 0:
            insertions += 1
        elif step > 1:
            deletions += step - 1
    return insertions, deletions


DEFAULT_HIGH = 100.0
DEFAULT_LOW = 20.0


def render_samples(
    bits,
    scheme: str,
    *,
    rng: np.random.Generator,
    intensity_sigma: float = 0.0,
    hue_sigma: float = 0.0,
    distance: float = 1.0,
    high: float = DEFAULT_HIGH,
    low: float = DEFAULT_LOW,
    track_id: int = 0,
    pixels=None,
) -> SampleTrace:
    """Turn (time, bit) pairs into photometric samples.

    Intensity scheme: bit levels scaled by inverse square distance with
    Gaussian level noise. Hue scheme: red or blue reference hue with
    Gaussian hue noise and a constant intensity at the high level.
    """
    if scheme not in ("hue", "intensity"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if distance <= 0:
        raise ValueError("distance must be positive")
    from .signal import HUE_HIGH_DEG, HUE_LOW_DEG

    scale = 1.0 / (distance * distance)
    trace = SampleTrace(track_id)
    for k, (t, bit) in enumerate(bits):
        pixel = tuple(pixels[k]) if pixels is not None else (0.0, 0.0)
        if scheme == "intensity":
            level = (high if bit else low) * scale
            if intensity_sigma:
                level += rng.normal(0.0, intensity_sigma)
            trace.append(FlashSample(t, level, 0.0, pixel))
        else:
            hue = HUE_HIGH_DEG if bit else HUE_LOW_DEG
            if hue_sigma:
                hue += rng.normal(0.0, hue_sigma)
            trace.append(FlashSample(t, high * scale, hue % 360.0, pixel))
    return trace
