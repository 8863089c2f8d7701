"""Photometric sample classification and flash point detection.

Two bit-classification schemes are supported. The hue scheme compares
each sample's hue against two fixed references on the color circle,
red at 0 degrees for a 1 bit and blue at 240 degrees for a 0 bit, and
needs no history. The intensity scheme is relative: received levels
depend on distance and optics, so the only anchor is the guarantee
that every legal code contains both a high and a low pulse. Within a
trailing window the largest consecutive jump is taken as a true
transition, the two samples flanking it seed the high/low labels, and
the labels are swept outward, toggling whenever a consecutive change
reaches 40% of that largest jump.

The detection half finds bright 4-connected blobs in a frame, reduces
each to an intensity-weighted centroid, and associates detections to
existing tracks frame over frame by nearest neighbour within a gate.
"""

from __future__ import annotations

import csv
import math
import operator
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

HUE_HIGH_DEG = 0.0
HUE_LOW_DEG = 240.0
TRANSITION_FRACTION = 0.40


class NoTransitionError(ValueError):
    """Raised when an intensity window is flat and carries no bit information."""


@dataclass
class FlashSample:
    """One per-frame observation of a single flash point."""

    t: float
    intensity: float
    hue: float
    pixel: tuple[float, float]
    source: int | None = None  # simulated flasher index; None for real data


@dataclass
class SampleTrace:
    """Time-ordered samples for one tracked flash point."""

    track_id: int
    samples: list[FlashSample] = field(default_factory=list)
    missed: int = 0

    def append(self, sample: FlashSample) -> None:
        if self.samples and sample.t <= self.samples[-1].t:
            raise ValueError("sample timestamps must be strictly increasing")
        self.samples.append(sample)

    @property
    def last_pixel(self) -> tuple[float, float]:
        return self.samples[-1].pixel


def _circular_distance(a: float, b: float) -> float:
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def classify_hue(hues) -> list[int]:
    """1 when a hue sits closer to the red reference than the blue one.

    The midpoint (120 degrees either way) ties toward 0. Raises ValueError
    on a hue that is not finite.
    """
    out = []
    for h in hues:
        if not math.isfinite(h):
            raise ValueError(f"hue must be finite, got {h!r}")
        out.append(
            1 if _circular_distance(h, HUE_HIGH_DEG) < _circular_distance(h, HUE_LOW_DEG) else 0
        )
    return out


def classify_intensity(window) -> list[int]:
    """High/low bit per sample of one trailing intensity window.

    The largest consecutive jump fixes its two samples' labels; every
    other label toggles across a consecutive change of at least 40% of
    that jump and holds across anything smaller. Raises
    NoTransitionError on a flat window (legal codes always transition),
    and ValueError on a sample that is not finite.
    """
    x = list(map(float, window))
    if len(x) < 2:
        raise ValueError("window must hold at least 2 samples")
    if not all(map(math.isfinite, x)):
        raise ValueError("window samples must be finite")
    jumps = list(map(abs, map(operator.sub, x[1:], x)))
    largest = max(jumps)
    if largest == 0.0:
        raise NoTransitionError("window has no intensity transition")

    k = jumps.index(largest)  # the first largest
    threshold = TRANSITION_FRACTION * largest
    toggles = [jump >= threshold for jump in jumps]
    toggles[k] = True  # the largest jump always counts
    parity = list(accumulate(toggles, int.__xor__, initial=0))  # toggles mod 2 up to each sample
    flip = parity[k] ^ (not x[k + 1] > x[k])
    return [p ^ flip for p in parity]


class IntensityBitizer:
    """Causal wrapper: re-classify the trailing window per new sample.

    Only the newest sample's bit is emitted downstream; earlier bits
    are never rewritten. Samples arriving before the first transition
    cannot be labelled yet, so they accumulate and flush in one batch
    the moment a transition enters the window.

    The classifier itself has no absolute scale, so under sensor noise
    a window that holds no real transition yet would still classify its
    noise wiggles as signal and poison the decoder with garbage startup
    bits. The first flush is therefore gated on classification quality:
    the gap between the two level clusters must dominate their internal
    scatter. Once a trusted transition has been seen, every legal code
    keeps one inside the window (no run spans a whole cycle), so
    steady-state emission needs no gate.
    """

    #: startup only: high/low cluster gap must exceed this multiple of
    #: both the within-cluster scatter and the plateau noise floor
    STARTUP_SEPARATION = 8.0
    #: startup only: minimum samples before the scatter estimate means much
    STARTUP_MIN_SAMPLES = 5

    def __init__(self, window_len: int):
        if window_len < 2:
            raise ValueError("window_len must be >= 2")
        self.window: deque[float] = deque(maxlen=window_len)
        self._pending = 0
        self._started = False

    def _startup_ready(self, bits: list[int]) -> bool:
        if len(self.window) < min(self.STARTUP_MIN_SAMPLES, self.window.maxlen):
            return False
        x = np.asarray(self.window, dtype=float)
        labels = np.asarray(bits, dtype=bool)
        high, low = x[labels], x[~labels]
        if not len(high) or not len(low):
            return False
        gap = float(high.mean() - low.mean())
        spreads = [float(c.std()) for c in (high, low) if len(c) >= 2]
        spread = max(spreads) if spreads else 0.0
        if spread and gap < self.STARTUP_SEPARATION * spread:
            return False
        # plateau check: adjacent same-label samples differ by noise only,
        # so a believable window keeps those steps far below the gap
        same = labels[1:] == labels[:-1]
        if np.any(same):
            floor = float(np.sqrt(np.mean(np.diff(x)[same] ** 2)))
            if floor and gap < self.STARTUP_SEPARATION * floor:
                return False
        return True

    def push(self, intensity: float) -> list[int]:
        self.window.append(float(intensity))
        self._pending += 1
        if len(self.window) < 2:
            return []
        try:
            bits = classify_intensity(self.window)
        except NoTransitionError:
            return []
        if not self._started and not self._startup_ready(bits):
            return []
        self._started = True
        emitted = bits[-self._pending :] if self._pending <= len(bits) else bits
        self._pending = 0
        return emitted


class HueBitizer:
    """Per-sample hue classification, same push interface as intensity."""

    def __init__(self, window_len: int | None = None):
        del window_len  # hue needs no history; kept for interface parity

    def push(self, hue: float) -> list[int]:
        return classify_hue([hue])


#: bitizer of each scheme; a scheme is named after the FlashSample field it reads
BITIZERS = {"hue": HueBitizer, "intensity": IntensityBitizer}


@dataclass
class Detection:
    """One detected flash blob in a frame."""

    pixel: tuple[float, float]
    intensity: float
    hue: float
    source: int | None = None  # simulated flasher index; None for real data


def detect_flashes(
    frame: np.ndarray,
    threshold: float,
    nms_radius: float,
    hue: np.ndarray | None = None,
) -> list[Detection]:
    """Bright blob extraction with centroiding and proximity suppression.

    Pixels at or above threshold are grouped by 4-connectivity; each
    group yields an intensity-weighted centroid, its peak intensity,
    and the mean hue over the group. Groups with centroids closer than
    nms_radius collapse onto the brightest of them; nms_radius must be
    at least 0 (NaN raises ValueError).
    """
    if not nms_radius >= 0:
        raise ValueError(f"nms_radius must be >= 0, got {nms_radius!r}")
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2 or frame.size == 0:
        raise ValueError(f"frame must be 2-D and nonempty, got shape {frame.shape}")
    if hue is not None and np.shape(hue) != frame.shape:
        raise ValueError(f"hue grid shape {np.shape(hue)} differs from frame shape {frame.shape}")
    mask = frame >= threshold
    # union-find over horizontal runs of lit pixels: each pair of runs that
    # touch vertically hooks its larger root onto the smaller until all agree,
    # so a blob's root is its first run, and blobs are numbered in order of
    # their first raster pixel
    start = mask.copy()
    start[:, 1:] &= ~mask[:, :-1]
    run = (start.astype(np.intp).cumsum() - 1).reshape(mask.shape)  # run of each lit pixel
    down = mask[:-1] & mask[1:]
    down[:, 1:] &= ~down[:, :-1]  # one pair per overlap of two runs: its first column
    a, b = run[:-1][down], run[1:][down]
    root = np.arange(np.count_nonzero(start))
    while (split := root[a] != root[b]).any():
        ra, rb = root[a[split]], root[b[split]]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(up := root[root], root):  # follow roots to the top
            root = up
    blob = (np.cumsum(root == np.arange(len(root))) - 1)[root][run[mask]]
    weight = frame[mask]
    rows, cols = np.divmod(np.flatnonzero(mask), frame.shape[1])
    # per-blob sums run in raster order
    mass, row_sum, col_sum = (np.bincount(blob, w) for w in (weight, weight * rows, weight * cols))
    if hue is None:
        hues = np.zeros(len(mass))
    else:
        hues = np.bincount(blob, np.asarray(hue, dtype=float)[mask]) / np.bincount(blob)
    peaks = np.full(len(mass), -np.inf)
    np.maximum.at(peaks, blob, weight)
    detections = [
        Detection((float(r), float(c)), float(p), float(h))
        for r, c, p, h in zip(row_sum / mass, col_sum / mass, peaks, hues)
    ]
    detections.sort(key=lambda d: -d.intensity)
    # kept blobs sit in square cells of side at least nms_radius, so a blob
    # closer than that lies in one of the 3x3 cells around a candidate; the
    # floor keeps cell numbers exact integers when the radius is tiny or 0
    side = max(nms_radius, max(frame.shape) * 2.0**-40)
    cells: dict[tuple[int, int], list[Detection]] = {}
    kept: list[Detection] = []
    for det in detections:
        r, c = det.pixel
        i, j = int(r // side), int(c // side)
        if all(
            np.hypot(r - k.pixel[0], c - k.pixel[1]) >= nms_radius
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            for k in cells.get((i + di, j + dj), ())
        ):
            kept.append(det)
            cells.setdefault((i, j), []).append(det)
    kept.sort(key=lambda d: d.pixel)
    return kept


def associate(
    tracks: list[SampleTrace],
    detections: list[Detection],
    gating_radius: float,
    t: float,
) -> list[SampleTrace]:
    """Greedy nearest-neighbour track update.

    Pairs are matched closest first, matches past the gate are
    rejected, unmatched detections open new tracks, and a track that
    misses more than one consecutive frame is closed. Frame-to-frame
    flash motion is small next to flash spacing, so greedy matching is
    enough; no optimal assignment is attempted.
    """
    open_tracks = [tr for tr in tracks if tr.samples]
    pairs: list[tuple[int, int]] = []
    if open_tracks and detections:
        last = np.array([tr.last_pixel for tr in open_tracks], dtype=float)
        pixels = np.array([det.pixel for det in detections], dtype=float)
        dist = np.hypot(pixels[:, 0] - last[:, :1], pixels[:, 1] - last[:, 1:])
        track_i, det_j = np.nonzero(dist <= gating_radius)
        # (dist, i, j) order: closest first, ties to the lower track, then detection
        order = np.lexsort((det_j, track_i, dist[track_i, det_j]))
        pairs = list(zip(track_i[order].tolist(), det_j[order].tolist()))

    matched_tracks: set[int] = set()
    matched_dets: set[int] = set()
    for i, j in pairs:
        if i in matched_tracks or j in matched_dets:
            continue
        matched_tracks.add(i)
        matched_dets.add(j)
        det = detections[j]
        open_tracks[i].append(FlashSample(t, det.intensity, det.hue, det.pixel, det.source))
        open_tracks[i].missed = 0

    survivors = []
    for i, tr in enumerate(open_tracks):
        if i not in matched_tracks:
            tr.missed += 1
            if tr.missed > 1:
                continue
        survivors.append(tr)

    next_id = max((tr.track_id for tr in tracks), default=-1) + 1
    for j, det in enumerate(detections):
        if j in matched_dets:
            continue
        tr = SampleTrace(next_id)
        tr.append(FlashSample(t, det.intensity, det.hue, det.pixel, det.source))
        survivors.append(tr)
        next_id += 1
    return survivors


TRACE_COLUMNS = ["track_id", "t", "intensity", "hue", "row", "col"]


def write_trace_csv(path, traces: list[SampleTrace]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for tr in traces:
            for s in tr.samples:
                writer.writerow(
                    [tr.track_id, repr(s.t), repr(s.intensity), repr(s.hue), repr(s.pixel[0]), repr(s.pixel[1])]
                )


def read_trace_csv(path) -> list[SampleTrace]:
    """The traces of a file write_trace_csv wrote, in track_id order.

    A row short of fields, or a t, intensity, hue, row or col that is not
    a finite number, is refused with a ValueError naming its line.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(TRACE_COLUMNS) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"trace file missing columns: {sorted(missing)}")
        for row in reader:
            line = f"trace file line {reader.line_num}"
            if any(row[key] is None for key in TRACE_COLUMNS):
                raise ValueError(f"{line}: fewer than {len(TRACE_COLUMNS)} fields")
            values = [float(row[key]) for key in TRACE_COLUMNS[1:]]
            bad = [key for key, v in zip(TRACE_COLUMNS[1:], values) if not math.isfinite(v)]
            if bad:
                raise ValueError(f"{line}: {', '.join(bad)} not finite")
            rows.append((int(row["track_id"]), *values))
    by_id: dict[int, SampleTrace] = {}
    for tid, t, intensity, hue, r, c in sorted(rows, key=lambda row: row[:2]):
        by_id.setdefault(tid, SampleTrace(tid)).append(FlashSample(t, intensity, hue, (r, c)))
    return [by_id[k] for k in sorted(by_id)]
