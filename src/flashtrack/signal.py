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

Both bitizers take samples through one call, `bitize`, which runs many
tracks' new samples as one array pass: each sample's trailing window is a
row of one stacked array, labelled, gated and flushed at once, and each
bitizer keeps only what its next sample needs. The startup gate's sums run
left to right, so any split of a track's samples into calls gives the same
bits. The gate still passes some noise-only windows (F2 in
bench/README.md); that fault is kept here, not mended.

The detection half finds bright 4-connected blobs in a frame and reduces
each to an intensity-weighted centroid. The tracker, `associate`, is one
frame on arrays and keeps no samples: the caller holds, per track row,
whatever else it tracks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

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


@dataclass
class SampleTrace:
    """Time-ordered samples for one tracked flash point."""

    track_id: int
    samples: list[FlashSample] = field(default_factory=list)

    def append(self, sample: FlashSample) -> None:
        if self.samples and sample.t <= self.samples[-1].t:
            raise ValueError("sample timestamps must be strictly increasing")
        self.samples.append(sample)


def classify_hue(hues) -> list[int]:
    """1 when a hue sits closer to the red reference than the blue one.

    The midpoint (120 degrees either way) ties toward 0. Raises ValueError
    on a hue that is not finite.
    """
    return _hue_bits(np.fromiter(hues, dtype=float)).tolist()


def _hue_bits(h: np.ndarray) -> np.ndarray:
    """classify_hue of an array of hues, as uint8."""
    bad = h[~np.isfinite(h)]
    if len(bad):
        raise ValueError(f"hue must be finite, got {float(bad[0])!r}")
    high, low = (np.abs(h - ref) % 360.0 for ref in (HUE_HIGH_DEG, HUE_LOW_DEG))
    return (np.minimum(high, 360.0 - high) < np.minimum(low, 360.0 - low)).view(np.uint8)


def _label_windows(x: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """classify_intensity of stacked windows: (bits, ok).

    Row r's window is x[r, first[r]:]; the columns before it are ignored.
    bits (R, W) holds each window's labels from its first column on, and
    ok is False where a window is flat or shorter than 2 samples, whose
    bits mean nothing.
    """
    rows = np.arange(len(x))
    jumps = np.abs(np.diff(x, axis=1))
    # a jump out of an ignored column is never the largest nor a toggle
    jumps[np.arange(x.shape[1] - 1) < first[:, None]] = -1.0
    k = jumps.argmax(axis=1)  # the first largest
    largest = jumps[rows, k]
    toggles = jumps >= TRANSITION_FRACTION * largest[:, None]
    toggles[rows, k] = True  # the largest jump always counts
    parity = np.zeros(x.shape, dtype=bool)  # toggles mod 2 up to each sample
    np.logical_xor.accumulate(toggles, axis=1, out=parity[:, 1:])
    flip = parity[rows, k] ^ ~(x[rows, k + 1] > x[rows, k])
    return parity ^ flip[:, None], largest > 0.0


def classify_intensity(window) -> list[int]:
    """High/low bit per sample of one trailing intensity window.

    The largest consecutive jump fixes its two samples' labels; every
    other label toggles across a consecutive change of at least 40% of
    that jump and holds across anything smaller. Raises
    NoTransitionError on a flat window (legal codes always transition),
    and ValueError on a sample that is not finite.
    """
    x = np.fromiter(window, dtype=float).reshape(1, -1)
    if x.shape[1] < 2:
        raise ValueError("window must hold at least 2 samples")
    if not np.isfinite(x).all():
        raise ValueError("window samples must be finite")
    bits, ok = _label_windows(x, np.zeros(1, dtype=np.intp))
    if not ok[0]:
        raise NoTransitionError("window has no intensity transition")
    return bits[0].view(np.uint8).tolist()


def _running_sum(values: np.ndarray, where: np.ndarray) -> np.ndarray:
    """Per row, the sum of the values at where, added left to right."""
    total = np.zeros(len(values))
    for column in np.where(where, values, 0.0).T:  # a column per step: cheaper than cumsum
        total += column
    return total


class IntensityBitizer:
    """Causal bitizer of one track: re-classify the trailing window per new sample.

    Only the newest sample's bit is emitted downstream; earlier bits
    are never rewritten. Samples arriving before the first transition
    cannot be labelled yet, so they accumulate and flush in one batch
    the moment a transition enters the window; a flush labels at most a
    window's worth of samples, the newest.

    The classifier itself has no absolute scale, so under sensor noise
    a window that holds no real transition yet would still classify its
    noise wiggles as signal and poison the decoder with garbage startup
    bits. The first flush is therefore gated on classification quality:
    the gap between the two level clusters must dominate their internal
    scatter. Once a trusted transition has been seen, every legal code
    keeps one inside the window (no run spans a whole cycle), so
    steady-state emission needs no gate.

    A bitizer holds only what the next sample needs: the last
    window_len - 1 samples (tail), the samples not yet emitted (pending)
    and whether the gate has passed (started). `bitize` runs many
    bitizers over many samples as one array pass; `push` is one sample
    through it.
    """

    #: startup only: high/low cluster gap must exceed this multiple of
    #: both the within-cluster scatter and the plateau noise floor
    STARTUP_SEPARATION = 8.0
    #: startup only: minimum samples before the scatter estimate means much
    STARTUP_MIN_SAMPLES = 5

    def __init__(self, window_len: int):
        if window_len < 2:
            raise ValueError("window_len must be >= 2")
        self.window_len = window_len
        self.tail = np.empty(0)
        self.pending = 0
        self.started = False

    def push(self, intensity: float) -> list[int]:
        """Bits emitted on one new sample, oldest first."""
        return self.bitize([self], [[intensity]])[0][0]

    @classmethod
    def _startup_ready(cls, x: np.ndarray, first: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """The startup gate of stacked windows, laid out as in _label_windows."""
        valid = np.arange(x.shape[1]) >= first[:, None]
        means, spreads, sizes = [], [], []
        for cluster in (valid & bits, valid & ~bits):  # high, low
            size = cluster.sum(axis=1)
            mean = _running_sum(x, cluster) / np.maximum(size, 1)
            dev = np.subtract(x, mean[:, None], where=cluster, out=np.zeros_like(x))
            spread = np.sqrt(_running_sum(dev * dev, cluster) / np.maximum(size, 1))
            means.append(mean)
            spreads.append(np.where(size >= 2, spread, 0.0))  # no scatter from one sample
            sizes.append(size)
        gap = means[0] - means[1]
        spread = np.maximum(*spreads)
        # plateau check: adjacent same-label samples differ by noise only,
        # so a believable window keeps those steps far below the gap
        same = (bits[:, 1:] == bits[:, :-1]) & valid[:, :-1]
        step = np.diff(x, axis=1)
        floor = np.sqrt(_running_sum(step * step, same) / np.maximum(same.sum(axis=1), 1))
        return (
            (x.shape[1] - first >= min(cls.STARTUP_MIN_SAMPLES, x.shape[1]))
            & (sizes[0] > 0) & (sizes[1] > 0)
            & ((spread == 0.0) | ~(gap < cls.STARTUP_SEPARATION * spread))
            & ((floor == 0.0) | ~(gap < cls.STARTUP_SEPARATION * floor))
        )

    @classmethod
    def bitize(cls, bitizers: list["IntensityBitizer"], samples: list) -> list[list[list[int]]]:
        """Push each bitizer's new samples, all in one array pass.

        samples holds each bitizer's new samples in order; the bitizers
        must share one window_len. Returns, per bitizer and sample, the
        bits that sample emitted, oldest first, as push would return them,
        and leaves each bitizer as repeated push calls would. A sample
        that is not finite raises ValueError before any bitizer changes.
        """
        values = [np.asarray(s, dtype=float).reshape(-1) for s in samples]
        new = np.concatenate(values) if values else np.empty(0)
        if not np.isfinite(new).all():
            raise ValueError("intensity samples must be finite")
        if not len(new):
            return [[] for _ in values]
        width = bitizers[0].window_len
        if any(b.window_len != width for b in bitizers):
            raise ValueError("bitizers must share one window_len")

        # each bitizer's block: its tail right-aligned in width - 1 slots,
        # then its new samples; sample j's window ends at slot width - 1 + j
        counts = np.array([len(v) for v in values])
        known = np.array([len(b.tail) for b in bitizers])
        pad = np.zeros(width - 1)
        x = np.concatenate([part for b, v in zip(bitizers, values)
                            for part in (pad[len(b.tail):], b.tail, v)])
        rows = np.arange(len(new))
        owner = np.repeat(np.arange(len(values)), counts)
        row0 = np.cumsum(counts) - counts  # each bitizer's first row
        j = rows - row0[owner]  # each row's index among its bitizer's samples
        block0 = row0 + np.arange(len(values)) * (width - 1)
        windows = np.lib.stride_tricks.sliding_window_view(x, width)[block0[owner] + j]
        first = np.maximum(width - 1 - known[owner] - j, 0)
        bits, ok = _label_windows(windows, first)

        started0 = np.array([b.started for b in bitizers])
        gate = ok & ~started0[owner]
        if gate.any():
            gate[gate] = cls._startup_ready(windows[gate], first[gate], bits[gate])
        # started at a row: before the pass, or the gate passed at a row of
        # the same bitizer up to this one
        passed = np.cumsum(gate)
        started = started0[owner] | (passed > (passed - gate)[row0[owner]])
        emit = ok & started

        # samples since the last emission, this one included
        last = np.maximum.accumulate(np.where(emit, rows, -1))
        before = np.concatenate([[-1], last[:-1]])
        pending0 = np.array([b.pending for b in bitizers])
        pending = np.where(before >= row0[owner], rows - before, j + 1 + pending0[owner])
        emitted = np.where(emit, np.minimum(pending, width - first), 0)

        for b, k, r, end in zip(bitizers, counts.tolist(), (row0 + counts - 1).tolist(),
                                (block0 + width - 1 + counts).tolist()):
            if k:
                b.tail = x[max(end - width + 1, end - len(b.tail) - k) : end].copy()
                b.started = bool(started[r])
                b.pending = 0 if emit[r] else int(pending[r])
        flat = bits[np.arange(width) >= width - emitted[:, None]].view(np.uint8).tolist()
        ends = np.cumsum(emitted).tolist()
        per_sample = [flat[a:b] for a, b in zip([0] + ends, ends)]
        return [per_sample[a : a + k] for a, k in zip(row0.tolist(), counts.tolist())]


class HueBitizer:
    """Per-sample hue classification, same interface as IntensityBitizer."""

    def __init__(self, window_len: int | None = None):
        del window_len  # hue needs no history; kept for interface parity

    def push(self, hue: float) -> list[int]:
        """The bit of one new sample, as a list of one."""
        return self.bitize([self], [[hue]])[0][0]

    @classmethod
    def bitize(cls, bitizers: list["HueBitizer"], samples: list) -> list[list[list[int]]]:
        """Per bitizer and sample, that sample's bit as a list of one; one array pass."""
        del bitizers  # stateless
        hues = [np.asarray(s, dtype=float).reshape(-1) for s in samples]
        bits = iter(_hue_bits(np.concatenate(hues) if hues else np.empty(0)).tolist())
        return [[[next(bits)] for _ in h] for h in hues]


#: bitizer of each scheme; a scheme is named after the FlashSample field it reads
BITIZERS = {"hue": HueBitizer, "intensity": IntensityBitizer}


@dataclass
class Detection:
    """One detected flash blob in a frame."""

    pixel: tuple[float, float]
    intensity: float
    hue: float


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


def associate(last, missed, pixels, gating_radius: float
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One frame of the greedy nearest-neighbour tracker, on arrays.

    last (T, 2) holds the open tracks' last pixels and missed (T,) the
    frames each has missed in a row; pixels (D, 2) are the frame's
    detections. Pairs within the gate (inclusive) are matched closest
    first, ties to the lower track, then the lower detection. A track that
    misses more than one frame in a row closes, and each unmatched
    detection opens a track after the survivors, in detection order.
    Frame-to-frame flash motion is small next to flash spacing, so greedy
    matching is enough; no optimal assignment is attempted.

    Returns (prev, took, missed, last), one row per track after the frame:
    the row of last it continues (-1: opened now), the detection it took
    (-1: none), its frames missed in a row and its last pixel.
    """
    last = np.asarray(last, dtype=float).reshape(-1, 2)
    missed = np.asarray(missed).reshape(len(last)).tolist()
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    took = [-1] * len(last)
    free = [True] * len(pixels)
    if len(last) and len(pixels):
        dist = np.hypot(pixels[:, 0] - last[:, :1], pixels[:, 1] - last[:, 1:])
        track_i, det_j = np.nonzero(dist <= gating_radius)
        # (dist, i, j) order: closest first, ties to the lower track, then detection
        order = np.lexsort((det_j, track_i, dist[track_i, det_j]))
        for i, j in zip(track_i[order].tolist(), det_j[order].tolist()):
            if took[i] < 0 and free[j]:
                took[i], free[j] = j, False
    # a track that misses a second frame in a row closes
    kept = [i for i, (j, m) in enumerate(zip(took, missed)) if j >= 0 or m < 1]
    opened = [j for j, f in enumerate(free) if f]
    prev = np.array(kept + [-1] * len(opened), dtype=np.intp)
    took = np.array([took[i] for i in kept] + opened, dtype=np.intp)
    # so a track that missed this frame has missed only it, and stays where it was
    held = took < 0
    at = np.where(held, len(pixels) + prev, took)
    return prev, took, held.astype(np.intp), np.concatenate([pixels, last])[at]


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
