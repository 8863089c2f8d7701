"""Photometry to bits: hue/intensity classification, blobs, tracking."""

import math
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flashtrack import signal
from flashtrack.signal import (
    Detection,
    FlashSample,
    HueBitizer,
    IntensityBitizer,
    NoTransitionError,
    SampleTrace,
    associate,
    classify_hue,
    classify_intensity,
    detect_flashes,
    read_trace_csv,
    write_trace_csv,
)


class TestClassifyHue:
    def test_near_reference_hues(self):
        assert classify_hue([5.0, 238.0, 2.0]) == [1, 0, 1]

    def test_boundary_tie_breaks_to_zero(self):
        assert classify_hue([120.0]) == [0]

    def test_circular_wraparound(self):
        # 350 degrees is 10 degrees from red, far from blue
        assert classify_hue([350.0]) == [1]

    def test_monte_carlo_misclassification_rate(self):
        rng = np.random.default_rng(42)
        n = 10**5
        red = rng.normal(0.0, 15.0, n) % 360.0
        blue = (rng.normal(240.0, 15.0, n)) % 360.0
        errs = classify_hue(red).count(0) + classify_hue(blue).count(1)
        assert errs / (2 * n) < 1e-3

    @pytest.mark.parametrize("hue", [math.nan, math.inf, -math.inf])
    def test_non_finite_hue_refused(self, hue):
        with pytest.raises(ValueError, match="finite"):
            classify_hue([5.0, hue])
        with pytest.raises(ValueError, match="finite"):
            HueBitizer().push(hue)


class TestClassifyIntensity:
    def test_clean_square_wave(self):
        assert classify_intensity([10, 10, 90, 90, 10]) == [0, 0, 1, 1, 0]

    def test_flat_input_raises(self):
        with pytest.raises(NoTransitionError):
            classify_intensity([10, 10, 10, 10])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            classify_intensity([10])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sample_refused(self, bad):
        for window in ([100.0, 20.0, bad, bad], [bad, 100.0, 20.0], [20.0, 100.0, bad]):
            with pytest.raises(ValueError, match="finite"):
                classify_intensity(window)

    def test_square_wave_with_linear_drift(self):
        rng = np.random.default_rng(0)
        bits_true = [0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0]
        for trial in range(20):
            start = rng.integers(0, 12)
            window = [
                (80.0 if bits_true[(start + i) % 12] else 0.0) + 5.0 * i + 30.0
                for i in range(12)
            ]
            got = classify_intensity(window)
            want = [bits_true[(start + i) % 12] for i in range(12)]
            assert got == want, (trial, window)

    @staticmethod
    def outward_sweep(window):
        """Label the largest jump's two samples, then sweep out both ways."""
        x = [float(v) for v in window]
        jumps = [abs(b - a) for a, b in zip(x, x[1:])]
        k = max(range(len(jumps)), key=lambda i: (jumps[i], -i))
        threshold = 0.4 * jumps[k]
        bits = [0] * len(x)
        bits[k], bits[k + 1] = (0, 1) if x[k + 1] > x[k] else (1, 0)
        for i in range(k - 1, -1, -1):
            bits[i] = bits[i + 1] ^ (jumps[i] >= threshold)
        for i in range(k + 2, len(x)):
            bits[i] = bits[i - 1] ^ (jumps[i - 1] >= threshold)
        return bits

    def test_matches_outward_sweep_loop(self):
        rng = np.random.default_rng(2026)
        for trial in range(3000):
            length = int(rng.integers(2, 25))
            if trial % 3 == 0:
                window = rng.normal(50.0, 20.0, length)
            elif trial % 3 == 1:
                window = np.where(rng.random(length) < 0.5, 100.0, 20.0) + rng.normal(0, 3, length)
            else:
                window = rng.integers(0, 4, length).astype(float)  # tied jumps
            if not np.diff(window).any():
                continue
            assert classify_intensity(window) == self.outward_sweep(window), window

    @given(
        st.floats(0.1, 50.0),
        st.floats(-100.0, 100.0),
        st.permutations([0, 0, 1, 1, 0, 1]),
    )
    @settings(max_examples=200)
    def test_affine_invariance(self, scale, shift, bits):
        if len(set(bits)) < 2:
            return
        base = [10.0 + 80.0 * b for b in bits]
        scaled = [scale * x + shift for x in base]
        assert classify_intensity(base) == classify_intensity(scaled)


class TestIntensityBitizer:
    def test_backlog_flushes_at_first_transition(self):
        biti = IntensityBitizer(8)
        out = []
        for x in [10, 10, 10, 10, 90]:
            out.extend(biti.push(x))
        assert out == [0, 0, 0, 0, 1]

    def test_steady_state_emits_one_bit_per_sample(self):
        biti = IntensityBitizer(8)
        for x in [10, 10, 10, 10, 90]:
            biti.push(x)
        assert biti.push(90.0) == [1]
        assert biti.push(10.0) == [0]

    def test_all_words_all_phases_clean(self, robust_books):
        book, _ = robust_books[8]
        for ident in range(1, len(book) + 1):
            bits_true = list(book.word(ident).bits)
            for phase in range(8):
                biti = IntensityBitizer(8)
                emitted, truth = [], []
                for i in range(24):
                    b = bits_true[(phase + i) % 8]
                    truth.append(b)
                    emitted.extend(biti.push(100.0 if b else 20.0))
                assert emitted == truth[-len(emitted) :], (ident, phase)

    def test_noise_only_prefix_stays_silent(self):
        rng = np.random.default_rng(0)
        silent = 0
        for _ in range(300):
            biti = IntensityBitizer(12)
            if not any(biti.push(20.0 + rng.normal(0.0, 2.0)) for _ in range(12)):
                silent += 1
        # the startup gate keeps almost all pure-noise prefixes quiet
        assert silent >= 280

    def test_noisy_signal_still_classified_exactly(self):
        rng = np.random.default_rng(5)
        bits_true = [0, 0, 0, 1, 0, 1, 1, 1]
        biti = IntensityBitizer(8)
        emitted, truth = [], []
        for i in range(32):
            b = bits_true[i % 8]
            truth.append(b)
            # 5 percent of the 80-unit gap, the documented noise budget
            emitted.extend(biti.push((100.0 if b else 20.0) + rng.normal(0, 4.0)))
        assert emitted == truth[-len(emitted) :]

    def test_window_too_short_rejected(self):
        with pytest.raises(ValueError):
            IntensityBitizer(1)


class TestHueBitizer:
    def test_one_bit_per_sample_from_first_push(self):
        biti = HueBitizer()
        assert biti.push(3.0) == [1]
        assert biti.push(241.0) == [0]


def running_total(values) -> float:
    """values added left to right, as the startup gate sums them."""
    total = 0.0
    for v in values:
        total += v
    return total


def reference_startup_ready(window, bits, width) -> bool:
    """IntensityBitizer's startup gate on one window, as a plain loop."""
    if len(window) < min(IntensityBitizer.STARTUP_MIN_SAMPLES, width):
        return False
    high = [x for x, b in zip(window, bits) if b]
    low = [x for x, b in zip(window, bits) if not b]
    if not high or not low:
        return False

    def mean(c):
        return running_total(c) / len(c)

    def std(c):
        m = mean(c)
        return math.sqrt(running_total((x - m) * (x - m) for x in c) / len(c))

    gap = mean(high) - mean(low)
    separation = IntensityBitizer.STARTUP_SEPARATION
    spread = max([std(c) for c in (high, low) if len(c) >= 2], default=0.0)
    if spread and gap < separation * spread:
        return False
    steps = [(b - a) * (b - a)
             for a, b, la, lb in zip(window, window[1:], bits, bits[1:]) if la == lb]
    if steps:
        floor = math.sqrt(running_total(steps) / len(steps))
        if floor and gap < separation * floor:
            return False
    return True


class ReferenceIntensityBitizer:
    """The intensity bitizer as a loop: re-classify the whole window per sample."""

    def __init__(self, width):
        self.window = deque(maxlen=width)
        self.pending = 0
        self.started = False

    def push(self, x):
        if not math.isfinite(x):
            raise ValueError("not finite")
        self.window.append(float(x))
        self.pending += 1
        window = list(self.window)
        if len(window) < 2 or all(a == b for a, b in zip(window, window[1:])):
            return []
        bits = TestClassifyIntensity.outward_sweep(window)
        if not self.started and not reference_startup_ready(window, bits, self.window.maxlen):
            return []
        self.started = True
        emitted = bits[-self.pending :]
        self.pending = 0
        return emitted


def pushed(bitizer, samples):
    """What each sample's push call returns, in order."""
    return [bitizer.push(x) for x in samples]


def stacked_emissions(cls, width, streams, splits):
    """Each stream's emission per sample, the streams bitized together by
    cls.bitize in rounds: round r hands stream i its next splits[i][r % len]
    samples, and a last round all that is left."""
    bitizers = [cls(width) for _ in streams]
    taken = [0] * len(streams)
    out = [[] for _ in streams]
    rounds = max(map(len, streams))
    for rnd in range(rounds + 1):
        sizes = [split[rnd % len(split)] if split and rnd < rounds else len(x)
                 for x, split in zip(streams, splits)]
        chunks = [x[t : t + k] for x, t, k in zip(streams, taken, sizes)]
        emitted = cls.bitize(bitizers, chunks)
        assert list(map(len, emitted)) == list(map(len, chunks))
        for i, chunk in enumerate(chunks):
            out[i].extend(emitted[i])
            taken[i] += len(chunk)
    assert taken == list(map(len, streams))
    return out


# run-length streams: a repeated value makes flat windows and backlogs past the
# window; levels near 20 and 100 with small offsets make noisy startups and codes
LEVEL = st.one_of(
    st.sampled_from([20.0, 100.0]),
    st.floats(15.0, 25.0), st.floats(95.0, 105.0), st.floats(0.0, 200.0),
)
STREAM = st.lists(st.tuples(LEVEL, st.integers(1, 30)), max_size=8).map(
    lambda runs: [v for v, r in runs for _ in range(r)])
SPLITS = st.lists(st.integers(0, 9), max_size=4)


class TestStackedBitize:
    @given(st.integers(2, 24), st.lists(st.tuples(STREAM, SPLITS), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    @example(8, [([10.0] * 20 + [90.0, 10.0, 90.0], [3])])  # backlog past the window
    @example(5, [([20.0, 100.0] * 4 + [100.0] * 12 + [20.0, 100.0] * 3, [])])  # flat mid-stream
    @example(16, [([19.0, 19.1, 21.3, 19.0, 18.7] * 3, [1, 0, 2])])  # a noise-only start
    def test_intensity_matches_the_reference_and_push(self, width, tracks):
        streams = [x for x, _ in tracks]
        want = [pushed(ReferenceIntensityBitizer(width), xs) for xs in streams]
        got = stacked_emissions(IntensityBitizer, width, streams, [s for _, s in tracks])
        assert got == want
        assert [pushed(IntensityBitizer(width), xs) for xs in streams] == want

    @given(st.lists(st.tuples(st.lists(st.floats(-1e3, 1e3), max_size=30), SPLITS),
                    min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    @example([([0.0, 120.0, 240.0, 360.0, -120.0, 60.0, 300.0], [2])])  # the ties
    def test_hue_matches_the_reference_and_push(self, tracks):
        def near_red(h):
            red, blue = (min(abs(h - r) % 360.0, 360.0 - abs(h - r) % 360.0) for r in (0.0, 240.0))
            return int(red < blue)

        streams = [x for x, _ in tracks]
        want = [[[near_red(h)] for h in xs] for xs in streams]
        assert stacked_emissions(HueBitizer, 12, streams, [s for _, s in tracks]) == want
        assert [pushed(HueBitizer(), xs) for xs in streams] == want

    @pytest.mark.parametrize("cls", [IntensityBitizer, HueBitizer])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_refused_on_both_paths(self, cls, bad):
        first, second = cls(4), cls(4)
        with pytest.raises(ValueError, match="finite"):
            cls.bitize([first, second], [[20.0, 100.0, 20.0], [100.0, bad]])
        with pytest.raises(ValueError, match="finite"):
            cls(4).push(bad)
        # a refused pass leaves every bitizer as it was
        stream = [20.0, 100.0, 20.0, 100.0, 100.0, 20.0]
        assert pushed(first, stream) == pushed(cls(4), stream)

    def test_window_lengths_must_agree(self):
        with pytest.raises(ValueError, match="window_len"):
            IntensityBitizer.bitize([IntensityBitizer(4), IntensityBitizer(5)], [[1.0], [2.0]])


class TestDetectFlashes:
    @staticmethod
    def render_blob(frame, row, col, peak, sigma=1.0):
        rr, cc = np.mgrid[0 : frame.shape[0], 0 : frame.shape[1]]
        frame += peak * np.exp(-((rr - row) ** 2 + (cc - col) ** 2) / (2 * sigma**2))

    def test_single_gaussian_blob_centroid(self):
        frame = np.zeros((16, 16))
        self.render_blob(frame, 5.0, 7.0, 100.0)
        dets = detect_flashes(frame, threshold=10.0, nms_radius=2.0)
        assert len(dets) == 1
        assert abs(dets[0].pixel[0] - 5.0) < 0.05
        assert abs(dets[0].pixel[1] - 7.0) < 0.05

    def test_empty_frame(self):
        assert detect_flashes(np.zeros((8, 8)), threshold=1.0, nms_radius=2.0) == []

    def test_close_blobs_suppressed_keeping_brighter(self):
        frame = np.zeros((12, 12))
        frame[5, 5] = 50.0
        frame[6, 6] = 80.0  # diagonal neighbour: separate 4-connected blob
        dets = detect_flashes(frame, threshold=10.0, nms_radius=3.0)
        assert len(dets) == 1
        assert dets[0].pixel == (6.0, 6.0)
        assert dets[0].intensity == 80.0

    def test_distant_blobs_both_kept(self):
        frame = np.zeros((16, 16))
        frame[2, 2] = 50.0
        frame[12, 12] = 60.0
        dets = detect_flashes(frame, threshold=10.0, nms_radius=3.0)
        assert len(dets) == 2

    def test_hue_grid_averaged_per_blob(self):
        frame = np.zeros((8, 8))
        frame[3, 3] = frame[3, 4] = 90.0
        hue = np.zeros((8, 8))
        hue[3, 3], hue[3, 4] = 10.0, 20.0
        dets = detect_flashes(frame, threshold=10.0, nms_radius=2.0, hue=hue)
        assert len(dets) == 1
        assert dets[0].hue == pytest.approx(15.0)

    def test_centroid_error_under_noise(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(50):
            frame = np.zeros((16, 16))
            self.render_blob(frame, 8.0, 6.0, 100.0)
            frame += rng.normal(0.0, 1.0, frame.shape)  # SNR 100
            dets = detect_flashes(frame, threshold=25.0, nms_radius=2.0)
            assert len(dets) == 1
            worst = max(
                worst,
                float(np.hypot(dets[0].pixel[0] - 8.0, dets[0].pixel[1] - 6.0)),
            )
        assert worst < 0.1


def flood_fill_detections(frame, threshold, hue=None):
    """Every 4-connected blob of a frame as a Detection, by flood fill.

    Blobs come out in the order of their first raster pixel, each summed
    over its pixels in raster order.
    """
    rows, cols = frame.shape
    seen = np.zeros(frame.shape, dtype=bool)
    out = []
    for r0 in range(rows):
        for c0 in range(cols):
            if seen[r0, c0] or not frame[r0, c0] >= threshold:
                continue
            seen[r0, c0] = True
            blob, queue = [], [(r0, c0)]
            while queue:
                r, c = queue.pop()
                blob.append((r, c))
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= rr < rows and 0 <= cc < cols and not seen[rr, cc]:
                        if frame[rr, cc] >= threshold:
                            seen[rr, cc] = True
                            queue.append((rr, cc))
            blob.sort()
            mass = sum(frame[p] for p in blob)
            row = sum(frame[p] * p[0] for p in blob) / mass
            col = sum(frame[p] * p[1] for p in blob) / mass
            mean_hue = 0.0 if hue is None else sum(hue[p] for p in blob) / len(blob)
            out.append(Detection((row, col), max(frame[p] for p in blob), mean_hue))
    return out


class TestDetectFlashesAgainstFloodFill:
    @staticmethod
    def assert_same(got, blobs):
        """got from a radius-0 call, which keeps every blob and orders them
        by intensity and then, stably, by pixel."""
        want = sorted(sorted(blobs, key=lambda d: -d.intensity), key=lambda d: d.pixel)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.pixel == pytest.approx(w.pixel, rel=1e-12)
            assert g.intensity == w.intensity
            assert g.hue == pytest.approx(w.hue, rel=1e-12)

    def test_seeded_random_frames(self):
        rng = np.random.default_rng(99)
        for trial in range(300):
            shape = tuple(int(v) for v in rng.integers(1, 25, size=2))
            frame = rng.random(shape) * 100.0
            if trial % 2:
                frame = np.round(frame / 25.0) * 25.0  # equal peaks, tied intensities
            hue = rng.random(shape) * 360.0 if trial % 3 else None
            threshold = float(rng.uniform(5.0, 95.0))
            self.assert_same(
                detect_flashes(frame, threshold, 0.0, hue=hue),
                flood_fill_detections(frame, threshold, hue),
            )

    @pytest.mark.parametrize("pattern", ["comb", "serpentine", "spiral", "full"])
    def test_long_winding_blobs(self, pattern):
        n = 61
        mask = np.zeros((n, n), dtype=bool)
        if pattern == "comb":
            mask[:, ::2] = True
            mask[-1] = True
        elif pattern == "serpentine":
            mask[::2] = True
            mask[1::4, -1] = True
            mask[3::4, 0] = True
        elif pattern == "spiral":
            for k in range(0, n // 2, 2):
                mask[k, k : n - k] = mask[k : n - k, n - 1 - k] = mask[n - 1 - k, k : n - k] = True
                mask[k + 2 : n - k, k] = True
        else:
            mask[:] = True
        frame = np.where(mask, 50.0, 0.0) + np.arange(n * n).reshape(n, n) * 1e-3
        self.assert_same(
            detect_flashes(frame, 10.0, 0.0), flood_fill_detections(frame, 10.0)
        )

    def test_frame_must_be_2d(self):
        for bad in (np.ones(5), np.ones((2, 3, 4))):
            with pytest.raises(ValueError, match="frame must be 2-D and nonempty"):
                detect_flashes(bad, 0.5, 1.0)

    def test_hue_grid_must_match_the_frame(self):
        with pytest.raises(ValueError, match=r"hue grid shape \(8,\) differs"):
            detect_flashes(np.ones((4, 8)), 0.5, 1.0, hue=np.zeros(8))


def reference_suppress(detections, nms_radius):
    """The suppression pass as a plain loop: every candidate against every kept blob."""
    detections = sorted(detections, key=lambda d: -d.intensity)
    kept = []
    for det in detections:
        if all(
            np.hypot(det.pixel[0] - k.pixel[0], det.pixel[1] - k.pixel[1]) >= nms_radius
            for k in kept
        ):
            kept.append(det)
    kept.sort(key=lambda d: d.pixel)
    return kept


class TestSuppression:
    @staticmethod
    def detect_with_reference(monkeypatch, frame, threshold, radius, hue=None):
        """detect_flashes, and the reference pass over the blobs it made, in
        the order it made them."""
        made = []
        monkeypatch.setattr(signal, "Detection", lambda *a: made.append(Detection(*a)) or made[-1])
        got = detect_flashes(frame, threshold, radius, hue=hue)
        return got, reference_suppress(made, radius)

    def test_seeded_frames_match_the_reference_loop(self, monkeypatch):
        rng = np.random.default_rng(10)
        for trial in range(400):
            shape = tuple(int(v) for v in rng.integers(1, 46, size=2))
            frame = rng.random(shape) * 100.0
            if trial % 2:
                frame = np.round(frame / 25.0) * 25.0  # tied intensities
            hue = rng.random(shape) * 360.0 if trial % 3 else None
            radius = float(rng.choice([0.0, 1.0, 1.5, rng.uniform(0.0, 7.5)]))
            threshold = float(rng.uniform(30.0, 95.0))
            got, want = self.detect_with_reference(monkeypatch, frame, threshold, radius, hue)
            assert repr(got) == repr(want), (trial, radius)

    @pytest.mark.parametrize("radius", [1e-300, 1e300, float("inf")])
    def test_extreme_radii_match_the_reference_loop(self, monkeypatch, radius):
        frame = np.random.default_rng(11).random((30, 40)) * 100.0
        got, want = self.detect_with_reference(monkeypatch, frame, 50.0, radius)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("radius", [0.0, 3.0])
    def test_noise_frame_within_two_seconds(self, radius):
        """A 480x640 uniform-noise frame holds about 20,000 blobs."""
        frame = np.random.default_rng(12).random((480, 640)) * 100.0
        t0 = time.perf_counter()
        kept = detect_flashes(frame, 50.0, radius)
        assert time.perf_counter() - t0 < 2.0
        assert len(kept) > (10_000 if radius == 0 else 1_000)

    @pytest.mark.parametrize("radius", [float("nan"), -1.0])
    def test_radius_must_be_a_number_at_least_zero(self, radius):
        with pytest.raises(ValueError, match="nms_radius"):
            detect_flashes(np.ones((4, 4)), 0.5, radius)


class TestAssociate:
    def test_match_within_gate(self):
        prev, took, missed, last = associate([(10.0, 10.0)], [0], [(10.4, 10.1)], 2.0)
        assert prev.tolist() == [0]
        assert took.tolist() == [0]
        assert last.tolist() == [[10.4, 10.1]]

    def test_detection_outside_gate_opens_new_track(self):
        prev, took, _, _ = associate([(10.0, 10.0)], [0], [(30.0, 30.0)], 2.0)
        assert len(prev) == 2 and 0 in prev.tolist()
        assert took.tolist() == [-1, 0]

    def test_crossing_matches_minimize_total_distance(self):
        starts = [(10.0, 10.0), (10.0, 12.0)]
        prev, _, _, last = associate(starts, [0, 0], [(10.0, 10.6), (10.0, 11.6)], 3.0)
        pix = dict(zip(prev.tolist(), map(tuple, last.tolist())))
        paired = sum(
            np.hypot(pix[i][0] - p0[0], pix[i][1] - p0[1]) for i, p0 in enumerate(starts)
        )
        swapped = (
            np.hypot(10.0 - 10.0, 11.6 - 10.0) + np.hypot(10.0 - 10.0, 10.6 - 12.0)
        )
        assert paired <= swapped

    def test_track_missing_twice_is_closed(self):
        prev, _, missed, last = associate([(10.0, 10.0)], [0], np.empty((0, 2)), 2.0)
        assert prev.tolist() == [0] and missed.tolist() == [1]
        assert last.tolist() == [[10.0, 10.0]]
        prev, took, missed, last = associate(last, missed, [], 2.0)
        assert len(prev) == len(took) == len(missed) == len(last) == 0

    def test_timestamps_must_increase(self):
        tr = SampleTrace(track_id=1)
        tr.append(FlashSample(1.0, 50.0, 0.0, (10.0, 10.0)))
        with pytest.raises(ValueError):
            tr.append(FlashSample(1.0, 50.0, 0.0, (10.0, 10.0)))


def associate_loop(last, missed, pixels, gating_radius):
    """associate as a loop over every track x detection pair, sorted as tuples.

    Returns (prev, took, missed, last pixel) per track after the frame.
    """
    pairs = []
    for i, (r0, c0) in enumerate(last):
        for j, (r, c) in enumerate(pixels):
            dist = float(np.hypot(r - r0, c - c0))
            if dist <= gating_radius:
                pairs.append((dist, i, j))
    pairs.sort()
    took, taken = {}, set()
    for _, i, j in pairs:
        if i in took or j in taken:
            continue
        took[i] = j
        taken.add(j)
    rows = []
    for i, m in enumerate(missed):
        if i in took:
            rows.append((i, took[i], 0, tuple(pixels[took[i]])))
        elif m + 1 <= 1:
            rows.append((i, -1, m + 1, tuple(last[i])))
    rows += [(-1, j, 0, tuple(p)) for j, p in enumerate(pixels) if j not in taken]
    return rows


def associate_rows(last, missed, pixels, gating_radius):
    """associate's arrays as associate_loop's rows."""
    prev, took, missed, last = associate(last, missed, pixels, gating_radius)
    return list(zip(prev.tolist(), took.tolist(), missed.tolist(), map(tuple, last.tolist())))


# lattice points give duplicate pixels, equal distances and exact gates (a
# 3-4-5 pair at radius 5); free floats give everything else
COORD = st.one_of(st.integers(0, 12).map(float), st.floats(0.0, 12.0))
PIXEL = st.tuples(COORD, COORD)
# (last pixel, frames missed) of each open track
TRACKS = st.lists(st.tuples(PIXEL, st.integers(0, 1)), max_size=8)
# each frame's detection pixels; empty frames close tracks, later ones reopen them
FRAMES = st.lists(st.lists(PIXEL, max_size=8), min_size=1, max_size=5)


class TestAssociateOrder:
    @staticmethod
    def play(assoc, tracks, frames, radius):
        """Each frame's rows from assoc, the tracks carried from frame to frame."""
        last, missed = [p for p, _ in tracks], [m for _, m in tracks]
        out = []
        for pixels in frames:
            out.append(assoc(last, missed, pixels, radius))
            last, missed = [row[3] for row in out[-1]], [row[2] for row in out[-1]]
        return out

    @given(TRACKS, FRAMES, st.one_of(st.sampled_from([1.0, 2.0, 5.0]), st.floats(0.0, 20.0)))
    @settings(max_examples=200, deadline=None)
    @example([((0.0, 0.0), 0)], [[(3.0, 4.0)]], 5.0)  # a pair at exactly the gate
    @example([((5.0, 5.0), 0), ((5.0, 5.0), 1)], [[(5.0, 7.0), (7.0, 5.0), (3.0, 5.0)]], 2.0)
    @example([((1.0, 1.0), 0), ((2.0, 2.0), 0)], [[(1.5, 1.5), (1.5, 1.5)]], 1.0)  # duplicates
    @example([((1.0, 1.0), 0)], [[], [], [(1.0, 1.0)]], 1.0)  # closed, then reopened
    def test_matches_pair_loop(self, tracks, frames, radius):
        got = self.play(associate_rows, tracks, frames, radius)
        assert got == self.play(associate_loop, tracks, frames, radius)

    def test_pair_at_the_gate_matches(self):
        out = self.play(associate_rows, [((0.0, 0.0), 0)], [[(3.0, 4.0)]], 5.0)
        assert out == [[(0, 0, 0, (3.0, 4.0))]]

    def test_closed_track_reopens_as_new(self):
        out = self.play(associate_rows, [((1.0, 1.0), 0)], [[], [], [(1.0, 1.0)]], 1.0)
        assert out == [[(0, -1, 1, (1.0, 1.0))], [], [(-1, 0, 0, (1.0, 1.0))]]


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        a = SampleTrace(track_id=2)
        a.append(FlashSample(0.1, 55.5, 3.25, (10.125, 11.5)))
        a.append(FlashSample(0.2, 44.5, 241.0, (10.25, 11.75)))
        b = SampleTrace(track_id=7)
        b.append(FlashSample(0.15, 80.0, 0.0, (3.0, 4.0)))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, [a, b])
        back = read_trace_csv(path)
        assert [t.track_id for t in back] == [2, 7]
        assert back[0].samples[0].t == 0.1
        assert back[0].samples[1].pixel == (10.25, 11.75)
        assert back[1].samples[0].intensity == 80.0

    @pytest.mark.parametrize("column", ["t", "intensity", "hue", "row", "col"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_refused_naming_its_line(self, tmp_path, column, bad):
        path = tmp_path / "trace.csv"
        rows = [["0", "0.0", "20.0", "10.0", "1.0", "2.0"],
                ["0", "0.1", "5.0", "250.0", "1.0", "2.0"]]
        rows[1][signal.TRACE_COLUMNS.index(column)] = bad
        path.write_text("\n".join(",".join(r) for r in [signal.TRACE_COLUMNS] + rows) + "\n")
        with pytest.raises(ValueError, match=f"trace file line 3: {column} not finite"):
            read_trace_csv(path)

    def test_short_row_refused_naming_its_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("track_id,t,intensity,hue,row,col\n0,0.0,20.0,10.0,1.0,2.0\n0,0.1,5.0\n")
        with pytest.raises(ValueError, match="trace file line 3: fewer than 6 fields"):
            read_trace_csv(path)
