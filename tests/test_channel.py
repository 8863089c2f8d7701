"""Clock drift, heartbeat resync, and sensor sampling of flash streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashtrack.channel import (
    DEFAULT_HIGH,
    DEFAULT_LOW,
    ClockModel,
    EmitterState,
    SensorTiming,
    apply_heartbeat,
    count_drift_events,
    heartbeat_expired,
    render_samples,
    sample_stream,
    sync_interval,
)
from flashtrack.codebook import BitWord


class TestClockModel:
    def test_local_time_scales_by_rate(self):
        clock = ClockModel(rate_ppm=100.0)
        assert clock.local_time(10.0) == pytest.approx(10.001)

    def test_zero_rate_is_identity(self):
        clock = ClockModel(rate_ppm=0.0)
        assert clock.local_time(123.456) == 123.456

    @given(st.floats(-200.0, 200.0), st.floats(0.0, 1e4))
    def test_monotone_in_true_time(self, ppm, t):
        clock = ClockModel(rate_ppm=ppm)
        assert clock.local_time(t + 1.0) > clock.local_time(t)


class TestSyncInterval:
    def test_millisecond_at_50ppm(self):
        assert sync_interval(1e-3, 50.0) == 10.0

    def test_second_example(self):
        assert sync_interval(1.2e-4, 20.0) == 3.0

    def test_tighter_budget_means_shorter_interval(self):
        assert sync_interval(1e-4, 50.0) < sync_interval(1e-3, 50.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sync_interval(-1.0, 50.0)
        with pytest.raises(ValueError):
            sync_interval(1e-3, 0.0)


class TestHeartbeat:
    def test_pulse_zeroes_error_at_pulse_instant(self):
        clock = ClockModel(rate_ppm=50.0)
        clock = apply_heartbeat(clock, 100.0)
        assert clock.local_time(100.0) == pytest.approx(100.0, abs=1e-12)

    def test_drift_resumes_after_pulse(self):
        clock = apply_heartbeat(ClockModel(rate_ppm=50.0), 100.0)
        drift = clock.local_time(110.0) - 110.0
        assert drift == pytest.approx(10.0 * 50e-6, rel=1e-9)

    def test_expiry(self):
        clock = apply_heartbeat(ClockModel(rate_ppm=0.0), 5.0)
        assert not heartbeat_expired(clock, 6.0, timeout=2.0)
        assert heartbeat_expired(clock, 8.0, timeout=2.0)
        assert heartbeat_expired(ClockModel(0.0), 0.0, timeout=2.0)

    def test_pairwise_desync_bounded_by_interval(self):
        """100 random rates within +-50 ppm, pulses at the computed interval."""
        rng = np.random.default_rng(1234)
        period = sync_interval(1e-3, 50.0)
        clocks = [ClockModel(rate_ppm=float(r)) for r in rng.uniform(-50, 50, 100)]
        worst = 0.0
        t = 0.0
        while t < 1000.0:
            t_probe = t + period
            locals_now = [c.local_time(t_probe) for c in clocks]
            worst = max(worst, max(locals_now) - min(locals_now))
            clocks = [apply_heartbeat(c, t_probe) for c in clocks]
            t = t_probe
        assert worst <= 1e-3


class TestEmitterState:
    def test_bit_lookup_wraps_cyclically(self):
        word = BitWord.from_string("0111")
        em = EmitterState(word, bit_period=0.5, clock=ClockModel(0.0))
        assert em.bit_at_local(0.0) == (0, 0)
        assert em.bit_at_local(0.74) == (1, 1)
        assert em.bit_at_local(2.1) == (4, 0)


class TestSensorTiming:
    def test_cmos_sweep_must_fit_frame(self):
        with pytest.raises(ValueError):
            SensorTiming("cmos", fps=30.0, rows=100, row_readout=1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SensorTiming("foveon", fps=30.0)

    @pytest.mark.parametrize("fps", [0.0, -30.0, float("nan"), float("inf")])
    def test_fps_must_be_positive_and_finite(self, fps):
        with pytest.raises(ValueError, match="fps"):
            SensorTiming("ccd", fps=fps)


class TestSampleStream:
    @staticmethod
    def flat_row(frame: int) -> float:
        return 0.0

    def test_nominal_clocks_sample_each_bit_once(self):
        word = BitWord.from_string("01100111")
        em = EmitterState(word, bit_period=1 / 30.0, clock=ClockModel(0.0))
        timing = SensorTiming("ccd", fps=30.0, exposure_mid=0.5 / 30.0)
        samples = sample_stream(em, timing, ClockModel(0.0), self.flat_row, 1.0)
        indices = [s[1] for s in samples]
        assert indices == list(range(len(indices)))

    def test_slow_tracker_duplicates_once_per_twenty(self):
        """A 5 percent slower tracker revisits one bit per 20 samples."""
        word = BitWord.from_string("011001110101")
        em = EmitterState(word, bit_period=1 / 30.0, clock=ClockModel(0.0))
        timing = SensorTiming("ccd", fps=30.0, exposure_mid=0.5 / 30.0)
        samples = sample_stream(
            em, timing, ClockModel(rate_ppm=-50000.0), self.flat_row, 101 / 30.0
        )
        indices = [s[1] for s in samples]
        ins, dels = count_drift_events(indices)
        assert dels == 0
        assert ins == len(indices) // 20
        dup_positions = [
            i for i in range(1, len(indices)) if indices[i] == indices[i - 1]
        ]
        gaps = np.diff(dup_positions)
        assert np.all(gaps == 20)

    def test_fast_tracker_skips_once_per_twenty(self):
        word = BitWord.from_string("011001110101")
        em = EmitterState(word, bit_period=1 / 30.0, clock=ClockModel(0.0))
        timing = SensorTiming("ccd", fps=30.0, exposure_mid=0.5 / 30.0)
        samples = sample_stream(
            em, timing, ClockModel(rate_ppm=50000.0), self.flat_row, 101 / 30.0
        )
        ins, dels = count_drift_events([s[1] for s in samples])
        assert ins == 0 and dels >= 4

    def test_cmos_row_sweep_down_deletes_one_bit(self):
        word = BitWord.from_string("0110011101011001")
        bit_period = 1 / 30.0
        em = EmitterState(word, bit_period, clock=ClockModel(0.0))
        timing = SensorTiming(
            "cmos",
            fps=30.0,
            rows=10,
            row_readout=bit_period / 10.0,
            exposure_mid=0.5 * bit_period,
        )
        rows = np.linspace(0, 9, 10)  # top-to-bottom over 10 frames
        samples = sample_stream(
            em, timing, ClockModel(0.0), lambda f: float(rows[f]), 9.5 / 30.0
        )
        ins, dels = count_drift_events([s[1] for s in samples])
        assert (ins, dels) == (0, 1)

    def test_cmos_row_sweep_up_inserts_one_bit(self):
        word = BitWord.from_string("0110011101011001")
        bit_period = 1 / 30.0
        em = EmitterState(word, bit_period, clock=ClockModel(0.0))
        timing = SensorTiming(
            "cmos",
            fps=30.0,
            rows=10,
            row_readout=bit_period / 10.0,
            exposure_mid=0.5 * bit_period,
        )
        rows = np.linspace(9, 0, 10)
        samples = sample_stream(
            em, timing, ClockModel(0.0), lambda f: float(rows[f]), 9.5 / 30.0
        )
        ins, dels = count_drift_events([s[1] for s in samples])
        assert (ins, dels) == (1, 0)


class TestCountDriftEvents:
    def test_clean_sequence(self):
        assert count_drift_events([0, 1, 2, 3]) == (0, 0)

    def test_duplicate_counts_as_insertion(self):
        assert count_drift_events([0, 1, 1, 2]) == (1, 0)

    def test_skip_counts_deletions(self):
        assert count_drift_events([0, 1, 4, 5]) == (0, 2)


class TestRenderSamples:
    def test_intensity_levels(self):
        rng = np.random.default_rng(0)
        trace = render_samples([(0.0, 1), (0.1, 0)], "intensity", rng=rng)
        assert trace.samples[0].intensity == DEFAULT_HIGH
        assert trace.samples[1].intensity == DEFAULT_LOW

    def test_hue_levels(self):
        rng = np.random.default_rng(0)
        trace = render_samples([(0.0, 1), (0.1, 0)], "hue", rng=rng)
        assert trace.samples[0].hue == 0.0
        assert trace.samples[1].hue == 240.0

    def test_distance_follows_inverse_square(self):
        rng = np.random.default_rng(0)
        near = render_samples([(0.0, 1)], "intensity", rng=rng, distance=1.0)
        far = render_samples([(0.0, 1)], "intensity", rng=rng, distance=2.0)
        assert far.samples[0].intensity == pytest.approx(
            near.samples[0].intensity / 4.0
        )

    def test_bit_error_rate_at_documented_noise(self, robust_books):
        """5 percent-of-gap intensity noise leaves the stream decodable."""
        from flashtrack.signal import classify_intensity

        book, _ = robust_books[12]
        rng = np.random.default_rng(77)
        gap = DEFAULT_HIGH - DEFAULT_LOW
        errors = total = 0
        for ident in range(1, len(book) + 1):
            bits = list(book.word(ident).bits) * 40
            times = [(i / 30.0, b) for i, b in enumerate(bits)]
            trace = render_samples(
                times, "intensity", rng=rng, intensity_sigma=0.05 * gap
            )
            values = [s.intensity for s in trace.samples]
            for start in range(0, len(values) - 12, 12):
                got = classify_intensity(values[start : start + 12])
                want = bits[start : start + 12]
                errors += sum(g != w for g, w in zip(got, want))
                total += 12
        assert errors / total < 1e-3
