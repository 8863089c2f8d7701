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
    render_flashes,
    render_samples,
    sample_stream,
    sample_time,
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
        em = EmitterState(word, bit_period=0.5)
        assert em.bit_at_local(0.0) == (0, 0)
        assert em.bit_at_local(0.74) == (1, 1)
        assert em.bit_at_local(2.1) == (4, 0)

    @pytest.mark.parametrize("text", ["0111", "0010111", "000011011101", "1"])
    def test_bit_at_local_reads_the_word_bits(self, text):
        word = BitWord.from_string(text)
        n = word.n
        em = EmitterState(word, bit_period=1.0)
        for i in range(-2 * n, 2 * n + 1):
            assert em.bit_at_local(i + 0.5) == (i, word.bits[i % n])


    @pytest.mark.parametrize("text", ["0111", "0010111", "000011011101"])
    def test_array_taus_are_each_scalar_call(self, text):
        em = EmitterState(BitWord.from_string(text), bit_period=1 / 30.0)
        taus = np.random.default_rng(3).uniform(-5.0, 5.0, (6, 7))
        taus[0, :3] = [0.0, 1 / 30.0, -1 / 30.0]
        index, bits = em.bit_at_local(taus)
        assert index.shape == bits.shape == taus.shape
        for tau, i, b in zip(taus.ravel().tolist(), index.ravel().tolist(), bits.ravel().tolist()):
            assert (i, b) == em.bit_at_local(tau)

    def test_array_index_exact_past_int64(self):
        em = EmitterState(BitWord.from_string("0010111"), bit_period=1e-9)
        tau = 1e15
        (index,), (bit,) = em.bit_at_local(np.array([tau]))
        assert index == em.bit_at_local(tau)[0] == int(tau / 1e-9)
        assert bit == em.bit_at_local(tau)[1]


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
        em = EmitterState(word, bit_period=1 / 30.0)
        timing = SensorTiming("ccd", fps=30.0, exposure_mid=0.5 / 30.0)
        samples = sample_stream(em, ClockModel(0.0), timing, ClockModel(0.0), self.flat_row, 1.0)
        indices = [s[1] for s in samples]
        assert indices == list(range(len(indices)))

    def test_slow_tracker_duplicates_once_per_twenty(self):
        """A 5 percent slower tracker revisits one bit per 20 samples."""
        word = BitWord.from_string("011001110101")
        em = EmitterState(word, bit_period=1 / 30.0)
        timing = SensorTiming("ccd", fps=30.0, exposure_mid=0.5 / 30.0)
        samples = sample_stream(
            em, ClockModel(0.0), timing, ClockModel(rate_ppm=-50000.0), self.flat_row, 101 / 30.0
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
        em = EmitterState(word, bit_period=1 / 30.0)
        timing = SensorTiming("ccd", fps=30.0, exposure_mid=0.5 / 30.0)
        samples = sample_stream(
            em, ClockModel(0.0), timing, ClockModel(rate_ppm=50000.0), self.flat_row, 101 / 30.0
        )
        ins, dels = count_drift_events([s[1] for s in samples])
        assert ins == 0 and dels >= 4

    def test_cmos_row_sweep_down_deletes_one_bit(self):
        word = BitWord.from_string("0110011101011001")
        bit_period = 1 / 30.0
        em = EmitterState(word, bit_period)
        timing = SensorTiming(
            "cmos",
            fps=30.0,
            rows=10,
            row_readout=bit_period / 10.0,
            exposure_mid=0.5 * bit_period,
        )
        rows = np.linspace(0, 9, 10)  # top-to-bottom over 10 frames
        samples = sample_stream(
            em, ClockModel(0.0), timing, ClockModel(0.0), lambda f: float(rows[f]), 9.5 / 30.0
        )
        ins, dels = count_drift_events([s[1] for s in samples])
        assert (ins, dels) == (0, 1)

    def test_cmos_row_sweep_up_inserts_one_bit(self):
        word = BitWord.from_string("0110011101011001")
        bit_period = 1 / 30.0
        em = EmitterState(word, bit_period)
        timing = SensorTiming(
            "cmos",
            fps=30.0,
            rows=10,
            row_readout=bit_period / 10.0,
            exposure_mid=0.5 * bit_period,
        )
        rows = np.linspace(9, 0, 10)
        samples = sample_stream(
            em, ClockModel(0.0), timing, ClockModel(0.0), lambda f: float(rows[f]), 9.5 / 30.0
        )
        ins, dels = count_drift_events([s[1] for s in samples])
        assert (ins, dels) == (1, 0)


class TestSampleTime:
    def test_rolling_shutter_delays_each_row(self):
        timing = SensorTiming("cmos", fps=30.0, rows=10, row_readout=1e-3, exposure_mid=0.01)
        tracker = ClockModel(rate_ppm=200.0)
        got = sample_time(timing, tracker, 7, 4.0)
        assert got == pytest.approx(tracker.local_time(7 / 30.0 + 0.01 + 4.0e-3), abs=1e-15)
        assert sample_time(timing, tracker, 7) < got

    def test_global_shutter_ignores_row(self):
        timing = SensorTiming("ccd", fps=30.0, exposure_mid=0.01)
        tracker = ClockModel(rate_ppm=-80.0)
        assert sample_time(timing, tracker, 5, 300.0) == sample_time(timing, tracker, 5)

    def test_frame_array_is_each_scalar_call(self):
        timing = SensorTiming("ccd", fps=30.0, exposure_mid=0.01)
        tracker = ClockModel(rate_ppm=-80.0, offset=0.002)
        frames = np.arange(40)
        got = sample_time(timing, tracker, frames)
        assert got.tolist() == [sample_time(timing, tracker, f) for f in range(40)]

    @pytest.mark.parametrize("kind", ["cmos", "ccd"])
    def test_stacked_tracker_clock_is_each_scalar_call(self, kind):
        """A (F, 1) column of frames through a clock holding each frame's
        offset, with rows (F, K), is every frame's and row's scalar call."""
        timing = SensorTiming(kind, fps=30.0, rows=480, row_readout=0.8 / (30.0 * 480),
                              exposure_mid=0.004)
        rng = np.random.default_rng(8)
        frames = np.arange(100, 112)
        offsets, rows = rng.normal(0.0, 1e-3, len(frames)), rng.uniform(0.0, 480.0, (12, 5))
        stacked = ClockModel(rate_ppm=2500.0, offset=offsets[:, None])
        # a global shutter's instants are one per frame, broadcast over rows
        got = np.broadcast_to(sample_time(timing, stacked, frames[:, None], rows), rows.shape)
        for f, frame in enumerate(frames.tolist()):
            clock = ClockModel(rate_ppm=2500.0, offset=float(offsets[f]))
            for k, row in enumerate(rows[f].tolist()):
                assert got[f, k] == sample_time(timing, clock, frame, row)

    def test_sample_stream_is_sample_time_then_bit_at(self):
        word = BitWord.from_string("0110011101011001")
        em = EmitterState(word, bit_period=1 / 30.0)
        clock = ClockModel(rate_ppm=-3000.0)
        timing = SensorTiming(
            "cmos", fps=30.0, rows=480, row_readout=0.8 / (30.0 * 480), exposure_mid=0.004
        )
        tracker = ClockModel(rate_ppm=2500.0, offset=0.003)

        def row_of(frame):
            return (37.0 * frame) % 480

        samples = sample_stream(em, clock, timing, tracker, row_of, 3.0)
        assert len(samples) == 91
        for frame, got in enumerate(samples):
            shared = sample_time(timing, tracker, frame, row_of(frame))
            assert got == (shared, *em.bit_at_local(clock.local_time(shared)))


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


class TestRenderSample:
    @pytest.mark.parametrize("scheme", ["intensity", "hue"])
    def test_render_samples_is_render_sample_per_pair(self, scheme):
        bits = [(k / 30.0, b) for k, b in enumerate([1, 0, 0, 1, 1, 0, 1, 0])]
        trace = render_samples(
            bits, scheme, rng=np.random.default_rng(5), intensity_sigma=3.0,
            hue_sigma=20.0, distance=2.0,
        )
        rng = np.random.default_rng(5)
        for sample, (t, bit) in zip(trace.samples, bits):
            level, hue, _ = render_flashes([bit], scheme, rng, 3.0, 20.0, scale=0.25)
            assert (sample.t, sample.intensity, sample.hue) == (t, level[0], hue[0])
        assert len(trace.samples) == len(bits)

    def test_noise_free_draws_nothing(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        level, hue, _ = render_flashes([1], "intensity", rng, hue_sigma=9.0)
        assert (level.tolist(), hue.tolist()) == ([DEFAULT_HIGH], [0.0])
        level, hue, _ = render_flashes([0], "hue", rng, intensity_sigma=9.0)
        assert (level.tolist(), hue.tolist()) == ([DEFAULT_HIGH], [240.0])
        assert rng.bit_generator.state == state

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            render_flashes([1], "laser", np.random.default_rng(0))


def one_flash_at_a_time(bits, pixels, scheme, rng, level_sigma, pixel_sigma):
    """render_flashes as scalar draws, flash by flash: level or hue, row, col."""
    out = []
    for bit, (row, col) in zip(bits, pixels):
        if scheme == "intensity":
            level, hue = DEFAULT_HIGH if bit else DEFAULT_LOW, 0.0
            if level_sigma:
                level += rng.normal(0.0, level_sigma)
        else:
            level, hue = DEFAULT_HIGH, 0.0 if bit else 240.0
            if level_sigma:
                hue = (hue + rng.normal(0.0, level_sigma)) % 360.0
        if pixel_sigma:
            row += rng.normal(0.0, pixel_sigma)
            col += rng.normal(0.0, pixel_sigma)
        out.append((level, hue, row, col))
    return out


class TestRenderFlashes:
    @pytest.mark.parametrize("scheme", ["intensity", "hue"])
    @pytest.mark.parametrize("level_sigma", [0.0, 30.0])
    @pytest.mark.parametrize("pixel_sigma", [0.0, 0.3])
    def test_block_draw_is_the_scalar_draws(self, scheme, level_sigma, pixel_sigma):
        """One (V, d) draw over the nonzero sigmas is, bitwise, the scalar
        rng.normal(0.0, sigma) calls of each flash in turn, and leaves the
        generator where they leave it."""
        bits = np.random.default_rng(2).integers(0, 2, 57)
        pixels = np.random.default_rng(3).uniform(0.0, 480.0, (57, 2))
        sigmas = {"intensity_sigma": level_sigma} if scheme == "intensity" else {
            "hue_sigma": level_sigma}
        block, scalar = np.random.default_rng(11), np.random.default_rng(11)
        levels, hues, moved = render_flashes(
            bits, scheme, block, pixel_sigma=pixel_sigma, pixels=pixels, **sigmas)
        want = one_flash_at_a_time(bits.tolist(), pixels.tolist(), scheme, scalar,
                                   level_sigma, pixel_sigma)
        assert list(zip(levels.tolist(), hues.tolist(), *moved.T.tolist())) == want
        assert block.bit_generator.state == scalar.bit_generator.state

    def test_other_scheme_sigma_draws_nothing(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        render_flashes([1, 0, 1], "intensity", rng, hue_sigma=9.0)
        render_flashes([1, 0, 1], "hue", rng, intensity_sigma=9.0)
        render_flashes([], "hue", rng, hue_sigma=9.0, pixel_sigma=1.0)
        assert rng.bit_generator.state == state

    def test_render_sample_is_a_block_of_one(self):
        rng, one = np.random.default_rng(6), np.random.default_rng(6)
        levels, hues, _ = render_flashes([1, 0, 0], "hue", rng, hue_sigma=40.0)
        blocks = [render_flashes([b], "hue", one, hue_sigma=40.0)[:2] for b in (1, 0, 0)]
        assert [(level[0], hue[0]) for level, hue in blocks] == list(
            zip(levels.tolist(), hues.tolist()))


class TestCountDriftEventsArrays:
    def test_float_indices_count_as_ints(self):
        got = count_drift_events(np.array([3.0, 4.0, 4.0, 7.0, 8.0]))
        assert got == (1, 2) and all(type(n) is int for n in got)

    def test_empty_and_single(self):
        assert count_drift_events([]) == count_drift_events([5]) == (0, 0)
