import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wakespot.audio import AudioBuffer, HOP_SAMPLES, SAMPLE_RATE, WINDOW_SAMPLES
from wakespot.vad import Vad, VadConfig, classify_frames, frame_dbfs, segment, span_samples, trim_to_speech

from conftest import edge_audio


def silence(n):
    return np.zeros(n, dtype=np.int16)


def square_wave(n, amp=32767):
    x = np.empty(n, dtype=np.int16)
    x[0::2] = amp
    x[1::2] = -amp
    return x


def burst_audio(lead_frames=30, burst_frames=20, trail_frames=40, amp=8000):
    """Silence, a tone burst, silence; lengths given in 10 ms hops."""
    lead = silence(lead_frames * HOP_SAMPLES)
    n = burst_frames * HOP_SAMPLES
    t = np.arange(n) / 16000.0
    burst = (amp * np.sin(2 * np.pi * 1000 * t)).astype(np.int16)
    trail = silence(trail_frames * HOP_SAMPLES + WINDOW_SAMPLES)
    return AudioBuffer(np.concatenate([lead, burst, trail]))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            VadConfig(hangover_frames=-1)
        with pytest.raises(ValueError):
            VadConfig(min_speech_frames=0)
        with pytest.raises(ValueError):
            VadConfig(energy_threshold_db=float("nan"))


class TestClassifyFrame:
    def test_zero_frame_is_nonspeech(self):
        assert not Vad().classify_frame(silence(WINDOW_SAMPLES))

    def test_full_scale_square_wave_is_speech(self):
        for threshold in (-60.0, -20.0, -1.0, -0.001):
            detector = Vad(VadConfig(energy_threshold_db=threshold))
            assert detector.classify_frame(square_wave(WINDOW_SAMPLES))

    def test_dbfs_of_silence_is_minus_inf(self):
        assert frame_dbfs(silence(WINDOW_SAMPLES)) == float("-inf")

    def test_dbfs_of_full_negative_scale_is_zero(self):
        assert frame_dbfs(np.full(WINDOW_SAMPLES, -32768, dtype=np.int16)) == 0.0

    def test_hangover_keeps_decision_high(self):
        detector = Vad(VadConfig(hangover_frames=3))
        assert detector.classify_frame(square_wave(WINDOW_SAMPLES, amp=20000))
        for _ in range(3):
            assert detector.classify_frame(silence(WINDOW_SAMPLES))
        assert not detector.classify_frame(silence(WINDOW_SAMPLES))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Vad().classify_frame(silence(WINDOW_SAMPLES - 1))


class TestSegment:
    def test_pure_silence(self):
        audio = AudioBuffer(silence(16000))
        assert segment(VadConfig(), audio) == []

    def test_single_burst_span(self):
        config = VadConfig(hangover_frames=5, min_speech_frames=5)
        audio = burst_audio(lead_frames=30, burst_frames=20, trail_frames=40)
        spans = segment(config, audio)
        assert len(spans) == 1
        start, end = spans[0]
        # the burst occupies stream frames [30, 50); windows overlapping its
        # start fire a little early, and hangover extends past the end
        raw_speech = [
            t
            for t, d in enumerate(classify_frames(VadConfig(hangover_frames=0, min_speech_frames=1), audio))
            if d
        ]
        assert start == raw_speech[0]
        assert end == raw_speech[-1] + 1 + config.hangover_frames
        lo, hi = span_samples(spans[0])
        assert lo == start * HOP_SAMPLES
        assert hi == (end - 1) * HOP_SAMPLES + WINDOW_SAMPLES

    def test_two_bursts_give_two_spans(self):
        config = VadConfig(hangover_frames=3, min_speech_frames=3)
        one = burst_audio(lead_frames=10, burst_frames=10, trail_frames=30)
        audio = AudioBuffer(np.concatenate([one.samples, one.samples]))
        spans = segment(config, audio)
        assert len(spans) == 2
        assert spans[0][1] <= spans[1][0]

    def test_short_blip_filtered_by_min_speech(self):
        config = VadConfig(hangover_frames=0, min_speech_frames=10)
        audio = burst_audio(lead_frames=10, burst_frames=3, trail_frames=20)
        assert segment(config, audio) == []

    def test_spans_disjoint_sorted_and_long_enough(self):
        rng = np.random.default_rng(5)
        noise = (rng.normal(0, 3000, 48000) * (rng.random(48000) > 0.5)).astype(np.int16)
        config = VadConfig(min_speech_frames=4, hangover_frames=2)
        spans = segment(config, AudioBuffer(noise))
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0
        for s, e in spans:
            assert e - s >= config.min_speech_frames

    def test_lower_threshold_never_shrinks_speech(self):
        rng = np.random.default_rng(9)
        audio = AudioBuffer((rng.normal(0, 2500, 32000)).astype(np.int16))
        loose = classify_frames(VadConfig(energy_threshold_db=-50.0), audio)
        tight = classify_frames(VadConfig(energy_threshold_db=-40.0), audio)
        for was_speech, still_speech in zip(tight, loose):
            if was_speech:
                assert still_speech


class TestTrim:
    def test_trims_to_speech_span(self):
        config = VadConfig(hangover_frames=2, min_speech_frames=5)
        audio = burst_audio()
        trimmed, found = trim_to_speech(config, audio)
        assert found
        assert len(trimmed.samples) < len(audio.samples)
        assert segment(config, trimmed)

    def test_silence_returns_input_unchanged(self):
        audio = AudioBuffer(silence(8000))
        trimmed, found = trim_to_speech(VadConfig(), audio)
        assert not found
        assert trimmed is audio


@st.composite
def vad_streams(draw):
    """Hops of silence, of a constant level exactly on the threshold, one
    step below it, or of noise, with a ragged tail; windows straddle them."""
    level = draw(st.integers(1, 20000))
    kinds = draw(st.lists(st.sampled_from(["zero", "on", "below", "noise"]), max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hops = {
        "zero": lambda: silence(HOP_SAMPLES),
        "on": lambda: np.full(HOP_SAMPLES, level, dtype=np.int16),
        "below": lambda: np.full(HOP_SAMPLES, level - 1, dtype=np.int16),
        "noise": lambda: rng.integers(-level, level + 1, size=HOP_SAMPLES).astype(np.int16),
    }
    parts = [hops[kind]() for kind in kinds]
    parts.append(silence(draw(st.integers(0, WINDOW_SAMPLES))))
    threshold = frame_dbfs(np.full(WINDOW_SAMPLES, level, dtype=np.int16))
    config = VadConfig(energy_threshold_db=threshold, hangover_frames=draw(st.integers(0, 5)))
    return config, AudioBuffer(np.concatenate(parts))


@settings(max_examples=150, deadline=None)
@given(vad_streams())
def test_classify_frames_equals_stepping_the_streaming_vad(case):
    config, audio = case
    detector = Vad(config)
    n = len(audio.samples)
    count = 1 + (n - WINDOW_SAMPLES) // HOP_SAMPLES if n >= WINDOW_SAMPLES else 0
    expected = [
        detector.classify_frame(audio.samples[t * HOP_SAMPLES : t * HOP_SAMPLES + WINDOW_SAMPLES])
        for t in range(count)
    ]
    assert classify_frames(config, audio) == expected


def test_frames_on_the_threshold_are_speech():
    level = 1234
    window = np.full(WINDOW_SAMPLES, level, dtype=np.int16)
    config = VadConfig(energy_threshold_db=frame_dbfs(window), hangover_frames=0)
    audio = AudioBuffer(np.concatenate([window, np.full(WINDOW_SAMPLES, level - 1, dtype=np.int16)]))
    decisions = classify_frames(config, audio)
    assert decisions[0] and not decisions[-1]


@settings(max_examples=40, deadline=None)
@given(edge_audio(), st.integers(0, 2))
def test_decisions_agree_with_every_frame_level_as_the_threshold(audio, hangover):
    # With a frame's own level as the threshold, that frame is speech only
    # if batch and streaming compute its level to the last bit.
    x = audio.samples
    windows = [x[s : s + WINDOW_SAMPLES] for s in range(0, len(x) - WINDOW_SAMPLES + 1, HOP_SAMPLES)]
    for level in sorted({frame_dbfs(w) for w in windows}):
        config = VadConfig(energy_threshold_db=level, hangover_frames=hangover)
        detector = Vad(config)
        expected = [detector.classify_frame(w) for w in windows]
        assert classify_frames(config, audio) == expected, f"threshold {level!r}"


def test_batch_scratch_memory_does_not_grow_with_the_recording():
    # the decisions and one float64 energy per 160-sample hop: about 0.3 bytes a sample
    noise = np.random.default_rng(0).integers(-32768, 32768, 60 * SAMPLE_RATE, dtype=np.int16)
    audio = AudioBuffer(noise)
    tracemalloc.start()
    try:
        classify_frames(VadConfig(), audio)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / len(noise) < 1.0, f"{peak / len(noise):.2f} bytes per sample"
