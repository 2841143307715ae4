import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wakespot.audio import (
    BASE_FRAME_RATE,
    FFT_SIZE,
    LOG_FLOOR,
    NUM_FILTERS,
    SAMPLE_RATE,
    AudioBuffer,
    FeatureSequence,
    extract_fbank,
    frame_fbank,
    load_features,
    mel_center_frequencies,
    mel_filterbank,
    num_feature_frames,
    read_wav,
    save_features,
    stack_frames,
    write_wav,
)
from wakespot.errors import AudioError, DimensionError, UnknownVersionError


def tone(freq=440.0, seconds=1.0, amp=8000.0):
    t = np.arange(int(seconds * 16000)) / 16000
    return AudioBuffer((amp * np.sin(2 * np.pi * freq * t)).astype(np.int16))


class TestAudioBuffer:
    def test_rejects_wrong_rate(self):
        with pytest.raises(AudioError):
            AudioBuffer(np.zeros(1000, dtype=np.int16), sample_rate=8000)

    def test_rejects_stereo(self):
        with pytest.raises(AudioError):
            AudioBuffer(np.zeros((100, 2), dtype=np.int16))

    def test_rejects_floats(self):
        with pytest.raises(AudioError):
            AudioBuffer(np.zeros(100, dtype=np.float64))

    def test_accepts_plain_ints(self):
        buf = AudioBuffer([0, 1, -5])
        assert buf.samples.dtype == np.int16


class TestFrameCount:
    def test_one_second_is_98_frames(self):
        assert num_feature_frames(16000) == 98

    def test_exactly_one_window(self):
        assert num_feature_frames(400) == 1

    def test_too_short_is_an_error(self):
        with pytest.raises(AudioError, match="too short"):
            num_feature_frames(399)

    @pytest.mark.parametrize("n", [400, 401, 559, 560, 561, 4000, 16000])
    def test_formula(self, n):
        assert num_feature_frames(n) == 1 + (n - 400) // 160


class TestExtractFbank:
    def test_shape_and_rate(self):
        feats = extract_fbank(tone())
        assert feats.frames.shape == (98, 41)
        assert feats.frame_rate == BASE_FRAME_RATE

    def test_all_zero_audio_hits_log_floor(self):
        feats = extract_fbank(AudioBuffer(np.zeros(1600, dtype=np.int16)))
        assert np.all(feats.frames == LOG_FLOOR)

    def test_too_short_error(self):
        with pytest.raises(AudioError, match="too short"):
            extract_fbank(AudioBuffer(np.zeros(399, dtype=np.int16)))

    def test_doubling_amplitude_shifts_by_log4(self):
        quiet = tone(amp=4000.0)
        loud = AudioBuffer((quiet.samples * 2).astype(np.int16))
        f_quiet = extract_fbank(quiet).frames
        f_loud = extract_fbank(loud).frames
        above_floor = (f_quiet > LOG_FLOOR + 1e-9) & (f_loud > LOG_FLOOR + 1e-9)
        assert above_floor.any()
        diff = f_loud[above_floor] - f_quiet[above_floor]
        assert np.allclose(diff, math.log(4.0), atol=1e-6)

    def test_matches_per_frame_primitive(self):
        # Tones plus noise over 1000+ frames: streaming features (one window
        # at a time) must be bit-equal to the batch rows.
        rng = np.random.default_rng(9)
        parts = [tone(freq, seconds=1.1).samples for freq in (180.0, 440.0, 1250.0, 3100.0, 6500.0)]
        parts += [tone(700.0, seconds=1.1, amp=120.0).samples, np.zeros(8000, dtype=np.int16)]
        signal = np.concatenate(parts * 2).astype(np.float64)
        noise = rng.normal(0.0, 300.0, signal.size)
        audio = AudioBuffer(np.clip(signal + noise, -32768, 32767).astype(np.int16))
        feats = extract_fbank(audio).frames
        assert feats.shape[0] >= 1000
        x = audio.samples.astype(np.float64)
        for t in range(feats.shape[0]):
            start = 160 * t
            prev = x[start - 1] if start else 0.0
            single = frame_fbank(x[start : start + 400], prev)
            assert np.array_equal(single, feats[t]), f"frame {t}"


    def test_a_stack_of_windows_gives_the_batch_rows(self):
        # the streaming detector's call: a stacked pair's two windows at once
        rng = np.random.default_rng(10)
        audio = AudioBuffer(rng.integers(-3000, 3000, size=4000).astype(np.int16))
        feats = extract_fbank(audio).frames
        x = audio.samples.astype(np.float64)
        for t in range(feats.shape[0] - 1):
            starts = (160 * t, 160 * (t + 1))
            windows = np.stack([x[s : s + 400] for s in starts])
            prev = np.array([x[s - 1] if s else 0.0 for s in starts])
            assert np.array_equal(frame_fbank(windows, prev), feats[t : t + 2]), f"frames {t}, {t + 1}"
        with pytest.raises(ValueError, match="400 samples"):
            frame_fbank(np.zeros((2, 399)), np.zeros(2))

@st.composite
def edge_audio(draw):
    """int16 audio of at least one window built from runs of exact zeros,
    of full scale (+32767 and -32768) and of noise."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    runs = {
        "zero": lambda n: np.zeros(n, dtype=np.int16),
        "max": lambda n: np.full(n, 32767, dtype=np.int16),
        "min": lambda n: np.full(n, -32768, dtype=np.int16),
        "noise": lambda n: rng.integers(-32768, 32768, size=n).astype(np.int16),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(runs)), min_size=1, max_size=8))
    parts = [runs[kind](draw(st.integers(1, 1200))) for kind in kinds]
    parts.append(np.zeros(max(0, 400 - sum(map(len, parts))), dtype=np.int16))
    return AudioBuffer(np.concatenate(parts))


@settings(max_examples=100, deadline=None)
@given(edge_audio())
def test_extract_fbank_rows_equal_frame_fbank_on_silence_and_full_scale(audio):
    feats = extract_fbank(audio).frames
    x = audio.samples.astype(np.float64)
    for t in range(feats.shape[0]):
        start = 160 * t
        prev = x[start - 1] if start else 0.0
        assert np.array_equal(frame_fbank(x[start : start + 400], prev), feats[t]), f"frame {t}"


class TestStackFrames:
    def test_even_count(self):
        stacked = stack_frames(extract_fbank(tone()))  # 98 -> 49
        assert stacked.frames.shape == (49, 82)
        assert stacked.frame_rate == 50

    def test_odd_count_drops_last(self):
        audio = AudioBuffer(np.zeros(400 + 160 * 98, dtype=np.int16))  # 99 frames
        feats = extract_fbank(audio)
        assert feats.num_frames == 99
        assert stack_frames(feats).num_frames == 49

    def test_first_row_is_concatenation(self):
        feats = extract_fbank(tone(seconds=0.2))
        stacked = stack_frames(feats)
        assert np.array_equal(stacked.frames[0], np.concatenate([feats.frames[0], feats.frames[1]]))

    def test_pure_reshape_of_leading_frames(self):
        feats = extract_fbank(tone(seconds=0.25))
        pairs = feats.num_frames // 2
        stacked = stack_frames(feats)
        assert np.array_equal(
            np.sort(stacked.frames.ravel()), np.sort(feats.frames[: 2 * pairs].ravel())
        )

    def test_double_stacking_rejected(self):
        stacked = stack_frames(extract_fbank(tone()))
        with pytest.raises(ValueError):
            stack_frames(stacked)


class TestFeatureSequenceInvariants:
    def test_rate_dim_pairing_enforced(self):
        with pytest.raises(ValueError):
            FeatureSequence(np.zeros((5, 82)), 100)
        with pytest.raises(ValueError):
            FeatureSequence(np.zeros((5, 41)), 50)
        with pytest.raises(ValueError):
            FeatureSequence(np.zeros((5, 41)), 60)

    def test_non_finite_rejected(self):
        frames = np.zeros((2, 41))
        frames[1, 3] = np.nan
        with pytest.raises(ValueError):
            FeatureSequence(frames, 100)


class TestMelFilterbank:
    def test_shape(self):
        assert mel_filterbank().shape == (41, 257)

    def test_filters_nonnegative_and_nonempty(self):
        bank = mel_filterbank()
        assert bank.min() >= 0.0
        assert (bank.sum(axis=1) > 0).all()

    def test_each_filter_peaks_on_the_bin_of_its_center_frequency(self):
        centers = mel_center_frequencies()
        assert centers.shape == (NUM_FILTERS,)
        assert 0.0 < centers[0] and centers[-1] < 8000.0
        assert (np.diff(centers) > 0.0).all()
        bank = mel_filterbank()
        peak_bins = np.floor((FFT_SIZE + 1) * centers / SAMPLE_RATE).astype(int)
        assert (bank.max(axis=1) == 1.0).all()
        assert bank.argmax(axis=1).tolist() == peak_bins.tolist()


class TestWavRoundTrip:
    def test_round_trip(self, tmp_path):
        audio = tone(seconds=0.05)
        path = tmp_path / "t.wav"
        write_wav(path, audio)
        back = read_wav(path)
        assert np.array_equal(back.samples, audio.samples)

    def test_rejects_wrong_rate(self, tmp_path):
        import wave

        path = tmp_path / "bad.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(b"\x00\x00" * 100)
        with pytest.raises(AudioError):
            read_wav(path)

    def test_rejects_stereo(self, tmp_path):
        import wave

        path = tmp_path / "bad.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(b"\x00\x00\x00\x00" * 100)
        with pytest.raises(AudioError):
            read_wav(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "not.wav"
        path.write_bytes(b"hello world, definitely not RIFF")
        with pytest.raises(AudioError):
            read_wav(path)


    def test_data_cut_on_a_sample_boundary_is_refused(self, tmp_path):
        path = tmp_path / "t.wav"
        write_wav(path, AudioBuffer(np.arange(-50, 50, dtype=np.int16)))
        data = path.read_bytes()
        assert len(data) == 244
        path.write_bytes(data[:242])  # 99 whole samples left of the 100 the header claims
        with pytest.raises(AudioError):
            read_wav(path)

    def test_truncations_and_header_bit_flips_load_or_raise_audio_error(self, tmp_path):
        # the wave module meets these with EOFError, RuntimeError, or odd-length data
        path = tmp_path / "t.wav"
        write_wav(path, AudioBuffer(np.arange(-50, 50, dtype=np.int16)))
        data = path.read_bytes()
        variants = [data[:n] for n in range(len(data))]
        for i in range(44):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[i] ^= 1 << bit
                variants.append(bytes(flipped))
        for variant in variants:
            path.write_bytes(variant)
            try:
                read_wav(path)
            except AudioError:
                pass


class TestFeatureFiles:
    def test_round_trip_float32_precision(self, tmp_path):
        feats = extract_fbank(tone(seconds=0.1))
        path = tmp_path / "f.feat"
        save_features(path, feats)
        back = load_features(path)
        assert back.frame_rate == feats.frame_rate
        assert np.allclose(back.frames, feats.frames, atol=1e-4)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.feat"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(UnknownVersionError):
            load_features(path)

    def test_truncated_payload(self, tmp_path):
        feats = extract_fbank(tone(seconds=0.1))
        path = tmp_path / "f.feat"
        save_features(path, feats)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(DimensionError):
            load_features(path)
