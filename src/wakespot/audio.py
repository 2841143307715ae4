"""Log-Mel filterbank front end: WAV input, framing, stacking.

The front end is a fixed fixture contract so that features and
posteriorgrams are reproducible bit-for-bit across machines:

* input: 16 kHz mono PCM16 WAV only
* 25 ms Hamming window, 10 ms hop (400 / 160 samples); :func:`hop_windows`
  is the one framing of that grid, for the filterbank and the VAD alike
* pre-emphasis 0.97 on the waveform, first sample kept as-is
* 512-point FFT, power spectrum ``|X|^2``
* 41 triangular filters on the HTK Mel scale spanning 0..8000 Hz
* natural log, filterbank energies floored at 1e-10
* no per-utterance mean or variance normalization (keeps streaming causal)

Frame stacking concatenates consecutive frame pairs so downstream recurrent
models run at 50 Hz instead of 100 Hz; a trailing unpaired frame is dropped.

The streaming step :func:`frame_fbank` is the batch kernel of
:func:`extract_fbank` applied to one window or a small stack of them, so
its output is the matching batch rows bit for bit.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AudioError

SAMPLE_RATE = 16000
WINDOW_SAMPLES = 400  # 25 ms
HOP_SAMPLES = 160  # 10 ms
FFT_SIZE = 512
NUM_FILTERS = 41
PREEMPHASIS = 0.97
ENERGY_FLOOR = 1e-10
LOG_FLOOR = float(np.log(ENERGY_FLOOR))
MEL_LOW_HZ = 0.0
MEL_HIGH_HZ = 8000.0

BASE_FRAME_RATE = 100
BASE_DIM = NUM_FILTERS
STACKED_FRAME_RATE = 50
STACKED_DIM = 2 * NUM_FILTERS


@dataclass(frozen=True)
class AudioBuffer:
    """Mono 16 kHz PCM16 audio."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.ndim != 1:
            raise AudioError(f"audio must be mono 1-D, got shape {samples.shape}")
        if samples.dtype != np.int16:
            if not np.issubdtype(samples.dtype, np.integer):
                raise AudioError(f"audio samples must be integer PCM, got {samples.dtype}")
            if samples.size and (samples.min() < -32768 or samples.max() > 32767):
                raise AudioError("integer samples exceed the int16 range")
            samples = samples.astype(np.int16)
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class FeatureSequence:
    """A T x d matrix of log-Mel features at 100 Hz (d=41) or 50 Hz (d=82)."""

    frames: np.ndarray
    frame_rate: int

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        object.__setattr__(self, "frames", frames)
        if frames.ndim != 2:
            raise ValueError(f"frames must be 2-D, got shape {frames.shape}")
        if not np.all(np.isfinite(frames)):
            raise ValueError("feature values must be finite")
        pairing = {BASE_FRAME_RATE: BASE_DIM, STACKED_FRAME_RATE: STACKED_DIM}
        if self.frame_rate not in pairing:
            raise ValueError(f"frame rate must be one of {sorted(pairing)}, got {self.frame_rate}")
        if frames.shape[1] != pairing[self.frame_rate]:
            raise ValueError(
                f"{self.frame_rate} Hz features must have dim {pairing[self.frame_rate]}, "
                f"got {frames.shape[1]}"
            )

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def read_wav(path) -> AudioBuffer:
    """Read a RIFF PCM16 mono 16 kHz WAV file; anything else is rejected."""
    try:
        with wave.open(str(path), "rb") as wav:
            if wav.getcomptype() != "NONE":
                raise AudioError(f"{path}: compressed WAV not supported")
            if wav.getsampwidth() != 2:
                raise AudioError(f"{path}: expected 16-bit PCM, got {8 * wav.getsampwidth()}-bit")
            if wav.getnchannels() != 1:
                raise AudioError(f"{path}: expected mono, got {wav.getnchannels()} channels")
            if wav.getframerate() != SAMPLE_RATE:
                raise AudioError(f"{path}: expected {SAMPLE_RATE} Hz, got {wav.getframerate()}")
            expected = 2 * wav.getnframes()
            raw = wav.readframes(wav.getnframes())
    except (wave.Error, EOFError, RuntimeError) as exc:  # how the wave module meets corrupt chunks
        raise AudioError(f"{path}: not a readable WAV file ({exc})") from exc
    if len(raw) != expected:  # readframes returns what is there, even a cut on a sample boundary
        raise AudioError(f"{path}: WAV data holds {len(raw)} bytes, its header says {expected}")
    samples = np.frombuffer(raw, dtype="<i2")
    return AudioBuffer(samples)


def write_wav(path, audio: AudioBuffer) -> None:
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(SAMPLE_RATE)
        wav.writeframes(audio.samples.astype("<i2").tobytes())


def _hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def _mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def _mel_points() -> np.ndarray:
    return np.linspace(_hz_to_mel(MEL_LOW_HZ), _hz_to_mel(MEL_HIGH_HZ), NUM_FILTERS + 2)


def mel_filterbank() -> np.ndarray:
    """Triangular Mel filters as a (NUM_FILTERS, FFT_SIZE // 2 + 1) = (41, 257) matrix."""
    bins = np.floor((FFT_SIZE + 1) * _mel_to_hz(_mel_points()) / SAMPLE_RATE).astype(int)
    bank = np.zeros((NUM_FILTERS, FFT_SIZE // 2 + 1))
    for m in range(NUM_FILTERS):
        lo, center, hi = bins[m], bins[m + 1], bins[m + 2]
        for k in range(lo, center):
            bank[m, k] = (k - lo) / max(center - lo, 1)
        for k in range(center, hi):
            bank[m, k] = (hi - k) / max(hi - center, 1)
    return bank


def mel_center_frequencies() -> np.ndarray:
    """Center frequency in Hz of each of the NUM_FILTERS Mel filters."""
    return _mel_to_hz(_mel_points())[1:-1]


_FILTERS = mel_filterbank()
_HAMMING = np.hamming(WINDOW_SAMPLES)


def num_feature_frames(num_samples: int) -> int:
    """Frame count for an S-sample input: 1 + floor((S - 400) / 160)."""
    if num_samples < WINDOW_SAMPLES:
        raise AudioError(
            f"audio too short: {num_samples} samples, need at least {WINDOW_SAMPLES}"
        )
    return 1 + (num_samples - WINDOW_SAMPLES) // HOP_SAMPLES


def _fbank(windows: np.ndarray, prev: np.ndarray | float) -> np.ndarray:
    """Log-Mel features of float64 windows (last axis); ``prev`` is the
    sample before each window: a float for one window, a vector for a stack.
    Each spectrum meets the filterbank in its own vector-matrix product: a
    matrix-matrix product over all frames rounds differently in the last bits.
    """
    emphasized = np.empty_like(windows)  # pre-emphasis in one buffer: one copy of a stack
    emphasized[..., 0] = prev
    emphasized[..., 1:] = windows[..., :-1]
    emphasized *= PREEMPHASIS
    np.subtract(windows, emphasized, out=emphasized)
    power = np.abs(np.fft.rfft(emphasized * _HAMMING, FFT_SIZE)) ** 2
    energies = np.matmul(power[..., None, :], _FILTERS.T)[..., 0, :]
    return np.log(np.maximum(energies, ENERGY_FLOOR))


def frame_fbank(windows: np.ndarray, prev: np.ndarray | float) -> np.ndarray:
    """Features of one 400-sample window, or of a ``(n, 400)`` stack of
    windows: the matching rows of :func:`extract_fbank`.

    ``prev`` is the waveform sample immediately before each window (0.0 at
    the very start), used by the pre-emphasis filter: a float for one
    window, one sample per window for a stack. The streaming detector
    passes the two windows of a stacked pair in one call.
    """
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim not in (1, 2) or w.shape[-1] != WINDOW_SAMPLES:
        raise ValueError(f"windows must have {WINDOW_SAMPLES} samples each, got {w.shape}")
    return _fbank(w, prev)


def hop_windows(x: np.ndarray) -> np.ndarray:
    """The 400-sample windows of ``x`` on the 160-sample hop grid: a
    read-only (T, 400) view, T = :func:`num_feature_frames` of ``len(x)``."""
    return sliding_window_view(x, WINDOW_SAMPLES)[::HOP_SAMPLES]


def extract_fbank(audio: AudioBuffer) -> FeatureSequence:
    """Convert audio to T x 41 log-Mel energies at 100 Hz."""
    x = audio.samples.astype(np.float64)
    prev = np.zeros(num_feature_frames(len(x)))
    windows = hop_windows(x)
    prev[1:] = windows[:-1, HOP_SAMPLES - 1]  # the sample before each later window
    return FeatureSequence(_fbank(windows, prev), BASE_FRAME_RATE)


def stack_frames(features: FeatureSequence) -> FeatureSequence:
    """Concatenate frame pairs (2k, 2k+1); halves the rate from 100 to 50 Hz."""
    if features.frame_rate != BASE_FRAME_RATE or features.dim != BASE_DIM:
        raise ValueError("stack_frames expects unstacked 100 Hz / 41-dim features")
    pairs = features.num_frames // 2
    stacked = np.concatenate(
        [features.frames[0 : 2 * pairs : 2], features.frames[1 : 2 * pairs : 2]], axis=1
    )
    return FeatureSequence(stacked, STACKED_FRAME_RATE)
