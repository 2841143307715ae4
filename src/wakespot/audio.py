"""Log-Mel filterbank front end: WAV input, framing, stacking, feature files.

The front end is a fixed fixture contract so that serialized features and
posteriorgrams are reproducible bit-for-bit across machines:

* input: 16 kHz mono PCM16 WAV only
* 25 ms Hamming window, 10 ms hop (400 / 160 samples)
* pre-emphasis 0.97 on the waveform, first sample kept as-is
* 512-point FFT, power spectrum ``|X|^2``
* 41 triangular filters on the HTK Mel scale spanning 0..8000 Hz
* natural log, filterbank energies floored at 1e-10
* no per-utterance mean or variance normalization (keeps streaming causal)

Frame stacking concatenates consecutive frame pairs so downstream recurrent
models run at 50 Hz instead of 100 Hz; a trailing unpaired frame is dropped.

Feature file (a :mod:`wakespot.container`, magic ``WSFB``, version 1):

    fields: u32 T, u32 d, u32 frame rate
    parts : the T x d frames
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from . import container
from .errors import AudioError, DimensionError, NonFiniteError

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

_FEATURE_MAGIC = b"WSFB"
_FEATURE_VERSION = 1


@dataclass(frozen=True)
class AudioBuffer:
    """Mono 16 kHz PCM16 audio."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

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
        if self.sample_rate != SAMPLE_RATE:
            raise AudioError(f"sample rate must be {SAMPLE_RATE} Hz, got {self.sample_rate}")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


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
        wav.setframerate(audio.sample_rate)
        wav.writeframes(audio.samples.astype("<i2").tobytes())


def _hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def _mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    num_filters: int = NUM_FILTERS,
    fft_size: int = FFT_SIZE,
    sample_rate: int = SAMPLE_RATE,
    low_hz: float = MEL_LOW_HZ,
    high_hz: float = MEL_HIGH_HZ,
) -> np.ndarray:
    """Triangular Mel filters as a (num_filters, fft_size//2 + 1) matrix."""
    mel_points = np.linspace(_hz_to_mel(low_hz), _hz_to_mel(high_hz), num_filters + 2)
    bins = np.floor((fft_size + 1) * _mel_to_hz(mel_points) / sample_rate).astype(int)
    bank = np.zeros((num_filters, fft_size // 2 + 1))
    for m in range(num_filters):
        lo, center, hi = bins[m], bins[m + 1], bins[m + 2]
        for k in range(lo, center):
            bank[m, k] = (k - lo) / max(center - lo, 1)
        for k in range(center, hi):
            bank[m, k] = (hi - k) / max(hi - center, 1)
    return bank


def mel_center_frequencies(
    num_filters: int = NUM_FILTERS,
    low_hz: float = MEL_LOW_HZ,
    high_hz: float = MEL_HIGH_HZ,
) -> np.ndarray:
    """Center frequency in Hz of each Mel filter."""
    mel_points = np.linspace(_hz_to_mel(low_hz), _hz_to_mel(high_hz), num_filters + 2)
    return _mel_to_hz(mel_points)[1:-1]


_filters_cache: np.ndarray | None = None
_window_cache: np.ndarray | None = None


def _filters() -> np.ndarray:
    global _filters_cache
    if _filters_cache is None:
        _filters_cache = mel_filterbank()
    return _filters_cache


def _hamming() -> np.ndarray:
    global _window_cache
    if _window_cache is None:
        _window_cache = np.hamming(WINDOW_SAMPLES)
    return _window_cache


def num_feature_frames(num_samples: int) -> int:
    """Frame count for an S-sample input: 1 + floor((S - 400) / 160)."""
    if num_samples < WINDOW_SAMPLES:
        raise AudioError(
            f"audio too short: {num_samples} samples, need at least {WINDOW_SAMPLES}"
        )
    return 1 + (num_samples - WINDOW_SAMPLES) // HOP_SAMPLES


def _power_to_logmel(power: np.ndarray) -> np.ndarray:
    """Log-Mel energies of one power spectrum or of a stack of them.

    Each row is its own vector-matrix product: a matrix-matrix product
    over all frames rounds differently in the last bits, and streaming
    (one frame at a time) must equal batch extraction exactly.
    """
    energies = np.matmul(power[..., None, :], _filters().T)[..., 0, :]
    return np.log(np.maximum(energies, ENERGY_FLOOR))


def frame_fbank(window: np.ndarray, prev_sample: float) -> np.ndarray:
    """Features for a single 400-sample window.

    ``prev_sample`` is the waveform sample immediately before the window
    (0.0 at the very start), used by the pre-emphasis filter. This is the
    streaming featurizer's primitive; each of its outputs is bit-equal to
    the corresponding row of :func:`extract_fbank`, which applies the same
    per-frame arithmetic to all frames at once.
    """
    w = np.asarray(window, dtype=np.float64)
    if w.shape != (WINDOW_SAMPLES,):
        raise ValueError(f"window must have {WINDOW_SAMPLES} samples, got {w.shape}")
    emphasized = w.copy()
    emphasized[1:] -= PREEMPHASIS * w[:-1]
    emphasized[0] -= PREEMPHASIS * prev_sample
    power = np.abs(np.fft.rfft(emphasized * _hamming(), FFT_SIZE)) ** 2
    return _power_to_logmel(power)


def extract_fbank(audio: AudioBuffer) -> FeatureSequence:
    """Convert audio to T x 41 log-Mel energies at 100 Hz."""
    x = audio.samples.astype(np.float64)
    count = num_feature_frames(len(x))
    starts = HOP_SAMPLES * np.arange(count)
    frames = x[starts[:, None] + np.arange(WINDOW_SAMPLES)[None, :]]
    prev = np.zeros(count)
    prev[1:] = x[starts[1:] - 1]
    emphasized = frames.copy()
    emphasized[:, 1:] -= PREEMPHASIS * frames[:, :-1]
    emphasized[:, 0] -= PREEMPHASIS * prev
    power = np.abs(np.fft.rfft(emphasized * _hamming(), FFT_SIZE, axis=-1)) ** 2
    return FeatureSequence(_power_to_logmel(power), BASE_FRAME_RATE)


def stack_frames(features: FeatureSequence) -> FeatureSequence:
    """Concatenate frame pairs (2k, 2k+1); halves the rate from 100 to 50 Hz."""
    if features.frame_rate != BASE_FRAME_RATE or features.dim != BASE_DIM:
        raise ValueError("stack_frames expects unstacked 100 Hz / 41-dim features")
    pairs = features.num_frames // 2
    stacked = np.concatenate(
        [features.frames[0 : 2 * pairs : 2], features.frames[1 : 2 * pairs : 2]], axis=1
    )
    return FeatureSequence(stacked, STACKED_FRAME_RATE)


def save_features(path, features: FeatureSequence) -> None:
    """Write a feature file (see the module docstring)."""
    container.write(
        path,
        _FEATURE_MAGIC,
        _FEATURE_VERSION,
        (features.num_frames, features.dim, features.frame_rate),
        [features.frames],
    )


def load_features(path) -> FeatureSequence:
    reader = container.Reader(path, _FEATURE_MAGIC, _FEATURE_VERSION, 3, "feature")
    count, dim, rate = reader.fields
    frames = reader.matrix((count, dim))
    reader.end()
    if not np.all(np.isfinite(frames)):
        raise NonFiniteError(f"{path}: non-finite feature values")
    try:
        return FeatureSequence(frames, rate)
    except ValueError as exc:
        raise DimensionError(f"{path}: {exc}") from exc
