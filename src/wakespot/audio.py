"""Log-Mel filterbank front end: WAV input, framing, stacking.

The front end is a fixed fixture contract so that features and
posteriorgrams are reproducible bit-for-bit across machines:

* input: 16 kHz mono PCM16 WAV only
* 25 ms Hamming window, 10 ms hop (400 / 160 samples)
* pre-emphasis 0.97 on the waveform, first sample kept as-is
* 512-point FFT, power spectrum ``|X|^2``
* 41 triangular filters on the HTK Mel scale spanning 0..8000 Hz
* natural log, filterbank energies floored at 1e-10
* no per-utterance mean or variance normalization (keeps streaming causal)

Frame stacking lays frames 2k and 2k+1 side by side as row k, a row-major
reshape that the streaming detector also writes, so downstream recurrent
models run at 50 Hz instead of 100 Hz; a trailing unpaired frame is dropped.

One kernel computes the features of every whole window on the hop grid of a
contiguous span of int16 or float64 samples: pre-emphasis once on the
span's waveform (given the sample before it), then its :func:`hop_windows`
through the Hamming window, FFT, filterbank and log. :func:`extract_fbank`
runs it on a whole recording, and the streaming step :func:`frame_fbank`
on a shorter span: the detector's stacked pair, a 560-sample slice of its
buffer. An emphasized sample depends only on its sample and the one
before, and a window's features only on its own emphasized samples, so
:func:`frame_fbank` gives the matching batch rows bit for bit.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError

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

BASE_DIM = NUM_FILTERS
STACKED_DIM = 2 * NUM_FILTERS


def pcm16(samples) -> np.ndarray:
    """``samples`` as int16, by the one rule for what a sample is: an integer
    in the int16 range, in a 1-D array. Anything else, a whole-number float
    or a bool too, raises ``ValueError``; an int16 array comes back as is."""
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValueError(f"audio must be mono 1-D, got shape {samples.shape}")
    if samples.dtype == np.int16:
        return samples
    if not np.issubdtype(samples.dtype, np.integer):
        raise ValueError(f"audio samples must be integer PCM, got {samples.dtype}")
    if samples.size and (samples.min() < -32768 or samples.max() > 32767):
        raise ValueError("integer samples exceed the int16 range")
    return samples.astype(np.int16)


@dataclass(frozen=True)
class AudioBuffer:
    """Mono 16 kHz PCM16 audio; :func:`pcm16` decides what a sample is."""

    samples: np.ndarray

    def __post_init__(self):
        # C order, so that hop_windows can view one channel of a stereo array too
        object.__setattr__(self, "samples", np.ascontiguousarray(pcm16(self.samples)))


@dataclass(frozen=True)
class FeatureSequence:
    """A T x d matrix of log-Mel features: d=41 frames at 100 Hz, or d=82
    stacked frames at 50 Hz. The width alone fixes the rate."""

    frames: np.ndarray

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        object.__setattr__(self, "frames", frames)
        if frames.ndim != 2:
            raise ValueError(f"frames must be 2-D, got shape {frames.shape}")
        if not np.all(np.isfinite(frames)):
            raise ValueError("feature values must be finite")
        if frames.shape[1] not in (BASE_DIM, STACKED_DIM):
            raise ValueError(f"features must have dim {BASE_DIM} or {STACKED_DIM}, got {frames.shape[1]}")

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
                raise FileFormatError(f"{path}: compressed WAV not supported")
            if wav.getsampwidth() != 2:
                raise FileFormatError(f"{path}: expected 16-bit PCM, got {8 * wav.getsampwidth()}-bit")
            if wav.getnchannels() != 1:
                raise FileFormatError(f"{path}: expected mono, got {wav.getnchannels()} channels")
            if wav.getframerate() != SAMPLE_RATE:
                raise FileFormatError(f"{path}: expected {SAMPLE_RATE} Hz, got {wav.getframerate()}")
            expected = 2 * wav.getnframes()
            raw = wav.readframes(wav.getnframes())
    except (wave.Error, EOFError, RuntimeError) as exc:  # how the wave module meets corrupt chunks
        raise FileFormatError(f"{path}: not a readable WAV file ({exc})") from exc
    if len(raw) != expected:  # readframes returns what is there, even a cut on a sample boundary
        raise FileFormatError(f"{path}: WAV data holds {len(raw)} bytes, its header says {expected}")
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
        raise ValueError(
            f"audio too short: {num_samples} samples, need at least {WINDOW_SAMPLES}"
        )
    return 1 + (num_samples - WINDOW_SAMPLES) // HOP_SAMPLES


def hop_windows(samples: np.ndarray) -> np.ndarray:
    """The windows on the hop grid of C-contiguous 1-D ``samples`` (at least
    400) as rows of a strided view; sliding_window_view takes longer than a
    pair's whole FFT call."""
    n = 1 + (len(samples) - WINDOW_SAMPLES) // HOP_SAMPLES
    step = samples.itemsize
    return np.ndarray((n, WINDOW_SAMPLES), samples.dtype, samples, 0, (HOP_SAMPLES * step, step))


def _fbank(span: np.ndarray, prev: float) -> np.ndarray:
    """Log-Mel features of the whole windows on the hop grid of the
    contiguous ``span`` of at least 400 int16 or float64 samples (samples
    after the last whole window are ignored); ``prev`` is the sample before
    it (0.0 at the start of a recording or segment).

    Pre-emphasis runs once on the waveform, ``e[k] = x[k] - 0.97 * x[k-1]``
    in float64 (exact for int16 x) with the product rounded before the
    difference. The windows of ``e`` are Hamming-weighted into a zero-padded
    ``(n, 512)`` array for the FFT. Each spectrum meets the filterbank in its
    own vector-matrix product: a matrix-matrix product over all frames rounds
    differently in the last bits.
    """
    emphasized = np.empty(len(span))
    emphasized[0] = prev
    emphasized[1:] = span[:-1]
    emphasized *= PREEMPHASIS
    np.subtract(span, emphasized, out=emphasized)
    windows = hop_windows(emphasized)
    padded = np.zeros((len(windows), FFT_SIZE))
    np.multiply(windows, _HAMMING, out=padded[:, :WINDOW_SAMPLES])
    power = np.abs(np.fft.rfft(padded))
    np.square(power, out=power)  # in place; the bits of ** 2
    energies = np.matmul(power[:, None, :], _FILTERS.T)[:, 0, :]
    np.maximum(energies, ENERGY_FLOOR, out=energies)
    return np.log(energies, out=energies)


def frame_fbank(span: np.ndarray, prev: float) -> np.ndarray:
    """Features of the windows on the hop grid of ``span``, ``400 + 160 * k``
    consecutive samples: the ``k + 1`` matching rows of :func:`extract_fbank`.

    ``prev`` is the waveform sample immediately before the span (0.0 at the
    very start), used by the pre-emphasis filter. The streaming detector
    passes a stacked pair's 560 samples in one call.
    """
    x = np.ascontiguousarray(span, dtype=np.float64)
    if x.ndim != 1 or x.size < WINDOW_SAMPLES or (x.size - WINDOW_SAMPLES) % HOP_SAMPLES:
        raise ValueError(
            f"a span must hold {WINDOW_SAMPLES} + {HOP_SAMPLES}k samples, got shape {x.shape}"
        )
    return _fbank(x, prev)


def extract_fbank(audio: AudioBuffer) -> FeatureSequence:
    """Convert audio to T x 41 log-Mel energies at 100 Hz."""
    num_feature_frames(len(audio.samples))  # refuses a recording shorter than a window
    return FeatureSequence(_fbank(audio.samples, 0.0))


def stack_frames(features: FeatureSequence) -> FeatureSequence:
    """Row k is frame 2k followed by frame 2k+1, halving the rate from 100 to
    50 Hz: a reshape of the leading whole pairs, so a view of the input's
    frames when they are C-contiguous."""
    if features.dim != BASE_DIM:
        raise ValueError("stack_frames expects unstacked 100 Hz / 41-dim features")
    pairs = features.num_frames // 2
    return FeatureSequence(features.frames[: 2 * pairs].reshape(pairs, STACKED_DIM))
