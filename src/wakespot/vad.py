"""Energy-based voice activity detection with hangover.

A frame (one 25 ms window on the 10 ms hop grid) counts as speech when its
RMS level in dBFS reaches the threshold; the decision is then held high for
``hangover_frames`` further frames. Utterance spans are maximal runs of
speech-classified frames of at least ``min_speech_frames``.

A window's level is ``10 log10(S / 400 / 2**30)`` dBFS, where S is the sum
of its 400 squared integer samples. Samples are integers with
``|x| <= 2**15``, so a square is at most ``2**30`` and every partial sum of
a window's squares is an integer below ``400 * 2**30 < 2**39``. Integers
below ``2**53`` are exact in float64, so a float64 dot product of a window
with itself gives S exactly, in whatever order it sums: the streaming
:func:`frame_dbfs` takes it of one window, and the batch
:func:`classify_frames` of every :func:`audio.hop_windows` row of the int16
samples at once. Both then divide S by 400, one rounding, and by ``2**30``,
which is exact because the quotient is far above the subnormal range. So
streaming and batch decisions agree bit for bit. They are also the bits of
the earlier float formula ``sum((x / 2**15)**2) / 400``: its sum is exactly
``S * 2**-30``, and dividing by 400 rounds the same value at a scale a power
of two apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio import HOP_SAMPLES, WINDOW_SAMPLES, AudioBuffer, hop_windows

FULL_SCALE = 32768.0
_FULL_SCALE_POWER = FULL_SCALE * FULL_SCALE  # 2**30, exact


@dataclass(frozen=True)
class VadConfig:
    energy_threshold_db: float = -40.0
    hangover_frames: int = 20
    min_speech_frames: int = 10

    def __post_init__(self):
        if math.isnan(self.energy_threshold_db):
            raise ValueError("energy_threshold_db may not be nan")
        if self.hangover_frames < 0:
            raise ValueError("hangover_frames must be >= 0")
        if self.min_speech_frames < 1:
            raise ValueError("min_speech_frames must be >= 1")


def frame_dbfs(frame: np.ndarray) -> float:
    """RMS level of a window of integer samples relative to int16 full
    scale; -inf for silence."""
    x = np.asarray(frame, dtype=np.float64)
    return _dbfs(float(np.dot(x, x)), x.size)


def _dbfs(sum_of_squares: float, count: int) -> float:
    """Level of ``count`` samples whose squares sum to ``sum_of_squares``."""
    if sum_of_squares <= 0.0:
        return float("-inf")
    return 10.0 * math.log10(sum_of_squares / count / _FULL_SCALE_POWER)


class Vad:
    """Streaming frame classifier; one instance per audio stream."""

    def __init__(self, config: VadConfig | None = None):
        self.config = config or VadConfig()
        self._hang = 0

    def classify_frame(self, frame: np.ndarray) -> bool:
        frame = np.asarray(frame)
        if frame.shape != (WINDOW_SAMPLES,):
            raise ValueError(f"VAD frames must have {WINDOW_SAMPLES} samples, got {frame.shape}")
        return self._decide(frame_dbfs(frame))

    @property
    def hangover_left(self) -> int:
        """Frames the hangover will still classify as speech however quiet
        they are: 0 means the next quiet frame ends the speech run."""
        return self._hang

    def _decide(self, dbfs: float) -> bool:
        if dbfs >= self.config.energy_threshold_db:
            self._hang = self.config.hangover_frames
            return True
        if self._hang > 0:
            self._hang -= 1
            return True
        return False


def classify_frames(config: VadConfig, audio: AudioBuffer) -> list[bool]:
    """Per-frame speech decisions (hangover applied) on the hop grid; equal
    to stepping ``Vad(config).classify_frame`` over the windows."""
    if len(audio.samples) < WINDOW_SAMPLES:
        return []
    windows = hop_windows(audio.samples)
    sums = np.einsum("ij,ij->i", windows, windows, dtype=np.float64)
    detector = Vad(config)
    return [detector._decide(_dbfs(s, WINDOW_SAMPLES)) for s in sums.tolist()]


def segment(config: VadConfig, audio: AudioBuffer) -> list[tuple[int, int]]:
    """Utterance spans as (start_frame, end_frame) pairs, end exclusive."""
    decisions = classify_frames(config, audio)
    spans = []
    start = None
    for t, speech in enumerate(decisions):
        if speech and start is None:
            start = t
        elif not speech and start is not None:
            if t - start >= config.min_speech_frames:
                spans.append((start, t))
            start = None
    if start is not None and len(decisions) - start >= config.min_speech_frames:
        spans.append((start, len(decisions)))
    return spans


def span_samples(span: tuple[int, int]) -> tuple[int, int]:
    """Sample range covered by a frame span (end exclusive)."""
    start_frame, end_frame = span
    return start_frame * HOP_SAMPLES, (end_frame - 1) * HOP_SAMPLES + WINDOW_SAMPLES


def trim_to_speech(config: VadConfig, audio: AudioBuffer) -> tuple[AudioBuffer, bool]:
    """Trim to the span from the first to the last detected utterance; the
    benchmark's enrollment uses it, and no command does. Returns (audio,
    trimmed): the input unchanged and False when the VAD finds no speech.
    """
    spans = segment(config, audio)
    if not spans:
        return audio, False
    lo, _ = span_samples(spans[0])
    _, hi = span_samples(spans[-1])
    return AudioBuffer(audio.samples[lo:hi]), True
