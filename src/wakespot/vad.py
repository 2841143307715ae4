"""Energy-based voice activity detection with hangover.

A frame (one 25 ms window on the 10 ms hop grid) counts as speech when its
RMS level in dBFS reaches the threshold; the decision is then held high for
``hangover_frames`` further frames. Utterance spans are maximal runs of
speech-classified frames of at least ``min_speech_frames``.

The streaming level :func:`frame_dbfs` is the batch kernel of
:func:`classify_frames` (the mean square of each window) applied to one
window, so streaming and batch decisions agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio import HOP_SAMPLES, WINDOW_SAMPLES, AudioBuffer, hop_windows

FULL_SCALE = 32768.0
_BLOCK_FRAMES = 1024  # bounds the squared window copy classify_frames makes on long audio


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


def _mean_square(x: np.ndarray) -> np.ndarray:
    """Mean square of each window (last axis) of samples scaled to full scale 1."""
    return np.add.reduce(x * x, axis=-1) / x.shape[-1]  # np.mean's steps, without its wrapper


def frame_dbfs(frame: np.ndarray) -> float:
    """RMS level of a window relative to int16 full scale; -inf for silence."""
    return _dbfs(float(_mean_square(np.asarray(frame, dtype=np.float64) / FULL_SCALE)))


def _dbfs(mean_square: float) -> float:
    if mean_square <= 0.0:
        return float("-inf")
    return 10.0 * math.log10(mean_square)


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
    x = np.asarray(audio.samples, dtype=np.float64) / FULL_SCALE
    if len(x) < WINDOW_SAMPLES:
        return []
    windows = hop_windows(x)
    detector = Vad(config)
    decisions = []
    for start in range(0, len(windows), _BLOCK_FRAMES):
        for mean_square in _mean_square(windows[start : start + _BLOCK_FRAMES]).tolist():
            decisions.append(detector._decide(_dbfs(mean_square)))
    return decisions


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
