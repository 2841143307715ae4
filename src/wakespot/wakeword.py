"""Wakeword enrollment and detection.

Enrollment runs the N-best decoder over each training recording's
posteriorgram and keeps the top N hypotheses per recording, converting each
enrollment log probability into a confidence weight ``w = -1 / log p``
(the log probability is clamped to -1e-6 first so a near-certain hypothesis
cannot produce an unbounded weight). Entries from different recordings are
all kept, including repeats of the same sequence.

Detection computes the forward log probability of every hypothesis on the
test posteriorgram, all hypotheses in one forward lattice. The score is
their confidence-weighted sum, weight times log probability summed in model
order by :func:`aggregate`. It is the only aggregation, and batch scoring
and the streaming detector share it.

Model file format (human-readable text, one hypothesis per line):

    wakespot-model 2
    alphabet-sha256 <hex digest of the alphabet>
    beam-width <B>
    kept-per-example <N>
    threshold <float or "unset">
    <space-separated label symbols> TAB <weight> TAB <enrollment log prob> TAB <example>

``<example>`` is the index of the training recording that produced the
hypothesis (-1 if unknown). Version 1 files, whose hypothesis lines lack
that field, are still read (with example -1). Floats are written with
``repr``, so a saved model loads back equal to the one saved.

A model may also be built directly from a provided label sequence
("query by string") with weight 1.
"""

from __future__ import annotations

import logging
import math
import warnings as _warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .audio import HOP_SAMPLES, SAMPLE_RATE, WINDOW_SAMPLES, AudioBuffer, FeatureSequence
from .audio import extract_fbank, frame_fbank, stack_frames
from .ctc import ForwardLattice, beam_search, forward_lattice, validate_labels
from .errors import FileFormatError, NonFiniteError
from .label_model import BLANK_INDEX, GruWeights, LabelAlphabet, Posteriorgram
from .label_model import gru_step, init_state, run
from .vad import Vad, VadConfig, span_samples, trim_to_speech

logger = logging.getLogger(__name__)

ENROLL_LOGPROB_CEILING = -1e-6

_MODEL_HEADER = "wakespot-model"
_MODEL_VERSION = 2
_HYPOTHESIS_FIELDS = {"1": 3, "2": 4}  # readable version -> tab-separated fields per hypothesis


@dataclass(frozen=True)
class Hypothesis:
    labels: tuple[int, ...]
    enroll_logprob: float
    weight: float
    example: int = -1  # which training recording produced it; -1 if unknown

    def __post_init__(self):
        if not self.weight > 0.0 or not math.isfinite(self.weight):
            raise ValueError("hypothesis weight must be positive and finite")


def weight_from_logprob(enroll_logprob: float) -> float:
    """Confidence weight -1 / log p, with log p clamped below -1e-6."""
    return -1.0 / min(enroll_logprob, ENROLL_LOGPROB_CEILING)


@dataclass(frozen=True)
class WakewordModel:
    hypotheses: tuple[Hypothesis, ...]
    alphabet: LabelAlphabet
    beam_width: int
    kept_per_example: int
    threshold: float | None = None
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if not self.hypotheses:
            raise ValueError("a wakeword model needs at least one hypothesis")
        if self.threshold is not None and math.isnan(self.threshold):
            raise ValueError("a wakeword model's threshold may not be nan")

    def with_threshold(self, threshold: float) -> "WakewordModel":
        return replace(self, threshold=threshold)


def learn(
    posteriorgrams: Sequence[Posteriorgram],
    beam_width: int = 100,
    num_hypotheses: int = 10,
    threshold: float | None = None,
) -> WakewordModel:
    """Build a wakeword model from training posteriorgrams (three in the
    standard enrollment flow)."""
    if not posteriorgrams:
        raise ValueError("enrollment needs at least one posteriorgram")
    if num_hypotheses < 1:
        raise ValueError("must keep at least one hypothesis per example")
    if num_hypotheses > beam_width:
        raise ValueError(
            f"kept hypotheses ({num_hypotheses}) cannot exceed beam width ({beam_width})"
        )
    alphabet = posteriorgrams[0].alphabet
    hypotheses: list[Hypothesis] = []
    notes: list[str] = []
    for i, post in enumerate(posteriorgrams):
        if post.alphabet != alphabet:
            raise ValueError("training posteriorgrams use different alphabets")
        if post.num_frames == 0:
            raise ValueError(f"training posteriorgram {i} is empty")
        kept = beam_search(post, beam_width)[:num_hypotheses]
        if all(not entry.labels for entry in kept):
            notes.append(
                f"training example {i}: decoder produced only the empty sequence; "
                "the model may be degenerate"
            )
        for entry in kept:
            hypotheses.append(
                Hypothesis(
                    labels=entry.labels,
                    enroll_logprob=entry.logprob,
                    weight=weight_from_logprob(entry.logprob),
                    example=i,
                )
            )
    for note in notes:
        _warnings.warn(note, stacklevel=2)
    return WakewordModel(
        hypotheses=tuple(hypotheses),
        alphabet=alphabet,
        beam_width=beam_width,
        kept_per_example=num_hypotheses,
        threshold=threshold,
        warnings=tuple(notes),
    )


def model_from_labels(symbols: Iterable[str], alphabet: LabelAlphabet) -> WakewordModel:
    """Query-by-string model: a single provided sequence with weight 1."""
    labels = tuple(alphabet.index_of(s) for s in symbols)
    validate_labels(labels, alphabet.size)
    hyp = Hypothesis(labels=labels, enroll_logprob=-1.0, weight=1.0)
    return WakewordModel(
        hypotheses=(hyp,),
        alphabet=alphabet,
        beam_width=1,
        kept_per_example=1,
    )


def aggregate(model: WakewordModel, logprobs: np.ndarray) -> float:
    """Confidence-weighted sum of per-hypothesis forward log probabilities.

    The sum runs left to right from 0.0 in model order, not by ``sum()``
    (which compensates rounding from Python 3.12) or ``math.fsum``, so a
    score has the same bits on every supported Python.
    """
    total = 0.0
    for hyp, lp in zip(model.hypotheses, logprobs.tolist()):
        total += hyp.weight * lp
    return total


def _scored_lattice(model: WakewordModel, post: Posteriorgram) -> ForwardLattice:
    if post.alphabet != model.alphabet:
        raise ValueError("posteriorgram alphabet does not match the wakeword model")
    return forward_lattice(post, [hyp.labels for hyp in model.hypotheses])


def hypothesis_logprobs(model: WakewordModel, post: Posteriorgram) -> np.ndarray:
    """Forward log probability of each hypothesis on ``post``, in model order."""
    return _scored_lattice(model, post).finalize()


def score(model: WakewordModel, post: Posteriorgram) -> float:
    """Confidence-weighted sum of the hypotheses' forward log probabilities on ``post``.

    A hypothesis with no valid alignment contributes -inf, which makes the
    whole score -inf; such audio simply fails any finite threshold.
    """
    return aggregate(model, hypothesis_logprobs(model, post))


@dataclass(frozen=True)
class ScoreStats:
    hypotheses: int
    cell_updates: int  # forward-state cells written across all hypotheses
    state_cells: int  # total live forward-state cells (2U+1 per hypothesis)
    lattice_cells: int  # cells the prefix-trie lattice holds (2 per distinct prefix + 1)


def score_with_stats(model: WakewordModel, post: Posteriorgram) -> tuple[float, ScoreStats]:
    """As :func:`score`, also reporting work and memory counters."""
    lattice = _scored_lattice(model, post)
    stats = ScoreStats(
        hypotheses=len(model.hypotheses),
        cell_updates=lattice.cell_updates,
        state_cells=lattice.num_state_cells,
        lattice_cells=lattice.num_lattice_cells,
    )
    return aggregate(model, lattice.finalize()), stats


def save_model(path, model: WakewordModel) -> None:
    lines = [
        f"{_MODEL_HEADER} {_MODEL_VERSION}",
        f"alphabet-sha256 {model.alphabet.content_hash()}",
        f"beam-width {model.beam_width}",
        f"kept-per-example {model.kept_per_example}",
        f"threshold {'unset' if model.threshold is None else repr(model.threshold)}",
    ]
    for hyp in model.hypotheses:
        symbols = " ".join(model.alphabet.symbol_of(i) for i in hyp.labels)
        lines.append(f"{symbols}\t{hyp.weight!r}\t{hyp.enroll_logprob!r}\t{hyp.example}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path, alphabet: LabelAlphabet) -> WakewordModel:
    """Read a model file (version 1 or 2) written for ``alphabet``.

    Raises :class:`FileFormatError` for any malformed field, and its
    subclass :class:`NonFiniteError` for a NaN threshold or a non-finite
    weight or enrollment log probability.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    lines = [line for line in lines if line]
    if len(lines) < 6:
        raise FileFormatError(f"{path}: model file too short")
    header = lines[0].split()
    if len(header) != 2 or header[0] != _MODEL_HEADER or header[1] not in _HYPOTHESIS_FIELDS:
        raise FileFormatError(f"{path}: bad header line {lines[0]!r}")
    num_fields = _HYPOTHESIS_FIELDS[header[1]]

    def header_value(line, key):
        parts = line.split(None, 1)
        if len(parts) != 2 or parts[0] != key:
            raise FileFormatError(f"{path}: expected '{key} ...', got {line!r}")
        return parts[1]

    def number(text, parse, what):
        try:
            return parse(text)
        except ValueError:
            raise FileFormatError(f"{path}: bad {what} {text!r}") from None

    def finite(text, what):
        value = number(text, float, what)
        if not math.isfinite(value):
            raise NonFiniteError(f"{path}: {what} is {value!r}")
        return value

    def label_index(symbol):
        try:
            index = alphabet.index_of(symbol)
        except KeyError:
            raise FileFormatError(f"{path}: unknown label {symbol!r}") from None
        if index == BLANK_INDEX:
            raise FileFormatError(f"{path}: hypotheses may not contain the blank")
        return index

    digest = header_value(lines[1], "alphabet-sha256")
    if digest != alphabet.content_hash():
        raise FileFormatError(f"{path}: model was built for a different alphabet")
    beam_width = number(header_value(lines[2], "beam-width"), int, "beam width")
    kept = number(header_value(lines[3], "kept-per-example"), int, "kept-per-example count")
    if beam_width < 1 or kept < 1:
        raise FileFormatError(f"{path}: beam width and kept-per-example must be >= 1")
    raw_threshold = header_value(lines[4], "threshold")
    threshold = None if raw_threshold == "unset" else number(raw_threshold, float, "threshold")
    if threshold is not None and math.isnan(threshold):
        raise NonFiniteError(f"{path}: threshold is nan")
    hypotheses = []
    for line in lines[5:]:
        fields = line.split("\t")
        if len(fields) != num_fields:
            raise FileFormatError(f"{path}: bad hypothesis line {line!r}")
        labels = tuple(label_index(s) for s in fields[0].split())
        weight = finite(fields[1], "weight")
        if not weight > 0.0:
            raise FileFormatError(f"{path}: hypothesis weight must be positive, got {weight!r}")
        enroll_logprob = finite(fields[2], "enrollment log-prob")
        example = number(fields[3], int, "example index") if num_fields == 4 else -1
        if example < -1:
            raise FileFormatError(f"{path}: bad example index {example}")
        hypotheses.append(
            Hypothesis(labels=labels, enroll_logprob=enroll_logprob, weight=weight, example=example)
        )
    return WakewordModel(
        hypotheses=tuple(hypotheses),
        alphabet=alphabet,
        beam_width=beam_width,
        kept_per_example=kept,
        threshold=threshold,
    )


def featurize(
    recordings: Sequence[AudioBuffer],
    vad: VadConfig | None = None,
    weights: GruWeights | None = None,
) -> list[FeatureSequence] | list[Posteriorgram]:
    """Detector input of each recording in batch; :class:`StreamingDetector` is its twin.

    With ``vad`` each recording is trimmed to the span from its first to its
    last utterance (kept whole, with a logged warning that gives its
    position in ``recordings``, when the VAD finds no speech). Returns the
    100 Hz filterbank frames of each recording when ``weights`` is None,
    else the label model's posteriorgrams of their stacked 50 Hz frames.
    """
    features = []
    for i, audio in enumerate(recordings):
        if vad is not None:
            audio, found = trim_to_speech(vad, audio)
            if not found:
                logger.warning(
                    "no speech found by VAD in recording %d of %d; using the whole recording",
                    i + 1,
                    len(recordings),
                )
        features.append(extract_fbank(audio))
    if weights is None:
        return features
    return [run(weights, stack_frames(f)) for f in features]


@dataclass(frozen=True)
class DetectionEvent:
    time: float  # seconds from stream start, at the segment close
    score: float
    start_frame: int
    end_frame: int  # exclusive, on the stream's 10 ms frame grid


@dataclass
class DetectionStats:
    frames_processed: int = 0
    speech_frames: int = 0
    label_model_frames: int = 0  # stacked frames pushed through the GRU
    segments_scored: int = 0
    segments_discarded: int = 0
    malformed_chunks: int = 0


@dataclass(frozen=True)
class DetectionReport:
    events: tuple[DetectionEvent, ...]
    stats: DetectionStats


class StreamingDetector:
    """Online detector over a raw sample stream.

    Audio arrives in arbitrary-size chunks. Windows on the 10 ms hop grid
    are VAD-classified; within a speech segment, each window's filterbank
    frame is computed as it arrives (pre-emphasis restarts at the segment
    boundary, matching batch extraction on the segment's samples), stacked
    in pairs, pushed through the streaming GRU, and folded into one forward
    lattice over all hypotheses. When the segment closes, :func:`aggregate`
    sums the lattice's log probabilities with the confidence weights into
    the score compared against the threshold. Segment scores are therefore
    bit-equal to the batch score of the same audio span.

    State is bounded whatever the segment length: the rolling sample buffer
    holds at most the unclassified samples plus the one sample before the
    next window that pre-emphasis needs, and a segment keeps only its GRU
    state, a pending unpaired frame and the lattice.
    """

    def __init__(
        self,
        model: WakewordModel,
        weights: GruWeights,
        threshold: float,
        vad_config: VadConfig | None = None,
    ):
        if model.alphabet != weights.alphabet:
            raise ValueError("model and label-model alphabets differ")
        if math.isnan(threshold):
            raise ValueError("detection threshold may not be nan")
        self.model = model
        self.weights = weights
        self.threshold = threshold
        self.vad = Vad(vad_config or VadConfig())
        self.stats = DetectionStats()
        self._buffer = np.zeros(0, dtype=np.float64)
        self._buffer_start = 0  # absolute index of buffer[0]
        self._next_frame = 0  # next hop-grid frame to classify
        self._segment_start: int | None = None
        self._pending_feature: np.ndarray | None = None
        self._gru_state = None
        self._lattice: ForwardLattice | None = None

    def process(self, chunk) -> list[DetectionEvent]:
        """Feed a chunk of samples; returns any events it completed."""
        arr = np.asarray(chunk)
        if arr.ndim != 1 or arr.dtype.kind not in "iuf":  # real-valued samples only
            self.stats.malformed_chunks += 1
            return []
        if arr.size == 0:
            return []
        # Samples must lie in the int16 range, as AudioBuffer requires; a
        # NaN fails both comparisons.
        if arr.dtype != np.int16 and not (arr.min() >= -32768 and arr.max() <= 32767):
            self.stats.malformed_chunks += 1
            return []
        arr = arr.astype(np.float64)
        self._buffer = np.concatenate([self._buffer, arr])
        events = []
        while True:
            start = self._next_frame * HOP_SAMPLES - self._buffer_start
            if start + WINDOW_SAMPLES > self._buffer.size:
                break
            window = self._buffer[start : start + WINDOW_SAMPLES]
            prev_sample = self._buffer[start - 1] if start > 0 else 0.0
            event = self._handle_frame(self._next_frame, window, prev_sample)
            if event is not None:
                events.append(event)
            self._next_frame += 1
        # Drop samples no window can reach anymore, keeping the one before
        # the next window for pre-emphasis.
        keep_from = self._next_frame * HOP_SAMPLES - 1 - self._buffer_start
        if keep_from > 0:
            self._buffer = self._buffer[keep_from:]
            self._buffer_start += keep_from
        return events

    def finish(self) -> list[DetectionEvent]:
        """Close the stream; finalizes an open segment."""
        event = self._close_segment(self._next_frame)
        return [event] if event is not None else []

    def _handle_frame(
        self, frame_index: int, window: np.ndarray, prev_sample: float
    ) -> DetectionEvent | None:
        self.stats.frames_processed += 1
        if not self.vad.classify_frame(window):
            return self._close_segment(frame_index)
        self.stats.speech_frames += 1
        if self._segment_start is None:
            self._segment_start = frame_index
            prev_sample = 0.0  # pre-emphasis restarts at the segment boundary
            self._pending_feature = None
            self._gru_state = init_state(self.weights)
            self._lattice = ForwardLattice(
                [hyp.labels for hyp in self.model.hypotheses], self.weights.num_symbols
            )
        feature = frame_fbank(window, prev_sample)
        if self._pending_feature is None:
            self._pending_feature = feature
            return None
        stacked = np.concatenate([self._pending_feature, feature])
        self._pending_feature = None
        row, self._gru_state = gru_step(self.weights, self._gru_state, stacked)
        self.stats.label_model_frames += 1
        self._lattice.step(row)
        return None

    def _close_segment(self, end_frame: int) -> DetectionEvent | None:
        if self._segment_start is None:
            return None
        start = self._segment_start
        length = end_frame - start
        self._segment_start = None
        event = None
        if length >= self.vad.config.min_speech_frames:
            self.stats.segments_scored += 1
            value = aggregate(self.model, self._lattice.finalize())
            if value >= self.threshold:
                _, end_sample = span_samples((start, end_frame))
                event = DetectionEvent(
                    time=end_sample / SAMPLE_RATE,
                    score=value,
                    start_frame=start,
                    end_frame=end_frame,
                )
        else:
            self.stats.segments_discarded += 1
        self._lattice = None
        self._gru_state = None
        self._pending_feature = None
        return event


def detect_stream(
    model: WakewordModel,
    weights: GruWeights,
    chunks: Iterable[np.ndarray],
    threshold: float,
    vad_config: VadConfig | None = None,
) -> DetectionReport:
    """Run the streaming detector over an iterable of sample chunks."""
    detector = StreamingDetector(model, weights, threshold, vad_config)
    events: list[DetectionEvent] = []
    for chunk in chunks:
        events.extend(detector.process(chunk))
    events.extend(detector.finish())
    return DetectionReport(events=tuple(events), stats=detector.stats)
