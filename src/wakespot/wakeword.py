"""Wakeword enrollment and detection.

Enrollment runs the N-best decoder over each training recording's
posteriorgram and keeps the top N hypotheses per recording, converting each
enrollment log probability into a confidence weight ``w = -1 / log p``
(the log probability is clamped to -1e-6 first so a near-certain hypothesis
cannot produce an unbounded weight). Entries from different recordings are
all kept, including repeats of the same sequence.

Detection computes the forward log probability of every hypothesis on the
test posteriorgram, all hypotheses in one forward lattice. A model builds
its hypotheses' prefix trie once and starts each lattice from it. The
score is their confidence-weighted sum, weight times log probability
summed in model order by :func:`aggregate`. It is the only aggregation,
and batch scoring and the streaming detector share it.

:class:`StreamingDetector` is the online twin of :func:`featurize` and
:func:`score`: it VAD-classifies each 10 ms window as it arrives and
sends a segment's stacked frames through the batch kernels (front end,
GRU and lattice) a block at a time, so each segment's score is the batch
score of its audio span, bit for bit.

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
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .audio import HOP_SAMPLES, SAMPLE_RATE, STACKED_DIM, WINDOW_SAMPLES, AudioBuffer
from .audio import FeatureSequence, extract_fbank, frame_fbank, stack_frames
from .ctc import ForwardLattice, _advanced, beam_search, prefix_trie, validate_labels
from .errors import FileFormatError, NonFiniteError
from .label_model import BLANK_INDEX, GruWeights, LabelAlphabet, Posteriorgram
from .label_model import _run_from, init_state, run
from .vad import Vad, VadConfig, span_samples, trim_to_speech

logger = logging.getLogger(__name__)

ENROLL_LOGPROB_CEILING = -1e-6
# enrollment defaults of learn, the harness and the CLI
DEFAULT_BEAM_WIDTH = 100
DEFAULT_NUM_HYPOTHESES = 10

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

    def __post_init__(self):
        if not self.hypotheses:
            raise ValueError("a wakeword model needs at least one hypothesis")
        if self.threshold is not None and math.isnan(self.threshold):
            raise ValueError("a wakeword model's threshold may not be nan")

    def with_threshold(self, threshold: float) -> "WakewordModel":
        return replace(self, threshold=threshold)

    @cached_property
    def _trie(self) -> tuple[np.ndarray, ...]:
        """The prefix trie of the hypotheses, their labels checked against
        the alphabet once: the read-only ``(parent, label, ends)`` arrays
        that every lattice scoring the model is built on."""
        trie = prefix_trie([hyp.labels for hyp in self.hypotheses], self.alphabet.size)
        for array in trie:
            array.setflags(write=False)
        return trie

    def _lattice(self) -> ForwardLattice:
        """A fresh forward lattice over the hypotheses, in model order."""
        return ForwardLattice.from_trie(*self._trie, self.alphabet.size)


def learn(
    posteriorgrams: Sequence[Posteriorgram],
    beam_width: int = DEFAULT_BEAM_WIDTH,
    num_hypotheses: int = DEFAULT_NUM_HYPOTHESES,
    threshold: float | None = None,
) -> WakewordModel:
    """Build a wakeword model from training posteriorgrams (three in the
    standard enrollment flow). A recording whose hypotheses are all the
    empty sequence is logged as a warning."""
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
    for i, post in enumerate(posteriorgrams):
        if post.alphabet != alphabet:
            raise ValueError("training posteriorgrams use different alphabets")
        if post.num_frames == 0:
            raise ValueError(f"training example {i + 1} of {len(posteriorgrams)} is empty")
        kept = beam_search(post, beam_width)[:num_hypotheses]
        if all(not entry.labels for entry in kept):
            logger.warning(
                "training example %d of %d: decoder produced only the empty sequence; "
                "the model may be degenerate",
                i + 1,
                len(posteriorgrams),
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
    return WakewordModel(
        hypotheses=tuple(hypotheses),
        alphabet=alphabet,
        beam_width=beam_width,
        kept_per_example=num_hypotheses,
        threshold=threshold,
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
    return _advanced(model._lattice(), post.rows)


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


# Stacked pairs that the streaming detector collects before one GRU kernel
# call and one lattice advance. The pending 6 x 82 = 492 values stay within
# the WINDOW_SAMPLES + HOP_SAMPLES + 1 = 561 samples its buffer may hold.
# Larger blocks gain little: on the listen benchmark's stream, streaming
# ran 1.33x as fast as stepping each pair alone with 6 pairs and 1.42x with
# 16 (one process, the detectors fed in turn, 2 vCPUs).
_BLOCK_PAIRS = 6


class StreamingDetector:
    """Online detector over a raw sample stream.

    Audio arrives in arbitrary-size chunks. Windows on the 10 ms hop grid
    are VAD-classified one at a time. Within a speech segment they are
    taken in pairs: when a pair's second window arrives, one
    :func:`frame_fbank` call turns both windows into the pair's stacked
    frame (pre-emphasis restarts at the segment boundary, matching batch
    extraction on the segment's samples), which joins a pending block.
    A block runs once through the label model's GRU kernel, from the
    segment's carried state, and once through the forward lattice over all
    hypotheses, by the advance that batch scoring uses. That happens when
    the block holds ``_BLOCK_PAIRS`` pairs, and after every speech frame
    that leaves the VAD no hangover. Only the frame after such a frame can
    close a segment, so the block is empty when one closes and the call
    that returns an event does no GRU or lattice work; :meth:`finish`
    flushes what is left. When the segment closes, :func:`aggregate` sums
    the lattice's log probabilities with the confidence weights into the
    score compared against the threshold. Segment scores are therefore
    bit-equal to the batch score of the same audio span.

    State is bounded whatever the segment length. Between calls the
    rolling sample buffer holds at most ``WINDOW_SAMPLES + HOP_SAMPLES +
    1`` samples: the unclassified ones, the last classified window, which
    may open a pair, and the sample before it that pre-emphasis needs. A
    segment adds its GRU state, the lattice and a pending block of at most
    ``_BLOCK_PAIRS`` x 82 values. ``stats.label_model_frames`` counts the
    stacked frames at each flush.
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
        self._block = np.empty((_BLOCK_PAIRS, STACKED_DIM))  # stacked pairs not yet flushed
        self._block_pairs = 0
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
        # Samples must be whole numbers in the int16 range, as AudioBuffer
        # requires; a NaN fails every comparison. Only a float chunk can
        # hold a fraction.
        if arr.dtype != np.int16 and not (
            arr.min() >= -32768
            and arr.max() <= 32767
            and (arr.dtype.kind != "f" or np.array_equal(arr, np.trunc(arr)))
        ):
            self.stats.malformed_chunks += 1
            return []
        arr = arr.astype(np.float64)
        self._buffer = np.concatenate([self._buffer, arr])
        events = []
        while True:
            start = self._next_frame * HOP_SAMPLES - self._buffer_start
            if start + WINDOW_SAMPLES > self._buffer.size:
                break
            event = self._handle_frame(self._next_frame, start)
            if event is not None:
                events.append(event)
            self._next_frame += 1
        # Drop samples no window can reach anymore, keeping the last
        # classified window, the first of a pair that may be pending, and
        # the one sample before it for pre-emphasis.
        keep_from = (self._next_frame - 1) * HOP_SAMPLES - 1 - self._buffer_start
        if keep_from > 0:
            self._buffer = self._buffer[keep_from:]
            self._buffer_start += keep_from
        return events

    def finish(self) -> list[DetectionEvent]:
        """Close the stream; flushes and finalizes an open segment."""
        event = self._close_segment(self._next_frame)
        return [event] if event is not None else []

    def _handle_frame(self, frame_index: int, start: int) -> DetectionEvent | None:
        """Classify the window at buffer index ``start``, frame
        ``frame_index`` of the hop grid, and pass it on."""
        self.stats.frames_processed += 1
        buffer = self._buffer
        if not self.vad.classify_frame(buffer[start : start + WINDOW_SAMPLES]):
            return self._close_segment(frame_index)
        self.stats.speech_frames += 1
        if self._segment_start is None:
            self._segment_start = frame_index
            self._gru_state = init_state(self.weights)
            self._lattice = self.model._lattice()
        elif (frame_index - self._segment_start) % 2:  # the second window of a pair
            first = start - HOP_SAMPLES
            # pre-emphasis restarts at the segment boundary
            prev = 0.0 if frame_index - 1 == self._segment_start else buffer[first - 1]
            windows = np.concatenate(
                [buffer[first : first + WINDOW_SAMPLES], buffer[start : start + WINDOW_SAMPLES]]
            ).reshape(2, WINDOW_SAMPLES)
            features = frame_fbank(windows, np.array([prev, buffer[start - 1]]))
            self._block[self._block_pairs] = features.reshape(STACKED_DIM)
            self._block_pairs += 1
        if self._block_pairs == _BLOCK_PAIRS or not self.vad.hangover_left:
            self._flush()
        return None

    def _flush(self) -> None:
        """Run the pending block through the GRU kernel and the lattice."""
        pairs = self._block_pairs
        if pairs:
            rows, self._gru_state = _run_from(self.weights, self._block[:pairs], self._gru_state)
            _advanced(self._lattice, rows)
            self.stats.label_model_frames += pairs
            self._block_pairs = 0

    def _close_segment(self, end_frame: int) -> DetectionEvent | None:
        if self._segment_start is None:
            return None
        self._flush()  # empty unless the stream ends mid-segment
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
