"""Wakeword enrollment and detection.

Enrollment runs the N-best decoder over each training recording's
posteriorgram and keeps the top N hypotheses per recording with their
enrollment log probabilities. Entries from different recordings are all
kept, including repeats of the same sequence. A hypothesis's confidence
weight ``w = -1 / log p`` is derived from its log probability by
:func:`weight_from_logprob` (the log probability is clamped to -1e-6 first
so a near-certain hypothesis cannot produce an unbounded weight); it is
never stored.

Detection computes the forward log probability of every hypothesis on a
segment's posteriorgram, all hypotheses in one forward lattice. A model
builds its hypotheses' prefix trie when it is built, which checks their
labels, and starts each lattice from it.
The segment's score is their confidence-weighted sum, weight times log
probability summed in model order by :func:`aggregate`. It is the only
aggregation, and batch scoring and the streaming detector share it.
:func:`score_segments`, the one batch score path, holds the rule that a
recording scores as its best :func:`featurize` segment, and returns the
:class:`ScoreResult` that explains the score; :func:`score` is its view
of one segment.

:class:`StreamingDetector` is the online counterpart of :func:`featurize`
and :func:`score_segments`: it VAD-classifies each 10 ms window as it
arrives and runs a segment through the batch kernels. The front end runs
once per stacked pair, on the pair's 560-sample slice of the detector's
buffer; the GRU and the lattice's ``advance`` run once per block of
pairs. So each segment's score is the batch score of its audio span, bit
for bit. :func:`featurize` cuts a recording into the same VAD segments, so
a recording's score is the highest event the detector gives on it, and a
training recording enrolls from its longest segment (:func:`longest_segments`).

Model file format (human-readable text, one hypothesis per line):

    wakespot-model 3
    alphabet-sha256 <hex digest of the alphabet>
    threshold <float or "unset">
    <space-separated label symbols> TAB <enrollment log prob> TAB <example>

``<example>`` is the index of the training recording that produced the
hypothesis (-1 if unknown). The weight is not in the file: loading derives
it from the log probability, as enrollment does. Only version 3 is read.
Floats are written with ``repr``, so a saved model loads back equal to the
one saved, weights included.

A model may also be built directly from a provided label sequence
("query by string") with log probability -1, so weight 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .audio import HOP_SAMPLES, SAMPLE_RATE, STACKED_DIM, WINDOW_SAMPLES, AudioBuffer
from .audio import FeatureSequence, extract_fbank, frame_fbank, pcm16, stack_frames
from .ctc import ForwardLattice, beam_search, prefix_trie
from .errors import FileFormatError
from .label_model import GruWeights, LabelAlphabet, Posteriorgram
from .label_model import _run_from, init_state, run
from .vad import Vad, VadConfig, segment, span_samples

logger = logging.getLogger(__name__)

ENROLL_LOGPROB_CEILING = -1e-6
# enrollment defaults of learn, the harness and the CLI
DEFAULT_BEAM_WIDTH = 100
DEFAULT_NUM_HYPOTHESES = 10

_MODEL_HEADER = "wakespot-model"
_MODEL_VERSION = 3


def weight_from_logprob(enroll_logprob: float) -> float:
    """Confidence weight -1 / log p, with log p clamped below -1e-6: the
    only source of a hypothesis's weight, in (0, 1e6] for finite log p."""
    return -1.0 / min(enroll_logprob, ENROLL_LOGPROB_CEILING)


@dataclass(frozen=True)
class Hypothesis:
    labels: tuple[int, ...]
    enroll_logprob: float
    example: int = -1  # which training recording produced it; -1 if unknown
    weight: float = field(init=False)  # weight_from_logprob(enroll_logprob)

    def __post_init__(self):
        if not math.isfinite(self.enroll_logprob):
            raise ValueError("hypothesis enrollment log probability must be finite")
        if self.example < -1:
            raise ValueError(f"hypothesis example index must be -1 or more, got {self.example}")
        object.__setattr__(self, "weight", weight_from_logprob(self.enroll_logprob))


@dataclass(frozen=True)
class WakewordModel:
    hypotheses: tuple[Hypothesis, ...]
    alphabet: LabelAlphabet
    threshold: float | None = None
    # the prefix trie of the hypotheses, built with the model, which checks
    # their labels against the alphabet: the read-only (parent, label, ends)
    # arrays that every lattice scoring the model is built on
    _trie: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.hypotheses:
            raise ValueError("a wakeword model needs at least one hypothesis")
        if self.threshold is not None and math.isnan(self.threshold):
            raise ValueError("a wakeword model's threshold may not be nan")
        trie = prefix_trie([hyp.labels for hyp in self.hypotheses], self.alphabet.size)
        for array in trie:
            array.setflags(write=False)
        object.__setattr__(self, "_trie", trie)

    def _lattice(self) -> ForwardLattice:
        """A fresh forward lattice over the hypotheses, in model order."""
        return ForwardLattice(*self._trie)


def check_beam_settings(beam_width: int, num_hypotheses: int) -> None:
    """Refuse to keep no hypothesis per example, or more than the beam holds."""
    if not 1 <= num_hypotheses <= beam_width:
        raise ValueError(f"need 1 <= kept hypotheses ({num_hypotheses}) <= beam width ({beam_width})")


def check_input_dim(weights: GruWeights) -> None:
    """Refuse label-model weights that cannot take the stacked frames every
    detector feeds them."""
    if weights.input_dim != STACKED_DIM:
        raise ValueError(f"weights.input_dim {weights.input_dim} does not match STACKED_DIM {STACKED_DIM}")


def learn(
    posteriorgrams: Sequence[Posteriorgram],
    beam_width: int = DEFAULT_BEAM_WIDTH,
    num_hypotheses: int = DEFAULT_NUM_HYPOTHESES,
    threshold: float | None = None,
) -> WakewordModel:
    """Build a wakeword model from training posteriorgrams (three in the
    standard enrollment flow). A recording whose hypotheses are all the
    empty sequence is logged as a warning."""
    check_beam_settings(beam_width, num_hypotheses)
    if not posteriorgrams:
        raise ValueError("enrollment needs at least one posteriorgram")
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
            hypotheses.append(Hypothesis(entry.labels, entry.logprob, example=i))
    return WakewordModel(tuple(hypotheses), alphabet, threshold)


def model_from_labels(symbols: Iterable[str], alphabet: LabelAlphabet) -> WakewordModel:
    """Query-by-string model: a single provided sequence with enrollment
    log probability -1, which gives it weight 1."""
    labels = tuple(alphabet.index_of(s) for s in symbols)
    return WakewordModel((Hypothesis(labels, -1.0),), alphabet)


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


@dataclass(frozen=True)
class ScoreResult:
    """A recording's score and what produced it: the best segment's
    confidence-weighted sum, each hypothesis's forward log probability on
    that segment, and the counters of scoring it, which
    :func:`score_segments` derives from the model and the segment's rows."""

    score: float  # -inf for a recording without segments
    logprobs: tuple[float, ...]  # one per hypothesis, in model order; none without segments
    cell_updates: int  # forward-state cells written across all hypotheses: rows x state_cells
    state_cells: int  # total live forward-state cells (2U+1 per hypothesis)
    lattice_cells: int  # cells the prefix-trie lattice holds (2 per distinct prefix + 1)

    @property
    def hypotheses(self) -> int:
        return len(self.logprobs)


def score_segments(model: WakewordModel, segments: Sequence[Posteriorgram]) -> ScoreResult:
    """Score a recording given as its :func:`featurize` segments.

    The recording scores as its best segment, the first of equals, which is
    the highest event :class:`StreamingDetector` gives it. Each segment runs
    through one forward lattice over all hypotheses, whose log probabilities
    :func:`aggregate` sums. ``state_cells`` is 2U+1 summed over the model's
    hypotheses, as if each were scored alone, ``cell_updates`` the segment's
    rows times that, and ``lattice_cells`` what the shared lattice holds. A
    recording without segments has no speech: it scores -inf, with no log
    probabilities and zero counters. A hypothesis with no valid alignment
    contributes -inf, which makes the segment's score -inf; such audio
    simply fails any finite threshold.
    """
    state_cells = sum(2 * len(hyp.labels) + 1 for hyp in model.hypotheses)
    results = []
    for post in segments:
        if post.alphabet != model.alphabet:
            raise ValueError("posteriorgram alphabet does not match the wakeword model")
        lattice = model._lattice().advance(post.rows)
        logprobs = lattice.finalize()
        results.append(
            ScoreResult(
                score=aggregate(model, logprobs),
                logprobs=tuple(logprobs.tolist()),
                cell_updates=post.num_frames * state_cells,
                state_cells=state_cells,
                lattice_cells=lattice.num_lattice_cells,
            )
        )
    no_speech = ScoreResult(-math.inf, (), 0, 0, 0)
    return max(results, key=lambda result: result.score, default=no_speech)


def score(model: WakewordModel, post: Posteriorgram) -> float:
    """The :func:`score_segments` score of one segment, ``post``."""
    return score_segments(model, [post]).score


def save_model(path, model: WakewordModel) -> None:
    lines = [
        f"{_MODEL_HEADER} {_MODEL_VERSION}",
        f"alphabet-sha256 {model.alphabet.content_hash()}",
        f"threshold {'unset' if model.threshold is None else repr(model.threshold)}",
    ]
    for hyp in model.hypotheses:
        symbols = " ".join(model.alphabet.symbol_of(i) for i in hyp.labels)
        lines.append(f"{symbols}\t{hyp.enroll_logprob!r}\t{hyp.example}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path, alphabet: LabelAlphabet) -> WakewordModel:
    """Read a model file (version 3) written for ``alphabet``.

    The loader parses: any failure is a :class:`FileFormatError` whose
    message starts with ``path``. The model's values are checked by
    :class:`Hypothesis` and :class:`WakewordModel`, whose ``ValueError``
    it reports that way.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    lines = [line for line in lines if line]
    if len(lines) < 4:
        raise FileFormatError(f"{path}: model file too short")
    if lines[0].split() != [_MODEL_HEADER, str(_MODEL_VERSION)]:
        raise FileFormatError(f"{path}: bad header line {lines[0]!r}")

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

    def label_index(symbol):
        try:
            return alphabet.index_of(symbol)
        except KeyError:
            raise FileFormatError(f"{path}: unknown label {symbol!r}") from None

    digest = header_value(lines[1], "alphabet-sha256")
    if digest != alphabet.content_hash():
        raise FileFormatError(f"{path}: model was built for a different alphabet")
    raw_threshold = header_value(lines[2], "threshold")
    threshold = None if raw_threshold == "unset" else number(raw_threshold, float, "threshold")
    parsed = []
    for line in lines[3:]:
        fields = line.split("\t")
        if len(fields) != 3:
            raise FileFormatError(f"{path}: bad hypothesis line {line!r}")
        labels = tuple(label_index(s) for s in fields[0].split())
        enroll_logprob = number(fields[1], float, "enrollment log-prob")
        parsed.append((labels, enroll_logprob, number(fields[2], int, "example index")))
    try:
        return WakewordModel(tuple(Hypothesis(*row) for row in parsed), alphabet, threshold)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def featurize(
    recordings: Sequence[AudioBuffer],
    vad: VadConfig,
    weights: GruWeights | None = None,
) -> list[list[FeatureSequence]] | list[list[Posteriorgram]]:
    """Detector input of each recording in batch, one entry per ``vad``
    segment, each featurized on its own samples as :class:`StreamingDetector`
    scores it; none for a recording without speech, which it gives no event.
    Returns the 100 Hz filterbank frames of each segment when ``weights`` is
    None, else the label model's posteriorgrams of their stacked 50 Hz frames."""
    features = []
    for audio in recordings:
        spans = [span_samples(s) for s in segment(vad, audio)]
        features.append([extract_fbank(AudioBuffer(audio.samples[lo:hi])) for lo, hi in spans])
    if weights is None:
        return features
    return [[run(weights, stack_frames(f)) for f in segments] for segments in features]


def longest_segments(recordings: Sequence[Sequence]) -> list:
    """The longest segment of each recording's :func:`featurize` output (the
    first of equals), the one a training recording enrolls from. A
    recording with more than one segment is logged as a warning; one
    without speech is a ``ValueError`` that names each such position."""
    silent = [str(i + 1) for i, segments in enumerate(recordings) if not segments]
    if silent:
        raise ValueError(f"no speech found by VAD in recording {', '.join(silent)} of {len(recordings)}")
    longest = []
    for i, segments in enumerate(recordings):
        if len(segments) > 1:
            logger.warning(
                "recording %d of %d has %d VAD segments; enrolling from the longest",
                i + 1, len(recordings), len(segments),
            )
        longest.append(max(segments, key=lambda seq: seq.num_frames))
    return longest


@dataclass(frozen=True)
class DetectionEvent:
    score: float
    start_frame: int
    end_frame: int  # exclusive, on the stream's 10 ms frame grid

    @property
    def time(self) -> float:
        """Seconds from stream start to the segment close, the end of its last window."""
        return span_samples((self.start_frame, self.end_frame))[1] / SAMPLE_RATE


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
    :func:`frame_fbank` call on the pair's 560 samples, a slice of the
    buffer, turns both windows into the pair's stacked frame (pre-emphasis
    restarts at the segment boundary, matching batch extraction on the
    segment's samples), which joins a pending block.
    A block runs once through the label model's GRU kernel, from the
    segment's carried state, and once through the forward lattice over all
    hypotheses, by the :meth:`ForwardLattice.advance` that batch scoring
    uses on a whole segment. That happens when
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
        check_input_dim(weights)
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
        """Feed a chunk of samples; returns any events it completed. An empty
        1-D chunk is a no-op; one that :func:`pcm16` refuses, as ``AudioBuffer``
        would, is counted in ``stats.malformed_chunks`` and changes nothing."""
        try:
            arr = np.asarray(chunk)  # a ragged list raises here
            if arr.shape == (0,):
                return []
            samples = pcm16(arr)
        except ValueError:
            self.stats.malformed_chunks += 1
            return []
        self._buffer = np.concatenate([self._buffer, samples], dtype=np.float64)
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
            features = frame_fbank(buffer[first : start + WINDOW_SAMPLES], prev)
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
            self._lattice.advance(rows)
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
                event = DetectionEvent(score=value, start_frame=start, end_frame=end_frame)
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
