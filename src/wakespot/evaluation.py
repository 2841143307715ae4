"""Few-shot evaluation: episodes, pooled-threshold ROC metrics, harness.

An episode holds three enrollment recordings from one synthetic speaker and
a set of tagged positive/negative test recordings. Detector scores are
pooled across episodes before thresholding, so one global threshold sweep
produces the ROC curve; the equal error rate is linearly interpolated
between the bracketing sweep points and the AUC is the trapezoidal area
under (false-accept rate, true-positive rate), which matches the
Mann-Whitney statistic with ties counted half.

The harness enrolls each detector on the supports and scores every test. A
report is its score records: the overall metrics and the splits by negative
tag and speaker match are derived from them on first read.
Every recording becomes detector input through :func:`wakeword.featurize`
(VAD segments, filterbank, and for all detectors but ``dtw_fbank`` frame
stacking and the label model), supports and tests in separate calls with
the same bits as one call. A support enrolls from its longest segment and a
test scores as its best. Three recipes hold those rules, and the harness and
every command run them: :func:`enroll` (``donut``, ``wakespot enroll``),
:func:`ctc_scores` (``donut`` and ``query_by_string``, ``wakespot score``)
and :func:`dtw_scores` (the DTW baselines, ``wakespot baseline``). A test
without speech scores -inf, as ``listen`` gives it no event, and a support
without speech skips its episode with a warning naming its position.
:class:`HarnessParams` refuses weights that cannot take stacked frames. A
recipe that lacks the weights it needs raises a ``ValueError`` naming it,
and :func:`dtw_scores` one naming a detector that is not DTW.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .audio import AudioBuffer, read_wav, write_wav
from .dtw import dtw_detect_segments
from .errors import FileFormatError, WakespotError
from .label_model import GruWeights, LabelAlphabet
from .label_model import run  # noqa: F401 - perfbench's tracer test looks label_model.run up here
from .vad import VadConfig
from .wakeword import DEFAULT_BEAM_WIDTH, DEFAULT_NUM_HYPOTHESES, ScoreResult, WakewordModel
from .wakeword import check_beam_settings, check_input_dim, featurize, learn, longest_segments
from .wakeword import model_from_labels, score_segments

logger = logging.getLogger(__name__)

POLARITIES = ("positive", "negative")
TAGS = ("confusing", "non_confusing")
SPEAKER_MATCHES = ("same", "different")
# a report's splits: the negatives of a tag, of a speaker match, or of both
SPLITS = (*TAGS, *SPEAKER_MATCHES, *(f"{tag}/{match}" for tag in TAGS for match in SPEAKER_MATCHES))

DETECTORS = ("donut", "query_by_string", "dtw_fbank", "dtw_post")
DTW_DETECTORS = ("dtw_fbank", "dtw_post")
WEIGHTLESS_DETECTORS = ("dtw_fbank",)  # every other detector runs the label model

_MANIFEST_HEADER = "# wakespot episodes v1"


@dataclass(frozen=True)
class TestRecording:
    __test__ = False  # not a pytest class, despite the name

    audio: AudioBuffer
    polarity: str
    tag: str
    speaker_match: str
    labels: tuple[int, ...] | None = None  # ground truth when synthesized

    def __post_init__(self):
        if self.polarity not in POLARITIES:
            raise ValueError(f"polarity must be one of {POLARITIES}")
        if self.tag not in TAGS:
            raise ValueError(f"tag must be one of {TAGS}")
        if self.speaker_match not in SPEAKER_MATCHES:
            raise ValueError(f"speaker_match must be one of {SPEAKER_MATCHES}")

    @property
    def is_positive(self) -> bool:
        return self.polarity == "positive"


@dataclass(frozen=True)
class Episode:
    episode_id: str
    target_labels: tuple[int, ...]
    support: tuple[AudioBuffer, AudioBuffer, AudioBuffer]
    tests: tuple[TestRecording, ...]

    def __post_init__(self):
        # one manifest token and one path component, so write_episodes can write it back
        token = isinstance(self.episode_id, str) and self.episode_id.split() == [self.episode_id]
        if not token or "/" in self.episode_id or self.episode_id in (".", ".."):
            raise ValueError(
                f"episode id {self.episode_id!r} must be a file name without whitespace"
            )
        if len(self.support) != 3:
            raise ValueError("an episode has exactly three support recordings")
        if not self.tests:
            raise ValueError("an episode needs at least one test recording")


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    far: float  # false accepts / negatives
    frr: float  # false rejects / positives


@dataclass(frozen=True)
class RocMetrics:
    points: tuple[RocPoint, ...]  # sorted by descending threshold
    eer: float
    auc: float


def compute_roc(scores: Sequence[tuple[float, bool]]) -> RocMetrics:
    """ROC over pooled (score, is_positive) pairs; detection is score >= t."""
    if not scores:
        raise ValueError("no scores to evaluate")
    values = np.array([s for s, _ in scores], dtype=np.float64)
    is_pos = np.array([bool(p) for _, p in scores])
    num_pos = int(is_pos.sum())
    num_neg = int((~is_pos).sum())
    if num_pos == 0 or num_neg == 0:
        raise ValueError("need at least one positive and one negative score")
    if np.isnan(values).any():
        raise ValueError("scores must not contain NaN")

    order = np.argsort(-values, kind="stable")
    sorted_values = values[order]
    sorted_pos = is_pos[order]
    cum_pos = np.cumsum(sorted_pos)
    cum_neg = np.cumsum(~sorted_pos)
    # Threshold boundaries after the last item of each tied value group
    # (direct comparison: diff would produce NaN between two -inf scores).
    last_of_group = np.nonzero(sorted_values[1:] != sorted_values[:-1])[0]
    boundaries = np.concatenate([last_of_group, [len(sorted_values) - 1]])

    points = [RocPoint(threshold=float("inf"), far=0.0, frr=1.0)]
    for idx in boundaries:
        tpr = cum_pos[idx] / num_pos
        far = cum_neg[idx] / num_neg
        points.append(RocPoint(threshold=float(sorted_values[idx]), far=float(far), frr=float(1.0 - tpr)))

    auc = 0.0
    for a, b in zip(points, points[1:]):
        auc += (b.far - a.far) * ((1.0 - a.frr) + (1.0 - b.frr)) / 2.0

    # frr - far falls from 1 at the first point to -1 at the last, so the
    # EER lies between the last point above zero and the first one that is not
    for a, b in zip(points, points[1:]):
        d0 = a.frr - a.far
        d1 = b.frr - b.far
        if d1 == 0.0:
            eer = b.far
            break
        if d1 < 0.0:
            t = d0 / (d0 - d1)
            eer = a.far + t * (b.far - a.far)
            break
    return RocMetrics(points=tuple(points), eer=float(eer), auc=float(auc))


@dataclass(frozen=True)
class HarnessParams:
    weights: GruWeights | None = None
    beam_width: int = DEFAULT_BEAM_WIDTH
    num_hypotheses: int = DEFAULT_NUM_HYPOTHESES
    vad: VadConfig = VadConfig()

    def __post_init__(self):
        check_beam_settings(self.beam_width, self.num_hypotheses)
        if self.weights is not None:
            check_input_dim(self.weights)


@dataclass(frozen=True)
class ScoreRecord:
    episode_id: str
    score: float
    is_positive: bool
    tag: str
    speaker_match: str


@dataclass(frozen=True)
class HarnessReport:
    """A report is its score records: :attr:`overall` and :attr:`splits`
    are derived from them on first read, so they cannot disagree. Records
    without a positive or without a negative raise :func:`compute_roc`'s
    ``ValueError`` there."""

    detector: str
    records: tuple[ScoreRecord, ...]
    episodes_evaluated: int
    episodes_skipped: int

    @cached_property
    def overall(self) -> RocMetrics:
        return compute_roc([(r.score, r.is_positive) for r in self.records])

    @cached_property
    def splits(self) -> dict[str, RocMetrics]:
        """Every positive against the negatives of each split in
        :data:`SPLITS` that has any, in that order."""
        self.overall  # noqa: B018 - what overall refuses, the splits refuse first
        negatives: dict[str, list] = {name: [] for name in SPLITS}
        for r in self.records:
            if not r.is_positive:
                for name in (r.tag, r.speaker_match, f"{r.tag}/{r.speaker_match}"):
                    negatives[name].append((r.score, False))
        positives = [(r.score, True) for r in self.records if r.is_positive]
        return {name: compute_roc(positives + group) for name, group in negatives.items() if group}


def enroll(
    supports: Sequence[AudioBuffer], params: HarnessParams, threshold: float | None = None
) -> WakewordModel:
    """The ``donut`` model of ``supports``: each enrolls from its longest
    :func:`wakeword.featurize` segment under ``params``."""
    posts = longest_segments(featurize(supports, params.vad, _weights("enroll", params)))
    return learn(posts, params.beam_width, params.num_hypotheses, threshold)


def dtw_scores(
    detector: str,
    supports: Sequence[AudioBuffer],
    tests: Sequence[AudioBuffer],
    params: HarnessParams,
) -> list[float]:
    """The DTW baseline ``detector``'s score of each test against ``supports``."""
    if detector not in DTW_DETECTORS:
        raise ValueError(f"{detector!r} is not a DTW detector; choose from {DTW_DETECTORS}")
    weights = None if detector in WEIGHTLESS_DETECTORS else _weights(f"detector {detector!r}", params)
    enrolled = longest_segments(featurize(supports, params.vad, weights))
    return dtw_detect_segments(enrolled, featurize(tests, params.vad, weights))


def ctc_scores(
    model: WakewordModel, tests: Sequence[AudioBuffer], params: HarnessParams
) -> list[ScoreResult]:
    """The :func:`wakeword.score_segments` result of each test under
    ``model``, for ``donut`` and ``query_by_string``."""
    posts = featurize(tests, params.vad, _weights("ctc_scores", params))
    return [score_segments(model, segments) for segments in posts]


def _weights(user: str, params: HarnessParams) -> GruWeights:
    """``params.weights``; a ``ValueError`` naming ``user`` when there are none."""
    if params.weights is None:
        raise ValueError(f"{user} needs label-model weights")
    return params.weights


def _episode_scores(detector: str, episode: Episode, params: HarnessParams) -> list[float]:
    tests = [t.audio for t in episode.tests]
    if detector in DTW_DETECTORS:
        return dtw_scores(detector, episode.support, tests, params)
    if detector == "query_by_string":
        symbols = [params.weights.alphabet.symbol_of(i) for i in episode.target_labels]
        model = model_from_labels(symbols, params.weights.alphabet)
    else:
        model = enroll(episode.support, params)
    return [result.score for result in ctc_scores(model, tests, params)]


def run_harness(
    detector: str, episodes: Sequence[Episode], params: HarnessParams | None = None
) -> HarnessReport:
    """Enroll and score every episode into one record per test."""
    params = params or HarnessParams()
    if detector not in DETECTORS:
        raise ValueError(f"unknown detector {detector!r}; choose from {DETECTORS}")
    if not episodes:
        raise ValueError("no episodes to evaluate")
    if detector not in WEIGHTLESS_DETECTORS:
        _weights(f"detector {detector!r}", params)
    records: list[ScoreRecord] = []
    skipped = 0
    for episode in episodes:
        try:
            scores = _episode_scores(detector, episode, params)
        except (WakespotError, ValueError) as exc:
            skipped += 1
            logger.warning("skipping episode %s: %s", episode.episode_id, exc)
            continue
        records += [ScoreRecord(episode.episode_id, value, t.is_positive, t.tag, t.speaker_match)
                    for value, t in zip(scores, episode.tests)]
    if not records:
        raise ValueError("every episode failed enrollment")
    return HarnessReport(detector, tuple(records), len(episodes) - skipped, skipped)


def format_report(report: HarnessReport) -> str:
    lines = [
        f"detector {report.detector}",
        f"episodes {report.episodes_evaluated} evaluated, {report.episodes_skipped} skipped",
        f"overall eer {report.overall.eer:.4f} auc {report.overall.auc:.4f}",
    ]
    for name in sorted(report.splits):
        metrics = report.splits[name]
        lines.append(f"split {name} eer {metrics.eer:.4f} auc {metrics.auc:.4f}")
    return "\n".join(lines)


def save_roc_points(path, metrics: RocMetrics) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("threshold,far,frr\n")
        for point in metrics.points:
            fh.write(f"{point.threshold!r},{point.far!r},{point.frr!r}\n")


def write_episodes(directory, episodes: Sequence[Episode], alphabet: LabelAlphabet) -> Path:
    """Write WAVs plus a line-oriented manifest; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [_MANIFEST_HEADER, "alphabet " + " ".join(alphabet.labels)]
    for episode in episodes:
        ep_dir = directory / episode.episode_id
        ep_dir.mkdir(exist_ok=True)
        target = " ".join(alphabet.symbol_of(i) for i in episode.target_labels)
        lines.append(f"episode {episode.episode_id} target {target}")
        for i, audio in enumerate(episode.support):
            rel = f"{episode.episode_id}/support_{i}.wav"
            write_wav(directory / rel, audio)
            lines.append(f"support {rel}")
        for j, test in enumerate(episode.tests):
            rel = f"{episode.episode_id}/test_{j:02d}.wav"
            write_wav(directory / rel, test.audio)
            lines.append(f"test {rel} {test.polarity} {test.tag} {test.speaker_match}")
    manifest = directory / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def read_episodes(manifest_path) -> tuple[LabelAlphabet, list[Episode]]:
    """Read a manifest and its WAVs; a malformed or out-of-order line (a
    second alphabet line, a repeated episode id, a support or test line
    before the first episode line) raises FileFormatError naming it."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    lines = manifest_path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != _MANIFEST_HEADER:
        raise FileFormatError(f"{manifest_path}: not an episode manifest")
    alphabet: LabelAlphabet | None = None
    episodes: list[Episode] = []
    current = None  # (line, episode id, target labels) of the episode being read
    episode_ids: set[str] = set()
    supports: list[AudioBuffer] = []
    tests: list[TestRecording] = []

    def flush():
        if current is not None:
            where, episode_id, target = current
            try:
                episodes.append(Episode(episode_id, target, tuple(supports), tuple(tests)))
            except ValueError as exc:
                raise FileFormatError(f"{where}: {exc}") from exc

    for number, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.startswith("#"):
            continue
        where = f"{manifest_path} line {number}"
        kind, *args = line.split()
        try:
            if kind == "alphabet":
                if alphabet is not None:
                    raise FileFormatError(f"{where}: second alphabet line")
                alphabet = LabelAlphabet(tuple(args))
            elif kind == "episode":
                if alphabet is None:
                    raise FileFormatError(f"{where}: alphabet line must precede episodes")
                if len(args) < 2 or args[1] != "target":
                    raise FileFormatError(f"{where}: bad episode line {line!r}")
                if args[0] in episode_ids:
                    raise FileFormatError(f"{where}: repeated episode id {args[0]!r}")
                episode_ids.add(args[0])
                flush()
                current = (where, args[0], tuple(alphabet.index_of(s) for s in args[2:]))
                supports, tests = [], []
            elif kind in ("support", "test") and current is None:
                raise FileFormatError(f"{where}: {kind} line before the first episode line")
            elif kind == "support" and len(args) == 1:
                supports.append(read_wav(base / args[0]))
            elif kind == "test" and len(args) == 4:
                tests.append(TestRecording(read_wav(base / args[0]), *args[1:]))
            else:
                raise FileFormatError(f"{where}: bad manifest line {line!r}")
        except (KeyError, ValueError) as exc:  # read_wav's own errors pass: they name the WAV
            raise FileFormatError(f"{where}: {exc} in {line!r}") from exc
    flush()
    if alphabet is None:
        raise FileFormatError(f"{manifest_path}: missing alphabet line")
    if not episodes:
        raise FileFormatError(f"{manifest_path}: no episodes")
    return alphabet, episodes
