"""Few-shot evaluation: episodes, pooled-threshold ROC metrics, harness.

An episode holds three enrollment recordings from one synthetic speaker and
a set of tagged positive/negative test recordings. Detector scores are
pooled across episodes before thresholding, so one global threshold sweep
produces the ROC curve; the equal error rate is linearly interpolated
between the bracketing sweep points and the AUC is the trapezoidal area
under (false-accept rate, true-positive rate), which matches the
Mann-Whitney statistic with ties counted half.

The harness enrolls each detector on the supports, scores every test, and
reports overall metrics plus splits by negative tag and speaker match.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .audio import AudioBuffer, FeatureSequence, extract_fbank, read_wav, stack_frames, write_wav
from .ctc import NEG_INF
from .dtw import DtwConfig, dtw_detect_all
from .errors import FileFormatError, WakespotError
from .label_model import GruWeights, LabelAlphabet, Posteriorgram, run
from .vad import VadConfig, trim_to_speech
from .wakeword import WakewordModel, learn, model_from_labels, score, score_logsumexp_prior

logger = logging.getLogger(__name__)

POLARITIES = ("positive", "negative")
TAGS = ("confusing", "non_confusing")
SPEAKER_MATCHES = ("same", "different")

DETECTORS = ("donut", "donut_logsumexp", "query_by_string", "dtw_fbank", "dtw_post")

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

    eer = None
    for a, b in zip(points, points[1:]):
        d0 = a.frr - a.far
        d1 = b.frr - b.far
        if d0 == 0.0:
            eer = a.far
            break
        if d1 == 0.0:
            eer = b.far
            break
        if d0 > 0.0 > d1:
            t = d0 / (d0 - d1)
            eer = a.far + t * (b.far - a.far)
            break
    if eer is None:  # curve starts below zero only if far >= frr at the first point
        eer = points[0].far
    return RocMetrics(points=tuple(points), eer=float(eer), auc=float(auc))


@dataclass(frozen=True)
class HarnessParams:
    weights: GruWeights | None = None
    beam_width: int = 100
    num_hypotheses: int = 10
    vad: VadConfig = VadConfig()
    dtw: DtwConfig = DtwConfig()


@dataclass(frozen=True)
class ScoreRecord:
    episode_id: str
    score: float
    is_positive: bool
    tag: str
    speaker_match: str


@dataclass
class HarnessReport:
    detector: str
    overall: RocMetrics
    splits: dict[str, RocMetrics]
    records: tuple[ScoreRecord, ...]
    episodes_evaluated: int
    episodes_skipped: int


def _trim(audio: AudioBuffer, params: HarnessParams) -> AudioBuffer:
    trimmed, found = trim_to_speech(params.vad, audio)
    if not found:
        logger.warning("no speech found by VAD; using the whole recording")
    return trimmed


def _fbank(audio: AudioBuffer, params: HarnessParams) -> FeatureSequence:
    return extract_fbank(_trim(audio, params))


def _posteriorgram(audio: AudioBuffer, params: HarnessParams) -> Posteriorgram:
    return run(params.weights, stack_frames(_fbank(audio, params)))


def _dtw_scores(detector: str, episode: Episode, params: HarnessParams) -> list[float]:
    if detector == "dtw_fbank":
        featurize, config = _fbank, replace(params.dtw, feature_space="fbank")
    else:
        featurize, config = _posteriorgram, replace(params.dtw, feature_space="posteriorgram")
    supports = [featurize(a, params) for a in episode.support]
    return dtw_detect_all(supports, [featurize(t.audio, params) for t in episode.tests], config)


def _ctc_scores(detector: str, episode: Episode, params: HarnessParams) -> list[float]:
    if detector == "query_by_string":
        symbols = [params.weights.alphabet.symbol_of(i) for i in episode.target_labels]
        model = model_from_labels(symbols, params.weights.alphabet)
    else:
        posts = [_posteriorgram(a, params) for a in episode.support]
        model = learn(posts, params.beam_width, params.num_hypotheses)
    aggregate = score_logsumexp_prior if detector == "donut_logsumexp" else score
    return [aggregate(model, _posteriorgram(t.audio, params)) for t in episode.tests]


def _score_episode(detector: str, episode: Episode, params: HarnessParams) -> list[ScoreRecord]:
    family = _dtw_scores if detector.startswith("dtw_") else _ctc_scores
    scores = family(detector, episode, params)
    return [
        ScoreRecord(
            episode_id=episode.episode_id,
            score=value,
            is_positive=test.is_positive,
            tag=test.tag,
            speaker_match=test.speaker_match,
        )
        for value, test in zip(scores, episode.tests)
    ]


def run_harness(
    detector: str, episodes: Sequence[Episode], params: HarnessParams | None = None
) -> HarnessReport:
    """Enroll and score every episode, pooling scores into ROC metrics."""
    params = params or HarnessParams()
    if detector not in DETECTORS:
        raise ValueError(f"unknown detector {detector!r}; choose from {DETECTORS}")
    if not episodes:
        raise ValueError("no episodes to evaluate")
    if detector != "dtw_fbank" and params.weights is None:
        raise ValueError(f"detector {detector!r} needs label-model weights")
    records: list[ScoreRecord] = []
    skipped = 0
    for episode in episodes:
        try:
            records.extend(_score_episode(detector, episode, params))
        except (WakespotError, ValueError) as exc:
            skipped += 1
            logger.warning("skipping episode %s: %s", episode.episode_id, exc)
    if not records:
        raise ValueError("every episode failed enrollment")
    overall = compute_roc([(r.score, r.is_positive) for r in records])
    positives = [r for r in records if r.is_positive]
    splits: dict[str, RocMetrics] = {}

    def add_split(name, negatives):
        if negatives:
            pooled = [(r.score, True) for r in positives] + [(r.score, False) for r in negatives]
            splits[name] = compute_roc(pooled)

    negatives = [r for r in records if not r.is_positive]
    for tag in TAGS:
        add_split(tag, [r for r in negatives if r.tag == tag])
    for match in SPEAKER_MATCHES:
        add_split(match, [r for r in negatives if r.speaker_match == match])
    for tag in TAGS:
        for match in SPEAKER_MATCHES:
            add_split(
                f"{tag}/{match}",
                [r for r in negatives if r.tag == tag and r.speaker_match == match],
            )
    return HarnessReport(
        detector=detector,
        overall=overall,
        splits=splits,
        records=tuple(records),
        episodes_evaluated=len(episodes) - skipped,
        episodes_skipped=skipped,
    )


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
    """Read a manifest and its WAVs; a malformed line raises FileFormatError naming it."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    lines = manifest_path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != _MANIFEST_HEADER:
        raise FileFormatError(f"{manifest_path}: not an episode manifest")
    alphabet: LabelAlphabet | None = None
    episodes: list[Episode] = []
    current = None  # (line, episode id, target labels) of the episode being read
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
                alphabet = LabelAlphabet(tuple(args))
            elif kind == "episode":
                if alphabet is None:
                    raise FileFormatError(f"{where}: alphabet line must precede episodes")
                if len(args) < 2 or args[1] != "target":
                    raise FileFormatError(f"{where}: bad episode line {line!r}")
                flush()
                current = (where, args[0], tuple(alphabet.index_of(s) for s in args[2:]))
                supports, tests = [], []
            elif kind == "support" and len(args) == 1:
                supports.append(read_wav(base / args[0]))
            elif kind == "test" and len(args) == 4:
                tests.append(TestRecording(read_wav(base / args[0]), *args[1:]))
            else:
                raise FileFormatError(f"{where}: bad manifest line {line!r}")
        except (KeyError, ValueError) as exc:  # read_wav raises AudioError or OSError
            raise FileFormatError(f"{where}: {exc} in {line!r}") from exc
    flush()
    if alphabet is None:
        raise FileFormatError(f"{manifest_path}: missing alphabet line")
    if not episodes:
        raise FileFormatError(f"{manifest_path}: no episodes")
    return alphabet, episodes
