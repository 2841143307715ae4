"""The benchmark's workloads: set-up, measured passes and output checks.

Each workload is one process and one caller in a closed loop: the next
operation starts when the previous one returns. Inputs are generated from
the seed during set-up; the measured code receives only those inputs and
is reached through the public functions of ``wakespot``, looked up on
their modules at call time so that a tracer can wrap them.

A *pass* runs once over a workload's distinct inputs. A measured run makes
as many whole passes as fit in its time at the workload's nominal
``pass_seconds``, and at least one, so runs on fast and slow code cover the
same inputs and report the same operation counts. Correctness checks run after the timed
passes; each mismatch counts as one failed operation.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from wakespot import audio, ctc, dtw, evaluation, label_model, synth, vad, wakeword
from wakespot.errors import WakespotError

from clock import Clock
from tracing import Tracer, _perf as perf

DETECTORS = ("donut", "dtw_post", "dtw_fbank")
BEAM_WIDTH = 100
NUM_HYPOTHESES = 10
CHUNK_SAMPLES = 160
# A score within this relative tolerance of the reference is correct. A
# streaming event must also be bit-equal to batch scoring; one that is not
# counts as failed, and as correct if it is within the tolerance.
SCORE_RTOL = 1e-9
VAD_CONFIG = vad.VadConfig()
# Noise under the utterances of a listen stretch: above the VAD threshold,
# so the VAD stays open through the stretch.
STRETCH_NOISE_DBFS = -30.0


class NoTracer:
    def next_op(self) -> None:
        pass


def warm_caches() -> None:
    """Fill the front end's lazy Mel filterbank and window caches."""
    audio.extract_fbank(audio.AudioBuffer(np.zeros(2 * audio.WINDOW_SAMPLES, dtype=np.int16)))


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def scores_match(got: float, want: float) -> bool:
    return got == want or abs(got - want) <= SCORE_RTOL * max(1.0, abs(want))


def seconds_of(buffers) -> float:
    return sum(len(b.samples) for b in buffers) / audio.SAMPLE_RATE


def posteriorgram(weights, buffer):
    return label_model.run(weights, audio.stack_frames(audio.extract_fbank(buffer)))


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    within_tolerance: int = 0  # failed operations whose result is within SCORE_RTOL
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == self.within_tolerance


# --------------------------------------------------------------------------
# fewshot: the paper's evaluation


@dataclass
class FewshotLog:
    times: dict = field(default_factory=lambda: {d: [] for d in DETECTORS})
    reports: dict = field(default_factory=lambda: {d: [] for d in DETECTORS})
    episodes: list = field(default_factory=list)
    audio_s: float = 0.0


@dataclass(frozen=True)
class Fewshot:
    """``run_harness`` for three detectors, one episode at a time."""

    episodes: int = 24
    name = "fewshot"
    pass_seconds = 22.0  # one pass at the baseline, on 2 vCPUs

    def setup(self, seed: int):
        episodes = synth.generate_synthetic_episodes(seed, self.episodes)
        params = evaluation.HarnessParams(
            weights=synth.oracle_weights(), beam_width=BEAM_WIDTH, num_hypotheses=NUM_HYPOTHESES
        )
        warm_caches()
        return episodes, params

    def new_log(self) -> FewshotLog:
        return FewshotLog()

    def run_pass(self, state, log: FewshotLog, tracer, clock: Clock) -> None:
        episodes, params = state
        for episode in episodes:
            for detector in DETECTORS:
                tracer.next_op()
                start = perf()
                try:
                    report = evaluation.run_harness(detector, [episode], params)
                except (ValueError, WakespotError):  # the episode failed enrollment
                    report = None
                log.times[detector].append(clock.record(start))
                log.reports[detector].append(report)
            log.episodes.append(episode)
            log.audio_s += seconds_of([*episode.support, *(t.audio for t in episode.tests)])

    def check(self, state, log: FewshotLog) -> Checked:
        out = Checked()
        for detector in DETECTORS:
            for episode, report in zip(log.episodes, log.reports[detector]):
                out.attempted += 1
                if not harness_report_ok(report, episode):
                    out.failed += 1
        return out

    def recordings(self, state) -> int:
        episodes, _ = state
        return sum(3 + len(e.tests) for e in episodes)

    def end_to_end(self, state, log: FewshotLog, clock: Clock) -> tuple[dict, dict]:
        times = {d: clock.seconds(log.times[d]) for d in DETECTORS}
        raw = {d: clock.raw_seconds(log.times[d]) for d in DETECTORS}
        metrics = episode_metrics(log.audio_s, [sum(t) for t in zip(*times.values())])
        first_pass = len(state[0])
        detail = {"n.episodes": (len(log.episodes), "count")}
        detail |= raw_metrics(episode_metrics(log.audio_s, [sum(t) for t in zip(*raw.values())]))
        for detector in DETECTORS:
            detail[f"episodes_per_s.{detector}"] = (
                len(times[detector]) / sum(times[detector]), "episodes/s"
            )
        for detector in DETECTORS:
            records = [
                r for report in log.reports[detector][:first_pass] if report for r in report.records
            ]
            pooled = [(r.score, r.is_positive) for r in records]
            detail[f"eer.{detector}"] = (evaluation.compute_roc(pooled).eer, "fraction")
        return metrics, detail


def episode_metrics(audio_s: float, episode_s: list[float]) -> dict:
    return {
        "audio_s_per_s": (audio_s / sum(episode_s), "s/s"),
        "latency_ms.p50": (1000.0 * pct(episode_s, 50), "ms"),
    }


def raw_metrics(metrics: dict) -> dict:
    """End-to-end metrics from wall times not corrected for machine speed."""
    return {f"raw.{name}": value for name, value in metrics.items()}


def harness_report_ok(report, episode) -> bool:
    """No skipped episode, one record per test, and no NaN score."""
    return (
        report is not None
        and report.episodes_skipped == 0
        and len(report.records) == len(episode.tests)
        and not any(math.isnan(r.score) for r in report.records)
    )


# --------------------------------------------------------------------------
# enroll_score: the `wakespot enroll` / `wakespot score` flow


@dataclass
class EnrollScoreLog:
    enroll_s: list = field(default_factory=list)
    score_s: list = field(default_factory=list)
    models: list = field(default_factory=list)  # (request index, model), one per enrollment
    scores: list = field(default_factory=list)  # (request index, test index, score)
    audio_s: float = 0.0


@dataclass(frozen=True)
class EnrollScore:
    """Enroll from three recordings, then score each test recording."""

    requests: int = 40
    # Four tests per keyword (two positives, one confusing and one
    # non-confusing negative): one pass then holds the 40 enrollments that
    # enroll_ms.p75 needs and the 100 scores that score_ms.p90 needs.
    config = synth.EpisodeConfig(
        num_positive=2,
        num_confusing_same=1,
        num_confusing_different=0,
        num_nonconfusing_same=0,
        num_nonconfusing_different=1,
    )
    name = "enroll_score"
    pass_seconds = 25.0  # one pass at the baseline, on 2 vCPUs

    def setup(self, seed: int):
        requests = synth.generate_synthetic_episodes(seed, self.requests, self.config)
        weights = label_model.random_weights(
            synth.synth_alphabet(), num_layers=3, hidden_size=96, seed=0
        )
        warm_caches()
        return requests, weights

    def new_log(self) -> EnrollScoreLog:
        return EnrollScoreLog()

    def run_pass(self, state, log: EnrollScoreLog, tracer, clock: Clock) -> None:
        requests, weights = state
        for index, request in enumerate(requests):
            tracer.next_op()
            start = perf()
            model = enroll(weights, request.support)
            log.enroll_s.append(clock.record(start))
            log.models.append((index, model))
            for j, test in enumerate(request.tests):
                tracer.next_op()
                start = perf()
                value = wakeword.score(model, posteriorgram(weights, test.audio))
                log.score_s.append(clock.record(start))
                log.scores.append((index, j, value))
            log.audio_s += seconds_of([*request.support, *(t.audio for t in request.tests)])

    def check(self, state, log: EnrollScoreLog) -> Checked:
        """Each score is finite; the first test of each enrollment equals
        the weighted sum of forward log probabilities within SCORE_RTOL."""
        requests, weights = state
        out = Checked(attempted=len(log.models) + len(log.scores))
        out.failed = sum(1 for _, _, value in log.scores if not math.isfinite(value))
        first_scores = [value for _, j, value in log.scores if j == 0]
        for (index, model), value in zip(log.models, first_scores):
            if not score_is_weighted_sum(model, weights, requests[index].tests[0].audio, value):
                out.failed += 1
        return out

    def recordings(self, state) -> int:
        requests, _ = state
        return sum(3 + len(r.tests) for r in requests)

    def end_to_end(self, state, log: EnrollScoreLog, clock: Clock) -> tuple[dict, dict]:
        def metrics_from(seconds):
            enroll_s, score_s = seconds(log.enroll_s), seconds(log.score_s)
            return {
                "audio_s_per_s": (log.audio_s / (sum(enroll_s) + sum(score_s)), "s/s"),
                "latency_ms.p50": (1000.0 * pct(score_s, 50), "ms"),
            }, enroll_s, score_s

        metrics, enroll_s, score_s = metrics_from(clock.seconds)
        detail = raw_metrics(metrics_from(clock.raw_seconds)[0]) | {
            "enroll_ms.p50": (1000.0 * pct(enroll_s, 50), "ms"),
            "enroll_ms.p75": (1000.0 * pct(enroll_s, 75), "ms"),
            "score_ms.p50": (1000.0 * pct(score_s, 50), "ms"),
            "score_ms.p90": (1000.0 * pct(score_s, 90), "ms"),
            "n.enrollments": (len(enroll_s), "count"),
            "n.scores": (len(score_s), "count"),
        }
        return metrics, detail


def enroll(weights, supports):
    posts = [
        posteriorgram(weights, vad.trim_to_speech(VAD_CONFIG, buffer)[0]) for buffer in supports
    ]
    return wakeword.learn(posts, BEAM_WIDTH, NUM_HYPOTHESES)


def score_is_weighted_sum(model, weights, buffer, value: float) -> bool:
    post = posteriorgram(weights, buffer)
    want = sum(h.weight * ctc.forward_logprob(post, h.labels) for h in model.hypotheses)
    return scores_match(value, want)


# --------------------------------------------------------------------------
# listen: the always-on streaming detector


@dataclass
class ListenLog:
    chunk_s: array = field(default_factory=lambda: array("l"))  # clock record ids
    events: list = field(default_factory=list)  # (event, stream end of its chunk, call record)
    passes: list = field(default_factory=list)  # (events in the pass, DetectionStats)
    audio_s: float = 0.0


@dataclass
class ListenState:
    model: object
    weights: object
    stream: np.ndarray  # int16, a whole number of hops long
    utterances: list  # (start sample, end sample), sorted


@dataclass(frozen=True)
class Listen:
    """``StreamingDetector.process`` in 10 ms chunks over a long stream."""

    blocks: int = 20
    isolated_per_block: int = 12
    stretch_utterances: int = 6
    # Stream utterances carry no edge padding and background noise below the
    # VAD threshold, so an isolated utterance ends at its last tone plus one
    # 30-60 ms gap and its segment closes one hangover later. With the
    # default noise (-48 to -36 dBFS) a third of the utterances would keep
    # the VAD open through their edges, splitting event latency into two
    # clusters whose shares vary by seed.
    stream_config = synth.EpisodeConfig(edge_ms=(0.0, 0.0), noise_db=(-50.0, -43.0))
    name = "listen"
    pass_seconds = 12.0  # one pass at the baseline, on 2 vCPUs

    def setup(self, seed: int) -> ListenState:
        rng = np.random.default_rng(seed)
        weights = synth.oracle_weights()
        cfg = synth.EpisodeConfig()
        target = tuple(int(v) + 1 for v in rng.permutation(12)[: int(rng.integers(4, 6))])
        speaker = draw_speaker(rng, cfg)
        supports = [synth.render_utterance(target, speaker, rng, cfg) for _ in range(3)]
        warm_caches()
        model = enroll(weights, supports)
        stream, utterances = self._stream(rng, self.stream_config, target, speaker)
        return ListenState(model, weights, stream, utterances)

    def _stream(self, rng, cfg, target, speaker):
        """Blocks of isolated utterances between silences longer than the
        VAD hangover, each block with one stretch of utterances over
        continuous noise. Half the utterances are the enrolled keyword."""
        pieces: list[np.ndarray] = []
        utterances: list[tuple[int, int]] = []
        pos = 0

        def put(samples):
            nonlocal pos
            pieces.append(samples)
            pos += samples.size

        def silence():
            put(np.zeros(int(rng.uniform(0.3, 0.6) * audio.SAMPLE_RATE), dtype=np.int16))

        def utterance(i):
            if i % 2 == 0:
                return synth.render_utterance(target, speaker, rng, cfg).samples
            labels = tuple(int(v) + 1 for v in rng.permutation(12)[: int(rng.integers(3, 6))])
            return synth.render_utterance(labels, draw_speaker(rng, cfg), rng, cfg).samples

        silence()
        for _ in range(self.blocks):
            stretch_at = int(rng.integers(0, self.isolated_per_block + 1))
            for i in range(self.isolated_per_block + 1):
                if i == stretch_at:
                    put(self._stretch(rng, utterance, utterances, pos))
                else:
                    samples = utterance(i)
                    utterances.append((pos, pos + samples.size))
                    put(samples)
                silence()
        put(np.zeros((-pos) % audio.HOP_SAMPLES, dtype=np.int16))
        return np.concatenate(pieces), sorted(utterances)

    def _stretch(self, rng, utterance, utterances, offset) -> np.ndarray:
        gap = lambda lo, hi: np.zeros(int(rng.uniform(lo, hi) * audio.SAMPLE_RATE))
        parts = [gap(0.2, 0.4)]
        at = offset + parts[0].size
        for i in range(self.stretch_utterances):
            samples = utterance(i).astype(np.float64)
            utterances.append((at, at + samples.size))
            parts += [samples, gap(0.2, 0.4)]
            at += samples.size + parts[-1].size
        signal = np.concatenate(parts)
        sigma = 32768.0 * 10.0 ** (STRETCH_NOISE_DBFS / 20.0)
        noisy = np.clip(signal + rng.normal(0.0, sigma, signal.size), -32768, 32767)
        return noisy.round().astype(np.int16)

    def new_log(self) -> ListenLog:
        return ListenLog()

    def run_pass(self, state: ListenState, log: ListenLog, tracer, clock: Clock) -> None:
        detector = wakeword.StreamingDetector(state.model, state.weights, threshold=-math.inf)
        stream = state.stream
        chunk_s = log.chunk_s
        events = []
        for lo in range(0, stream.size, CHUNK_SAMPLES):
            chunk = stream[lo : lo + CHUNK_SAMPLES]
            tracer.next_op()
            start = perf()
            emitted = detector.process(chunk)
            chunk_s.append(clock.record(start))
            for event in emitted:
                events.append((event, lo + chunk.size, chunk_s[-1]))
        start = perf()
        tail = detector.finish()  # the stream ends in silence, so nothing is open
        record = clock.record(start)
        events += [(event, stream.size, record) for event in tail]
        log.events += events
        log.passes.append((len(events), detector.stats))
        log.audio_s += stream.size / audio.SAMPLE_RATE

    def check(self, state: ListenState, log: ListenLog) -> Checked:
        """Each event's score is bit-equal to the batch score of its sample
        span, and each scored segment emitted one event. An event that is
        not bit-equal fails; it is still correct within SCORE_RTOL."""
        out = Checked()
        batch: dict[tuple[int, int], float] = {}
        for event, _, _ in log.events:
            lo, hi = event_span(event)
            if (lo, hi) not in batch:
                buffer = audio.AudioBuffer(state.stream[lo:hi])
                batch[lo, hi] = wakeword.score(state.model, posteriorgram(state.weights, buffer))
            want = batch[lo, hi]
            if event.score != want:
                out.failed += 1
                out.within_tolerance += scores_match(event.score, want)
        out.notes["wakeword.events_not_bit_equal"] = (out.failed, "count")
        for count, stats in log.passes:
            out.attempted += max(count, stats.segments_scored)
            out.failed += abs(count - stats.segments_scored)
        return out

    def recordings(self, state) -> int:
        return 0

    def latencies_ms(self, state: ListenState, log: ListenLog, seconds) -> list[float]:
        """Stream time from the end of the segment's last utterance to the
        end of the chunk that returned its event, plus that call's time."""
        starts = [s for s, _ in state.utterances]
        call_s = seconds([record for _, _, record in log.events])
        out = []
        for (event, chunk_end, _), call in zip(log.events, call_s):
            _, hi = event_span(event)
            index = bisect.bisect_left(starts, hi) - 1
            speech_end = min(state.utterances[index][1], hi) if index >= 0 else hi
            out.append(1000.0 * ((chunk_end - speech_end) / audio.SAMPLE_RATE + call))
        return out

    def end_to_end(self, state: ListenState, log: ListenLog, clock: Clock) -> tuple[dict, dict]:
        """The gated latency is the time of the ``process`` calls that
        returned an event: the part of event latency that the program's
        speed sets. The rest is stream time, fixed by the seed."""

        def metrics_from(seconds):
            chunk_s = seconds(log.chunk_s)
            event_call_s = seconds([record for _, _, record in log.events])
            return {
                "audio_s_per_s": (log.audio_s / sum(chunk_s), "s/s"),
                "latency_ms.p50": (1000.0 * pct(event_call_s, 50), "ms"),
            }, chunk_s

        metrics, chunk_s = metrics_from(clock.seconds)
        latency = self.latencies_ms(state, log, clock.seconds)
        detail = raw_metrics(metrics_from(clock.raw_seconds)[0]) | {
            "rtf": (sum(chunk_s) / log.audio_s, "s/s"),
            "chunk_ms.p99": (1000.0 * pct(chunk_s, 99), "ms"),
            "event_latency_ms.p50": (pct(latency, 50), "ms"),
            "event_latency_ms.p90": (pct(latency, 90), "ms"),
            "n.chunks": (len(chunk_s), "count"),
            "n.events": (len(log.events), "count"),
        }
        return metrics, detail

    def layer_counts(self, log: ListenLog) -> dict:
        stats = [s for _, s in log.passes]
        return {
            "wakeword.speech_frames": sum(s.speech_frames for s in stats),
            "wakeword.label_model_frames": sum(s.label_model_frames for s in stats),
            "wakeword.segments_scored": sum(s.segments_scored for s in stats),
            "wakeword.segments_discarded": sum(s.segments_discarded for s in stats),
            "wakeword.max_segment_frames": max(
                (e.end_frame - e.start_frame for e, _, _ in log.events), default=0
            ),
        }


def draw_speaker(rng, cfg):
    return synth.Speaker(
        pitch=float(rng.uniform(*cfg.speaker_pitch)),
        rate=float(rng.uniform(*cfg.speaker_rate)),
        gain_db=float(rng.uniform(*cfg.speaker_gain_db)),
    )


def event_span(event) -> tuple[int, int]:
    """Sample range ``[start_frame*160, (end_frame-1)*160+400)`` of an event."""
    return (
        event.start_frame * audio.HOP_SAMPLES,
        (event.end_frame - 1) * audio.HOP_SAMPLES + audio.WINDOW_SAMPLES,
    )


WORKLOADS = {w.name: w for w in (Fewshot(), EnrollScore(), Listen())}


# --------------------------------------------------------------------------
# per-layer instrumentation


def _count(key, amount):
    def hook(tracer, args, result):
        tracer.counts[key] += amount(args, result)

    return hook


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers find them."""
    frames = "label_model.frames"
    cells = "ctc.lattice_cells"
    tracer.wrap(audio, "extract_fbank", "audio.extract_fbank")
    tracer.wrap(audio, "frame_fbank", "audio.frame_fbank")
    tracer.wrap(vad, "trim_to_speech", "vad.trim_to_speech")
    tracer.wrap(vad.Vad, "classify_frame", "vad.classify_frame", fold_under=("vad.trim_to_speech",))
    tracer.wrap(label_model, "run", "label_model.run",
                on_call=_count(frames, lambda a, r: r.num_frames))
    tracer.wrap(label_model, "gru_step", "label_model.gru_step", fold_under=("label_model.run",),
                on_call=_count(frames, lambda a, r: 1))
    tracer.wrap(ctc, "beam_search", "ctc.beam_search",
                on_call=_count("ctc.beam_search.returned", lambda a, r: len(r)))
    tracer.wrap(ctc, "forward_logprob", "ctc.forward_logprob",
                on_call=_count(cells, lambda a, r: (2 * len(tuple(a[1])) + 1) * a[0].num_frames))
    tracer.wrap(ctc.CtcForwardScorer, "step", "ctc.scorer_step", fold_under=("ctc.forward_logprob",),
                on_call=_count(cells, lambda a, r: 2 * len(a[0].labels) + 1))
    tracer.wrap(wakeword, "learn", "wakeword.learn",
                on_call=_count("wakeword.hypotheses", lambda a, r: len(r.hypotheses)))
    tracer.wrap(wakeword, "score", "wakeword.score")
    tracer.wrap(wakeword.StreamingDetector, "process", "wakeword.process")
    tracer.wrap(dtw, "dtw_detect", "dtw.dtw_detect")
    tracer.wrap(dtw, "dtw_score", "dtw.dtw_score", span=False,
                on_call=_count("dtw.cells", lambda a, r: a[0].num_frames * a[1].num_frames))
    tracer.wrap(evaluation, "run_harness", "evaluation.run_harness")
    tracer.wrap(evaluation, "compute_roc", "evaluation.compute_roc")
    tracer.wrap(synth, "generate_synthetic_episodes", "synth.generate_synthetic_episodes")
    tracer.wrap(synth, "oracle_weights", "synth.oracle_weights")
    tracer.wrap(label_model, "random_weights", "label_model.random_weights")


SPANS = (
    "audio.extract_fbank", "audio.frame_fbank", "vad.trim_to_speech", "vad.classify_frame",
    "label_model.run", "label_model.gru_step", "ctc.beam_search", "ctc.forward_logprob",
    "ctc.scorer_step", "wakeword.learn", "wakeword.score", "wakeword.process", "dtw.dtw_detect",
    "evaluation.run_harness", "evaluation.compute_roc",
)
SETUP_SPANS = ("synth.generate_synthetic_episodes", "synth.oracle_weights", "label_model.random_weights")
COUNTS = (
    "label_model.frames", "ctc.beam_search.returned", "ctc.lattice_cells",
    "wakeword.hypotheses", "dtw.cells",
)
LISTEN_COUNTS = (
    "wakeword.speech_frames", "wakeword.label_model_frames", "wakeword.segments_scored",
    "wakeword.segments_discarded", "wakeword.max_segment_frames",
)


def layer_metrics(workload, state, log, tracer: Tracer, setup_tracer: Tracer) -> dict:
    """Per-layer self times, calls and counts: set-up functions from one
    traced set-up, everything else from one traced pass."""
    out = {}
    for source, names in ((tracer, SPANS), (setup_tracer, SETUP_SPANS)):
        for name in names:
            out[f"{name}.self_s"] = (source.self_s.get(name, 0.0), "s")
            out[f"{name}.calls"] = (source.calls[name], "count")
    out["dtw.dtw_score.calls"] = (tracer.calls["dtw.dtw_score"], "count")
    for name in COUNTS:
        out[name] = (tracer.counts[name], "count")
    listen = workload.layer_counts(log) if isinstance(workload, Listen) else {}
    for name in LISTEN_COUNTS:
        out[name] = (listen.get(name, 0), "count")
    recordings = workload.recordings(state)
    for key, span in (("frontend", "audio.extract_fbank"), ("gru", "label_model.run")):
        ratio = tracer.calls[span] / recordings if recordings else 0.0
        out[f"evaluation.{key}_passes_per_recording"] = (ratio, "ratio")
    out["trace.spans"] = (tracer.span_count, "count")
    return out
