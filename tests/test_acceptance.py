"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The synthetic-suite criteria use frozen seeds; their runtimes are
bounded (criterion 7 under five minutes, criterion 1 under thirty
seconds) and checked here.
"""

import itertools
import math
import time

import numpy as np
import pytest

from wakespot import synth
from wakespot.audio import AudioBuffer, FeatureSequence, extract_fbank, stack_frames, write_wav
from wakespot.cli import EXIT_OK, main
from wakespot.ctc import NEG_INF, CtcForwardScorer, beam_search, forward_logprob
from wakespot.dtw import dtw_cost
from wakespot.evaluation import HarnessParams, compute_roc, run_harness
from wakespot.label_model import gru_step, init_state, run, random_weights, save_weights
from wakespot.vad import VadConfig, segment, span_samples
from wakespot.wakeword import (
    Hypothesis,
    WakewordModel,
    detect_stream,
    score,
    score_segments,
    weight_from_logprob,
)

from conftest import (
    brute_force_sequence_probs,
    make_alphabet,
    random_posteriorgram,
)
from test_dtw import exhaustive_dtw_cost, fbank_seq, frame_distance_post
from test_evaluation import mann_whitney_auc

ORDERING_SEED = 1337
ORDERING_EPISODES = 50
TREND_SEEDS = (0, 1, 2, 3, 4)
TREND_EPISODES = 15


def _verdict(number: int, name: str) -> None:
    print(f"[criterion {number:02d}] {name}: PASS")


def test_criterion_01_forward_oracle_equivalence():
    rng = np.random.default_rng(20250809)
    started = time.time()
    for _ in range(500):
        num_symbols = int(rng.integers(2, 5))
        frames = int(rng.integers(1, 7))
        post = random_posteriorgram(rng, frames, num_symbols)
        probs = brute_force_sequence_probs(post)
        for length in range(0, 4):
            for labels in itertools.product(range(1, num_symbols), repeat=length):
                expected = probs.get(labels, 0.0)
                got = forward_logprob(post, labels)
                if expected == 0.0:
                    assert got == NEG_INF
                else:
                    assert math.isclose(got, math.log(expected), abs_tol=1e-9)
    elapsed = time.time() - started
    assert elapsed < 30.0
    _verdict(1, f"forward matches alignment enumeration on 500 instances ({elapsed:.1f}s)")


def test_criterion_02_total_probability():
    rng = np.random.default_rng(20250810)
    for _ in range(100):
        num_symbols = int(rng.integers(2, 4))
        frames = int(rng.integers(1, 6))
        post = random_posteriorgram(rng, frames, num_symbols)
        total = 0.0
        for length in range(0, frames + 1):
            for labels in itertools.product(range(1, num_symbols), repeat=length):
                lp = forward_logprob(post, labels)
                if lp > NEG_INF:
                    total += math.exp(lp)
        assert math.isclose(total, 1.0, abs_tol=1e-9)
    _verdict(2, "collapsed-sequence probabilities sum to one")


def test_criterion_03_streaming_equals_batch():
    rng = np.random.default_rng(20250811)
    for _ in range(100):
        num_symbols = int(rng.integers(2, 5))
        frames = int(rng.integers(1, 9))
        length = int(rng.integers(0, 4))
        post = random_posteriorgram(rng, frames, num_symbols)
        labels = tuple(int(v) for v in rng.integers(1, num_symbols, size=length))
        scorer = CtcForwardScorer(labels, num_symbols)
        for row in post.rows:
            scorer.step(row)
        assert scorer.finalize() == forward_logprob(post, labels)  # bitwise

    alphabet = make_alphabet(6)
    frames = rng.normal(size=(49, 82))
    for num_layers in (1, 2, 3):
        weights = random_weights(alphabet, num_layers, seed=77)
        batch = run(weights, FeatureSequence(frames)).rows
        state = init_state(weights)
        for t in range(frames.shape[0]):
            row, state = gru_step(weights, state, frames[t])
            assert np.array_equal(row, batch[t])

    # the detector: each event's score is the batch score of its sample span
    weights = random_weights(alphabet, 2, 16, seed=78)
    model = WakewordModel(
        tuple(
            Hypothesis(tuple(int(v) for v in rng.integers(1, alphabet.size, size=n)), -1.0 - n)
            for n in (1, 2, 3)
        ),
        alphabet,
    )
    noise = lambda n, sigma: rng.normal(0.0, sigma, n).round().astype(np.int16)
    quiet = lambda n: noise(n, 30.0)  # about -61 dBFS, below the VAD threshold
    loud = lambda n: noise(n, 3000.0)  # about -21 dBFS
    stream = np.concatenate([quiet(4000), loud(6000), quiet(6000), loud(9000), quiet(1000)])
    chunks = np.split(stream, np.sort(rng.integers(0, stream.size, 40)))
    report = detect_stream(model, weights, chunks, -math.inf)
    assert len(report.events) == 2
    for event in report.events:
        lo, hi = span_samples((event.start_frame, event.end_frame))
        post = run(weights, stack_frames(extract_fbank(AudioBuffer(stream[lo:hi]))))
        assert math.isfinite(event.score)
        assert event.score == score(model, post)  # bitwise
    _verdict(3, "forward stepping, GRU stepping and detector events are bitwise batch-equal")


def test_criterion_04_beam_search_exactness():
    rng = np.random.default_rng(20250812)
    for _ in range(100):
        num_symbols = int(rng.integers(2, 4))
        frames = int(rng.integers(1, 6))
        post = random_posteriorgram(rng, frames, num_symbols)
        probs = brute_force_sequence_probs(post)
        expected = sorted(
            ((labels, math.log(p)) for labels, p in probs.items() if p > 0.0),
            key=lambda e: (-e[1], len(e[0]), e[0]),
        )
        got = beam_search(post, beam_width=len(expected))
        assert [e.labels for e in got] == [labels for labels, _ in expected]
        for (_, want), entry in zip(expected, got):
            assert math.isclose(entry.logprob, want, abs_tol=1e-9)
            assert math.isclose(entry.logprob, forward_logprob(post, entry.labels), abs_tol=1e-9)
    _verdict(4, "wide-beam N-best equals exhaustive ranking on 100 instances")


def test_criterion_05_dtw_oracle_equivalence():
    rng = np.random.default_rng(20250813)
    for _ in range(200):
        n, m = rng.integers(1, 6, size=2)
        a = fbank_seq(rng.normal(size=(int(n), 41)))
        b = fbank_seq(rng.normal(size=(int(m), 41)))
        diff = a.frames[:, None, :] - b.frames[None, :, :]
        distances = np.sqrt((diff * diff).sum(axis=2))
        assert dtw_cost(a, b) == exhaustive_dtw_cost(distances)  # exact

    for k in (5, 40):
        u = np.full(k, 1.0 / k)
        assert math.isclose(frame_distance_post(u, u), math.log(k), abs_tol=1e-12)
    lam = 1e-5
    k = 40
    one_hot = np.zeros(k)
    one_hot[7] = 1.0
    hot = lam / k + (1.0 - lam)
    rest = lam / k
    assert math.isclose(
        frame_distance_post(one_hot, one_hot),
        -math.log(hot * hot + (k - 1) * rest * rest),
        abs_tol=1e-12,
    )
    other = np.zeros(k)
    other[21] = 1.0
    assert math.isclose(
        frame_distance_post(one_hot, other),
        -math.log(2.0 * lam / k * (1.0 - lam) + lam * lam / k),
        abs_tol=1e-12,
    )
    _verdict(5, "DTW equals path enumeration exactly; distance formula to 1e-12")


def test_criterion_06_enrollment_and_scoring_arithmetic():
    assert weight_from_logprob(-1.0) == 1.0
    assert weight_from_logprob(-2.0) == 0.5
    alphabet = make_alphabet(2)
    rows = np.zeros((3, 3))
    rows[:, 0] = 1.0
    from wakespot.label_model import Posteriorgram

    post = Posteriorgram(rows, alphabet)
    model = WakewordModel(
        hypotheses=(
            Hypothesis(labels=(), enroll_logprob=-2.0),
            Hypothesis(labels=(), enroll_logprob=-4.0),
        ),
        alphabet=alphabet,
    )
    assert [h.weight for h in model.hypotheses] == [0.5, 0.25]
    # forward log probs are exactly -10 and -20 when scaled: emulate the
    # worked example directly through the aggregation arithmetic
    assert 0.5 * -10.0 + 0.25 * -20.0 == -10.0
    # and through the real path: hypotheses with w=1 reduce to forward_logprob
    single = WakewordModel(
        hypotheses=(Hypothesis(labels=(), enroll_logprob=-1.0),), alphabet=alphabet
    )
    assert score(single, post) == forward_logprob(post, ())
    _verdict(6, "weight conversion and weighted-sum arithmetic match hand values")


@pytest.fixture(scope="module")
def ordering_reports(oracle_model):
    episodes = synth.generate_synthetic_episodes(seed=ORDERING_SEED, count=ORDERING_EPISODES)
    params = HarnessParams(weights=oracle_model)
    started = time.time()
    reports = {
        detector: run_harness(detector, episodes, params)
        for detector in ("donut", "dtw_post", "dtw_fbank")
    }
    return reports, time.time() - started


def test_criterion_07_detector_ordering(ordering_reports):
    reports, elapsed = ordering_reports
    assert elapsed < 300.0
    confusing = {name: report.splits["confusing"].eer for name, report in reports.items()}
    assert confusing["donut"] < confusing["dtw_post"] < confusing["dtw_fbank"]
    _verdict(
        7,
        "confusing-split EER ordering donut {donut:.3f} < dtw_post {dtw_post:.3f} "
        "< dtw_fbank {dtw_fbank:.3f} ({elapsed:.0f}s)".format(elapsed=elapsed, **confusing),
    )


def test_criterion_08_hypothesis_count_trend(oracle_model):
    configs = {"n10": (100, 10), "n1": (100, 1), "greedy": (1, 1)}
    suites = [synth.generate_synthetic_episodes(seed=seed, count=TREND_EPISODES) for seed in TREND_SEEDS]
    means = {}
    for name, (beam_width, kept) in configs.items():
        total = 0.0
        for episodes in suites:
            params = HarnessParams(weights=oracle_model, beam_width=beam_width, num_hypotheses=kept)
            total += run_harness("donut", episodes, params).overall.eer
        means[name] = total / len(TREND_SEEDS)
    assert means["n10"] <= means["n1"] + 0.01
    assert abs(means["greedy"] - means["n1"]) <= 0.02
    _verdict(
        8,
        f"mean EER n10 {means['n10']:.4f} <= n1 {means['n1']:.4f} + 1pp; "
        f"greedy {means['greedy']:.4f} within 2pp of n1",
    )


def test_criterion_09_complexity_contract():
    rng = np.random.default_rng(20250814)
    alphabet = make_alphabet(4)

    def model_of(num_hyps, labels_len):
        labels = tuple(1 + (i % 4) for i in range(labels_len))
        hyps = tuple(Hypothesis(labels=labels, enroll_logprob=-2.0 - i) for i in range(num_hyps))
        return WakewordModel(hypotheses=hyps, alphabet=alphabet)

    post = random_posteriorgram(rng, 40, alphabet.size)
    longer_post = random_posteriorgram(rng, 80, alphabet.size)

    stats_n = score_segments(model_of(5, 4), [post])
    stats_2n = score_segments(model_of(10, 4), [post])
    assert stats_2n.cell_updates / stats_n.cell_updates <= 2.2

    stats_u = score_segments(model_of(5, 4), [post])
    stats_2u = score_segments(model_of(5, 8), [post])
    assert stats_2u.cell_updates / stats_u.cell_updates <= 2.2

    # forward-state memory is (2U+1) cells per hypothesis, independent of T
    stats_t = score_segments(model_of(5, 4), [post])
    stats_2t = score_segments(model_of(5, 4), [longer_post])
    assert stats_t.state_cells == stats_2t.state_cells == 5 * (2 * 4 + 1)
    assert stats_2t.cell_updates == 2 * stats_t.cell_updates
    _verdict(9, "scoring cost scales linearly in N, U, T; state is O(NU)")


def test_criterion_10_end_to_end_stream(tmp_path, capsys, oracle_model):
    cfg = synth.EpisodeConfig.clean()
    rng = np.random.default_rng(424242)
    speaker = synth.Speaker(pitch=1.0, rate=1.0, gain_db=0.0)
    target = (2, 5, 9, 12)
    distractor_labels = (1, 4, 8)

    weights_path = tmp_path / "oracle.bin"
    save_weights(weights_path, oracle_model)
    wav_paths = []
    for i in range(3):
        path = tmp_path / f"enroll_{i}.wav"
        write_wav(path, synth.render_utterance(target, speaker, rng, cfg))
        wav_paths.append(str(path))
    model_path = tmp_path / "word.model"
    assert (
        main(
            [
                "enroll",
                str(model_path),
                *wav_paths,
                "--weights",
                str(weights_path),
                "--beam-width",
                "20",
                "--num-hypotheses",
                "3",
            ]
        )
        == EXIT_OK
    )
    capsys.readouterr()

    phrase = synth.render_utterance(target, speaker, rng, cfg)
    distractor = synth.render_utterance(
        distractor_labels, synth.Speaker(1.01, 0.9, -3.0), rng, cfg
    )
    gap = np.zeros(9600, dtype=np.int16)
    stream = AudioBuffer(
        np.concatenate([gap, distractor.samples, gap, phrase.samples, gap])
    )
    stream_path = tmp_path / "stream.wav"
    write_wav(stream_path, stream)

    # pick the threshold between the batch scores of the two VAD segments
    from wakespot.wakeword import load_model

    model = load_model(model_path, oracle_model.alphabet)
    spans = segment(VadConfig(), stream)
    assert len(spans) == 2
    span_scores = []
    for span in spans:
        lo, hi = span_samples(span)
        post = run(oracle_model, stack_frames(extract_fbank(AudioBuffer(stream.samples[lo:hi]))))
        span_scores.append(score(model, post))
    assert span_scores[1] > span_scores[0]
    threshold = (span_scores[0] + span_scores[1]) / 2.0

    assert (
        main(
            [
                "listen",
                str(model_path),
                str(stream_path),
                "--weights",
                str(weights_path),
                "--threshold",
                str(threshold),
            ]
        )
        == EXIT_OK
    )
    out = capsys.readouterr().out
    assert out.count("event t=") == 1
    assert "events=1" in out

    silence_path = tmp_path / "silence.wav"
    write_wav(silence_path, AudioBuffer(np.zeros(32000, dtype=np.int16)))
    assert (
        main(
            [
                "listen",
                str(model_path),
                str(silence_path),
                "--weights",
                str(weights_path),
                "--threshold",
                str(threshold),
            ]
        )
        == EXIT_OK
    )
    out = capsys.readouterr().out
    assert "events=0" in out
    assert "gru_frames=0" in out
    _verdict(10, "stream fixture: one event among distractors, silent stream untouched")


def test_criterion_11_roc_estimator():
    rng = np.random.default_rng(20250815)
    checked = 0
    while checked < 100:
        n_pos = int(rng.integers(1, 10))
        n_neg = int(rng.integers(1, 10))
        values = rng.integers(0, 6, size=n_pos + n_neg).astype(float)
        scores = [(float(v), i < n_pos) for i, v in enumerate(values)]
        metrics = compute_roc(scores)
        assert math.isclose(metrics.auc, mann_whitney_auc(scores), abs_tol=1e-9)
        checked += 1
    perfect = compute_roc([(1.0, True)] * 4 + [(0.0, False)] * 4)
    assert perfect.eer == 0.0
    assert perfect.auc == 1.0
    _verdict(11, "AUC equals the rank statistic; perfect separation exact")
