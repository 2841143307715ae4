import math
import tempfile
import warnings
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wakespot import synth, wakeword
from wakespot.audio import (
    HOP_SAMPLES,
    SAMPLE_RATE,
    WINDOW_SAMPLES,
    AudioBuffer,
    extract_fbank,
    num_feature_frames,
    stack_frames,
)
from wakespot.ctc import NEG_INF, forward_logprob
from wakespot.errors import AudioError, FileFormatError, NonFiniteError
from wakespot.label_model import Posteriorgram, random_weights, run
from wakespot.vad import VadConfig, classify_frames, segment, span_samples, trim_to_speech
from wakespot.wakeword import (
    _BLOCK_PAIRS,
    Hypothesis,
    StreamingDetector,
    WakewordModel,
    detect_stream,
    featurize,
    learn,
    load_model,
    model_from_labels,
    save_model,
    score,
    score_with_stats,
    weight_from_logprob,
)

from conftest import make_alphabet, random_posteriorgram


def model_with(hypotheses, alphabet):
    return WakewordModel(
        hypotheses=tuple(hypotheses), alphabet=alphabet, beam_width=100, kept_per_example=10
    )


def peaky_posteriorgram(labels, alphabet, frames_per_label=2, blank_between=2, peak=0.98):
    rows = []
    k = alphabet.size

    def row(index):
        r = np.full(k, (1.0 - peak) / (k - 1))
        r[index] = peak
        return r

    for label in labels:
        rows.extend(row(0) for _ in range(blank_between))
        rows.extend(row(label) for _ in range(frames_per_label))
    rows.extend(row(0) for _ in range(blank_between))
    return Posteriorgram(np.array(rows), alphabet)


class TestWeightConversion:
    def test_basic_values(self):
        assert weight_from_logprob(-1.0) == 1.0
        assert weight_from_logprob(-2.0) == 0.5
        assert weight_from_logprob(-10.0) == 0.1

    def test_near_certain_hypothesis_is_clamped(self):
        assert weight_from_logprob(0.0) == pytest.approx(1e6)
        assert weight_from_logprob(-1e-9) == pytest.approx(1e6)
        assert math.isfinite(weight_from_logprob(0.0))


class TestLearn:
    def test_weights_from_known_logprobs(self):
        # two examples whose decoders return logprobs -1 and -2 produce
        # weights 1.0 and 0.5
        alphabet = make_alphabet(3)
        posts = [peaky_posteriorgram((1, 2), alphabet), peaky_posteriorgram((1, 3), alphabet)]
        model = learn(posts, beam_width=4, num_hypotheses=1)
        assert len(model.hypotheses) == 2
        for hyp in model.hypotheses:
            assert hyp.weight == weight_from_logprob(hyp.enroll_logprob)
            assert hyp.weight > 0

    def test_identical_posteriorgrams_keep_three_copies(self):
        alphabet = make_alphabet(3)
        post = peaky_posteriorgram((1, 2), alphabet)
        model = learn([post, post, post], beam_width=4, num_hypotheses=1)
        assert len(model.hypotheses) == 3
        sequences = {h.labels for h in model.hypotheses}
        weights = {h.weight for h in model.hypotheses}
        assert len(sequences) == 1 and len(weights) == 1
        assert sorted(h.example for h in model.hypotheses) == [0, 1, 2]

    def test_greedy_enrollment_keeps_three_hypotheses(self):
        alphabet = make_alphabet(3)
        posts = [peaky_posteriorgram((1,), alphabet) for _ in range(3)]
        model = learn(posts, beam_width=1, num_hypotheses=1)
        assert len(model.hypotheses) == 3
        assert all(h.labels == (1,) for h in model.hypotheses)

    def test_kept_bound(self):
        alphabet = make_alphabet(2)
        rng = np.random.default_rng(0)
        posts = [random_posteriorgram(rng, 5, alphabet.size) for _ in range(3)]
        model = learn(posts, beam_width=50, num_hypotheses=10)
        assert 1 <= len(model.hypotheses) <= 30

    def test_n_greater_than_beam_rejected(self):
        alphabet = make_alphabet(2)
        post = peaky_posteriorgram((1,), alphabet)
        with pytest.raises(ValueError):
            learn([post], beam_width=2, num_hypotheses=3)

    def test_empty_posteriorgram_rejected(self):
        alphabet = make_alphabet(2)
        empty = Posteriorgram(np.zeros((0, alphabet.size)), alphabet)
        word = peaky_posteriorgram((1,), alphabet)
        with pytest.raises(ValueError, match="training example 2 of 2 is empty"):
            learn([word, empty], beam_width=2, num_hypotheses=1)

    def test_silence_only_training_warns(self, caplog):
        alphabet = make_alphabet(2)
        blank = peaky_posteriorgram((), alphabet, blank_between=6)
        word = peaky_posteriorgram((1, 2), alphabet)
        with caplog.at_level("WARNING", logger="wakespot"):
            learn([word, blank], beam_width=1, num_hypotheses=1)
        assert [r.getMessage() for r in caplog.records] == [
            "training example 2 of 2: decoder produced only the empty sequence; "
            "the model may be degenerate"
        ]


class TestScore:
    def test_weighted_sum_arithmetic(self):
        # (log p, w) = (-10, 0.5) and (-20, 0.25) sum to -10
        alphabet = make_alphabet(2)
        post = peaky_posteriorgram((1,), alphabet)
        h1 = Hypothesis(labels=(1,), enroll_logprob=-2.0, weight=0.5)
        h2 = Hypothesis(labels=(1, 1), enroll_logprob=-4.0, weight=0.25)
        model = model_with([h1, h2], alphabet)
        lp1 = forward_logprob(post, h1.labels)
        lp2 = forward_logprob(post, h2.labels)
        assert score(model, post) == 0.5 * lp1 + 0.25 * lp2
        assert 0.5 * -10.0 + 0.25 * -20.0 == -10.0  # the worked arithmetic itself

    def test_weighted_sum_runs_left_to_right_in_model_order(self):
        # one frame on which the hypothesis (1,) has forward log prob exactly -1
        alphabet = make_alphabet(1)
        post = Posteriorgram(np.array([[1.0 - math.exp(-1.0), math.exp(-1.0)]]), alphabet)
        assert forward_logprob(post, (1,)) == -1.0
        weights = (1e16, 1.0, 1.0)
        model = model_with(
            [Hypothesis(labels=(1,), enroll_logprob=-1.0, weight=w) for w in weights], alphabet
        )
        terms = [-w for w in weights]  # -1e16, -1.0, -1.0
        total = 0.0
        for term in terms:
            total += term  # each -1.0 rounds away against -1e16
        assert score(model, post) == total == -1e16
        assert math.fsum(terms) == -1.0000000000000002e16 != score(model, post)

    def test_single_unit_weight_equals_forward(self):
        alphabet = make_alphabet(3)
        post = peaky_posteriorgram((1, 2), alphabet)
        model = model_from_labels(["L0", "L1"], alphabet)
        assert score(model, post) == forward_logprob(post, (1, 2))

    def test_impossible_hypothesis_makes_score_minus_inf(self):
        alphabet = make_alphabet(1)
        post = Posteriorgram(np.array([[1.0, 0.0]]), alphabet)
        model = model_with(
            [
                Hypothesis(labels=(1,), enroll_logprob=-1.0, weight=1.0),
                Hypothesis(labels=(1, 1), enroll_logprob=-1.0, weight=1.0),
            ],
            alphabet,
        )
        assert score(model, post) == NEG_INF

    def test_alphabet_mismatch_rejected(self):
        post = peaky_posteriorgram((1,), make_alphabet(2))
        model = model_from_labels(["X0"], make_alphabet(2).__class__(("X0", "X1")))
        with pytest.raises(ValueError):
            score(model, post)

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            WakewordModel(hypotheses=(), alphabet=make_alphabet(2), beam_width=1, kept_per_example=1)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        alphabet = make_alphabet(3)
        post = random_posteriorgram(rng, 8, alphabet.size)
        hyps = [
            Hypothesis(labels=(1,), enroll_logprob=-1.0, weight=1.0),
            Hypothesis(labels=(2, 3), enroll_logprob=-2.0, weight=0.5),
            Hypothesis(labels=(3,), enroll_logprob=-4.0, weight=0.25),
        ]
        base = score(model_with(hyps, alphabet), post)
        shuffled = score(model_with(hyps[::-1], alphabet), post)
        assert shuffled == pytest.approx(base, abs=1e-9)

    def test_weight_scaling_scales_scores_and_keeps_ranking(self):
        rng = np.random.default_rng(2)
        alphabet = make_alphabet(3)
        posts = [random_posteriorgram(rng, 7, alphabet.size) for _ in range(5)]
        hyps = [
            Hypothesis(labels=(1, 2), enroll_logprob=-2.0, weight=0.5),
            Hypothesis(labels=(2,), enroll_logprob=-5.0, weight=0.2),
        ]
        model = model_with(hyps, alphabet)
        scaled = model_with(
            [
                Hypothesis(labels=h.labels, enroll_logprob=h.enroll_logprob, weight=3.0 * h.weight)
                for h in hyps
            ],
            alphabet,
        )
        base_scores = np.array([score(model, p) for p in posts])
        scaled_scores = np.array([score(scaled, p) for p in posts])
        assert np.allclose(scaled_scores, 3.0 * base_scores, rtol=1e-12)
        assert list(np.argsort(base_scores)) == list(np.argsort(scaled_scores))


class TestScoreStats:
    def test_counters_match_structure(self):
        rng = np.random.default_rng(3)
        alphabet = make_alphabet(3)
        post = random_posteriorgram(rng, 10, alphabet.size)
        hyps = [
            Hypothesis(labels=(1, 2), enroll_logprob=-2.0, weight=0.5),
            Hypothesis(labels=(3,), enroll_logprob=-2.0, weight=0.5),
        ]
        model = model_with(hyps, alphabet)
        value, stats = score_with_stats(model, post)
        assert value == pytest.approx(score(model, post), abs=1e-12)
        assert stats.hypotheses == 2
        assert stats.state_cells == (2 * 2 + 1) + (2 * 1 + 1)
        assert stats.cell_updates == 10 * stats.state_cells

    def test_counters_skip_lattice_padding(self):
        rng = np.random.default_rng(4)
        alphabet = make_alphabet(3)
        post = random_posteriorgram(rng, 12, alphabet.size)
        hyps = [
            Hypothesis(labels=(2,), enroll_logprob=-2.0, weight=0.5),
            Hypothesis(labels=(1, 2, 3, 1, 2, 3, 1, 2), enroll_logprob=-3.0, weight=0.25),
        ]
        model = model_with(hyps, alphabet)
        value, stats = score_with_stats(model, post)
        assert stats.state_cells == 3 + 17  # not 2 * 17
        assert stats.cell_updates == 12 * (3 + 17)
        assert value == score(model, post)


def test_identical_hypotheses_share_lattice_cells():
    rng = np.random.default_rng(5)
    alphabet = make_alphabet(4)
    post = random_posteriorgram(rng, 8, alphabet.size)
    hyps = [
        Hypothesis(labels=(1, 2, 3, 4), enroll_logprob=-2.0 - i, weight=0.2) for i in range(5)
    ]
    model = model_with(hyps, alphabet)
    value, stats = score_with_stats(model, post)
    assert stats.state_cells == 45  # 5 * (2 * 4 + 1), as if scored one by one
    assert stats.lattice_cells == 9  # one path of 4 prefixes: 2 * 4 + 1
    assert stats.cell_updates == 8 * 45
    assert value == score(model, post)


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        alphabet = make_alphabet(4)
        model = model_with(
            [
                Hypothesis(labels=(1, 3), enroll_logprob=-2.5, weight=0.4),
                Hypothesis(labels=(), enroll_logprob=-1.25, weight=0.8),
            ],
            alphabet,
        ).with_threshold(-121.0)
        path = tmp_path / "m.model"
        save_model(path, model)
        back = load_model(path, alphabet)
        assert back.threshold == -121.0
        assert back.beam_width == model.beam_width
        assert back.kept_per_example == model.kept_per_example
        assert [(h.labels, h.weight, h.enroll_logprob) for h in back.hypotheses] == [
            (h.labels, h.weight, h.enroll_logprob) for h in model.hypotheses
        ]

    def test_nan_threshold_rejected(self):
        model = model_with([Hypothesis(labels=(1,), enroll_logprob=-2.0, weight=0.5)], make_alphabet(2))
        with pytest.raises(ValueError, match="nan"):
            model.with_threshold(math.nan)
        for threshold in (-math.inf, math.inf):
            assert model.with_threshold(threshold).threshold == threshold

    def test_file_is_human_readable(self, tmp_path):
        alphabet = make_alphabet(3)
        model = model_with([Hypothesis(labels=(1, 2), enroll_logprob=-2.0, weight=0.5)], alphabet)
        path = tmp_path / "m.model"
        save_model(path, model)
        text = path.read_text()
        assert "L0 L1\t0.5\t-2.0" in text
        assert "alphabet-sha256" in text
        assert "threshold unset" in text

    def test_wrong_alphabet_rejected(self, tmp_path):
        alphabet = make_alphabet(3)
        model = model_with([Hypothesis(labels=(1,), enroll_logprob=-1.0, weight=1.0)], alphabet)
        path = tmp_path / "m.model"
        save_model(path, model)
        with pytest.raises(FileFormatError):
            load_model(path, make_alphabet(4))

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("not a model\n")
        with pytest.raises(FileFormatError):
            load_model(path, make_alphabet(2))

    def test_example_index_round_trips(self, tmp_path):
        alphabet = make_alphabet(3)
        model = model_with(
            [
                Hypothesis(labels=(1, 2), enroll_logprob=-2.0, weight=0.5, example=2),
                Hypothesis(labels=(3,), enroll_logprob=-0.1, weight=10.0, example=0),
            ],
            alphabet,
        )
        path = tmp_path / "m.model"
        save_model(path, model)
        assert path.read_text().startswith("wakespot-model 2\n")
        assert load_model(path, alphabet) == model

    def test_version_1_files_still_load(self, tmp_path):
        alphabet = make_alphabet(3)
        path = tmp_path / "m.model"
        path.write_text(
            "wakespot-model 1\n"
            f"alphabet-sha256 {alphabet.content_hash()}\n"
            "beam-width 20\nkept-per-example 3\nthreshold -12.5\n"
            "L0 L1\t0.5\t-2.0\n"
            "\t0.25\t-4.0\n"
        )
        assert load_model(path, alphabet) == WakewordModel(
            hypotheses=(
                Hypothesis(labels=(1, 2), enroll_logprob=-2.0, weight=0.5),
                Hypothesis(labels=(), enroll_logprob=-4.0, weight=0.25),
            ),
            alphabet=alphabet,
            beam_width=20,
            kept_per_example=3,
            threshold=-12.5,
        )

    @pytest.mark.parametrize(
        "old, new, error",
        [
            ("beam-width 100", "beam-width abc", FileFormatError),
            ("beam-width 100", "beam-width 0", FileFormatError),
            ("kept-per-example 10", "kept-per-example 1.5", FileFormatError),
            ("threshold -7.5", "threshold high", FileFormatError),
            ("threshold -7.5", "threshold nan", NonFiniteError),
            ("wakespot-model 2", "wakespot-model 3", FileFormatError),
            ("L0 L1\t", "L0 Lx\t", FileFormatError),  # unknown symbol
            ("L0 L1\t", "L0 <b>\t", FileFormatError),  # the blank is not a label
            ("\t0.5\t", "\t0.0\t", FileFormatError),  # non-positive weight
            ("\t0.5\t", "\t-0.5\t", FileFormatError),
            ("\t0.5\t", "\theavy\t", FileFormatError),
            ("\t0.5\t", "\tinf\t", NonFiniteError),
            ("\t-2.0\t", "\tnan\t", NonFiniteError),  # enrollment log-prob
            ("\t-2.0\t", "\t-inf\t", NonFiniteError),
            ("\t-2.0\t", "\tlow\t", FileFormatError),
            ("\t-2.0\t1\n", "\t-2.0\tone\n", FileFormatError),  # example index
            ("\t-2.0\t1\n", "\t-2.0\t-2\n", FileFormatError),
            ("\t-2.0\t1\n", "\t-2.0\n", FileFormatError),  # version 2 needs 4 fields
        ],
    )
    def test_malformed_field_raises_file_format_error(self, tmp_path, old, new, error):
        alphabet = make_alphabet(3)
        model = model_with(
            [Hypothesis(labels=(1, 2), enroll_logprob=-2.0, weight=0.5, example=1)], alphabet
        ).with_threshold(-7.5)
        path = tmp_path / "m.model"
        save_model(path, model)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        with pytest.raises(error):
            load_model(path, alphabet)

    def test_non_utf8_file_raises_file_format_error(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_bytes(b"wakespot-model 2\n\xff\xfe\n")
        with pytest.raises(FileFormatError):
            load_model(path, make_alphabet(2))


@st.composite
def learned_models(draw):
    """A model learned from 1-3 random posteriorgrams, with or without a threshold."""
    alphabet = make_alphabet(draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    posts = [
        random_posteriorgram(rng, draw(st.integers(1, 8)), alphabet.size)
        for _ in range(draw(st.integers(1, 3)))
    ]
    beam_width = draw(st.integers(1, 8))
    kept = draw(st.integers(1, beam_width))
    threshold = draw(st.one_of(st.none(), st.floats(-1e6, 0.0), st.sampled_from([-math.inf, math.inf])))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return learn(posts, beam_width, kept, threshold=threshold)


@settings(max_examples=60, deadline=None)
@given(learned_models())
def test_saved_model_loads_back_equal_property(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.model"
        save_model(path, model)
        assert load_model(path, model.alphabet) == model


def enrolled_fixture(seed=0):
    """Oracle weights + a model enrolled on three rendered recordings."""
    weights = synth.oracle_weights()
    cfg = synth.EpisodeConfig.clean()
    rng = np.random.default_rng(seed)
    speaker = synth.Speaker(pitch=1.0, rate=1.0, gain_db=0.0)
    target = (2, 5, 9, 12)
    supports = [synth.render_utterance(target, speaker, rng, cfg) for _ in range(3)]
    posts = [run(weights, stack_frames(extract_fbank(a))) for a in supports]
    model = learn(posts, beam_width=20, num_hypotheses=3)
    return weights, model, target, speaker, cfg, rng


class TestFeaturize:
    def test_is_trim_fbank_stack_and_gru(self):
        weights = synth.oracle_weights()
        rng = np.random.default_rng(9)
        speaker = synth.Speaker(pitch=1.0, rate=1.0, gain_db=0.0)
        audio = synth.render_utterance((2, 5, 9), speaker, rng, synth.EpisodeConfig.clean())
        trimmed, found = trim_to_speech(VadConfig(), audio)
        assert found and len(trimmed.samples) < len(audio.samples)
        [fbank] = featurize([audio], VadConfig())
        assert fbank.frames.tobytes() == extract_fbank(trimmed).frames.tobytes()
        assert featurize([audio])[0].frames.tobytes() == extract_fbank(audio).frames.tobytes()
        [post] = featurize([audio], VadConfig(), weights)
        assert post.rows.tobytes() == run(weights, stack_frames(fbank)).rows.tobytes()

    def test_no_speech_keeps_the_whole_recording_and_warns(self, caplog):
        audio = AudioBuffer(np.zeros(4000, dtype=np.int16))
        with caplog.at_level("WARNING", logger="wakespot"):
            [fbank] = featurize([audio], VadConfig())
        assert fbank.num_frames == extract_fbank(audio).num_frames
        assert [r.getMessage() for r in caplog.records] == [
            "no speech found by VAD in recording 1 of 1; using the whole recording"
        ]
        caplog.clear()
        featurize([audio])
        assert not caplog.records

    def test_no_speech_warning_gives_the_position_in_the_call(self, caplog):
        speech = synth.render_utterance(
            (2, 5, 9), synth.Speaker(1.0, 1.0, 0.0), np.random.default_rng(9), synth.EpisodeConfig.clean()
        )
        silence = AudioBuffer(np.zeros(4000, dtype=np.int16))
        with caplog.at_level("WARNING", logger="wakespot"):
            fbanks = featurize([speech, silence, speech, silence], VadConfig())
        assert [f.num_frames for f in fbanks[1::2]] == 2 * [extract_fbank(silence).num_frames]
        assert [r.getMessage() for r in caplog.records] == [
            f"no speech found by VAD in recording {i} of 4; using the whole recording" for i in (2, 4)
        ]


class TestStreamingDetector:
    def test_silence_never_touches_label_model(self):
        weights, model, *_ = enrolled_fixture()
        silence = np.zeros(16000, dtype=np.int16)
        report = detect_stream(model, weights, [silence], threshold=-1e9)
        assert report.events == ()
        assert report.stats.label_model_frames == 0
        assert report.stats.speech_frames == 0

    def test_infinite_threshold_blocks_all_events(self):
        weights, model, target, speaker, cfg, rng = enrolled_fixture(1)
        audio = synth.render_utterance(target, speaker, rng, cfg)
        report = detect_stream(model, weights, [audio.samples], threshold=float("inf"))
        assert report.events == ()
        assert report.stats.segments_scored >= 1

    def test_nan_threshold_rejected(self):
        weights, model, *_ = enrolled_fixture()
        with pytest.raises(ValueError, match="nan"):
            StreamingDetector(model, weights, threshold=math.nan)

    def test_single_phrase_gives_single_event(self):
        weights, model, target, speaker, cfg, rng = enrolled_fixture(2)
        phrase = synth.render_utterance(target, speaker, rng, cfg)
        gap = np.zeros(8000, dtype=np.int16)
        stream = np.concatenate([gap, phrase.samples, gap])
        report = detect_stream(model, weights, [stream], threshold=-200.0)
        assert len(report.events) == 1
        assert report.stats.segments_scored == 1

    def test_streaming_score_matches_batch_segment_score(self):
        weights, model, target, speaker, cfg, rng = enrolled_fixture(3)
        phrase = synth.render_utterance(target, speaker, rng, cfg)
        gap = np.zeros(6000, dtype=np.int16)
        stream = np.concatenate([gap, phrase.samples, gap])
        vad_config = VadConfig()
        report = detect_stream(
            model, weights, [stream], threshold=-1e12, vad_config=vad_config
        )
        spans = segment(vad_config, AudioBuffer(stream))
        assert len(report.events) == len(spans) == 1
        lo, hi = span_samples(spans[0])
        batch_post = run(weights, stack_frames(extract_fbank(AudioBuffer(stream[lo:hi]))))
        assert report.events[0].score == pytest.approx(score(model, batch_post), abs=1e-9)
        assert (report.events[0].start_frame, report.events[0].end_frame) == spans[0]

    def test_chunk_size_does_not_change_events(self):
        weights, model, target, speaker, cfg, rng = enrolled_fixture(4)
        phrase = synth.render_utterance(target, speaker, rng, cfg)
        gap = np.zeros(5000, dtype=np.int16)
        stream = np.concatenate([gap, phrase.samples, gap])

        def run_with_chunk(n):
            chunks = [stream[i : i + n] for i in range(0, len(stream), n)]
            return detect_stream(model, weights, chunks, threshold=-1e12)

        reports = [run_with_chunk(n) for n in (37, 160, 4096)]
        scores = [tuple(e.score for e in r.events) for r in reports]
        assert scores[0] == scores[1] == scores[2]

    def test_malformed_chunks_are_counted_and_skipped(self):
        weights, model, *_ = enrolled_fixture(5)
        detector = StreamingDetector(model, weights, threshold=0.0)
        assert detector.process(np.zeros((3, 3))) == []
        assert detector.process(np.array(["a", "b"])) == []
        assert detector.process(np.array([np.nan, 0.0])) == []
        assert detector.process(np.full(4000, 100 + 5j)) == []
        assert detector.process(np.full(4000, 0.5)) == []  # no PCM sample is fractional
        assert detector.stats.malformed_chunks == 5

    @pytest.mark.parametrize(
        "chunk",
        [
            np.full(4000, 40000, dtype=np.int32),
            np.full(4000, -32769, dtype=np.int64),
            np.full(4000, 1e9),
            np.full(4000, 65535, dtype=np.uint16),
            np.r_[np.zeros(3999), np.inf],
        ],
    )
    def test_samples_outside_the_int16_range_are_malformed(self, chunk):
        weights, model, *_ = enrolled_fixture(5)
        detector = StreamingDetector(model, weights, threshold=-math.inf)
        assert detector.process(chunk) == []
        assert detector.finish() == []
        assert detector.stats.malformed_chunks == 1
        assert detector.stats.frames_processed == 0
        if np.issubdtype(chunk.dtype, np.integer):  # the batch rule, for comparison
            with pytest.raises(AudioError, match="int16 range"):
                AudioBuffer(chunk)

    def test_samples_at_the_int16_limits_are_accepted(self):
        weights, model, *_ = enrolled_fixture(5)
        detector = StreamingDetector(model, weights, threshold=-math.inf)
        detector.process(np.array([-32768, 32767] * 2000, dtype=np.int32))
        detector.process(np.array([-32768.0, 32767.0] * 2000))
        assert detector.stats.malformed_chunks == 0
        assert detector.stats.frames_processed > 0

    def test_two_phrases_give_two_events(self):
        weights, model, target, speaker, cfg, rng = enrolled_fixture(6)
        phrase1 = synth.render_utterance(target, speaker, rng, cfg)
        phrase2 = synth.render_utterance(target, speaker, rng, cfg)
        gap = np.zeros(8000, dtype=np.int16)
        stream = np.concatenate([gap, phrase1.samples, gap, phrase2.samples, gap])
        report = detect_stream(model, weights, [stream], threshold=-200.0)
        assert len(report.events) == 2
        assert report.events[0].time < report.events[1].time


def noisy(signal, rng, dbfs=-30.0):
    """``signal`` under continuous Gaussian noise at ``dbfs``, above the
    default VAD threshold, so the VAD stays open throughout."""
    sigma = 32768.0 * 10.0 ** (dbfs / 20.0)
    out = np.asarray(signal, dtype=np.float64) + rng.normal(0.0, sigma, len(signal))
    return np.clip(out, -32768, 32767).round().astype(np.int16)


def batch_event_score(model, weights, stream, event):
    lo, hi = span_samples((event.start_frame, event.end_frame))
    post = run(weights, stack_frames(extract_fbank(AudioBuffer(stream[lo:hi]))))
    return score(model, post)


class TestStreamingEqualsBatch:
    def test_events_are_bit_equal_to_batch_score_of_their_span(self):
        weights, model, target, speaker, cfg, rng = enrolled_fixture(7)
        other = synth.Speaker(pitch=1.03, rate=0.9, gain_db=-2.0)
        gap = lambda seconds: np.zeros(int(seconds * 16000), dtype=np.int16)
        utterance = lambda labels, who: synth.render_utterance(labels, who, rng, cfg).samples
        stretch = noisy(
            np.concatenate(
                [gap(0.3), utterance(target, speaker), gap(0.3), utterance((1, 4, 8), other), gap(0.3)]
            ),
            rng,
        )
        stream = np.concatenate(
            [gap(0.5), utterance(target, speaker), gap(0.5), utterance((3, 7, 11), other),
             gap(0.5), stretch, gap(0.5), utterance(target, speaker), gap(0.5)]
        )
        chunks = [stream[i : i + HOP_SAMPLES] for i in range(0, len(stream), HOP_SAMPLES)]
        report = detect_stream(model, weights, chunks, -math.inf)
        assert len(report.events) == report.stats.segments_scored == 4
        lengths = [e.end_frame - e.start_frame for e in report.events]
        assert max(lengths) * HOP_SAMPLES > len(stretch)  # the stretch is one segment
        for event in report.events:
            assert event.score == batch_event_score(model, weights, stream, event)
            assert event.time == span_samples((event.start_frame, event.end_frame))[1] / SAMPLE_RATE

    def test_state_stays_bounded_under_unbroken_speech(self):
        weights, model, *_ = enrolled_fixture(8)
        rng = np.random.default_rng(8)
        stream = noisy(np.zeros(60 * 16000), rng)
        detector = StreamingDetector(model, weights, threshold=-math.inf)
        largest = 0
        for i in range(0, len(stream), HOP_SAMPLES):
            assert detector.process(stream[i : i + HOP_SAMPLES]) == []
            held = [v.size for v in vars(detector).values() if isinstance(v, np.ndarray)]
            largest = max(largest, *held)
        assert largest <= WINDOW_SAMPLES + HOP_SAMPLES + 1
        (event,) = detector.finish()
        assert (event.start_frame, event.end_frame) == (0, num_feature_frames(len(stream)))
        assert event.score == batch_event_score(model, weights, stream, event)
        assert event.time == span_samples((event.start_frame, event.end_frame))[1] / SAMPLE_RATE


def speech_runs(decisions):
    """Maximal runs of speech decisions as (start, end) pairs, end exclusive."""
    runs, start = [], None
    for t, speech in enumerate([*decisions, False]):
        if speech and start is None:
            start = t
        elif not speech and start is not None:
            runs.append((start, t))
            start = None
    return runs


@pytest.mark.parametrize(
    "config, tail_frames, dropped",
    [
        (VadConfig(), 4, 1),
        (VadConfig(hangover_frames=0, min_speech_frames=10), 4, 3),
        (VadConfig(hangover_frames=3, min_speech_frames=12), 4, 3),
        (VadConfig(), 40, 0),
        (VadConfig(hangover_frames=0, min_speech_frames=10), 40, 3),
        (VadConfig(hangover_frames=3, min_speech_frames=12), 40, 3),
        # runs exactly min_speech_frames long, mid-stream and cut off at the end
        (VadConfig(hangover_frames=0, min_speech_frames=12), 4, 4),
        (VadConfig(min_speech_frames=40), 40, 2),
    ],
)
def test_streaming_segments_are_vad_segment_spans(config, tail_frames, dropped):
    """Streaming opens a segment on speech, closes it on the first non-speech
    frame and drops runs shorter than ``min_speech_frames``, as ``segment``
    does: keywords, 50 ms noise bursts, and a last utterance cut off
    ``tail_frames`` frames after its onset, which ``finish`` closes."""
    weights, model, target, speaker, cfg, rng = enrolled_fixture(5)
    gap = lambda seconds: np.zeros(int(seconds * 16000), dtype=np.int16)
    utterance = lambda: synth.render_utterance(target, speaker, rng, cfg).samples
    burst = lambda: noisy(np.zeros(800), rng, dbfs=-20.0)
    last = utterance()
    onset = classify_frames(VadConfig(hangover_frames=0), AudioBuffer(last)).index(True)
    cut = last[: (onset + tail_frames) * HOP_SAMPLES + WINDOW_SAMPLES]
    stream = np.concatenate(
        [gap(0.3), utterance(), gap(0.5), burst(), gap(0.5), utterance(), gap(0.5), burst(),
         gap(0.5), cut]
    )
    chunks = [stream[i : i + HOP_SAMPLES] for i in range(0, len(stream), HOP_SAMPLES)]
    report = detect_stream(model, weights, chunks, -math.inf, config)
    spans = segment(config, AudioBuffer(stream))
    assert [(e.start_frame, e.end_frame) for e in report.events] == spans
    runs = speech_runs(classify_frames(config, AudioBuffer(stream)))
    assert report.stats.segments_discarded == len(runs) - len(spans) == dropped


def burst(frames, rng):
    """A burst that exactly ``frames`` hop-grid windows find loud when it
    starts on the grid: a -38 dBFS square wave under faint noise,
    which lifts a window over the -40 dBFS threshold only when it fills all
    400 samples of it (a window one hop further out holds 240). Silence
    pads it to whole hops, so the next burst starts on the grid."""
    amplitude = 32768.0 * 10.0 ** (-38.0 / 20.0)
    n = WINDOW_SAMPLES + (frames - 1) * HOP_SAMPLES
    square = amplitude * np.where(np.arange(n) % 2, -1.0, 1.0)
    samples = (square + rng.normal(0.0, 20.0, n)).round().astype(np.int16)
    return np.concatenate([samples, np.zeros(-n % HOP_SAMPLES, dtype=np.int16)])


@cache
def deep_weights_stream():
    """Deep random weights, a model learned under them, and a stream whose
    hangover-0 segments hold 1 to 2 x _BLOCK_PAIRS + 1 stacked pairs, with
    and without a trailing unpaired frame, then a noisy stretch of speech."""
    weights = random_weights(synth.synth_alphabet(), 3, 24, seed=5)
    rng = np.random.default_rng(17)
    speaker = synth.Speaker(pitch=1.0, rate=1.0, gain_db=0.0)
    cfg = synth.EpisodeConfig.clean()
    supports = [synth.render_utterance((2, 5, 9, 12), speaker, rng, cfg) for _ in range(3)]
    model = learn([run(weights, stack_frames(extract_fbank(a))) for a in supports], 20, 4)
    gap = np.zeros(30 * HOP_SAMPLES, dtype=np.int16)  # longer than the default hangover
    parts = [gap]
    for frames in range(2, 2 * (2 * _BLOCK_PAIRS + 1) + 2):
        parts += [burst(frames, rng), gap]
    stretch = synth.render_utterance((3, 7, 11), speaker, rng, cfg).samples
    parts += [noisy(stretch, rng), gap]
    return weights, model, np.concatenate(parts)


DEEP_STREAM_CONFIGS = [
    VadConfig(),
    VadConfig(hangover_frames=0, min_speech_frames=1),
    VadConfig(hangover_frames=3, min_speech_frames=1),
]


@pytest.mark.parametrize("chunk_samples", [HOP_SAMPLES, 4096])
@pytest.mark.parametrize("config", DEEP_STREAM_CONFIGS)
def test_streaming_with_deep_weights_is_bit_equal_to_batch(config, chunk_samples):
    """Blocks of every size, flushed when full or at the last frame of a
    hangover, stream through three GRU layers with the bits of batch
    scoring."""
    weights, model, stream = deep_weights_stream()
    chunks = [stream[i : i + chunk_samples] for i in range(0, len(stream), chunk_samples)]
    report = detect_stream(model, weights, chunks, -math.inf, config)
    spans = segment(config, AudioBuffer(stream))
    assert [(e.start_frame, e.end_frame) for e in report.events] == spans
    if config.hangover_frames == 0:
        pairs = {(end - start) // 2 for start, end in spans}
        assert set(range(1, 2 * _BLOCK_PAIRS + 2)) <= pairs
        assert max(pairs) > 4 * _BLOCK_PAIRS  # the noisy stretch
    for event in report.events:
        assert event.score == batch_event_score(model, weights, stream, event)
    assert report.stats.label_model_frames == sum((end - start) // 2 for start, end in spans)


@pytest.mark.parametrize("config", DEEP_STREAM_CONFIGS)
def test_a_call_that_returns_an_event_runs_no_gru(config, monkeypatch):
    """In 10 ms chunks, the block is flushed before a segment can close, so
    the process call that returns an event calls the GRU kernel 0 times."""
    weights, model, stream = deep_weights_stream()
    calls, kernel = [], wakeword._run_from

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(wakeword, "_run_from", counted)
    detector = StreamingDetector(model, weights, -math.inf, config)
    events = 0
    for i in range(0, len(stream), HOP_SAMPLES):
        before = len(calls)
        if detector.process(stream[i : i + HOP_SAMPLES]):
            events += 1
            assert len(calls) == before
    assert detector.finish() == []
    assert events == len(segment(config, AudioBuffer(stream)))
    blocks = [len(args[1]) for args in calls]
    # with no hangover every loud frame flushes, so each block is one pair
    assert blocks and max(blocks) == (_BLOCK_PAIRS if config.hangover_frames else 1)
