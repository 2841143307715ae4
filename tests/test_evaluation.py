import math
from dataclasses import fields, replace

import numpy as np
import pytest

from wakespot import synth
from wakespot.audio import AudioBuffer
from wakespot.evaluation import (
    Episode,
    HarnessParams,
    HarnessReport,
    TestRecording,
    compute_roc,
    ctc_scores,
    dtw_scores,
    enroll,
    format_report,
    read_episodes,
    run_harness,
    save_roc_points,
    write_episodes,
)
from wakespot.errors import FileFormatError
from wakespot.wakeword import model_from_labels

from conftest import narrow_weights


def mann_whitney_auc(scores):
    """Probability a random positive outranks a random negative, ties half."""
    pos = [s for s, p in scores if p]
    neg = [s for s, p in scores if not p]
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestComputeRoc:
    def test_perfect_separation(self):
        scores = [(1.0, True)] * 5 + [(0.0, False)] * 7
        metrics = compute_roc(scores)
        assert metrics.eer == 0.0
        assert metrics.auc == 1.0

    def test_anti_classifier(self):
        scores = [(0.0, True)] * 5 + [(1.0, False)] * 7
        metrics = compute_roc(scores)
        assert metrics.auc == 0.0

    def test_four_point_hand_case(self):
        # pos {0.9, 0.4}, neg {0.6, 0.1}: 3 of 4 pairs ranked correctly
        scores = [(0.9, True), (0.4, True), (0.6, False), (0.1, False)]
        metrics = compute_roc(scores)
        assert metrics.auc == pytest.approx(0.75)
        assert metrics.eer == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            compute_roc([(0.5, True), (0.2, True)])
        with pytest.raises(ValueError):
            compute_roc([])

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            compute_roc([(0.9, True), (math.nan, True), (0.1, False)])

    def test_auc_equals_mann_whitney_with_ties(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n_pos = int(rng.integers(1, 9))
            n_neg = int(rng.integers(1, 9))
            # draw from a small discrete set so ties actually occur
            values = rng.integers(0, 5, size=n_pos + n_neg).astype(float)
            scores = [(float(v), i < n_pos) for i, v in enumerate(values)]
            try:
                metrics = compute_roc(scores)
            except ValueError:
                continue
            assert math.isclose(metrics.auc, mann_whitney_auc(scores), abs_tol=1e-9)

    def test_minus_inf_scores_supported(self):
        scores = [(0.0, True), (float("-inf"), True), (float("-inf"), False)]
        metrics = compute_roc(scores)
        assert math.isclose(metrics.auc, mann_whitney_auc(scores), abs_tol=1e-9)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        raw = [(float(v), bool(p)) for v, p in zip(rng.normal(size=30), rng.random(30) > 0.4)]
        if not any(p for _, p in raw) or all(p for _, p in raw):
            raw[0] = (raw[0][0], True)
            raw[1] = (raw[1][0], False)
        base = compute_roc(raw)
        warped = compute_roc([(math.exp(0.5 * v), p) for v, p in raw])
        assert math.isclose(base.auc, warped.auc, abs_tol=1e-12)
        assert math.isclose(base.eer, warped.eer, abs_tol=1e-12)

    def test_points_sorted_by_descending_threshold(self):
        scores = [(0.9, True), (0.4, True), (0.6, False), (0.1, False)]
        points = compute_roc(scores).points
        thresholds = [p.threshold for p in points]
        assert thresholds == sorted(thresholds, reverse=True)
        assert points[0].far == 0.0 and points[-1].far == 1.0


class TestRecordingValidation:
    def test_bad_fields_rejected(self):
        audio = synth.render_utterance(
            (1,), synth.Speaker(1.0, 1.0, 0.0), np.random.default_rng(0), synth.EpisodeConfig.clean()
        )
        with pytest.raises(ValueError):
            TestRecording(audio, "yes", "confusing", "same")
        with pytest.raises(ValueError):
            TestRecording(audio, "positive", "odd", "same")
        with pytest.raises(ValueError):
            TestRecording(audio, "positive", "confusing", "stranger")

    def test_episode_needs_three_supports(self):
        audio = synth.render_utterance(
            (1,), synth.Speaker(1.0, 1.0, 0.0), np.random.default_rng(0), synth.EpisodeConfig.clean()
        )
        test = TestRecording(audio, "positive", "non_confusing", "same")
        with pytest.raises(ValueError):
            Episode("e", (1,), (audio, audio), (test,))

    @pytest.mark.parametrize("episode_id", ["my word", "", "a/b", ".", "..", "tab\tid"])
    def test_episode_id_must_be_one_file_name(self, tmp_path, episode_id):
        # write_episodes names a directory and a manifest token after the id,
        # so an id it could not write back is refused when built
        audio = synth.render_utterance(
            (1,), synth.Speaker(1.0, 1.0, 0.0), np.random.default_rng(0), synth.EpisodeConfig.clean()
        )
        test = TestRecording(audio, "positive", "non_confusing", "same")
        with pytest.raises(ValueError, match="episode id"):
            Episode(episode_id, (1,), (audio, audio, audio), (test,))
        good = Episode("my-word_2.v1", (1,), (audio, audio, audio), (test,))
        manifest = write_episodes(tmp_path / "suite", [good], synth.synth_alphabet())
        assert [episode.episode_id for episode in read_episodes(manifest)[1]] == ["my-word_2.v1"]


class TestSyntheticEpisodes:
    def test_deterministic_by_seed(self):
        a = synth.generate_synthetic_episodes(seed=5, count=2)
        b = synth.generate_synthetic_episodes(seed=5, count=2)
        for ea, eb in zip(a, b):
            assert ea.target_labels == eb.target_labels
            for sa, sb in zip(ea.support, eb.support):
                assert np.array_equal(sa.samples, sb.samples)
            for ta, tb in zip(ea.tests, eb.tests):
                assert np.array_equal(ta.audio.samples, tb.audio.samples)
                assert (ta.polarity, ta.tag, ta.speaker_match) == (tb.polarity, tb.tag, tb.speaker_match)

    def test_different_seeds_differ(self):
        a = synth.generate_synthetic_episodes(seed=5, count=1)[0]
        b = synth.generate_synthetic_episodes(seed=6, count=1)[0]
        assert not np.array_equal(a.support[0].samples, b.support[0].samples)

    def test_edit_distance_structure(self):
        def edit_distance(x, y):
            d = np.zeros((len(x) + 1, len(y) + 1), dtype=int)
            d[:, 0] = np.arange(len(x) + 1)
            d[0, :] = np.arange(len(y) + 1)
            for i in range(1, len(x) + 1):
                for j in range(1, len(y) + 1):
                    d[i, j] = min(
                        d[i - 1, j] + 1,
                        d[i, j - 1] + 1,
                        d[i - 1, j - 1] + (x[i - 1] != y[j - 1]),
                    )
            return int(d[len(x), len(y)])

        episodes = synth.generate_synthetic_episodes(seed=11, count=6)
        for ep in episodes:
            for test in ep.tests:
                dist = edit_distance(ep.target_labels, test.labels)
                if test.polarity == "positive":
                    assert test.labels == ep.target_labels
                elif test.tag == "confusing":
                    assert 1 <= dist <= 2
                else:
                    assert dist >= len(ep.target_labels)

    def test_counts_and_tags(self):
        cfg = synth.EpisodeConfig()
        ep = synth.generate_synthetic_episodes(seed=2, count=1, config=cfg)[0]
        positives = [t for t in ep.tests if t.polarity == "positive"]
        confusing = [t for t in ep.tests if t.polarity == "negative" and t.tag == "confusing"]
        nonconf = [t for t in ep.tests if t.polarity == "negative" and t.tag == "non_confusing"]
        assert len(positives) == cfg.num_positive
        assert len(confusing) == cfg.num_confusing_same + cfg.num_confusing_different
        assert len(nonconf) == cfg.num_nonconfusing_same + cfg.num_nonconfusing_different
        assert all(t.speaker_match == "same" for t in positives)

    def test_a_dropout_wider_than_its_phoneme_still_renders(self):
        # at 0.3x speaker rate a phoneme can be shorter than a dip
        cfg = synth.EpisodeConfig(speaker_rate=(0.3, 0.3), dropouts_per_second=40.0)
        episodes = synth.generate_synthetic_episodes(0, 3, cfg)
        assert [len(ep.tests) for ep in episodes] == [14, 14, 14]

    def test_cached_windows_do_not_change_a_render(self):
        cfg = synth.EpisodeConfig(dropouts_per_second=20.0)
        synth._rise.cache_clear()
        cold = synth.generate_synthetic_episodes(seed=4, count=1, config=cfg)[0]
        computed = synth._rise.cache_info().misses
        warm = synth.generate_synthetic_episodes(seed=4, count=1, config=cfg)[0]
        assert synth._rise.cache_info().misses == computed > 0
        recordings = lambda ep: [*ep.support, *(t.audio for t in ep.tests)]
        for a, b in zip(recordings(cold), recordings(warm), strict=True):
            assert np.array_equal(a.samples, b.samples)
        with pytest.raises(ValueError, match="read-only"):
            synth._rise(96)[0] = 1.0


class TestHarness:
    @pytest.fixture(scope="class")
    def small_world(self, oracle_model):
        episodes = synth.generate_synthetic_episodes(seed=99, count=4)
        params = HarnessParams(weights=oracle_model, beam_width=25, num_hypotheses=5)
        return episodes, params

    def test_unknown_detector_rejected(self, small_world):
        episodes, params = small_world
        with pytest.raises(ValueError):
            run_harness("nearest_neighbour", episodes, params)

    def test_no_episodes_rejected(self, small_world):
        _, params = small_world
        with pytest.raises(ValueError):
            run_harness("donut", [], params)

    @pytest.mark.parametrize("beam_width, num_hypotheses", [(5, 10), (0, 10), (0, 0), (5, 0)])
    def test_beam_settings_checked_when_built(self, beam_width, num_hypotheses):
        with pytest.raises(ValueError) as raised:
            HarnessParams(beam_width=beam_width, num_hypotheses=num_hypotheses)
        assert f"({num_hypotheses})" in str(raised.value) and f"({beam_width})" in str(raised.value)

    def test_weights_it_cannot_feed_refused_when_built(self, oracle_model):
        with pytest.raises(ValueError, match="^weights.input_dim 41 does not match STACKED_DIM 82$"):
            HarnessParams(weights=narrow_weights(oracle_model))

    def test_weights_required(self, small_world):
        episodes, _ = small_world
        with pytest.raises(ValueError):
            run_harness("donut", episodes, HarnessParams(weights=None))

    def test_dtw_scores_refuses_a_detector_that_is_not_dtw(self, small_world):
        episodes, params = small_world
        tests = [t.audio for t in episodes[0].tests]
        with pytest.raises(ValueError, match="^'donut' is not a DTW detector"):
            dtw_scores("donut", episodes[0].support, tests, params)

    def test_dtw_scores_refuses_dtw_post_without_weights(self, small_world):
        episodes, _ = small_world
        tests = [t.audio for t in episodes[0].tests]
        with pytest.raises(ValueError, match="^detector 'dtw_post' needs label-model weights$"):
            dtw_scores("dtw_post", episodes[0].support, tests, HarnessParams())

    def test_enroll_refuses_to_run_without_weights(self, small_world):
        episodes, _ = small_world
        with pytest.raises(ValueError, match="^enroll needs label-model weights$"):
            enroll(episodes[0].support, HarnessParams())

    def test_ctc_scores_refuses_to_run_without_weights(self, small_world):
        episodes, params = small_world
        alphabet = params.weights.alphabet
        model = model_from_labels([alphabet.symbol_of(i) for i in episodes[0].target_labels], alphabet)
        with pytest.raises(ValueError, match="^ctc_scores needs label-model weights$"):
            ctc_scores(model, [t.audio for t in episodes[0].tests], HarnessParams())

    def test_donut_report_structure(self, small_world):
        episodes, params = small_world
        report = run_harness("donut", episodes, params)
        assert report.episodes_evaluated == 4
        assert report.episodes_skipped == 0
        assert len(report.records) == sum(len(ep.tests) for ep in episodes)
        assert 0.0 <= report.overall.eer <= 1.0
        assert set(report.splits) >= {"confusing", "non_confusing", "same", "different"}
        text = format_report(report)
        assert "detector donut" in text and "overall eer" in text

    def test_determinism(self, small_world):
        episodes, params = small_world
        a = run_harness("donut", episodes, params)
        b = run_harness("donut", episodes, params)
        assert a.overall == b.overall
        assert a.records == b.records

    def test_query_by_string_runs(self, small_world):
        episodes, params = small_world
        report = run_harness("query_by_string", episodes, params)
        assert report.overall.auc > 0.5  # true transcript should do decently

    def test_dtw_detectors_run(self, small_world):
        episodes, params = small_world
        for detector in ("dtw_fbank", "dtw_post"):
            report = run_harness(detector, episodes, params)
            assert 0.0 <= report.overall.eer <= 1.0

    @pytest.mark.parametrize("detector", ["donut", "query_by_string", "dtw_fbank", "dtw_post"])
    def test_a_silent_test_scores_minus_inf(self, small_world, detector):
        episodes, params = small_world
        episode = episodes[0]
        at = next(j for j, t in enumerate(episode.tests) if not t.is_positive)
        tests = list(episode.tests)
        tests[at] = replace(tests[at], audio=AudioBuffer(np.zeros(16000, np.int16)))
        want = [r.score for r in run_harness(detector, [episode], params).records]
        got = [r.score for r in run_harness(detector, [replace(episode, tests=tuple(tests))], params).records]
        want[at] = -math.inf
        assert list(map(float.hex, got)) == list(map(float.hex, want))

    def test_a_report_derives_its_metrics_from_its_records(self, small_world):
        episodes, params = small_world
        report = run_harness("dtw_fbank", episodes, params)
        assert [f.name for f in fields(HarnessReport)] == [
            "detector", "records", "episodes_evaluated", "episodes_skipped"
        ]
        names = ["confusing", "non_confusing", "same", "different", "confusing/same",
                 "confusing/different", "non_confusing/same", "non_confusing/different"]
        for n in (len(episodes[0].tests), len(report.records) - 5):
            # a stored metric would be the full report's, not the cut one's
            cut = replace(report, records=report.records[:n])
            positives = [(r.score, True) for r in cut.records if r.is_positive]
            splits = {}
            for name in names:
                negatives = [
                    (r.score, False)
                    for r in cut.records
                    if not r.is_positive
                    and name in (r.tag, r.speaker_match, f"{r.tag}/{r.speaker_match}")
                ]
                if negatives:
                    splits[name] = compute_roc(positives + negatives)
            assert cut.overall == compute_roc([(r.score, r.is_positive) for r in cut.records])
            assert list(cut.splits.items()) == list(splits.items())

    @pytest.mark.parametrize("polarity", [True, False])
    def test_records_of_one_class_are_refused_when_read(self, small_world, polarity):
        episodes, params = small_world
        report = run_harness("dtw_fbank", episodes[:1], params)
        one_class = tuple(r for r in report.records if r.is_positive == polarity)
        for metrics in ("overall", "splits"):
            with pytest.raises(ValueError, match="at least one positive and one negative"):
                getattr(replace(report, records=one_class), metrics)

    def test_every_episode_failing_enrollment_is_refused(self, small_world):
        episodes, params = small_world
        silent = AudioBuffer(np.zeros(16000, np.int16))
        broken = [replace(e, support=(silent, *e.support[1:])) for e in episodes[:2]]
        with pytest.raises(ValueError, match="every episode failed enrollment"):
            run_harness("dtw_fbank", broken, params)

    @pytest.mark.parametrize("detector", ["donut", "dtw_fbank", "dtw_post"])
    def test_an_episode_with_a_silent_support_is_skipped(self, small_world, detector, caplog):
        episodes, params = small_world
        silent = AudioBuffer(np.zeros(16000, np.int16))
        support = (episodes[0].support[0], silent, episodes[0].support[2])
        broken = replace(episodes[0], support=support)
        with caplog.at_level("WARNING", logger="wakespot"):
            report = run_harness(detector, [broken, *episodes[1:]], params)
        assert report.episodes_skipped == 1 and report.episodes_evaluated == len(episodes) - 1
        assert len(report.records) == sum(len(ep.tests) for ep in episodes[1:])
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping episode {broken.episode_id}: no speech found by VAD in recording 2 of 3"
        ]


def _alphabet_line(lines):
    return next(l for l in lines if l.startswith("alphabet"))


def _before_first_episode(lines, extra):
    first = next(n for n, l in enumerate(lines) if l.startswith("episode"))
    return lines[:first] + extra + lines[first:]


class TestManifests:
    def test_round_trip(self, tmp_path):
        episodes = synth.generate_synthetic_episodes(seed=3, count=2)
        manifest = write_episodes(tmp_path / "suite", episodes, synth.synth_alphabet())
        alphabet, back = read_episodes(manifest)
        assert alphabet == synth.synth_alphabet()
        assert len(back) == 2
        for original, loaded in zip(episodes, back):
            assert loaded.episode_id == original.episode_id
            assert loaded.target_labels == original.target_labels
            for sa, sb in zip(original.support, loaded.support):
                assert np.array_equal(sa.samples, sb.samples)
            assert [t.polarity for t in loaded.tests] == [t.polarity for t in original.tests]
            assert [t.tag for t in loaded.tests] == [t.tag for t in original.tests]

    def test_bad_manifest_rejected(self, tmp_path):
        bad = tmp_path / "manifest.txt"
        bad.write_text("hello\n")
        with pytest.raises(FileFormatError):
            read_episodes(bad)

    @pytest.fixture(scope="class")
    def suite(self, tmp_path_factory):
        episodes = synth.generate_synthetic_episodes(seed=3, count=1)
        return write_episodes(tmp_path_factory.mktemp("suite"), episodes, synth.synth_alphabet())

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: [("support" if l.startswith("support") else l) for l in lines],
            lambda lines: [(l.split(" target")[0] + " target zz" if l.startswith("episode") else l) for l in lines],
            lambda lines: [l for l in lines if not l.endswith("support_0.wav")],
            lambda lines: [l for l in lines if not l.startswith("test")],
            lambda lines: [l.replace(" positive ", " positiv ") for l in lines],
            lambda lines: [(l + " " + l.split()[1] if l.startswith("alphabet") else l) for l in lines],
            lambda lines: _before_first_episode(lines, [l for l in lines if l.startswith("support")][:1]),
            lambda lines: lines + [" ".join(["alphabet", *reversed(_alphabet_line(lines).split()[1:])])],
            lambda lines: lines + [l for l in lines if l.startswith(("episode", "support", "test"))],
            lambda lines: [(l.replace(l.split()[1], ".", 1) if l.startswith("episode") else l) for l in lines],
            lambda lines: [l for l in lines if not l.startswith("alphabet")] + [_alphabet_line(lines)],
        ],
        ids=["support_without_path", "unknown_target_symbol", "two_supports", "no_tests",
             "bad_polarity", "duplicate_label", "support_before_episode", "second_alphabet",
             "repeated_episode_id", "dot_episode_id", "episode_before_alphabet"],
    )
    def test_malformed_line_is_file_format_error(self, suite, edit):
        lines = suite.read_text(encoding="utf-8").splitlines()
        bad = suite.with_name("bad_manifest.txt")
        bad.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="line [0-9]+"):
            read_episodes(bad)

    def test_blank_and_comment_lines_are_skipped(self, suite):
        lines = suite.read_text(encoding="utf-8").splitlines()
        spaced = suite.with_name("spaced_manifest.txt")
        lines = [lines[0], "", "# a comment", *lines[1:3], "  ", *lines[3:]]
        spaced.write_text("\n".join(lines) + "\n", encoding="utf-8")
        alphabet, episodes = read_episodes(spaced)
        want_alphabet, want = read_episodes(suite)
        assert alphabet == want_alphabet
        assert [(e.episode_id, e.target_labels, len(e.tests)) for e in episodes] == [
            (e.episode_id, e.target_labels, len(e.tests)) for e in want
        ]

    def test_truncated_manifest_loads_or_raises_file_format_error(self, suite):
        data = suite.read_bytes()
        for n in range(len(data)):
            # a new file each: rewriting one costs far more than writing one
            cut = suite.with_name(f"cut_manifest-{n}.txt")
            cut.write_bytes(data[:n])
            try:
                read_episodes(cut)
            except (FileFormatError, OSError):  # a cut WAV path names a directory or nothing
                pass

    def test_roc_points_file(self, tmp_path):
        metrics = compute_roc([(0.9, True), (0.1, False)])
        out = tmp_path / "roc.csv"
        save_roc_points(out, metrics)
        lines = out.read_text().splitlines()
        assert lines[0] == "threshold,far,frr"
        assert len(lines) == len(metrics.points) + 1
