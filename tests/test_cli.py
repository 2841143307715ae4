import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wakespot import evaluation, synth
from wakespot.audio import read_wav, write_wav
from wakespot.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from wakespot.dtw import dtw_detect
from wakespot.evaluation import HarnessParams
from wakespot.label_model import Posteriorgram, load_weights, save_weights
from wakespot.vad import VadConfig
from wakespot.wakeword import featurize, learn, load_model

from conftest import narrow_weights


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Oracle weights on disk plus enrollment/test WAVs."""
    root = tmp_path_factory.mktemp("cli")
    weights = synth.oracle_weights()
    weights_path = root / "oracle.bin"
    save_weights(weights_path, weights)
    cfg = synth.EpisodeConfig.clean()
    rng = np.random.default_rng(17)
    speaker = synth.Speaker(pitch=1.0, rate=1.0, gain_db=0.0)
    target = (3, 6, 10)
    wavs = []
    for i in range(3):
        audio = synth.render_utterance(target, speaker, rng, cfg)
        path = root / f"enroll_{i}.wav"
        write_wav(path, audio)
        wavs.append(path)
    probe = synth.render_utterance(target, speaker, rng, cfg)
    probe_path = root / "probe.wav"
    write_wav(probe_path, probe)
    distractor = synth.render_utterance((1, 4, 8), synth.Speaker(1.01, 0.95, -2.0), rng, cfg)
    distractor_path = root / "distractor.wav"
    write_wav(distractor_path, distractor)
    silence_path = root / "silence.wav"
    from wakespot.audio import AudioBuffer

    write_wav(silence_path, AudioBuffer(np.zeros(16000, dtype=np.int16)))
    return {
        "root": root,
        "weights": weights_path,
        "wavs": wavs,
        "probe": probe_path,
        "distractor": distractor_path,
        "silence": silence_path,
    }


def test_enroll_score_listen_round_trip(world, tmp_path, capsys):
    model_path = tmp_path / "word.model"
    code = main(
        [
            "enroll",
            str(model_path),
            *[str(w) for w in world["wavs"]],
            "--weights",
            str(world["weights"]),
            "--beam-width",
            "20",
            "--num-hypotheses",
            "3",
        ]
    )
    assert code == EXIT_OK
    enroll_out = capsys.readouterr().out
    assert "example 1:" in enroll_out and "example 3:" in enroll_out
    assert model_path.exists()
    lines = [l for l in model_path.read_text().splitlines() if "\t" in l]
    assert 3 <= len(lines) <= 9  # up to three examples x three hypotheses

    code = main(
        ["score", str(model_path), str(world["probe"]), "--weights", str(world["weights"])]
    )
    assert code == EXIT_OK
    score_out = capsys.readouterr().out
    assert "score" in score_out
    probe_score = float(score_out.strip().splitlines()[-1].split()[-1])

    code = main(
        ["score", str(model_path), str(world["distractor"]), "--weights", str(world["weights"])]
    )
    assert code == EXIT_OK
    distractor_score = float(capsys.readouterr().out.strip().splitlines()[-1].split()[-1])
    assert probe_score > distractor_score

    threshold = (probe_score + distractor_score) / 2.0
    code = main(
        [
            "listen",
            str(model_path),
            str(world["probe"]),
            "--weights",
            str(world["weights"]),
            "--threshold",
            str(threshold),
        ]
    )
    assert code == EXIT_OK
    listen_out = capsys.readouterr().out
    assert "event t=" in listen_out
    assert "events=1" in listen_out

    code = main(
        [
            "listen",
            str(model_path),
            str(world["silence"]),
            "--weights",
            str(world["weights"]),
            "--threshold",
            str(threshold),
        ]
    )
    assert code == EXIT_OK
    silent_out = capsys.readouterr().out
    assert "events=0" in silent_out and "gru_frames=0" in silent_out


def test_enroll_usage_error_when_n_exceeds_beam(world, tmp_path):
    code = main(
        [
            "enroll",
            str(tmp_path / "m.model"),
            *[str(w) for w in world["wavs"]],
            "--weights",
            str(world["weights"]),
            "--beam-width",
            "2",
            "--num-hypotheses",
            "5",
        ]
    )
    assert code == EXIT_USAGE


def test_omitted_options_take_the_library_defaults():
    import inspect

    from wakespot.cli import _vad_config, build_parser
    from wakespot.evaluation import HarnessParams
    from wakespot.wakeword import learn

    learn_defaults = inspect.signature(learn).parameters
    harness = HarnessParams()
    parse = build_parser().parse_args
    enroll = parse(["enroll", "m.model", "a.wav", "b.wav", "c.wav", "--weights", "w.bin"])
    assert enroll.beam_width == learn_defaults["beam_width"].default == harness.beam_width
    assert enroll.num_hypotheses == learn_defaults["num_hypotheses"].default
    assert enroll.num_hypotheses == harness.num_hypotheses
    evaluate = parse(["eval", "--manifest", "m.txt", "--detector", "donut"])
    assert evaluate.beam_width == harness.beam_width
    assert evaluate.num_hypotheses == harness.num_hypotheses
    baseline = parse(["baseline", "a.wav", "b.wav", "c.wav", "t.wav"])
    score = parse(["score", "m.model", "t.wav", "--weights", "w.bin"])
    for args in (enroll, evaluate, baseline, score):
        assert _vad_config(args) == VadConfig() == harness.vad


def test_usage_error_exit_code_is_one(world, tmp_path, capsys):
    assert main(["enroll"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    # no command writes feature or posteriorgram files
    out = tmp_path / "out.bin"
    assert main(["featurize", str(world["probe"]), str(out)]) == EXIT_USAGE
    assert main(["posteriors", str(world["weights"]), str(world["probe"]), str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_missing_wav_is_a_data_error(world, tmp_path):
    wavs = [str(w) for w in world["wavs"]]
    code = main(["baseline", *wavs, str(tmp_path / "nope.wav"), "--space", "fbank"])
    assert code == EXIT_DATA


def baseline_detect(world, weights=None) -> float:
    """The harness's DTW detection score of the probe against the enrollment WAVs."""
    wavs = [*world["wavs"], world["probe"]]
    *supports, [test] = featurize([read_wav(w) for w in wavs], VadConfig(), weights)
    return dtw_detect([support for [support] in supports], test)


def test_baseline_fbank(world, capsys):
    code = main(
        [
            "baseline",
            *[str(w) for w in world["wavs"]],
            str(world["probe"]),
            "--space",
            "fbank",
        ]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == f"score {baseline_detect(world)}\n"


def test_baseline_post_requires_weights(world):
    code = main(
        ["baseline", *[str(w) for w in world["wavs"]], str(world["probe"]), "--space", "post"]
    )
    assert code == EXIT_USAGE


def test_baseline_post(world, capsys):
    code = main(
        [
            "baseline",
            *[str(w) for w in world["wavs"]],
            str(world["probe"]),
            "--space",
            "post",
            "--weights",
            str(world["weights"]),
        ]
    )
    assert code == EXIT_OK
    weights = load_weights(world["weights"])
    assert capsys.readouterr().out == f"score {baseline_detect(world, weights)}\n"


@pytest.mark.parametrize("space", ["fbank", "post"])
def test_baseline_prints_the_harness_dtw_score(world, capsys, space):
    weights = ["--weights", str(world["weights"])] if space == "post" else []
    wavs = [str(w) for w in world["wavs"]]
    assert main(["baseline", *wavs, str(world["probe"]), "--space", space, *weights]) == EXIT_OK
    params = HarnessParams(load_weights(world["weights"]))  # dtw_fbank ignores the weights
    supports = [read_wav(w) for w in world["wavs"]]
    [score] = evaluation.dtw_scores(f"dtw_{space}", supports, [read_wav(world["probe"])], params)
    assert capsys.readouterr().out == f"score {score!r}\n"


def test_enroll_writes_the_harness_model(world, tmp_path):
    model_path = tmp_path / "word.model"
    args = ["enroll", str(model_path), *map(str, world["wavs"]), "--weights", str(world["weights"])]
    flags = ["--beam-width", "20", "--num-hypotheses", "3", "--threshold", "-12.5"]
    assert main([*args, *flags]) == EXIT_OK
    weights = load_weights(world["weights"])
    params = HarnessParams(weights, beam_width=20, num_hypotheses=3)
    expected = evaluation.enroll([read_wav(w) for w in world["wavs"]], params, threshold=-12.5)
    loaded = load_model(model_path, weights.alphabet)
    assert loaded.hypotheses == expected.hypotheses and len(expected.hypotheses) >= 3
    assert loaded.threshold == expected.threshold == -12.5
    assert loaded == expected


def test_beam_settings_refused_alike(tmp_path, capsys):
    """``learn``, ``HarnessParams`` and the CLI refuse more kept hypotheses
    than the beam width with one message; the CLI refuses them as a usage
    error before it reads a file, so paths that do not exist do not matter."""
    alphabet = synth.synth_alphabet()
    post = Posteriorgram(np.full((4, alphabet.size), 1.0 / alphabet.size), alphabet)
    with pytest.raises(ValueError) as from_learn:
        learn([post], beam_width=2, num_hypotheses=5)
    with pytest.raises(ValueError) as from_params:
        HarnessParams(beam_width=2, num_hypotheses=5)
    message = str(from_learn.value)
    assert message == str(from_params.value)
    assert "(5)" in message and "(2)" in message
    missing = str(tmp_path / "missing")
    for argv in (
        ["enroll", str(tmp_path / "m.model"), missing, missing, missing, "--weights", missing],
        ["eval", "--manifest", missing, "--detector", "donut", "--weights", missing],
    ):
        assert main([*argv, "--beam-width", "2", "--num-hypotheses", "5"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "m.model").exists()


def test_gen_episodes_and_eval(world, tmp_path, capsys):
    suite = tmp_path / "suite"
    weights_out = tmp_path / "oracle.bin"
    code = main(
        [
            "gen-episodes",
            "--out",
            str(suite),
            "--count",
            "2",
            "--seed",
            "4",
            "--clean",
            "--weights-out",
            str(weights_out),
        ]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    manifest = suite / "manifest.txt"
    assert manifest.exists() and weights_out.exists()

    report_path = tmp_path / "report.txt"
    roc_path = tmp_path / "roc.csv"
    code = main(
        [
            "eval",
            "--manifest",
            str(manifest),
            "--detector",
            "donut",
            "--weights",
            str(weights_out),
            "--beam-width",
            "10",
            "--num-hypotheses",
            "2",
            "--report",
            str(report_path),
            "--roc-points",
            str(roc_path),
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "overall eer" in out
    assert report_path.read_text().startswith("detector donut")
    assert report_path.read_bytes() == out.encode("utf-8")
    assert roc_path.read_text().startswith("threshold,far,frr")


def test_eval_dtw_fbank_needs_no_weights(world, tmp_path, capsys):
    suite = tmp_path / "suite"
    assert (
        main(["gen-episodes", "--out", str(suite), "--count", "2", "--seed", "9", "--clean"])
        == EXIT_OK
    )
    capsys.readouterr()
    args = ["eval", "--manifest", str(suite / "manifest.txt"), "--detector", "dtw_fbank"]
    assert main(args) == EXIT_OK
    plain = capsys.readouterr().out
    assert "overall eer" in plain
    broken = tmp_path / "broken.bin"  # never read: dtw_fbank uses no weights
    broken.write_bytes(b"not a weight file")
    assert main([*args, "--weights", str(broken)]) == EXIT_OK
    assert capsys.readouterr().out == plain


def test_eval_of_a_manifest_without_negatives_is_a_data_error(tmp_path, capsys):
    suite = tmp_path / "suite"
    assert main(["gen-episodes", "--out", str(suite), "--count", "1", "--seed", "9"]) == EXIT_OK
    lines = (suite / "manifest.txt").read_text(encoding="utf-8").splitlines()
    positives = suite / "positives.txt"
    positives.write_text("\n".join(l for l in lines if " negative " not in l) + "\n", encoding="utf-8")
    capsys.readouterr()
    report, roc = tmp_path / "report.txt", tmp_path / "roc.csv"
    args = ["eval", "--manifest", str(positives), "--detector", "dtw_fbank"]
    assert main([*args, "--report", str(report), "--roc-points", str(roc)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at least one positive and one negative score\n"
    assert not report.exists() and not roc.exists()


def test_eval_rejects_weights_of_another_alphabet(tmp_path, capsys):
    suite, weights = tmp_path / "suite", tmp_path / "oracle.bin"
    args = ["gen-episodes", "--out", str(suite), "--count", "2", "--seed", "1"]
    assert main([*args, "--weights-out", str(weights)]) == EXIT_OK
    lines = (suite / "manifest.txt").read_text(encoding="utf-8").splitlines()
    reversed_alphabet = suite / "reversed.txt"  # the same WAVs, the labels in reverse order
    reversed_alphabet.write_text(
        "\n".join(
            " ".join(["alphabet", *reversed(l.split()[1:])]) if l.startswith("alphabet") else l
            for l in lines
        )
        + "\n",
        encoding="utf-8",
    )
    capsys.readouterr()
    for detector in ("query_by_string", "donut", "dtw_post"):
        args = ["eval", "--manifest", str(reversed_alphabet), "--detector", detector]
        assert main([*args, "--weights", str(weights)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(reversed_alphabet) in captured.err and str(weights) in captured.err


def _enroll(world, model_path):
    args = ["enroll", str(model_path), *[str(w) for w in world["wavs"]]]
    args += ["--weights", str(world["weights"]), "--beam-width", "20", "--num-hypotheses", "3"]
    assert main(args) == EXIT_OK


def test_listen_refuses_weights_of_another_input_dim(world, tmp_path, capsys):
    """41-input weights load, but the streaming detector feeds 82-wide
    stacked frames: a data error naming both widths, before any audio."""
    model_path = tmp_path / "word.model"
    _enroll(world, model_path)
    save_weights(tmp_path / "narrow.bin", narrow_weights(load_weights(world["weights"])))
    capsys.readouterr()
    args = ["listen", str(model_path), str(world["probe"]), "--weights", str(tmp_path / "narrow.bin")]
    assert main([*args, "--threshold", "-inf"]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: weights.input_dim 41 does not match STACKED_DIM 82\n"


def test_every_command_refuses_weights_it_cannot_feed(world, tmp_path, capsys):
    """``score``, ``enroll``, ``baseline --space post`` and ``eval`` refuse
    41-input weights with the streaming detector's one message, a data
    error, before they write a file or score an episode."""
    model_path, refused_model = tmp_path / "word.model", tmp_path / "refused.model"
    _enroll(world, model_path)
    narrow = tmp_path / "narrow.bin"
    save_weights(narrow, narrow_weights(load_weights(world["weights"])))
    manifest = tmp_path / "suite" / "manifest.txt"
    assert main(["gen-episodes", "--out", str(manifest.parent), "--count", "1", "--seed", "9"]) == EXIT_OK
    wavs = [str(w) for w in world["wavs"]]
    commands = [
        ["score", str(model_path), str(world["probe"])],
        ["enroll", str(refused_model), *wavs],
        ["baseline", *wavs, str(world["probe"]), "--space", "post"],
        *(["eval", "--manifest", str(manifest), "--detector", d] for d in ("donut", "dtw_post")),
    ]
    capsys.readouterr()
    for args in commands:
        assert main([*args, "--weights", str(narrow)]) == EXIT_DATA, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: weights.input_dim 41 does not match STACKED_DIM 82\n", args
    assert not refused_model.exists()


@pytest.mark.parametrize("damaged", ["model-v2", "weights-cut", "wav-cut"])
def test_score_refuses_a_damaged_file_and_names_it(world, tmp_path, capsys, damaged):
    """``enroll`` writes version-3 models: a version-2 model is a data error,
    as is a weight file cut to 30 bytes, inside its first part, and a probe
    WAV cut inside its data on a sample boundary. Each error names the file."""
    model_path, weights_path, wav_path = tmp_path / "word.model", world["weights"], world["probe"]
    _enroll(world, model_path)
    text = model_path.read_text(encoding="utf-8")
    assert text.startswith("wakespot-model 3\n")
    if damaged == "model-v2":
        model_path = tmp_path / "v2.model"
        model_path.write_text(text.replace("wakespot-model 3", "wakespot-model 2", 1), encoding="utf-8")
        message = f"{model_path}: bad header line 'wakespot-model 2'"
    elif damaged == "weights-cut":
        weights_path = tmp_path / "cut.bin"
        weights_path.write_bytes(world["weights"].read_bytes()[:30])
        message = f"{weights_path}: truncated file (80688 bytes claimed, 6 left)"
    else:
        data = world["probe"].read_bytes()
        assert data[36:40] == b"data"  # the 44-byte header that write_wav writes
        claimed = int.from_bytes(data[40:44], "little")
        held = claimed // 4 * 2
        wav_path = tmp_path / "cut.wav"
        wav_path.write_bytes(data[: 44 + held])
        message = f"{wav_path}: WAV data holds {held} bytes, its header says {claimed}"
    capsys.readouterr()
    assert main(["score", str(model_path), str(wav_path), "--weights", str(weights_path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("wav", ["probe", "distractor", "silence"])
def test_score_prints_the_harness_donut_result(world, tmp_path, capsys, wav):
    model_path = tmp_path / "word.model"
    _enroll(world, model_path)
    capsys.readouterr()
    assert main(["score", str(model_path), str(world[wav]), "--weights", str(world["weights"])]) == EXIT_OK
    weights = load_weights(world["weights"])
    model = load_model(model_path, weights.alphabet)
    [result] = evaluation.ctc_scores(model, [read_wav(world[wav])], HarnessParams(weights))
    lines = [
        f"  {' '.join(map(weights.alphabet.symbol_of, hyp.labels)) or '(empty)'}"
        f"  logp={logprob:.4f}  w={hyp.weight:.6f}"
        for hyp, logprob in zip(model.hypotheses, result.logprobs)
    ]
    assert len(lines) == (0 if wav == "silence" else len(model.hypotheses))
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in [*lines, f"score {result.score!r}"])


@pytest.mark.parametrize("wav", ["probe", "distractor"])
def test_score_equals_the_streaming_event_bit_for_bit(world, tmp_path, capsys, wav):
    from wakespot.wakeword import detect_stream, load_model

    model_path = tmp_path / "word.model"
    _enroll(world, model_path)
    capsys.readouterr()
    assert main(["score", str(model_path), str(world[wav]), "--weights", str(world["weights"])]) == EXIT_OK
    batch = float(capsys.readouterr().out.strip().splitlines()[-1].split()[-1])
    weights = load_weights(world["weights"])
    samples = read_wav(world[wav]).samples
    chunks = (samples[i : i + 160] for i in range(0, len(samples), 160))
    report = detect_stream(load_model(model_path, weights.alphabet), weights, chunks, -np.inf)
    assert [event.score for event in report.events] == [batch]


def test_a_recording_without_speech_scores_minus_inf_as_listen_gives_no_event(world, tmp_path, capsys):
    model_path = tmp_path / "word.model"
    _enroll(world, model_path)
    weights = ["--weights", str(world["weights"])]
    silence, supports = str(world["silence"]), [str(w) for w in world["wavs"]]
    for args in (
        ["score", str(model_path), silence, *weights],
        ["baseline", *supports, silence, *weights],
        ["baseline", *supports, silence, "--space", "fbank"],
    ):
        capsys.readouterr()
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == "score -inf\n"
    assert main(["listen", str(model_path), silence, *weights, "--threshold", "-inf"]) == EXIT_OK
    assert capsys.readouterr().out.endswith(" events=0\n")
    assert main(["baseline", supports[0], silence, supports[2], supports[0], "--space", "fbank"]) == EXIT_DATA
    assert capsys.readouterr().err == "error: no speech found by VAD in recording 2 of 3\n"


def test_a_one_window_segment_scores_minus_inf_in_every_command(world, tmp_path, capsys):
    """A click in the last window alone, kept by ``--vad-min-speech 1``, is a
    segment of one window: one filterbank frame and no stacked frame, so its
    posteriorgram is empty. Every detector but ``dtw_fbank`` scores it
    -inf, and ``listen`` gives it one event at -inf."""
    from wakespot.audio import AudioBuffer

    samples = np.zeros(16000, dtype=np.int16)
    samples[15760:15920] = 20000
    click = tmp_path / "click.wav"
    write_wav(click, AudioBuffer(samples))
    model_path = tmp_path / "word.model"
    _enroll(world, model_path)
    weights = ["--weights", str(world["weights"])]
    supports = [str(w) for w in world["wavs"]]
    vad = ["--vad-min-speech", "1"]
    capsys.readouterr()
    assert main(["baseline", *supports, str(click), *weights, *vad]) == EXIT_OK
    assert capsys.readouterr().out == "score -inf\n"
    assert main(["score", str(model_path), str(click), *weights, *vad]) == EXIT_OK
    assert capsys.readouterr().out.endswith("\nscore -inf\n")
    assert main(["listen", str(model_path), str(click), *weights, "--threshold", "-inf", *vad]) == EXIT_OK
    out = capsys.readouterr().out
    assert "score=-inf frames=[97,98)" in out and out.endswith(" events=1\n")
    assert main(["baseline", *supports, str(click), "--space", "fbank", *vad]) == EXIT_OK
    assert _last_score(capsys.readouterr().out) > -np.inf


def test_enroll_prints_each_degenerate_note_once(world, tmp_path, caplog):
    from wakespot.audio import AudioBuffer

    rng = np.random.default_rng(3)
    wavs = []
    # white noise at -60 dBFS: speech to a -70 dB VAD, and only blanks from the GRU
    for i in range(3):
        wavs.append(tmp_path / f"noise_{i}.wav")
        write_wav(wavs[-1], AudioBuffer(np.round(rng.normal(0.0, 32.768, 16000)).astype(np.int16)))
    args = ["enroll", str(tmp_path / "m.model"), *map(str, wavs), "--weights", str(world["weights"])]
    with caplog.at_level("WARNING", logger="wakespot"):
        assert main([*args, "--num-hypotheses", "1", "--vad-threshold-db", "-70"]) == EXIT_OK
    assert [r.getMessage() for r in caplog.records if "empty sequence" in r.getMessage()] == [
        f"training example {i} of 3: decoder produced only the empty sequence; "
        "the model may be degenerate"
        for i in (1, 2, 3)
    ]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("enroll", ["--beam-width", "0", "--num-hypotheses", "0"]),
        ("enroll", ["--num-hypotheses", "-1"]),
        ("enroll", ["--vad-min-speech", "0"]),
        ("listen", ["--vad-min-speech", "0"]),
        ("listen", ["--vad-min-speech", "-5"]),
        ("eval", ["--beam-width", "0"]),
        ("gen-episodes", ["--count", "0"]),
    ],
)
def test_non_positive_numeric_flags_are_usage_errors(world, tmp_path, capsys, command, flags):
    weights = ["--weights", str(world["weights"])]
    args = {
        "enroll": [str(tmp_path / "m.model"), *map(str, world["wavs"]), *weights],
        "listen": [str(tmp_path / "m.model"), str(world["probe"]), *weights, "--threshold", "0"],
        "eval": ["--manifest", str(tmp_path / "manifest.txt"), "--detector", "dtw_fbank"],
        "gen-episodes": ["--out", str(tmp_path / "suite")],
    }[command]
    assert main([command, *args, *flags]) == EXIT_USAGE
    assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["enroll", "listen"])
def test_negative_vad_hangover_is_a_usage_error(world, tmp_path, capsys, command):
    weights = ["--weights", str(world["weights"])]
    args = {
        "enroll": [str(tmp_path / "m.model"), *map(str, world["wavs"]), *weights],
        "listen": [str(tmp_path / "m.model"), str(world["probe"]), *weights, "--threshold", "0"],
    }[command]
    assert main([command, *args, "--vad-hangover", "-1"]) == EXIT_USAGE
    assert "must be a non-negative integer" in capsys.readouterr().err


def test_negative_episode_seed_is_a_usage_error(tmp_path, capsys):
    suite = tmp_path / "suite"
    assert main(["gen-episodes", "--out", str(suite), "--count", "1", "--seed", "-1"]) == EXIT_USAGE
    assert "must be a non-negative integer" in capsys.readouterr().err
    assert not suite.exists()


def test_zero_episode_seed_is_accepted(tmp_path, capsys):
    suite = tmp_path / "suite"
    args = ["gen-episodes", "--out", str(suite), "--count", "1", "--seed", "0", "--clean"]
    assert main(args) == EXIT_OK
    assert (suite / "manifest.txt").exists()


def test_zero_vad_hangover_is_accepted(world, capsys):
    supports = map(str, world["wavs"])
    args = ["baseline", *supports, str(world["probe"]), "--space", "fbank", "--vad-hangover", "0"]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out.startswith("score ")


def test_enroll_names_each_recording_without_speech(world, tmp_path, capsys):
    from wakespot.audio import AudioBuffer

    rng = np.random.default_rng(3)
    wavs = []
    for i in range(3):  # white noise at -60 dBFS: the VAD finds no speech in any of them
        wavs.append(tmp_path / f"noise_{i}.wav")
        write_wav(wavs[-1], AudioBuffer(np.round(rng.normal(0.0, 32.768, 16000)).astype(np.int16)))
    args = ["enroll", str(tmp_path / "m.model"), *map(str, wavs), "--weights", str(world["weights"])]
    assert main([*args, "--num-hypotheses", "1"]) == EXIT_DATA
    assert capsys.readouterr().err == "error: no speech found by VAD in recording 1, 2, 3 of 3\n"
    assert not (tmp_path / "m.model").exists()


def _last_score(out: str) -> float:
    return float(out.strip().splitlines()[-1].split()[-1])


@pytest.fixture(scope="module")
def stored_threshold_model(world, tmp_path_factory):
    """A model enrolled with a threshold between the probe's and the distractor's scores."""
    import contextlib
    import io

    root = tmp_path_factory.mktemp("stored_threshold")
    weights = ["--weights", str(world["weights"])]
    plain = root / "plain.model"
    _enroll(world, plain)
    scores = []
    for wav in ("probe", "distractor"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["score", str(plain), str(world[wav]), *weights]) == EXIT_OK
        scores.append(_last_score(out.getvalue()))
    threshold = repr(sum(scores) / 2.0)
    model = root / "stored.model"
    args = ["enroll", str(model), *map(str, world["wavs"]), *weights]
    args += ["--beam-width", "20", "--num-hypotheses", "3", "--threshold", threshold]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == EXIT_OK
    return {"plain": plain, "stored": model, "threshold": threshold}


@pytest.mark.parametrize("wav, events", [("probe", 1), ("distractor", 0)])
def test_listen_defaults_to_the_stored_threshold(
    world, stored_threshold_model, capsys, wav, events
):
    args = ["listen", str(stored_threshold_model["stored"]), str(world[wav])]
    args += ["--weights", str(world["weights"])]
    capsys.readouterr()
    assert main(args) == EXIT_OK
    stored = capsys.readouterr().out
    assert main([*args, "--threshold", stored_threshold_model["threshold"]]) == EXIT_OK
    assert stored == capsys.readouterr().out
    assert f"events={events}" in stored


def test_listen_threshold_flag_overrides_the_stored_one(world, stored_threshold_model, capsys):
    args = ["listen", str(stored_threshold_model["stored"]), str(world["probe"])]
    args += ["--weights", str(world["weights"]), "--threshold", "inf"]
    assert main(args) == EXIT_OK
    assert "events=0" in capsys.readouterr().out


def test_listen_without_any_threshold_is_a_usage_error(world, stored_threshold_model, capsys):
    args = ["listen", str(stored_threshold_model["plain"]), str(world["probe"])]
    assert main([*args, "--weights", str(world["weights"])]) == EXIT_USAGE
    assert "--threshold" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["enroll", "listen"])
def test_nan_threshold_is_a_usage_error(world, stored_threshold_model, tmp_path, capsys, command):
    weights = ["--weights", str(world["weights"])]
    out = tmp_path / "m.model"
    args = {
        "enroll": [str(out), *map(str, world["wavs"]), *weights],
        "listen": [str(stored_threshold_model["stored"]), str(world["probe"]), *weights],
    }[command]
    assert main([command, *args, "--threshold", "nan"]) == EXIT_USAGE
    assert "nan" in capsys.readouterr().err
    assert not out.exists()


def test_nan_vad_threshold_is_a_usage_error(world, stored_threshold_model, capsys):
    args = ["score", str(stored_threshold_model["stored"]), str(world["probe"])]
    args += ["--weights", str(world["weights"]), "--vad-threshold-db", "nan"]
    assert main(args) == EXIT_USAGE
    assert "nan" in capsys.readouterr().err


@pytest.mark.parametrize("threshold, events", [("-inf", 1), ("inf", 0)])
def test_infinite_thresholds_are_stored_and_used(world, tmp_path, capsys, threshold, events):
    model = tmp_path / "m.model"
    weights = ["--weights", str(world["weights"])]
    args = ["enroll", str(model), *map(str, world["wavs"]), *weights, f"--threshold={threshold}"]
    assert main([*args, "--beam-width", "20", "--num-hypotheses", "3"]) == EXIT_OK
    assert f"threshold {threshold}\n" in model.read_text()
    capsys.readouterr()
    assert main(["listen", str(model), str(world["probe"]), *weights]) == EXIT_OK
    assert f"events={events}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, flag, value, joined",
    [("listen", "--threshold", "-inf", "-inf"), ("score", "--vad-threshold-db", "-4.5e1", "-45")],
    ids=["listen-threshold", "score-vad-threshold-db"],
)
def test_negative_float_text_after_a_space_is_the_option_value(
    world, stored_threshold_model, capsys, command, flag, value, joined
):
    args = [command, str(stored_threshold_model["plain"]), str(world["distractor"])]
    args += ["--weights", str(world["weights"])]
    capsys.readouterr()
    assert main([*args, f"{flag}={joined}"]) == EXIT_OK
    expected = capsys.readouterr().out
    assert main([*args, flag, value]) == EXIT_OK
    assert capsys.readouterr().out == expected
    assert command != "listen" or "events=1" in expected


def test_enroll_stores_a_space_separated_scientific_threshold(world, tmp_path):
    model = tmp_path / "m.model"
    args = ["enroll", str(model), *map(str, world["wavs"]), "--weights", str(world["weights"])]
    args += ["--beam-width", "20", "--num-hypotheses", "3", "--threshold", "-1e3"]
    assert main(args) == EXIT_OK
    assert "threshold -1000.0\n" in model.read_text()


@pytest.mark.parametrize("detector", ["donut", "query_by_string", "dtw_post"])
def test_eval_without_weights_is_a_usage_error_before_reading(tmp_path, capsys, detector):
    missing = tmp_path / "no-such-manifest.txt"  # unread: the flags are checked first
    assert main(["eval", "--manifest", str(missing), "--detector", detector]) == EXIT_USAGE
    assert "requires --weights" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--lambda 0.5", "--agg mean", "--no-normalize"])
def test_baseline_has_one_dtw_rule_and_no_flags_to_change_it(tmp_path, capsys, flag):
    wavs = [str(tmp_path / f"missing-{i}.wav") for i in range(4)]  # unread: flags come first
    assert main(["baseline", *wavs, "--space", "fbank", *flag.split()]) == EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def two_utterance_wavs(world):
    """The probe and the distractor joined by 0.5 s of silence, in both orders."""
    from wakespot.audio import AudioBuffer

    probe, distractor = (read_wav(world[key]).samples for key in ("probe", "distractor"))
    gap = np.zeros(8000, dtype=np.int16)
    paths = {}
    for order, parts in (("keyword_first", (probe, gap, distractor)),
                         ("keyword_last", (distractor, gap, probe))):
        paths[order] = world["root"] / f"{order}.wav"
        write_wav(paths[order], AudioBuffer(np.concatenate(parts)))
    return paths


@pytest.mark.parametrize("order, keyword_event", [("keyword_first", 0), ("keyword_last", 1)])
def test_score_of_two_utterances_is_the_best_listen_event(
    world, two_utterance_wavs, tmp_path, capsys, order, keyword_event
):
    """``score`` prints the highest ``listen`` event and the hypothesis
    lines of its segment: the output of scoring that segment cut out."""
    from wakespot.audio import AudioBuffer
    from wakespot.vad import span_samples

    model = str(tmp_path / "word.model")
    weights = ["--weights", str(world["weights"])]
    _enroll(world, model)
    wav = two_utterance_wavs[order]
    capsys.readouterr()
    assert main(["score", model, str(wav), *weights]) == EXIT_OK
    score_out = capsys.readouterr().out
    assert main(["listen", model, str(wav), *weights, "--threshold", "-inf"]) == EXIT_OK
    events = re.findall(r"score=(\S+) frames=\[(\d+),(\d+)\)", capsys.readouterr().out)
    assert len(events) == 2
    best = max(events, key=lambda event: float(event[0]))
    assert best == events[keyword_event]
    assert f"{_last_score(score_out):.4f}" == best[0]
    lo, hi = span_samples((int(best[1]), int(best[2])))
    write_wav(tmp_path / "best.wav", AudioBuffer(read_wav(wav).samples[lo:hi]))
    assert main(["score", model, str(tmp_path / "best.wav"), *weights]) == EXIT_OK
    assert capsys.readouterr().out == score_out


def test_enroll_names_a_support_with_two_segments(world, two_utterance_wavs, tmp_path, caplog):
    wavs = [world["wavs"][0], two_utterance_wavs["keyword_last"], world["wavs"][2]]
    args = ["enroll", str(tmp_path / "m.model"), *map(str, wavs), "--weights", str(world["weights"])]
    with caplog.at_level("WARNING", logger="wakespot"):
        assert main([*args, "--beam-width", "20", "--num-hypotheses", "3"]) == EXIT_OK
    assert [r.getMessage() for r in caplog.records] == [
        "recording 2 of 3 has 2 VAD segments; enrolling from the longest"
    ]


def test_a_process_of_its_own_prints_log_warnings_as_the_cli_does(world, two_utterance_wavs, tmp_path):
    """Under pytest the root logger already has a handler, so ``main``'s
    ``logging.basicConfig`` changes nothing; ``python -m wakespot.cli``
    shows the text a user sees, and runs the module's ``__main__`` guard."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    wavs = [world["wavs"][0], two_utterance_wavs["keyword_last"], world["wavs"][2]]
    args = ["enroll", str(tmp_path / "m.model"), *map(str, wavs), "--weights", str(world["weights"])]
    done = subprocess.run(
        [sys.executable, "-m", "wakespot.cli", *args, "--beam-width", "20", "--num-hypotheses", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == EXIT_OK
    assert done.stderr == "warning: recording 2 of 3 has 2 VAD segments; enrolling from the longest\n"
