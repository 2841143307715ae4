"""Command-line interface.

Commands: enroll, score, listen, baseline, eval, gen-episodes. Exit codes:
0 success, 1 usage error, 2 data or I/O error, 3 internal error.

Recordings become detector input through :func:`wakeword.featurize`, cut
into VAD segments as ``listen`` cuts its stream. ``enroll``, ``score`` and
``baseline`` run the harness's three recipes, :func:`evaluation.enroll`,
:func:`evaluation.ctc_scores` and :func:`evaluation.dtw_scores`: a support
enrolls from its longest segment (a data error without speech), and a
recording scores as its best segment. ``score`` prints each hypothesis's log
probability on that segment, then the highest score ``listen`` gives the
same file (-inf without speech, where ``listen`` gives no event).
``eval`` with ``--weights`` requires the manifest's alphabet to be the
weights' alphabet, as a model file must be (a data error otherwise). Every
command refuses weights whose input width is not that of the stacked frames
it feeds them (a data error).

``enroll --threshold`` stores a threshold in the model file, and ``listen``
fires on a segment whose score reaches it; ``listen --threshold`` overrides
the stored value, and is required when the model stores none. A NaN
threshold, ``--threshold`` or ``--vad-threshold-db``, is a usage error; inf
and -inf are accepted. Every option takes float text that starts with "-"
(such as -inf or -1.5e-05, as ``score`` prints it) as its value, not as
another option.
"""

from __future__ import annotations

import argparse
import logging
import math
import re
import sys
from dataclasses import replace

from . import evaluation, synth
from .audio import HOP_SAMPLES, read_wav
from .errors import FileFormatError, WakespotError
from .label_model import load_weights, save_weights
from .vad import VadConfig
from .wakeword import DEFAULT_BEAM_WIDTH, DEFAULT_NUM_HYPOTHESES, detect_stream, load_model, save_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only plain decimals such as -2 or -0.5 as negative
        # numbers, and takes -inf or -1e3 for an option that needs a value
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _threshold(text: str) -> float:
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError("must be a number or +-inf, got nan")
    return value


def _add_vad_flags(parser):
    vad = VadConfig()
    parser.add_argument("--vad-threshold-db", type=_threshold, default=vad.energy_threshold_db)
    parser.add_argument("--vad-hangover", type=_non_negative_int, default=vad.hangover_frames)
    parser.add_argument("--vad-min-speech", type=_positive_int, default=vad.min_speech_frames)


def _vad_config(args) -> VadConfig:
    return VadConfig(
        energy_threshold_db=args.vad_threshold_db,
        hangover_frames=args.vad_hangover,
        min_speech_frames=args.vad_min_speech,
    )


def _harness_params(args) -> evaluation.HarnessParams:
    """The beam and VAD settings of ``enroll`` and ``eval``, without weights."""
    try:
        return evaluation.HarnessParams(None, args.beam_width, args.num_hypotheses, _vad_config(args))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wakespot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("enroll", help="learn a wakeword model from three recordings")
    p.add_argument("out", help="model file to write")
    p.add_argument("wavs", nargs=3, metavar="wav")
    p.add_argument("--weights", required=True)
    p.add_argument("--beam-width", type=_positive_int, default=DEFAULT_BEAM_WIDTH)
    p.add_argument("--num-hypotheses", type=_positive_int, default=DEFAULT_NUM_HYPOTHESES)
    p.add_argument("--threshold", type=_threshold, help="stored in the model for listen")
    _add_vad_flags(p)

    p = sub.add_parser("score", help="score one recording against a model")
    p.add_argument("model")
    p.add_argument("wav")
    p.add_argument("--weights", required=True)
    _add_vad_flags(p)

    p = sub.add_parser("listen", help="stream a WAV through the online detector")
    p.add_argument("model")
    p.add_argument("wav")
    p.add_argument("--weights", required=True)
    p.add_argument("--threshold", type=_threshold, help="default: the model's threshold")
    _add_vad_flags(p)

    p = sub.add_parser("baseline", help="DTW score of a test WAV against three supports")
    p.add_argument("supports", nargs=3, metavar="support_wav")
    p.add_argument("test")
    p.add_argument("--space", choices=("fbank", "post"), default="post")
    p.add_argument("--weights", help="required for --space post")
    _add_vad_flags(p)

    p = sub.add_parser("eval", help="run a detector over an episode manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--detector", choices=evaluation.DETECTORS, required=True)
    no_weights = " and ".join(evaluation.WEIGHTLESS_DETECTORS)
    p.add_argument("--weights", help=f"required by every detector but {no_weights}")
    p.add_argument("--beam-width", type=_positive_int, default=DEFAULT_BEAM_WIDTH)
    p.add_argument("--num-hypotheses", type=_positive_int, default=DEFAULT_NUM_HYPOTHESES)
    p.add_argument("--report", help="write the metrics report here as well")
    p.add_argument("--roc-points", help="write ROC sweep points as CSV")
    _add_vad_flags(p)

    p = sub.add_parser("gen-episodes", help="generate a synthetic episode suite")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=_positive_int, default=50)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--clean", action="store_true", help="gentle noise settings")
    p.add_argument("--weights-out", help="also write the matching oracle weights")

    return parser


def _hypothesis_line(alphabet, hyp, logprob: float) -> str:
    """One hypothesis as ``enroll`` and ``score`` print it."""
    symbols = " ".join(alphabet.symbol_of(v) for v in hyp.labels) or "(empty)"
    return f"  {symbols}  logp={logprob:.4f}  w={hyp.weight:.6f}"


def cmd_enroll(args) -> int:
    params = replace(_harness_params(args), weights=load_weights(args.weights))
    model = evaluation.enroll([read_wav(w) for w in args.wavs], params, args.threshold)
    save_model(args.out, model)
    for i in range(len(args.wavs)):
        print(f"example {i + 1}:")
        for hyp in model.hypotheses:
            if hyp.example == i:
                print(_hypothesis_line(model.alphabet, hyp, hyp.enroll_logprob))
    print(f"wrote {len(model.hypotheses)} hypotheses to {args.out}")
    return EXIT_OK


def cmd_score(args) -> int:
    weights = load_weights(args.weights)
    model = load_model(args.model, weights.alphabet)
    params = evaluation.HarnessParams(weights=weights, vad=_vad_config(args))
    [result] = evaluation.ctc_scores(model, [read_wav(args.wav)], params)
    for hyp, lp in zip(model.hypotheses, result.logprobs):  # none without speech
        print(_hypothesis_line(model.alphabet, hyp, lp))
    print(f"score {result.score}")
    return EXIT_OK


def cmd_listen(args) -> int:
    weights = load_weights(args.weights)
    model = load_model(args.model, weights.alphabet)
    threshold = model.threshold if args.threshold is None else args.threshold
    if threshold is None:
        raise UsageError("listen needs --threshold: the model stores none")
    samples = read_wav(args.wav).samples
    chunks = (samples[i : i + HOP_SAMPLES] for i in range(0, len(samples), HOP_SAMPLES))
    report = detect_stream(model, weights, chunks, threshold, _vad_config(args))
    for event in report.events:
        print(f"event t={event.time:.3f}s score={event.score:.4f} "
              f"frames=[{event.start_frame},{event.end_frame})")
    s = report.stats
    print(
        f"frames={s.frames_processed} speech={s.speech_frames} "
        f"gru_frames={s.label_model_frames} segments={s.segments_scored} "
        f"events={len(report.events)}"
    )
    return EXIT_OK


def cmd_baseline(args) -> int:
    if args.space == "post" and not args.weights:
        raise UsageError("--space post requires --weights")
    weights = load_weights(args.weights) if args.space == "post" else None
    params = evaluation.HarnessParams(weights=weights, vad=_vad_config(args))
    supports = [read_wav(p) for p in args.supports]
    [score] = evaluation.dtw_scores(f"dtw_{args.space}", supports, [read_wav(args.test)], params)
    print(f"score {score}")
    return EXIT_OK


def cmd_eval(args) -> int:
    params = _harness_params(args)
    weightless = args.detector in evaluation.WEIGHTLESS_DETECTORS
    if not weightless and not args.weights:
        raise UsageError(f"--detector {args.detector} requires --weights")
    alphabet, episodes = evaluation.read_episodes(args.manifest)
    weights = None if weightless else load_weights(args.weights)
    if weights is not None and weights.alphabet != alphabet:
        raise FileFormatError(
            f"{args.manifest}: manifest alphabet differs from the alphabet of weights {args.weights}"
        )
    report = evaluation.run_harness(args.detector, episodes, replace(params, weights=weights))
    text = evaluation.format_report(report)
    print(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.roc_points:
        evaluation.save_roc_points(args.roc_points, report.overall)
    return EXIT_OK


def cmd_gen_episodes(args) -> int:
    config = synth.EpisodeConfig.clean() if args.clean else synth.EpisodeConfig()
    episodes = synth.generate_synthetic_episodes(args.seed, args.count, config)
    manifest = evaluation.write_episodes(args.out, episodes, synth.synth_alphabet())
    print(f"wrote {len(episodes)} episodes under {args.out} (manifest {manifest})")
    if args.weights_out:
        save_weights(args.weights_out, synth.oracle_weights())
        print(f"wrote oracle weights to {args.weights_out}")
    return EXIT_OK


_COMMANDS = {
    "enroll": cmd_enroll,
    "score": cmd_score,
    "listen": cmd_listen,
    "baseline": cmd_baseline,
    "eval": cmd_eval,
    "gen-episodes": cmd_gen_episodes,
}


def main(argv=None) -> int:
    logging.basicConfig(format="warning: %(message)s")  # log warnings print like the CLI's own
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (WakespotError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
