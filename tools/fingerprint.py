"""Print sha256 digests of the numbers that a bit-identical change must keep.

Run from a checkout root:

    python tools/fingerprint.py

It prints one JSON object with a digest for each family:

- ``weights_oracle``, ``weights_random_3x96``: the saved weight files of
  ``synth.oracle_weights()`` and ``random_weights(synth_alphabet(), 3, 96,
  seed=0)``;
- ``posteriorgrams_oracle``, ``posteriorgrams_random_3x96``: every
  ``featurize`` posteriorgram of the ``fewshot`` benchmark's episodes (seed
  1, 24 episodes), supports and tests, under each set of weights;
- ``beams_oracle``, ``beams_random_3x96``: ``beam_search(post, 100)`` on
  each episode's supports, as labels and ``logprob.hex()``;
- ``scores_random_3x96``: ``wakeword.score`` of each episode's tests
  against a model learned (beam 100, N = 10) from its support
  posteriorgrams under the 3x96 weights;
- ``streaming_oracle``: the events and counters of ``detect_stream`` with
  the oracle weights, a model learned from the first episode's supports and
  threshold -inf, fed in 10 ms chunks the recordings of the first two
  episodes joined by 0.4 s of silence;
- ``streaming_random_3x96_noisy``: the same for the 3x96 weights, the
  ``scores_random_3x96`` model of the first episode and that stream under
  seeded -30 dBFS noise, above the VAD threshold, so the segment stays
  open and the detector's GRU blocks are mostly full;
- ``criterion_07``, ``criterion_08``: the score records and EERs of the
  acceptance suite's detector-ordering and hypothesis-count runs.

Two checkouts print the same JSON when these numbers agree bit for bit.
Takes about 45 s on 2 vCPUs.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from wakespot import synth  # noqa: E402
from wakespot.audio import HOP_SAMPLES, SAMPLE_RATE  # noqa: E402
from wakespot.ctc import beam_search  # noqa: E402
from wakespot.evaluation import HarnessParams, run_harness  # noqa: E402
from wakespot.label_model import random_weights, save_weights  # noqa: E402
from wakespot.vad import VadConfig  # noqa: E402
from wakespot.wakeword import detect_stream, featurize, learn, score  # noqa: E402

FEWSHOT_SEED = 1
FEWSHOT_EPISODES = 24
BEAM_WIDTH = 100
# the acceptance suite's criterion 7 and 8 runs (tests/test_acceptance.py)
ORDERING_SEED = 1337
ORDERING_EPISODES = 50
TREND_SEEDS = (0, 1, 2, 3, 4)
TREND_EPISODES = 15
TREND_CONFIGS = ((100, 10), (100, 1), (1, 1))
NUM_HYPOTHESES = 10
STREAM_EPISODES = 2
STREAM_GAP_SAMPLES = int(0.4 * SAMPLE_RATE)
STREAM_NOISE_SEED = 3
STREAM_NOISE_DBFS = -30.0


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
        h.update(b"\x00")
    return h.hexdigest()


def weight_file_digest(weights) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "weights.bin"
        save_weights(path, weights)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def report_chunks(report):
    for r in report.records:
        yield f"{r.episode_id} {r.score.hex()} {r.is_positive} {r.tag} {r.speaker_match}"
    yield report.overall.eer.hex()
    for name in sorted(report.splits):
        yield f"{name} {report.splits[name].eer.hex()}"


def stream_of(episodes) -> np.ndarray:
    """The recordings of ``episodes``, supports then tests, joined by silence."""
    gap = np.zeros(STREAM_GAP_SAMPLES, dtype=np.int16)
    parts = [
        part
        for episode in episodes
        for audio in [*episode.support, *(t.audio for t in episode.tests)]
        for part in (audio.samples, gap)
    ]
    return np.concatenate(parts[:-1])


def noisy(stream: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(STREAM_NOISE_SEED)
    sigma = 32768.0 * 10.0 ** (STREAM_NOISE_DBFS / 20.0)
    out = stream + rng.normal(0.0, sigma, stream.size)
    return np.clip(out, -32768, 32767).round().astype(np.int16)


def streaming_digest(model, weights, stream) -> str:
    chunks = np.split(stream, range(HOP_SAMPLES, stream.size, HOP_SAMPLES))
    report = detect_stream(model, weights, chunks, -math.inf)
    return digest(
        [*(f"{e.time.hex()} {e.score.hex()} {e.start_frame} {e.end_frame}" for e in report.events),
         report.stats]
    )


def main() -> None:
    all_weights = {
        "oracle": synth.oracle_weights(),
        "random_3x96": random_weights(synth.synth_alphabet(), 3, 96, seed=0),
    }
    episodes = synth.generate_synthetic_episodes(FEWSHOT_SEED, FEWSHOT_EPISODES)
    out = {}
    models_3x96 = []
    for name, weights in all_weights.items():
        out[f"weights_{name}"] = weight_file_digest(weights)
        posts, beams, scores = [], [], []
        for episode in episodes:
            recordings = [*episode.support, *(t.audio for t in episode.tests)]
            episode_posts = featurize(recordings, VadConfig(), weights)
            posts += [(p.rows.shape, p.rows.tobytes()) for p in episode_posts]
            supports = episode_posts[: len(episode.support)]
            for post in supports:
                beams.append([(e.labels, e.logprob.hex()) for e in beam_search(post, BEAM_WIDTH)])
            if name == "random_3x96":
                model = learn(supports, BEAM_WIDTH, NUM_HYPOTHESES)
                scores.append([score(model, p).hex() for p in episode_posts[len(supports) :]])
                models_3x96.append(model)
        out[f"posteriorgrams_{name}"] = digest(chunk for pair in posts for chunk in pair)
        out[f"beams_{name}"] = digest(beams)
    out["scores_random_3x96"] = digest(scores)
    oracle_weights = all_weights["oracle"]
    stream = stream_of(episodes[:STREAM_EPISODES])
    oracle_model = learn(
        featurize(episodes[0].support, VadConfig(), oracle_weights), BEAM_WIDTH, NUM_HYPOTHESES
    )
    out["streaming_oracle"] = streaming_digest(oracle_model, oracle_weights, stream)
    out["streaming_random_3x96_noisy"] = streaming_digest(
        models_3x96[0], all_weights["random_3x96"], noisy(stream)
    )

    oracle = HarnessParams(weights=oracle_weights)
    ordering = synth.generate_synthetic_episodes(ORDERING_SEED, ORDERING_EPISODES)
    out["criterion_07"] = digest(
        chunk
        for detector in ("donut", "dtw_post", "dtw_fbank")
        for chunk in report_chunks(run_harness(detector, ordering, oracle))
    )
    trend = []
    for beam_width, kept in TREND_CONFIGS:
        params = HarnessParams(oracle.weights, beam_width=beam_width, num_hypotheses=kept)
        for seed in TREND_SEEDS:
            suite = synth.generate_synthetic_episodes(seed, TREND_EPISODES)
            trend += report_chunks(run_harness("donut", suite, params))
    out["criterion_08"] = digest(trend)
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
