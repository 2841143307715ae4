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
- ``criterion_07``, ``criterion_08``: the score records and EERs of the
  acceptance suite's detector-ordering and hypothesis-count runs.

Two checkouts print the same JSON when these numbers agree bit for bit.
Takes about 40 s on 2 vCPUs.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wakespot import synth  # noqa: E402
from wakespot.ctc import beam_search  # noqa: E402
from wakespot.evaluation import HarnessParams, run_harness  # noqa: E402
from wakespot.label_model import random_weights, save_weights  # noqa: E402
from wakespot.vad import VadConfig  # noqa: E402
from wakespot.wakeword import featurize  # noqa: E402

FEWSHOT_SEED = 1
FEWSHOT_EPISODES = 24
BEAM_WIDTH = 100
# the acceptance suite's criterion 7 and 8 runs (tests/test_acceptance.py)
ORDERING_SEED = 1337
ORDERING_EPISODES = 50
TREND_SEEDS = (0, 1, 2, 3, 4)
TREND_EPISODES = 15
TREND_CONFIGS = ((100, 10), (100, 1), (1, 1))


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


def main() -> None:
    all_weights = {
        "oracle": synth.oracle_weights(),
        "random_3x96": random_weights(synth.synth_alphabet(), 3, 96, seed=0),
    }
    episodes = synth.generate_synthetic_episodes(FEWSHOT_SEED, FEWSHOT_EPISODES)
    out = {}
    for name, weights in all_weights.items():
        out[f"weights_{name}"] = weight_file_digest(weights)
        posts, beams = [], []
        for episode in episodes:
            recordings = [*episode.support, *(t.audio for t in episode.tests)]
            episode_posts = featurize(recordings, VadConfig(), weights)
            posts += [(p.rows.shape, p.rows.tobytes()) for p in episode_posts]
            for post in episode_posts[: len(episode.support)]:
                beams.append([(e.labels, e.logprob.hex()) for e in beam_search(post, BEAM_WIDTH)])
        out[f"posteriorgrams_{name}"] = digest(chunk for pair in posts for chunk in pair)
        out[f"beams_{name}"] = digest(beams)

    oracle = HarnessParams(weights=all_weights["oracle"])
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
