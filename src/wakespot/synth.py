"""Synthetic audio world for tests, demos and benchmarks.

No speech corpus or trained network ships with this package. Instead, a
small bank of pseudo-phonemes is defined, one per widely separated Mel
filter, and rendered as tones with speaker-dependent pitch, rate and gain,
plus additive noise and occasional brief dropouts. A matching
hand-constructed single-layer GRU (the "oracle" label model) maps each
stacked feature frame back to a peaked posterior over the pseudo-phoneme
that produced it: the hidden layer thresholds the log energy of each Mel
channel and the output projection reads the channel assigned to each
pseudo-phoneme, with the blank logit fixed at zero so silence and noise
frames fall to blank.

Pseudo-phoneme channels are three Mel filters apart. A tone never excites
a neighbouring pseudo-phoneme channel directly (triangular filters overlap
only their immediate neighbours), so label identity survives speaker pitch
jitter, while noise, gain jitter and dropouts make the benchmark
imperfect in a controlled, seed-reproducible way.

Episodes mirror the few-shot protocol: three supports from one synthetic
speaker, positives from the same speaker, "confusing" negatives that share
all but one or two pseudo-phonemes with the target, and "non-confusing"
negatives built from disjoint pseudo-phonemes.

Rendering computes what never changes once: the Mel centres and the
sample counts of the fixed edges are module constants, and every envelope
window is a read-only raised-cosine rise from the cached ``_rise``.
Whatever the ``EpisodeConfig``, the renderer asks only for lengths from
96 samples (the edge fall) to 559 (the longest attack), so the cache
holds at most 464 windows, under 1.3 MB. A render draws the same random
numbers and yields the same samples whether its windows were cached or
not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .audio import (
    FFT_SIZE,
    NUM_FILTERS,
    PREEMPHASIS,
    SAMPLE_RATE,
    STACKED_DIM,
    WINDOW_SAMPLES,
    AudioBuffer,
    mel_center_frequencies,
    mel_filterbank,
)
from .evaluation import Episode, TestRecording
from .label_model import GruLayer, GruWeights, LabelAlphabet

PHONEME_NAMES = ("AA", "IY", "UW", "EH", "OW", "AE", "ER", "SH", "S", "K", "M", "N")
PHONEME_CHANNELS = (5, 8, 11, 14, 17, 20, 23, 26, 29, 32, 35, 38)

# Acoustically confusable pairs: each pseudo-phoneme also excites its
# partner's channel at a weaker, utterance-dependent level, the synthetic
# analogue of phonemes that share articulation.
CONFUSION_PARTNER = {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5, 7: 8, 8: 7, 9: 10, 10: 9, 11: 12, 12: 11}

# Oracle activation contract. Thresholds sit a fixed margin above the
# expected per-channel noise log energy at the reference noise floor;
# rendered tones measure 5+ nats above that floor on their channel.
NOISE_FLOOR_DB = -36.0
ACTIVATION_MARGIN = 2.5
ACTIVATION_SLOPE = 1.0
# Output logits against a zero blank logit: a sharp spike at each channel
# onset, a weak residue while the channel stays active, silence elsewhere.
ONSET_LOGIT = 10.0
STEADY_LOGIT = -2.0
SILENCE_LOGIT = -6.0

# Rendering constants that no episode configuration varies.
_EDGE_RAMP_MS = 6.0
_PHRASE_LENGTH = (4, 5)  # pseudo-phonemes per keyword, inclusive
_TONE_AMP = 6000.0
_PHONEME_MS = (90.0, 150.0)
_GAP_MS = (30.0, 60.0)
_UTTERANCE_PITCH = (0.998, 1.002)
_UTTERANCE_RATE = (0.95, 1.05)
_ATTACK_MS = (5.0, 35.0)  # per-phoneme onset ramp
_PARTNER_LEVEL = (0.008, 0.07)  # confusable-partner amplitude ratio
_WEAK_ONSET_PROB = 0.25  # chance a phoneme starts almost inaudible
_WEAK_ONSET_MS = (40.0, 80.0)
_WEAK_ONSET_ATTENUATION = (0.1, 0.35)
_DROPOUT_MS = (25.0, 60.0)
_DROPOUT_ATTENUATION = 0.2
_DROPOUT_EDGE_MS = 15.0

# Computed once: the Mel centres and the sample counts of the fixed edges.
_CENTERS = mel_center_frequencies()
_RAMP = int(_EDGE_RAMP_MS * SAMPLE_RATE / 1000.0)  # phoneme edge fall
_DROPOUT_EDGE = max(int(_DROPOUT_EDGE_MS * SAMPLE_RATE / 1000.0), 1)  # dip fade, onset release


@functools.lru_cache(maxsize=None)
def _rise(length: int) -> np.ndarray:
    """The raised-cosine rise ``0.5 - 0.5 cos(pi k / length)``, k < length.

    Every envelope window of ``render_utterance`` is this rise, a prefix of
    it or its reverse. The array is read-only because it is shared.
    """
    rise = 0.5 - 0.5 * np.cos(np.pi * np.arange(length) / length)
    rise.flags.writeable = False
    return rise


def synth_alphabet() -> LabelAlphabet:
    return LabelAlphabet(PHONEME_NAMES)


def noise_log_energy_profile(noise_db: float) -> np.ndarray:
    """Expected per-channel log energy of white noise at ``noise_db`` dBFS.

    Pre-emphasis colors the spectrum and filter widths differ, so the
    profile rises with channel index; the oracle's activation thresholds
    follow it instead of using one global constant.
    """
    sigma = 32768.0 * 10.0 ** (noise_db / 20.0)
    omega = 2.0 * np.pi * np.arange(FFT_SIZE // 2 + 1) / FFT_SIZE
    preemph_gain = (1.0 - PREEMPHASIS * np.cos(omega)) ** 2 + (PREEMPHASIS * np.sin(omega)) ** 2
    window_power = float((np.hamming(WINDOW_SAMPLES) ** 2).sum())
    return np.log(sigma**2 * window_power * (mel_filterbank() @ preemph_gain))


def oracle_weights() -> GruWeights:
    """Hand-constructed 1-layer GRU recognizing the pseudo-phoneme bank.

    Hidden units come in two banks of NUM_FILTERS. Detector unit j is
    tanh(ACTIVATION_SLOPE * (mean of the two stacked copies of Mel channel
    j - threshold_j)), with per-channel thresholds ACTIVATION_MARGIN above
    the noise profile at NOISE_FLOOR_DB; its update gate is biased hard
    off, so it is memory-free. Memory unit j copies the detector's previous
    value through the recurrent path. The output logit of pseudo-phoneme i
    reads its detector positively and its memory negatively, placed so that
    a fresh channel onset scores ``ONSET_LOGIT``, a channel that stays
    active scores ``STEADY_LOGIT``, and everything else ``SILENCE_LOGIT``
    or below, all against a zero blank logit. The posteriorgrams therefore
    look like a trained CTC model's: blank holds nearly all mass, each
    phoneme onset fires one sharp spike, and a weak label residue persists
    while the tone lasts.
    """
    alphabet = synth_alphabet()
    hidden = 2 * NUM_FILTERS  # detector bank, then memory bank
    thresholds = noise_log_energy_profile(NOISE_FLOOR_DB) + ACTIVATION_MARGIN
    w = np.zeros((3, hidden, STACKED_DIM))  # input weights of z, r and h
    b_h = np.zeros(hidden)
    u_h = np.zeros((hidden, hidden))
    for j in range(NUM_FILTERS):
        w[2, j, j] = 0.5 * ACTIVATION_SLOPE
        w[2, j, NUM_FILTERS + j] = 0.5 * ACTIVATION_SLOPE
        b_h[j] = -ACTIVATION_SLOPE * thresholds[j]
        u_h[NUM_FILTERS + j, j] = 2.0  # memory unit saturates on the previous detector
    b_zr = np.empty((2, hidden))
    b_zr[0] = -20.0  # update gate off: state is rewritten each frame
    b_zr[1] = 20.0  # reset gate fully open
    layer = GruLayer(w=w, u_zr=np.zeros((2, hidden, hidden)), u_h=u_h, b_zr=b_zr, b_h=b_h)
    detector_gain = (ONSET_LOGIT - SILENCE_LOGIT) / 2.0
    memory_gain = (ONSET_LOGIT - STEADY_LOGIT) / 2.0
    bias = ONSET_LOGIT - detector_gain - memory_gain
    w_out = np.zeros((alphabet.size, hidden))
    b_out = np.zeros(alphabet.size)
    for i, channel in enumerate(PHONEME_CHANNELS):
        w_out[1 + i, channel] = detector_gain
        w_out[1 + i, NUM_FILTERS + channel] = -memory_gain
        b_out[1 + i] = bias
    return GruWeights((layer,), w_out, b_out, alphabet)


@dataclass(frozen=True)
class Speaker:
    pitch: float
    rate: float
    gain_db: float


@dataclass(frozen=True)
class EpisodeConfig:
    num_positive: int = 4
    num_confusing_same: int = 3
    num_confusing_different: int = 3
    num_nonconfusing_same: int = 2
    num_nonconfusing_different: int = 2
    edge_ms: tuple[float, float] = (60.0, 130.0)
    phoneme_gain: tuple[float, float] = (0.7, 1.3)
    speaker_pitch: tuple[float, float] = (0.97, 1.03)
    speaker_rate: tuple[float, float] = (0.85, 1.15)
    speaker_gain_db: tuple[float, float] = (-6.0, 6.0)
    utterance_gain_db: tuple[float, float] = (-1.5, 1.5)
    noise_db: tuple[float, float] = (-48.0, -36.0)
    dropouts_per_second: float = 4.0

    @classmethod
    def clean(cls) -> "EpisodeConfig":
        """Gentle settings: low noise, no dropouts, mild gain spread."""
        return cls(
            phoneme_gain=(0.95, 1.05),
            speaker_gain_db=(-2.0, 2.0),
            utterance_gain_db=(-0.5, 0.5),
            noise_db=(-60.0, -55.0),
            dropouts_per_second=0.0,
        )


def _draw_speaker(rng: np.random.Generator, cfg: EpisodeConfig) -> Speaker:
    return Speaker(
        pitch=float(rng.uniform(*cfg.speaker_pitch)),
        rate=float(rng.uniform(*cfg.speaker_rate)),
        gain_db=float(rng.uniform(*cfg.speaker_gain_db)),
    )


def render_utterance(
    labels: tuple[int, ...],
    speaker: Speaker,
    rng: np.random.Generator,
    cfg: EpisodeConfig | None = None,
) -> AudioBuffer:
    """Render a pseudo-phoneme sequence as 16 kHz audio."""
    cfg = cfg or EpisodeConfig()
    pitch = speaker.pitch * rng.uniform(*_UTTERANCE_PITCH)
    rate = speaker.rate * rng.uniform(*_UTTERANCE_RATE)
    gain = 10.0 ** ((speaker.gain_db + rng.uniform(*cfg.utterance_gain_db)) / 20.0)
    noise_sigma = 32768.0 * 10.0 ** (rng.uniform(*cfg.noise_db) / 20.0)

    pieces = [np.zeros(int(rng.uniform(*cfg.edge_ms) * SAMPLE_RATE / 1000.0))]
    for label in labels:
        duration_ms = rng.uniform(*_PHONEME_MS) * rate
        n = max(int(duration_ms * SAMPLE_RATE / 1000.0), 4 * _RAMP)
        freq = _CENTERS[PHONEME_CHANNELS[label - 1]] * pitch
        partner = CONFUSION_PARTNER[label]
        partner_freq = _CENTERS[PHONEME_CHANNELS[partner - 1]] * pitch
        amp = _TONE_AMP * gain * rng.uniform(*cfg.phoneme_gain)
        partner_amp = amp * rng.uniform(*_PARTNER_LEVEL)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        partner_phase = rng.uniform(0.0, 2.0 * math.pi)
        t = np.arange(n) / SAMPLE_RATE
        tone = amp * np.sin(2.0 * math.pi * freq * t + phase)
        tone += partner_amp * np.sin(2.0 * math.pi * partner_freq * t + partner_phase)
        envelope = np.ones(n)
        attack = max(int(rng.uniform(*_ATTACK_MS) * SAMPLE_RATE / 1000.0), _RAMP)
        attack = min(attack, n // 2)
        envelope[:attack] = _rise(attack)
        envelope[-_RAMP:] *= _rise(_RAMP)[::-1]
        if rng.uniform() < _WEAK_ONSET_PROB:
            # the start of the phoneme is nearly inaudible; recover smoothly
            weak = min(int(rng.uniform(*_WEAK_ONSET_MS) * SAMPLE_RATE / 1000.0), n // 2)
            level = rng.uniform(*_WEAK_ONSET_ATTENUATION)
            release = min(weak, _DROPOUT_EDGE)
            shape = np.full(weak, level)
            shape[weak - release :] = level + (1.0 - level) * _rise(release)
            envelope[:weak] *= shape
        for _ in range(rng.poisson(cfg.dropouts_per_second * n / SAMPLE_RATE)):
            # a dip never outgrows its phoneme (possible at slow speaker rates)
            width = min(int(rng.uniform(*_DROPOUT_MS) * SAMPLE_RATE / 1000.0), n)
            lo = int(rng.integers(0, max(n - width, 1)))
            # smooth-edged dip: a click-free fade to the attenuated level
            dip = np.ones(width)
            fade = _rise(_DROPOUT_EDGE)[: min(_DROPOUT_EDGE, width // 2)]
            depth = 1.0 - _DROPOUT_ATTENUATION
            dip[: fade.size] = 1.0 - depth * fade
            dip[width - fade.size :] = (1.0 - depth * fade)[::-1]
            dip[fade.size : width - fade.size] = _DROPOUT_ATTENUATION
            envelope[lo : lo + width] *= dip
        pieces.append(tone * envelope)
        pieces.append(np.zeros(int(rng.uniform(*_GAP_MS) * SAMPLE_RATE / 1000.0)))
    pieces.append(np.zeros(int(rng.uniform(*cfg.edge_ms) * SAMPLE_RATE / 1000.0)))

    signal = np.concatenate(pieces)
    signal = signal + rng.normal(0.0, noise_sigma, signal.size)
    return AudioBuffer(np.clip(signal, -32768, 32767).astype(np.int16))


def _confusing_labels(
    target: tuple[int, ...], pool: list[int], rng: np.random.Generator
) -> tuple[int, ...]:
    """Substitute one or two positions, keeping template edit distance <= 2.

    When the substituted phoneme's confusable partner is available it is
    preferred, mirroring negatives chosen by lowest edit distance.
    """
    edits = int(rng.integers(1, 3))
    edits = min(edits, len(target), len(pool))
    positions = rng.choice(len(target), size=edits, replace=False)
    out = list(target)
    used: set[int] = set()
    for pos in positions:
        partner = CONFUSION_PARTNER[target[pos]]
        if partner in pool and partner not in used and rng.uniform() < 0.7:
            out[pos] = partner
        else:
            choices = [v for v in pool if v not in used]
            out[pos] = int(rng.choice(choices))
        used.add(out[pos])
    return tuple(out)


def generate_synthetic_episodes(
    seed: int, count: int, config: EpisodeConfig | None = None
) -> list[Episode]:
    """Deterministic-by-seed few-shot episodes over the pseudo-phoneme bank."""
    cfg = config or EpisodeConfig()
    rng = np.random.default_rng(seed)
    num_templates = len(PHONEME_NAMES)
    episodes = []
    for index in range(count):
        length = int(rng.integers(_PHRASE_LENGTH[0], _PHRASE_LENGTH[1] + 1))
        order = [int(v) + 1 for v in rng.permutation(num_templates)]
        target = tuple(order[:length])
        pool = order[length:]  # templates the target does not use
        speaker = _draw_speaker(rng, cfg)
        support = tuple(render_utterance(target, speaker, rng, cfg) for _ in range(3))

        tests: list[TestRecording] = []
        for _ in range(cfg.num_positive):
            tests.append(
                TestRecording(
                    audio=render_utterance(target, speaker, rng, cfg),
                    polarity="positive",
                    tag="non_confusing",  # vacuous for positives; splits filter negatives
                    speaker_match="same",
                    labels=target,
                )
            )

        def negative(labels, tag, match):
            voice = speaker if match == "same" else _draw_speaker(rng, cfg)
            return TestRecording(
                audio=render_utterance(labels, voice, rng, cfg),
                polarity="negative",
                tag=tag,
                speaker_match=match,
                labels=labels,
            )

        for _ in range(cfg.num_confusing_same):
            tests.append(negative(_confusing_labels(target, pool, rng), "confusing", "same"))
        for _ in range(cfg.num_confusing_different):
            tests.append(negative(_confusing_labels(target, pool, rng), "confusing", "different"))
        for _ in range(cfg.num_nonconfusing_same):
            labels = tuple(int(v) for v in rng.choice(pool, size=length, replace=False))
            tests.append(negative(labels, "non_confusing", "same"))
        for _ in range(cfg.num_nonconfusing_different):
            labels = tuple(int(v) for v in rng.choice(pool, size=length, replace=False))
            tests.append(negative(labels, "non_confusing", "different"))

        episodes.append(
            Episode(
                episode_id=f"ep{index:03d}",
                target_labels=target,
                support=support,
                tests=tuple(tests),
            )
        )
    return episodes
