"""Query-by-example wakeword detection.

Enroll a custom spoken keyword from a handful of recordings by decoding
N-best label sequences from a CTC label model, then detect it in new audio
by confidence-weighted forward scoring. Includes DTW baselines, an
energy VAD, a streaming detector, and a few-shot evaluation harness over a
synthetic pseudo-phoneme benchmark.
"""

from .audio import (
    AudioBuffer,
    FeatureSequence,
    extract_fbank,
    read_wav,
    stack_frames,
    write_wav,
)
from .ctc import (
    CtcForwardScorer,
    ScoredSequence,
    beam_search,
    forward_logprob,
)
from .dtw import dtw_cost, dtw_detect, dtw_detect_segments, dtw_score
from .errors import FileFormatError, WakespotError
from .evaluation import (
    Episode,
    HarnessParams,
    HarnessReport,
    RocMetrics,
    TestRecording,
    compute_roc,
    read_episodes,
    run_harness,
    write_episodes,
)
from .label_model import (
    GruWeights,
    LabelAlphabet,
    Posteriorgram,
    load_weights,
    random_weights,
    run,
    save_weights,
    zero_weights,
)
from .synth import EpisodeConfig, generate_synthetic_episodes, oracle_weights, synth_alphabet
from .vad import Vad, VadConfig, segment, trim_to_speech
from .wakeword import (
    DetectionEvent,
    DetectionReport,
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
)

__version__ = "0.1.0"
