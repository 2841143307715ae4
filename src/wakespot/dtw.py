"""Dynamic-time-warping baselines for query-by-example matching.

Two feature spaces are supported: raw log-Mel features compared with the
l2 norm, and posteriorgrams compared with a smoothed dot-product distance

    d(p, q) = -log((lam*u + (1-lam)*p) . (lam*u + (1-lam)*q))

where u is the uniform distribution over the K symbols and lam is a small
smoothing constant that keeps the dot product positive for peaky rows.

The alignment is a full sequence-to-sequence DP with steps (1,0), (0,1)
and (1,1), no band constraint; the cost of a path is the sum of frame
distances over its cells, including the start cell. Scores are negated
costs, by default normalized by the optimal path's length so that one
global threshold remains meaningful across utterances of different
lengths. Ties between predecessors prefer diagonal, then query-advance,
then test-advance, which makes the reported path length deterministic.

Removed variants that did not help (dropping the softmax, l2 on
posteriors, a framewise cross-entropy label model) are intentionally not
implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import FeatureSequence
from .label_model import Posteriorgram

FEATURE_SPACES = ("fbank", "posteriorgram")
NORMALIZATIONS = ("none", "path_length")
AGGREGATIONS = ("max", "mean")


@dataclass(frozen=True)
class DtwConfig:
    feature_space: str = "posteriorgram"
    smoothing: float = 1e-5  # lambda in the posterior distance
    normalization: str = "path_length"
    aggregation: str = "max"

    def __post_init__(self):
        if self.feature_space not in FEATURE_SPACES:
            raise ValueError(f"feature_space must be one of {FEATURE_SPACES}")
        if not 0.0 < self.smoothing < 1.0:
            raise ValueError("smoothing must lie strictly between 0 and 1")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {NORMALIZATIONS}")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")


def frame_distance_post(p: np.ndarray, q: np.ndarray, smoothing: float = 1e-5) -> float:
    """Smoothed dot-product distance between two posterior rows."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"distributions must share one shape, got {p.shape} and {q.shape}")
    return float(_post_distance_matrix(p[None, :], q[None, :], smoothing)[0, 0])


def _post_distance_matrix(a: np.ndarray, b: np.ndarray, smoothing: float) -> np.ndarray:
    """Distances between every row of ``a`` and every row of ``b``."""
    k = a.shape[1]
    sa = smoothing / k + (1.0 - smoothing) * a
    sb = smoothing / k + (1.0 - smoothing) * b
    return -np.log(sa @ sb.T)


def _fbank_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # explicit differences keep d(x, x) exactly zero
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _frames_and_space(seq, config: DtwConfig) -> np.ndarray:
    if isinstance(seq, Posteriorgram):
        if config.feature_space != "posteriorgram":
            raise TypeError("got a posteriorgram but the config selects fbank features")
        return seq.rows
    if isinstance(seq, FeatureSequence):
        if config.feature_space != "fbank":
            raise TypeError("got filterbank features but the config selects posteriorgrams")
        return seq.frames
    raise TypeError(f"unsupported sequence type {type(seq).__name__}")


def _dtw_cost(distances: np.ndarray) -> tuple[float, int]:
    """Minimal alignment cost and the length of that path."""
    n, m = distances.shape
    d = distances.tolist()  # plain floats: the DP loop is much faster off numpy scalars
    inf = float("inf")
    prev_cost = [inf] * m
    prev_len = [0] * m
    cost_row = [inf] * m
    len_row = [0] * m
    for i in range(n):
        di = d[i]
        for j in range(m):
            if i == 0 and j == 0:
                cost_row[0] = di[0]
                len_row[0] = 1
                continue
            diag = prev_cost[j - 1] if (i > 0 and j > 0) else inf
            up = prev_cost[j] if i > 0 else inf
            left = cost_row[j - 1] if j > 0 else inf
            best, steps = diag, (prev_len[j - 1] if j > 0 else 0)
            if up < best:
                best, steps = up, prev_len[j]
            if left < best:
                best, steps = left, len_row[j - 1]
            cost_row[j] = best + di[j]
            len_row[j] = steps + 1
        prev_cost, cost_row = cost_row, prev_cost
        prev_len, len_row = len_row, prev_len
    return prev_cost[m - 1], prev_len[m - 1]


def dtw_score(query, test, config: DtwConfig | None = None) -> float:
    """Similarity score between two sequences; higher means more similar."""
    config = config or DtwConfig()
    a = _frames_and_space(query, config)
    b = _frames_and_space(test, config)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("DTW requires non-empty sequences")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"frame dims differ: {a.shape[1]} vs {b.shape[1]}")
    if config.feature_space == "posteriorgram":
        distances = _post_distance_matrix(a, b, config.smoothing)
    else:
        distances = _fbank_distance_matrix(a, b)
    cost, path_length = _dtw_cost(distances)
    if config.normalization == "path_length":
        return -cost / path_length
    return -cost


def dtw_detect(supports, test, config: DtwConfig | None = None) -> float:
    """Detection score against enrollment recordings (max or mean over them)."""
    config = config or DtwConfig()
    scores = [dtw_score(support, test, config) for support in supports]
    if not scores:
        raise ValueError("need at least one support sequence")
    if config.aggregation == "max":
        return max(scores)
    return sum(scores) / len(scores)
