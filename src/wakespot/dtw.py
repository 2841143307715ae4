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

The DP runs as one wavefront over a batch of distance matrices: cell
(i, j) depends only on cells of anti-diagonals i + j - 1 and i + j - 2, so
each step computes a whole anti-diagonal of every matrix in a few numpy
operations. The tie rule is kept exactly: the diagonal predecessor is
taken first and replaced only by a strictly smaller up, then a strictly
smaller left value, chosen with ``np.where`` (not ``np.minimum``) so the
kept operand, sign of zero included, is the one a cell-by-cell loop keeps.
Each cell's cost is then the same IEEE sum as in that loop. Matching
scores all tests of an episode against one support in one wavefront
(``dtw_detect_all``); ``dtw_score`` and ``dtw_detect`` are its one-pair
and one-test cases.

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
    # explicit differences keep d(x, x) exactly zero; one query row at a time
    # keeps the temporary at (m, dims) instead of (n, m, dims)
    out = np.empty((a.shape[0], b.shape[0]))
    diff = np.empty_like(b)
    for i, row in enumerate(a):
        np.subtract(row, b, out=diff)
        np.multiply(diff, diff, out=diff)
        diff.sum(axis=1, out=out[i])
    return np.sqrt(out, out=out)


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


def _distance_matrices(a: np.ndarray, tests: list[np.ndarray], config: DtwConfig) -> list[np.ndarray]:
    """Frame distances between the query ``a`` and each test in ``tests``."""
    for b in tests:
        if a.shape[0] == 0 or b.shape[0] == 0:
            raise ValueError("DTW requires non-empty sequences")
        if a.shape[1] != b.shape[1]:
            raise ValueError(f"frame dims differ: {a.shape[1]} vs {b.shape[1]}")
    if config.feature_space == "posteriorgram":
        return [_post_distance_matrix(a, b, config.smoothing) for b in tests]
    # entries do not depend on their neighbours, so one matrix against every
    # test frame, split per test, holds the same values
    splits = np.cumsum([b.shape[0] for b in tests[:-1]], dtype=np.int64)
    return np.split(_fbank_distance_matrix(a, np.concatenate(tests)), splits, axis=1)


def _dtw_costs(distance_matrices) -> tuple[np.ndarray, np.ndarray]:
    """Minimal alignment cost and that path's length for every matrix.

    Anti-diagonal k of all P matrices is one flat array of P blocks of
    ``rows + 1`` cells: cell (i, k - i) of matrix p sits at
    ``p * (rows + 1) + i + 1``. The first cell of each block and every cell
    outside a matrix hold +inf, so they never win a strict ``<``.
    """
    num_pairs = len(distance_matrices)
    costs = np.empty(num_pairs)
    lengths = np.empty(num_pairs, dtype=np.int64)
    if not num_pairs:
        return costs, lengths
    shapes = np.array([d.shape for d in distance_matrices], dtype=np.int64)
    width = int(shapes[:, 0].max()) + 1
    ends = shapes.sum(axis=1) - 2  # the diagonal of each matrix's last cell
    last_cells = np.arange(num_pairs) * width + shapes[:, 0]  # row n - 1 of each block
    skew = np.full((int(ends.max()) + 1, num_pairs * width), np.inf)
    for p, d in enumerate(distance_matrices):
        i, j = np.indices(d.shape)
        skew[i + j, p * width + i + 1] = d
    finished: dict[int, list[int]] = {}
    for p, k in enumerate(ends.tolist()):
        finished.setdefault(k, []).append(p)

    def collect(k, cost, length):
        done = finished.get(k)
        if done:
            costs[done] = cost[last_cells[done]]
            lengths[done] = length[last_cells[done]]

    before = np.full(num_pairs * width, np.inf)  # diagonal k - 2
    before_len = np.zeros(num_pairs * width, dtype=np.int64)
    last = before.copy()  # diagonal k - 1; diagonal 0 is the start cell alone
    last[1::width] = skew[0, 1::width]
    last_len = np.ones_like(before_len)
    collect(0, last, last_len)
    for k in range(1, len(skew)):
        # predecessors of cell c: diagonal (c - 1 on k - 2), up (c - 1 on
        # k - 1), left (c on k - 1); strict < in that order, choosing with
        # np.where so the winning operand (sign of zero included) is kept.
        # A block's first cell reads the previous block's last, but adding
        # its +inf distance keeps it +inf.
        best, steps = before[:-1], before_len[:-1]
        take = last[:-1] < best
        best = np.where(take, last[:-1], best)
        steps = np.where(take, last_len[:-1], steps)
        take = last[1:] < best
        best = np.where(take, last[1:], best)
        steps = np.where(take, last_len[1:], steps)
        before, before_len = last, last_len
        last = np.empty_like(before)
        last[0] = np.inf
        np.add(best, skew[k, 1:], out=last[1:])
        last_len = np.empty_like(before_len)
        last_len[0] = 0
        np.add(steps, 1, out=last_len[1:])
        collect(k, last, last_len)
    return costs, lengths


def _support_scores(support, tests: list[np.ndarray], config: DtwConfig) -> list[float]:
    """Scores of one support against every test's frames, in one wavefront."""
    if not tests:
        return []
    costs, lengths = _dtw_costs(_distance_matrices(_frames_and_space(support, config), tests, config))
    if config.normalization == "path_length":
        return (-costs / lengths).tolist()
    return (-costs).tolist()


def dtw_score(query, test, config: DtwConfig | None = None) -> float:
    """Similarity score between two sequences; higher means more similar."""
    config = config or DtwConfig()
    return _support_scores(query, [_frames_and_space(test, config)], config)[0]


def dtw_detect_all(supports, tests, config: DtwConfig | None = None) -> list[float]:
    """Detection score of every test against the enrollment recordings.

    Each support is aligned with all tests in one batched wavefront; the
    scores equal ``[dtw_detect(supports, t, config) for t in tests]``.
    """
    config = config or DtwConfig()
    if not supports:
        raise ValueError("need at least one support sequence")
    frames = [_frames_and_space(test, config) for test in tests]
    per_test = zip(*(_support_scores(support, frames, config) for support in supports))
    if config.aggregation == "max":
        return [max(scores) for scores in per_test]
    return [sum(scores) / len(scores) for scores in per_test]


def dtw_detect(supports, test, config: DtwConfig | None = None) -> float:
    """Detection score against enrollment recordings (max or mean over them)."""
    return dtw_detect_all(supports, [test], config)[0]
