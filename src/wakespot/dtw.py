"""Dynamic-time-warping baselines for query-by-example matching.

Two feature spaces are supported, and the type of the sequences selects
the distance: filterbank features (``FeatureSequence``) are compared with
the l2 norm, and posteriorgrams (``Posteriorgram``) with a smoothed
dot-product distance

    d(p, q) = -log((lam*u + (1-lam)*p) . (lam*u + (1-lam)*q))

where u is the uniform distribution over the K symbols and lam
(``SMOOTHING``, 1e-5) is a small smoothing constant that keeps the dot
product positive for peaky rows. One call compares sequences of one type
only; mixing them is a ``TypeError``.

The alignment is a full sequence-to-sequence DP with steps (1,0), (0,1)
and (1,1), no band constraint; the cost of a path is the sum of frame
distances over its cells, including the start cell; ``dtw_cost`` returns
the minimal cost. Scores are negated costs normalized by the optimal
path's length, so that one global threshold remains meaningful across
utterances of different lengths, and a test's detection score is the best
of its scores against the enrollment recordings. Ties between predecessors
prefer diagonal, then query-advance, then test-advance, which makes the
reported path length deterministic.

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
and one-test cases, and ``dtw_detect_segments`` its case of tests cut
into VAD segments, each scored as its best segment.
"""

from __future__ import annotations

import numpy as np

from .audio import FeatureSequence
from .label_model import Posteriorgram

SMOOTHING = 1e-5  # lambda in the posterior distance


def _post_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between every row of ``a`` and every row of ``b``."""
    k = a.shape[1]
    sa = SMOOTHING / k + (1.0 - SMOOTHING) * a
    sb = SMOOTHING / k + (1.0 - SMOOTHING) * b
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


def _frames_and_space(sequences) -> tuple[list[np.ndarray], bool]:
    """Each sequence's frames, and whether they are posteriorgram rows."""
    if all(isinstance(seq, Posteriorgram) for seq in sequences):
        return [seq.rows for seq in sequences], True
    if all(isinstance(seq, FeatureSequence) for seq in sequences):
        return [seq.frames for seq in sequences], False
    kinds = sorted({type(seq).__name__ for seq in sequences})
    raise TypeError(f"DTW compares FeatureSequences or Posteriorgrams, not a mix; got {kinds}")


def _distance_matrices(a: np.ndarray, tests: list[np.ndarray], post: bool) -> list:
    """Frame distances between the query ``a`` and each test (posteriorgram rows if ``post``)."""
    for b in tests:
        if a.shape[0] == 0 or b.shape[0] == 0:
            raise ValueError("DTW requires non-empty sequences")
        if a.shape[1] != b.shape[1]:
            raise ValueError(f"frame dims differ: {a.shape[1]} vs {b.shape[1]}")
    if post:
        return [_post_distance_matrix(a, b) for b in tests]
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


def dtw_cost(query, test) -> float:
    """Minimal alignment cost between two sequences: the sum of frame
    distances over the best path."""
    (query, test), post = _frames_and_space([query, test])
    costs, _ = _dtw_costs(_distance_matrices(query, [test], post))
    return float(costs[0])


def dtw_score(query, test) -> float:
    """Similarity score between two sequences; higher means more similar."""
    return dtw_detect_all([query], [test])[0]


def dtw_detect_all(supports, tests) -> list[float]:
    """Detection score of every test against the enrollment recordings.

    Each support is aligned with all tests in one batched wavefront; the
    scores equal ``[dtw_detect(supports, t) for t in tests]``.
    """
    if not supports:
        raise ValueError("need at least one support sequence")
    frames, post = _frames_and_space([*supports, *tests])
    supports, tests = frames[: len(supports)], frames[len(supports) :]
    if not tests:
        return []
    per_support = []
    for support in supports:
        costs, lengths = _dtw_costs(_distance_matrices(support, tests, post))
        per_support.append((-costs / lengths).tolist())
    return [max(scores) for scores in zip(*per_support)]


def dtw_detect(supports, test) -> float:
    """Detection score against enrollment recordings: the best over them."""
    return dtw_detect_all(supports, [test])[0]


def dtw_detect_segments(supports, tests) -> list[float]:
    """As ``dtw_detect_all``, for tests given as their segments: each scores as its best."""
    scores = iter(dtw_detect_all(supports, [seq for segments in tests for seq in segments]))
    return [max(next(scores) for _ in segments) for segments in tests]
