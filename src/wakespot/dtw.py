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

A filterbank distance sums its squared differences in eight lanes, in the
order numpy's pairwise sum adds one contiguous row of 8 to 128 terms. So it
equals ``np.sqrt(((a - b) ** 2).sum(axis=-1))`` bit for bit, and it does not
depend on how numpy reduces: ``test_matches_exhaustive_path_oracle_exactly``
compares it with numpy's own sum, so a numpy that sums differently fails
the tests instead of shifting scores silently. Each posteriorgram is
smoothed once per call, and each (support, test) pair's product is its own.

The alignment is a full sequence-to-sequence DP with steps (1,0), (0,1)
and (1,1), no band constraint; the cost of a path is the sum of frame
distances over its cells, including the start cell; ``dtw_cost`` returns
the minimal cost. Scores are negated costs normalized by the optimal
path's length, so that one global threshold remains meaningful across
utterances of different lengths, and a test's detection score is the best
of its scores against the enrollment recordings. Ties between predecessors
prefer diagonal, then query-advance, then test-advance, which makes the
reported path length deterministic.

The DP runs as one wavefront per ``dtw_detect_segments`` call over all P
(support, segment) pairs: cell (i, j) depends only on anti-diagonals
i + j - 1 and i + j - 2, so each step computes one anti-diagonal of every
pair in a few numpy operations. Pair p = s * T + t keeps query row i in
lane (i + 1) * P + p: a cell's diagonal and up predecessors sit P lanes
back, and lanes 0..P-1 are a +inf row above row 0. A step computes only
the band of rows that meet its diagonal, reading distances straight from
one buffer of all support frames (stacked) against all segment frames
(side by side). Lanes past a pair's end (i >= n or j >= m) compute on
whatever in-bounds distance they read, but no real cell reads them: its
predecessors are cells of its own pair with a smaller i or j, or +inf
cells, namely the row above row 0 and the j = -1 cells. Cell (i, -1) lies
on diagonal i - 1, one row below its band, and row i is first written on
diagonal i, so it still holds its initial +inf. A step reads one row above
its band, which both earlier bands reach. Each pair's cost is read at its
last cell, on diagonal n + m - 2.

The tie rule is kept exactly: the diagonal predecessor is taken first
and replaced only by a strictly smaller up, then a strictly smaller left
value, chosen with ``np.where`` (not ``np.minimum``) so the kept operand,
sign of zero included, is the one a cell-by-cell loop keeps. Each cell's
cost is then the same IEEE sum as in that loop. ``dtw_detect_segments``
scores tests cut into VAD segments, each as its best segment; ``dtw_cost``
is the one-pair DP, and ``dtw_score`` and ``dtw_detect`` are the cases of
one pair and of one single-segment test. A segment without frames, such
as the posteriorgram of a one-window segment (it has no stacked frame),
scores -inf and joins no wavefront.

Memory: a ``dtw_detect_segments`` call holds the one float64 distance
buffer of (sum of support frames) x (sum of scored-segment frames) cells,
8 bytes a cell, and lane arrays of (longest support + 1) x P entries. On
filterbank frames it also holds a feature-major copy of the segment frames
and one scratch array of the same size for a support row's squares. So a
call's memory grows with its test frames; on the ``fewshot`` benchmark
this buffer sets the harness pass's peak.
"""

from __future__ import annotations

import numpy as np

from .audio import FeatureSequence
from .label_model import Posteriorgram

SMOOTHING = 1e-5  # lambda in the posterior distance


def _smooth(rows: np.ndarray) -> np.ndarray:
    """Posteriorgram rows mixed with the uniform distribution."""
    return SMOOTHING / rows.shape[1] + (1.0 - SMOOTHING) * rows


def _fbank_distance_matrix(a: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """l2 distances between every row of ``a`` and every column of the
    feature-major ``bt``."""
    # Explicit differences keep d(x, x) exactly zero. A row's squares are
    # summed in eight lanes: channels 8k..8k+7 into rows 0-7, then
    # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then each channel past the last
    # whole block of 8. That is the order in which numpy's pairwise sum adds
    # one contiguous row of 8 to 128 terms, so both widths, 41 and 82, get
    # the bits of np.sqrt(((x - y) ** 2).sum()). The tree's sums go into
    # rows 8-13, which a width of 16 or more has already added into rows
    # 0-7, so ``sq`` is the only scratch array.
    dims, cols = bt.shape
    whole = dims - dims % 8
    out = np.empty((a.shape[0], cols))
    sq = np.empty_like(bt)
    lanes, pairs, halves = sq[:8], sq[8:12], sq[12:14]
    for row, total in zip(a, out):
        np.subtract(row[:, None], bt, out=sq)
        np.multiply(sq, sq, out=sq)
        for k in range(8, whole, 8):
            np.add(lanes, sq[k : k + 8], out=lanes)
        np.add(lanes[0::2], lanes[1::2], out=pairs)
        np.add(pairs[0::2], pairs[1::2], out=halves)
        np.add(halves[0], halves[1], out=total)
        for k in range(whole, dims):
            np.add(total, sq[k], out=total)
    return np.sqrt(out, out=out)


def _frames_and_space(sequences) -> tuple[list[np.ndarray], bool]:
    """Each sequence's frames, and whether they are posteriorgram rows."""
    if all(isinstance(seq, Posteriorgram) for seq in sequences):
        return [seq.rows for seq in sequences], True
    if all(isinstance(seq, FeatureSequence) for seq in sequences):
        return [seq.frames for seq in sequences], False
    kinds = sorted({type(seq).__name__ for seq in sequences})
    raise TypeError(f"DTW compares FeatureSequences or Posteriorgrams, not a mix; got {kinds}")


def _distance_buffer(supports: list[np.ndarray], tests: list[np.ndarray], post: bool) -> np.ndarray:
    """Frame distances of the stacked support frames (rows) against the
    test frames side by side (columns); posteriorgram rows if ``post``."""
    frames = (*supports, *tests)
    if any(len(f) == 0 for f in frames):
        raise ValueError("DTW requires non-empty sequences")
    dims = {f.shape[1] for f in frames}
    if len(dims) > 1:
        raise ValueError(f"frame dims differ: {sorted(dims)}")
    if not post:
        # each support row is computed on its own against the test frames
        # side by side, so stacking changes no value. ``out=`` keeps the
        # feature-major copy C-ordered: a plain concatenation of transposed
        # views is F-ordered, with every channel strided. The support rows
        # come first: with the feature-major copy allocated before them,
        # the fewshot benchmark's peak RSS read 2 MB higher in most runs
        support_rows = np.concatenate(supports)
        tests_t = np.empty((dims.pop(), sum(map(len, tests))))
        np.concatenate([t.T for t in tests], axis=1, out=tests_t)
        return _fbank_distance_matrix(support_rows, tests_t)
    # smoothed once per sequence; the product stays per pair, because one
    # product of stacked rows can change the last bits
    supports, tests = [_smooth(a) for a in supports], [_smooth(b) for b in tests]
    rows, cols = np.cumsum([0, *map(len, supports)]), np.cumsum([0, *map(len, tests)])
    out = np.empty((rows[-1], cols[-1]))
    for a, r0, r1 in zip(supports, rows, rows[1:]):
        for b, c0, c1 in zip(tests, cols, cols[1:]):
            out[r0:r1, c0:c1] = -np.log(a @ b.T)
    return out


def _dtw_costs(distances: np.ndarray, rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """Minimal alignment cost and that path's length of every (support,
    test) pair, support-major, where ``distances`` stacks supports of
    ``rows`` frames against tests of ``cols`` frames side by side."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    num_pairs = rows.size * cols.size
    costs = np.empty(num_pairs)
    lengths = np.empty(num_pairs, dtype=np.int64)
    if not num_pairs:
        return costs, lengths
    stride = distances.shape[1]
    flat = distances.ravel()
    # cell (i, j) of pair p is flat[starts[p] + i * stride + j]; on diagonal
    # k, with j = k - i, that is offsets[i * P + p] + k
    starts = ((np.cumsum(rows) - rows)[:, None] * stride + (np.cumsum(cols) - cols)).ravel()
    rows_max, cols_max = int(rows.max()), int(cols.max())
    offsets = (np.arange(rows_max)[:, None] * (stride - 1) + starts).ravel()
    n, m = np.repeat(rows, cols.size), np.tile(cols, rows.size)
    last_lanes = n * num_pairs + np.arange(num_pairs)  # lane of row n - 1
    finished: dict[int, list[int]] = {}
    for p, k in enumerate((n + m - 2).tolist()):
        finished.setdefault(k, []).append(p)

    def collect(k, cost, length):
        done = finished.get(k)
        if done:
            costs[done] = cost[last_lanes[done]]
            lengths[done] = length[last_lanes[done]]

    lanes = (rows_max + 1) * num_pairs
    before = np.full(lanes, np.inf)  # diagonal k - 2
    before_len = np.zeros(lanes, dtype=np.int64)
    last = before.copy()  # diagonal k - 1; diagonal 0 is the start cells alone
    last[num_pairs : 2 * num_pairs] = flat[starts]
    last_len = np.ones_like(before_len)
    collect(0, last, last_len)
    for k in range(1, rows_max + cols_max - 1):
        # the band (rows max(0, k - cols_max + 1)..min(k, rows_max - 1)) is
        # lanes lo + P : hi + P; its diagonal and up predecessors are lanes
        # lo:hi of k - 2 and k - 1, its left ones the band's lanes of k - 1.
        # Strict < in that order, choosing with np.where so the winning
        # operand (sign of zero included) is kept
        lo = max(0, k - cols_max + 1) * num_pairs
        hi = (min(k, rows_max - 1) + 1) * num_pairs
        dist = np.take(flat, np.add(offsets[lo:hi], k), mode="clip")
        best, steps = before[lo:hi], before_len[lo:hi]
        take = last[lo:hi] < best
        best = np.where(take, last[lo:hi], best)
        steps = np.where(take, last_len[lo:hi], steps)
        band = slice(lo + num_pairs, hi + num_pairs)
        take = last[band] < best
        best = np.where(take, last[band], best)
        steps = np.where(take, last_len[band], steps)
        np.add(best, dist, out=before[band])
        np.add(steps, 1, out=before_len[band])
        before, last = last, before
        before_len, last_len = last_len, before_len
        collect(k, last, last_len)
    return costs, lengths


def dtw_cost(query, test) -> float:
    """Minimal alignment cost between two sequences: the sum of frame
    distances over the best path."""
    (query, test), post = _frames_and_space([query, test])
    costs, _ = _dtw_costs(_distance_buffer([query], [test], post), [len(query)], [len(test)])
    return float(costs[0])


def dtw_score(query, test) -> float:
    """Similarity score between two sequences; higher means more similar."""
    return dtw_detect_segments([query], [[test]])[0]


def dtw_detect(supports, test) -> float:
    """Detection score against enrollment recordings: the best over them."""
    return dtw_detect_segments(supports, [[test]])[0]


def dtw_detect_segments(supports, tests) -> list[float]:
    """Detection score of every test, given as its segments, against the
    enrollment recordings: its best segment's best score over them.

    Every (support, segment) pair is aligned in one wavefront. A test
    without a segment that has frames scores -inf, as the CTC detectors
    score it; a support without frames is a ``ValueError``.
    """
    if not supports:
        raise ValueError("need at least one support sequence")
    segments = [seq for test in tests for seq in test]
    frames, post = _frames_and_space([*supports, *segments])
    supports, segments = frames[: len(supports)], frames[len(supports) :]
    if any(len(a) == 0 for a in supports):
        raise ValueError("DTW requires non-empty support sequences")
    scored = [b for b in segments if len(b)]
    best = iter(())
    if scored:
        rows, cols = [len(a) for a in supports], [len(b) for b in scored]
        costs, lengths = _dtw_costs(_distance_buffer(supports, scored, post), rows, cols)
        per_support = (-costs / lengths).reshape(len(rows), len(cols)).tolist()
        best = (max(scores) for scores in zip(*per_support))
    per_segment = iter([next(best) if len(b) else -np.inf for b in segments])
    return [max((next(per_segment) for _ in test), default=-np.inf) for test in tests]
