import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wakespot.audio import FeatureSequence, stack_frames
from wakespot.dtw import (
    SMOOTHING,
    _distance_buffer,
    _dtw_costs,
    _frames_and_space,
    dtw_cost,
    dtw_detect,
    dtw_detect_segments,
    dtw_score,
)
from wakespot.label_model import Posteriorgram

from conftest import make_alphabet, random_posteriorgram, reference_dtw_cost


def fbank_seq(rows):
    rows = np.asarray(rows, dtype=np.float64)
    padded = np.zeros((rows.shape[0], 41))
    padded[:, : rows.shape[1]] = rows
    return FeatureSequence(padded)


def frame_distance_post(p, q) -> float:
    """The posterior distance of two rows: the DTW cost of their one-frame
    posteriorgrams, whose one alignment path is the start cell."""
    p, q = (np.asarray(row, dtype=np.float64) for row in (p, q))
    return dtw_cost(
        Posteriorgram(p[None, :], make_alphabet(p.size - 1)),
        Posteriorgram(q[None, :], make_alphabet(q.size - 1)),
    )


def exhaustive_dtw_cost(distances):
    """Min path cost by explicit enumeration of all monotone paths."""
    n, m = distances.shape
    best = [math.inf]

    def walk(i, j, cost):
        cost = cost + distances[i][j]
        if i == n - 1 and j == m - 1:
            best[0] = min(best[0], cost)
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cost)
        if i + 1 < n:
            walk(i + 1, j, cost)
        if j + 1 < m:
            walk(i, j + 1, cost)

    walk(0, 0, 0.0)
    return best[0]


class TestFrameDistance:
    def test_uniform_against_uniform_is_log_k(self):
        for k in (5, 40):
            u = np.full(k, 1.0 / k)
            assert math.isclose(frame_distance_post(u, u), math.log(k), abs_tol=1e-12)

    def test_matching_one_hots(self):
        k = 40
        lam = 1e-5
        p = np.zeros(k)
        p[7] = 1.0
        # independent arithmetic for the smoothed self dot product
        hot = lam / k + (1.0 - lam)
        rest = lam / k
        expected = -math.log(hot * hot + (k - 1) * rest * rest)
        got = frame_distance_post(p, p)
        assert math.isclose(got, expected, abs_tol=1e-12)
        assert math.isclose(got, 1.95e-5, rel_tol=0.02)

    def test_disjoint_one_hots(self):
        k = 40
        lam = 1e-5
        p = np.zeros(k)
        q = np.zeros(k)
        p[3] = 1.0
        q[11] = 1.0
        expected = -math.log(2.0 * lam / k * (1.0 - lam) + lam * lam / k)
        got = frame_distance_post(p, q)
        assert math.isclose(got, expected, abs_tol=1e-9)
        assert got > 10.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.dirichlet(np.ones(8))
            q = rng.dirichlet(np.ones(8))
            assert frame_distance_post(p, q) == frame_distance_post(q, p)

    def test_positive_for_distributions(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.dirichlet(np.ones(12))
            q = rng.dirichlet(np.ones(12))
            assert frame_distance_post(p, q) > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            frame_distance_post(np.ones(3) / 3, np.ones(4) / 4)


class TestDtwScore:
    def test_identical_fbank_sequences_score_zero(self):
        rng = np.random.default_rng(5)
        seq = fbank_seq(rng.normal(size=(6, 41)))
        assert dtw_cost(seq, seq) == dtw_score(seq, seq) == 0.0

    def test_identical_stacked_fbank_sequences_score_zero(self):
        rng = np.random.default_rng(15)
        seq = stack_frames(FeatureSequence(rng.normal(size=(12, 41))))
        assert seq.dim == 82
        assert dtw_cost(seq, seq) == dtw_score(seq, seq) == 0.0

    def test_single_frame_query_forces_path(self):
        rng = np.random.default_rng(6)
        q = rng.normal(size=(1, 41))
        t = rng.normal(size=(4, 41))
        got = dtw_cost(fbank_seq(q), fbank_seq(t))
        expected = sum(float(np.linalg.norm(q[0] - t[i])) for i in range(4))
        assert math.isclose(got, expected, rel_tol=1e-12)

    def test_matches_exhaustive_path_oracle_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n, m = rng.integers(1, 6, size=2)
            a = fbank_seq(rng.normal(size=(n, 41)))
            b = fbank_seq(rng.normal(size=(m, 41)))
            diff = a.frames[:, None, :] - b.frames[None, :, :]
            distances = np.sqrt((diff * diff).sum(axis=2))
            assert dtw_cost(a, b) == exhaustive_dtw_cost(distances)

    def test_posterior_space_matches_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n, m = rng.integers(1, 6, size=2)
            a = random_posteriorgram(rng, int(n), 4)
            b = random_posteriorgram(rng, int(m), 4)
            lam = 1e-5
            sa = lam / 4 + (1 - lam) * a.rows
            sb = lam / 4 + (1 - lam) * b.rows
            distances = -np.log(sa @ sb.T)
            # the DP and the path enumeration must agree exactly on the
            # same distance matrix; per-entry values match the scalar
            # definition to float precision
            assert dtw_cost(a, b) == exhaustive_dtw_cost(distances)
            assert math.isclose(
                distances[0, 0], frame_distance_post(a.rows[0], b.rows[0]), rel_tol=1e-12
            )

    def test_cost_monotone_when_extending_test(self):
        rng = np.random.default_rng(9)
        a = fbank_seq(rng.normal(size=(4, 41)))
        b_rows = rng.normal(size=(5, 41))
        far = rng.normal(size=(2, 41)) + 50.0
        short_cost = dtw_cost(a, fbank_seq(b_rows))
        long_cost = dtw_cost(a, fbank_seq(np.vstack([b_rows, far])))
        assert long_cost >= short_cost

    def test_type_checks(self):
        rng = np.random.default_rng(10)
        feats = fbank_seq(rng.normal(size=(3, 41)))
        post = random_posteriorgram(rng, 3, 4)
        with pytest.raises(TypeError):
            dtw_score(feats, post)
        with pytest.raises(TypeError):
            dtw_detect_segments([feats], [[feats], [post]])

    def test_empty_rejected(self):
        feats = fbank_seq(np.zeros((0, 41)))
        with pytest.raises(ValueError):
            dtw_score(feats, feats)
        one = fbank_seq(np.zeros((1, 41)))
        for query, test in ((feats, one), (one, feats)):
            with pytest.raises(ValueError, match="non-empty"):
                dtw_cost(query, test)

    def test_path_normalization_divides_by_path_cells(self):
        rng = np.random.default_rng(11)
        a = fbank_seq(rng.normal(size=(3, 41)))
        assert dtw_cost(a, a) == dtw_score(a, a) == 0.0
        b = fbank_seq(rng.normal(size=(3, 41)))
        assert dtw_score(a, b) >= -dtw_cost(a, b)  # dividing a negative score by path length shrinks it


class TestDtwDetect:
    def test_identical_support_scores_zero(self):
        rng = np.random.default_rng(12)
        seq = fbank_seq(rng.normal(size=(5, 41)))
        other = fbank_seq(rng.normal(size=(5, 41)))
        assert dtw_detect([other, seq, other], seq) == 0.0

    def test_all_supports_identical(self):
        rng = np.random.default_rng(13)
        support = fbank_seq(rng.normal(size=(4, 41)))
        test = fbank_seq(rng.normal(size=(6, 41)))
        assert dtw_detect([support] * 3, test) == dtw_score(support, test)

    def test_support_permutation_invariance(self):
        rng = np.random.default_rng(14)
        supports = [fbank_seq(rng.normal(size=(4, 41))) for _ in range(3)]
        test = fbank_seq(rng.normal(size=(5, 41)))
        base = dtw_detect(supports, test)
        assert dtw_detect(supports[::-1], test) == pytest.approx(base, abs=1e-12)


def broadcast_distances(supports, tests):
    """The l2 distance buffer from numpy's own sum of the broadcast squared
    differences."""
    diff = np.concatenate(supports)[:, None, :] - np.concatenate(tests)[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def scaled_frames(rng, lengths, dim):
    # channel scales over six decades, so a different summation order
    # shows in the last bits
    scales = 10.0 ** rng.uniform(-3, 3, size=dim)
    return [rng.normal(size=(n, dim)) * scales for n in lengths]


class TestDistanceBuffer:
    @pytest.mark.parametrize("dim", [41, 82])
    @pytest.mark.parametrize(
        "rows, cols", [([1], [1]), ([3], [7]), ([4, 1, 6], [5, 2, 9, 1]), ([2, 11], [13, 3, 8])]
    )
    def test_fbank_buffer_equals_numpy_sum_bit_for_bit(self, dim, rows, cols):
        rng = np.random.default_rng([dim, *rows, *cols])
        supports, tests = scaled_frames(rng, rows, dim), scaled_frames(rng, cols, dim)
        got = _distance_buffer(supports, tests, post=False)
        assert got.tobytes() == broadcast_distances(supports, tests).tobytes()

    def test_fbank_buffer_of_non_contiguous_frames(self):
        rng = np.random.default_rng(17)
        base = rng.normal(size=(30, 41))
        views = {
            41: [base[::2], np.asfortranarray(base[:9]), base[3:20:3]],
            82: [stack_frames(FeatureSequence(base)).frames, stack_frames(FeatureSequence(base)).frames[::2]],
        }
        for dim, frames in views.items():
            seqs = [FeatureSequence(f) for f in frames]
            assert all(seq.dim == dim for seq in seqs)
            assert not all(seq.frames.flags.c_contiguous for seq in seqs)
            frames, post = _frames_and_space(seqs)
            for supports, tests in ((frames[:1], frames[1:]), (frames[1:], frames)):
                got = _distance_buffer(supports, tests, post)
                assert got.tobytes() == broadcast_distances(supports, tests).tobytes()

    def test_posterior_buffer_is_each_pairs_product_of_smoothed_rows(self):
        rng = np.random.default_rng(18)
        supports = [random_posteriorgram(rng, n, 5).rows for n in (3, 5)]
        tests = [random_posteriorgram(rng, n, 5).rows for n in (2, 6, 1)]

        def smooth(rows):
            return SMOOTHING / 5 + (1.0 - SMOOTHING) * rows

        want = np.block([[-np.log(smooth(a) @ smooth(b).T) for b in tests] for a in supports])
        assert _distance_buffer(supports, tests, post=True).tobytes() == want.tobytes()


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_costs_equal_reference(distances, rows, cols):
    """Every (support, test) block of ``distances``, support-major, against
    the cell-by-cell oracle: cost bits and path length."""
    costs, lengths = _dtw_costs(distances, rows, cols)
    row_edges, col_edges = np.cumsum([0, *rows]), np.cumsum([0, *cols])
    want = [
        reference_dtw_cost(distances[r0:r1, c0:c1])
        for r0, r1 in zip(row_edges, row_edges[1:])
        for c0, c1 in zip(col_edges, col_edges[1:])
    ]
    got = list(zip(map(bits, costs.tolist()), lengths.tolist()))
    assert got == [(bits(cost), length) for cost, length in want]


@st.composite
def distance_grids(draw):
    """1-4 supports of 1-12 rows against 1-5 tests of 1-12 columns, the
    whole buffer filled with quantized distances: equal path sums force
    ties, signed zeros show which operand a tie kept, and lanes past a
    pair's end read a neighbour's real values."""
    values = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 1.0])
    rows = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    cols = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    size = sum(rows) * sum(cols)
    grid = np.array(draw(st.lists(values, min_size=size, max_size=size)))
    return grid.reshape(sum(rows), sum(cols)), rows, cols


class TestWavefront:
    @settings(max_examples=300, deadline=None)
    @given(distance_grids())
    def test_every_pair_equals_reference_property(self, grid):
        assert_costs_equal_reference(*grid)

    def test_signed_zero_ties_keep_the_diagonal(self):
        # every path costs zero; the diagonal carries -0.0 and must win the ties
        matrix = np.array([[-0.0, 0.0], [0.0, -0.0]])
        costs, lengths = _dtw_costs(matrix, [2], [2])
        assert bits(costs[0]) == bits(-0.0) and lengths[0] == 2

    def test_empty_batch(self):
        costs, lengths = _dtw_costs(np.empty((0, 0)), [], [])
        assert costs.shape == lengths.shape == (0,)

    @pytest.mark.parametrize("space", ["fbank", "posteriorgram"])
    def test_equals_reference_on_real_supports(self, real_episodes, space):
        for supports, tests in real_episodes[space]:
            frames, post = _frames_and_space([*supports, *tests])
            queries, frames = frames[: len(supports)], frames[len(supports) :]
            distances = _distance_buffer(queries, frames, post)
            assert_costs_equal_reference(distances, list(map(len, queries)), list(map(len, frames)))

    @pytest.mark.parametrize("space", ["fbank", "posteriorgram"])
    def test_peak_memory_stays_near_the_distance_buffer(self, real_episodes, space):
        # the one distance buffer is the only large allocation: no skewed or
        # padded copy of it
        for supports, tests in real_episodes[space]:
            frames, _ = _frames_and_space([*supports, *tests])
            rows = sum(map(len, frames[: len(supports)]))
            buffer_bytes = rows * sum(map(len, frames[len(supports) :])) * 8
            tracemalloc.start()
            try:
                dtw_detect_segments(supports, [[t] for t in tests])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * buffer_bytes, (peak, buffer_bytes)

    @pytest.mark.parametrize("space", ["fbank", "posteriorgram"])
    def test_detect_all_equals_detect_per_test(self, real_episodes, space):
        for supports, tests in real_episodes[space]:
            got = dtw_detect_segments(supports, [[t] for t in tests])
            want = [dtw_detect(supports, test) for test in tests]
            assert list(map(bits, got)) == list(map(bits, want))

    def test_detect_all_without_tests(self):
        seq = fbank_seq(np.ones((2, 41)))
        assert dtw_detect_segments([seq], []) == []
        with pytest.raises(ValueError):
            dtw_detect_segments([], [[seq]])

    def test_detect_segments_scores_a_test_without_segments_minus_inf_in_place(self):
        rng = np.random.default_rng(5)
        supports = [fbank_seq(rng.normal(size=(n, 41))) for n in (4, 6)]
        first = [fbank_seq(rng.normal(size=(n, 41))) for n in (3, 5)]
        last = [fbank_seq(rng.normal(size=(7, 41)))]
        got = dtw_detect_segments(supports, [first, [], last])
        want = [max(dtw_detect(supports, seq) for seq in first), -math.inf, dtw_detect(supports, last[0])]
        assert list(map(bits, got)) == list(map(bits, want))
        assert dtw_detect_segments(supports, [[], []]) == [-math.inf, -math.inf]

    def test_a_test_without_frames_scores_minus_inf(self):
        # the posteriorgram of a one-window VAD segment has no stacked frame
        rng = np.random.default_rng(6)
        supports = [random_posteriorgram(rng, n, 4) for n in (4, 6)]
        empty, short, long = (random_posteriorgram(rng, n, 4) for n in (0, 3, 5))
        got = dtw_detect_segments(supports, [[empty], [short], [empty], [long]])
        want = [-math.inf, dtw_detect(supports, short), -math.inf, dtw_detect(supports, long)]
        assert list(map(bits, got)) == list(map(bits, want))
        assert dtw_detect_segments(supports, [[empty]]) == [-math.inf]
        assert dtw_detect(supports, empty) == -math.inf
        got = dtw_detect_segments(supports, [[empty], [empty, short], []])
        assert list(map(bits, got)) == list(map(bits, [-math.inf, want[1], -math.inf]))
        fbank_empty = fbank_seq(np.zeros((0, 41)))
        fbank_support = fbank_seq(rng.normal(size=(3, 41)))
        assert dtw_detect_segments([fbank_support], [[fbank_empty]]) == [-math.inf]

    def test_a_support_without_frames_is_an_error(self):
        rng = np.random.default_rng(7)
        empty, test = random_posteriorgram(rng, 0, 4), random_posteriorgram(rng, 3, 4)
        for tests in ([test], [empty], []):
            with pytest.raises(ValueError, match="non-empty support"):
                dtw_detect_segments([random_posteriorgram(rng, 2, 4), empty], [[t] for t in tests])


@pytest.fixture(scope="module")
def real_episodes(oracle_model):
    """(supports, tests) per episode of ``generate_synthetic_episodes(7, 5)``,
    featurized as the harness does, in both feature spaces."""
    from wakespot.synth import generate_synthetic_episodes
    from wakespot.vad import VadConfig
    from wakespot.wakeword import featurize

    out = {"fbank": [], "posteriorgram": []}
    for episode in generate_synthetic_episodes(7, 5):
        recordings = [*episode.support, *(t.audio for t in episode.tests)]
        for space, weights in (("fbank", None), ("posteriorgram", oracle_model)):
            seqs = [seq for [seq] in featurize(recordings, VadConfig(), weights)]
            out[space].append((seqs[:3], seqs[3:]))
    return out
