import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wakespot.audio import FeatureSequence
from wakespot.dtw import (
    DtwConfig,
    _distance_matrices,
    _dtw_costs,
    _frames_and_space,
    dtw_detect,
    dtw_detect_all,
    dtw_score,
    frame_distance_post,
)
from wakespot.label_model import Posteriorgram

from conftest import make_alphabet, random_posteriorgram, reference_dtw_cost


def fbank_seq(rows):
    rows = np.asarray(rows, dtype=np.float64)
    padded = np.zeros((rows.shape[0], 41))
    padded[:, : rows.shape[1]] = rows
    return FeatureSequence(padded, 100)


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
            assert math.isclose(frame_distance_post(u, u, 1e-5), math.log(k), abs_tol=1e-12)

    def test_matching_one_hots(self):
        k = 40
        lam = 1e-5
        p = np.zeros(k)
        p[7] = 1.0
        # independent arithmetic for the smoothed self dot product
        hot = lam / k + (1.0 - lam)
        rest = lam / k
        expected = -math.log(hot * hot + (k - 1) * rest * rest)
        got = frame_distance_post(p, p, lam)
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
        got = frame_distance_post(p, q, lam)
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
            assert frame_distance_post(p, q, 1e-5) > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            frame_distance_post(np.ones(3) / 3, np.ones(4) / 4)


class TestDtwScore:
    def test_identical_fbank_sequences_score_zero(self):
        rng = np.random.default_rng(5)
        seq = fbank_seq(rng.normal(size=(6, 41)))
        for norm in ("none", "path_length"):
            config = DtwConfig(feature_space="fbank", normalization=norm)
            assert dtw_score(seq, seq, config) == 0.0

    def test_single_frame_query_forces_path(self):
        rng = np.random.default_rng(6)
        q = rng.normal(size=(1, 41))
        t = rng.normal(size=(4, 41))
        config = DtwConfig(feature_space="fbank", normalization="none")
        got = dtw_score(fbank_seq(q), fbank_seq(t), config)
        expected = -sum(float(np.linalg.norm(q[0] - t[i])) for i in range(4))
        assert math.isclose(got, expected, rel_tol=1e-12)

    def test_matches_exhaustive_path_oracle_exactly(self):
        rng = np.random.default_rng(7)
        config = DtwConfig(feature_space="fbank", normalization="none")
        for _ in range(60):
            n, m = rng.integers(1, 6, size=2)
            a = fbank_seq(rng.normal(size=(n, 41)))
            b = fbank_seq(rng.normal(size=(m, 41)))
            diff = a.frames[:, None, :] - b.frames[None, :, :]
            distances = np.sqrt((diff * diff).sum(axis=2))
            assert dtw_score(a, b, config) == -exhaustive_dtw_cost(distances)

    def test_posterior_space_matches_oracle(self):
        rng = np.random.default_rng(8)
        config = DtwConfig(feature_space="posteriorgram", normalization="none", smoothing=1e-5)
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
            assert dtw_score(a, b, config) == -exhaustive_dtw_cost(distances)
            assert math.isclose(
                distances[0, 0], frame_distance_post(a.rows[0], b.rows[0], lam), rel_tol=1e-12
            )

    def test_cost_monotone_when_extending_test(self):
        rng = np.random.default_rng(9)
        config = DtwConfig(feature_space="fbank", normalization="none")
        a = fbank_seq(rng.normal(size=(4, 41)))
        b_rows = rng.normal(size=(5, 41))
        far = rng.normal(size=(2, 41)) + 50.0
        short_score = dtw_score(a, fbank_seq(b_rows), config)
        long_score = dtw_score(a, fbank_seq(np.vstack([b_rows, far])), config)
        assert long_score <= short_score

    def test_type_checks(self):
        rng = np.random.default_rng(10)
        feats = fbank_seq(rng.normal(size=(3, 41)))
        post = random_posteriorgram(rng, 3, 4)
        with pytest.raises(TypeError):
            dtw_score(feats, feats, DtwConfig(feature_space="posteriorgram"))
        with pytest.raises(TypeError):
            dtw_score(post, post, DtwConfig(feature_space="fbank"))
        with pytest.raises(TypeError):
            dtw_score(feats, post, DtwConfig(feature_space="fbank"))

    def test_empty_rejected(self):
        feats = fbank_seq(np.zeros((0, 41)))
        with pytest.raises(ValueError):
            dtw_score(feats, feats, DtwConfig(feature_space="fbank"))

    def test_path_normalization_divides_by_path_cells(self):
        rng = np.random.default_rng(11)
        a = fbank_seq(rng.normal(size=(3, 41)))
        raw = dtw_score(a, a, DtwConfig(feature_space="fbank", normalization="none"))
        normalized = dtw_score(a, a, DtwConfig(feature_space="fbank", normalization="path_length"))
        assert raw == normalized == 0.0
        b = fbank_seq(rng.normal(size=(3, 41)))
        raw = dtw_score(a, b, DtwConfig(feature_space="fbank", normalization="none"))
        normalized = dtw_score(a, b, DtwConfig(feature_space="fbank", normalization="path_length"))
        assert normalized >= raw  # dividing a negative score by path length shrinks it


class TestDtwDetect:
    def test_identical_support_scores_zero(self):
        rng = np.random.default_rng(12)
        seq = fbank_seq(rng.normal(size=(5, 41)))
        other = fbank_seq(rng.normal(size=(5, 41)))
        config = DtwConfig(feature_space="fbank", normalization="none", aggregation="max")
        assert dtw_detect([other, seq, other], seq, config) == 0.0

    def test_all_supports_identical(self):
        rng = np.random.default_rng(13)
        support = fbank_seq(rng.normal(size=(4, 41)))
        test = fbank_seq(rng.normal(size=(6, 41)))
        config = DtwConfig(feature_space="fbank")
        assert dtw_detect([support] * 3, test, config) == dtw_score(support, test, config)

    def test_support_permutation_invariance(self):
        rng = np.random.default_rng(14)
        supports = [fbank_seq(rng.normal(size=(4, 41))) for _ in range(3)]
        test = fbank_seq(rng.normal(size=(5, 41)))
        for agg in ("max", "mean"):
            config = DtwConfig(feature_space="fbank", aggregation=agg)
            base = dtw_detect(supports, test, config)
            assert dtw_detect(supports[::-1], test, config) == pytest.approx(base, abs=1e-12)

    def test_mean_aggregation_runs(self):
        rng = np.random.default_rng(15)
        supports = [fbank_seq(rng.normal(size=(4, 41))) for _ in range(3)]
        test = fbank_seq(rng.normal(size=(5, 41)))
        config = DtwConfig(feature_space="fbank", aggregation="mean")
        scores = [dtw_score(s, test, config) for s in supports]
        assert dtw_detect(supports, test, config) == pytest.approx(sum(scores) / 3)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            DtwConfig(feature_space="mfcc")
        with pytest.raises(ValueError):
            DtwConfig(smoothing=0.0)
        with pytest.raises(ValueError):
            DtwConfig(smoothing=1.0)
        with pytest.raises(ValueError):
            DtwConfig(normalization="length")
        with pytest.raises(ValueError):
            DtwConfig(aggregation="min")


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_costs_equal_reference(matrices):
    costs, lengths = _dtw_costs(matrices)
    got = list(zip(map(bits, costs.tolist()), lengths.tolist()))
    want = [(bits(cost), length) for cost, length in map(reference_dtw_cost, matrices)]
    assert got == want


@st.composite
def ragged_distance_batches(draw):
    """1-6 matrices of 1-12 by 1-12 quantized distances: equal path sums
    force ties, and signed zeros show which operand a tie kept."""
    values = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 0.1, 0.2, 0.3])
    matrices = []
    for _ in range(draw(st.integers(1, 6))):
        n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        matrices.append(np.array(draw(st.lists(values, min_size=n * m, max_size=n * m))).reshape(n, m))
    return matrices


class TestWavefront:
    @settings(max_examples=300, deadline=None)
    @given(ragged_distance_batches())
    def test_costs_and_path_lengths_equal_reference_property(self, matrices):
        assert_costs_equal_reference(matrices)

    def test_signed_zero_ties_keep_the_diagonal(self):
        # every path costs zero; the diagonal carries -0.0 and must win the ties
        matrix = np.array([[-0.0, 0.0], [0.0, -0.0]])
        costs, lengths = _dtw_costs([matrix])
        assert bits(costs[0]) == bits(-0.0) and lengths[0] == 2

    def test_empty_batch(self):
        costs, lengths = _dtw_costs([])
        assert costs.shape == lengths.shape == (0,)

    @pytest.mark.parametrize("space", ["fbank", "posteriorgram"])
    def test_equals_reference_on_real_supports(self, real_episodes, space):
        config = DtwConfig(feature_space=space)
        for supports, tests in real_episodes[space]:
            frames = [_frames_and_space(test, config) for test in tests]
            for support in supports:
                query = _frames_and_space(support, config)
                assert_costs_equal_reference(_distance_matrices(query, frames, config))

    @pytest.mark.parametrize("space", ["fbank", "posteriorgram"])
    @pytest.mark.parametrize("aggregation", ["max", "mean"])
    @pytest.mark.parametrize("normalization", ["none", "path_length"])
    def test_detect_all_equals_detect_per_test(self, real_episodes, space, aggregation, normalization):
        config = DtwConfig(feature_space=space, aggregation=aggregation, normalization=normalization)
        for supports, tests in real_episodes[space]:
            got = dtw_detect_all(supports, tests, config)
            want = [dtw_detect(supports, test, config) for test in tests]
            assert list(map(bits, got)) == list(map(bits, want))

    def test_detect_all_without_tests(self):
        seq = fbank_seq(np.ones((2, 41)))
        assert dtw_detect_all([seq], [], DtwConfig(feature_space="fbank")) == []
        with pytest.raises(ValueError):
            dtw_detect_all([], [seq], DtwConfig(feature_space="fbank"))


@pytest.fixture(scope="module")
def real_episodes(oracle_model):
    """(supports, tests) per episode of ``generate_synthetic_episodes(7, 5)``,
    featurized as the harness does, in both feature spaces."""
    from wakespot.audio import extract_fbank, stack_frames
    from wakespot.label_model import run
    from wakespot.synth import generate_synthetic_episodes
    from wakespot.vad import VadConfig, trim_to_speech

    out = {"fbank": [], "posteriorgram": []}
    for episode in generate_synthetic_episodes(7, 5):
        recordings = [*episode.support, *(t.audio for t in episode.tests)]
        fbanks = [extract_fbank(trim_to_speech(VadConfig(), a)[0]) for a in recordings]
        posts = [run(oracle_model, stack_frames(f)) for f in fbanks]
        for space, seqs in (("fbank", fbanks), ("posteriorgram", posts)):
            out[space].append((seqs[:3], seqs[3:]))
    return out
