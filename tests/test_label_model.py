import dataclasses
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wakespot import container, synth
from wakespot.audio import FeatureSequence, extract_fbank, stack_frames
from wakespot.errors import DimensionError, FileFormatError, NonFiniteError, UnknownVersionError
from wakespot.label_model import (
    GruWeights,
    LabelAlphabet,
    Posteriorgram,
    gru_step,
    init_state,
    load_posteriorgram,
    load_weights,
    random_weights,
    run,
    save_posteriorgram,
    save_weights,
    zero_weights,
)

from conftest import make_alphabet, random_posteriorgram


def stacked_features(rng, frames=8):
    return FeatureSequence(rng.normal(0.0, 1.0, size=(frames, 82)), 50)


class TestLabelAlphabet:
    def test_size_counts_blank(self):
        alphabet = make_alphabet(4)
        assert alphabet.size == 5
        assert alphabet.blank_index == 0

    def test_symbol_round_trip(self):
        alphabet = LabelAlphabet(("AA", "IY"))
        assert alphabet.index_of("AA") == 1
        assert alphabet.symbol_of(2) == "IY"
        assert alphabet.symbol_of(0) == "<b>"

    def test_rejects_duplicates_and_blank(self):
        with pytest.raises(ValueError):
            LabelAlphabet(("A", "A"))
        with pytest.raises(ValueError):
            LabelAlphabet(("A", "<b>"))
        with pytest.raises(ValueError):
            LabelAlphabet(("A", ""))

    @pytest.mark.parametrize("labels", [("ah", "b c"), ("ah", "b\tc"), ("ah", "\x1f")])
    def test_rejects_symbols_that_are_not_single_tokens(self, labels):
        # model files and manifests split labels on whitespace, which
        # includes the \x1f separator of content_hash
        with pytest.raises(ValueError):
            LabelAlphabet(labels)

    def test_hash_changes_with_content(self):
        assert LabelAlphabet(("A", "B")).content_hash() != LabelAlphabet(("A", "C")).content_hash()


class TestRun:
    def test_zero_weights_give_uniform_rows(self):
        rng = np.random.default_rng(0)
        alphabet = make_alphabet(4)
        weights = zero_weights(alphabet, num_layers=2, hidden_size=8)
        post = run(weights, stacked_features(rng, 6))
        assert post.rows.shape == (6, 5)
        assert np.allclose(post.rows, 1.0 / 5.0)

    def test_single_frame(self):
        rng = np.random.default_rng(1)
        weights = random_weights(make_alphabet(3), num_layers=1, hidden_size=6, seed=5)
        post = run(weights, stacked_features(rng, 1))
        assert post.rows.shape == (1, 4)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        weights = random_weights(make_alphabet(5), seed=3)
        post = run(weights, stacked_features(rng, 12))
        assert np.allclose(post.rows.sum(axis=1), 1.0, atol=1e-5)
        post.validate(atol=1e-5)

    def test_dim_mismatch_rejected(self):
        weights = random_weights(make_alphabet(3), seed=1)
        bad = FeatureSequence(np.zeros((4, 41)), 100)
        with pytest.raises(ValueError):
            run(weights, bad)

    def test_causality(self):
        rng = np.random.default_rng(3)
        weights = random_weights(make_alphabet(4), seed=9)
        features = stacked_features(rng, 10)
        full = run(weights, features).rows
        for t in (1, 4, 7):
            prefix = FeatureSequence(features.frames[:t], 50)
            assert np.allclose(run(weights, prefix).rows, full[:t], atol=1e-9)

    def test_oracle_weights_decode_one_hot_patterns(self):
        # hand-built single-layer model: feature pattern j activates label j+1
        alphabet = make_alphabet(4)
        hidden = 4
        weights = zero_weights(alphabet, num_layers=1, hidden_size=hidden)
        w_h = np.zeros((hidden, 82))
        for j in range(hidden):
            w_h[j, j] = 3.0
        w_out = np.zeros((alphabet.size, hidden))
        for j in range(hidden):
            w_out[j + 1, j] = 40.0  # large projection magnitudes -> near one-hot rows
        layer = weights.layers[0].__class__(
            w_z=weights.layers[0].w_z,
            w_r=weights.layers[0].w_r,
            w_h=w_h,
            u_z=weights.layers[0].u_z,
            u_r=weights.layers[0].u_r,
            u_h=weights.layers[0].u_h,
            b_z=np.full(hidden, -20.0),
            b_r=weights.layers[0].b_r,
            b_h=weights.layers[0].b_h,
        )
        oracle = GruWeights((layer,), w_out, np.zeros(alphabet.size), alphabet)
        frames = np.zeros((4, 82))
        for t in range(4):
            frames[t, t] = 1.0
        post = run(oracle, FeatureSequence(frames, 50))
        assert list(post.rows.argmax(axis=1)) == [1, 2, 3, 4]


@cache
def named_weights(name: str) -> GruWeights:
    if name == "oracle":
        return synth.oracle_weights()
    weights = random_weights(synth.synth_alphabet(), num_layers=3, hidden_size=96, seed=21)
    if name == "random_3x96":
        return weights
    # random_weights leaves the biases at zero; give every bias a value
    rng = np.random.default_rng(22)
    layers = tuple(
        dataclasses.replace(layer, **{b: rng.normal(size=96) for b in ("b_z", "b_r", "b_h")})
        for layer in weights.layers
    )
    return dataclasses.replace(weights, layers=layers, b_out=rng.normal(size=weights.num_symbols))


@cache
def speech_frames() -> np.ndarray:
    """Stacked filterbank frames of a synthetic utterance, so the oracle
    model's detector units see the levels they were built for."""
    speaker = synth.Speaker(pitch=1.0, rate=1.0, gain_db=0.0)
    audio = synth.render_utterance((2, 5, 9, 12), speaker, np.random.default_rng(4))
    return stack_frames(extract_fbank(audio)).frames


@st.composite
def recordings(draw):
    """0-30 frames: a window of real speech frames plus seeded noise."""
    pool = speech_frames()
    length = draw(st.integers(0, 30))
    start = draw(st.integers(0, len(pool) - 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return FeatureSequence(
        pool[start : start + length] + rng.normal(0.0, 0.5, size=(length, pool.shape[1])), 50
    )


class TestRunEqualsSteps:
    @pytest.mark.parametrize("name", ["oracle", "random_3x96", "random_3x96_biased"])
    @settings(max_examples=60, deadline=None)
    @given(features=recordings())
    @example(features=FeatureSequence(np.zeros((7, 82)), 50))
    @example(features=FeatureSequence(np.zeros((0, 82)), 50))
    def test_run_equals_gru_step_loop_bit_for_bit_property(self, name, features):
        weights = named_weights(name)
        post = run(weights, features)
        state = init_state(weights)
        assert post.alphabet == weights.alphabet
        assert post.rows.shape == (features.num_frames, weights.num_symbols)
        for t in range(features.num_frames):
            row, state = gru_step(weights, state, features.frames[t])
            assert row.tobytes() == post.rows[t].tobytes()


class TestStreaming:
    def test_streaming_equals_batch(self):
        rng = np.random.default_rng(4)
        weights = random_weights(make_alphabet(4), seed=11)
        features = stacked_features(rng, 49)
        batch = run(weights, features).rows
        state = init_state(weights)
        for t in range(features.num_frames):
            row, state = gru_step(weights, state, features.frames[t])
            assert np.allclose(row, batch[t], atol=1e-9)

    def test_fresh_state_matches_first_row(self):
        rng = np.random.default_rng(5)
        weights = random_weights(make_alphabet(4), seed=12)
        features = stacked_features(rng, 3)
        row, _ = gru_step(weights, init_state(weights), features.frames[0])
        assert np.array_equal(row, run(weights, features).rows[0])

    def test_state_reset_gives_independent_outputs(self):
        rng = np.random.default_rng(6)
        weights = random_weights(make_alphabet(4), seed=13)
        frame = rng.normal(size=82)
        fresh = init_state(weights)
        row_a, state = gru_step(weights, fresh, rng.normal(size=82))
        row_after_reset, _ = gru_step(weights, fresh, frame)  # stepping left `fresh` as it was
        row_fresh, _ = gru_step(weights, init_state(weights), frame)
        assert np.array_equal(row_after_reset, row_fresh)


class TestWeightFiles:
    def test_round_trip(self, tmp_path):
        weights = random_weights(make_alphabet(6), num_layers=2, hidden_size=10, seed=21)
        path = tmp_path / "w.bin"
        save_weights(path, weights)
        back = load_weights(path)
        assert back.num_layers == 2
        assert back.alphabet == weights.alphabet
        assert np.allclose(back.w_out, weights.w_out, atol=1e-6)

    def test_parameter_count_for_paper_shape(self, tmp_path, caplog):
        # 3x96 on 82-dim stacked input with a 39-label alphabet: ~168k parameters
        alphabet = make_alphabet(39)
        weights = zero_weights(alphabet, num_layers=3, hidden_size=96)
        assert abs(weights.num_parameters - 168_000) < 4_000
        path = tmp_path / "w.bin"
        save_weights(path, weights)
        import logging

        with caplog.at_level(logging.INFO):
            load_weights(path)
        assert any("parameters" in record.message for record in caplog.records)

    def test_zero_weights_load(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(path, zero_weights(make_alphabet(3), 1, 4))
        assert load_weights(path).num_parameters > 0

    def test_unknown_magic(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(UnknownVersionError):
            load_weights(path)

    def test_unknown_version(self, tmp_path):
        weights = zero_weights(make_alphabet(3), 1, 4)
        path = tmp_path / "w.bin"
        save_weights(path, weights)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(UnknownVersionError):
            load_weights(path)

    def test_truncation_is_dimension_error(self, tmp_path):
        weights = zero_weights(make_alphabet(3), 1, 4)
        path = tmp_path / "w.bin"
        save_weights(path, weights)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(DimensionError):
            load_weights(path)

    def test_non_finite_rejected(self, tmp_path):
        weights = zero_weights(make_alphabet(3), 1, 4)
        path = tmp_path / "w.bin"
        save_weights(path, weights)
        data = bytearray(path.read_bytes())
        header = 4 + 5 * 4
        data[header : header + 4] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(NonFiniteError):
            load_weights(path)

    def test_zero_hidden_units_refused(self):
        # the loader refuses them too: zero-width layers would take no bytes
        with pytest.raises(DimensionError):
            zero_weights(make_alphabet(3), 1, 0)

    def test_output_dim_alphabet_mismatch(self):
        alphabet = make_alphabet(3)
        good = zero_weights(alphabet, 1, 4)
        bad = GruWeights(good.layers, np.zeros((7, 4)), np.zeros(7), alphabet)
        with pytest.raises(DimensionError):
            bad.validate()


class TestPosteriorgramFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        post = random_posteriorgram(rng, 3, 3)
        path = tmp_path / "p.post"
        save_posteriorgram(path, post)
        back = load_posteriorgram(path)
        assert back.num_frames == 3
        assert back.alphabet == post.alphabet
        assert np.allclose(back.rows, post.rows, atol=1e-6)
        # float32 round trip is lossy but stable: a second trip is exact
        save_posteriorgram(path, back)
        again = load_posteriorgram(path)
        assert np.array_equal(again.rows, back.rows)

    def test_row_sum_violation_rejected(self, tmp_path):
        rows = np.array([[0.25, 0.25]])
        post = Posteriorgram(rows, make_alphabet(1))
        path = tmp_path / "p.post"
        with pytest.raises(ValueError):
            save_posteriorgram(path, post)
        # write it raw, bypassing save-side validation
        container.write(path, b"WSPG", 1, (1, 2), [post.alphabet.labels, rows])
        with pytest.raises(FileFormatError):
            load_posteriorgram(path)

    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "p.post"
        path.write_bytes(b"ZZZZ" + b"\x00" * 16)
        with pytest.raises(UnknownVersionError):
            load_posteriorgram(path)
