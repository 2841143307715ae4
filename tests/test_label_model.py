import dataclasses
import itertools
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wakespot import container, label_model, synth
from wakespot.audio import FeatureSequence, extract_fbank, stack_frames
from wakespot.errors import DimensionError, FileFormatError, NonFiniteError, UnknownVersionError
from wakespot.label_model import (
    GruLayer,
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
        post.validate()

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
        w = np.zeros((3, hidden, 82))  # input weights of z, r and h
        for j in range(hidden):
            w[2, j, j] = 3.0
        b_zr = np.zeros((2, hidden))
        b_zr[0] = -20.0
        w_out = np.zeros((alphabet.size, hidden))
        for j in range(hidden):
            w_out[j + 1, j] = 40.0  # large projection magnitudes -> near one-hot rows
        layer = dataclasses.replace(weights.layers[0], w=w, b_zr=b_zr)
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
        dataclasses.replace(layer, b_zr=rng.normal(size=(2, 96)), b_h=rng.normal(size=96))
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


def per_gate_rows(weights, frames):
    """Posterior rows by the GRU formula with every gate its own
    matrix-vector product and the z and r gates joined by concatenation;
    each gate is read from its layer's stacks."""

    def sigmoid(x):
        ex = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0, ex) / (1.0 + ex)

    state = [np.zeros(weights.hidden_size) for _ in weights.layers]
    rows = []
    for x in frames:
        for i, layer in enumerate(weights.layers):
            h = state[i]
            (w_z, w_r, w_h), (u_z, u_r), (b_z, b_r) = layer.w, layer.u_zr, layer.b_zr
            x_zr = np.concatenate([w_z @ x, w_r @ x])
            u_zr = np.concatenate([u_z @ h, u_r @ h])
            zr = sigmoid(x_zr + u_zr + np.concatenate([b_z, b_r]))
            z, r = zr[: h.size], zr[h.size :]
            c = np.tanh(w_h @ x + layer.u_h @ (r * h) + layer.b_h)
            x = state[i] = (1.0 - z) * c + z * h
        logits = weights.w_out @ x + weights.b_out
        ex = np.exp(logits - logits.max())
        rows.append(ex / ex.sum())
    return np.array(rows).reshape(len(frames), weights.num_symbols)


class TestStackedGates:
    @settings(max_examples=40, deadline=None)
    @given(
        num_layers=st.integers(1, 4),
        hidden=st.sampled_from([1, 5, 41, 82]),
        input_dim=st.sampled_from([41, 82]),
        frames=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_and_gru_step_equal_per_gate_products_property(
        self, num_layers, hidden, input_dim, frames, seed
    ):
        # H % 4 != 0 throughout: a (2H, H) row-stacked product rounds
        # differently there
        rng = np.random.default_rng(seed)
        layers = []
        for shapes in label_model._layer_shapes(num_layers, hidden, input_dim):
            # every bias nonzero; matrices scaled by fan-in like random_weights
            layers.append(
                GruLayer(*(rng.normal(0.0, 2.0 / np.sqrt(s[-1]), size=s) for s in shapes))
            )
        alphabet = make_alphabet(5)
        weights = GruWeights(
            tuple(layers), rng.normal(size=(6, hidden)), rng.normal(size=6), alphabet
        )
        frame_rate = 50 if input_dim == 82 else 100
        features = FeatureSequence(rng.normal(0.0, 2.0, size=(frames, input_dim)), frame_rate)
        want = per_gate_rows(weights, features.frames)
        assert np.array_equal(run(weights, features).rows, want)
        state = init_state(weights)
        for t in range(frames):
            row, state = gru_step(weights, state, features.frames[t])
            assert np.array_equal(row, want[t])

    def test_a_stack_of_the_wrong_shape_is_refused(self):
        weights = zero_weights(make_alphabet(3), 2, 4)
        for i, name in itertools.product(range(2), label_model._LAYER_FIELDS):
            stack = getattr(weights.layers[i], name)
            for bad in (stack[1:], stack[0]):  # one gate or row short; one gate of a stack
                layers = list(weights.layers)
                layers[i] = dataclasses.replace(layers[i], **{name: bad})
                with pytest.raises(DimensionError, match="has shape"):
                    dataclasses.replace(weights, layers=tuple(layers))


@settings(max_examples=40, deadline=None)
@given(
    num_layers=st.integers(1, 4),
    frames=st.integers(0, 20),
    cuts=st.lists(st.integers(0, 20), max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_chained_over_blocks_equals_run_property(num_layers, frames, cuts, seed):
    """The GRU kernel over consecutive blocks of a recording, each block
    from the state the last one returned, gives the bits of ``run``; the
    blocks may be empty, and a state passed in stays as it was."""
    rng = np.random.default_rng(seed)
    weights = random_weights(make_alphabet(5), num_layers, 7, seed=int(rng.integers(2**31)))
    features = stacked_features(rng, frames)
    want = run(weights, features).rows
    bounds = [0, *sorted(min(c, frames) for c in cuts), frames]
    state = init_state(weights)
    rows = []
    for lo, hi in zip(bounds, bounds[1:]):
        passed, before = state, [h.copy() for h in state]
        block, state = label_model._run_from(weights, features.frames[lo:hi], passed)
        assert block.shape == (hi - lo, weights.num_symbols)
        assert all(np.array_equal(h, b) for h, b in zip(passed, before))
        rows.append(block)
    assert np.concatenate(rows).tobytes() == want.tobytes()


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
        with pytest.raises(DimensionError):
            GruWeights(good.layers, np.zeros((7, 4)), np.zeros(7), alphabet)

    @pytest.mark.parametrize("num_layers, hidden", [(1, 5), (2, 5), (3, 96)])
    def test_seeded_weights_draw_each_gate_in_file_order(self, num_layers, hidden):
        # Wz Wr Wh Uz Ur Uh per layer, then W_out, each N(0, 1/sqrt(fan-in));
        # every bias zero
        alphabet = make_alphabet(4)
        rng = np.random.default_rng(7)

        def gate(rows, fan_in):
            return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(rows, fan_in))

        weights = random_weights(alphabet, num_layers, hidden, seed=7)
        assert weights.num_layers == num_layers
        for i, layer in enumerate(weights.layers):
            w_z, w_r, w_h = (gate(hidden, 82 if i == 0 else hidden) for _ in "zrh")
            u_z, u_r, u_h = (gate(hidden, hidden) for _ in "zrh")
            assert np.array_equal(layer.w, np.stack([w_z, w_r, w_h]))
            assert np.array_equal(layer.u_zr, np.stack([u_z, u_r]))
            assert np.array_equal(layer.u_h, u_h)
            assert not layer.b_zr.any() and not layer.b_h.any()
        assert np.array_equal(weights.w_out, gate(alphabet.size, hidden))
        assert not weights.b_out.any()


class TestPosteriorgram:
    def test_rows_of_more_than_two_dimensions_are_refused(self):
        alphabet = make_alphabet(2)
        with pytest.raises(ValueError, match="2-D"):
            Posteriorgram(np.full((2, 2, 3), 1.0 / 3.0), alphabet)

    def test_flat_rows_are_reshaped(self):
        alphabet = make_alphabet(2)
        assert Posteriorgram([], alphabet).rows.shape == (0, 3)
        assert Posteriorgram(np.full(6, 1.0 / 3.0), alphabet).rows.shape == (2, 3)


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
